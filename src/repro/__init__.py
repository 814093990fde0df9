"""Kleene Algebra Modulo Theories (KMT) — a Python reproduction of PLDI 2022.

Quick start::

    from repro import KMT, IncNatTheory

    kmt = KMT(IncNatTheory())
    assert kmt.equivalent("inc(x)*; x > 10", "inc(x)*; inc(x)*; x > 10")

The public API re-exports:

* :class:`~repro.core.kmt.KMT` — a client theory plus everything the framework
  derives (parser, tracing semantics, normalization, decision procedures,
  program analyses).  One facade owns the memo tables and the normalizer,
  so a ``KMT`` memoizes across calls; it is not thread-safe, and callers
  that share one take ``kmt.lock``.  ``EngineSession`` is the engine's name
  for the same class;
* the term constructors of :mod:`repro.core.terms`;
* the shipped client theories of :mod:`repro.theories`;
* the While-program frontend of :mod:`repro.lang.while_lang`.
"""

from repro.core.kmt import KMT
from repro.core import terms
from repro.engine.session import EngineSession
from repro.core.terms import (
    pand,
    pnot,
    pone,
    por,
    pprim,
    pzero,
    tone,
    tplus,
    tprim,
    tseq,
    tstar,
    ttest,
    tzero,
)
from repro.theories.bitvec import BitVecTheory
from repro.theories.incnat import IncNatTheory
from repro.theories.ltlf import LtlfTheory
from repro.theories.maps import MapTheory, NatBoolMapAdapter
from repro.theories.netkat import NetKatTheory
from repro.theories.product import ProductTheory
from repro.theories.sets import NatExpressionAdapter, SetTheory
from repro.theories.temporal_netkat import temporal_netkat

__version__ = "1.0.0"

__all__ = [
    "KMT",
    "EngineSession",
    "terms",
    "BitVecTheory",
    "IncNatTheory",
    "LtlfTheory",
    "MapTheory",
    "NatBoolMapAdapter",
    "NetKatTheory",
    "ProductTheory",
    "SetTheory",
    "NatExpressionAdapter",
    "temporal_netkat",
    "pand",
    "pnot",
    "pone",
    "por",
    "pprim",
    "pzero",
    "tone",
    "tplus",
    "tprim",
    "tseq",
    "tstar",
    "ttest",
    "tzero",
    "__version__",
]
