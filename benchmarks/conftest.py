"""Shared builders for the benchmark harness.

Every benchmark constructs its KMT instances through the helpers here so the
terms being measured are exactly the ones the paper's evaluation uses (Fig. 9's
rows, the Section 5 scaling family) and so the ablation benchmarks can rebuild
the same workloads with different configurations.
"""

from __future__ import annotations

import random

import pytest

from repro.core import terms as T
from repro.core.kmt import KMT
from repro.theories.bitvec import BitVecTheory
from repro.theories.incnat import Gt, IncNatTheory
from repro.theories.ltlf import LtlfTheory
from repro.theories.maps import MapTheory, NatBoolMapAdapter
from repro.theories.netkat import NetKatTheory
from repro.theories.product import ProductTheory
from repro.theories.sets import NatExpressionAdapter, SetTheory
from repro.theories.temporal_netkat import temporal_netkat


@pytest.fixture
def kmt_incnat():
    return KMT(IncNatTheory())


@pytest.fixture
def kmt_bitvec():
    return KMT(BitVecTheory())


@pytest.fixture
def kmt_product():
    return KMT(ProductTheory(IncNatTheory(), BitVecTheory()))


@pytest.fixture
def kmt_ltlf_nat():
    return KMT(LtlfTheory(IncNatTheory()))


@pytest.fixture
def kmt_temporal_netkat():
    return KMT(temporal_netkat({"sw": (1, 2, 3), "dst": (1, 2)}))


@pytest.fixture
def kmt_sets():
    nat = IncNatTheory(variables=("i",))
    adapter = NatExpressionAdapter(nat, variables=("i",))
    return KMT(SetTheory(nat, adapter, set_variables=("X",)))


@pytest.fixture
def kmt_maps():
    nat = IncNatTheory(variables=("i",))
    bools = BitVecTheory(variables=("parity",))
    inner = ProductTheory(nat, bools)
    adapter = NatBoolMapAdapter(nat, bools, key_variables=("i",), value_variables=("parity",))
    return KMT(MapTheory(inner, adapter, map_variables=("odd",)))


def random_arithmetic_predicate(seed=2022, variables=("x", "y"), max_bound=20, size=4):
    """Fig. 9 row 1's "random arithmetic predicate" over the IncNat theory.

    A fixed seed keeps the benchmark deterministic across runs while still
    exercising a non-trivial Boolean combination of bound tests.
    """
    rng = random.Random(seed)

    def leaf():
        return T.pprim(Gt(rng.choice(variables), rng.randint(0, max_bound)))

    pred = leaf()
    for _ in range(size - 1):
        connective = rng.choice(("and", "or", "not"))
        if connective == "and":
            pred = T.pand(pred, leaf())
        elif connective == "or":
            pred = T.por(pred, leaf())
        else:
            pred = T.pnot(pred)
    return pred


def one_way_flip_loop(n):
    """The Section 5 scaling family: (x1=F; x1:=T + ... + xn=F; xn:=T)*."""
    theory = BitVecTheory()
    summands = []
    for index in range(1, n + 1):
        var = f"x{index}"
        summands.append(
            T.tseq(T.ttest(theory.eq(var, False)), theory.assign(var, True))
        )
    return T.tstar(T.tplus_all(summands)), theory


def flip_loop(variables):
    """The Fig. 9 row 7 blow-up: (flip x + flip y + ...)*."""
    theory = BitVecTheory()
    return T.tstar(T.tplus_all(theory.flip(var) for var in variables)), theory
