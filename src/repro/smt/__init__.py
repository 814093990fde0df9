"""Satisfiability substrate replacing the paper's Z3 embedding.

The decision procedure (Theorem 3.7) needs one oracle from the client theory:
"is this Boolean combination of primitive tests satisfiable?".  The paper's
OCaml implementation answers it either with hand-written theory solvers or by
encoding into Z3.  Z3 is not available offline, so this package provides:

* :mod:`repro.smt.dpll` — a generic DPLL(T)-style search over primitive-test
  literals with partial-assignment pruning; client theories only implement a
  conjunction-consistency check (``satisfiable_conjunction``); also the
  guard-signature search of the decision procedure.
* :mod:`repro.smt.bdd` — the per-search decision diagrams that search runs on.
* :mod:`repro.smt.literals` — substitution/evaluation helpers shared by the
  solvers and by tests.
* :mod:`repro.smt.natsolver` — the bounds-based conjunction solver used by the
  IncNat theory (the "custom solver beats Z3" path from Section 4.1).
"""

from repro.smt.dpll import dpll_satisfiable, enumerate_models, naive_satisfiable

__all__ = ["dpll_satisfiable", "enumerate_models", "naive_satisfiable"]
