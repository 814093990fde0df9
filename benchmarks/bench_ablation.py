"""Ablation benchmarks for the optimizations of the paper's Section 4.1.

Three ablations, each comparing the shipped configuration against a degraded
one on the same workload:

1. smart constructors on/off during normalization (Section 4.1's first
   optimization);
2. the custom bounds-based IncNat satisfiability oracle vs. naive enumeration
   of assignments (Section 4.1's "custom solvers beat the Z3 embedding");
3. unsatisfiable-cell pruning in the explicit cell enumerator on vs. off.

The benchmark names encode the configuration so `pytest-benchmark`'s
comparison output lines the pairs up.
"""

import pytest

from repro.core import terms as T
from repro.core.pushback import normalize
from repro.core.terms import smart_constructors_disabled
from repro.smt.dpll import dpll_satisfiable, naive_satisfiable
from repro.theories.incnat import Gt, IncNatTheory
from repro.core.kmt import KMT
from repro.core.oracle import OracleChecker


# ---------------------------------------------------------------------------
# 1. smart constructors
# ---------------------------------------------------------------------------


def _normalization_workload(kmt):
    return kmt.parse("x < 2; (x < 4; inc(x); inc(y))*; ~(x < 4); y > 1")


def test_ablation_smart_constructors_on(benchmark, kmt_incnat):
    term = _normalization_workload(kmt_incnat)

    def run():
        return normalize(term, kmt_incnat.theory, budget=2_000_000)

    nf = benchmark(run)
    benchmark.extra_info["summands"] = len(nf)


def test_ablation_smart_constructors_off(benchmark, kmt_incnat):
    term = _normalization_workload(kmt_incnat)

    def run():
        with smart_constructors_disabled():
            return normalize(term, kmt_incnat.theory, budget=2_000_000)

    nf = benchmark(run)
    benchmark.extra_info["summands"] = len(nf)


# ---------------------------------------------------------------------------
# 2. custom theory solver vs. naive enumeration
# ---------------------------------------------------------------------------


def _bounds_predicate(width):
    """A chain of bound tests with exactly one satisfying window."""
    theory = IncNatTheory()
    pred = T.pone()
    for index in range(width):
        pred = T.pand(pred, T.pprim(Gt("x", index)))
    pred = T.pand(pred, T.pnot(T.pprim(Gt("x", width))))
    return pred, theory


def test_ablation_custom_solver(benchmark):
    pred, theory = _bounds_predicate(10)

    def run():
        return dpll_satisfiable(pred, theory)

    assert benchmark(run) is True


def test_ablation_naive_enumeration(benchmark):
    pred, theory = _bounds_predicate(10)

    def run():
        return naive_satisfiable(pred, theory)

    assert benchmark(run) is True


# ---------------------------------------------------------------------------
# 3. unsatisfiable-cell pruning in the explicit cell enumerator
# ---------------------------------------------------------------------------


def _cell_heavy_pair():
    kmt = KMT(IncNatTheory())
    left = kmt.parse("inc(x)*; x > 6")
    right = kmt.parse("inc(x)*; inc(x)*; x > 6")
    return kmt.theory, left, right


def test_ablation_cell_pruning_on(benchmark):
    # Pruning belongs to the reference enumerator (the production signature
    # search never visits an unsatisfiable cell).
    theory, left, right = _cell_heavy_pair()
    checker = OracleChecker(theory, prune_unsat_cells=True)

    def run():
        return checker.check_equivalent(left, right)

    result = benchmark(run)
    benchmark.extra_info["cells_explored"] = result.cells_explored
    assert result.equivalent


def test_ablation_cell_pruning_off(benchmark):
    theory, left, right = _cell_heavy_pair()
    checker = OracleChecker(theory, prune_unsat_cells=False)

    def run():
        return checker.check_equivalent(left, right)

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    benchmark.extra_info["cells_explored"] = result.cells_explored
    assert result.equivalent
