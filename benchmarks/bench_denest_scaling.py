"""Section 5 scaling claim: normal forms of guarded-sum loops grow explosively.

The paper discusses the loop ``(x1=F; x1:=T + ... + xn=F; xn:=T)*`` and reports
that the number of disjunctions in the *locally unambiguous form* grows as
4, 16, 512, 65536 for n = 1..4 (roughly O(2^(2^n))).  The quantity our decision
procedure materialises is the set of satisfiable primitive-test cells times the
summands of the normal form; this benchmark measures, for n = 1..3:

* the time to normalize the loop,
* the size of the resulting normal form, and
* the number of cells the decision procedure explores to prove the loop
  equivalent to itself,

so the super-exponential trend (not the absolute constants) can be compared
with the paper's 4 / 16 / 512 series.  n = 4 is far out of reach for this
implementation, as the paper's own numbers predict.
"""

import pytest

from repro.core.kmt import KMT
from repro.core.oracle import OracleChecker
from repro.core.pushback import normalize_with_stats

from benchmarks.conftest import one_way_flip_loop


@pytest.mark.parametrize("n", [1, 2, 3])
def test_denest_normalization_scaling(benchmark, n):
    term, theory = one_way_flip_loop(n)

    def normalize():
        nf, stats = normalize_with_stats(term, theory, budget=5_000_000)
        return nf, stats

    nf, stats = benchmark(normalize)
    benchmark.extra_info["normal_form_summands"] = len(nf)
    benchmark.extra_info["pushback_steps"] = stats.steps
    benchmark.extra_info["denests"] = stats.denests
    assert len(nf) >= n + 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_denest_decision_cells_scaling(benchmark, n):
    # The 2^n satisfiable-cell count is a property of the explicit enumerator
    # (the reference oracle); the signature search is measured in
    # benchmarks/bench_cell_search.py.
    term, theory = one_way_flip_loop(n)
    oracle = OracleChecker(theory, budget=5_000_000)

    def decide():
        return oracle.check_equivalent(term, term)

    result = benchmark.pedantic(decide, rounds=1, iterations=1)
    benchmark.extra_info["cells_explored"] = result.cells_explored
    benchmark.extra_info["cells_pruned"] = result.cells_pruned
    assert result.equivalent
    # The satisfiable-cell count doubles with every extra variable (2^n).
    assert result.cells_explored == 2 ** n


@pytest.mark.parametrize("n", [1, 2, 3])
def test_denest_decision_signature_scaling(benchmark, n):
    """The signature search never compares more than the enumerator's cells."""
    term, theory = one_way_flip_loop(n)
    kmt = KMT(theory, budget=5_000_000)

    def decide():
        return kmt.check_equivalent(term, term)

    result = benchmark.pedantic(decide, rounds=1, iterations=1)
    benchmark.extra_info["signatures_explored"] = result.signatures_explored
    benchmark.extra_info["language_compares"] = result.cells_explored
    assert result.equivalent
    assert result.cells_explored <= 2 ** n
