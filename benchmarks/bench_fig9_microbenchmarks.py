"""Fig. 9: the paper's implementation microbenchmarks, one bench per row.

Each benchmark measures the end-to-end cost of the same equivalence query the
paper reports (parse + normalize + decide).  Absolute times will differ from
the paper's OCaml numbers; compare the *shape* instead (which queries are
instant, which one blows up).
"""

import pytest

from repro.core import terms as T
from repro.core.kmt import KMT
from repro.theories.bitvec import BitVecTheory
from repro.utils.errors import NormalizationBudgetExceeded

from benchmarks.conftest import flip_loop, random_arithmetic_predicate


def test_fig9_row1_star_neq_pred(benchmark, kmt_incnat):
    """a* != a for a random arithmetic predicate a (theory N).  Paper: 0.034s."""
    pred = random_arithmetic_predicate()
    star = T.tstar(T.ttest(pred))
    plain = T.ttest(pred)

    def query():
        return kmt_incnat.equivalent(star, plain)

    assert benchmark(query) is False


def test_fig9_row2_star_idempotent(benchmark, kmt_incnat):
    """inc_x*; x>10 == inc_x*; inc_x*; x>10 (theory N).  Paper: <0.001s."""
    left = kmt_incnat.parse("inc(x)*; x > 10")
    right = kmt_incnat.parse("inc(x)*; inc(x)*; x > 10")

    def query():
        return kmt_incnat.equivalent(left, right)

    assert benchmark(query) is True


def test_fig9_row3_commute_counters(benchmark, kmt_incnat):
    """inc_x*; x>3; inc_y*; y>3 == inc_x*; inc_y*; x>3; y>3 (theory N).  Paper: <0.001s."""
    left = kmt_incnat.parse("inc(x)*; x > 3; inc(y)*; y > 3")
    right = kmt_incnat.parse("inc(x)*; inc(y)*; x > 3; y > 3")

    def query():
        return kmt_incnat.equivalent(left, right)

    assert benchmark(query) is True


def test_fig9_row4_parity_loop(benchmark, kmt_bitvec):
    """x=F; (flip x; flip x)* == (flip x; flip x)*; x=F (theory B).  Paper: <0.001s."""
    left = kmt_bitvec.parse("x = F; (flip x; flip x)*")
    right = kmt_bitvec.parse("(flip x; flip x)*; x = F")

    def query():
        return kmt_bitvec.equivalent(left, right)

    assert benchmark(query) is True


def test_fig9_row5_boolean_tree(benchmark, kmt_bitvec):
    """4-variable if-condition re-association (theory B).  Paper: <0.001s."""
    left = kmt_bitvec.parse(
        "w := F; x := T; y := F; z := F; "
        "(if(w = T + x = T + y = T + z = T) then a := T else a := F)"
    )
    right = kmt_bitvec.parse(
        "w := F; x := T; y := F; z := F; "
        "(if((w = T + x = T) + (y = T + z = T)) then a := T else a := F)"
    )

    def query():
        return kmt_bitvec.equivalent(left, right)

    assert benchmark(query) is True


def test_fig9_row6_population_count(benchmark, kmt_product):
    """Population count over N x B (theory N×B).  Paper: 0.309s."""
    left = kmt_product.parse(
        "y < 1; a = T; inc(y); (1 + b = T; inc(y)); (1 + c = T; inc(y)); y > 2"
    )
    right = kmt_product.parse("y < 1; a = T; b = T; c = T; inc(y); inc(y); inc(y)")

    def query():
        return kmt_product.equivalent(left, right)

    assert benchmark(query) is True


def test_fig9_row7_flip3_timeout(benchmark):
    """(flip x + flip y + flip z)* == itself (theory B).  Paper: >30s timeout.

    The blow-up is in normalization (the Denest rule); we bound it with a step
    budget and benchmark the time to exhaust that budget, which is this
    implementation's analogue of the paper's 30-second timeout.
    """
    term, theory = flip_loop(("x", "y", "z"))
    kmt = KMT(theory, budget=100_000)

    def query():
        try:
            kmt.equivalent(term, term)
        except NormalizationBudgetExceeded:
            return "budget-exceeded"
        return "completed"

    result = benchmark.pedantic(query, rounds=1, iterations=1)
    assert result == "budget-exceeded"
