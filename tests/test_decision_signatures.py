"""Signature-guided cell search: behavior, caching, and the randomized
differential test against the reference cell enumerator
(:mod:`repro.core.oracle`).

The differential test is the acceptance gate for the solver-guided search:
it must return the reference's verdicts over generated terms, and every
counterexample must be *valid* — its cell theory-satisfiable and its word
accepted by exactly one side's restricted actions within that cell.
"""

from __future__ import annotations

import random

import pytest

from repro.core import terms as T
from repro.core.decision import EquivalenceChecker
from repro.core.kmt import KMT
from repro.core.oracle import OracleChecker, derivative_accepts
from repro.engine.session import EngineSession
from repro.theories.bitvec import BitVecTheory, BoolAssign, BoolEq
from repro.theories.incnat import AssignNat, Gt, IncNatTheory, Incr
from repro.utils.errors import KmtError

DIFFERENTIAL_PAIRS_PER_THEORY = 200


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


#: Derivative-based membership: does the restricted action accept ``word``?
accepts = derivative_accepts


def assert_valid_counterexample(theory, result):
    """A counterexample's cell must be satisfiable, its word one-sided."""
    cex = result.counterexample
    assert cex is not None
    if cex.cell:
        assert theory.satisfiable_conjunction(list(cex.cell))
    word = tuple(cex.word)
    assert accepts(cex.left_actions, word) != accepts(cex.right_actions, word)


# ---------------------------------------------------------------------------
# behavior of the signature search
# ---------------------------------------------------------------------------


class TestSignatureSearchBehavior:
    def test_shared_guard_context_collapses_cells(self):
        """A conjunction of k irrelevant tests costs 2 signatures, not 2^k."""
        theory = BitVecTheory()
        prefix = "a = T; b = T; c = T; d = T"
        left = f"{prefix}; (e := T)*"
        right = f"{prefix}; (e := T)*; (e := T)*"
        kmt = KMT(theory)
        sig = kmt.check_equivalent(left, right)
        enum = OracleChecker(BitVecTheory()).check_equivalent(kmt.parse(left), kmt.parse(right))
        assert sig.equivalent and enum.equivalent
        assert sig.signatures_explored == 2
        assert enum.cells_explored == 2 ** 4
        assert sig.cells_explored < enum.cells_explored

    def test_irrelevant_atoms_left_out_of_witness(self):
        """The counterexample cell only mentions tests some guard depends on."""
        theory = BitVecTheory()
        kmt = KMT(theory)
        result = kmt.check_equivalent("a = T; b := T", "a = T; b := F")
        assert not result.equivalent
        cell = dict(result.counterexample.cell)
        assert cell == {BoolEq("a"): True}

    def test_memo_dedupes_identical_action_pairs(self):
        """Signatures whose enabled sums are identical need no comparison."""
        theory = BitVecTheory()
        kmt = KMT(theory)
        # Both guards select the same action, so every signature enables
        # ``b := T`` on both sides and reflexivity settles it.
        result = kmt.check_equivalent(
            "a = T; b := T + ~(a = T); b := T", "b := T"
        )
        assert result.equivalent
        assert result.signatures_explored >= 2
        assert result.cells_explored < result.signatures_explored

    def test_invalid_mode_rejected(self):
        """The cell strategy is no longer a knob: only the signature search ships."""
        with pytest.raises(TypeError):
            EquivalenceChecker(BitVecTheory(), cell_search="enumerate")
        with pytest.raises(TypeError):
            KMT(BitVecTheory(), cell_search="signature")

    def test_many_signatures_no_recursion_blowup(self):
        """Worst case: independent guards, signatures == cells.

        The blocking set must stay a flat clause list — an early version
        nested it into one formula and died with RecursionError near 1000
        signatures (and went quadratic well before that).
        """
        n = 10
        term = " + ".join(f"a{i} = T; b{i} := T" for i in range(n))
        result = KMT(BitVecTheory()).check_equivalent(term, term)
        assert result.equivalent
        assert result.signatures_explored == 2 ** n

    def test_counterexamples_valid_in_both_modes(self):
        pairs = [
            ("x > 1", "x > 2"),
            ("inc(x); x > 1", "inc(x); x > 2"),
            ("x > 1; inc(x) + inc(y)", "x > 1; inc(x)"),
        ]
        theory = IncNatTheory()
        kmt = KMT(theory)
        oracle = OracleChecker(IncNatTheory())
        for left, right in pairs:
            p, q = kmt.parse(left), kmt.parse(right)
            for result in (kmt.check_equivalent(p, q), oracle.check_equivalent(p, q)):
                assert not result.equivalent
                assert_valid_counterexample(theory, result)

    def test_warm_session_counts_comparisons(self):
        """``cells_explored`` counts the comparisons a query runs, whatever
        earlier queries left in the session."""
        session = EngineSession(IncNatTheory(variables=("x",)))
        session.check_equivalent("x > 1; inc(x)", "x > 2; inc(x)")
        # A different query (different guards, so a fresh normal-form pair)
        # whose signatures compare the same restricted-action pairs.
        warm = session.check_equivalent("x > 3; inc(x)", "x > 4; inc(x)")
        cold = KMT(IncNatTheory(variables=("x",))).check_equivalent(
            "x > 3; inc(x)", "x > 4; inc(x)")
        assert not warm.cached
        assert warm.cells_explored == cold.cells_explored > 0


# ---------------------------------------------------------------------------
# randomized differential: signature search vs reference enumerator
# ---------------------------------------------------------------------------


def _random_pred(rng, leaf, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.5:
        return leaf(rng)
    if roll < 0.65:
        return T.pnot(_random_pred(rng, leaf, depth - 1))
    if roll < 0.85:
        return T.pand(_random_pred(rng, leaf, depth - 1), _random_pred(rng, leaf, depth - 1))
    return T.por(_random_pred(rng, leaf, depth - 1), _random_pred(rng, leaf, depth - 1))


def _leaf_term(rng, pred_leaf, action_leaf):
    if rng.random() < 0.4:
        return T.ttest(_random_pred(rng, pred_leaf, 1))
    return T.tprim(action_leaf(rng))


def _random_term(rng, pred_leaf, action_leaf, depth):
    """A random small term.  Stars only wrap leaves: starred compound bodies
    make derivative state counts (and normal forms) explode, which
    tests decision *performance*, not differential agreement — the scaling
    story lives in ``benchmarks/bench_cell_search.py``."""
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        return _leaf_term(rng, pred_leaf, action_leaf)
    if roll < 0.4:
        return T.tstar(T.tprim(action_leaf(rng)))
    if roll < 0.7:
        return T.tseq(
            _random_term(rng, pred_leaf, action_leaf, depth - 1),
            _random_term(rng, pred_leaf, action_leaf, depth - 1),
        )
    return T.tplus(
        _random_term(rng, pred_leaf, action_leaf, depth - 1),
        _random_term(rng, pred_leaf, action_leaf, depth - 1),
    )


def _bitvec_generators():
    variables = ("a", "b", "c")

    def pred_leaf(rng):
        return T.pprim(BoolEq(rng.choice(variables)))

    def action_leaf(rng):
        return BoolAssign(rng.choice(variables), rng.random() < 0.5)

    return BitVecTheory(variables=variables), pred_leaf, action_leaf


def _incnat_generators():
    variables = ("x", "y")

    def pred_leaf(rng):
        return T.pprim(Gt(rng.choice(variables), rng.randint(0, 4)))

    def action_leaf(rng):
        if rng.random() < 0.6:
            return Incr(rng.choice(variables))
        return AssignNat(rng.choice(variables), rng.randint(0, 4))

    return IncNatTheory(variables=variables), pred_leaf, action_leaf


def _equivalent_variant(rng, p, other, leaf):
    """A pair of terms provably equivalent by a KAT law (not syntactically so)."""
    choice = rng.randrange(4)
    if choice == 0:
        return p, T.tplus(p, p)
    if choice == 1:
        return p, T.tseq(p, T.tone())
    if choice == 2:
        # Star unrolling: m* == 1 + m; m* — over a leaf body only (starred
        # compound bodies blow up normalization, see ``_random_term``).
        return T.tstar(leaf), T.tplus(T.tone(), T.tseq(leaf, T.tstar(leaf)))
    # Commuted sum with an unrelated term.
    return T.tplus(p, other), T.tplus(other, p)


def _run_differential(theory_builder, seed, pairs=DIFFERENTIAL_PAIRS_PER_THEORY):
    theory, pred_leaf, action_leaf = theory_builder()
    rng = random.Random(seed)
    signature = KMT(theory, budget=60_000)
    enumerate_ = OracleChecker(theory, budget=60_000)
    compared = 0
    inequivalent = 0
    equivalent = 0
    attempts = 0
    while compared < pairs:
        attempts += 1
        assert attempts < pairs * 20, "too many generation attempts"
        p = _random_term(rng, pred_leaf, action_leaf, depth=3)
        q = _random_term(rng, pred_leaf, action_leaf, depth=3)
        if rng.random() < 0.45:
            # Random independent pairs are almost always inequivalent; derive
            # q from p by a KAT law so the "exhaust every signature" path
            # (the equivalent verdict) gets real coverage too.
            p, q = _equivalent_variant(rng, p, q, T.tprim(action_leaf(rng)))
        try:
            sig_result = signature.check_equivalent(p, q)
            enum_result = enumerate_.check_equivalent(p, q)
        except KmtError:
            continue  # pushback budget blow-ups are exercised elsewhere
        assert sig_result.equivalent == enum_result.equivalent, (
            f"verdict mismatch on {p!r} vs {q!r}"
        )
        if not sig_result.equivalent:
            inequivalent += 1
            assert_valid_counterexample(theory, sig_result)
            assert_valid_counterexample(theory, enum_result)
        else:
            equivalent += 1
        compared += 1
    assert compared >= pairs
    # The generated population must exercise both verdicts to mean anything.
    assert inequivalent >= 20
    assert equivalent >= 20


class TestDifferential:
    def test_bitvec_differential(self):
        _run_differential(_bitvec_generators, seed=20260729)

    def test_incnat_differential(self):
        _run_differential(_incnat_generators, seed=20260730)
