"""Tests for Brzozowski derivatives (Section 4.1) and the reference oracle's
Hopcroft–Karp equivalence over them."""

import pytest
from hypothesis import given, settings

from repro.core import terms as T
from repro.utils.errors import CounterexampleBoundExceeded
from repro.core.automata import (
    alphabet,
    canonical,
    derivative,
    derivative_states,
    nullable,
)
from repro.core.oracle import counterexample_word, language_equivalent, language_is_empty
from repro.core.regexes import accepts_word, language_up_to
from repro.theories.bitvec import BoolAssign
from tests.conftest import restricted_actions

A = T.tprim(BoolAssign("a", True))
B = T.tprim(BoolAssign("b", True))
PI_A = BoolAssign("a", True)
PI_B = BoolAssign("b", True)


class TestNullable:
    def test_constants(self):
        assert nullable(T.tone())
        assert not nullable(T.tzero())

    def test_primitive_not_nullable(self):
        assert not nullable(A)

    def test_star_always_nullable(self):
        assert nullable(T.tstar(A))

    def test_seq_and_plus(self):
        assert nullable(T.tseq(T.tstar(A), T.tstar(B)))
        assert not nullable(T.tseq(A, T.tstar(B)))
        assert nullable(T.tplus(A, T.tone()))
        assert not nullable(T.tplus(A, B))


class TestDerivative:
    def test_primitive(self):
        assert derivative(A, PI_A) is T.tone()
        assert derivative(A, PI_B) is T.tzero()

    def test_sequence(self):
        d = derivative(T.tseq(A, B), PI_A)
        assert d == B
        assert derivative(T.tseq(A, B), PI_B) is T.tzero()

    def test_nullable_sequence_skips_ahead(self):
        d = derivative(T.tseq(T.tstar(A), B), PI_B)
        assert nullable(d)

    def test_star(self):
        star = T.tstar(A)
        assert derivative(star, PI_A) == star

    def test_alphabet(self):
        assert alphabet(T.tseq(A, T.tstar(B))) == {PI_A, PI_B}


class TestCanonical:
    def test_flattens_and_sorts_sums(self):
        left = T.tplus(A, T.tplus(B, A))
        right = T.tplus(T.tplus(B, A), B)
        assert canonical(left) == canonical(right)

    def test_right_associates_sequences(self):
        left = T.tseq(T.tseq(A, B), A)
        right = T.tseq(A, T.tseq(B, A))
        assert canonical(left) == canonical(right)

    def test_drops_units(self):
        with T.smart_constructors_disabled():
            messy = T.tseq(T.tone(), T.tseq(A, T.tone()))
        assert canonical(messy) == A

    def test_zero_annihilates(self):
        with T.smart_constructors_disabled():
            messy = T.tseq(A, T.tzero())
        assert canonical(messy) is T.tzero()

    def test_derivatives_stay_finite_on_large_sums(self):
        """Without ACI-canonicalisation the derivative states of this sum grow forever."""
        chains = [T.tseq_all([A] * k) for k in range(1, 8)]
        chains.append(T.tseq(T.tstar(A), T.tseq_all([A] * 5)))
        big = T.tplus_all(chains)
        states = derivative_states(big, max_states=500)
        assert len(states) < 50


class TestLanguageQueries:
    def test_language_is_empty(self):
        assert language_is_empty(T.tzero())
        assert not language_is_empty(T.tone())
        assert not language_is_empty(T.tstar(A))
        assert language_is_empty(T.tseq(A, T.tzero()))

    def test_equivalence_basics(self):
        assert language_equivalent(T.tstar(T.tstar(A)), T.tstar(A))
        assert language_equivalent(T.tplus(A, B), T.tplus(B, A))
        assert not language_equivalent(A, B)
        assert not language_equivalent(T.tstar(A), A)

    def test_denesting_law(self):
        """(a + b)* == a*;(b;a*)*  (the Denesting consequence of Fig. 5)."""
        lhs = T.tstar(T.tplus(A, B))
        rhs = T.tseq(T.tstar(A), T.tstar(T.tseq(B, T.tstar(A))))
        assert language_equivalent(lhs, rhs)

    def test_sliding_law(self):
        """a;(b;a)* == (a;b)*;a."""
        lhs = T.tseq(A, T.tstar(T.tseq(B, A)))
        rhs = T.tseq(T.tstar(T.tseq(A, B)), A)
        assert language_equivalent(lhs, rhs)

    def test_counterexample_word(self):
        word = counterexample_word(T.tstar(A), T.tseq(A, T.tstar(A)))
        assert word == ()  # epsilon distinguishes a* from a;a*
        assert counterexample_word(T.tstar(A), T.tstar(A)) is None

    def test_counterexample_word_bound_hit_raises(self):
        """Regression: a truncated search must not report "equivalent".

        ``a;a;a`` vs ``a;a;a;a`` differ only at words of length 3/4; with
        ``max_length=2`` the search cannot reach the difference, and the old
        code returned ``None`` — indistinguishable from a proved equivalence.
        """
        m = T.tseq(A, T.tseq(A, A))
        n = T.tseq(A, T.tseq(A, T.tseq(A, A)))
        with pytest.raises(CounterexampleBoundExceeded) as excinfo:
            counterexample_word(m, n, max_length=2)
        assert excinfo.value.max_length == 2
        # With room to run, the same pair yields the genuine shortest witness.
        assert counterexample_word(m, n, max_length=8) == (PI_A, PI_A, PI_A)
        # An equivalence decided within the bound still returns None (the
        # product space is exhausted before any truncation happens).
        assert counterexample_word(T.tstar(A), T.tstar(A), max_length=1) is None

    def test_accepts_word(self):
        term = T.tseq(A, T.tstar(B))
        assert accepts_word(term, (PI_A,))
        assert accepts_word(term, (PI_A, PI_B, PI_B))
        assert not accepts_word(term, (PI_B,))
        assert not accepts_word(term, ())


class TestAgainstEnumeration:
    """Differential testing of the automaton against brute-force enumeration."""

    MAX_LEN = 6

    @settings(max_examples=60, deadline=None)
    @given(restricted_actions(max_leaves=5), restricted_actions(max_leaves=5))
    def test_equivalence_matches_bounded_language_comparison(self, m, n):
        equal = language_equivalent(m, n)
        bounded_equal = language_up_to(m, self.MAX_LEN) == language_up_to(n, self.MAX_LEN)
        if equal:
            assert bounded_equal
        if not bounded_equal:
            assert not equal

    @settings(max_examples=60, deadline=None)
    @given(restricted_actions(max_leaves=5))
    def test_emptiness_matches_enumeration(self, m):
        assert language_is_empty(m) == (not language_up_to(m, self.MAX_LEN))
        # Emptiness of restricted actions is stable under canonicalisation.
        assert language_is_empty(m) == language_is_empty(canonical(m))

    @settings(max_examples=40, deadline=None)
    @given(restricted_actions(max_leaves=5))
    def test_words_accepted_iff_enumerated(self, m):
        for word in language_up_to(m, 3):
            assert accepts_word(m, word)

    @settings(max_examples=40, deadline=None)
    @given(restricted_actions(max_leaves=4))
    def test_canonical_preserves_language(self, m):
        assert language_equivalent(m, canonical(m))
