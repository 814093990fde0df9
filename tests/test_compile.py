"""Tests for the compiled symbolic automaton IR (:mod:`repro.core.compile`).

Unit tests pin the IR invariants (dense BFS numbering, canonical alphabet
order, accepting bitset, shortest-access back-pointers), Hopcroft
minimization (canonical minimal sizes, language preservation), and the
query operations (the comparisons of :mod:`repro.core.kernels`, emptiness,
membership); the hypothesis section holds them to the derivative-based
reference in :mod:`repro.core.oracle` over random restricted actions.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core import terms as T
from repro.core.automata import (
    canonical,
    derivative,
    nullable,
    sorted_alphabet,
)
from repro.core.compile import CompiledAutomaton, compile_automaton
from repro.core.kernels import flat_compare, flat_includes
from repro.core.oracle import language_compare, language_is_empty
from repro.core.regexes import accepts_word, language_up_to
from repro.theories.bitvec import BoolAssign
from repro.utils.errors import KmtError, QueryCancelled
from tests.conftest import restricted_actions

A = T.tprim(BoolAssign("a", True))
B = T.tprim(BoolAssign("b", True))
PI_A = BoolAssign("a", True)
PI_B = BoolAssign("b", True)


class TestCompileStructure:
    def test_trivial_automata(self):
        one = compile_automaton(T.tone())
        assert one.state_count == 1 and one.accepts(()) and not one.is_empty()
        zero = compile_automaton(T.tzero())
        assert zero.state_count == 1 and zero.is_empty() and not zero.accepts(())

    def test_alphabet_is_canonical_order(self):
        aut = compile_automaton(T.tseq(B, A))
        assert aut.sigma == sorted_alphabet(canonical(T.tseq(B, A)))
        assert aut.sigma == tuple(sorted({PI_A, PI_B}, key=repr))

    def test_initial_state_is_zero_and_transitions_dense(self):
        aut = compile_automaton(T.tseq(A, B))
        assert aut.initial == 0
        # Flat arena layout: one contiguous row-major int table.
        assert len(aut.delta) == aut.state_count * len(aut.sigma)
        assert len(aut.back) == 2 * aut.state_count
        for state in range(aut.state_count):
            row = aut.row(state)
            assert len(row) == len(aut.sigma)
            for target in row:
                assert 0 <= target < aut.state_count

    def test_transitions_agree_with_derivatives(self):
        """Each table step simulates one Brzozowski derivative step."""
        m = T.tplus(T.tseq(A, T.tstar(B)), B)
        aut = compile_automaton(m, minimize=False)
        # Replay the BFS: walk every state's access word through derivatives
        # and check nullability against the accepting bitset.
        for state in range(aut.state_count):
            term = canonical(m)
            for pi in aut.access_word(state):
                term = derivative(term, pi)
            assert nullable(term) == aut.is_accepting(state)

    def test_back_pointers_give_shortest_access_words(self):
        aut = compile_automaton(T.tseq(A, T.tseq(B, A)))
        # BFS numbering: access-word lengths are nondecreasing in state id.
        lengths = [len(aut.access_word(s)) for s in range(aut.state_count)]
        assert lengths == sorted(lengths)
        assert aut.access_word(0) == ()

    def test_shortest_accepted_word(self):
        aut = compile_automaton(T.tplus(T.tseq(A, B), T.tseq(A, T.tseq(B, A))))
        assert aut.shortest_accepted_word() == (PI_A, PI_B)
        assert compile_automaton(T.tzero()).shortest_accepted_word() is None
        assert compile_automaton(T.tstar(A)).shortest_accepted_word() == ()

    def test_rejects_non_restricted_actions(self):
        with pytest.raises(KmtError):
            compile_automaton(T.ttest(T.pprim(object())))

    def test_immutable(self):
        aut = compile_automaton(A)
        with pytest.raises(AttributeError, match="attempted to set"):
            aut.sigma = ()
        # Deletion must report a deletion, not claim an attempted set.
        with pytest.raises(AttributeError, match="attempted to delete"):
            del aut.accepting

    def test_cancel_hook_fires(self):
        calls = []

        def cancel():
            calls.append(1)
            if len(calls) > 1:
                raise QueryCancelled("stop")

        with pytest.raises(QueryCancelled):
            compile_automaton(T.tseq(A, T.tseq(B, A)), cancel=cancel)


class TestMinimization:
    def test_minimal_sizes(self):
        # a* over {a}: a single accepting state.
        assert compile_automaton(T.tstar(A)).state_count == 1
        # 1 + a;a* denotes a*; minimization must collapse to the same DFA.
        unrolled = T.tplus(T.tone(), T.tseq(A, T.tstar(A)))
        assert compile_automaton(unrolled).state_count == 1
        # a;b over {a,b}: start, after-a, accept, dead.
        assert compile_automaton(T.tseq(A, B)).state_count == 4

    def test_raw_states_recorded(self):
        unrolled = T.tplus(T.tone(), T.tseq(A, T.tstar(A)))
        aut = compile_automaton(unrolled)
        assert aut.raw_states >= aut.state_count
        raw = compile_automaton(unrolled, minimize=False)
        assert raw.state_count == aut.raw_states

    def test_minimization_preserves_language(self):
        m = T.tplus(T.tseq(T.tstar(A), B), T.tseq(A, T.tstar(T.tplus(A, B))))
        minimized = compile_automaton(m)
        raw = compile_automaton(m, minimize=False)
        assert minimized.state_count <= raw.state_count
        for word in language_up_to(m, 4):
            assert minimized.accepts(word) and raw.accepts(word)
        equivalent, word = flat_compare(minimized, raw)
        assert equivalent and word is None

    def test_syntactic_variants_compile_to_same_size(self):
        """The cached artifact depends on the language, not the syntax."""
        variants = [
            T.tstar(T.tplus(A, B)),
            T.tseq(T.tstar(A), T.tstar(T.tseq(B, T.tstar(A)))),  # denesting
        ]
        sizes = {compile_automaton(v).state_count for v in variants}
        assert len(sizes) == 1


class TestCompiledCompare:
    def test_equivalent_pair(self):
        a = compile_automaton(T.tstar(T.tplus(A, B)))
        b = compile_automaton(T.tseq(T.tstar(A), T.tstar(T.tseq(B, T.tstar(A)))))
        assert flat_compare(a, b) == (True, None)

    def test_witness_is_shortest(self):
        # a;a;a vs a;a;a;a first differ at the length-3 word.
        m = compile_automaton(T.tseq(A, T.tseq(A, A)))
        n = compile_automaton(T.tseq(A, T.tseq(A, T.tseq(A, A))))
        equivalent, word = flat_compare(m, n)
        assert not equivalent
        assert word == (PI_A, PI_A, PI_A)

    def test_disjoint_alphabets_use_dead_sink(self):
        equivalent, word = flat_compare(compile_automaton(A), compile_automaton(B))
        assert not equivalent
        assert word in ((PI_A,), (PI_B,))
        # Two empty-language automata over different alphabets are equivalent.
        assert flat_compare(
            compile_automaton(T.tseq(A, T.tzero())),
            compile_automaton(T.tseq(B, T.tzero())),
        ) == (True, None)


class TestCompiledIncludes:
    def test_reflexive_and_strict(self):
        a = compile_automaton(A)
        a_or_b = compile_automaton(T.tplus(A, B))
        assert flat_includes(a, a) == (True, None)
        assert flat_includes(a, a_or_b) == (True, None)
        included, word = flat_includes(a_or_b, a)
        assert not included
        assert word == (PI_B,)  # a shortest word in L(a+b) \ L(a)

    def test_star_containment(self):
        once = compile_automaton(A)
        star = compile_automaton(T.tstar(A))
        assert flat_includes(once, star) == (True, None)
        included, word = flat_includes(star, once)
        assert not included and word in ((), (PI_A, PI_A))
        assert word == ()  # epsilon is the shortest one-sided word

    def test_empty_language_included_in_everything(self):
        empty = compile_automaton(T.tzero())
        assert flat_includes(empty, compile_automaton(B)) == (True, None)
        included, word = flat_includes(compile_automaton(B), empty)
        assert not included and word == (PI_B,)


class TestAgainstDerivativeOracles:
    """The compiled walks must agree with the derivative-based module."""

    @settings(max_examples=80, deadline=None)
    @given(restricted_actions(max_leaves=5), restricted_actions(max_leaves=5))
    def test_compare_matches_language_compare(self, m, n):
        am, an = compile_automaton(m), compile_automaton(n)
        equivalent, word = flat_compare(am, an)
        assert equivalent == language_compare(m, n)[0]
        if not equivalent:
            assert accepts_word(m, word) != accepts_word(n, word)

    @settings(max_examples=80, deadline=None)
    @given(restricted_actions(max_leaves=5), restricted_actions(max_leaves=5))
    def test_includes_matches_definition(self, m, n):
        included, word = flat_includes(compile_automaton(m), compile_automaton(n))
        # L(m) <= L(n) iff L(m + n) == L(n).
        assert included == language_compare(T.tplus(m, n), n)[0]
        if not included:
            assert accepts_word(m, word) and not accepts_word(n, word)

    @settings(max_examples=60, deadline=None)
    @given(restricted_actions(max_leaves=5))
    def test_membership_matches_enumeration(self, m):
        aut = compile_automaton(m)
        assert aut.is_empty() == language_is_empty(m)
        enumerated = language_up_to(m, 3)
        for word in enumerated:
            assert aut.accepts(word)
        # Probe some non-words too: every length<=2 word over the alphabet.
        sigma = aut.sigma
        probes = [()] + [(x,) for x in sigma] + [(x, y) for x in sigma for y in sigma]
        for word in probes:
            assert aut.accepts(word) == (word in enumerated)

    @settings(max_examples=60, deadline=None)
    @given(restricted_actions(max_leaves=5))
    def test_minimization_is_canonical(self, m):
        """Minimized sizes are a language invariant: compare with the raw
        automaton and with a syntactic double (m + m is rewritten to m by the
        smart constructors, so perturb with ;1 instead)."""
        minimized = compile_automaton(m)
        variant = compile_automaton(T.tseq(m, T.tone()))
        assert minimized.state_count == variant.state_count
        assert flat_compare(minimized, variant) == (True, None)
