"""Unit tests for the hash-consed term language and its smart constructors."""

import gc
import weakref

import pytest
from hypothesis import given, settings

from repro.core import terms as T
from repro.core.kmt import KMT
from repro.core.normalform import _canonical_conjunction, canonicalize_test
from repro.theories.bitvec import BoolAssign, BoolEq
from repro.theories.incnat import IncNatTheory
from tests.conftest import bitvec_preds, bitvec_terms, incnat_preds, incnat_terms


class TestPredSmartConstructors:
    def test_constants_are_singletons(self):
        assert T.pzero() is T.pzero()
        assert T.pone() is T.pone()

    def test_not_constants(self):
        assert T.pnot(T.pzero()) is T.pone()
        assert T.pnot(T.pone()) is T.pzero()

    def test_double_negation(self):
        a = T.pprim(BoolEq("a"))
        assert T.pnot(T.pnot(a)) is a

    def test_and_units_and_annihilators(self):
        a = T.pprim(BoolEq("a"))
        assert T.pand(T.pone(), a) is a
        assert T.pand(a, T.pone()) is a
        assert T.pand(T.pzero(), a) is T.pzero()
        assert T.pand(a, T.pzero()) is T.pzero()

    def test_and_idempotent(self):
        a = T.pprim(BoolEq("a"))
        assert T.pand(a, a) is a

    def test_and_contradiction(self):
        a = T.pprim(BoolEq("a"))
        assert T.pand(a, T.pnot(a)) is T.pzero()
        assert T.pand(T.pnot(a), a) is T.pzero()

    def test_or_units_and_annihilators(self):
        a = T.pprim(BoolEq("a"))
        assert T.por(T.pzero(), a) is a
        assert T.por(a, T.pzero()) is a
        assert T.por(T.pone(), a) is T.pone()
        assert T.por(a, T.pone()) is T.pone()

    def test_or_idempotent_and_excluded_middle(self):
        a = T.pprim(BoolEq("a"))
        assert T.por(a, a) is a
        assert T.por(a, T.pnot(a)) is T.pone()

    def test_pand_all_empty_is_one(self):
        assert T.pand_all([]) is T.pone()

    def test_por_all_empty_is_zero(self):
        assert T.por_all([]) is T.pzero()

    def test_type_errors(self):
        with pytest.raises(TypeError):
            T.pand(T.pone(), "not a pred")
        with pytest.raises(TypeError):
            T.pnot(42)


class TestTermSmartConstructors:
    def test_constants(self):
        assert T.tzero() is T.ttest(T.pzero())
        assert T.tone() is T.ttest(T.pone())

    def test_seq_units(self):
        p = T.tprim(BoolAssign("a", True))
        assert T.tseq(T.tone(), p) is p
        assert T.tseq(p, T.tone()) is p

    def test_seq_annihilators(self):
        p = T.tprim(BoolAssign("a", True))
        assert T.tseq(T.tzero(), p) is T.tzero()
        assert T.tseq(p, T.tzero()) is T.tzero()

    def test_plus_unit_and_idempotence(self):
        p = T.tprim(BoolAssign("a", True))
        assert T.tplus(T.tzero(), p) is p
        assert T.tplus(p, T.tzero()) is p
        assert T.tplus(p, p) is p

    def test_adjacent_tests_merge(self):
        a = T.pprim(BoolEq("a"))
        b = T.pprim(BoolEq("b"))
        merged = T.tseq(T.ttest(a), T.ttest(b))
        assert isinstance(merged, T.TTest)
        assert merged.pred == T.pand(a, b)
        merged_plus = T.tplus(T.ttest(a), T.ttest(b))
        assert isinstance(merged_plus, T.TTest)
        assert merged_plus.pred == T.por(a, b)

    def test_star_of_test_is_one(self):
        a = T.pprim(BoolEq("a"))
        assert T.tstar(T.ttest(a)) is T.tone()
        assert T.tstar(T.tzero()) is T.tone()
        assert T.tstar(T.tone()) is T.tone()

    def test_star_idempotent(self):
        p = T.tprim(BoolAssign("a", True))
        assert T.tstar(T.tstar(p)) is T.tstar(p)

    def test_tseq_all_and_tplus_all(self):
        p = T.tprim(BoolAssign("a", True))
        q = T.tprim(BoolAssign("b", False))
        assert T.tseq_all([]) is T.tone()
        assert T.tplus_all([]) is T.tzero()
        seq = T.tseq_all([p, q])
        assert isinstance(seq, T.TSeq)
        assert seq.left is p and seq.right is q


class TestHashConsing:
    def test_structurally_equal_terms_are_identical(self):
        a1 = T.pand(T.pprim(BoolEq("a")), T.pprim(BoolEq("b")))
        a2 = T.pand(T.pprim(BoolEq("a")), T.pprim(BoolEq("b")))
        assert a1 is a2

    def test_disabled_smart_constructors_keep_structure(self):
        a = T.pprim(BoolEq("a"))
        with T.smart_constructors_disabled():
            raw = T.pand(T.pone(), a)
            assert isinstance(raw, T.PAnd)
        # Back to normal afterwards.
        assert T.pand(T.pone(), a) is a


class TestQueries:
    def test_is_restricted(self):
        pi = T.tprim(BoolAssign("a", True))
        assert T.is_restricted(T.tseq(pi, T.tstar(pi)))
        assert T.is_restricted(T.tone())
        assert not T.is_restricted(T.ttest(T.pprim(BoolEq("a"))))
        assert not T.is_restricted(T.tseq(pi, T.ttest(T.pprim(BoolEq("a")))))

    def test_primitive_actions_collection(self):
        pi1 = BoolAssign("a", True)
        pi2 = BoolAssign("b", False)
        term = T.tplus(T.tseq(T.tprim(pi1), T.tprim(pi2)), T.tstar(T.tprim(pi1)))
        assert T.primitive_actions(term) == {pi1, pi2}

    def test_primitive_tests_collection(self):
        alpha = BoolEq("a")
        beta = BoolEq("b")
        pred = T.por(T.pnot(T.pprim(alpha)), T.pand(T.pprim(beta), T.pone()))
        assert T.primitive_tests_of_pred(pred) == {alpha, beta}
        term = T.tseq(T.ttest(pred), T.tprim(BoolAssign("c", True)))
        assert T.primitive_tests_of_term(term) == {alpha, beta}

    def test_pred_of_term(self):
        a = T.pprim(BoolEq("a"))
        assert T.pred_of_term(T.ttest(a)) is a
        assert T.pred_of_term(T.tprim(BoolAssign("a", True))) is None

    def test_size_monotone(self):
        a = T.pprim(BoolEq("a"))
        b = T.pprim(BoolEq("b"))
        assert T.pand(a, b).size > a.size
        assert T.pnot(a).size == a.size + 1

    def test_operator_overloads(self):
        a = T.pprim(BoolEq("a"))
        b = T.pprim(BoolEq("b"))
        pi = T.tprim(BoolAssign("a", True))
        assert a + b == T.por(a, b)
        assert a * b == T.pand(a, b)
        assert ~a == T.pnot(a)
        assert a * pi == T.tseq(T.ttest(a), pi)
        assert (pi + pi) is pi
        assert pi.star() == T.tstar(pi)
        assert a.as_term() == T.ttest(a)


class TestHypothesisProperties:
    @given(bitvec_preds())
    def test_pred_hash_consistent_with_equality(self, pred):
        rebuilt = _rebuild_pred(pred)
        assert rebuilt == pred
        assert hash(rebuilt) == hash(pred)

    @given(bitvec_terms())
    def test_term_pretty_is_string(self, term):
        assert isinstance(term.pretty(), str)
        assert term.size >= 1

    @given(bitvec_preds())
    def test_sort_key_total_order(self, pred):
        key = pred.sort_key()
        assert isinstance(key, tuple) and len(key) == 2


def _rebuild_pred(pred):
    """Reconstruct a predicate bottom-up (exercises the intern table)."""
    if isinstance(pred, (T.PZero, T.POne, T.PPrim)):
        return pred
    if isinstance(pred, T.PNot):
        return T.pnot(_rebuild_pred(pred.arg))
    if isinstance(pred, T.PAnd):
        return T.pand(_rebuild_pred(pred.left), _rebuild_pred(pred.right))
    if isinstance(pred, T.POr):
        return T.por(_rebuild_pred(pred.left), _rebuild_pred(pred.right))
    raise AssertionError(pred)


def _rebuild(node):
    """Rebuild a predicate or term bottom-up from fresh leaves through the
    public constructors (under whatever smart-constructor setting is live)."""
    if isinstance(node, (T.PZero, T.POne)):
        return node
    if isinstance(node, T.PPrim):
        return T.pprim(node.alpha)
    if isinstance(node, T.PNot):
        return T.pnot(_rebuild(node.arg))
    if isinstance(node, T.PAnd):
        return T.pand(_rebuild(node.left), _rebuild(node.right))
    if isinstance(node, T.POr):
        return T.por(_rebuild(node.left), _rebuild(node.right))
    if isinstance(node, T.TTest):
        return T.ttest(_rebuild(node.pred))
    if isinstance(node, T.TPrim):
        return T.tprim(node.pi)
    if isinstance(node, T.TPlus):
        return T.tplus(_rebuild(node.left), _rebuild(node.right))
    if isinstance(node, T.TSeq):
        return T.tseq(_rebuild(node.left), _rebuild(node.right))
    if isinstance(node, T.TStar):
        return T.tstar(_rebuild(node.arg))
    raise AssertionError(node)


def _restricted_by_walk(term):
    """``is_restricted`` recomputed by walking the whole term."""
    if isinstance(term, T.TTest):
        return isinstance(term.pred, (T.PZero, T.POne))
    if isinstance(term, T.TPrim):
        return True
    if isinstance(term, (T.TPlus, T.TSeq)):
        return _restricted_by_walk(term.left) and _restricted_by_walk(term.right)
    return _restricted_by_walk(term.arg)


def _subnodes(node):
    """Every node of a predicate or term, the root included."""
    out = [node]
    for name in ("arg", "left", "right", "pred"):
        child = getattr(node, name, None)
        if child is not None:
            out.extend(_subnodes(child))
    return out


class TestWeakInterning:
    """The intern table holds nodes weakly: hash-consing identity holds for
    every live node, and a node nothing else holds leaves the table."""

    @settings(max_examples=40)
    @given(bitvec_terms(max_leaves=6))
    def test_equal_live_nodes_are_one_object(self, term):
        assert _rebuild(term) is term
        T.clear_intern_table()
        # After a clear, nodes built afterwards hash-cons among themselves.
        first = _rebuild(term)
        assert first == term and _rebuild(first) is first
        # Collecting unrelated nodes keeps every live node interned.
        unrelated = weakref.ref(T.tseq(T.tprim(BoolAssign("zz", True)),
                                       T.ttest(T.pprim(BoolEq("zz")))))
        gc.collect()
        assert unrelated() is None
        assert _rebuild(term) is first
        for node in _subnodes(first):
            assert _rebuild(node) is node

    def test_dropped_query_nodes_leave_the_table(self):
        def live_query_nodes():
            return sum("dropped" in node.pretty() for node in T._INTERN_TABLE.values())

        kmt = KMT(IncNatTheory(variables=("dropped",)))
        assert kmt.equivalent("inc(dropped)*; dropped > 3",
                              "inc(dropped)*; inc(dropped)*; dropped > 3")
        assert live_query_nodes() > 0
        del kmt
        gc.collect()
        assert live_query_nodes() == 0

    def test_canonical_guard_slot_makes_no_cycle(self):
        a, b = T.pprim(BoolEq("cyc_a")), T.pprim(BoolEq("cyc_b"))
        low, high = sorted((a, b), key=lambda p: p.sort_key())
        canonical = T.pand(low, high)
        shuffled = T.pand(high, low)
        assert canonicalize_test(canonical) is canonical
        assert canonicalize_test(shuffled) is canonical
        refs = [weakref.ref(canonical), weakref.ref(shuffled)]
        gc.disable()
        try:
            del canonical, shuffled
            # Freed by reference counting alone: no cycle through the slot.
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()


class TestCachedSlotsMatchFreshComputation:
    """``sort_key``, the canonical guard and ``restricted`` are cached on the
    node; each must equal a fresh computation."""

    @given(incnat_preds(max_leaves=6))
    def test_pred_slots(self, pred):
        for node in _subnodes(pred):
            assert node.sort_key() == (node.size, node.pretty())
            assert canonicalize_test(node) == _canonical_conjunction_or_self(node)

    @given(incnat_terms(max_leaves=6))
    def test_term_slots(self, term):
        for node in _subnodes(term):
            assert node.sort_key() == (node.size, node.pretty())
            if isinstance(node, T.Term):
                assert T.is_restricted(node) == _restricted_by_walk(node)

    @given(bitvec_terms(max_leaves=6))
    def test_slots_without_smart_constructors(self, term):
        with T.smart_constructors_disabled():
            raw = _rebuild(term)
            for node in _subnodes(raw):
                assert node.sort_key() == (node.size, node.pretty())
                if isinstance(node, T.Term):
                    assert T.is_restricted(node) == _restricted_by_walk(node)
                else:
                    assert canonicalize_test(node) == _canonical_conjunction_or_self(node)

    @pytest.mark.parametrize("smart_first", [True, False])
    def test_canonical_guard_depends_on_smart_constructors(self, smart_first):
        a, b = T.pprim(BoolEq("slot_a")), T.pprim(BoolEq("slot_b"))
        low, high = sorted((a, b), key=lambda p: p.sort_key())
        guard = T.pand(high, low)
        smart = T.pand(low, high)
        with T.smart_constructors_disabled():
            raw = T.pand(T.pand(T.pone(), low), high)
        order = [True, False, True] if smart_first else [False, True, False]
        for smart_on in order:
            if smart_on:
                assert canonicalize_test(guard) is smart
            else:
                with T.smart_constructors_disabled():
                    assert canonicalize_test(guard) is raw


def _canonical_conjunction_or_self(pred):
    return _canonical_conjunction(pred) if isinstance(pred, T.PAnd) else pred
