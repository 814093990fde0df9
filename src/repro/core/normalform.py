"""Normal forms Σ aᵢ·mᵢ (paper Section 3.3.1).

A normal form is a *set* of pairs ``(test, restricted action)``; the term it
denotes is the sum of ``test ; action`` over the pairs.  Restricted actions
contain no tests other than ``0``/``1`` (checked on construction), so their
denotations are regular languages over the primitive-action alphabet — this is
what lets the completeness proof (and our decision procedure) defer to Kleene
algebra once the tests at the front have been handled.

The module also implements *splitting* (Lemma 3.2): given a maximal test ``a``
of a normal form ``x``, rewrite ``x ≡ a·y + z`` with both ``y`` and ``z``
strictly smaller in the maximal-subterm ordering.
"""

from __future__ import annotations

from repro.core import terms as T
from repro.utils.errors import KmtError


def canonicalize_test(pred):
    """Put a guard into a canonical conjunction shape.

    Guards accumulate as nested conjunctions while pushback prefixes tests
    onto normal forms (``prefix_test``); without canonicalization the same
    conjunction shows up in many association orders and with repeated
    factors, which multiplies the number of syntactically distinct summands.
    Flattening, deduplicating and sorting the top-level factors (and dropping
    summands with complementary factors) keeps normal forms small — this is
    part of the "smart constructor" optimization of Section 4.1.  Only the
    top-level conjunction is touched; the factors themselves are left alone so
    the maximal-subterm machinery sees the same factor set.

    The result is cached in the guard's own slot, so each conjunction is
    canonicalized once while it lives.  The slot is only read and written
    with smart constructors on: with them off the same factors rebuild into
    a differently shaped conjunction.
    """
    if not isinstance(pred, T.PAnd):
        return pred
    if not T.CONFIG.smart_constructors:
        return _canonical_conjunction(pred)
    cached = pred._canonical
    if cached is None:
        result = _canonical_conjunction(pred)
        pred._canonical = _ALREADY_CANONICAL if result is pred else result
        return result
    return pred if cached is _ALREADY_CANONICAL else cached


#: What a canonical guard's slot holds instead of the guard itself, which
#: would make a reference cycle that only the cycle collector frees.
_ALREADY_CANONICAL = object()


def _canonical_conjunction(pred):
    factors = []
    stack = [pred]
    while stack:
        node = stack.pop()
        if isinstance(node, T.PAnd):
            stack.append(node.left)
            stack.append(node.right)
        else:
            factors.append(node)
    unique = set()
    for factor in factors:
        if isinstance(factor, T.POne):
            continue
        if isinstance(factor, T.PZero):
            return T.pzero()
        unique.add(factor)
    for factor in unique:
        if isinstance(factor, T.PNot) and factor.arg in unique:
            return T.pzero()
    ordered = sorted(unique, key=lambda p: p.sort_key())
    return T.pand_all(ordered)


class NormalForm:
    """An immutable normal form: a set of ``(test, restricted-action)`` pairs."""

    __slots__ = ("pairs", "_hash")

    def __init__(self, pairs, validate=True):
        cleaned = set()
        for test, action in pairs:
            if not isinstance(test, T.Pred):
                raise TypeError(f"normal-form test must be a Pred, got {test!r}")
            if not isinstance(action, T.Term):
                raise TypeError(f"normal-form action must be a Term, got {action!r}")
            if validate and not T.is_restricted(action):
                raise KmtError(f"normal-form action is not restricted: {action!r}")
            test = canonicalize_test(test)
            if isinstance(test, T.PZero):
                # 0;m == 0 contributes nothing to the sum.
                continue
            cleaned.add((test, action))
        self.pairs = frozenset(cleaned)
        self._hash = None

    @classmethod
    def _of_canonical(cls, pairs):
        """A normal form of pairs that already have canonical, non-zero tests
        and restricted actions, e.g. the pairs of other normal forms: nothing
        is re-checked or re-canonicalized."""
        nf = cls.__new__(cls)
        nf.pairs = frozenset(pairs)
        nf._hash = None
        return nf

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls):
        """The vacuous normal form (the empty sum, i.e. ``0``)."""
        return cls(frozenset())

    @classmethod
    def one(cls):
        """The normal form of ``1``."""
        return cls({(T.pone(), T.tone())})

    @classmethod
    def of_test(cls, pred):
        """The normal form ``pred ; 1``."""
        return cls({(pred, T.tone())})

    @classmethod
    def of_action(cls, action):
        """The normal form ``1 ; action`` for a restricted action."""
        return cls({(T.pone(), action)})

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def __iter__(self):
        return iter(self.pairs)

    def __len__(self):
        return len(self.pairs)

    def __eq__(self, other):
        if not isinstance(other, NormalForm):
            return NotImplemented
        return self.pairs == other.pairs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.pairs)
        return self._hash

    def __repr__(self):
        if not self.pairs:
            return "NormalForm(0)"
        parts = sorted(f"{t.pretty()};{m.pretty()}" for t, m in self.pairs)
        return "NormalForm(" + " + ".join(parts) + ")"

    def is_vacuous(self):
        """True iff this normal form denotes ``0`` (empty sum / all tests 0)."""
        return not self.pairs

    def tests(self):
        """The set of tests occurring in this normal form, plus ``1`` (Fig. 6)."""
        out = {T.pone()}
        for test, _ in self.pairs:
            out.add(test)
        return frozenset(out)

    def actions(self):
        return frozenset(action for _, action in self.pairs)

    def sorted_pairs(self):
        """Pairs in a deterministic order (for display and iteration)."""
        return sorted(self.pairs, key=lambda tm: (tm[0].sort_key(), tm[1].sort_key()))

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------
    def union(self, other):
        """Parallel composition of normal forms (just joining the sums)."""
        return NormalForm._of_canonical(self.pairs | other.pairs)

    def prefix_test(self, pred):
        """The normal form ``pred · self`` (conjoin ``pred`` onto every test)."""
        return NormalForm(
            {(T.pand(pred, test), action) for test, action in self.pairs},
            validate=False,
        )

    def seq_action(self, action):
        """The normal form ``self · action`` for a restricted action ``action``."""
        if not T.is_restricted(action):
            raise KmtError(f"seq_action expects a restricted action, got {action!r}")
        return NormalForm._of_canonical((test, T.tseq(m, action)) for test, m in self.pairs)

    def to_term(self):
        """Convert back to an ordinary KAT term (the sum of its pairs)."""
        return T.tplus_all(
            T.tseq(T.ttest(test), action) for test, action in self.sorted_pairs()
        )

    # ------------------------------------------------------------------
    # ordering / splitting
    # ------------------------------------------------------------------
    def ordering_key(self, ctx):
        """``sub(mt(self))`` — the maximal-subterm ordering key (Fig. 6)."""
        return ctx.key(self.tests())

    def maximal_tests(self, ctx):
        return ctx.mt(self.tests())

    def split(self, pred, ctx):
        """Split this normal form around a maximal test (Lemma 3.2).

        Returns ``(y, z)`` such that ``self ≡ pred·y + z``, where the summands
        of ``y`` come from the pairs whose test contains ``pred`` as a factor
        (with that factor removed) and ``z`` collects the remaining pairs.
        """
        with_pred = set()
        without_pred = set()
        for test, action in self.pairs:
            factors = ctx.seqs(test)
            if pred in factors:
                remaining = [f for f in factors if f != pred]
                remaining.sort(key=lambda p: p.sort_key())
                reduced = T.pand_all(remaining)
                with_pred.add((reduced, action))
            else:
                without_pred.add((test, action))
        return (
            NormalForm(with_pred, validate=False),
            NormalForm(without_pred, validate=False),
        )
