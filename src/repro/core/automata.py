"""Brzozowski derivatives of restricted actions (paper Section 4.1).

The decision procedure compares the restricted actions of two normal forms as
regular languages.  Following the paper's implementation, the states of a
restricted action's automaton are restricted-action terms and its transitions
are Brzozowski derivatives.  Hash-consed smart constructors keep the set of
distinct derivative states small (derivatives of a regular expression are
finite up to the ACI axioms the smart constructors apply).
:mod:`repro.core.compile` explores these states once per action and builds an
explicit minimal DFA; the derivative-pairwise comparison the paper describes
lives in the reference oracle, :mod:`repro.core.oracle`.  :func:`derivative`
keeps no memo; compilation memoizes it for one decision call.
"""

from __future__ import annotations

import weakref
from collections import deque

from repro.core import terms as T
from repro.utils.errors import KmtError


# ---------------------------------------------------------------------------
# Brzozowski derivatives
# ---------------------------------------------------------------------------


def nullable(m):
    """True iff the language of ``m`` contains the empty word."""
    if isinstance(m, T.TTest):
        if isinstance(m.pred, T.POne):
            return True
        if isinstance(m.pred, T.PZero):
            return False
        raise KmtError(f"not a restricted action: {m!r}")
    if isinstance(m, T.TPrim):
        return False
    if isinstance(m, T.TPlus):
        return nullable(m.left) or nullable(m.right)
    if isinstance(m, T.TSeq):
        return nullable(m.left) and nullable(m.right)
    if isinstance(m, T.TStar):
        return True
    raise TypeError(f"not a Term: {m!r}")


def canonical(m):
    """Rewrite a restricted action into an ACI-canonical form.

    Brzozowski's theorem guarantees finitely many derivatives only *modulo*
    associativity, commutativity and idempotence of ``+`` (and the unit/zero
    laws).  The binary smart constructors in :mod:`repro.core.terms` only
    catch syntactically adjacent duplicates, so without this pass the
    derivative states of a large sum keep growing forever.  We flatten sums
    into sorted, deduplicated lists and right-associate sequences; together
    with hash consing this keeps the implicit automaton finite.
    """
    if isinstance(m, T.TTest):
        return m
    if isinstance(m, T.TPrim):
        return m
    if isinstance(m, T.TStar):
        return T.tstar(canonical(m.arg))
    if isinstance(m, T.TSeq):
        factors = []
        _flatten_seq(m, factors)
        canon_factors = []
        for factor in factors:
            cf = canonical(factor)
            if isinstance(cf, T.TTest) and isinstance(cf.pred, T.PZero):
                return T.tzero()
            if isinstance(cf, T.TTest) and isinstance(cf.pred, T.POne):
                continue
            canon_factors.append(cf)
        result = T.tone()
        for factor in reversed(canon_factors):
            result = T.tseq(factor, result)
        return result
    if isinstance(m, T.TPlus):
        summands = set()
        _flatten_plus(m, summands)
        canon_summands = set()
        for summand in summands:
            cs = canonical(summand)
            if isinstance(cs, T.TTest) and isinstance(cs.pred, T.PZero):
                continue
            canon_summands.add(cs)
        if not canon_summands:
            return T.tzero()
        ordered = sorted(canon_summands, key=lambda t: t.sort_key())
        result = ordered[0]
        for summand in ordered[1:]:
            result = T.tplus(result, summand)
        return result
    raise TypeError(f"not a Term: {m!r}")


def _flatten_plus(m, out):
    if isinstance(m, T.TPlus):
        _flatten_plus(m.left, out)
        _flatten_plus(m.right, out)
    else:
        out.add(m)


def _flatten_seq(m, out):
    if isinstance(m, T.TSeq):
        _flatten_seq(m.left, out)
        _flatten_seq(m.right, out)
    else:
        out.append(m)


def derivative(m, pi):
    """The ACI-canonical Brzozowski derivative of ``m`` w.r.t. primitive action ``pi``."""
    return canonical(_derivative_raw(m, pi))


def _derivative_raw(m, pi):
    if isinstance(m, T.TTest):
        if isinstance(m.pred, (T.POne, T.PZero)):
            return T.tzero()
        raise KmtError(f"not a restricted action: {m!r}")
    if isinstance(m, T.TPrim):
        return T.tone() if m.pi == pi else T.tzero()
    if isinstance(m, T.TPlus):
        return T.tplus(_derivative_raw(m.left, pi), _derivative_raw(m.right, pi))
    if isinstance(m, T.TSeq):
        first = T.tseq(_derivative_raw(m.left, pi), m.right)
        if nullable(m.left):
            return T.tplus(first, _derivative_raw(m.right, pi))
        return first
    if isinstance(m, T.TStar):
        return T.tseq(_derivative_raw(m.arg, pi), m)
    raise TypeError(f"not a Term: {m!r}")


# Memo tables for the primitive-action alphabets.  Keys are the hash-consed
# terms themselves, held weakly: an entry lives exactly as long as its term,
# so a long-lived server streaming ever-new terms keeps only the alphabets of
# the terms something else still holds.  (Even after a
# ``clear_intern_table`` a re-built node still compares equal to the old
# key, so entries never go stale.)  Without them every compilation would
# re-walk its term and re-sort the alphabet by ``repr``.
_ALPHA_CACHE = weakref.WeakKeyDictionary()  # restricted action -> frozenset of primitive actions
_SIGMA_CACHE = weakref.WeakKeyDictionary()  # restricted action -> tuple sorted in canonical order


def _alphabet_of(m):
    cached = _ALPHA_CACHE.get(m)
    if cached is None:
        cached = _ALPHA_CACHE[m] = frozenset(T.primitive_actions(m))
    return cached


def sorted_alphabet(m):
    """The alphabet of one restricted action in canonical (repr-sorted) order.

    This order is *the* canonical symbol order of the compiled-automaton IR
    (:mod:`repro.core.compile`): transition arrays are indexed by position in
    this tuple, so every consumer must agree on it.
    """
    cached = _SIGMA_CACHE.get(m)
    if cached is None:
        cached = _SIGMA_CACHE[m] = tuple(sorted(_alphabet_of(m), key=repr))
    return cached


def alphabet(*terms):
    """The combined primitive-action alphabet of the given restricted actions."""
    out = set()
    for m in terms:
        out |= _alphabet_of(m)
    return out


def derivative_states(m, max_states=10_000):
    """All derivative states reachable from ``m`` (for diagnostics/benchmarks)."""
    m = canonical(m)
    sigma = sorted_alphabet(m)
    seen = {m}
    queue = deque([m])
    while queue:
        state = queue.popleft()
        for pi in sigma:
            nxt = derivative(state, pi)
            if nxt not in seen:
                if len(seen) >= max_states:
                    raise KmtError(f"derivative_states exceeded {max_states} states")
                seen.add(nxt)
                queue.append(nxt)
    return seen
