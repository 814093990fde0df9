"""Regular interpretation of restricted actions (paper Fig. 10).

Restricted actions (no tests other than 0/1) denote regular languages over the
alphabet of primitive actions; the completeness proof relates the tracing
semantics to this interpretation via ``label``.  This module provides a
bounded enumeration of those languages (used in property tests comparing the
regular interpretation against both the tracing semantics and the automaton
construction) plus a few convenience predicates.
"""

from __future__ import annotations

from repro.core import terms as T
from repro.utils.errors import KmtError


def language_up_to(m, max_length):
    """All words of ``R(m)`` of length at most ``max_length``.

    Words are tuples of primitive actions.  The enumeration is exact up to the
    length bound (it is not an approximation of which words are included, only
    a truncation of the infinite language).
    """
    if not T.is_restricted(m):
        raise KmtError(f"language_up_to expects a restricted action, got {m!r}")
    return frozenset(_lang(m, max_length))


def _lang(m, max_length):
    if isinstance(m, T.TTest):
        if isinstance(m.pred, T.POne):
            return {()}
        if isinstance(m.pred, T.PZero):
            return set()
        raise KmtError(f"not restricted: {m!r}")
    if isinstance(m, T.TPrim):
        if max_length < 1:
            return set()
        return {(m.pi,)}
    if isinstance(m, T.TPlus):
        return _lang(m.left, max_length) | _lang(m.right, max_length)
    if isinstance(m, T.TSeq):
        out = set()
        left_words = _lang(m.left, max_length)
        for u in left_words:
            remaining = max_length - len(u)
            if remaining < 0:
                continue
            for v in _lang(m.right, remaining):
                if len(u) + len(v) <= max_length:
                    out.add(u + v)
        return out
    if isinstance(m, T.TStar):
        out = {()}
        frontier = {()}
        while True:
            new_frontier = set()
            for u in frontier:
                remaining = max_length - len(u)
                if remaining <= 0:
                    continue
                for v in _lang(m.arg, remaining):
                    if not v:
                        continue
                    w = u + v
                    if len(w) <= max_length and w not in out:
                        new_frontier.add(w)
            if not new_frontier:
                break
            out |= new_frontier
            frontier = new_frontier
        return out
    raise TypeError(f"not a Term: {m!r}")


def accepts_word(m, word):
    """True iff the word (tuple of primitive actions) is in ``R(m)``."""
    from repro.core.automata import derivative, nullable

    current = m
    for pi in word:
        current = derivative(current, pi)
    return nullable(current)


def is_empty_language(m):
    """True iff ``R(m)`` is the empty language."""
    from repro.core.compile import compile_automaton

    return compile_automaton(m).is_empty()
