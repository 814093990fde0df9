"""Language comparisons and batched membership over compiled automata.

The decision procedure's per-signature comparisons run here, on the flat
tables of :mod:`repro.core.compile`:

* :func:`flat_compare` / :func:`flat_includes` — language equivalence /
  containment, in two steps:

  1. a **canonical-equality fast path**: minimization + canonical trimming
     (see :func:`repro.core.compile._minimized`) make the compiled artifact a
     canonical value of its language, so *equal tables ⇔ equal languages* —
     the hot case (warm caches, equivalent sums) is decided by comparing two
     flat buffers, no walk at all.  Only values are compared, so the path
     fires for automata from different sessions or snapshots alike;
  2. otherwise a breadth-first **product walk**, one pair of states at a
     time, which stops at the first pair that accepts on one side only (on
     the left only, for containment) and returns the word that reached it —
     a *shortest* witness, since the walk is breadth-first.

* :func:`accepts_batch` — judge many words against one automaton in a single
  call.

Every entry point runs under a ``kernel`` trace phase and emits counters
(``kernel_fastpath_hits``, ``kernel_walk_fallbacks`` when the fast path
missed and a product walk ran, ``kernel_batch_words``) so traces attribute
walk time precisely.  Cooperative cancellation is checked once per product
pair / per word.
"""

from __future__ import annotations

from collections import deque

from repro.core.compile import _DEAD
from repro.utils.trace import current_trace


def _count(name, n=1):
    trace = current_trace()
    if trace is not None:
        trace.count(name, n)


def _tables_equal(a, b):
    """Canonical-value equality: identical flat tables ⇒ identical language.

    Sound for any pair (same alphabet + same table = same DFA); *complete*
    only for canonically trimmed minimal automata, which is what
    ``compile_automaton`` produces — the product walk settles inequality
    either way, so completeness is a speed matter, not a correctness one.
    """
    return (
        a.n_states == b.n_states
        and a.accepting == b.accepting
        and a.sigma == b.sigma
        and a.delta == b.delta
    )


# ---------------------------------------------------------------------------
# compare / includes
# ---------------------------------------------------------------------------


def flat_compare(a, b, cancel=None):
    """Decide ``L(a) == L(b)``; returns ``(equivalent, word)``.

    The word, when present, is a shortest word accepted by exactly one side.
    """
    trace = current_trace()
    if trace is None:
        return _flat_compare(a, b, cancel)
    with trace.span("kernel"):
        return _flat_compare(a, b, cancel)


def _flat_compare(a, b, cancel):
    if a is b or _tables_equal(a, b):
        _count("kernel_fastpath_hits")
        return True, None
    _count("kernel_walk_fallbacks")
    return _product_search(a, b, lambda pa, qb: pa != qb, cancel)


def flat_includes(a, b, cancel=None):
    """Decide ``L(a) <= L(b)``; returns ``(included, word)``.

    The word, when present, is a shortest word in ``L(a) \\ L(b)``.
    """
    trace = current_trace()
    if trace is None:
        return _flat_includes(a, b, cancel)
    with trace.span("kernel"):
        return _flat_includes(a, b, cancel)


def _flat_includes(a, b, cancel):
    if a is b or a.accepting == 0 or _tables_equal(a, b):
        # Reflexivity, an empty left language, or equal languages: trivially
        # included, no walk needed.
        _count("kernel_fastpath_hits")
        return True, None
    _count("kernel_walk_fallbacks")
    return _product_search(a, b, lambda pa, qb: pa and not qb, cancel)


def _merged_sigma(a, b):
    """The two automata's alphabets merged in canonical order, plus, per
    automaton, each merged symbol's column (``_DEAD`` marks an absent one)."""
    index_a = a.index
    index_b = b.index
    if a.sigma == b.sigma:
        merged = a.sigma
    else:
        merged = tuple(sorted(set(a.sigma) | set(b.sigma), key=repr))
    map_a = tuple(index_a.get(pi, _DEAD) for pi in merged)
    map_b = tuple(index_b.get(pi, _DEAD) for pi in merged)
    return merged, map_a, map_b


def _product_search(a, b, mismatch, cancel):
    """BFS over the product automaton for the first ``mismatch`` pair.

    ``mismatch(acc_a, acc_b)`` decides whether a product state is a witness;
    the returned word is shortest because the walk is breadth-first.  A
    symbol missing from one alphabet sends that side to the dead sink; the
    joint dead pair is never enqueued (nothing past it can mismatch).
    Returns ``(True, None)`` when no reachable pair mismatches, else
    ``(False, word)``.
    """
    merged, map_a, map_b = _merged_sigma(a, b)
    nsa = len(a.sigma)
    nsb = len(b.sigma)
    da = a.delta
    db = b.delta
    start = (a.initial, b.initial)
    seen = {start}
    queue = deque([((), a.initial, b.initial)])
    while queue:
        word, p, q = queue.popleft()
        if cancel is not None:
            cancel()
        if mismatch(a.is_accepting(p), b.is_accepting(q)):
            return False, word
        for k, pi in enumerate(merged):
            ka, kb = map_a[k], map_b[k]
            dp = _DEAD if (p == _DEAD or ka == _DEAD) else da[p * nsa + ka]
            dq = _DEAD if (q == _DEAD or kb == _DEAD) else db[q * nsb + kb]
            if dp == _DEAD and dq == _DEAD:
                continue
            if (dp, dq) not in seen:
                seen.add((dp, dq))
                queue.append((word + (pi,), dp, dq))
    return True, None


# ---------------------------------------------------------------------------
# batched membership
# ---------------------------------------------------------------------------


def accepts_batch(aut, words, cancel=None):
    """Judge many words against one automaton in a single call.

    Returns a list of bools aligned with ``words``, exactly
    ``[aut.accepts(w) for w in words]``; ``cancel`` is checked once per word.
    """
    words = [tuple(word) for word in words]
    trace = current_trace()
    if trace is None:
        return _accepts_batch(aut, words, cancel)
    with trace.span("kernel"):
        return _accepts_batch(aut, words, cancel)


def _accepts_batch(aut, words, cancel):
    _count("kernel_batch_words", len(words))
    out = []
    for word in words:
        if cancel is not None:
            cancel()
        out.append(aut.accepts(word))
    return out
