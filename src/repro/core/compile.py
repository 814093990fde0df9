"""Compiled symbolic automata over restricted actions — flat-table IR.

The decision procedure compares restricted-action sums as regular languages.
This module compiles a restricted action once into an explicit
:class:`CompiledAutomaton` by exploring its Brzozowski derivatives
(:mod:`repro.core.automata`):

* **dense int states** — derivative states are numbered 0..n-1 in BFS
  discovery order (state 0 is the start state);
* **flat transition table** — ``delta`` is a single contiguous ``array('i')``
  of ``n_states × |sigma|`` entries in row-major order:
  ``delta[s * |sigma| + k]`` is the successor of state ``s`` under the
  ``k``-th symbol of the **canonical alphabet order**
  (:func:`repro.core.automata.sorted_alphabet`), so a product walk is two int
  indexings into contiguous buffers;
* **accepting bitset** — an int bitmask, ``accepting >> s & 1``;
* **packed back-pointers** — ``back`` is a flat ``array('i')`` of
  ``(predecessor, symbol_index)`` pairs (``back[2s]``, ``back[2s+1]``; the
  start state holds ``(-1, -1)``) recorded at BFS discovery, so a shortest
  access word for any state is read off by walking pointers back to the
  start state;
* **symbol index** — ``index`` maps each symbol of ``sigma`` to its column,
  built once per automaton (alphabets are a handful of symbols, so the map
  is small and needs no sharing).

Compilation finishes with **Hopcroft's partition-refinement minimization**
followed by a **canonical trim**: symbols that occur in no accepted word are
dropped from the alphabet (their columns removed from ``delta``), and the
dead sink state is dropped when the trim leaves it unreachable.  The trimmed,
BFS-renumbered minimal DFA is a *canonical value* of the action's language —
two restricted actions denote the same language **iff** their compiled
automata have identical ``(sigma, n_states, accepting, delta)`` tables.  The
comparisons in :mod:`repro.core.kernels` decide most equal pairs that way,
before any product walk; no object identity is involved, so automata built
in different sessions, or decoded from a snapshot, compare equal too.

The automaton answers emptiness (:meth:`CompiledAutomaton.is_empty`, a field
read) and word membership (:meth:`CompiledAutomaton.accepts`, O(|word|)
table lookups) itself.  A symbol outside an automaton's alphabet derives
every state to the empty language (the Brzozowski derivative of a term not
mentioning the symbol is ``0``), so it falls into an implicit non-accepting
*dead* sink; the canonical trim leans on the same fact, since pruning a dead
symbol's column only removes transitions into the sink.

The engine layer caches compiled automata in a per-session ``aut`` LRU
(:class:`repro.engine.cache.EngineCaches`), keyed by the hash-consed action
itself — a warm session that has seen a restricted-action sum in any
earlier query or signature reuses the minimized automaton instead of
re-deriving it.  The ``aut_bytes`` stat sums :attr:`CompiledAutomaton.nbytes`
over that table.  Derivatives are memoized only within one decision call
(the ``memo`` argument of :func:`compile_automaton`).
"""

from __future__ import annotations

from array import array
from collections import deque

from repro.core import terms as T
from repro.core.automata import (
    canonical,
    derivative,
    nullable,
    sorted_alphabet,
)
from repro.utils.errors import KmtError
from repro.utils.trace import current_trace

#: Sink pseudo-state for symbols missing from an automaton's alphabet:
#: non-accepting, and every transition loops on it.
_DEAD = -1


class CompiledAutomaton:
    """An explicit, minimized DFA for one restricted action's language.

    Instances are immutable value objects: they are shared through the
    engine's ``aut`` cache across queries (and threads), so nothing may
    mutate them after construction.

    ``delta`` and ``back`` are flat ``array('i')`` buffers (see the module
    docstring for the layout); ``delta`` may also be passed as an iterable of
    per-state rows and is flattened.  ``n_states`` is explicit because the
    canonical trim can leave ``sigma`` empty (the empty and epsilon
    languages), where the row count is not recoverable from ``len(delta)``.
    """

    __slots__ = ("sigma", "index", "delta", "accepting", "back", "n_states",
                 "raw_states")

    #: The start state (states are renumbered so it is always 0).
    initial = 0

    def __init__(self, sigma, delta, accepting, back, raw_states, n_states=None):
        sigma = tuple(sigma)
        nsym = len(sigma)
        if isinstance(delta, array):
            flat_delta = delta
            if n_states is None:
                if nsym == 0:
                    raise KmtError(
                        "n_states is required for a flat delta over an empty alphabet"
                    )
                n_states = len(flat_delta) // nsym
        else:
            rows = [tuple(row) for row in delta]
            n_states = len(rows)
            flat_delta = array("i", (t for row in rows for t in row))
        if len(flat_delta) != n_states * nsym:
            raise KmtError(
                f"delta length {len(flat_delta)} does not match "
                f"{n_states} states x {nsym} symbols"
            )
        if isinstance(back, array):
            flat_back = back
        else:
            flat_back = array("i")
            for entry in back:
                if entry is None:
                    flat_back.extend((-1, -1))
                else:
                    flat_back.extend(entry)
        if len(flat_back) != 2 * n_states:
            raise KmtError(
                f"back length {len(flat_back)} does not match {n_states} states"
            )
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "index", {pi: k for k, pi in enumerate(sigma)})
        object.__setattr__(self, "delta", flat_delta)
        object.__setattr__(self, "accepting", accepting)
        object.__setattr__(self, "back", flat_back)
        object.__setattr__(self, "n_states", n_states)
        object.__setattr__(self, "raw_states", raw_states)

    def __setattr__(self, name, value):
        raise AttributeError(
            f"CompiledAutomaton is immutable (attempted to set {name!r}); "
            "instances are shared through the engine's aut cache"
        )

    def __delattr__(self, name):
        raise AttributeError(
            f"CompiledAutomaton is immutable (attempted to delete {name!r}); "
            "instances are shared through the engine's aut cache"
        )

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def state_count(self):
        return self.n_states

    @property
    def nbytes(self):
        """Heap bytes of the flat tables (delta + back + accepting bitset)."""
        return (
            self.delta.itemsize * len(self.delta)
            + self.back.itemsize * len(self.back)
            + (self.accepting.bit_length() + 7) // 8
        )

    def __len__(self):
        return self.n_states

    def is_accepting(self, state):
        return state != _DEAD and bool((self.accepting >> state) & 1)

    def row(self, state):
        """The successor row of one state (a memoryview slice, no copy)."""
        nsym = len(self.sigma)
        return memoryview(self.delta)[state * nsym:(state + 1) * nsym]

    def __repr__(self):
        return (
            f"CompiledAutomaton(states={self.state_count}, "
            f"symbols={len(self.sigma)}, raw_states={self.raw_states}, "
            f"empty={self.is_empty()})"
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def is_empty(self):
        """True iff the language is empty.

        Every state is reachable by construction (BFS from the start state),
        so emptiness is just "no accepting bit set".
        """
        return self.accepting == 0

    def accepts(self, word):
        """Word membership: does the automaton accept this sequence of
        primitive actions?  Unknown symbols fall into the dead sink."""
        index = self.index
        nsym = len(self.sigma)
        delta = self.delta
        state = self.initial
        for pi in word:
            k = index.get(pi)
            if k is None:
                return False
            state = delta[state * nsym + k]
        return bool((self.accepting >> state) & 1)

    def access_word(self, state):
        """A shortest word reaching ``state`` from the start state.

        Read off the BFS back-pointers; states are discovered in
        nondecreasing distance, so the recorded path is shortest.
        """
        word = []
        back = self.back
        while state != self.initial:
            k = back[2 * state + 1]
            state = back[2 * state]
            word.append(self.sigma[k])
        word.reverse()
        return tuple(word)

    def shortest_accepted_word(self):
        """A shortest accepted word, or ``None`` when the language is empty.

        States are numbered in BFS discovery order, so the lowest-numbered
        accepting state has minimal distance from the start.
        """
        accepting = self.accepting
        if accepting == 0:
            return None
        state = 0
        while not (accepting >> state) & 1:
            state += 1
        return self.access_word(state)


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------


def compile_automaton(action, cancel=None, minimize=True, memo=None):
    """Compile a restricted action into a :class:`CompiledAutomaton`.

    Runs one BFS over the action's Brzozowski derivatives, recording dense
    state ids, transition rows in canonical alphabet order, the accepting
    bitset and the discovery back-pointers — then minimizes with Hopcroft's
    algorithm and canonically trims dead symbols/sink (``minimize=False``
    keeps the raw derivative automaton, for tests and the minimization
    benchmark).  ``memo`` is a plain dict of derivatives keyed by
    ``(state, pi)``, shared by the compilations of one decision call, whose
    sums have most of their derivative states in common.
    ``cancel`` is the usual cooperative-cancellation callable, invoked once
    per explored state.
    """
    if not T.is_restricted(action):
        raise KmtError("compile_automaton expects a restricted action")
    if memo is None:
        memo = {}
    start = canonical(action)
    sigma = sorted_alphabet(start)
    state_ids = {start: 0}
    order = [start]
    delta = []
    back = [None]
    accepting = 0
    frontier = deque([start])
    while frontier:
        state = frontier.popleft()
        if cancel is not None:
            cancel()
        sid = state_ids[state]
        if nullable(state):
            accepting |= 1 << sid
        row = []
        for k, pi in enumerate(sigma):
            nxt = memo.get((state, pi))
            if nxt is None:
                nxt = memo[state, pi] = derivative(state, pi)
            nid = state_ids.get(nxt)
            if nid is None:
                nid = len(order)
                state_ids[nxt] = nid
                order.append(nxt)
                back.append((sid, k))
                frontier.append(nxt)
            row.append(nid)
        delta.append(row)
    raw_states = len(order)
    if not minimize:
        return CompiledAutomaton(sigma, delta, accepting, back, raw_states)
    trace = current_trace()
    if trace is None:
        return _minimized(sigma, delta, accepting, raw_states, cancel=cancel)
    with trace.span("minimize"):
        return _minimized(sigma, delta, accepting, raw_states, cancel=cancel)


def _minimized(sigma, delta, accepting, raw_states, cancel=None):
    """Quotient a (complete, fully reachable) DFA by Hopcroft's partition,
    then canonically trim dead symbols and (when unreachable) the dead sink.

    The trim makes the result a canonical value of the language: a symbol is
    *live* iff some quotient transition on it leaves the sink's equivalence
    class, which (in a minimal DFA, where every non-sink state is reachable
    and can reach an accepting state) holds exactly when the symbol occurs in
    some accepted word — a property of the language, not of the syntactic
    alphabet the normalizer happened to mention.  Dropping dead columns only
    removes transitions into the sink, so membership semantics are unchanged
    (unknown symbols already fall to the implicit dead sink).  After the
    trim, the final BFS renumbering restores the IR invariants (state 0
    initial, BFS discovery order over the trimmed canonical alphabet,
    shortest-access back-pointers) and skips the sink when no live transition
    reaches it — so equal languages yield byte-identical flat tables.
    """
    n = len(delta)
    nsym = len(sigma)
    block_of = _hopcroft(n, nsym, delta, accepting, cancel=cancel)
    rep_of_block = {}
    for state in range(n):
        rep_of_block.setdefault(block_of[state], state)
    # The (unique, if present) dead sink block: non-accepting, all self-loops.
    sink_block = None
    for block, rep in rep_of_block.items():
        if (accepting >> rep) & 1:
            continue
        if all(block_of[delta[rep][k]] == block for k in range(nsym)):
            sink_block = block
            break
    # Live symbols: some non-sink quotient state moves on them to a non-sink
    # quotient state.  (With no sink block every symbol is live.)
    if sink_block is None:
        live = list(range(nsym))
    else:
        live = [
            k
            for k in range(nsym)
            if any(
                block_of[delta[rep][k]] != sink_block
                for block, rep in rep_of_block.items()
                if block != sink_block
            )
        ]
    trimmed_sigma = tuple(sigma[k] for k in live)
    # Renumber the quotient automaton by a fresh BFS from the initial block
    # over the trimmed alphabet.  Representatives suffice: states in one
    # block agree on acceptance and on the blocks their successors fall in.
    start_block = block_of[0]
    new_id = {start_block: 0}
    order = [start_block]
    new_delta = array("i")
    new_back = array("i", (-1, -1))
    new_accepting = 0
    queue = deque([start_block])
    while queue:
        block = queue.popleft()
        rep = rep_of_block[block]
        sid = new_id[block]
        if (accepting >> rep) & 1:
            new_accepting |= 1 << sid
        for j, k in enumerate(live):
            succ_block = block_of[delta[rep][k]]
            nid = new_id.get(succ_block)
            if nid is None:
                nid = len(order)
                new_id[succ_block] = nid
                order.append(succ_block)
                new_back.extend((sid, j))
                queue.append(succ_block)
            new_delta.append(nid)
    return CompiledAutomaton(
        trimmed_sigma, new_delta, new_accepting, new_back, raw_states,
        n_states=len(order),
    )


def _hopcroft(n, nsym, delta, accepting, cancel=None):
    """Hopcroft's DFA minimization; returns a block id per state.

    Worklist refinement over the accepting/non-accepting seed partition: pop
    a splitter block, collect the predecessors of its members per symbol, and
    split exactly the blocks those predecessors touch (never scanning the
    rest of the partition).  When a split block was not pending, only the
    smaller half is enqueued — the classic O(n·s·log n) recipe.  Splitting by
    a popped block's *current* members stays sound because any refinement of
    a pending block enqueues the carved-off half too, so the original set's
    full splitting power is always still pending.  ``cancel`` is checked once
    per popped splitter (minimization can dominate compile time on large
    automata, and a deadline must be able to interrupt it).
    """
    if n <= 1:
        return [0] * n
    acc = {s for s in range(n) if (accepting >> s) & 1}
    rest = set(range(n)) - acc
    if not acc or not rest:
        return [0] * n
    preds = [{} for _ in range(nsym)]  # symbol -> {target -> [sources]}
    for source, row in enumerate(delta):
        for k, target in enumerate(row):
            preds[k].setdefault(target, []).append(source)
    blocks = {0: acc, 1: rest}  # block id -> set of states
    block_of = [0 if (accepting >> s) & 1 else 1 for s in range(n)]
    next_id = 2
    worklist = {0 if len(acc) <= len(rest) else 1}
    while worklist:
        if cancel is not None:
            cancel()
        splitter_id = worklist.pop()
        splitter = list(blocks[splitter_id])
        for k in range(nsym):
            into = preds[k]
            x = []
            for target in splitter:
                x.extend(into.get(target, ()))
            # Group the predecessors by the block they currently sit in; only
            # those blocks can split.
            touched = {}
            for state in x:
                touched.setdefault(block_of[state], set()).add(state)
            for old_id, movers in touched.items():
                old_block = blocks[old_id]
                if len(movers) == len(old_block):
                    continue  # the whole block steps into the splitter
                new_id = next_id
                next_id += 1
                # In place, not a copy: carving a few states out of a big
                # block must cost O(|movers|), or chain-shaped automata (one
                # state carved per round) degrade to quadratic.
                old_block.difference_update(movers)
                blocks[new_id] = movers
                for state in movers:
                    block_of[state] = new_id
                if old_id in worklist:
                    worklist.add(new_id)
                else:
                    worklist.add(new_id if len(movers) <= len(blocks[old_id]) else old_id)
    # Relabel block ids contiguously in first-seen state order (the caller
    # renumbers by BFS anyway; this just keeps the mapping dense).
    remap = {}
    return [remap.setdefault(block_of[state], len(remap)) for state in range(n)]
