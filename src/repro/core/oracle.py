"""The reference decision procedure: explicit cells and Brzozowski derivatives.

This is the paper's algorithm (Theorem 3.7) written as directly as possible,
kept as the standard the engine is held to.  To decide ``p == q``:

1. normalize both sides into ``Σ aᵢ·mᵢ`` (the same pushback normalizer the
   engine uses);
2. enumerate every total assignment of the primitive tests under the guards
   of either normal form — one *cell* per assignment — skipping cells whose
   literals the client theory finds unsatisfiable (checked on partial
   assignments when ``prune_unsat_cells`` is set, so a contradictory prefix
   cuts its whole subtree);
3. in each cell, compare the sums of enabled restricted actions as regular
   languages with Hopcroft–Karp over Brzozowski derivatives
   (:func:`language_compare`).

Inclusion, membership and emptiness follow the same shape: containment
``L(l) ⊆ L(r)`` is ``L(l + r) == L(r)`` per cell, membership walks the
derivatives of every satisfiable summand, and emptiness is a derivative
reachability search.

Nothing under ``repro`` imports this module.  The differential tests hold the
production checker (:mod:`repro.core.decision`) to it verdict for verdict on
every query kind, and the ``benchmarks/`` ablation scripts use its cell
enumerator as the baseline the signature search is measured against.  It
favours clarity over speed: no engine caches, exponential in the number of
primitive tests.
"""

from __future__ import annotations

from collections import deque

from repro.core import terms as T
from repro.core.automata import (
    canonical,
    derivative,
    nullable,
    sorted_alphabet,
)
from repro.core.decision import Counterexample, EquivalenceResult, InclusionResult
from repro.core.pushback import DEFAULT_BUDGET, Normalizer
from repro.smt.literals import evaluate
from repro.utils.errors import CounterexampleBoundExceeded, KmtError

# ---------------------------------------------------------------------------
# regular-language queries over derivative automata
# ---------------------------------------------------------------------------


def language_is_empty(m):
    """True iff ``R(m)`` is empty (no reachable nullable derivative)."""
    m = canonical(m)
    sigma = sorted_alphabet(m)
    seen = {m}
    queue = deque([m])
    while queue:
        state = queue.popleft()
        if nullable(state):
            return False
        for pi in sigma:
            nxt = derivative(state, pi)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return True


def _merged_alphabet(m, n):
    return tuple(sorted(set(sorted_alphabet(m)) | set(sorted_alphabet(n)), key=repr))


def derivative_accepts(action, word):
    """Word membership by walking the derivatives of ``action``."""
    state = canonical(action)
    for pi in word:
        state = derivative(state, pi)
    return nullable(state)


class _UnionFind:
    """Union-find over hashable items (path compression, union by size)."""

    def __init__(self):
        self.parent = {}
        self.size = {}

    def find(self, item):
        if item not in self.parent:
            self.parent[item] = item
            self.size[item] = 1
            return item
        root = item
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[item] != root:
            self.parent[item], item = root, self.parent[item]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True


def language_compare(m, n, max_states=None, cancel=None):
    """Decide ``R(m) == R(n)`` and produce a witness in a single pass.

    Runs Hopcroft–Karp over Brzozowski derivatives once, threading the access
    word of every state pair through the worklist.  Returns
    ``(equivalent, word)``: ``(True, None)`` when the languages agree, and
    otherwise ``(False, w)`` where ``w`` is a word of primitive actions
    accepted by exactly one side (a genuine distinguishing word, though not
    necessarily a shortest one — use :func:`counterexample_word` for that).

    ``max_states`` optionally bounds the number of explored state pairs as a
    safety valve (derivatives modulo the smart-constructor rewrites are finite,
    so the default of no bound terminates).  ``cancel`` is an optional
    cooperative-cancellation callable invoked once per explored state pair.
    """
    if not T.is_restricted(m) or not T.is_restricted(n):
        raise KmtError("language_compare expects restricted actions")
    m, n = canonical(m), canonical(n)
    sigma = _merged_alphabet(m, n)
    uf = _UnionFind()
    uf.union(("L", m), ("R", n))
    queue = deque([((), m, n)])
    explored = 0
    while queue:
        word, p, q = queue.popleft()
        explored += 1
        if max_states is not None and explored > max_states:
            raise KmtError(f"language_compare exceeded {max_states} state pairs")
        if cancel is not None:
            cancel()
        if nullable(p) != nullable(q):
            return False, word
        for pi in sigma:
            dp = derivative(p, pi)
            dq = derivative(q, pi)
            if uf.union(("L", dp), ("R", dq)):
                queue.append((word + (pi,), dp, dq))
    return True, None


def language_equivalent(m, n, max_states=None):
    """Decide ``R(m) == R(n)`` (see :func:`language_compare`)."""
    return language_compare(m, n, max_states=max_states)[0]


def language_includes(m, n, cancel=None):
    """Decide ``R(m) ⊆ R(n)``; returns ``(included, word)``.

    ``R(m) ⊆ R(n)`` iff ``R(m + n) == R(n)``; a distinguishing word of that
    comparison lies in the union but not in ``R(n)``, i.e. in
    ``R(m) \\ R(n)``.
    """
    return language_compare(T.tplus(m, n), n, cancel=cancel)


def counterexample_word(m, n, max_length=16):
    """A shortest word accepted by exactly one of ``m``/``n``, or None.

    Breadth-first product search over derivative pairs.  ``None`` always
    means *proved equivalent*: if the search has to truncate at
    ``max_length`` before exhausting the product space, it raises
    :class:`~repro.utils.errors.CounterexampleBoundExceeded`.
    """
    m, n = canonical(m), canonical(n)
    sigma = _merged_alphabet(m, n)
    seen = {(m, n)}
    queue = deque([((), m, n)])
    truncated = False
    while queue:
        word, p, q = queue.popleft()
        if nullable(p) != nullable(q):
            return word
        if len(word) >= max_length:
            truncated = True
            continue
        for pi in sigma:
            dp = derivative(p, pi)
            dq = derivative(q, pi)
            if (dp, dq) not in seen:
                seen.add((dp, dq))
                queue.append((word + (pi,), dp, dq))
    if truncated:
        raise CounterexampleBoundExceeded(max_length)
    return None


# ---------------------------------------------------------------------------
# explicit cell enumeration
# ---------------------------------------------------------------------------


def collect_atoms(x, y):
    """All primitive tests underneath the guards of two normal forms, sorted."""
    atoms = set()
    for nf in (x, y):
        for test, _ in nf.pairs:
            atoms |= T.primitive_tests_of_pred(test)
    wrapped = sorted((T.pprim(a) for a in atoms), key=lambda p: p.sort_key())
    return [p.alpha for p in wrapped]


class CellSearch:
    """Depth-first enumeration of primitive-test cells.

    ``compare(left, right)`` returns ``(ok, word)`` for the restricted-action
    sums enabled in one cell; the first failing cell becomes the
    :class:`~repro.core.decision.Counterexample` (its ``cell`` is the total
    assignment).  ``satisfiable(literals)`` is the theory's conjunction
    oracle.  ``cells_explored`` counts comparisons, ``cells_pruned`` the
    branches abandoned as theory-inconsistent.
    """

    def __init__(self, atoms, x, y, satisfiable, compare, prune=True):
        self.atoms = atoms
        self.x = x
        self.y = y
        self.satisfiable = satisfiable
        self.compare = compare
        self.prune = prune
        self.cells_explored = 0
        self.cells_pruned = 0

    def run(self):
        return self._go(0, [])

    def _go(self, index, literals):
        complete = index == len(self.atoms)
        if literals and (self.prune or complete) and not self.satisfiable(literals):
            self.cells_pruned += 1
            return None
        if complete:
            return self._compare_cell(literals)
        alpha = self.atoms[index]
        for value in (True, False):
            found = self._go(index + 1, literals + [(alpha, value)])
            if found is not None:
                return found
        return None

    def _compare_cell(self, literals):
        self.cells_explored += 1
        assignment = dict(literals)
        left = _enabled(self.x, assignment)
        right = _enabled(self.y, assignment)
        ok, word = self.compare(left, right)
        if ok:
            return None
        return Counterexample(literals, left, right, word)


def _enabled(nf, assignment):
    return T.tplus_all(
        action for test, action in nf.sorted_pairs() if evaluate(test, assignment)
    )


# ---------------------------------------------------------------------------
# the reference checker
# ---------------------------------------------------------------------------


class OracleChecker:
    """Equivalence, inclusion, membership and emptiness, decided the
    reference way (see the module docstring).

    Mirrors the query surface of
    :class:`~repro.core.decision.EquivalenceChecker` and returns the same
    result types, with ``signatures_explored`` always 0.  The only memos are
    per-checker dicts for the conjunction oracle and the per-cell
    comparisons.
    """

    def __init__(self, theory, budget=DEFAULT_BUDGET, prune_unsat_cells=True):
        self.theory = theory
        self.budget = budget
        self.prune_unsat_cells = prune_unsat_cells
        self._sat_memo = {}
        self._compare_memo = {}

    def normalize(self, term):
        return Normalizer(self.theory, budget=self.budget).normalize(term)

    # -- equivalence -----------------------------------------------------
    def equivalent(self, p, q):
        return self.check_equivalent(p, q).equivalent

    def check_equivalent(self, p, q):
        return self.check_equivalent_nf(self.normalize(p), self.normalize(q))

    def check_equivalent_nf(self, x, y):
        search = self._search(x, y, language_compare)
        counterexample = search.run()
        return EquivalenceResult(counterexample is None, counterexample,
                                 cells_explored=search.cells_explored,
                                 cells_pruned=search.cells_pruned)

    # -- inclusion -------------------------------------------------------
    def includes(self, p, q):
        return self.check_inclusion(p, q).includes

    def check_inclusion(self, p, q):
        return self.check_inclusion_nf(self.normalize(p), self.normalize(q))

    def check_inclusion_nf(self, x, y):
        search = self._search(x, y, language_includes)
        counterexample = search.run()
        return InclusionResult(counterexample is None, counterexample,
                               cells_explored=search.cells_explored,
                               cells_pruned=search.cells_pruned)

    # -- membership and emptiness ---------------------------------------
    def member(self, p, word):
        return self.member_nf(self.normalize(p), word)

    def member_nf(self, x, word):
        word = tuple(word)
        return any(
            self.theory.satisfiable(test) and derivative_accepts(action, word)
            for test, action in x.sorted_pairs()
        )

    def is_empty(self, p):
        return self.is_empty_nf(self.normalize(p))

    def is_empty_nf(self, x):
        return all(
            not self.theory.satisfiable(test) or language_is_empty(action)
            for test, action in x.pairs
        )

    # -- plumbing --------------------------------------------------------
    def _search(self, x, y, compare):
        return CellSearch(
            collect_atoms(x, y), x, y, self._satisfiable,
            lambda left, right: self._compare(compare, left, right),
            prune=self.prune_unsat_cells,
        )

    def _satisfiable(self, literals):
        key = frozenset(literals)
        value = self._sat_memo.get(key)
        if value is None:
            value = self._sat_memo[key] = self.theory.satisfiable_conjunction(literals)
        return value

    def _compare(self, compare, left, right):
        if left == right:
            return True, None
        key = (compare, left, right)
        verdict = self._compare_memo.get(key)
        if verdict is None:
            verdict = self._compare_memo[key] = compare(left, right)
        return verdict
