"""The normalization-based equivalence decision procedure (Theorem 3.7).

To decide ``p == q``:

1. normalize both sides into ``x = Σ aᵢ·mᵢ`` and ``y = Σ bⱼ·nⱼ`` (Fig. 8);
2. split the state space into regions on which every guard of either normal
   form has a definite truth value.  The paper enumerates *cells* — Boolean
   combinations of the primitive tests under the guards.  The verdict for a
   cell depends only on which summand guards it enables, so this checker
   instead enumerates the theory-realizable *guard activation signatures*
   (:func:`repro.smt.dpll.enumerate_signatures`, AllSAT on a decision
   diagram built for the one search) and treats each as one region.  Cells
   that agree on every guard are never distinguished, which collapses the
   ``O(2^{2^n})`` blow-up the paper reports for nested sums under star down
   to the (usually tiny) number of distinct enabled-summand sets;
3. per signature, compare the sums of enabled restricted actions as regular
   languages.  Each sum is compiled once into a minimal, canonically trimmed
   automaton (:mod:`repro.core.compile`); two sums with identical tables
   denote the same language, and any other pair is settled by a
   breadth-first product walk that yields a *shortest* distinguishing word
   (:func:`repro.core.kernels.flat_compare`).

The checker works on normal forms only: :class:`repro.core.kmt.KMT` owns
normalization and every term-level entry point, and hands this checker the
normal forms.  Every result is memoized in the
:class:`repro.engine.cache.EngineCaches` bundle the facade passes in —
predicate satisfiability, per-pair normal-form verdicts and compiled
automata (a bare checker builds a private one).  A signature search keeps
nothing: no literal set or action pair recurs within one, and across
searches repeats are too rare to pay for a memo.

The same machinery powers :meth:`EquivalenceChecker.check_inclusion_nf`
(``p <= q`` decided per signature by product emptiness, with a shortest word
in ``L(left) \\ L(right)`` as witness), :meth:`EquivalenceChecker.member_nf`
(is a word of primitive actions an action sequence of some summand with a
satisfiable guard) and :meth:`EquivalenceChecker.is_empty_nf`.

The paper's explicit-cell, derivative-based procedure is kept as the
reference in :mod:`repro.core.oracle`; the differential tests hold this
checker to it on every query kind.
"""

from __future__ import annotations

from repro.core import terms as T
from repro.core.compile import compile_automaton
from repro.core.kernels import accepts_batch, flat_compare, flat_includes
from repro.smt.dpll import SignatureSearchStats, enumerate_signatures
from repro.utils.trace import current_trace

_CACHE_MISS = object()


class Counterexample:
    """Evidence that two terms are inequivalent.

    ``cell`` is a tuple of ``(alpha, bool)`` literals — primitive tests and the
    Boolean values they take in the distinguishing cell; ``word`` is a word of
    primitive actions accepted by exactly one side within that cell.  The
    signature search may leave the assignment *partial*: primitive tests no
    guard depends on are omitted, and any theory state satisfying the listed
    literals (regardless of the omitted tests) witnesses the difference.  The
    reference enumerator (:mod:`repro.core.oracle`) always produces a total
    assignment over the primitive tests of both normal forms.

    Instances are immutable: results are memoized in shared caches and handed
    to many callers (potentially on different threads), so a mutable witness
    would let one caller silently corrupt every later response.
    """

    __slots__ = ("cell", "left_actions", "right_actions", "word")

    def __init__(self, cell, left_actions, right_actions, word):
        object.__setattr__(self, "cell", tuple(cell))
        object.__setattr__(self, "left_actions", left_actions)
        object.__setattr__(self, "right_actions", right_actions)
        object.__setattr__(self, "word", None if word is None else tuple(word))

    def __setattr__(self, name, value):
        raise AttributeError(
            f"Counterexample is immutable (attempted to set {name!r}); results "
            "are shared through caches across callers and threads"
        )

    def __delattr__(self, name):
        self.__setattr__(name, None)

    def describe(self):
        word = " ".join(str(pi) for pi in self.word) if self.word else "<empty word>"
        if not self.cell:
            where = "in every cell"
        else:
            guards = ", ".join(
                f"{alpha}={'T' if value else 'F'}" for alpha, value in self.cell
            )
            where = f"in the cell [{guards}]"
        return (
            f"{where} the two terms allow different action words; "
            f"distinguishing word: {word}"
        )

    def __repr__(self):
        return f"Counterexample({self.describe()})"


class _FrozenResult:
    """Shared machinery for immutable, cache-replayable query results.

    Results are memoized in shared caches and handed to many callers
    (potentially on different threads), so subclasses freeze every field at
    construction (via ``object.__setattr__``) and any later mutation raises.
    ``_FIELDS`` lists the constructor keywords; :meth:`as_cached` clones a
    result with the ``cached`` replay flag set (the exploration counters of a
    replay describe the run that first computed it, not fresh work — the
    batch/server protocols surface the flag as ``"cached"``).
    """

    __slots__ = ()

    #: Constructor keyword per frozen field, in declaration order.
    _FIELDS = ()

    def __setattr__(self, name, value):
        raise AttributeError(
            f"{type(self).__name__} is immutable (attempted to set {name!r}); "
            "results are shared through caches across callers and threads"
        )

    def __delattr__(self, name):
        self.__setattr__(name, None)

    def as_cached(self):
        """A copy flagged as replayed from a cache (shares the counterexample)."""
        if self.cached:
            return self
        kwargs = {field: getattr(self, field) for field in self._FIELDS}
        kwargs["cached"] = True
        return type(self)(**kwargs)

    def _describe_counters(self):
        cached = ", cached" if self.cached else ""
        return (
            f"cells_explored={self.cells_explored}, "
            f"cells_pruned={self.cells_pruned}, "
            f"signatures_explored={self.signatures_explored}{cached}"
        )


class EquivalenceResult(_FrozenResult):
    """Outcome of an equivalence query.

    Immutable for the same reason as :class:`Counterexample`: the engine's
    equivalence cache returns the same object to every caller asking the same
    question, so in-place edits would corrupt all later answers.
    """

    __slots__ = ("equivalent", "counterexample", "cells_explored", "cells_pruned",
                 "signatures_explored", "cached")
    _FIELDS = __slots__

    def __init__(self, equivalent, counterexample=None, cells_explored=0, cells_pruned=0,
                 signatures_explored=0, cached=False):
        object.__setattr__(self, "equivalent", equivalent)
        object.__setattr__(self, "counterexample", counterexample)
        # Language comparisons performed (one per signature whose enabled
        # sums differ; one per explored cell for the reference enumerator).
        object.__setattr__(self, "cells_explored", cells_explored)
        # Branches abandoned because their literals were theory-inconsistent.
        object.__setattr__(self, "cells_pruned", cells_pruned)
        # Distinct satisfiable guard signatures enumerated (0 for the
        # reference enumerator, which never solves).
        object.__setattr__(self, "signatures_explored", signatures_explored)
        object.__setattr__(self, "cached", cached)

    def __bool__(self):
        return self.equivalent

    def __repr__(self):
        status = "equivalent" if self.equivalent else "inequivalent"
        return f"EquivalenceResult({status}, {self._describe_counters()})"


class InclusionResult(_FrozenResult):
    """Outcome of an inclusion query ``p <= q``.

    ``counterexample``, when present, is a :class:`Counterexample` whose
    ``word`` lies in ``L(left) \\ L(right)`` within the listed cell: a
    behaviour of the left term the right term does not admit.
    """

    __slots__ = ("includes", "counterexample", "cells_explored", "cells_pruned",
                 "signatures_explored", "cached")
    _FIELDS = __slots__

    def __init__(self, includes, counterexample=None, cells_explored=0, cells_pruned=0,
                 signatures_explored=0, cached=False):
        object.__setattr__(self, "includes", includes)
        object.__setattr__(self, "counterexample", counterexample)
        object.__setattr__(self, "cells_explored", cells_explored)
        object.__setattr__(self, "cells_pruned", cells_pruned)
        object.__setattr__(self, "signatures_explored", signatures_explored)
        object.__setattr__(self, "cached", cached)

    def __bool__(self):
        return self.includes

    def __repr__(self):
        status = "included" if self.includes else "not included"
        return f"InclusionResult({status}, {self._describe_counters()})"


class EquivalenceChecker:
    """Decides equivalence, inclusion, membership and emptiness of normal
    forms for one theory.

    ``caches`` is the engine-layer bundle of bounded LRU memo tables
    (:class:`repro.engine.cache.EngineCaches`): predicate satisfiability,
    normal-form verdicts and compiled automata.  The
    :class:`~repro.core.kmt.KMT` facade passes its own in; without one the
    checker builds a private bundle.  Derivatives are memoized per entry
    point call only: each call makes one plain dict that every compilation
    it triggers shares, and drops it on return.
    ``states_compiled`` counts the raw derivative states explored by this
    checker's compilations (cache hits compile nothing).
    """

    def __init__(self, theory, caches=None):
        self.theory = theory
        # A bundle is always truthy (EngineCaches defines no __len__).
        self.caches = caches or _private_caches()
        self.states_compiled = 0

    # ------------------------------------------------------------------
    # equivalence
    # ------------------------------------------------------------------
    def check_equivalent_nf(self, x, y, cancel=None):
        """Compare two already-normalized terms.

        ``cancel`` is an optional cooperative-cancellation callable threaded
        into the signature search and every language comparison; it aborts
        the query by raising (see :class:`~repro.utils.errors.QueryCancelled`).
        Replayed verdicts are returned as copies flagged ``cached=True`` so
        callers can tell stored exploration counters from fresh work.
        """
        equiv = self.caches.equiv
        key = (x, y)
        cached = equiv.get(key, _CACHE_MISS)
        if cached is not _CACHE_MISS:
            return cached.as_cached()
        # Equivalence is symmetric; a positive verdict for (y, x) carries
        # over directly (a counterexample would need its sides swapped, so
        # negative verdicts are only reused in the queried orientation).
        mirrored = equiv.get((y, x), _CACHE_MISS)
        if mirrored is not _CACHE_MISS and mirrored.equivalent:
            return mirrored.as_cached()
        return self._decide(EquivalenceResult, flat_compare, x, y, key, cancel)

    # ------------------------------------------------------------------
    # inclusion
    # ------------------------------------------------------------------
    def check_inclusion_nf(self, x, y, cancel=None):
        """Decide per-signature language containment of two normal forms.

        ``p <= q`` in the natural order iff in every satisfiable cell the
        restricted actions enabled on the left denote a sublanguage of those
        enabled on the right (``p + q == q`` holds exactly then), so the same
        signature search as equivalence applies, with product emptiness
        (:func:`~repro.core.kernels.flat_includes`) as the per-signature
        comparison.  Unlike deciding ``p + q == q`` this needs no
        normalization of ``p + q``, and a failure carries a shortest
        witness word in ``L(left) \\ L(right)``.
        """
        # Inclusion verdicts share the equivalence LRU under a tagged key (it
        # memoizes the same kind of object: a per-NF-pair verdict).
        key = ("incl", (x, y))
        cached = self.caches.equiv.get(key, _CACHE_MISS)
        if cached is not _CACHE_MISS:
            return cached.as_cached()
        return self._decide(InclusionResult, flat_includes, x, y, key, cancel)

    def _decide(self, result_type, kernel, x, y, key, cancel):
        """Run one signature search, comparing each signature's enabled sums
        with ``kernel`` (:func:`~repro.core.kernels.flat_compare` or
        :func:`~repro.core.kernels.flat_includes`) on their compiled
        automata, and memoize the verdict under ``key``."""

        memo = {}

        def compare(left, right):
            return kernel(self._compile_cached(left, cancel, memo),
                          self._compile_cached(right, cancel, memo), cancel=cancel)

        search = _SignatureSearch(self.theory, x, y, compare, cancel)
        counterexample = search.run()
        result = result_type(
            counterexample is None,
            counterexample=counterexample,
            cells_explored=search.comparisons,
            cells_pruned=search.stats.theory_pruned,
            signatures_explored=search.signatures_explored,
        )
        self.caches.equiv.put(key, result)
        return result

    # ------------------------------------------------------------------
    # word membership
    # ------------------------------------------------------------------
    def member_nf(self, x, word, cancel=None):
        """Is ``word`` (a sequence of primitive actions) a possible action
        sequence of the normalized term ``x``?

        True iff some summand ``(test, action)`` has a satisfiable guard and
        a compiled automaton accepting the word — i.e. some state enables a
        trace whose action labels spell exactly ``word``.  Runs in
        O(|word|) table lookups per summand once the automata are cached.
        """
        word = tuple(word)
        memo = {}
        for test, action in x.sorted_pairs():
            if self._satisfiable_pred(test) and \
                    self._compile_cached(action, cancel, memo).accepts(word):
                return True
        return False

    def member_nf_many(self, x, words, cancel=None):
        """Batched membership: judge many words against one normal form.

        Returns a list of bools aligned with ``words`` — elementwise
        identical to ``[self.member_nf(x, w) for w in words]``, but each
        summand's compiled automaton judges every still-undecided word in a
        single :func:`repro.core.kernels.accepts_batch` call (words already
        accepted by an earlier summand are not re-tested).
        """
        words = [tuple(word) for word in words]
        verdicts = [False] * len(words)
        pending = list(range(len(words)))
        memo = {}
        for test, action in x.sorted_pairs():
            if not pending:
                break
            if not self._satisfiable_pred(test):
                continue
            automaton = self._compile_cached(action, cancel, memo)
            accepted = accepts_batch(automaton, [words[i] for i in pending], cancel=cancel)
            still = []
            for i, ok in zip(pending, accepted):
                if ok:
                    verdicts[i] = True
                else:
                    still.append(i)
            pending = still
        return verdicts

    # ------------------------------------------------------------------
    # compiled-automaton plumbing
    # ------------------------------------------------------------------
    def _compile_cached(self, action, cancel=None, memo=None):
        """The compiled (minimized) automaton of a restricted action,
        memoized in the ``aut`` LRU under the action itself (so warm sessions
        reuse automata across queries).  ``memo`` is the calling entry
        point's derivative memo, a dict that lives for that one call."""
        caches = self.caches
        cached = caches.aut.get(action, _CACHE_MISS)
        if cached is not _CACHE_MISS:
            return cached
        trace = current_trace()
        if trace is None:
            automaton = compile_automaton(action, cancel=cancel, memo=memo)
        else:
            with trace.span("compile"):
                automaton = compile_automaton(action, cancel=cancel, memo=memo)
        self.states_compiled += automaton.raw_states
        caches.aut.put(action, automaton)
        return automaton

    # ------------------------------------------------------------------
    # emptiness and classing
    # ------------------------------------------------------------------
    def is_empty_nf(self, x, cancel=None):
        """True iff the normal form ``x`` denotes no traces at all (``x == 0``).

        A normal form is empty iff every summand is ruled out: either its test
        is unsatisfiable or its restricted action denotes the empty language.
        An action's emptiness is a field read on its cached automaton (no
        accepting bit set).  ``cancel`` cooperatively aborts compilation (a
        deadline must be able to interrupt the derivative BFS on a large
        action, same as on the equivalence path).
        """
        memo = {}
        for test, action in x.pairs:
            if self._satisfiable_pred(test) and \
                    not self._compile_cached(action, cancel, memo).is_empty():
                return False
        return True

    def _satisfiable_pred(self, test):
        memo = self.caches.sat_pred
        value = memo.get(test, _CACHE_MISS)
        if value is _CACHE_MISS:
            value = self.theory.satisfiable(test)
            memo.put(test, value)
        return value

    def partition_nfs(self, nfs):
        """Partition normal forms into equivalence classes (lists of indices).

        Mirrors the paper's command-line tool (greedy classing against one
        representative per class).
        """
        classes = []  # list of (representative normal form, [indices])
        for idx, nf in enumerate(nfs):
            placed = False
            for rep_nf, members in classes:
                if self.check_equivalent_nf(nf, rep_nf).equivalent:
                    members.append(idx)
                    placed = True
                    break
            if not placed:
                classes.append((nf, [idx]))
        return [members for _, members in classes]


def _private_caches():
    """A fresh caches bundle for a checker built without one."""
    # Imported here: the engine package imports this module while it
    # initializes, so a module-level import would be circular.
    from repro.engine.cache import EngineCaches

    return EngineCaches()


# ---------------------------------------------------------------------------
# solver-guided signature search
# ---------------------------------------------------------------------------


class _SignatureSearch:
    """One comparison of two normal forms, signature by signature.

    Asks :func:`repro.smt.dpll.enumerate_signatures` for the realizable truth
    valuations of the distinct guards of both normal forms; the search asks
    ``theory.satisfiable_conjunction`` directly and leaves nothing in the
    session.  Every cell with the same signature enables the same summands on
    each side, so one comparison decides all of its cells:
    ``compare(left, right)`` returns the ``(ok, word)`` verdict for the two
    enabled sums, and ``comparisons`` counts the calls made (identical sums
    are settled by reflexivity without one).  A counterexample's cell is the
    search's witness: theory-satisfiable, in atom order, and partial where
    no guard depends on a test.  Under a trace, :meth:`run` adds
    ``search_decisions``, ``search_propagations``, ``search_oracle_calls``
    and ``compare_reflexive`` to its counters and times each comparison in a
    ``compare`` span.
    """

    def __init__(self, theory, x, y, compare, cancel=None):
        self.theory = theory
        self.left_pairs = x.sorted_pairs()
        self.right_pairs = y.sorted_pairs()
        self.cancel = cancel
        self.compare = compare
        guards = []
        guard_slot = {}
        def slot(test):
            if isinstance(test, T.POne):
                return None  # always enabled, not part of the signature
            index = guard_slot.get(test)
            if index is None:
                index = len(guards)
                guard_slot[test] = index
                guards.append(test)
            return index
        self.left_slots = [slot(test) for test, _ in self.left_pairs]
        self.right_slots = [slot(test) for test, _ in self.right_pairs]
        self.guards = guards
        self.stats = SignatureSearchStats()
        self.signatures_explored = 0
        self.comparisons = 0
        self.oracle_calls = 0

    def run(self):
        trace = current_trace()
        if trace is None:
            return self._run(self.theory.satisfiable_conjunction, None)

        def satisfiable(literals):
            self.oracle_calls += 1
            return self.theory.satisfiable_conjunction(literals)

        with trace.span("signatures"):
            counterexample = self._run(satisfiable, trace)
        trace.count("search_decisions", self.stats.decisions)
        trace.count("search_propagations", self.stats.propagations)
        trace.count("search_oracle_calls", self.oracle_calls)
        return counterexample

    def _run(self, satisfiable, trace):
        for signature, witness in enumerate_signatures(
            self.guards, self.theory, satisfiable=satisfiable, stats=self.stats,
            cancel=self.cancel,
        ):
            if self.cancel is not None:
                # One checkpoint per signature, after the enumerator's (oracle
                # -heavy) work for it: the comparison below may be answered
                # by reflexivity without ever checking cancel.
                self.cancel()
            self.signatures_explored += 1
            left = self._enabled_sum(self.left_pairs, self.left_slots, signature)
            right = self._enabled_sum(self.right_pairs, self.right_slots, signature)
            if left == right:
                # Identical (hash-consed) sums — the most common case for
                # equivalent terms, where a signature enables the same
                # summands on both sides.  Reflexivity answers both query
                # kinds without compiling anything.
                if trace is not None:
                    trace.count("compare_reflexive")
                continue
            self.comparisons += 1
            if trace is None:
                ok, word = self.compare(left, right)
            else:
                with trace.span("compare"):
                    ok, word = self.compare(left, right)
            if not ok:
                return Counterexample(witness, left, right, word)
        return None

    @staticmethod
    def _enabled_sum(pairs, slots, signature):
        return T.tplus_all(
            action
            for slot, (_, action) in zip(slots, pairs)
            if slot is None or signature[slot]
        )
