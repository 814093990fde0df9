"""The ``KMT`` facade: a client theory plus everything the framework derives.

This is the Python analogue of the paper's ``module K = KAT(IncNat)`` /
``module D = Decide(P)`` instantiation: construct a :class:`KMT` from a
:class:`~repro.core.theory.Theory` and you get

* a parser for the theory's concrete syntax,
* the tracing semantics (evaluation of terms on states),
* pushback-based normalization,
* the equivalence / ordering / inclusion / membership / emptiness decision
  procedures and the While-program analyses built on them, and
* the weakest-precondition operation on arbitrary embedded predicates that
  higher-order theories (LTLf, Temporal NetKAT) need — this is the recursive
  knot the OCaml implementation ties with recursive modules.

One object owns all of it, and keeps its work between calls:

* an :class:`~repro.engine.cache.EngineCaches` bundle of bounded memo tables,
  shared with the ``EquivalenceChecker`` (which decides already-normalized
  terms only);
* one persistent ``Normalizer`` behind the ``norm`` table, whose pushback
  memos, stats and step budget start fresh for each normalization (answers
  that outlive a query live in the bounded tables);
* the ``source`` table in front of the parser, so a repeated request reaches
  its first memo without re-parsing any of its text fields.

A "cold" query is therefore just a fresh :class:`KMT`.  A :class:`KMT` is
*not* thread-safe: callers that share one take :attr:`KMT.lock`.  The query
engine's long-lived sessions are plain :class:`KMT` objects
(``repro.engine.session.EngineSession`` is another name for this class).
"""

from __future__ import annotations

import threading

from repro.core import parser as parser_mod
from repro.core import semantics, terms
from repro.core.decision import EquivalenceChecker
from repro.core.pushback import DEFAULT_BUDGET, Normalizer
from repro.utils.errors import KmtError
from repro.utils.trace import current_trace

_MISS = object()


class KMT:
    """A Kleene algebra modulo the given client theory."""

    def __init__(self, theory, budget=DEFAULT_BUDGET, caches=None):
        # Imported here: the engine package imports this module while it
        # initializes, so a module-level import would be circular.
        from repro.engine.cache import EngineCaches

        self.theory = theory
        self.budget = budget
        self.caches = caches if caches is not None else EngineCaches()
        self.checker = EquivalenceChecker(theory, caches=self.caches)
        self.lock = threading.Lock()
        self._normalizer = Normalizer(theory, budget=budget)
        self.queries = 0
        self._cumulative_steps = 0
        theory.attach(self)

    def __repr__(self):
        return f"KMT({self.theory.describe()}, queries={self.queries})"

    # ------------------------------------------------------------------
    # parsing (memoized by source text) / printing
    # ------------------------------------------------------------------
    # Every text field of a request reaches the parser through these two
    # methods, so a repeated request looks its terms up in the ``source``
    # table instead of re-parsing.  Parse errors raise before the ``put`` and
    # are never stored.  Plain get/put: callers sharing a facade hold its
    # lock, and a duplicate parse would return the same hash-consed node.
    def parse(self, text):
        """Parse a term in the theory's concrete syntax."""
        return self._parse_cached("t", text, parser_mod.parse_term)

    def parse_pred(self, text):
        """Parse a predicate in the theory's concrete syntax."""
        return self._parse_cached("p", text, parser_mod.parse_pred)

    def _parse_cached(self, kind, text, parse):
        key = (kind, text)
        node = self.caches.source.get(key, _MISS)
        if node is not _MISS:
            return node
        trace = current_trace()
        if trace is None:
            node = parse(text, self.theory)
        else:
            with trace.span("parse"):
                node = parse(text, self.theory)
        self.caches.source.put(key, node)
        return node

    def pretty(self, term_or_pred):
        from repro.core.pretty import pretty_pred, pretty_term

        if isinstance(term_or_pred, terms.Pred):
            return pretty_pred(term_or_pred)
        return pretty_term(term_or_pred)

    # ------------------------------------------------------------------
    # normalization
    # ------------------------------------------------------------------
    def normalize(self, term, cancel=None):
        """Normalize a term into Σ aᵢ·mᵢ form, reusing the ``norm`` memo.

        ``cancel`` (here and on every decision entry point) is an optional
        cooperative-cancellation callable threaded down into normalization,
        the signature search and the automata comparison; it aborts the
        query by raising — typically
        :class:`~repro.utils.errors.DeadlineExceeded`, which the query server
        maps to a ``deadline_exceeded`` error response.  Cancellation is safe
        mid-query: every memo table is only written on completion.
        """
        self.queries += 1
        return self._normalize_cached(term, cancel=cancel)

    def _normalize_cached(self, term, cancel=None):
        term = self._coerce_term(term)
        cached = self.caches.norm.get(term, _MISS)
        if cached is not _MISS:
            return cached
        self._normalizer.reset_stats()
        self._normalizer.cancel = cancel
        trace = current_trace()
        try:
            if trace is None:
                nf = self._normalizer.normalize(term)
            else:
                # Timed here (around the whole pushback normalization) rather
                # than inside the Normalizer: one span per cache miss, zero
                # cost on the per-step hot loop.
                with trace.span("normalize"):
                    nf = self._normalizer.normalize(term)
        finally:
            self._normalizer.cancel = None
            self._cumulative_steps += self._normalizer.stats.steps
        self.caches.norm.put(term, nf)
        return nf

    # ------------------------------------------------------------------
    # decision procedures (all routed through the cached normalizer)
    # ------------------------------------------------------------------
    # ``queries`` counts public entry points, once each — internal
    # normalization sub-calls do not inflate it.
    def check_equivalent(self, p, q, cancel=None):
        """Decide ``p == q`` and return the detailed result (counterexample etc.).

        Accepts terms, predicates or source strings.
        """
        self.queries += 1
        x = self._normalize_cached(p, cancel=cancel)
        y = self._normalize_cached(q, cancel=cancel)
        return self.checker.check_equivalent_nf(x, y, cancel=cancel)

    def equivalent(self, p, q):
        """Decide ``p == q``."""
        return self.check_equivalent(p, q).equivalent

    def less_or_equal(self, p, q, cancel=None):
        """Decide ``p <= q`` (i.e. ``p + q == q``)."""
        p, q = self._coerce_term(p), self._coerce_term(q)
        return self.check_equivalent(terms.tplus(p, q), q, cancel=cancel).equivalent

    def check_inclusion(self, p, q, cancel=None):
        """Decide ``p <= q`` by per-cell compiled-automaton containment.

        Unlike :meth:`less_or_equal` this never normalizes ``p + q``, and a
        failure carries the detailed
        :class:`~repro.core.decision.InclusionResult` (a shortest witness
        word in ``L(p) \\ L(q)``).
        """
        self.queries += 1
        x = self._normalize_cached(p, cancel=cancel)
        y = self._normalize_cached(q, cancel=cancel)
        return self.checker.check_inclusion_nf(x, y, cancel=cancel)

    def includes(self, p, q):
        return self.check_inclusion(p, q).includes

    def member(self, term, word, cancel=None):
        """Is ``word`` a possible action sequence of ``term``?

        ``word`` is a sequence of primitive actions — raw theory actions,
        ``TPrim`` terms, or source strings (a string element may spell several
        actions separated by ``;``, e.g. ``"inc(x); inc(y)"``); a single
        string is accepted as a one-element word.  Decided on the compiled
        automata of the term's normal form (:meth:`EquivalenceChecker.member_nf`).
        """
        self.queries += 1
        pis = self._coerce_word(word)
        nf = self._normalize_cached(term, cancel=cancel)
        return self.checker.member_nf(nf, pis, cancel=cancel)

    def member_many(self, term, words, cancel=None):
        """Batched membership: judge many words against one term in one call.

        Each element of ``words`` follows :meth:`member`'s word forms.
        Returns a list of bools aligned with ``words``; the term is
        normalized once and every summand automaton judges all
        still-undecided words together
        (:meth:`EquivalenceChecker.member_nf_many`).
        """
        self.queries += 1
        pis = [self._coerce_word(word) for word in words]
        nf = self._normalize_cached(term, cancel=cancel)
        return self.checker.member_nf_many(nf, pis, cancel=cancel)

    def is_empty(self, p, cancel=None):
        """Decide whether ``p`` denotes no traces (``p == 0``)."""
        self.queries += 1
        return self.checker.is_empty_nf(self._normalize_cached(p, cancel=cancel),
                                        cancel=cancel)

    def _is_empty_nf_cached(self, term, cancel=None):
        """Emptiness without bumping the public query counter (internal)."""
        return self.checker.is_empty_nf(
            self._normalize_cached(term, cancel=cancel), cancel=cancel)

    def partition(self, ps):
        """Partition terms into equivalence classes (list of index lists)."""
        self.queries += 1
        nfs = [self._normalize_cached(p) for p in ps]
        return self.checker.partition_nfs(nfs)

    def satisfiable(self, pred):
        """Satisfiability of a predicate, memoized on the predicate."""
        self.queries += 1
        if isinstance(pred, str):
            pred = self.parse_pred(pred)
        elif not isinstance(pred, terms.Pred):
            raise TypeError(f"expected a Pred or source string, got {pred!r}")
        return self.checker._satisfiable_pred(pred)

    # ------------------------------------------------------------------
    # program analyses (see repro.analysis.checks)
    # ------------------------------------------------------------------
    # Program source text is parsed+compiled through the ``prog`` cache; the
    # resulting terms flow through the same cached pipeline as every other
    # query, so an edit-recheck loop re-verifying a mutated program only pays
    # for the normal forms that actually changed.
    def verify(self, pre, program, post, cancel=None):
        """Decide the Hoare triple ``{pre} program {post}`` over While source."""
        from repro.analysis import checks

        return checks.verify(self, pre, program, post, cancel=cancel)

    def prog_equiv(self, left, right, cancel=None):
        """Decide equivalence of two While programs (source text)."""
        from repro.analysis import checks

        return checks.prog_equiv(self, left, right, cancel=cancel)

    def dead_code(self, program, cancel=None):
        """Per-statement unreachability report for a While program."""
        from repro.analysis import checks

        self.queries += 1
        return checks.dead_code(self, program, cancel=cancel)

    # ------------------------------------------------------------------
    # semantics
    # ------------------------------------------------------------------
    def run(self, term, state=None, star_bound=semantics.DEFAULT_STAR_BOUND):
        """Run a term from a state (default: the theory's initial state)."""
        term = self._coerce_term(term)
        if state is None:
            state = self.theory.initial_state()
        return semantics.run(term, state, self.theory, star_bound)

    def output_states(self, term, state=None, star_bound=semantics.DEFAULT_STAR_BOUND):
        term = self._coerce_term(term)
        if state is None:
            state = self.theory.initial_state()
        return semantics.output_states(term, state, self.theory, star_bound)

    def accepts(self, term, state=None, star_bound=semantics.DEFAULT_STAR_BOUND):
        """True iff running the term from the state produces at least one trace."""
        return bool(self.run(term, state, star_bound))

    def eval_pred(self, pred, trace):
        """Evaluate an arbitrary embedded predicate on a trace.

        Used by higher-order theories whose primitive tests wrap predicates of
        the full language (e.g. LTLf's ``last a`` / ``a since b``).
        """
        return semantics.eval_pred(pred, trace, self.theory)

    # ------------------------------------------------------------------
    # weakest preconditions on arbitrary predicates (recursive knot)
    # ------------------------------------------------------------------
    def weakest_precondition(self, pi, pred):
        """Return a predicate ``a'`` with ``pi ; pred == a' ; pi``.

        ``pi`` is a theory primitive action and ``pred`` an arbitrary
        predicate of the derived language.  Implemented with the PB• relation;
        by Lemma B.27 pushing a test back through a *primitive* action leaves
        the action unchanged, so the result can be read off as the sum of the
        pushed-back tests.

        Runs on a fresh ``Normalizer``: a higher-order theory's ``push_back``
        calls this in the middle of the persistent normalizer's own run, and
        sharing it would charge the nested steps to the outer query's budget.
        """
        normalizer = Normalizer(self.theory, budget=self.budget)
        nf = normalizer.pb_test_action(terms.tprim(pi), pred)
        action = terms.tprim(pi)
        tests = []
        for test, m in nf.sorted_pairs():
            if m != action:
                raise KmtError(
                    "weakest_precondition: pushback through a primitive action "
                    f"produced a non-primitive action {m!r}"
                )
            tests.append(test)
        return terms.por_all(tests)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def stats(self):
        """Cache hit/miss tables plus facade-level counters.

        The ``session`` block's ``aut_bytes`` is the one sum over the ``aut``
        table that :meth:`~repro.engine.cache.EngineCaches.stats` computed.
        """
        out = self.caches.stats()
        out["session"] = {
            "theory": self.theory.describe(),
            "queries": self.queries,
            "normalization_steps": self._cumulative_steps,
            # Raw derivative states explored by automaton compilation; aut
            # cache hits compile nothing, so a warm facade's counter stalls.
            "states_compiled": self.checker.states_compiled,
            # Flat-table bytes of the automata the aut LRU retains (computed
            # once above; falls as the LRU evicts).
            "aut_bytes": out["aut_bytes"],
            "pb_star_memo": len(self._normalizer._pb_star_cache),
            # Theory push_back calls of the last normalization; the PB• memo
            # holds their results.
            "pb_prim_memo": self._normalizer.stats.prim_pushbacks,
        }
        return out

    def clear_caches(self):
        """Drop all cached results (the facade stays usable)."""
        self.caches.clear()
        self._normalizer = Normalizer(self.theory, budget=self.budget)

    # ------------------------------------------------------------------
    # snapshot save / load (see repro.engine.persist)
    # ------------------------------------------------------------------
    def export_state(self):
        """This facade's persistable cache state, stamped with its theory.

        The returned dict is JSON-safe and feeds :meth:`import_state` of a
        facade over the *same* theory — in this process, a respawned worker,
        or a future restart.
        """
        from repro.engine import persist

        return persist.export_session_state(self)

    def import_state(self, state):
        """Warm this facade from an exported state; returns import counts.

        Raises :class:`~repro.utils.errors.SnapshotError` (and touches no
        cache) if the payload's theory stamp or any entry is invalid — the
        decode is staged completely before anything is installed.
        """
        from repro.engine import persist

        return persist.import_session_state(self, state)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _coerce_term(self, p):
        if isinstance(p, str):
            return self.parse(p)
        if isinstance(p, terms.Pred):
            return terms.ttest(p)
        if isinstance(p, terms.Term):
            return p
        raise TypeError(f"expected a Term, Pred or source string, got {p!r}")

    def _coerce_word(self, word):
        """Normalize a word argument into a tuple of theory primitive actions.

        See :meth:`member` for the accepted element forms.  Raises
        ``KmtError`` when an element is not (a sequence of) primitive
        actions — tests, sums and stars have no place in a word.
        """
        if isinstance(word, str):
            word = [word]
        pis = []
        for element in word:
            if isinstance(element, str):
                element = self.parse(element)
            if isinstance(element, terms.Term):
                self._flatten_word_term(element, pis)
            else:
                pis.append(element)  # a raw theory primitive action
        return tuple(pis)

    def _flatten_word_term(self, term, out):
        if isinstance(term, terms.TPrim):
            out.append(term.pi)
        elif isinstance(term, terms.TSeq):
            self._flatten_word_term(term.left, out)
            self._flatten_word_term(term.right, out)
        elif isinstance(term, terms.TTest) and isinstance(term.pred, terms.POne):
            pass  # "1" spells the empty word
        else:
            raise KmtError(
                f"word elements must be primitive actions (got {term!r}); "
                "tests, sums and stars cannot appear in a word"
            )
