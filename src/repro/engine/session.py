"""Long-lived query sessions: one theory, persistent caches, amortized work.

A plain :class:`~repro.core.kmt.KMT` builds a fresh ``Normalizer`` per query
and re-derives every automaton from scratch; an :class:`EngineSession` wraps
the same facade but keeps everything warm between queries:

* one persistent ``Normalizer`` whose ``pb_star`` / primitive-pushback memo
  tables survive across queries (stats and step budget reset per query);
* an :class:`~repro.engine.cache.EngineCaches` bundle threaded into the
  ``EquivalenceChecker`` (equivalence verdicts, satisfiability oracles) and
  installed into :mod:`repro.core.automata` (shared derivative memo);
* a term-keyed normal-form cache in front of normalization itself, so
  repeated and overlapping queries — ``partition``, Hoare-triple chains, the
  batch front end — never re-normalize the same term twice;
* a source-text table in front of the parser, so a repeated request reaches
  its first memo without re-parsing any of its text fields.

:meth:`EngineSession.stats` reports the bundle's tables plus a ``session``
block; its ``aut_bytes`` is the one sum over the ``aut`` table that
:meth:`~repro.engine.cache.EngineCaches.stats` computed.

Sessions are *not* thread-safe; callers take :attr:`EngineSession.lock`
for exclusive access.  :class:`ShardedSessionPool` keeps the sessions of a
batch run or a server alive: one per ``(theory, stripe)`` pair.
"""

from __future__ import annotations

import threading

from repro.core import automata
from repro.core import terms as T
from repro.core.kmt import KMT
from repro.core.pushback import DEFAULT_BUDGET, Normalizer
from repro.engine.cache import DERIVATIVE_CACHE, EngineCaches, installed_derivative_stats
from repro.theories import build_theory
from repro.utils.errors import KmtError
from repro.utils.trace import current_trace

_MISS = object()


class EngineSession:
    """A persistent, cache-backed query engine for one client theory."""

    def __init__(self, theory, budget=DEFAULT_BUDGET, caches=None):
        self.caches = caches if caches is not None else EngineCaches()
        # The automata memo is a process-wide slot.  Only the *shared* table is
        # ever auto-installed: a session built with a custom ``caches=`` bundle
        # must not publish its private derivative table process-wide (it would
        # silently redirect every other session's derivative caching, and pool
        # stats would report the wrong table).  Custom bundles that really want
        # a global table can call ``automata.set_derivative_cache`` themselves.
        if self.caches.deriv is DERIVATIVE_CACHE and automata.get_derivative_cache() is None:
            automata.set_derivative_cache(DERIVATIVE_CACHE)
        self.kmt = KMT(theory, budget=budget, caches=self.caches)
        self.theory = theory
        self.budget = budget
        self.lock = threading.Lock()
        self._normalizer = Normalizer(theory, budget=budget)
        self.queries = 0
        self._cumulative_steps = 0

    def __repr__(self):
        return f"EngineSession({self.theory.describe()}, queries={self.queries})"

    # ------------------------------------------------------------------
    # parsing, memoized by source text
    # ------------------------------------------------------------------
    # Every text field of a request reaches the parser through these two
    # methods, so a repeated request looks its terms up in the ``source``
    # table instead of re-parsing.  Parse errors raise before the ``put`` and
    # are never stored.  Plain get/put: the session lock serializes callers,
    # and a duplicate parse would return the same hash-consed node anyway.
    def parse(self, text):
        return self._parse_cached("t", text, self.kmt.parse)

    def parse_pred(self, text):
        return self._parse_cached("p", text, self.kmt.parse_pred)

    def _parse_cached(self, kind, text, parse):
        key = (kind, text)
        node = self.caches.source.get(key, _MISS)
        if node is not _MISS:
            return node
        trace = current_trace()
        if trace is None:
            node = parse(text)
        else:
            with trace.span("parse"):
                node = parse(text)
        self.caches.source.put(key, node)
        return node

    def _coerce_term(self, p):
        if isinstance(p, str):
            return self.parse(p)
        return self.kmt._coerce_term(p)

    def _coerce_pred(self, pred):
        if isinstance(pred, str):
            return self.parse_pred(pred)
        if not isinstance(pred, T.Pred):
            raise TypeError(f"expected a Pred or source string, got {pred!r}")
        return pred

    # ------------------------------------------------------------------
    # cached normalization
    # ------------------------------------------------------------------
    def normalize(self, term, cancel=None):
        """Normalize a term, reusing the session's normal-form cache.

        ``cancel`` (here and on every decision entry point) is an optional
        cooperative-cancellation callable threaded down into normalization,
        the signature/cell search and the automata comparison; it aborts the
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
        """Decide ``p == q`` with full result; both normal forms are cached."""
        self.queries += 1
        x = self._normalize_cached(p, cancel=cancel)
        y = self._normalize_cached(q, cancel=cancel)
        return self.kmt.checker.check_equivalent_nf(x, y, cancel=cancel)

    def equivalent(self, p, q):
        return self.check_equivalent(p, q).equivalent

    def less_or_equal(self, p, q, cancel=None):
        """``p <= q`` i.e. ``p + q == q``."""
        p, q = self._coerce_term(p), self._coerce_term(q)
        return self.check_equivalent(T.tplus(p, q), q, cancel=cancel).equivalent

    def check_inclusion(self, p, q, cancel=None):
        """Decide ``p <= q`` by per-cell compiled-automaton containment.

        Unlike :meth:`less_or_equal` this never normalizes ``p + q`` — both
        operand normal forms come from (and land in) the session's norm
        cache, the per-signature containments go through the shared ``sig``
        verdict memo, and the compiled automata through the ``aut`` LRU, so a
        warm session answers inclusion queries over known sums without
        re-deriving anything.
        """
        self.queries += 1
        x = self._normalize_cached(p, cancel=cancel)
        y = self._normalize_cached(q, cancel=cancel)
        return self.kmt.checker.check_inclusion_nf(x, y, cancel=cancel)

    def includes(self, p, q):
        return self.check_inclusion(p, q).includes

    def member(self, term, word, cancel=None):
        """Word membership: is ``word`` a possible action sequence of ``term``?

        ``word`` follows :meth:`repro.core.kmt.KMT.member`'s element forms
        (raw primitive actions, ``TPrim`` terms, or source strings).  Decided
        on the cached compiled automata of the term's normal form.
        """
        self.queries += 1
        pis = self.kmt._coerce_word(word, parse=self.parse)
        nf = self._normalize_cached(term, cancel=cancel)
        return self.kmt.checker.member_nf(nf, pis, cancel=cancel)

    def member_many(self, term, words, cancel=None):
        """Batched membership: many words against one term, normalized once.

        Returns a list of bools aligned with ``words``; each summand's cached
        automaton judges every still-undecided word in a single batched
        kernel call (:meth:`EquivalenceChecker.member_nf_many`).
        """
        self.queries += 1
        pis = [self.kmt._coerce_word(word, parse=self.parse) for word in words]
        nf = self._normalize_cached(term, cancel=cancel)
        return self.kmt.checker.member_nf_many(nf, pis, cancel=cancel)

    def is_empty(self, p, cancel=None):
        self.queries += 1
        return self.kmt.checker.is_empty_nf(self._normalize_cached(p, cancel=cancel),
                                            cancel=cancel)

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

    def _is_empty_nf_cached(self, term, cancel=None):
        """Emptiness without bumping the public query counter (internal)."""
        return self.kmt.checker.is_empty_nf(
            self._normalize_cached(term, cancel=cancel), cancel=cancel)

    def satisfiable(self, pred):
        """Satisfiability of a predicate, memoized on the predicate."""
        self.queries += 1
        pred = self._coerce_pred(pred)
        return self.kmt.checker._satisfiable_pred(pred)

    def partition(self, ps):
        """Equivalence classes over ``ps`` (indices), sharing all caches."""
        self.queries += 1
        nfs = [self._normalize_cached(p) for p in ps]
        return self.kmt.checker.partition_nfs(nfs)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def stats(self, include_shared=True):
        """Cache hit/miss tables plus session-level counters.

        ``include_shared=False`` omits the process-wide derivative cache (see
        :meth:`repro.engine.cache.EngineCaches.stats`).
        """
        out = self.caches.stats(include_shared=include_shared)
        out["session"] = {
            "theory": self.theory.describe(),
            "queries": self.queries,
            "normalization_steps": self._cumulative_steps,
            # Raw derivative states explored by automaton compilation; aut
            # cache hits compile nothing, so a warm session's counter stalls.
            "states_compiled": self.kmt.checker.states_compiled,
            # Flat-table bytes of the automata the aut LRU retains (computed
            # once above; falls as the LRU evicts).
            "aut_bytes": out["aut_bytes"],
            "pb_star_memo": len(self._normalizer._pb_star_cache),
            "pb_prim_memo": len(self._normalizer._pb_prim_cache),
        }
        return out

    def clear_caches(self):
        """Drop all cached results (the session stays usable)."""
        self.caches.clear()
        self._normalizer = Normalizer(self.theory, budget=self.budget)

    # ------------------------------------------------------------------
    # snapshot save / load (see repro.engine.persist)
    # ------------------------------------------------------------------
    def export_state(self):
        """This session's persistable cache state, stamped with its theory.

        The returned dict is JSON-safe and feeds
        :meth:`import_state` of a session over the *same* theory — in this
        process, a respawned worker, or a future restart.
        """
        from repro.engine import persist

        return persist.export_session_state(self)

    def import_state(self, state):
        """Warm this session from an exported state; returns import counts.

        Raises :class:`~repro.utils.errors.SnapshotError` (and touches no
        cache) if the payload's theory stamp or any entry is invalid — the
        decode is staged completely before anything is installed.
        """
        from repro.engine import persist

        return persist.import_session_state(self, state)


def _merge_cache_tables(into, tables):
    """Accumulate one stats block's table counters into ``into`` (by name)."""
    for table_name, table in tables.items():
        agg = into.setdefault(
            table_name,
            {"name": table_name, "hits": 0, "misses": 0, "puts": 0, "evictions": 0},
        )
        for counter in ("hits", "misses", "puts", "evictions"):
            agg[counter] += table.get(counter, 0)


def _finish_hit_rates(tables):
    """Recompute ``hit_rate`` on aggregated table counters."""
    for table in tables.values():
        lookups = table["hits"] + table["misses"]
        table["hit_rate"] = round(table["hits"] / lookups, 4) if lookups else 0.0


class ShardedSessionPool:
    """Persistent per-``(theory, stripe)`` engine sessions.

    A hot theory gets up to ``stripes`` independent sessions so its queries
    can be spread over that many workers; ``stripes=1`` is one session per
    theory (the batch front end's default pool).  ``theory_factory`` (default
    :func:`repro.theories.build_theory`) is the injection point for wrapped
    theories in tests and benchmarks.
    """

    def __init__(self, stripes=4, budget=DEFAULT_BUDGET, theory_factory=None):
        if stripes < 1:
            raise ValueError(f"stripes must be at least 1, got {stripes}")
        self.stripes = stripes
        self.budget = budget
        self.theory_factory = build_theory if theory_factory is None else theory_factory
        self._sessions = {}  # (theory_name, stripe) -> EngineSession
        self._lock = threading.Lock()

    def session(self, theory_name, stripe=0):
        key = (theory_name.lower(), stripe % self.stripes)
        with self._lock:
            existing = self._sessions.get(key)
            if existing is not None:
                return existing
        # Build outside the lock (theory construction may be slow or raise
        # for unknown presets); a racing duplicate is discarded.
        session = EngineSession(self.theory_factory(key[0]), budget=self.budget)
        with self._lock:
            return self._sessions.setdefault(key, session)

    def theories(self):
        with self._lock:
            return sorted({name for name, _ in self._sessions})

    def stats(self):
        """Per-theory cache accounting aggregated over stripes.

        Theory names plus a ``"shared"`` block for whatever derivative memo
        is actually installed (see
        :func:`repro.engine.cache.installed_derivative_stats`; every session
        shares it, so it is reported once rather than per theory).
        """
        with self._lock:
            sessions = dict(self._sessions)
        by_theory = {}
        for (name, _), session in sorted(sessions.items()):
            by_theory.setdefault(name, []).append(session.stats(include_shared=False))
        out = {}
        for name, blocks in by_theory.items():
            tables = {}
            for block in blocks:
                _merge_cache_tables(tables, block["tables"])
            _finish_hit_rates(tables)
            out[name] = {
                "stripes": len(blocks),
                "queries": sum(block["session"]["queries"] for block in blocks),
                "states_compiled": sum(
                    block["session"].get("states_compiled", 0) for block in blocks
                ),
                "aut_bytes": sum(
                    block["session"].get("aut_bytes", 0) for block in blocks
                ),
                "tables": tables,
                "totals": {
                    "hits": sum(block["totals"]["hits"] for block in blocks),
                    "misses": sum(block["totals"]["misses"] for block in blocks),
                },
            }
        out["shared"] = installed_derivative_stats()
        return out

    def export_snapshot(self):
        """Every stripe session's state, merged into one snapshot payload.

        Stripes of one theory serve disjoint request shards but overlap on
        cached entries; the merge dedups by serialized key, so the payload is
        roughly one warm session's worth per theory.
        """
        from repro.engine import persist

        with self._lock:
            sessions = dict(self._sessions)
        payloads = [
            persist.make_payload({name: session.export_state()})
            for (name, _), session in sorted(sessions.items())
        ]
        return persist.merge_payloads(payloads)

    def import_snapshot(self, payload):
        """Warm every stripe from a snapshot payload; returns per-theory counts.

        Each theory's payload is decoded **once** (against the stripe-0
        session: the staged keys are the decoded nodes themselves, valid for
        every stripe) and the decoded values — automata, normal
        forms, verdicts — are installed into all stripes, shared by
        reference.  Staging completes for every theory before any stripe is
        touched, keeping rejection atomic.
        """
        from repro.engine import persist
        from repro.utils.errors import SnapshotError

        sessions_payload = persist.check_payload(payload)
        staged = []
        for name, state in sorted(sessions_payload.items()):
            try:
                primary = self.session(str(name), 0)
            except KmtError as error:
                raise SnapshotError(
                    f"snapshot references unavailable theory preset {name!r}: {error}"
                ) from error
            staged.append(
                (str(name).lower(), persist.stage_session_state(primary, state))
            )
        counts = {}
        for name, entries in staged:
            for stripe in range(self.stripes):
                stripe_counts = self.session(name, stripe).caches.install_state(entries)
            counts[name] = stripe_counts
        return counts


def merge_pool_stats(blocks):
    """Merge per-worker :meth:`ShardedSessionPool.stats` blocks into one.

    Worker processes each own private sessions *and* a private process-wide
    derivative memo; the merged report sums table counters per theory across
    workers (recomputing hit rates) and folds every worker's ``"shared"``
    block into one.  The result has the same shape as a single pool's stats,
    so ``stats`` responses look identical under both backends.
    """
    out = {}
    shared_tables = {}
    for block in blocks:
        for name, theory_block in block.items():
            if name == "shared":
                _merge_cache_tables(shared_tables, theory_block.get("tables", {}))
                continue
            agg = out.setdefault(
                name,
                {"stripes": 0, "queries": 0, "states_compiled": 0, "aut_bytes": 0,
                 "tables": {}, "totals": {"hits": 0, "misses": 0}},
            )
            agg["stripes"] += theory_block.get("stripes", 0)
            agg["queries"] += theory_block.get("queries", 0)
            agg["states_compiled"] += theory_block.get("states_compiled", 0)
            agg["aut_bytes"] += theory_block.get("aut_bytes", 0)
            _merge_cache_tables(agg["tables"], theory_block.get("tables", {}))
            for counter in ("hits", "misses"):
                agg["totals"][counter] += theory_block.get("totals", {}).get(counter, 0)
    for agg in out.values():
        _finish_hit_rates(agg["tables"])
    _finish_hit_rates(shared_tables)
    merged = dict(sorted(out.items()))
    merged["shared"] = {"tables": shared_tables}
    return merged
