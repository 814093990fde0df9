"""Long-lived query sessions and the per-``(theory, stripe)`` pool that keeps them.

A session is a plain :class:`~repro.core.kmt.KMT`: the facade itself owns
the caches bundle, the persistent normalizer, the ``source`` parse memo,
``lock``/``stats``/``clear_caches`` and snapshot export/import, so
:data:`EngineSession` is just another name for that class.  Like any
:class:`~repro.core.kmt.KMT`, a session is *not* thread-safe; callers take
its ``lock`` for exclusive access.

:class:`ShardedSessionPool` keeps the sessions of a batch run or a server
alive, one per ``(theory, stripe)`` pair, and :func:`merge_pool_stats`
folds the stats blocks of several pools (one per worker process) into one.
"""

from __future__ import annotations

import threading

from repro.core.kmt import KMT
from repro.core.pushback import DEFAULT_BUDGET
from repro.theories import build_theory
from repro.utils.errors import KmtError

#: The engine's name for a long-lived :class:`~repro.core.kmt.KMT`.
EngineSession = KMT


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
        self._sessions = {}  # (theory_name, stripe) -> KMT
        self._lock = threading.Lock()

    def session(self, theory_name, stripe=0):
        key = (theory_name.lower(), stripe % self.stripes)
        with self._lock:
            existing = self._sessions.get(key)
            if existing is not None:
                return existing
        # Build outside the lock (theory construction may be slow or raise
        # for unknown presets); a racing duplicate is discarded.
        session = KMT(self.theory_factory(key[0]), budget=self.budget)
        with self._lock:
            return self._sessions.setdefault(key, session)

    def theories(self):
        with self._lock:
            return sorted({name for name, _ in self._sessions})

    def stats(self):
        """Per-theory cache accounting aggregated over stripes, keyed by
        theory name."""
        with self._lock:
            sessions = dict(self._sessions)
        by_theory = {}
        for (name, _), session in sorted(sessions.items()):
            by_theory.setdefault(name, []).append(session.stats())
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

    Worker processes each own private sessions; the merged report sums table
    counters per theory across workers (recomputing hit rates).  The result
    has the same shape as a single pool's stats, so ``stats`` responses look
    identical under both backends.
    """
    out = {}
    for block in blocks:
        for name, theory_block in block.items():
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
    return dict(sorted(out.items()))
