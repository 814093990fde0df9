"""Bounded LRU memo tables with hit/miss accounting.

Every table is thread-safe (the query server runs sessions on worker
threads) and exposes :class:`CacheStats` so callers can verify that
repeated work is actually being reused — the acceptance criterion for the
batch front end.

:class:`EngineCaches` bundles one table per concern.  Each
:class:`~repro.core.kmt.KMT` owns one (or takes one via
``KMT(caches=...)``); a checker built without one creates a private bundle.
No table is shared between bundles; derivatives are memoized per decision
call instead (:class:`repro.core.decision.EquivalenceChecker`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

_MISS = object()

#: Entries in a bundle's ``source`` table (request text → parsed node).
SOURCE_TABLE_SIZE = 4096


class CacheStats:
    """Hit/miss/eviction counters for one memo table."""

    def __init__(self, name):
        self.name = name
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0

    @property
    def lookups(self):
        return self.hits + self.misses

    @property
    def hit_rate(self):
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def as_dict(self):
        """A dict view of the counters — **not** torn-read safe.

        Reading four counters while worker threads mutate them can produce a
        mutually inconsistent snapshot (e.g. a ``put`` counted whose ``miss``
        is not); aggregators must use :meth:`LRUCache.stats_snapshot`, which
        reads under the table lock.  Kept for reprs and single-threaded use.
        """
        return {
            "name": self.name,
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }

    def __repr__(self):
        return f"CacheStats({self.as_dict()})"


class LRUCache:
    """A bounded least-recently-used map with ``get``/``put`` and stats.

    ``maxsize=None`` disables eviction (unbounded).  All operations take an
    internal lock, so a single instance may be shared across worker threads.
    """

    def __init__(self, maxsize=4096, name="cache"):
        if maxsize is not None and maxsize <= 0:
            raise ValueError(f"maxsize must be positive or None, got {maxsize}")
        self.maxsize = maxsize
        self.stats = CacheStats(name)
        self._data = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self):
        with self._lock:
            return len(self._data)

    def get(self, key, default=None):
        with self._lock:
            value = self._data.get(key, _MISS)
            if value is _MISS:
                self.stats.misses += 1
                return default
            self._data.move_to_end(key)
            self.stats.hits += 1
            return value

    def put(self, key, value):
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            self.stats.puts += 1
            if self.maxsize is not None and len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.stats.evictions += 1

    def stats_snapshot(self):
        """A point-in-time-consistent copy of the counters.

        Taken under the table lock, so the returned dict never mixes counter
        values from two different instants (``as_dict`` read live attributes
        and could report a ``put`` whose ``miss`` it missed).
        """
        with self._lock:
            stats = self.stats
            hits, misses = stats.hits, stats.misses
            lookups = hits + misses
            return {
                "name": stats.name,
                "hits": hits,
                "misses": misses,
                "puts": stats.puts,
                "evictions": stats.evictions,
                "hit_rate": round(hits / lookups, 4) if lookups else 0.0,
            }

    def items_snapshot(self):
        """A list copy of ``(key, value)`` pairs (LRU → MRU), taken atomically.

        Does not count as lookups and does not touch recency — this is the
        read path for snapshot export, not a query.
        """
        with self._lock:
            return list(self._data.items())

    def clear(self):
        with self._lock:
            self._data.clear()


class EngineCaches:
    """The bundle of memo tables one :class:`~repro.core.kmt.KMT` owns.

    Every table is keyed on the nodes themselves.  Terms and predicates are
    hash consed, and their equality and hashing are structural, so a key
    lookup is a cached-hash probe plus an identity check, and a structurally
    equal twin (say, one rebuilt after
    :func:`repro.core.terms.clear_intern_table`) still finds its entry.

    ================  =====================================================
    table             keyed by
    ================  =====================================================
    ``norm``          term → ``NormalForm``
    ``sat_pred``      predicate → bool
    ``equiv``         ``NormalForm`` pair ``(x, y)`` → result
    ``aut``           restricted action → ``CompiledAutomaton``
    ``prog``          While-program source text → ``(WhileProgram, Term)``
    ``source``        ``(kind, text)`` → parsed ``Term`` (``"t"``) / ``Pred`` (``"p"``)
    ================  =====================================================

    ``equiv`` also holds inclusion verdicts, under the tagged key
    ``("incl", pair)``.  :meth:`stats` reports ``aut_bytes``, the flat-table
    footprint of the automata ``aut`` retains, summed over that table on
    each call.
    """

    def __init__(
        self,
        norm_size=4096,
        sat_pred_size=4096,
        equiv_size=8192,
        aut_size=4096,
        prog_size=256,
    ):
        self.norm = LRUCache(norm_size, name="norm")
        self.sat_pred = LRUCache(sat_pred_size, name="sat_pred")
        self.equiv = LRUCache(equiv_size, name="equiv")
        self.aut = LRUCache(aut_size, name="aut")
        self.prog = LRUCache(prog_size, name="prog")
        self.source = LRUCache(SOURCE_TABLE_SIZE, name="source")

    # -- accounting ---------------------------------------------------------
    def tables(self):
        """Every table of the bundle."""
        return (self.norm, self.sat_pred, self.equiv,
                self.aut, self.prog, self.source)

    def stats(self):
        """Nested hit/miss stats, plus aggregate totals."""
        # One locked snapshot per table: the totals are summed over the same
        # dicts reported per-table, so a stats response can never show totals
        # that disagree with its own table rows (the counters were previously
        # read attribute-by-attribute while workers mutated them).
        snapshots = [cache.stats_snapshot() for cache in self.tables()]
        per_table = {snap["name"]: snap for snap in snapshots}
        totals = {
            "hits": sum(snap["hits"] for snap in snapshots),
            "misses": sum(snap["misses"] for snap in snapshots),
        }
        # ``aut_bytes``: flat-table bytes of the automata the aut LRU retains.
        aut_bytes = sum(aut.nbytes for _, aut in self.aut.items_snapshot())
        return {"tables": per_table, "totals": totals, "aut_bytes": aut_bytes}

    def clear(self):
        """Drop every table's entries."""
        for cache in self.tables():
            cache.clear()

    # -- snapshot export / import ------------------------------------------
    # The ``codec`` argument is duck-typed (it comes from
    # repro.engine.persist.SnapshotCodec, built around one session's theory
    # and parser); cache.py deliberately does not import persist, keeping the
    # dependency one-directional.
    def export_state(self, codec):
        """Serialize the persistable tables to a JSON-safe dict.

        Exports every live entry of the ``norm`` / ``aut`` / ``equiv`` /
        ``prog`` tables — the expensive, replayable state.  The
        satisfiability memos are skipped (cheap to refill, and their keys
        carry raw theory objects), and so is ``source`` (the first repeat of
        a text after a restart re-fills it with one parse).  Entries that
        fail to encode (a custom theory whose primitives do not round-trip)
        are silently omitted: a snapshot is a warmth transfer, not a backup.

        Entries are emitted in canonical (term sort-key) order, not cache
        iteration order: the codec's node pool numbers subterms in encounter
        order, and a byte-stable snapshot for a given cache *state* requires
        a deterministic encounter order regardless of access history.
        """
        from repro.utils.errors import SnapshotError

        def nf_sort_key(nf):
            return tuple(
                (test.sort_key(), action.sort_key())
                for test, action in nf.sorted_pairs()
            )

        def tagged(items):
            """``(kind, left, right, value)`` rows of a pair-keyed table."""
            for key, value in items:
                kind = "equiv"
                if key[0] == "incl":
                    kind, key = "incl", key[1]
                yield kind, key[0], key[1], value

        def encoded(rows, encode):
            out = []
            for row in rows:
                try:
                    out.append(encode(*row))
                except SnapshotError:
                    continue
            return out

        norm_entries = encoded(
            sorted(self.norm.items_snapshot(), key=lambda item: item[0].sort_key()),
            lambda term, nf: {"t": codec.encode_term(term),
                              "nf": codec.encode_normal_form(nf)})
        aut_entries = encoded(
            sorted(self.aut.items_snapshot(), key=lambda item: item[0].sort_key()),
            lambda term, automaton: {"t": codec.encode_term(term),
                                     "a": codec.encode_automaton(automaton)})
        equiv_entries = encoded(
            sorted(tagged(self.equiv.items_snapshot()),
                   key=lambda row: (row[0], nf_sort_key(row[1]), nf_sort_key(row[2]))),
            lambda kind, x, y, result: {
                "k": kind,
                "l": codec.encode_normal_form(x),
                "r": codec.encode_normal_form(y),
                "res": codec.encode_result(result),
            })
        prog_entries = [
            {"src": text}
            for text, _ in sorted(
                self.prog.items_snapshot(), key=lambda item: str(item[0]))
            if isinstance(text, str)
        ]
        return {"tables": {
            "norm": norm_entries,
            "aut": aut_entries,
            "equiv": equiv_entries,
            "prog": prog_entries,
        }}

    def stage_state(self, state, codec):
        """Decode an exported state into live objects **without installing**.

        Returns the staged ``{table: [entry objects]}`` dict consumed by
        :meth:`install_state`.  Decoding everything up front is what makes a
        rejected snapshot atomic: any malformed entry raises (wrapped into
        ``snapshot_invalid`` by the codec) before a single cache is touched.
        """
        tables = state.get("tables")
        if not isinstance(tables, dict):
            codec.invalid("snapshot session payload has no tables dict")
        staged = {"norm": [], "aut": [], "equiv": [], "prog": []}
        for entry in tables.get("norm", ()):
            staged["norm"].append(
                (codec.decode_term(entry["t"]), codec.decode_normal_form(entry["nf"]))
            )
        for entry in tables.get("aut", ()):
            staged["aut"].append(
                (codec.decode_term(entry["t"]), codec.decode_automaton(entry["a"]))
            )
        for entry in tables.get("equiv", ()):
            kind = entry["k"]
            if kind not in ("equiv", "incl"):
                codec.invalid(f"unknown equiv entry kind {kind!r}")
            staged["equiv"].append((
                kind,
                codec.decode_normal_form(entry["l"]),
                codec.decode_normal_form(entry["r"]),
                codec.decode_result(entry["res"], kind),
            ))
        for entry in tables.get("prog", ()):
            staged["prog"].append((entry["src"], codec.decode_program(entry["src"])))
        return staged

    def install_state(self, staged):
        """Install a staged state into the live tables; returns import counts.

        Values are plain ``put``s — an import counts as puts, never as
        synthetic hits/misses.
        """
        for term, nf in staged["norm"]:
            self.norm.put(term, nf)
        for term, automaton in staged["aut"]:
            self.aut.put(term, automaton)
        for kind, x, y, result in staged["equiv"]:
            key = (x, y)
            if kind == "incl":
                key = ("incl", key)
            self.equiv.put(key, result)
        for src, value in staged["prog"]:
            self.prog.put(src, value)
        return {name: len(entries) for name, entries in staged.items()}

    def import_state(self, state, codec):
        """Decode and install an exported state (atomic: stage, then install)."""
        return self.install_state(self.stage_state(state, codec))
