"""Persistent snapshot tier: warm-start caches across restarts and respawns.

Every cache the engine builds — normal forms, compiled automata,
equivalence results, compiled programs — normally dies with the process.
This module makes that warmth durable:

* :class:`SnapshotCodec` — serializes one session's cache entries to
  JSON-safe data and back.  JSON cannot carry live term objects, so keys are
  serialized *structurally*: every term/predicate node goes into a
  per-session node **pool** (children referenced by index, hash-consed
  subterms encoded exactly once) whose leaves are the theory primitives'
  concrete syntax (``str(pi)`` / ``str(alpha)`` — the same contract the
  witness-word wire serialization relies on).  Decoding rebuilds nodes
  bottom-up through the smart constructors and only runs the text parser on
  the (few, tiny) leaf strings, so importing a multi-megabyte snapshot costs
  milliseconds, not a re-parse of every cached term; the rebuilt terms are
  equal to (and, while interned, the very objects of) the live keys.
  ``CompiledAutomaton`` flat tables dump near-verbatim: the ``delta``/``back``
  ``array('i')`` buffers as base64 bytes (stamped with int width and byte
  order), the accepting bitset as hex, and the alphabet as pooled primitive
  leaves.  A decoded automaton is a plain value: it equals a freshly
  compiled one table for table, so the comparison fast path treats the two
  alike.

* :class:`SnapshotStore` — a versioned on-disk store.  Files carry a format
  magic + version and a per-session theory stamp; stale or foreign snapshots
  raise :class:`~repro.utils.errors.SnapshotError` (stable code
  ``snapshot_invalid``).  Saves are atomic (write-to-temp + ``os.replace``)
  and imports are staged before they are installed, so a bad snapshot never
  leaves a partially-loaded cache.

* :class:`CheckpointManager` — boot-time load, periodic background
  checkpoints, and a drain-safe final checkpoint, with ``snapshot_*``
  metrics counters and a ``snapshot`` stats block.

The higher layers thread this through everything:
``EngineCaches.export_state/import_state`` (:mod:`repro.engine.cache`) →
``KMT.export_state/import_state`` (:mod:`repro.core.kmt`) →
``ShardedSessionPool.export_snapshot/import_snapshot``
(:mod:`repro.engine.session`) → ``kmt serve
--snapshot PATH --checkpoint-interval SECS`` (:mod:`repro.cli`), and the
process-backend supervisor hands the latest payload to respawned workers so
a SIGKILL'd worker comes back warm.
"""

from __future__ import annotations

import base64
import json
import logging
import os
import sys
import tempfile
import threading
import time
from array import array

from repro.core import parser
from repro.core import terms as T
from repro.core.compile import CompiledAutomaton
from repro.core.decision import Counterexample, EquivalenceResult, InclusionResult
from repro.core.normalform import NormalForm
from repro.engine.telemetry import log_event
from repro.utils.errors import KmtError, SnapshotError
from repro.utils.trace import current_trace

#: Stable error code carried by every :class:`SnapshotError` this module
#: raises (mirrors the batch layer's ``ERROR_*`` constants).
ERROR_SNAPSHOT_INVALID = "snapshot_invalid"

#: File format magic; a file without it is foreign and rejected outright.
SNAPSHOT_MAGIC = "kmt-snapshot"

#: Snapshot codec version.  Bump whenever the entry encodings change shape;
#: a version-bumped file is *stale* and rejected atomically (a cold start is
#: always safe, a half-understood snapshot never is).
SNAPSHOT_VERSION = 1

_logger = logging.getLogger("kmt.persist")

#: The cache tables a snapshot persists, in install order.
SNAPSHOT_TABLES = ("norm", "aut", "equiv", "prog")


def _invalid(message):
    raise SnapshotError(message, code=ERROR_SNAPSHOT_INVALID)


class SnapshotCodec:
    """Serialize one session's cache entries to JSON-safe values and back.

    Built around one session's theory: decoding reconstructs primitive
    actions/tests (and While programs) through the theory's concrete
    syntax.  Encoding failures raise :class:`SnapshotError`; the export path
    treats them as "skip this entry" (a snapshot is best-effort warmth
    transfer), while the import path treats any decode failure as fatal for
    the whole snapshot (atomic rejection, no partial load).
    """

    def __init__(self, theory):
        self.theory = theory
        #: Encoder side: the node pool this codec is writing (attached to the
        #: session state as ``"pool"``) and the live-node → index memo.
        self.pool = []
        self._enc_index = {}
        #: Decoder side: the materialized pool (set by :meth:`load_pool`).
        self._nodes = None

    def invalid(self, message):
        _invalid(message)

    # -- the node pool ---------------------------------------------------
    # Terms and predicates serialize as indices into a per-session pool of
    # ``[tag, ...]`` nodes in bottom-up (children-first) order.  Hash-consing
    # means shared subterms are one pool entry no matter how many cache
    # entries reference them, and decoding is a single linear pass through
    # the smart constructors — no text parsing except at primitive leaves.
    @staticmethod
    def _node_children(node):
        if isinstance(node, (T.TSeq, T.TPlus, T.PAnd, T.POr)):
            return (node.left, node.right)
        if isinstance(node, T.TStar):
            return (node.arg,)
        if isinstance(node, T.TTest):
            return (node.pred,)
        if isinstance(node, T.PNot):
            return (node.arg,)
        return ()

    def _encode_one(self, node, child_refs):
        if isinstance(node, T.TPrim):
            try:
                return ["P", str(node.pi)]
            except Exception as error:
                _invalid(f"primitive action failed to serialize: {error}")
        if isinstance(node, T.PPrim):
            try:
                return ["A", str(node.alpha)]
            except Exception as error:
                _invalid(f"primitive test failed to serialize: {error}")
        if isinstance(node, T.TSeq):
            return [";", child_refs[0], child_refs[1]]
        if isinstance(node, T.TPlus):
            return ["+", child_refs[0], child_refs[1]]
        if isinstance(node, T.TStar):
            return ["*", child_refs[0]]
        if isinstance(node, T.TTest):
            return ["?", child_refs[0]]
        if isinstance(node, T.PAnd):
            return ["&", child_refs[0], child_refs[1]]
        if isinstance(node, T.POr):
            return ["|", child_refs[0], child_refs[1]]
        if isinstance(node, T.PNot):
            return ["!", child_refs[0]]
        if isinstance(node, T.PZero):
            return ["p0"]
        if isinstance(node, T.POne):
            return ["p1"]
        _invalid(f"snapshot cannot encode node type {type(node).__name__}")

    def _encode_node(self, root):
        """Pool index of ``root``, appending any missing subterms (iterative —
        cached normal forms nest far deeper than the recursion limit)."""
        index = self._enc_index
        pool = self.pool
        stack = [root]
        while stack:
            node = stack[-1]
            if node in index:
                stack.pop()
                continue
            children = self._node_children(node)
            pending = [child for child in children if child not in index]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            pool.append(self._encode_one(node, [index[child] for child in children]))
            index[node] = len(pool) - 1
        return index[root]

    def load_pool(self, data):
        """Materialize a payload's node pool (decoder side, strict).

        Every malformed node — unknown tag, wrong arity, forward/out-of-range
        child reference, a leaf the theory cannot re-parse — rejects the
        whole snapshot.
        """
        if data is None:
            data = []
        if not isinstance(data, list):
            _invalid(f"snapshot node pool must be a list, got {type(data).__name__}")
        nodes = []
        term_leaves = {}
        pred_leaves = {}

        def child(item, position, want, label):
            ref = item[position]
            if not isinstance(ref, int) or isinstance(ref, bool):
                _invalid(f"snapshot node child reference must be an int, got {ref!r}")
            if not 0 <= ref < len(nodes):
                _invalid(f"snapshot node references {ref} before it is defined")
            node = nodes[ref]
            if not isinstance(node, want):
                _invalid(f"snapshot node {item[0]!r} expects a {label} operand")
            return node

        arities = {"P": 2, "A": 2, ";": 3, "+": 3, "*": 2, "?": 2,
                   "&": 3, "|": 3, "!": 2, "p0": 1, "p1": 1}
        for item in data:
            if not isinstance(item, list) or not item or not isinstance(item[0], str):
                _invalid(f"snapshot pool node malformed: {item!r}")
            tag = item[0]
            if arities.get(tag) != len(item):
                _invalid(f"snapshot pool node has wrong shape: {item!r}")
            if tag == "P":
                node = self._parse_leaf_term(item[1], term_leaves)
            elif tag == "A":
                node = self._parse_leaf_pred(item[1], pred_leaves)
            elif tag == ";":
                node = T.tseq(child(item, 1, T.Term, "term"),
                              child(item, 2, T.Term, "term"))
            elif tag == "+":
                node = T.tplus(child(item, 1, T.Term, "term"),
                               child(item, 2, T.Term, "term"))
            elif tag == "*":
                node = T.tstar(child(item, 1, T.Term, "term"))
            elif tag == "?":
                node = T.ttest(child(item, 1, T.Pred, "predicate"))
            elif tag == "&":
                node = T.pand(child(item, 1, T.Pred, "predicate"),
                              child(item, 2, T.Pred, "predicate"))
            elif tag == "|":
                node = T.por(child(item, 1, T.Pred, "predicate"),
                             child(item, 2, T.Pred, "predicate"))
            elif tag == "!":
                node = T.pnot(child(item, 1, T.Pred, "predicate"))
            elif tag == "p0":
                node = T.pzero()
            else:  # "p1"
                node = T.pone()
            nodes.append(node)
        self._nodes = nodes
        return len(nodes)

    # Leaves go through the parser module, not the session's memoized
    # ``parse``: staging must not write into the session's ``source`` table,
    # or a snapshot rejected after staging would still have touched a cache.
    def _parse_leaf_term(self, src, memo):
        if not isinstance(src, str):
            _invalid(f"snapshot primitive action source must be a string, got {src!r}")
        node = memo.get(src)
        if node is None:
            try:
                node = parser.parse_term(src, self.theory)
            except KmtError as error:
                _invalid(f"snapshot primitive action {src!r} failed to re-parse: {error}")
            if not isinstance(node, T.TPrim):
                _invalid(f"snapshot leaf {src!r} is not a primitive action")
            memo[src] = node
        return node

    def _parse_leaf_pred(self, src, memo):
        if not isinstance(src, str):
            _invalid(f"snapshot primitive test source must be a string, got {src!r}")
        node = memo.get(src)
        if node is None:
            try:
                node = parser.parse_pred(src, self.theory)
            except KmtError as error:
                _invalid(f"snapshot primitive test {src!r} failed to re-parse: {error}")
            if not isinstance(node, T.PPrim):
                _invalid(f"snapshot leaf {src!r} is not a primitive test")
            memo[src] = node
        return node

    def _ref(self, ref, want, label):
        if self._nodes is None:
            _invalid("snapshot session payload has no node pool")
        if not isinstance(ref, int) or isinstance(ref, bool):
            _invalid(f"snapshot {label} reference must be an int, got {ref!r}")
        if not 0 <= ref < len(self._nodes):
            _invalid(f"snapshot {label} reference {ref} out of pool range")
        node = self._nodes[ref]
        if not isinstance(node, want):
            _invalid(f"snapshot {label} reference {ref} is a {type(node).__name__}")
        return node

    # -- terms and predicates -------------------------------------------
    def encode_term(self, term):
        if not isinstance(term, T.Term):
            _invalid(f"snapshot cannot encode {term!r} as a term")
        return self._encode_node(term)

    def decode_term(self, ref):
        return self._ref(ref, T.Term, "term")

    def encode_pred(self, pred):
        if not isinstance(pred, T.Pred):
            _invalid(f"snapshot cannot encode {pred!r} as a predicate")
        return self._encode_node(pred)

    def decode_pred(self, ref):
        return self._ref(ref, T.Pred, "predicate")

    # -- theory primitives ----------------------------------------------
    def encode_pi(self, pi):
        return self._encode_node(T.tprim(pi))

    def decode_pi(self, ref):
        return self._ref(ref, T.TPrim, "primitive action").pi

    def encode_alpha(self, alpha):
        return self._encode_node(T.pprim(alpha))

    def decode_alpha(self, ref):
        return self._ref(ref, T.PPrim, "primitive test").alpha

    def encode_word(self, word):
        if word is None:
            return None
        return [self.encode_pi(pi) for pi in word]

    def decode_word(self, data):
        if data is None:
            return None
        if not isinstance(data, list):
            _invalid(f"snapshot word must be a list of symbols, got {data!r}")
        return tuple(self.decode_pi(src) for src in data)

    # -- normal forms ----------------------------------------------------
    def encode_normal_form(self, nf):
        return [
            [self.encode_pred(test), self.encode_term(action)]
            for test, action in nf.sorted_pairs()
        ]

    def decode_normal_form(self, data):
        if not isinstance(data, list):
            _invalid(f"snapshot normal form must be a list of pairs, got {data!r}")
        pairs = []
        for item in data:
            if not isinstance(item, list) or len(item) != 2:
                _invalid(f"snapshot normal-form pair malformed: {item!r}")
            pairs.append((self.decode_pred(item[0]), self.decode_term(item[1])))
        try:
            return NormalForm(pairs)
        except KmtError as error:
            _invalid(f"snapshot normal form failed validation: {error}")

    # -- compiled automata -----------------------------------------------
    def encode_automaton(self, automaton):
        return {
            "sigma": [self.encode_pi(pi) for pi in automaton.sigma],
            "n": automaton.n_states,
            "raw": automaton.raw_states,
            "acc": format(automaton.accepting, "x"),
            "delta": base64.b64encode(automaton.delta.tobytes()).decode("ascii"),
            "back": base64.b64encode(automaton.back.tobytes()).decode("ascii"),
            "item": automaton.delta.itemsize,
            "bo": sys.byteorder,
        }

    def decode_automaton(self, data):
        if not isinstance(data, dict):
            _invalid(f"snapshot automaton must be a dict, got {data!r}")
        try:
            sigma = tuple(self.decode_pi(src) for src in data["sigma"])
            n_states = int(data["n"])
            raw_states = int(data["raw"])
            accepting = int(data["acc"], 16)
            delta = array("i")
            delta.frombytes(base64.b64decode(data["delta"], validate=True))
            back = array("i")
            back.frombytes(base64.b64decode(data["back"], validate=True))
            item = int(data["item"])
            byteorder = data["bo"]
        except SnapshotError:
            raise
        except Exception as error:
            _invalid(f"snapshot automaton failed to decode: {error}")
        if item != delta.itemsize:
            _invalid(
                f"snapshot automaton int width {item} does not match this "
                f"platform's {delta.itemsize} (foreign snapshot)"
            )
        if byteorder not in ("little", "big"):
            _invalid(f"snapshot automaton byte order {byteorder!r} unknown")
        if byteorder != sys.byteorder:
            delta.byteswap()
            back.byteswap()
        try:
            automaton = CompiledAutomaton(
                sigma, delta, accepting, back, raw_states, n_states=n_states
            )
        except KmtError as error:
            _invalid(f"snapshot automaton tables inconsistent: {error}")
        self._check_automaton(automaton)
        return automaton

    @staticmethod
    def _check_automaton(automaton):
        """Structural validation beyond table lengths (corruption guard)."""
        n = automaton.n_states
        nsym = len(automaton.sigma)
        for target in automaton.delta:
            if not (-1 <= target < n):
                _invalid(f"snapshot automaton transition target {target} out of range")
        for state in range(n):
            pred = automaton.back[2 * state]
            sym = automaton.back[2 * state + 1]
            if not (-1 <= pred < n) or not (-1 <= sym < nsym):
                _invalid(
                    f"snapshot automaton back-pointer ({pred}, {sym}) out of range"
                )
        if automaton.accepting < 0 or (n >= 0 and automaton.accepting >> max(n, 0) != 0):
            _invalid("snapshot automaton accepting bitset has bits beyond its states")

    # -- decision results -------------------------------------------------
    def encode_counterexample(self, counterexample):
        if counterexample is None:
            return None
        return {
            "cell": [
                [self.encode_alpha(alpha), bool(value)]
                for alpha, value in counterexample.cell
            ],
            "l": self.encode_term(counterexample.left_actions),
            "r": self.encode_term(counterexample.right_actions),
            "w": self.encode_word(counterexample.word),
        }

    def decode_counterexample(self, data):
        if data is None:
            return None
        if not isinstance(data, dict):
            _invalid(f"snapshot counterexample must be a dict, got {data!r}")
        try:
            cell_data = data["cell"]
            left = data["l"]
            right = data["r"]
            word = data["w"]
        except KeyError as error:
            _invalid(f"snapshot counterexample missing field: {error}")
        if not isinstance(cell_data, list):
            _invalid(f"snapshot counterexample cell malformed: {cell_data!r}")
        cell = []
        for item in cell_data:
            if not isinstance(item, list) or len(item) != 2:
                _invalid(f"snapshot cell literal malformed: {item!r}")
            cell.append((self.decode_alpha(item[0]), bool(item[1])))
        return Counterexample(
            cell=cell,
            left_actions=self.decode_term(left),
            right_actions=self.decode_term(right),
            word=self.decode_word(word),
        )

    def encode_result(self, result):
        if isinstance(result, EquivalenceResult):
            verdict = result.equivalent
        elif isinstance(result, InclusionResult):
            verdict = result.includes
        else:
            _invalid(f"snapshot cannot encode result type {type(result).__name__}")
        return {
            "ok": bool(verdict),
            "ce": self.encode_counterexample(result.counterexample),
            "cells": result.cells_explored,
            "pruned": result.cells_pruned,
            "sigs": result.signatures_explored,
        }

    def decode_result(self, data, kind):
        if not isinstance(data, dict):
            _invalid(f"snapshot result must be a dict, got {data!r}")
        counterexample = self.decode_counterexample(data.get("ce"))
        kwargs = {
            "counterexample": counterexample,
            "cells_explored": int(data.get("cells", 0)),
            "cells_pruned": int(data.get("pruned", 0)),
            "signatures_explored": int(data.get("sigs", 0)),
        }
        if kind == "incl":
            return InclusionResult(includes=bool(data["ok"]), **kwargs)
        return EquivalenceResult(equivalent=bool(data["ok"]), **kwargs)

    # -- programs ---------------------------------------------------------
    def decode_program(self, src):
        """Re-parse + re-compile a While program (the ``prog`` cache value)."""
        from repro.lang.while_lang import parse_program

        if not isinstance(src, str):
            _invalid(f"snapshot program source must be a string, got {src!r}")
        try:
            program = parse_program(src, self.theory)
            return (program, program.compile())
        except KmtError as error:
            _invalid(f"snapshot program failed to re-compile: {error}")


# ----------------------------------------------------------------------
# session-level export / import
# ----------------------------------------------------------------------
def export_session_state(session):
    """One session's persistable cache state, stamped with its theory.

    Entries that fail to encode (e.g. a custom theory whose primitives do
    not round-trip through the parser) are skipped individually — export is
    best-effort warmth transfer, never a failure mode for a running server.
    """
    codec = SnapshotCodec(session.theory)
    trace = current_trace()
    if trace is None:
        state = session.caches.export_state(codec)
    else:
        with trace.span("snapshot_save"):
            state = session.caches.export_state(codec)
    # The export path emits entries in canonical (sort-key) order, so the
    # pool's encounter order — and with it the whole file — is byte-stable
    # for a given cache state, independent of access history.
    state["pool"] = codec.pool
    state["theory"] = session.theory.describe()
    return state


def stage_session_state(session, state):
    """Decode one session's payload against its live theory (no install).

    Raises :class:`SnapshotError` on a theory-stamp mismatch or any decode
    failure; on success returns the staged entries for
    ``EngineCaches.install_state``.
    """
    if not isinstance(state, dict):
        _invalid(f"snapshot session payload must be a dict, got {type(state).__name__}")
    stamp = state.get("theory")
    live = session.theory.describe()
    if stamp != live:
        _invalid(
            f"snapshot theory stamp {stamp!r} does not match the live theory "
            f"{live!r} (foreign or stale snapshot)"
        )
    codec = SnapshotCodec(session.theory)
    try:
        codec.load_pool(state.get("pool"))
        return session.caches.stage_state(state, codec)
    except SnapshotError:
        raise
    except Exception as error:
        _invalid(f"snapshot session payload failed to decode: {error}")


def import_session_state(session, state):
    """Stage and install one session's payload; returns per-table counts."""
    trace = current_trace()
    if trace is None:
        staged = stage_session_state(session, state)
    else:
        with trace.span("snapshot_load"):
            staged = stage_session_state(session, state)
    return session.caches.install_state(staged)


# ----------------------------------------------------------------------
# whole-payload envelope
# ----------------------------------------------------------------------
def make_payload(sessions):
    """Wrap per-theory session states in the versioned snapshot envelope."""
    return {
        "format": SNAPSHOT_MAGIC,
        "version": SNAPSHOT_VERSION,
        "sessions": dict(sessions),
    }


def check_payload(payload):
    """Validate the envelope; returns the ``{theory: state}`` sessions dict."""
    if not isinstance(payload, dict):
        _invalid(f"snapshot payload must be a dict, got {type(payload).__name__}")
    magic = payload.get("format")
    if magic != SNAPSHOT_MAGIC:
        _invalid(f"not a kmt snapshot (format {magic!r})")
    version = payload.get("version")
    if version != SNAPSHOT_VERSION:
        _invalid(
            f"snapshot version {version!r} is not the supported "
            f"version {SNAPSHOT_VERSION} (stale snapshot)"
        )
    sessions = payload.get("sessions")
    if not isinstance(sessions, dict):
        _invalid("snapshot payload has no sessions dict")
    return sessions


def count_payload_entries(payload):
    """Total table entries across every session of a payload (for stats)."""
    total = 0
    for state in payload.get("sessions", {}).values():
        tables = state.get("tables", {}) if isinstance(state, dict) else {}
        for entries in tables.values():
            total += len(entries)
    return total


def _entry_dedup_key(table, entry):
    if table in ("norm", "aut"):
        return entry.get("t")
    if table == "equiv":
        return (
            entry.get("k"),
            json.dumps(entry.get("l"), sort_keys=True),
            json.dumps(entry.get("r"), sort_keys=True),
        )
    return entry.get("src")


class _PoolMerger:
    """Hash-cons several contributors' node pools into one merged pool.

    Works purely on the serialized form (no theory needed — the supervisor
    process merging worker payloads has no sessions): a node's identity is
    its tag plus its *merged* child indices, so structurally equal subterms
    from different contributors collapse onto one merged entry and entry
    references become comparable across contributors.
    """

    def __init__(self):
        self.pool = []
        self._index = {}

    def add_pool(self, pool_data):
        """Map one contributor pool in; returns its index → merged-index list."""
        if pool_data is None:
            pool_data = []
        if not isinstance(pool_data, list):
            _invalid(f"snapshot node pool must be a list, got {type(pool_data).__name__}")
        mapping = []
        for item in pool_data:
            if not isinstance(item, list) or not item or not isinstance(item[0], str):
                _invalid(f"snapshot pool node malformed: {item!r}")
            tag = item[0]
            if tag in ("P", "A"):
                if len(item) != 2 or not isinstance(item[1], str):
                    _invalid(f"snapshot pool node has wrong shape: {item!r}")
                key = (tag, item[1])
            elif tag in ("p0", "p1"):
                if len(item) != 1:
                    _invalid(f"snapshot pool node has wrong shape: {item!r}")
                key = (tag,)
            elif tag in (";", "+", "&", "|"):
                if len(item) != 3:
                    _invalid(f"snapshot pool node has wrong shape: {item!r}")
                key = (tag, self._child(mapping, item[1]), self._child(mapping, item[2]))
            elif tag in ("*", "?", "!"):
                if len(item) != 2:
                    _invalid(f"snapshot pool node has wrong shape: {item!r}")
                key = (tag, self._child(mapping, item[1]))
            else:
                _invalid(f"snapshot pool node tag {tag!r} unknown")
            merged = self._index.get(key)
            if merged is None:
                self.pool.append(list(key))
                merged = len(self.pool) - 1
                self._index[key] = merged
            mapping.append(merged)
        return mapping

    @staticmethod
    def _child(mapping, ref):
        if not isinstance(ref, int) or isinstance(ref, bool) or not 0 <= ref < len(mapping):
            _invalid(f"snapshot pool child reference {ref!r} invalid")
        return mapping[ref]


def _remap_entry(table, entry, mapping):
    """One entry with every pool reference rewritten through ``mapping``."""
    if not isinstance(entry, dict):
        _invalid(f"snapshot entry must be a dict, got {entry!r}")

    def ref(value):
        return _PoolMerger._child(mapping, value)

    def word(data):
        if data is None:
            return None
        if not isinstance(data, list):
            _invalid(f"snapshot word must be a list, got {data!r}")
        return [ref(value) for value in data]

    def normal_form(data):
        if not isinstance(data, list):
            _invalid(f"snapshot normal form must be a list, got {data!r}")
        pairs = []
        for pair in data:
            if not isinstance(pair, list) or len(pair) != 2:
                _invalid(f"snapshot normal-form pair malformed: {pair!r}")
            pairs.append([ref(pair[0]), ref(pair[1])])
        return pairs

    entry = dict(entry)
    if table == "norm":
        entry["t"] = ref(entry.get("t"))
        entry["nf"] = normal_form(entry.get("nf"))
    elif table == "aut":
        entry["t"] = ref(entry.get("t"))
        automaton = entry.get("a")
        if not isinstance(automaton, dict) or not isinstance(automaton.get("sigma"), list):
            _invalid(f"snapshot automaton malformed: {automaton!r}")
        automaton = dict(automaton)
        automaton["sigma"] = [ref(value) for value in automaton["sigma"]]
        entry["a"] = automaton
    elif table == "equiv":
        entry["l"] = normal_form(entry.get("l"))
        entry["r"] = normal_form(entry.get("r"))
        result = entry.get("res")
        if not isinstance(result, dict):
            _invalid(f"snapshot result must be a dict, got {result!r}")
        result = dict(result)
        counterexample = result.get("ce")
        if counterexample is not None:
            if not isinstance(counterexample, dict):
                _invalid(f"snapshot counterexample malformed: {counterexample!r}")
            counterexample = dict(counterexample)
            cell = counterexample.get("cell")
            if not isinstance(cell, list):
                _invalid(f"snapshot counterexample cell malformed: {cell!r}")
            remapped_cell = []
            for literal in cell:
                if not isinstance(literal, list) or len(literal) != 2:
                    _invalid(f"snapshot cell literal malformed: {literal!r}")
                remapped_cell.append([ref(literal[0]), bool(literal[1])])
            counterexample["cell"] = remapped_cell
            counterexample["l"] = ref(counterexample.get("l"))
            counterexample["r"] = ref(counterexample.get("r"))
            counterexample["w"] = word(counterexample.get("w"))
            result["ce"] = counterexample
        entry["res"] = result
    return entry


def merge_payloads(payloads):
    """Merge several snapshot payloads into one (first entry per key wins).

    Used by the sharded pool (one payload per stripe) and the process
    backend (one payload per worker): stripes serve disjoint key ranges but
    share theories, so their exports overlap heavily.  Each contributor's
    node pool is hash-consed into the merged session pool and its entry
    references remapped, making entries comparable (and dedupable) across
    contributors.  A contributor session that fails to merge — malformed
    pool, mismatched theory stamp — is skipped, not fatal: merging runs on
    the checkpoint path, which must degrade, never crash serving.
    """
    sessions = {}
    seen = {}
    mergers = {}
    for payload in payloads:
        for name, state in check_payload(payload).items():
            if not isinstance(state, dict):
                continue
            into = sessions.get(name)
            if into is None:
                into = sessions[name] = {
                    "theory": state.get("theory"),
                    "tables": {table: [] for table in SNAPSHOT_TABLES},
                }
                seen[name] = {table: set() for table in SNAPSHOT_TABLES}
                mergers[name] = _PoolMerger()
            elif into["theory"] != state.get("theory"):
                # Theory stamps must agree across contributors; a mismatch
                # means one side is stale — drop its entries, keep the first.
                continue
            try:
                mapping = mergers[name].add_pool(state.get("pool"))
                for table in SNAPSHOT_TABLES:
                    for entry in state.get("tables", {}).get(table, ()):
                        remapped = (
                            entry if table == "prog"
                            else _remap_entry(table, entry, mapping)
                        )
                        key = _entry_dedup_key(table, remapped)
                        if key in seen[name][table]:
                            continue
                        seen[name][table].add(key)
                        into["tables"][table].append(remapped)
            except SnapshotError as error:
                log_event(_logger, logging.WARNING, "snapshot_merge_skipped",
                          theory=str(name), error=str(error))
                continue
    for name, into in sessions.items():
        into["pool"] = mergers[name].pool
    return make_payload(sessions)


# ----------------------------------------------------------------------
# on-disk store
# ----------------------------------------------------------------------
class SnapshotStore:
    """A versioned snapshot file with atomic saves and strict loads.

    ``save`` writes to a temp file in the target directory and
    ``os.replace``s it into place, so readers only ever see a complete file
    (a crash mid-write leaves the previous snapshot intact).  ``load``
    rejects truncated, corrupted, foreign, or version-bumped files with
    :class:`SnapshotError` (code ``snapshot_invalid``).
    """

    def __init__(self, path):
        self.path = os.path.abspath(os.fspath(path))

    def exists(self):
        return os.path.exists(self.path)

    def load(self):
        """Read and envelope-validate the snapshot payload."""
        try:
            with open(self.path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            _invalid(f"snapshot file {self.path} does not exist")
        except OSError as error:
            _invalid(f"snapshot file {self.path} unreadable: {error}")
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as error:
            _invalid(
                f"snapshot file {self.path} is truncated or corrupted: {error}"
            )
        check_payload(payload)
        return payload

    def save(self, payload):
        """Atomically write a payload; returns the byte size written."""
        check_payload(payload)  # never persist an envelope a load would reject
        data = json.dumps(payload, sort_keys=True).encode("utf-8")
        directory = os.path.dirname(self.path) or "."
        fd, tmp_path = tempfile.mkstemp(
            dir=directory, prefix=os.path.basename(self.path) + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, self.path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        return len(data)


# ----------------------------------------------------------------------
# checkpointing
# ----------------------------------------------------------------------
class CheckpointManager:
    """Boot load + periodic checkpoints + drain-safe final save for a server.

    ``exporter`` returns the current snapshot payload (e.g.
    ``server.export_snapshot``); ``importer`` applies one (e.g.
    ``server.import_snapshot``).  ``interval`` seconds between background
    checkpoints (``None``/``0`` disables the thread; :meth:`close` still
    writes the final checkpoint).  ``metrics`` is an optional
    :class:`~repro.engine.telemetry.MetricsRegistry` receiving the
    ``snapshot_*`` counters.
    """

    def __init__(self, store, exporter, importer=None, interval=None, metrics=None):
        self.store = store
        self.exporter = exporter
        self.importer = importer
        self.interval = interval if interval and interval > 0 else None
        self.metrics = metrics
        self._stop = threading.Event()
        self._thread = None
        self._save_lock = threading.Lock()
        self._closed = False
        # counters surfaced via stats()
        self.loads = 0
        self.load_errors = 0
        self.saves = 0
        self.save_errors = 0
        self.last_save_unix = None
        self.last_save_ms = None
        self.last_save_bytes = None
        self.last_save_entries = None
        self.loaded_entries = None

    # -- boot ------------------------------------------------------------
    def load(self):
        """Warm-start from the store if a valid snapshot exists.

        A missing file is a normal cold start (returns ``None``); an invalid
        one is logged and counted but also leaves the server cold — refusing
        to serve because last week's snapshot went stale would be backwards.
        """
        if self.importer is None or not self.store.exists():
            return None
        try:
            payload = self.store.load()
            counts = self.importer(payload)
        except SnapshotError as error:
            self.load_errors += 1
            if self.metrics is not None:
                self.metrics.inc("snapshot_load_errors")
            log_event(
                _logger, logging.WARNING, "snapshot_load_failed",
                path=self.store.path, error=str(error), error_code=error.code,
            )
            return None
        self.loads += 1
        self.loaded_entries = count_payload_entries(payload)
        if self.metrics is not None:
            self.metrics.inc("snapshot_loads")
        log_event(
            _logger, logging.INFO, "snapshot_loaded",
            path=self.store.path, entries=self.loaded_entries,
        )
        return counts

    # -- checkpointing ---------------------------------------------------
    def checkpoint(self):
        """Export and atomically persist one snapshot; returns byte size."""
        with self._save_lock:
            started = time.perf_counter()
            payload = self.exporter()
            nbytes = self.store.save(payload)
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            self.saves += 1
            self.last_save_unix = time.time()
            self.last_save_ms = round(elapsed_ms, 3)
            self.last_save_bytes = nbytes
            self.last_save_entries = count_payload_entries(payload)
            if self.metrics is not None:
                self.metrics.inc("snapshot_saves")
                self.metrics.observe("snapshot_save_ms", elapsed_ms)
            log_event(
                _logger, logging.INFO, "snapshot_saved",
                path=self.store.path, bytes=nbytes,
                entries=self.last_save_entries, elapsed_ms=self.last_save_ms,
            )
            return nbytes

    def _checkpoint_guarded(self):
        try:
            self.checkpoint()
        except Exception as error:  # noqa: BLE001 — checkpointing must not kill serving
            self.save_errors += 1
            if self.metrics is not None:
                self.metrics.inc("snapshot_save_errors")
            log_event(
                _logger, logging.WARNING, "snapshot_save_failed",
                path=self.store.path, error=str(error),
            )

    def start(self):
        """Start the background checkpoint thread (no-op without an interval)."""
        if self.interval is None or self._thread is not None:
            return
        def run():
            while not self._stop.wait(self.interval):
                self._checkpoint_guarded()
        self._thread = threading.Thread(
            target=run, name="kmt-snapshot-checkpoint", daemon=True
        )
        self._thread.start()

    def close(self, final=True):
        """Stop the checkpoint thread and write the final checkpoint.

        Call after the server drained (queues empty, workers idle) and
        before the backend shuts down — the export path still needs live
        workers to collect their tables.
        """
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None
        if final:
            self._checkpoint_guarded()

    def stats(self):
        """The ``snapshot`` block surfaced in ``stats`` responses."""
        return {
            "path": self.store.path,
            "checkpoint_interval": self.interval,
            "loads": self.loads,
            "load_errors": self.load_errors,
            "loaded_entries": self.loaded_entries,
            "saves": self.saves,
            "save_errors": self.save_errors,
            "last_save_unix": self.last_save_unix,
            "last_save_ms": self.last_save_ms,
            "last_save_bytes": self.last_save_bytes,
            "last_save_entries": self.last_save_entries,
        }
