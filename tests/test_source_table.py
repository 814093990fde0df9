"""The session's ``source`` table: request text → parsed term/predicate.

A repeated request must reach the first memo without re-tokenizing or
re-parsing any of its text fields; malformed text must keep answering
``parse_error`` and never be stored.
"""

import pytest

from repro.core import parser as parser_mod
from repro.engine.batch import QUERY_OPS, run_query
from repro.engine.server import execute_record
from repro.engine.session import EngineSession, ShardedSessionPool
from repro.theories import build_theory

#: One record per query op, every text field filled in.
RECORDS = [
    {"op": "equiv", "left": "inc(x); x > 1", "right": "x > 0; inc(x)"},
    {"op": "leq", "left": "inc(x)", "right": "inc(x) + inc(y)"},
    {"op": "inclusion", "left": "inc(x); inc(x)", "right": "inc(x)*"},
    {"op": "member", "term": "(inc(x))*; x > 1", "word": ["inc(x)", "inc(x); inc(x)"]},
    {"op": "norm", "term": "(inc(x))*; x > 2"},
    {"op": "sat", "pred": "x > 3; ~(x > 5)"},
    {"op": "empty", "term": "x > 3; ~(x > 3)"},
    {"op": "verify", "pre": "x > 0", "program": "inc(x); inc(y);", "post": "x > 1"},
    {"op": "prog_equiv", "left": "inc(x);", "right": "if (x > 0) { inc(x); } else { inc(x); }"},
    {"op": "dead_code", "program": "assume x > 4; if (x < 3) { inc(x); }"},
]


@pytest.fixture
def parse_calls(monkeypatch):
    """Count calls into the core parser's two entry points."""
    calls = {"term": 0, "pred": 0}
    parse_term, parse_pred = parser_mod.parse_term, parser_mod.parse_pred

    def counting_term(text, theory):
        calls["term"] += 1
        return parse_term(text, theory)

    def counting_pred(text, theory):
        calls["pred"] += 1
        return parse_pred(text, theory)

    monkeypatch.setattr(parser_mod, "parse_term", counting_term)
    monkeypatch.setattr(parser_mod, "parse_pred", counting_pred)
    return calls


def _run_all(pool):
    return [execute_record(pool, dict(record), "incnat", index)
            for index, record in enumerate(RECORDS)]


def _without_cached_flag(response):
    # A replayed verdict is flagged ``cached``; everything else must match.
    result = dict(response["result"])
    result.pop("cached", None)
    return {**response, "result": result}


def test_repeat_pass_never_reaches_the_parser(parse_calls):
    assert sorted(record["op"] for record in RECORDS) == sorted(QUERY_OPS)
    pool = ShardedSessionPool(stripes=1)
    first = _run_all(pool)
    assert all(response["ok"] for response in first), first
    assert parse_calls["term"] > 0 and parse_calls["pred"] > 0
    parse_calls.update(term=0, pred=0)
    second = _run_all(pool)
    assert parse_calls == {"term": 0, "pred": 0}
    assert [_without_cached_flag(r) for r in second] == \
        [_without_cached_flag(r) for r in first]


@pytest.mark.parametrize("record", [
    {"op": "equiv", "left": "inc(x; x > 1", "right": "x > 0"},
    {"op": "sat", "pred": "x ? 2"},
    {"op": "member", "term": "inc(x)*", "word": ["inc(x", "inc(x)"]},
    {"op": "verify", "pre": "x >", "program": "inc(x);", "post": "x > 1"},
])
def test_parse_errors_are_never_stored(record):
    pool = ShardedSessionPool(stripes=1)
    first = execute_record(pool, dict(record), "incnat", 0)
    second = execute_record(pool, dict(record), "incnat", 0)
    assert first["error_code"] == "parse_error"
    assert "^" in first["error"]  # the caret frame
    assert second == first
    source = pool.session("incnat").caches.source
    assert source.stats_snapshot()["puts"] == 0
    assert len(source) == 0


def test_clear_caches_empties_source():
    session = EngineSession(build_theory("incnat"))
    session.parse("inc(x); x > 1")
    session.parse_pred("x > 1")
    assert len(session.caches.source) == 2
    session.clear_caches()
    assert len(session.caches.source) == 0
    misses = session.caches.source.stats.misses
    session.parse("inc(x); x > 1")
    assert session.caches.source.stats.misses == misses + 1


def test_terms_and_predicates_are_keyed_apart():
    session = EngineSession(build_theory("incnat"))
    pred = session.parse_pred("x > 1")
    term = session.parse("x > 1")
    assert pred is not term
    assert session.parse_pred("x > 1") is pred
    assert session.parse("x > 1") is term


def test_parse_phase_traced_on_miss_only():
    session = EngineSession(build_theory("incnat"))
    request = {"op": "equiv", "left": "inc(x); x > 1", "right": "x > 0; inc(x)",
               "trace": True}
    _, cold = run_query(session, request)
    assert cold["phases"]["parse"]["count"] == 2
    assert cold["cache"]["source"] == {"hits": 0, "misses": 2}
    _, warm = run_query(session, request)
    assert "parse" not in warm["phases"]
    assert warm["cache"]["source"] == {"hits": 2, "misses": 0}
