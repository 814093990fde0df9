"""Warm ≡ cold: a long-lived ``KMT`` answers exactly like a fresh one.

Each example builds one ``KMT`` with two-entry memo tables, so every table
evicts constantly, and replays a drawn stream through it: all ten query ops (terms from the oracle differential's
strategies, printed to source text), interleaved with ``clear_caches()``,
``terms.clear_intern_table()`` and a snapshot ``export_state`` →
``import_state`` round trip through JSON.  After every query, the warm
facade's :func:`~repro.engine.batch.execute_query` payload must equal a
fresh ``KMT``'s byte for byte as sorted JSON.  One step of every stream is a
comparison whose ``cancel`` hook raises at the k-th signature-search
decision: a cancelled search must leave nothing behind that changes a later
answer.  The fresh facade runs on its
own theory instance, so nothing but the process-wide derivative memo (a pure
function of its key) is shared.

One field is exempt, documented as depending on what the memos already
held: ``cached`` (the verdict was replayed).  ``cells_explored`` is not: a
replayed verdict carries the counters of the run that computed it, and a
fresh run compares every signature whose enabled sums differ.
"""

from __future__ import annotations

import json
import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import terms as T
from repro.core.kmt import KMT
from repro.core.pretty import pretty_pred, pretty_term
from repro.engine.batch import QUERY_OPS, execute_query
from repro.engine.cache import EngineCaches
from repro.smt import dpll
from repro.utils.errors import KmtError, NormalizationBudgetExceeded, QueryCancelled

from test_oracle_differential import BUDGET, SPECS, _terms

#: Two entries per table: every table evicts within a few queries.
TINY = dict(norm_size=2, sat_pred_size=2, equiv_size=2, aut_size=2, prog_size=2)

#: Payload fields that legitimately depend on what the memos held.
CACHE_DEPENDENT = ("cached",)

MAINTENANCE = ("clear_caches", "clear_intern_table", "snapshot_round_trip",
               "cancelled_search")


class _CancelAtDecision:
    """A ``cancel`` hook that raises at the k-th signature-search decision.

    The hook is also called from normalization, compilation and once per
    signature; only calls from the search's decision point count.
    """

    def __init__(self, k):
        self.left = k

    def __call__(self):
        caller = sys._getframe(1)
        if caller.f_globals is not vars(dpll) or caller.f_code.co_name != "search":
            return
        if self.left == 0:
            raise QueryCancelled("cancelled at a search decision")
        self.left -= 1

def _preds(tests):
    return st.recursive(
        st.sampled_from(tests),
        lambda children: st.one_of(
            children.map(T.pnot),
            st.tuples(children, children).map(lambda pair: T.pand(*pair)),
            st.tuples(children, children).map(lambda pair: T.por(*pair)),
        ),
        max_leaves=3,
    )


def _programs(tests, actions):
    """While-program source over the theory's tests and actions."""
    guard = st.sampled_from(tests).map(pretty_pred)
    action = st.sampled_from(actions).map(lambda pi: pretty_term(T.tprim(pi)))
    simple = st.one_of(action.map(lambda text: f"{text};"),
                       guard.map(lambda text: f"assume {text};"))
    return st.recursive(
        simple,
        lambda body: st.one_of(
            st.tuples(body, body).map(" ".join),
            st.tuples(guard, body, body).map(
                lambda gab: f"if ({gab[0]}) {{ {gab[1]} }} else {{ {gab[2]} }}"),
            st.tuples(guard, body).map(lambda gb: f"while ({gb[0]}) {{ {gb[1]} }}"),
        ),
        max_leaves=4,
    )


def _record(data, op, tests, actions):
    term = _terms(tests, actions).map(pretty_term)
    program = _programs(tests, actions)
    pred = _preds(tests).map(pretty_pred)
    if op in ("equiv", "leq", "inclusion"):
        fields = {"left": term, "right": term}
    elif op in ("norm", "empty"):
        fields = {"term": term}
    elif op == "member":
        word = st.lists(st.sampled_from(actions).map(lambda pi: pretty_term(T.tprim(pi))),
                        max_size=3)
        fields = {"term": term, "word": word}
    elif op == "sat":
        fields = {"pred": pred}
    elif op == "verify":
        fields = {"pre": pred, "program": program, "post": pred}
    elif op == "prog_equiv":
        fields = {"left": program, "right": program}
    else:
        fields = {"program": program}
    record = {"op": op}
    for field, strategy in fields.items():
        record[field] = data.draw(strategy, label=f"{op}.{field}")
    return record


def _answer(kmt, record, cancel=None):
    """``("ok", comparable payload)`` or ``(error class, message)``."""
    try:
        payload = execute_query(kmt, record, cancel=cancel)
    except KmtError as error:
        return type(error).__name__, str(error)
    for field in CACHE_DEPENDENT:
        payload.pop(field, None)
    return "ok", json.dumps(payload, sort_keys=True)


def _maintain(warm, step):
    if step == "clear_caches":
        warm.clear_caches()
    elif step == "clear_intern_table":
        T.clear_intern_table()
    else:
        state = json.loads(json.dumps(warm.export_state()))
        warm.clear_caches()
        warm.import_state(state)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_warm_kmt_answers_like_a_fresh_one(data):
    name = data.draw(st.sampled_from(sorted(SPECS)), label="theory")
    theory, tests, actions = SPECS[name]()
    warm = KMT(theory, budget=BUDGET, caches=EngineCaches(**TINY))
    cold_theory = SPECS[name]()[0]
    stream = data.draw(st.permutations(QUERY_OPS + MAINTENANCE), label="stream")
    for step in stream:
        cancel = None
        if step == "cancelled_search":
            step = data.draw(st.sampled_from(("equiv", "inclusion")), label="cancelled op")
            cancel = _CancelAtDecision(data.draw(st.integers(0, 3), label="k"))
        elif step in MAINTENANCE:
            _maintain(warm, step)
            continue
        record = _record(data, step, tests, actions)
        got = _answer(warm, record, cancel)
        if got[0] == QueryCancelled.__name__:
            continue
        expected = _answer(KMT(cold_theory, budget=BUDGET), record)
        if expected[0] == NormalizationBudgetExceeded.__name__ and got[0] == "ok":
            # Memo hits skip pushback steps, so a warm facade may finish a
            # query a fresh one gives up on; it must then agree with a fresh
            # facade that is allowed to finish too.
            expected = _answer(KMT(cold_theory), record)
        assert got == expected, record
