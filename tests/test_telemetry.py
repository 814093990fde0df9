"""Unit tests for the telemetry subsystem (:mod:`repro.engine.telemetry`).

Covers the span recorder (nesting/self-time accounting, the span cap,
activation guards), the metrics registry (snapshot shape, histogram bucket
placement, cross-worker merging), the Prometheus text renderer (line grammar,
cumulative buckets, label escaping), the JSON-lines log formatter, and the
scrape endpoint — plus edge cases of :func:`repro.engine.server.merge_pool_stats`,
the cache-table analogue of :func:`merge_metrics`.
"""

import io
import json
import logging
import re
import time
import urllib.error
import urllib.request

import pytest

from repro.engine.telemetry import (
    DEFAULT_MAX_SPANS,
    HISTOGRAM_BUCKETS_MS,
    JsonLinesFormatter,
    MetricsExporter,
    MetricsRegistry,
    Trace,
    activate,
    configure_logging,
    current_trace,
    deactivate,
    empty_snapshot,
    log_event,
    merge_metrics,
    next_request_id,
    render_prometheus,
)
from repro.engine.server import merge_pool_stats


# ---------------------------------------------------------------------------
# Trace: span recorder
# ---------------------------------------------------------------------------


class TestTrace:
    def test_single_span_records_phase_and_span(self):
        trace = Trace()
        with trace.span("compile"):
            pass
        payload = trace.payload()
        assert set(payload["phases"]) == {"compile"}
        assert payload["phases"]["compile"]["count"] == 1
        assert payload["phases"]["compile"]["ms"] >= 0.0
        (name, start_ms, duration_ms, depth), = payload["spans"]
        assert name == "compile" and depth == 0
        assert start_ms >= 0.0 and duration_ms >= 0.0

    def test_nested_child_charges_parent_self_time(self):
        trace = Trace()
        with trace.span("outer"):
            time.sleep(0.002)
            with trace.span("inner"):
                time.sleep(0.01)
        phases = trace.phase_ms
        # Inner slept ~10ms; outer's *self* time excludes it entirely.
        assert phases["inner"] >= 8.0
        assert phases["outer"] < phases["inner"]
        # The inclusive span record for outer still covers the child.
        outer_span = next(s for s in trace.spans if s[0] == "outer")
        assert outer_span[2] >= phases["inner"]
        # Self times sum to at most the inclusive outer duration.
        assert trace.attributed_ms() <= outer_span[2] + 0.5

    def test_span_depths(self):
        trace = Trace()
        with trace.span("a"):
            with trace.span("b"):
                with trace.span("c"):
                    pass
        depth = {name: depth for name, _, _, depth in trace.spans}
        assert depth == {"a": 0, "b": 1, "c": 2}

    def test_span_cap_drops_but_still_aggregates(self):
        trace = Trace(max_spans=4)
        for _ in range(10):
            with trace.span("tick"):
                pass
        payload = trace.payload()
        assert len(payload["spans"]) == 4
        assert payload["spans_dropped"] == 6
        assert payload["phases"]["tick"]["count"] == 10

    def test_default_cap(self):
        assert Trace().max_spans == DEFAULT_MAX_SPANS

    def test_counters(self):
        trace = Trace()
        trace.count("memo_hits")
        trace.count("memo_hits", 2)
        assert trace.payload()["counters"] == {"memo_hits": 3}

    def test_no_counters_key_when_unused(self):
        trace = Trace()
        with trace.span("x"):
            pass
        assert "counters" not in trace.payload()

    def test_unwind_closes_open_spans(self):
        trace = Trace()
        trace.begin("outer")
        trace.begin("inner")
        trace.unwind()
        assert trace._stack == []
        assert set(trace.phase_ms) == {"outer", "inner"}

    def test_activate_deactivate(self):
        assert current_trace() is None
        trace = Trace()
        activate(trace)
        try:
            assert current_trace() is trace
            with pytest.raises(RuntimeError):
                activate(Trace())
        finally:
            deactivate()
        assert current_trace() is None
        deactivate()  # idempotent

    def test_payload_rounding(self):
        trace = Trace()
        with trace.span("p"):
            pass
        block = trace.payload()
        text = json.dumps(block)  # must be JSON-able
        assert "p" in text


# ---------------------------------------------------------------------------
# MetricsRegistry
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_labels_and_values(self):
        reg = MetricsRegistry()
        reg.inc("requests_total", {"theory": "incnat", "op": "equiv"})
        reg.inc("requests_total", (("op", "equiv"), ("theory", "incnat")), value=2)
        reg.inc("requests_total", {"theory": "bitvec", "op": "sat"})
        snap = reg.snapshot()
        entries = snap["counters"]["requests_total"]
        by_labels = {tuple(sorted(e["labels"].items())): e["value"] for e in entries}
        # dict and pair-tuple spellings of the same label set coalesce
        assert by_labels[(("op", "equiv"), ("theory", "incnat"))] == 3
        assert by_labels[(("op", "sat"), ("theory", "bitvec"))] == 1

    def test_gauge_overwrites(self):
        reg = MetricsRegistry()
        reg.set_gauge("queue_depth", 5)
        reg.set_gauge("queue_depth", 2)
        assert reg.snapshot()["gauges"]["queue_depth"] == [{"labels": {}, "value": 2}]

    def test_histogram_bucket_placement(self):
        reg = MetricsRegistry()
        reg.observe("request_latency_ms", 3.0, {"op": "equiv"})
        (entry,) = reg.snapshot()["histograms"]["request_latency_ms"]
        assert entry["buckets_ms"] == list(HISTOGRAM_BUCKETS_MS)
        assert entry["count"] == 1 and entry["sum_ms"] == 3.0
        # 3.0 ms lands in the le=4 bucket (ladder ... 1, 2, 4, 8 ...)
        assert entry["counts"][HISTOGRAM_BUCKETS_MS.index(4.0)] == 1
        assert sum(entry["counts"]) == 1

    def test_histogram_boundary_goes_to_lower_bucket(self):
        reg = MetricsRegistry()
        reg.observe("h", 2.0)
        (entry,) = reg.snapshot()["histograms"]["h"]
        # le is an inclusive upper bound: an exact 2.0 belongs in le=2.
        assert entry["counts"][HISTOGRAM_BUCKETS_MS.index(2.0)] == 1

    def test_histogram_overflow_bucket(self):
        reg = MetricsRegistry()
        reg.observe("h", 10_000_000.0)
        (entry,) = reg.snapshot()["histograms"]["h"]
        assert entry["counts"][-1] == 1
        assert len(entry["counts"]) == len(HISTOGRAM_BUCKETS_MS) + 1

    def test_snapshot_is_plain_data(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.set_gauge("g", 1.5)
        reg.observe("h", 7.0)
        json.dumps(reg.snapshot())  # no exotic types

    def test_empty_snapshot_shape(self):
        assert empty_snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


class TestMergeMetrics:
    def _snap(self, **observations):
        reg = MetricsRegistry()
        for op, values in observations.items():
            for v in values:
                reg.inc("requests_total", {"op": op})
                reg.observe("latency_ms", v, {"op": op})
        return reg.snapshot()

    def test_merge_sums_counters_and_buckets(self):
        merged = merge_metrics([self._snap(equiv=[1.0, 3.0]), self._snap(equiv=[100.0])])
        (counter,) = merged["counters"]["requests_total"]
        assert counter["value"] == 3
        (hist,) = merged["histograms"]["latency_ms"]
        assert hist["count"] == 3 and hist["sum_ms"] == 104.0
        assert sum(hist["counts"]) == 3

    def test_merge_disjoint_names_union(self):
        merged = merge_metrics([self._snap(equiv=[1.0]), self._snap(sat=[2.0])])
        ops = {e["labels"]["op"] for e in merged["counters"]["requests_total"]}
        assert ops == {"equiv", "sat"}
        assert len(merged["histograms"]["latency_ms"]) == 2

    def test_merge_with_empty_snapshot_is_identity(self):
        one = self._snap(equiv=[5.0])
        assert merge_metrics([one, empty_snapshot()]) == merge_metrics([one])

    def test_merge_no_snapshots(self):
        assert merge_metrics([]) == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_merge_gauges_sum(self):
        a = MetricsRegistry()
        a.set_gauge("sessions", 2)
        b = MetricsRegistry()
        b.set_gauge("sessions", 3)
        merged = merge_metrics([a.snapshot(), b.snapshot()])
        assert merged["gauges"]["sessions"] == [{"labels": {}, "value": 5}]

    def test_mismatched_bucket_ladders_raise(self):
        one = self._snap(equiv=[1.0])
        other = self._snap(equiv=[1.0])
        other["histograms"]["latency_ms"][0]["buckets_ms"] = [1.0, 2.0]
        other["histograms"]["latency_ms"][0]["counts"] = [0, 1, 0]
        with pytest.raises(ValueError, match="bucket ladders differ"):
            merge_metrics([one, other])


# ---------------------------------------------------------------------------
# Prometheus exposition
# ---------------------------------------------------------------------------

_SAMPLE_LINE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? -?[0-9.+einfEINF]+$'
)


class TestRenderPrometheus:
    def _rendered(self):
        reg = MetricsRegistry()
        reg.inc("requests_total", {"theory": "incnat", "op": "equiv"}, value=4)
        reg.set_gauge("queue_depth", 2)
        for v in (0.1, 3.0, 3.5, 9000.0, 100000.0):
            reg.observe("request_latency_ms", v, {"theory": "incnat", "op": "equiv"})
        return render_prometheus(reg.snapshot())

    def test_every_line_parses(self):
        for line in self._rendered().splitlines():
            if line.startswith("#"):
                assert re.match(r"^# (HELP|TYPE) kmt_[a-z_]+ ", line), line
            else:
                assert _SAMPLE_LINE.match(line), line

    def test_type_lines(self):
        text = self._rendered()
        assert "# TYPE kmt_requests_total counter" in text
        assert "# TYPE kmt_queue_depth gauge" in text
        assert "# TYPE kmt_request_latency_ms histogram" in text

    def test_counter_and_gauge_samples(self):
        text = self._rendered()
        assert 'kmt_requests_total{op="equiv",theory="incnat"} 4' in text
        assert "kmt_queue_depth 2" in text

    def test_histogram_buckets_cumulative_and_inf(self):
        text = self._rendered()
        bucket = re.compile(
            r'kmt_request_latency_ms_bucket\{le="([^"]+)",op="equiv",theory="incnat"\} (\d+)')
        pairs = bucket.findall(text)
        assert pairs, text
        counts = [int(c) for _, c in pairs]
        assert counts == sorted(counts), "bucket counts must be cumulative"
        assert pairs[-1][0] == "+Inf"
        assert counts[-1] == 5
        # 0.1 <= 0.25; 3.0 and 3.5 <= 4; 9000 <= 16384 but > 8192 → only +Inf... no:
        # ladder tops out at 8192, so 9000 and 100000 live only in +Inf.
        by_le = {le: int(c) for le, c in pairs}
        assert by_le["0.25"] == 1
        assert by_le["4"] == 3
        assert by_le["8192"] == 3
        assert f'kmt_request_latency_ms_count{{op="equiv",theory="incnat"}} 5' in text

    def test_sum_line(self):
        assert re.search(
            r'kmt_request_latency_ms_sum\{op="equiv",theory="incnat"\} 109006\.6',
            self._rendered())

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.inc("requests_total", {"theory": 'we"ird\\th\neory'})
        text = render_prometheus(reg.snapshot())
        assert r'theory="we\"ird\\th\neory"' in text

    def test_custom_prefix(self):
        reg = MetricsRegistry()
        reg.inc("c")
        assert "acme_c 1" in render_prometheus(reg.snapshot(), prefix="acme_")

    def test_trailing_newline(self):
        assert self._rendered().endswith("\n")


class TestMetricsExporter:
    def test_scrape_roundtrip(self):
        reg = MetricsRegistry()
        reg.inc("requests_total", {"theory": "incnat"}, value=7)
        with MetricsExporter(lambda: render_prometheus(reg.snapshot())) as exporter:
            url = f"http://{exporter.host}:{exporter.port}/metrics"
            with urllib.request.urlopen(url, timeout=5) as response:
                assert response.status == 200
                assert response.headers["Content-Type"].startswith("text/plain; version=0.0.4")
                body = response.read().decode("utf-8")
        assert 'kmt_requests_total{theory="incnat"} 7' in body

    def test_live_rerender_per_scrape(self):
        reg = MetricsRegistry()
        with MetricsExporter(lambda: render_prometheus(reg.snapshot())) as exporter:
            url = f"http://{exporter.host}:{exporter.port}/metrics"
            first = urllib.request.urlopen(url, timeout=5).read().decode()
            reg.inc("requests_total")
            second = urllib.request.urlopen(url, timeout=5).read().decode()
        assert "kmt_requests_total 1" not in first
        assert "kmt_requests_total 1" in second

    def test_unknown_path_404(self):
        with MetricsExporter(lambda: "") as exporter:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"http://{exporter.host}:{exporter.port}/nope", timeout=5)
            assert excinfo.value.code == 404

    def test_render_failure_is_500_not_crash(self):
        def boom():
            raise RuntimeError("no metrics for you")

        with MetricsExporter(boom) as exporter:
            url = f"http://{exporter.host}:{exporter.port}/metrics"
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(url, timeout=5)
            assert excinfo.value.code == 500


# ---------------------------------------------------------------------------
# structured logging
# ---------------------------------------------------------------------------


class TestStructuredLogging:
    def _capture(self, level="info"):
        stream = io.StringIO()
        logger = configure_logging(level=level, stream=stream)
        return logger, stream

    def teardown_method(self):
        # Leave the hierarchy silent for other tests.
        logger = logging.getLogger("kmt")
        for handler in list(logger.handlers):
            if not isinstance(handler, logging.NullHandler):
                logger.removeHandler(handler)
                handler.close()
        logger.setLevel(logging.NOTSET)

    def test_log_event_emits_json_line(self):
        logger, stream = self._capture()
        log_event(logging.getLogger("kmt.server"), logging.INFO, "server_start",
                  backend="thread", workers=4)
        (line,) = stream.getvalue().splitlines()
        event = json.loads(line)
        assert event["event"] == "server_start"
        assert event["logger"] == "kmt.server"
        assert event["level"] == "info"
        assert event["backend"] == "thread" and event["workers"] == 4
        assert re.match(r"^\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}\.\d{3}Z$", event["ts"])

    def test_level_filtering(self):
        logger, stream = self._capture(level="warning")
        log_event(logging.getLogger("kmt.server"), logging.INFO, "quiet")
        log_event(logging.getLogger("kmt.server"), logging.WARNING, "loud")
        events = [json.loads(l)["event"] for l in stream.getvalue().splitlines()]
        assert events == ["loud"]

    def test_envelope_collision_gets_prefixed(self):
        logger, stream = self._capture()
        log_event(logging.getLogger("kmt.x"), logging.INFO, "e", ts="custom")
        event = json.loads(stream.getvalue())
        assert re.match(r"^\d{4}-", event["ts"])
        assert event["field_ts"] == "custom"

    def test_reconfigure_replaces_handler(self):
        _, first = self._capture()
        logger, second = self._capture()
        log_event(logging.getLogger("kmt.y"), logging.INFO, "once")
        assert first.getvalue() == ""
        assert len(second.getvalue().splitlines()) == 1
        non_null = [h for h in logger.handlers
                    if not isinstance(h, logging.NullHandler)]
        assert len(non_null) == 1

    def test_log_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        configure_logging(level="debug", log_file=str(path))
        log_event(logging.getLogger("kmt.z"), logging.DEBUG, "to_disk", n=1)
        event = json.loads(path.read_text().strip())
        assert event["event"] == "to_disk" and event["n"] == 1

    def test_bad_level_raises(self):
        with pytest.raises(ValueError, match="unknown log level"):
            configure_logging(level="chatty")

    def test_plain_record_degrades_gracefully(self):
        formatter = JsonLinesFormatter()
        record = logging.LogRecord("kmt.other", logging.INFO, __file__, 1,
                                   "plain %s", ("message",), None)
        event = json.loads(formatter.format(record))
        assert event["event"] == "plain message"

    def test_next_request_id_unique_and_pid_tagged(self):
        import os

        a, b = next_request_id(), next_request_id()
        assert a != b
        assert a.startswith(f"{os.getpid()}-")


# ---------------------------------------------------------------------------
# merge_pool_stats edge cases (cache-table merging across workers)
# ---------------------------------------------------------------------------


def _worker_block(theory, hits, misses, stripes=1, queries=1):
    return {
        theory: {
            "stripes": stripes,
            "queries": queries,
            "states_compiled": 0,
            "tables": {
                "norm": {"hits": hits, "misses": misses, "evictions": 0,
                         "size": misses, "capacity": 1024,
                         "hit_rate": hits / max(1, hits + misses)},
            },
            "totals": {"hits": hits, "misses": misses},
        },
    }


class TestMergePoolStats:
    def test_empty_block_list(self):
        merged = merge_pool_stats([])
        assert merged == {}

    def test_disjoint_theory_sets(self):
        merged = merge_pool_stats([
            _worker_block("incnat", hits=3, misses=1),
            _worker_block("bitvec", hits=0, misses=5),
        ])
        assert set(merged) == {"incnat", "bitvec"}
        assert merged["incnat"]["totals"] == {"hits": 3, "misses": 1}
        assert merged["bitvec"]["totals"] == {"hits": 0, "misses": 5}
        assert merged["incnat"]["tables"]["norm"]["hit_rate"] == pytest.approx(0.75)

    def test_overlapping_theories_sum(self):
        merged = merge_pool_stats([
            _worker_block("incnat", hits=3, misses=1, stripes=2, queries=10),
            _worker_block("incnat", hits=1, misses=3, stripes=2, queries=4),
        ])
        block = merged["incnat"]
        assert block["stripes"] == 4 and block["queries"] == 14
        assert block["tables"]["norm"]["hits"] == 4
        assert block["tables"]["norm"]["misses"] == 4
        assert block["tables"]["norm"]["hit_rate"] == pytest.approx(0.5)

    def test_respawned_worker_fresh_snapshot_merges_cleanly(self):
        # A crashed worker respawns with zeroed caches; its first snapshot
        # must fold in without perturbing the veterans' counts.
        veteran = _worker_block("incnat", hits=10, misses=2, queries=12)
        respawned = _worker_block("incnat", hits=0, misses=0, queries=0)
        merged = merge_pool_stats([veteran, respawned])
        block = merged["incnat"]
        assert block["totals"] == {"hits": 10, "misses": 2}
        assert block["queries"] == 12
        assert block["tables"]["norm"]["hit_rate"] == pytest.approx(10 / 12, abs=1e-3)
        for counter in block["tables"]["norm"].values():
            if isinstance(counter, (int, float)):
                assert counter >= 0

    def test_respawned_worker_missing_theory_block(self):
        # The respawned worker has not touched bitvec yet at snapshot time.
        veteran = merge_pool_stats([
            _worker_block("incnat", 1, 1),
            _worker_block("bitvec", 2, 2),
        ])
        partial = _worker_block("incnat", 1, 0)
        merged = merge_pool_stats([veteran, partial])
        assert merged["bitvec"]["totals"] == {"hits": 2, "misses": 2}
        assert merged["incnat"]["totals"] == {"hits": 2, "misses": 1}
