"""Unit tests for the structured tracer."""

import io
import json

import pytest

from repro.obs import NULL_TRACER, NullTracer, TimerStat, Tracer


class TestNullTracer:
    def test_everything_is_a_noop(self):
        t = NullTracer()
        assert t.enabled is False
        t.count("x")
        t.event("x", a=1)
        with t.timeit("x"):
            pass
        with t.span("x", a=1):
            pass
        t.close()

    def test_singleton_shared(self):
        assert NULL_TRACER.enabled is False

    def test_timers_share_one_noop_context(self):
        """Disabled timers allocate nothing: every call hands back the same
        context object, which stays reusable, nestable and lets
        exceptions through."""
        t = NullTracer()
        assert t.timeit("x") is NullTracer().timeit("y")
        assert t.span("x", a=1) is t.timeit("x")
        with t.timeit("outer"), t.timeit("inner"):
            pass
        with pytest.raises(KeyError):
            with t.timeit("x"):
                raise KeyError("propagates")


class TestCountersAndTimers:
    def test_counters_accumulate(self):
        t = Tracer()
        t.count("a")
        t.count("a", 4)
        t.count("b")
        assert t.counters == {"a": 5, "b": 1}

    def test_timeit_aggregates_without_output(self):
        sink = io.StringIO()
        t = Tracer(sink=sink)
        for _ in range(3):
            with t.timeit("dp"):
                pass
        stat = t.timers["dp"]
        assert stat.calls == 3
        assert stat.total_ms >= 0.0
        assert stat.mean_ms == stat.total_ms / 3
        assert sink.getvalue() == ""  # hot-path timing never writes lines

    def test_timer_records_even_on_exception(self):
        t = Tracer()
        try:
            with t.timeit("boom"):
                raise RuntimeError
        except RuntimeError:
            pass
        assert t.timers["boom"].calls == 1

    def test_summary_shape(self):
        t = Tracer()
        t.count("c", 2)
        with t.timeit("t"):
            pass
        s = t.summary()
        assert s["counters"] == {"c": 2}
        assert s["timers"]["t"]["calls"] == 1
        assert {"calls", "total_ms", "mean_ms"} <= set(s["timers"]["t"])


class TestJsonLinesOutput:
    def test_event_and_span_lines(self):
        sink = io.StringIO()
        t = Tracer(sink=sink)
        t.event("alg2.match", proposals=7)
        with t.span("hit.sweep", round=0):
            pass
        lines = [json.loads(l) for l in sink.getvalue().splitlines()]
        assert [l["ev"] for l in lines] == ["event", "span"]
        assert lines[0]["name"] == "alg2.match"
        assert lines[0]["proposals"] == 7
        assert "t_ms" in lines[0]
        assert lines[1]["name"] == "hit.sweep"
        assert lines[1]["round"] == 0
        assert lines[1]["dur_ms"] >= 0.0
        assert t.events_written == 2

    def test_no_sink_aggregates_only(self):
        t = Tracer()
        t.event("x")
        with t.span("y"):
            pass
        assert t.events_written == 0
        assert t.timers["y"].calls == 1  # span still aggregates

    def test_close_appends_summary_line(self):
        sink = io.StringIO()
        t = Tracer(sink=sink)
        t.count("n", 3)
        t.close()
        last = json.loads(sink.getvalue().splitlines()[-1])
        assert last["ev"] == "summary"
        assert last["counters"] == {"n": 3}

    def test_close_is_idempotent_on_caller_sink(self):
        sink = io.StringIO()
        t = Tracer(sink=sink)
        t.event("e")
        t.close()
        t.close()
        records = [json.loads(l) for l in sink.getvalue().splitlines()]
        assert [r["ev"] for r in records] == ["event", "summary"]
        assert not sink.closed  # caller-owned streams stay open

    def test_to_path_owns_and_closes_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        t = Tracer.to_path(str(path))
        t.event("e")
        t.close()
        records = [json.loads(l) for l in path.read_text().splitlines()]
        assert [r["ev"] for r in records] == ["event", "summary"]
        t.close()  # idempotent once the sink is gone


class TestRunReport:
    def _traced(self):
        tracer = Tracer()
        tracer.timers.setdefault("slow", TimerStat()).add(0.5)
        tracer.timers["slow"].add(0.5)
        tracer.timers.setdefault("fast", TimerStat()).add(0.001)
        tracer.timers.setdefault("tied", TimerStat()).add(0.001)
        tracer.count("events", 10)
        tracer.count("retries", 2)
        return tracer

    def test_top_timers_orders_by_total_then_name(self):
        tracer = self._traced()
        names = [name for name, _ in tracer.top_timers(3)]
        assert names == ["slow", "fast", "tied"]
        assert [n for n, _ in tracer.top_timers(1)] == ["slow"]
        with pytest.raises(ValueError):
            tracer.top_timers(0)

    def test_counter_deltas(self):
        tracer = self._traced()
        assert tracer.counter_deltas() == {"events": 10, "retries": 2}
        baseline = dict(tracer.counters)
        tracer.count("events", 5)
        tracer.count("new", 1)
        assert tracer.counter_deltas(baseline) == {"events": 5, "new": 1}

    def test_format_report_content(self):
        tracer = self._traced()
        report = tracer.format_report(top=2)
        assert "top 2 timers by cumulative time:" in report
        lines = report.splitlines()
        assert lines[1].lstrip().startswith("slow")
        assert "2 calls" in lines[1]
        assert "counters:" in report
        assert "events" in report

    def test_format_report_empty(self):
        report = Tracer().format_report()
        assert "no timers recorded" in report
        assert "no counters moved" in report

    def test_format_report_with_baseline_label(self):
        tracer = self._traced()
        baseline = dict(tracer.counters)
        tracer.count("events")
        assert "counter deltas:" in tracer.format_report(baseline=baseline)
