"""Lightweight structured tracing: counters, timers, JSON-lines spans.

Two tracer flavours share one interface:

* :class:`NullTracer` — the default; every operation is a no-op and the
  singleton :data:`NULL_TRACER` is what instrumented code sees when tracing
  is off.  Hot paths call it unconditionally (see :mod:`repro.obs.runtime`):
  a disabled hook costs one method call, and its timers hand back one shared
  no-op context object, so no generator is created.
* :class:`Tracer` — accumulates named counters and aggregate timers
  in-process and, when given a sink, emits one JSON object per line
  (``{"ev": ..., "name": ..., ...}``) through a
  :class:`~repro.obs.sink.JsonlSink` for offline analysis.

Two timing APIs with different granularity:

* :meth:`Tracer.timeit` — aggregate-only context manager for hot paths
  (e.g. every Algorithm 1 DP call); records ``calls``/``total_ms`` but never
  writes a line per call.
* :meth:`Tracer.span` — coarse phases (a Hit optimisation sweep, a whole
  simulation run); aggregates *and* writes a ``span`` line with duration and
  caller-supplied attributes.

The JSONL schema is documented in ``docs/observability.md``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import IO, Any, Iterator

from .sink import JsonlSink

__all__ = ["NullTracer", "NULL_TRACER", "Tracer", "TimerStat"]


class NullTracer:
    """Do-nothing tracer; the disabled default."""

    enabled = False

    def count(self, name: str, n: int = 1) -> None:
        pass

    def event(self, name: str, **attrs: Any) -> None:
        pass

    def timeit(self, name: str) -> nullcontext:
        return _NO_OP

    def span(self, name: str, **attrs: Any) -> nullcontext:
        return _NO_OP

    def close(self) -> None:
        pass


#: The one context object every disabled timer returns (reusable, reentrant).
_NO_OP = nullcontext()

#: Shared no-op instance — instrumented modules read this when tracing is off.
NULL_TRACER = NullTracer()


class TimerStat:
    """Aggregate of one named timer: call count and total elapsed time."""

    __slots__ = ("calls", "total_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0

    def add(self, elapsed_s: float) -> None:
        self.calls += 1
        self.total_s += elapsed_s

    @property
    def total_ms(self) -> float:
        return self.total_s * 1e3

    @property
    def mean_ms(self) -> float:
        return self.total_ms / self.calls if self.calls else 0.0


class Tracer:
    """Counter/timer aggregation plus optional JSON-lines event output.

    ``sink`` is a file path or a text stream, wrapped in a
    :class:`~repro.obs.sink.JsonlSink`; pass ``None`` to aggregate only
    (counters and timers still accumulate, nothing is written).  A file
    the tracer opened is closed by :meth:`close`; a caller-supplied stream
    is flushed but left open.
    """

    enabled = True

    def __init__(self, sink: str | Path | IO[str] | None = None) -> None:
        self.counters: dict[str, int] = {}
        self.timers: dict[str, TimerStat] = {}
        self._sink = None if sink is None else JsonlSink(sink)
        self._t0 = time.perf_counter()

    @classmethod
    def to_path(cls, path: str | Path) -> "Tracer":
        """Tracer writing JSON lines to ``path`` (truncates an existing file)."""
        return cls(sink=Path(path))

    @property
    def events_written(self) -> int:
        """Lines written to the sink so far (0 without one)."""
        return 0 if self._sink is None else self._sink.lines

    # ------------------------------------------------------------- recording
    def count(self, name: str, n: int = 1) -> None:
        """Increment a named counter (aggregate only, never a JSONL line)."""
        self.counters[name] = self.counters.get(name, 0) + n

    def event(self, name: str, **attrs: Any) -> None:
        """Emit one point event as a JSONL line (no-op without a sink)."""
        self._write({"ev": "event", "name": name, "t_ms": self._now_ms(), **attrs})

    @contextmanager
    def timeit(self, name: str) -> Iterator[None]:
        """Aggregate-only timing for hot paths; no per-call output."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.timers.setdefault(name, TimerStat()).add(
                time.perf_counter() - start
            )

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        """Timed phase: aggregates like :meth:`timeit` and writes a
        ``span`` line with the duration and the given attributes."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.timers.setdefault(name, TimerStat()).add(elapsed)
            self._write(
                {
                    "ev": "span",
                    "name": name,
                    "t_ms": self._now_ms(),
                    "dur_ms": round(elapsed * 1e3, 6),
                    **attrs,
                }
            )

    # ----------------------------------------------------------------- output
    def _now_ms(self) -> float:
        return round((time.perf_counter() - self._t0) * 1e3, 6)

    def _write(self, record: dict[str, Any]) -> None:
        if self._sink is not None:
            self._sink.write(record)

    def summary(self) -> dict[str, Any]:
        """Counters plus per-timer call counts / totals, for reports."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "timers": {
                name: {
                    "calls": stat.calls,
                    "total_ms": round(stat.total_ms, 3),
                    "mean_ms": round(stat.mean_ms, 6),
                }
                for name, stat in sorted(self.timers.items())
            },
        }

    # ----------------------------------------------------------- run report
    def top_timers(self, n: int = 10) -> list[tuple[str, TimerStat]]:
        """The ``n`` timers with the largest cumulative wall time.

        Ties break alphabetically so the report is deterministic across
        runs with equal totals (e.g. two untriggered zero-call timers).
        """
        if n < 1:
            raise ValueError(f"top_timers needs n >= 1, got {n}")
        ranked = sorted(
            self.timers.items(), key=lambda kv: (-kv[1].total_s, kv[0])
        )
        return ranked[:n]

    def counter_deltas(
        self, baseline: dict[str, int] | None = None
    ) -> dict[str, int]:
        """Counter changes since ``baseline`` (a prior ``dict(counters)``).

        With no baseline this is simply the sorted counter snapshot; with
        one, counters equal to their baseline value are dropped so the
        report shows only what moved during the measured phase.
        """
        if baseline is None:
            return dict(sorted(self.counters.items()))
        out: dict[str, int] = {}
        for name in sorted(set(self.counters) | set(baseline)):
            delta = self.counters.get(name, 0) - baseline.get(name, 0)
            if delta != 0:
                out[name] = delta
        return out

    def format_report(
        self, *, top: int = 10, baseline: dict[str, int] | None = None
    ) -> str:
        """Human-readable end-of-run digest: top timers + counter deltas.

        One line per timer (``name  calls  total_ms  mean_ms``) followed by
        the counters that moved; intended for CLI ``--obs`` output and
        log tails, not for machine parsing (that is :meth:`summary`).
        """
        lines: list[str] = []
        timers = self.top_timers(top) if self.timers else []
        if timers:
            lines.append(f"top {len(timers)} timers by cumulative time:")
            width = max(len(name) for name, _ in timers)
            for name, stat in timers:
                lines.append(
                    f"  {name:<{width}}  {stat.calls:>8} calls"
                    f"  {stat.total_ms:>12.3f} ms total"
                    f"  {stat.mean_ms:>10.6f} ms/call"
                )
        else:
            lines.append("no timers recorded")
        deltas = self.counter_deltas(baseline)
        if deltas:
            label = "counter deltas" if baseline is not None else "counters"
            lines.append(f"{label}:")
            width = max(len(name) for name in deltas)
            for name, value in deltas.items():
                lines.append(f"  {name:<{width}}  {value}")
        else:
            lines.append("no counters moved")
        return "\n".join(lines)

    def close(self) -> None:
        """Write the final ``summary`` line and close the sink; later calls
        are no-ops."""
        if self._sink is not None and not self._sink.closed:
            self._write({"ev": "summary", "name": "tracer", **self.summary()})
            self._sink.close()
