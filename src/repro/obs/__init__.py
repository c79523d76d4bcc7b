"""Observability: runtime invariant checking and structured tracing.

``repro.obs`` gives every refactor and performance PR a regression
tripwire: the :class:`InvariantChecker` verifies the paper's correctness
invariants (server/switch capacities, policy satisfaction, matching
stability, flow conservation) against live objects, and the
:class:`Tracer` collects counters, aggregate timers and JSON-lines spans
from the instrumented hot paths (Algorithm 1 path search, Algorithm 2
proposal rounds, simulator event dispatch).

Both are opt-in: nothing is checked or traced until a checker/tracer is
installed via :func:`observe` / :func:`install`, the CLI's
``--check-invariants`` / ``--obs DIR`` flags, or the
``REPRO_CHECK_INVARIANTS`` / ``REPRO_TRACE`` environment variables.  See
``docs/observability.md`` for the invariant catalogue and trace schema.
"""

from .export import (
    build_chrome_trace,
    render_html_report,
    save_chrome_trace,
    save_html_report,
    validate_chrome_trace,
)
from .invariants import InvariantChecker, InvariantError, InvariantViolation
from .provenance import (
    DECISION_KINDS,
    REASON_CODES,
    DecisionRecord,
    ProvenanceConfig,
    ProvenanceRecorder,
    decision_digest,
    explain_task,
    flow_label,
    format_record,
    load_decisions,
    summarize_decisions,
    task_label,
)
from .runtime import STATE, ObsState, install, observe, uninstall
from .timeline import TimelineMarker, TimelineRecorder, TimelineSample
from .tracer import NULL_TRACER, NullTracer, Tracer, TimerStat

__all__ = [
    "InvariantChecker",
    "InvariantError",
    "InvariantViolation",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "TimerStat",
    "STATE",
    "ObsState",
    "install",
    "uninstall",
    "observe",
    "TimelineRecorder",
    "TimelineSample",
    "TimelineMarker",
    "DECISION_KINDS",
    "REASON_CODES",
    "DecisionRecord",
    "ProvenanceConfig",
    "ProvenanceRecorder",
    "decision_digest",
    "explain_task",
    "flow_label",
    "format_record",
    "load_decisions",
    "summarize_decisions",
    "task_label",
    "build_chrome_trace",
    "save_chrome_trace",
    "validate_chrome_trace",
    "render_html_report",
    "save_html_report",
]
