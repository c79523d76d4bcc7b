"""Decision-provenance plane: one structured record per runtime choice.

Every consequential decision the simulator makes — where a container was
placed (and what the alternatives were), which path a flow was routed on
(and why), whether a job was admitted, why a backup attempt was or was not
launched, how a fault was absorbed — is captured as one
:class:`DecisionRecord` carrying sim-time, job/task/attempt identity, a
stable reason code from :data:`REASON_CODES`, and a monotone sequence
number.

The plane is opt-in and **provably non-perturbing**: every hook is a pure
read of simulator state, consumes no randomness, and changes no control
flow, so a provenance-on run is byte-identical to a provenance-off run
(enforced by ``tests/simulator/test_provenance.py`` across the plain,
faults, faults+speculation and online arms).

Memory is bounded by construction: records live in a fixed-size ring
buffer (``collections.deque(maxlen=ring_size)``) and are *incrementally*
streamed to a :class:`~repro.obs.sink.JsonlSink` as they are emitted —
there is never a dense in-memory list of all decisions.  The sink's
running SHA-256 gives a :meth:`ProvenanceRecorder.fingerprint` that
chaos/online violation reports attach so failed trials ship their own
explanation.
"""

from __future__ import annotations

import json
from collections import deque
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .sink import DEFAULT_RING_SIZE, JsonlSink

__all__ = [
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
]


#: Every decision kind the plane can emit, and what it covers.
DECISION_KINDS: dict[str, str] = {
    "admission": "arrival-plane verdicts and job starts",
    "placement": "container-to-server choices (Alg-1/Alg-2 and baselines)",
    "route": "per-flow path installation",
    "reroute": "fault-time path repair for in-flight flows",
    "park": "flows suspended / resumed for lack of a live path",
    "retry": "failed-attempt rescheduling",
    "speculation": "backup launch / kill / settle decisions",
    "fault": "injected fault and recovery events",
}

#: Reason-code catalogue — the closed vocabulary `emit` accepts.  Keeping
#: this a hard whitelist means ``repro explain --summary`` can never meet a
#: code the docs do not describe.
REASON_CODES: dict[str, str] = {
    # --- admission -------------------------------------------------------
    "accepted": "job admitted to the arrival queue",
    "queue-full": "rejected: per-tenant queue at its bound",
    "load-shed": "rejected: cluster occupancy above the shed threshold",
    "throttled": "rejected: tenant over its admission rate",
    "batch-fifo": "batch run without an admission controller (always admitted)",
    "started": "job dequeued and its first wave placed",
    # --- placement -------------------------------------------------------
    "hit-wave": "joint Alg-1/Alg-2 wave optimisation summary (job-level)",
    "alg2-stable-match": "container placed by deferred-acceptance matching",
    "node-local": "map placed on a host holding its HDFS replica",
    "rack-local": "map placed in a rack holding its HDFS replica",
    "static-min-cost": "map placed on the cheapest server by static cost",
    "zero-cost": "reduce short-circuited to a zero-shuffle-cost server",
    "inverse-cost-sample": "reduce sampled with probability ~ cost^-beta",
    "round-robin": "placed by the capacity scheduler's rotating cursor",
    "rack-pack": "placed by greedy rack set-cover",
    "random": "placed uniformly at random over feasible servers",
    # --- route -----------------------------------------------------------
    "policy-optimal": "Alg-1 capacity-enforced optimal path installed",
    "policy-uncapacitated": "capacities pruned every path; uncapacitated fallback",
    "ecmp-hash": "equal-cost path drawn by the ECMP hash stream",
    "static-shortest": "static shortest path (network-oblivious baseline)",
    "no-path": "no live path existed; flow parked at launch",
    # --- faults / repair -------------------------------------------------
    "server-fail": "server failure injected",
    "server-recover": "server recovery injected",
    "switch-fail": "switch failure injected",
    "switch-recover": "switch recovery injected",
    "link-fail": "link failure injected",
    "link-recover": "link recovery injected",
    "link-degrade": "fail-slow link capacity scaling injected",
    "task-slowdown": "straggler slowdown injected",
    "switch-fail-reroute": "in-flight flow repaired after a switch failure",
    "link-fail-reroute": "in-flight flow repaired after a link failure",
    "flow-parked": "in-flight flow suspended: no live path remained",
    "flow-resumed": "parked flow resumed on a recovered path",
    # --- retry -----------------------------------------------------------
    "retry-scheduled": "failed attempt queued for retry with backoff",
    "retry-placed": "retried attempt placed on a healthy server",
    "retry-blocked": "retry deferred: no healthy server had capacity",
    # --- speculation -----------------------------------------------------
    "quota-denied": "backup suppressed: per-job speculation quota reached",
    "no-slot": "backup suppressed: no healthy server had a free slot",
    "too-late": "backup suppressed: it could not beat the primary",
    "backup-launched": "backup attempt launched for a straggler",
    "backup-killed": "losing attempt of a speculation pair killed",
    "spec-win": "backup finished first; primary cancelled",
    "spec-loss": "primary finished first; backup cancelled",
}


def task_label(kind: object, index: int) -> str:
    """Canonical task identity: map ``i`` -> ``"m<i>"``, reduce ``j`` -> ``"r<j>"``."""
    name = str(getattr(kind, "name", kind)).upper()
    return ("m" if name.startswith("M") else "r") + str(int(index))


def flow_label(map_index: int, reduce_index: int) -> str:
    """Canonical shuffle-flow identity: ``"m<i>->r<j>"``."""
    return f"m{int(map_index)}->r{int(reduce_index)}"


def _jsonable(value: Any) -> Any:
    """Coerce detail payloads (numpy scalars, tuples, sets) to plain JSON."""
    if value is None or isinstance(value, (str, bool, int, float)):
        return value
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


@dataclass(frozen=True, slots=True)
class DecisionRecord:
    """One audited runtime choice."""

    #: Monotone per-run sequence number (total order over decisions).
    seq: int
    #: Simulated time the decision was taken at.
    t: float
    #: One of :data:`DECISION_KINDS`.
    kind: str
    #: Scheduler the run was driven by (record streams are per scheduler).
    scheduler: str
    #: One of :data:`REASON_CODES`.
    reason: str
    job: int | None = None
    #: ``"m3"`` / ``"r1"`` / ``"m3->r1"`` (flow) / ``None`` for job-level.
    task: str | None = None
    attempt: int | None = None
    #: Free-form JSON-safe payload: candidates, ranks, costs, queue state…
    detail: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "t": self.t,
            "kind": self.kind,
            "scheduler": self.scheduler,
            "reason": self.reason,
            "job": self.job,
            "task": self.task,
            "attempt": self.attempt,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, body: Mapping[str, Any]) -> "DecisionRecord":
        return cls(
            seq=int(body["seq"]),
            t=float(body["t"]),
            kind=str(body["kind"]),
            scheduler=str(body["scheduler"]),
            reason=str(body["reason"]),
            job=None if body.get("job") is None else int(body["job"]),
            task=body.get("task"),
            attempt=(
                None if body.get("attempt") is None else int(body["attempt"])
            ),
            detail=dict(body.get("detail") or {}),
        )


@dataclass(frozen=True, slots=True)
class ProvenanceConfig:
    """Opt-in switch carried on ``SimulationConfig``.

    ``path`` is the incremental JSONL spill sink (``None`` keeps the ring
    only — fine for tests, useless for ``repro explain`` which reads the
    file).  ``ring_size`` bounds in-process memory regardless of run
    length.
    """

    path: str | None = None
    ring_size: int = DEFAULT_RING_SIZE


class ProvenanceRecorder:
    """Memory-bounded sink for :class:`DecisionRecord` streams.

    The engine stamps :attr:`now` with the event time before each
    dispatch, so hooks deep inside schedulers never need a clock.  Every
    ``emit`` appends to a fixed ring and writes one line to the
    :class:`~repro.obs.sink.JsonlSink` (file-less when ``path`` is None),
    which folds it into a running SHA-256 — nothing here grows with run
    length except the file on disk.
    """

    def __init__(
        self,
        scheduler: str,
        *,
        ring_size: int = DEFAULT_RING_SIZE,
        path: str | Path | None = None,
    ) -> None:
        if ring_size <= 0:
            raise ValueError("ring_size must be positive")
        self.scheduler = scheduler
        self.ring_size = int(ring_size)
        self.ring: deque[DecisionRecord] = deque(maxlen=self.ring_size)
        self.now: float = 0.0
        self.emitted = 0
        self.counts: dict[str, int] = {}
        self.path = None if path is None else Path(path)
        self.sink = JsonlSink(self.path)

    @classmethod
    def from_config(
        cls, config: ProvenanceConfig, scheduler: str
    ) -> "ProvenanceRecorder":
        return cls(scheduler, ring_size=config.ring_size, path=config.path)

    # ------------------------------------------------------------- emission
    def emit(
        self,
        kind: str,
        reason: str,
        *,
        job: int | None = None,
        task: str | None = None,
        attempt: int | None = None,
        **detail: Any,
    ) -> DecisionRecord:
        """Record one decision.  Pure append: no simulator state is touched."""
        if kind not in DECISION_KINDS:
            raise ValueError(f"unknown decision kind: {kind!r}")
        if reason not in REASON_CODES:
            raise ValueError(f"unknown reason code: {reason!r}")
        record = DecisionRecord(
            seq=self.emitted,
            t=float(self.now),
            kind=kind,
            scheduler=self.scheduler,
            reason=reason,
            job=None if job is None else int(job),
            task=task,
            attempt=None if attempt is None else int(attempt),
            detail={k: _jsonable(v) for k, v in detail.items()},
        )
        self.emitted += 1
        key = f"{kind}:{reason}"
        self.counts[key] = self.counts.get(key, 0) + 1
        self.ring.append(record)
        self.sink.write(record.to_dict())
        return record

    # -------------------------------------------------------------- queries
    def records(self) -> list[DecisionRecord]:
        """The ring's current contents (at most ``ring_size`` records)."""
        return list(self.ring)

    def counters(self) -> dict[str, int]:
        """``kind:reason`` -> count, sorted — stable across identical runs."""
        return dict(sorted(self.counts.items()))

    def fingerprint(self) -> str:
        """SHA-256 over every emitted record, in order — the trial's own
        explanation digest, attachable to violation reports."""
        return self.sink.hexdigest()

    def close(self) -> None:
        self.sink.close()


def decision_digest(recorder: "ProvenanceRecorder | None") -> dict[str, Any]:
    """Compact decision-provenance attachment for violation reports.

    Chaos/online harnesses rerun a failed trial with provenance enabled
    (faithful, by the byte-identity contract) and ship this digest so the
    report carries its own explanation: the running fingerprint, the total
    decision count, and the ``kind:reason`` tallies.
    """
    if recorder is None:
        return {}
    return {
        "fingerprint": recorder.fingerprint(),
        "decisions": recorder.emitted,
        "counters": recorder.counters(),
    }


# ------------------------------------------------------------------ explain
def load_decisions(path: str | Path) -> list[DecisionRecord]:
    """Read a spilled decision log back into records."""
    records = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(DecisionRecord.from_dict(json.loads(line)))
    return records


def _task_components(label: str | None) -> tuple[str, ...]:
    if not label:
        return ()
    return tuple(label.split("->"))


def explain_task(
    records: Iterable[DecisionRecord], job: int, task: str | None = None
) -> list[DecisionRecord]:
    """Reconstruct the decision chain for one job (optionally one task).

    A record belongs to the chain when it names the job and either carries
    no task identity (job-level: admission verdicts, wave summaries) or
    names the task directly — flow records ``"m3->r1"`` match both of
    their endpoints.
    """
    chain = []
    for record in records:
        if record.job != job:
            continue
        if task is not None:
            parts = _task_components(record.task)
            if parts and task not in parts:
                continue
        chain.append(record)
    chain.sort(key=lambda r: r.seq)
    return chain


def format_record(record: DecisionRecord) -> str:
    """One-line human-readable rendering (the ``repro explain`` format).

    Deterministic — detail keys are sorted — so golden-output tests can
    compare rendered chains verbatim.
    """
    parts = [f"#{record.seq}", f"t={record.t:.6f}", record.kind, record.reason]
    if record.job is not None:
        parts.append(f"job={record.job}")
    if record.task:
        parts.append(f"task={record.task}")
    if record.attempt is not None:
        parts.append(f"attempt={record.attempt}")
    if record.detail:
        parts.append(
            json.dumps(record.detail, sort_keys=True, separators=(",", ":"))
        )
    return " ".join(parts)


def summarize_decisions(
    records: Iterable[DecisionRecord],
) -> dict[str, dict[str, int]]:
    """Aggregate reason codes per scheduler: ``{scheduler: {kind:reason: n}}``."""
    out: dict[str, dict[str, int]] = {}
    for record in records:
        bucket = out.setdefault(record.scheduler, {})
        key = f"{record.kind}:{record.reason}"
        bucket[key] = bucket.get(key, 0) + 1
    return {name: dict(sorted(v.items())) for name, v in sorted(out.items())}
