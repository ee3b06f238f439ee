"""Phase aggregation shared by the multi-client and cluster drivers.

Both drivers replay scripted clients over the event loop and end up
with the same raw material: per-client :class:`~repro.engine.client.
OpRecord` lists plus a :class:`~repro.engine.diskqueue.QueueAccounting`
delta for the phase.  This module owns the reduction from that raw
material to the report dataclasses the CLIs render — one client's
summary, and one phase's aggregate — so the single-engine harness
(:mod:`repro.engine.multiclient`) and the sharded cluster
(:mod:`repro.cluster`) cannot drift apart in how they measure.

Both drivers replay through the one loop in :mod:`repro.engine.client`,
so their records are the same :class:`~repro.engine.client.OpRecord`.
A "client" here is anything with ``name`` and ``records`` attributes:
an engine :class:`~repro.engine.client.ClientContext`, or a cluster
client whose ops may span several shards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.analysis.metrics import (
    LatencySummary,
    jain_fairness,
    summarize_latencies,
)
from repro.engine.diskqueue import QueueAccounting


@dataclass
class ClientSummary:
    """One client's view of one phase."""

    client: str
    n_ops: int
    ops_per_second: float
    cpu_seconds: float
    queue_delay: float           # total host-queue wait across requests
    n_requests: int
    latency: LatencySummary
    retries: int = 0             # transient disk faults this client rode out
    io_errors: int = 0           # operations aborted by a hard fault


@dataclass
class PhaseReport:
    """Aggregate and per-client measurements for one phase."""

    phase: str
    seconds: float
    n_ops: int
    latency: LatencySummary      # across all clients' operations
    per_client: List[ClientSummary] = field(default_factory=list)
    mean_queue_depth: float = 0.0
    mean_queue_delay: float = 0.0
    fairness: float = 1.0        # Jain index over per-client rates
    retried: int = 0             # queue-level transient-fault requeues
    failed: int = 0              # requests that completed with an error

    @property
    def ops_per_second(self) -> float:
        return self.n_ops / self.seconds if self.seconds > 0 else float("inf")


def summarize_client(client, phase: str, start: float) -> ClientSummary:
    """Reduce one client's records for ``phase`` to its summary row."""
    records = [r for r in client.records if r.phase == phase]
    latencies = [r.latency for r in records]
    finish = max((r.end for r in records), default=start)
    span = finish - start
    rate = len(records) / span if span > 0 else float("inf")
    return ClientSummary(
        client=client.name,
        n_ops=len(records),
        ops_per_second=rate,
        cpu_seconds=sum(r.cpu_seconds for r in records),
        queue_delay=sum(r.queue_delay for r in records),
        n_requests=sum(r.n_requests for r in records),
        latency=summarize_latencies(latencies),
        retries=sum(r.retries for r in records),
        io_errors=sum(1 for r in records if r.error is not None),
    )


def summarize_phase(
    phase: str,
    start: float,
    seconds: float,
    clients: Sequence,
    queue_delta: Optional[QueueAccounting] = None,
) -> PhaseReport:
    """Reduce every client's records for ``phase`` to the phase report.

    ``queue_delta`` carries the host-queue accounting accumulated over
    the phase; the cluster driver sums per-shard deltas into one before
    calling (the fields are plain counters, so addition is well-defined
    — ``max_depth`` becomes the worst shard's high-water mark).
    """
    summaries: List[ClientSummary] = []
    all_latencies: List[float] = []
    total_ops = 0
    for client in clients:
        summary = summarize_client(client, phase, start)
        summaries.append(summary)
        all_latencies.extend(client.latencies(phase))
        total_ops += summary.n_ops
    delta = queue_delta if queue_delta is not None else QueueAccounting()
    return PhaseReport(
        phase=phase,
        seconds=seconds,
        n_ops=total_ops,
        latency=summarize_latencies(all_latencies),
        per_client=summaries,
        mean_queue_depth=(delta.depth_area / seconds if seconds > 0 else 0.0),
        mean_queue_delay=delta.mean_queue_delay,
        fairness=jain_fairness([s.ops_per_second for s in summaries]),
        retried=delta.retried,
        failed=delta.failed,
    )


def merge_queue_deltas(deltas: Sequence[QueueAccounting]) -> QueueAccounting:
    """Sum per-shard queue deltas into one cluster-wide accounting."""
    out = QueueAccounting()
    for delta in deltas:
        for name in vars(out):
            if name == "max_depth":   # high-water mark, not a counter
                out.max_depth = max(out.max_depth, delta.max_depth)
            else:
                setattr(out, name, getattr(out, name) + getattr(delta, name))
    return out


__all__ = [
    "ClientSummary",
    "PhaseReport",
    "merge_queue_deltas",
    "summarize_client",
    "summarize_phase",
]
