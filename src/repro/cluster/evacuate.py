"""Shard evacuation: move a sick shard's subtrees to healthy shards.

When a shard demotes to READ_ONLY its namespace is stuck: assignments
are first-touch-sticky, so every write into its subtrees keeps failing
forever.  Evacuation drains it — reads still work on a READ_ONLY shard
(that is the point of demoting instead of dying) — by copying each
placed top-level subtree to a healthy destination and flipping the
router assignment.  The shard is then retired (marked FAILED).

The copy is one of the cluster's durable operations: an evac record
first, a durable adopt record as the commit once every file copy is
durable.  :mod:`repro.cluster.intent` holds the record codec, the
protocol's leg order, the subtree walk and the recovery
(:func:`~repro.cluster.intent.recover`); this module only copies and
reassigns.

Everything is deterministic: subtrees and files are walked in sorted
order, destinations come from the router's health-aware spare pick,
and all I/O runs lock-step on cluster time.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List

from repro.cluster.intent import (
    durable_write,
    encode_record,
    record_path,
    subtree_manifest,
)


# -- the evacuator ---------------------------------------------------------------


@dataclass
class EvacuatedTop:
    """One subtree moved off a sick shard."""

    top: str
    src: int
    dst: int
    files: int
    bytes: int
    #: Per-file CRC32 of the copied content, keyed by absolute path —
    #: the chaos harness re-reads through the facade and verifies.
    crcs: Dict[str, int] = field(default_factory=dict)


def evacuate_top(cluster, top: str, src_shard, dst_shard) -> EvacuatedTop:
    """Copy one subtree from ``src_shard`` to ``dst_shard`` (crash-safe).

    The source is only ever *read*; every destination step is ordered
    behind a durable evac record and committed by a durable adopt
    record (:mod:`repro.cluster.intent` has the recovery argument).
    """
    root = "/" + top
    dirs, files = subtree_manifest(src_shard.fs, root)
    sizes = {path: src_shard.fs.stat(path).size for path in files}
    report = EvacuatedTop(top=top, src=src_shard.sid, dst=dst_shard.sid,
                          files=len(files), bytes=sum(sizes.values()))
    ipath = record_path("evac", cluster.next_intent_seq())
    payload = encode_record("evac", src_shard=src_shard.sid, top=top,
                            files=report.files, bytes=report.bytes)
    cluster.lockstep(dst_shard, lambda f: durable_write(f, ipath, payload))
    for dpath in dirs:
        cluster.lockstep(dst_shard,
                         lambda f, p=dpath: None if f.exists(p)
                         else f.mkdir(p))
    for fpath in files:
        data = cluster.lockstep(src_shard,
                                lambda f, p=fpath: f.read_file(p))
        cluster.account(src_shard, bytes_read=len(data))
        report.crcs[fpath] = zlib.crc32(data)
        cluster.lockstep(dst_shard,
                         lambda f, p=fpath, d=data: durable_write(f, p, d))
        cluster.account(dst_shard, bytes_written=len(data))
        cluster.metrics.counter("cluster.evac.files").inc()
        cluster.metrics.counter("cluster.evac.bytes").inc(len(data))
    adopt = encode_record("adopt", top=top, src_shard=src_shard.sid)
    cluster.lockstep(dst_shard, lambda f: durable_write(
        f, record_path("adopt", top), adopt))
    # Clearing the intent may stay cached: a stale evac intent whose
    # adopt record is durable recovers by (idempotent) roll-forward.
    cluster.lockstep(dst_shard, lambda f: f.unlink(ipath))
    cluster.router.reassign(top, dst_shard.sid)
    cluster.metrics.counter("cluster.evac.subtrees").inc()
    return report


def evacuate_shard(cluster, sid: int) -> List[EvacuatedTop]:
    """Drain every subtree placed on shard ``sid``, then retire it.

    Destinations come from the router's health-aware spare pick (the
    sick shard is always excluded), so the drained load spreads over
    the surviving shards.  After the last subtree moves, the shard is
    marked FAILED — evacuated and retired.
    """
    from repro.resilience.health import HealthState

    src = cluster.shards[sid]
    tops = sorted(top for top, owner in cluster.router.assignments.items()
                  if owner == sid)
    reports: List[EvacuatedTop] = []
    for top in tops:
        dst = cluster.shards[cluster.router.pick_spare(top, exclude=(sid,))]
        reports.append(evacuate_top(cluster, top, src, dst))
    cluster.health.mark(sid, HealthState.FAILED, "evacuated; shard retired")
    return reports


__all__ = [
    "EvacuatedTop",
    "evacuate_shard",
    "evacuate_top",
]
