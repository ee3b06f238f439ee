"""Sharded multi-volume cluster: scale-out over independent engines.

The paper's systems scale a *single* disk arm by embedding inodes and
grouping small files; this package scales *out*: N complete vertical
stacks (drive, cache, file system — :class:`~repro.cluster.core.Shard`)
coupled under one shared event loop, fronted by a namespace router that
places top-level directory subtrees on shards
(:mod:`~repro.cluster.router`), a FileSystem-shaped facade so existing
workloads run unmodified (:mod:`~repro.cluster.facade`), and a Zipfian
many-client traffic model (:mod:`~repro.cluster.traffic`).

Fault tolerance lives in three more modules: per-shard health
classification (:mod:`~repro.cluster.health`), shard evacuation
(:mod:`~repro.cluster.evacuate`), and the cluster-wide chaos harness
(:mod:`~repro.cluster.chaos`).  Cross-shard rename and evacuation are
both crash-safe through one durable-operation record format and one
recovery pass (:mod:`~repro.cluster.intent`).
"""

from repro.cluster.chaos import (
    CHAOS_SCHEMA,
    ChaosConfig,
    ChaosResult,
    chaos_summary,
    parse_fault_spec,
    render_chaos,
    run_cluster_chaos,
    validate_chaos_summary,
)
from repro.cluster.core import Cluster, ClusterClient, ClusterOp, Leg, Shard
from repro.cluster.evacuate import EvacuatedTop, evacuate_shard, evacuate_top
from repro.cluster.facade import ClusterFS, split_top
from repro.cluster.health import (
    ClusterHealth,
    ClusterRetryPolicy,
    HealthState,
    ShardHealthPolicy,
)
from repro.cluster.intent import (
    CLUSTER_DIR,
    adopted_tops,
    decode_record,
    encode_record,
    record_path,
)
from repro.cluster.router import (
    DEFAULT_VNODES,
    ROUTE_CPU_SECONDS,
    ROUTER_KINDS,
    HashRouter,
    Router,
    UtilizationRouter,
    make_router,
)
from repro.cluster.traffic import (
    CLUSTER_SCHEMA,
    ClusterTrafficResult,
    ShardBalance,
    TrafficConfig,
    ZipfSampler,
    cluster_summary,
    render_cluster,
    run_cluster_traffic,
    validate_cluster_summary,
)

__all__ = [
    "CHAOS_SCHEMA",
    "CLUSTER_DIR",
    "CLUSTER_SCHEMA",
    "ChaosConfig",
    "ChaosResult",
    "Cluster",
    "ClusterClient",
    "ClusterFS",
    "ClusterHealth",
    "ClusterOp",
    "ClusterRetryPolicy",
    "ClusterTrafficResult",
    "DEFAULT_VNODES",
    "EvacuatedTop",
    "HashRouter",
    "HealthState",
    "Leg",
    "ROUTER_KINDS",
    "ROUTE_CPU_SECONDS",
    "Router",
    "Shard",
    "ShardBalance",
    "ShardHealthPolicy",
    "TrafficConfig",
    "UtilizationRouter",
    "ZipfSampler",
    "adopted_tops",
    "chaos_summary",
    "cluster_summary",
    "decode_record",
    "encode_record",
    "evacuate_shard",
    "evacuate_top",
    "make_router",
    "parse_fault_spec",
    "record_path",
    "render_chaos",
    "render_cluster",
    "run_cluster_chaos",
    "run_cluster_traffic",
    "split_top",
    "validate_chaos_summary",
    "validate_cluster_summary",
]
