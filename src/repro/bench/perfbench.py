"""``repro perfbench``: the wall-clock performance trajectory harness.

Everything else in ``repro.bench`` measures *simulated* time — the
paper's own yardstick.  This module measures the cost of running the
simulation itself: real ops/sec through the hot paths, wall seconds
burned per simulated second, and where the memory allocations happen.
Those numbers are the repository's raw-speed trajectory: each PR
commits a ``BENCH_perf.json`` snapshot, and CI fails the build when a
change regresses throughput or allocation counts against it.

Three measurements per scenario, each on a fresh file system so no
state leaks between them:

- a timing run (best of ``repeats``): wall-clock ops/sec and wall
  seconds per simulated second, with no tracer installed — this is the
  production-shaped disabled-observability path;
- a tracemalloc run: net allocation count/bytes attributed per layer
  (``cache``, ``disk``, ``core`` ...) plus the peak traced footprint.
  tracemalloc tracks *live* objects and both snapshots follow a full
  ``gc.collect()``, so these are retained-allocation numbers — a
  regression means something started keeping per-op state;
- an optional cProfile run (``--profile``) printing the top-cost
  table that directs optimisation work.

Each snapshot also records a machine-speed calibration score
(:func:`measure_calibration`), and the CI gate compares ops/sec in
calibration-normalized units so baselines transfer across host-speed
drift and runner hardware.

The scenarios run the same drivers as the simulated benchmarks
(smallfile, postmark, multiclient) under fixed seeds, so the simulated
timeline of a perfbench run is byte-for-byte the timeline the paper
figures use — the harness never gets to measure a different workload
than the one being optimised.
"""

# reprolint: disable-file=D001 — wall-clock measurement is this
# module's entire purpose.  No simulated result depends on it: the
# wall numbers feed BENCH_perf.json only, and the simulated timeline
# of every scenario stays fully deterministic.

from __future__ import annotations

import cProfile
import gc
import io
import json
import pstats
import sys
import time
import tracemalloc
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: Schema identifier embedded in (and required of) every snapshot.
SCHEMA = "repro-perfbench/1"

#: Bumped whenever a scenario definition changes shape or size, or a
#: recorded figure changes meaning (rev 2: the allocation pass collects
#: cycles before both snapshots); a baseline from another rev measures
#: different work and must not be compared against.
WORKLOAD_REV = 2

#: CI gate tolerances (see :func:`check_snapshot`).  Retained-object
#: counts jitter several percent run to run (dict resizes and the like),
#: while a real per-op leak scales with the op count (thousands of
#: objects, +20-100%) — so the allocation gate sits at 20%: far above
#: the observed +/-8% jitter, far below any genuine regression.
OPS_TOLERANCE = 0.10        # >10% ops/sec drop fails
ALLOC_TOLERANCE = 0.20      # >20% net-allocation-count growth fails
ALLOC_SLACK = 256           # absolute slack for tiny counts


@dataclass(frozen=True)
class Scenario:
    """One measured hot path: a builder returning (run_fn, ops)."""

    name: str
    description: str
    #: Returns (fs, run_callable, op_count); the callable drives the
    #: workload to completion on the supplied file system.
    build: Callable[[], Tuple[object, Callable[[], None], int]]


def _build_smallfile(n_files: int, phases: Tuple[str, ...]):
    from repro.workloads import build_filesystem, run_smallfile

    fs = build_filesystem("cffs")

    def run() -> None:
        run_smallfile(fs, n_files=n_files, file_size=4096, n_dirs=4,
                      phases=phases)

    return fs, run, n_files * len(phases)


def _build_postmark():
    from repro.workloads import build_filesystem
    from repro.workloads.postmark import PostmarkConfig, run_postmark

    fs = build_filesystem("cffs")
    cfg = PostmarkConfig(n_files=500, n_transactions=1000, seed=1997)

    def run() -> None:
        run_postmark(fs, cfg)

    return fs, run, cfg.n_files + cfg.n_transactions


def _build_multiclient():
    from repro.engine.multiclient import run_multiclient

    n_clients, files_per_client, phases = 8, 100, ("create", "read")
    holder: Dict[str, object] = {}

    def run() -> None:
        holder["result"] = run_multiclient(
            label="cffs", n_clients=n_clients,
            files_per_client=files_per_client, file_size=4096,
            phases=phases, scheduler="clook", seed=1997)

    # run_multiclient builds its own stack; expose the clock via the
    # result (sim_seconds is read back by the caller through `holder`).
    return holder, run, n_clients * files_per_client * len(phases)


def _build_cluster():
    from repro.cluster import TrafficConfig, run_cluster_traffic

    cfg = TrafficConfig(shards=4, clients=160, ops_per_client=3, dirs=32,
                        file_size=4096, seed=1997)
    holder: Dict[str, object] = {}

    def run() -> None:
        holder["result"] = run_cluster_traffic(cfg)

    return holder, run, cfg.clients * cfg.ops_per_client


SCENARIOS: Dict[str, Scenario] = {
    "smallfile_create": Scenario(
        "smallfile_create",
        "the paper's create hot path: 2500 x 4 KB files on C-FFS",
        lambda: _build_smallfile(2500, ("create",)),
    ),
    "smallfile_full": Scenario(
        "smallfile_full",
        "all four smallfile phases, 800 files",
        lambda: _build_smallfile(800, ("create", "read", "overwrite", "delete")),
    ),
    "postmark": Scenario(
        "postmark",
        "mixed transactional churn, 500 files / 1000 transactions",
        _build_postmark,
    ),
    "multiclient": Scenario(
        "multiclient",
        "8 concurrent clients through the event loop, create+read",
        _build_multiclient,
    ),
    "cluster": Scenario(
        "cluster",
        "160 Zipfian clients over a 4-shard cluster, util router",
        _build_cluster,
    ),
}


#: Calibration spin: CRC32C (reference implementation) over a fixed
#: 4 KB buffer — pure-python, allocation-light, deterministic work
#: whose throughput scales with the machine the same way the scenario
#: hot paths do.  Snapshots record it as ``calib_ops_per_sec`` and the
#: gate compares ops/sec in calibration-normalized units, so a
#: committed baseline survives host-speed drift and CI runner changes.
_CALIB_BUF = bytes(range(256)) * 16
_CALIB_SLICE_S = 0.02
_CALIB_ROUNDS = 5


def _calib_slice() -> float:
    """One 20 ms calibration slice: spin iterations per second."""
    from repro.resilience.checksums import crc32c_reference

    start = time.perf_counter()
    count = 0
    while time.perf_counter() - start < _CALIB_SLICE_S:
        crc32c_reference(_CALIB_BUF)
        count += 1
    return count / (time.perf_counter() - start)


def measure_calibration(rounds: int = _CALIB_ROUNDS) -> float:
    """Machine-speed score: the best of ``rounds`` calibration slices.

    Host noise is bursty at the sub-second scale, so scores are
    best-of — the same convention the timing runs use — and
    :func:`_measure_timing` additionally interleaves slices between
    repeats so the recorded score and the recorded best wall time had
    the same chance of hitting a clean scheduling window.
    """
    return max(_calib_slice() for _ in range(max(1, rounds)))


def _sim_seconds(subject: object) -> float:
    """Simulated seconds elapsed on the scenario's clock."""
    if isinstance(subject, dict):  # a result holder (multiclient, cluster)
        result = subject.get("result")
        if result is None:
            return 0.0
        return float(getattr(result, "total_seconds", None)
                     or getattr(result, "seconds", 0.0))
    return float(subject.cache.device.clock.now)


def _layer_of(path: str) -> str:
    """Map a source file to its repro layer ('cache', 'disk', ...)."""
    marker = "repro" + ("/" if "/" in path else "\\")
    idx = path.rfind(marker)
    if idx < 0:
        return "other"
    rest = path[idx + len(marker):].replace("\\", "/")
    if "/" in rest:
        return rest.split("/", 1)[0]
    return rest.rsplit(".", 1)[0] or "other"


def _measure_timing(scenario: Scenario,
                    repeats: int) -> Tuple[float, float, int, float]:
    """Best (wall seconds, sim seconds, op count, calib score) over
    ``repeats`` runs, with calibration slices interleaved between
    repeats so both bests sample the same machine windows."""
    best_wall = None
    sim = 0.0
    ops = 0
    calib = 0.0
    for _ in range(max(1, repeats)):
        subject, run, ops = scenario.build()
        calib = max(calib, _calib_slice())
        start = time.perf_counter()
        run()
        wall = time.perf_counter() - start
        calib = max(calib, _calib_slice())
        if best_wall is None or wall < best_wall:
            best_wall = wall
        sim = _sim_seconds(subject)
    return best_wall, sim, ops, calib


def _measure_alloc(scenario: Scenario) -> Dict[str, object]:
    subject, run, _ops = scenario.build()
    tracemalloc.start()
    try:
        # Collect cycles before each snapshot: otherwise the diff counts
        # garbage the cyclic GC has not reached yet, and how much of it
        # there is depends on whatever ran earlier in the process.
        gc.collect()
        before = tracemalloc.take_snapshot()
        tracemalloc.reset_peak()
        run()
        gc.collect()
        after = tracemalloc.take_snapshot()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    per_layer: Dict[str, Dict[str, float]] = {}
    net_count = 0
    net_bytes = 0
    for stat in after.compare_to(before, "filename"):
        if stat.count_diff == 0 and stat.size_diff == 0:
            continue
        layer = _layer_of(stat.traceback[0].filename)
        bucket = per_layer.setdefault(layer, {"count": 0, "kb": 0.0})
        bucket["count"] += stat.count_diff
        bucket["kb"] += stat.size_diff / 1024.0
        net_count += stat.count_diff
        net_bytes += stat.size_diff
    for bucket in per_layer.values():
        bucket["kb"] = round(bucket["kb"], 2)
    return {
        "peak_kb": round(peak / 1024.0, 2),
        "net_count": net_count,
        "net_kb": round(net_bytes / 1024.0, 2),
        "per_layer": {k: per_layer[k] for k in sorted(per_layer)},
    }


def run_scenario(name: str, repeats: int = 2,
                 measure_alloc: bool = True) -> Dict[str, object]:
    """Measure one scenario; returns its snapshot entry."""
    scenario = SCENARIOS[name]
    wall, sim, ops, calib = _measure_timing(scenario, repeats)
    entry: Dict[str, object] = {
        "description": scenario.description,
        "calib_ops_per_sec": round(calib, 1),
        "ops": ops,
        "wall_seconds": round(wall, 4),
        "sim_seconds": round(sim, 4),
        "ops_per_wall_sec": round(ops / wall, 1) if wall > 0 else 0.0,
        "wall_sec_per_sim_sec": round(wall / sim, 4) if sim > 0 else 0.0,
    }
    if measure_alloc:
        entry["alloc"] = _measure_alloc(scenario)
    return entry


def run_perfbench(names: Optional[List[str]] = None, repeats: int = 2,
                  measure_alloc: bool = True,
                  progress: Optional[Callable[[str], None]] = None,
                  ) -> Dict[str, object]:
    """Run the harness; returns the full snapshot dict."""
    chosen = names if names else list(SCENARIOS)
    snapshot: Dict[str, object] = {
        "schema": SCHEMA,
        "workload_rev": WORKLOAD_REV,
        "python": "%d.%d.%d" % sys.version_info[:3],
        "scenarios": {},
    }
    for name in chosen:
        if name not in SCENARIOS:
            raise KeyError("unknown perfbench scenario %r (known: %s)"
                           % (name, ", ".join(SCENARIOS)))
        if progress is not None:
            progress(name)
        snapshot["scenarios"][name] = run_scenario(
            name, repeats=repeats, measure_alloc=measure_alloc)
    return snapshot


def attach_reference(snapshot: Dict[str, object],
                     reference: Dict[str, object],
                     ref_path: str = "") -> None:
    """Embed a prior snapshot's throughput and the speedup against it.

    This is how a committed baseline carries its own before/after
    evidence: ``--ref old.json`` stamps the old ops/sec numbers and the
    per-scenario speedup into the new snapshot.
    """
    ref_scenarios = reference.get("scenarios", {})
    ref_ops = {
        name: entry.get("ops_per_wall_sec", 0.0)
        for name, entry in ref_scenarios.items()
    }
    speedup = {}
    for name, entry in snapshot["scenarios"].items():
        old = ref_ops.get(name)
        if old:
            speedup[name] = round(entry["ops_per_wall_sec"] / old, 3)
    snapshot["reference"] = {"path": ref_path, "ops_per_wall_sec": ref_ops}
    snapshot["speedup"] = speedup


# ---------------------------------------------------------------------------
# Schema validation and the CI regression gate.
# ---------------------------------------------------------------------------

def validate_snapshot(snapshot: object) -> List[str]:
    """Structural check of a snapshot; returns problems (empty = valid)."""
    problems: List[str] = []
    if not isinstance(snapshot, dict):
        return ["snapshot is not a JSON object"]
    if snapshot.get("schema") != SCHEMA:
        problems.append("schema is %r, expected %r"
                        % (snapshot.get("schema"), SCHEMA))
    if not isinstance(snapshot.get("workload_rev"), int):
        problems.append("workload_rev missing or not an integer")
    calib = snapshot.get("calib_ops_per_sec")
    if calib is not None and (not isinstance(calib, (int, float)) or calib <= 0):
        problems.append("calib_ops_per_sec present but not a positive number")
    scenarios = snapshot.get("scenarios")
    if not isinstance(scenarios, dict) or not scenarios:
        return problems + ["scenarios missing or empty"]
    for name, entry in scenarios.items():
        if not isinstance(entry, dict):
            problems.append("%s: entry is not an object" % name)
            continue
        for key in ("ops", "wall_seconds", "sim_seconds",
                    "ops_per_wall_sec", "wall_sec_per_sim_sec"):
            value = entry.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                problems.append("%s.%s missing or not a non-negative number"
                                % (name, key))
        entry_calib = entry.get("calib_ops_per_sec")
        if entry_calib is not None and (
                not isinstance(entry_calib, (int, float)) or entry_calib <= 0):
            problems.append("%s.calib_ops_per_sec present but not a "
                            "positive number" % name)
        tolerance = entry.get("ops_tolerance")
        if tolerance is not None and (
                not isinstance(tolerance, (int, float))
                or not 0 <= tolerance < 1):
            problems.append("%s.ops_tolerance present but not in [0, 1)"
                            % name)
        alloc = entry.get("alloc")
        if alloc is not None:
            if not isinstance(alloc, dict):
                problems.append("%s.alloc is not an object" % name)
                continue
            for key in ("peak_kb", "net_count", "net_kb"):
                if not isinstance(alloc.get(key), (int, float)):
                    problems.append("%s.alloc.%s missing or not a number"
                                    % (name, key))
            if not isinstance(alloc.get("per_layer"), dict):
                problems.append("%s.alloc.per_layer missing" % name)
    return problems


def check_snapshot(current: Dict[str, object],
                   baseline: Dict[str, object]) -> List[str]:
    """The CI gate: failures of ``current`` against ``baseline``.

    Fails on a >10% ops/sec drop or an allocation-count regression
    (beyond jitter slack) in any scenario the baseline covers.

    When both snapshots carry ``calib_ops_per_sec``, ops/sec compares
    in calibration-normalized units: the current numbers are scaled by
    ``base_calib / cur_calib``, which cancels machine-speed differences
    (host drift, a different CI runner class) while leaving genuine
    code regressions fully visible.
    """
    failures: List[str] = []
    for snap, who in ((current, "current"), (baseline, "baseline")):
        for problem in validate_snapshot(snap):
            failures.append("%s snapshot invalid: %s" % (who, problem))
    if failures:
        return failures
    if current.get("workload_rev") != baseline.get("workload_rev"):
        return ["workload_rev mismatch (current %s vs baseline %s): "
                "regenerate the baseline" % (current.get("workload_rev"),
                                             baseline.get("workload_rev"))]
    def _calib(snap, entry):
        value = entry.get("calib_ops_per_sec", snap.get("calib_ops_per_sec"))
        return value if isinstance(value, (int, float)) and value > 0 else None

    for name, base in baseline["scenarios"].items():
        cur = current["scenarios"].get(name)
        if cur is None:
            failures.append("scenario %s missing from current run" % name)
            continue
        base_calib = _calib(baseline, base)
        cur_calib = _calib(current, cur)
        scale = (base_calib / cur_calib) if base_calib and cur_calib else 1.0
        # A baseline entry may widen its own tolerance: some scenarios
        # (multiclient) are more contention-sensitive than the
        # calibration spin and need a wider honest envelope.
        tolerance = base.get("ops_tolerance", OPS_TOLERANCE)
        floor = base["ops_per_wall_sec"] * (1.0 - tolerance)
        normalized = cur["ops_per_wall_sec"] * scale
        if normalized < floor:
            failures.append(
                "%s: ops/sec regressed %.1f -> %.1f normalized "
                "(%.1f raw, machine scale %.3f, floor %.1f)"
                % (name, base["ops_per_wall_sec"], normalized,
                   cur["ops_per_wall_sec"], scale, floor))
        base_alloc = base.get("alloc")
        cur_alloc = cur.get("alloc")
        if base_alloc is not None and cur_alloc is not None:
            ceiling = (base_alloc["net_count"] * (1.0 + ALLOC_TOLERANCE)
                       + ALLOC_SLACK)
            if cur_alloc["net_count"] > ceiling:
                failures.append(
                    "%s: net allocation count regressed %d -> %d "
                    "(ceiling %.0f)"
                    % (name, base_alloc["net_count"],
                       cur_alloc["net_count"], ceiling))
    return failures


# ---------------------------------------------------------------------------
# Profiling.
# ---------------------------------------------------------------------------

def profile_scenario(name: str, top: int = 25) -> str:
    """cProfile one scenario; returns the top-cost table as text."""
    scenario = SCENARIOS[name]
    _subject, run, _ops = scenario.build()
    profiler = cProfile.Profile()
    profiler.enable()
    run()
    profiler.disable()
    out = io.StringIO()
    stats = pstats.Stats(profiler, stream=out)
    stats.strip_dirs().sort_stats("tottime").print_stats(top)
    return out.getvalue()


# ---------------------------------------------------------------------------
# Rendering.
# ---------------------------------------------------------------------------

def render_snapshot(snapshot: Dict[str, object]) -> str:
    calibs = sorted(
        e["calib_ops_per_sec"] for e in snapshot["scenarios"].values()
        if isinstance(e.get("calib_ops_per_sec"), (int, float)))
    calib = (snapshot.get("calib_ops_per_sec")
             or (calibs[len(calibs) // 2] if calibs else None))
    lines = ["perfbench (schema %s, workload rev %s, python %s%s)"
             % (snapshot["schema"], snapshot["workload_rev"],
                snapshot.get("python", "?"),
                (", calib %.0f/s" % calib) if calib else "")]
    header = ("  %-18s %9s %9s %11s %13s %10s"
              % ("scenario", "ops", "wall s", "ops/wall-s", "wall/sim-s",
                 "peak KB"))
    lines.append(header)
    for name, entry in snapshot["scenarios"].items():
        alloc = entry.get("alloc") or {}
        lines.append("  %-18s %9d %9.3f %11.1f %13.4f %10s" % (
            name, entry["ops"], entry["wall_seconds"],
            entry["ops_per_wall_sec"], entry["wall_sec_per_sim_sec"],
            ("%.0f" % alloc["peak_kb"]) if alloc else "-"))
    speedup = snapshot.get("speedup")
    if speedup:
        lines.append("  speedup vs %s:"
                     % (snapshot.get("reference", {}).get("path") or "reference"))
        for name, factor in speedup.items():
            lines.append("    %-18s %.2fx" % (name, factor))
    return "\n".join(lines)


def load_snapshot(path: str) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def save_snapshot(snapshot: Dict[str, object], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=False)
        handle.write("\n")
