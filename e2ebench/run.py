#!/usr/bin/env python3
"""The repository's end-to-end benchmark: one command per workload run.

    python3 e2ebench/run.py --workload smallfile_cold --seed 1 \\
        --seconds 20 --trace 0

Run from the repository root (the program is imported from ``src/``).
Each run builds a fresh stack from the seed, times the workload, checks
the outputs (the correctness gate) and repeats until ``--seconds`` of
timed work are done.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

- ``--trace 0`` reports the end-to-end metrics, measured untraced; the
  two host-time metrics are scaled by the host-speed samples of
  ``calibrate.py``.
- ``--trace 1`` reports the per-layer metrics.  It alternates three
  kinds of repetition: untraced, with an ``obs.Tracer`` installed, and
  with the layer wrappers of ``layers.py`` recording spans; the spans
  of the last wrapped repetition are written to ``.e2ebench/``.

A run whose gate finds a problem prints the problems to standard error
and exits 1 without a result.  See ``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPAN_DIR = os.path.join(ROOT, ".e2ebench")

WORKLOADS = ("smallfile_cold", "churn_journal", "cluster_zipf")

#: Every run times at least this many repetitions, whatever --seconds
#: says, and samples set-up at least MIN_SETUPS times.
MIN_REPS = 3
MIN_SETUPS = 7

#: Host-speed calibration samples are taken before the first repetition
#: and after every CALIBRATE_EVERY timed seconds (see calibrate.py).
CALIBRATE_EVERY = 2.0


class GateFailure(Exception):
    """The correctness gate rejected a run."""

    def __init__(self, problems: List[str]) -> None:
        super().__init__("; ".join(problems))
        self.problems = problems


@dataclass
class Rep:
    """One timed repetition."""

    wall: float
    outcome: object
    counters: Dict[str, float]

    @property
    def completed(self) -> int:
        return self.outcome.attempted - self.outcome.failed


def nearest_rank(sorted_values: List[float], q: float) -> float:
    """The q-quantile of ``sorted_values`` by the nearest-rank rule."""
    index = max(0, min(len(sorted_values) - 1,
                       -int(-q * len(sorted_values) // 1) - 1))
    return sorted_values[index]


def _flat(counters, prefix: str = "") -> Dict[str, float]:
    """Nested counter dicts and lists as one dict of dotted names."""
    if isinstance(counters, dict):
        items = counters.items()
    elif isinstance(counters, list):
        items = ((str(i), v) for i, v in enumerate(counters))
    elif counters is None:
        return {}
    else:
        return {prefix: counters}
    out: Dict[str, float] = {}
    for key, value in items:
        out.update(_flat(value, prefix + "." + key if prefix else key))
    return out


class Runner:
    """Runs one workload at one seed; ``timing`` is true inside the
    timed region only."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 size: str = "full") -> None:
        from scenarios import make_workload

        self.workload = make_workload(workload, seed, size)
        self.name = workload
        self.seed = seed
        self.seconds = seconds
        self.timing = False
        self.setup_times: List[float] = []
        self.fingerprint: Optional[str] = None
        self.reps: List[Rep] = []
        self.p99_samples = (0, 0)
        self.host: Dict[str, float] = {}

    # -- one repetition -------------------------------------------------------

    def setup(self):
        start = time.perf_counter()
        stack = self.workload.setup()
        self.setup_times.append(time.perf_counter() - start)
        return stack

    def rep(self, stack, enter: Callable[[], None] = lambda: None,
            leave: Callable[[], None] = lambda: None) -> Rep:
        """Time ``run`` on a ready stack, then fingerprint and gate it.

        ``enter`` and ``leave`` run just inside the timed region's
        edges (the traced modes switch their recorders there).  Every
        workload is built to run without a failed op, so any failed op
        fails the gate.  The first repetition of a run also goes
        through the workload's full correctness gate; every later one
        must reproduce its fingerprint, which digests every device's
        contents and counters, so it left the same, already checked,
        state.
        """
        work = self.workload
        before = _flat(work.counters(stack))
        gc.collect()
        enter()
        self.timing = True
        start = time.perf_counter()
        try:
            outcome = work.run(stack)
            wall = time.perf_counter() - start
        finally:
            self.timing = False
            leave()
        after = _flat(work.counters(stack))
        delta = {key: after[key] - before.get(key, 0) for key in after}
        fingerprint = work.fingerprint(stack)
        problems = []
        if outcome.failed:
            problems.append("%d of %d ops failed"
                            % (outcome.failed, outcome.attempted))
        if self.fingerprint is None:
            problems += work.check(stack, outcome)
            self.fingerprint = fingerprint
        elif fingerprint != self.fingerprint:
            problems.append("simulated behaviour moved between repetitions "
                            "of one seed: fingerprint %s, then %s"
                            % (self.fingerprint, fingerprint))
        if problems:
            raise GateFailure(problems)
        return Rep(wall, outcome, delta)

    # -- the two modes ------------------------------------------------------------

    def measure(self, min_reps: int = MIN_REPS) -> dict:
        """End-to-end metrics, tracing off.

        The two host-time metrics are scaled to the reference host
        speed by the calibration samples taken between repetitions
        (see ``calibrate.py``); ``self.host`` keeps the raw readings.
        """
        from calibrate import REFERENCE_SCORE, Calibrator

        reps: List[Rep] = []
        with Calibrator() as calibrator:
            calibrator.sample()
            unsampled = 0.0
            while (len(reps) < min_reps
                   or sum(r.wall for r in reps) < self.seconds):
                reps.append(self.rep(self.setup()))
                unsampled += reps[-1].wall
                if unsampled >= CALIBRATE_EVERY:
                    calibrator.sample()
                    unsampled = 0.0
            while len(self.setup_times) < MIN_SETUPS:
                self.setup()
            if unsampled:
                calibrator.sample()
        score = statistics.median(calibrator.samples)
        scale = score / REFERENCE_SCORE
        self.host = {
            "ops_per_wall_s": statistics.median(r.completed / r.wall
                                                for r in reps),
            "setup_s": statistics.median(self.setup_times),
            "calibration": score,
        }
        first = reps[0].outcome
        latencies = sorted(first.latencies)
        p99 = nearest_rank(latencies, 0.99)
        self.p99_samples = (len(latencies),
                            sum(1 for v in latencies if v > p99))
        if self.p99_samples[1] < 10:
            raise GateFailure(["only %d of %d latency samples lie above the "
                               "p99; it needs at least 10"
                               % self.p99_samples[::-1]])
        attempted = sum(r.outcome.attempted for r in reps)
        failed = sum(r.outcome.failed for r in reps)
        metrics = {
            "ops_per_wall_s": (self.host["ops_per_wall_s"] / scale, "ops/s"),
            "setup_s": (self.host["setup_s"] * scale, "s"),
            "sim_ops_per_s": (reps[0].completed / first.sim_seconds, "ops/s"),
            "sim_op_p50_ms": (nearest_rank(latencies, 0.5) * 1e3, "ms"),
            "sim_op_p99_ms": (p99 * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "success_rate": ((attempted - failed) / attempted, "fraction"),
        }
        self.reps = reps
        return {"attempted": attempted, "failed": failed, "metrics": metrics}

    def trace(self) -> dict:
        """Per-layer metrics: untraced, obs-traced and wrapper-traced."""
        from repro import obs
        from layers import LAYERS, LayerTracer

        plain: List[Rep] = []
        with_obs: List[Rep] = []
        wrapped: List[Rep] = []
        totals = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        roots = 0.0
        commits = 0.0
        layer_tracer = LayerTracer()
        while not wrapped or sum(
                r.wall for r in plain + with_obs + wrapped) < self.seconds:
            plain.append(self.rep(self.setup()))

            stack = self.setup()
            tracer = obs.Tracer(clock=self.workload.sim_clock(stack))
            with_obs.append(self.rep(stack, lambda: obs.install(tracer),
                                     obs.uninstall))
            commits = tracer.registry.counter("journal.commits").value
            del stack, tracer

            layer_tracer.install()
            try:
                stack = self.setup()
                layer_tracer.reset()

                def start() -> None:
                    layer_tracer.recording = True

                def stop() -> None:
                    layer_tracer.recording = False

                wrapped.append(self.rep(stack, start, stop))
            finally:
                layer_tracer.uninstall()
            del stack
            summary = layer_tracer.summary()
            for layer in LAYERS:
                totals[layer]["calls"] += summary[layer]["calls"]
                totals[layer]["self_s"] += summary[layer]["self_s"]
            roots += summary["spans"]["self_s"]
        layer_tracer.write(
            os.path.join(SPAN_DIR, "spans-%s.bin" % self.name),
            {"workload": self.name, "seed": self.seed,
             "wall_s": wrapped[-1].wall})

        reps = plain + with_obs + wrapped
        ops = wrapped[0].completed
        traced_wall = sum(r.wall for r in wrapped)
        plain_wall = statistics.median(r.wall for r in plain)
        c = plain[0].counters
        n_wrapped = len(wrapped)

        def per_op(value: float) -> float:
            return value / ops if ops else 0.0

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        def calls(layer: str) -> float:
            return per_op(totals[layer]["calls"] / n_wrapped)

        def share(layer: str) -> float:
            return totals[layer]["self_s"] / traced_wall

        sectors = c["disk.sectors_read"] + c["disk.sectors_written"]
        requests = c["disk.reads"] + c["disk.writes"]
        positioning = c["disk.seek_time"] + c["disk.rotation_time"]
        # Per cluster: (max - min) / mean of the ops routed to each shard.
        shard_ops: Dict[str, List[float]] = {}
        for key, value in c.items():
            if key.startswith("cluster.shard_ops."):
                shard_ops.setdefault(key.rsplit(".", 1)[0], []).append(value)
        imbalance = [ratio(max(routed) - min(routed), sum(routed) / len(routed))
                     for routed in shard_ops.values()]
        m = {
            "vfs.calls_per_op": (calls("vfs"), "calls/op"),
            "vfs.self_frac": (share("vfs"), "fraction"),
            "core.calls_per_op": (calls("core"), "calls/op"),
            "core.self_frac": (share("core"), "fraction"),
            "ffs.calls_per_op": (calls("ffs"), "calls/op"),
            "ffs.self_frac": (share("ffs"), "fraction"),
            "journal.commits": (commits, "count"),
            "journal.self_frac": (share("journal"), "fraction"),
            "cache.hit_ratio": (ratio(c["cache.hits"],
                                      c["cache.hits"] + c["cache.misses"]),
                                "fraction"),
            "cache.evictions_per_op": (per_op(c["cache.evictions"]),
                                       "blocks/op"),
            "cache.self_frac": (share("cache"), "fraction"),
            "blockdev.calls_per_op": (calls("blockdev"), "calls/op"),
            "blockdev.blocks_per_call": (
                ratio(sectors / 8.0, totals["blockdev"]["calls"] / n_wrapped),
                "blocks/call"),
            "blockdev.self_frac": (share("blockdev"), "fraction"),
            "disk.requests_per_op": (per_op(requests), "requests/op"),
            "disk.kb_per_request": (ratio(sectors / 2.0, requests),
                                    "KB/request"),
            "disk.positioning_frac": (
                ratio(positioning, positioning + c["disk.transfer_time"]),
                "fraction"),
            "disk.busy_sim_s": (
                positioning + c["disk.transfer_time"]
                + c["disk.overhead_time"] + c["disk.bus_time"], "s"),
            "disk.self_frac": (share("disk"), "fraction"),
            "engine.events_per_op": (per_op(c.get("events", 0)),
                                     "events/op"),
            "engine.queue_delay_ms": (
                ratio(c.get("queue.total_queue_delay", 0.0),
                      c.get("queue.completed", 0)) * 1e3, "ms"),
            "engine.queue_depth": (
                ratio(c.get("queue.depth_area", 0.0),
                      plain[0].outcome.sim_seconds), "requests"),
            "engine.self_frac": (share("engine"), "fraction"),
            "cluster.routes_per_op": (per_op(c.get("cluster.routes", 0)),
                                      "routes/op"),
            "cluster.cross_shard_renames": (
                c.get("cluster.cross_shard_renames", 0), "count"),
            "cluster.imbalance": (ratio(sum(imbalance), len(imbalance)),
                                  "fraction"),
            "cluster.retries": (c.get("cluster.retries", 0), "count"),
            "cluster.self_frac": (share("cluster"), "fraction"),
            "obs.calls_per_op": (calls("obs"), "calls/op"),
            "obs.self_frac": (share("obs"), "fraction"),
            "obs.tracer_slowdown": (
                plain_wall / statistics.median(r.wall for r in with_obs),
                "ratio"),
            "trace.overhead_frac": (
                statistics.median(r.wall for r in wrapped) / plain_wall - 1.0,
                "fraction"),
            "bench.self_frac": ((traced_wall - roots) / traced_wall,
                                "fraction"),
        }
        self.reps = reps
        return {"attempted": sum(r.outcome.attempted for r in reps),
                "failed": sum(r.outcome.failed for r in reps),
                "metrics": m}


def render(result: dict) -> dict:
    """The result line: exactly correct, attempted, failed, metrics."""
    return {
        "correct": True,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="End-to-end and per-layer benchmark of the C-FFS "
                    "reproduction.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed work per run (at least %d repetitions "
                             "run regardless)" % MIN_REPS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("error: the program's sources are missing (no %s)"
              % os.path.join(SRC, "repro"), file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from calibrate import REFERENCE_SCORE

    runner = Runner(args.workload, args.seed, args.seconds)
    try:
        result = runner.trace() if args.trace else runner.measure()
    except GateFailure as failure:
        for problem in failure.problems:
            print("gate: %s: %s" % (args.workload, problem), file=sys.stderr)
        return 1
    print("workload %s seed %d: %d repetitions, %d ops each"
          % (args.workload, args.seed, len(runner.reps),
             runner.reps[0].outcome.attempted))
    print("fingerprint %s seed %d: %s"
          % (args.workload, args.seed, runner.fingerprint))
    if not args.trace:
        samples, above = runner.p99_samples
        print("sim_op_p99_ms from %d samples, %d above it" % (samples, above))
        print("host: %.1f ops/s and %.4f s set-up as measured; calibration "
              "%.2f passes/s against the reference %.2f"
              % (runner.host["ops_per_wall_s"], runner.host["setup_s"],
                 runner.host["calibration"], REFERENCE_SCORE))
    for name, (value, unit) in result["metrics"].items():
        print("  %-28s %14.6g %s" % (name, value, unit))
    print(json.dumps(render(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
