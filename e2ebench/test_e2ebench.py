"""The benchmark's own tests, on tiny sizes of every workload.

Run from the repository root::

    python3 -m pytest e2ebench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
import scenarios  # noqa: E402
from layers import LAYERS, read_spans  # noqa: E402
from repro.blockdev.device import BLOCK_SIZE  # noqa: E402
from repro.cluster import Cluster  # noqa: E402
from repro.core.filesystem import CFFS  # noqa: E402
from repro.errors import FileNotFound  # noqa: E402
from repro.ffs.filesystem import FFS  # noqa: E402
from repro.vfs.interface import FileSystem  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = ["--seed", "1", "--seconds", "0"]


@pytest.fixture
def tiny_command(monkeypatch):
    """The command, with every workload's full size set to its tiny one."""
    for sizes in scenarios.SIZES.values():
        monkeypatch.setitem(sizes, "full", sizes["tiny"])


def _main(argv, capsys):
    code = bench.main(argv)
    captured = capsys.readouterr()
    return code, captured.out.strip().splitlines(), captured.err


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload, capsys,
                                                     tiny_command):
    code, lines, _err = _main(["--workload", workload, "--trace", "0"] + TINY,
                              capsys)
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["metrics"]["success_rate"]["value"] == 1.0
    assert any(line.startswith("sim_op_p99_ms from") for line in lines)
    assert any(line.startswith("fingerprint %s" % workload) for line in lines)


@pytest.fixture(scope="module")
def traced():
    """One tiny traced run per workload, shared by the trace tests."""
    out = {}
    for workload in WORKLOADS:
        runner = bench.Runner(workload, 1, 0, "tiny")
        result = runner.trace()
        out[workload] = {name: value for name, (value, _unit)
                         in result["metrics"].items()}
        out[workload]["_units"] = {name: unit for name, (_value, unit)
                                   in result["metrics"].items()}
    return out


def test_traced_run_prints_every_per_layer_metric(traced):
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload in WORKLOADS:
        assert traced[workload]["_units"] == expected


def test_self_fractions_sum_to_one(traced):
    for workload in WORKLOADS:
        m = traced[workload]
        total = sum(m["%s.self_frac" % layer] for layer in LAYERS)
        assert total + m["bench.self_frac"] == pytest.approx(1.0, abs=1e-9)
        assert all(m["%s.self_frac" % layer] >= 0 for layer in LAYERS)


def test_layer_readings_match_the_design(traced):
    small, churn, cluster = (traced[w] for w in
                             ("smallfile_cold", "churn_journal",
                              "cluster_zipf"))
    assert small["core.self_frac"] == max(
        small["%s.self_frac" % layer] for layer in LAYERS)
    assert churn["core.self_frac"] == 0 and churn["core.calls_per_op"] == 0
    assert churn["journal.commits"] > 0
    assert small["journal.commits"] == cluster["journal.commits"] == 0
    assert small["engine.events_per_op"] == 0
    cluster_keys = [k for k in small if k.startswith("cluster.")]
    for other in (small, churn):
        assert all(other[k] == 0 for k in cluster_keys)
    for key in ("cluster.routes_per_op", "cluster.cross_shard_renames",
                "cluster.self_frac"):
        assert cluster[key] > 0
    for m in traced.values():
        assert m["trace.overhead_frac"] != 0
        assert m["obs.tracer_slowdown"] > 0


def test_spans_are_written_out(traced):
    header, arrays = read_spans(os.path.join(bench.SPAN_DIR,
                                             "spans-cluster_zipf.bin"))
    assert header["workload"] == "cluster_zipf"
    assert header["count"] == len(arrays["end"]) > 0
    layers = {layer for _name, layer in header["functions"]}
    assert layers == set(LAYERS)
    assert all(e >= s for s, e in zip(arrays["start"], arrays["end"]))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_repeats_simulated_figures_and_fingerprint(workload):
    sim = ("sim_ops_per_s", "sim_op_p50_ms", "sim_op_p99_ms")
    first = bench.Runner(workload, 5, 0, "tiny")
    again = bench.Runner(workload, 5, 0, "tiny")
    other = bench.Runner(workload, 6, 0, "tiny")
    a, b = first.measure(min_reps=1), again.measure(min_reps=1)
    other.measure(min_reps=1)
    assert [a["metrics"][n] for n in sim] == [b["metrics"][n] for n in sim]
    assert first.fingerprint == again.fingerprint
    assert other.fingerprint != first.fingerprint


@pytest.mark.parametrize("workload", WORKLOADS)
def test_setup_stays_outside_the_timed_region(workload, monkeypatch):
    runner = bench.Runner(workload, 1, 0, "tiny")
    seen = []

    def spy(label, fn):
        def wrapper(*args, **kwargs):
            seen.append((label, runner.timing))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(CFFS, "mkfs", classmethod(spy("mkfs",
                                                      CFFS.mkfs.__func__)))
    monkeypatch.setattr(FFS, "mkfs", classmethod(spy("mkfs",
                                                     FFS.mkfs.__func__)))
    monkeypatch.setattr(Cluster, "__init__", spy("cluster", Cluster.__init__))
    for name in ("build_client_ops", "postmark_ops", "_stamp_payload"):
        monkeypatch.setattr(scenarios, name,
                            spy("script", getattr(scenarios, name)))
    monkeypatch.setattr(FileSystem, "sync", spy("sync", FileSystem.sync))
    runner.measure(min_reps=1)
    outside = {label for label, timing in seen if not timing}
    inside = {label for label, timing in seen if timing}
    expected = {"mkfs", "script"} | (
        {"cluster"} if workload == "cluster_zipf" else set())
    assert expected <= outside
    # The timed region holds the workload and its closing syncs only.
    assert inside == {"sync"}


def _poke_block_holding(devices, data: bytes) -> None:
    """Overwrite the first block on ``devices`` whose contents are ``data``."""
    block = data + bytes(BLOCK_SIZE - len(data))
    for device in devices:
        for bno in range(device.total_blocks):
            if device.peek_block(bno) == block:
                device.poke_block(bno, b"\xa5" * BLOCK_SIZE)
                return
    raise AssertionError("no block holds the payload")


def _finished(workload: str):
    work = scenarios.make_workload(workload, 3, "tiny")
    stack = work.setup()
    outcome = work.run(stack)
    assert work.check(stack, outcome) == []
    return work, stack, outcome


@pytest.mark.parametrize("workload", WORKLOADS)
def test_gate_trips_on_one_overwritten_data_block(workload):
    work, stack, outcome = _finished(workload)
    if workload == "smallfile_cold":
        _poke_block_holding([stack["after_overwrite"]], stack["second"][0])
    elif workload == "churn_journal":
        _poke_block_holding(work.devices(stack), b"p" * BLOCK_SIZE)
    else:
        pop = stack[0]
        cfg = pop["cfg"]
        files, tops = work.model(cfg)
        top = sorted(tops)[0]
        _poke_block_holding([s.device for s in pop["cluster"].shards],
                            files["/%s/f0" % top])
    problems = work.check(stack, outcome)
    assert problems and any("read back" in p or "differ" in p
                            for p in problems)


def test_command_fails_loudly_on_a_broken_run(monkeypatch, capsys,
                                              tiny_command):
    real_run = scenarios.SmallFileCold.run

    def corrupting_run(self, stack):
        outcome = real_run(self, stack)
        _poke_block_holding([stack["after_overwrite"]], stack["second"][0])
        return outcome

    monkeypatch.setattr(scenarios.SmallFileCold, "run", corrupting_run)
    code, lines, err = _main(["--workload", "smallfile_cold", "--trace", "0"]
                             + TINY, capsys)
    assert code == 1
    assert not any(line.startswith("{") for line in lines)
    assert "gate: smallfile_cold" in err


def test_command_fails_when_one_read_raises(monkeypatch, capsys,
                                            tiny_command):
    victim = scenarios.make_workload("smallfile_cold", 1, "tiny")._inputs()[1][7]
    real_read = CFFS.read_file

    def read_file(self, path):
        if path == victim:
            raise FileNotFound(path)
        return real_read(self, path)

    monkeypatch.setattr(CFFS, "read_file", read_file)
    code, lines, err = _main(["--workload", "smallfile_cold", "--trace", "0"]
                             + TINY, capsys)
    assert code == 1
    assert not any(line.startswith("{") for line in lines)
    assert "1 of 1200 ops failed" in err


def test_calibration_helper_samples_and_stops():
    from calibrate import Calibrator

    with Calibrator(seconds=0.05) as calibrator:
        first, second = calibrator.sample(), calibrator.sample()
        helper = calibrator._proc
    assert first > 0 and second > 0
    assert helper.poll() is not None


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "smallfile_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
