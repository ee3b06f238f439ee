"""Tests for the ``repro perfbench`` harness and its CI gate.

The snapshot schema and the regression gate are what CI trusts, so
they get direct unit coverage on synthetic snapshots (fast, exact),
plus one real bounded run proving the harness produces a schema-valid
snapshot that passes its own gate against itself.
"""

from __future__ import annotations

import copy
import gc

import pytest

from repro.bench import perfbench as pb


def _entry(ops=1000, wall=0.5, sim=2.0, alloc_count=500):
    return {
        "description": "synthetic",
        "ops": ops,
        "wall_seconds": wall,
        "sim_seconds": sim,
        "ops_per_wall_sec": ops / wall,
        "wall_sec_per_sim_sec": wall / sim,
        "alloc": {
            "peak_kb": 128.0,
            "net_count": alloc_count,
            "net_kb": 64.0,
            "per_layer": {"cache": {"count": alloc_count, "kb": 64.0}},
        },
    }


def _snapshot(calib=1000.0, **entries):
    if not entries:
        entries = {"smallfile_create": _entry()}
    return {
        "schema": pb.SCHEMA,
        "workload_rev": pb.WORKLOAD_REV,
        "python": "3.11.0",
        "calib_ops_per_sec": calib,
        "scenarios": entries,
    }


class TestValidateSnapshot:
    def test_valid(self):
        assert pb.validate_snapshot(_snapshot()) == []

    def test_not_an_object(self):
        assert pb.validate_snapshot([1, 2]) == ["snapshot is not a JSON object"]

    def test_wrong_schema(self):
        snap = _snapshot()
        snap["schema"] = "something-else/9"
        assert any("schema" in p for p in pb.validate_snapshot(snap))

    def test_missing_workload_rev(self):
        snap = _snapshot()
        del snap["workload_rev"]
        assert any("workload_rev" in p for p in pb.validate_snapshot(snap))

    def test_empty_scenarios(self):
        snap = _snapshot()
        snap["scenarios"] = {}
        assert any("scenarios" in p for p in pb.validate_snapshot(snap))

    def test_negative_metric(self):
        snap = _snapshot(s=_entry(wall=-1.0))
        assert any("wall_seconds" in p for p in pb.validate_snapshot(snap))

    def test_missing_timing_key(self):
        snap = _snapshot()
        del snap["scenarios"]["smallfile_create"]["ops_per_wall_sec"]
        assert any("ops_per_wall_sec" in p for p in pb.validate_snapshot(snap))

    def test_malformed_alloc(self):
        snap = _snapshot()
        snap["scenarios"]["smallfile_create"]["alloc"] = {"peak_kb": "lots"}
        problems = pb.validate_snapshot(snap)
        assert any("alloc.peak_kb" in p for p in problems)
        assert any("per_layer" in p for p in problems)

    def test_alloc_optional(self):
        snap = _snapshot()
        del snap["scenarios"]["smallfile_create"]["alloc"]
        assert pb.validate_snapshot(snap) == []


class TestCheckSnapshot:
    def test_identical_passes(self):
        base = _snapshot()
        assert pb.check_snapshot(copy.deepcopy(base), base) == []

    def test_small_ops_dip_tolerated(self):
        base = _snapshot(s=_entry(ops=1000, wall=1.0))       # 1000 ops/s
        cur = _snapshot(s=_entry(ops=1000, wall=1.0 / 0.95))  # -5%
        assert pb.check_snapshot(cur, base) == []

    def test_large_ops_drop_fails(self):
        base = _snapshot(s=_entry(ops=1000, wall=1.0))   # 1000 ops/s
        cur = _snapshot(s=_entry(ops=1000, wall=1.25))   # 800 ops/s, -20%
        failures = pb.check_snapshot(cur, base)
        assert any("ops/sec regressed" in f for f in failures)

    def test_alloc_regression_fails(self):
        base = _snapshot(s=_entry(alloc_count=1000))
        cur = _snapshot(s=_entry(alloc_count=2000))
        failures = pb.check_snapshot(cur, base)
        assert any("allocation count regressed" in f for f in failures)

    def test_alloc_within_slack_passes(self):
        base = _snapshot(s=_entry(alloc_count=1000))
        cur = _snapshot(s=_entry(
            alloc_count=1000 + int(1000 * pb.ALLOC_TOLERANCE)))
        assert pb.check_snapshot(cur, base) == []

    def test_workload_rev_mismatch(self):
        base = _snapshot()
        cur = _snapshot()
        cur["workload_rev"] = pb.WORKLOAD_REV + 1
        failures = pb.check_snapshot(cur, base)
        assert failures and "workload_rev mismatch" in failures[0]

    def test_missing_scenario_fails(self):
        base = _snapshot()
        cur = _snapshot(other=_entry())
        failures = pb.check_snapshot(cur, base)
        assert any("missing from current run" in f for f in failures)

    def test_invalid_inputs_reported_before_comparison(self):
        failures = pb.check_snapshot({}, _snapshot())
        assert any(f.startswith("current snapshot invalid") for f in failures)

    def test_calibration_cancels_machine_speed(self):
        """A 2x slower machine halves scenario AND calib ops: passes."""
        base = _snapshot(calib=1000.0, s=_entry(ops=1000, wall=1.0))
        cur = _snapshot(calib=500.0, s=_entry(ops=1000, wall=2.0))
        assert pb.check_snapshot(cur, base) == []

    def test_calibration_exposes_real_regression(self):
        """Same machine speed, slower code: normalization cannot hide it."""
        base = _snapshot(calib=1000.0, s=_entry(ops=1000, wall=1.0))
        cur = _snapshot(calib=1000.0, s=_entry(ops=1000, wall=2.0))
        failures = pb.check_snapshot(cur, base)
        assert any("ops/sec regressed" in f for f in failures)
        # A faster machine with genuinely slower code still fails.
        cur_fast = _snapshot(calib=2000.0, s=_entry(ops=1000, wall=1.0))
        assert any("ops/sec regressed" in f
                   for f in pb.check_snapshot(cur_fast, base))

    def test_missing_calibration_falls_back_to_raw(self):
        base = _snapshot(s=_entry(ops=1000, wall=1.0))
        del base["calib_ops_per_sec"]
        cur = _snapshot(calib=500.0, s=_entry(ops=1000, wall=1.25))
        failures = pb.check_snapshot(cur, base)
        assert any("ops/sec regressed" in f for f in failures)

    def test_per_scenario_calibration_wins(self):
        base = _snapshot(calib=1000.0, s=_entry(ops=1000, wall=1.0))
        cur = _snapshot(calib=1000.0, s=_entry(ops=1000, wall=2.0))
        # The scenario ran in a 2x-slow window: its adjacent calib
        # score overrides the snapshot-level one and rescues the run.
        cur["scenarios"]["s"]["calib_ops_per_sec"] = 500.0
        assert pb.check_snapshot(cur, base) == []

    def test_per_scenario_tolerance_override(self):
        base = _snapshot(s=_entry(ops=1000, wall=1.0))
        base["scenarios"]["s"]["ops_tolerance"] = 0.30
        cur = _snapshot(s=_entry(ops=1000, wall=1.25))  # -20%
        assert pb.check_snapshot(cur, base) == []
        worse = _snapshot(s=_entry(ops=1000, wall=2.0))  # -50%
        assert any("ops/sec regressed" in f
                   for f in pb.check_snapshot(worse, base))
        base["scenarios"]["s"]["ops_tolerance"] = 2.0  # invalid
        assert any("ops_tolerance" in p
                   for p in pb.validate_snapshot(base))

    def test_bad_calibration_value_rejected(self):
        snap = _snapshot(calib=-3.0)
        assert any("calib_ops_per_sec" in p for p in pb.validate_snapshot(snap))
        snap = _snapshot()
        snap["scenarios"]["smallfile_create"]["calib_ops_per_sec"] = 0
        assert any("calib_ops_per_sec" in p for p in pb.validate_snapshot(snap))


class TestReferenceAndRendering:
    def test_attach_reference_computes_speedup(self):
        old = _snapshot(s=_entry(ops=1000, wall=1.0))   # 1000 ops/s
        new = _snapshot(s=_entry(ops=1000, wall=0.5))   # 2000 ops/s
        pb.attach_reference(new, old, ref_path="old.json")
        assert new["speedup"]["s"] == pytest.approx(2.0)
        assert new["reference"]["path"] == "old.json"
        assert new["reference"]["ops_per_wall_sec"]["s"] == pytest.approx(1000.0)

    def test_render_includes_scenarios_and_speedup(self):
        snap = _snapshot()
        pb.attach_reference(snap, _snapshot(), ref_path="base.json")
        text = pb.render_snapshot(snap)
        assert "smallfile_create" in text
        assert "speedup vs base.json" in text

    def test_layer_mapping(self):
        assert pb._layer_of("/x/src/repro/cache/buffercache.py") == "cache"
        assert pb._layer_of("/x/src/repro/clock.py") == "clock"
        assert pb._layer_of("/usr/lib/python3/json/decoder.py") == "other"

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError):
            pb.run_perfbench(["no_such_scenario"], repeats=1,
                             measure_alloc=False)


def _build_cyclic_garbage():
    """A tiny scenario: each run keeps a few lists and drops 200
    self-referencing dicts, garbage only the cyclic collector frees."""
    holder = {}

    def run():
        holder["kept"] = [[] for _ in range(8)]
        for _ in range(200):
            node = {}
            node["self"] = node

    return holder, run, 1


def test_alloc_count_independent_of_earlier_runs(monkeypatch):
    """Uncollected cycles are not retained allocations: the count is
    the same fresh and after earlier build/run cycles in the process."""
    scenario = pb.Scenario("cyclic_garbage", "200 dropped cycles per run",
                           _build_cyclic_garbage)
    monkeypatch.setitem(pb.SCENARIOS, scenario.name, scenario)
    gc.collect()
    fresh = pb._measure_alloc(scenario)["net_count"]
    for _ in range(3):
        _holder, run, _ops = scenario.build()
        run()
    primed = pb._measure_alloc(scenario)["net_count"]
    assert fresh == primed
    assert fresh < 200
    entry = pb.run_scenario(scenario.name, repeats=2)
    assert entry["alloc"]["net_count"] == fresh


def test_real_run_is_schema_valid_and_self_consistent():
    """One bounded real run: valid schema, passes its own gate."""
    snap = pb.run_perfbench(["smallfile_create"], repeats=1)
    assert pb.validate_snapshot(snap) == []
    assert pb.check_snapshot(copy.deepcopy(snap), snap) == []
    entry = snap["scenarios"]["smallfile_create"]
    assert entry["ops"] == 2500
    assert entry["sim_seconds"] > 0
    assert "per_layer" in entry["alloc"]
    assert entry["calib_ops_per_sec"] > 0
