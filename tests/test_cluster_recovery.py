"""Durable cross-shard operations under combined and repeated crashes.

The single-protocol sweeps (``tests/test_cluster.py`` for rename,
``tests/test_cluster_chaos.py`` for evacuation) cut power inside one
operation.  Three claims are pinned here on top of them:

- **Interleaving** — a cross-shard rename followed by an evacuation
  of either of its two shards, killed at every landed media write,
  still recovers to exactly one intact copy of the renamed file, on
  the shard the rebuilt assignment table names, with its sibling
  untouched.
- **Recovery is itself crash-safe** — power cut again at every media
  write recovery lands, then recovered once more, keeps the same
  exactly-one-copy invariant (the double crash).
- **Recovery explains itself** — every outcome is counted into a
  ``cluster.recover.<outcome>`` metric.
- **Recovery's writes do not drift** — the blocks recovery lands, in
  order and byte for byte, are pinned by a digest.
"""

import hashlib

import pytest

from repro.cache.policy import MetadataPolicy
from repro.cluster import HealthState, encode_record, record_path
from repro.faults.harness import crash_images
from tests.conftest import assert_one_copy, remount_cluster, sharded_pair

SYNC = MetadataPolicy.SYNC_METADATA
FILE = b"interleaved" * 500
KEEP = b"sibling" * 300
#: Sync metadata in the default run, the delayed policies under slow.
POLICIES = [pytest.param(policy, id=policy.value,
                         marks=() if policy is SYNC else pytest.mark.slow)
            for policy in MetadataPolicy]


def populated(policy):
    """``/a/f`` and ``/b/keep`` on the two shards of a recording pair."""
    cluster, devices = sharded_pair(policy)
    fs = cluster.fs
    fs.mkdir("/a")
    fs.write_file("/a/f", FILE)
    fs.mkdir("/b")
    fs.write_file("/b/keep", KEEP)
    fs.sync()
    assert cluster.router.assignments["a"] != cluster.router.assignments["b"]
    return cluster, devices


def rename(cluster):
    cluster.fs.rename("/a/f", "/b/f")
    cluster.fs.sync()


def evacuate(cluster, top):
    """Demote the shard owning ``top`` and drain it."""
    sid = cluster.router.assignments[top]
    cluster.health.mark(sid, HealthState.READ_ONLY, "demoted")
    cluster.evacuate(sid)
    cluster.fs.sync()


def check_converged(cluster, where):
    assert_one_copy(cluster, ("/a/f", "/b/f"), FILE, where)
    assert_one_copy(cluster, ("/b/keep",), KEEP, where)
    assert cluster.recover() == [], "%s: recovery did not converge" % where


class TestRenameThenEvacuate:
    @pytest.mark.parametrize("victim", ["a", "b"], ids=["src", "dst"])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_every_crash_point_keeps_exactly_one_copy(self, policy, victim):
        cluster, devices = populated(policy)

        def workload():
            rename(cluster)
            evacuate(cluster, victim)

        outcomes = set()
        for k, images in crash_images(devices, workload):
            where = "%s, /%s drained, crash point %d" % (
                policy.value, victim, k)
            recovered = remount_cluster(images, policy, where)
            outcomes.update(action for _, action in recovered.recover())
            check_converged(recovered, where)
        # Both protocols were cut on both sides of their commit points.
        assert {"rolled_back", "rolled_forward", "evac_rolled_back",
                "evac_rolled_forward"} <= outcomes


WORKLOADS = {"rename": rename, "evacuate": lambda c: evacuate(c, "b")}


def double_crash(workload, stride):
    """Crash ``workload`` at every ``stride``-th media write, then crash
    the recovery at every ``stride``-th write *it* lands; every twice-
    crashed cluster must still recover to one intact copy.  Returns
    the number of inner crash points checked."""
    cluster, devices = populated(SYNC)
    inner_points = 0
    for k, images in crash_images(devices, lambda: workload(cluster),
                                  stride):
        first = remount_cluster(images, SYNC, "crash point %d" % k,
                                record=True)
        proxies = [shard.device for shard in first.shards]
        for j, inner in crash_images(proxies, first.recover, stride):
            where = "crash point %d, recovery crash point %d" % (k, j)
            recovered = remount_cluster(inner, SYNC, where)
            recovered.recover()
            check_converged(recovered, where)
            inner_points += 1
    return inner_points


class TestDoubleCrash:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_strided_crash_during_recovery(self, name):
        assert double_crash(WORKLOADS[name], stride=5) > 10

    @pytest.mark.slow
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_every_crash_during_recovery(self, name):
        assert double_crash(WORKLOADS[name], stride=1) > 100


class TestRecoveryWrites:
    #: SHA-256 prefix of every sampled crash point's outcomes and the
    #: (block, bytes) stream recovery landed on each shard.
    DIGEST = "32f74d0a4fae6801"

    def test_recovery_writes_are_pinned(self):
        cluster, devices = populated(SYNC)

        def workload():
            rename(cluster)
            evacuate(cluster, "a")

        digest = hashlib.sha256()
        for k, images in crash_images(devices, workload, stride=4):
            recovered = remount_cluster(images, SYNC, "crash point %d" % k,
                                        record=True)
            outcomes = recovered.recover()
            journals = [shard.device.journal for shard in recovered.shards]
            digest.update(repr((k, outcomes, journals)).encode())
        assert digest.hexdigest()[:16] == self.DIGEST


class TestRecoveryCounters:
    def test_each_outcome_is_counted(self):
        cluster, _ = populated(SYNC)
        sid_a = cluster.router.assignments["a"]
        dst = cluster.shards[cluster.router.assignments["b"]].fs
        cluster.fs.write_file("/b/g", b"committed copy")
        dst.write_file("/b/f", b"partial copy")
        dst.write_file(record_path("intent", 1), b"torn")
        dst.write_file(record_path("intent", 2), encode_record(
            "intent", src_shard=sid_a, src="/a/f", dst="/b/f"))
        dst.write_file(record_path("intent", 3), encode_record(
            "intent", src_shard=sid_a, src="/a/gone", dst="/b/g"))
        assert cluster.recover() == [(-1, "discarded"),
                                     (sid_a, "rolled_back"),
                                     (sid_a, "rolled_forward")]
        snap = cluster.metrics.snapshot()
        assert snap["cluster.recover.discarded"] == 1
        assert snap["cluster.recover.rolled_back"] == 1
        assert snap["cluster.recover.rolled_forward"] == 1
        assert not dst.exists("/b/f")
        assert cluster.fs.read_file("/b/g") == b"committed copy"
        assert cluster.fs.read_file("/a/f") == FILE
