"""Shared fixtures: small simulated disks and file system factories.

Tests use a deliberately small drive (≈13 MB) and small cylinder
groups so mkfs and workloads run fast; the benchmark suite uses the
full ST31200 profile.
"""

from __future__ import annotations

import pytest

from repro.blockdev.device import BlockDevice
from repro.cache.policy import MetadataPolicy
from repro.cluster import Cluster
from repro.core.filesystem import CFFS, CFFSConfig
from repro.disk.profiles import DriveProfile
from repro.faults.proxy import FaultyBlockDevice
from repro.ffs.filesystem import FFS, FFSConfig
from repro.fsck import fsck_cffs

TEST_PROFILE = DriveProfile(
    name="TestDrive 13MB",
    year=1996,
    rpm=5400.0,
    heads=4,
    zone_table=((100, 40), (100, 24)),
    single_cyl_seek_ms=1.0,
    avg_seek_ms=8.0,
    full_seek_ms=16.0,
    command_overhead_ms=1.0,
    bus_mb_per_s=10.0,
    cache_segments=2,
    readahead_sectors=32,
    write_cache=True,
    write_buffer_kb=128,
)

TEST_PROFILE_PLAIN = TEST_PROFILE.with_overrides(
    name="TestDrive plain", write_cache=False, cache_segments=0, readahead_sectors=0
)


def make_device(profile: DriveProfile = TEST_PROFILE) -> BlockDevice:
    return BlockDevice(profile)


def make_ffs(policy: MetadataPolicy = MetadataPolicy.SYNC_METADATA, **overrides) -> FFS:
    config = FFSConfig(
        blocks_per_cg=512, inodes_per_cg=256, policy=policy, cache_blocks=512,
        **overrides,
    )
    return FFS.mkfs(make_device(), config)


def make_cffs(
    policy: MetadataPolicy = MetadataPolicy.SYNC_METADATA,
    embedded: bool = True,
    grouping: bool = True,
    **overrides,
) -> CFFS:
    config = CFFSConfig(
        blocks_per_cg=512,
        embedded_inodes=embedded,
        explicit_grouping=grouping,
        policy=policy,
        cache_blocks=512,
        **overrides,
    )
    return CFFS.mkfs(make_device(), config)


def shard_config(policy: MetadataPolicy) -> CFFSConfig:
    return CFFSConfig(blocks_per_cg=512, cache_blocks=512, policy=policy)


def sharded_pair(policy: MetadataPolicy = MetadataPolicy.SYNC_METADATA):
    """Two CFFS shards on journaling fault proxies, under one cluster."""
    devices = [FaultyBlockDevice(make_device(), record_journal=True)
               for _ in range(2)]
    filesystems = [CFFS.mkfs(device, shard_config(policy))
                   for device in devices]
    return Cluster(filesystems=filesystems, router="util"), devices


def remount_cluster(images, policy: MetadataPolicy, where: str = "",
                    record: bool = False) -> Cluster:
    """fsck-repair every crash image (each must come back pristine),
    remount it under ``policy`` — over a journaling fault proxy when
    ``record`` — and rebuild a cluster over the shards."""
    mounted = []
    for image in images:
        fsck_cffs(image, repair=True)
        report = fsck_cffs(image)
        assert report.pristine, ("%s unrepairable: %s" % (
            where, "; ".join(report.errors + report.repairs)))
        device = (FaultyBlockDevice(image, record_journal=True) if record
                  else image)
        mounted.append(CFFS.mount(device, shard_config(policy)))
    return Cluster(filesystems=mounted, router="util")


def assert_one_copy(cluster: Cluster, paths, data: bytes,
                    where: str = "") -> None:
    """Exactly one intact copy among ``paths`` across every shard, on
    the shard the rebuilt assignment table names, which is also the
    only shard holding that path's top-level directory."""
    owners = cluster.rebuild_assignments()
    copies = [(shard.sid, path) for shard in cluster.shards
              for path in paths if shard.fs.exists(path)]
    assert len(copies) == 1, "%s: copies of %s at %s" % (
        where, "/".join(paths), copies or "no shard")
    sid, path = copies[0]
    top = path.split("/")[1]
    assert owners[top] == sid, (
        "%s: %s on s%d, assignment says s%d" % (where, path, sid, owners[top]))
    holders = [shard.sid for shard in cluster.shards
               if shard.fs.exists("/" + top)]
    assert holders == [sid], "%s: /%s on shards %s, expected only s%d" % (
        where, top, holders, sid)
    assert cluster.shards[sid].fs.read_file(path) == data, (
        "%s: surviving copy of %s corrupt" % (where, path))


@pytest.fixture
def device() -> BlockDevice:
    return make_device()


@pytest.fixture
def ffs() -> FFS:
    return make_ffs()


@pytest.fixture
def cffs() -> CFFS:
    return make_cffs()


@pytest.fixture(params=["ffs", "cffs", "cffs-conventional"])
def anyfs(request):
    """Every file system implementation, for shared-behaviour tests."""
    if request.param == "ffs":
        return make_ffs()
    if request.param == "cffs":
        return make_cffs()
    return make_cffs(embedded=False, grouping=False)
