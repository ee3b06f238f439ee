"""The benchmark's three workloads: inputs, stack, timed run, gate.

Each workload is a class with the same five steps:

- ``setup()`` builds everything the timed region needs from the seed:
  the generated inputs (paths, payloads, op scripts), a freshly made
  file system on every device, the engine or cluster around them;
- ``run(stack)`` is the timed region and returns an :class:`Outcome`;
- ``fingerprint(stack)`` digests the simulated behaviour of the run;
- ``counters(stack)`` reads the public counters the per-layer metrics
  need;
- ``check(stack, outcome)`` is the correctness gate and returns a list
  of problems (empty when the run is correct).

The program only ever sees the generated paths, payloads and scripts;
the seed stays in this file.  Every check reads the program's state
after the timed region, through its public API; the one exception is
:func:`clone_device`, which copies a device's block map.
"""

from __future__ import annotations

import bisect
import hashlib
import random
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.blockdev.device import BlockDevice
from repro.cache.policy import MetadataPolicy
from repro.cluster import Cluster, TrafficConfig
from repro.cluster.traffic import ZipfSampler, build_client_ops
from repro.core.filesystem import CFFS
from repro.disk.profiles import SEAGATE_ST31200
from repro.engine.client import Engine
from repro.errors import ReproError
from repro.ffs.filesystem import FFS, FFSConfig
from repro.fsck.checker import fsck_cffs, fsck_ffs
from repro.workloads.configs import build_filesystem
from repro.workloads.opscript import postmark_ops

FILE_SIZE = 4096

#: Workload sizes.  ``full`` is what the benchmark measures; ``tiny``
#: exists for the benchmark's own tests.
SIZES = {
    "smallfile_cold": {
        # 8000 x 4 KB is about twice the 4096-block buffer cache, so
        # the create phase evicts.
        "full": {"files": 8000, "dirs": 8},
        "tiny": {"files": 300, "dirs": 8},
    },
    "churn_journal": {
        "full": {"clients": 8, "files": 100, "transactions": 300},
        "tiny": {"clients": 8, "files": 40, "transactions": 100},
    },
    "cluster_zipf": {
        "full": {"shards": 4, "populations": 4, "clients": 1000, "ops": 3,
                 "dirs": 64},
        "tiny": {"shards": 4, "populations": 2, "clients": 200, "ops": 3,
                 "dirs": 64},
    },
}


@dataclass
class Outcome:
    """What one timed run did, in the terms the metrics need."""

    attempted: int
    failed: int
    #: Simulated seconds per completed op.
    latencies: List[float]
    #: Simulated seconds the timed region covered, closing syncs included.
    sim_seconds: float


def _stamp_payload(stamp: bytes, size: int) -> bytes:
    return (stamp * (size // len(stamp) + 1))[:size]


def _digest(parts: Sequence[object]) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(repr(part).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()[:32]


_DISK_FIELDS = ("reads", "writes", "sectors_read", "sectors_written",
                "cache_hits", "write_absorbed", "seek_time", "rotation_time",
                "transfer_time", "overhead_time", "bus_time", "stall_time")
_QUEUE_FIELDS = ("submitted", "completed", "retried", "failed",
                 "total_queue_delay", "max_depth", "depth_area", "busy_time",
                 "span")


def device_fingerprint(device: BlockDevice) -> list:
    """Disk counters, time accumulators and contents of one device."""
    stats = device.disk.stats
    return ([(name, getattr(stats, name)) for name in _DISK_FIELDS]
            + [("clock", device.clock.now),
               ("content", device.content_digest())])


def queue_fingerprint(queue) -> list:
    return [(name, getattr(queue.stats, name)) for name in _QUEUE_FIELDS]


def disk_totals(devices: Sequence[BlockDevice]) -> Dict[str, float]:
    """DiskStats counters summed over ``devices``."""
    return {name: sum(getattr(d.disk.stats, name) for d in devices)
            for name in _DISK_FIELDS}


def queue_totals(queues: Sequence) -> Dict[str, float]:
    return {name: sum(getattr(q.stats, name) for q in queues)
            for name in ("completed", "total_queue_delay", "depth_area")}


def clone_device(device: BlockDevice) -> BlockDevice:
    """An independent copy of ``device``'s contents on a fresh drive.

    Equivalent to ``save_image`` followed by ``load_image``, without
    the compression round trip through a file.
    """
    copy = BlockDevice(device.disk.profile)
    copy._blocks = dict(device._blocks)
    return copy


def fsck_problems(label: str, report) -> List[str]:
    if report.errors or report.repairs or report.warnings:
        return ["%s: fsck not clean: %s" % (
            label, "; ".join(report.errors + report.repairs
                             + report.warnings)[:500])]
    return []


def cache_totals(caches: Sequence) -> Dict[str, int]:
    return {name: sum(getattr(c, name) for c in caches)
            for name in ("hits", "misses", "evictions")}


# ---------------------------------------------------------------------------
# smallfile_cold: the paper's four-phase small-file benchmark.
# ---------------------------------------------------------------------------

_NAME_CHARS = "abcdefghijklmnopqrstuvwxyz0123456789_"
PHASES = ("create", "read", "overwrite", "delete")


class SmallFileCold:
    """Section 4.2: create, read, overwrite, delete; cold between phases.

    C-FFS with embedded inodes, explicit grouping and synchronous
    metadata; 4 KB files spread evenly over the directories, in an
    interleaved creation order as ``repro.workloads.smallfile`` uses.
    The seed draws that interleaving, the file names (their lengths
    change directory packing) and the payload bytes; the
    overwrite payload differs from the create payload, so each phase's
    read-back proves which data is on disk.  A read that returns other
    bytes counts as a failed op.
    """

    name = "smallfile_cold"

    def __init__(self, seed: int, files: int, dirs: int) -> None:
        self.seed = seed
        self.n_files = files
        self.n_dirs = dirs

    def _inputs(self):
        rng = random.Random(self.seed)
        dirs = ["/bench/d%d" % d for d in range(self.n_dirs)]
        # Equal shares per directory, in a seeded interleaving.
        owner = [i % self.n_dirs for i in range(self.n_files)]
        rng.shuffle(owner)
        paths = []
        for i in range(self.n_files):
            stem = "".join(rng.choice(_NAME_CHARS)
                           for _ in range(rng.randint(3, 24)))
            paths.append("%s/%s.%d" % (dirs[owner[i]], stem, i))
        first = [_stamp_payload(b"%d:c:%d|" % (self.seed, i), FILE_SIZE)
                 for i in range(self.n_files)]
        second = [_stamp_payload(b"%d:o:%d|" % (self.seed, i), FILE_SIZE)
                  for i in range(self.n_files)]
        return dirs, paths, first, second

    def setup(self):
        dirs, paths, first, second = self._inputs()
        fs = build_filesystem("cffs", MetadataPolicy.SYNC_METADATA)
        fs.mkdir("/bench")
        for d in dirs:
            fs.mkdir(d)
        fs.sync()
        fs.drop_caches()
        return {"fs": fs, "dirs": dirs, "paths": paths, "first": first,
                "second": second, "mismatches": 0, "after_overwrite": None}

    def run(self, stack) -> Outcome:
        """The four phases, each ending with a sync, caches dropped between.

        An op's latency is its own simulated time plus an equal share of
        its phase's closing write-back, so the latencies of a phase add
        up to the phase's time: the paper counts that write-back in each
        phase, and without it a phase's deferred writes would be missing
        from every op.
        """
        fs = stack["fs"]
        paths, first, second = stack["paths"], stack["first"], stack["second"]
        clock = fs.cache.device.clock
        latencies: List[float] = []
        failed = 0
        mismatches = 0
        start = clock.now
        for phase in PHASES:
            own: List[float] = []
            note = own.append
            for i, path in enumerate(paths):
                t0 = clock.now
                try:
                    if phase == "create":
                        fs.write_file(path, first[i])
                    elif phase == "read":
                        if fs.read_file(path) != first[i]:
                            mismatches += 1
                            failed += 1
                            continue
                    elif phase == "overwrite":
                        fs.write_file(path, second[i])
                    else:
                        fs.unlink(path)
                except ReproError:
                    failed += 1
                    continue
                note(clock.now - t0)
            t0 = clock.now
            fs.sync()
            share = (clock.now - t0) / len(own) if own else 0.0
            latencies += [lat + share for lat in own]
            if phase == "overwrite":
                # The image the overwrite left, for the gate to read back
                # after the timed region.  The copy itself is gate work
                # inside the timer: a dict copy of the block map.
                stack["after_overwrite"] = clone_device(fs.cache.device)
            fs.drop_caches()
        stack["mismatches"] = mismatches
        return Outcome(attempted=len(paths) * len(PHASES), failed=failed,
                       latencies=latencies, sim_seconds=clock.now - start)

    def devices(self, stack) -> List[BlockDevice]:
        return [stack["fs"].cache.device]

    def sim_clock(self, stack):
        return stack["fs"].cache.device.clock

    def fingerprint(self, stack) -> str:
        return _digest(device_fingerprint(stack["fs"].cache.device))

    def counters(self, stack) -> dict:
        return {"disk": disk_totals(self.devices(stack)),
                "cache": cache_totals([stack["fs"].cache]),
                "queue": None, "events": 0, "cluster": None}

    def check(self, stack, outcome: Outcome) -> List[str]:
        problems = []
        if stack["mismatches"]:
            problems.append("read phase: %d files did not read back their "
                            "created bytes" % stack["mismatches"])
        image = stack["after_overwrite"]
        problems += fsck_problems("after overwrite", fsck_cffs(image))
        if not problems:
            view = CFFS.mount(image)
            bad = sum(1 for path, data in zip(stack["paths"], stack["second"])
                      if _read_or_none(view, path) != data)
            if bad:
                problems.append("overwrite phase: %d files did not read back "
                                "their overwritten bytes" % bad)
        fs = stack["fs"]
        for d in stack["dirs"]:
            left = fs.readdir(d)
            if left:
                problems.append("delete phase: %s still lists %d names"
                                % (d, len(left)))
        problems += fsck_problems("final image", fsck_cffs(fs.cache.device))
        return problems


def _read_or_none(fs, path: str) -> Optional[bytes]:
    try:
        return fs.read_file(path)
    except ReproError:
        return None


# ---------------------------------------------------------------------------
# churn_journal: warm PostMark churn on journaled conventional FFS.
# ---------------------------------------------------------------------------


class ModelFS:
    """Dict model of the calls a ``postmark_ops`` script makes."""

    def __init__(self) -> None:
        self.files: Dict[str, bytes] = {}
        self._fds: Dict[int, str] = {}

    def write_file(self, path: str, data: bytes) -> None:
        self.files[path] = bytes(data)

    def read_file(self, path: str) -> bytes:
        return self.files[path]

    def stat(self, path: str):
        return _Stat(len(self.files[path]))

    def open(self, path: str, create: bool = False) -> int:
        if path not in self.files:
            if not create:
                raise KeyError(path)
            self.files[path] = b""
        fd = len(self._fds) + 3
        self._fds[fd] = path
        return fd

    def pwrite(self, fd: int, offset: int, data: bytes) -> int:
        path = self._fds[fd]
        old = self.files[path]
        if offset > len(old):
            old += bytes(offset - len(old))
        self.files[path] = old[:offset] + data + old[offset + len(data):]
        return len(data)

    def close(self, fd: int) -> None:
        del self._fds[fd]

    def unlink(self, path: str) -> None:
        del self.files[path]


@dataclass
class _Stat:
    size: int


def _logging(fn: Callable, log: List[int]) -> Callable:
    """Wrap a read op so the CRC of what it returned is kept."""
    def op(fs):
        data = fn(fs)
        log.append(zlib.crc32(data))
        return data
    return op


class ChurnJournal:
    """Eight engine clients of PostMark churn on journaled FFS.

    Conventional ``repro.ffs.FFS`` with ``JOURNAL_METADATA``.  Each
    client runs its own seeded ``postmark_ops`` script (pool creation,
    then reads, appends, creates and deletes) in its own directory;
    the working set stays well inside the buffer cache, so the cache
    runs warm and metadata reaches the disk through group commit.
    """

    name = "churn_journal"

    def __init__(self, seed: int, clients: int, files: int,
                 transactions: int) -> None:
        self.seed = seed
        self.n_clients = clients
        self.n_files = files
        self.n_transactions = transactions

    def _script(self, cid: int):
        return postmark_ops("/churn/c%d" % cid, n_files=self.n_files,
                            n_transactions=self.n_transactions,
                            min_size=512, max_size=8192,
                            seed=self.seed * 1000 + cid)

    def setup(self):
        device = BlockDevice(SEAGATE_ST31200)
        fs = FFS.mkfs(device, FFSConfig(policy=MetadataPolicy.JOURNAL_METADATA))
        engine = Engine(fs, scheduler="clook")
        clients = [engine.add_client() for _ in range(self.n_clients)]

        def make_dirs(f):
            f.mkdir("/churn")
            for cid in range(self.n_clients):
                f.mkdir("/churn/c%d" % cid)
            f.sync()

        engine.run_sync(make_dirs)
        logs: Dict[int, List[int]] = {}
        scripts = {}
        for client in clients:
            log = logs[client.cid] = []
            scripts[client] = [
                (label, _logging(fn, log) if label == "read" else fn)
                for label, fn in self._script(client.cid)]
        return {"fs": fs, "engine": engine, "clients": clients,
                "scripts": scripts, "logs": logs}

    def run(self, stack) -> Outcome:
        engine = stack["engine"]
        start = engine.now
        engine.run_phase(stack["scripts"], "churn")
        engine.run_sync(lambda f: f.sync())
        return _engine_outcome(stack["clients"], engine.now - start)

    def devices(self, stack) -> List[BlockDevice]:
        return [stack["fs"].cache.device]

    def sim_clock(self, stack):
        return stack["fs"].cache.device.clock

    def fingerprint(self, stack) -> str:
        return _digest(device_fingerprint(stack["fs"].cache.device)
                       + queue_fingerprint(stack["engine"].queue))

    def counters(self, stack) -> dict:
        engine = stack["engine"]
        return {"disk": disk_totals(self.devices(stack)),
                "cache": cache_totals([stack["fs"].cache]),
                "queue": queue_totals([engine.queue]),
                "events": engine.loop.events_run, "cluster": None}

    def check(self, stack, outcome: Outcome) -> List[str]:
        problems: List[str] = []
        fs = stack["fs"]
        # Read back from the disk image, not from the warm cache.
        fs.drop_caches()
        for cid in range(self.n_clients):
            model = ModelFS()
            log: List[int] = []
            for label, fn in self._script(cid):
                (_logging(fn, log) if label == "read" else fn)(model)
            if log != stack["logs"][cid]:
                problems.append("client %d: reads returned other bytes than "
                                "the model's" % cid)
            where = "/churn/c%d" % cid
            names = sorted(fs.readdir(where))
            expect = sorted(p.rsplit("/", 1)[1] for p in model.files)
            if names != expect:
                problems.append("%s lists %d names, the model %d"
                                % (where, len(names), len(expect)))
                continue
            bad = sum(1 for path, data in model.files.items()
                      if _read_or_none(fs, path) != data)
            if bad:
                problems.append("%s: %d files differ from the model"
                                % (where, bad))
        problems += fsck_problems("final image", fsck_ffs(fs.cache.device))
        return problems


def _engine_outcome(clients, sim_seconds: float) -> Outcome:
    records = [r for c in clients for r in c.records]
    failed = [r for r in records if r.error is not None]
    return Outcome(attempted=len(records), failed=len(failed),
                   latencies=[r.latency for r in records if r.error is None],
                   sim_seconds=sim_seconds)


# ---------------------------------------------------------------------------
# cluster_zipf: Zipfian clients over a 4-shard C-FFS cluster.
# ---------------------------------------------------------------------------


def _zipf_cdf(n: int, theta: float) -> List[float]:
    total = 0.0
    cdf = []
    for rank in range(n):
        total += 1.0 / (rank + 1) ** theta
        cdf.append(total)
    return cdf


class ClusterZipf:
    """Zipf(0.9) clients over four C-FFS shards behind the util router.

    Every client issues three ops on top-level directories drawn by
    Zipf rank: 55% reads of a directory's seed files, 10% renames of
    one of its own files into another drawn directory (often across
    shards), 35% writes of files.  One repetition replays several
    independent client populations, each on its own freshly built
    cluster with its own sub-seed, and pools their ops: which hot
    directories land on which shard decides the queue drain time of a
    population, and pooling keeps that draw from dominating the run.
    Each population's file size is drawn from 3.75-4 KB, always one
    4 KB block.  Over half of this workload's ops are cached reads,
    whose simulated latency depends only on the file size; with every
    file exactly 4096 bytes the median op latency read 0.16150000000081377
    ms at every seed, a constant of the disk model rather than a
    measurement.
    Clusters, clients and op scripts are built before the timer; the
    timed region is the replays plus each cluster's closing sync.
    """

    name = "cluster_zipf"

    def __init__(self, seed: int, shards: int, populations: int,
                 clients: int, ops: int, dirs: int) -> None:
        rng = random.Random(seed)
        self.cfgs = [TrafficConfig(
            shards=shards, clients=clients, ops_per_client=ops, dirs=dirs,
            zipf_theta=0.9, read_fraction=0.55, rename_fraction=0.10,
            file_size=rng.randint(3840, FILE_SIZE), seed=rng.randrange(1 << 30),
            label="cffs", policy=MetadataPolicy.SYNC_METADATA,
            scheduler="clook", router="util") for _ in range(populations)]

    def setup(self):
        populations = []
        for cfg in self.cfgs:
            cluster = Cluster(n_shards=cfg.shards, label=cfg.label,
                              policy=cfg.policy, scheduler=cfg.scheduler,
                              router=cfg.router)
            sampler = ZipfSampler(cfg.dirs, cfg.zipf_theta)
            created: set = set()
            written: Dict[int, List[str]] = {}
            assignments = {}
            for cid in range(cfg.clients):
                client = cluster.add_client()
                written[cid] = []
                assignments[client] = build_client_ops(
                    cluster, cfg, cid, sampler, created, written[cid])
            populations.append({"cfg": cfg, "cluster": cluster,
                                "assignments": assignments,
                                "written": written})
        return populations

    def run(self, stack) -> Outcome:
        pooled = Outcome(attempted=0, failed=0, latencies=[], sim_seconds=0.0)
        for pop in stack:
            cluster = pop["cluster"]
            start = cluster.now
            cluster.run_phase(pop["assignments"], "traffic")
            cluster.sync_concurrent()
            one = _engine_outcome(cluster.clients, cluster.now - start)
            pooled.attempted += one.attempted
            pooled.failed += one.failed
            pooled.latencies += one.latencies
            pooled.sim_seconds += one.sim_seconds
        return pooled

    def sim_clock(self, stack):
        return stack[0]["cluster"].loop.clock

    def fingerprint(self, stack) -> str:
        parts: list = []
        for pop in stack:
            for shard in pop["cluster"].shards:
                parts += device_fingerprint(shard.device)
                parts += queue_fingerprint(shard.queue)
        return _digest(parts)

    def counters(self, stack) -> dict:
        shards = [s for pop in stack for s in pop["cluster"].shards]
        totals = {"routes": 0, "cross_shard_renames": 0, "retries": 0}
        shard_ops = []
        events = 0
        for pop in stack:
            cluster = pop["cluster"]
            metrics = cluster.metrics
            totals["routes"] += metrics.counter("cluster.router.routes").value
            totals["cross_shard_renames"] += metrics.counter(
                "cluster.rename.cross_shard").value
            totals["retries"] += metrics.counter(
                "cluster.retry.attempts").value
            shard_ops.append([metrics.counter("cluster.%s.ops" % s.name).value
                              for s in cluster.shards])
            events += cluster.loop.events_run
        totals["shard_ops"] = shard_ops
        return {"disk": disk_totals([s.device for s in shards]),
                "cache": cache_totals([s.fs.cache for s in shards]),
                "queue": queue_totals([s.queue for s in shards]),
                "events": events, "cluster": totals}

    @staticmethod
    def model(cfg: TrafficConfig) -> Tuple[Dict[str, bytes], set]:
        """The namespace one population must leave, derived from its seed.

        Re-draws every client's random choices the way the traffic
        model specifies them and tracks each client's own files through
        writes and renames.  Returns (path -> bytes, directories made).
        """
        cdf = _zipf_cdf(cfg.dirs, cfg.zipf_theta)
        total = cdf[-1]
        files: Dict[str, bytes] = {}
        tops: set = set()
        for cid in range(cfg.clients):
            rng = random.Random(cfg.seed * 1000003 + cid)
            mine: List[str] = []

            def draw() -> str:
                return "d%03d" % bisect.bisect_left(cdf, rng.random() * total)

            for k in range(cfg.ops_per_client):
                top = draw()
                roll = rng.random()
                if roll < cfg.rename_fraction:
                    other = draw()
                    pick = rng.random()
                    if mine:
                        old = mine.pop(int(pick * len(mine)) % len(mine))
                        new = "/%s/%s" % (other, old.rsplit("/", 1)[1])
                        files[new] = files.pop(old)
                        mine.append(new)
                        tops.add(other)
                        continue
                elif roll < cfg.rename_fraction + cfg.read_fraction:
                    rng.randrange(64)
                    tops.add(top)
                    continue
                path = "/%s/c%04d_%02d" % (top, cid, k)
                files[path] = _stamp_payload(b"c%d.%d|" % (cid, k),
                                             cfg.file_size)
                mine.append(path)
                tops.add(top)
        for top in tops:
            for s in range(cfg.seed_files):
                files["/%s/f%d" % (top, s)] = _stamp_payload(
                    b"%s.f%d|" % (top.encode(), s), cfg.file_size)
        return files, tops

    def check(self, stack, outcome: Outcome) -> List[str]:
        problems: List[str] = []
        for n, pop in enumerate(stack):
            problems += ["population %d: %s" % (n, p)
                         for p in self._check_one(pop)]
        return problems

    def _check_one(self, pop) -> List[str]:
        cluster = pop["cluster"]
        problems: List[str] = []
        for shard in cluster.shards:
            problems += fsck_problems(shard.name, fsck_cffs(shard.device))
        files, tops = self.model(pop["cfg"])
        written = {p for paths in pop["written"].values() for p in paths}
        expected_written = {p for p in files
                            if not p.rsplit("/", 1)[1].startswith("f")}
        if written != expected_written:
            problems.append("traffic tracked %d client files, the model %d"
                            % (len(written), len(expected_written)))
        facade = cluster.fs
        # Read back from the disk images, not from the warm caches.
        facade.drop_caches()
        listed = set(facade.readdir("/"))
        if listed != tops:
            problems.append("root lists %d directories, the model %d"
                            % (len(listed), len(tops)))
        names: Dict[str, set] = {}
        for path in files:
            top, base = path[1:].split("/", 1)
            names.setdefault(top, set()).add(base)
        for top in sorted(tops & listed):
            got = set(facade.readdir("/" + top))
            if got != names.get(top, set()):
                problems.append("/%s lists %d names, the model %d"
                                % (top, len(got), len(names.get(top, ()))))
        bad = sum(1 for path, data in files.items()
                  if _read_or_none(facade, path) != data)
        if bad:
            problems.append("%d of %d files did not read back their "
                            "generating payload" % (bad, len(files)))
        return problems


WORKLOADS = {
    "smallfile_cold": SmallFileCold,
    "churn_journal": ChurnJournal,
    "cluster_zipf": ClusterZipf,
}


def make_workload(name: str, seed: int, size: str = "full"):
    return WORKLOADS[name](seed, **SIZES[name][size])
