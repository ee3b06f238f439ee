"""Durable cross-shard operations: one record codec, one recovery pass.

Two cluster operations span shards that share no metadata ordering:
a **cross-shard rename** (:meth:`Cluster.rename_legs
<repro.cluster.core.Cluster.rename_legs>`) and a **shard evacuation**
(:mod:`repro.cluster.evacuate`).  Neither can be atomic, so each runs
as ordered legs, every leg durable (:func:`durable_write` /
:func:`durable_unlink`) before the next starts, behind CRC-sealed
records the destination shard writes under ``/.cluster`` through the
ordinary file system API — so their durability flows through whatever
crash-consistency machinery that shard mounts (sync metadata, soft
updates, or the write-ahead journal)::

    rename                                evacuation (source read-only)
    1. dst: write intent-NNNNNN           1. dst: write evac-NNNNNN
    2. dst: write the copy                2. dst: make the subtree's dirs
    3. src: unlink the source   (commit)  3. dst: write every file copy
    4. dst: unlink the intent  (cached)   4. dst: write adopt-<top> (commit)
                                          5. dst: unlink the evac (cached)
                                          6. router: reassign the top

The two differ only in which leg commits: a rename's source can be
unlinked, a read-only evacuation source cannot, so its commit moves
to the destination's adopt record.  :func:`recover` applies one rule
table to every record it finds::

    record  committed when            undo (not committed)        redo (committed)
    intent  its source path is gone   drop the destination copy,  nothing
                                      unless a committed rename
                                      claims that path
    evac    a valid adopt-<top> is    remove the partial subtree  nothing (see adopt)
            on the same shard
    adopt   it is valid (the commit)  -                           clear the stale source
                                                                  once it is writable,
                                                                  then drop the record

A torn or garbled record is discarded: every record is durable before
the leg it guards starts, so a torn one guarded nothing.  At every
media-write boundary the cluster thus holds exactly one intact copy
(the crash sweeps in ``tests/test_cluster.py`` and
``tests/test_cluster_chaos.py`` kill both protocols at every landed
media write and check exactly that).
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Tuple

from repro.errors import DiskError, FileSystemError, ReproError
from repro.vfs import FileKind

#: Per-shard directory holding cluster-private state (the records).
#: Created at shard attach time; hidden from facade root listings.
CLUSTER_DIR = "/.cluster"

#: Record kind -> (magic line, field names in record order).
_KINDS = {
    "intent": ("repro-cluster-intent/1", ("src_shard", "src", "dst")),
    "evac": ("repro-cluster-evac/1", ("src_shard", "top", "files", "bytes")),
    "adopt": ("repro-cluster-adopt/1", ("top", "src_shard")),
}
_INT_FIELDS = frozenset({"src_shard", "files", "bytes"})

def record_path(kind: str, key) -> str:
    """``/.cluster/<kind>-<key>``: a six-digit sequence number, or the
    subtree's top-level name for an adopt record."""
    return "%s/%s-%s" % (CLUSTER_DIR, kind,
                         key if kind == "adopt" else "%06d" % key)


def encode_record(kind: str, **fields) -> bytes:
    """Serialize one record: magic line, ``key=value`` lines, CRC line."""
    magic, names = _KINDS[kind]
    raw = (magic + "\n" + "".join("%s=%s\n" % (name, fields[name])
                                   for name in names)).encode("utf-8")
    return raw + ("crc=%08x\n" % zlib.crc32(raw)).encode("ascii")


def decode_record(kind: str, data: bytes) -> Optional[dict]:
    """A ``kind`` record's typed fields; None when torn, garbled, or of
    another kind."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    head, sep, tail = text.rpartition("crc=")
    if not sep or not tail.endswith("\n"):
        return None
    try:
        if zlib.crc32(head.encode("utf-8")) != int(tail.strip(), 16):
            return None
    except ValueError:
        return None
    magic, names = _KINDS[kind]
    lines = head.splitlines()
    if len(lines) != len(names) + 1 or lines[0] != magic:
        return None
    fields: dict = {}
    for line in lines[1:]:
        key, sep, value = line.partition("=")
        if not sep:
            return None
        fields[key] = value
    if set(fields) != set(names):
        return None
    try:
        for name in _INT_FIELDS.intersection(names):
            fields[name] = int(fields[name])
    except ValueError:
        return None
    return fields


def _listing(fs) -> List[str]:
    """The sorted names under a shard's ``/.cluster`` (none if absent)."""
    if not fs.exists(CLUSTER_DIR):
        return []
    return sorted(fs.readdir(CLUSTER_DIR))


def _names(listing: List[str], kind: str) -> List[str]:
    """The ``kind`` record names in a ``/.cluster`` listing."""
    return [name for name in listing if name.startswith(kind + "-")]


def _read(fs, kind: str, name: str) -> Optional[dict]:
    """One record's fields; None when torn.  An adopt record whose body
    names another top than its file name is torn too."""
    fields = decode_record(kind, fs.read_file("%s/%s" % (CLUSTER_DIR, name)))
    if kind == "adopt" and fields is not None and \
            fields["top"] != name[len("adopt-"):]:
        return None
    return fields


def adopted_tops(fs) -> Dict[str, int]:
    """Valid adopt records on a shard: top -> source shard id."""
    out: Dict[str, int] = {}
    for name in _names(_listing(fs), "adopt"):
        fields = _read(fs, "adopt", name)
        if fields is not None:
            out[fields["top"]] = fields["src_shard"]
    return out


def subtree_manifest(fs, root: str) -> Tuple[List[str], List[str]]:
    """(directories, files) under ``root``, both sorted, root included
    in the directory list.  Deterministic: the evacuator's copy order.
    """
    dirs: List[str] = []
    files: List[str] = []
    stack = [root]
    while stack:
        path = stack.pop()
        dirs.append(path)
        children = []
        for name in sorted(fs.readdir(path)):
            child = "%s/%s" % (path.rstrip("/"), name)
            if fs.stat(child).kind is FileKind.DIRECTORY:
                children.append(child)
            else:
                files.append(child)
        stack.extend(reversed(children))
    return sorted(dirs), sorted(files)


def _remove_tree(fs, root: str) -> None:
    """Remove ``root`` and everything under it (bottom-up)."""
    dirs, files = subtree_manifest(fs, root)
    for path in files:
        fs.unlink(path)
    for path in reversed(dirs):
        fs.rmdir(path)


def durable_write(fs, path: str, data: bytes) -> None:
    """Write ``path`` and make it durable — contents *and* name.

    Under sync-metadata the name and inode are on disk when
    ``write_file`` returns, so an ``fsync`` of the data blocks is all
    the durability the protocol needs — the whole point of keeping the
    rename legs off the full-``sync`` hammer, which would drag every
    concurrent client's dirty data into the rename's critical path.
    Delayed/journaled policies defer metadata with cross-buffer
    ordering rules this module must not second-guess, so they take the
    conservative full sync.
    """
    fs.write_file(path, data)
    if fs.policy.is_sync:
        fd = fs.open(path)
        try:
            fs.fsync(fd)
        finally:
            fs.close(fd)
    else:
        fs.sync()


def durable_unlink(fs, path: str) -> None:
    """Unlink ``path`` and make the removal durable (see above)."""
    fs.unlink(path)
    if not fs.policy.is_sync:
        fs.sync()


def _rolled(kind: str, fields: Optional[dict],
            committed: bool) -> Tuple[int, str]:
    tag = "" if kind == "intent" else "evac_"
    if fields is None:
        return -1, tag + "discarded"
    return fields["src_shard"], tag + ("rolled_forward" if committed
                                       else "rolled_back")


def recover(filesystems: Dict[int, object]) -> List[Tuple[int, str]]:
    """Roll every ``/.cluster`` record on every shard back or forward.

    ``filesystems`` maps shard id -> mounted file system, after each
    shard was repaired and remounted.  Returns ``(src_shard, outcome)``
    pairs — every shard's renames (``rolled_back``, ``rolled_forward``,
    ``discarded`` with shard -1), then every shard's evacuations (the
    same with an ``evac_`` prefix, plus ``evac_source_cleared``).
    Each shard a pass touched is synced; a second run over the
    converged cluster is a no-op.
    """
    sids = sorted(filesystems)
    outcomes: List[Tuple[int, str]] = []
    for sid in sids:
        fs = filesystems[sid]
        intents = []
        # A committed rename claims its destination path: an older
        # stale intent for the same path that wants to roll back must
        # not delete the only replica.
        claimed = set()
        for name in _names(_listing(fs), "intent"):
            fields = _read(fs, "intent", name)
            if fields is not None:
                src_fs = filesystems.get(fields["src_shard"])
                if src_fs is None:
                    raise ReproError("intent %s names unknown source shard %d"
                                     % (name, fields["src_shard"]))
                if not src_fs.exists(fields["src"]):
                    claimed.add(fields["dst"])
            intents.append(("%s/%s" % (CLUSTER_DIR, name), fields))
        for path, fields in intents:
            done = fields is not None and \
                not filesystems[fields["src_shard"]].exists(fields["src"])
            if fields is not None and not done and \
                    fields["dst"] not in claimed and fs.exists(fields["dst"]):
                fs.unlink(fields["dst"])
            fs.unlink(path)
            outcomes.append(_rolled("intent", fields, done))
        if intents:
            fs.sync()
    for sid in sids:
        fs = filesystems[sid]
        listing = _listing(fs)
        touched = False
        adopted: Dict[str, int] = {}
        for name in _names(listing, "adopt"):
            fields = _read(fs, "adopt", name)
            if fields is None:
                fs.unlink("%s/%s" % (CLUSTER_DIR, name))
                outcomes.append(_rolled("evac", None, False))
                touched = True
            else:
                adopted[fields["top"]] = fields["src_shard"]
        for name in _names(listing, "evac"):
            fields = _read(fs, "evac", name)
            done = fields is not None and fields["top"] in adopted
            if fields is not None and not done and \
                    fs.exists("/" + fields["top"]):
                _remove_tree(fs, "/" + fields["top"])
            fs.unlink("%s/%s" % (CLUSTER_DIR, name))
            outcomes.append(_rolled("evac", fields, done))
            touched = True
        for top, src_sid in sorted(adopted.items()):
            if src_sid not in filesystems:
                continue
            src_fs = filesystems[src_sid]
            if src_fs.exists("/" + top):
                # The deferred source unlink: while the source still
                # refuses writes, the adopt record keeps masking it.
                try:
                    _remove_tree(src_fs, "/" + top)
                    src_fs.sync()
                except (DiskError, FileSystemError):
                    continue
                outcomes.append((src_sid, "evac_source_cleared"))
            fs.unlink(record_path("adopt", top))
            touched = True
        if touched:
            fs.sync()
    return outcomes


__all__ = [
    "CLUSTER_DIR",
    "adopted_tops",
    "decode_record",
    "durable_unlink",
    "durable_write",
    "encode_record",
    "record_path",
    "recover",
    "subtree_manifest",
]
