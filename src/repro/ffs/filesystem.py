"""The conventional FFS: static inode tables and name-only directories.

Operation sequences under ``SYNC_METADATA`` follow 4.4BSD:

- create: write the initialized inode synchronously, *then* the
  directory block naming it (a name must never reference an
  uninitialized inode);
- unlink: write the directory block (name removal) synchronously,
  then the inode with its dropped link count, then — at "inactive"
  time — the cleared inode as the file's storage is reclaimed;
- bitmaps and size/mtime updates are always delayed (fsck rebuilds
  free maps; timestamps carry no ordering requirement).

C-FFS collapses the create/delete pairs to single writes; the paper's
Section 4 quantifies exactly that difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.blockdev.device import BLOCK_SIZE, BlockDevice
from repro.cache.buffercache import BufferCache
from repro.cache.policy import MetadataPolicy
from repro.clock import CpuModel
from repro.errors import (
    CorruptFileSystem,
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    NotADirectory,
)
from repro.ffs import directory as dirfmt
from repro.ffs import layout, mapping
from repro.ffs.alloc import GroupedAllocator
from repro.ffs.base import BlockFileSystem, OrderToken
from repro.ffs.inode import Inode
from repro.journal import Journal, default_journal_blocks, timed_replay
from repro.vfs.stat import FileKind, StatResult

ROOT_INUM = 1


@dataclass
class FFSConfig:
    """Tunable parameters of the baseline."""

    blocks_per_cg: int = 2048          # 8 MB cylinder groups
    inodes_per_cg: int = 1024
    small_file_spread: int = 6         # rotational spreading of new files
    policy: MetadataPolicy = MetadataPolicy.SYNC_METADATA
    cache_blocks: int = 4096           # 16 MB buffer cache
    file_readahead_blocks: int = 0     # FS-level sequential prefetch (off)
    journal_blocks: Optional[int] = None  # None = auto-size (journal policy)

    @property
    def itable_blocks(self) -> int:
        return (self.inodes_per_cg + layout.INODES_PER_BLOCK - 1) // layout.INODES_PER_BLOCK

    @property
    def data_start(self) -> int:
        """cg-relative offset of the first data block."""
        return 2 + self.itable_blocks


class _DirIndex:
    """In-memory name cache for one directory (a kernel dnlc analogue).

    Holds name -> (inum, kind, block index) plus per-block free-space
    estimates.  The on-disk entries are authoritative; the index fills
    *incrementally* — a lookup scans directory blocks only until its
    name appears, the way a real lookup walks the directory, and only
    absence checks (create, link, rename targets) force a full scan.
    All scan costs (disk reads, per-entry CPU) are charged.
    """

    __slots__ = ("names", "block_free", "scanned_blocks", "complete")

    def __init__(self) -> None:
        self.names: Dict[str, Tuple[int, int, int]] = {}
        self.block_free: Dict[int, int] = {}
        self.scanned_blocks = 0
        self.complete = False


class FFS(BlockFileSystem):
    """The baseline Fast File System."""

    name = "ffs"

    def __init__(self, device: BlockDevice, config: FFSConfig,
                 cache: Optional[BufferCache] = None) -> None:
        cache = cache if cache is not None else BufferCache(device, config.cache_blocks)
        super().__init__(
            cache, CpuModel(device.clock), config.policy,
            file_readahead_blocks=config.file_readahead_blocks,
        )
        self.device = device
        self.config = config
        self.sb: Dict[str, int] = {}
        self.alloc: GroupedAllocator = None  # type: ignore[assignment]
        self._icache: Dict[int, Inode] = {}
        self._dir_index: Dict[int, _DirIndex] = {}
        self.cache.flush_companions = self._flush_companions

    # ------------------------------------------------------------------ mkfs/mount

    @classmethod
    def mkfs(cls, device: BlockDevice, config: Optional[FFSConfig] = None) -> "FFS":
        """Initialize a fresh file system and return it mounted."""
        config = config if config is not None else FFSConfig()
        fs = cls(device, config)
        total = device.total_blocks
        # A journal policy carves its log region out of the post-cg tail
        # (just before the superblock replica); other policies keep the
        # historical layout byte-for-byte.
        jb = 0
        if config.policy.is_journal:
            jb = (config.journal_blocks if config.journal_blocks is not None
                  else default_journal_blocks(total))
        if jb:
            n_cgs = (total - 2 - jb) // config.blocks_per_cg
        else:
            n_cgs = (total - 1) // config.blocks_per_cg
        if n_cgs < 1:
            raise InvalidArgument("device too small for one cylinder group")
        journal_start = 1 + n_cgs * config.blocks_per_cg if jb else 0
        data_per_cg = config.blocks_per_cg - config.data_start
        fs.sb = {
            "magic": layout.FFS_MAGIC,
            "version": 1,
            "total_blocks": total,
            "n_cgs": n_cgs,
            "blocks_per_cg": config.blocks_per_cg,
            "inodes_per_cg": config.inodes_per_cg,
            "itable_blocks": config.itable_blocks,
            "data_start": config.data_start,
            "root_inum": ROOT_INUM,
            "next_gen": 1,
            "free_blocks": n_cgs * data_per_cg,
            "free_inodes": n_cgs * config.inodes_per_cg,
            "journal_start": journal_start,
            "journal_blocks": jb,
        }
        fs._build_allocator()
        if jb:
            Journal.format(device, journal_start, jb)
        fs._attach_crash_consistency(journal_start, jb)
        for cgi in range(n_cgs):
            base = fs.cg_base(cgi)
            desc = fs.cache.create(base)
            bmap = fs.cache.create(base + 1)
            # Mark the metadata blocks (descriptor, bitmap, inode table)
            # used in the bitmap.
            for off in range(config.data_start):
                bmap.data[off >> 3] |= 1 << (off & 7)
            desc.data[:] = layout.pack_cg(
                data_per_cg, config.inodes_per_cg, config.data_start, 0
            )
            fs.cache.mark_dirty(base)
            fs.cache.mark_dirty(base + 1)
        # Root directory: inode 1 in group 0, no data blocks yet.
        root_inum = fs.alloc.alloc_inode(0)
        if root_inum != ROOT_INUM:
            raise CorruptFileSystem("root inode landed at %d" % root_inum)
        root = Inode(root_inum)
        root.init_as(layout.MODE_DIR, gen=fs._next_gen(), mtime=device.clock.now)
        fs._icache[root_inum] = root
        fs._istore_inode(root, sync=False)
        fs._write_back_metadata()
        fs.cache.sync()
        return fs

    @classmethod
    def mount(cls, device: BlockDevice, config: Optional[FFSConfig] = None) -> "FFS":
        """Mount an existing file system (reads and validates block 0).

        Without an explicit ``config`` the geometry is derived from the
        superblock, so any valid image mounts."""
        if config is None:
            probe = layout.unpack_superblock(device.peek_block(0))
            if probe["magic"] != layout.FFS_MAGIC:
                raise CorruptFileSystem(
                    "bad superblock magic 0x%x" % probe["magic"]
                )
            config = FFSConfig(
                blocks_per_cg=probe["blocks_per_cg"],
                inodes_per_cg=probe["inodes_per_cg"],
            )
        # Replay the journal (if the volume carries one) before the first
        # cache fill, so the cache only ever sees post-replay state.
        # This IS the fast remount path: a sequential log read plus one
        # batched home write, instead of a full fsck walk.
        probe_sb = layout.unpack_superblock(device.peek_block(0))
        if probe_sb["magic"] == layout.FFS_MAGIC and probe_sb["journal_start"]:
            timed_replay(device, probe_sb["journal_start"],
                         probe_sb["journal_blocks"])
        fs = cls(device, config)
        sb = layout.unpack_superblock(bytes(fs.cache.get(0).data))
        if sb["magic"] != layout.FFS_MAGIC:
            raise CorruptFileSystem("bad superblock magic 0x%x" % sb["magic"])
        if sb["blocks_per_cg"] != config.blocks_per_cg or sb["inodes_per_cg"] != config.inodes_per_cg:
            raise CorruptFileSystem("superblock geometry disagrees with config")
        fs.sb = sb
        fs._build_allocator()
        fs._attach_crash_consistency(sb["journal_start"], sb["journal_blocks"])
        return fs

    def _build_allocator(self) -> None:
        self.alloc = GroupedAllocator(
            self.cache,
            n_cgs=self.sb["n_cgs"],
            blocks_per_cg=self.sb["blocks_per_cg"],
            inodes_per_cg=self.sb["inodes_per_cg"],
            data_start=self.sb["data_start"],
            cg_base_of=self.cg_base,
            counts=self.sb,
        )

    # ------------------------------------------------------------------ geometry

    def cg_base(self, cgi: int) -> int:
        return 1 + cgi * self.sb["blocks_per_cg"]

    def cg_of_inum(self, inum: int) -> int:
        return (inum - 1) // self.sb["inodes_per_cg"]

    def _inode_location(self, inum: int) -> Tuple[int, int]:
        """(inode table block, slot) of an inode."""
        cgi, within = divmod(inum - 1, self.sb["inodes_per_cg"])
        bno = self.cg_base(cgi) + 2 + within // layout.INODES_PER_BLOCK
        return bno, within % layout.INODES_PER_BLOCK

    def _next_gen(self) -> int:
        gen = self.sb["next_gen"]
        self.sb["next_gen"] = (gen + 1) & 0xFFFF
        return gen or 1

    # ------------------------------------------------------------------ inodes

    def _iget(self, inum: int) -> Inode:
        inode = self._icache.get(inum)
        if inode is None:
            bno, slot = self._inode_location(inum)
            # The static inode-table fetch: the per-file metadata request
            # embedded inodes eliminate (visible as fs.inode_fetch spans).
            with obs.span("fs", "inode_fetch", inum=inum):
                buf = self.cache.get(bno)
            raw = bytes(buf.data[slot * layout.INODE_SIZE:(slot + 1) * layout.INODE_SIZE])
            inode = Inode.unpack(inum, raw)
            self._icache[inum] = inode
        return inode

    def _istore_inode(self, inode: Inode, sync: bool,
                      requires: Tuple = ()) -> OrderToken:
        bno, slot = self._inode_location(inode.inum)
        buf = self.cache.get(bno)
        buf.data[slot * layout.INODE_SIZE:(slot + 1) * layout.INODE_SIZE] = inode.pack()
        if sync:
            return self._meta_write(bno, requires)
        self.cache.mark_dirty(bno)
        return None

    def _istore(self, handle: Inode, sync_op: bool = False,
                requires: Tuple = ()) -> OrderToken:
        return self._istore_inode(handle, sync=sync_op, requires=requires)

    def _file_id(self, handle: Inode) -> int:
        return handle.inum

    def _metadata_block_of(self, handle: Inode) -> int:
        return self._inode_location(handle.inum)[0]

    # ------------------------------------------------------------------ allocation hooks

    def _alloc_data_block(self, handle: Inode, idx: int) -> int:
        pref_cg = self.cg_of_inum(handle.inum)
        if handle.is_dir:
            # Directories stay dense near the cylinder-group metadata.
            return self.alloc.alloc_block(pref_cg, pref_offset=self.sb["data_start"])
        if idx == 0:
            # First block of a file: rotationally spread placement.
            bno = self.alloc.alloc_block(pref_cg, spread=self.config.small_file_spread)
        else:
            prev = mapping.bmap_lookup(self.cache, handle, idx - 1)
            if prev:
                prev_cg = self.alloc.cg_of_block(prev)
                offset = prev - self.cg_base(prev_cg) + 1
                bno = self.alloc.alloc_block(prev_cg, pref_offset=offset)
            else:
                bno = self.alloc.alloc_block(pref_cg)
        return bno

    def _alloc_meta_block(self, handle: Inode) -> int:
        return self.alloc.alloc_block(self.cg_of_inum(handle.inum))

    def _free_file_block(self, handle: Inode, bno: int) -> None:
        self.alloc.free_block(bno)

    # ------------------------------------------------------------------ directories

    def _index_for(self, dirh: Inode) -> _DirIndex:
        index = self._dir_index.get(dirh.inum)
        if index is None:
            index = _DirIndex()
            self._dir_index[dirh.inum] = index
        return index

    def _scan_until(self, dirh: Inode, index: _DirIndex,
                    name: Optional[str] = None) -> None:
        """Scan directory blocks into the index, stopping early once
        ``name`` is found; ``name=None`` scans to the end."""
        nblocks = dirh.size // BLOCK_SIZE
        entries_seen = 0
        while index.scanned_blocks < nblocks:
            blk = index.scanned_blocks
            data = self._dir_block(dirh, blk)
            for entry_name, inum, kind in dirfmt.live_entries(data):
                index.names[entry_name] = (inum, kind, blk)
                entries_seen += 1
            index.block_free[blk] = dirfmt.free_bytes(data)
            index.scanned_blocks += 1
            if name is not None and name in index.names:
                break
        if index.scanned_blocks >= nblocks:
            index.complete = True
        self.cpu.charge_dirent_scan(entries_seen)

    def _find_entry(self, dirh: Inode, name: str) -> Optional[Tuple[int, int, int]]:
        """The index entry for ``name``, scanning as far as needed."""
        index = self._index_for(dirh)
        entry = index.names.get(name)
        if entry is None and not index.complete:
            self._scan_until(dirh, index, name)
            entry = index.names.get(name)
        return entry

    def _complete_index(self, dirh: Inode) -> _DirIndex:
        """The fully-scanned index (needed for absence checks)."""
        index = self._index_for(dirh)
        if not index.complete:
            self._scan_until(dirh, index)
        return index

    def _dir_block(self, dirh: Inode, blk: int) -> bytearray:
        bno = mapping.bmap_lookup(self.cache, dirh, blk)
        if bno == 0:
            raise CorruptFileSystem(
                "directory %d has a hole at block %d" % (dirh.inum, blk)
            )
        return self.cache.get(bno, logical=(dirh.inum, blk)).data

    def _dir_block_bno(self, dirh: Inode, blk: int) -> int:
        bno = mapping.bmap_lookup(self.cache, dirh, blk)
        if bno == 0:
            raise CorruptFileSystem(
                "directory %d has a hole at block %d" % (dirh.inum, blk)
            )
        return bno

    def _dir_add_entry(self, dirh: Inode, name: str, inum: int, kind: int,
                       requires: Tuple = ()) -> OrderToken:
        index = self._complete_index(dirh)
        needed = layout.dirent_size(len(name.encode("utf-8")))
        target_blk = None
        for blk, free in index.block_free.items():
            if free >= needed:
                target_blk = blk
                break
        if target_blk is None:
            target_blk = self._grow_directory(dirh)
        bno = self._dir_block_bno(dirh, target_blk)
        data = self.cache.get(bno, logical=(dirh.inum, target_blk)).data
        # reprolint: disable=J001 -- add_entry mutates only when it returns True; the False path raises over an untouched block
        if not dirfmt.add_entry(data, inum, kind, name):
            raise CorruptFileSystem("free-space accounting disagrees with block")
        token = self._meta_write(bno, requires)
        index.names[name] = (inum, kind, target_blk)
        index.block_free[target_blk] = dirfmt.free_bytes(data)
        dirh.mtime = self.device.clock.now
        self._istore_inode(dirh, sync=False)
        return token

    def _grow_directory(self, dirh: Inode) -> int:
        blk = dirh.size // BLOCK_SIZE
        bno, created = mapping.bmap_ensure(
            self.cache, dirh, blk,
            alloc_data=lambda: self._alloc_data_block(dirh, blk),
            alloc_meta=lambda: self._alloc_meta_block(dirh),
        )
        buf = self.cache.create(bno, logical=(dirh.inum, blk))
        buf.data[:] = dirfmt.init_block()
        # Ordering: the initialized directory block reaches disk before
        # the inode's grown size exposes it to the lookup path.
        init_token = self._meta_write(bno)
        if created:
            dirh.nblocks += 1
        dirh.size += BLOCK_SIZE
        self._istore_inode(dirh, sync=True, requires=(init_token,))
        index = self._dir_index.get(dirh.inum)
        if index is not None:
            index.block_free[blk] = dirfmt.free_bytes(buf.data)
            if index.complete:
                index.scanned_blocks = blk + 1
        return blk

    def _dir_remove_entry(self, dirh: Inode, name: str,
                          requires: Tuple = ()) -> Tuple[int, int, OrderToken]:
        entry = self._find_entry(dirh, name)
        index = self._index_for(dirh)
        if entry is None:
            raise FileNotFound("no entry %r" % name)
        inum, kind, blk = entry
        bno = self._dir_block_bno(dirh, blk)
        data = self.cache.get(bno, logical=(dirh.inum, blk)).data
        removed = dirfmt.remove_entry(data, name)
        # Seal before the consistency check: if the block disagrees with
        # the index, remove_entry still scrubbed *some* entry out of the
        # cached bytes, and the journal/soft-updates trackers must hear
        # about that mutation before the raise unwinds.  In a healthy
        # run removed == inum, so the order is unobservable.
        token = self._meta_write(bno, requires)
        if removed != inum:
            raise CorruptFileSystem("index and block disagree on %r" % name)
        del index.names[name]
        index.block_free[blk] = dirfmt.free_bytes(data)
        dirh.mtime = self.device.clock.now
        self._istore_inode(dirh, sync=False)
        return inum, kind, token

    # ------------------------------------------------------------------ VFS internals

    def _root_handle(self) -> Inode:
        return self._iget(ROOT_INUM)

    def _kind_of(self, handle: Inode) -> FileKind:
        return FileKind.DIRECTORY if handle.is_dir else FileKind.FILE

    def _lookup(self, dirh: Inode, name: str) -> Inode:
        with obs.span("fs", "lookup", name=name, embedded=False):
            entry = self._find_entry(dirh, name)
            if entry is None:
                raise FileNotFound("no entry %r in directory %d" % (name, dirh.inum))
            return self._iget(entry[0])

    def _create_file(self, dirh: Inode, name: str) -> Inode:
        with obs.span("fs", "create_node", name=name, embedded=False):
            index = self._complete_index(dirh)
            if name in index.names:
                raise FileExists("%r already exists" % name)
            inum = self.alloc.alloc_inode(self.cg_of_inum(dirh.inum))
            inode = Inode(inum)
            inode.init_as(layout.MODE_FILE, gen=self._next_gen(),
                          mtime=self.device.clock.now)
            self._icache[inum] = inode
            # Ordering: initialized inode reaches disk before the name.
            init_token = self._istore_inode(inode, sync=True)
            self._dir_add_entry(dirh, name, inum, layout.DT_FILE,
                                requires=(init_token,))
            return inode

    def _make_directory(self, dirh: Inode, name: str) -> Inode:
        index = self._complete_index(dirh)
        if name in index.names:
            raise FileExists("%r already exists" % name)
        inum = self.alloc.alloc_inode(self.cg_of_inum(dirh.inum), spread_dirs=True)
        inode = Inode(inum)
        inode.init_as(layout.MODE_DIR, gen=self._next_gen(), mtime=self.device.clock.now)
        self._icache[inum] = inode
        init_token = self._istore_inode(inode, sync=True)
        self._dir_add_entry(dirh, name, inum, layout.DT_DIR,
                            requires=(init_token,))
        return inode

    def _unlink(self, dirh: Inode, name: str) -> None:
        with obs.span("fs", "unlink_node", name=name, embedded=False):
            self._unlink_entry(dirh, name)

    def _unlink_entry(self, dirh: Inode, name: str) -> None:
        entry = self._find_entry(dirh, name)
        if entry is None:
            raise FileNotFound("no entry %r" % name)
        if entry[1] == layout.DT_DIR:
            raise IsADirectory("%r is a directory (use rmdir)" % name)
        inum, _, rm_token = self._dir_remove_entry(dirh, name)  # name removal first
        inode = self._iget(inum)
        inode.nlink -= 1
        self._istore_inode(inode, sync=True,          # dropped link count
                           requires=(rm_token,))
        if inode.nlink == 0:
            freed = self._release_all_blocks(inode)
            inode.clear()
            clear_token = self._istore_inode(         # "inactive" reclamation
                inode, sync=True, requires=(rm_token,))
            # Freed blocks stay quarantined until the cleared pointers
            # are on disk.
            self._gate_freed_blocks(freed, clear_token)
            self.alloc.free_inode(inum)
            self._icache.pop(inum, None)

    def _rmdir(self, dirh: Inode, name: str) -> None:
        entry = self._find_entry(dirh, name)
        if entry is None:
            raise FileNotFound("no entry %r" % name)
        if entry[1] != layout.DT_DIR:
            raise NotADirectory("%r is not a directory" % name)
        victim = self._iget(entry[0])
        victim_index = self._complete_index(victim)
        if victim_index.names:
            raise DirectoryNotEmpty("%r is not empty" % name)
        _, _, rm_token = self._dir_remove_entry(dirh, name)
        freed = self._release_all_blocks(victim)
        victim.clear()
        clear_token = self._istore_inode(victim, sync=True, requires=(rm_token,))
        self._gate_freed_blocks(freed, clear_token)
        self.alloc.free_inode(victim.inum)
        self._icache.pop(victim.inum, None)
        self._dir_index.pop(victim.inum, None)

    def _link(self, handle: Inode, dirh: Inode, name: str) -> None:
        index = self._complete_index(dirh)
        if name in index.names:
            raise FileExists("%r already exists" % name)
        handle.nlink += 1
        link_token = self._istore_inode(handle, sync=True)
        self._dir_add_entry(dirh, name, handle.inum, layout.DT_FILE,
                            requires=(link_token,))

    def _rename(self, src_dir: Inode, old: str, dst_dir: Inode, new: str) -> None:
        entry = self._find_entry(src_dir, old)
        if entry is None:
            raise FileNotFound("no entry %r" % old)
        inum, kind, _ = entry
        dst_index = self._complete_index(dst_dir)
        existing = dst_index.names.get(new)
        if existing is not None:
            if existing[0] == inum:
                return
            if kind == layout.DT_FILE and existing[1] == layout.DT_FILE:
                self._unlink(dst_dir, new)
            else:
                raise FileExists("%r already exists" % new)
        # New name first, then old-name removal: a crash leaves the file
        # reachable (possibly under both names), never lost.
        add_token = self._dir_add_entry(dst_dir, new, inum, kind)
        self._dir_remove_entry(src_dir, old, requires=(add_token,))

    def _stat_handle(self, handle: Inode) -> StatResult:
        return StatResult(
            kind=self._kind_of(handle),
            size=handle.size,
            nlink=handle.nlink,
            nblocks=handle.nblocks,
            file_id=handle.inum,
        )

    def _readdir(self, dirh: Inode) -> List[str]:
        names: List[str] = []
        nblocks = dirh.size // BLOCK_SIZE
        for blk in range(nblocks):
            data = self._dir_block(dirh, blk)
            for name, _, _ in dirfmt.live_entries(data):
                names.append(name)
        self.cpu.charge_dirent_scan(len(names))
        return names

    # ------------------------------------------------------------------ sync & caches

    def _write_back_metadata(self) -> None:
        sb_buf = self.cache.get(0)
        sb_buf.data[:] = layout.pack_superblock(self.sb)
        self.cache.mark_dirty(0)
        rb = layout.replica_block(
            self.sb["total_blocks"], self.sb["n_cgs"], self.sb["blocks_per_cg"])
        if rb is not None:
            # Replica in the post-cg tail: lets fsck recover a smashed
            # superblock.  Delayed write, refreshed with every sync.
            buf = self.cache.peek(rb)
            if buf is None:
                buf = self.cache.create(rb)
            buf.data[:] = sb_buf.data
            self.cache.mark_dirty(rb)
        self.alloc.store_descriptors()

    def _drop_private_caches(self) -> None:
        self._icache.clear()
        self._dir_index.clear()
        self._seq_state.clear()
        self.alloc.drop_mirrors()

    def _flush_companions(self, victim_bno: int) -> List[int]:
        """Cluster contiguous dirty blocks of the victim's file."""
        buf = self.cache.peek(victim_bno)
        if buf is None or buf.logical is None:
            return [victim_bno]
        fid, idx = buf.logical
        companions = [victim_bno]
        for direction in (1, -1):
            step = 1
            while step <= 64:
                sibling = self.cache.get_logical((fid, idx + direction * step))
                if (
                    sibling is None
                    or not sibling.dirty
                    or sibling.bno != victim_bno + direction * step
                ):
                    break
                companions.append(sibling.bno)
                step += 1
        return companions

    # ------------------------------------------------------------------ introspection

    def free_blocks(self) -> int:
        return self.sb["free_blocks"]

    def total_data_blocks(self) -> int:
        return self.sb["n_cgs"] * (self.sb["blocks_per_cg"] - self.sb["data_start"])

    def free_inodes(self) -> int:
        return self.sb["free_inodes"]


def make_ffs(
    profile=None,
    config: Optional[FFSConfig] = None,
    device: Optional[BlockDevice] = None,
) -> FFS:
    """Convenience factory: a fresh FFS on a fresh simulated disk.

    ``profile`` defaults to the paper's experimental platform (the
    Seagate ST31200).
    """
    if device is None:
        # make_ffs is a convenience factory that assembles the whole
        # stack; FFS proper never touches repro.disk.
        # reprolint: disable=L001 -- factory-only import of the disk profile; the fs layer itself stays above the device seam
        from repro.disk.profiles import SEAGATE_ST31200

        device = BlockDevice(profile if profile is not None else SEAGATE_ST31200)
    return FFS.mkfs(device, config)
