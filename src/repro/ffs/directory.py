"""FFS directory block format: name -> inode number entries.

A directory data block is a chain of variable-length entries whose
record lengths tile the 4 KB block exactly (the 4.4BSD format).  An
entry with ``inum == 0`` is free space; removal merges the freed record
into its predecessor so live entries never move, which keeps cached
(block, offset) references stable.
"""

from __future__ import annotations

import struct
from typing import Iterator, List, Optional, Tuple

from repro.blockdev.device import BLOCK_SIZE
from repro.errors import CorruptFileSystem, InvalidArgument
from repro.ffs.layout import (
    DIRENT_HEADER_FMT,
    DIRENT_HEADER_SIZE,
    dirent_size,
)

# (offset, inum, kind, name, reclen)
DirEntry = Tuple[int, int, int, str, int]

# Precompiled header codec: the chain walks below decode one header per
# record per lookup/insert/remove, making this the hottest struct in
# the FFS tree (the C-FFS analogue lives in repro.core.directory).
_DIRENT_HEADER = struct.Struct(DIRENT_HEADER_FMT)

# Record size by stored name length (a one-byte header field): the walks
# index this table instead of calling dirent_size once per record.
_RECORD_SIZE = tuple(dirent_size(n) for n in range(256))


def init_block() -> bytearray:
    """A fresh directory block: one free entry spanning everything."""
    block = bytearray(BLOCK_SIZE)
    _DIRENT_HEADER.pack_into(block, 0, 0, BLOCK_SIZE, 0, 0)
    return block


def iter_entries(block: bytes) -> Iterator[DirEntry]:
    """Yield every record (live and free) in chain order."""
    offset = 0
    while offset < BLOCK_SIZE:
        inum, reclen, namelen, kind = _DIRENT_HEADER.unpack_from(block, offset)
        if reclen < DIRENT_HEADER_SIZE or offset + reclen > BLOCK_SIZE:
            raise CorruptFileSystem(
                "bad dirent reclen %d at offset %d" % (reclen, offset)
            )
        name = ""
        if inum != 0 and namelen:
            # str() accepts bytes and bytearray alike, so callers can
            # hand the cache's live buffer in without a copy.
            name_off = offset + DIRENT_HEADER_SIZE
            name = str(block[name_off:name_off + namelen], "utf-8", "replace")
        yield offset, inum, kind, name, reclen
        offset += reclen
    if offset != BLOCK_SIZE:
        raise CorruptFileSystem("dirent chain does not tile the block")


def live_entries(block: bytes) -> List[Tuple[str, int, int]]:
    """All (name, inum, kind) triples of live entries."""
    return [(name, inum, kind) for _, inum, kind, name, _ in iter_entries(block) if inum != 0]


def find_entry(block: bytes, name: str) -> Optional[Tuple[int, int]]:
    """Locate ``name``: returns (inum, kind) or None."""
    for _, inum, kind, entry_name, _ in iter_entries(block):
        if inum != 0 and entry_name == name:
            return inum, kind
    return None


def free_bytes(block: bytes) -> int:
    """Largest insertion the block can accept right now."""
    # Walks raw headers (namelen is stored, so no name decode needed).
    unpack_header = _DIRENT_HEADER.unpack_from
    record_size = _RECORD_SIZE
    offset = 0
    best = 0
    while offset < BLOCK_SIZE:
        inum, reclen, namelen, _kind = unpack_header(block, offset)
        if reclen < DIRENT_HEADER_SIZE or offset + reclen > BLOCK_SIZE:
            raise CorruptFileSystem(
                "bad dirent reclen %d at offset %d" % (reclen, offset)
            )
        avail = reclen if inum == 0 else reclen - record_size[namelen]
        if avail > best:
            best = avail
        offset += reclen
    if offset != BLOCK_SIZE:
        raise CorruptFileSystem("dirent chain does not tile the block")
    return best


def add_entry(block: bytearray, inum: int, kind: int, name: str) -> bool:
    """Insert an entry; returns False if no record has enough slack."""
    if inum == 0:
        raise InvalidArgument("inum 0 is reserved for free records")
    encoded = name.encode("utf-8")
    needed = dirent_size(len(encoded))
    offset = 0
    while offset < BLOCK_SIZE:
        cur_inum, reclen, namelen, cur_kind = _DIRENT_HEADER.unpack_from(
            block, offset
        )
        if cur_inum == 0 and reclen >= needed:
            # Claim the free record, leaving the remainder free.
            _write_entry(block, offset, inum, needed, kind, encoded)
            remainder = reclen - needed
            if remainder >= DIRENT_HEADER_SIZE:
                _DIRENT_HEADER.pack_into(
                    block, offset + needed, 0, remainder, 0, 0
                )
            else:
                # Absorb unusable slack into the new entry.
                _DIRENT_HEADER.pack_into(
                    block, offset, inum, needed + remainder,
                    len(encoded), kind,
                )
            return True
        if cur_inum != 0:
            used = _RECORD_SIZE[namelen]
            slack = reclen - used
            if slack >= needed:
                # Split the slack off the live entry.
                _DIRENT_HEADER.pack_into(
                    block, offset, cur_inum, used, namelen, cur_kind
                )
                _write_entry(block, offset + used, inum, slack, kind, encoded)
                return True
        offset += reclen
    return False


def remove_entry(block: bytearray, name: str) -> Optional[int]:
    """Remove ``name``; returns its inum or None if absent.

    The freed record merges into its predecessor (or becomes a free
    record when it heads the chain), so other entries stay in place.
    """
    prev_offset = None
    offset = 0
    while offset < BLOCK_SIZE:
        inum, reclen, namelen, kind = _DIRENT_HEADER.unpack_from(block, offset)
        if inum != 0:
            name_off = offset + DIRENT_HEADER_SIZE
            if str(block[name_off:name_off + namelen], "utf-8", "replace") == name:
                if prev_offset is None:
                    _DIRENT_HEADER.pack_into(block, offset, 0, reclen, 0, 0)
                else:
                    p_inum, p_reclen, p_namelen, p_kind = _DIRENT_HEADER.unpack_from(
                        block, prev_offset
                    )
                    _DIRENT_HEADER.pack_into(
                        block, prev_offset,
                        p_inum, p_reclen + reclen, p_namelen, p_kind,
                    )
                return inum
        prev_offset = offset
        offset += reclen
    return None


def _write_entry(
    block: bytearray, offset: int, inum: int, reclen: int, kind: int, encoded: bytes
) -> None:
    _DIRENT_HEADER.pack_into(block, offset, inum, reclen, len(encoded), kind)
    block[offset + DIRENT_HEADER_SIZE:offset + DIRENT_HEADER_SIZE + len(encoded)] = encoded
