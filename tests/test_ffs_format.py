"""Tests for FFS on-disk structures: inodes, superblock, directory blocks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blockdev.device import BLOCK_SIZE
from repro.errors import CorruptFileSystem, InvalidArgument
from repro.ffs import directory as dirfmt
from repro.ffs import layout
from repro.ffs.inode import Inode

names = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126, exclude_characters="/"),
    min_size=1,
    max_size=24,
)

# Directory names of 1-60 UTF-8 bytes, non-ASCII included: a short
# random stem repeated to a uniformly drawn length (long names, which
# fill a block, stay common without drawing 60 random characters each),
# cut to 60 encoded bytes at a character boundary.
dirent_names = st.builds(
    lambda stem, n: (stem * n)[:n].encode("utf-8")[:60].decode("utf-8", "ignore"),
    st.text(
        alphabet=st.characters(exclude_categories=("Cs",), exclude_characters="/\x00"),
        min_size=1,
        max_size=6,
    ),
    st.integers(1, 60),
)


def _decoded_free_bytes(block):
    """Reference: free space from each live entry's decoded name."""
    best = 0
    for _, inum, _, name, reclen in dirfmt.iter_entries(bytes(block)):
        if inum == 0:
            avail = reclen
        else:
            avail = reclen - layout.dirent_size(len(name.encode("utf-8")))
        best = max(best, avail)
    return best


class TestInodePacking:
    def test_roundtrip(self):
        ino = Inode(42)
        ino.init_as(layout.MODE_FILE, gen=7, mtime=1.25)
        ino.size = 123456
        ino.direct[0] = 99
        ino.direct[11] = 1234
        ino.indirect = 555
        ino.nblocks = 13
        back = Inode.unpack(42, ino.pack())
        assert back.size == 123456
        assert back.direct == ino.direct
        assert back.indirect == 555
        assert back.mtime == 1.25
        assert back.gen == 7
        assert back.nblocks == 13

    def test_packed_size(self):
        ino = Inode(1)
        assert len(ino.pack()) == layout.INODE_SIZE

    def test_clear_resets(self):
        ino = Inode(1)
        ino.init_as(layout.MODE_FILE, gen=3, mtime=0.0)
        ino.direct[0] = 7
        ino.clear()
        assert ino.is_free
        assert ino.nlink == 0
        assert ino.direct[0] == 0
        assert ino.gen == 3  # generation survives reuse

    def test_kind_predicates(self):
        ino = Inode(1)
        ino.init_as(layout.MODE_DIR, 1, 0.0)
        assert ino.is_dir and not ino.is_file

    @given(
        st.integers(min_value=0, max_value=2**40),
        st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=12, max_size=12),
    )
    @settings(max_examples=100)
    def test_roundtrip_property(self, size, direct):
        packed = layout.pack_inode(1, 2, 0, 5, size, 3.5, direct, 7, 8, 9)
        fields = layout.unpack_inode(packed)
        assert fields["size"] == size
        assert fields["direct"] == direct


class TestSuperblock:
    def test_roundtrip(self):
        sb = {
            "magic": layout.FFS_MAGIC, "version": 1, "total_blocks": 3000,
            "n_cgs": 5, "blocks_per_cg": 512, "inodes_per_cg": 256,
            "itable_blocks": 8, "data_start": 10, "root_inum": 1,
            "next_gen": 17, "free_blocks": 2500, "free_inodes": 1200,
            "journal_start": 2561, "journal_blocks": 64,
        }
        assert layout.unpack_superblock(layout.pack_superblock(sb)) == sb

    def test_padded_to_block(self):
        sb = {
            "magic": 1, "version": 1, "total_blocks": 1, "n_cgs": 1,
            "blocks_per_cg": 1, "inodes_per_cg": 1, "itable_blocks": 1,
            "data_start": 1, "root_inum": 1, "next_gen": 1,
            "free_blocks": 1, "free_inodes": 1,
        }
        assert len(layout.pack_superblock(sb)) == BLOCK_SIZE


class TestDirentBlock:
    def test_fresh_block_is_empty(self):
        block = dirfmt.init_block()
        assert dirfmt.live_entries(bytes(block)) == []

    def test_add_and_find(self):
        block = dirfmt.init_block()
        assert dirfmt.add_entry(block, 5, layout.DT_FILE, "hello")
        assert dirfmt.find_entry(bytes(block), "hello") == (5, layout.DT_FILE)

    def test_add_many_until_full(self):
        block = dirfmt.init_block()
        added = 0
        while dirfmt.add_entry(block, added + 1, layout.DT_FILE, "name%05d" % added):
            added += 1
        # 16-byte records: a 4KB block holds 256.
        assert added == BLOCK_SIZE // layout.dirent_size(9)
        assert len(dirfmt.live_entries(bytes(block))) == added

    def test_remove_returns_inum(self):
        block = dirfmt.init_block()
        dirfmt.add_entry(block, 9, layout.DT_FILE, "gone")
        assert dirfmt.remove_entry(block, "gone") == 9
        assert dirfmt.find_entry(bytes(block), "gone") is None

    def test_remove_missing(self):
        block = dirfmt.init_block()
        assert dirfmt.remove_entry(block, "nope") is None

    def test_space_reclaimed_after_remove(self):
        block = dirfmt.init_block()
        i = 0
        while dirfmt.add_entry(block, i + 1, layout.DT_FILE, "n%06d" % i):
            i += 1
        dirfmt.remove_entry(block, "n000003")
        assert dirfmt.add_entry(block, 999, layout.DT_FILE, "newone")

    def test_other_entries_untouched_by_remove(self):
        block = dirfmt.init_block()
        for i in range(10):
            dirfmt.add_entry(block, i + 1, layout.DT_FILE, "k%02d" % i)
        dirfmt.remove_entry(block, "k04")
        live = dict((n, i) for n, i, _ in dirfmt.live_entries(bytes(block)))
        assert len(live) == 9
        assert live["k00"] == 1 and live["k09"] == 10

    def test_zero_inum_rejected(self):
        block = dirfmt.init_block()
        with pytest.raises(InvalidArgument):
            dirfmt.add_entry(block, 0, layout.DT_FILE, "x")

    def test_corrupt_reclen_detected(self):
        block = dirfmt.init_block()
        block[4] = 1  # reclen low byte -> absurd value
        block[5] = 0
        with pytest.raises(CorruptFileSystem):
            list(dirfmt.iter_entries(bytes(block)))
        with pytest.raises(CorruptFileSystem):
            dirfmt.free_bytes(block)

    # Five adds per remove on average, so runs fill the block and
    # removals leave slack inside live records, not just at the tail.
    @given(st.lists(st.tuples(st.integers(0, 5), dirent_names), min_size=100, max_size=160),
           st.data())
    @settings(max_examples=40, deadline=None)
    def test_free_bytes_matches_decoded_reference(self, steps, data):
        """Header-only free space equals the decode-based reference after
        every add/remove, and predicts exactly which inserts succeed."""
        block = dirfmt.init_block()
        live = {}
        for inum, (op, name) in enumerate(steps, start=1):
            if live and op == 0:
                victim = data.draw(st.sampled_from(sorted(live)), label="victim")
                assert dirfmt.remove_entry(block, victim) == live.pop(victim)
            elif name not in live:
                free = dirfmt.free_bytes(block)
                fits = layout.dirent_size(len(name.encode("utf-8"))) <= free
                assert dirfmt.add_entry(block, inum, layout.DT_FILE, name) == fits
                if fits:
                    live[name] = inum
            assert dirfmt.free_bytes(block) == _decoded_free_bytes(block)
        assert {n: i for n, i, _ in dirfmt.live_entries(block)} == live
        # A corrupted reclen still raises from the header walk.
        last = max(o for o, *_ in dirfmt.iter_entries(block))
        block[last + 4:last + 6] = (BLOCK_SIZE - last + 4).to_bytes(2, "little")
        with pytest.raises(CorruptFileSystem):
            dirfmt.free_bytes(block)

    def test_free_bytes_decreases_monotonically(self):
        block = dirfmt.init_block()
        prev = dirfmt.free_bytes(bytes(block))
        for i in range(20):
            dirfmt.add_entry(block, i + 1, layout.DT_FILE, "mono%03d" % i)
            cur = dirfmt.free_bytes(bytes(block))
            assert cur <= prev
            prev = cur

    @given(st.lists(names, min_size=1, max_size=60, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_add_remove_property(self, entry_names):
        """Entries added then individually removed leave no live entries,
        and the reclen chain always tiles the block exactly."""
        block = dirfmt.init_block()
        inserted = []
        for i, name in enumerate(entry_names):
            if dirfmt.add_entry(block, i + 1, layout.DT_FILE, name):
                inserted.append(name)
        live = {n for n, _, _ in dirfmt.live_entries(bytes(block))}
        assert live == set(inserted)
        for name in inserted:
            assert dirfmt.remove_entry(block, name) is not None
            # Chain invariant holds after every mutation.
            list(dirfmt.iter_entries(bytes(block)))
        assert dirfmt.live_entries(bytes(block)) == []

    @given(st.lists(names, min_size=1, max_size=40, unique=True), st.data())
    @settings(max_examples=60, deadline=None)
    def test_interleaved_add_remove_property(self, entry_names, data):
        block = dirfmt.init_block()
        live = {}
        for i, name in enumerate(entry_names):
            if live and data.draw(st.booleans(), label="remove?"):
                victim = data.draw(st.sampled_from(sorted(live)), label="victim")
                assert dirfmt.remove_entry(block, victim) == live.pop(victim)
            if dirfmt.add_entry(block, i + 1, layout.DT_FILE, name):
                live[name] = i + 1
        found = {n: i for n, i, _ in dirfmt.live_entries(bytes(block))}
        assert found == live
