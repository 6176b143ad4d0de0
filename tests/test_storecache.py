"""Unit tests for the gathering store cache (paper section III.D)."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.mem.storecache import (
    BLOCK_SIZE,
    GatheringStoreCache,
    StoreCacheOverflow,
    block_address,
)


def drained_bytes(cache):
    """Flatten the drained (address, data) runs into {byte_addr: value}."""
    out = {}
    for addr, data in cache.take_drained():
        for i, value in enumerate(data):
            out[addr + i] = value
    return out


def test_block_address():
    assert block_address(0) == 0
    assert block_address(127) == 0
    assert block_address(128) == 128
    assert block_address(300) == 256


def test_gathering_into_existing_entry():
    cache = GatheringStoreCache(entries=4, drain_threshold=0)
    cache.store(0, b"\x01" * 8, tx=False)
    cache.store(8, b"\x02" * 8, tx=False)
    assert len(cache) == 1
    assert cache.stats_gathered == 1
    assert cache.forward_byte(0) == 1
    assert cache.forward_byte(8) == 2


def test_store_spanning_blocks_allocates_two_entries():
    cache = GatheringStoreCache(entries=4, drain_threshold=0)
    cache.store(120, b"\xaa" * 16, tx=False)
    assert len(cache) == 2
    assert cache.forward_byte(120) == 0xAA
    assert cache.forward_byte(135) == 0xAA


def test_tbegin_closes_entries_and_drains_nontx():
    cache = GatheringStoreCache(entries=4, drain_threshold=0)
    cache.store(0, b"\x01", tx=False)
    drained = cache.begin_transaction()
    assert drained == 1
    assert len(cache) == 0
    assert drained_bytes(cache) == {0: 1}


def test_tx_store_does_not_gather_into_nontx_entry():
    cache = GatheringStoreCache(entries=4, drain_threshold=0)
    cache.store(0, b"\x01", tx=False)
    cache.store(8, b"\x02", tx=True)
    # Two entries for the same block: gathering across the tx boundary is
    # forbidden (closed entries cannot gather).
    assert len(cache) == 2


def test_forwarding_youngest_entry_wins():
    cache = GatheringStoreCache(entries=4, drain_threshold=0)
    cache.store(0, b"\x01", tx=False)
    cache.store(0, b"\x02", tx=True)
    assert cache.forward_byte(0) == 2


def test_commit_reopens_entries_for_gathering():
    cache = GatheringStoreCache(entries=4, drain_threshold=0)
    cache.store(0, b"\x01", tx=True)
    cache.end_transaction()
    assert cache.tx_entry_count() == 0
    # Post-transaction stores may allocate again and drain normally.
    cache.drain_all()
    assert drained_bytes(cache).get(0) == 1


def test_abort_invalidates_tx_entries():
    cache = GatheringStoreCache(entries=4, drain_threshold=0)
    cache.store(0, b"\x01", tx=True)
    cache.store(256, b"\x02", tx=True)
    dropped = cache.abort_transaction()
    assert dropped == {0, 256}
    assert len(cache) == 0
    assert cache.forward_byte(0) is None


def test_abort_preserves_ntstg_doublewords():
    cache = GatheringStoreCache(entries=4, drain_threshold=0)
    cache.store(0, b"\x11" * 8, tx=True, ntstg=True)   # NTSTG doubleword
    cache.store(8, b"\x22" * 8, tx=True)               # normal tx store
    cache.abort_transaction()
    assert cache.forward_byte(0) == 0x11   # survived
    assert cache.forward_byte(8) is None   # dropped
    cache.drain_all()
    assert drained_bytes(cache).get(0) == 0x11


def test_overflow_aborts_when_full_of_tx_entries():
    cache = GatheringStoreCache(entries=2, drain_threshold=0)
    cache.store(0, b"\x01", tx=True)
    cache.store(BLOCK_SIZE, b"\x02", tx=True)
    with pytest.raises(StoreCacheOverflow):
        cache.store(2 * BLOCK_SIZE, b"\x03", tx=True)


def test_nontx_store_drains_oldest_when_full():
    cache = GatheringStoreCache(entries=2, drain_threshold=0)
    cache.store(0, b"\x01", tx=False)
    cache.store(BLOCK_SIZE, b"\x02", tx=False)
    cache.store(2 * BLOCK_SIZE, b"\x03", tx=False)
    assert len(cache) == 2
    assert drained_bytes(cache).get(0) == 1


def test_xi_compare_classification():
    cache = GatheringStoreCache(entries=4, drain_threshold=0)
    assert cache.xi_compare(0) == "clear"
    cache.store(0, b"\x01", tx=False)
    assert cache.xi_compare(0) == "drain"
    cache.store(8, b"\x02", tx=True)
    assert cache.xi_compare(0) == "reject"
    # A different line is unaffected.
    assert cache.xi_compare(512) == "clear"


def test_drain_line_flushes_only_nontx_entries_for_line():
    cache = GatheringStoreCache(entries=8, drain_threshold=0)
    cache.store(0, b"\x01", tx=False)
    cache.store(128, b"\x02", tx=False)   # same 256B line, second block
    cache.store(256, b"\x03", tx=False)   # different line
    drained = cache.drain_line(0)
    assert drained == 2
    assert len(cache) == 1
    writes = drained_bytes(cache)
    assert writes[0] == 1 and writes[128] == 2


def test_tx_lines_is_precise_write_set():
    cache = GatheringStoreCache(entries=8, drain_threshold=0)
    cache.store(0, b"\x01", tx=True)
    cache.store(130, b"\x02", tx=True)   # same line, different block
    cache.store(512, b"\x03", tx=False)
    assert cache.tx_lines() == {0}
    assert cache.active_lines() == {0, 512}


@given(st.lists(
    st.tuples(st.integers(min_value=0, max_value=1023),
              st.integers(min_value=1, max_value=8),
              st.integers(min_value=0, max_value=255)),
    min_size=1, max_size=60))
def test_forwarding_matches_reference_model(stores):
    """Property: byte forwarding equals a simple last-write-wins model."""
    cache = GatheringStoreCache(entries=64)
    reference = {}
    for addr, length, value in stores:
        data = bytes([value]) * length
        cache.store(addr, data, tx=False)
        for i in range(length):
            reference[addr + i] = value
    # The address range spans at most 9 blocks, far below the drain
    # threshold, so every byte is still resident.
    assert cache.take_drained() == []
    for byte_addr, expected in reference.items():
        assert cache.forward_byte(byte_addr) == expected


@given(st.lists(st.integers(min_value=0, max_value=2047), min_size=1,
                max_size=100))
def test_drain_everything_reaches_memory_once(addresses):
    """Property: drain_all emits every resident byte exactly once."""
    cache = GatheringStoreCache(entries=64)
    expected = {}
    for i, addr in enumerate(addresses):
        cache.store(addr, bytes([i & 0xFF]), tx=False)
        expected[addr] = i & 0xFF
    cache.drain_all()
    final = drained_bytes(cache)
    for addr, value in expected.items():
        assert final.get(addr) == value


@pytest.mark.parametrize("seed", range(4))
def test_indexed_xi_queries_match_queue_scans(seed):
    """``xi_compare`` and ``holds_tx_line`` answer from the block index;
    over random store / drain / TBEGIN / TEND / abort sequences they must
    agree with the whole-queue answers (``tx_lines`` and
    ``active_lines``) on every line, including lines never stored to."""
    rng = random.Random(seed)
    line_size = 2 * BLOCK_SIZE
    lines = [0x4000 + i * line_size for i in range(6)]
    probe_lines = lines + [lines[-1] + line_size]
    cache = GatheringStoreCache(entries=6, drain_threshold=2)
    in_tx = False
    for _ in range(1500):
        op = rng.random()
        if op < 0.55:
            addr = rng.choice(lines) + rng.randrange(line_size)
            data = bytes(rng.randrange(1, 24))
            try:
                cache.store(addr, data, tx=in_tx,
                            ntstg=in_tx and rng.random() < 0.2)
            except StoreCacheOverflow:
                cache.abort_transaction()
                in_tx = False
        elif op < 0.65:
            cache.drain_line(rng.choice(lines))
        elif op < 0.70:
            cache.drain_all()
        elif op < 0.80 and not in_tx:
            cache.begin_transaction()
            in_tx = True
        elif op < 0.90 and in_tx:
            cache.end_transaction()
            in_tx = False
        elif in_tx:
            cache.abort_transaction()
            in_tx = False
        cache.take_drained()
        tx_lines = cache.tx_lines()
        active = cache.active_lines()
        for line in probe_lines:
            assert cache.holds_tx_line(line) == (line in tx_lines)
            want = ("reject" if line in tx_lines
                    else "drain" if line in active else "clear")
            assert cache.xi_compare(line) == want
