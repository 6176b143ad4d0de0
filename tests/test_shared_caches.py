"""Shared L3/L4 cache tests: inclusivity and LRU-XI cascades."""

import dataclasses
import random

import pytest

from conftest import EngineHarness, small_params

from repro.core.abort import AbortCode
from repro.errors import TransactionAbortSignal
from repro.mem.directory import SetAssociativeDirectory
from repro.mem.line import Ownership
from repro.mem.shared import L3Cache, L4Cache
from repro.params import CacheGeometry


def installer(cache, victims):
    """``cache.install`` that records each returned LRU victim."""
    def install(line):
        victim = cache.install(line)
        if victim is not None:
            victims.append(victim)
    return install


class TestSharedCacheUnit:
    def test_install_and_touch(self):
        # Re-installing a present line refreshes its LRU position (the
        # fetch path's only L3/L4 touch).
        l3 = L3Cache(CacheGeometry(ways=2, rows=2), chip=0)
        victims = []
        install = installer(l3, victims)
        install(0x100)
        assert l3.contains(0x100)
        assert not l3.contains(0x999)
        install(0x300)  # same row
        install(0x100)
        install(0x500)
        assert victims == [0x300]
        assert l3.contains(0x100)

    def test_eviction_callback_fires(self):
        l3 = L3Cache(CacheGeometry(ways=1, rows=1), chip=0)
        victims = []
        install = installer(l3, victims)
        install(0x000)
        install(0x100)
        assert victims == [0x000]
        assert l3.contains(0x100)
        assert not l3.contains(0x000)

    def test_remove(self):
        l4 = L4Cache(CacheGeometry(ways=2, rows=2), mcm=0)
        l4.install(0x100)
        assert l4.remove(0x100) is not None
        assert l4.occupancy() == 0


def tiny_l3_harness() -> EngineHarness:
    """A machine whose chip L3 holds only 4 lines, so L3 LRU evictions
    (and their LRU XIs) are easy to provoke."""
    base = small_params(n_cpus=2)
    params = dataclasses.replace(
        base,
        l3=CacheGeometry(ways=2, rows=2),
        l4=CacheGeometry(ways=8, rows=8),
    )
    return EngineHarness(params=params, n_cpus=2)


class TestLruXiCascade:
    def test_l3_eviction_invalidates_private_copies(self):
        harness = tiny_l3_harness()
        lines = [0x100000 + i * 256 for i in range(8)]
        for line in lines:
            harness.load(0, line)
        # Early lines were LRU'ed out of the L3 and, by inclusivity, out
        # of the CPU's L1/L2 too.
        l1 = harness.engine(0).l1
        l2 = harness.engine(0).l2
        assert not l2.contains(lines[0])
        assert l1.lookup(lines[0]) is None
        info = harness.fabric.line_info(lines[0])
        assert 0 not in info.owners()

    def test_l3_eviction_aborts_transaction_reading_victim(self):
        harness = tiny_l3_harness()
        target = 0x100000
        harness.tbegin(0)
        harness.load(0, target)
        # Thrash the L3 with other lines (same CPU, non-overlapping rows
        # is impossible in a 2x2 L3, so the tx line eventually falls out).
        with pytest.raises(TransactionAbortSignal):
            for i in range(1, 12):
                harness.load(0, 0x400000 + i * 256)
                harness.engine(0).raise_if_pending()
        abort = harness.process_abort(0)
        assert abort.code in (
            AbortCode.CACHE_FETCH_RELATED,   # LRU XI hit the read set
            AbortCode.FETCH_OVERFLOW,        # (or the private L2 overflowed)
        )

    def test_l4_eviction_cascades_through_l3(self):
        base = small_params(n_cpus=2)
        params = dataclasses.replace(
            base,
            l3=CacheGeometry(ways=8, rows=8),
            l4=CacheGeometry(ways=2, rows=2),
        )
        harness = EngineHarness(params=params, n_cpus=2)
        lines = [0x100000 + i * 256 for i in range(8)]
        for line in lines:
            harness.load(0, line)
        # The L4 can hold only 4 lines: the first ones are gone everywhere.
        assert not harness.fabric.l4s[0].contains(lines[0])
        assert not harness.fabric.l3s[0].contains(lines[0])
        assert 0 not in harness.fabric.line_info(lines[0]).owners()


@pytest.mark.parametrize("ways,rows", [(1, 1), (2, 2), (3, 4)])
def test_tag_store_matches_directory_reference(ways, rows):
    """The L3/L4 tag store picks exactly the victims the generic
    set-associative directory picks, over random installs and removes."""
    geometry = CacheGeometry(ways=ways, rows=rows)
    cache = L3Cache(geometry, chip=0)
    reference = SetAssociativeDirectory(geometry)
    rng = random.Random(ways * 100 + rows)
    pool = [i * geometry.line_size for i in range(3 * ways * rows + 1)]
    for _ in range(10_000):
        line = rng.choice(pool)
        if rng.random() < 0.8:
            evicted = []
            reference.install(line, Ownership.EXCLUSIVE,
                              evict=lambda e: evicted.append(e.line))
            victim = cache.install(line)
            assert [victim] == (evicted or [None])
        else:
            removed = reference.remove(line)
            assert cache.remove(line) == (
                None if removed is None else removed.line)
        probe = rng.choice(pool)
        assert cache.contains(probe) == reference.contains(probe)
        assert cache.occupancy() == reference.occupancy()
