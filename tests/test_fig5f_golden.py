"""Pinned exact outcomes of the Figure 5(f) capacity path.

The Figure 5(f) benchmark compares only abort *rates*; these goldens pin
the whole observable outcome of the single-CPU footprint loop (aborts,
final clock, engine and fabric counters, and the occupancy of every
cache level), so any change to the miss/install path that is meant to
be a pure speed-up must reproduce them bit for bit. The tiny-L3/L4 case
shrinks both shared caches so the L3 and L4 LRU cascades (and the LRU
XIs they send) fire on almost every miss.
"""

import dataclasses
import random
from collections import Counter

import pytest

from repro.bench.lru import _single_cpu_params, footprint_abort_rate
from repro.core.engine import FetchRetry, TxEngine
from repro.errors import TransactionAbortSignal
from repro.mem.fabric import CoherenceFabric
from repro.mem.memory import MainMemory
from repro.params import CacheGeometry, ZEC12

TRIALS = 8


def run_footprint(lines, policy, trials=TRIALS, l3=None, l4=None):
    """The ``footprint_abort_rate`` trial loop at ``ZEC12.seed``,
    returning everything the goldens pin."""
    params = _single_cpu_params(ZEC12, policy != "no-lru-extension", policy)
    if l3 is not None:
        params = dataclasses.replace(params, l3=l3, l4=l4)
    fabric = CoherenceFabric(params)
    clock = [0]
    fabric.clock = lambda: clock[0]
    engine = TxEngine(0, params, fabric, MainMemory())
    xi_types = Counter()
    receive_xi = engine.receive_xi

    def tally(xi):
        xi_types[xi.xi_type.name] += 1
        return receive_xi(xi)

    engine.receive_xi = tally
    rng = random.Random(ZEC12.seed)
    aborts = 0
    for _ in range(trials):
        addresses = [0x100_0000 + rng.randrange(1 << 22) * params.line_size
                     for _ in range(lines)]
        engine.tx_begin(constrained=False, ia=0)
        try:
            for addr in addresses:
                while True:
                    try:
                        _value, latency = engine.load(addr, 8)
                    except FetchRetry as retry:
                        clock[0] += retry.delay
                        continue
                    clock[0] += latency
                    break
            engine.tx_end(0)
        except TransactionAbortSignal:
            engine.process_abort()
            aborts += 1
    return {
        "aborts": aborts,
        "clock": clock[0],
        "tx_started": engine.stats_tx_started,
        "prefetches": engine.stats_prefetches,
        "fetches": fabric.stats_fetches,
        "xis": fabric.stats_xis,
        "xi_types": dict(xi_types),
        "occupancy": (
            engine.l1.directory.occupancy(),
            engine.l2.directory.occupancy(),
            fabric.l3s[0].occupancy(),
            fabric.l4s[0].occupancy(),
        ),
    }


GOLDENS = {
    (150, "zec12"): {
        "aborts": 0, "clock": 540000, "tx_started": 8, "prefetches": 0,
        "fetches": 1200, "xis": 0, "xi_types": {},
        "occupancy": (384, 1200, 1200, 1200),
    },
    (800, "zec12"): {
        "aborts": 0, "clock": 2878734, "tx_started": 8, "prefetches": 0,
        "fetches": 6400, "xis": 0, "xi_types": {},
        "occupancy": (384, 4027, 6397, 6397),
    },
    (800, "no-lru-extension"): {
        "aborts": 8, "clock": 466168, "tx_started": 8, "prefetches": 0,
        "fetches": 1036, "xis": 0, "xi_types": {},
        "occupancy": (381, 1036, 1036, 1036),
    },
}


@pytest.mark.parametrize("lines,policy", sorted(GOLDENS))
def test_fig5f_point_is_pinned(lines, policy):
    got = run_footprint(lines, policy)
    assert got == GOLDENS[(lines, policy)]
    # The loop above is footprint_abort_rate's, draw for draw.
    assert got["aborts"] / TRIALS == footprint_abort_rate(
        lines, policy != "no-lru-extension", trials=TRIALS,
        seed=ZEC12.seed, footprint_policy=policy,
    )


def test_tiny_shared_caches_lru_cascades_are_pinned():
    # A 4x4 L3 under a 2x8 L4: the L3 evicts on row conflicts
    # (LRU-XIing the CPU's copy), and the L4 evicts lines the L3 still
    # holds (removing them there and LRU-XIing the CPU). Of the 247 LRU
    # XIs, 126 come from L3 evictions and 121 from L4 evictions. Every
    # trial aborts on the first LRU XI that hits its read set.
    got = run_footprint(
        60, "zec12", trials=32,
        l3=CacheGeometry(ways=4, rows=4),
        l4=CacheGeometry(ways=2, rows=8),
    )
    assert got == {
        "aborts": 32, "clock": 117322, "tx_started": 32, "prefetches": 0,
        "fetches": 261, "xis": 247, "xi_types": {"LRU": 247},
        "occupancy": (14, 14, 14, 16),
    }
