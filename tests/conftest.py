"""Shared test fixtures and harnesses."""

from __future__ import annotations

import dataclasses
import functools
from typing import List, Optional, Tuple

import pytest

from repro.bench.figures import UpdateExperiment, run_update_experiment
from repro.bench.parallel import run_tasks
from repro.core.abort import TransactionAbort
from repro.core.engine import FetchRetry, TxEngine
from repro.errors import TransactionAbortSignal
from repro.mem.fabric import CoherenceFabric
from repro.mem.memory import MainMemory
from repro.mem.paging import PageTable
from repro.params import MachineParams, Topology, ZEC12
from repro.sim.machine import Machine
from repro.workloads.pool import PoolLayout, build_update_program


def small_params(
    n_cpus: int = 1,
    lru_extension: bool = True,
    speculation: bool = False,
    **overrides,
) -> MachineParams:
    """Machine parameters sized for unit tests.

    Speculative prefetch defaults *off* so footprints are exactly the
    architected accesses (tests that want it enable it explicitly).
    """
    cores = max(2, n_cpus)
    return dataclasses.replace(
        ZEC12,
        topology=Topology(cores_per_chip=min(cores, 6),
                          chips_per_mcm=2,
                          mcms=max(1, -(-n_cpus // (min(cores, 6) * 2)))),
        lru_extension=lru_extension,
        speculation=speculation,
        **overrides,
    )


def update_machine(experiment: UpdateExperiment,
                   spin_elide: bool = True) -> Machine:
    """The machine :func:`repro.bench.figures.run_update_experiment`
    builds for ``experiment``, with spin/retry elision on or off."""
    machine = Machine(ZEC12.with_cpus(experiment.n_cpus),
                      spin_elide=spin_elide)
    program = build_update_program(
        experiment.scheme,
        PoolLayout(experiment.pool_size),
        n_vars=experiment.n_vars,
        iterations=experiment.iterations,
        fallback_mode=machine.fallback_mode,
    )
    for _ in range(experiment.n_cpus):
        machine.add_program(program)
    return machine


#: (cycles, instructions, tx_aborted, xi_rejects) pinned from the
#: reference implementation — 48-CPU points over all three lock schemes
#: (fine-grained locking is single-variable by design).
PINNED_48CPU = [
    (UpdateExperiment("coarse", 48, 1000, 4, iterations=3),
     (280111, 186668, 0, 0)),
    (UpdateExperiment("fine", 48, 1000, 1, iterations=3),
     (3412, 2256, 0, 0)),
    (UpdateExperiment("rwlock", 48, 1000, 4, iterations=3),
     (51045, 3984, 0, 0)),
]

PINNED_IDS = [f"{e.scheme}-{e.n_cpus}" for e, _ in PINNED_48CPU]

SCHED_KEYS = ("events", "parks", "retry_parks", "spin_steps",
              "heap_elided_steps")

#: ``SimResult.sched`` counters (in ``SCHED_KEYS`` order) per scheme,
#: elided and on the unelided reference machine.
PINNED_SCHED = {
    ("coarse", True): (236422, 1537, 1452, 178962, 1558),
    ("coarse", False): (217624, 0, 0, 0, 20654),
    ("fine", True): (2632, 0, 7, 0, 64),
    ("fine", False): (2632, 0, 0, 0, 72),
    ("rwlock", True): (8842, 0, 41, 0, 2121),
    ("rwlock", False): (8842, 0, 0, 0, 3039),
}


def pinned_summary(result) -> Tuple[int, int, int, int]:
    """The ``PINNED_48CPU`` tuple of a result."""
    return (
        result.cycles,
        sum(c.instructions for c in result.cpus),
        sum(c.tx_aborted for c in result.cpus),
        sum(c.xi_rejects for c in result.cpus),
    )


def pinned_sched(result) -> Tuple[int, ...]:
    """The ``PINNED_SCHED`` tuple of a result."""
    return tuple(result.sched[key] for key in SCHED_KEYS)


@functools.lru_cache(maxsize=None)
def pinned_run(experiment: UpdateExperiment, spin_elide: bool = True):
    """One serial run of a pinned point per elision mode.

    Several test ids pin the same point (their labels name scheduler
    modes that no longer exist), so the run is made once per session
    and shared: the suite simulates each point once elided, through
    :func:`run_update_experiment`, and once on the unelided reference
    machine.
    """
    if spin_elide:
        return run_update_experiment(experiment)
    return update_machine(experiment, spin_elide=False).run()


@functools.lru_cache(maxsize=None)
def pinned_parallel_run():
    """The three pinned points, run once through two worker processes."""
    return run_tasks(
        [("update", experiment) for experiment, _ in PINNED_48CPU],
        workers=2,
    )


class EngineHarness:
    """Drives TxEngines directly (no ISA), with retry loops inlined.

    A shared local clock stands in for the scheduler so the fabric's
    per-line transfer serialisation works. Aborts are captured, processed
    through the millicode path, and recorded.
    """

    def __init__(self, params: Optional[MachineParams] = None,
                 n_cpus: int = 1) -> None:
        self.params = params if params is not None else small_params(n_cpus)
        self.memory = MainMemory()
        self.page_table = PageTable()
        self.fabric = CoherenceFabric(self.params)
        self.clock = [0]
        self.fabric.clock = lambda: self.clock[0]
        self.engines: List[TxEngine] = [
            TxEngine(i, self.params, self.fabric, self.memory, self.page_table)
            for i in range(n_cpus)
        ]
        self.aborts: List[TransactionAbort] = []

    def engine(self, cpu: int = 0) -> TxEngine:
        return self.engines[cpu]

    # -- retried operations --------------------------------------------------

    def _retry(self, fn):
        while True:
            try:
                return fn()
            except FetchRetry as retry:
                self.clock[0] += retry.delay

    def load(self, cpu: int, addr: int, length: int = 8) -> int:
        value, latency = self._retry(
            lambda: self.engines[cpu].load(addr, length)
        )
        self.clock[0] += latency
        return value

    def store(self, cpu: int, addr: int, value: int, length: int = 8) -> None:
        latency = self._retry(
            lambda: self.engines[cpu].store(addr, value, length)
        )
        self.clock[0] += latency

    def add(self, cpu: int, addr: int, increment: int, length: int = 8) -> int:
        value, latency = self._retry(
            lambda: self.engines[cpu].add_to_storage(addr, increment, length)
        )
        self.clock[0] += latency
        return value

    def cas(self, cpu: int, addr: int, expected: int, new: int) -> bool:
        swapped, _observed, latency = self._retry(
            lambda: self.engines[cpu].compare_and_swap(addr, expected, new)
        )
        self.clock[0] += latency
        return swapped

    def ntstg(self, cpu: int, addr: int, value: int) -> None:
        latency = self._retry(lambda: self.engines[cpu].ntstg(addr, value))
        self.clock[0] += latency

    # -- transaction control --------------------------------------------------

    def tbegin(self, cpu: int = 0, controls=None, constrained: bool = False,
               ia: int = 0x1000) -> None:
        self.clock[0] += self.engines[cpu].tx_begin(
            controls, constrained=constrained, ia=ia
        )

    def tend(self, cpu: int = 0) -> int:
        # tx_end can raise FetchRetry in stm fallback mode: the hybrid
        # publication step fetches orec/clock lines at the outermost TEND.
        latency, depth = self._retry(lambda: self.engines[cpu].tx_end(0))
        self.clock[0] += latency
        return depth

    def process_abort(self, cpu: int = 0, grs=None) -> TransactionAbort:
        abort, plan, latency = self.engines[cpu].process_abort(grs)
        self.clock[0] += latency + plan.delay_cycles
        self.aborts.append(abort)
        return abort

    def expect_abort(self, fn, cpu: int = 0) -> TransactionAbort:
        """Run ``fn`` expecting a transaction abort; processes and returns it."""
        with pytest.raises(TransactionAbortSignal):
            fn()
        return self.process_abort(cpu)

    def quiesce(self) -> None:
        for engine in self.engines:
            engine.quiesce()


@pytest.fixture
def harness() -> EngineHarness:
    return EngineHarness(n_cpus=1)


@pytest.fixture
def duo() -> EngineHarness:
    return EngineHarness(n_cpus=2)


@pytest.fixture
def quad() -> EngineHarness:
    return EngineHarness(n_cpus=4)
