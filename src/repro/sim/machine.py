"""The top-level simulated machine.

Builds the full system — main memory, page table, coherence fabric with
L3/L4 caches, one transaction engine per CPU — and runs programs (ISA) or
HTM threads (coroutines) on it.

Typical use::

    from repro import Machine, ZEC12
    machine = Machine(ZEC12.with_cpus(4))
    machine.add_program(program)          # an assembled ISA program
    machine.add_program(program)
    result = machine.run()
    print(result.throughput)

Spin-wait and retry-storm elision is always on (see
:mod:`repro.sim.scheduler`). ``REPRO_CHECK=1`` replays every run of
assembled programs on an unelided reference machine, built from the same
pre-run configuration, and raises on any difference.
"""

from __future__ import annotations

import os

from typing import Callable, List, Optional

from ..core.engine import TxEngine
from ..core.footprint import resolve_policy_spec
from ..stm import resolve_fallback_mode
from ..cpu.assembler import Program
from ..cpu.interpreter import IsaCpu
from ..cpu.interrupts import OsModel
from ..errors import ConfigurationError, ProtocolError
from ..mem.fabric import CoherenceFabric
from ..mem.memory import MainMemory
from ..mem.paging import PageTable
from ..params import MachineParams, ZEC12
from .results import CpuResult, SimResult
from .scheduler import Scheduler


class MarkRecorder:
    """Collects MARK_START/MARK_END interval measurements for one CPU."""

    def __init__(self, clock: Callable[[], int]) -> None:
        self._clock = clock
        self._start: Optional[int] = None
        self.intervals: List[int] = []

    def __call__(self, kind: str) -> None:
        now = self._clock()
        if kind == "start":
            self._start = now
        elif kind == "end" and self._start is not None:
            self.intervals.append(now - self._start)
            self._start = None


class Machine:
    """A complete simulated zEC12-like SMP machine."""

    def __init__(
        self,
        params: MachineParams = ZEC12,
        external_interrupt_interval: Optional[int] = None,
        spin_elide: bool = True,
    ) -> None:
        self.params = params
        #: Spin/retry elision and straight-line batching for every CPU
        #: added by :meth:`add_program`. Results are bit-identical either
        #: way; ``False`` is the reference path that ``REPRO_CHECK=1``
        #: replays against.
        self.spin_elide = spin_elide
        self.memory = MainMemory()
        self.page_table = PageTable()
        self.fabric = CoherenceFabric(params)
        self.os = OsModel(self.page_table)
        self.engines: List[TxEngine] = []
        self.drivers: List = []
        self._recorders: List[MarkRecorder] = []
        self.scheduler: Optional[Scheduler] = None
        self.external_interrupt_interval = external_interrupt_interval
        #: Optional ``perturb(index, latency) -> latency`` hook installed
        #: on the scheduler of every subsequent :meth:`run` (see
        #: :attr:`~repro.sim.scheduler.Scheduler.perturb`).
        self.schedule_perturb: Optional[Callable[[int, int], int]] = None
        self._next_interrupt: List[int] = []
        #: Programs attached via :meth:`add_program` (None for custom
        #: drivers) — lets ``REPRO_CHECK=1`` rebuild a reference run.
        self._programs: List[Optional[Program]] = []

    # ------------------------------------------------------------------

    @property
    def footprint_policy(self) -> str:
        """The resolved footprint-policy spec every engine is built with
        (``params.footprint_policy``, else ``$REPRO_FOOTPRINT_POLICY``,
        else ``"zec12"``) — see :mod:`repro.core.footprint`."""
        return resolve_policy_spec(self.params)

    @property
    def fallback_mode(self) -> str:
        """The resolved hybrid-TM fallback mode every engine is built
        with (``params.fallback_mode``, else ``$REPRO_FALLBACK_MODE``,
        else ``"lock"``) — see :mod:`repro.stm`."""
        return resolve_fallback_mode(self.params)

    def _new_engine(self) -> TxEngine:
        cpu_id = len(self.engines)
        if cpu_id >= self.params.topology.total_cores:
            raise ConfigurationError(
                f"topology supports only {self.params.topology.total_cores} "
                "CPUs; use params.with_cpus(n)"
            )
        engine = TxEngine(cpu_id, self.params, self.fabric, self.memory,
                          self.page_table)
        self.engines.append(engine)
        return engine

    def _now(self) -> int:
        return self.scheduler.now if self.scheduler is not None else 0

    def add_program(self, program: Program) -> IsaCpu:
        """Attach a new CPU running an assembled ISA program."""
        engine = self._new_engine()
        recorder = MarkRecorder(self._now)
        cpu = IsaCpu(engine, program, self.os, mark_sink=recorder,
                     spin_elide=self.spin_elide)
        self.drivers.append(cpu)
        self._recorders.append(recorder)
        self._next_interrupt.append(0)
        self._programs.append(program)
        return cpu

    def add_driver(self, factory: Callable[[TxEngine, MarkRecorder], object]):
        """Attach a custom driver (used by the HTM coroutine API).

        ``factory(engine, recorder)`` must return an object with
        ``step() -> int``, ``done`` and ``engine`` attributes.
        """
        engine = self._new_engine()
        recorder = MarkRecorder(self._now)
        driver = factory(engine, recorder)
        self.drivers.append(driver)
        self._recorders.append(recorder)
        self._next_interrupt.append(0)
        self._programs.append(None)
        return driver

    # ------------------------------------------------------------------

    def _inject_interrupts(self, index: int, now: int) -> None:
        interval = self.external_interrupt_interval
        if not interval:
            return
        if self._next_interrupt[index] == 0:
            # De-phase the CPUs so timer pops are not synchronised.
            self._next_interrupt[index] = interval * (index + 1) // len(
                self.drivers
            ) + interval
        if now >= self._next_interrupt[index]:
            self._next_interrupt[index] = now + interval
            self.engines[index].external_interruption()

    def run(self, max_cycles: Optional[int] = None) -> SimResult:
        """Run all drivers to completion; returns the collected results.

        With ``REPRO_CHECK=1`` in the environment, a run of assembled
        programs with elision enabled is replayed on a reference machine
        and compared (see :meth:`_reference_check`).
        """
        if not self.drivers:
            raise ConfigurationError("no CPUs attached to the machine")
        check = (
            os.environ.get("REPRO_CHECK") == "1"
            and self.spin_elide
            and all(p is not None for p in self._programs)
        )
        # The reference starts from this machine's pre-run state, so it
        # is built before the run mutates it.
        ref = self._reference_machine() if check else None
        self.scheduler = Scheduler(self.drivers)
        # The hook is a per-step no-op without interrupt pressure — leave
        # it unset so the scheduler's inner loop skips it entirely.
        if self.external_interrupt_interval:
            self.scheduler.pre_step = self._inject_interrupts
        if self.schedule_perturb is not None:
            self.scheduler.perturb = self.schedule_perturb
        self.fabric.clock = lambda: self.scheduler.now
        cycles = self.scheduler.run(max_cycles=max_cycles)
        for engine in self.engines:
            engine.quiesce()
        aborted_early = max_cycles is not None and any(
            not d.done for d in self.drivers
        )
        result = SimResult(
            cycles=cycles,
            cpus=[self._cpu_result(i) for i in range(len(self.drivers))],
            aborted_early=aborted_early,
            sched=self.scheduler.counters(),
        )
        if ref is not None:
            self._reference_check(result, ref, max_cycles)
        return result

    def _reference_machine(self) -> "Machine":
        """A copy of this machine's pre-run configuration with elision
        off: the same params, programs and interrupt interval, the
        memory image, unmapped pages, each engine's PER controls and TDC
        mode, and the perturb hook.

        Built with ``spin_elide=False`` (the master switch for both
        parking mechanisms), which also keeps it from recursing into
        another check. An installed ``os.on_fatal`` hook is mirrored by a
        no-op, so the reference takes the same path without calling the
        hook a second time.
        """
        import copy

        ref = Machine(
            self.params,
            external_interrupt_interval=self.external_interrupt_interval,
            spin_elide=False,
        )
        for program in self._programs:
            ref.add_program(program)
        ref.memory._pages.update(
            (page, bytearray(data))
            for page, data in self.memory._pages.items()
        )
        ref.page_table._missing.update(self.page_table._missing)
        ref.page_table.paged_in.update(self.page_table.paged_in)
        for mine, theirs in zip(self.engines, ref.engines):
            vars(theirs.per).update(vars(mine.per))
            theirs.tdc.set_mode(mine.tdc.mode)
        if self.os.on_fatal is not None:
            ref.os.on_fatal = lambda record: None
        ref.schedule_perturb = copy.deepcopy(self.schedule_perturb)
        return ref

    def _reference_check(
        self,
        result: SimResult,
        ref: "Machine",
        max_cycles: Optional[int],
    ) -> None:
        """``REPRO_CHECK=1``: run the reference machine (see
        :meth:`_reference_machine`) and assert the architected outcome
        is bit-identical — cycles, per-CPU statistics, intervals and
        final memory contents.
        """
        ref_result = ref.run(max_cycles=max_cycles)
        if ref_result != result:
            raise ProtocolError(
                "spin-elision divergence: elided run "
                f"{result!r} != reference {ref_result!r}"
            )
        mine = {
            page: bytes(data)
            for page, data in self.memory._pages.items()
            if any(data)
        }
        theirs = {
            page: bytes(data)
            for page, data in ref.memory._pages.items()
            if any(data)
        }
        if mine != theirs:
            diff = sorted(
                set(mine) ^ set(theirs)
                | {p for p in set(mine) & set(theirs) if mine[p] != theirs[p]}
            )
            raise ProtocolError(
                "spin-elision divergence: final memory differs on "
                f"page(s) {diff}"
            )

    def _cpu_result(self, index: int) -> CpuResult:
        engine = self.engines[index]
        driver = self.drivers[index]
        return CpuResult(
            cpu_id=index,
            instructions=getattr(driver, "stats_instructions", 0),
            tx_started=engine.stats_tx_started,
            tx_committed=engine.stats_tx_committed,
            tx_aborted=engine.stats_tx_aborted,
            xi_rejects=engine.stats_xi_rejected,
            sw_committed=engine.stats_sw_committed,
            sw_aborted=engine.stats_sw_aborted,
            intervals=list(self._recorders[index].intervals),
        )
