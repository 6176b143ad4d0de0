"""Scheduler counter identity across the retired virtual-sequence modes.

The scheduler used to offer two drains (virtual sequence numbering on,
``virt``, or off, ``mat``) over two event queues (calendar, ``cal``, or
bare heap, ``heap``). Before they were deleted, all four combinations
gave the same results *and* the same ``SimResult.sched`` counters on the
pinned 48-CPU points, under spin/retry elision on (``elide``) and off
(``plain``). The one materialized ``heapq`` drain that remains must
reproduce both, so the counters are pinned here next to the results.

The test ids keep the labels of that flag matrix. Only the elision
label still selects a mode; the ``virt``/``mat`` and ``cal``/``heap``
labels now all run the same drain, so every point runs four times per
mode in one process, which also catches state leaking from one
``Machine`` into the next. ``REPRO_CHECK=1`` replaces the old
virtual-sequence differential replay and is exercised on the rwlock
point, which the retry-elision tests do not replay.
"""

from __future__ import annotations

import pytest

from repro.bench.figures import UpdateExperiment, run_update_experiment
from repro.bench.parallel import run_tasks
from repro.cpu.assembler import assemble
from repro.cpu.isa import HALT
from repro.errors import MachineStateError
from repro.mem.xi import WATCH_BLOCK_MASK
from repro.params import ZEC12
from repro.sim.machine import Machine
from repro.sim.scheduler import Scheduler
from repro.verify.jitter import ScheduleJitter
from repro.workloads.pool import PoolLayout, build_update_program

#: (cycles, instructions, tx_aborted, xi_rejects) pinned from the
#: reference implementation — the same three 48-CPU points the
#: retry-elision matrix pins (fine-grained locking is single-variable
#: by design).
PINNED_48CPU = [
    (UpdateExperiment("coarse", 48, 1000, 4, iterations=3),
     (280111, 186668, 0, 0)),
    (UpdateExperiment("fine", 48, 1000, 1, iterations=3),
     (3412, 2256, 0, 0)),
    (UpdateExperiment("rwlock", 48, 1000, 4, iterations=3),
     (51045, 3984, 0, 0)),
]

IDS = [f"{e.scheme}-{e.n_cpus}" for e, _ in PINNED_48CPU]

SCHED_KEYS = ("events", "parks", "retry_parks", "spin_steps",
              "heap_elided_steps")

#: ``SimResult.sched`` counters (in ``SCHED_KEYS`` order) per scheme and
#: elision mode, identical in every combination of the retired
#: virtual-sequence and event-queue modes.
PINNED_SCHED = {
    ("coarse", "1"): (236422, 1537, 1452, 178962, 1558),
    ("coarse", "0"): (217624, 0, 0, 0, 20654),
    ("fine", "1"): (2632, 0, 7, 0, 64),
    ("fine", "0"): (2632, 0, 0, 0, 72),
    ("rwlock", "1"): (8842, 0, 41, 0, 2121),
    ("rwlock", "0"): (8842, 0, 0, 0, 3039),
}

#: The labels of the retired flag matrix: virtual seq numbering on/off
#: x spin/retry elision on/off x calendar/heap event queue.
VIRT_MODES = [
    (virtseq, elide, heap)
    for virtseq in ("1", "0")
    for elide in ("1", "0")
    for heap in ("0", "1")
]
VIRT_MODE_IDS = [
    f"{'virt' if v == '1' else 'mat'}-"
    f"{'elide' if e == '1' else 'plain'}-"
    f"{'heap' if h == '1' else 'cal'}"
    for v, e, h in VIRT_MODES
]


def _summary(result):
    return (
        result.cycles,
        sum(c.instructions for c in result.cpus),
        sum(c.tx_aborted for c in result.cpus),
        sum(c.xi_rejects for c in result.cpus),
    )


def _sched(result):
    return tuple(result.sched[key] for key in SCHED_KEYS)


def _machine(experiment):
    machine = Machine(ZEC12.with_cpus(experiment.n_cpus))
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


class TestFlagMatrixIdentity:
    @pytest.mark.parametrize("experiment,pinned", PINNED_48CPU, ids=IDS)
    @pytest.mark.parametrize("virtseq,elide,heap", VIRT_MODES,
                             ids=VIRT_MODE_IDS)
    def test_serial(self, experiment, pinned, virtseq, elide, heap,
                    monkeypatch):
        monkeypatch.setenv("REPRO_SPIN_ELIDE", elide)
        result = run_update_experiment(experiment)
        assert _summary(result) == pinned
        assert _sched(result) == PINNED_SCHED[(experiment.scheme, elide)]

    @pytest.mark.parametrize("virtseq", ["1", "0"], ids=["virt", "mat"])
    def test_parallel(self, virtseq, monkeypatch):
        # Workers fork after the env change, so they inherit it; the
        # sched counters must survive the trip back from the worker.
        monkeypatch.setenv("REPRO_SPIN_ELIDE", "1")
        results = run_tasks(
            [("update", experiment) for experiment, _ in PINNED_48CPU],
            workers=2,
        )
        assert [_summary(r) for r in results] == [
            pinned for _, pinned in PINNED_48CPU
        ]
        assert [_sched(r) for r in results] == [
            PINNED_SCHED[(experiment.scheme, "1")]
            for experiment, _ in PINNED_48CPU
        ]

    def test_virtual_advance_engages_on_coarse_point(self, monkeypatch):
        # Guards the matrix against vacuity: on the contended point,
        # parked spinners must advance by scheduler ticks rather than
        # executed instructions, and every parked chain must be woken
        # before the run ends.
        monkeypatch.setenv("REPRO_SPIN_ELIDE", "1")
        experiment, pinned = PINNED_48CPU[0]
        result = run_update_experiment(experiment)
        sched = result.sched
        assert sched["parks"] == sched["wakes"] > 0
        assert 0 < sched["spin_steps"] < pinned[1]


class TestVirtseqCheck:
    def test_differential_run_passes(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "1")
        monkeypatch.setenv("REPRO_SPIN_ELIDE", "1")
        experiment = UpdateExperiment("rwlock", 12, 1000, 4, iterations=5)
        result = run_update_experiment(experiment)
        assert result.sched["retry_parks"] > 0

    def test_differential_under_jitter(self, monkeypatch):
        # Spin parking stays off under perturbation hooks, but retry
        # parking (whose ticks draw the jitter in exact pop order)
        # survives — the non-elided replay must come back bit-identical
        # with parking demonstrably engaged.
        monkeypatch.setenv("REPRO_CHECK", "1")
        monkeypatch.setenv("REPRO_SPIN_ELIDE", "1")
        experiment = UpdateExperiment("rwlock", 12, 1000, 4, iterations=5)
        for seed in (3, 12345):
            machine = _machine(experiment)
            machine.schedule_perturb = ScheduleJitter(seed, 9)
            result = machine.run()
            assert result.sched["retry_parks"] > 0
            assert result.sched["parks"] == 0  # spin parking stays off


class TestDeadlockDiagnosticOffQueue:
    def test_diagnostic_without_off_queue_head(self):
        # A spin waiter and a retry waiter left parked together: the
        # diagnostic names both watched blocks, and no longer speaks of
        # off-queue heads now that every parked chain stays on the heap.
        machine = Machine(ZEC12.with_cpus(4))
        spinner = machine.add_program(assemble([HALT()]))
        retrier = machine.add_program(assemble([HALT()]))
        spinner.engine.fabric.watches.add(0, 0x8000, 0x8000 & WATCH_BLOCK_MASK)
        retrier.engine.add_retry_watch(0x9000, 0x9000 & WATCH_BLOCK_MASK)
        scheduler = Scheduler(machine.drivers)
        scheduler._parked[0] = None  # the guard only reads the indices
        scheduler._parked[1] = None
        with pytest.raises(MachineStateError) as exc:
            scheduler._raise_parked_deadlock()
        message = str(exc.value)
        assert "cpu 0 parked on block 0x8000" in message
        assert "cpu 1 retry-parked on block 0x9000" in message
        assert "off-queue" not in message
