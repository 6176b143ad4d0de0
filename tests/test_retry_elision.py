"""Tests for retry-storm elision and the parked-chain scheduler paths.

Retry parking extends the spin-elision contract one level down: a
certified ``FetchRetry`` back-off chain is advanced by scheduler ticks
instead of re-executed instructions, under the same strict bit-identity
contract. The tests pin that contract from several angles:

* PPA back-off delay identity at the interesting abort counts (0, 1,
  the exponent knee at 6, the clamp at 7, and far past it at 100), and
  end-to-end reject/abort identity on a constrained-TX point;
* certification: the chain never arms (and never parks) when the
  watched line's exclusive owner changes mid-backoff;
* the parked-deadlock diagnostic names a spin or retry waiter's
  watched block;
* pinned bit-identity on coarse/fine/rwlock 48-CPU points: each runs
  once elided, once on the unelided reference machine
  (``Machine(spin_elide=False)``) and once through the parallel runner,
  pinning the results and each mode's ``SimResult.sched`` counters;
* cycle budgets that stop the coarse point mid-chain, against the
  non-elided reference;
* ``REPRO_CHECK=1`` differential replay on the coarse and rwlock points,
  with and without schedule jitter (retry parking stays armed under
  jitter) and under a budget.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from conftest import (
    PINNED_48CPU,
    PINNED_IDS,
    PINNED_SCHED,
    pinned_parallel_run,
    pinned_run,
    pinned_sched,
    pinned_summary,
    update_machine,
)
from repro.bench.figures import UpdateExperiment, run_update_experiment
from repro.core.ppa import PpaAssist
from repro.cpu.assembler import assemble
from repro.cpu.isa import HALT
from repro.errors import MachineStateError
from repro.mem.xi import WATCH_BLOCK_MASK
from repro.params import ZEC12
from repro.sim.machine import Machine
from repro.sim.scheduler import Scheduler
from repro.verify.jitter import ScheduleJitter

class TestPpaBackoffIdentity:
    @pytest.mark.parametrize("count", [0, 1, 6, 7, 100])
    def test_delay_deterministic_per_seed(self, count):
        # The PPA delay stream must depend only on the seed and the
        # sequence of positive counts — never on scheduler mode — so two
        # assists with the same seed agree draw for draw.
        a = PpaAssist(ZEC12.latencies, random.Random(99))
        b = PpaAssist(ZEC12.latencies, random.Random(99))
        for _ in range(5):
            assert a.delay_cycles(count) == b.delay_cycles(count)

    @pytest.mark.parametrize("count", [0, 1, 6, 7, 100])
    def test_delay_bounds(self, count):
        unit = ZEC12.latencies.on_chip_intervention
        ppa = PpaAssist(ZEC12.latencies, random.Random(7))
        for _ in range(20):
            delay = ppa.delay_cycles(count)
            if count == 0:
                assert delay == 0
            else:
                exponent = min(count, PpaAssist.MAX_EXPONENT)
                assert unit <= delay <= unit * (1 << exponent)

    def test_clamped_counts_share_the_distribution(self):
        # Counts 7 and 100 both clamp to MAX_EXPONENT=6: same seed, same
        # draws — the back-off ceiling is retry-count independent.
        a = PpaAssist(ZEC12.latencies, random.Random(3))
        b = PpaAssist(ZEC12.latencies, random.Random(3))
        assert [a.delay_cycles(7) for _ in range(10)] == [
            b.delay_cycles(100) for _ in range(10)
        ]

    def test_constrained_point_reject_identity(self):
        # End to end: a contended constrained-TX point's per-CPU reject
        # and abort counters (fed by the PPA back-off chains) must be
        # identical with retry parking on and off.
        experiment = UpdateExperiment("tbeginc", 24, 10, 4, iterations=15)
        elided = run_update_experiment(experiment)
        plain = update_machine(experiment, spin_elide=False).run()
        assert [
            (c.xi_rejects, c.tx_aborted, c.instructions)
            for c in elided.cpus
        ] == [
            (c.xi_rejects, c.tx_aborted, c.instructions)
            for c in plain.cpus
        ]
        assert elided.cycles == plain.cycles


class TestRetryCertification:
    def _cpu_with_owned_line(self, owner):
        machine = Machine(ZEC12.with_cpus(4))
        cpu = machine.add_program(assemble([HALT()]))
        cpu.configure_spin_elide(True)
        line = 0x8000
        cpu.engine.fabric._lines[line] = SimpleNamespace(ex_owner=owner)
        return cpu, line

    def _note_try_raise(self, cpu, ia, line):
        """Mimic step()'s bookkeeping around a busy/reject FetchRetry
        raise: snapshot the fetch counter at entry, count the one fetch
        the try step performs, then run the raise-time hook."""
        fabric = cpu.engine.fabric
        cpu._retry_fetch0 = fabric.stats_fetches
        fabric.stats_fetches += 1
        cpu.engine._fetch_wait = None
        cpu._retry_note(ia, (line, True))

    def test_owner_change_between_raises_restarts(self):
        cpu, line = self._cpu_with_owned_line(owner=1)
        self._note_try_raise(cpu, 0x100, line)
        assert cpu._retry_trk == (0x100, line, True, 1)
        assert not cpu._retry_armed
        # The owner moves mid-backoff — the quantity the chain is
        # waiting out changed, so certification restarts from owner 2
        # instead of arming.
        cpu.engine.fabric._lines[line].ex_owner = 2
        self._note_try_raise(cpu, 0x100, line)
        assert not cpu._retry_armed
        assert cpu._retry_trk == (0x100, line, True, 2)

    def test_owner_change_before_park_point_blocks(self):
        cpu, line = self._cpu_with_owned_line(owner=1)
        self._note_try_raise(cpu, 0x100, line)
        self._note_try_raise(cpu, 0x100, line)
        assert cpu._retry_armed
        # Armed, but the owner moves before the park point: the re-check
        # must refuse to park and drop the certificate.
        cpu.engine.fabric._lines[line].ex_owner = 3
        assert not cpu._retry_try_park(cpu._retry_trk)
        assert cpu._retry_trk is None
        assert cpu.engine.fabric.watches.retry_by_cpu == {}

    def test_stable_owner_parks_and_registers_watch(self):
        cpu, line = self._cpu_with_owned_line(owner=1)
        self._note_try_raise(cpu, 0x100, line)
        self._note_try_raise(cpu, 0x100, line)
        assert cpu._retry_armed
        assert cpu._retry_try_park(cpu._retry_trk)
        assert cpu.engine.fabric.watches.retry_by_cpu[0] == (
            line, line & WATCH_BLOCK_MASK
        )
        cpu.retry_unpark()
        assert cpu.engine.fabric.watches.retry_by_cpu == {}

    def test_multi_line_fingerprint_blocks_arming(self):
        # Two fetches between entry and raise (a multi-line operation
        # replaying an L1 hit every retry): the fingerprint must not arm.
        cpu, line = self._cpu_with_owned_line(owner=1)
        self._note_try_raise(cpu, 0x100, line)
        fabric = cpu.engine.fabric
        cpu._retry_fetch0 = fabric.stats_fetches
        fabric.stats_fetches += 2
        cpu.engine._fetch_wait = None
        cpu._retry_note(0x100, (line, True))
        assert not cpu._retry_armed


class TestDeadlockDiagnostic:
    def test_diagnostic_names_spin_watched_block(self):
        # The LineWatchTable, not the event queue, is the ground truth
        # for what a parked CPU waits on: the diagnostic names the block.
        machine = Machine(ZEC12.with_cpus(4))
        cpu = machine.add_program(assemble([HALT()]))
        line = 0x8000
        cpu.engine.fabric.watches.add(0, line, line & WATCH_BLOCK_MASK)
        scheduler = Scheduler(machine.drivers)
        scheduler._parked[0] = None  # the guard only reads the indices
        with pytest.raises(MachineStateError) as exc:
            scheduler._raise_parked_deadlock()
        assert str(exc.value).endswith(
            "cpu 0 parked on block 0x8000 (line 0x8000)"
        )

    def test_diagnostic_names_retry_watched_block(self):
        machine = Machine(ZEC12.with_cpus(4))
        cpu = machine.add_program(assemble([HALT()]))
        line = 0x8000
        cpu.engine.add_retry_watch(line, line & WATCH_BLOCK_MASK)
        scheduler = Scheduler(machine.drivers)
        scheduler._parked[0] = None  # the guard only reads the indices
        with pytest.raises(MachineStateError) as exc:
            scheduler._raise_parked_deadlock()
        message = str(exc.value)
        assert "cpu 0 retry-parked on block 0x8000" in message
        assert "line 0x8000" in message

    def test_diagnostic_names_spin_and_retry_blocks(self):
        # A spin waiter and a retry waiter left parked together: the
        # diagnostic names both watched blocks.
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


class TestPinnedBitIdentity:
    @pytest.mark.parametrize("experiment,pinned", PINNED_48CPU,
                             ids=PINNED_IDS)
    @pytest.mark.parametrize("elide", [True, False], ids=["elide", "plain"])
    def test_serial(self, experiment, pinned, elide):
        result = pinned_run(experiment, spin_elide=elide)
        assert pinned_summary(result) == pinned
        assert pinned_sched(result) == PINNED_SCHED[
            (experiment.scheme, elide)
        ]
        if not elide:
            assert result.sched["retry_parks"] == 0

    def test_parallel(self):
        # The sched counters must survive the trip back from the worker.
        results = pinned_parallel_run()
        assert [pinned_summary(r) for r in results] == [
            pinned for _, pinned in PINNED_48CPU
        ]
        assert [pinned_sched(r) for r in results] == [
            PINNED_SCHED[(experiment.scheme, True)]
            for experiment, _ in PINNED_48CPU
        ]

    def test_retry_parking_engages_on_coarse_point(self):
        # Guards the pins against vacuity: the contended CSG point must
        # actually park retry waiters (and tick them).
        sched = pinned_run(PINNED_48CPU[0][0]).sched
        assert sched["retry_parks"] > 0
        assert sched["retry_wakes"] == sched["retry_parks"]
        assert sched["retry_ticks"] > 0
        assert sched["events"] > 0

    def test_virtual_advance_engages_on_coarse_point(self):
        # Guards the pins against vacuity: on the contended point,
        # parked spinners must advance by scheduler ticks rather than
        # executed instructions, and every parked chain must be woken
        # before the run ends.
        experiment, pinned = PINNED_48CPU[0]
        sched = pinned_run(experiment).sched
        assert sched["parks"] == sched["wakes"] > 0
        assert 0 < sched["spin_steps"] < pinned[1]


class TestCycleBudgetBoundary:
    #: Budgets chosen to land at the very start, deep inside, and just
    #: short of the end of the coarse point's 280111-cycle run — the
    #: middle ones stop with spinners and retry waiters parked.
    BUDGETS = (1000, 57_001, 137_777, 279_000)

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_budget_identity_mid_chain(self, budget):
        experiment = PINNED_48CPU[0][0]
        elided = update_machine(experiment).run(max_cycles=budget)
        plain = update_machine(experiment, spin_elide=False).run(
            max_cycles=budget
        )
        assert elided == plain
        assert elided.aborted_early
        assert plain.sched["parks"] == plain.sched["retry_parks"] == 0

    def test_budget_truncates_parked_chains(self):
        # At a deep mid-run budget the elided run must actually hold
        # parked chains when the clamp hits, or the identity above is
        # vacuous.
        experiment = PINNED_48CPU[0][0]
        elided = update_machine(experiment).run(max_cycles=137_777)
        assert elided.sched["spin_steps"] > 0
        assert elided.sched["retry_ticks"] > 0


class TestRetryCheck:
    def test_differential_run_passes(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "1")
        experiment = UpdateExperiment("coarse", 12, 1000, 4, iterations=5)
        result = run_update_experiment(experiment)
        assert result.sched["retry_parks"] > 0

    def test_differential_under_jitter(self, monkeypatch):
        # Retry parking stays armed under schedule jitter (the ticks
        # draw the per-step perturbation in exact pop order); the
        # differential against the jittered non-elided reference must
        # come back bit-identical, with parking demonstrably engaged.
        monkeypatch.setenv("REPRO_CHECK", "1")
        experiment = UpdateExperiment("coarse", 12, 1000, 4, iterations=5)
        for seed in (0, 7):
            machine = update_machine(experiment)
            machine.schedule_perturb = ScheduleJitter(seed, 9)
            result = machine.run()
            assert result.sched["retry_parks"] > 0
            assert result.sched["parks"] == 0  # spin parking stays off

    def test_differential_with_cycle_budget(self, monkeypatch):
        # The replay must also agree when the run stops mid-chain.
        monkeypatch.setenv("REPRO_CHECK", "1")
        experiment = UpdateExperiment("coarse", 12, 1000, 4, iterations=5)
        result = run_update_experiment(experiment, max_cycles=9000)
        assert result.aborted_early

    def test_differential_rwlock_run_passes(self, monkeypatch):
        # The same replay on the reader/writer lock point.
        monkeypatch.setenv("REPRO_CHECK", "1")
        experiment = UpdateExperiment("rwlock", 12, 1000, 4, iterations=5)
        result = run_update_experiment(experiment)
        assert result.sched["retry_parks"] > 0

    def test_differential_rwlock_under_jitter(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "1")
        experiment = UpdateExperiment("rwlock", 12, 1000, 4, iterations=5)
        for seed in (3, 12345):
            machine = update_machine(experiment)
            machine.schedule_perturb = ScheduleJitter(seed, 9)
            result = machine.run()
            assert result.sched["retry_parks"] > 0
            assert result.sched["parks"] == 0  # spin parking stays off
