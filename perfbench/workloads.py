"""The benchmark's four workloads: set-up, simulation and output checks.

Each workload builds its simulation from a machine seed (``prepare``),
runs it (``execute``) and checks the outcome (``check``). ``prepare``
times its own two halves, so the harness can report set-up time apart
from simulation time. Nothing here changes how the simulator runs: the
pool and hashtable workloads build exactly what
:func:`repro.bench.figures.run_update_experiment` and
:func:`repro.workloads.hashtable.run_hashtable_experiment` build, and the
footprint workload runs the trial loop of
:func:`repro.bench.lru.footprint_abort_rate` (cross-checked against it).

See ``README.md`` in this directory for why each workload exists.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, List, Optional, Sequence, Tuple

from repro.bench.figures import UpdateExperiment
from repro.bench.lru import _single_cpu_params, footprint_abort_rate
from repro.core.engine import FetchRetry, TxEngine
from repro.errors import TransactionAbortSignal
from repro.htm.api import HtmMachine
from repro.htm.datastructures import EMPTY, HashTable
from repro.mem.address import LINE_SIZE
from repro.mem.fabric import CoherenceFabric
from repro.mem.memory import MainMemory
from repro.params import ZEC12
from repro.sim.machine import Machine
from repro.workloads.hashtable import (
    TABLE_BASE,
    HashtableExperiment,
    hashtable_worker,
)
from repro.workloads.layout import PoolLayout
from repro.workloads.pool import build_update_program

@dataclass
class Prepared:
    """A simulation built and ready to run, plus what building it cost."""

    seed: int
    machine_s: float
    program_s: float
    state: Any
    #: The objects whose ``stats_*`` counters the trace reads afterwards.
    engines: List[TxEngine] = field(default_factory=list)
    fabrics: List[CoherenceFabric] = field(default_factory=list)


@dataclass
class Outcome:
    """What one simulation produced, in the units the metrics need."""

    #: Everything architected about the run: equal outcomes mean the
    #: simulation was bit-identical (cycles, per-CPU results, memory).
    fingerprint: Any
    #: Simulated instructions (footprint: simulated accesses).
    insns: int
    #: The paper's throughput: CPUs / mean update cycles, per 1,000 cycles.
    sim_throughput: float
    aborts: int
    attempts: int
    #: The machine's SimResult (None for the footprint workload).
    result: Any = None
    #: Footprint workload only: abort rate per (lines, policy).
    rates: Optional[dict] = None


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _result_fingerprint(result) -> Tuple:
    return (
        result.cycles,
        result.aborted_early,
        tuple(dataclasses.astuple(cpu) for cpu in result.cpus),
    )


def _paper_throughput(result) -> float:
    intervals = result.all_intervals()
    if not intervals:
        return 0.0
    return 1000.0 * result.n_cpus * len(intervals) / sum(intervals)


#: Cycle budget of every machine run; hitting it counts as a failed run.
MAX_CYCLES = 20_000_000


def _run_errors(result, per_cpu: int) -> List[str]:
    """Errors common to machine runs: budget hit, or a CPU that did not
    log ``per_cpu`` measured intervals."""
    errors = []
    if result.aborted_early:
        errors.append(f"cycle budget {MAX_CYCLES} hit")
    short = [c.cpu_id for c in result.cpus if len(c.intervals) != per_cpu]
    if short:
        errors.append(f"CPUs {short} did not log {per_cpu} intervals")
    return errors


#: The machine seed BENCH_speed.json's counts were measured at.
PIN_SEED = ZEC12.seed


def load_pin(root: Path, point: str) -> Tuple[int, int]:
    """(instructions, cycles) pinned for ``point`` in BENCH_speed.json."""
    with open(root / "BENCH_speed.json") as handle:
        entry = json.load(handle)["points"][point]
    return entry["instructions"], entry["cycles"]


class Workload:
    """Defaults shared by the workloads below."""

    def warmup_seed(self, seeds: Sequence[int]) -> int:
        """Seed of the untimed first run (and of the traced runs)."""
        return seeds[0]

    def extra_check(self, root: Path, prepared: Prepared,
                    outcome: Outcome) -> List[str]:
        """A check made once per invocation, on the first run."""
        return []


# ---------------------------------------------------------------------------
# Shared-variable pool (Figure 5(a)/(c)) on the ISA interpreter
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PoolWorkload(Workload):
    name: str
    experiment: UpdateExperiment
    #: Distinct machine seeds one run cycles through.
    period: int
    #: BENCH_speed.json point whose counts this workload must reproduce
    #: at :data:`PIN_SEED`, or None.
    pinned_point: Optional[str] = None

    def prepare(self, seed: int) -> Prepared:
        exp = self.experiment
        params = dataclasses.replace(ZEC12, seed=seed).with_cpus(exp.n_cpus)
        t0 = time.perf_counter()
        machine = Machine(params)
        t1 = time.perf_counter()
        program = build_update_program(
            exp.scheme, PoolLayout(exp.pool_size), n_vars=exp.n_vars,
            iterations=exp.iterations, fallback_mode=machine.fallback_mode,
        )
        t2 = time.perf_counter()
        for _ in range(exp.n_cpus):
            machine.add_program(program)
        t3 = time.perf_counter()
        return Prepared(seed, (t1 - t0) + (t3 - t2), t2 - t1, machine,
                        machine.engines, [machine.fabric])

    def execute(self, prepared: Prepared) -> Outcome:
        machine = prepared.state
        result = machine.run(max_cycles=MAX_CYCLES)
        layout = PoolLayout(self.experiment.pool_size)
        memory = machine.memory.read(layout.pool_base,
                                     layout.pool_size * layout.line_size)
        lock = machine.memory.read(layout.coarse_lock_addr, layout.line_size)
        return Outcome(
            fingerprint=(_result_fingerprint(result), _digest(memory, lock)),
            insns=sum(cpu.instructions for cpu in result.cpus),
            sim_throughput=_paper_throughput(result),
            aborts=result.total_aborted,
            attempts=result.total_aborted + result.total_committed,
            result=result,
        )

    def check(self, prepared: Prepared, outcome: Outcome) -> List[str]:
        exp = self.experiment
        machine = prepared.state
        layout = PoolLayout(exp.pool_size)
        errors = _run_errors(outcome.result, exp.iterations)
        total = sum(machine.memory.read_int(layout.var_addr(i), 8)
                    for i in range(exp.pool_size))
        want = exp.n_cpus * exp.iterations * exp.n_vars
        if total != want:
            errors.append(f"pool sums to {total}, expected {want}")
        lock = machine.memory.read_int(layout.coarse_lock_addr, 8)
        if lock != 0:
            errors.append(f"lock word left at {lock:#x}")
        return errors

    def warmup_seed(self, seeds: Sequence[int]) -> int:
        return PIN_SEED if self.pinned_point else seeds[0]

    def extra_check(self, root: Path, prepared: Prepared,
                    outcome: Outcome) -> List[str]:
        """At :data:`PIN_SEED`, the run must reproduce the counts pinned
        in BENCH_speed.json exactly."""
        if self.pinned_point is None or prepared.seed != PIN_SEED:
            return []
        insns_pin, cycles_pin = load_pin(root, self.pinned_point)
        got = (outcome.insns, outcome.result.cycles)
        if got != (insns_pin, cycles_pin):
            return [f"seed {PIN_SEED:#x}: {got[0]} insns / {got[1]} cycles, "
                    f"BENCH_speed.json pins {insns_pin} / {cycles_pin}"]
        return []


# ---------------------------------------------------------------------------
# Lock-elided hashtable (Figure 5(e)) on the htm.api coroutine driver
# ---------------------------------------------------------------------------


class _RecordingTable(HashTable):
    """A HashTable that remembers which puts succeeded, so the check can
    compare the final table with the keys put. Recording happens in the
    host, after the simulated operation has returned."""

    def __init__(self, base: int, buckets: int) -> None:
        super().__init__(base, buckets=buckets)
        self.keys_put: set = set()

    def put(self, ctx, key, value, elide=True):
        stored = yield from super().put(ctx, key, value, elide=elide)
        if stored:
            self.keys_put.add(key)
        return stored


@dataclass(frozen=True)
class HashtableWorkload(Workload):
    name: str
    experiment: HashtableExperiment
    period: int

    def prepare(self, seed: int) -> Prepared:
        exp = self.experiment
        params = dataclasses.replace(ZEC12, seed=seed).with_cpus(exp.n_threads)
        t0 = time.perf_counter()
        machine = HtmMachine(params)
        t1 = time.perf_counter()
        table = _RecordingTable(TABLE_BASE, exp.buckets)
        worker = hashtable_worker(table, exp)
        t2 = time.perf_counter()
        for _ in range(exp.n_threads):
            machine.spawn(worker)
        t3 = time.perf_counter()
        return Prepared(seed, (t1 - t0) + (t3 - t2), t2 - t1,
                        (machine, table), machine.engines, [machine.fabric])

    def _table_bytes(self, machine, table: HashTable) -> bytes:
        """The lock line and every bucket line."""
        end = TABLE_BASE + self.experiment.buckets * LINE_SIZE
        return machine.memory.read(table.lock_addr, end - table.lock_addr)

    def execute(self, prepared: Prepared) -> Outcome:
        machine, table = prepared.state
        result = machine.run(max_cycles=MAX_CYCLES)
        return Outcome(
            fingerprint=(_result_fingerprint(result),
                         _digest(self._table_bytes(machine, table)),
                         tuple(sorted(table.keys_put))),
            insns=sum(cpu.instructions for cpu in result.cpus),
            sim_throughput=_paper_throughput(result),
            aborts=result.total_aborted,
            attempts=result.total_aborted + result.total_committed,
            result=result,
        )

    def check(self, prepared: Prepared, outcome: Outcome) -> List[str]:
        exp = self.experiment
        machine, table = prepared.state
        memory = machine.memory
        errors = _run_errors(outcome.result, exp.operations)
        if memory.read_int(table.lock_addr, 8) != 0:
            errors.append("table lock left held")
        found = []
        for bucket in range(exp.buckets):
            bucket_addr = TABLE_BASE + bucket * LINE_SIZE
            for slot in range(HashTable.SLOTS_PER_BUCKET):
                addr = bucket_addr + slot * 16  # 8-byte key, 8-byte value
                key = memory.read_int(addr, 8)
                value = memory.read_int(addr + 8, 8)
                if key == EMPTY:
                    if value != 0:
                        errors.append(f"empty slot {addr:#x} holds {value}")
                    continue
                found.append(key)
                if table._bucket_addr(key) != bucket_addr:
                    errors.append(f"key {key} stored in the wrong bucket")
                # Puts store roll + 1 for a roll at or above read_percent.
                if not exp.read_percent < value <= 100:
                    errors.append(f"key {key} holds value {value}")
        if len(found) != len(set(found)):
            errors.append("a key is stored twice")
        if set(found) != table.keys_put:
            errors.append(
                f"table holds {len(set(found))} keys, "
                f"{len(table.keys_put)} were put"
            )
        return errors

# ---------------------------------------------------------------------------
# Single-CPU footprint capacity (Figure 5(f)) on a bare engine
# ---------------------------------------------------------------------------


@dataclass
class _FootprintConfig:
    lines: int
    policy: str
    engine: TxEngine
    clock: List[int]
    trials: List[List[int]]


@dataclass(frozen=True)
class FootprintWorkload(Workload):
    name: str
    #: (accessed lines, footprint policy) pairs; each runs ``trials``.
    configs: Sequence[Tuple[int, str]]
    trials: int
    period: int

    def prepare(self, seed: int) -> Prepared:
        machine_s = program_s = 0.0
        configs = []
        for lines, policy in self.configs:
            t0 = time.perf_counter()
            params = _single_cpu_params(ZEC12, policy != "no-lru-extension",
                                        policy)
            memory = MainMemory()
            fabric = CoherenceFabric(params)
            clock = [0]
            fabric.clock = lambda clock=clock: clock[0]
            engine = TxEngine(0, params, fabric, memory)
            t1 = time.perf_counter()
            # Same draws, in the same order, as footprint_abort_rate.
            rng = random.Random(seed)
            line_size = params.line_size
            span_lines = 1 << 22
            trials = [
                [0x100_0000 + rng.randrange(span_lines) * line_size
                 for _ in range(lines)]
                for _ in range(self.trials)
            ]
            t2 = time.perf_counter()
            machine_s += t1 - t0
            program_s += t2 - t1
            configs.append(_FootprintConfig(lines, policy, engine, clock,
                                            trials))
        return Prepared(seed, machine_s, program_s, configs,
                        [c.engine for c in configs],
                        [c.engine.fabric for c in configs])

    def execute(self, prepared: Prepared) -> Outcome:
        rates = {}
        accesses = aborts = cycles = 0
        per_config = []
        for config in prepared.state:
            engine, clock = config.engine, config.clock
            config_aborts = 0
            for addresses in config.trials:
                start = clock[0]
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
                            accesses += 1
                            break
                    engine.tx_end(0)
                except TransactionAbortSignal:
                    engine.process_abort()
                    config_aborts += 1
                cycles += clock[0] - start
            aborts += config_aborts
            rates[(config.lines, config.policy)] = config_aborts / len(
                config.trials)
            per_config.append((config.lines, config.policy, config_aborts,
                           clock[0], engine.stats_tx_started))
        attempts = sum(len(c.trials) for c in prepared.state)
        return Outcome(
            fingerprint=(tuple(per_config), accesses),
            insns=accesses,
            sim_throughput=1000.0 * attempts / cycles if cycles else 0.0,
            aborts=aborts,
            attempts=attempts,
            rates=rates,
        )

    def check(self, prepared: Prepared, outcome: Outcome) -> List[str]:
        errors = []
        for lines in sorted({lines for lines, _ in self.configs}):
            with_ext = outcome.rates.get((lines, "zec12"))
            without = outcome.rates.get((lines, "no-lru-extension"))
            if with_ext is not None and without is not None \
                    and without < with_ext:
                errors.append(
                    f"{lines} lines: no-lru-extension rate {without:.3f} < "
                    f"zec12 rate {with_ext:.3f}"
                )
        return errors

    def extra_check(self, root: Path, prepared: Prepared,
                    outcome: Outcome) -> List[str]:
        """The trial loop above must give footprint_abort_rate's answer
        for the same seed."""
        errors = []
        for (lines, policy), rate in sorted(outcome.rates.items()):
            want = footprint_abort_rate(
                lines, policy != "no-lru-extension", trials=self.trials,
                seed=prepared.seed, footprint_policy=policy,
            )
            if rate != want:
                errors.append(f"{lines} lines / {policy}: rate {rate} but "
                              f"footprint_abort_rate gives {want}")
        return errors


#: The benchmark's workloads; README.md says why each exists. Sizes put
#: one run near 1-3 s on a 2-core x86 VM, and ``period`` (machine seeds per
#: invocation) near the number of runs that fit in 25 seconds.
WORKLOADS = {
    w.name: w
    for w in (
        PoolWorkload(
            "lock-coarse-48",
            UpdateExperiment("coarse", 48, 10_000, 4, iterations=15),
            period=7,
            pinned_point="update-coarse-48cpu",
        ),
        PoolWorkload(
            "tx-conflict-48",
            UpdateExperiment("tbegin", 48, 10, 4, iterations=15),
            period=10,
        ),
        HashtableWorkload(
            "elided-hashtable-48",
            HashtableExperiment(48, elide=True, operations=120),
            period=16,
        ),
        FootprintWorkload(
            "footprint-capacity",
            configs=((150, "zec12"), (150, "no-lru-extension"),
                     (800, "zec12"), (800, "no-lru-extension")),
            trials=20,
            period=16,
        ),
    )
}
