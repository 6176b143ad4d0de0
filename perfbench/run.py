"""The repository benchmark: one workload, timed runs or one traced run.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` runs the workload back to back for ``--seconds`` seconds
and reports the end-to-end metrics. ``--trace 1`` runs one machine seed
untraced for half of ``--seconds``, then once more with spans around
every layer's public entry points, and reports the per-layer metrics.
Every run's output is checked. The last line of standard output is one
JSON object with the metrics BENCHMARK.json names::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

All runs happen in this process, one at a time. The workload seed only
reaches the simulator as ``MachineParams.seed`` (footprint: as the seed
of the Monte-Carlo trials). See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: Set-up-only builds after each timed run, for the setup_s median.
SETUP_BUILDS = 3
#: Events of the reference kernel (0.1-0.15 s on a 2-core x86 VM).
REFERENCE_EVENTS = 60_000
#: The reference kernel's typical time on a 2-core x86 VM. ``setup_s``
#: is set-up time rescaled to a host that runs the kernel this fast.
REFERENCE_NOMINAL_S = 0.15

Samples = Dict[str, Tuple[List[float], str]]


@dataclass
class Rep:
    """One simulation: set-up, run, and what it produced."""

    seed: int
    setup_s: float
    machine_s: float
    program_s: float
    sim_s: float
    outcome: object
    #: The built simulation; dropped once checked, so runs do not pile up.
    prepared: object = None

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.sim_s


class Bench:
    """Runs one workload's simulations and counts the failed ones."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        #: seed -> fingerprint of its first run (determinism check).
        self._fingerprints: Dict[int, object] = {}

    def run_once(self, seed: int, tracer=None,
                 first: bool = False) -> Optional[Rep]:
        """Set up and run one simulation at ``seed``, and check it (with
        the workload's once-per-invocation check too when ``first``).
        Returns None, and counts a failure, if the run raised or its
        output is wrong."""
        self.attempted += 1
        gc.collect()
        try:
            if tracer is not None:
                with tracer:
                    rep = self._timed(seed)
            else:
                rep = self._timed(seed)
            errors = self.workload.check(rep.prepared, rep.outcome)
            if first:
                errors += self.workload.extra_check(ROOT, rep.prepared,
                                                    rep.outcome)
        except Exception:
            return self._fail(seed, "raised\n" + traceback.format_exc())
        fingerprint = self._fingerprints.setdefault(seed,
                                                    rep.outcome.fingerprint)
        if fingerprint != rep.outcome.fingerprint:
            errors.append("not identical to the earlier run at this seed"
                          + (" (traced run)" if tracer is not None else ""))
        if errors:
            return self._fail(seed, "; ".join(errors))
        return rep

    def _fail(self, seed: int, message: str) -> None:
        self.failed += 1
        print(f"FAILED at machine seed {seed}: {message}", file=sys.stderr)
        return None

    def _timed(self, seed: int) -> Rep:
        t0 = time.perf_counter()
        prepared = self.workload.prepare(seed)
        t1 = time.perf_counter()
        outcome = self.workload.execute(prepared)
        t2 = time.perf_counter()
        return Rep(seed, t1 - t0, prepared.machine_s, prepared.program_s,
                   t2 - t1, outcome, prepared)


def machine_seeds(seed: int, count: int) -> List[int]:
    """The machine seeds a run uses, derived from the workload seed."""
    rng = random.Random(seed)
    return [rng.getrandbits(32) for _ in range(count)]


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _RefCpu:
    """One CPU of the reference kernel: a dict-backed line cache."""

    __slots__ = ("lines", "hits", "misses")

    def __init__(self) -> None:
        self.lines: Dict[int, int] = {}
        self.hits = 0
        self.misses = 0

    def access(self, line: int, now: int) -> int:
        if self.lines.get(line) is not None:
            self.hits += 1
            self.lines[line] = now
            return 4
        self.misses += 1
        if len(self.lines) >= 384:
            self.lines.pop(next(iter(self.lines)))
        self.lines[line] = now
        return 120


def reference_seconds() -> float:
    """Host seconds of a fixed pure-Python kernel that uses no simulator
    code: a small discrete-event loop of the simulator's kind (a heap of
    events, dict-backed caches on slotted objects, method calls).

    Timed between runs, it samples how fast the host runs Python at that
    moment. On a shared host that speed drifts by tens of percent over
    minutes, and a run's time divided by the kernel's time around it
    (``wall_ref``) cancels much of the drift. The kernel is part of the
    benchmark, so a change to the simulator cannot move it.
    """
    rng = random.Random(1)
    cpus = [_RefCpu() for _ in range(16)]
    events = [(0, i) for i in range(len(cpus))]
    gc.collect()
    start = time.perf_counter()
    for _ in range(REFERENCE_EVENTS):
        now, index = heapq.heappop(events)
        latency = cpus[index].access(rng.randrange(1024), now)
        heapq.heappush(events, (now + latency, index))
    elapsed = time.perf_counter() - start
    if sum(cpu.hits + cpu.misses for cpu in cpus) != REFERENCE_EVENTS:
        raise AssertionError("reference kernel lost events")
    return elapsed


def timed_runs(bench: Bench, seeds: List[int], seconds: float) -> Samples:
    """Samples of every end-to-end metric, with units.

    The first run is an untimed warm-up that also measures memory and
    makes the workload's once-per-invocation check. Timed runs then cycle
    through ``seeds`` until ``seconds`` have passed, and at least until
    every seed has run and one seed has run twice (the determinism
    check). The reference kernel runs before the first timed run and
    after each one; ``wall_ref`` divides each run's time by the mean of
    the two kernel times around it. Set-up-only builds follow each timed
    run, so the set-up samples spread over the whole window. ``setup_s``
    rescales each build by the same kernel times, to the seconds it
    would take on a host that runs the kernel in
    :data:`REFERENCE_NOMINAL_S`; ``setup_host_s`` is the raw time.
    """
    workload = bench.workload
    start = time.perf_counter()
    warm_seed = workload.warmup_seed(seeds)
    rss_before = maxrss_mb()
    warm = bench.run_once(warm_seed, first=True)
    # Growth of the process's peak over the first run alone: nothing
    # before it in this process built a machine.
    peak_rss_mb = maxrss_mb() - rss_before
    if warm is None:
        return {}
    warm.prepared = None
    min_runs = len(seeds) + (warm_seed not in seeds)
    reps: List[Rep] = []
    setups: List[float] = []
    setups_host: List[float] = []
    refs = [reference_seconds()]
    wall_refs: List[float] = []
    k = 0
    while k < min_runs or time.perf_counter() - start < seconds:
        seed = seeds[k % len(seeds)]
        k += 1
        rep = bench.run_once(seed)
        if rep is not None:
            rep.prepared = None
        refs.append(reference_seconds())
        if rep is None:
            continue
        reps.append(rep)
        reference = (refs[-2] + refs[-1]) / 2
        wall_refs.append(rep.wall_s / reference)
        builds = [rep.setup_s]
        for _ in range(SETUP_BUILDS):
            gc.collect()
            t0 = time.perf_counter()
            workload.prepare(seed)
            builds.append(time.perf_counter() - t0)
        setups_host += builds
        setups += [b * REFERENCE_NOMINAL_S / reference for b in builds]
    if not reps:
        return {}
    # Simulated metrics come from one run of each seed, so they do not
    # depend on how many runs the host managed in the time.
    by_seed = {r.seed: r.outcome for r in [warm] + reps if r.seed in seeds}
    sim = list(by_seed.values())
    attempts = sum(o.attempts for o in sim)
    for (lines, policy), rate in sorted((sim[0].rates or {}).items()):
        print(f"  abort rate at {lines} lines, {policy}: {rate:.3f} "
              f"(machine seed {seeds[0]})")
    return {
        "wall_s": ([r.wall_s for r in reps], "s"),
        "wall_ref": (wall_refs, "ref"),
        "reference_s": (refs, "s"),
        "sim_insns_per_s": ([r.outcome.insns / r.sim_s for r in reps], "1/s"),
        "setup_s": (setups, "s"),
        "setup_host_s": (setups_host, "s"),
        "peak_rss_mb": ([peak_rss_mb], "MB"),
        "sim_throughput": ([statistics.fmean(o.sim_throughput for o in sim)],
                           "1/kcycle"),
        "abort_rate": ([sum(o.aborts for o in sim) / attempts
                        if attempts else 0.0], "ratio"),
    }


def traced_run(bench: Bench, seed: int, seconds: float,
               units: Dict[str, str]) -> Samples:
    """The per-layer metrics: untraced runs at ``seed`` for half of
    ``seconds`` (at least two), then one traced run at the same seed."""
    from layertrace import Tracer, layer_metrics

    untraced: List[Rep] = []
    start = time.perf_counter()
    while len(untraced) < 2 or time.perf_counter() - start < seconds / 2:
        rep = bench.run_once(seed, first=not untraced)
        if rep is None:
            return {}
        rep.prepared = None
        untraced.append(rep)
    tracer = Tracer()
    rep = bench.run_once(seed, tracer=tracer)
    if rep is None:
        return {}
    setup = {
        "machine_s": statistics.median(r.machine_s for r in untraced),
        "program_s": statistics.median(r.program_s for r in untraced),
    }
    overhead = rep.wall_s - statistics.median(r.wall_s for r in untraced)
    values = layer_metrics(tracer, rep.prepared, rep.outcome, setup, overhead)
    print(f"  traced run: {tracer.span_count} spans, {rep.wall_s:.3f} s; "
          "interpreter.self_s and storecache.self_s undercount (the "
          "scheduler and engine inline their fast paths)")
    return {name: ([value], units[name]) for name, value in values.items()}


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git;
    "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_identity() -> Dict[str, str]:
    """The commit and a digest of the simulator's sources, which
    identifies the code in any checkout, git or not."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"commit": git_commit(), "source_sha256": digest.hexdigest()[:16]}


def describe_environment(workload, seeds: List[int]) -> Dict[str, object]:
    from repro.core.footprint import resolve_policy_spec
    from repro.params import ZEC12
    from repro.stm import resolve_fallback_mode

    configs = getattr(workload, "configs", None)
    return {
        "workload": workload.name,
        "machine_seeds": seeds,
        "footprint_policy": (sorted({policy for _, policy in configs})
                             if configs else resolve_policy_spec(ZEC12)),
        "fallback_mode": resolve_fallback_mode(ZEC12),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        **source_identity(),
    }


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    overrides = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if overrides:
        print("refusing to run: the simulator reads REPRO_* settings from "
              f"the environment; unset {', '.join(overrides)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"cannot import the simulator from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"the simulator was imported from {repro.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        with open(BENCHMARK_JSON) as handle:
            spec = json.load(handle)
    except OSError as exc:
        print(f"cannot read {BENCHMARK_JSON}: {exc}", file=sys.stderr)
        return 2
    reported = spec["per_layer" if args.trace else "end_to_end"]

    seeds = machine_seeds(args.seed, workload.period)
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    print(f"perfbench {workload.name}: {why.get(workload.name, '')}")
    print("environment " + json.dumps(describe_environment(workload, seeds)))
    bench = Bench(workload)
    if args.trace:
        units = {m["name"]: m["unit"] for m in reported}
        samples = traced_run(bench, workload.warmup_seed(seeds),
                             args.seconds, units)
    else:
        samples = timed_runs(bench, seeds, args.seconds)
    if not samples:
        print("no run completed", file=sys.stderr)
        return 1

    values = {name: statistics.median(v) for name, (v, _) in samples.items()}
    print(f"  error_rate: {bench.failed / bench.attempted} ratio "
          f"({bench.failed} of {bench.attempted} runs failed)")
    for name, (v, unit) in samples.items():
        spread = ""
        if len(v) > 1:
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (f"  (median of {len(v)}; p25 {q1:.6g}, p75 {q3:.6g}, "
                      f"min {min(v):.6g}, max {max(v):.6g})")
        print(f"  {name}: {values[name]:.6g} {unit}{spread}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
