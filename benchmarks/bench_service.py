"""End-to-end throughput benchmark for the sweep service (repro.serve).

Measures what the one-host service is for: points/second served under
realistic traffic shapes, each scenario against a freshly started
service subprocess with its own store directory:

* **cold vs warm** — the same sweep twice; the second run is served
  entirely from the content-addressed store.
* **local workers 1 vs N** — executor-lane scaling on one machine.
* **duplicate storm** — ``--clients`` concurrent clients (default 8)
  all submitting the identical sweep; single-flight dedupe must compute
  each unique point exactly once (asserted from service stats).
* **bit-identity** — three pinned sweep points must come back from the
  service byte-identical (canonical JSON) to direct ``_run_task``
  execution.
* **STAMP vacation** — lock vs TBEGIN vacation points served through
  the service, per the ROADMAP's continuous-traffic goal.

Run with::

    python benchmarks/bench_service.py [--quick] [--clients N]
                                       [--threads] [--workers N]

Prints a markdown table (committed to EXPERIMENTS.md) and exits
non-zero if dedupe or bit-identity fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.bench.figures import UpdateExperiment
from repro.bench.parallel import _run_task, task_key
from repro.params import ZEC12
from repro.serve.client import SweepClient, wait_ready
from repro.workloads.stamp import VacationExperiment

FAILURES = []


@contextmanager
def service(tmp: str, store: str, local_workers: int, batch: int = 4,
            threads: bool = False):
    """A sweep-service subprocess."""
    address = f"unix:{tmp}/svc-{store}.sock"
    store_root = os.path.join(tmp, store)
    argv = [sys.executable, "-m", "repro.serve", "serve",
            "--listen", address, "--local-workers", str(local_workers),
            "--batch", str(batch), "--store", store_root]
    if threads:
        argv.append("--threads")
    env = dict(os.environ)
    env["PYTHONPATH"] = (os.path.join(os.path.dirname(__file__), "..", "src")
                         + os.pathsep + env.get("PYTHONPATH", ""))
    proc = subprocess.Popen(argv, env=env)
    try:
        wait_ready(address, timeout=60)
        yield address
    finally:
        try:
            with SweepClient(address, timeout=10) as client:
                client.shutdown()
        except Exception:
            proc.terminate()
        proc.wait(timeout=30)


def sweep_tasks(quick: bool):
    schemes = ("coarse", "tbegin") if quick else ("coarse", "tbegin",
                                                  "tbeginc")
    cpus = (2, 4, 6) if quick else (2, 4, 6, 8, 12, 16, 24)
    iters = 6 if quick else 10
    return [("update", UpdateExperiment(scheme, n, 10_000, 4,
                                        iterations=iters))
            for scheme in schemes for n in cpus]


def timed_sweep(address: str, tasks) -> float:
    with SweepClient(address, timeout=600) as client:
        start = time.perf_counter()
        client.run_tasks(tasks)
        return time.perf_counter() - start


def warm_executor(address: str, lanes: int) -> None:
    """Pay process-pool spawn cost before timing (steady-state numbers).

    Submits ``lanes + 1`` distinct trivial points (disjoint from the
    timed sweep) so every executor lane has forked and imported before
    the stopwatch starts.
    """
    tasks = [("update", UpdateExperiment("coarse", 2, 10, 1, iterations=k))
             for k in range(1, lanes + 2)]
    timed_sweep(address, tasks)


def stats_of(address: str):
    with SweepClient(address, timeout=30) as client:
        return client.stats()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true",
                        help="smaller sweeps (CI smoke)")
    parser.add_argument("--clients", type=int, default=8, metavar="N",
                        help="concurrent clients in the duplicate storm "
                             "(default: 8)")
    parser.add_argument("--workers", type=int, default=4, metavar="N",
                        help="local workers in the scaling scenarios "
                             "(default: 4)")
    parser.add_argument("--threads", action="store_true",
                        help="thread executor in the service (fast start; "
                             "processes are the honest default)")
    args = parser.parse_args()

    tasks = sweep_tasks(args.quick)
    n_points = len(tasks)
    rows = []

    def row(scenario, wall, points, note):
        rate = points / wall if wall else float("inf")
        rows.append((scenario, points, wall, rate, note))
        print(f"  {scenario:<28} {points:>4} points in {wall:6.2f}s "
              f"= {rate:6.1f} points/s  ({note})")

    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as tmp:
        # The scaling scenarios can only beat 1 lane when the host has
        # cores to scale onto; on a 1-core box they instead measure that
        # the service adds no overhead per extra lane.
        print(f"sweep: {n_points} update points "
              f"({'quick' if args.quick else 'full'} grid), "
              f"host has {os.cpu_count()} cpus")

        # -- cold vs warm store ----------------------------------------
        with service(tmp, "coldwarm", args.workers,
                     threads=args.threads) as address:
            row("cold store", timed_sweep(address, tasks), n_points,
                f"{args.workers} local workers")
            row("warm store", timed_sweep(address, tasks), n_points,
                "all points from store")
            stats = stats_of(address)
            served = stats["service"]["store_served"]
            if served != n_points:
                FAILURES.append(
                    f"warm run served {served}/{n_points} from store")

        # -- local-worker scaling --------------------------------------
        # batch 1 so dispatch granularity (not batching) is what the
        # scaling scenarios measure, and an untimed warm-up sweep so the
        # stopwatch sees steady-state lanes, not interpreter spawns.
        with service(tmp, "w1", 1, batch=1,
                     threads=args.threads) as address:
            warm_executor(address, 1)
            row("local workers: 1", timed_sweep(address, tasks), n_points,
                "fresh store, batch 1, warmed lanes")
        with service(tmp, "wN", args.workers, batch=1,
                     threads=args.threads) as address:
            warm_executor(address, args.workers)
            row(f"local workers: {args.workers}",
                timed_sweep(address, tasks), n_points,
                "fresh store, batch 1, warmed lanes")

        # -- duplicate storm -------------------------------------------
        with service(tmp, "storm", args.workers,
                     threads=args.threads) as address:
            walls = [None] * args.clients

            def storm_client(slot: int) -> None:
                walls[slot] = timed_sweep(address, tasks)

            threads = [threading.Thread(target=storm_client, args=(i,))
                       for i in range(args.clients)]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            storm_wall = time.perf_counter() - start
            stats = stats_of(address)["service"]
            computed = stats["computed"]
            requested = stats["points_requested"]
            row(f"duplicate storm ({args.clients} clients)", storm_wall,
                requested,
                f"computed {computed} unique, dedupe "
                f"{requested / computed:.1f}x" if computed else "n/a")
            if computed != n_points:
                FAILURES.append(
                    f"duplicate storm computed {computed} points, "
                    f"expected exactly {n_points}")

        # -- bit-identity vs direct execution --------------------------
        pinned = [
            ("update", UpdateExperiment("coarse", 6, 10, 4, iterations=6)),
            ("update", UpdateExperiment("tbeginc", 12, 10_000, 4,
                                        iterations=6)),
            ("vacation", VacationExperiment(4, use_tx=True, sessions=8)),
        ]
        direct = [json.dumps(_run_task((kind, experiment, ZEC12, False)),
                             sort_keys=True)
                  for kind, experiment in pinned]
        with service(tmp, "identity", 2, threads=args.threads) as address:
            with SweepClient(address, timeout=600) as client:
                served = [json.dumps(payload, sort_keys=True)
                          for payload in client.run_payloads(pinned)]
        for (kind, experiment), expect, got in zip(pinned, direct, served):
            if expect != got:
                FAILURES.append(
                    f"service payload differs from direct execution for "
                    f"{kind}/{experiment}")
        print(f"  bit-identity: {len(pinned)} pinned points "
              f"{'OK' if len(FAILURES) == 0 else 'FAILED'} "
              f"(key {task_key(*pinned[0], ZEC12)[:12]}...)")

        # -- STAMP vacation traffic ------------------------------------
        vac_threads = (2, 4) if args.quick else (2, 4, 8)
        sessions = 8 if args.quick else 20
        vacation = [("vacation", VacationExperiment(n, use_tx=use_tx,
                                                    sessions=sessions))
                    for n in vac_threads for use_tx in (False, True)]
        with service(tmp, "stamp", args.workers,
                     threads=args.threads) as address:
            with SweepClient(address, timeout=600) as client:
                start = time.perf_counter()
                results = client.run_tasks(vacation)
                wall = time.perf_counter() - start
        row("STAMP vacation", wall, len(vacation),
            f"{sessions} sessions/thread")
        for i, n in enumerate(vac_threads):
            lock, tx = results[2 * i], results[2 * i + 1]
            print(f"    vacation {n} threads: lock "
                  f"{lock.throughput * 1000:.2f}, tx "
                  f"{tx.throughput * 1000:.2f}, factor "
                  f"{tx.throughput / lock.throughput:.2f}x")

    print()
    print("| scenario | points | wall (s) | points/s | note |")
    print("|---|---|---|---|---|")
    for scenario, points, wall, rate, note in rows:
        print(f"| {scenario} | {points} | {wall:.2f} | {rate:.1f} "
              f"| {note} |")

    if FAILURES:
        print()
        for failure in FAILURES:
            print(f"FAILED: {failure}")
        return 1
    print()
    print("all service benchmarks passed (dedupe exact, payloads "
          "bit-identical)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
