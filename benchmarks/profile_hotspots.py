"""Profile the simulator on one sweep point and print the hot spots.

Runs a single :class:`~repro.bench.figures.UpdateExperiment` point under
:mod:`cProfile` and prints a flat :mod:`pstats` report of the functions
with the highest *total* (self) time — the place to look before touching
the simulator for performance. Optionally also prints the cumulative-time
ranking and dumps the raw stats for ``snakeviz``-style tools.

Run with::

    python benchmarks/profile_hotspots.py [--point NAME] [--top N]
                                          [--sort tottime|cumulative]
                                          [--by-layer] [--dump PATH]

``--point`` names one of the ``bench_speed`` baseline points (default the
headline ``update-coarse-48cpu``); profiling overhead roughly doubles the
wall time, so the reported seconds are not comparable to bench_speed's.

``--by-layer`` replaces the per-function report with self time summed
per simulator module (``sim/scheduler``, ``mem/fabric``, ...), the
private-directory and shared tag-store modules reported together as one
``caches`` layer and everything outside the package as
``builtins/stdlib``; ``--top`` then limits the number of layers shown.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys
from collections import defaultdict
from typing import Dict

from bench_speed import BASELINES

import repro
from repro.bench.figures import run_update_experiment

#: Modules reported under one layer name instead of their own.
MERGED_LAYERS = {"mem/directory": "caches", "mem/shared": "caches"}
_PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def layer_of(filename: str) -> str:
    """Layer name of a profiled function's source file."""
    path = os.path.abspath(filename)
    if not path.startswith(_PACKAGE_DIR):
        return "builtins/stdlib"
    module = os.path.splitext(path[len(_PACKAGE_DIR):])[0]
    module = module.replace(os.sep, "/")
    return MERGED_LAYERS.get(module, module)


def self_time_by_layer(stats: pstats.Stats) -> Dict[str, float]:
    """cProfile self (``tottime``) seconds summed per layer."""
    totals: Dict[str, float] = defaultdict(float)
    for (filename, _line, _name), entry in stats.stats.items():
        totals[layer_of(filename)] += entry[2]
    return dict(totals)


def print_layers(totals: Dict[str, float], top: int) -> None:
    grand = sum(totals.values()) or 1.0
    ranked = sorted(totals.items(), key=lambda item: (-item[1], item[0]))
    print(f"{'layer':<24} {'self s':>9} {'share':>7}")
    for layer, seconds in ranked[:top]:
        print(f"{layer:<24} {seconds:>9.3f} {100.0 * seconds / grand:>6.1f}%")
    print(f"{'total':<24} {grand:>9.3f}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--point", default="update-coarse-48cpu",
                        choices=sorted(BASELINES),
                        help="baseline sweep point to profile")
    parser.add_argument("--top", type=int, default=25,
                        help="number of functions to report (default 25)")
    parser.add_argument("--sort", default="tottime",
                        choices=["tottime", "cumulative"],
                        help="ranking order for the flat report")
    parser.add_argument("--by-layer", action="store_true",
                        help="report self time grouped by module instead "
                             "of per function")
    parser.add_argument("--dump", metavar="PATH",
                        help="also write the raw pstats data to PATH")
    args = parser.parse_args()

    experiment = BASELINES[args.point][0]
    profiler = cProfile.Profile()
    profiler.enable()
    result = run_update_experiment(experiment)
    profiler.disable()

    insns = sum(c.instructions for c in result.cpus)
    print(f"{args.point}: {insns} instructions, {result.cycles} cycles "
          f"(under profiler — wall time is inflated)")
    sched = result.sched or {}
    print("scheduler: "
          + ", ".join(f"{key}={value}" for key, value in sched.items()))
    # Event-queue composition: every queue event is either an elided
    # placeholder advance (parked spin / parked retry) or a plain step
    # of a running CPU (heap-elided steps never enter the queue).
    events = sched.get("events", 0)
    retry_ticks = sched.get("retry_ticks", 0)
    spin_steps = sched.get("spin_steps", 0)
    plain = events - retry_ticks - spin_steps
    if events:
        print("event-queue composition: "
              f"{events} events = "
              f"{spin_steps} parked-spin placeholders ("
              f"{100.0 * spin_steps / events:.1f}%) + "
              f"{retry_ticks} parked-retry ticks ("
              f"{100.0 * retry_ticks / events:.1f}%) + "
              f"{plain} plain steps ({100.0 * plain / events:.1f}%)")
    print()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    if args.by_layer:
        print_layers(self_time_by_layer(stats), args.top)
    else:
        stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    if args.dump:
        stats.dump_stats(args.dump)
        print(f"raw stats written to {args.dump}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
