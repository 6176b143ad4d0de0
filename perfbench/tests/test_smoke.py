"""Small-size smoke test of the benchmark harness.

Runs shrunken copies of the four workloads through the timed and traced
paths, and checks the output contract, the output checks and the failure
exits. Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from layertrace import Tracer  # noqa: E402
from repro.bench.figures import UpdateExperiment  # noqa: E402
from repro.core.engine import TxEngine  # noqa: E402
from repro.workloads.hashtable import HashtableExperiment  # noqa: E402
from repro.workloads.layout import PoolLayout  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SMALL = {
    "lock-coarse-48": dataclasses.replace(
        WORKLOADS["lock-coarse-48"], pinned_point=None, period=2,
        experiment=UpdateExperiment("coarse", 4, 100, 4, iterations=3)),
    "tx-conflict-48": dataclasses.replace(
        WORKLOADS["tx-conflict-48"], period=2,
        experiment=UpdateExperiment("tbegin", 4, 10, 4, iterations=3)),
    "elided-hashtable-48": dataclasses.replace(
        WORKLOADS["elided-hashtable-48"], period=2,
        experiment=HashtableExperiment(4, elide=True, operations=10)),
    "footprint-capacity": dataclasses.replace(
        WORKLOADS["footprint-capacity"], period=2, trials=3,
        configs=((20, "zec12"), (20, "no-lru-extension"),
                 (500, "zec12"), (500, "no-lru-extension"))),
}


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("name", list(SMALL))
def test_timed_runs_report_every_end_to_end_metric(name):
    bench = run.Bench(SMALL[name])
    samples = run.timed_runs(bench, run.machine_seeds(1, 2), seconds=0)
    assert bench.failed == 0
    # Warm-up, one run per seed, and the repeat of the warm-up's seed.
    assert bench.attempted == 3
    for metric in SPEC["end_to_end"]:
        values, unit = samples[metric["name"]]
        assert unit == metric["unit"]
        assert all(math.isfinite(v) for v in values)
    assert all(v > 0 for v in samples["wall_s"][0])
    assert len(samples["wall_ref"][0]) == len(samples["wall_s"][0])
    assert len(samples["setup_s"][0]) == len(samples["setup_host_s"][0])


@pytest.mark.parametrize("name", list(SMALL))
def test_traced_run_matches_untraced_and_reports_every_layer(name):
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    bench = run.Bench(SMALL[name])
    samples = run.traced_run(bench, 7, seconds=0, units=units)
    # run_once compares the traced run's fingerprint with the untraced
    # ones at the same seed and counts a mismatch as a failure.
    assert bench.failed == 0 and bench.attempted == 3
    assert set(samples) == set(units)
    assert samples["engine.load_calls"][0][0] > 0
    assert samples["fabric.try_fetch_calls"][0][0] > 0


def test_tracer_restores_every_wrapped_method():
    before = dict(vars(TxEngine))
    with Tracer():
        assert vars(TxEngine)["load"] is not before["load"]
    assert dict(vars(TxEngine)) == before


def test_pool_check_catches_a_lost_update():
    workload = SMALL["tx-conflict-48"]
    prepared = workload.prepare(3)
    outcome = workload.execute(prepared)
    assert workload.check(prepared, outcome) == []
    layout = PoolLayout(workload.experiment.pool_size)
    prepared.state.memory.write_int(layout.var_addr(0), 0, 8)
    assert any("pool sums" in e for e in workload.check(prepared, outcome))


def test_hashtable_check_catches_a_missing_key():
    workload = SMALL["elided-hashtable-48"]
    prepared = workload.prepare(3)
    outcome = workload.execute(prepared)
    assert workload.check(prepared, outcome) == []
    _machine, table = prepared.state
    table.keys_put.add(10_000)
    assert workload.check(prepared, outcome)


def test_footprint_loop_matches_the_library():
    workload = SMALL["footprint-capacity"]
    prepared = workload.prepare(5)
    outcome = workload.execute(prepared)
    assert workload.check(prepared, outcome) == []
    assert workload.extra_check(ROOT, prepared, outcome) == []
    assert outcome.rates[(500, "no-lru-extension")] == 1.0


def _cli(cwd: Path, *extra: str, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lock-coarse-48",
         "--seed", "1", "--seconds", "1", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=120, env=env,
    )


def test_refuses_repro_environment_variables():
    result = _cli(ROOT, env={"PATH": "/usr/bin:/bin", "REPRO_VIRTSEQ": "0"})
    assert result.returncode != 0
    assert "REPRO_VIRTSEQ" in result.stderr
    assert result.stdout == ""


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = _cli(tmp_path)
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
