"""Determinism regression tests for the parallel experiment runner.

The simulator derives every random stream from ``params.seed`` and the
CPU id, so a benchmark point must produce bit-identical results across
repeated runs, across worker processes, and through the on-disk cache.
These tests pin that property — the figure sweeps rely on it to fan
points out with :mod:`repro.bench.parallel`.
"""

from __future__ import annotations

import pytest

from repro.bench.figures import UpdateExperiment, run_update_experiment, sweep
from repro.bench.parallel import (
    FootprintTask,
    code_version,
    parallel_sweep,
    result_from_payload,
    result_to_payload,
    run_tasks,
    task_key,
)
from repro.params import ZEC12
from repro.serve.store import ResultStore
from repro.workloads.hashtable import HashtableExperiment
from repro.workloads.queue import QueueExperiment


def assert_identical(a, b):
    """Bit-identical SimResults: every architected field must match."""
    assert a.cycles == b.cycles
    assert a.aborted_early == b.aborted_early
    assert len(a.cpus) == len(b.cpus)
    for ca, cb in zip(a.cpus, b.cpus):
        assert (ca.cpu_id, ca.instructions, ca.tx_started, ca.tx_committed,
                ca.tx_aborted, ca.xi_rejects, ca.intervals) == (
            cb.cpu_id, cb.instructions, cb.tx_started, cb.tx_committed,
            cb.tx_aborted, cb.xi_rejects, cb.intervals)
    assert a.throughput == b.throughput


class TestRepeatDeterminism:
    def test_same_update_experiment_twice(self):
        experiment = UpdateExperiment("tbeginc", 4, 10, 4, iterations=8)
        assert_identical(run_update_experiment(experiment),
                         run_update_experiment(experiment))

    def test_contended_lock_experiment_twice(self):
        experiment = UpdateExperiment("coarse", 4, 10, 4, iterations=8)
        assert_identical(run_update_experiment(experiment),
                         run_update_experiment(experiment))


class TestSerialVsParallel:
    TASKS = [
        ("update", UpdateExperiment("coarse", 3, 10, 4, iterations=6)),
        ("update", UpdateExperiment("tbeginc", 4, 10, 4, iterations=6)),
        ("hashtable", HashtableExperiment(3, elide=True, operations=8)),
        ("queue", QueueExperiment(3, use_tx=True, operations=4)),
        ("footprint", FootprintTask(150, False, trials=4)),
    ]

    def test_parallel_matches_serial(self):
        serial = run_tasks(self.TASKS, workers=1)
        parallel = run_tasks(self.TASKS, workers=3)
        for s, p in zip(serial[:-1], parallel[:-1]):
            assert_identical(s, p)
        assert serial[-1] == parallel[-1]  # footprint abort rate

    def test_parallel_sweep_matches_figures_sweep(self):
        schemes, grid = ["coarse", "tbeginc"], (2, 4)
        reference = sweep(schemes, grid, 10, 4, iterations=6)
        for workers in (1, 4):
            assert parallel_sweep(schemes, grid, 10, 4, iterations=6,
                                  workers=workers) == reference


def _disk_store(path):
    """A disk-only store: every ``get`` reads the entry's JSON file."""
    return ResultStore(str(path), memory_entries=0)


class TestCache:
    def test_cache_round_trip_is_identical(self, tmp_path):
        cache = _disk_store(tmp_path)
        tasks = [("update", UpdateExperiment("tbegin", 2, 10, 1,
                                             iterations=6))]
        computed = run_tasks(tasks, cache=cache)
        cached = run_tasks(tasks, cache=cache)
        assert_identical(computed[0], cached[0])

    def test_cache_file_written_and_keyed_by_code_version(self, tmp_path):
        cache = _disk_store(tmp_path)
        experiment = UpdateExperiment("tbegin", 2, 10, 1, iterations=6)
        run_tasks([("update", experiment)], cache=cache)
        key = task_key("update", experiment, ZEC12)
        assert cache.get(key) is not None
        assert len(code_version()) == 16
        # A different experiment must map to a different key.
        other = UpdateExperiment("tbegin", 2, 10, 1, iterations=7)
        assert task_key("update", other, ZEC12) != key

    def test_corrupt_cache_entry_recomputed(self, tmp_path):
        cache = _disk_store(tmp_path)
        experiment = UpdateExperiment("tbegin", 2, 10, 1, iterations=6)
        key = task_key("update", experiment, ZEC12)
        cache.put(key, {"type": "scalar", "value": 0})
        (tmp_path / (key + ".json")).write_text("{ not json")
        [result] = run_tasks([("update", experiment)], cache=cache)
        assert_identical(result, run_update_experiment(experiment))


class TestPayloadRoundTrip:
    def test_sim_result_payload_round_trip(self):
        result = run_update_experiment(
            UpdateExperiment("tbegin", 2, 10, 1, iterations=5))
        restored = result_from_payload(result_to_payload(result))
        assert_identical(result, restored)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            run_tasks([("bogus", UpdateExperiment("tbegin", 2, 1, 1))])
