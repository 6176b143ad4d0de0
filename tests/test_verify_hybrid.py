"""Tests for the hybrid-TM (mixed-history) verify extension.

The same three layers of confidence as ``test_verify_fuzzer``, now over
histories where hardware and software (STM) transactions interleave:

* bounded fixed-seed hybrid fuzz runs must come back green, and must
  demonstrably exercise both commit paths (a sweep whose software side
  never runs proves nothing about mixed histories);
* *mutation testing*: with ``StmRuntime.test_skip_validation`` patched
  on, the STM skips its read-set validation, and the fuzzer must catch
  the resulting lost updates within a bounded number of cases — the
  strongest evidence the mixed-history oracles have teeth;
* the lock-era case stream stays byte-identical (the hybrid generator
  branch consumes no RNG draws unless asked for stm), so every archived
  corpus case and pinned seed keeps meaning what it meant.
"""

from __future__ import annotations

import copy

import pytest

from repro.errors import ConfigurationError
from repro.stm import StmRuntime
from repro.verify import (
    case_from_json,
    case_to_json,
    check_outcome,
    fuzz,
    generate_case,
    run_case,
    validate_case,
)
from repro.verify.dsl import (
    SHARED_BASE,
    private_base,
    sabort_code,
    static_footprint_sw,
    tabort_code,
    tracked_addresses,
)

HYBRID_FUZZ_SEEDS = (0, 1, 2)
HYBRID_FUZZ_CASES = 12


def _hybrid_block(bid, fate="commit", hw_fault=True, ops=None,
                  max_retries=1, **overrides):
    block = {
        "id": bid,
        "mode": "hybrid",
        "fate": fate,
        "fault": None,
        "pifc": 0,
        "nest": None,
        "hw_fault": hw_fault,
        "max_retries": max_retries,
        "ntstg_slot": None,
        "fault_token": 0,
        "canary": None,
        "ops": ops if ops is not None else [["add", SHARED_BASE, 3]],
    }
    block.update(overrides)
    return block


def _hw_block(bid, ops):
    return {
        "id": bid,
        "mode": "tbegin",
        "fate": "commit",
        "fault": None,
        "pifc": 0,
        "nest": None,
        "ntstg_slot": None,
        "fault_token": 0,
        "canary": None,
        "ops": ops,
    }


def _mixed_case(block0=None, jitter=0):
    """One hybrid block racing one hardware block on a shared var."""
    return {
        "schema": "repro.verify/1",
        "n_cpus": 2,
        "pool": [SHARED_BASE],
        "init": [[SHARED_BASE, 10]],
        "schedule_seed": 1,
        "jitter": jitter,
        "speculation": False,
        "max_cycles": 3_000_000,
        "fallback_mode": "stm",
        "programs": [
            [["tx", block0 if block0 is not None else _hybrid_block(0)]],
            [["tx", _hw_block(1, [["add", SHARED_BASE, 5]])]],
        ],
    }


class TestHybridFuzzRun:
    @pytest.mark.parametrize("seed", HYBRID_FUZZ_SEEDS)
    def test_fixed_seed_hybrid_sweep_is_green(self, seed):
        report = fuzz(seed=seed, n_cases=HYBRID_FUZZ_CASES, shrink=False,
                      fallback_mode="stm")
        assert report.cases_run == HYBRID_FUZZ_CASES
        assert report.ok, [f.violations for f in report.failures]

    def test_sweep_exercises_both_commit_paths(self):
        # The green sweep above is only meaningful if software
        # transactions actually run: the first few seeds must together
        # produce hardware commits, software commits AND software
        # aborts in the one transaction log.
        kinds = set()
        for seed in range(8):
            outcome = run_case(generate_case(seed, "stm"))
            kinds.update(e[1] for e in outcome.result.tx_log["entries"])
            if {"commit", "sw_commit", "sw_abort"} <= kinds:
                break
        assert {"commit", "sw_commit", "sw_abort"} <= kinds


class TestStmMutation:
    """Satellite: the mixed-history oracles must catch a broken STM."""

    def test_skipped_validation_is_caught_within_bound(self, monkeypatch):
        monkeypatch.setattr(StmRuntime, "test_skip_validation", True)
        report = fuzz(seed=0, n_cases=40, shrink=False, max_failures=1,
                      fallback_mode="stm")
        assert report.failures, (
            "fuzzer missed the skip-validation mutation in 40 cases"
        )
        # The lost update surfaces as a serializability violation.
        assert any("final state" in v or "commit" in v
                   for v in report.failures[0].violations)

    def test_mutation_does_not_affect_lock_mode(self, monkeypatch):
        # The classic (lock-era) case stream never enters the STM, so
        # the mutation flag must be inert there.
        monkeypatch.setattr(StmRuntime, "test_skip_validation", True)
        report = fuzz(seed=0, n_cases=5, shrink=False)
        assert report.ok, [f.violations for f in report.failures]


class TestHybridGenerator:
    def test_lock_mode_stream_is_unchanged(self):
        for seed in (0, 3, 17):
            case = generate_case(seed)
            assert case == generate_case(seed, "lock")
            assert "fallback_mode" not in case
            assert all(e[1]["mode"] != "hybrid"
                       for p in case["programs"] for e in p
                       if e[0] == "tx")

    def test_stm_cases_pin_mode_and_contain_hybrid_blocks(self):
        for seed in range(10):
            case = generate_case(seed, "stm")
            assert case["fallback_mode"] == "stm"
            assert any(e[1]["mode"] == "hybrid"
                       for p in case["programs"] for e in p
                       if e[0] == "tx")

    def test_hybrid_cases_are_deterministic(self):
        assert generate_case(1234, "stm") == generate_case(1234, "stm")

    def test_hybrid_cases_round_trip_through_json(self):
        for seed in (0, 1, 9):
            case = generate_case(seed, "stm")
            assert case_from_json(case_to_json(case)) == case

    def test_hybrid_run_case_is_deterministic(self):
        case = generate_case(5, "stm")
        a, b = run_case(case), run_case(copy.deepcopy(case))
        assert a.result.tx_log == b.result.tx_log
        for addr in sorted(tracked_addresses(case)):
            assert (a.machine.memory.read_int(addr, 8)
                    == b.machine.memory.read_int(addr, 8))


class TestHybridValidation:
    def test_hybrid_block_requires_stm_case_pin(self):
        case = _mixed_case()
        del case["fallback_mode"]
        with pytest.raises(ConfigurationError):
            validate_case(case)

    def test_unknown_fallback_mode_rejected(self):
        case = _mixed_case()
        case["fallback_mode"] = "optimistic"
        with pytest.raises(ConfigurationError):
            validate_case(case)

    def test_doomed_hybrid_requires_hw_fault(self):
        case = _mixed_case(_hybrid_block(0, fate="doomed", hw_fault=False))
        with pytest.raises(ConfigurationError):
            validate_case(case)

    def test_max_retries_bounds_enforced(self):
        for bad in (0, 7):
            case = _mixed_case(_hybrid_block(0, max_retries=bad))
            with pytest.raises(ConfigurationError):
                validate_case(case)

    def test_hybrid_blocks_cannot_nest(self):
        case = _mixed_case(_hybrid_block(0, nest=[0, 1]))
        with pytest.raises(ConfigurationError):
            validate_case(case)

    def test_abort_codes_are_disjoint_per_block(self):
        # Attribution is per-block (keyed by the TBEGIN/SBEGIN address),
        # so a block's hardware and software fault codes must differ —
        # and both must stay transient (even) and fit an immediate.
        for bid in range(1000):
            assert tabort_code(bid) != sabort_code(bid)
            assert tabort_code(bid) % 2 == 0
            assert sabort_code(bid) % 2 == 0
            assert sabort_code(bid) < 1 << 15


class TestHybridOracleSensitivity:
    """The mixed-history oracles must fire when their property breaks."""

    def _sw_committed_outcome(self):
        # hw_fault=True with fate=commit: the block can only commit
        # through the STM, so the log deterministically has a sw_commit.
        case = _mixed_case()
        outcome = run_case(case)
        assert not check_outcome(case, outcome)
        entries = outcome.result.tx_log["entries"]
        assert any(e[1] == "sw_commit" for e in entries)
        return case, outcome

    def test_dropped_sw_commit_is_detected(self):
        case, outcome = self._sw_committed_outcome()
        entries = outcome.result.tx_log["entries"]
        index = next(i for i, e in enumerate(entries)
                     if e[1] == "sw_commit")
        del entries[index]
        violations = check_outcome(case, outcome)
        assert any("committed 0 times, expected 1" in v
                   for v in violations)

    def test_unknown_sbegin_address_is_detected(self):
        case, outcome = self._sw_committed_outcome()
        entry = next(e for e in outcome.result.tx_log["entries"]
                     if e[1] == "sw_commit")
        entry[2] = 0xDEAD00
        violations = check_outcome(case, outcome)
        assert any("unknown SBEGIN" in v for v in violations)

    def test_tampered_sw_write_set_is_detected(self):
        case, outcome = self._sw_committed_outcome()
        entry = next(e for e in outcome.result.tx_log["entries"]
                     if e[1] == "sw_commit")
        entry[7] = entry[7][:-1]
        violations = check_outcome(case, outcome)
        assert any("software-committed write lines" in v
                   for v in violations)

    def test_forged_doomed_sw_commit_is_detected(self):
        case = _mixed_case(_hybrid_block(
            0, fate="doomed", hw_fault=True,
            canary=private_base(0) + 0x800, fault_token=9,
        ))
        outcome = run_case(case)
        assert not check_outcome(case, outcome)
        sbegin_ia = next(iter(outcome.lowered[0].blocks_by_sbegin))
        outcome.result.tx_log["entries"].append(
            [0, "sw_commit", sbegin_ia, 0, 0, False, [], []]
        )
        violations = check_outcome(case, outcome)
        assert any("doomed hybrid block 0 committed in software" in v
                   for v in violations)

    def test_leaked_sw_canary_is_detected(self):
        # The canary is only ever stored inside software attempts that
        # always SABORT; pre-seeding it simulates a redo-log leak.
        canary = private_base(0) + 0x800
        case = _mixed_case(_hybrid_block(
            0, fate="abort_once", hw_fault=True,
            canary=canary, fault_token=9,
        ))
        case["init"].append([canary, 999])
        outcome = run_case(case)
        violations = check_outcome(case, outcome)
        assert any("abort invisibility" in v for v in violations)

    def test_sw_footprint_helper_matches_semantics(self):
        # ``add`` is a software read-modify-write; ``ntstg`` bypasses
        # the STM entirely. Both differ from the hardware helper.
        block = _hybrid_block(0, ops=[
            ["add", SHARED_BASE, 1],
            ["ntstg", private_base(0), 5],
        ])
        reads, writes = static_footprint_sw(block, 256)
        assert SHARED_BASE in reads and SHARED_BASE in writes
        assert private_base(0) & ~0xFF not in reads
        assert private_base(0) & ~0xFF not in writes


class TestHybridCli:
    def test_cli_hybrid_green_run(self, capsys):
        from repro.verify.__main__ import main
        assert main(["--cases", "4", "--seed", "0",
                     "--fallback-mode", "stm", "--quiet"]) == 0
        assert "passed" in capsys.readouterr().out
