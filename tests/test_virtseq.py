"""Scheduler counter identity across the retired virtual-sequence modes.

The scheduler used to offer two drains (virtual sequence numbering on,
``virt``, or off, ``mat``) over two event queues (calendar, ``cal``, or
bare heap, ``heap``). Before they were deleted, all four combinations
gave the same results *and* the same ``SimResult.sched`` counters on the
pinned 48-CPU points, under spin/retry elision on (``elide``) and off
(``plain``). The one ``heapq`` drain that remains must reproduce both.

The test ids keep the labels of that flag matrix. Only the elision
label still selects a mode: ``elide`` is the default machine and
``plain`` is ``Machine(spin_elide=False)``, the reference that
``REPRO_CHECK=1`` replays against. The ``virt``/``mat`` and
``cal``/``heap`` labels all name the same drain, so every id of one
elision mode checks the one shared run of its point
(:func:`conftest.pinned_run`).
"""

from __future__ import annotations

import pytest

from conftest import (
    PINNED_48CPU,
    PINNED_IDS,
    PINNED_SCHED,
    pinned_parallel_run,
    pinned_run,
    pinned_sched,
    pinned_summary,
)

#: The labels of the retired flag matrix: virtual seq numbering on/off
#: x spin/retry elision on/off x calendar/heap event queue.
VIRT_MODES = [
    (virtseq, elide, queue)
    for virtseq in ("virt", "mat")
    for elide in (True, False)
    for queue in ("cal", "heap")
]
VIRT_MODE_IDS = [
    f"{v}-{'elide' if e else 'plain'}-{q}" for v, e, q in VIRT_MODES
]


class TestFlagMatrixIdentity:
    @pytest.mark.parametrize("experiment,pinned", PINNED_48CPU,
                             ids=PINNED_IDS)
    @pytest.mark.parametrize("virtseq,elide,queue", VIRT_MODES,
                             ids=VIRT_MODE_IDS)
    def test_serial(self, experiment, pinned, virtseq, elide, queue):
        result = pinned_run(experiment, spin_elide=elide)
        assert pinned_summary(result) == pinned
        assert pinned_sched(result) == PINNED_SCHED[
            (experiment.scheme, elide)
        ]

    @pytest.mark.parametrize("virtseq", ["virt", "mat"])
    def test_parallel(self, virtseq):
        # The sched counters must survive the trip back from the worker.
        results = pinned_parallel_run()
        assert [pinned_summary(r) for r in results] == [
            pinned for _, pinned in PINNED_48CPU
        ]
        assert [pinned_sched(r) for r in results] == [
            PINNED_SCHED[(experiment.scheme, True)]
            for experiment, _ in PINNED_48CPU
        ]

    def test_virtual_advance_engages_on_coarse_point(self):
        # Guards the matrix against vacuity: on the contended point,
        # parked spinners must advance by scheduler ticks rather than
        # executed instructions, and every parked chain must be woken
        # before the run ends.
        experiment, pinned = PINNED_48CPU[0]
        sched = pinned_run(experiment).sched
        assert sched["parks"] == sched["wakes"] > 0
        assert 0 < sched["spin_steps"] < pinned[1]
