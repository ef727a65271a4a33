"""Fault-injection suite: the fault wire format and retry backoff.

Every scenario here drives *unmodified* production code paths with faults
armed through :mod:`repro.faults`. The contracts under test:

- fault specs survive the environment encoding and fire within budget;
- the shared retry schedule is bounded.

The degradation ladder is driven by space budgets and tested in
``tests/robustness/test_budgets.py``.
"""

from __future__ import annotations

import pytest

from repro.errors import InjectedFault
from repro.faults import FaultSpec, active, decode_specs, encode_specs
from repro.harness import RetryPolicy

pytestmark = pytest.mark.faults


class TestFaultSpecWire:
    def test_round_trip(self):
        specs = (
            FaultSpec("checker.stage", "raise", match="match", times=1),
            FaultSpec("checker.stage", "sleep", match="inference",
                      seconds=0.25, times=0),
            FaultSpec("diskcache.read", "corrupt", match="*.cube"),
        )
        assert decode_specs(encode_specs(specs)) == specs

    def test_unarmed_fire_is_noop(self):
        from repro.faults import fire

        fire("checker.stage", "match")  # nothing armed: must not raise

    def test_raise_action(self):
        with active(FaultSpec("demo.point", "raise", match="boom")):
            from repro.faults import fire

            fire("demo.point", "other")  # no match
            with pytest.raises(InjectedFault):
                fire("demo.point", "boom")
            fire("demo.point", "boom")  # times=1 budget spent


class TestWorkerCrashRecovery:
    # What remains of the crash-recovery suite: the retry schedule the
    # service's queue and client still share.
    def test_retry_policy_backoff_is_bounded(self):
        policy = RetryPolicy(backoff_base=0.05, backoff_cap=0.2)
        assert policy.backoff_seconds(1) == 0.05
        assert policy.backoff_seconds(2) == 0.1
        assert policy.backoff_seconds(3) == 0.2
        assert policy.backoff_seconds(10) == 0.2
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
