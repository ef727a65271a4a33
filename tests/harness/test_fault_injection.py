"""Fault-injection suite: the fault wire format, retry backoff, deadlines.

Every scenario here drives *unmodified* production code paths with faults
armed through :mod:`repro.faults`. The contracts under test:

- fault specs survive the environment encoding and fire within budget;
- the shared retry schedule is bounded;
- a claim deadline degrades verdicts through the documented ladder
  (reduced scope -> no execution -> unverifiable) instead of hanging.
"""

from __future__ import annotations

import pytest

from repro.core.checker import DEGRADED_SCOPE_BUDGET, AggChecker
from repro.core.config import AggCheckerConfig
from repro.core.verdict import VerdictStatus
from repro.corpus import CorpusConfig, generate_corpus, nfl_suspensions_case
from repro.errors import InjectedFault
from repro.faults import FaultSpec, active, decode_specs, encode_specs
from repro.harness import RetryPolicy, run_corpus

pytestmark = pytest.mark.faults


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(CorpusConfig(n_articles=4, seed=77))


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


class TestDeadlineLadder:
    def test_no_deadline_is_the_default(self):
        case = nfl_suspensions_case()
        checker = AggChecker(case.database, AggCheckerConfig(),
                             case.data_dictionary)
        report = checker.check_claims(case.document, case.claims)
        assert all(v.degraded is None for v in report.verdicts)

    def test_impossible_deadline_yields_unverifiable(self):
        # A nanosecond budget expires before matching: every claim gets
        # the terminal rung, and the report still arrives (no hang, no
        # exception).
        case = nfl_suspensions_case()
        config = AggCheckerConfig(claim_deadline=1e-9)
        checker = AggChecker(case.database, config, case.data_dictionary)
        report = checker.check_claims(case.document, case.claims)
        assert len(report.verdicts) == len(case.claims)
        for verdict in report.verdicts:
            assert verdict.status is VerdictStatus.UNVERIFIABLE
            assert verdict.degraded == "timeout"
            assert verdict.distribution is None
            assert verdict.status.flagged
        assert report.engine_stats.deadline_unverifiable == len(case.claims)

    def test_slow_inference_degrades_to_scope_rung(self):
        # Matching is fast; a delay injected at the inference stage burns
        # the budget so the full-quality rung dies and the scope rung
        # (grace budget, shrunk evaluation scope) answers instead.
        case = nfl_suspensions_case()
        config = AggCheckerConfig(claim_deadline=0.05)
        checker = AggChecker(case.database, config, case.data_dictionary)
        budget = 0.05 * len(case.claims)
        with active(
            FaultSpec("checker.rung", "sleep", match="full",
                      seconds=budget + 0.2, times=1)
        ):
            report = checker.check_claims(case.document, case.claims)
        assert all(v.degraded == "scope" for v in report.verdicts)
        assert all(v.distribution is not None for v in report.verdicts)
        assert report.engine_stats.deadline_degraded == 1
        assert report.engine_stats.deadline_exec_skipped == 0

    def test_exhausted_grace_reaches_no_exec_rung(self):
        # Burn the main budget AND the scope rung's grace budget: the
        # final rung answers from keyword evidence alone (no engine
        # work), still inside the report.
        case = nfl_suspensions_case()
        config = AggCheckerConfig(claim_deadline=0.05)
        checker = AggChecker(case.database, config, case.data_dictionary)
        budget = 0.05 * len(case.claims)
        with active(
            FaultSpec("checker.rung", "sleep", match="full",
                      seconds=budget + 0.2, times=1),
            FaultSpec("checker.rung", "sleep", match="scope",
                      seconds=budget + 0.2, times=1),
        ):
            report = checker.check_claims(case.document, case.claims)
        assert all(v.degraded == "no_exec" for v in report.verdicts)
        assert report.engine_stats.deadline_degraded == 1
        assert report.engine_stats.deadline_exec_skipped == 1

    def test_degraded_scope_budget_is_bounded(self):
        assert DEGRADED_SCOPE_BUDGET >= 1

    def test_corpus_run_survives_deadline(self, corpus):
        # Deadline degradation composes with the harness: a corpus run
        # under an impossible budget completes with every claim flagged
        # unverifiable rather than erroring out.
        config = AggCheckerConfig(claim_deadline=1e-9)
        run = run_corpus(corpus, config, limit=2)
        statuses = {
            v.status
            for result in run.results
            for v in result.report.verdicts
        }
        assert statuses == {VerdictStatus.UNVERIFIABLE}
        assert run.metrics.n_claims > 0
