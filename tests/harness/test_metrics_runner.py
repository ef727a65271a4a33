"""Unit and integration tests for metrics, the checker pool and the
in-process corpus runner."""

from __future__ import annotations

import threading

import pytest

from repro.core import AggChecker
from repro.core.config import AggCheckerConfig
from repro.corpus import CorpusConfig, generate_corpus, nfl_suspensions_case
from repro.db.engine import EngineConfig, EngineStats
from repro.errors import InjectedFault
from repro.faults import FaultSpec, active
from repro.harness import CheckerPool, aggregate_metrics, run_case, run_corpus
from repro.harness.ablations import (
    hits_ladder,
    keyword_context_ladder,
    model_ladder,
    pt_ladder,
    run_ladder,
)
from repro.harness.reporting import format_series, format_table, percent

#: RunMetrics fields that must match bit-for-bit between two runs
#: (total_seconds is wall-clock and excluded by nature).
METRIC_FIELDS = (
    "n_claims",
    "n_erroneous",
    "n_flagged",
    "true_positives",
    "coverage_counts",
    "coverage_counts_correct",
    "coverage_counts_incorrect",
    "n_correct_claims",
)


def verdict_signature(run):
    return [
        [(v.status, v.top_query, v.top_result) for v in result.report.verdicts]
        for result in run.results
    ]


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(CorpusConfig(n_articles=6, seed=77))


@pytest.fixture(scope="module")
def run(corpus):
    return run_corpus(corpus)


class TestRunCase:
    def test_builtin_case_resolves(self):
        result = run_case(nfl_suspensions_case())
        assert len(result.evaluations) == 3
        # The fresh case is fully correct; nothing should be flagged.
        assert all(not e.truly_erroneous for e in result.evaluations)

    def test_stale_builtin_flagged(self):
        result = run_case(nfl_suspensions_case(stale=True))
        stale_eval = result.evaluations[0]
        assert stale_eval.truly_erroneous
        assert stale_eval.flagged

    def test_truth_rank_populated(self):
        result = run_case(nfl_suspensions_case())
        ranks = [e.truth_rank for e in result.evaluations]
        assert all(rank is not None for rank in ranks)
        assert ranks[0] == 1  # 'four lifetime bans' maps exactly


class TestRunCorpus:
    def test_metrics_populated(self, run, corpus):
        metrics = run.metrics
        assert metrics.n_claims == corpus.total_claims
        assert metrics.n_erroneous == corpus.erroneous_claims
        assert 0 <= metrics.recall <= 1
        assert 0 <= metrics.precision <= 1

    def test_coverage_monotone(self, run):
        metrics = run.metrics
        assert metrics.top_k_coverage(1) <= metrics.top_k_coverage(5)
        assert metrics.top_k_coverage(5) <= metrics.top_k_coverage(20)

    def test_limit(self, corpus):
        partial = run_corpus(corpus, limit=2)
        assert len(partial.results) == 2

    def test_engine_stats_accumulated(self, run):
        assert run.engine_stats.queries_requested > 0
        assert run.engine_stats.physical_queries > 0

    def test_f1_consistent(self, run):
        metrics = run.metrics
        p, r = metrics.precision, metrics.recall
        expected = 2 * p * r / (p + r) if p + r else 0.0
        assert metrics.f1 == pytest.approx(expected)

    def test_aggregate_of_parts_matches_whole(self, run):
        pooled = aggregate_metrics(run.results)
        assert pooled.n_claims == run.metrics.n_claims
        assert pooled.true_positives == run.metrics.true_positives

    @pytest.mark.faults
    def test_failing_case_raises_to_the_caller(self, corpus):
        # A case whose matching stage raises stops the run: the runner
        # neither drops the case nor reports partial metrics.
        with active(FaultSpec("checker.stage", "raise", match="match")):
            with pytest.raises(InjectedFault):
                run_corpus(corpus, limit=3)


class TestDiskCacheDeterminism:
    def test_warm_run_matches_cold_run(self, corpus, tmp_path):
        config = AggCheckerConfig(engine=EngineConfig(cache_dir=str(tmp_path)))
        cold = run_corpus(corpus, config, limit=2)
        warm = run_corpus(corpus, config, limit=2)
        reference = run_corpus(corpus, limit=2)

        assert verdict_signature(cold) == verdict_signature(reference)
        assert verdict_signature(warm) == verdict_signature(reference)
        for name in METRIC_FIELDS:
            assert getattr(warm.metrics, name) == getattr(
                cold.metrics, name
            ), name
        # The cold run wrote every cube; the warm run executed none.
        assert cold.engine_stats.disk_hits == 0
        assert cold.engine_stats.disk_misses > 0
        assert warm.engine_stats.cube_queries == 0
        assert warm.engine_stats.disk_hit_rate() >= 0.9


class TestCheckerPool:
    def test_checker_reused_per_database(self):
        case = nfl_suspensions_case()
        pool = CheckerPool()
        first = pool.run(case)
        assert len(pool) == 1
        second = pool.run(case)
        assert len(pool) == 1
        assert [e.flagged for e in first.evaluations] == [
            e.flagged for e in second.evaluations
        ]
        # Second pass over the same database is served from the engine's
        # result cache: no new physical queries.
        assert second.report.engine_stats.physical_queries == 0
        assert second.report.engine_stats.cache_hits > 0

    def test_distinct_databases_get_distinct_checkers(self):
        pool = CheckerPool()
        pool.run(nfl_suspensions_case())
        pool.run(nfl_suspensions_case(stale=True))
        assert len(pool) == 2
        pool.clear()
        assert len(pool) == 0

    def test_report_stats_are_per_document_deltas(self):
        case = nfl_suspensions_case()
        pool = CheckerPool()
        first = pool.run(case)
        second = pool.run(case)
        checker = pool.checker_for(case)
        totals = EngineStats()
        totals.merge(first.report.engine_stats)
        totals.merge(second.report.engine_stats)
        assert totals == checker.engine.stats

    def test_stats_snapshot_merges_all_pooled_engines(self):
        pool = CheckerPool()
        first = pool.run(nfl_suspensions_case())
        second = pool.run(nfl_suspensions_case(stale=True))
        snapshot = pool.stats_snapshot()
        totals = EngineStats()
        totals.merge(first.report.engine_stats)
        totals.merge(second.report.engine_stats)
        assert snapshot == totals
        # Snapshots are copies: mutating one must not touch pool state.
        snapshot.physical_queries += 1000
        assert pool.stats_snapshot() != snapshot

    def test_entry_for_builds_once_under_concurrency(self):
        case = nfl_suspensions_case()
        pool = CheckerPool()
        builds = []
        barrier = threading.Barrier(4)

        def factory():
            builds.append(1)
            return AggChecker(case.database, pool.config, case.data_dictionary)

        entries = []

        def worker():
            barrier.wait()
            entries.append(pool.entry_for("shared-key", factory))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(builds) == 1
        assert len({id(entry) for entry in entries}) == 1
        assert entries[0].checker is not None
        assert len(pool) == 1


class TestAblationLadders:
    def test_ladder_shapes(self):
        assert len(keyword_context_ladder()) == 5
        assert len(model_ladder()) == 3
        assert len(hits_ladder()) == 4
        assert len(pt_ladder()) == 5

    def test_model_ladder_configs_differ(self):
        ladder = model_ladder()
        assert not ladder[0][1].em.use_evaluations
        assert ladder[1][1].em.use_evaluations
        assert not ladder[1][1].em.use_priors
        assert ladder[2][1].em.use_priors

    def test_model_ablation_improves_coverage(self, corpus):
        """Integration: evaluation results must lift top-1 coverage
        (the paper's Table 10 ladder, on a small corpus)."""
        scores_only = run_corpus(corpus, model_ladder()[0][1], limit=4)
        full = run_corpus(corpus, model_ladder()[2][1], limit=4)
        assert (
            full.metrics.top_k_coverage(1)
            > scores_only.metrics.top_k_coverage(1)
        )


class TestRunLadder:
    def test_ladder_shares_cache_dir(self, corpus, tmp_path):
        ladder = model_ladder()[-1:]
        first = run_ladder(ladder, corpus, limit=1, cache_dir=str(tmp_path))
        again = run_ladder(ladder, corpus, limit=1, cache_dir=str(tmp_path))
        assert first[0][0] == again[0][0]
        assert verdict_signature(first[0][1]) == verdict_signature(again[0][1])
        assert first[0][1].engine_stats.disk_misses > 0
        assert again[0][1].engine_stats.disk_hit_rate() >= 0.9


class TestReporting:
    def test_format_table(self):
        table = format_table("T", ["a", "b"], [[1, 2.5], ["x", "y"]])
        assert "=== T ===" in table
        assert "2.5" in table

    def test_format_series(self):
        text = format_series("S", {"line": [(1, 2.0)]})
        assert "(1, 2.0)" in text

    def test_percent(self):
        assert percent(0.708) == "70.8%"

    def test_ragged_rows_padded(self):
        table = format_table("T", ["a", "b", "c"], [[1]])
        assert table.count("\n") == 3
