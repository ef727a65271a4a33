"""End-to-end integration tests across the whole pipeline."""

from __future__ import annotations

import pytest

from repro.core import AggChecker, VerdictStatus
from repro.corpus import CorpusConfig, generate_corpus
from repro.core.config import AggCheckerConfig
from repro.harness import run_case

from tests.db.oracle import ORACLE


@pytest.fixture(scope="module")
def mini_corpus():
    return generate_corpus(CorpusConfig(n_articles=4, seed=1234))


class TestPipelineOnGeneratedCorpus:
    def test_every_case_produces_verdicts(self, mini_corpus):
        for case in mini_corpus.cases:
            result = run_case(case)
            assert len(result.evaluations) == len(case.ground_truth)
            for evaluation in result.evaluations:
                assert evaluation.verdict.status in VerdictStatus

    def test_execution_modes_agree_on_verdicts(self, mini_corpus):
        """Naive and merged+cached engines must produce identical
        verdicts — the optimizations are purely about speed."""
        case = mini_corpus.cases[0]
        default = run_case(case)
        naive = run_case(
            case, AggCheckerConfig(engine=ORACLE)
        )
        for a, b in zip(default.evaluations, naive.evaluations):
            assert a.verdict.status == b.verdict.status
            assert a.verdict.top_query == b.verdict.top_query

    def test_detection_and_truth_alignment(self, mini_corpus):
        for case in mini_corpus.cases:
            for claim, truth in zip(case.claims, case.ground_truth):
                assert claim.claimed_value == pytest.approx(truth.claimed_value)

    def test_checker_reusable_across_documents(self, mini_corpus):
        """One AggChecker instance can verify several documents against
        the same database, reusing its fragment index and result cache."""
        case = mini_corpus.cases[0]
        checker = AggChecker(case.database)
        first = checker.check_document(case.document)
        physical_after_first = checker.engine.stats.physical_queries
        second = checker.check_document(case.document)
        # The persistent cache absorbs most repeated evaluation work.
        assert (
            checker.engine.stats.physical_queries
            <= physical_after_first * 1.5 + 5
        )
        assert [v.status for v in first.verdicts] == [
            v.status for v in second.verdicts
        ]

    def test_priors_concentrate_on_theme(self, mini_corpus):
        """After EM, the document's dominant characteristics carry higher
        prior mass than uniform."""
        case = mini_corpus.cases[0]
        result = run_case(case)
        priors = result.report.priors
        assert priors is not None
        from collections import Counter

        functions = Counter(
            truth.query.aggregate.function for truth in case.ground_truth
        )
        dominant, count = functions.most_common(1)[0]
        if count >= len(case.ground_truth) * 0.6:
            uniform = 1.0 / len(priors.functions)
            assert priors.functions[dominant] > uniform
