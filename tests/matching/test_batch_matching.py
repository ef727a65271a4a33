"""Batched matching front end vs the per-claim oracle.

``keyword_match_batch`` must be *bit-identical* to ``keyword_match``:
same fragments retrieved, same dict insertion order, exactly equal float
scores — across context ablations, hits budgets, score ties and empty
keyword contexts. A corpus-level regression pins that full runs produce
identical verdicts when the reference is patched in as the pipeline's
matcher.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checker import _pool_predicate_fragments
from repro.db import Column, ColumnType, Database, Table
from repro.db.aggregates import AggregateFunction
from repro.db.predicates import Predicate
from repro.db.refs import ColumnRef
from repro.fragments import FragmentIndex, extract_fragments
from repro.fragments.fragments import (
    ColumnFragment,
    FragmentCatalog,
    FunctionFragment,
    PredicateFragment,
)
from repro.ir import InvertedIndex, search
from repro.matching import (
    ContextConfig,
    claim_contexts,
    claim_keywords,
    keyword_match,
    keyword_match_batch,
)
from repro.text import detect_claims, parse_html

PAPER_HTML = """
<title>The NFL's Uneven History Of Punishing Domestic Violence</title>
<h1>Lifetime bans</h1>
<p>There were only four previous lifetime bans in my database.
Three were for repeated substance abuse, one was for gambling.</p>
<p>In 2014 the toll was 2 games. Many players count their suspensions.</p>
"""


def _nfl_database() -> Database:
    """The paper's Figure 2 table (module-local so module-scoped fixtures
    can feed hypothesis tests without function-scoped-fixture hazards)."""
    table = Table(
        "nflsuspensions",
        [
            Column("Name"),
            Column("Team"),
            Column("Games"),
            Column("Category"),
            Column("Year", ColumnType.NUMERIC),
        ],
        [
            ("Ray Rice", "BAL", "2", "domestic violence", 2014),
            ("Sean Payton", "NO", "16", "bounty scandal", 2012),
            ("Art Schlichter", "BAL", "indef", "gambling", 1983),
            ("Stanley Wilson", "CIN", "indef", "substance abuse, repeated offense", 1989),
            ("Dexter Manley", "WAS", "indef", "substance abuse, repeated offense", 1991),
            ("Roy Tarpley", "DAL", "indef", "substance abuse, repeated offense", 1995),
            ("Adam Jones", "CIN", "16", "personal conduct", 2007),
            ("Tanard Jackson", "WAS", "16", "substance abuse", 2012),
            ("Josh Gordon", "CLE", "16", "substance abuse", 2014),
        ],
    )
    return Database("nfl", [table])


@pytest.fixture(scope="module")
def nfl_index():
    return FragmentIndex(extract_fragments(_nfl_database()))


@pytest.fixture(scope="module")
def paper_claims():
    return detect_claims(parse_html(PAPER_HTML))


def assert_scores_identical(oracle, batch):
    """Same fragments, same dict order, exactly equal scores."""
    assert list(oracle.functions.items()) == list(batch.functions.items())
    assert list(oracle.columns.items()) == list(batch.columns.items())
    assert list(oracle.predicates.items()) == list(batch.predicates.items())


class TestBatchEqualsOracle:
    def test_default_config(self, nfl_index, paper_claims):
        oracle = keyword_match(paper_claims, nfl_index)
        batch = keyword_match_batch(paper_claims, nfl_index)
        assert list(oracle) == list(batch)
        for claim in paper_claims:
            assert_scores_identical(oracle[claim], batch[claim])

    @settings(max_examples=40, deadline=None)
    @given(
        previous=st.booleans(),
        paragraph=st.booleans(),
        synonyms=st.booleans(),
        headlines=st.booleans(),
        predicate_hits=st.integers(min_value=0, max_value=40),
        column_hits=st.integers(min_value=0, max_value=5),
    )
    def test_context_ablations_and_budgets(
        self,
        nfl_index,
        paper_claims,
        previous,
        paragraph,
        synonyms,
        headlines,
        predicate_hits,
        column_hits,
    ):
        """Property: bit-identity holds across the whole ContextConfig
        ladder and any retrieval budget."""
        config = ContextConfig(previous, paragraph, synonyms, headlines)
        oracle = keyword_match(
            paper_claims,
            nfl_index,
            config,
            predicate_hits=predicate_hits,
            column_hits=column_hits,
        )
        batch = keyword_match_batch(
            paper_claims,
            nfl_index,
            config,
            predicate_hits=predicate_hits,
            column_hits=column_hits,
        )
        for claim in paper_claims:
            assert_scores_identical(oracle[claim], batch[claim])

    @settings(max_examples=25, deadline=None)
    @given(
        words=st.lists(
            st.sampled_from(
                ["gambling", "games", "suspended", "team", "season", "ban"]
            ),
            min_size=0,
            max_size=4,
        ),
        value=st.integers(min_value=1, max_value=9),
    )
    def test_generated_sentences(self, nfl_index, words, value):
        """Property: random claim sentences built from domain words match
        identically (including claims with empty keyword contexts)."""
        sentence = f"There were {value} {' '.join(words)}.".replace("  ", " ")
        claims = detect_claims(parse_html(f"<p>{sentence}</p>"))
        oracle = keyword_match(claims, nfl_index)
        batch = keyword_match_batch(claims, nfl_index)
        for claim in claims:
            assert_scores_identical(oracle[claim], batch[claim])

    def test_empty_keyword_claim(self, nfl_index):
        # 'There were 5.' leaves no context keywords at all.
        claims = detect_claims(parse_html("<p>There were 5.</p>"))
        assert claims
        config = ContextConfig.sentence_only()
        oracle = keyword_match(claims, nfl_index, config)
        batch = keyword_match_batch(claims, nfl_index, config)
        for claim in claims:
            assert claim_keywords(claim, config) == {}
            assert_scores_identical(oracle[claim], batch[claim])
            # Scaffolding survives: all functions plus the star column.
            assert len(batch[claim].functions) == 8
            assert all(f.is_star for f in batch[claim].columns)
            assert batch[claim].predicates == {}

    def test_no_claims(self, nfl_index):
        assert keyword_match_batch([], nfl_index) == {}


class TestTieDeterminism:
    @pytest.fixture()
    def tied_catalog(self):
        """Many predicate fragments with *identical* keyword sets: every
        retrieval score ties exactly."""
        column = ColumnRef("t", "category")
        predicates = [
            PredicateFragment(
                keywords=("gambling", "bet"),
                predicate=Predicate(column, f"value-{i}"),
            )
            for i in range(8)
        ]
        return FragmentCatalog(
            functions=[
                FunctionFragment(
                    keywords=("count",), function=AggregateFunction.COUNT
                )
            ],
            columns=[ColumnFragment(keywords=(), column=ColumnRef("t", "*"))],
            predicates=predicates,
        )

    def test_ties_break_by_catalog_position(self, tied_catalog):
        index = FragmentIndex(tied_catalog)
        scores = index.retrieve({"gambling": 1.0}, predicate_hits=3)
        retrieved = list(scores.predicates)
        # Equal scores -> first three fragments in catalog order.
        assert retrieved == tied_catalog.predicates[:3]
        values = list(scores.predicates.values())
        assert values[0] == values[1] == values[2] > 0

    def test_batch_agrees_on_ties(self, tied_catalog, paper_claims):
        index = FragmentIndex(tied_catalog)
        # The 'gambling' claim context produces exact score ties.
        oracle = keyword_match(paper_claims, index, predicate_hits=5)
        batch = keyword_match_batch(paper_claims, index, predicate_hits=5)
        for claim in paper_claims:
            assert_scores_identical(oracle[claim], batch[claim])

    def test_search_tie_break_is_doc_id(self):
        index = InvertedIndex()
        for name in ("a", "b", "c", "d"):
            index.add(name, text="red blue")
        hits = search(index, {"red": 1.0}, top_k=2)
        assert [hit.payload for hit in hits] == ["a", "b"]
        full = search(index, {"red": 1.0})
        assert [hit.payload for hit in full] == ["a", "b", "c", "d"]


class TestContextCache:
    @settings(max_examples=20, deadline=None)
    @given(
        previous=st.booleans(),
        paragraph=st.booleans(),
        synonyms=st.booleans(),
        headlines=st.booleans(),
    )
    def test_shared_cache_changes_nothing(
        self, paper_claims, previous, paragraph, synonyms, headlines
    ):
        config = ContextConfig(previous, paragraph, synonyms, headlines)
        shared = claim_contexts(paper_claims, config)
        individual = [claim_keywords(claim, config) for claim in paper_claims]
        assert shared == individual


class TestAlignedArrays:
    def test_batch_ids_are_catalog_positions(self, nfl_index, paper_claims):
        catalog = nfl_index.catalog
        for scores in keyword_match_batch(paper_claims, nfl_index).values():
            assert scores.function_ids == list(range(len(catalog.functions)))
            for fragment, position in zip(scores.columns, scores.column_ids):
                assert catalog.columns[position] is fragment
            for fragment, position in zip(
                scores.predicates, scores.predicate_ids
            ):
                assert catalog.predicates[position] is fragment

    def test_pooling_keeps_ids_aligned(self, nfl_index, paper_claims):
        catalog = nfl_index.catalog
        scores = keyword_match_batch(paper_claims, nfl_index)
        _pool_predicate_fragments(scores)
        for relevance in scores.values():
            assert len(relevance.predicate_ids) == len(relevance.predicates)
            for fragment, position in zip(
                relevance.predicates, relevance.predicate_ids
            ):
                assert catalog.predicates[position] is fragment

    def test_value_arrays_follow_dict_order(self, nfl_index, paper_claims):
        scores = keyword_match_batch(paper_claims, nfl_index)
        for relevance in scores.values():
            fn_values, col_values, pred_values = relevance.value_arrays()
            assert fn_values == list(relevance.functions.values())
            assert col_values == list(relevance.columns.values())
            assert pred_values == list(relevance.predicates.values())


class TestCorpusRegression:
    def test_run_corpus_identical_with_reference_matcher(self, monkeypatch):
        from repro.core.config import AggCheckerConfig
        from repro.corpus.generator import CorpusConfig, generate_corpus
        from repro.harness import run_corpus

        corpus = generate_corpus(CorpusConfig(n_articles=3))
        batch = run_corpus(corpus, AggCheckerConfig())
        monkeypatch.setattr(
            "repro.core.checker.keyword_match_batch", keyword_match
        )
        reference = run_corpus(corpus, AggCheckerConfig())

        def signature(run):
            return [
                [
                    (
                        verdict.status.value,
                        str(verdict.top_query),
                        verdict.top_result,
                        verdict.claim.claimed_value,
                    )
                    for verdict in result.report.verdicts
                ]
                for result in run.results
            ]

        assert signature(batch) == signature(reference)
        assert batch.metrics.recall == reference.metrics.recall
        assert batch.metrics.precision == reference.metrics.precision

    def test_checker_reuses_compiled_index(self, nfl_index):
        from repro.core.checker import AggChecker

        checker = AggChecker(_nfl_database())
        compiled = checker.index.compiled()
        assert checker.index.compiled() is compiled
