"""Configuration variants for the paper's ablation studies.

:func:`run_ladder` executes a whole ladder through the corpus pipeline:
variants can share one disk cube-cache directory, so a sweep pays for
each database's cube queries once instead of once per variant (most
ablations change scoring, not query results).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from dataclasses import replace

from repro.core.config import AggCheckerConfig
from repro.evalexec.scope import ScopeConfig
from repro.matching.context import ContextConfig

if TYPE_CHECKING:  # runner imports nothing from here; keep it lazy anyway
    from repro.corpus.generator import Corpus
    from repro.harness.runner import CorpusRun


def keyword_context_ladder() -> list[tuple[str, AggCheckerConfig]]:
    """Table 5 block 1 / Figure 11: keyword-context sources added one at
    a time (claim sentence -> previous sentence -> paragraph start ->
    synonyms -> headlines)."""
    base = AggCheckerConfig()
    steps = [
        ("Claim sentence", ContextConfig(False, False, False, False)),
        ("+ Previous sentence", ContextConfig(True, False, False, False)),
        ("+ Paragraph start", ContextConfig(True, True, False, False)),
        ("+ Synonyms", ContextConfig(True, True, True, False)),
        ("+ Headlines (current version)", ContextConfig(True, True, True, True)),
    ]
    return [(name, replace(base, context=config)) for name, config in steps]


def model_ladder() -> list[tuple[str, AggCheckerConfig]]:
    """Table 5 block 2 / Table 10: probabilistic-model variables added one
    at a time (relevance scores -> + evaluation results -> + priors)."""
    base = AggCheckerConfig()
    return [
        (
            "Relevance scores Sc",
            base.with_em(use_evaluations=False, use_priors=False),
        ),
        (
            "+ Evaluation results Ec",
            base.with_em(use_evaluations=True, use_priors=False),
        ),
        (
            "+ Learning priors Θ (current version)",
            base.with_em(use_evaluations=True, use_priors=True),
        ),
    ]


def hits_ladder(hits_values=(1, 10, 20, 30)) -> list[tuple[str, AggCheckerConfig]]:
    """Table 5 block 3 / Figure 13 left: the "# Hits" retrieval budget."""
    base = AggCheckerConfig()
    return [
        (f"# Hits = {hits}", replace(base, predicate_hits=hits))
        for hits in hits_values
    ]


def column_budget_ladder(
    budgets=(1, 2, 4, 6, 10),
) -> list[tuple[str, AggCheckerConfig]]:
    """Figure 13 right: the aggregation-column budget."""
    base = AggCheckerConfig()
    return [
        (f"# Aggregates = {budget}", replace(base, column_hits=budget))
        for budget in budgets
    ]


def pt_ladder(values=(0.5, 0.9, 0.99, 0.999, 0.9999)) -> list[tuple[str, AggCheckerConfig]]:
    """Figure 12: the assumed probability of encountering true claims."""
    base = AggCheckerConfig()
    return [(f"pT = {value}", base.with_em(p_true=value)) for value in values]


def evaluation_budget_ladder(
    budgets=(25, 100, 400, None),
) -> list[tuple[str, AggCheckerConfig]]:
    """Evaluation-scope budget (PickScope cost threshold)."""
    base = AggCheckerConfig()
    variants = []
    for budget in budgets:
        label = "full scope" if budget is None else f"budget = {budget}"
        variants.append(
            (
                label,
                base.with_em(scope=ScopeConfig(max_evaluations_per_claim=budget)),
            )
        )
    return variants


def run_ladder(
    ladder: list[tuple[str, AggCheckerConfig]],
    corpus: "Corpus",
    limit: int | None = None,
    cache_dir: str | None = None,
) -> list[tuple[str, "CorpusRun"]]:
    """Run every ladder variant over the corpus through one pipeline.

    ``cache_dir`` points all variants at one shared disk cube cache, so
    after the first variant warms it the rest mostly skip cube execution
    (the cache is keyed by database content and cube signature, not by
    pipeline configuration — sharing across variants is sound).
    """
    from repro.harness.runner import run_corpus

    runs = []
    for name, config in ladder:
        if cache_dir is not None:
            config = config.with_engine(cache_dir=cache_dir)
        runs.append((name, run_corpus(corpus, config, limit)))
    return runs
