"""Relevance-score computation per claim (paper Algorithm 1).

- :func:`keyword_match_batch` is the matcher the pipeline runs: contexts
  for the whole document are extracted with a shared dependency-tree
  cache, analyzed once each, and scored against the compiled CSR category
  indexes in one vectorized pass per category
  (:meth:`CompiledFragmentIndex.retrieve_batch`).
- :func:`keyword_match` is Algorithm 1 written plainly — one keyword
  context extraction plus one :meth:`FragmentIndex.retrieve` per claim.
  It is the reference the matching tests hold the batch scores
  float-for-float equal to; nothing under ``src/repro`` calls it and no
  option selects it.
"""

from __future__ import annotations

from repro.fragments.indexer import FragmentIndex, RelevanceScores
from repro.matching.context import ContextConfig, claim_contexts, claim_keywords
from repro.text.claims import Claim


def keyword_match(
    claims: list[Claim],
    index: FragmentIndex,
    context_config: ContextConfig | None = None,
    predicate_hits: int = 20,
    column_hits: int = 10,
) -> dict[Claim, RelevanceScores]:
    """Map each claim to relevance scores over query fragments.

    This is the paper's ``KeywordMatch``: extract the claim's weighted
    keyword context (Algorithm 2), then query the fragment indexes. The
    reference for :func:`keyword_match_batch` (see the module docstring).
    """
    scores: dict[Claim, RelevanceScores] = {}
    for claim in claims:
        keywords = claim_keywords(claim, context_config)
        scores[claim] = index.retrieve(
            keywords, predicate_hits=predicate_hits, column_hits=column_hits
        )
    return scores


def keyword_match_batch(
    claims: list[Claim],
    index: FragmentIndex,
    context_config: ContextConfig | None = None,
    predicate_hits: int = 20,
    column_hits: int = 10,
) -> dict[Claim, RelevanceScores]:
    """One vectorized keyword->fragment scoring pass for a whole document.

    Produces exactly what :func:`keyword_match` produces — same fragment
    sets, same dict insertion order, bit-identical scores — but pays
    context analysis once per claim (not once per category index) and
    replaces the per-term Python postings walk with array kernels over the
    compiled index, which checker pools reuse across every document of a
    database.
    """
    contexts = claim_contexts(claims, context_config)
    results = index.compiled().retrieve_batch(
        contexts, predicate_hits=predicate_hits, column_hits=column_hits
    )
    return dict(zip(claims, results))
