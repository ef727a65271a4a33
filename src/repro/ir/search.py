"""Weighted-term TF-IDF retrieval (Lucene classic similarity).

The claim-keyword context produced by Algorithm 2 is a *weighted* keyword
set; scoring multiplies each term's contribution by its context weight, so
keywords near the claimed value dominate (paper Section 4.3).

score(q, d) = sum_t  w_t * sqrt(tf(t, d)) * idf(t)^2 * norm(d)

Three entry points share the scoring math:

- :func:`search` — analyze a raw keyword context, then score one
  :class:`~repro.ir.index.InvertedIndex` (the reference oracle);
- :func:`search_terms` — same, for a context that is already analyzed
  (lets one analysis pass feed several category indexes);
- :func:`search_compiled_batch` — score *every claim of a document* against
  one :class:`~repro.ir.index.CompiledPostings` in a single NumPy pass
  (gather + bincount); :func:`search_terms` is the oracle it is held to.

All paths rank by ``(-score, doc_id)``: equal scores break ties by the
stable document id (fragment ids are catalog positions), so per-claim and
batched retrieval — and reruns under different hash seeds — agree exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as _np

from repro.ir.index import CompiledPostings, InvertedIndex


@dataclass(frozen=True)
class Hit:
    """One search result: the indexed payload and its relevance score."""

    payload: Any
    score: float


def search(
    index: InvertedIndex,
    weighted_terms: dict[str, float],
    top_k: int | None = None,
) -> list[Hit]:
    """Rank indexed documents against a weighted keyword query.

    ``weighted_terms`` maps *raw* keywords to weights; analysis (stopword
    removal, stemming) is applied here so callers never need to know the
    index's analyzer configuration. Weights of keywords mapping to the same
    term accumulate by max (repeating a keyword shouldn't dilute others).
    """
    return search_terms(
        index, index.analyzer.analyze_weighted(weighted_terms), top_k
    )


def search_terms(
    index: InvertedIndex,
    query: dict[str, float],
    top_k: int | None = None,
) -> list[Hit]:
    """Rank indexed documents against an *analyzed* term->weight query.

    Callers holding a claim's analyzed context (e.g. a fragment index
    scoring the same context against three category indexes) skip the
    per-index re-analysis this way.
    """
    if not query:
        return []
    scores: dict[int, float] = {}
    for term, weight in query.items():
        idf = index.idf(term)
        for posting in index.postings(term):
            contribution = (
                weight * math.sqrt(posting.frequency) * idf * idf
            )
            scores[posting.doc_id] = scores.get(posting.doc_id, 0.0) + contribution
    ranked = sorted(
        (
            (doc_id, score * index.norm(doc_id))
            for doc_id, score in scores.items()
        ),
        key=_rank_key,
    )
    if top_k is not None:
        ranked = ranked[:top_k]
    return [Hit(index.payload(doc_id), score) for doc_id, score in ranked]


def _rank_key(entry: tuple[int, float]) -> tuple[float, int]:
    return (-entry[1], entry[0])


def search_compiled_batch(
    compiled: CompiledPostings,
    queries: list[tuple[list[int], list[float]]],
    top_k: int | None = None,
) -> list[list[tuple[int, float]]]:
    """Score many claims against one compiled index in a single pass.

    ``queries`` holds one ``(term_ids, weights)`` pair per claim (resolved
    through the shared :class:`~repro.ir.index.TermVocabulary`). Returns,
    per claim, the ``(doc_id, score)`` hits ranked by ``(-score, doc_id)``
    and truncated to ``top_k`` — float-for-float identical to running
    :func:`search_terms` per claim, because contributions accumulate per
    (claim, document) in the same (query-term, posting) order and through
    the same sequence of float64 operations.
    """
    n_claims = len(queries)
    n_docs = compiled.n_docs
    if n_claims == 0 or n_docs == 0:
        return [[] for _ in queries]

    # One flat (claim, query-term) pair list, in claim-then-term order.
    pair_terms: list[int] = []
    pair_weights: list[float] = []
    pair_claim: list[int] = []
    for claim_index, (term_ids, weights) in enumerate(queries):
        pair_terms.extend(term_ids)
        pair_weights.extend(weights)
        pair_claim.extend([claim_index] * len(term_ids))
    if not pair_terms:
        return [[] for _ in queries]

    terms = _np.asarray(pair_terms, dtype=_np.int64)
    starts = compiled.indptr[terms]
    lengths = compiled.indptr[terms + 1] - starts
    total = int(lengths.sum())
    if total == 0:
        return [[] for _ in queries]

    # Ragged gather: postings positions of every pair, concatenated in
    # pair order (so per-(claim, doc) accumulation order matches the
    # per-claim reference loop exactly).
    ends = lengths.cumsum()
    offsets = _np.repeat(starts - (ends - lengths), lengths)
    positions = offsets + _np.arange(total, dtype=_np.int64)

    rows = _np.repeat(_np.asarray(pair_claim, dtype=_np.int64), lengths)
    expanded_weights = _np.repeat(
        _np.asarray(pair_weights, dtype=_np.float64), lengths
    )
    expanded_idf = _np.repeat(compiled.idf[terms], lengths)
    docs = compiled.doc_ids[positions]
    # Same float64 operation sequence as the scalar path:
    # ((w * sqrt_tf) * idf) * idf.
    contributions = (
        (expanded_weights * compiled.tf_sqrt[positions]) * expanded_idf
    ) * expanded_idf

    flat = rows * n_docs + docs
    length = n_claims * n_docs
    # np.bincount adds weights in input order, reproducing the reference
    # accumulation order per (claim, doc) bin. The membership mask is a
    # separate unweighted bincount rather than ``sums > 0``: the oracle
    # includes a document as soon as a posting exists, even if extreme
    # (sub-normal) weights underflow its score sum to exactly 0.0.
    sums = _np.bincount(flat, weights=contributions, minlength=length)
    touched = _np.bincount(flat, minlength=length) > 0
    scores = sums.reshape(n_claims, n_docs) * compiled.norms[_np.newaxis, :]
    touched = touched.reshape(n_claims, n_docs)

    results: list[list[tuple[int, float]]] = []
    for claim_index in range(n_claims):
        hit_docs = _np.flatnonzero(touched[claim_index])
        if not len(hit_docs):
            results.append([])
            continue
        values = scores[claim_index, hit_docs]
        # Stable argsort on -score keeps doc-ascending order within ties —
        # the same (-score, doc_id) key the per-claim path sorts by.
        order = _np.argsort(-values, kind="stable")
        if top_k is not None:
            order = order[:top_k]
        results.append(
            [
                (int(doc), float(score))
                for doc, score in zip(
                    hit_docs[order].tolist(), values[order].tolist()
                )
            ]
        )
    return results
