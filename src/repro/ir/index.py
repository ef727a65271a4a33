"""Inverted index over keyword documents.

Each indexed document is a keyword set describing one query fragment
(paper Section 4.2). Documents carry an opaque payload — the fragment —
returned with search hits.

Two representations coexist:

- :class:`InvertedIndex` — the dict-of-postings reference form that
  per-claim :func:`repro.ir.search.search` walks term by term;
- :class:`CompiledPostings` — a CSR (compressed sparse row) compilation of
  one inverted index over a :class:`TermVocabulary` *shared across several
  indexes*, with term frequencies pre-square-rooted, idf pre-computed per
  term id, and length norms as one array. The batched matching front end
  scores whole documents' claim sets against these arrays in a handful of
  NumPy gather/bincount passes (:func:`repro.ir.search.search_compiled_batch`).
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Any

import numpy as _np

from repro.ir.analysis import Analyzer


@dataclass
class _Posting:
    doc_id: int
    frequency: int


class InvertedIndex:
    """Term -> postings index with document length norms."""

    def __init__(self, analyzer: Analyzer | None = None) -> None:
        self.analyzer = analyzer or Analyzer()
        self._postings: dict[str, list[_Posting]] = {}
        self._payloads: list[Any] = []
        self._norms: list[float] = []

    def __len__(self) -> int:
        return len(self._payloads)

    def add(self, payload: Any, text: str = "", tokens: Iterable[str] = ()) -> int:
        """Index one document given raw text and/or pre-split tokens."""
        terms = []
        if text:
            terms.extend(self.analyzer.analyze(text))
        token_list = list(tokens)
        if token_list:
            terms.extend(self.analyzer.analyze_tokens(token_list))
        doc_id = len(self._payloads)
        self._payloads.append(payload)
        counts = Counter(terms)
        for term, frequency in counts.items():
            self._postings.setdefault(term, []).append(_Posting(doc_id, frequency))
        # Lucene's classic length norm: 1/sqrt(#terms).
        self._norms.append(1.0 / math.sqrt(len(terms)) if terms else 0.0)
        return doc_id

    def payload(self, doc_id: int) -> Any:
        return self._payloads[doc_id]

    def norm(self, doc_id: int) -> float:
        return self._norms[doc_id]

    def postings(self, term: str) -> list[_Posting]:
        return self._postings.get(term, [])

    def document_frequency(self, term: str) -> int:
        return len(self._postings.get(term, ()))

    def idf(self, term: str) -> float:
        """Lucene-classic idf: 1 + ln(N / (df + 1))."""
        n_docs = len(self._payloads)
        if n_docs == 0:
            return 0.0
        return 1.0 + math.log(n_docs / (self.document_frequency(term) + 1.0))

    def vocabulary(self) -> set[str]:
        return set(self._postings)


class TermVocabulary:
    """Interned term-id table shared across several inverted indexes.

    Sharing one vocabulary means a claim's keyword context is analyzed and
    term-id-resolved exactly once per document, then reused verbatim by the
    functions / columns / predicates scorers.
    """

    __slots__ = ("terms", "_ids")

    def __init__(self) -> None:
        self.terms: list[str] = []
        self._ids: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.terms)

    def intern(self, term: str) -> int:
        """Id of ``term``, assigning the next id on first sight."""
        term_id = self._ids.get(term)
        if term_id is None:
            term_id = len(self.terms)
            self._ids[term] = term_id
            self.terms.append(term)
        return term_id

    def id_of(self, term: str) -> int | None:
        """Id of ``term`` or None when it appears in no compiled index."""
        return self._ids.get(term)

    def resolve_query(self, query: dict[str, float]) -> tuple[list[int], list[float]]:
        """Analyzed term->weight query as aligned (term-id, weight) lists.

        Terms outside the vocabulary have no postings in any compiled
        index, so dropping them changes no score; order of the survivors is
        preserved so float accumulation order matches the reference path.
        """
        ids = self._ids
        term_ids: list[int] = []
        weights: list[float] = []
        for term, weight in query.items():
            term_id = ids.get(term)
            if term_id is not None:
                term_ids.append(term_id)
                weights.append(weight)
        return term_ids, weights


class CompiledPostings:
    """CSR compilation of one :class:`InvertedIndex` over a shared vocabulary.

    - ``indptr[t] : indptr[t + 1]`` is the postings slice of vocabulary
      term ``t`` (empty for terms this index never saw);
    - ``doc_ids`` / ``tf_sqrt`` hold the posting document ids and
      pre-computed ``sqrt(term frequency)`` values, doc-ascending per term;
    - ``idf`` is the Lucene-classic idf of every vocabulary term *in this
      index* (``1 + ln(N / (df + 1))``, computed with ``math.log`` so the
      values are bit-identical to :meth:`InvertedIndex.idf`);
    - ``norms`` is the per-document length norm.
    """

    __slots__ = ("n_docs", "indptr", "doc_ids", "tf_sqrt", "idf", "norms")

    def __init__(self, index: InvertedIndex, vocab: TermVocabulary) -> None:
        self.n_docs = len(index)
        n_terms = len(vocab)
        by_term_id: list[list[_Posting] | None] = [None] * n_terms
        df = [0] * n_terms
        for term, postings in index._postings.items():
            term_id = vocab.id_of(term)
            if term_id is None:  # pragma: no cover - vocab always pre-interned
                continue
            by_term_id[term_id] = postings
            df[term_id] = len(postings)

        indptr = [0] * (n_terms + 1)
        doc_ids: list[int] = []
        tf_sqrt: list[float] = []
        for term_id in range(n_terms):
            postings = by_term_id[term_id]
            if postings:
                for posting in postings:
                    doc_ids.append(posting.doc_id)
                    tf_sqrt.append(math.sqrt(posting.frequency))
            indptr[term_id + 1] = len(doc_ids)

        if self.n_docs:
            idf = [
                1.0 + math.log(self.n_docs / (count + 1.0)) for count in df
            ]
        else:
            idf = [0.0] * n_terms
        norms = list(index._norms)

        self.indptr = _np.asarray(indptr, dtype=_np.int64)
        self.doc_ids = _np.asarray(doc_ids, dtype=_np.int64)
        self.tf_sqrt = _np.asarray(tf_sqrt, dtype=_np.float64)
        self.idf = _np.asarray(idf, dtype=_np.float64)
        self.norms = _np.asarray(norms, dtype=_np.float64)
