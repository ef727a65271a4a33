"""IR indexes over the fragment catalog.

Fragments are indexed per category — functions, aggregation columns,
predicates — because the probabilistic model normalizes relevance scores
within each category (paper Section 5.3: ``Pr(S|Q)`` factorizes into
function / column / restriction components).

Two retrieval paths share one :class:`FragmentIndex`:

- :meth:`FragmentIndex.retrieve` — the per-claim reference oracle over the
  dict-based inverted indexes (one analysis pass feeds all three category
  searches);
- :meth:`CompiledFragmentIndex.retrieve_batch` — the batched front end:
  the three category indexes compiled to CSR postings over one shared
  term vocabulary, scoring every claim of a document in a single
  vectorized pass per category. Compilation happens once per database
  (cached on the index, which checker pools keep per database) and its
  results are float-for-float identical to the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fragments.fragments import (
    ColumnFragment,
    FragmentCatalog,
    FunctionFragment,
    PredicateFragment,
)
from repro.ir.analysis import Analyzer
from repro.ir.index import CompiledPostings, InvertedIndex, TermVocabulary
from repro.ir.search import search_compiled_batch, search_terms


@dataclass
class RelevanceScores:
    """Per-claim relevance scores for retrieved fragments (unretrieved
    fragments are absent and treated as zero-relevance by the model).

    Alongside the fragment->score dicts, a batch-retrieval result carries
    catalog-aligned id arrays (``function_ids`` etc.: the catalog position
    of each dict entry, in dict order). Score-value arrays are derived
    lazily either way, so the candidate builder consumes arrays without
    per-fragment dict iteration regardless of which path produced them.
    """

    functions: dict[FunctionFragment, float]
    columns: dict[ColumnFragment, float]
    predicates: dict[PredicateFragment, float]
    #: catalog positions aligned with dict order (None from the reference
    #: ``FragmentIndex.retrieve``)
    function_ids: list[int] | None = field(default=None, compare=False)
    column_ids: list[int] | None = field(default=None, compare=False)
    predicate_ids: list[int] | None = field(default=None, compare=False)
    _values: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def value_arrays(self) -> tuple[list[float], list[float], list[float]]:
        """(function, column, predicate) score values in dict order, cached.

        ``predicates`` may be mutated by document-level pooling after
        retrieval, so its values are only cached once consumers start
        reading them (pooling happens before candidate construction).
        """
        if self._values is None:
            self._values = (
                list(self.functions.values()),
                list(self.columns.values()),
                list(self.predicates.values()),
            )
        return self._values


class FragmentIndex:
    """Three per-category inverted indexes over one fragment catalog."""

    def __init__(
        self, catalog: FragmentCatalog, analyzer: Analyzer | None = None
    ) -> None:
        self.catalog = catalog
        self.analyzer = analyzer or Analyzer()
        self._functions = InvertedIndex(self.analyzer)
        for fragment in catalog.functions:
            self._functions.add(fragment, tokens=list(fragment.keywords))
        self._columns = InvertedIndex(self.analyzer)
        for fragment in catalog.columns:
            self._columns.add(fragment, tokens=list(fragment.keywords))
        self._predicates = InvertedIndex(self.analyzer)
        for fragment in catalog.predicates:
            self._predicates.add(fragment, tokens=list(fragment.keywords))
        self._compiled: CompiledFragmentIndex | None = None

    def compiled(self) -> "CompiledFragmentIndex":
        """The array-backed form of this index, built once and cached.

        Checker pools hold one fragment index per database, so the
        compiled artifacts (shared vocabulary, CSR postings, idf/norm
        arrays) are reused by every document verified against it.
        """
        if self._compiled is None:
            self._compiled = CompiledFragmentIndex(self)
        return self._compiled

    def retrieve(
        self,
        weighted_keywords: dict[str, float],
        predicate_hits: int = 20,
        column_hits: int = 10,
    ) -> RelevanceScores:
        """Score fragments against one claim's weighted keyword context.

        ``predicate_hits`` is the paper's "# Hits" knob (Lucene hits per
        claim, Table 5 / Figure 13 left); ``column_hits`` is the
        "# aggregation columns" knob (Figure 13 right). All aggregation
        functions are always scored — there are only eight.

        The keyword context is analyzed once and the resulting weighted
        terms are shared by all three category searches (the analyzer is
        common to the three indexes, so per-index re-analysis was pure
        redundancy).
        """
        query = self.analyzer.analyze_weighted(weighted_keywords)
        # Every aggregation function is always in scope (only eight exist);
        # keywords merely modulate their scores.
        function_scores = {fragment: 0.0 for fragment in self.catalog.functions}
        function_scores.update(
            (hit.payload, hit.score)
            for hit in search_terms(self._functions, query, top_k=None)
        )
        column_scores = {
            hit.payload: hit.score
            for hit in search_terms(self._columns, query, top_k=column_hits)
        }
        # The '*' aggregation columns stay in scope even without keyword
        # support: Count(*) is the most common claim query.
        for fragment in self.catalog.columns:
            if fragment.is_star:
                column_scores.setdefault(fragment, 0.0)
        predicate_scores = {
            hit.payload: hit.score
            for hit in search_terms(self._predicates, query, top_k=predicate_hits)
        }
        return RelevanceScores(function_scores, column_scores, predicate_scores)


class CompiledFragmentIndex:
    """CSR-compiled category indexes sharing one term vocabulary.

    Fragment document ids are catalog positions (fragments are indexed in
    catalog order), so batch hits translate to fragments by list indexing
    and the id arrays on :class:`RelevanceScores` are catalog-aligned for
    free.
    """

    def __init__(self, index: FragmentIndex) -> None:
        self.catalog = index.catalog
        self.analyzer = index.analyzer
        self.vocab = TermVocabulary()
        # Two passes: intern every term of every category first so all
        # three CSR blocks address one complete vocabulary.
        for inverted in (index._functions, index._columns, index._predicates):
            for term in inverted._postings:
                self.vocab.intern(term)
        self.functions = CompiledPostings(index._functions, self.vocab)
        self.columns = CompiledPostings(index._columns, self.vocab)
        self.predicates = CompiledPostings(index._predicates, self.vocab)
        self.star_column_ids = [
            position
            for position, fragment in enumerate(self.catalog.columns)
            if fragment.is_star
        ]

    def retrieve_batch(
        self,
        contexts: list[dict[str, float]],
        predicate_hits: int = 20,
        column_hits: int = 10,
    ) -> list[RelevanceScores]:
        """Score every claim context of one document in one pass.

        Each context is analyzed once and resolved to shared term ids
        once; the three category scorers then run one vectorized
        gather/bincount pass each over all claims. Results are
        float-for-float and dict-order identical to calling
        :meth:`FragmentIndex.retrieve` per context.
        """
        queries = [
            self.vocab.resolve_query(self.analyzer.analyze_weighted(context))
            for context in contexts
        ]
        function_hits = search_compiled_batch(self.functions, queries, None)
        column_hits_lists = search_compiled_batch(
            self.columns, queries, column_hits
        )
        predicate_hits_lists = search_compiled_batch(
            self.predicates, queries, predicate_hits
        )

        catalog = self.catalog
        results: list[RelevanceScores] = []
        for claim_index in range(len(contexts)):
            function_scores = {
                fragment: 0.0 for fragment in catalog.functions
            }
            for doc_id, score in function_hits[claim_index]:
                function_scores[catalog.functions[doc_id]] = score
            # Function dict order is catalog order (all eight pre-seeded).
            function_ids = list(range(len(catalog.functions)))

            column_ids: list[int] = []
            column_scores: dict[ColumnFragment, float] = {}
            for doc_id, score in column_hits_lists[claim_index]:
                column_scores[catalog.columns[doc_id]] = score
                column_ids.append(doc_id)
            for doc_id in self.star_column_ids:
                fragment = catalog.columns[doc_id]
                if fragment not in column_scores:
                    column_scores[fragment] = 0.0
                    column_ids.append(doc_id)

            predicate_ids: list[int] = []
            predicate_scores: dict[PredicateFragment, float] = {}
            for doc_id, score in predicate_hits_lists[claim_index]:
                predicate_scores[catalog.predicates[doc_id]] = score
                predicate_ids.append(doc_id)

            results.append(
                RelevanceScores(
                    function_scores,
                    column_scores,
                    predicate_scores,
                    function_ids=function_ids,
                    column_ids=column_ids,
                    predicate_ids=predicate_ids,
                )
            )
        return results
