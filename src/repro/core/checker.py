"""The AggChecker pipeline facade (paper Figure 1).

Wires together: fragment extraction and indexing (once per database),
claim detection, keyword matching, candidate construction, EM inference
with massive-scale evaluation, and verdict generation.

Candidate spaces flow through inference *factorized* (see
``repro.model.candidates`` and ARCHITECTURE.md "Evaluation data path"):
the engine answers them by cell gather and per-candidate query objects
materialize lazily, only where verdicts, top-k suggestions, or the
interactive session need them.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, replace

from repro import faults
from repro.budget import ResourceBudget
from repro.core.config import AggCheckerConfig
from repro.core.verdict import ClaimVerdict, make_verdict
from repro.db.engine import EngineStats, QueryEngine
from repro.errors import BudgetExceeded
from repro.db.schema import Database
from repro.fragments.extract import extract_fragments
from repro.fragments.indexer import FragmentIndex
from repro.matching.matcher import keyword_match_batch
from repro.model.candidates import build_candidates
from repro.model.em import InferenceResult, query_and_learn
from repro.model.priors import Priors
from repro.fragments.indexer import RelevanceScores
from repro.text.claims import Claim, detect_claims
from repro.text.document import Document
from repro.text.htmlparse import parse_html

#: Keyword-score share granted to predicate fragments pooled in from other
#: claims of the same document (they enter the space with low relevance and
#: can only win through priors and evaluation results).
_POOL_SHARE = 0.02

#: Per-claim evaluation budget on the degraded-scope rung of the budget
#: ladder: small enough that the shrunken cubes usually fit the space
#: budget that refused the full rung, large enough that the true query
#: usually stays in scope.
DEGRADED_SCOPE_BUDGET = 16


def _pool_predicate_fragments(scores: dict[Claim, RelevanceScores]) -> None:
    """Share predicate fragments across claims of one document.

    Claims in a document are semantically correlated; the paper pools the
    literals of *all* claims when generating cube cells (Section 6.3) and
    relies on document priors to route shared restrictions ("a restriction
    is usually placed on column Games", Example 5). Pooled fragments get a
    small fraction of the claim's top score so keyword evidence still
    dominates.
    """
    union: dict = {}
    fragment_ids: dict = {}
    ids_known = True
    for relevance in scores.values():
        predicate_ids = relevance.predicate_ids
        ids_known = ids_known and predicate_ids is not None
        for position, (fragment, score) in enumerate(
            relevance.predicates.items()
        ):
            union[fragment] = max(union.get(fragment, 0.0), score)
            if predicate_ids is not None:
                fragment_ids[fragment] = predicate_ids[position]
    for relevance in scores.values():
        if not relevance.predicates:
            continue
        floor = max(relevance.predicates.values()) * _POOL_SHARE
        for fragment in union:
            if fragment not in relevance.predicates:
                relevance.predicates[fragment] = floor
                if relevance.predicate_ids is not None:
                    # Keep the catalog-aligned id array in dict order.
                    if ids_known:
                        relevance.predicate_ids.append(fragment_ids[fragment])
                    else:
                        relevance.predicate_ids = None
        relevance._values = None  # predicate values changed


def claim_fingerprint(claim: Claim) -> str:
    """SHA-256 over every document feature the pipeline reads for a claim.

    Covers the mention (surface text, parsed value, token span, percentage
    flag), the claim sentence, and the full Algorithm-2 keyword context:
    the previous sentence, the paragraph's first sentence, and the
    headlines of all enclosing sections. Two claims with equal fingerprints
    are indistinguishable to matching and candidate construction, yet
    their verdicts may differ: the EM learns its priors jointly over all
    of a document's claims. The service's incremental re-check tier
    therefore keys a whole document by its ordered claim fingerprints
    and never reuses one claim's result for another.

    Deliberately excludes the claim ordinal: inserting or editing *other*
    text must not invalidate an untouched claim.
    """
    mention = claim.mention
    sentence = claim.sentence
    digest = hashlib.sha256()

    def feed(tag: str, text: str) -> None:
        digest.update(f"{tag}:{text}\x1e".encode("utf-8", "surrogatepass"))

    feed("mention", mention.text)
    feed("value", repr(mention.value))
    feed("span", ",".join(str(index) for index in mention.token_indexes))
    feed("pct", "1" if mention.is_percentage else "0")
    feed("sentence", sentence.text)
    previous = sentence.previous
    feed("previous", previous.text if previous is not None else "")
    first = sentence.paragraph.first_sentence
    feed(
        "paragraph_start",
        first.text if first is not None and first is not sentence else "",
    )
    for section in sentence.paragraph.section.ancestors():
        if section.headline:
            feed("headline", section.headline)
    return digest.hexdigest()


@dataclass
class CheckReport:
    """Everything produced by one document verification run."""

    document: Document
    claims: list[Claim]
    verdicts: list[ClaimVerdict]
    inference: InferenceResult
    engine_stats: EngineStats
    total_seconds: float

    @property
    def priors(self) -> Priors | None:
        return self.inference.priors

    def verdict_for(self, claim: Claim) -> ClaimVerdict:
        for verdict in self.verdicts:
            if verdict.claim is claim:
                return verdict
        raise KeyError(f"no verdict for {claim!r}")

    def flagged_claims(self) -> list[Claim]:
        return [v.claim for v in self.verdicts if v.status.flagged]


class AggChecker:
    """Verifies text summaries of one relational database.

    Fragment extraction and indexing happen once at construction; each
    :meth:`check_document` call runs the full verification pipeline on one
    document. The query engine (and its result cache) persists across
    documents for the same database.
    """

    def __init__(
        self,
        database: Database,
        config: AggCheckerConfig | None = None,
        data_dictionary: dict[str, str] | None = None,
    ) -> None:
        self.database = database
        self.config = config or AggCheckerConfig()
        # The engine comes first: extraction reads the distinct values
        # through its adapter, so on columnar each column is factorized
        # once for both the fragments and the relation.
        self.engine = QueryEngine(database, self.config.engine)
        self.catalog = extract_fragments(
            database, self.config.extraction, data_dictionary,
            adapter=self.engine.adapter,
        )
        self.index = FragmentIndex(self.catalog)
        # Compile the matching artifacts (shared vocabulary, CSR postings,
        # idf/norm arrays) up front: checkers are pooled per database, so
        # every document reuses them.
        self.index.compiled()

    def check_html(self, html: str) -> CheckReport:
        """Parse HTML and verify the resulting document."""
        return self.check_document(parse_html(html))

    def interactive(self, report: CheckReport):
        """An :class:`InteractiveSession` wired to this checker's engine."""
        from repro.core.interactive import InteractiveSession

        return InteractiveSession(report, self.engine)

    def check_text(self, title: str, paragraphs: list[str]) -> CheckReport:
        """Verify a flat plain-text document."""
        return self.check_document(Document.from_plain_text(title, paragraphs))

    def check_document(self, document: Document) -> CheckReport:
        """Run the full pipeline: detect, match, infer, verdict."""
        started = time.perf_counter()
        claims = detect_claims(document, self.config.claim_detection)
        return self._check(document, claims, started)

    def check_claims(
        self, document: Document, claims: list[Claim]
    ) -> CheckReport:
        """Verify a caller-provided claim list (corpus ground truth mode)."""
        return self._check(document, claims, time.perf_counter())

    def _check(
        self, document: Document, claims: list[Claim], started: float
    ) -> CheckReport:
        # Checkers are reused across documents (and, via CheckerPool, across
        # corpus cases sharing a database); the report carries this
        # document's engine-stats *delta* so per-case numbers stay additive.
        stats_before = self.engine.stats.copy()
        spaces = self._match_and_build(claims)
        inference, degraded = self._infer_ladder(spaces)
        faults.fire("checker.stage", "verdicts")
        verdicts = [
            make_verdict(claim, inference.distributions[claim], degraded)
            for claim in claims
        ]
        return CheckReport(
            document=document,
            claims=claims,
            verdicts=verdicts,
            inference=inference,
            engine_stats=self.engine.stats.diff(stats_before),
            total_seconds=time.perf_counter() - started,
        )

    def _match_and_build(self, claims: list[Claim]) -> dict:
        """Keyword matching, then one candidate space per claim."""
        faults.fire("checker.stage", "match")
        scores = keyword_match_batch(
            claims,
            self.index,
            self.config.context,
            predicate_hits=self.config.predicate_hits,
            column_hits=self.config.column_hits,
        )
        if self.config.pool_predicates:
            _pool_predicate_fragments(scores)
        faults.fire("checker.stage", "candidates")
        return {
            claim: build_candidates(claim, scores[claim], self.config.candidates)
            for claim in claims
        }

    def _infer_ladder(
        self, spaces: dict
    ) -> tuple[InferenceResult, str | None]:
        """Inference under the degradation ladder.

        Rung 1 is full inference under the configured space budget. When
        a budget refuses an execution, rung 2 retries with a shrunken
        per-claim evaluation scope under the same budget (a smaller scope
        means fewer candidates, a smaller literal union, and therefore
        smaller cube estimates, so space pressure shrinks with it); rung 3
        drops query execution entirely (keyword and prior evidence only,
        so it touches no budget). Every rung still yields a verdict per
        claim, and the budgets count work, not time, so the same input
        lands on the same rung on every run.
        """
        faults.fire("checker.stage", "inference")
        em = self.config.em
        try:
            return self._infer(spaces, em), None
        except BudgetExceeded:
            self.engine.stats.budget_degraded += 1
        budget = em.scope.max_evaluations_per_claim
        shrunken = replace(
            em,
            max_iterations=1,
            scope=replace(
                em.scope,
                max_evaluations_per_claim=(
                    min(budget, DEGRADED_SCOPE_BUDGET)
                    if budget is not None
                    else DEGRADED_SCOPE_BUDGET
                ),
            ),
        )
        try:
            return self._infer(spaces, shrunken), "scope"
        except BudgetExceeded:
            self.engine.stats.budget_exec_skipped += 1
        no_exec = replace(em, max_iterations=1, use_evaluations=False)
        return self._infer(spaces, no_exec), "no_exec"

    def _infer(self, spaces: dict, em_config) -> InferenceResult:
        # The engine checks the space budget right before every
        # materialization: the unbounded work inside an EM iteration.
        self.engine.budget = self._budget()
        try:
            return query_and_learn(
                spaces, self.catalog, self.engine, em_config
            )
        finally:
            self.engine.budget = None

    def _budget(self) -> ResourceBudget | None:
        """The config's space limits, or None when none is configured
        (the engine then skips all budget guards)."""
        config = self.config
        if (
            config.max_rows_materialized is None
            and config.max_cube_cells is None
            and config.max_candidates is None
        ):
            return None
        return ResourceBudget(
            max_rows=config.max_rows_materialized,
            max_cube_cells=config.max_cube_cells,
            max_candidates=config.max_candidates,
        )
