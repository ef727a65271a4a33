"""Top-level AggChecker configuration.

One frozen object bundles every knob of the pipeline; the ablation harness
derives variants from the default via :func:`dataclasses.replace`.

Engine construction knobs (execution mode, storage backend, disk-cache
directory, ``disk_cache_min_rows``) live in one nested
:class:`~repro.db.engine.EngineConfig` under ``engine`` and are read as
``config.engine.<field>``; :meth:`AggCheckerConfig.with_engine` derives
variants.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.db.engine import EngineConfig, ExecutionMode
from repro.fragments.extract import ExtractionConfig
from repro.matching.context import ContextConfig
from repro.model.candidates import CandidateConfig
from repro.model.em import EmConfig
from repro.text.claims import ClaimDetectionConfig


@dataclass(frozen=True)
class AggCheckerConfig:
    """All pipeline knobs with the paper's default settings."""

    #: Keyword-context sources (Algorithm 2 / Table 5 block 1).
    context: ContextConfig = field(default_factory=ContextConfig)
    #: Fragment extraction (synonyms, distinct-value caps).
    extraction: ExtractionConfig = field(default_factory=ExtractionConfig)
    #: Claim detection heuristics.
    claim_detection: ClaimDetectionConfig = field(
        default_factory=ClaimDetectionConfig
    )
    #: Candidate-space bounds (max predicates per claim, subset cap).
    candidates: CandidateConfig = field(default_factory=CandidateConfig)
    #: Probabilistic model / EM settings (pT, iterations, ablations).
    em: EmConfig = field(default_factory=EmConfig)
    #: "# Hits": predicate fragments retrieved per claim (Table 5 block 3).
    predicate_hits: int = 20
    #: Aggregation-column fragments retrieved per claim (Figure 13 right).
    column_hits: int = 10
    #: Query-engine construction: execution mode and storage backend (one
    #: of three pairs: ``MERGED_CACHED`` × ``columnar``/``sqlite``, or the
    #: ``NAIVE`` × ``row`` oracle), cube disk cache.
    #: Derive variants with :meth:`with_engine`.
    engine: EngineConfig = field(default_factory=EngineConfig)
    #: Share predicate fragments across the document's claims (paper
    #: Section 6.3 pools literals "for any claim in the document").
    pool_predicates: bool = True
    #: Space budget: maximum rows a materialized relation (join result)
    #: may hold before the engine executes over it (None = unlimited).
    #: Exceeding any space budget makes the checker degrade stepwise —
    #: shrink the evaluation scope, then skip query execution — instead
    #: of exhausting memory (see ARCHITECTURE.md, "Failure domains &
    #: degradation ladder").
    max_rows_materialized: int | None = None
    #: Space budget: maximum *estimated* rolled-up cube cells. The engine
    #: bounds a cube's result before executing it (see
    #: :func:`repro.budget.estimate_cube_cells`) and refuses to execute
    #: cubes over the limit (None = unlimited).
    max_cube_cells: int | None = None
    #: Space budget: maximum candidate (query, claim) pairs evaluated for
    #: one claim's candidate space (None = unlimited).
    max_candidates: int | None = None

    def with_engine(self, **changes) -> "AggCheckerConfig":
        """Variant with engine-construction knobs replaced (e.g.
        ``config.with_engine(backend="sqlite", cache_dir=path)``); a new
        backend brings its own mode unless one is named."""
        if "backend" in changes:
            changes.setdefault("mode", None)
        return replace(self, engine=replace(self.engine, **changes))

    def with_em(self, **changes) -> "AggCheckerConfig":
        return replace(self, em=replace(self.em, **changes))


__all__ = [
    "AggCheckerConfig",
    "EngineConfig",
    "ExecutionMode",
]
