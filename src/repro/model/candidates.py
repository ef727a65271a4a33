"""Candidate query spaces per claim (paper Section 4.4).

Combining retrieved fragments "in all possible ways (within the boundaries
of the query model)" yields the claim-specific candidate space: one
aggregation function x one aggregation column x a set of equality
predicates on distinct columns. Conditional-probability candidates
additionally choose which predicate is the condition.

The space is stored factorized (function x column x predicate-subset index
arrays) so the EM loop can re-score tens of thousands of candidates per
claim with a handful of numpy operations. The factorized form is also the
*evaluation currency*: :class:`SpaceEncoding` exposes per-dimension
literal-code vectors that let the query engine answer the whole space from
cube cells by integer gather (:mod:`repro.db.gather`), and real
``SimpleAggregateQuery`` objects materialize lazily — only the top-k /
verdict / reporting / interactive paths ever build them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, combinations

import numpy as np

from repro.db.aggregates import AggregateFunction
from repro.db.cube import ALL
from repro.db.gather import (
    KIND_CONDITIONAL,
    KIND_PERCENTAGE,
    KIND_PLAIN,
    distinct_ids,
)
from repro.db.query import AggregateSpec, ColumnRef, SimpleAggregateQuery
from repro.fragments.fragments import (
    ColumnFragment,
    FunctionFragment,
    PredicateFragment,
)
from repro.fragments.indexer import RelevanceScores
from repro.text.claims import Claim

#: Floor added to keyword scores so unretrieved-but-in-scope fragments
#: (e.g. the ``*`` column) keep non-zero probability.
SCORE_FLOOR_SHARE = 0.05


@dataclass(frozen=True)
class CandidateConfig:
    """Scope of the candidate space.

    ``max_predicates`` is the paper's ``m`` (at most m predicates per
    claim; m=3 in the paper, default 2 here matching the corpus where no
    claim uses three — Figure 9c). ``max_subsets`` caps the number of
    predicate combinations per claim (cost control, see PickScope).
    """

    max_predicates: int = 2
    max_subsets: int = 600
    include_conditional_probability: bool = True


class SpaceEncoding:
    """Integer view of one candidate space for cell-gather evaluation.

    Everything a query engine needs to answer candidates without
    materializing them:

    - ``pred_columns`` / ``literals``: the space's predicate columns and,
      per column, its distinct normalized literals (sorted);
    - ``subset_codes``: per predicate subset, one literal code per
      predicate column (0 = that column unrestricted) — the
      per-dimension literal-code vector a cube cell key maps onto;
    - ``col_set_id`` / ``col_sets``: the predicate-column set of each
      subset, as an id into the space's few distinct sets;
    - ``tables_id`` / ``table_sets``: base-relation table set per
      candidate (empty set = the database's single table);
    - ``basis_spec_id`` / ``basis_specs``: the cube-computable aggregate
      backing each candidate (ratio functions share their column's COUNT);
    - ``fn_kind``: per function fragment, how candidate values derive from
      basis cells (:data:`~repro.db.gather.KIND_PLAIN` /
      ``KIND_PERCENTAGE`` / ``KIND_CONDITIONAL``);
    - ``cond_pair_id`` / ``cond_pairs``: per candidate, the (column,
      literal-code) pair of its condition predicate (-1 = no condition).
    """

    __slots__ = (
        "pred_columns",
        "col_pos",
        "literals",
        "subset_codes",
        "col_sets",
        "col_set_id",
        "table_sets",
        "tables_id",
        "basis_specs",
        "basis_spec_id",
        "fn_kind",
        "cond_pairs",
        "cond_pair_id",
        "_cond_codes",
        "_key_parts",
    )

    def __init__(self, space: "CandidateSpace") -> None:
        matrix = space.subset_matrix
        fragments = space.predicates
        n_subsets = len(matrix)
        # One entry per (subset, predicate) pair, subset-then-slot order.
        pair_subset, pair_slot = np.nonzero(matrix >= 0)
        pair_fragment = matrix[pair_subset, pair_slot]
        used = distinct_ids(pair_fragment).tolist()

        # Python below touches each distinct fragment once; everything per
        # subset or per candidate is a scatter/gather over these arrays.
        self.pred_columns: list[ColumnRef] = sorted(
            {fragments[f].column for f in used}
        )
        self.col_pos = {column: j for j, column in enumerate(self.pred_columns)}
        literal_sets: list[set[str]] = [set() for _ in self.pred_columns]
        for f in used:
            predicate = fragments[f].predicate
            literal_sets[self.col_pos[predicate.column]].add(
                predicate.normalized_value
            )
        self.literals = [sorted(values) for values in literal_sets]
        literal_code = [
            {literal: code + 1 for code, literal in enumerate(column_literals)}
            for column_literals in self.literals
        ]
        table_names = sorted(
            {fragments[f].column.table for f in used if fragments[f].column.table}
        )
        table_pos = {name: t for t, name in enumerate(table_names)}
        fragment_col = np.zeros(len(fragments), dtype=np.intp)
        fragment_code = np.zeros(len(fragments), dtype=np.int32)
        fragment_table = np.full(len(fragments), -1, dtype=np.intp)
        for f in used:
            predicate = fragments[f].predicate
            j = fragment_col[f] = self.col_pos[predicate.column]
            fragment_code[f] = literal_code[j][predicate.normalized_value]
            fragment_table[f] = table_pos.get(predicate.column.table, -1)

        self.subset_codes = np.zeros(
            (n_subsets, len(self.pred_columns)), dtype=np.int32
        )
        self.subset_codes[pair_subset, fragment_col[pair_fragment]] = (
            fragment_code[pair_fragment]
        )
        self._key_parts: list[np.ndarray] = []
        for column_literals in self.literals:
            parts = np.empty(len(column_literals) + 1, dtype=object)
            parts[0] = ALL
            parts[1:] = column_literals
            self._key_parts.append(parts)

        # Distinct predicate-column sets, and which one each subset uses.
        self.col_set_id, first = _first_seen(_row_keys(self.subset_codes != 0))
        self.col_sets: list[frozenset[ColumnRef]] = [
            frozenset(
                self.pred_columns[j] for j in np.flatnonzero(self.subset_codes[si])
            )
            for si in first.tolist()
        ]

        # Table set per candidate. Both factors have very few distinct
        # table sets, so dedup over (column-variant, subset-variant) pairs
        # rather than raw (column, subset) pairs.
        in_table = fragment_table[pair_fragment] >= 0
        subset_has = np.zeros((n_subsets, len(table_names)), dtype=bool)
        subset_has[
            pair_subset[in_table], fragment_table[pair_fragment[in_table]]
        ] = True
        subset_tid, first = _first_seen(_row_keys(subset_has))
        subset_variants = [
            frozenset(table_names[t] for t in np.flatnonzero(subset_has[si]))
            for si in first.tolist()
        ]
        column_tables = [
            frozenset({fragment.column.table} if fragment.column.table else ())
            for fragment in space.columns
        ]
        column_variants = list(dict.fromkeys(column_tables))
        column_tid = np.array(
            [column_variants.index(tables) for tables in column_tables],
            dtype=np.int64,
        )
        radix = max(len(subset_variants), 1)
        self.tables_id, self.table_sets = _ids_by_code(
            column_tid[space.col_index] * radix + subset_tid[space.subset_index],
            lambda code: column_variants[code // radix]
            | subset_variants[code % radix],
        )

        # Basis aggregate per candidate, deduplicated over (fn, col) pairs.
        n_columns = max(len(space.columns), 1)

        def basis_of(code: int) -> AggregateSpec:
            function = space.functions[code // n_columns].function
            column = space.columns[code % n_columns].column
            if function.is_ratio:
                return AggregateSpec(AggregateFunction.COUNT, column)
            return AggregateSpec(function, column)

        self.basis_spec_id, self.basis_specs = _ids_by_code(
            space.fn_index.astype(np.int64) * n_columns + space.col_index,
            basis_of,
        )

        self.fn_kind = np.array(
            [
                KIND_PERCENTAGE
                if fragment.function is AggregateFunction.PERCENTAGE
                else KIND_CONDITIONAL
                if fragment.function is AggregateFunction.CONDITIONAL_PROBABILITY
                else KIND_PLAIN
                for fragment in space.functions
            ],
            dtype=np.int8,
        )

        # Condition (column, literal-code) pair per conditional candidate;
        # pair ids follow first appearance in (subset, condition) order.
        self.cond_pairs: list[tuple[int, int]] = []
        self.cond_pair_id = np.full(len(space.fn_index), -1, dtype=np.int32)
        cond_positions = np.flatnonzero(space.cond_k >= 0)
        if len(cond_positions):
            cond_subset = space.subset_index[cond_positions]
            cond_slot = space.cond_k[cond_positions]
            cond_fragment = matrix[cond_subset, cond_slot]
            radix = int(cond_slot.max()) + 1
            ordered = matrix[
                np.divmod(
                    distinct_ids(cond_subset.astype(np.int64) * radix + cond_slot),
                    radix,
                )
            ]
            ids, first = _first_seen(
                fragment_col[ordered] * (int(fragment_code.max()) + 1)
                + fragment_code[ordered]
            )
            self.cond_pairs = [
                (int(fragment_col[f]), int(fragment_code[f]))
                for f in ordered[first].tolist()
            ]
            fragment_pair = np.full(len(fragments), -1, dtype=np.int32)
            fragment_pair[ordered] = ids
            self.cond_pair_id[cond_positions] = fragment_pair[cond_fragment]
        # Like ``subset_codes``, one row per condition pair: only the
        # condition's own column is restricted.
        self._cond_codes = np.zeros(
            (len(self.cond_pairs), len(self.pred_columns)), dtype=np.int32
        )
        for pair_id, (j, code) in enumerate(self.cond_pairs):
            self._cond_codes[pair_id, j] = code

    def cell_keys(
        self, subset_ids: np.ndarray, dims: tuple[ColumnRef, ...]
    ) -> list[tuple]:
        """Cube cell keys addressing the given subsets' predicate
        combinations (one per subset id, in order)."""
        return self._keys(self.subset_codes[subset_ids], dims)

    def cond_keys(self, dims: tuple[ColumnRef, ...]) -> list[tuple]:
        """Per condition pair, the cube cell key restricting only the
        condition's column."""
        return self._keys(self._cond_codes, dims)

    def _keys(self, codes: np.ndarray, dims: tuple[ColumnRef, ...]) -> list[tuple]:
        """One cell key over ``dims`` per row of literal codes (0 = ALL)."""
        if not dims:
            return [()] * len(codes)
        parts = []
        for dim in dims:
            j = self.col_pos.get(dim)
            parts.append(
                [ALL] * len(codes)
                if j is None
                else self._key_parts[j][codes[:, j]].tolist()
            )
        return list(zip(*parts))

    def add_literals(
        self,
        subset_ids: np.ndarray,
        literal_union: dict[ColumnRef, set[str]],
    ) -> None:
        """Union the literals of the given subsets into ``literal_union``."""
        codes = self.subset_codes[distinct_ids(subset_ids)]
        for j, column in enumerate(self.pred_columns):
            used = np.unique(codes[:, j])
            used = used[used > 0]
            if len(used):
                literal_union.setdefault(column, set()).update(
                    self._key_parts[j][used].tolist()
                )

    def column_sets_used(
        self, subset_ids: np.ndarray
    ) -> set[frozenset[ColumnRef]]:
        """Distinct predicate-column sets among the given subsets."""
        return {
            self.col_sets[i]
            for i in distinct_ids(self.col_set_id[subset_ids]).tolist()
        }


def _ids_by_code(codes: np.ndarray, make) -> tuple[np.ndarray, list]:
    """Per element of ``codes`` (small non-negative ints), the id of
    ``make(code)`` among the distinct objects made, numbered by first
    appearance over the distinct codes in ascending order; and the objects."""
    objects: list = []
    index: dict = {}
    distinct = distinct_ids(codes)
    lut = np.zeros(int(distinct[-1]) + 1 if len(distinct) else 0, dtype=np.int32)
    for code in distinct.tolist():
        made = make(code)
        made_id = index.get(made)
        if made_id is None:
            made_id = index[made] = len(objects)
            objects.append(made)
        lut[code] = made_id
    return lut[codes], objects


def _first_seen(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense ids for integer ``keys`` numbered by first appearance, and the
    position where each id first appears."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty(len(order), dtype=np.int32)
    rank[order] = np.arange(len(order), dtype=np.int32)
    return rank[inverse], first[order]


def _row_keys(present: np.ndarray) -> np.ndarray:
    """One int64 per row of a boolean matrix, equal exactly for equal rows.

    Rows are bit-packed a chunk of columns at a time; between chunks the
    keys are re-ranked to below the row count, so they cannot overflow
    however wide the matrix is (one chunk covers every realistic width).
    """
    step = 62 - len(present).bit_length()
    keys = np.zeros(len(present), dtype=np.int64)
    for start in range(0, present.shape[1], step):
        chunk = present[:, start : start + step]
        if start:
            keys = np.unique(keys, return_inverse=True)[1]
        keys = (keys << chunk.shape[1]) + chunk @ (
            np.int64(1) << np.arange(chunk.shape[1], dtype=np.int64)
        )
    return keys


@dataclass
class CandidateSpace:
    """Factorized candidate space for one claim.

    Candidates are triples into ``functions`` x ``columns`` x predicate
    subsets (``fn_index`` / ``col_index`` / ``subset_index``); conditional
    candidates additionally record which subset predicate is the condition
    (``cond_k``, -1 otherwise). A predicate subset is one row of
    ``subset_matrix``: ids into ``predicates``, padded with -1. The tuple
    list ``subsets`` and the ``queries`` materialize lazily — the
    evaluation hot path works on the index arrays alone.
    """

    claim: Claim
    functions: list[FunctionFragment]
    columns: list[ColumnFragment]
    #: predicate fragments the subsets draw from, best keyword score first
    predicates: list[PredicateFragment]
    #: (n_subsets x max_predicates) ids into ``predicates``, -1 = no predicate
    subset_matrix: np.ndarray
    #: log keyword probability per function / column / subset
    fn_keyword_log: np.ndarray
    col_keyword_log: np.ndarray
    subset_keyword_log: np.ndarray
    #: flattened candidates (index per factor; cond_k = condition choice)
    fn_index: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int32))
    col_index: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int32))
    subset_index: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int32))
    cond_k: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int32))
    #: lazily materialized predicate tuples (see :attr:`subsets`)
    _subsets: list[tuple[PredicateFragment, ...]] | None = field(
        default=None, repr=False, compare=False
    )
    #: lazily materialized query objects (see :attr:`queries`)
    _queries: list[SimpleAggregateQuery] | None = field(
        default=None, repr=False, compare=False
    )
    #: lazily built factor lookup tables (see :meth:`position_of`)
    _locator: tuple | None = field(default=None, repr=False, compare=False)
    #: lazily built integer encoding (see :meth:`encoding`)
    _encoding: SpaceEncoding | None = field(
        default=None, repr=False, compare=False
    )
    #: lazily built flat (subset, column) arrays for the prior term
    _prior_arrays: tuple | None = field(default=None, repr=False, compare=False)
    #: lazily built Θ slot arrays, cached per PriorLayout identity
    _prior_slots: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def subsets(self) -> list[tuple[PredicateFragment, ...]]:
        """Predicate subsets as fragment tuples, materialized on first
        access (query building and ``position_of`` only)."""
        if self._subsets is None:
            fragments = self.predicates
            self._subsets = [
                tuple(fragments[f] for f in row if f >= 0)
                for row in self.subset_matrix.tolist()
            ]
        return self._subsets

    def subset_at(self, subset_id: int) -> tuple[PredicateFragment, ...]:
        """One predicate subset, without materializing the others."""
        if self._subsets is not None:
            return self._subsets[subset_id]
        row = self.subset_matrix[subset_id].tolist()
        return tuple(self.predicates[f] for f in row if f >= 0)

    def prior_arrays(self) -> tuple:
        """Flat restriction structure for the Θ prior term (cached).

        Returns ``(columns, flat_subset, flat_column)``: one entry per
        (subset, predicate) pair, in subset-then-fragment order, where
        ``flat_column[p]`` indexes into ``columns``. Lets
        ``compute_distribution`` accumulate per-subset restriction
        log-odds with one ``np.add.at`` instead of nested Python sums.
        """
        if self._prior_arrays is None:
            matrix = self.subset_matrix
            flat_subset, slot = np.nonzero(matrix >= 0)
            fragment = matrix[flat_subset, slot]
            flat_column, first = _first_seen(
                _column_ids(self.predicates)[fragment]
            )
            self._prior_arrays = (
                [self.predicates[f].column for f in fragment[first].tolist()],
                flat_subset,
                flat_column.astype(np.intp),
            )
        return self._prior_arrays

    def prior_slots(self, layout) -> tuple:
        """Θ table slots of this space's factors (cached per layout).

        Returns ``(fn_slots, col_slots, odds_slots)``: per function
        fragment, per column fragment, and per restricted column of
        :meth:`prior_arrays`, the index into the corresponding
        :meth:`~repro.model.priors.Priors.log_tables` array. One document's
        M-step priors all share one layout, so the E-step pays these dict
        lookups once per space instead of once per fragment per iteration.
        """
        cached = self._prior_slots
        if cached is not None and cached[0] is layout:
            return cached[1], cached[2], cached[3]
        fn_fallback = len(layout.fn_slot)
        fn_slots = np.fromiter(
            (
                layout.fn_slot.get(fragment.function, fn_fallback)
                for fragment in self.functions
            ),
            dtype=np.intp,
            count=len(self.functions),
        )
        col_fallback = len(layout.col_slot)
        col_slots = np.fromiter(
            (
                layout.col_slot.get(fragment.column, col_fallback)
                for fragment in self.columns
            ),
            dtype=np.intp,
            count=len(self.columns),
        )
        columns, _, _ = self.prior_arrays()
        odds_fallback = len(layout.odds_slot)
        odds_slots = np.fromiter(
            (layout.odds_slot.get(column, odds_fallback) for column in columns),
            dtype=np.intp,
            count=len(columns),
        )
        self._prior_slots = (layout, fn_slots, col_slots, odds_slots)
        return fn_slots, col_slots, odds_slots

    def __len__(self) -> int:
        return len(self.fn_index)

    @property
    def queries(self) -> list[SimpleAggregateQuery]:
        """All candidate queries, materialized on first access.

        The evaluation path never touches this: it answers the factorized
        space directly (``QueryEngine.evaluate_space``). Only top-k /
        verdict / reporting / interactive consumers pay for real objects.
        """
        if self._queries is None:
            self.subsets  # materialize once, not per candidate
            fn_list = self.fn_index.tolist()
            col_list = self.col_index.tolist()
            subset_list = self.subset_index.tolist()
            cond_list = self.cond_k.tolist()
            self._queries = [
                _build_query(self, fi, ci, si, k)
                for fi, ci, si, k in zip(fn_list, col_list, subset_list, cond_list)
            ]
        return self._queries

    def query_at(self, position: int) -> SimpleAggregateQuery:
        """Materialize the single candidate at ``position``."""
        if self._queries is not None:
            return self._queries[position]
        return _build_query(
            self,
            int(self.fn_index[position]),
            int(self.col_index[position]),
            int(self.subset_index[position]),
            int(self.cond_k[position]),
        )

    def encoding(self) -> SpaceEncoding:
        """The integer encoding driving cell-gather evaluation (cached)."""
        if self._encoding is None:
            self._encoding = SpaceEncoding(self)
        return self._encoding

    def position_of(self, query: SimpleAggregateQuery) -> int | None:
        """Position of ``query`` in the space (None if absent).

        Locates the query through factor lookup tables, so a membership
        probe (e.g. ``rank_of`` on the ground-truth query) does not
        materialize the space's queries.
        """
        if self._locator is None:
            fn_pos: dict[AggregateFunction, int] = {}
            for index, fragment in enumerate(self.functions):
                fn_pos.setdefault(fragment.function, index)
            col_pos: dict[ColumnRef, int] = {}
            for index, fragment in enumerate(self.columns):
                col_pos.setdefault(fragment.column, index)
            subset_pos: dict[frozenset, int] = {}
            for index, subset in enumerate(self.subsets):
                subset_pos.setdefault(
                    frozenset(fragment.predicate for fragment in subset), index
                )
            self._locator = (fn_pos, col_pos, subset_pos)
        fn_pos, col_pos, subset_pos = self._locator
        fi = fn_pos.get(query.aggregate.function)
        ci = col_pos.get(query.aggregate.column)
        si = subset_pos.get(frozenset(query.all_predicates))
        if fi is None or ci is None or si is None:
            return None
        mask = (
            (self.fn_index == fi)
            & (self.col_index == ci)
            & (self.subset_index == si)
        )
        for position in np.flatnonzero(mask).tolist():
            k = int(self.cond_k[position])
            if query.condition is None:
                if k < 0:
                    return position
            elif k >= 0 and self.subsets[si][k].predicate == query.condition:
                return position
        return None


def _build_query(
    space: CandidateSpace, fi: int, ci: int, si: int, k: int
) -> SimpleAggregateQuery:
    spec = AggregateSpec(space.functions[fi].function, space.columns[ci].column)
    predicates = tuple(fragment.predicate for fragment in space.subset_at(si))
    if k >= 0:
        condition = predicates[k]
        event = predicates[:k] + predicates[k + 1 :]
        return SimpleAggregateQuery(spec, event, condition)
    return SimpleAggregateQuery(spec, predicates)


def build_candidates(
    claim: Claim,
    scores: RelevanceScores,
    config: CandidateConfig | None = None,
) -> CandidateSpace:
    """Construct the candidate space for one claim from its relevance
    scores."""
    config = config or CandidateConfig()

    functions = list(scores.functions)
    columns = list(scores.columns)
    # Score values ride along as dict-order-aligned arrays (shared with
    # the batched matcher's catalog-aligned output).
    fn_values, col_values, _ = scores.value_arrays()
    fn_keyword_log = _normalized_log_scores(fn_values)
    col_keyword_log = _normalized_log_scores(col_values)

    predicates, subset_matrix, subset_keyword_log = _predicate_subsets(
        scores, config
    )

    space = CandidateSpace(
        claim=claim,
        functions=functions,
        columns=columns,
        predicates=predicates,
        subset_matrix=subset_matrix,
        fn_keyword_log=fn_keyword_log,
        col_keyword_log=col_keyword_log,
        subset_keyword_log=subset_keyword_log,
    )
    _index_candidates(space, config)
    return space


def _normalized_log_scores(raw: list[float]) -> np.ndarray:
    """Scores -> log probabilities with a floor share for weak entries
    (paper: Pr(S|Q) proportional to the fragment's relevance score)."""
    if not raw:
        return np.zeros(0)
    array = np.asarray(raw, dtype=float)
    array = np.maximum(array, 0.0)
    peak = array.max()
    floor = peak * SCORE_FLOOR_SHARE if peak > 0 else 1.0
    array = array + floor
    return np.log(array / array.sum())


def _column_ids(fragments: list[PredicateFragment]) -> np.ndarray:
    """A small int per fragment, equal exactly for equal columns."""
    ids: dict[ColumnRef, int] = {}
    return np.fromiter(
        (ids.setdefault(fragment.column, len(ids)) for fragment in fragments),
        dtype=np.intp,
        count=len(fragments),
    )


def _index_combinations(n: int, size: int) -> np.ndarray:
    """``combinations(range(n), size)`` as an (n_combinations x size) array."""
    if size == 2:
        return np.column_stack(np.triu_indices(n, 1))
    return np.fromiter(
        chain.from_iterable(combinations(range(n), size)), dtype=np.intp
    ).reshape(-1, size)


def _predicate_subsets(
    scores: RelevanceScores, config: CandidateConfig
) -> tuple[list[PredicateFragment], np.ndarray, np.ndarray]:
    """Predicate fragments (best first), the subset matrix over them, and
    the log keyword probability of each subset."""
    fragments = sorted(
        scores.predicates, key=lambda f: -scores.predicates[f]
    )
    total = sum(scores.predicates.values()) or 1.0
    log_share = np.array(
        [
            math.log(max(scores.predicates[fragment], 1e-12) / total)
            for fragment in fragments
        ],
        dtype=float,
    )
    column_id = _column_ids(fragments)
    width = config.max_predicates
    blocks = [np.full((1, width), -1, dtype=np.int32)]  # the empty subset
    block_logs = [np.zeros(1)]
    for size in range(1, width + 1):
        combos = _index_combinations(len(fragments), size)
        if size > 1:  # one restriction per column
            columns = np.sort(column_id[combos], axis=1)
            combos = combos[(columns[:, 1:] != columns[:, :-1]).all(axis=1)]
        block = np.full((len(combos), width), -1, dtype=np.int32)
        block[:, :size] = combos
        blocks.append(block)
        # Left-to-right over the slots: the float order of sum().
        logs = log_share[combos[:, 0]]
        for slot in range(1, size):
            logs = logs + log_share[combos[:, slot]]
        block_logs.append(logs)
    matrix = np.concatenate(blocks)
    subset_logs = np.concatenate(block_logs)
    if len(matrix) > config.max_subsets:
        # Keep the empty set plus the highest-scoring subsets.
        order = np.argsort(-subset_logs[1:], kind="stable")[
            : config.max_subsets - 1
        ]
        keep = np.concatenate(([0], np.sort(order + 1)))
        matrix = matrix[keep]
        subset_logs = subset_logs[keep]
    return fragments, matrix, subset_logs


def _index_candidates(space: CandidateSpace, config: CandidateConfig) -> None:
    """Enumerate candidates as index arrays — no query objects.

    Preserves the historical enumeration order exactly: functions outer,
    columns next, subsets inner; conditional candidates expand each subset
    of size >= 2 once per condition choice.
    """
    n_subsets = len(space.subset_matrix)
    all_subsets = np.arange(n_subsets, dtype=np.int32)
    no_condition = np.full(n_subsets, -1, dtype=np.int32)
    # Conditional expansion template: (subset, condition position) pairs in
    # subset order, reused for every valid (function, column) pair.
    filled = space.subset_matrix >= 0
    cond_subsets, cond_choices = np.nonzero(filled)
    expands = filled.sum(axis=1)[cond_subsets] >= 2
    cond_subsets = cond_subsets[expands].astype(np.int32)
    cond_choices = cond_choices[expands].astype(np.int32)

    fn_idx: list[int] = []
    col_idx: list[int] = []
    counts: list[int] = []
    subset_blocks: list[np.ndarray] = []
    cond_blocks: list[np.ndarray] = []
    for fi, fn_fragment in enumerate(space.functions):
        function = fn_fragment.function
        is_conditional = (
            function is AggregateFunction.CONDITIONAL_PROBABILITY
        )
        if is_conditional and not config.include_conditional_probability:
            continue
        for ci, col_fragment in enumerate(space.columns):
            if not _valid_pair(function, col_fragment):
                continue
            fn_idx.append(fi)
            col_idx.append(ci)
            subset_blocks.append(cond_subsets if is_conditional else all_subsets)
            cond_blocks.append(cond_choices if is_conditional else no_condition)
            counts.append(len(subset_blocks[-1]))
    space.fn_index = np.repeat(np.asarray(fn_idx, dtype=np.int32), counts)
    space.col_index = np.repeat(np.asarray(col_idx, dtype=np.int32), counts)
    empty = [np.zeros(0, dtype=np.int32)]
    space.subset_index = np.concatenate(subset_blocks or empty)
    space.cond_k = np.concatenate(cond_blocks or empty)


def _valid_pair(function: AggregateFunction, column: ColumnFragment) -> bool:
    if column.is_star:
        # Only the count family and ratio functions work on '*'.
        return function in (
            AggregateFunction.COUNT,
            AggregateFunction.PERCENTAGE,
            AggregateFunction.CONDITIONAL_PROBABILITY,
        )
    if function is AggregateFunction.COUNT_DISTINCT:
        return True
    if function.needs_numeric_column:
        return True  # catalog only offers numeric aggregation columns
    # Count / Percentage / CondProb on a real column are valid SQL.
    return True
