"""The array construction of a candidate space against tuple-walking references.

``_predicate_subsets`` builds an integer subset matrix and
``SpaceEncoding`` derives everything from per-fragment arrays by
scatter/gather. The references here are the straightforward versions —
``itertools.combinations`` over fragment tuples, one Python walk per
(subset, predicate) pair — and every array must equal theirs bit for bit,
including with three predicates per subset and on the ``max_subsets``
truncation path.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.aggregates import AggregateFunction
from repro.db.query import AggregateSpec
from repro.fragments import extract_fragments
from repro.fragments.indexer import RelevanceScores
from repro.model import build_candidates
from repro.model.candidates import CandidateConfig

from tests.db.strategies import joined_databases, small_databases
from tests.model.test_space_eval import make_claim, random_scores


def reference_subsets(scores, config):
    """Predicate subsets as fragment tuples, with their log scores."""
    fragments = sorted(scores.predicates, key=lambda f: -scores.predicates[f])
    total = sum(scores.predicates.values()) or 1.0
    log_share = {
        fragment: math.log(max(scores.predicates[fragment], 1e-12) / total)
        for fragment in fragments
    }
    subsets = [()]
    subset_logs = [0.0]
    for size in range(1, config.max_predicates + 1):
        for combo in combinations(fragments, size):
            if len({fragment.column for fragment in combo}) != size:
                continue
            subsets.append(combo)
            subset_logs.append(sum(log_share[f] for f in combo))
    if len(subsets) > config.max_subsets:
        order = sorted(range(1, len(subsets)), key=lambda i: -subset_logs[i])
        keep = [0] + sorted(order[: config.max_subsets - 1])
        subsets = [subsets[i] for i in keep]
        subset_logs = [subset_logs[i] for i in keep]
    return subsets, np.asarray(subset_logs)


def reference_encoding(space, subsets):
    """The encoding's arrays from one walk per (subset, predicate) pair."""
    pred_columns = sorted({f.column for subset in subsets for f in subset})
    col_pos = {column: j for j, column in enumerate(pred_columns)}
    literals = [
        sorted(
            {
                f.predicate.normalized_value
                for subset in subsets
                for f in subset
                if f.column == column
            }
        )
        for column in pred_columns
    ]
    code_of = [
        {literal: code + 1 for code, literal in enumerate(column_literals)}
        for column_literals in literals
    ]
    subset_codes = np.zeros((len(subsets), len(pred_columns)), dtype=np.int32)
    for si, subset in enumerate(subsets):
        for f in subset:
            j = col_pos[f.column]
            subset_codes[si, j] = code_of[j][f.predicate.normalized_value]

    table_sets, tables_id = [], []
    basis_specs, basis_spec_id = [], []
    cond_pairs, cond_pair_id = [], []
    # Ids are handed out while walking the distinct (column tables, subset
    # tables) / (function, column) / (subset, condition) combinations in
    # sorted order.
    subset_tables = [
        frozenset(f.column.table for f in subset if f.column.table)
        for subset in subsets
    ]
    column_tables = [
        frozenset({c.column.table}) if c.column.table else frozenset()
        for c in space.columns
    ]
    subset_variants = list(dict.fromkeys(subset_tables))
    column_variants = list(dict.fromkeys(column_tables))
    by_pair = {}
    for ctid, stid in sorted(
        {
            (
                column_variants.index(column_tables[ci]),
                subset_variants.index(subset_tables[si]),
            )
            for ci, si in zip(space.col_index.tolist(), space.subset_index.tolist())
        }
    ):
        tables = column_variants[ctid] | subset_variants[stid]
        if tables not in table_sets:
            table_sets.append(tables)
        by_pair[ctid, stid] = table_sets.index(tables)
    by_fc = {}
    for fi, ci in sorted(set(zip(space.fn_index.tolist(), space.col_index.tolist()))):
        function = space.functions[fi].function
        column = space.columns[ci].column
        basis = AggregateSpec(
            AggregateFunction.COUNT if function.is_ratio else function, column
        )
        if basis not in basis_specs:
            basis_specs.append(basis)
        by_fc[fi, ci] = basis_specs.index(basis)
    by_cond = {}
    for si, k in sorted(
        {
            (si, k)
            for si, k in zip(space.subset_index.tolist(), space.cond_k.tolist())
            if k >= 0
        }
    ):
        predicate = subsets[si][k].predicate
        j = col_pos[predicate.column]
        pair = (j, code_of[j][predicate.normalized_value])
        if pair not in cond_pairs:
            cond_pairs.append(pair)
        by_cond[si, k] = cond_pairs.index(pair)
    for fi, ci, si, k in zip(
        space.fn_index.tolist(),
        space.col_index.tolist(),
        space.subset_index.tolist(),
        space.cond_k.tolist(),
    ):
        tables_id.append(
            by_pair[
                column_variants.index(column_tables[ci]),
                subset_variants.index(subset_tables[si]),
            ]
        )
        basis_spec_id.append(by_fc[fi, ci])
        cond_pair_id.append(by_cond[si, k] if k >= 0 else -1)
    return {
        "pred_columns": pred_columns,
        "literals": literals,
        "subset_codes": subset_codes,
        "col_sets": [frozenset(f.column for f in subset) for subset in subsets],
        "table_sets": table_sets,
        "tables_id": np.asarray(tables_id, dtype=np.int32),
        "basis_specs": basis_specs,
        "basis_spec_id": np.asarray(basis_spec_id, dtype=np.int32),
        "cond_pairs": cond_pairs,
        "cond_pair_id": np.asarray(cond_pair_id, dtype=np.int32),
    }


def reference_prior_arrays(subsets):
    columns, flat_subset, flat_column = [], [], []
    for si, subset in enumerate(subsets):
        for f in subset:
            if f.column not in columns:
                columns.append(f.column)
            flat_subset.append(si)
            flat_column.append(columns.index(f.column))
    return columns, flat_subset, flat_column


def same_array(actual, expected):
    return actual.dtype == expected.dtype and np.array_equal(actual, expected)


@settings(max_examples=60, deadline=None)
@given(
    database=small_databases() | joined_databases(),
    max_predicates=st.integers(min_value=0, max_value=3),
    max_subsets=st.sampled_from([1, 2, 7, 25, 600]),
    data=st.data(),
)
def test_matrix_construction_matches_tuple_reference(
    database, max_predicates, max_subsets, data
):
    catalog = extract_fragments(database)
    scores = data.draw(random_scores(catalog))
    config = CandidateConfig(
        max_predicates=max_predicates, max_subsets=max_subsets
    )
    space = build_candidates(make_claim(4), scores, config)
    subsets, subset_logs = reference_subsets(scores, config)

    assert space.subsets == subsets
    assert same_array(space.subset_keyword_log, subset_logs)
    assert [space.subset_at(si) for si in range(len(subsets))] == subsets

    encoding = space.encoding()
    expected = reference_encoding(space, subsets)
    for name in ("pred_columns", "literals", "table_sets", "basis_specs", "cond_pairs"):
        assert getattr(encoding, name) == expected[name], name
    for name in ("subset_codes", "tables_id", "basis_spec_id", "cond_pair_id"):
        assert same_array(getattr(encoding, name), expected[name]), name
    assert [
        encoding.col_sets[i] for i in encoding.col_set_id.tolist()
    ] == expected["col_sets"]
    # Column-set ids follow first appearance, like every other id here.
    assert list(dict.fromkeys(encoding.col_set_id.tolist())) == list(
        range(len(encoding.col_sets))
    )

    columns, flat_subset, flat_column = space.prior_arrays()
    ref_columns, ref_subset, ref_column = reference_prior_arrays(subsets)
    assert columns == ref_columns
    assert flat_subset.tolist() == ref_subset
    assert flat_column.tolist() == ref_column


def test_truncation_and_three_predicates_are_exercised(nfl_db):
    """The property above is only as good as its inputs: on the NFL table
    the same comparison provably hits size-3 subsets and the cut."""
    catalog = extract_fragments(nfl_db)
    per_column: dict = {}
    for fragment in catalog.predicates:
        per_column.setdefault(fragment.column, []).append(fragment)
    chosen = [f for fragments in per_column.values() for f in fragments[:3]]
    predicates = {fragment: 1.0 + i % 5 for i, fragment in enumerate(chosen)}

    scores = RelevanceScores(
        {fragment: 1.0 for fragment in catalog.functions},
        {fragment: 1.0 for fragment in catalog.columns[:2]},
        predicates,
    )
    config = CandidateConfig(max_predicates=3, max_subsets=90)
    untruncated, _ = reference_subsets(
        scores, CandidateConfig(max_predicates=3, max_subsets=10 ** 9)
    )
    assert len(untruncated) > 90 and max(map(len, untruncated)) == 3
    space = build_candidates(make_claim(4), scores, config)
    subsets, subset_logs = reference_subsets(scores, config)
    assert len(subsets) == 90 and space.subsets == subsets
    assert same_array(space.subset_keyword_log, subset_logs)
    expected = reference_encoding(space, subsets)
    encoding = space.encoding()
    for name in ("subset_codes", "tables_id", "basis_spec_id", "cond_pair_id"):
        assert same_array(getattr(encoding, name), expected[name]), name


@settings(max_examples=50, deadline=None)
@given(
    width=st.sampled_from([0, 1, 40, 130]),
    rows=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=40),
    seed=st.integers(min_value=0, max_value=2 ** 16),
)
def test_row_keys_identify_rows_at_any_width(width, rows, seed):
    """Wider than one bit-packed chunk included: equal keys, equal rows."""
    from repro.model.candidates import _row_keys

    patterns = np.random.default_rng(seed).random((6, width)) < 0.5
    present = patterns[rows]
    keys = _row_keys(present).tolist()
    for a in range(len(rows)):
        for b in range(a):
            assert (keys[a] == keys[b]) == bool((present[a] == present[b]).all())
