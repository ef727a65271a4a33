"""Tests for the persistent cube cache: fingerprints, the disk tier, and
CSV-edit invalidation."""

from __future__ import annotations

import json
import marshal
import os
import pickle
import subprocess
import sys
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import (
    Column,
    ColumnType,
    Database,
    EngineConfig,
    EngineStats,
    ForeignKey,
    QueryEngine,
    Table,
    database_fingerprint,
    diskcache,
    fingerprint_of,
    load_csv,
    parse_query,
)
from repro.db.cube import ALL
from tests.db.oracle import ORACLE
from tests.db.strategies import nullheavy_databases, shadow_cells

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Cells that some looser rule (``==``, ``str``, truthiness, hashing)
#: would merge; the fingerprint must keep every one apart.
SEPARATED_CELLS = [1, 1.0, True, "1", 0.0, -0.0, None, "", 10**400, "x\ud800"]


def small_db(rows=None) -> Database:
    table = Table(
        "events",
        [Column("kind"), Column("score", ColumnType.NUMERIC)],
        rows
        if rows is not None
        else [("a", 1), ("a", 2), ("b", 3), (None, 4)],
    )
    return Database("d", [table])


class TestFingerprint:
    def test_deterministic(self):
        assert database_fingerprint(small_db()) == database_fingerprint(
            small_db()
        )

    def test_cell_edit_changes_fingerprint(self):
        edited = small_db([("a", 1), ("a", 2), ("b", 3), (None, 5)])
        assert database_fingerprint(small_db()) != database_fingerprint(edited)

    def test_added_row_changes_fingerprint(self):
        grown = small_db([("a", 1), ("a", 2), ("b", 3), (None, 4), ("c", 9)])
        assert database_fingerprint(small_db()) != database_fingerprint(grown)

    def test_value_type_distinguished(self):
        as_string = small_db([("a", "1"), ("a", 2), ("b", 3), (None, 4)])
        assert database_fingerprint(small_db()) != database_fingerprint(
            as_string
        )

    def test_column_type_changes_fingerprint(self):
        table = Table(
            "events",
            [Column("kind"), Column("score")],
            [("a", 1), ("a", 2), ("b", 3), (None, 4)],
        )
        assert database_fingerprint(small_db()) != database_fingerprint(
            Database("d", [table])
        )

    def test_foreign_keys_included(self, star_db):
        bare = Database("sports", star_db.tables)
        assert database_fingerprint(star_db) != database_fingerprint(bare)

    def test_none_vs_empty_string_distinguished(self):
        with_none = small_db([(None, 1)])
        with_empty = small_db([("", 1)])
        assert database_fingerprint(with_none) != database_fingerprint(
            with_empty
        )

    def test_row_order_changes_fingerprint(self):
        swapped = small_db([("a", 2), ("a", 1), ("b", 3), (None, 4)])
        assert database_fingerprint(small_db()) != database_fingerprint(
            swapped
        )

    def test_column_name_changes_fingerprint(self):
        table = small_db().tables[0]
        renamed = Table(
            "events",
            [Column("sort"), Column("score", ColumnType.NUMERIC)],
            table.rows,
        )
        assert database_fingerprint(small_db()) != database_fingerprint(
            Database("d", [renamed])
        )

    def test_table_name_changes_fingerprint(self):
        table = small_db().tables[0]
        renamed = Table("incidents", table.columns, table.rows)
        assert database_fingerprint(small_db()) != database_fingerprint(
            Database("d", [renamed])
        )

    def test_foreign_key_edge_changes_fingerprint(self, star_db):
        other_edge = Database(
            "sports",
            star_db.tables,
            [ForeignKey("players", "position", "teams", "team_id")],
        )
        assert database_fingerprint(star_db) != database_fingerprint(
            other_edge
        )


def _fresh(cell):
    """An equal cell built as a new object: a new string, a new number."""
    if isinstance(cell, str):
        return "".join(list(cell))
    if cell is None or isinstance(cell, bool):
        return cell
    return type(cell)(repr(cell))


def _interned(cell):
    return sys.intern(_fresh(cell)) if isinstance(cell, str) else _fresh(cell)


def _rebuilt(database: Database, make_cell) -> Database:
    """The same content with every cell passed through ``make_cell``."""
    tables = [
        Table(
            table.name,
            table.columns,
            [tuple(map(make_cell, row)) for row in table.rows],
            table.primary_key,
        )
        for table in database.tables
    ]
    return Database(database.name, tables, database.foreign_keys)


@st.composite
def shadow_databases(draw) -> Database:
    row = st.tuples(shadow_cells(), shadow_cells())
    rows = draw(st.lists(row, max_size=12))
    table = Table(
        "cells", [Column("a"), Column("b", ColumnType.NUMERIC)], rows
    )
    return Database("shadow", [table])


class TestFingerprintContract:
    """Equal content, equal digest; any typed difference, another digest."""

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(nullheavy_databases(), shadow_databases()))
    def test_object_identity_never_matters(self, database):
        # Strategies hand out shared string and number objects; the
        # rebuilt copies hold a fresh object per cell (or interned ones).
        # Any encoding that writes back-references, or marks interned
        # strings, tells the two apart.
        expected = database_fingerprint(database)
        for make_cell in (_fresh, _interned):
            rebuilt = _rebuilt(database, make_cell)
            assert database_fingerprint(rebuilt) == expected

    @settings(max_examples=40, deadline=None)
    @given(nullheavy_databases(), st.data())
    def test_every_cell_type_and_value_separates(self, database, data):
        table = database.tables[0]
        rows = list(table.rows) or [(None, None, None)]
        at = data.draw(st.integers(0, len(rows) - 1))
        column = data.draw(st.integers(0, len(table.columns) - 1))
        digests = set()
        for cell in SEPARATED_CELLS:
            row = list(rows[at])
            row[column] = cell
            edited = Table(
                table.name, table.columns,
                rows[:at] + [tuple(row)] + rows[at + 1:],
            )
            digests.add(database_fingerprint(Database("d", [edited])))
        assert len(digests) == len(SEPARATED_CELLS)


class _Text(str):
    """A ``str`` subclass: marshal refuses it."""


class TestUnmarshallableFallback:
    @pytest.mark.parametrize("odd", [_Text("a"), Decimal("2.5")])
    def test_fallback_is_deterministic_and_typed(self, odd):
        with pytest.raises(ValueError):
            marshal.dumps([odd], 2)
        rows = [("b", 1), (odd, 2)]
        digest = database_fingerprint(small_db(rows))
        assert database_fingerprint(small_db(rows)) == digest
        same = type(odd)(str(odd))
        assert same is not odd
        assert database_fingerprint(small_db([("b", 1), (same, 2)])) == digest
        plain = small_db([("b", 1), (str(odd), 2)])
        assert database_fingerprint(plain) != digest

    def test_encodings_are_tagged(self):
        assert diskcache._rows_token([("b", 1)]).startswith("M")
        assert diskcache._rows_token([(_Text("b"), 1)]).startswith("P")


class TestAcrossProcesses:
    def test_digest_is_independent_of_process_and_hash_seed(self, tmp_path):
        csv_path = tmp_path / "numbers.csv"
        csv_path.write_text(
            "kind,value\nneg,-0.0\npos,0.0\nnull,\n"
            "big,10000000000000000000000\nhuge,1e308\n"
        )
        here = database_fingerprint(Database("d", [load_csv(csv_path)]))
        script = (
            "import sys\n"
            "from repro.db import Database, database_fingerprint, load_csv\n"
            "database = Database('d', [load_csv(sys.argv[1])])\n"
            "print(database_fingerprint(database))"
        )
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = str(REPO_ROOT / "src")
            there = subprocess.run(
                [sys.executable, "-c", script, str(csv_path)],
                env=env, capture_output=True, text=True, check=True,
                timeout=60,
            )
            assert there.stdout.strip() == here


#: Pickles each hashed query-key class in one process and checks the
#: loaded objects against fresh ones in another (argv[1]: dump | load).
PICKLE_SCRIPT = """
import pickle, sys
from repro.db import (
    STAR, AggregateFunction, AggregateSpec, ColumnRef, Predicate,
    SimpleAggregateQuery,
)
column = ColumnRef("t", "x")
built = [
    column,
    AggregateSpec(AggregateFunction.SUM, column),
    SimpleAggregateQuery(
        AggregateSpec(AggregateFunction.COUNT, STAR), (Predicate(column, "a"),)
    ),
]
if sys.argv[1] == "dump":
    sys.stdout.write(pickle.dumps(built).hex())
else:
    loaded = pickle.loads(bytes.fromhex(sys.stdin.read()))
    for fresh, back in zip(built, loaded, strict=True):
        assert back == fresh, (back, fresh)
        assert hash(back) == hash(fresh), back
        assert {back: 1}.get(fresh) == 1, back
    print("ok")
"""

#: Verifies the first three corpus cases over the cube cache in argv[1]
#: and prints the engine's cube work and every verdict.
CORPUS_SCRIPT = """
import json, sys
from repro.core.config import AggCheckerConfig
from repro.corpus import generate_corpus
from repro.db import EngineConfig
from repro.harness import run_corpus
from repro.service.protocol import verdict_payload
config = AggCheckerConfig(engine=EngineConfig(cache_dir=sys.argv[1]))
run = run_corpus(generate_corpus(), config, limit=3)
print(json.dumps({
    "cube_queries": run.engine_stats.cube_queries,
    "disk_hit_rate": run.engine_stats.disk_hit_rate(),
    "verdicts": [
        verdict_payload(verdict)
        for result in run.results
        for verdict in result.report.verdicts
    ],
}))
"""


def run_seeded(script: str, seed: str, *args: str, stdin: str = "") -> str:
    """Run ``script`` in a fresh interpreter under ``PYTHONHASHSEED=seed``."""
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, input=stdin, capture_output=True, text=True, check=True,
        timeout=120,
    ).stdout


class TestHashSeeds:
    """String hashes are salted per process: whatever crosses a process
    boundary must not carry one."""

    def test_query_keys_unpickle_under_another_seed(self):
        dumped = run_seeded(PICKLE_SCRIPT, "1", "dump")
        assert run_seeded(PICKLE_SCRIPT, "2", "load", stdin=dumped) == "ok\n"

    def test_disk_tier_serves_a_second_process(self, tmp_path):
        cold = json.loads(run_seeded(CORPUS_SCRIPT, "1", str(tmp_path)))
        warm = json.loads(run_seeded(CORPUS_SCRIPT, "2", str(tmp_path)))
        assert cold["cube_queries"] > 0
        assert warm["cube_queries"] == 0
        assert warm["disk_hit_rate"] == 1.0
        assert warm["verdicts"] == cold["verdicts"]


class TestColdStaysCold:
    def test_fresh_database_over_same_tables_reads_rows_again(
        self, monkeypatch
    ):
        # What a re-run in a new process sees, and what the e2e
        # benchmark's passes rely on: only the Database object is
        # memoised, never anything on the Table, its rows or columns.
        chunk = diskcache._MARSHAL_CHUNK_ROWS
        table = Table(
            "events",
            [Column("kind"), Column("score", ColumnType.NUMERIC)],
            [(f"k{i % 7}", i) for i in range(2 * chunk + 5)],
        )
        db = Database("d", [table])
        attributes = dict(vars(table))
        dumped: list[int] = []
        real_dumps = marshal.dumps

        def spy(value, version):
            dumped.append(len(value))
            return real_dumps(value, version)

        monkeypatch.setattr(marshal, "dumps", spy)
        digest = fingerprint_of(db)
        assert dumped == [chunk, chunk, 5]
        assert fingerprint_of(db) == digest
        assert len(dumped) == 3
        again = Database(db.name, db.tables, db.foreign_keys)
        assert fingerprint_of(again) == digest
        assert dumped == [chunk, chunk, 5] * 2
        assert vars(table) == attributes


class TestAllMarkerPickle:
    def test_singleton_survives_round_trip(self):
        key = ("a", ALL, "b")
        restored = pickle.loads(pickle.dumps(key))
        assert restored[1] is ALL
        assert restored == key


def count_by_kind(db):
    return parse_query("SELECT Count(*) FROM events WHERE kind = 'a'", db)


class TestDiskTier:
    def test_second_engine_serves_from_disk(self, tmp_path):
        db = small_db()
        cold = QueryEngine(db, EngineConfig(cache_dir=tmp_path))
        cold_results = cold.evaluate([count_by_kind(db)])
        assert cold.stats.cube_queries == 1
        assert cold.stats.disk_misses == 1
        assert cold.stats.disk_hits == 0

        warm = QueryEngine(db, EngineConfig(cache_dir=tmp_path))
        warm_results = warm.evaluate([count_by_kind(db)])
        assert warm_results == cold_results
        assert warm.stats.cube_queries == 0
        assert warm.stats.disk_hits == 1
        assert warm.stats.disk_misses == 0

    def test_uncovered_literal_is_miss_then_merges(self, tmp_path):
        db = small_db()
        first = QueryEngine(db, EngineConfig(cache_dir=tmp_path))
        first.evaluate([count_by_kind(db)])

        other = parse_query(
            "SELECT Count(*) FROM events WHERE kind = 'b'", db
        )
        second = QueryEngine(db, EngineConfig(cache_dir=tmp_path))
        results = second.evaluate([other])
        assert results[other] == 1
        assert second.stats.disk_misses == 1
        assert second.stats.cube_queries == 1

        # The store merged coverage: a third engine answers both literals
        # from disk.
        third = QueryEngine(db, EngineConfig(cache_dir=tmp_path))
        both = third.evaluate([count_by_kind(db), other])
        assert both[other] == 1
        assert third.stats.cube_queries == 0
        assert third.stats.disk_hits >= 1

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        db = small_db()
        QueryEngine(db, EngineConfig(cache_dir=tmp_path)).evaluate(
            [count_by_kind(db)]
        )
        for path in tmp_path.glob("*.cube"):
            path.write_bytes(b"not a pickle")
        engine = QueryEngine(db, EngineConfig(cache_dir=tmp_path))
        results = engine.evaluate([count_by_kind(db)])
        assert results[count_by_kind(db)] == 2
        assert engine.stats.disk_hits == 0
        assert engine.stats.cube_queries == 1

    @pytest.mark.faults
    def test_corrupt_entry_is_quarantined_and_counted(self, tmp_path):
        db = small_db()
        QueryEngine(db, EngineConfig(cache_dir=tmp_path)).evaluate(
            [count_by_kind(db)]
        )
        cube_names = {path.name for path in tmp_path.glob("*.cube")}
        assert cube_names
        for path in tmp_path.glob("*.cube"):
            path.write_bytes(b"not a pickle")

        engine = QueryEngine(db, EngineConfig(cache_dir=tmp_path))
        cache = engine.disk_cache
        results = engine.evaluate([count_by_kind(db)])
        assert results[count_by_kind(db)] == 2
        # The bad file was moved aside (kept for post-mortem, never
        # re-read), the corruption counted in both stats surfaces, and
        # the recomputation re-stored a fresh readable entry.
        assert cache.stats.corrupt == 1
        assert cache.stats.errors == 1
        assert engine.stats.disk_corrupt == 1
        quarantined = {path.name for path in tmp_path.glob("*.cube.corrupt")}
        assert quarantined == {name + ".corrupt" for name in cube_names}
        assert {path.name for path in tmp_path.glob("*.cube")} == cube_names

        fresh = QueryEngine(db, EngineConfig(cache_dir=tmp_path))
        fresh.evaluate([count_by_kind(db)])
        assert fresh.stats.disk_hits == 1
        assert fresh.stats.disk_corrupt == 0

    @pytest.mark.faults
    def test_injected_read_corruption(self, tmp_path):
        # Same contract, driven through the fault injector instead of
        # hand-written bytes: the 'corrupt' action scribbles on the cell
        # file just before the production read path deserializes it.
        from repro.faults import FaultSpec, active

        db = small_db()
        QueryEngine(db, EngineConfig(cache_dir=tmp_path)).evaluate(
            [count_by_kind(db)]
        )
        engine = QueryEngine(db, EngineConfig(cache_dir=tmp_path))
        cache = engine.disk_cache
        with active(FaultSpec("diskcache.read", "corrupt", match="*.cube")):
            results = engine.evaluate([count_by_kind(db)])
        assert results[count_by_kind(db)] == 2
        assert cache.stats.corrupt == 1
        assert engine.stats.disk_corrupt == 1
        assert engine.stats.cube_queries == 1
        assert list(tmp_path.glob("*.cube.corrupt"))

    def test_backends_never_exchange_cells(self, tmp_path):
        db = small_db()
        columnar = QueryEngine(
            db, EngineConfig(backend="columnar", cache_dir=tmp_path)
        )
        columnar.evaluate([count_by_kind(db)])
        # The SQL cube spells some values differently (integer extremes);
        # it must not read the columnar engine's cells.
        sql = QueryEngine(
            db, EngineConfig(backend="sqlite", cache_dir=tmp_path)
        )
        sql.evaluate([count_by_kind(db)])
        assert sql.stats.disk_hits == 0
        assert sql.stats.cube_queries == 1
        sql.close()

    def test_naive_mode_ignores_disk_cache(self, tmp_path):
        db = small_db()
        engine = QueryEngine(db, replace(ORACLE, cache_dir=tmp_path))
        engine.evaluate([count_by_kind(db)])
        assert engine.stats.disk_hits == engine.stats.disk_misses == 0

    def test_clear_removes_entries(self, tmp_path):
        db = small_db()
        engine = QueryEngine(db, EngineConfig(cache_dir=tmp_path))
        engine.evaluate([count_by_kind(db)])
        assert list(tmp_path.glob("*.cube"))
        engine.disk_cache.clear()
        assert not list(tmp_path.glob("*.cube"))


class TestCsvInvalidation:
    CSV = "kind,score\na,1\na,2\nb,3\n"

    def _database(self, csv_path):
        return Database("d", [load_csv(csv_path, "events")])

    def test_edited_csv_forces_reexecution(self, tmp_path):
        csv_path = tmp_path / "events.csv"
        cache_dir = tmp_path / "cache"
        csv_path.write_text(self.CSV)

        db = self._database(csv_path)
        engine = QueryEngine(db, EngineConfig(cache_dir=cache_dir))
        assert engine.evaluate([count_by_kind(db)])[count_by_kind(db)] == 2

        # The data changes: another 'a' row lands in the CSV.
        csv_path.write_text(self.CSV + "a,9\n")
        updated = self._database(csv_path)
        fresh = QueryEngine(updated, EngineConfig(cache_dir=cache_dir))
        query = count_by_kind(updated)
        # New fingerprint: the stale cached cell (2) must not be served.
        assert fresh.evaluate([query])[query] == 3
        assert fresh.stats.disk_hits == 0
        assert fresh.stats.disk_misses == 1
        assert fresh.stats.cube_queries == 1

    def test_unchanged_csv_reuses_cache(self, tmp_path):
        csv_path = tmp_path / "events.csv"
        cache_dir = tmp_path / "cache"
        csv_path.write_text(self.CSV)
        first = self._database(csv_path)
        QueryEngine(first, EngineConfig(cache_dir=cache_dir)).evaluate(
            [count_by_kind(first)]
        )
        # Re-reading the identical file yields the same fingerprint.
        again = self._database(csv_path)
        engine = QueryEngine(again, EngineConfig(cache_dir=cache_dir))
        engine.evaluate([count_by_kind(again)])
        assert engine.stats.disk_hits == 1
        assert engine.stats.cube_queries == 0


class TestEngineStatsMerge:
    def _distinct(self, start: int) -> EngineStats:
        from dataclasses import fields

        stats = EngineStats()
        for offset, spec in enumerate(fields(EngineStats)):
            setattr(stats, spec.name, start + offset)
        return stats

    def test_merge_covers_every_field(self):
        from dataclasses import fields

        merged = self._distinct(10).merge(self._distinct(100))
        for offset, spec in enumerate(fields(EngineStats)):
            assert getattr(merged, spec.name) == 110 + 2 * offset

    def test_iadd_and_copy(self):
        total = EngineStats()
        part = self._distinct(1)
        snapshot = part.copy()
        total += part
        assert total == part == snapshot
        assert total is not part

    def test_diff_recovers_delta(self):
        before = self._distinct(5)
        after = self._distinct(5).merge(self._distinct(2))
        delta = after.diff(before)
        assert delta == self._distinct(2)

    def test_reset_restores_defaults(self):
        stats = self._distinct(3)
        stats.reset()
        assert stats == EngineStats()

    def test_hit_rates(self):
        stats = EngineStats(cache_hits=3, cache_misses=1, disk_hits=9,
                            disk_misses=1)
        assert stats.cache_hit_rate() == pytest.approx(0.75)
        assert stats.disk_hit_rate() == pytest.approx(0.9)
        assert EngineStats().cache_hit_rate() == 0.0
        assert EngineStats().disk_hit_rate() == 0.0
