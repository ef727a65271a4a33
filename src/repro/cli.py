"""Command-line interface: the AggChecker as a shippable tool.

Usage::

    python -m repro check --csv data.csv --article article.html
    python -m repro check --csv a.csv --csv b.csv --article draft.html \
        --data-dict dict.csv --hits 30 --json
    python -m repro check --csv data.csv --article a.html --cache-dir .cubecache
    python -m repro corpus-stats
    python -m repro corpus-run --cache-dir .cubecache
    python -m repro serve --port 8765 --cache-dir .cubecache
    python -m repro scrub --cache-dir .cubecache --queue-dir .queue --json

``check`` loads one or more CSV files as tables, verifies the article
(HTML subset or plain text), and prints spell-checker markup; ``--json``
emits a machine-readable report instead. ``corpus-stats`` prints the
statistics of the built-in evaluation corpus; ``corpus-run`` verifies the
built-in corpus end to end in-process, optionally over a persistent cube
cache (``--cache-dir``), and reports precision/recall/F1, coverage,
throughput, and cache hit rates; a case that fails stops the run with
exit code 2. ``serve`` runs the resident
verification service: ``POST /check`` admits each document onto a
bounded durable job queue (``--queue-dir`` makes it crash-survivable)
and streams per-claim NDJSON verdicts as a worker pool leases, verifies,
and acks the jobs; ``GET /health``, ``GET /stats`` and ``GET /deadletter``
expose service, queue and engine counters. ``scrub`` is the offline
integrity pass over every persisted state tier (disk cube cache, queue
journal); it quarantines corruption and exits 4 when any was found (see
ARCHITECTURE.md, "Integrity checks").
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from repro.core import AggChecker, render_markup
from repro.core.config import AggCheckerConfig
from repro.db.csvio import load_csv
from repro.db.datadict import load_data_dictionary
from repro.db.adapters import BACKENDS, load_sqlite_database
from repro.db.engine import EngineConfig
from repro.db.schema import Database
from repro.errors import ReproError
from repro.text.document import Document


def _positive_int(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid count: {raw!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AggChecker: verify text summaries of relational data sets",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser("check", help="verify an article against CSV data")
    check.add_argument(
        "--csv",
        action="append",
        required=True,
        metavar="FILE",
        help="data file: CSV (repeat for multiple tables) or a single "
        "SQLite database file (.sqlite/.sqlite3/.db; schema, types and "
        "foreign keys are introspected, rows stay on disk)",
    )
    check.add_argument(
        "--article", required=True, metavar="FILE", help="article (HTML or text)"
    )
    check.add_argument(
        "--data-dict", metavar="FILE", help="data dictionary (column,description)"
    )
    check.add_argument(
        "--hits", type=int, default=20, help="predicate fragments per claim"
    )
    check.add_argument(
        "--p-true", type=float, default=0.999, help="assumed P(claim correct)"
    )
    _add_backend(check)
    check.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="persistent cube-cell cache directory (keyed by data content; "
        "safe to share across runs and concurrent processes)",
    )
    _add_disk_cache_min_rows(check)
    _add_budget_arguments(check)
    check.add_argument(
        "--json", action="store_true", help="emit a JSON report"
    )

    commands.add_parser(
        "corpus-stats", help="statistics of the built-in evaluation corpus"
    )

    corpus_run = commands.add_parser(
        "corpus-run",
        help="verify the built-in corpus and report P/R/F1 and coverage",
    )
    corpus_run.add_argument(
        "--limit",
        type=_positive_int,
        metavar="N",
        help="only run the first N cases (N >= 1)",
    )
    _add_backend(corpus_run)
    corpus_run.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="persistent cube-cell cache shared across runs",
    )
    _add_disk_cache_min_rows(corpus_run)
    corpus_run.add_argument(
        "--json", action="store_true", help="emit JSON metrics"
    )

    serve = commands.add_parser(
        "serve",
        help="run the resident verification service (durable queue, NDJSON streaming)",
        description="Serve POST /check (document + database reference -> "
        "streamed per-claim NDJSON verdicts), GET /health, GET /stats, and "
        "GET /deadletter from a long-running process. Admission decomposes "
        "each document into per-claim jobs on a bounded durable queue; a "
        "worker pool leases each document's group, verifies it once, and "
        "acks its jobs; a group that fails ends as per-claim error events "
        "and lands in the dead-letter quarantine (verdicts are "
        "deterministic, so nothing is retried). With --queue-dir the queue journal survives crashes: "
        "a restarted server resumes unfinished jobs. "
        "Resource governance bounds every request in four layers: hostile "
        "or oversized input (CSV rows/columns/field bytes, inline tables, "
        "claims per document) is rejected with structured 400s before any "
        "work happens; --max-request-cost rejects expensive requests at "
        "admission (413, cost = tables x rows x claims) before they "
        "queue; per-claim space budgets (--max-rows-materialized, "
        "--max-cube-cells, --max-candidates) degrade execution through "
        "the reduced-scope -> no-execution ladder instead of exhausting "
        "memory mid-query, the same way on every run and under check; "
        "and --max-rss-mb sheds all execution (explicit unverifiable "
        "verdicts marked degraded=shed, queue keeps draining) while "
        "process RSS is over the line, "
        "recovering automatically when pressure subsides. Per-client "
        "token buckets (--rate-limit) and queue-depth backpressure shed "
        "excess load with 429 + Retry-After. Checkers stay warm per "
        "database content fingerprint; verdicts are memoized per claim "
        "(degraded verdicts never are) so resubmitting an edited "
        "document re-evaluates only changed claims.",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8765, help="bind port (0 = any free port)"
    )
    serve.add_argument(
        "--hits", type=int, default=20, help="predicate fragments per claim"
    )
    serve.add_argument(
        "--p-true", type=float, default=0.999, help="assumed P(claim correct)"
    )
    _add_backend(serve)
    serve.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="persistent cube-cell cache shared by all served databases",
    )
    _add_disk_cache_min_rows(serve)
    serve.add_argument(
        "--no-incremental",
        action="store_true",
        help="disable the per-claim incremental re-check tier",
    )
    serve.add_argument(
        "--incremental-capacity",
        type=int,
        default=16384,
        metavar="N",
        help="max memoized claim verdicts before LRU eviction",
    )
    serve.add_argument(
        "--max-databases",
        type=int,
        default=64,
        metavar="N",
        help="max warm checkers (one per distinct database content + "
        "dictionary) before LRU eviction",
    )
    serve.add_argument(
        "--queue-dir",
        metavar="DIR",
        help="durable queue directory (journal survives crashes; omit for "
        "an in-memory queue)",
    )
    serve.add_argument(
        "--queue-capacity",
        type=int,
        default=1024,
        metavar="N",
        help="max live (pending + leased) claim jobs before admission "
        "sheds with 429 + Retry-After (default: 1024)",
    )
    serve.add_argument(
        "--queue-workers",
        type=int,
        default=2,
        metavar="N",
        help="verification worker threads leasing off the queue (default: 2)",
    )
    serve.add_argument(
        "--rate-limit",
        type=float,
        default=0.0,
        metavar="RPS",
        help="per-client request rate (X-Client-Id header or peer "
        "address); 0 disables (default: 0)",
    )
    serve.add_argument(
        "--rate-burst",
        type=float,
        metavar="N",
        help="per-client burst allowance (default: max(1, 2x rate))",
    )
    _add_budget_arguments(serve)
    serve.add_argument(
        "--max-request-cost",
        type=int,
        metavar="N",
        help="admission cost ceiling (tables x rows x claims); costlier "
        "requests are rejected with 413 + a machine-readable reason "
        "before they reach the queue",
    )
    serve.add_argument(
        "--max-rss-mb",
        type=float,
        metavar="MB",
        help="process RSS watermark; above it all execution sheds to "
        "explicit unverifiable verdicts (degraded=shed) until memory "
        "pressure subsides (needs /proc)",
    )
    # Hidden and zero-only: the end-to-end benchmark still starts the
    # server with ``--audit-rate 0``; there is no online auditing to enable.
    serve.add_argument(
        "--audit-rate",
        type=float,
        choices=(0.0,),
        default=0.0,
        help=argparse.SUPPRESS,
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log one line per HTTP request"
    )

    scrub = commands.add_parser(
        "scrub",
        help="offline integrity scrub of persisted state (cube cache, "
        "queue journal)",
        description="Walk every requested persisted-state tier and verify "
        "its integrity: disk cube-cache entries (--cache-dir) are checked "
        "structurally (magic + CRC32 + payload decode) and, when the "
        "owning database's CSVs are supplied via --csv, semantically "
        "(every cached cube cell recomputed from source and compared "
        "bit-exact); the durable queue journal (--queue-dir) is scanned "
        "record by record against its per-record CRC32 framing, "
        "tolerating a truncated tail (a crashed writer) but flagging "
        "interior corruption. Corrupt cube entries are quarantined by "
        "renaming to *.corrupt so the serving path never reads them "
        "again; the journal is never modified (its owner skips bad "
        "records on load). The report is machine-readable with --json. "
        "Exit status: 0 when every walked tier is clean, 4 when any "
        "corruption was found (a second scrub over the now-quarantined "
        "state exits 0), 2 on usage errors.",
    )
    scrub.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="disk cube-cache directory to scrub (corrupt entries are "
        "quarantined as *.corrupt)",
    )
    scrub.add_argument(
        "--queue-dir",
        metavar="DIR",
        help="durable queue directory whose journal to scan (read-only)",
    )
    scrub.add_argument(
        "--csv",
        action="append",
        default=[],
        metavar="FILE",
        help="CSV source file(s) forming the database cached entries were "
        "computed from (repeatable); enables semantic recompute "
        "validation of cube entries whose content fingerprint matches",
    )
    scrub.add_argument(
        "--json", action="store_true", help="emit the full report as JSON"
    )
    return parser


def _add_backend(parser) -> None:
    parser.add_argument(
        "--backend",
        choices=BACKENDS,
        default="columnar",
        help="storage adapter: dictionary-encoded in-memory 'columnar' "
        "(default) or stdlib 'sqlite' SQL pushdown (bit-identical "
        "verdicts, runs out-of-core over SQLite files without "
        "materializing rows in Python), both answering candidates from "
        "merged, cached cube queries; or 'row', the NAIVE reference "
        "oracle, which executes every candidate query on its own, row by "
        "row",
    )


def _add_disk_cache_min_rows(parser) -> None:
    parser.add_argument(
        "--disk-cache-min-rows",
        type=int,
        metavar="N",
        help="skip the disk cube-cache tier for databases with fewer "
        "total rows than N (recomputing tiny cubes beats the pickle + "
        "fsync round-trip; skips are counted in DiskCacheStats)",
    )


def _engine_config(args) -> EngineConfig:
    """The engine ``--backend`` names (``row`` is the ``NAIVE`` oracle)."""
    return EngineConfig(
        backend=args.backend,
        cache_dir=args.cache_dir,
        disk_cache_min_rows=args.disk_cache_min_rows,
    )


def _add_budget_arguments(parser) -> None:
    """Space-budget flags shared by ``check`` and ``serve``.

    Identical flags feeding identical config fields keep the CLI-vs-service
    bit-identity guarantee: a request degraded by a budget on the server
    degrades the same way under ``check`` with the same limits.
    """
    parser.add_argument(
        "--max-rows-materialized",
        type=int,
        metavar="N",
        help="largest joined relation a query or cube may materialize; "
        "past it, verdicts degrade (reduced scope -> no execution) "
        "instead of exhausting memory",
    )
    parser.add_argument(
        "--max-cube-cells",
        type=int,
        metavar="N",
        help="cube group-count ceiling, checked against a cardinality "
        "estimate BEFORE materialization and against real group counts "
        "before rollup",
    )
    parser.add_argument(
        "--max-candidates",
        type=int,
        metavar="N",
        help="candidate-query ceiling per claim batch; oversized "
        "candidate spaces degrade instead of executing",
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "check":
            return _run_check(args)
        if args.command == "corpus-run":
            return _run_corpus(args)
        if args.command == "serve":
            return _run_serve(args)
        if args.command == "scrub":
            return _run_scrub(args)
        return _run_corpus_stats()
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


_SQLITE_SUFFIXES = (".sqlite", ".sqlite3", ".db")


def _load_cli_database(paths: list[str]) -> Database:
    """Build the ``check`` database from CSV files or one SQLite file."""
    sqlite_paths = [
        path
        for path in paths
        if Path(path).suffix.lower() in _SQLITE_SUFFIXES
    ]
    if not sqlite_paths:
        return Database("cli", [load_csv(path) for path in paths])
    if len(paths) > 1:
        raise ReproError(
            "a SQLite database file must be the only --csv argument "
            f"(got {len(paths)} data files)"
        )
    return load_sqlite_database(sqlite_paths[0], name="cli")


def _run_check(args) -> int:
    database = _load_cli_database(args.csv)
    dictionary = (
        load_data_dictionary(args.data_dict) if args.data_dict else None
    )
    config = AggCheckerConfig(
        predicate_hits=args.hits,
        engine=_engine_config(args),
        max_rows_materialized=args.max_rows_materialized,
        max_cube_cells=args.max_cube_cells,
        max_candidates=args.max_candidates,
    )
    config = config.with_em(p_true=args.p_true)
    checker = AggChecker(database, config, dictionary)

    document = _load_document(args.article)
    report = checker.check_document(document)

    if args.json:
        print(json.dumps(_report_json(report), indent=2))
    else:
        print(render_markup(report.verdicts))
        print()
        for verdict in report.verdicts:
            print(f"  {verdict.claim.mention.text!r}: {verdict.hover_text}")
        flagged = sum(1 for v in report.verdicts if v.status.flagged)
        print(
            f"\n{len(report.verdicts)} claims checked, {flagged} flagged, "
            f"{report.total_seconds:.2f}s"
        )
    return 1 if any(v.status.flagged for v in report.verdicts) else 0


def _load_document(path_text: str) -> Document:
    # One sniffing implementation shared with the service layer: the
    # served-vs-CLI bit-identity guarantee includes document parsing.
    from repro.service.protocol import parse_article

    path = Path(path_text)
    return parse_article(path.read_text(encoding="utf-8-sig"), path.stem)


def _report_json(report) -> dict:
    # The per-claim shape is shared with the service's NDJSON claim
    # events, so one-shot and served verdicts compare bit-for-bit.
    from repro.service.protocol import verdict_payload

    claims = [verdict_payload(verdict) for verdict in report.verdicts]
    return {
        "claims": claims,
        "seconds": round(report.total_seconds, 3),
        "candidate_queries": report.engine_stats.queries_requested,
        "physical_queries": report.engine_stats.physical_queries,
    }


def _run_corpus(args) -> int:
    from repro.corpus import generate_corpus
    from repro.harness import run_corpus
    from repro.harness.metrics import COVERAGE_KS

    import time

    config = AggCheckerConfig(engine=_engine_config(args))
    corpus = generate_corpus()
    started = time.perf_counter()
    run = run_corpus(corpus, config, limit=args.limit)
    wall_seconds = time.perf_counter() - started
    metrics = run.metrics
    stats = run.engine_stats
    seconds = max(wall_seconds, 1e-9)
    payload = {
        "cases": len(run.results),
        "claims": metrics.n_claims,
        "erroneous": metrics.n_erroneous,
        "flagged": metrics.n_flagged,
        "precision": round(metrics.precision, 4),
        "recall": round(metrics.recall, 4),
        "f1": round(metrics.f1, 4),
        "top_k_coverage": {
            k: round(metrics.top_k_coverage(k), 1) for k in COVERAGE_KS
        },
        "seconds": round(wall_seconds, 3),
        "case_seconds": round(metrics.total_seconds, 3),
        "claims_per_sec": round(metrics.n_claims / seconds, 2),
        "physical_queries": stats.physical_queries,
        "cube_queries": stats.cube_queries,
        "memory_cache_hit_rate": round(stats.cache_hit_rate(), 4),
        "disk_cache_hit_rate": round(stats.disk_hit_rate(), 4),
    }
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(f"cases: {payload['cases']}, claims: {payload['claims']}")
    print(
        f"precision: {payload['precision']:.3f}, "
        f"recall: {payload['recall']:.3f}, f1: {payload['f1']:.3f}"
    )
    coverage = ", ".join(
        f"top-{k}={v:.1f}%" for k, v in payload["top_k_coverage"].items()
    )
    print(f"coverage: {coverage}")
    print(
        f"throughput: {payload['claims_per_sec']:.1f} claims/s "
        f"({payload['seconds']:.1f}s)"
    )
    print(
        f"engine: {stats.physical_queries} physical queries, "
        f"memory hit rate {payload['memory_cache_hit_rate']:.1%}, "
        f"disk hit rate {payload['disk_cache_hit_rate']:.1%}"
    )
    return 0


def _run_serve(args) -> int:
    config = AggCheckerConfig(
        predicate_hits=args.hits,
        engine=_engine_config(args),
        max_rows_materialized=args.max_rows_materialized,
        max_cube_cells=args.max_cube_cells,
        max_candidates=args.max_candidates,
    ).with_em(p_true=args.p_true)
    tier = "off" if args.no_incremental else "on"

    from repro.service.aio import create_async_server

    server = create_async_server(
        host=args.host,
        port=args.port,
        config=config,
        queue_dir=args.queue_dir,
        queue_capacity=args.queue_capacity,
        workers=args.queue_workers,
        rate_limit=args.rate_limit,
        rate_burst=args.rate_burst,
        incremental=not args.no_incremental,
        incremental_capacity=args.incremental_capacity,
        max_databases=args.max_databases,
        max_request_cost=args.max_request_cost,
        max_rss_mb=args.max_rss_mb,
        verbose=args.verbose,
    )

    def _announce(instance) -> None:
        resumed = instance.service.queue.resumed
        durable = "durable" if args.queue_dir else "in-memory"
        note = f"; resumed {resumed} journaled job(s)" if resumed else ""
        print(
            f"repro service listening on {instance.url} "
            f"({durable} queue, {args.queue_workers} worker(s), "
            f"incremental re-check {tier}{note}; Ctrl-C drains and stops)",
            flush=True,
        )

    server.run_blocking(on_ready=_announce)
    journaled = server.service.journaled_on_drain
    if journaled:
        print(
            f"drained: {journaled} job(s) journaled for resume",
            file=sys.stderr,
        )
    return 0


def _run_scrub(args) -> int:
    from repro.scrub import scrub_state

    if not args.cache_dir and not args.queue_dir:
        print(
            "error: nothing to scrub; give at least one of --cache-dir, "
            "--queue-dir",
            file=sys.stderr,
        )
        return 2
    databases = None
    if args.csv:
        if not args.cache_dir:
            print(
                "error: --csv (semantic validation) requires --cache-dir",
                file=sys.stderr,
            )
            return 2
        databases = [
            Database("cli", [load_csv(path) for path in args.csv])
        ]
    report = scrub_state(
        cache_dir=args.cache_dir,
        queue_dir=args.queue_dir,
        databases=databases,
    )
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for tier in report["tiers"]:
            fields = ", ".join(
                f"{key}={value}"
                for key, value in tier.items()
                if key not in ("tier", "path")
            )
            print(f"{tier['tier']}: {fields}")
        verdict = "clean" if report["clean"] else (
            f"CORRUPT: {report['corrupt_total']} record(s)"
            + (" + truncation" if report["truncated"] else "")
        )
        print(f"scrub: {verdict}")
    return 0 if report["clean"] else 4


def _run_corpus_stats() -> int:
    from repro.corpus import generate_corpus

    corpus = generate_corpus()
    print(f"articles: {len(corpus)}")
    print(f"claims: {corpus.total_claims}")
    print(
        f"erroneous: {corpus.erroneous_claims} ({corpus.error_rate:.1%}), "
        f"in {corpus.cases_with_errors} articles"
    )
    print(f"predicate histogram: {corpus.predicate_histogram()}")
    coverage = corpus.characteristic_coverage(3)
    print(
        "top-3 characteristic coverage: "
        + ", ".join(f"{k}={v:.1f}%" for k, v in coverage.items())
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
