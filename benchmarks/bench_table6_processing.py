"""Table 6: processing-time ladder — naive, + query merging, + caching.

Paper: naive 2587s total / 2415s query; + merging 151s / 39s (x61.9);
+ caching 128s / 18s (x2.1). The reproduction replays each ladder case's
candidate spaces at the engine level, once per EM round
(``EmConfig().max_iterations`` rounds, every candidate evaluated each
round):

- Naive: ``NAIVE`` × ``row``, the row-wise oracle, one physical query per
  candidate;
- + Query Merging: ``MERGED_CACHED`` × ``columnar`` with a fresh
  ``ResultCache`` before every round, so cubes are shared within a round
  only;
- + Caching: the same engine keeping its cache across rounds.

"Total" is the replay's wall time, "Query" the engine's execution time.
"""

from __future__ import annotations

import time

from repro.core.checker import AggChecker
from repro.db.cache import ResultCache
from repro.db.engine import EngineConfig, ExecutionMode, QueryEngine
from repro.evalexec import refine_by_eval_space
from repro.harness.reporting import format_table
from repro.model.em import EmConfig

#: Naive execution is orders of magnitude slower; a small slice suffices
#: to measure the ratio.
LADDER_CASES = 4
ROUNDS = EmConfig().max_iterations

#: (label, engine, fresh result cache every round)
LADDER = (
    ("Naive", EngineConfig(mode=ExecutionMode.NAIVE, backend="row"), False),
    ("+ Query Merging", EngineConfig(), True),
    ("+ Caching", EngineConfig(), False),
)


def replay(cases, config: EngineConfig, fresh_cache: bool):
    """``(wall seconds, query seconds, physical queries)`` of evaluating
    every case's candidate spaces for ``ROUNDS`` rounds on one engine
    per case."""
    started = time.perf_counter()
    query_seconds = 0.0
    physical = 0
    for database, spaces in cases:
        engine = QueryEngine(database, config)
        for _ in range(ROUNDS):
            if fresh_cache:
                engine.cache = ResultCache()
            refine_by_eval_space(spaces, None, engine)
        query_seconds += engine.stats.query_seconds
        physical += engine.stats.physical_queries
        engine.close()
    return time.perf_counter() - started, query_seconds, physical


def test_table6_processing(benchmark, corpus, capsys):
    # The ladder isolates engine strategy effects; exclude the 90-column
    # survey theme whose fragment extraction dominates either way.
    ladder_cases = [
        case for case in corpus.cases if case.theme_name != "developer_survey"
    ][:LADDER_CASES]
    cases = [
        (case.database, AggChecker(case.database)._match_and_build(case.claims, None))
        for case in ladder_cases
    ]
    rows = []
    query_times = {}
    previous = None
    for label, config, fresh_cache in LADDER:
        total, query_seconds, physical = replay(cases, config, fresh_cache)
        query_times[label] = query_seconds
        speedup = ""
        if previous is not None:
            speedup = f"x{query_times[previous] / max(query_seconds, 1e-9):.1f}"
        previous = label
        rows.append(
            [label, f"{total:.1f}s", f"{query_seconds:.2f}s", speedup, physical]
        )
    rows.append(["paper: Naive", "2587s", "2415s", "", ""])
    rows.append(["paper: + Query Merging", "151s", "39s", "x61.9", ""])
    rows.append(["paper: + Caching", "128s", "18s", "x2.1", ""])

    # Timed unit: one merged+cached batch evaluation.
    case = corpus.cases[0]
    checker = AggChecker(case.database)
    benchmark(lambda: checker.check_claims(case.document, case.claims))

    table = format_table(
        f"Table 6: run time ladder ({LADDER_CASES} cases x {ROUNDS} rounds;"
        " Naive on the row oracle)",
        ["Version", "Total", "Query", "Speedup", "Physical queries"],
        rows,
    )
    with capsys.disabled():
        print("\n" + table)

    # Shape: merging must dominate; caching adds another factor.
    assert query_times["Naive"] > 5 * query_times["+ Query Merging"]
    assert query_times["+ Query Merging"] >= query_times["+ Caching"]
