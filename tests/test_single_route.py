"""One evaluation route: the fork between a production path and a kept
"oracle" path, selected by a user-set option, must not grow back.

``QueryEngine.evaluate`` (the ad-hoc list entry point) and
``keyword_match`` (Algorithm 1 written plainly) stay as references the
tests compare against; nothing under ``src/repro`` may call them, and no
option or deprecation shim may route around the default path.

NumPy is a declared dependency, so no kernel keeps a second, pure-Python
copy for an interpreter without it, and no test skips for its absence.

``python -m repro serve`` has one HTTP front end, the queue-backed
asyncio server: no thread-per-request server or option selecting one
comes back.

Three engines, one oracle: ``NAIVE`` runs only on the row executor and
``MERGED_CACHED`` on the columnar and SQLite backends. The row cube, the
per-query columnar and SQL routes, the ``MERGED`` mode, the cube-cover
strategy knobs and the result-reuse switch stay deleted.

The package keeps only what it can run or measure: the backends are a
closed set with no plug-in registry, capability record or optional-adapter
gate, and no simulated user study stands in for the paper's human-subject
results. The corpus runs in-process: no process pool, retry sandbox,
quarantine or checkpoint comes back.
"""

from __future__ import annotations

import ast
import importlib.util
import io
import re
import tokenize
from dataclasses import fields
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
TESTS = ROOT / "tests"

#: Names of removed options and of the warning class shims are made of.
BANNED_ANYWHERE = re.compile(r"DeprecationWarning|space_eval|batch_matching")

#: Calls of a reference -> the one module that may contain them (its own).
REFERENCE_CALLS = {
    re.compile(r"\.evaluate\("): "db/engine.py",
    re.compile(r"\bkeyword_match\("): "matching/matcher.py",
}


def test_src_has_one_route():
    offences = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        patterns = [BANNED_ANYWHERE] + [
            pattern
            for pattern, home in REFERENCE_CALLS.items()
            if relative != home
        ]
        for number, line in enumerate(path.read_text().splitlines(), 1):
            for pattern in patterns:
                if pattern.search(line):
                    offences.append(f"{relative}:{number}: {line.strip()}")
    assert not offences, "\n".join(offences)


def test_removed_options_stay_removed():
    from repro.core.config import AggCheckerConfig
    from repro.model.em import EmConfig
    from repro.model.probability import EvaluationOutcome

    assert not {"space_eval", "reuse_results"} & {
        spec.name for spec in fields(EmConfig)
    }
    flat = {
        "batch_matching",
        "execution_mode",
        "backend",
        "cache_dir",
        "disk_cache_min_rows",
    }
    assert not flat & set(dir(AggCheckerConfig))
    # One result representation: SpaceResults plus masks.
    assert [spec.name for spec in fields(EvaluationOutcome)] == [
        "space_results",
        "evaluated",
        "matches",
        "pool_nonempty",
    ]


#: Traces of an optional NumPy in the package.
OPTIONAL_NUMPY = re.compile(r"numpy_available|_compat\b|_np = None")
#: Traces of a test run without NumPy.
SKIPS_WITHOUT_NUMPY = re.compile(r"needs_numpy|importorskip\(\s*[\"']numpy")


def _guards_numpy_import(node: ast.Try) -> bool:
    """``try: import numpy ... except ImportError`` (or a subclass)."""
    imported = set()
    for inner in ast.walk(ast.Module(body=node.body, type_ignores=[])):
        if isinstance(inner, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in inner.names)
        elif isinstance(inner, ast.ImportFrom):
            imported.add((inner.module or "").split(".")[0])
    return "numpy" in imported and any(
        handler.type is None
        or re.search(r"ImportError|ModuleNotFoundError", ast.unparse(handler.type))
        for handler in node.handlers
    )


def test_numpy_is_not_optional_in_src():
    offences = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        text = path.read_text()
        for number, line in enumerate(text.splitlines(), 1):
            if OPTIONAL_NUMPY.search(line):
                offences.append(f"{relative}:{number}: {line.strip()}")
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Try) and _guards_numpy_import(node):
                offences.append(f"{relative}:{node.lineno}: guarded numpy import")
    assert not offences, "\n".join(offences)


def test_no_test_skips_without_numpy():
    offences = []
    for path in sorted(TESTS.rglob("*.py")):
        if path == Path(__file__).resolve():
            continue
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if SKIPS_WITHOUT_NUMPY.search(line):
                relative = path.relative_to(ROOT).as_posix()
                offences.append(f"{relative}:{number}: {line.strip()}")
    assert not offences, "\n".join(offences)


def test_setup_declares_the_tested_numpy_pin():
    """``setup.py`` and ``requirements/test.txt`` pin NumPy identically."""
    call = next(
        node
        for node in ast.walk(ast.parse((ROOT / "setup.py").read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setup"
    )
    requires = next(
        ast.literal_eval(keyword.value)
        for keyword in call.keywords
        if keyword.arg == "install_requires"
    )
    tested = [
        line.strip()
        for line in (ROOT / "requirements" / "test.txt").read_text().splitlines()
        if re.match(r"numpy\b", line.strip())
    ]
    declared = [requirement for requirement in requires if re.match(r"numpy\b", requirement)]
    assert len(tested) == 1 and declared == tested


#: Traces of the thread-per-request HTTP front end and its options
#: (spelled with character classes so a plain grep for them skips this file).
THREADED_FRONT_END = re.compile(
    r"http\.server|ThreadingHTTP[S]erver|\bcreate_server\b|legacy[-_]server|max[-_]inflight"
)


def test_src_has_one_http_front_end():
    offences = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if THREADED_FRONT_END.search(line):
                offences.append(f"{relative}:{number}: {line.strip()}")
    assert not offences, "\n".join(offences)


def test_threaded_server_module_is_gone():
    assert importlib.util.find_spec("repro.service.server") is None


#: Traces of the engine pairs outside the three, and of their knobs.
EXTRA_ENGINES = re.compile(
    r"CubeCoverStrategy|cover_strategy|paper_max_predicates|reuse_results"
    r"|execute_columnar_query|_Partial\b|execution[-_]mode|ExecutionMode\.MERGED\b"
)


def test_src_has_three_engines_and_one_oracle():
    offences = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if EXTRA_ENGINES.search(line):
                offences.append(f"{relative}:{number}: {line.strip()}")
    assert not offences, "\n".join(offences)


def test_two_execution_modes():
    from repro.db import ExecutionMode

    assert [mode.value for mode in ExecutionMode] == ["naive", "merged_cached"]


#: Traces of the adapter extension point, of the optional adapter, of the
#: user-study simulator, and of the corpus runner's process pool, retry
#: sandbox and checkpoints.
UNRUNNABLE = re.compile(
    r"duckdb|DuckDB|register_adapter|adapter_names|adapter_class"
    r"|AdapterCapabilities|MissingDependencyError"
    r"|UserSimulator|run_user_study|run_crowd_study"
    r"|run_corpus_parallel|shard_cases|resolve_workers|CorpusCheckpoint"
    r"|open_checkpoint|scan_checkpoint|CheckpointError|KILL_EXIT_CODE"
    r"|ProcessPoolExecutor"
)
#: Identifiers banned as code only: the disk cube tier still reports the
#: entries it quarantined, in prose and under the ``"quarantined"`` key.
UNRUNNABLE_NAMES = {"quarantined"}


def test_src_keeps_only_what_it_can_run():
    offences = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        text = path.read_text()
        for number, line in enumerate(text.splitlines(), 1):
            if UNRUNNABLE.search(line):
                offences.append(f"{relative}:{number}: {line.strip()}")
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type == tokenize.NAME and token.string in UNRUNNABLE_NAMES:
                line = token.line.strip()
                offences.append(f"{relative}:{token.start[0]}: {line}")
    assert not offences, "\n".join(offences)


def test_retry_policy_keeps_its_import_path():
    from repro.harness.parallel import RetryPolicy

    assert RetryPolicy().max_attempts == 3
    assert importlib.util.find_spec("repro.harness.checkpoint") is None


def test_engine_config_accepts_exactly_three_pairs():
    import pytest

    from repro.db import EngineConfig, ExecutionMode
    from repro.errors import QueryError

    with pytest.raises(QueryError, match="unknown storage backend"):
        EngineConfig(backend="duckdb")
    valid = []
    for mode in ExecutionMode:
        for backend in ("columnar", "row", "sqlite"):
            if (mode is ExecutionMode.NAIVE) == (backend == "row"):
                valid.append(EngineConfig(mode=mode, backend=backend))
                continue
            with pytest.raises(QueryError, match=r"mode=ExecutionMode\.NAIVE, backend='row'"):
                EngineConfig(mode=mode, backend=backend)
    assert [(config.mode.value, config.backend) for config in valid] == [
        ("naive", "row"),
        ("merged_cached", "columnar"),
        ("merged_cached", "sqlite"),
    ]
    assert [spec.name for spec in fields(EngineConfig)] == [
        "mode", "backend", "cache_dir", "disk_cache_min_rows",
    ]


def test_db_exports_no_row_cube():
    import repro.db
    import repro.db.cube

    assert not hasattr(repro.db, "execute_cube")
    assert "execute_cube" not in repro.db.__all__
    assert not hasattr(repro.db.cube, "execute_cube")
