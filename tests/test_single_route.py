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
"""

from __future__ import annotations

import ast
import importlib.util
import re
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

    assert "space_eval" not in {spec.name for spec in fields(EmConfig)}
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
