"""One evaluation route: the fork between a production path and a kept
"oracle" path, selected by a user-set option, must not grow back.

``QueryEngine.evaluate`` (the ad-hoc list entry point) and
``keyword_match`` (Algorithm 1 written plainly) stay as references the
tests compare against; nothing under ``src/repro`` may call them, and no
option or deprecation shim may route around the default path.
"""

from __future__ import annotations

import re
from dataclasses import fields
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

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
