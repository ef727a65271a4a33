"""Shared fixtures for the benchmark suite.

Expensive artifacts (the corpus, the default full-corpus run, ablation
sweeps) are session-scoped and shared across every table/figure module.
Sweeps run on a fixed 20-case subset to keep the suite's wall-clock
reasonable; headline numbers use all 53 cases. Every module prints the
paper-style rows via ``capsys.disabled()`` so they land in the tee'd
bench output.
"""

from __future__ import annotations

import pytest

from repro.core.config import AggCheckerConfig
from repro.corpus import generate_corpus
from repro.harness import run_corpus

#: Cases used by parameter sweeps (full corpus for headline numbers).
SWEEP_CASES = 20


@pytest.fixture(scope="session")
def corpus():
    return generate_corpus()


@pytest.fixture(scope="session")
def run_full(corpus):
    """Default configuration over all 53 cases."""
    return run_corpus(corpus)


@pytest.fixture(scope="session")
def run_sweep(corpus):
    """Default configuration over the sweep subset."""
    return run_corpus(corpus, limit=SWEEP_CASES)


@pytest.fixture(scope="session")
def sweep_cache(corpus, run_sweep):
    """Memoized ablation runs keyed by config label."""
    cache: dict[str, object] = {
        "__default__": run_sweep,
    }

    def run_config(label: str, config: AggCheckerConfig):
        if label not in cache:
            cache[label] = run_corpus(corpus, config, limit=SWEEP_CASES)
        return cache[label]

    return run_config
