"""Spans around the calls into each layer, recorded from outside.

The program under test has no spans of its own yet (ROADMAP "timing
spine"). For the traced run this module swaps the *call-site names* the
pipeline resolves at call time — a module attribute such as
``repro.core.checker.build_candidates`` or a class attribute such as
``SpaceEncoding.__init__`` — for timing wrappers, and puts the originals
back afterwards, so the traced path is the production
``AggChecker.check_document``, not a re-implementation.

A span is ``[name, start, end, parent index, document, counted]``. A
layer's *self* time is its span's duration minus its direct children's
durations minus ``counted``: the time spent in calls too frequent to get
a span of their own (``rounds_to`` runs once per distinct result value),
which are aggregated as calls + seconds instead.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import repro.core.checker as checker_module
import repro.db.diskcache as diskcache_module
import repro.db.engine as engine_module
import repro.model.em as em_module
import repro.model.probability as probability_module
from repro.core.checker import AggChecker
from repro.db.adapters.memory import InMemoryAdapter
from repro.db.adapters.sqlbase import SqlAdapterBase
from repro.db.diskcache import DiskCubeCache
from repro.db.engine import QueryEngine
from repro.db.joins import JoinGraph
from repro.fragments.indexer import FragmentIndex
from repro.model.candidates import SpaceEncoding
from repro.model.priors import Priors
from repro.model.probability import EvaluationOutcome

from e2e import inprocess

NAME, START, END, PARENT, DOC, COUNTED = range(6)

#: Root span: one per document, wrapped around ``inprocess.verify_document``.
ROOT = "harness.doc_self_s"

#: (owner, attribute, span name, count): ``count`` optionally names a
#: counter and how to read its increment off the call's result.
SPAN_TARGETS = (
    (inprocess, "verify_document", ROOT, None),
    (inprocess, "parse_html", "text.parse_s", None),
    (checker_module, "detect_claims", "text.parse_s", ("text.claims", len)),
    (AggChecker, "__init__", "core.construct_self_s", None),
    (AggChecker, "check_document", "core.check_self_s", None),
    (
        checker_module, "extract_fragments", "fragments.extract_s",
        ("fragments.count", len),
    ),
    (FragmentIndex, "__init__", "fragments.index_compile_s", None),
    (FragmentIndex, "compiled", "fragments.index_compile_s", None),
    (checker_module, "keyword_match_batch", "matching.match_s", None),
    (checker_module, "_pool_predicate_fragments", "matching.match_s", None),
    (
        checker_module, "build_candidates", "model.candidates_s",
        ("model.candidates", len),
    ),
    (SpaceEncoding, "__init__", "model.encoding_s", None),
    (
        em_module, "compute_distribution", "model.distribution_s",
        ("model.distribution_calls", lambda _: 1),
    ),
    (EvaluationOutcome, "from_value_ids", "model.outcome_s", None),
    (Priors, "update_from", "model.mstep_s", None),
    (
        checker_module, "query_and_learn", "model.em_self_s",
        ("model.em_iterations", lambda result: result.iterations),
    ),
    (em_module, "refine_by_eval_space", "evalexec.refine_self_s", None),
    (QueryEngine, "evaluate_spaces", "db.engine_self_s", None),
    (engine_module, "create_adapter", "db.adapter_build_s", None),
    (JoinGraph, "relation", "db.relation_build_s", None),
    (InMemoryAdapter, "execute_cube", "db.cube_exec_s", None),
    (engine_module, "answer_candidates", "db.gather_s", None),
    (diskcache_module, "fingerprint_of", "db.diskcache.fingerprint_s", None),
    (DiskCubeCache, "store", "db.diskcache.store_s", None),
    (DiskCubeCache, "load", "db.diskcache.load_s", None),
    (SqlAdapterBase, "execute_cube", "db.sql.exec_s", None),
    (checker_module, "make_verdict", "core.verdict_s", None),
)

#: (owner, attribute, counter name): aggregated, no span per call.
COUNTED_TARGETS = ((probability_module, "rounds_to", "nlp.rounds_to_s"),)


class Tracer:
    """In-memory span store for one single-threaded traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        #: counter name -> [calls, seconds]
        self.counted: dict[str, list] = {}
        self._open: list[list] = []
        self._document = -1

    def span_wrapper(self, name: str, function, count=None):
        spans, open_spans, counts = self.spans, self._open, self.counts
        is_root = name == ROOT
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if is_root:
                self._document += 1
            parent = open_spans[-1] if open_spans else None
            record = [
                name, clock(), 0.0,
                -1 if parent is None else parent[-1], self._document, 0.0,
                len(spans),  # own index, dropped on export
            ]
            spans.append(record)
            open_spans.append(record)
            try:
                result = function(*args, **kwargs)
            finally:
                record[END] = clock()
                open_spans.pop()
            if count is not None:
                counts[count[0]] += count[1](result)
            return result

        return traced

    def counted_wrapper(self, name: str, function):
        totals = self.counted.setdefault(name, [0, 0.0])
        open_spans = self._open
        clock = time.perf_counter

        def counted(*args, **kwargs):
            started = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - started
                totals[0] += 1
                totals[1] += elapsed
                if open_spans:
                    open_spans[-1][COUNTED] += elapsed

        return counted

    # -- reading ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self seconds per span (same order as ``spans``)."""
        own = [
            span[END] - span[START] - span[COUNTED] for span in self.spans
        ]
        for span in self.spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def layer_seconds(self) -> tuple[dict[str, float], float]:
        """(self seconds by span name incl. counted names, root seconds)."""
        totals: dict[str, float] = {}
        for span, own in zip(self.spans, self.self_times()):
            totals[span[NAME]] = totals.get(span[NAME], 0.0) + own
        for name, (_, seconds) in self.counted.items():
            totals[name] = totals.get(name, 0.0) + seconds
        root_seconds = sum(
            span[END] - span[START]
            for span in self.spans
            if span[PARENT] < 0
        )
        return totals, root_seconds

    def wrapper_cost_seconds(self) -> float:
        """Time the wrappers themselves added to the traced run.

        Calibrated after the run on no-op calls: (traced - bare) seconds
        per call, times the calls recorded. This is the direct cost only.
        """
        calls = 20_000

        def noop():
            return None

        def per_call(function) -> float:
            started = time.perf_counter()
            for _ in range(calls):
                function()
            return (time.perf_counter() - started) / calls

        bare = per_call(noop)
        probe = Tracer()
        span_cost = per_call(probe.span_wrapper("probe", noop)) - bare
        counted_cost = per_call(probe.counted_wrapper("probe", noop)) - bare
        counted_calls = sum(calls for calls, _ in self.counted.values())
        return max(0.0, span_cost) * len(self.spans) + max(
            0.0, counted_cost
        ) * counted_calls

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "header": header,
            "columns": ["name", "start", "end", "parent", "document", "counted"],
            "spans": [span[:6] for span in self.spans],
            "counts": dict(self.counts),
            "counted": {
                name: {"calls": calls, "seconds": seconds}
                for name, (calls, seconds) in self.counted.items()
            },
        }
        path.write_text(json.dumps(payload) + "\n")


def _rewrap(raw, make):
    """Wrap a plain function, or the function inside a class/staticmethod."""
    if isinstance(raw, (classmethod, staticmethod)):
        return type(raw)(make(raw.__func__))
    return make(raw)


@contextmanager
def installed(tracer: Tracer):
    """Install every wrapper; restore the original attributes on exit."""
    originals: list[tuple[object, str, object]] = []
    try:
        for owner, attribute, name, count in SPAN_TARGETS:
            raw = vars(owner)[attribute]
            originals.append((owner, attribute, raw))
            setattr(
                owner, attribute,
                _rewrap(raw, lambda f: tracer.span_wrapper(name, f, count)),
            )
        for owner, attribute, name in COUNTED_TARGETS:
            raw = vars(owner)[attribute]
            originals.append((owner, attribute, raw))
            setattr(
                owner, attribute,
                _rewrap(raw, lambda f: tracer.counted_wrapper(name, f)),
            )
        yield tracer
    finally:
        for owner, attribute, raw in reversed(originals):
            setattr(owner, attribute, raw)


def is_installed() -> bool:
    """Whether any target currently points at a wrapper (tests)."""
    targets = [t[:2] for t in SPAN_TARGETS] + [t[:2] for t in COUNTED_TARGETS]
    return any(
        getattr(
            getattr(vars(owner)[attribute], "__func__", vars(owner)[attribute]),
            "__qualname__", "",
        ).startswith("Tracer.")
        for owner, attribute in targets
    )
