"""Smoke test of the end-to-end benchmark at tiny sizes (tier-1).

Every workload runs once at ``--scale smoke``; the in-process ones run a
second time under the tracer. DeprecationWarnings are errors here (and in
the server subprocess, through ``PYTHONWARNINGS``): the benchmark may
only use APIs that survive ROADMAP's "one production path" item.
"""

from __future__ import annotations

import json
import math
import socket
import time

import pytest

pytest.importorskip("numpy", reason="the model layer has no fallback")

from e2e import compare, inputs, run as bench, served, spec, trace  # noqa: E402

pytestmark = pytest.mark.filterwarnings("error::DeprecationWarning")

SEED = 2019
SECONDS = 2.0
IN_PROCESS = [name for name in spec.WORKLOADS if name != "served_mixed"]


def execute(name: str, traced: bool):
    run, tracer = bench.execute(
        name, SEED, SECONDS, "smoke", traced, time.perf_counter()
    )
    record = bench.record_of(name, run, tracer, traced, SEED, SECONDS, "smoke")
    return run, tracer, record


@pytest.fixture(scope="module")
def untraced():
    return {name: execute(name, traced=False) for name in IN_PROCESS}


@pytest.fixture(scope="module")
def traced():
    return {name: execute(name, traced=True) for name in IN_PROCESS}


def port_is_closed(port: int) -> bool:
    with socket.socket() as probe:
        probe.settimeout(1.0)
        return probe.connect_ex(("127.0.0.1", port)) != 0


def assert_complete(record: dict, names) -> None:
    assert record["correct"], record["problems"]
    assert record["failed"] == 0 and record["attempted"] >= 1
    assert list(record["metrics"]) == [name for name, _, _ in names]
    for name, value in record["metrics"].items():
        assert math.isfinite(value), name


def test_benchmark_json_agrees_with_the_runner():
    declared = json.loads(compare.BENCHMARK_JSON.read_text())
    assert [w["name"] for w in declared["workloads"]] == list(spec.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"]) for m in declared["end_to_end"]
    ] == list(spec.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in declared["per_layer"]
    ] == list(spec.PER_LAYER)
    assert declared["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("name", IN_PROCESS)
def test_end_to_end_metrics(untraced, name):
    run, _, record = untraced[name]
    assert_complete(record, spec.END_TO_END)
    assert all(value > 0 for value in record["metrics"].values())


@pytest.mark.parametrize("name", IN_PROCESS)
def test_traced_run_repeats_the_untraced_one(untraced, traced, name):
    """Same seed: same verdict digest and the same exact counts."""
    _, _, plain = untraced[name]
    _, tracer, record = traced[name]
    assert_complete(record, spec.PER_LAYER)
    assert record["verdict_digest"] == plain["verdict_digest"]
    assert record["attempted"] == plain["attempted"]
    metrics = record["metrics"]
    assert metrics["text.claims"] == record["attempted"]
    assert metrics["trace.overhead_ratio"] >= 1.0
    assert metrics["db.gather_s"] > 0 and metrics["model.candidates"] > 0


@pytest.mark.parametrize("name", IN_PROCESS)
def test_children_account_for_the_document(traced, name):
    """Per document, the wrapped layers' self times sum to the root span
    within 2%: what no wrapper covers stays in the root's own self time."""
    _, tracer, _ = traced[name]
    own = tracer.self_times()
    covered: dict[int, float] = {}
    roots: dict[int, float] = {}
    for span, seconds in zip(tracer.spans, own):
        document = span[trace.DOC]
        if span[trace.PARENT] < 0:
            roots[document] = span[trace.END] - span[trace.START]
        else:
            covered[document] = (
                covered.get(document, 0.0) + seconds + span[trace.COUNTED]
            )
    assert roots and set(roots) == set(covered)
    for document, seconds in roots.items():
        assert covered[document] == pytest.approx(seconds, rel=0.02)


def test_wrappers_are_removed_after_a_traced_run(traced):
    assert not trace.is_installed()
    with trace.installed(trace.Tracer()):
        assert trace.is_installed()
    assert not trace.is_installed()


def test_workload_validity(traced):
    """Each workload stresses the layer it exists for (issue, Acceptance)."""
    sqlite = traced["sqlite_pushdown"][2]["metrics"]
    assert sqlite["db.sql.pushdown_queries"] > 0
    assert sqlite["db.rows_materialized"] == 0
    assert sqlite["db.cube_exec_s"] == 0
    rerun = traced["bigrows_disk_rerun"][2]["metrics"]
    assert rerun["db.diskcache.hit_ratio"] == 1.0
    assert rerun["db.diskcache.bytes_written"] > 0
    assert rerun["harness.store_pass_s"] > 0 < rerun["harness.warm_pass_s"]
    assert traced["corpus_cold"][2]["metrics"]["db.sql.exec_s"] == 0


def test_rerun_reads_the_cold_inputs(untraced):
    """Same documents, so the store pass (cube cache on) must reach the
    verdicts ``bigrows_cold`` reaches without it."""
    cold = untraced["bigrows_cold"][0]
    rerun = untraced["bigrows_disk_rerun"][0]
    assert rerun.triples == cold.triples
    assert len(cold.outcomes) == spec.COLD_PASSES * len(cold.latencies())


def test_seed_decides_the_inputs():
    def corpus(seed):
        return [case.html for case in inputs.corpus_cases(seed, 8)]

    def traffic(seed):
        groups = inputs.themed_cases(
            seed, "served", 2, None, 5, distinct_claims=True
        )
        return inputs.arrival_schedule(seed, groups, 10, spec.SERVED_RATE)

    assert corpus(SEED) == corpus(SEED)
    # Every SEEDED_EVERY-th document is the seed's; the rest are shared.
    assert [a != b for a, b in zip(corpus(SEED), corpus(SEED + 1))] == [
        index % inputs.SEEDED_EVERY == 1 for index in range(8)
    ]
    schedule = traffic(SEED)
    assert schedule == traffic(SEED)
    assert [a.html for a in schedule] != [a.html for a in traffic(SEED + 1)]
    resubmitted = [a for a in schedule if a.resubmits is not None]
    assert len(resubmitted) == inputs.resubmit_count(10) == 2
    assert all(a.ordinal >= 5 and a.resubmits < a.ordinal for a in resubmitted)
    assert all(a.html.endswith(inputs.RESUBMIT_SUFFIX) for a in resubmitted)


def test_served_mixed(monkeypatch):
    monkeypatch.setenv("PYTHONWARNINGS", "error::DeprecationWarning")
    started: list[served.ServerProcess] = []

    class Recorded(served.ServerProcess):
        def __enter__(self):
            started.append(self)
            return super().__enter__()

    monkeypatch.setattr(served, "ServerProcess", Recorded)
    run, tracer, record = execute("served_mixed", traced=False)
    assert tracer is None
    assert_complete(record, spec.END_TO_END)
    layers = bench.record_of(
        "served_mixed", run, None, True, SEED, SECONDS, "smoke"
    )
    assert_complete(layers, spec.PER_LAYER)
    assert layers["metrics"]["harness.documents"] == SECONDS * spec.SERVED_RATE
    assert layers["metrics"]["service.server_seconds_p50"] > 0
    assert layers["metrics"]["service.rejected"] == 0
    # Reaped, and its port closed, after a successful run.
    (server,) = started
    assert server.process.poll() is not None
    assert port_is_closed(server.port)


def test_server_is_reaped_when_the_run_fails(tmp_path):
    with pytest.raises(RuntimeError, match="mid-run failure"):
        with served.ServerProcess(tmp_path / "server") as server:
            assert not port_is_closed(server.port)
            raise RuntimeError("mid-run failure")
    assert server.process.poll() is not None
    assert port_is_closed(server.port)
