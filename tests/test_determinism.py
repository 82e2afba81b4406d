"""Determinism regression: same seed + queries => byte-identical answers.

``ServiceBatchReport.path_output_bytes()`` canonicalises a batch's
answers (sorted paths, sorted keys, compact JSON); these tests pin the
contract that those bytes depend only on the graph and the query batch —
not on the backend, the scheduler, the worker count, thread timing, or
which engines a seeded fault-injection plan kills.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import ServiceError
from repro.graph import generators as G
from repro.host.query import Query
from repro.service import BatchQueryService, MetricsTimeline


def make_batch(seed=4, count=12):
    graph = G.chung_lu(55, 280, seed=40)
    rng = random.Random(seed)
    n = graph.num_vertices
    queries = []
    while len(queries) < count:
        s, t = rng.randrange(n), rng.randrange(n)
        if s != t:
            queries.append(Query(s, t, rng.randint(2, 5)))
    return graph, queries


def output_bytes(graph, queries, **kwargs):
    service = BatchQueryService(graph, **kwargs)
    try:
        return service.run(queries).path_output_bytes()
    finally:
        service.close()


#: every dispatch configuration that must agree byte for byte.
CONFIGS = [
    {"backend": "thread", "scheduler": "round-robin", "num_engines": 1},
    {"backend": "thread", "scheduler": "round-robin", "num_engines": 2},
    {"backend": "thread", "scheduler": "round-robin", "num_engines": 4},
    {"backend": "thread", "scheduler": "longest-first", "num_engines": 3},
    {"backend": "thread", "scheduler": "work-stealing", "num_engines": 3},
    {"backend": "thread", "scheduler": "round-robin", "num_engines": 2,
     "use_threads": False},
    {"backend": "process", "scheduler": "round-robin", "num_engines": 1},
    {"backend": "process", "scheduler": "round-robin", "num_engines": 2},
    {"backend": "process", "scheduler": "round-robin", "num_engines": 4},
    {"backend": "process", "scheduler": "longest-first", "num_engines": 3},
    {"backend": "process", "scheduler": "work-stealing", "num_engines": 4},
]


def _config_id(cfg):
    return "-".join(
        str(v) for k, v in sorted(cfg.items()) if k != "use_threads"
    ) + ("-serial" if not cfg.get("use_threads", True) else "")


@pytest.fixture(scope="module")
def reference_bytes():
    graph, queries = make_batch()
    return output_bytes(graph, queries, num_engines=1, use_threads=False)


@pytest.mark.parametrize("config", CONFIGS, ids=_config_id)
def test_byte_identical_across_configurations(config, reference_bytes):
    graph, queries = make_batch()
    assert output_bytes(graph, queries, **config) == reference_bytes


def test_byte_identical_across_repeated_runs():
    graph, queries = make_batch()
    first = output_bytes(graph, queries, num_engines=2, backend="process")
    for _ in range(2):
        again = output_bytes(graph, queries, num_engines=2,
                             backend="process")
        assert again == first


@pytest.mark.parametrize("scheduler", ["round-robin", "work-stealing"])
def test_byte_identical_under_seeded_fault_injection(scheduler,
                                                     reference_bytes):
    """A fixed --failure-seed kills the same engines after the same run
    counts on both backends; requeueing must not change a single byte."""
    graph, queries = make_batch()
    outs = {}
    for backend in ("thread", "process"):
        outs[backend] = output_bytes(
            graph, queries, num_engines=3, backend=backend,
            scheduler=scheduler, inject_failures=1, failure_seed=1234,
        )
    assert outs["thread"] == outs["process"] == reference_bytes


def test_failure_plan_is_reproducible_from_seed():
    graph, _ = make_batch()
    plans = [
        BatchQueryService(graph, num_engines=4, inject_failures=2,
                          failure_seed=99).failure_plan
        for _ in range(3)
    ]
    assert plans[0] == plans[1] == plans[2]
    assert len(plans[0]) == 2


def test_all_engines_failing_raises_on_both_backends():
    graph, queries = make_batch(count=6)
    for backend in ("thread", "process"):
        service = BatchQueryService(
            graph, num_engines=2, backend=backend, inject_failures=2,
        )
        try:
            with pytest.raises(ServiceError):
                service.run(queries)
        finally:
            service.close()


def test_path_output_bytes_is_canonical():
    """Bytes are stable JSON: key-sorted, path-sorted, ascii."""
    import json

    graph, queries = make_batch(count=5)
    service = BatchQueryService(graph, num_engines=2)
    report = service.run(queries)
    payload = json.loads(report.path_output_bytes())
    assert len(payload) == len(queries)
    for entry, query in zip(payload, queries):
        assert entry["source"] == query.source
        assert entry["target"] == query.target
        assert entry["max_hops"] == query.max_hops
        assert entry["paths"] == sorted(entry["paths"])
    # Round-tripping through dumps with the same options is the identity.
    assert json.dumps(
        payload, separators=(",", ":"), sort_keys=True
    ).encode() == report.path_output_bytes()


#: the three dispatch backends every scheduler must serve identically.
BACKEND_KWARGS = {
    "serial": {"backend": "thread", "use_threads": False},
    "thread": {"backend": "thread", "use_threads": True},
    "process": {"backend": "process"},
}


def _serve_report(graph, queries, timeline=None, **kwargs):
    service = BatchQueryService(graph, num_engines=3, **kwargs)
    try:
        return service.run(queries, timeline=timeline)
    finally:
        service.close()


@pytest.mark.parametrize("sharing", [False, True])
@pytest.mark.parametrize("scheduler", ["round-robin", "longest-first"])
def test_static_dispatch_parity_under_seeded_faults(scheduler, sharing):
    """Static schedulers plan, fail and requeue identically on every
    backend: the same engine dies after the same run count, so the
    failure and requeue counts and the planned assignment match."""
    graph, queries = make_batch()
    seen = {}
    for name, kwargs in BACKEND_KWARGS.items():
        report = _serve_report(
            graph, queries, scheduler=scheduler, sharing=sharing,
            inject_failures=1, failure_seed=1234, **kwargs,
        )
        seen[name] = (report.engine_failures, report.requeued_queries,
                      report.failed_engines, report.assignment)
    assert seen["serial"] == seen["thread"] == seen["process"]
    assert seen["serial"][0] == 1


@pytest.mark.parametrize("sharing", [False, True])
@pytest.mark.parametrize("scheduler", ["round-robin", "longest-first"])
def test_static_dispatch_parity_of_telemetry(scheduler, sharing):
    """Without faults every backend emits byte-identical telemetry,
    counters and per-engine modelled busy seconds."""
    graph, queries = make_batch()
    seen = {}
    for name, kwargs in BACKEND_KWARGS.items():
        timeline = MetricsTimeline()
        report = _serve_report(graph, queries, timeline=timeline,
                               scheduler=scheduler, sharing=sharing,
                               **kwargs)
        seen[name] = (timeline.canonical_bytes(),
                      report.metrics.snapshot()["counters"],
                      report.engine_host_seconds,
                      report.engine_device_seconds)
    assert seen["serial"] == seen["thread"] == seen["process"]


@pytest.mark.parametrize("sharing", [False, True])
@pytest.mark.parametrize("backend", ["thread", "process"])
def test_work_stealing_failure_counts_are_consistent(backend, sharing):
    """Under stealing, whether the victim engine gets any work depends
    on interleaving, so counts are not compared across backends; each
    run must still count one failure per retired engine and requeue
    work exactly when an engine failed."""
    graph, queries = make_batch()
    report = _serve_report(
        graph, queries, scheduler="work-stealing", sharing=sharing,
        inject_failures=1, failure_seed=1234, backend=backend,
    )
    assert report.engine_failures == len(report.failed_engines)
    assert (report.requeued_queries == 0) == (report.engine_failures == 0)
