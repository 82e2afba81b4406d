"""Tests of the serving benchmark's own machinery.

Run from the repository root::

    PYTHONPATH=src python -m pytest servebench -q
"""

from __future__ import annotations

import json
import statistics
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
import layers  # noqa: E402
import run as cli  # noqa: E402
import serve  # noqa: E402
from layers import LayerTracer, is_pristine  # noqa: E402
from workloads import WORKLOADS, Workload, graph_digest, pool_digest  # noqa: E402

from repro.graph import generators  # noqa: E402
from repro.service.batch import BatchQueryService  # noqa: E402
from repro.workloads import generate_queries  # noqa: E402


class _Ticker:
    """A clock that advances one nanosecond per reading."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        self.now += 1
        return self.now


class _Leaf:
    def work(self) -> int:
        return 1


class _Outer:
    def __init__(self, leaf: _Leaf) -> None:
        self.leaf = leaf

    def call(self) -> int:
        return self.leaf.work() + self.leaf.work()


def test_self_times_telescope_to_the_outer_span():
    leaf = _Leaf()
    outer = _Outer(leaf)
    clock = _Ticker()
    tracer = LayerTracer(clock=clock)
    tracer.wrap_method(outer, "call", "outer")
    tracer.wrap_method(leaf, "work", "leaf")
    start = clock()
    assert outer.call() == 2
    wall = clock() - start
    spent = tracer.take_request()
    # Each leaf span reads the clock twice (1 ns); the outer span covers
    # both plus its own two readings.
    assert spent["leaf"] == 2
    assert spent["outer"] == 3
    assert 0 <= wall - sum(spent.values())
    assert tracer.take_request() == {}
    assert tracer.total_ns == {"leaf": 2, "outer": 3}
    tracer.restore()
    assert "call" not in vars(outer) and "work" not in vars(leaf)


def test_wrappers_are_thread_safe():
    leaf = _Leaf()
    tracer = LayerTracer()
    tracer.wrap_method(leaf, "work", "leaf")
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(
            target=lambda: [leaf.work() for _ in range(2_000)])
            for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(switch)
        tracer.restore()
    assert tracer.calls["leaf"] == 16_000
    assert tracer.take_request()["leaf"] >= 0


def _small_service(**kwargs):
    graph = generators.chung_lu(120, 900, exponent=2.3, seed=5)
    service = BatchQueryService(graph, num_engines=2, use_threads=False,
                                **kwargs)
    service.cache.warm(graph)
    return graph, service


@pytest.mark.parametrize("observed", [False, True])
def test_traced_requests_re_add_and_wrappers_are_restored(observed):
    from repro.service.metrics import MetricsTimeline

    graph, service = _small_service(sharing=observed)
    _, plain = _small_service(sharing=observed)
    queries = generate_queries(graph, 4, 12, seed=3)
    batches = [queries[i:i + 4] for i in range(0, len(queries), 4)]

    def kwargs(timeline):
        return {"profile": True, "timeline": timeline} if observed else {}

    plain_timeline = MetricsTimeline() if observed else None
    expected = [plain.run(b, **kwargs(plain_timeline)).path_output_bytes()
                for b in batches]

    timeline = MetricsTimeline() if observed else None
    tracer = LayerTracer()
    tracer.install(service, timeline)
    assert not is_pristine(service, timeline)
    answers = []
    try:
        for batch in batches:
            start = serve.time.perf_counter_ns()
            report = service.run(batch, **kwargs(timeline))
            wall = serve.time.perf_counter_ns() - start
            answers.append(report.path_output_bytes())
            spent = tracer.take_request()
            assert spent[layers.SERVICE_RUN] > 0
            assert spent[layers.ENGINE_RUN] > 0
            other = wall - sum(spent.values())
            assert other >= 0
            if observed:
                assert spent[layers.ATTRIBUTION] > 0
                assert spent[layers.PROFILE_RECORD] > 0
                assert spent[layers.TIMELINE] > 0
    finally:
        tracer.restore()
    assert is_pristine(service, timeline)
    assert set(tracer.total_ns) <= set(layers.LAYERS)
    assert answers == expected


def test_install_failure_restores_everything():
    _, service = _small_service()
    tracer = LayerTracer()
    broken = object.__new__(BatchQueryService)
    broken.__dict__.update(vars(service))
    # An engine without ``run``: installing fails half way through.
    broken.systems = [SimpleNamespace(execute=lambda: None,
                                      engine=SimpleNamespace())]
    with pytest.raises(AttributeError):
        tracer.install(broken)
    assert is_pristine(service)


def _tiny(name="tiny") -> Workload:
    return Workload(name, "rt", 3, per_request=2, requests=6,
                    join_stride=2)


def test_run_checks_answers_and_gates_memo_reuse(monkeypatch):
    monkeypatch.setattr(serve, "MIN_SETUPS", 2)
    workload = _tiny()
    graph = workload.build_graph()
    pool = workload.pool(graph, 7)
    requests = workload.requests_for(pool, 1)
    result = serve.run(workload, pool, requests, seconds=0.0, trace=True)
    assert result.failed == 0 and not result.problems
    assert len(result.passes) == serve.MIN_PASSES
    assert result.attempted == (serve.MIN_PASSES + 1) * workload.pool_size
    checked = result.passes[0]
    for p in result.passes[1:] + [result.traced]:
        assert p.modelled() == checked.modelled()
        assert p.digests == checked.digests
    for p in result.passes:
        assert len(p.probes_ns) == len(p.walls_ns) == workload.requests
    assert result.traced.probes_ns == []
    raw_walls = result.request_walls_ns(None)
    assert raw_walls == [statistics.median(w) for w in zip(
        *(p.walls_ns for p in result.passes))]
    values = serve.per_layer(result, pool)
    assert values["other_s"] >= 0
    assert values["core.engine_runs"] > 0
    assert result.probe_ms > 0
    raw = serve.end_to_end(result, 1.0, scaled=False)
    assert raw["request_p50_ms"] == statistics.median(raw_walls) / 1e6
    once = serve.end_to_end(result, result.probe_ms)
    twice = serve.end_to_end(result, 2 * result.probe_ms)
    assert raw["success_rate"] == twice["success_rate"] == 1.0
    assert raw["device_cycles"] == twice["device_cycles"] > 0
    for name in ("setup_s", "request_p50_ms", "request_p90_ms"):
        assert twice[name] == pytest.approx(2 * once[name])
    assert twice["queries_per_s"] == pytest.approx(
        once["queries_per_s"] / 2)


def test_each_wall_is_scaled_by_the_probes_around_it():
    assert calibrate.local_medians([5, 1, 9, 3, 7], window=1) == \
        [3, 5, 3, 7, 5]
    assert calibrate.local_medians([4, 8, 6], window=2) == [6, 6, 6]
    p = serve.PassResult(walls_ns=[10, None, 30, 40, 50],
                         probes_ns=[2, 2, 4, 4, 4])
    assert p.scaled_walls_ns(None) == p.walls_ns
    assert p.scaled_walls_ns(4) == [20, None, 30, 40, 50]


def test_every_workload_times_enough_requests_for_its_p90():
    for workload in WORKLOADS.values():
        assert workload.requests >= 100


def test_request_streams_are_seeded_permutations_of_the_pool():
    workload = _tiny()
    pool = workload.pool(workload.build_graph(), 7)
    a = workload.requests_for(pool, 1)
    assert a == workload.requests_for(pool, 1)
    b = workload.requests_for(pool, 2)
    flat = sorted((q.source, q.target) for r in a for q in r)
    assert flat == sorted((q.source, q.target) for r in b for q in r)
    assert all(len(r) == workload.per_request for r in a)


def test_recorded_digests_match_the_default_pools():
    recorded = json.loads(cli.RECORDED.read_text())
    seed = recorded["default_pool_seed"]
    for name in ("dense-rt-k4", "shared-rt-k4", "multipe-se-k4"):
        workload = WORKLOADS[name]
        pins = recorded["workloads"][name]
        graph = workload.build_graph()
        assert graph_digest(graph) == pins["graph_sha256"]
        assert pool_digest(workload.pool(graph, seed)) == \
            pins["pool_sha256"][str(seed)]


def test_benchmark_json_lists_what_the_benchmark_reports():
    doc = json.loads((cli.HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == \
        list(cli.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == \
        list(cli.PER_LAYER)


def test_changed_inputs_are_refused(monkeypatch, tmp_path, capsys):
    recorded = json.loads(cli.RECORDED.read_text())
    recorded["workloads"]["multipe-se-k4"]["graph_sha256"] = "0" * 64
    edited = tmp_path / "recorded.json"
    edited.write_text(json.dumps(recorded))
    monkeypatch.setattr(cli, "RECORDED", edited)
    code = cli.main(["--workload", "multipe-se-k4", "--seconds", "0"])
    assert code == 3
    assert "refusing to run" in capsys.readouterr().err


def test_missing_program_source_fails(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "SRC", tmp_path / "src")
    assert cli.main(["--workload", "dense-rt-k4"]) == 2
    assert capsys.readouterr().out == ""
