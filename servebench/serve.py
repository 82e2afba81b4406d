"""Closed-loop serving passes, their checks, and the metrics they yield.

One client drives :class:`~repro.service.batch.BatchQueryService` over a
request stream: each request is one ``service.run(batch)`` call, and the
next is sent only after the previous one returned and its answers were
checked.  Only the ``service.run`` call is timed.  Every pass serves the
whole stream on a graph and service built cold for it, so no memo
survives from one pass to the next.  Dispatch is serial (two engines on
the calling thread): layer times then re-add to the request wall.

Right after each request of an untraced pass, :mod:`calibrate`'s probe
is timed, and the request's wall is scaled by the host speed the probes
around it show.  A run repeats the pass and reports, for each request,
the median of its scaled walls over the passes.  Each pass does exactly
the same work, so the median removes what scaling leaves of the short
slowdowns a shared host adds at random.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field

from repro.baselines.join import Join
from repro.core.validation import validate_paths
from repro.service.batch import BatchQueryService
from repro.service.metrics import MetricsTimeline

import layers
from calibrate import local_medians, probe_ns
from layers import LayerTracer, is_pristine

#: engines per service; served in order on the calling thread.
ENGINES = 2
#: set-ups per run at the least, for the median ``setup_s``.
MIN_SETUPS = 9
#: passes per run at the least: every request is timed this often.
MIN_PASSES = 3


@dataclass
class Setup:
    """A cold graph and service, with the time each step took."""

    graph: object
    service: BatchQueryService
    build_s: float
    construct_s: float
    reverse_s: float
    #: the host-speed probes timed right before and after.
    probes_ns: tuple = ()

    @property
    def total_s(self) -> float:
        return self.build_s + self.construct_s + self.reverse_s


def set_up(workload) -> Setup:
    """Build the graph, construct the service and warm its cache.

    As before a pass, the heap is collected and frozen first, so that
    collections during set-up scan only what set-up allocates, however
    much the run holds by then."""
    gc.collect()
    gc.freeze()
    try:
        t0 = time.perf_counter()
        graph = workload.build_graph()
        t1 = time.perf_counter()
        service = BatchQueryService(graph, num_engines=ENGINES,
                                    use_threads=False,
                                    **workload.service_kwargs)
        t2 = time.perf_counter()
        service.cache.warm(graph)
        t3 = time.perf_counter()
    finally:
        gc.unfreeze()
    return Setup(graph, service, t1 - t0, t2 - t1, t3 - t2)


def answer_digest(report) -> str:
    """Order-free digest of one query's answer."""
    h = hashlib.blake2b(digest_size=16)
    q = report.query
    h.update(repr((q.source, q.target, q.max_hops, report.truncated,
                   sorted(report.paths))).encode())
    return h.hexdigest()


@dataclass
class PassResult:
    """What one pass over the request stream measured and found."""

    #: wall of each request, in stream order (``None`` if it raised).
    walls_ns: list[int | None] = field(default_factory=list)
    #: host-speed probe timed right after each request (untraced only).
    probes_ns: list[int] = field(default_factory=list)
    queries: int = 0
    failed: int = 0
    #: answer digest per query, in stream order (``None`` if it failed).
    digests: list[str | None] = field(default_factory=list)
    device_cycles: int = 0
    modelled_T_s: float = 0.0
    makespan_s: float = 0.0
    cache_stats: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    # traced passes only
    layer_ns: Counter = field(default_factory=Counter)
    other_ns: int = 0
    engine_runs: list = field(default_factory=list)
    subgraph_edges: list[int] = field(default_factory=list)

    @property
    def wall_ns(self) -> int:
        return sum(w for w in self.walls_ns if w is not None)

    def modelled(self) -> tuple:
        return (self.device_cycles, self.modelled_T_s, self.makespan_s)

    def scaled_walls_ns(self, probe_reference_ns: float | None) -> list:
        """Each request's wall at the host speed at which the probe takes
        ``probe_reference_ns``, judged by the probes around the request;
        the raw walls if ``probe_reference_ns`` is ``None``."""
        if probe_reference_ns is None:
            return list(self.walls_ns)
        return [None if w is None else w * probe_reference_ns / speed
                for w, speed in zip(self.walls_ns,
                                    local_medians(self.probes_ns))]


class _EdgeSet:
    """A graph's edges as a set: the ``has_edge`` that
    :func:`validate_paths` needs, at hash-lookup cost."""

    def __init__(self, graph) -> None:
        indptr = graph.indptr.tolist()
        indices = graph.indices.tolist()
        self._edges = {
            (u, v)
            for u in range(len(indptr) - 1)
            for v in indices[indptr[u]:indptr[u + 1]]
        }

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self._edges


class AnswerChecker:
    """Checks every answer of a pass.

    The first pass validates each distinct query's answer (simple paths,
    within ``k`` hops, right endpoints, real edges) and compares a fixed
    subset of queries path for path against the JOIN CPU baseline.
    Later passes must reproduce the first pass's digests exactly.
    """

    def __init__(self, workload, pool) -> None:
        self.join_keys = {
            (q.source, q.target, q.max_hops)
            for q in pool[::workload.join_stride]
        }
        self.distinct = len({(q.source, q.target, q.max_hops)
                             for q in pool})
        self._join = Join()
        self._edges = None
        #: (s, t, k) -> digest of the answer that passed every check.
        self._checked: dict[tuple, str] = {}

    def check_first(self, graph, report, digest: str) -> bool:
        q = report.query
        key = (q.source, q.target, q.max_hops)
        if key in self._checked:
            return self._checked[key] == digest
        if report.truncated:
            return False
        if self._edges is None:
            self._edges = _EdgeSet(graph)
        if not validate_paths(self._edges, q, report.paths).ok:
            return False
        if key in self.join_keys:
            expected = self._join.enumerate_paths(graph, q).paths
            if set(map(tuple, expected)) != set(map(tuple, report.paths)):
                return False
        self._checked[key] = digest
        return True


def serve_pass(workload, setup: Setup, requests, checker: AnswerChecker,
               reference: PassResult | None = None,
               tracer: LayerTracer | None = None,
               probe: bool = False) -> PassResult:
    """Serve every request once and check every answer; with ``probe``,
    time the host-speed probe right after each request."""
    out = PassResult()
    service = setup.service
    timeline = MetricsTimeline() if workload.observed else None
    run_kwargs = {"profile": True, "timeline": timeline} \
        if workload.observed else {}
    if tracer is not None:
        tracer.install(
            service, timeline,
            on_engine_run=lambda r: out.engine_runs.append(
                (r.cycles, len(r.paths), r.stats)),
            on_pre_bfs=lambda p: out.subgraph_edges.append(
                p.subgraph.num_edges),
        )
    elif not is_pristine(service, timeline):
        raise RuntimeError("layer wrappers are active in an untraced pass")
    # Freeze what exists before the pass (the harness, the pool, the
    # cold graph and service) so that collections during the pass scan
    # only what the program allocates while serving.
    gc.collect()
    gc.freeze()
    clock = time.perf_counter_ns
    try:
        for batch in requests:
            pos = out.queries
            out.queries += len(batch)
            try:
                start = clock()
                report = service.run(batch, **run_kwargs)
                wall = clock() - start
            except Exception:
                if probe:
                    out.probes_ns.append(probe_ns())
                traceback.print_exc()
                if tracer is not None:
                    tracer.take_request()
                out.walls_ns.append(None)
                out.failed += len(batch)
                out.digests += [None] * len(batch)
                continue
            out.walls_ns.append(wall)
            if probe:
                out.probes_ns.append(probe_ns())
            if tracer is not None:
                spent = tracer.take_request()
                other = wall - sum(spent.values())
                if other < 0:
                    out.problems.append(
                        f"layer self times exceed the request wall by "
                        f"{-other} ns")
                out.other_ns += other
            out.device_cycles += sum(r.fpga_cycles for r in report.reports)
            out.modelled_T_s += sum(r.total_seconds for r in report.reports)
            out.makespan_s += report.makespan_seconds
            for i, (query, r) in enumerate(zip(batch, report.reports)):
                digest = answer_digest(r)
                if reference is None:
                    ok = r.query == query and checker.check_first(
                        setup.graph, r, digest)
                else:
                    ok = digest == reference.digests[pos + i]
                out.digests.append(digest if ok else None)
                out.failed += not ok
            if len(report.reports) != len(batch):
                out.failed += len(batch) - len(report.reports)
                out.digests += [None] * (len(batch) - len(report.reports))
    finally:
        gc.unfreeze()
        if tracer is not None:
            tracer.restore()
            out.layer_ns = tracer.total_ns
    if tracer is not None and not is_pristine(service, timeline):
        out.problems.append("layer wrappers were not restored")
    out.cache_stats = service.cache.stats()
    if not out.failed and out.cache_stats["prebfs_misses"] != \
            checker.distinct:
        out.problems.append(
            f"prebfs_misses {out.cache_stats['prebfs_misses']} != "
            f"{checker.distinct} distinct queries: a memo outlived its run")
    if reference is not None and out.modelled() != reference.modelled():
        out.problems.append(
            f"modelled totals {out.modelled()} differ from the first "
            f"pass's {reference.modelled()}")
    return out


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q: int) -> float:
    """The ``q``-th percentile, by ``statistics.quantiles`` (inclusive)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


@dataclass
class RunResult:
    """Everything one benchmark run measured."""

    setups: list[Setup]
    #: the untraced passes; the first one checked every answer and the
    #: others reproduced its answers and modelled totals exactly.
    passes: list[PassResult]
    peak_rss_mb: float
    traced: PassResult | None = None

    @property
    def all_passes(self) -> list[PassResult]:
        return self.passes + ([self.traced] if self.traced else [])

    @property
    def attempted(self) -> int:
        return sum(p.queries for p in self.all_passes)

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.all_passes)

    @property
    def problems(self) -> list[str]:
        return [msg for p in self.all_passes for msg in p.problems]

    @property
    def probe_ms(self) -> float:
        """Median wall of the host-speed probe over the untraced passes."""
        return statistics.median(
            t for p in self.passes for t in p.probes_ns) / 1e6

    def request_walls_ns(self, probe_reference_ns: float | None) -> list:
        """Each request's median wall over the untraced passes, scaled as
        :meth:`PassResult.scaled_walls_ns` scales it."""
        return [statistics.median(ok) for walls in zip(
                    *(p.scaled_walls_ns(probe_reference_ns)
                      for p in self.passes))
                if (ok := [w for w in walls if w is not None])]


def run(workload, pool, requests, seconds: float,
        trace: bool) -> RunResult:
    """Serve the stream at least :data:`MIN_PASSES` times and until
    ``seconds`` of request wall are measured, then, with ``trace``, once
    more through the layer tracer."""
    checker = AnswerChecker(workload, pool)
    setups: list[Setup] = []

    def fresh() -> Setup:
        # Only the newest service stays alive, so memos never pile up.
        if setups:
            setups[-1].service = setups[-1].graph = None
        before = probe_ns()
        setups.append(set_up(workload))
        setups[-1].probes_ns = (before, probe_ns())
        return setups[-1]

    passes = [serve_pass(workload, fresh(), requests, checker,
                         probe=True)]
    while (len(passes) < MIN_PASSES
           or sum(p.wall_ns for p in passes) < seconds * 1e9):
        passes.append(serve_pass(workload, fresh(), requests, checker,
                                 reference=passes[0], probe=True))
    while len(setups) < MIN_SETUPS:
        fresh()
    result = RunResult(setups, passes, peak_rss_mb())
    if trace:
        result.traced = serve_pass(workload, fresh(), requests, checker,
                                   reference=passes[0],
                                   tracer=LayerTracer())
    setups[-1].service = setups[-1].graph = None
    return result


# -- metrics -------------------------------------------------------------

def end_to_end(result: RunResult, probe_reference_ms: float,
               scaled: bool = True) -> dict[str, float]:
    """The end-to-end metrics; with ``scaled``, host times are scaled to
    the host speed at which the probe took ``probe_reference_ms``: each
    request wall by the probes around it, the median set-up by the
    median of the probes around every set-up (a set-up is too short for
    its own two probes to judge the host speed steadily)."""
    reference_ns = probe_reference_ms * 1e6 if scaled else None
    walls = result.request_walls_ns(reference_ns)
    setup_speed = reference_ns / statistics.median(
        t for s in result.setups for t in s.probes_ns) if scaled else 1.0
    first = result.passes[0]
    return {
        "setup_s":
            statistics.median(s.total_s for s in result.setups)
            * setup_speed,
        "queries_per_s": first.queries / (sum(walls) / 1e9),
        "request_p50_ms": statistics.median(walls) / 1e6,
        "request_p90_ms": percentile(walls, 90) / 1e6,
        "peak_rss_mb": result.peak_rss_mb,
        "success_rate": 1.0 - result.failed / result.attempted,
        "device_cycles": first.device_cycles,
        "modelled_T_s": first.modelled_T_s,
        "modelled_makespan_s": first.makespan_s,
    }


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer(result: RunResult, pool) -> dict[str, float]:
    traced = result.traced
    untraced_wall = statistics.median(p.wall_ns for p in result.passes)
    stats = traced.cache_stats
    runs = traced.engine_runs
    engine_ns = traced.layer_ns[layers.ENGINE_RUN]
    kernel_cycles = sum(c for c, _, _ in runs)
    kernel_paths = sum(n for _, n, _ in runs)
    out = {
        "graph.build_s": statistics.median(s.build_s for s in result.setups),
        "graph.reverse_s":
            statistics.median(s.reverse_s for s in result.setups),
        "service.construct_s":
            statistics.median(s.construct_s for s in result.setups),
    }
    out.update({name: traced.layer_ns[name] / 1e9 for name in layers.LAYERS})
    out.update({
        "other_s": traced.other_ns / 1e9,
        "trace_overhead_frac": traced.wall_ns / untraced_wall - 1.0,
        "preprocess.pre_bfs_hit_ratio":
            _ratio(stats["prebfs_hits"], stats["prebfs_misses"]),
        "preprocess.forward_hit_ratio":
            _ratio(stats["forward_hits"], stats["forward_misses"]),
        "preprocess.subgraph_edges_mean":
            statistics.mean(traced.subgraph_edges)
            if traced.subgraph_edges else 0.0,
        "core.engine_runs": len(runs),
        "core.ns_per_cycle": engine_ns / kernel_cycles
        if kernel_cycles else 0.0,
        "core.ns_per_path": engine_ns / kernel_paths if kernel_paths else 0.0,
        "core.paths": kernel_paths,
        "core.batches": sum(s.batches for _, _, s in runs),
        "fpga.flushes": sum(s.flushes for _, _, s in runs),
        "fpga.peak_buffer_paths":
            max((s.peak_buffer_paths for _, _, s in runs), default=0),
        "fpga.inter_pe_messages": sum(s.inter_pe_messages for _, _, s in runs),
        "fpga.inter_pe_cycles": sum(
            s.inter_pe_route_cycles + s.inter_pe_arbiter_cycles
            + s.inter_pe_stall_cycles + s.inter_pe_barrier_cycles
            for _, _, s in runs),
        "service.result_hit_ratio":
            _ratio(stats["result_hits"], stats["result_misses"]),
        # The service's report counters are cumulative over its cache.
        "service.deduped_queries": stats["result_hits"],
        "service.shared_frontiers": stats["forward_hits"],
        "workloads.dup_frac": 1.0 - len(
            {(q.source, q.target, q.max_hops) for q in pool}) / len(pool),
        "workloads.same_source_frac":
            1.0 - len({q.source for q in pool}) / len(pool),
    })
    return out


def largest_layer(metrics: dict[str, float]) -> str:
    return max(layers.LAYERS, key=lambda name: metrics[name])


#: what each workload was chosen to stress, as a check on its traced run.
SHAPES = {
    "dense-rt-k4": ("core.engine_run_s is the largest layer",
                    lambda m: largest_layer(m) == layers.ENGINE_RUN),
    "sparse-wt-k3": ("preprocess.pre_bfs_s is the largest layer",
                     lambda m: largest_layer(m) == layers.PRE_BFS),
    "shared-rt-k4": ("workloads.dup_frac >= 0.4 and "
                     "service.result_hit_ratio > 0",
                     lambda m: m["workloads.dup_frac"] >= 0.4
                     and m["service.result_hit_ratio"] > 0),
    "multipe-se-k4": ("fpga.inter_pe_messages > 0",
                      lambda m: m["fpga.inter_pe_messages"] > 0),
}
