"""Serving benchmark: four query mixes, timed end to end and by layer.

Run from the repository root::

    python3 servebench/run.py --workload dense-rt-k4 --seed 1 \\
        --seconds 16 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (it adds one traced pass after the untraced ones).  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--record`` rewrites ``recorded.json``: the
input digests and each workload's measured layer split.

The run refuses to start (exit code 3) when a dataset recipe or query
generator under ``src/`` no longer produces the recorded inputs, and
exits with code 2 when the program's source is missing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RECORDED = HERE / "recorded.json"

#: (name, unit) of every metric, in print order.
END_TO_END = (
    ("setup_s", "s"), ("queries_per_s", "q/s"), ("request_p50_ms", "ms"),
    ("request_p90_ms", "ms"), ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"), ("device_cycles", "cycles"),
    ("modelled_T_s", "s"), ("modelled_makespan_s", "s"),
)
PER_LAYER = (
    ("graph.build_s", "s"), ("graph.reverse_s", "s"),
    ("service.construct_s", "s"), ("preprocess.pre_bfs_s", "s"),
    ("preprocess.pre_bfs_hit_ratio", "ratio"),
    ("preprocess.forward_hit_ratio", "ratio"),
    ("preprocess.translate_s", "s"),
    ("preprocess.subgraph_edges_mean", "edges"),
    ("core.engine_run_s", "s"), ("core.engine_runs", "count"),
    ("core.ns_per_cycle", "ns/cycle"), ("core.ns_per_path", "ns/path"),
    ("core.paths", "count"), ("core.batches", "count"),
    ("fpga.flushes", "count"), ("fpga.peak_buffer_paths", "count"),
    ("fpga.inter_pe_messages", "count"), ("fpga.inter_pe_cycles", "cycles"),
    ("fpga.profile_record_s", "s"), ("host.execute_s", "s"),
    ("service.run_self_s", "s"), ("service.metrics_s", "s"),
    ("service.result_hit_ratio", "ratio"),
    ("service.deduped_queries", "count"),
    ("service.shared_frontiers", "count"),
    ("observability.attribution_s", "s"), ("observability.timeline_s", "s"),
    ("other_s", "s"), ("trace_overhead_frac", "ratio"),
    ("workloads.dup_frac", "ratio"), ("workloads.same_source_frac", "ratio"),
)


class InputsChanged(Exception):
    """A workload's inputs no longer match the recorded digests."""


def prepare(workload, pool_seed: int, recorded: dict):
    """Build the pool on a graph of its own and check both digests."""
    from workloads import graph_digest, pool_digest

    graph = workload.build_graph()
    pins = recorded.get("workloads", {}).get(workload.name)
    if pins is None:
        raise InputsChanged(f"{workload.name}: no recorded digests")
    if graph_digest(graph) != pins["graph_sha256"]:
        raise InputsChanged(
            f"{workload.name}: the {workload.dataset!r} recipe builds a "
            f"different graph than the recorded one")
    pool = workload.pool(graph, pool_seed)
    pinned = pins["pool_sha256"].get(str(pool_seed))
    if pinned is None:
        print(f"note: pool seed {pool_seed} is not recorded; its inputs "
              f"are not pinned", file=sys.stderr)
    elif pool_digest(pool) != pinned:
        raise InputsChanged(
            f"{workload.name}: the query generator draws a different pool "
            f"for seed {pool_seed} than the recorded one")
    return pool


def report(workload, pool, result, trace: bool,
           probe_reference_ms: float) -> dict:
    """Print the human-readable table; return the JSON result."""
    import serve

    print(f"{workload.name}: {len(result.passes)} passes of "
          f"{len(result.passes[0].walls_ns)} requests (each request's "
          f"median scaled wall is reported), {result.attempted} queries "
          f"served, "
          f"{len(result.setups)} set-ups; host-speed probe "
          f"{result.probe_ms:.3f} ms against {probe_reference_ms:.3f} ms "
          f"recorded")
    if trace:
        values = serve.per_layer(result, pool)
        spec = PER_LAYER
        for name, unit in spec:
            print(f"  {name:34s} {values[name]:>18.6g} {unit}")
    else:
        values = serve.end_to_end(result, probe_reference_ms)
        raw = serve.end_to_end(result, probe_reference_ms, scaled=False)
        spec = END_TO_END
        print(f"  {'metric':34s} {'reported':>18s} {'raw host wall':>18s}")
        for name, unit in spec:
            print(f"  {name:34s} {values[name]:>18.6g} "
                  f"{raw[name]:>18.6g} {unit}")
    if trace:
        wall = result.traced.wall_ns / 1e9
        split = {name: values[name] / wall
                 for name in serve.layers.LAYERS + ("other_s",)}
        print("  layer split of the traced wall: " + ", ".join(
            f"{name} {share:.1%}" for name, share in split.items()
            if share >= 0.005))
        rule, holds = serve.SHAPES[workload.name]
        if not holds(values):
            print(f"warning: {workload.name} no longer has the shape it "
                  f"was chosen for ({rule})", file=sys.stderr)
    problems = result.problems
    for msg in problems:
        print(f"error: {msg}", file=sys.stderr)
    return {
        "correct": result.failed == 0 and not problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in spec},
    }


def record(recorded: dict, seconds: float) -> dict:
    """Digests of every workload's inputs and its traced layer split.

    The host-speed probe's reference time is the unit that host times
    are reported in, so it is measured only when none is recorded yet:
    a new one would rescale every host time against earlier runs."""
    import calibrate
    import serve
    from workloads import WORKLOADS, graph_digest, pool_digest

    out = {key: recorded[key]
           for key in ("default_pool_seed", "held_out_pool_seed")}
    out["probe_reference_ms"] = recorded.get("probe_reference_ms") or round(
        statistics.median(calibrate.probe_ns() for _ in range(2000)) / 1e6,
        4)
    out["workloads"] = {}
    for workload in WORKLOADS.values():
        graph = workload.build_graph()
        pins = {
            "graph_sha256": graph_digest(graph),
            "pool_sha256": {
                str(s): pool_digest(workload.pool(graph, s))
                for s in (out["default_pool_seed"],
                          out["held_out_pool_seed"])
            },
        }
        out["workloads"][workload.name] = pins
        pool = workload.pool(graph, out["default_pool_seed"])
        result = serve.run(workload, pool, workload.requests_for(pool, 1),
                           seconds, trace=True)
        values = serve.per_layer(result, pool)
        wall = result.traced.wall_ns / 1e9
        pins["layer_split"] = {
            name: round(values[name] / wall, 4)
            for name in serve.layers.LAYERS + ("other_s",)
        }
        print(workload.name, pins["layer_split"], file=sys.stderr)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1,
                        help="orders and groups the pool into requests")
    parser.add_argument("--pool-seed", type=int, default=None,
                        help="draws the query pool (default: the recorded "
                             "default pool seed)")
    parser.add_argument("--seconds", type=float, default=16.0,
                        help="request wall to measure (whole passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite recorded.json and exit")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"servebench: program source not found at {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    recorded = json.loads(RECORDED.read_text())
    if args.record:
        RECORDED.write_text(
            json.dumps(record(recorded, args.seconds), indent=2) + "\n")
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    pool_seed = (recorded["default_pool_seed"] if args.pool_seed is None
                 else args.pool_seed)
    try:
        pool = prepare(workload, pool_seed, recorded)
    except InputsChanged as exc:
        print(f"servebench: refusing to run: {exc}; if the change is "
              f"intended, rerun with --record and commit recorded.json",
              file=sys.stderr)
        return 3
    import serve

    result = serve.run(workload, pool, workload.requests_for(pool, args.seed),
                       args.seconds, bool(args.trace))
    print(json.dumps(report(workload, pool, result, bool(args.trace),
                            recorded["probe_reference_ms"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
