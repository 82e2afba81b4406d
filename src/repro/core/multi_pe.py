"""The PEFP driver: N processing elements in BSP lockstep, N >= 1.

:meth:`~repro.core.engine.PEFPEngine.run` always runs here; a single
PE is the degenerate case.  Each processing element owns a partition of
the vertex set (:mod:`repro.fpga.partition`) and runs the vectorised
kernel step (:meth:`~repro.core.engine.PEFPEngine._pe_steps`) over the
frontier records whose tail vertex it owns, on its own
:class:`~repro.fpga.device.Device` (private BRAM banks, DRAM channel,
clock).  A path record produced with a tail owned by another PE crosses
the interconnect (:mod:`repro.fpga.interconnect`) instead of entering
the local buffer.

Superstep model (BSP lockstep)
------------------------------
Each iteration of the global loop is one *superstep*:

1. every PE takes exactly one kernel step — drain its input FIFO into
   the buffer area, then run one refill or one processing batch on its
   local clock;
2. remote records route through per-destination FIFOs behind a
   round-robin arbiter; destinations drain in parallel, so the routing
   charge is the max over destination FIFOs;
3. a barrier sync joins the PEs.

The global clock advances by ``max(PE step deltas) + routing + barrier``
— the slowest PE holds the superstep, the rest overlap under it.  The
:class:`~repro.fpga.profile.DeviceProfiler` records the *critical*
(slowest, ties to the lowest index) PE's batch or refill event plus one
``inter_pe`` event per superstep boundary, so
``DeviceProfile.accounted_cycles == total_cycles`` holds exactly.

With one PE there is no partition lookup, routing and barrier charges
are zero, and each superstep is one refill or batch of the kernel, whose
charges equal the reference loop's (:mod:`repro.core.engine_reference`)
byte for byte — ``docs/TIMING_MODEL.md`` §5 and §6 give the argument.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.cache import CachedArray
from repro.core.config import QueryBudget
from repro.core.engine import EngineRunResult, EngineStats
from repro.core.paths import BufferArea, DramArea, PathRecord, record_words
from repro.errors import QueryError
from repro.fpga.device import Device, MultiPEDevice
from repro.fpga.interconnect import RoundRobinArbiter, barrier_sync_cycles
from repro.fpga.partition import VertexPartitioner
from repro.fpga.profile import BATCH_STAGES, DeviceProfiler
from repro.graph.csr import CSRGraph
from repro.observability.analysis import split_batch_cycles


#: the per-PE :class:`EngineStats` counters a merge adds up.
_SUMMED_STATS = ("batches", "expansions", "results", "intermediate_paths",
                 "rejected_target", "rejected_barrier", "rejected_visited",
                 "flushes", "flushed_paths", "refills", "refilled_paths")


class _MergedCounters:
    """Summed :class:`CachedArray` counters across PEs, for the profiler."""

    def __init__(self, label: str, arrays) -> None:
        self.label = label
        self._arrays = arrays

    def counters(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for arr in self._arrays:
            for key, value in arr.counters().items():
                out[key] = out.get(key, 0) + value
        return out


def _allocate_pe(engine, graph: CSRGraph, barrier: np.ndarray,
                 rec_w: int) -> tuple:
    """One PE's ``(device, stats, buffer, dram_area, cached_arrays)``.

    Capacities are per pipeline, so every PE makes the same static
    allocations and keeps the full CSR (replicated per DRAM channel, as
    in multi-channel BFS accelerators) with the same BRAM prefix
    budgets; ownership only controls which PE *expands* a record.
    """
    cfg = engine.config
    device = Device(engine.device_config)
    bram, dram = device.bram, device.dram
    stats = EngineStats()
    bram.allocate(cfg.theta2 * (rec_w + 2), "processing_area")
    if cfg.use_cache:
        bram.allocate(cfg.buffer_capacity_paths * rec_w, "buffer_area")
        buffer = BufferArea(cfg.buffer_capacity_paths)
    else:
        # Buffer stack lives in DRAM: unbounded, every touch off-chip.
        buffer = BufferArea(2**62)
        stats.buffer_domain = "dram"
    vertex_budget = min(len(graph.indptr), cfg.graph_cache_words)
    edge_budget = max(0, cfg.graph_cache_words - vertex_budget)
    arrays = (
        CachedArray(graph.indptr, bram, dram, vertex_budget, "vertex_arr",
                    enabled=cfg.use_cache),
        CachedArray(graph.indices, bram, dram, edge_budget, "edge_arr",
                    enabled=cfg.use_cache),
        CachedArray(barrier, bram, dram, cfg.barrier_cache_words, "bar_arr",
                    enabled=cfg.use_cache),
    )
    return device, stats, buffer, DramArea(), arrays


def run_multi_pe(
    engine,
    graph: CSRGraph,
    source: int,
    target: int,
    max_hops: int,
    barrier: np.ndarray,
    on_result=None,
    collect_paths: bool = True,
    budget: QueryBudget | None = None,
    tracer=None,
    profile: bool = False,
) -> EngineRunResult:
    """Enumerate all s-t k-paths across ``num_pes`` lockstep pipelines.

    Same contract as :meth:`PEFPEngine.run`; the path *set* is identical
    for every PE count (enumeration order may differ for N > 1 because
    partitioning reorders the shared frontier).
    """
    if not 0 <= source < graph.num_vertices:
        raise QueryError(f"source {source} not in graph")
    if not 0 <= target < graph.num_vertices:
        raise QueryError(f"target {target} not in graph")
    if source == target:
        raise QueryError("source equals target")
    if max_hops < 1:
        raise QueryError(f"hop constraint must be >= 1, got {max_hops}")
    if len(barrier) != graph.num_vertices:
        raise QueryError("barrier array size does not match graph")
    # A simple path has at most |V| - 1 edges, so the path-record width
    # (and every hop comparison) can be clamped without changing the
    # answer; this keeps huge user-supplied k from inflating BRAM needs.
    max_hops = min(max_hops, graph.num_vertices - 1)

    dcfg = engine.device_config
    num_pes = dcfg.num_pes
    frequency = dcfg.frequency_hz
    rec_w = record_words(max_hops)

    owners = None
    if num_pes > 1:
        owners = VertexPartitioner(graph.num_vertices, num_pes,
                                   dcfg.pe_partition).owners.tolist()
        arbiter = RoundRobinArbiter(dcfg)
    barrier_cost = barrier_sync_cycles(dcfg)

    pes = [_allocate_pe(engine, graph, barrier, rec_w)
           for _ in range(num_pes)]
    profiler = DeviceProfiler() if profile else None
    timed = bool(tracer)
    observing = profiler is not None or timed
    max_results = budget.max_results if budget is not None else None
    max_cycles = budget.max_cycles if budget is not None else None
    truncated = False
    results: list[tuple[int, ...]] = []

    # --- seed: only the owner of `source` starts with work ------------
    setup_wall = time.perf_counter_ns() if timed else 0
    seed_device, _, seed_buffer, _, seed_arrays = pes[
        owners[source] if owners else 0]
    lo = seed_arrays[0].read(source)
    hi = seed_arrays[0].read(source + 1)
    if lo < hi:
        engine._charge_push(seed_device.bram, seed_device.dram, rec_w,
                            engine.config.use_cache)
        seed_buffer.push(PathRecord((source,), lo, hi))
    setup_cycles = seed_device.clock.cycles
    global_cycles = setup_cycles
    if profiler is not None:
        profiler.mark_setup(setup_cycles)
    if timed:
        tracer.complete("kernel_setup", setup_wall,
                        modelled_seconds=setup_cycles / frequency,
                        cycles=setup_cycles)

    inboxes: list[list] = [[] for _ in range(num_pes)]
    outboxes: list[list[list]] = [[[] for _ in range(num_pes)]
                                  for _ in range(num_pes)]
    steps = [
        engine._pe_steps(i, pe, graph, target, max_hops, barrier, owners,
                         inboxes[i], outboxes[i],
                         results if collect_paths else None, on_result,
                         observing, timed)
        for i, pe in enumerate(pes)
    ]
    for step in steps:
        step.send(None)  # run each kernel's setup up to its first step
    sends = [step.send for step in steps]
    # Shadow spans need every PE's step event, not just the critical one.
    shadow = timed and num_pes > 1
    events: list[tuple[int, tuple]] = []

    # --- superstep loop ------------------------------------------------
    busy = lo < hi
    room = max_results
    total_results = 0
    superstep = 0
    stats = EngineStats()  # interconnect counters (N > 1); PEs merge in
    while True:
        if max_cycles is not None and global_cycles >= max_cycles:
            truncated = busy
            break
        if not busy:
            break

        # Every PE takes one step; the slowest non-idle one is critical
        # and holds the superstep (ties resolve to the lowest index).
        busy = dropped_any = False
        crit = None
        crit_idx = crit_delta = -1
        for i, send in enumerate(sends):
            event = send(room)
            if event is None:
                continue
            _kind, delta, n_res, dropped, more, _wall0, _info = event
            if more:
                busy = True
            if n_res:
                total_results += n_res
                if max_results is not None:
                    room = max_results - total_results
            if dropped:
                dropped_any = True
            if delta > crit_delta:
                crit, crit_idx, crit_delta = event, i, delta
            if shadow:
                events.append((i, event))
        if crit is None:
            break  # defensive: `busy` guarantees a step ran
        global_cycles += crit_delta
        # Profile/trace: the critical PE's event is the superstep's
        # device event; interconnect + barrier charges get their own.
        if observing:
            kind, _, _, _, _, wall0, info = crit
            seconds = crit_delta / frequency
            if kind == "refill":
                if profiler is not None:
                    profiler.record_refill(crit_delta, info)
                if timed:
                    tracer.complete("refill", wall0, modelled_seconds=seconds,
                                    cycles=crit_delta, paths=info)
            else:
                if profiler is not None:
                    profiler.record_batch(info)
                if timed:
                    # The exact cycle split the attribution layer reads:
                    # busy + stall + overhead tiles the step's clock delta.
                    (entries, expansions, n_results, _, _, pipeline,
                     overhead, flush) = info[:8]
                    busy, stall, overhead, bound = split_batch_cycles(
                        pipeline, overhead, flush,
                        dict(zip(BATCH_STAGES, info[-len(BATCH_STAGES):])))
                    tracer.complete(
                        "batch", wall0, modelled_seconds=seconds,
                        entries=entries, expansions=expansions,
                        results=n_results, cycles=crit_delta,
                        busy_cycles=busy, stall_cycles=stall,
                        overhead_cycles=overhead, bound=bound,
                    )

        # One PE routes nothing and its barrier is free.
        if owners is not None:
            # Route foreign records through the per-destination FIFOs.
            # Destinations drain in parallel: the superstep pays the
            # slowest FIFO's charge (ties to the lowest destination).
            route_total = 0
            crit_charge = None
            step_messages = 0
            if any(map(any, outboxes)):
                for dest in range(num_pes):
                    queues = {src: outboxes[src][dest]
                              for src in range(num_pes) if src != dest}
                    if not any(queues.values()):
                        continue
                    delivered, charge = arbiter.merge(dest, queues)
                    inboxes[dest].extend(delivered)
                    step_messages += charge.messages
                    if charge.total > route_total:
                        route_total = charge.total
                        crit_charge = charge
                for outbox in outboxes:
                    for queue in outbox:
                        queue.clear()
                if step_messages:
                    busy = True
            inter_cycles = route_total + barrier_cost
            global_cycles += inter_cycles
            stats.inter_pe_messages += step_messages
            crit_route = crit_arbiter = crit_stall = 0
            if crit_charge is not None:
                crit_route = (crit_charge.hop_cycles
                              + crit_charge.stream_cycles)
                crit_arbiter = crit_charge.arbiter_cycles
                crit_stall = crit_charge.stall_cycles
            stats.inter_pe_route_cycles += crit_route
            stats.inter_pe_arbiter_cycles += crit_arbiter
            stats.inter_pe_stall_cycles += crit_stall
            stats.inter_pe_barrier_cycles += barrier_cost

            if observing:
                if inter_cycles and profiler is not None:
                    profiler.record_inter_pe(
                        superstep=superstep, cycles=inter_cycles,
                        messages=step_messages, route_cycles=crit_route,
                        arbiter_cycles=crit_arbiter, stall_cycles=crit_stall,
                        barrier_cycles=barrier_cost,
                    )
                if inter_cycles and timed:
                    tracer.complete(
                        "inter_pe", time.perf_counter_ns(),
                        modelled_seconds=inter_cycles / frequency,
                        cycles=inter_cycles, messages=step_messages,
                        barrier_cycles=barrier_cost,
                    )
                # Shadow spans: every non-idle PE's step on its own track.
                # Attribution folds only the critical batch / refill /
                # inter_pe spans above; these are for the timeline view.
                for i, (kind, delta, *_, wall0, _info) in events:
                    tracer.complete(
                        "pe_step", wall0,
                        modelled_seconds=delta / frequency,
                        track=f"pe{i}",
                        pe=i, kind=kind, cycles=delta,
                        critical=(i == crit_idx),
                    )
                events.clear()
            superstep += 1

        if max_results is not None and total_results >= max_results:
            truncated = dropped_any or busy
            break

    # --- merge per-PE state into the run result ------------------------
    for step in steps:
        step.close()  # folds the kernel's deferred counters
    if num_pes == 1:
        # nothing crossed the interconnect: the PE's stats are the run's
        device, stats, buffer, dram_area, cached = pes[0]
        stats.peak_buffer_paths = buffer.peak_occupancy
        stats.peak_dram_paths = dram_area.peak_occupancy
    else:
        _merge_stats(pes, stats)
        stats.add_stage_cycles(
            "inter_pe", stats.inter_pe_route_cycles
            + stats.inter_pe_arbiter_cycles + stats.inter_pe_stall_cycles
            + stats.inter_pe_barrier_cycles)
        device = MultiPEDevice(dcfg, [pe[0] for pe in pes])
        device.clock.advance(global_cycles)
        cached = tuple(
            _MergedCounters(label, [pe[4][k] for pe in pes])
            for k, label in enumerate(("vertex_arr", "edge_arr", "bar_arr"))
        )

    return EngineRunResult(
        paths=results,
        cycles=device.cycles,
        seconds=device.elapsed_seconds(),
        stats=stats,
        device=device,
        truncated=truncated,
        profile=(
            profiler.finish(
                device,
                cached,
                stats.peak_buffer_paths,
                stats.peak_dram_paths,
                verify_funnel={
                    "expansions": stats.expansions,
                    "rejected_target": stats.rejected_target,
                    "rejected_barrier": stats.rejected_barrier,
                    "rejected_visited": stats.rejected_visited,
                    "survivors": stats.intermediate_paths,
                },
                buffer_domain=stats.buffer_domain,
                num_pes=num_pes,
            )
            if profiler is not None else None
        ),
    )


def _merge_stats(pes: list[tuple], merged: EngineStats) -> None:
    """Sum the per-PE counters into ``merged``; peaks take the max."""
    merged.buffer_domain = pes[0][1].buffer_domain
    for _device, st, buffer, dram_area, _arrays in pes:
        for name in _SUMMED_STATS:
            setattr(merged, name, getattr(merged, name) + getattr(st, name))
        for name in ("new_paths_by_parent_length",
                     "expansions_by_parent_length", "stage_cycles"):
            into = getattr(merged, name)
            for key, value in getattr(st, name).items():
                into[key] = into.get(key, 0) + value
        merged.peak_buffer_paths = max(merged.peak_buffer_paths,
                                       buffer.peak_occupancy)
        merged.peak_dram_paths = max(merged.peak_dram_paths,
                                     dram_area.peak_occupancy)
