"""The PEFP kernel (Algorithm 1) on the simulated device.

The engine is *functionally* a BFS-style expand-and-verify enumerator and
*temporally* a cycle-accounting model.  :meth:`PEFPEngine._pe_steps` is
one processing element's kernel, a generator of steps (drain the input
FIFO, then one Θ1 refill or one batch); :meth:`PEFPEngine.run` hands
every query to the BSP driver in :mod:`repro.core.multi_pe`, which runs
``DeviceConfig.num_pes`` such kernels in lockstep — one PE is the
degenerate case.  The three path areas and their interaction implement
Algorithms 1 and 3:

- **processing area** ``P'`` (BRAM): the batch of expansions in flight;
- **buffer area** ``P`` (BRAM): a stack of intermediate paths, flushed
  wholesale to DRAM when full;
- **memory area** ``P_D`` (DRAM): the overflow stack, refilled from its
  tail in blocks of Θ1.

Timing model
------------
Processing one batch is a dataflow region of five stages — batch load,
edge fetch, barrier fetch, verification, write-back — exactly the structure
the paper pipelines.  Stages overlap, so a batch costs

    ``max(stage cycles) .. bounded below by .. sum(DRAM cycles)``

plus a small fixed control overhead: on-chip stages run concurrently, but
all off-chip traffic serialises on the single modelled DRAM channel.
Buffer flushes and Θ1 refills stall the pipeline and are charged serially,
which is what makes the Batch-DFS ablation (Fig. 13) visible: FIFO batching
keeps whole BFS levels live and pays for every overflow round trip.

With ``use_cache=False`` (the Fig. 14 ablation) the buffer area lives in
DRAM — every intermediate path is written to and fetched from off-chip
memory — and the CSR/barrier caches are disabled, so the fetch stages pay
full DRAM latency per access.

Vectorised hot path
-------------------
The per-batch work is computed from precomputed array tables rather than
per-expansion Python loops, without changing a single charged cycle:

- one numpy gather per run builds ``edge_bar`` (the barrier value of every
  CSR edge endpoint), and per ``(vertex, parent-hops)`` the surviving
  successor positions/ids are built array-at-once and memoised — the
  barrier and target checks of Algorithm 2 become table lookups;
- every memory-model charge of the straight-line loop
  (:mod:`repro.core.engine_reference`) has a closed form in the slice
  bounds and cache residency constants, so stage costs and port traffic
  are computed arithmetically and folded into the device models in bulk.

``docs/TIMING_MODEL.md`` derives why the charges are unchanged (§5) and
how the PEs compose (§6); the differential suites assert byte-identical
results, stats, cycles, traffic and profiles against the reference loop.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from repro.core.batching import fifo_batch
from repro.core.config import PEFPConfig, QueryBudget
from repro.core.paths import BufferArea, DramArea, record_words
from repro.core.verify import VerificationModule
from repro.fpga.clock import Clock
from repro.fpga.device import Device, DeviceConfig
from repro.fpga.pipeline import PipelineModel
from repro.fpga.profile import BATCH_STAGES, DeviceProfile
from repro.graph.csr import CSRGraph


@dataclass
class EngineStats:
    """Counters describing one engine run."""

    batches: int = 0
    expansions: int = 0
    results: int = 0
    intermediate_paths: int = 0
    #: successors equal to the target — emitted as results when the hop
    #: bound allows, but always *rejected as intermediates* (a simple path
    #: cannot continue through t), mirroring Algorithm 2's first check.
    rejected_target: int = 0
    rejected_barrier: int = 0
    rejected_visited: int = 0
    flushes: int = 0
    flushed_paths: int = 0
    refills: int = 0
    refilled_paths: int = 0
    peak_buffer_paths: int = 0
    peak_dram_paths: int = 0
    #: which memory held the buffer area: ``"bram"`` normally, ``"dram"``
    #: under the ``use_cache=False`` ablation.  The DRAM-resident buffer
    #: is unbounded, so ``peak_buffer_paths`` is a DRAM high-water mark
    #: there and must not be compared against BRAM-mode runs (Fig. 14).
    buffer_domain: str = "bram"
    #: valid new intermediate paths keyed by the *parent* path length
    #: (Table III counts newly generated paths per expanded length l).
    new_paths_by_parent_length: dict[int, int] = field(default_factory=dict)
    #: expansions scheduled keyed by parent path length.
    expansions_by_parent_length: dict[int, int] = field(default_factory=dict)
    #: frontier records routed between PEs (multi-PE runs only; all five
    #: inter-PE counters stay 0 on single-PE runs, so stats equality with
    #: the single-pipeline engines is preserved).
    inter_pe_messages: int = 0
    #: interconnect routing cycles charged to the global clock
    #: (hop latency + record streaming), summed over supersteps.
    inter_pe_route_cycles: int = 0
    #: round-robin arbiter grant-rotation cycles (contention).
    inter_pe_arbiter_cycles: int = 0
    #: backpressure cycles for records beyond the destination FIFO depth.
    inter_pe_stall_cycles: int = 0
    #: barrier-sync cycles at superstep boundaries.
    inter_pe_barrier_cycles: int = 0
    #: raw (pre-overlap) cycle totals per dataflow stage plus the serial
    #: events; `sum(stage_cycles.values())` exceeds the clock because the
    #: five stages overlap — see the module docstring.
    stage_cycles: dict[str, int] = field(default_factory=dict)

    def add_stage_cycles(self, stage: str, cycles: int) -> None:
        if cycles:
            self.stage_cycles[stage] = (
                self.stage_cycles.get(stage, 0) + cycles
            )


@dataclass
class EngineRunResult:
    """Paths found plus the device-time accounting of the run."""

    paths: list[tuple[int, ...]]
    cycles: int
    seconds: float
    stats: EngineStats
    device: Device
    #: ``True`` when a :class:`~repro.core.config.QueryBudget` stopped the
    #: run before the search space was exhausted — ``paths`` is then an
    #: exact subset of the unbudgeted answer, possibly missing results.
    truncated: bool = False
    #: per-batch cycle breakdown and device counters; only populated when
    #: :meth:`PEFPEngine.run` was called with ``profile=True``.
    profile: DeviceProfile | None = None

    @property
    def num_paths(self) -> int:
        return len(self.paths)


class _StageCost:
    """Cycle cost of one dataflow stage, split by memory domain."""

    __slots__ = ("bram", "dram", "compute")

    def __init__(self) -> None:
        self.bram = 0
        self.dram = 0
        self.compute = 0

    @property
    def total(self) -> int:
        return self.bram + self.dram + self.compute


class PEFPEngine:
    """The FPGA-side enumerator.

    One engine instance is reusable across queries; each :meth:`run`
    simulates a fresh kernel invocation on its own :class:`Device`.
    """

    name = "pefp"

    def __init__(
        self,
        config: PEFPConfig | None = None,
        device_config: DeviceConfig | None = None,
        pipeline: PipelineModel | None = None,
    ) -> None:
        self.config = config or PEFPConfig()
        self.device_config = device_config or DeviceConfig()
        self.pipeline = pipeline or PipelineModel()
        #: BRAM wide-access cycles per word count (indices 0..Θ2), per
        #: ``(port_words, Θ2)``; shared read-only by every PE and run.
        self._ceil_tabs: dict[tuple[int, int], list[int]] = {}

    def run(
        self,
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
        """Enumerate all s-t k-paths of ``graph`` on the simulated device.

        ``barrier`` must hold lower bounds on ``sd(v, target)`` — Pre-BFS
        supplies exact distances on the induced subgraph; the no-Pre-BFS
        host path supplies the k-hop reverse-BFS distances with every
        unreached vertex set to ``k + 1`` (a valid lower bound that prunes
        it immediately; zeros would disable barrier pruning entirely).
        Returned paths use ``graph``'s vertex ids.

        ``on_result`` streams each found path as it is produced (the
        device streams results over PCIe anyway); with
        ``collect_paths=False`` the result list is not materialised —
        for result sets too large to hold, pair it with ``on_result``.

        Runs the BSP driver :func:`repro.core.multi_pe.run_multi_pe` for
        every ``device_config.num_pes``.  ``budget`` bounds the run (see
        :class:`QueryBudget`): the driver checks the cycle cap before
        each superstep and the result cap after each one, terminates
        cleanly at the boundary and sets ``truncated`` on the result when
        the answer may be incomplete.  The paths of a budgeted run are
        always an exact subset of the unbudgeted answer, and the clock
        never overshoots ``max_cycles`` by more than one superstep
        (including its flush/refill stalls).

        ``tracer`` (a :class:`repro.observability.Tracer`) emits one span
        per processing batch and refill stall on the caller's current
        span; ``profile=True`` collects a
        :class:`~repro.fpga.profile.DeviceProfile` (per-batch cycle
        breakdown, cache hit/miss, high-water marks) onto the result.
        Both default off and cost nothing when disabled — the kernel
        pays one falsy check per step.
        """
        from repro.core.multi_pe import run_multi_pe

        return run_multi_pe(
            self, graph, source, target, max_hops, barrier,
            on_result=on_result, collect_paths=collect_paths,
            budget=budget, tracer=tracer, profile=profile,
        )

    def _pe_steps(self, index, pe, graph, target, max_hops, barrier, owners,
                  inbox, outbox, results, on_result, observing, timed):
        """One processing element's kernel, as a generator of BSP steps.

        ``pe`` is the ``(device, stats, buffer, dram_area, cached_arrays)``
        that :func:`repro.core.multi_pe.run_multi_pe` allocated; after a
        priming ``send(None)`` the driver sends, per step, how many more
        results the budget admits (``None``: unbounded).  A step drains
        ``inbox``, runs one Θ1 refill or one batch on the PE's clock and
        yields ``None`` when idle, else ``(kind, cycles, results,
        dropped, more, wall0, info)``; ``info`` (only when
        ``observing``) is a batch's ``DeviceProfiler.record_batch`` row
        or a refill's path count.  Survivors whose tail another
        PE owns go to ``outbox[owner]`` as ``(vertices, lo, hi)``; with
        ``owners=None`` (one PE) the push path does no owner lookup.
        Closing the generator folds the deferred counters into the PE's
        device and stats.
        """
        device, stats, buffer, dram_area, arrays = pe
        vertex_arr, edge_arr, bar_arr = arrays
        cfg = self.config
        bram, dram, clock = device.bram, device.dram, device.clock
        rec_w = record_words(max_hops)
        buffer_in_bram = cfg.use_cache
        verifier = VerificationModule(self.pipeline, cfg.use_data_separation)
        use_dfs = cfg.use_batch_dfs

        # --- hot-path tables and constants ------------------------------
        # Every charged cycle below is the closed form of the memory-model
        # call the reference loop makes at the same point; the residency
        # constants (cached prefix lengths) make hit/miss splits pure
        # arithmetic.  See docs/TIMING_MODEL.md ("Vectorised engine").
        theta2 = cfg.theta2
        theta1 = cfg.theta1
        overhead = cfg.batch_overhead_cycles
        channels = self.device_config.dram_channels
        pw = bram.port_words
        rl = dram.read_latency
        wl = dram.write_latency
        rl1 = rl - 1
        wl1 = wl - 1
        ceil_rec = -(-rec_w // pw)
        ceil_tab = self._ceil_tabs.get((pw, theta2))
        if ceil_tab is None:
            ceil_tab = [-(-n // pw) for n in range(theta2 + 1)]
            self._ceil_tabs[(pw, theta2)] = ceil_tab
        #: verification-pipeline latency per batch size (indices 0..Θ2),
        #: filled on first use: a short run touches only a few sizes.
        verify_tab = [-1] * (theta2 + 1)
        num_vertices = graph.num_vertices
        indices_np = graph.indices
        iptr_l = graph.indptr.tolist()
        bar_np = np.asarray(barrier)
        edge_bar = (bar_np[indices_np] if indices_np.size
                    else bar_np[:0])
        c_v = vertex_arr.cached_len
        c_e = edge_arr.cached_len
        c_b = bar_arr.cached_len
        v_all_hit = c_v >= num_vertices + 1
        e_all_hit = c_e >= indices_np.size
        b_all_hit = c_b >= num_vertices
        key_span = max_hops + 1
        #: per (vertex, parent-hops): (slice bounds, full-slice target and
        #: survivor counts, target positions, surviving candidate
        #: positions, surviving candidate ids) over the full successor
        #: slice — the array-at-once form of Algorithm 2's target and
        #: barrier checks, built lazily per run.
        prune_tab: dict[int, tuple] = {}
        #: per vertex: prefix counts of barrier-cache hits (only needed
        #: when the barrier cache holds a proper prefix of the vertices).
        bhit_tab: dict[int, list[int]] = {}
        b_partial = 0 < c_b < num_vertices

        # Local accumulators, folded into the device/stats objects once
        # the kernel finishes (all folded quantities are plain sums, so
        # deferring them is exact; the cold paths — drain, refill, flush
        # — keep charging the real models directly).
        br_ops = br_words = bw_ops = bw_words = 0          # BRAM port
        dr_ops = dr_words = dw_ops = dw_words = d_stall = 0  # DRAM port
        v_hits = v_miss = e_hits = e_miss = b_hits = b_miss = 0
        n_batches = n_expansions = n_results = n_intermediate = 0
        rej_t = rej_b = rej_v = 0
        # Per-parent-length tallies as lists (h <= max_hops always),
        # rebuilt as dicts in ascending order at the end; on a single PE
        # that is the reference dicts' insertion order — a length-(h+1)
        # parent only exists after an expansion at length h.
        exp_list = [0] * (key_span + 1)
        new_list = [0] * (key_span + 1)
        acc_t1 = acc_t2 = acc_t3 = acc_t4 = acc_t5 = acc_ov = 0
        ins_t1 = ins_t2 = ins_t3 = ins_t4 = ins_t5 = ins_ov = False
        v_partial = not v_all_hit and c_v > 0
        clock_advance = clock.advance
        prune_tab_get = prune_tab.get
        wall0 = flush_cycles0 = flushes0 = 0

        event = None
        while True:
            try:
                room = yield event
            except GeneratorExit:
                break
            # the slot, not the ``cycles`` property: read twice per step
            clock0 = clock._cycles
            if observing:
                if timed:
                    wall0 = time.perf_counter_ns()
                flush_cycles0 = stats.stage_cycles.get("flush", 0)
                flushes0 = stats.flushes

            # Drain the input FIFO (its transfer was charged at the last
            # superstep boundary); an overflow flush stalls this PE.
            if inbox:
                for verts, lo, hi in inbox:
                    if buffer_in_bram and buffer.is_full:
                        before = clock.cycles
                        self._flush(buffer, rec_w, bram, dram, dram_area,
                                    stats)
                        stats.add_stage_cycles("flush",
                                               clock.cycles - before)
                    buffer.push_path(verts, lo, hi)
                inbox.clear()

            bverts = buffer._verts
            bnext = buffer._next
            blast = buffer._last
            bhead = buffer._head
            if len(bverts) == bhead:  # buffer empty
                event = None
                if buffer_in_bram and not dram_area.is_empty:
                    # Θ1 refill from the DRAM tail: a serial stall.
                    block = dram_area.fetch_tail(theta1)
                    dram.burst_read(len(block) * rec_w)
                    bram.write(len(block) * rec_w)
                    for rec in block:
                        buffer.push(rec)
                    stats.refills += 1
                    stats.refilled_paths += len(block)
                    refill_cycles = clock.cycles - clock0
                    stats.add_stage_cycles("refill", refill_cycles)
                    event = ("refill", refill_cycles, 0, False, True, wall0,
                             len(block))
                continue

            # --- batch selection (Batch-DFS fused; FIFO via scheduler) --
            if use_dfs:
                sel: list[tuple] = []
                cnt = 0
                i = len(bverts) - 1
                while i >= bhead:
                    p1 = bnext[i]
                    p2 = p1 + (theta2 - cnt)
                    pl = blast[i]
                    if p2 > pl:
                        p2 = pl
                    if p2 > p1:
                        sel.append((bverts[i], p1, p2))
                        bnext[i] = p2
                        cnt += p2 - p1
                        if cnt >= theta2:
                            break
                    i -= 1
                j = len(bverts) - 1
                while j >= bhead and bnext[j] >= blast[j]:
                    j -= 1
                j += 1
                if j < len(bverts):
                    del bverts[j:]
                    del bnext[j:]
                    del blast[j:]
            else:
                sel = fifo_batch(buffer, theta2)
            if not sel:
                # defensive: cannot happen with a non-empty buffer
                event = None
                continue
            n_batches += 1
            n_e = len(sel)

            # --- stages 2-4 per entry, via the pruning tables -----------
            # Fully-cached arrays (the common configuration) charge a
            # fixed pattern per entry — one wide BRAM access of ``size``
            # words each for stages 2 and 3 — so those charges fold into
            # batch-level sums of ``size`` below; only the closed-form
            # wide-port ceiling of stage 2 stays per-entry.  Partially
            # cached or uncached arrays keep the general per-entry split.
            s2b = s2d = s3b = s3d = 0
            n_items = 0
            batch_nt = batch_pass = 0
            nv = n_push = n1 = n2 = 0
            batch_results: list[tuple[int, ...]] = []
            push_v: list[tuple[int, ...]] = []
            push_lo: list[int] = []
            push_hi: list[int] = []
            wres = 0
            for pv, elo, ehi in sel:
                h = len(pv) - 1
                size = ehi - elo
                n_items += size
                exp_list[h] += size
                v = pv[-1]
                tables = prune_tab_get(v * key_span + h)
                if tables is None:
                    vlo = iptr_l[v]
                    vhi = iptr_l[v + 1]
                    thresh = max_hops - 1 - h
                    tpos: list[int] = []
                    cpos: list[int] = []
                    cu_full: list[int] = []
                    if vhi - vlo <= 128:
                        # small slice: a plain loop beats numpy call
                        # overhead (the typical degree by a wide margin)
                        us = indices_np[vlo:vhi].tolist()
                        bs = edge_bar[vlo:vhi].tolist()
                        for i, u in enumerate(us):
                            if u == target:
                                tpos.append(vlo + i)
                            elif bs[i] <= thresh:
                                cpos.append(vlo + i)
                                cu_full.append(u)
                    else:
                        slice_u = indices_np[vlo:vhi]
                        t_mask = slice_u == target
                        ok = (edge_bar[vlo:vhi] <= thresh) & ~t_mask
                        cp = np.flatnonzero(ok)
                        cu_full = slice_u[cp].tolist()
                        tpos = (np.flatnonzero(t_mask) + vlo).tolist()
                        cpos = (cp + vlo).tolist()
                    tables = (
                        vlo, vhi, len(tpos), len(cu_full),
                        tpos, cpos, cu_full,
                    )
                    prune_tab[v * key_span + h] = tables
                vlo, vhi, n_t, n_pass, tpos, cpos, cu = tables
                if elo == vlo and ehi == vhi:
                    cand = cu  # full slice (common case)
                else:
                    if n_t:
                        n_t = (bisect_left(tpos, ehi)
                               - bisect_left(tpos, elo))
                    if n_pass:
                        a = bisect_left(cpos, elo)
                        b = bisect_left(cpos, ehi)
                        cand = cu[a:b]
                        n_pass = b - a
                    else:
                        cand = cu  # empty
                # stage 2: edge fetch — one read_range per entry
                if e_all_hit:
                    s2b += ceil_tab[size]
                else:
                    nh = c_e - elo
                    if nh > 0:
                        if nh > size:
                            nh = size
                        s2b += ceil_tab[nh]
                        e_hits += nh
                        br_ops += 1
                        br_words += nh
                    else:
                        nh = 0
                    nm = size - nh
                    if nm:
                        s2d += rl + nm - 1
                        e_miss += nm
                        dr_ops += 1
                        dr_words += nm
                        d_stall += rl1
                # stage 3: barrier fetch — one gather per entry
                if not b_all_hit:
                    if b_partial:
                        bp = bhit_tab.get(v)
                        if bp is None:
                            bp = [0]
                            bp.extend(np.cumsum(
                                indices_np[vlo:vhi] < c_b).tolist())
                            bhit_tab[v] = bp
                        nbh = bp[ehi - vlo] - bp[elo - vlo]
                    else:
                        nbh = 0
                    if nbh:
                        s3b += nbh
                        b_hits += nbh
                        br_ops += 1
                        br_words += nbh
                    nbm = size - nbh
                    if nbm:
                        s3d += nbm * rl
                        b_miss += nbm
                        dr_ops += 1
                        dr_words += nbm
                        d_stall += nbm * rl1
                # stage 4: verification outcomes (Algorithm 2)
                batch_nt += n_t
                batch_pass += n_pass
                if n_t and h < max_hops:
                    full = pv + (target,)
                    if n_t == 1:
                        batch_results.append(full)
                    else:
                        batch_results.extend([full] * n_t)
                    wres += (h + 3) * n_t
                # the surviving candidates' visited check, fused with the
                # write-back bookkeeping of the paths it admits
                for u in cand:
                    if u in pv:
                        rej_v += 1
                        continue
                    nv += 1
                    new_list[h] += 1
                    if v_partial:
                        if u < c_v:
                            n1 += 1
                        if u + 1 < c_v:
                            n2 += 1
                    nlo = iptr_l[u]
                    nhi = iptr_l[u + 1]
                    if nlo < nhi:
                        n_push += 1
                        if owners is not None and owners[u] != index:
                            # foreign tail: the output FIFO to its owner
                            outbox[owners[u]].append((pv + (u,), nlo, nhi))
                        else:
                            push_v.append(pv + (u,))
                            push_lo.append(nlo)
                            push_hi.append(nhi)
            n_expansions += n_items
            rej_t += batch_nt
            rej_b += n_items - batch_nt - batch_pass
            n_intermediate += nv
            if e_all_hit:
                e_hits += n_items
                br_ops += n_e
                br_words += n_items
            if b_all_hit:
                s3b += n_items
                b_hits += n_items
                br_ops += n_e
                br_words += n_items
            t4 = verify_tab[n_items]
            if t4 < 0:
                t4 = verify_tab[n_items] = verifier.batch_cycles(n_items)

            # Result budget: keep only what fits; dropped results mean the
            # answer is definitively incomplete.  The kept prefix is still
            # a subset of the unbudgeted answer (same deterministic order).
            dropped = False
            if room is not None and len(batch_results) > room:
                batch_results = batch_results[:room]
                dropped = True
                wres = sum(len(p) + 1 for p in batch_results)

            # --- stage 1: load; stage 5: write-back ---------------------
            moved = n_e * rec_w
            if buffer_in_bram:
                t1 = 2 * -(-moved // pw)
                s1d = 0
                br_ops += 1
                br_words += moved
                bw_ops += 1
                bw_words += moved
            else:
                s1d = (rl + moved - 1) + 2 * n_e * wl
                t1 = s1d + -(-moved // pw)
                dr_ops += 1
                dr_words += moved
                d_stall += rl1
                dw_ops += 1
                dw_words += 2 * n_e
                d_stall += 2 * n_e * wl1
                bw_ops += 1
                bw_words += moved

            s5b = s5d = 0
            if batch_results:
                if results is not None:
                    results.extend(batch_results)
                if on_result is not None:
                    for p in batch_results:
                        on_result(p)
                n_results += len(batch_results)
                s5d += wl + wres - 1
                dw_ops += 1
                dw_words += wres
                d_stall += wl1
            if nv:
                # the two vertex_arr gathers (slice bounds of every tail)
                if v_all_hit:
                    s5b += 2 * nv
                    v_hits += 2 * nv
                    br_ops += 2
                    br_words += 2 * nv
                else:
                    for n_hit, n_mis in ((n1, nv - n1), (n2, nv - n2)):
                        if n_hit:
                            s5b += n_hit
                            v_hits += n_hit
                            br_ops += 1
                            br_words += n_hit
                        if n_mis:
                            s5d += n_mis * rl
                            v_miss += n_mis
                            dr_ops += 1
                            dr_words += n_mis
                            d_stall += n_mis * rl1
                if n_push:
                    # one record write per admitted path (dead ends were
                    # dropped in the fused loop without a write)
                    if buffer_in_bram:
                        s5b += n_push * ceil_rec
                        bw_ops += n_push
                        bw_words += n_push * rec_w
                    else:
                        s5d += n_push * (wl + rec_w - 1)
                        dw_ops += n_push
                        dw_words += n_push * rec_w
                        d_stall += n_push * wl1

            # Fold the overlapped stages into the device clock: concurrent
            # on-chip stages; off-chip traffic shares the DRAM channels;
            # fixed control cost per batch.
            t2 = s2b + s2d
            t3 = s3b + s3d
            t5 = s5b + s5d
            dram_cycles = s1d + s2d + s3d + s5d
            mx = t1
            if t2 > mx:
                mx = t2
            if t3 > mx:
                mx = t3
            if t4 > mx:
                mx = t4
            if t5 > mx:
                mx = t5
            dram_bound = -(-dram_cycles // channels)
            if dram_bound > mx:
                mx = dram_bound
            batch_cycles = mx + overhead
            clock_advance(batch_cycles)
            # accumulate raw stage totals; the first non-zero occurrence
            # of each key is inserted immediately so the stage_cycles dict
            # keeps the reference loop's insertion order
            if ins_t1:
                acc_t1 += t1
            elif t1:
                stats.stage_cycles["load"] = t1
                ins_t1 = True
            if ins_t2:
                acc_t2 += t2
            elif t2:
                stats.stage_cycles["edge_fetch"] = t2
                ins_t2 = True
            if ins_t3:
                acc_t3 += t3
            elif t3:
                stats.stage_cycles["barrier_fetch"] = t3
                ins_t3 = True
            if ins_t4:
                acc_t4 += t4
            elif t4:
                stats.stage_cycles["verify"] = t4
                ins_t4 = True
            if ins_t5:
                acc_t5 += t5
            elif t5:
                stats.stage_cycles["writeback"] = t5
                ins_t5 = True
            if ins_ov:
                acc_ov += overhead
            elif overhead:
                stats.stage_cycles["overhead"] = overhead
                ins_ov = True

            # Apply the buffered local pushes; overflow stalls the pipeline.
            if push_v:
                n_local = len(push_v)
                bverts = buffer._verts
                bnext = buffer._next
                blast = buffer._last
                n_buf = len(bverts) - buffer._head
                cap = buffer.capacity_paths
                if n_buf + n_local <= cap:
                    # no flush possible: append wholesale
                    bverts.extend(push_v)
                    bnext.extend(push_lo)
                    blast.extend(push_hi)
                    n_buf += n_local
                    if n_buf > buffer.peak_occupancy:
                        buffer.peak_occupancy = n_buf
                    push_v = ()
                for idx in range(len(push_v)):
                    if buffer_in_bram and n_buf >= cap:
                        if n_buf > buffer.peak_occupancy:
                            buffer.peak_occupancy = n_buf
                        before = clock.cycles
                        self._flush(buffer, rec_w, bram, dram, dram_area,
                                    stats)
                        stats.add_stage_cycles("flush",
                                               clock.cycles - before)
                        bverts = buffer._verts
                        bnext = buffer._next
                        blast = buffer._last
                        n_buf = 0
                    bverts.append(push_v[idx])
                    bnext.append(push_lo[idx])
                    blast.append(push_hi[idx])
                    n_buf += 1
                if n_buf > buffer.peak_occupancy:
                    buffer.peak_occupancy = n_buf

            delta = clock._cycles - clock0
            info = None
            if observing:
                # the batch's profile row, laid out as BATCH_COLUMNS
                info = (
                    n_e, n_items, len(batch_results), nv, delta,
                    batch_cycles - overhead, overhead,
                    stats.stage_cycles.get("flush", 0) - flush_cycles0,
                    stats.flushes - flushes0, dram_cycles, len(buffer),
                    t1, t2, t3, t4, t5,
                )
            event = (
                "batch", delta, len(batch_results), dropped,
                len(buffer._verts) > buffer._head or not dram_area.is_empty,
                wall0, info,
            )

        # --- fold the deferred accumulators into the models -------------
        port = bram.port
        port.reads += br_ops
        port.read_words += br_words
        port.writes += bw_ops
        port.write_words += bw_words
        port = dram.port
        port.reads += dr_ops
        port.read_words += dr_words
        port.writes += dw_ops
        port.write_words += dw_words
        port.stall_cycles += d_stall
        for arr, hits, misses in ((vertex_arr, v_hits, v_miss),
                                  (edge_arr, e_hits, e_miss),
                                  (bar_arr, b_hits, b_miss)):
            arr.hits += hits
            arr.misses += misses
        stats.batches += n_batches
        stats.expansions += n_expansions
        stats.results += n_results
        stats.intermediate_paths += n_intermediate
        stats.rejected_target += rej_t
        stats.rejected_barrier += rej_b
        stats.rejected_visited += rej_v
        stats.expansions_by_parent_length = {
            h: c for h, c in enumerate(exp_list) if c
        }
        stats.new_paths_by_parent_length = {
            h: c for h, c in enumerate(new_list) if c
        }
        for name, acc in zip(BATCH_STAGES + ("overhead",),
                             (acc_t1, acc_t2, acc_t3, acc_t4, acc_t5,
                              acc_ov)):
            if acc:
                stats.stage_cycles[name] += acc

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    @staticmethod
    def _stage(bram, dram, costs: list[_StageCost]):
        """Create meters for one stage and register its cost record."""
        cost = _StageCost()
        costs.append(cost)
        bram_meter = _CostClock(cost, "bram")
        dram_meter = _CostClock(cost, "dram")
        return bram_meter, dram_meter

    @staticmethod
    def _charge_push(bram, dram, rec_w: int, buffer_in_bram: bool) -> None:
        if buffer_in_bram:
            bram.write(rec_w)
        else:
            dram.burst_write(rec_w)

    @staticmethod
    def _flush(
        buffer: BufferArea,
        rec_w: int,
        bram,
        dram,
        dram_area: DramArea,
        stats: EngineStats,
    ) -> None:
        """Spill the whole buffer area to the DRAM path area (Alg. 1 l.13)."""
        records = buffer.drain()
        words = len(records) * rec_w
        bram.read(words)
        dram.burst_write(words)
        dram_area.append_block(records)
        stats.flushes += 1
        stats.flushed_paths += len(records)


class _CostClock(Clock):
    """A clock that accumulates into one field of a :class:`_StageCost`."""

    __slots__ = ("_cost", "_domain")

    def __init__(self, cost: _StageCost, domain: str) -> None:
        super().__init__()
        self._cost = cost
        self._domain = domain

    def advance(self, cycles: int) -> None:
        super().advance(cycles)
        setattr(self._cost, self._domain,
                getattr(self._cost, self._domain) + cycles)
