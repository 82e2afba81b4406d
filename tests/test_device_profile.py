"""Device profiles: every aggregate equals its per-batch definition.

A kernel run's :class:`~repro.fpga.profile.DeviceProfile` keeps one
integer row per processing batch.  Every consumer reads those rows in
bulk: the profile's own aggregates, the registry histograms
(``observe_profile``) and the attribution waterfalls.  This suite holds
each bulk reading to the per-batch definition it replaces:

- every aggregate and ``cycle_split()`` equals the sum over the
  :class:`~repro.fpga.profile.BatchProfile` view, on every engine
  configuration (caches on and off, FIFO batching, flushes and refills,
  both budgets) at one and four PEs, and comes back as a plain Python
  number;
- a profiled sharing batch's registry snapshot, timeline bytes,
  aggregated profile dict and attribution cycles hash to a pinned
  SHA-256;
- profiles of different runs compare unequal, and a pickled profile
  stays small (it crosses the process backend's pipe).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pickle
import random

import numpy as np
import pytest

from repro.core.config import PEFPConfig, QueryBudget
from repro.core.engine import PEFPEngine
from repro.core.engine_reference import ReferencePEFPEngine
from repro.fpga.device import DeviceConfig
from repro.fpga.profile import BATCH_STAGES, aggregate_profiles
from repro.graph import generators as G
from repro.host.query import Query
from repro.observability.analysis import split_batch_cycles
from repro.preprocess.prebfs import pre_bfs
from repro.service import BatchQueryService
from repro.service.metrics import MetricsTimeline
from repro.workloads import generate_shared_batch

CONFIGS = [
    ("default", PEFPConfig(), None),
    ("no_cache", PEFPConfig(use_cache=False), None),
    ("fifo", PEFPConfig(use_batch_dfs=False, theta2=16), None),
    ("tiny_buffer",
     PEFPConfig(buffer_capacity_paths=4, theta1=3, theta2=8), None),
    ("partial_caches",
     PEFPConfig(graph_cache_words=80, barrier_cache_words=20), None),
    ("result_budget", PEFPConfig(), QueryBudget(max_results=9)),
    ("cycle_budget", PEFPConfig(), QueryBudget(max_cycles=500)),
]


def _prepared_queries(count=3, seed=17):
    graph = G.chung_lu(60, 320, seed=11)
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        s, t = rng.randrange(60), rng.randrange(60)
        if s == t:
            continue
        k = rng.randint(3, 5)
        prep = pre_bfs(graph, Query(s, t, k))
        if not prep.is_empty:
            out.append((prep, k))
    return out


def _profiles(config, budget, num_pes):
    """Profiles of the prepared queries, reference loop included at N=1."""
    engines = [PEFPEngine(config=config,
                          device_config=DeviceConfig(num_pes=num_pes))]
    if num_pes == 1:
        engines.append(ReferencePEFPEngine(config=config))
    out = []
    for prep, k in _prepared_queries():
        for engine in engines:
            run = engine.run(prep.subgraph, prep.source, prep.target, k,
                             prep.barrier, budget=budget, profile=True)
            out.append(run.profile)
    return out


def _per_batch(profile):
    """Every aggregate, summed over the per-batch view."""
    batches = profile.batches
    stages: dict[str, int] = {}
    for b in batches:
        for stage, cycles in b.stage_cycles.items():
            stages[stage] = stages.get(stage, 0) + cycles
    window = sum(b.pipeline_cycles for b in batches)
    refill = sum(r.cycles for r in profile.refills)
    return {
        "num_batches": len(batches),
        "expand_cycles": sum(b.expand_cycles for b in batches),
        "verify_cycles": sum(b.verify_cycles for b in batches),
        "flush_cycles": sum(b.flush_cycles for b in batches),
        "stall_cycles": sum(b.stall_cycles for b in batches) + refill,
        "stage_cycles": stages,
        "stage_occupancy": {
            s: (min(1.0, stages.get(s, 0) / window) if window > 0 else 0.0)
            for s in BATCH_STAGES
        },
        "accounted_cycles": (
            profile.setup_cycles + sum(b.cycles for b in batches) + refill
            + sum(i.cycles for i in profile.inter_pe)
        ),
    }


def _assert_plain(value, where="to_dict()"):
    """No NumPy scalar may leak into what the golden digests hash."""
    if isinstance(value, dict):
        for key, item in value.items():
            _assert_plain(item, f"{where}[{key!r}]")
    elif isinstance(value, (list, tuple)):
        for item in value:
            _assert_plain(item, where)
    else:
        assert type(value) in (int, float, str, bool), (where, type(value))


CASES = [(label, config, budget, num_pes)
         for label, config, budget in CONFIGS for num_pes in (1, 4)]


@pytest.mark.parametrize(
    "label,config,budget,num_pes", CASES,
    ids=[f"{c[0]}-pe{c[3]}" for c in CASES])
def test_aggregates_equal_per_batch_sums(label, config, budget, num_pes):
    for profile in _profiles(config, budget, num_pes):
        want = _per_batch(profile)
        got = {
            "num_batches": profile.num_batches,
            "expand_cycles": profile.expand_cycles,
            "verify_cycles": profile.verify_cycles,
            "flush_cycles": profile.flush_cycles,
            "stall_cycles": profile.stall_cycles,
            "stage_cycles": profile.stage_cycle_totals(),
            "stage_occupancy": profile.stage_occupancy(),
            "accounted_cycles": profile.accounted_cycles,
        }
        assert got == want
        # same key order too: to_dict() is hashed as JSON
        assert list(got["stage_cycles"]) == list(want["stage_cycles"])
        assert profile.accounted_cycles == profile.total_cycles
        _assert_plain(got)
        _assert_plain(profile.to_dict())


@pytest.mark.parametrize(
    "label,config,budget,num_pes", CASES,
    ids=[f"{c[0]}-pe{c[3]}" for c in CASES])
def test_cycle_split_equals_per_batch_split(label, config, budget, num_pes):
    for profile in _profiles(config, budget, num_pes):
        want = {"expand": 0, "verify": 0, "stall": 0, "overhead": 0}
        for b in profile.batches:
            busy, stall, overhead, bound = split_batch_cycles(
                b.pipeline_cycles, b.overhead_cycles, b.flush_cycles,
                b.stage_cycles)
            want[bound] += busy
            want["stall"] += stall
            want["overhead"] += overhead
        split = profile.cycle_split()
        assert split == want
        _assert_plain(split)


def test_batch_view_round_trips_the_table():
    """``batches`` is rebuilt from the table row for row."""
    profile = _profiles(PEFPConfig(), None, 1)[0]
    assert profile.num_batches > 0
    table = profile.batch_table
    assert table.shape == (profile.num_batches, 16)
    for i, b in enumerate(profile.batches):
        assert b.index == i
        row = (b.entries, b.expansions, b.results, b.new_paths, b.cycles,
               b.pipeline_cycles, b.overhead_cycles, b.flush_cycles,
               b.flushes, b.dram_cycles, b.buffer_paths,
               *(b.stage_cycles[s] for s in BATCH_STAGES))
        assert tuple(table[i].tolist()) == row
        assert type(b.cycles) is int


class TestEquality:
    def test_repeat_runs_are_equal(self):
        a = _profiles(PEFPConfig(), None, 1)
        b = _profiles(PEFPConfig(), None, 1)
        assert a == b

    def test_runs_with_different_batches_differ(self):
        default = _profiles(PEFPConfig(), None, 1)
        fifo = _profiles(PEFPConfig(use_batch_dfs=False, theta2=16), None, 1)
        assert default[0] != fifo[0]
        assert default[0] != default[2]

    def test_one_changed_cell_is_told_apart(self):
        profile = _profiles(PEFPConfig(), None, 1)[0]
        table = profile.batch_table.copy()
        table[-1, -1] += 1
        changed = dataclasses.replace(profile, batch_table=table)
        assert changed != profile
        assert changed.total_cycles == profile.total_cycles
        assert dataclasses.replace(profile) == profile


class TestPickle:
    def test_round_trip_keeps_everything(self):
        profile = _profiles(PEFPConfig(), None, 4)[0]
        profile.cycle_split()
        back = pickle.loads(pickle.dumps(profile))
        assert back == profile
        assert back.to_dict() == profile.to_dict()
        assert back.batches == profile.batches

    def test_memoised_aggregates_are_not_shipped(self):
        profile = _profiles(PEFPConfig(), None, 1)[0]
        cold = len(pickle.dumps(profile))
        profile.to_dict()
        assert profile.batches
        profile.cycle_split()
        assert len(pickle.dumps(profile)) == cold

    def test_table_is_int32_when_every_value_fits(self):
        profile = _profiles(PEFPConfig(), None, 1)[0]
        assert profile.batch_table.dtype == np.int32

    #: pickled size of the profile below when it kept one frozen
    #: BatchProfile (and one stage dict) per batch.
    PER_OBJECT_BYTES = 37_334

    def test_no_larger_than_one_object_per_batch(self):
        graph = G.chung_lu(300, 1800, seed=3)
        prep = pre_bfs(graph, Query(0, 7, 5))
        profile = PEFPEngine().run(
            prep.subgraph, prep.source, prep.target, 5, prep.barrier,
            profile=True).profile
        assert profile.num_batches == 407
        assert len(pickle.dumps(profile)) <= self.PER_OBJECT_BYTES


# ---------------------------------------------------------------------------
# Golden digest: a profiled sharing batch, end to end
# ---------------------------------------------------------------------------

#: SHA-256 of the batch below (registry snapshot with histograms,
#: timeline bytes, aggregated profile dict, attribution segment cycles),
#: captured when every consumer still walked the profiles batch by batch.
GOLDEN_SHARED_BATCH = (
    "cf0155fff663cea384acb12780d770d7d296c28a547d584ac802a2ba1773e7fa")


def _plain(value):
    if dataclasses.is_dataclass(value):
        return _plain(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, float):
        return value.hex()
    return value


def _shared_batch_digest():
    graph = G.chung_lu(120, 700, seed=41)
    queries = generate_shared_batch(graph, 4, 24, seed=5,
                                    duplicate_fraction=0.5, source_pool=4)
    # Serial dispatch: histogram totals are float sums in observation
    # order, which threads interleave.
    service = BatchQueryService(graph, num_engines=2, sharing=True,
                                scheduler="longest-first", use_threads=False)
    try:
        timeline = MetricsTimeline()
        report = service.run(queries, profile=True, timeline=timeline)
        snapshot = service.metrics.snapshot()
    finally:
        service.close()
    payload = {
        "snapshot": _plain(snapshot),
        "profiles": _plain(aggregate_profiles(report.device_profiles)),
        "segments": _plain(report.attribution().segment_cycles()),
    }
    h = hashlib.sha256()
    h.update(json.dumps(payload, sort_keys=True).encode())
    h.update(timeline.canonical_bytes())
    return h.hexdigest()


def test_shared_batch_golden_digest():
    assert _shared_batch_digest() == GOLDEN_SHARED_BATCH

