"""Differential suite: the multi-PE device model is PE-count-invariant.

The PEFP driver (:func:`repro.core.multi_pe.run_multi_pe`) partitions
the CSR over ``num_pes`` processing elements and routes frontier records
over modelled FIFOs; every :meth:`PEFPEngine.run` goes through it.  Its
contract has two tiers:

* **N = 1 is byte-identical** to the existing engines.  The driver at
  ``num_pes=1`` must reproduce
  :class:`~repro.core.engine_reference.ReferencePEFPEngine` — and hence
  the vectorised :class:`~repro.core.engine.PEFPEngine` — exactly: same
  paths in the same order, same cycles, same
  :class:`~repro.core.engine.EngineStats`, same memory-port traffic,
  same :class:`~repro.fpga.profile.DeviceProfile`.
* **Every N enumerates the identical path set** with deterministic cycle
  accounting: for N in {1, 2, 4, 8} and both partition strategies, the
  sorted path set, path count and truncation flag equal the single-PE
  answer; repeat runs are byte-deterministic (cycles, message counts,
  profile dict); and the profile's ``inter_pe`` segment reconciles —
  ``accounted_cycles == total_cycles`` in integer arithmetic.  Golden
  digests pin every N > 1 byte for byte: paths in emitted order, cycles,
  stats, memory traffic and profile.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random

import pytest

from repro.core.config import PEFPConfig, QueryBudget
from repro.core.engine import PEFPEngine
from repro.core.engine_reference import ReferencePEFPEngine
from repro.fpga.device import DeviceConfig
from repro.graph import generators as G
from repro.host.query import Query
from repro.preprocess.prebfs import pre_bfs
from repro.service import BatchQueryService
from repro.workloads import generate_queries

PE_COUNTS = (1, 2, 4, 8)
STRATEGIES = ("range", "hash")


def _graphs():
    return [
        ("chung_lu", G.chung_lu(60, 320, seed=11)),
        ("grid", G.grid_graph(7, 7)),
        ("pref_attach", G.preferential_attachment(70, 3, seed=5)),
    ]


def _prepared(graph, s, t, k):
    """Pre-BFS the query; None when the subgraph is empty."""
    sub = pre_bfs(graph, Query(s, t, k))
    if sub.is_empty:
        return None
    return sub.subgraph, sub.source, sub.target, sub.barrier


def _queries(graph, k, count, seed):
    rng = random.Random(seed)
    n = graph.num_vertices
    out = []
    while len(out) < count:
        s, t = rng.randrange(n), rng.randrange(n)
        if s == t:
            continue
        prep = _prepared(graph, s, t, k)
        if prep is not None:
            out.append(prep)
    return out


def _assert_identical(got, ref):
    """Byte-identity as asserted by the vectorisation differential."""
    assert got.paths == ref.paths  # exact order, exact tuples
    assert got.cycles == ref.cycles
    assert got.truncated == ref.truncated
    assert got.stats == ref.stats
    assert (got.device.bram.port.as_dict()
            == ref.device.bram.port.as_dict())
    assert (got.device.dram.port.as_dict()
            == ref.device.dram.port.as_dict())
    if ref.profile is not None:
        assert got.profile is not None
        assert got.profile.to_dict() == ref.profile.to_dict()
        assert got.profile.batches == ref.profile.batches
        assert got.profile.refills == ref.profile.refills
        assert (got.profile.accounted_cycles
                == got.profile.total_cycles)


def _fingerprint(result):
    """What every PE count must agree on (order-insensitive answers)."""
    return {
        "path_set": sorted(result.paths),
        "total_paths": result.stats.results,
        "truncated": result.truncated,
    }


def _byte_fingerprint(result):
    """What repeat runs at the same N must reproduce exactly."""
    out = {
        "paths": result.paths,
        "cycles": result.cycles,
        "stats": result.stats,
    }
    if result.profile is not None:
        out["profile"] = result.profile.to_dict()
        out["inter_pe"] = result.profile.inter_pe
    return out


def _run_pe(prep, k, num_pes, strategy="range", config=None, budget=None,
            profile=False):
    graph, s, t, barrier = prep
    dcfg = DeviceConfig(num_pes=num_pes, pe_partition=strategy)
    engine = PEFPEngine(config=config, device_config=dcfg)
    return engine.run(graph, s, t, k, barrier, budget=budget,
                      profile=profile)


# ---------------------------------------------------------------------------
# Tier 1: the N=1 byte-equal gate
# ---------------------------------------------------------------------------

N1_CONFIGS = [
    ("default", PEFPConfig(), None),
    ("tiny_buffer",
     PEFPConfig(buffer_capacity_paths=4, theta1=3, theta2=8), None),
    ("no_cache", PEFPConfig(use_cache=False), None),
    ("fifo_scheduler", PEFPConfig(use_batch_dfs=False, theta2=16), None),
    ("partial_caches",
     PEFPConfig(graph_cache_words=80, barrier_cache_words=20), None),
    ("result_budget", PEFPConfig(), QueryBudget(max_results=9)),
    ("cycle_budget", PEFPConfig(), QueryBudget(max_cycles=500)),
]


def _chung_lu_queries():
    """Four prepared chung_lu queries with hop bounds drawn from 3..5."""
    graph = G.chung_lu(60, 320, seed=11)
    rng = random.Random(17)
    n = graph.num_vertices
    out = []
    while len(out) < 4:
        s, t = rng.randrange(n), rng.randrange(n)
        if s == t:
            continue
        k = rng.randint(3, 5)
        prep = _prepared(graph, s, t, k)
        if prep is None:
            continue
        out.append((prep, k))
    return out


@pytest.mark.parametrize("label,config,budget", N1_CONFIGS,
                         ids=[c[0] for c in N1_CONFIGS])
def test_forced_driver_n1_is_byte_identical(label, config, budget):
    """The driver at N=1 == reference loop == vectorised engine."""
    for prep, k in _chung_lu_queries():
        sub, ps, pt, barrier = prep
        driver = PEFPEngine(
            config=config, device_config=DeviceConfig(num_pes=1),
        ).run(sub, ps, pt, k, barrier, budget=budget, profile=True)
        ref = ReferencePEFPEngine(config=config).run(
            sub, ps, pt, k, barrier, budget=budget, profile=True)
        fast = PEFPEngine(config=config).run(
            sub, ps, pt, k, barrier, budget=budget, profile=True)
        _assert_identical(driver, ref)
        _assert_identical(driver, fast)


def test_explicit_n1_matches_default_engine():
    """An explicit ``DeviceConfig(num_pes=1)`` is byte-equal to the
    default engine, and its profile reports ``num_pes == 1`` with an
    empty ``inter_pe`` segment."""
    prep = _prepared(G.grid_graph(6, 6), 0, 35, 12)
    assert prep is not None
    sub, s, t, barrier = prep
    one = PEFPEngine(device_config=DeviceConfig(num_pes=1)).run(
        sub, s, t, 12, barrier, profile=True)
    plain = PEFPEngine().run(sub, s, t, 12, barrier, profile=True)
    _assert_identical(one, plain)
    assert one.profile.num_pes == 1
    assert one.profile.inter_pe == ()
    assert one.profile.inter_pe_cycles == 0


# ---------------------------------------------------------------------------
# Tier 2: every N enumerates the identical path set, deterministically
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,graph", _graphs())
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_all_pe_counts_enumerate_identical_paths(name, graph, strategy):
    k = 4
    for prep in _queries(graph, k, 5, seed=sum(map(ord, name))):
        base = _run_pe(prep, k, 1, strategy, profile=True)
        want = _fingerprint(base)
        for n in PE_COUNTS[1:]:
            got = _run_pe(prep, k, n, strategy, profile=True)
            assert _fingerprint(got) == want, (
                f"{name}/{strategy}: N={n} diverged from N=1"
            )
            assert (got.profile.accounted_cycles
                    == got.profile.total_cycles)
            assert got.profile.num_pes == n


def _golden_digest(results):
    """SHA-256 of everything a multi-PE run reports, paths in order."""
    payload = [{
        "paths": r.paths,
        "cycles": r.cycles,
        "truncated": r.truncated,
        "stats": dataclasses.asdict(r.stats),
        "memory_counters": r.device.memory_counters(),
        "profile": r.profile.to_dict(),
    } for r in results]
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


#: digests of the driver over the four chung_lu queries, per (num_pes,
#: strategy, N1_CONFIGS label).  The other N > 1 tests compare path
#: sets only; these pin path order, cycles, counters, memory traffic
#: and profile fields byte for byte.
GOLDEN_MULTI_PE = {
    (2, "range", "default"):
        "9e652ffb277bb5354668369f04804babd58e883f6a3f154daa6e93f7aea96b64",
    (2, "range", "tiny_buffer"):
        "8729e41fde405caa56ed5f49783982a00cb68b511877ca8049aa5cba5ae2a39e",
    (2, "range", "no_cache"):
        "24a4c0b134e3dd4177e58718901192af60e9f02e1543bb69eb2f14b06b45aacb",
    (2, "range", "fifo_scheduler"):
        "6c3ccf60c25d845bb3958b4c15ef223c9a001756c1035276bae4f39213b4fccf",
    (2, "range", "partial_caches"):
        "dfdfd6c340e9c1269e136071aec4de983aeebf41be4c21cd3c6693c06ee92f13",
    (2, "range", "result_budget"):
        "82a161ef5b42f4de7145a7f6ca9ab00cb472611e9488537f42b68127cfdb2795",
    (2, "range", "cycle_budget"):
        "42ae4a8ae462ff3c651ca960ad6cedff17021934520b185361bf0f15b93c81a5",
    (2, "hash", "default"):
        "a179b576e9b0fc2fbab39f4c51b86ae40d54fc41079d153bbe91f5ec1ae17fa4",
    (2, "hash", "tiny_buffer"):
        "20b074293935a9571a1b2fadacae6fefc48f784f2087104e3c8875b3ff1d2633",
    (2, "hash", "no_cache"):
        "83f2f0266fd692e87eee90ec93fa3d7a8b4e2d05568de6214e6040ad64d355e2",
    (2, "hash", "fifo_scheduler"):
        "d544fe95db871b24fb8a9935cea6a62dc774f9262872d4ac0f4430e1112e2c52",
    (2, "hash", "partial_caches"):
        "e943640e26daa38dd40447b4567b410cc4f1c1d69fc1528a048d48d78f16ddf3",
    (2, "hash", "result_budget"):
        "6a0954f967b2d70b7184938b40d68487d3b7d1388a6bdb62a19b490d1a76de80",
    (2, "hash", "cycle_budget"):
        "f888bdadc9058d26ab6caab9eb70b9dd08f38c5c18407c3ab241a9a06c56c7bc",
    (4, "range", "default"):
        "5cdd5b65f99f06ed8a3ff7e3e7f794b108b962836f13f104ea220d5b20f542c6",
    (4, "range", "tiny_buffer"):
        "8ceeb96e894c167f6757a95019f2018d703695219fc0ca3b5b3c4e0154eefdb0",
    (4, "range", "no_cache"):
        "6fc355aa2e89403fedb35c7547d9fd5e9926c31a469ff59305b2cbb17c5a725a",
    (4, "range", "fifo_scheduler"):
        "fc8e363eec6fba06ad00136d671ce4509c518bc354254782b7079001a03bb7a1",
    (4, "range", "partial_caches"):
        "6212cb1bd970830e577e5f719223f0e165503256b0301017651895d1bf46c60a",
    (4, "range", "result_budget"):
        "7ece32f22abd4ca1d36332418ff475e7bd42b789b4639d482bb3a5f1b89a3539",
    (4, "range", "cycle_budget"):
        "c03f45cb3b401006597aa09a477d22294e88f2553df72d67aeccd572c68a205f",
    (4, "hash", "default"):
        "8c74674b5dc7759c6fb896d554bf9fddec81c7b952c6064d01af60ffd27ab036",
    (4, "hash", "tiny_buffer"):
        "2bb9e4c628890c9a44522f56be23d29380a747b553ca9b60155695992bfe9335",
    (4, "hash", "no_cache"):
        "45dc53b7667a6943260122e1b114360ecf79a483b2ba0dd0111f65c0fbc9594e",
    (4, "hash", "fifo_scheduler"):
        "d2c4458d55eb9edefa8e48e9496542ceeeb71f89637a7b7db27851b0b3a2ace3",
    (4, "hash", "partial_caches"):
        "e740d40fde300b99084072f78e454190c0bccdc56a975c36fd4bd4fb187492ea",
    (4, "hash", "result_budget"):
        "004af381f711d3ab1ab53cfd6e92b776bdd89584c85ab91c85710b7215248197",
    (4, "hash", "cycle_budget"):
        "3293f48e41f174b9a37fbe85e85f34cf41f0af5cd2b1203e51c693ca9e44a798",
    (8, "range", "default"):
        "8e8ecd147cbee2bae878d788e262039c3adba74eb60c2fadb5b03fd3dc792793",
    (8, "range", "tiny_buffer"):
        "a5f3ba17e869405c56bd3c1ba5a35e8dedde8b7e09db2da476df5778c0f83bf2",
    (8, "range", "no_cache"):
        "01c0f53bd0a7e00d94a870d4912b135bb26e7cec584fd81b0c01b50255483221",
    (8, "range", "fifo_scheduler"):
        "75b88b4abe7c188ca97e40bbbc5def1fa984202357b9e819e924fd5196d49582",
    (8, "range", "partial_caches"):
        "64746a8a4dca80ac5c9c00ff5d21c6162d1ded09ce462846ef784825cf124980",
    (8, "range", "result_budget"):
        "07827302bf1a321e9c4aba59f9344cca78332667120aa8282744dc9bd1a32e3e",
    (8, "range", "cycle_budget"):
        "eacd038928ba720d9502b903da5e0cf73acd4cbf2a8190f129dd6c88fa6dec09",
    (8, "hash", "default"):
        "47aeea243aead6206843d50cd9ba17fd93763a2a4f4dbf6572c747c433c07d5e",
    (8, "hash", "tiny_buffer"):
        "a58b3c36d3846f7da8e59656c63af81f380003867a20c510e6c99066d03bf0e5",
    (8, "hash", "no_cache"):
        "a52788bc447e71c69671b1d0b1f587936c2737c097d843f3249a7d18d4f9932e",
    (8, "hash", "fifo_scheduler"):
        "8583ba65cc342ce7ae85ceb57c2489d6503c869732d0df102fe92eb14e6f7002",
    (8, "hash", "partial_caches"):
        "7622ba1fdda8bb52effec83ec9c4eedb19eb0ef228cdb34f01af31894e0e9ea3",
    (8, "hash", "result_budget"):
        "9d49ecc48f7b159c15b80620c2cfec6519611e22aa54bfd9d0578c0deba39b60",
    (8, "hash", "cycle_budget"):
        "cd0bbf6dcb124867710ad81fdde06a80afea6db3b60bcfb13552515017c927de",
}


@pytest.mark.parametrize("num_pes", (2, 4, 8))
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("label,config,budget", N1_CONFIGS,
                         ids=[c[0] for c in N1_CONFIGS])
def test_multi_pe_golden_fingerprints(num_pes, strategy, label, config,
                                      budget):
    results = [
        _run_pe(prep, k, num_pes, strategy, config=config, budget=budget,
                profile=True)
        for prep, k in _chung_lu_queries()
    ]
    assert (_golden_digest(results)
            == GOLDEN_MULTI_PE[(num_pes, strategy, label)])


@pytest.mark.parametrize("scheduler_label,config", [
    ("batch_dfs", PEFPConfig()),
    ("fifo", PEFPConfig(use_batch_dfs=False, theta2=16)),
    ("tiny_buffer", PEFPConfig(buffer_capacity_paths=4, theta1=3,
                               theta2=8)),
])
def test_pe_counts_agree_across_schedulers(scheduler_label, config):
    graph = G.chung_lu(50, 300, seed=3)
    k = 4
    for prep in _queries(graph, k, 3, seed=29):
        base = _run_pe(prep, k, 1, config=config)
        want = _fingerprint(base)
        for n in (2, 4, 8):
            got = _run_pe(prep, k, n, "hash", config=config)
            assert _fingerprint(got) == want, (
                f"{scheduler_label}: N={n} diverged"
            )


@pytest.mark.parametrize("k", (2, 3, 5))
def test_pe_counts_agree_across_hop_bounds(k):
    graph = G.preferential_attachment(70, 3, seed=5)
    for prep in _queries(graph, k, 3, seed=7 * k):
        want = _fingerprint(_run_pe(prep, k, 1))
        for n in (2, 8):
            for strategy in STRATEGIES:
                got = _run_pe(prep, k, n, strategy)
                assert _fingerprint(got) == want


@pytest.mark.parametrize("num_pes", (2, 4, 8))
def test_multi_pe_runs_are_byte_deterministic(num_pes):
    graph = G.chung_lu(60, 320, seed=11)
    k = 4
    for prep in _queries(graph, k, 3, seed=41):
        first = _run_pe(prep, k, num_pes, "hash", profile=True)
        second = _run_pe(prep, k, num_pes, "hash", profile=True)
        assert _byte_fingerprint(first) == _byte_fingerprint(second)


def test_multi_pe_respects_result_budget():
    graph = G.chung_lu(60, 340, seed=7)
    prep = _prepared(graph, 2, 40, 5)
    if prep is None:
        pytest.skip("no subgraph for this query")
    base = _run_pe(prep, 5, 1, budget=QueryBudget(max_results=9))
    for n in (2, 4, 8):
        got = _run_pe(prep, 5, n, "range",
                      budget=QueryBudget(max_results=9))
        assert len(got.paths) <= 9
        assert got.truncated == base.truncated
        # A budget-truncated prefix need not be the same *set* across PE
        # counts (delivery order differs), but every path must be valid
        # — a member of the untruncated N=1 answer.
        full = set(_run_pe(prep, 5, 1).paths)
        assert set(got.paths) <= full


def test_multi_pe_cycle_budget_truncates_deterministically():
    graph = G.chung_lu(60, 340, seed=7)
    prep = _prepared(graph, 2, 40, 5)
    if prep is None:
        pytest.skip("no subgraph for this query")
    for n in (2, 4):
        a = _run_pe(prep, 5, n, "hash", budget=QueryBudget(max_cycles=500))
        b = _run_pe(prep, 5, n, "hash", budget=QueryBudget(max_cycles=500))
        assert a.paths == b.paths
        assert a.cycles == b.cycles
        assert a.truncated == b.truncated


def test_inter_pe_segment_tiles_exactly():
    """The inter-PE charges reported in stats equal the profile's
    ``inter_pe`` events, and the profile reconciles in integer cycles."""
    graph = G.chung_lu(60, 320, seed=11)
    prep = _prepared(graph, 0, 5, 4)
    assert prep is not None
    got = _run_pe(prep, 4, 4, "hash", profile=True)
    prof = got.profile
    assert prof.accounted_cycles == prof.total_cycles
    total_events = sum(e.cycles for e in prof.inter_pe)
    assert prof.inter_pe_cycles == total_events
    stats_total = (got.stats.inter_pe_route_cycles
                   + got.stats.inter_pe_arbiter_cycles
                   + got.stats.inter_pe_stall_cycles
                   + got.stats.inter_pe_barrier_cycles)
    assert stats_total == total_events
    assert got.stats.stage_cycles.get("inter_pe", 0) == total_events
    if got.stats.inter_pe_messages:
        assert prof.inter_pe_messages == got.stats.inter_pe_messages


# ---------------------------------------------------------------------------
# Tier 3: the serving stack end to end
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scheduler", ("round-robin", "work-stealing"))
def test_service_answers_are_pe_count_invariant(scheduler):
    graph = G.chung_lu(60, 300, seed=32)
    queries = generate_queries(graph, 4, 8, seed=13)

    def serve(num_pes):
        kwargs = {}
        if num_pes > 1:
            kwargs["device_config"] = DeviceConfig(
                num_pes=num_pes, pe_partition="hash")
        service = BatchQueryService(graph, num_engines=2,
                                    scheduler=scheduler, **kwargs)
        try:
            return service.run(queries)
        finally:
            service.close()

    base = serve(1)
    for n in (2, 4):
        report = serve(n)
        assert report.path_sets() == base.path_sets()
        assert ([r.num_paths for r in report.reports]
                == [r.num_paths for r in base.reports])
        assert ([r.truncated for r in report.reports]
                == [r.truncated for r in base.reports])
