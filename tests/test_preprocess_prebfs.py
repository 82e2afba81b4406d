"""Tests for Pre-BFS: Theorem 1 (path-set preservation), (k-1)-hop
sufficiency, barrier validity and subgraph minimality."""

import hashlib

import numpy as np
import pytest

from conftest import brute_force_paths
from repro.datasets import DATASETS
from repro.errors import QueryError
from repro.graph import generators as G
from repro.graph.csr import CSRGraph
from repro.host.cost_model import OpCounter
from repro.host.query import Query
from repro.preprocess.bfs import k_hop_bfs, multi_source_k_hop_bfs
from repro.preprocess.prebfs import pre_bfs
from repro.workloads import generate_queries


def subgraph_paths_in_original_ids(prep, query):
    """Enumerate on the Pre-BFS subgraph, translated back."""
    paths = brute_force_paths(
        prep.subgraph, prep.source, prep.target, query.max_hops
    )
    return frozenset(prep.translate_path(p) for p in paths)


class TestPathPreservation:
    """Theorem 1: enumeration on G' is equivalent to enumeration on G."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs(self, seed):
        g = G.gnm_random(40, 180, seed=seed)
        rng = np.random.default_rng(seed)
        for _ in range(4):
            s, t = rng.integers(0, 40, size=2)
            if s == t:
                continue
            k = int(rng.integers(2, 6))
            query = Query(int(s), int(t), k)
            expected = brute_force_paths(g, int(s), int(t), k)
            prep = pre_bfs(g, query)
            assert subgraph_paths_in_original_ids(prep, query) == expected

    def test_diamond(self, diamond_graph):
        query = Query(0, 3, 3)
        prep = pre_bfs(diamond_graph, query)
        expected = brute_force_paths(diamond_graph, 0, 3, 3)
        assert subgraph_paths_in_original_ids(prep, query) == expected

    def test_exact_k_distance_pair_kept(self):
        """sd(s,t) == k: s is not reached by the (k-1)-hop reverse BFS but
        must survive (the theorem's special case)."""
        g = CSRGraph.from_edges(5, [(i, i + 1) for i in range(4)])
        query = Query(0, 4, 4)
        prep = pre_bfs(g, query)
        assert subgraph_paths_in_original_ids(prep, query) == frozenset(
            {(0, 1, 2, 3, 4)}
        )


class TestSearchSpaceReduction:
    def test_invalid_nodes_removed(self):
        """Fig. 3's scenario: a bushy branch that cannot reach t is cut."""
        edges = [(0, 1), (1, 2), (2, 3)]
        # vertices 4..23 hang off vertex 1 but never reach 3
        edges += [(1, v) for v in range(4, 24)]
        g = CSRGraph.from_edges(24, edges)
        prep = pre_bfs(g, Query(0, 3, 5))
        assert prep.subgraph.num_vertices == 4

    def test_subgraph_only_contains_valid_vertices(self):
        g = G.chung_lu(120, 700, seed=2)
        query = Query(0, 5, 4)
        prep = pre_bfs(g, query)
        k = query.max_hops
        sd_s = k_hop_bfs(g, query.source, k)
        sd_t = k_hop_bfs(g.reverse(), query.target, k)
        for old in prep.old_of_new:
            old = int(old)
            if old in (query.source, query.target):
                continue
            assert sd_s[old] >= 0 and sd_t[old] >= 0
            assert sd_s[old] + sd_t[old] <= k


class TestBarrier:
    def test_barrier_is_exact_distance_on_subgraph_members(self):
        g = G.gnm_random(50, 250, seed=8)
        query = Query(1, 7, 4)
        prep = pre_bfs(g, query)
        sd_t_full = k_hop_bfs(g.reverse(), query.target, query.max_hops)
        for new_id, old_id in enumerate(prep.old_of_new):
            bar = int(prep.barrier[new_id])
            true = int(sd_t_full[old_id])
            if true >= 0:
                assert bar <= true or bar == true
                # barrier must never exceed the true distance (lower bound)
                assert bar <= max(true, query.max_hops)

    def test_target_barrier_zero(self):
        g = G.cycle_graph(5)
        prep = pre_bfs(g, Query(0, 3, 4))
        assert prep.barrier[prep.target] == 0

    def test_barriers_nonnegative(self):
        g = G.chung_lu(60, 300, seed=4)
        prep = pre_bfs(g, Query(0, 9, 5))
        assert (prep.barrier >= 0).all()


class TestValidation:
    def test_same_endpoints_rejected(self, diamond_graph):
        with pytest.raises(QueryError):
            pre_bfs(diamond_graph, Query(1, 1, 3))

    def test_bad_hops_rejected(self, diamond_graph):
        with pytest.raises(QueryError):
            pre_bfs(diamond_graph, Query(0, 3, 0))

    def test_out_of_range_source(self, diamond_graph):
        with pytest.raises(QueryError):
            pre_bfs(diamond_graph, Query(99, 3, 3))

    def test_unreachable_pair_gives_empty_subgraph(self):
        g = CSRGraph.from_edges(4, [(0, 1), (2, 3)])
        prep = pre_bfs(g, Query(0, 3, 5))
        assert prep.is_empty
        assert brute_force_paths(
            prep.subgraph, prep.source, prep.target, 5
        ) == frozenset()


class TestOps:
    def test_operations_recorded(self):
        g = G.gnm_random(40, 160, seed=1)
        prep = pre_bfs(g, Query(0, 7, 4))
        assert prep.ops.count("vertex_visit") > 0
        assert prep.ops.count("bfs_relax") > 0

    def test_k_minus_one_cheaper_than_k(self):
        """Pre-BFS's (k-1)-hop BFS must do less work than k-hop BFS."""
        g = G.grid_graph(20, 20, seed=0)
        query = Query(0, 399, 12)
        prep = pre_bfs(g, query)
        from repro.host.cost_model import OpCounter

        full = OpCounter()
        k_hop_bfs(g, 0, 12, full)
        k_hop_bfs(g.reverse(), 399, 12, full)
        assert prep.ops.count("bfs_relax") <= full.count("bfs_relax")


# ----------------------------------------------------------------------
# Golden fingerprints: Pre-BFS outputs and charges, byte for byte
# ----------------------------------------------------------------------

#: name -> (builder of a fresh graph, hop budgets).  Built inside each
#: test: the reverse CSR's build charge lands on a graph's first query.
GOLDEN_GRAPHS = {
    "rt": (lambda: DATASETS["rt"].build(), (3, 4)),
    "wt": (lambda: DATASETS["wt"].build(), (3, 4)),
    "se": (lambda: DATASETS["se"].build(), (3, 4)),
    "chung_lu0": (lambda: G.chung_lu(80, 400, seed=0), (2, 3, 4, 5)),
    "chung_lu1": (lambda: G.chung_lu(300, 900, seed=1), (2, 3, 4, 5)),
    "chung_lu2": (lambda: G.chung_lu(150, 1200, seed=2), (2, 3, 4, 5)),
}


def _golden_pairs(graph, k, count, seed):
    """Reachable pairs from the workload generator plus uniform random
    pairs (mostly empty subgraphs on the sparse graphs)."""
    pairs = [(q.source, q.target)
             for q in generate_queries(graph, k, count, seed=seed)]
    rng = np.random.default_rng(seed)
    n = graph.num_vertices
    while len(pairs) < 2 * count:
        s, t = (int(v) for v in rng.integers(0, n, size=2))
        if s != t:
            pairs.append((s, t))
    return pairs


def _update_array(h, arr):
    arr = np.ascontiguousarray(arr)
    h.update(str(arr.dtype).encode())
    h.update(str(arr.shape).encode())
    h.update(arr.tobytes())


def _update_counter(h, ops):
    h.update(repr(sorted(ops.as_dict().items())).encode())


def _update_prep(h, prep):
    for arr in (prep.subgraph.indptr, prep.subgraph.indices, prep.barrier,
                prep.old_of_new, prep.new_of_old):
        _update_array(h, arr)
    h.update(repr((prep.source, prep.target, prep.max_hops)).encode())
    _update_counter(h, prep.ops)


def _plain_digest(graph, ks):
    h = hashlib.sha256()
    for k in ks:
        for s, t in _golden_pairs(graph, k, 20, seed=100 + k):
            _update_prep(h, pre_bfs(graph, Query(s, t, k), OpCounter()))
    return h.hexdigest()


def _shared_digest(graph, ks):
    """Same-source groups reading one forward BFS, as the service's
    forward-frontier memo hands it out."""
    h = hashlib.sha256()
    for k in ks:
        pairs = _golden_pairs(graph, k, 20, seed=200 + k)
        for source in sorted({s for s, _ in pairs})[:4]:
            memo = OpCounter()
            sd_s = k_hop_bfs(graph, source, k - 1, memo)
            _update_counter(h, memo)
            _update_array(h, sd_s)
            for _, t in pairs[:6]:
                if t == source:
                    continue
                prep = pre_bfs(graph, Query(source, t, k), OpCounter(),
                               sd_s=sd_s)
                _update_prep(h, prep)
    return h.hexdigest()


def _multi_source_digest(graph):
    """The JOIN path: multi-source BFS on G and G_rev, unsorted and
    duplicated source sets, 0..4 hops."""
    h = hashlib.sha256()
    rng = np.random.default_rng(7)
    n = graph.num_vertices
    for g in (graph, graph.reverse()):
        for size in (1, 3, 17):
            sources = rng.integers(0, n, size=size)
            sources = np.concatenate([sources, sources[:2]])
            for hops in range(5):
                ops = OpCounter()
                dist = multi_source_k_hop_bfs(g, sources, hops, ops)
                _update_array(h, dist)
                _update_counter(h, ops)
    return h.hexdigest()


#: SHA-256 per graph of every PreBFSResult array (dtype included), both
#: endpoints and the sorted OpCounter tallies, over a fixed query set;
#: "shared" reads sd_s from one forward BFS per source, "multi_source"
#: pins the JOIN path's distances and charges.
GOLDEN_PRE_BFS = {
    "chung_lu0": {
        "plain":
            "3f59bc55241dee3b0285701a31e8dbf42b80bb0829e20522822ab0b24e777a01",
        "shared":
            "8ac42518cba8fac63e843b20284a1f73e0a290dd291a8dc7e411e9a9d7b6a491",
        "multi_source":
            "e90511a7ea9abb03971e186008d3d8243d93093d74103e10d2f3c2197884a9ce",
    },
    "chung_lu1": {
        "plain":
            "bd83f9959e9f6ff9ed74db6b6add62972cdb935c69855d2400df3c01f40e4c97",
        "shared":
            "32b5ac36514c22c3a8e2c9ed1cc201632b504b81ec7ef5e7e0ad76705e93917a",
        "multi_source":
            "2e2907750aca5f6ef7ff18f98d6743073a136f79020d905832ff6895575ce233",
    },
    "chung_lu2": {
        "plain":
            "ff0d2ec89fb07a15216e2b0fc0d0f60ab1966b256a0b4b00e3bb2eb6742b2822",
        "shared":
            "3fe95670e19c416fb90f502d5c2a850226707a2ff30635d7408100874b651b71",
        "multi_source":
            "77f784d1512f6d4124cc0865bf9da31eb23078b6a90100a1464aec7dde454c58",
    },
    "rt": {
        "plain":
            "85076c73efc5ade939dbf0e2e0bc0d6612b12a89d68339950b861cf693fb2a19",
        "shared":
            "ad7bc87ecfc00aff242c3e1b2faf56d8a7bb9daa75c963f025e06cc5f1ca1e5d",
        "multi_source":
            "864ac2d82477a8b9c0dfbf7648baab740d5374a87b6b50ebb41f8ddbe7fdc8b3",
    },
    "se": {
        "plain":
            "8b326e45ce1e5d8082e3b8b44fbfc1c9a0efee794841263b36833619d185cb46",
        "shared":
            "33220812cc4b408a13aa110f36836d5864fedefc21dfe507f9fdab2a2019a1b7",
        "multi_source":
            "dc84c29cb43bf1369c1589e4706e81f250276cc9bb6133adfcbdf1f9e58806ba",
    },
    "wt": {
        "plain":
            "a62504c315a20ee307a07768ce137bbfd724fc5c0e6bdd985e9641815f68aad2",
        "shared":
            "283f8df70eddd59392eedf917aa307e6b3871b93e037c55e1fa913373a3796d2",
        "multi_source":
            "d97afd3e137a006d684a2339778876be588d252679935c589d1d331ad39b4c47",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_GRAPHS))
def test_pre_bfs_golden_fingerprints(name):
    build, ks = GOLDEN_GRAPHS[name]
    graph = build()
    got = {
        "plain": _plain_digest(graph, ks),
        "shared": _shared_digest(graph, ks),
        "multi_source": _multi_source_digest(graph),
    }
    assert got == GOLDEN_PRE_BFS[name]


def _held_sizes(prep):
    """Lengths of every array and list a Pre-BFS result keeps, the CSR
    subgraph's included."""
    for value in vars(prep).values():
        if isinstance(value, CSRGraph):
            yield from (len(value.indptr), len(value.indices))
        elif isinstance(value, (np.ndarray, list)):
            yield len(value)


def test_memoised_result_holds_no_vertex_sized_array():
    """A Pre-BFS memo entry is as large as its subgraph, not its graph;
    ``new_of_old`` is rebuilt from ``old_of_new`` when asked for."""
    from repro.service.cache import GraphArtifactCache

    graph = DATASETS["wt"].build()
    n = graph.num_vertices
    cache = GraphArtifactCache()
    for query in generate_queries(graph, 3, 8, seed=5):
        prep = cache.pre_bfs(graph, query)
        assert cache.pre_bfs(graph, query) is prep  # the memo entry
        prep.translate_paths([])  # builds the id lookup table it keeps
        assert 0 < prep.subgraph.num_vertices < n
        assert max(_held_sizes(prep)) < n
        new_of_old = prep.new_of_old
        assert new_of_old.dtype == np.int64 and new_of_old.shape == (n,)
        assert (new_of_old[prep.old_of_new]
                == np.arange(prep.subgraph.num_vertices)).all()
        assert (new_of_old >= 0).sum() == prep.subgraph.num_vertices
        assert new_of_old[query.source] == prep.source
        assert new_of_old[query.target] == prep.target
