"""Hop-bounded breadth-first search, instrumented for the CPU cost model."""

from __future__ import annotations

import numpy as np

from repro.errors import VertexNotFoundError
from repro.graph.csr import CSRGraph, sorted_unique
from repro.host.cost_model import OpCounter


def charged_reverse(
    graph: CSRGraph,
    counter: OpCounter | None = None,
) -> CSRGraph:
    """``G_rev`` with its construction cost charged to ``counter``.

    :meth:`CSRGraph.reverse` memoises the reverse graph per instance, so
    across a query batch only the *first* caller pays the build (charged as
    ``rev_build_edge`` per reverse edge); every later call is a cache hit
    and charges only the zero-cost ``rev_cache_hit`` marker, which lets
    batch-level reports count how often the shared artifact was reused.
    """
    hit = graph.has_cached_reverse
    rev = graph.reverse()
    if counter is not None:
        if hit:
            counter.add("rev_cache_hit")
        else:
            counter.add("rev_build_edge", rev.num_edges)
    return rev


def _level_synchronous_bfs(
    graph: CSRGraph,
    frontier: np.ndarray,
    dist: np.ndarray,
    max_hops: int,
    counter: OpCounter | None,
) -> np.ndarray:
    """Expand ``frontier`` (all at distance 0, sorted, distinct) level by
    level, for ``max_hops >= 1`` levels.

    Each level is one array pass: :meth:`CSRGraph.gather` lays out the
    frontier's successor lists, the unvisited ones take the next
    distance, and :func:`~repro.graph.csr.sorted_unique` turns them into
    the next sorted, distinct frontier.  The last level's discoveries are
    written to ``dist`` but never expanded, so they are not deduplicated.

    Charges the *same totals* a FIFO-queue BFS would: one ``vertex_visit``
    per vertex that ever enters the queue (= every reached vertex — those
    discovered at distance ``max_hops`` still dequeue once before being
    skipped) and ``deg(u)`` ``bfs_relax`` per dequeued vertex that relaxes
    (``dist[u] < max_hops``).  :class:`~repro.host.cost_model.OpCounter`
    is an order-free tally, so aggregating the per-vertex charges into one
    per-level ``add`` is exact.  Level-synchronous expansion from a fixed
    distance-0 seed set yields the identical ``dist`` array as FIFO order.
    """
    relaxed_edges = 0
    for level in range(1, max_hops + 1):
        nbrs, _ = graph.gather(frontier)
        relaxed_edges += nbrs.size
        fresh = nbrs[dist[nbrs] < 0]
        if fresh.size == 0:
            break
        # Duplicate discoveries in one level all write the same distance.
        dist[fresh] = level
        if level < max_hops:
            frontier = sorted_unique(fresh)
    if counter is not None:
        counter.add("vertex_visit", int(np.count_nonzero(dist >= 0)))
        counter.add("bfs_relax", relaxed_edges)
    return dist


def k_hop_bfs(
    graph: CSRGraph,
    source: int,
    max_hops: int,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Shortest distances from ``source``, exploring at most ``max_hops`` hops.

    Returns an ``int64`` array with ``dist[v] = sd(source, v)`` for every
    vertex within ``max_hops`` hops and ``-1`` for the rest.  Work is charged
    to ``counter`` as ``vertex_visit`` (per dequeued vertex) and ``bfs_relax``
    (per scanned edge).
    """
    n = graph.num_vertices
    if not 0 <= source < n:
        raise VertexNotFoundError(source, n)
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    if max_hops <= 0:
        return dist
    frontier = np.array([source], dtype=np.int64)
    return _level_synchronous_bfs(graph, frontier, dist, max_hops, counter)


def multi_source_k_hop_bfs(
    graph: CSRGraph,
    sources: np.ndarray,
    max_hops: int,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Hop-bounded BFS from a set of sources (all at distance 0).

    Used by JOIN to compute distances to its virtual vertices, e.g.
    ``sd(v, t') = 1 + min over middles m of sd(v, m)`` via a multi-source
    BFS from the middles on the reverse graph.
    """
    n = graph.num_vertices
    dist = np.full(n, -1, dtype=np.int64)
    frontier = sorted_unique(np.array(sources, dtype=np.int64).ravel())
    if frontier.size and (frontier[0] < 0 or frontier[-1] >= n):
        # Name the first out-of-range id in ascending order.
        bad = frontier[0] if frontier[0] < 0 else frontier[frontier >= n][0]
        raise VertexNotFoundError(int(bad), n)
    dist[frontier] = 0
    if frontier.size == 0:
        return dist
    if max_hops <= 0:
        # The queued sources still dequeue once each (no relaxation).
        if counter is not None:
            counter.add("vertex_visit", int(frontier.size))
        return dist
    return _level_synchronous_bfs(graph, frontier, dist, max_hops, counter)


def distances_with_default(dist: np.ndarray, default: int) -> np.ndarray:
    """Replace the ``-1`` (unreached) markers with ``default``.

    The paper sets unreached distances to ``k + 1`` before running JOIN.
    """
    out = dist.copy()
    out[out < 0] = default
    return out
