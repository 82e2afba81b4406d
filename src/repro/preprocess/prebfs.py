"""Pre-BFS: the paper's host-side preprocessing (Section V).

A ``(k-1)``-hop bidirectional BFS computes ``sd_s`` (forward from ``s``) and
``sd_t`` (backward from ``t`` on the reverse graph).  Only vertices with
``sd_s[u] + sd_t[u] <= k`` can lie on an s-t k-path (Theorem 1), and the
paper proves ``(k-1)`` hops suffice because the only valid vertices a k-th
hop could add are ``s`` and ``t`` themselves — so those two are force-kept.

The result carries the induced subgraph, the remapped endpoints, and the
*barrier* array ``bar[u] = sd(u, t)`` that PEFP's barrier check uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.csr import CSRGraph
from repro.host.cost_model import OpCounter
from repro.host.query import Query
from repro.preprocess.bfs import charged_reverse, k_hop_bfs


@dataclass
class PreBFSResult:
    """Everything the host ships to FPGA DRAM for one query."""

    subgraph: CSRGraph
    source: int
    target: int
    max_hops: int
    barrier: np.ndarray
    old_of_new: np.ndarray
    #: vertex count of the graph the subgraph was cut from.
    parent_num_vertices: int
    ops: OpCounter
    _old_lut: list | None = field(default=None, repr=False, compare=False)

    @property
    def new_of_old(self) -> np.ndarray:
        """Subgraph id of every parent-graph vertex (``-1``: dropped).

        Rebuilt from ``old_of_new`` on each access rather than kept: it
        has one entry per parent vertex, and memoised results would
        otherwise each hold one.
        """
        new_of_old = np.full(self.parent_num_vertices, -1, dtype=np.int64)
        new_of_old[self.old_of_new] = np.arange(self.old_of_new.size,
                                                dtype=np.int64)
        return new_of_old

    @property
    def is_empty(self) -> bool:
        """True when preprocessing already proved there is no s-t k-path."""
        return self.subgraph.num_edges == 0

    def translate_path(self, path: tuple[int, ...]) -> tuple[int, ...]:
        """Map a subgraph-id path back to original graph ids."""
        lut = self._old_lut
        if lut is None:
            # One id-translation table per query, shared by every emitted
            # path: a plain-list lookup keeps the per-path cost at a tuple
            # of list reads instead of per-vertex ndarray scalar boxing.
            lut = self.old_of_new.tolist()
            self._old_lut = lut
        return tuple(map(lut.__getitem__, path))

    def translate_paths(
        self, paths: list[tuple[int, ...]]
    ) -> list[tuple[int, ...]]:
        """Map many subgraph-id paths back to original graph ids."""
        lut = self._old_lut
        if lut is None:
            lut = self.old_of_new.tolist()
            self._old_lut = lut
        getter = lut.__getitem__
        return [tuple(map(getter, p)) for p in paths]


def pre_bfs(graph: CSRGraph, query: Query,
            counter: OpCounter | None = None,
            sd_s: np.ndarray | None = None) -> PreBFSResult:
    """Run Pre-BFS for ``query`` on ``graph``.

    Steps (paper, Section V): (1) ``(k-1)``-hop BFS from ``s`` on ``G``;
    (2) ``(k-1)``-hop BFS from ``t`` on ``G_rev``; (3) keep vertices with
    ``sd_s[u] + sd_t[u] <= k`` (plus ``s`` and ``t``); (4) return the induced
    subgraph in CSR form together with the barrier ``sd_t``.

    ``sd_s`` may carry a precomputed ``(k-1)``-hop forward distance array
    (from the service's forward-frontier memo, where same-source queries
    share it); step (1) is then skipped and its cost is whatever the memo
    charged.  The caller is responsible for ``sd_s`` matching this graph,
    source, and hop budget — the arrays here are never mutated, so a
    shared one stays valid.
    """
    query.validate(graph)
    ops = counter if counter is not None else OpCounter()
    k = query.max_hops
    s, t = query.source, query.target

    if sd_s is None:
        sd_s = k_hop_bfs(graph, s, k - 1, ops)
    # The reverse CSR is a per-graph artifact, not per-query work: it is
    # built (and charged) once per graph and reused by every later query.
    sd_t = k_hop_bfs(charged_reverse(graph, ops), t, k - 1, ops)

    # Reached both ways (an OR of two int64 arrays is negative exactly
    # when one of them is -1) and within the hop budget.
    within = ((sd_s | sd_t) >= 0) & (sd_s + sd_t <= k)
    # (k-1)-hop sufficiency: the only valid vertices a k-th BFS hop could
    # discover are s (when sd(s,t) = k) and t — keep them unconditionally.
    within[s] = True
    within[t] = True
    keep = np.flatnonzero(within)
    ops.add("set_insert", int(keep.size))

    subgraph, old_of_new, new_of_old = graph.induced_subgraph(keep)
    ops.add("csr_build_edge", subgraph.num_edges)

    # Barrier in subgraph id space.  Unreached within k-1 hops can only be
    # s itself (then the true distance is >= k, so k is a valid lower bound).
    barrier = sd_t[old_of_new]
    barrier[barrier < 0] = k
    return PreBFSResult(
        subgraph=subgraph,
        source=int(new_of_old[s]),
        target=int(new_of_old[t]),
        max_hops=k,
        barrier=barrier,
        old_of_new=old_of_new,
        parent_num_vertices=graph.num_vertices,
        ops=ops,
    )
