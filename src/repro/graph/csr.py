"""Immutable Compressed Sparse Row graph.

This is the storage format the paper ships to FPGA DRAM (Section V): a
``vertex_arr`` of row offsets (``indptr``) and an ``edge_arr`` of neighbor
ids (``indices``).  All enumeration algorithms in this package operate on
:class:`CSRGraph`.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.errors import GraphError, VertexNotFoundError


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sort the 1-D array ``values`` in place; return its distinct entries.

    ``np.unique`` by one in-place sort and an adjacent-difference mask.
    On integers NumPy 2.x's ``np.unique`` takes a hash path that costs
    about 100 ns an element, which dominated every BFS level.
    """
    values.sort()
    if values.size < 2:
        return values
    first = np.empty(values.size, dtype=bool)
    first[0] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]


class CSRGraph:
    """A directed graph in CSR form.

    Attributes
    ----------
    indptr:
        ``int64`` array of length ``n + 1``; the successors of vertex ``u``
        live in ``indices[indptr[u]:indptr[u + 1]]``, sorted ascending.
    indices:
        ``int64`` array of length ``m`` holding neighbor ids.
    """

    __slots__ = ("indptr", "indices", "_rev", "_adj", "rev_builds")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise GraphError("indptr and indices must be 1-D arrays")
        if indptr.size == 0 or indptr[0] != 0:
            raise GraphError("indptr must start with 0")
        if indptr[-1] != indices.size:
            raise GraphError(
                f"indptr[-1]={indptr[-1]} does not match |indices|={indices.size}"
            )
        if np.any(np.diff(indptr) < 0):
            raise GraphError("indptr must be non-decreasing")
        n = indptr.size - 1
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            raise GraphError("edge endpoint outside vertex range")
        self.indptr = indptr
        self.indices = indices
        self._rev: CSRGraph | None = None
        self._adj: tuple[tuple[int, ...], ...] | None = None
        #: number of times the reverse CSR was actually constructed for
        #: this instance (0 or 1; regression-tested by the batch service).
        self.rev_builds = 0

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls, num_vertices: int, edges: Iterable[tuple[int, int]]
    ) -> "CSRGraph":
        """Build from an edge iterable, deduplicating and dropping self loops."""
        pairs = {(u, v) for u, v in edges if u != v}
        if pairs:
            arr = np.array(sorted(pairs), dtype=np.int64)
            if arr.min() < 0 or arr.max() >= num_vertices:
                bad = int(arr.min()) if arr.min() < 0 else int(arr.max())
                raise VertexNotFoundError(bad, num_vertices)
            srcs, dsts = arr[:, 0], arr[:, 1]
        else:
            srcs = dsts = np.empty(0, dtype=np.int64)
        counts = np.bincount(srcs, minlength=num_vertices)
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(indptr, dsts)

    @classmethod
    def empty(cls, num_vertices: int = 0) -> "CSRGraph":
        return cls(np.zeros(num_vertices + 1, dtype=np.int64),
                   np.empty(0, dtype=np.int64))

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.indptr.size - 1

    @property
    def num_edges(self) -> int:
        return self.indices.size

    def successors(self, u: int) -> np.ndarray:
        """Sorted out-neighbors of ``u`` (a read-only view)."""
        self._check(u)
        return self.indices[self.indptr[u]:self.indptr[u + 1]]

    def out_degree(self, u: int) -> int:
        self._check(u)
        return int(self.indptr[u + 1] - self.indptr[u])

    def has_edge(self, u: int, v: int) -> bool:
        self._check(v)
        row = self.successors(u)
        pos = int(np.searchsorted(row, v))
        return pos < row.size and row[pos] == v

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.num_vertices):
            for v in self.successors(u):
                yield (u, int(v))

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex as an array."""
        return np.diff(self.indptr)

    def adjacency_lists(self) -> tuple[tuple[int, ...], ...]:
        """Successors as native int tuples (cached).

        The DFS-heavy CPU baselines iterate adjacency millions of times;
        native tuples avoid per-element numpy scalar boxing.
        """
        if self._adj is None:
            indices = self.indices.tolist()
            indptr = self.indptr.tolist()
            self._adj = tuple(
                tuple(indices[indptr[u]:indptr[u + 1]])
                for u in range(self.num_vertices)
            )
        return self._adj

    def _check(self, v: int) -> None:
        if not 0 <= v < self.num_vertices:
            raise VertexNotFoundError(int(v), self.num_vertices)

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    @property
    def has_cached_reverse(self) -> bool:
        """Whether :meth:`reverse` would be a cache hit (no rebuild)."""
        return self._rev is not None

    def reverse(self) -> "CSRGraph":
        """The reverse graph ``G_rev`` (cached after first call)."""
        if self._rev is None:
            self.rev_builds += 1
            n = self.num_vertices
            srcs = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.indptr))
            order = np.lexsort((srcs, self.indices))
            rev_srcs = self.indices[order]
            rev_dsts = srcs[order]
            counts = np.bincount(rev_srcs, minlength=n)
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            self._rev = CSRGraph(indptr, rev_dsts)
        return self._rev

    def gather(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated successor lists of ``rows``, and each row's length.

        One array pass, no per-row Python: the slice
        ``indices[indptr[u]:indptr[u + 1]]`` of every row ``u`` is laid
        out back to back in ``rows`` order.  ``rows`` is not
        range-checked.
        """
        indptr = self.indptr
        starts = indptr[rows]
        counts = indptr[rows + 1] - starts
        offsets = np.cumsum(counts) - counts
        flat = (np.repeat(starts - offsets, counts)
                + np.arange(int(counts.sum()), dtype=np.int64))
        return self.indices[flat], counts

    def induced_subgraph(
        self, nodes: Iterable[int]
    ) -> tuple["CSRGraph", np.ndarray, np.ndarray]:
        """Subgraph induced by ``nodes``.

        ``nodes`` may be any iterable of vertex ids (an integer ndarray of
        any dtype, a list, a generator); it is sorted and deduplicated,
        so subgraph vertex ``i`` is the ``i``-th smallest kept id and
        every row stays sorted ascending.  An id outside the vertex range
        raises :class:`~repro.errors.VertexNotFoundError` naming it.

        Returns ``(subgraph, old_of_new, new_of_old)`` where
        ``old_of_new[i]`` is the original id of subgraph vertex ``i`` and
        ``new_of_old[v]`` is the subgraph id of original vertex ``v``
        (or ``-1`` if ``v`` was dropped); both are ``int64``.  The kept
        rows are gathered in one array pass and filtered through
        ``new_of_old``.
        """
        if isinstance(nodes, np.ndarray):
            keep = nodes.astype(np.int64).ravel()
        else:
            keep = np.fromiter(nodes, dtype=np.int64)
        if keep.size > 1 and not (keep[1:] > keep[:-1]).all():
            keep = sorted_unique(keep)
        n = self.num_vertices
        if keep.size and (keep[0] < 0 or keep[-1] >= n):
            bad = int(keep[0]) if keep[0] < 0 else int(keep[-1])
            raise VertexNotFoundError(bad, n)
        new_of_old = np.full(n, -1, dtype=np.int64)
        new_of_old[keep] = np.arange(keep.size, dtype=np.int64)

        nbrs, counts = self.gather(keep)
        mapped = new_of_old[nbrs]
        live = mapped >= 0
        # Row u of the subgraph ends where the running count of live
        # entries stands at the end of u's gathered slice.
        live_before = np.zeros(mapped.size + 1, dtype=np.int64)
        np.cumsum(live, out=live_before[1:])
        row_ends = np.zeros(keep.size + 1, dtype=np.int64)
        np.cumsum(counts, out=row_ends[1:])
        return (CSRGraph(live_before[row_ends], mapped[live]),
                keep, new_of_old)

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return (
            np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self) -> int:
        return hash((self.indptr.tobytes(), self.indices.tobytes()))

    def __repr__(self) -> str:
        return f"CSRGraph(|V|={self.num_vertices}, |E|={self.num_edges})"
