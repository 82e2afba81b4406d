"""The benchmark's four query mixes and their pinned inputs.

Each workload names a dataset stand-in, a hop bound, a request size and
the service settings it runs with.  Its inputs come in two steps:

- a **query pool** drawn by the program's own generators from a *pool
  seed* (``recorded.json`` names the default and one held-out pool
  seed).  Per-query host cost is heavy-tailed on every mix (its
  coefficient of variation is 1.4 on ``rt``, 2.2 on ``se`` and, for
  device cycles, 6.7 on ``wt``), so a pool drawn afresh on every run
  would move the totals by more than any bound a run of this length
  can hold;
- a **request stream**: the pool is cut into requests in its own order,
  and the run's ``--seed`` shuffles the order in which they are sent.
  Each seed thus serves the same requests in a different order.  When
  the seed regrouped the queries too, the request walls of the
  multi-query mixes were different samples on every seed, and their
  median moved by 0.14 (IQR over median) between seeds on
  ``dense-rt-k4``.  The pool is generated before any timer starts.

The digests of each graph's CSR arrays and of each pinned pool are
recorded, so a change to a generator or a dataset recipe under ``src/``
cannot silently change what the benchmark measures.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from repro.datasets import DATASETS
from repro.fpga.device import DeviceConfig
from repro.host.query import Query
from repro.workloads import generate_queries, generate_shared_batch


@dataclass(frozen=True)
class Workload:
    """One query mix: what to serve and how the service is configured."""

    name: str
    dataset: str
    max_hops: int
    #: queries per ``service.run`` call.
    per_request: int
    #: requests per pass over the pool; at least 100, so that ten
    #: request walls lie beyond the reported 90th percentile.
    requests: int
    #: draw the pool with ``generate_shared_batch`` (half of it exact
    #: duplicates, sources from a pool of 4) instead of
    #: ``generate_queries``.
    shared: bool = False
    service_kwargs: dict = field(default_factory=dict)
    #: serve with ``profile=True`` and a fresh ``MetricsTimeline``.
    observed: bool = False
    #: every ``join_stride``-th query of the pool is re-answered by the
    #: JOIN CPU baseline and compared path for path.
    join_stride: int = 10

    @property
    def pool_size(self) -> int:
        return self.per_request * self.requests

    def build_graph(self):
        """Build the stand-in graph cold (never through the load cache)."""
        return DATASETS[self.dataset].build()

    def pool(self, graph, pool_seed: int) -> list[Query]:
        """The pinned query pool."""
        generate = generate_shared_batch if self.shared else generate_queries
        return generate(graph, self.max_hops, self.pool_size, seed=pool_seed)

    def requests_for(self, pool: list[Query],
                     seed: int) -> list[list[Query]]:
        """The request stream of run seed ``seed``: the pool cut into
        requests, in an order the seed shuffles."""
        requests = [pool[i:i + self.per_request]
                    for i in range(0, len(pool), self.per_request)]
        order = np.random.default_rng(seed).permutation(len(requests))
        return [requests[i] for i in order]


#: the four mixes; BENCHMARK.json records why each one is here.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # Kernel and path translation dominate the request wall.
        Workload("dense-rt-k4", "rt", 4, per_request=2, requests=100),
        # Pre-BFS over a 14k-vertex graph dominates; the kernel idles.
        Workload("sparse-wt-k3", "wt", 3, per_request=8, requests=200,
                 join_stride=50),
        # Half the pool duplicates the other half; sharing, device
        # profiles and telemetry are all on.  One query a request: then
        # every order of the stream has the same memo hits (the first
        # copy of each query misses, the others hit), where pairs put
        # hits and misses together differently on every seed.
        Workload("shared-rt-k4", "rt", 4, per_request=1, requests=200,
                 shared=True, observed=True,
                 service_kwargs={"sharing": True,
                                 "scheduler": "longest-first"}),
        # The only mix that runs the multi-PE driver and interconnect.
        Workload("multipe-se-k4", "se", 4, per_request=1, requests=150,
                 service_kwargs={"device_config": DeviceConfig(
                     num_pes=4, pe_partition="range")}),
    )
}


def graph_digest(graph) -> str:
    """SHA-256 of a CSR graph's arrays, dtype included."""
    h = hashlib.sha256()
    for arr in (graph.indptr, graph.indices):
        arr = np.ascontiguousarray(arr)
        h.update(str(arr.dtype).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def pool_digest(pool: list[Query]) -> str:
    """SHA-256 of a query pool's ``(s, t, k)`` triples, in order."""
    payload = [[q.source, q.target, q.max_hops] for q in pool]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()
