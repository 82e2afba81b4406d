"""Process-parallel serving backend: one engine per worker process.

In-process rounds share one interpreter for the pure-Python host
enumeration, so their N engines overlap *modelled* device time but not
wall time.  :class:`ProcessEnginePool` runs each engine in its own
worker process instead.  It holds no scheduling policy:
:class:`~repro.service.batch.BatchQueryService` plans every round and
requeues what a round left, and the pool only runs one round at a time
(:meth:`ProcessEnginePool.round`):

- **artifacts ship once** — the coordinator warms its
  :class:`~repro.service.cache.GraphArtifactCache` first, so the pickled
  :class:`~repro.graph.csr.CSRGraph` each worker receives carries the
  reverse-CSR memo; the worker-local cache *adopts* it (no rebuild, no
  spurious miss) and Pre-BFS memoisation then happens per worker;
- **one serve loop** — each worker runs the same
  :meth:`~repro.service.batch.EngineServer.serve_all` loop as the
  in-process rounds, over its own task list (static schedulers) or over
  chunks pulled from one shared task queue (work stealing, closed by one
  sentinel per participant);
- **everything marshals back** over each worker's own result pipe —
  answers (full :class:`~repro.host.system.SystemReport` objects, device
  profiles included) stream per query; per-round worker metrics
  registries, trace span records, timelines, busy times and cache-stat
  deltas ride on a final ``round_done`` message and are merged on the
  coordinator in worker order.

A worker whose engine raises :class:`~repro.errors.EngineFailure`
reports its unserved queries and the service retires it for the batch
(the process stays up for the next batch — a
:class:`~repro.service.batch.FlakyEngine` keeps its run count across
batches, like the in-process engines).  A worker *process* that dies
outright is detected by end-of-file on its pipe or by liveness polling,
permanently removed from the pool, and everything it was given but
never answered is reported unserved, so the service requeues it onto
the survivors.

Measured on a 2-core host (warm services, ``rt`` at k=4, 64 queries,
2 engines): the process backend is 1.2-1.5x faster than serial on
dense batches, but no faster, often slower, on small sparse batches,
where shipping answers costs as much as the work.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
import traceback
from multiprocessing.connection import wait

from repro.service.cache import GraphArtifactCache
from repro.service.metrics import MetricsRegistry, MetricsTimeline

#: seconds the coordinator blocks on the result pipes before polling
#: worker liveness; also the workers' task-queue poll while stealing.
POLL_INTERVAL = 0.2


def _worker_main(worker_idx, spec, fail_after, cmd_queue, results,
                 task_queue):
    """Engine worker loop: build once, then serve rounds until shutdown."""
    # Imported here, not at module top: repro.service.batch imports this
    # module lazily, and the worker side needs only these names.
    from repro.host.system import PathEnumerationSystem
    from repro.observability.tracer import Tracer
    from repro.service.batch import EngineServer, FlakyEngine

    def deliver(engine_idx, idx, report):
        results.send(("result", engine_idx, idx, report))

    try:
        graph = spec["graph"]
        sharing = spec.get("sharing", False)
        cache = GraphArtifactCache(share_forward=sharing)
        # The coordinator warmed the graph before pickling it, so its
        # reverse-CSR memo rode along: pin it instead of rebuilding.
        cache.adopt(graph)
        system = PathEnumerationSystem.for_variant(
            graph,
            spec["variant"],
            cost_model=spec["cost_model"],
            artifact_cache=cache,
            **spec["engine_kwargs"],
        )
        if fail_after is not None:
            system.engine = FlakyEngine(system.engine, fail_after=fail_after)

        server = None
        opts = {}
        while True:
            cmd = cmd_queue.get()
            kind = cmd[0]
            if kind == "shutdown":
                return
            if kind == "abort":
                # A stale round abort (the round already ended normally
                # before the worker saw it): nothing to do.
                continue
            if kind == "batch":
                opts = cmd[1]
                server = EngineServer(
                    system, opts["budget"], opts["batch_deadline_s"],
                    opts["degraded_cycle_budget"], opts["profile"],
                    share=sharing,
                )
                continue

            # kind is "serve" (a task list) or "steal" (pull chunks from
            # the shared queue until a sentinel or an abort).
            metrics = MetricsRegistry()
            tracer = Tracer() if opts["trace"] else None
            timeline = None
            if opts["window_seconds"] is not None:
                timeline = MetricsTimeline(opts["window_seconds"],
                                           gamma=opts["sketch_gamma"])
            source = (cmd[1] if kind == "serve"
                      else _stolen_chunks(task_queue, cmd_queue))
            stats_before = cache.stats()
            unserved = server.serve_all(worker_idx, source, deliver,
                                        metrics, tracer, timeline)
            stats_after = cache.stats()
            results.send(("round_done", worker_idx, {
                "unserved": unserved,
                "host_busy": server.host_busy,
                "device_busy": server.device_busy,
                "metrics": metrics,
                "trace": tracer.records() if tracer else [],
                "timeline": timeline,
                "cache_delta": {
                    key: value - stats_before[key]
                    for key, value in stats_after.items()
                },
            }))
    except (KeyboardInterrupt, SystemExit):
        raise
    except BaseException:
        # Anything unexpected kills the worker; tell the coordinator why
        # before exiting so the failure is diagnosable, not just a dead
        # process.
        try:
            results.send(("fatal", worker_idx, traceback.format_exc()))
        except Exception:
            pass
        raise


def _stolen_chunks(task_queue, cmd_queue):
    """Chunks pulled from the shared task queue until a sentinel/abort."""
    while True:
        try:
            chunk = task_queue.get(timeout=POLL_INTERVAL)
        except queue_mod.Empty:
            if _pending_abort(cmd_queue):
                return
            continue
        if chunk is None:  # sentinel: round over
            return
        yield chunk


def _pending_abort(cmd_queue) -> bool:
    """Non-blocking check for a round abort while stealing.

    During a steal round the coordinator sends a worker nothing except
    (possibly) an abort, so consuming here cannot eat a future command.
    """
    try:
        cmd = cmd_queue.get_nowait()
    except queue_mod.Empty:
        return False
    return cmd[0] == "abort"


class ProcessEnginePool:
    """Persistent pool of engine worker processes, run one round at a time.

    Workers start lazily on the first :meth:`start_batch` and persist
    across batches (so fault-injection state and worker caches carry
    over, matching the in-process backend's persistent engines).  Call
    :meth:`close` (or use the owning service as a context manager) to
    shut the processes down.
    """

    def __init__(self, graph, variant, num_engines, cost_model,
                 engine_kwargs, failure_plan, mp_context=None,
                 sharing: bool = False,
                 poll_interval: float = POLL_INTERVAL) -> None:
        self.graph = graph
        self.variant = variant
        self.num_engines = num_engines
        self.cost_model = cost_model
        self.engine_kwargs = dict(engine_kwargs or {})
        self.failure_plan = list(failure_plan or [])
        self.mp_context = mp_context
        self.sharing = sharing
        self.poll_interval = poll_interval
        self._procs = None
        self._cmd = None
        self._results = None
        self._tasks = None
        #: workers whose *process* died; never used again.
        self._crashed: set[int] = set()
        self._fatal_tracebacks: dict[int, str] = {}

    # -- lifecycle -----------------------------------------------------
    def _ensure_started(self) -> None:
        if self._procs is not None:
            return
        ctx = multiprocessing.get_context(self.mp_context)
        self._tasks = ctx.Queue()
        self._cmd = [ctx.Queue() for _ in range(self.num_engines)]
        fail_after = dict(self.failure_plan)
        spec = {
            "graph": self.graph,
            "variant": self.variant,
            "cost_model": self.cost_model,
            "engine_kwargs": self.engine_kwargs,
            "sharing": self.sharing,
        }
        self._procs = []
        self._results = []
        for w in range(self.num_engines):
            # One result pipe per worker, not one shared queue: a worker
            # killed mid-send can hold a shared queue's write lock and
            # block every other worker's answers forever.  Created just
            # before this worker starts, its write end is held by this
            # worker alone once closed here, so the worker's death reads
            # as end-of-file.
            reader, writer = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_worker_main,
                args=(w, spec, fail_after.get(w), self._cmd[w], writer,
                      self._tasks),
                name=f"pefp-engine-{w}",
                daemon=True,
            )
            proc.start()
            writer.close()
            self._procs.append(proc)
            self._results.append(reader)

    def close(self) -> None:
        """Shut every worker down and reap the processes."""
        if self._procs is None:
            return
        for w, proc in enumerate(self._procs):
            if proc.is_alive():
                try:
                    self._cmd[w].put(("shutdown",))
                except Exception:
                    pass
        for proc in self._procs:
            proc.join(timeout=2.0)
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        for q in (self._tasks, *self._cmd):
            try:
                q.close()
                q.cancel_join_thread()
            except Exception:
                pass
        for conn in self._results:
            conn.close()
        self._procs = None
        self._cmd = None
        self._results = None
        self._tasks = None

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass

    # -- rounds --------------------------------------------------------
    def start_batch(self, budget, batch_deadline_s, degraded_cycle_budget,
                    profile, trace, timeline) -> set[int]:
        """Hand every live worker the batch's serving options.

        Starts the workers on first use.  Returns the engines whose
        process died in an earlier batch; they serve nothing.
        """
        self._ensure_started()
        opts = {
            "budget": budget,
            "batch_deadline_s": batch_deadline_s,
            "degraded_cycle_budget": degraded_cycle_budget,
            "profile": profile,
            "trace": trace,
            "window_seconds": (
                timeline.window_seconds if timeline is not None else None
            ),
            "sketch_gamma": timeline.gamma if timeline is not None else None,
        }
        for w in range(self.num_engines):
            if w not in self._crashed:
                self._cmd[w].put(("batch", opts))
        return set(self._crashed)

    def round(self, participants, plan, stealing, batch):
        """Run one round of the service's plan; see the module docstring.

        ``plan`` is indexed by worker for static schedulers and is the
        list of chunks to put on the shared task queue under work
        stealing.  Answers, busy times, worker registries, trace records,
        timeline shards and cache deltas land on ``batch`` (a
        :class:`~repro.service.batch._Batch`), folded in worker order so
        merges and span ids are deterministic.  Returns the indices left
        unserved and the workers lost this round (engine failure or
        process death).
        """
        if stealing:
            for chunk in plan:
                self._tasks.put(chunk)
            for _ in participants:
                self._tasks.put(None)
        for w in participants:
            self._cmd[w].put(("steal",) if stealing else ("serve", plan[w]))
        pending = set(participants)
        streamed: dict[int, set[int]] = {w: set() for w in participants}
        crashed: set[int] = set()
        done_payloads: list[tuple[int, dict]] = []
        aborted = False
        while pending:
            ready = wait([self._results[w] for w in pending],
                         timeout=self.poll_interval)
            if not ready:
                for w in [w for w in pending
                          if not self._procs[w].is_alive()]:
                    pending.discard(w)
                    self._mark_crashed(w, crashed)
            for conn in ready:
                w = self._results.index(conn)
                try:
                    msg = conn.recv()
                except (EOFError, OSError):  # the worker died
                    pending.discard(w)
                    self._mark_crashed(w, crashed)
                    continue
                if msg[0] == "result":
                    batch.store(w, msg[2], msg[3])
                    streamed[w].add(msg[2])
                    continue
                pending.discard(w)
                if msg[0] == "round_done":
                    done_payloads.append((w, msg[2]))
                else:  # "fatal"
                    self._fatal_tracebacks[w] = msg[2]
                    self._mark_crashed(w, crashed)
            if crashed and stealing and not aborted:
                # Which chunks a dead stealer had taken is unknown, so
                # the round stops and reports everything unanswered.
                aborted = True
                for v in pending:
                    self._cmd[v].put(("abort",))

        lost = set(crashed)
        unserved: list[int] = []
        for w, payload in sorted(done_payloads, key=lambda t: t[0]):
            batch.host_busy[w] = payload["host_busy"]
            batch.device_busy[w] = payload["device_busy"]
            batch.metrics.merge(payload["metrics"])
            # One ingest per worker round: each round's tracer numbers
            # its spans from 1, so ingesting rounds together would
            # cross-wire parent links between workers.
            if payload["trace"]:
                batch.tracer.ingest(payload["trace"])
            if payload["timeline"] is not None:
                batch.timeline.merge(payload["timeline"])
            batch.worker_stats.update(payload["cache_delta"])
            if payload["unserved"]:
                lost.add(w)
                unserved.extend(payload["unserved"])

        if stealing:
            if aborted or unserved:
                self._drain_tasks()
                served = set().union(*streamed.values())
                unserved = [i for chunk in plan for i, _ in chunk
                            if i not in served]
        else:
            # A crashed worker streamed some answers before dying; what
            # it was given but never streamed is unserved.
            for w in crashed:
                unserved.extend(i for i, _ in plan[w]
                                if i not in streamed[w])
        return unserved, sorted(lost)

    def _mark_crashed(self, w: int, crashed: set[int]) -> None:
        self._crashed.add(w)
        crashed.add(w)

    def _drain_tasks(self) -> None:
        """Empty the shared task queue (leftover tasks and sentinels)."""
        while True:
            try:
                self._tasks.get(timeout=0.05)
            except queue_mod.Empty:
                return

    def failure_detail(self) -> str:
        """The first fatal worker traceback, for a no-survivors error."""
        if not self._fatal_tracebacks:
            return ""
        first = next(iter(self._fatal_tracebacks.values()))
        return f"; first worker traceback:\n{first}"
