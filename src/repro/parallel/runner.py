"""The execution backend: many decision problems, one resident worker pool.

:class:`ExecutorService` is the long-lived heart of this module: a pool of
coordinator threads — one per worker slot — that stays resident across
submissions and drives the lifecycle of each
:class:`~repro.analysis.problems.Problem` it is handed, whether problems
arrive one at a time (:meth:`ExecutorService.submit`, used by the ``repro
serve`` daemon) or as whole batches (:meth:`ExecutorService.run`).
Engines run in resident worker *processes* (decision procedures are
CPU-bound; threads would serialize on the GIL): one per slot, each forked
once and fed problem after problem over one duplex pipe
(:mod:`repro.parallel.worker`), so a cache miss costs a pipe round trip,
not a fork.

1. **Cache.** With a :class:`~repro.parallel.cache.VerdictCache` attached,
   a hit returns the stored result without reaching a worker (and, warm,
   without touching disk — see the cache's memory tier).
2. **Race** (``race=True``).  All *conclusive* admitted engines start
   concurrently, one worker each; the first conclusive verdict wins and
   the losers are killed.  With fewer than two conclusive contenders the
   race degenerates to the ladder.
3. **Ladder.**  One worker walks the admitted engines cheapest-first —
   :meth:`EngineRegistry.ladder`, the same generator in-process
   :meth:`~EngineRegistry.plan_and_run` walks — falling through on runtime
   declines and engine exceptions.  The parent imposes a per-engine
   wall-clock ``timeout`` (overridable per submission): on expiry the
   worker is killed and a fresh worker resumes at the next-cheapest
   engine — a timeout degrades the answer, never the batch.

Sessions and routing: the coordinator warms the problem's
:class:`~repro.analysis.session.SchemaSession` in the parent before
dispatch.  The parent records which schema ids its session registry held
when it forked each worker (and, later, the ids each worker reports when
its registry changes); a problem goes to an idle worker whose snapshot
holds its schema id.  If there is none and a slot is free, a fresh fork —
which inherits the session just compiled — takes the problem.  If every
slot is taken, the most recently used idle worker builds the session
itself (counted in ``worker_compiles``): retiring a worker for a fresh
fork was measured slower, because a freshly forked child makes every page
the parent writes afterwards a copy, and the retiree must be torn down.
A worker is killed and replaced only when it timed out, died, lost a race
or is stale (forked before the registered engines or the rewrite level
changed); :meth:`stats` counts forks and recycles by reason, plus the
compiles and CPU time the workers report with every final message.
Because the service is resident, sessions stay warm across submissions —
the compile-once machinery amortizes over a request stream, not a single
batch.  The service never resets the session registry while open; the
one-shot :class:`BatchRunner` does after each run, and
:meth:`ExecutorService.close` does on the way out, after reaping every
worker.

Every problem yields a :class:`BatchOutcome` with the result (or a
structured error), the engine that produced it, cache/timing/attempt
metadata, and any :class:`~repro.parallel.worker.WorkerFailure` records.
Failures are data: a raising or hanging engine cannot poison the pool or
perturb any other problem's verdict.

Workers are forked (configurable via ``mp_context``), so engines
registered at runtime — including test doubles — are visible to workers
without pickling.  Problems and results cross the pipe pickled.

:class:`BatchRunner` is the historical one-shot front-end: same
constructor, same :meth:`BatchRunner.run` contract, now a thin wrapper
that runs the batch on a private :class:`ExecutorService` and then
releases its workers and resets the session registry.
:func:`contains_many` and :func:`satisfiable_many` are the list-in,
list-out conveniences mirroring :func:`repro.analysis.contains` and
:func:`repro.analysis.satisfiable`.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _conn_wait
from pathlib import Path
from typing import Iterable, Sequence

from .. import obs
from ..analysis.problems import (
    DEFAULT_MAX_NODES,
    ContainmentResult,
    Problem,
    ProblemKind,
    SatResult,
)
from ..analysis.registry import default_registry
from ..edtd import EDTD
from ..xpath.ast import NodeExpr, PathExpr
from .cache import VerdictCache
from .worker import WorkerFailure, serve

__all__ = [
    "BatchError",
    "BatchOutcome",
    "BatchReport",
    "BatchRunner",
    "ExecutorService",
    "contains_many",
    "run_batch",
    "satisfiable_many",
]

Result = SatResult | ContainmentResult

#: Poll granularity while waiting without a timeout (also the heartbeat for
#: detecting a worker that died without a final message).
_POLL_S = 0.2

#: Sentinel distinguishing "use the service default timeout" from an
#: explicit ``timeout=None`` (no timeout) on :meth:`ExecutorService.submit`.
_DEFAULT_TIMEOUT = object()


class BatchError(RuntimeError):
    """Raised by the ``*_many`` conveniences when some problem produced no
    result at all; carries the failing outcomes."""

    def __init__(self, message: str, outcomes: "list[BatchOutcome]"):
        super().__init__(message)
        self.outcomes = outcomes


@dataclass
class BatchOutcome:
    """Everything the runner learned about one problem."""

    index: int
    problem: Problem
    result: Result | None = None
    engine: str | None = None
    cache_hit: bool = False
    queue_wait_s: float = 0.0
    worker_time_s: float = 0.0
    #: Wall-clock cost of the verdict-cache probe (hit or miss).
    cache_probe_s: float = 0.0
    #: One dict per engine attempt: ``{"engine", "status"}`` with status in
    #: ``result | declined | failed | timeout | died | lost-race``.
    attempts: list[dict] = field(default_factory=list)
    failures: list[WorkerFailure] = field(default_factory=list)
    race_winner: str | None = None
    #: Set when no engine produced a result.
    error: str | None = None
    #: The run record behind the verdict: the winning worker's own record,
    #: or — on a cache hit — a minimal synthesized record annotating the
    #: ``cache.hit`` provenance and probe latency (``collect_stats=True``).
    stats: dict | None = None
    #: Every worker run record shipped for this problem (racing losers that
    #: declined, exhausted ladder walks, the winner) — the trace writer
    #: renders one process lane per record (``collect_stats=True`` only).
    worker_records: list[dict] = field(default_factory=list)
    #: The coordinator thread's own recording of this problem's lifecycle:
    #: cache probe, attempts, race bookkeeping (``collect_stats=True``).
    coord_stats: dict | None = None


@dataclass
class BatchReport:
    """A finished batch: per-problem outcomes plus aggregate figures."""

    outcomes: list[BatchOutcome]
    wall_s: float
    workers: int
    race: bool
    cache_info: dict | None = None
    stats: dict | None = None
    #: One entry per distinct compiled schema in the batch: ``{"schema_id",
    #: "problems", "compile_s", "cache_hits", "session_reuse"}`` —
    #: ``session_reuse`` is the measured warm-session hit rate when worker
    #: stats were collected, else ``None``.
    schemas: list[dict] = field(default_factory=list)

    def results(self) -> list[Result | None]:
        return [outcome.result for outcome in self.outcomes]

    @property
    def cache_hits(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.cache_hit)

    @property
    def failed(self) -> list[BatchOutcome]:
        return [outcome for outcome in self.outcomes
                if outcome.result is None]

    def summary(self) -> dict:
        timeouts = sum(1 for outcome in self.outcomes
                       for attempt in outcome.attempts
                       if attempt["status"] == "timeout")
        return {
            "problems": len(self.outcomes),
            "wall_s": self.wall_s,
            "workers": self.workers,
            "race": self.race,
            "cache_hits": self.cache_hits,
            "timeouts": timeouts,
            "worker_failures": sum(len(outcome.failures)
                                   for outcome in self.outcomes),
            "unsolved": len(self.failed),
        }


#: Why a resident worker was closed, as counted in ``stats()["recycled"]``:
#: the four replacement rules (``stale``: forked before the registered
#: engines or the rewrite level changed), plus ``surplus`` — a race
#: contender forked beyond the slot count, closed when it comes back idle.
RECYCLE_REASONS = ("timeout", "died", "lost_race", "stale", "surplus")

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 0.01


@dataclass(eq=False)
class _Worker:
    """One resident worker process and what the parent knows of it."""

    process: multiprocessing.process.BaseProcess
    conn: object
    #: Schema ids in the worker's session registry: inherited at fork
    #: (:func:`~repro.analysis.session.resident_schema_ids`), then as the
    #: worker reports them whenever its registry changes.
    schemas: frozenset[str]
    #: :func:`_environment` at fork time.
    env: tuple
    #: CPU seconds the worker has reported with its final messages.
    cpu_reported_s: float = 0.0


def _environment() -> tuple:
    """What a forked worker froze besides its sessions: the rewrite level
    and the registered engine objects.  A worker forked under a different
    environment is stale."""
    from ..xpath import passes

    registry = default_registry()
    return (passes.default_pipeline(),
            tuple((name, id(registry.get(name)))
                  for name in registry.names()))


def _process_cpu_s(pid: int) -> float | None:
    """User + system CPU of a (possibly zombie) child, from ``/proc``."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rpartition(")")[2].split()
    except OSError:
        return None
    return (int(fields[11]) + int(fields[12])) * _TICK_S


def _reap(process) -> None:
    if process.is_alive():
        process.terminate()
    process.join(timeout=5)
    if process.is_alive():  # pragma: no cover - stuck in uninterruptible IO
        process.kill()
        process.join(timeout=5)


class _WorkerPool:
    """The resident worker processes of one :class:`ExecutorService`,
    routed by schema snapshot (see the module docstring)."""

    def __init__(self, ctx, slots: int):
        self._ctx = ctx
        self.slots = slots
        self._lock = threading.Lock()
        #: Idle workers, most recently released last.
        self._idle: list[_Worker] = []
        self._busy: set[_Worker] = set()
        #: Idle + busy + being forked.
        self._live = 0
        #: Processes told to exit and not yet reaped.
        self._retired: list = []
        self._seq = 0
        self._closed = False
        self.forks = 0
        self.recycled = dict.fromkeys(RECYCLE_REASONS, 0)
        self.worker_compiles = 0
        self.worker_cpu_s = 0.0

    def acquire(self, schema_id: str | None) -> _Worker:
        """An idle worker holding ``schema_id`` (any schema when ``None``),
        else a fresh fork while a slot is free, else the most recently
        used idle worker, which builds the session itself."""
        env = _environment()
        with self._lock:
            if self._closed:
                raise RuntimeError("ExecutorService is closed")
            self._retired = [process for process in self._retired
                             if process.exitcode is None]
            for worker in list(self._idle):
                if worker.env != env:
                    self._drop(worker, "stale")
                elif worker.process.exitcode is not None:
                    self._drop(worker, "died")
            for worker in reversed(self._idle):
                if schema_id is None or schema_id in worker.schemas:
                    self._idle.remove(worker)
                    self._busy.add(worker)
                    return worker
            if self._idle and self._live >= self.slots:
                worker = self._idle.pop()
                self._busy.add(worker)
                return worker
            self._live += 1
            self._seq += 1
            seq = self._seq
        try:
            worker = self._fork(env, seq)
        except BaseException:
            with self._lock:
                self._live -= 1
            raise
        with self._lock:
            self.forks += 1
            closed = self._closed
            if not closed:
                self._busy.add(worker)
        if closed:  # closed while this fork was in flight
            self._kill(worker)
            raise RuntimeError("ExecutorService is closed")
        return worker

    def _fork(self, env: tuple, seq: int) -> _Worker:
        from ..analysis.session import resident_schema_ids

        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        # Only a forked child inherits the parent's sessions.
        schemas = resident_schema_ids() \
            if self._ctx.get_start_method() == "fork" else frozenset()
        process = self._ctx.Process(target=serve, args=(child_conn,),
                                    name=f"repro-worker-{seq}", daemon=True)
        process.start()
        child_conn.close()
        return _Worker(process, parent_conn, schemas, env)

    def _drop(self, worker: _Worker, reason: str) -> None:
        """Close an idle worker (lock held): kill it — an idle worker holds
        nothing worth a graceful exit — and reap it later."""
        self._idle.remove(worker)
        self._live -= 1
        self.recycled[reason] += 1
        worker.process.kill()
        with contextlib.suppress(OSError):
            worker.conn.close()
        self._retired.append(worker.process)

    def account(self, worker: _Worker, usage: dict) -> None:
        """Fold a final message's ``usage`` into the pool totals."""
        with self._lock:
            worker.cpu_reported_s += usage["cpu_s"]
            self.worker_cpu_s += usage["cpu_s"]
            self.worker_compiles += usage["compiles"]
            if usage["schemas"] is not None:
                worker.schemas = usage["schemas"]

    def release(self, worker: _Worker) -> None:
        """Return a worker whose last message was final to the idle set."""
        with self._lock:
            if worker not in self._busy:
                return  # the pool was shut down under it (and killed it)
            self._busy.discard(worker)
            self._idle.append(worker)
            if self._live > self.slots:
                self._drop(worker, "surplus")

    def discard(self, worker: _Worker, reason: str) -> None:
        """Kill a busy worker (timed out, died, lost a race) and reap it,
        crediting the CPU it spent without reporting it."""
        with self._lock:
            if worker not in self._busy:
                return  # the pool was shut down under it (and killed it)
            self._busy.discard(worker)
            self._live -= 1
            self.recycled[reason] += 1
        self._kill(worker)

    def _kill(self, worker: _Worker) -> None:
        spent = _process_cpu_s(worker.process.pid)
        with contextlib.suppress(OSError):
            worker.conn.close()
        _reap(worker.process)
        if spent is not None:
            with self._lock:
                self.worker_cpu_s += max(0.0, spent - worker.cpu_reported_s)

    def shutdown(self, close: bool = False) -> None:
        """Kill and reap every worker, idle or busy.  Unless ``close``, the
        pool stays usable: the next :meth:`acquire` forks afresh."""
        with self._lock:
            self._closed = self._closed or close
            workers = self._idle + list(self._busy)
            self._idle = []
            self._busy.clear()
            retired, self._retired = self._retired, []
            self._live = 0
        for worker in workers:
            self._kill(worker)
        for process in retired:
            _reap(process)

    def stats(self) -> dict:
        with self._lock:
            return {"resident": self._live, "forks": self.forks,
                    "recycled": dict(self.recycled),
                    "worker_compiles": self.worker_compiles,
                    "worker_cpu_ms": round(self.worker_cpu_s * 1000.0, 3)}


class ExecutorService:
    """See the module docstring.

    Parameters:

    * ``workers`` — coordinator-thread / worker-slot count (default:
      ``os.cpu_count()``, ≤ 8).
    * ``timeout`` — default per-engine-attempt wall-clock seconds
      (``None`` = no timeout); overridable per :meth:`submit`.
    * ``race`` — race conclusive admitted engines per problem.
    * ``cache`` — a :class:`VerdictCache`, a directory for one, or ``None``
      to disable caching.
    * ``collect_stats`` — ship each worker's own obs run record back with
      its result (attached to ``BatchOutcome.stats``).
    * ``mp_context`` — a multiprocessing start-method name or context;
      defaults to ``fork`` where available (registered engines are then
      inherited by workers without pickling).
    """

    def __init__(
        self,
        workers: int | None = None,
        timeout: float | None = None,
        race: bool = False,
        cache: VerdictCache | str | Path | None = None,
        collect_stats: bool = False,
        mp_context: str | multiprocessing.context.BaseContext | None = None,
    ):
        self.workers = workers if workers is not None \
            else min(8, os.cpu_count() or 1)
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        self.timeout = timeout
        self.race = race
        if cache is None or isinstance(cache, VerdictCache):
            self.cache = cache
        else:
            self.cache = VerdictCache(cache)
        self.collect_stats = collect_stats
        if isinstance(mp_context, multiprocessing.context.BaseContext):
            self._ctx = mp_context
        else:
            method = mp_context
            if method is None:
                method = "fork" if "fork" in \
                    multiprocessing.get_all_start_methods() else "spawn"
            self._ctx = multiprocessing.get_context(method)
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        self._worker_pool = _WorkerPool(self._ctx, self.workers)
        self._state_lock = threading.Lock()
        self._closed = False
        self._next_index = 0
        self.submitted = 0
        self.completed = 0

    # --------------------------------------------------------- lifecycle

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._closed:
                raise RuntimeError("ExecutorService is closed")
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix="exec")
            return self._pool

    def release(self, wait: bool = True) -> None:
        """Shut down the coordinator threads and the worker processes but
        keep the service usable — both are recreated lazily on the next
        submission.  The one-shot :class:`BatchRunner` calls this after
        every run so neither idle threads nor workers outlive a batch."""
        with self._pool_lock:
            pool = self._pool
            self._pool = None
        if pool is not None:
            pool.shutdown(wait=wait)
        self._worker_pool.shutdown()

    def close(self, wait: bool = True) -> None:
        """Shut the coordinator pool down, kill and reap every worker
        process (busy ones included) and drop the (now orphaned) warm
        sessions.  Idempotent; the service is unusable afterwards."""
        with self._pool_lock:
            if self._closed:
                return
            self._closed = True
            pool = self._pool
            self._pool = None
        if pool is not None:
            pool.shutdown(wait=wait)
        self._worker_pool.shutdown(close=True)
        from ..analysis.session import reset_sessions

        reset_sessions()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "ExecutorService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def stats(self) -> dict:
        """Live service gauges: slots, lifetime submissions, in-flight,
        and the worker pool's ledger — resident workers, ``forks``,
        ``recycled`` by reason (:data:`RECYCLE_REASONS`),
        ``worker_compiles`` and ``worker_cpu_ms`` (the CPU the workers
        reported with their final messages, plus what killed workers
        spent unreported)."""
        with self._state_lock:
            submitted, completed = self.submitted, self.completed
        return {
            "workers": self.workers,
            "race": self.race,
            "timeout_s": self.timeout,
            "submitted": submitted,
            "completed": completed,
            "inflight": submitted - completed,
            **self._worker_pool.stats(),
        }

    # ------------------------------------------------------- submissions

    def submit(self, problem: Problem, *,
               timeout=_DEFAULT_TIMEOUT) -> "Future[BatchOutcome]":
        """Enqueue one problem; returns a future resolving to its
        :class:`BatchOutcome`.  Safe to call from concurrent threads; the
        per-engine ``timeout`` (default: the service's) applies to this
        submission only.  The future never raises from a solver failure —
        errors are data on the outcome — only from a closed service."""
        pool = self._ensure_pool()
        with self._state_lock:
            index = self._next_index
            self._next_index += 1
            self.submitted += 1
        per_attempt = self.timeout if timeout is _DEFAULT_TIMEOUT else timeout
        submitted_at = time.perf_counter()
        future = pool.submit(self._run_one, index, problem, submitted_at,
                             per_attempt)
        future.add_done_callback(self._on_done)
        return future

    def _on_done(self, future) -> None:
        with self._state_lock:
            self.completed += 1

    def map(self, problems: Iterable[Problem]) -> list[BatchOutcome]:
        """Submit every problem and wait; outcomes in input order."""
        futures = [self.submit(problem) for problem in problems]
        return [future.result() for future in futures]

    # ---------------------------------------------------------------- run

    def run(self, problems: Iterable[Problem]) -> BatchReport:
        """Decide a whole batch; outcomes come back in input order.

        Groups the batch by compiled schema up front and compiles each
        distinct schema ONCE in this thread, before any worker forks: the
        gauge tells a profile reader how much schema-session sharing the
        conclusive engines can expect, fork-started workers inherit the
        finished CompiledSchema artifacts instead of rebuilding them per
        process, and the ``schema.compile.*`` counters land in the
        caller's (batch-level) recording where the compile-once property
        is assertable.  Unlike :meth:`submit`, ``run`` also emits the
        batch-level obs metrics; it does NOT reset sessions — the one-shot
        :class:`BatchRunner` wrapper does that.
        """
        items = list(problems)
        outcomes: list[BatchOutcome | None] = [None] * len(items)
        by_schema: dict[str, list[Problem]] = {}
        sessions: dict[str, "SchemaSession"] = {}
        if items:
            from ..analysis.session import schema_id_of

            for problem in items:
                canonical = problem.canonical()
                schema_id = schema_id_of(*canonical.expressions(),
                                         edtd=canonical.edtd)
                by_schema.setdefault(schema_id, []).append(canonical)
            obs.gauge("batch.schemas", len(by_schema))
        started = time.perf_counter()
        schema_summary: list[dict] = []
        with obs.span("batch.run", problems=len(items),
                      workers=self.workers, race=self.race):
            if items:
                from ..analysis.session import session_for

                with obs.span("batch.precompile", schemas=len(by_schema)):
                    for schema_id, group in by_schema.items():
                        sessions[schema_id] = session_for(group[0])
                futures = [self.submit(problem) for problem in items]
                for index, future in enumerate(futures):
                    outcomes[index] = future.result()
        schema_summary = self._schema_summary(by_schema, sessions, outcomes)
        wall = time.perf_counter() - started
        done = [outcome for outcome in outcomes if outcome is not None]
        assert len(done) == len(items)
        report = BatchReport(
            outcomes=done, wall_s=wall, workers=self.workers, race=self.race,
            cache_info=self.cache.info() if self.cache is not None else None,
            schemas=schema_summary,
        )
        self._emit_metrics(report)
        return report

    @staticmethod
    def _schema_summary(by_schema: dict[str, list[Problem]],
                        sessions: dict, outcomes: list) -> list[dict]:
        """Per-schema batch figures, collected while the sessions are
        still resident: problem count, parent compile time, verdict-cache
        hits, and the measured warm-session reuse rate (worker records
        only)."""
        from ..analysis.session import schema_id_of

        per_outcome: dict[str, list] = {}
        for outcome in outcomes:
            if outcome is None:
                continue
            schema_id = schema_id_of(*outcome.problem.expressions(),
                                     edtd=outcome.problem.edtd)
            per_outcome.setdefault(schema_id, []).append(outcome)
        summary = []
        for schema_id, group in by_schema.items():
            rows = per_outcome.get(schema_id, [])
            reused = compiles = observed = 0
            for outcome in rows:
                for record in outcome.worker_records:
                    counters = record.get("counters") or {}
                    observed += 1
                    reused += counters.get("analysis.session.reused", 0)
                    compiles += counters.get("schema.compile.count", 0)
            session = sessions.get(schema_id)
            summary.append({
                "schema_id": schema_id,
                "problems": len(group),
                "compile_s": session.compiled.compile_s if session else 0.0,
                "cache_hits": sum(1 for outcome in rows
                                  if outcome.cache_hit),
                "session_reuse": (reused / max(reused + compiles, 1))
                if observed else None,
            })
        return summary

    # ---------------------------------------------------- one problem slot

    def _run_one(self, index: int, problem: Problem, submitted: float,
                 timeout: float | None) -> BatchOutcome:
        if not self.collect_stats:
            return self._solve_one(index, problem, submitted, timeout)
        # Each coordinator thread records its problem's lifecycle — cache
        # probe, attempts, race bookkeeping — in its own thread-local
        # recording; the trace writer renders these as per-problem lanes
        # under the coordinator process.
        with obs.record(f"problem[{index}]") as recording:
            recording.note("index", index)
            outcome = self._solve_one(index, problem, submitted, timeout)
            recording.note("engine", outcome.engine)
            recording.note("cache", "hit" if outcome.cache_hit else "miss")
        outcome.coord_stats = recording.to_run_record().to_dict()
        return outcome

    def _solve_one(self, index: int, problem: Problem, submitted: float,
                   timeout: float | None) -> BatchOutcome:
        # Canonicalize once, before the cache probe: cache keys, worker
        # dispatch and engine admission all see the rewrite-pipeline
        # canonical form, so syntactic variants of one instance share a
        # cache entry (and the workers solve the smaller expressions).
        problem = problem.canonical()
        outcome = BatchOutcome(index=index, problem=problem)
        outcome.queue_wait_s = time.perf_counter() - submitted
        if self.cache is not None:
            with obs.span("cache.probe") as probe_span:
                probe_started = time.perf_counter()
                cached = self.cache.get(problem)
                outcome.cache_probe_s = time.perf_counter() - probe_started
                probe_span.annotate(hit=cached is not None)
            if cached is not None:
                hit_record = self._cache_hit_record(outcome)
                # Serve provenance-annotated stats, never a stale record
                # from whichever worker originally computed the verdict.
                outcome.result = cached.with_stats(hit_record) \
                    if self.collect_stats else cached
                outcome.engine = "cache"
                outcome.cache_hit = True
                outcome.stats = hit_record
                return outcome
        solve_started = time.perf_counter()
        try:
            # Warm the schema session in the parent before dispatch: the
            # problem is routed to a worker whose fork inherited the
            # finished CompiledSchema (or to a fresh fork that does), and a
            # resident service keeps it hot for later submissions of the
            # same schema.  (Batch runs already precompiled it — this is a
            # registry hit; single submissions compile here, once.)
            schema_id = self._warm_session(problem)
            with obs.span("solve"):
                if self.race:
                    self._run_race(problem, schema_id, outcome, timeout)
                if outcome.result is None and outcome.error is None:
                    self._run_ladder(problem, schema_id, outcome, timeout)
        except Exception as error:  # coordinator bug — never kill the batch
            outcome.error = f"{type(error).__name__}: {error}"
        outcome.worker_time_s = time.perf_counter() - solve_started
        if outcome.result is not None and self.cache is not None:
            self.cache.put(problem, outcome.result)
        return outcome

    @staticmethod
    def _warm_session(problem: Problem) -> str | None:
        """Compile (or reuse) the problem's session; its schema id routes
        the problem to a worker."""
        from ..analysis.session import session_for

        try:
            return session_for(problem).schema_id
        except Exception:
            # A schema the compiler chokes on is the engines' problem to
            # report (as a structured failure), not the coordinator's.
            return None

    @staticmethod
    def _cache_hit_record(outcome: BatchOutcome) -> dict:
        """A minimal RunRecord annotating a verdict served from the cache:
        ``cache.hit`` provenance plus the probe latency — never the stats
        of the worker run that originally produced the verdict."""
        from ..obs import RunRecord

        probe_s = outcome.cache_probe_s
        return RunRecord(
            name="cache.hit",
            duration_s=probe_s,
            meta={"engine": "cache", "cache": "hit",
                  "problem": outcome.index},
            # Zero-valued saturation counters: a warm verdict did no
            # summary search this run, but reports that require the
            # ``twoata.emptiness.`` instrumentation prefix must still
            # find it on cache-hit records instead of misfiring.
            counters={"cache.hit": 1,
                      "twoata.emptiness.rounds": 0,
                      "twoata.emptiness.evals": 0},
            gauges={"cache.probe_s": probe_s},
            # A minimal root span (anchored at probe start) so the trace
            # writer renders the hit on its synthetic cache lane.
            spans={"name": "cache.hit", "duration_s": probe_s, "id": 0,
                   "parent": None, "start_ts": time.time() - probe_s},
        ).to_dict()

    # ------------------------------------------------------------- ladder

    def _run_ladder(self, problem: Problem, schema_id: str | None,
                    outcome: BatchOutcome, timeout: float | None) -> None:
        """Worker-backed engine ladder with parent-enforced timeouts."""
        exclude: set[str] = {attempt["engine"] for attempt in outcome.attempts}
        while True:
            status, engine = self._attempt(problem, schema_id,
                                           frozenset(exclude), outcome,
                                           timeout)
            if status == "result":
                return
            if status == "exhausted":
                if outcome.error is None:
                    outcome.error = self._exhausted_message(outcome)
                return
            # timeout / died: exclude the engine that was running and
            # resume the ladder in a fresh worker.
            if engine is None:
                outcome.error = f"worker {status} before choosing an engine"
                return
            exclude.add(engine)
            # Engines that declined or failed inside the dead worker must
            # not be retried by its successor.
            exclude.update(
                attempt["engine"] for attempt in outcome.attempts
                if attempt["status"] in ("declined", "failed"))

    def _exhausted_message(self, outcome: BatchOutcome) -> str:
        if outcome.failures:
            failure = outcome.failures[-1]
            return (f"no engine produced a result; last failure: "
                    f"{failure.engine}: {failure.error_type}: "
                    f"{failure.message}")
        return "no registered engine admitted or solved the problem"

    def _attempt(self, problem: Problem, schema_id: str | None,
                 exclude: frozenset[str], outcome: BatchOutcome,
                 timeout: float | None) -> tuple[str, str | None]:
        """One ladder walk on one resident worker; returns ``(status,
        engine)`` where status is ``result | exhausted | timeout | died``.
        The worker goes back to the pool after a final message and is
        killed otherwise."""
        pool = self._worker_pool
        worker = pool.acquire(schema_id)
        conn = worker.conn
        attempt_span = obs.span("worker.attempt").start()
        current: dict | None = None
        status = "died"
        deadline = None if timeout is None \
            else time.perf_counter() + timeout
        try:
            conn.send((problem, exclude, None, self.collect_stats))
            while True:
                if deadline is not None:
                    remaining = deadline - time.perf_counter()
                    if (remaining <= 0 or not conn.poll(remaining)) \
                            and not conn.poll(0):
                        status = "timeout"
                        break
                elif not conn.poll(_POLL_S):
                    if worker.process.is_alive():
                        continue
                    if not conn.poll(0):
                        break  # died
                message = conn.recv()
                kind = message[0]
                if kind == "trying":
                    current = {"engine": message[1], "status": "running"}
                    outcome.attempts.append(current)
                    if timeout is not None:
                        deadline = time.perf_counter() + timeout
                elif kind in ("declined", "failed"):
                    if kind == "failed":
                        outcome.failures.append(WorkerFailure(**message[2]))
                    if current is not None and current["engine"] == message[1]:
                        current["status"] = kind
                    else:
                        outcome.attempts.append(
                            {"engine": message[1], "status": kind})
                    current = None
                elif kind == "result":
                    _, engine, result, stats, usage = message
                    pool.account(worker, usage)
                    if current is not None and current["engine"] == engine:
                        current["status"] = "result"
                    outcome.result = result
                    outcome.engine = engine
                    if stats is not None:
                        outcome.stats = stats
                        outcome.worker_records.append(stats)
                    attempt_span.annotate(engine=engine, status="result")
                    status = "result"
                    return ("result", engine)
                else:  # exhausted
                    _, stats, usage = message
                    pool.account(worker, usage)
                    if stats is not None:
                        outcome.worker_records.append(stats)
                    attempt_span.annotate(status="exhausted")
                    status = "exhausted"
                    return ("exhausted", None)
        except (EOFError, OSError):
            pass  # died: the pipe closed under a send or a receive
        finally:
            if status in ("result", "exhausted"):
                pool.release(worker)
            else:
                attempt_span.annotate(status=status)
                pool.discard(worker, status)
            attempt_span.finish()
        if current is not None:
            current["status"] = status
        if status == "died":
            self._record_death(outcome, current)
        return (status, current["engine"] if current else None)

    @staticmethod
    def _record_death(outcome: BatchOutcome, current: dict | None) -> None:
        engine = current["engine"] if current else "?"
        outcome.failures.append(WorkerFailure(
            engine=engine, error_type="WorkerDied",
            message="worker process exited without reporting a result",
            traceback="",
        ))

    # --------------------------------------------------------------- race

    def _run_race(self, problem: Problem, schema_id: str | None,
                  outcome: BatchOutcome, timeout: float | None) -> None:
        """Race all conclusive admitted engines; first conclusive verdict
        wins, losers are killed.  Leaves ``outcome.result`` unset when the
        race is not applicable or produced no conclusive verdict — the
        ladder then takes over (excluding engines the race already ran) —
        except that a race's *inconclusive* result is kept as a fallback if
        the ladder also comes up empty."""
        if problem.engine is not None:
            return
        registry = default_registry()
        try:
            contenders = [engine.name
                          for engine in registry.candidates(problem)
                          if engine.conclusive and engine.admits(problem)]
        except Exception:
            return  # admits() raised; let the ladder sort it out
        if len(contenders) < 2:
            return
        pool = self._worker_pool
        race_span = obs.span("race", contenders=len(contenders)).start()
        by_conn: dict = {}  # conn -> (worker, attempt)
        finished: set = set()  # workers whose final message arrived
        dead: set = set()
        for name in contenders:
            worker = pool.acquire(schema_id)
            attempt = {"engine": name, "status": "racing"}
            outcome.attempts.append(attempt)
            by_conn[worker.conn] = (worker, attempt)
            try:
                worker.conn.send((problem, frozenset(), name,
                                  self.collect_stats))
            except OSError:
                pass  # surfaces as EOF below
        deadline = None if timeout is None \
            else time.perf_counter() + timeout
        stash: tuple[Result, str, dict | None] | None = None
        try:
            pending = set(by_conn)
            while pending:
                if deadline is None:
                    ready = _conn_wait(list(pending), timeout=_POLL_S)
                else:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        break
                    ready = _conn_wait(list(pending), timeout=remaining)
                if not ready:
                    if deadline is not None:
                        break  # race timed out
                    if not any(by_conn[conn][0].process.is_alive()
                               for conn in pending):
                        break
                    continue
                for conn in ready:
                    worker, attempt = by_conn[conn]
                    try:
                        message = conn.recv()
                    except (EOFError, OSError):
                        pending.discard(conn)
                        dead.add(worker)
                        attempt["status"] = "died"
                        self._record_death(outcome, attempt)
                        continue
                    kind = message[0]
                    if kind == "declined":
                        attempt["status"] = "declined"
                    elif kind == "failed":
                        attempt["status"] = "failed"
                        outcome.failures.append(WorkerFailure(**message[2]))
                    elif kind == "exhausted":
                        _, stats, usage = message
                        pool.account(worker, usage)
                        if stats is not None:
                            outcome.worker_records.append(stats)
                        pending.discard(conn)
                        finished.add(worker)
                    elif kind == "result":
                        _, engine, result, stats, usage = message
                        pool.account(worker, usage)
                        pending.discard(conn)
                        finished.add(worker)
                        if stats is not None:
                            outcome.worker_records.append(stats)
                        if result.conclusive:
                            attempt["status"] = "result"
                            for _, other in by_conn.values():
                                if other["status"] == "racing":
                                    other["status"] = "lost-race"
                            outcome.result = result
                            outcome.engine = engine
                            outcome.race_winner = engine
                            if stats is not None:
                                outcome.stats = stats
                            race_span.annotate(winner=engine)
                            return
                        attempt["status"] = "inconclusive"
                        if stash is None:
                            stash = (result, engine, stats)
        finally:
            # Kill the dead and the losers first, so that releasing the
            # finished contenders sees the true live count: a surplus check
            # that still counted the losers would retire the winner too.
            for worker, attempt in by_conn.values():
                if attempt["status"] == "racing":
                    attempt["status"] = "timeout" if deadline is not None \
                        else "lost-race"
                if worker in dead:
                    pool.discard(worker, "died")
                elif worker not in finished:
                    pool.discard(worker, "timeout"
                                 if attempt["status"] == "timeout"
                                 else "lost_race")
            for worker, _ in by_conn.values():
                if worker in finished:
                    pool.release(worker)
            race_span.finish()
        if stash is not None and outcome.result is None:
            # No conclusive winner; remember the inconclusive verdict in
            # case the ladder cannot do better.
            outcome.attempts.append(
                {"engine": stash[1], "status": "race-fallback"})
            result, engine, stats = stash
            outcome.result = result
            outcome.engine = engine
            if stats is not None:
                outcome.stats = stats

    # ------------------------------------------------------------ metrics

    def _emit_metrics(self, report: BatchReport) -> None:
        """Fold the report into the active obs recording (main thread) —
        coordinator threads never touch the thread-local recording."""
        if obs.active() is None:
            return
        obs.count("batch.problems", len(report.outcomes))
        queue_wait = 0.0
        worker_time = 0.0
        for outcome in report.outcomes:
            queue_wait += outcome.queue_wait_s
            worker_time += outcome.worker_time_s
            obs.observe("batch.queue_wait_s", outcome.queue_wait_s)
            if not outcome.cache_hit:
                obs.observe("batch.problem_s", outcome.worker_time_s)
            if self.cache is not None:
                obs.observe("batch.cache.probe_s", outcome.cache_probe_s)
                obs.count("batch.cache.hit" if outcome.cache_hit
                          else "batch.cache.miss")
            if outcome.result is None:
                obs.count("batch.unsolved")
            if outcome.failures:
                obs.count("batch.worker_failures", len(outcome.failures))
            if outcome.race_winner is not None:
                obs.count("batch.race.races")
                obs.count(f"batch.race.win.{outcome.race_winner}")
            for attempt in outcome.attempts:
                if attempt["status"] == "timeout":
                    obs.count("batch.timeouts")
            retries = sum(1 for attempt in outcome.attempts
                          if attempt["status"] in ("timeout", "died")) \
                if not outcome.cache_hit else 0
            if retries:
                obs.count("batch.retries", retries)
        obs.gauge("batch.queue_wait_s", queue_wait)
        obs.gauge("batch.worker_time_s", worker_time)
        obs.gauge("batch.wall_s", report.wall_s)
        obs.note("batch", report.summary())


class BatchRunner:
    """One-shot batch front-end over a private :class:`ExecutorService`.

    Historically this class owned the whole coordinator machinery; the
    resident :class:`ExecutorService` now does, and ``BatchRunner`` keeps
    the original contract for existing callers: same constructor, and
    :meth:`run` decides a batch then resets the worker-local session
    registry so a later batch — or a sequential caller after a terminated
    worker round — can never observe this batch's sessions.
    """

    def __init__(
        self,
        workers: int | None = None,
        timeout: float | None = None,
        race: bool = False,
        cache: VerdictCache | str | Path | None = None,
        collect_stats: bool = False,
        mp_context: str | multiprocessing.context.BaseContext | None = None,
    ):
        self.service = ExecutorService(
            workers=workers, timeout=timeout, race=race, cache=cache,
            collect_stats=collect_stats, mp_context=mp_context)

    @property
    def workers(self) -> int:
        return self.service.workers

    @property
    def timeout(self) -> float | None:
        return self.service.timeout

    @property
    def race(self) -> bool:
        return self.service.race

    @property
    def cache(self) -> VerdictCache | None:
        return self.service.cache

    @property
    def collect_stats(self) -> bool:
        return self.service.collect_stats

    def run(self, problems: Iterable[Problem]) -> BatchReport:
        """Decide every problem; outcomes come back in input order."""
        try:
            return self.service.run(problems)
        finally:
            # Pool-shutdown hygiene, preserved from the pre-service
            # runner: one-shot batches leave neither warm sessions nor
            # idle coordinator threads behind.
            self.service.release()
            from ..analysis.session import reset_sessions

            reset_sessions()


# ------------------------------------------------------------- conveniences


def run_batch(
    problems: Iterable[Problem],
    *,
    workers: int | None = None,
    timeout: float | None = None,
    race: bool = False,
    cache: VerdictCache | str | Path | None = None,
    collect_stats: bool = False,
    stats: bool = False,
    mp_context=None,
) -> BatchReport:
    """Run ``problems`` through a fresh :class:`BatchRunner`.  With
    ``stats=True`` the whole batch runs inside an obs recording whose run
    record lands on ``BatchReport.stats``."""
    runner = BatchRunner(workers=workers, timeout=timeout, race=race,
                         cache=cache, collect_stats=collect_stats,
                         mp_context=mp_context)
    if not stats:
        return runner.run(problems)
    with obs.record("batch") as recording:
        report = runner.run(problems)
    report.stats = recording.to_run_record().to_dict()
    return report


def _engine_preference(method: str) -> str | None:
    if method == "auto":
        return None
    registry = default_registry()
    if method not in registry.names():
        raise ValueError(
            f"unknown method {method!r} (expected 'auto' or one of: "
            f"{', '.join(registry.names())})"
        )
    return method


def _checked_results(report: BatchReport, what: str) -> list[Result]:
    failed = report.failed
    if failed:
        first = failed[0]
        raise BatchError(
            f"{len(failed)} of {len(report.outcomes)} {what} problems "
            f"produced no result (first: #{first.index}: {first.error})",
            failed,
        )
    results = report.results()
    assert all(result is not None for result in results)
    return results  # type: ignore[return-value]


def contains_many(
    pairs: Sequence[tuple[PathExpr, PathExpr]],
    *,
    edtd: EDTD | None = None,
    method: str = "auto",
    max_nodes: int = DEFAULT_MAX_NODES,
    workers: int | None = None,
    timeout: float | None = None,
    race: bool = False,
    cache: VerdictCache | str | Path | None = None,
    mp_context=None,
) -> list[ContainmentResult]:
    """Decide ``α ⊑ β`` for every pair on a worker pool; results come back
    in input order and agree with sequential :func:`repro.analysis.contains`
    under the same configuration.  Raises :class:`BatchError` if some
    problem could not be decided by any engine."""
    engine = _engine_preference(method)
    problems = [
        Problem(ProblemKind.CONTAINMENT, alpha=alpha, beta=beta, edtd=edtd,
                max_nodes=max_nodes, engine=engine)
        for alpha, beta in pairs
    ]
    report = run_batch(problems, workers=workers, timeout=timeout, race=race,
                       cache=cache, mp_context=mp_context)
    results = _checked_results(report, "containment")
    assert all(isinstance(result, ContainmentResult) for result in results)
    return results  # type: ignore[return-value]


def satisfiable_many(
    exprs: Sequence[NodeExpr],
    *,
    edtd: EDTD | None = None,
    method: str = "auto",
    max_nodes: int = DEFAULT_MAX_NODES,
    workers: int | None = None,
    timeout: float | None = None,
    race: bool = False,
    cache: VerdictCache | str | Path | None = None,
    mp_context=None,
) -> list[SatResult]:
    """Batch node satisfiability; see :func:`contains_many`."""
    engine = _engine_preference(method)
    problems = [
        Problem(ProblemKind.SATISFIABILITY, phi=phi, edtd=edtd,
                max_nodes=max_nodes, engine=engine)
        for phi in exprs
    ]
    report = run_batch(problems, workers=workers, timeout=timeout, race=race,
                       cache=cache, mp_context=mp_context)
    results = _checked_results(report, "satisfiability")
    assert all(isinstance(result, SatResult) for result in results)
    return results  # type: ignore[return-value]
