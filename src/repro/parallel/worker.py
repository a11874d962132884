"""Child-process side of the executor: one resident worker process.

A worker is forked once and then serves problems one at a time over one
duplex pipe, looping ``receive problem → walk the engine ladder → stream
messages`` until the parent kills it or goes away.  The ladder is
:meth:`EngineRegistry.ladder` — the very generator behind in-process
:func:`~repro.analysis.registry.plan_and_run` — so a worker records the
same ``engine_decision`` and ``dispatch.solve_s`` as an in-process run.
The parent never trusts a worker to stay healthy: an engine that raises
becomes a structured :class:`WorkerFailure` message, an engine that
declines is reported and the ladder moves on, and a worker that hangs or
dies is killed and replaced by the parent (see :mod:`repro.parallel.runner`)
— none of these poison the pool or leak into other problems' verdicts.

Request (parent → child), pickled down the pipe: ``(problem, exclude,
only_engine, collect_stats)``.  ``exclude`` names engines already tried
by a worker that timed out or died, so this one resumes at the
next-cheapest engine; ``only_engine`` makes one engine the whole ladder
(a race contender).

Message protocol (child → parent), in order:

* ``("trying", engine)`` — a new engine attempt begins.  The parent resets
  its per-attempt timeout clock on this message, so each engine gets the
  full budget.
* ``("declined", engine, reason)`` — the engine declined at runtime (its
  ``solve`` returned ``None``, e.g. the EXPSPACE memory guard).
* ``("failed", engine, failure_dict)`` — the engine raised; the exception
  is re-raised *as data* (a :class:`WorkerFailure` rendering), never as a
  live exception crossing the process boundary.
* ``("result", engine, result, run_record_or_None, usage)`` — a verdict.
* ``("exhausted", run_record_or_None, usage)`` — every eligible engine
  declined or failed; the run record (``collect_stats=True`` only) still
  ships so the trace shows what the worker tried.

``usage`` is ``{"cpu_s", "compiles", "schemas"}``: the worker's CPU time
(``time.process_time``) and schema-session compiles spent on this
problem, which the parent sums into its ``/stats`` accounting, and — when
the worker's session registry changed — the schema ids it now holds, which
the parent routes by.

With ``collect_stats=True`` the worker wraps each ladder walk in an obs
recording whose run record — span tree with wall-clock anchors, the
worker's ``pid`` in ``meta`` — rides back on the final message.  The
parent merges these per-process records into one Chrome trace timeline
(:func:`repro.obs.traceout.batch_trace`).
"""

from __future__ import annotations

import contextlib
import os
import stat
import time
import traceback
from dataclasses import asdict, dataclass

from .. import obs
from ..analysis.problems import Problem
from ..analysis.registry import default_registry

__all__ = ["WorkerFailure", "serve"]


@dataclass(frozen=True)
class WorkerFailure:
    """A structured record of an engine exception inside a worker."""

    engine: str
    error_type: str
    message: str
    traceback: str

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_exception(cls, engine: str, error: BaseException) -> "WorkerFailure":
        return cls(
            engine=engine,
            error_type=type(error).__name__,
            message=str(error),
            traceback="".join(traceback.format_exception(error)),
        )


def _close_inherited_sockets(keep: int) -> None:
    """Close every socket the fork copied from the parent except ``keep``.

    A resident worker outlives the requests that were open when it was
    forked; holding copies of the daemon's listeners, client connections
    or other workers' pipes would keep those open past their owner's
    close (a JSONL client reading to EOF would never see it)."""
    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except OSError:
        fds = list(range(3, 1024))
    for fd in fds:
        if fd <= 2 or fd == keep:
            continue
        with contextlib.suppress(OSError):
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)


def serve(conn) -> None:
    """Process entry point: answer problems from ``conn`` until the parent
    goes away.

    Never raises: every failure mode becomes a message (or, at worst, a
    closed pipe the parent observes as a dead worker).
    """
    from ..analysis.session import discard_incomplete_sessions

    # Fork hygiene, belt-and-braces with the session module's
    # ``os.register_at_fork`` hook: a session whose compile was in flight
    # in the parent at fork time must never be observed here.
    discard_incomplete_sessions()
    _close_inherited_sockets(conn.fileno())
    try:
        while True:
            _solve(conn, *conn.recv())
    except (EOFError, OSError):
        pass  # the parent went away
    finally:
        with contextlib.suppress(OSError):
            conn.close()


def _solve(conn, problem: Problem, exclude: frozenset[str],
           only_engine: str | None, collect_stats: bool) -> None:
    """Walk the ladder for one problem, streaming messages to ``conn``."""
    from ..analysis.session import (
        registry_stats,
        resident_schema_ids,
        with_session_edtd,
    )

    cpu_started = time.process_time()
    registry = registry_stats()
    recording = None
    if collect_stats:
        recording = obs.record("batch.worker").start()
        recording.note("pid", os.getpid())

    def finish() -> tuple[dict | None, dict]:
        nonlocal recording
        stats = None
        if recording is not None:
            recording.stop()
            stats = recording.to_run_record().to_dict()
            recording = None
        now = registry_stats()
        changed = now["created"] != registry["created"] \
            or now["evicted"] != registry["evicted"]
        usage = {"cpu_s": time.process_time() - cpu_started,
                 "compiles": now["created"] - registry["created"],
                 "schemas": resident_schema_ids() if changed else None}
        return stats, usage

    try:
        # The problem arrives canonical but unpickled: re-canonicalizing is
        # a memo hit that re-interns its expressions.
        problem = with_session_edtd(problem.canonical())
        engine_span = None  # one span per engine attempt, for the trace
        with contextlib.closing(default_registry().ladder(
                problem, exclude=exclude, only=only_engine)) as events:
            for event, engine, payload in events:
                if engine_span is not None:
                    engine_span.annotate(status=event)
                    engine_span.finish()
                    engine_span = None
                if event == "trying":
                    engine_span = obs.span(f"engine.{engine.name}").start()
                    conn.send(("trying", engine.name))
                elif event == "declined":
                    conn.send(("declined", engine.name,
                               "declined at runtime" if payload is None
                               else str(payload)))
                elif event == "failed":
                    conn.send(("failed", engine.name,
                               WorkerFailure.from_exception(
                                   engine.name, payload).to_dict()))
                else:
                    verdict = (engine.name, payload)
                    break
            else:
                verdict = None
    except OSError:
        raise  # the pipe broke: the parent is gone
    except Exception as error:  # unknown engine name, or a ladder bug
        conn.send(("failed", only_engine or problem.engine or "?",
                   WorkerFailure.from_exception("?", error).to_dict()))
        verdict = None
    if verdict is None:
        conn.send(("exhausted", *finish()))
        return
    name, result = verdict
    if recording is not None:
        recording.note("engine", name)
        recording.note("verdict", result.verdict.value)
    conn.send(("result", name, result, *finish()))
