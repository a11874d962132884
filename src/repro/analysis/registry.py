"""The pluggable engine registry: who decides which problem, and why.

An :class:`Engine` wraps one decision procedure behind a uniform interface:

* ``name`` — how users force it (``--engine NAME``, ``method=NAME``);
* ``admits(problem)`` — a cheap syntactic test: could this engine run at
  all on the problem's fragment/kind?
* ``conclusive`` — whether its negative verdicts are proofs;
* ``cost_hint`` — a rough ordering key; the registry tries admitted
  engines cheapest-first, so a complete polynomial-ish procedure beats
  exhaustive search beats random sampling;
* ``solve(problem, session)`` — run it, or return ``None`` to *decline at
  runtime* (e.g. the EXPSPACE engine's type space blows past its memory
  guard — something ``admits`` cannot see syntactically).  ``session`` is
  the problem's :class:`~repro.analysis.session.SchemaSession`, carrying
  the compile-once :class:`~repro.edtd.compiled.CompiledSchema` every
  engine consumes instead of rebuilding its per-schema machinery.

:func:`plan_and_run` is the single dispatch point for the whole analysis
API: ``satisfiable``/``contains``/``equivalent`` build a
:class:`~repro.analysis.problems.Problem` and call it.  Every run notes an
``engine_decision`` record — the full candidate list with admission
verdicts and the engine finally chosen — so run records explain *why* a
problem went where it did.

Engines self-register at import time; :func:`default_registry` imports the
builtin engine modules lazily to avoid import cycles with
:mod:`repro.analysis.engines` and :mod:`repro.analysis.expspace`.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import replace
from typing import Iterator

from .. import obs
from .problems import ContainmentResult, Problem, ProblemKind, SatResult, Verdict

__all__ = [
    "Engine",
    "EngineDeclined",
    "EngineRegistry",
    "default_registry",
    "plan_and_run",
]

Result = SatResult | ContainmentResult


class EngineDeclined(ValueError):
    """A forced engine could not take its problem: it either does not admit
    the input or declined at runtime (e.g. a memory guard tripped)."""


class Engine:
    """Base class for decision engines.  Subclasses set the class attributes
    and implement :meth:`admits` and :meth:`solve`."""

    #: Registry name; also the ``dispatch.<name>`` counter suffix.
    name: str = "abstract"
    #: Whether negative verdicts from this engine are proofs.
    conclusive: bool = False
    #: Rough relative cost; the registry tries cheaper engines first.
    cost_hint: int = 100

    def admits(self, problem: Problem) -> bool:
        """Cheap syntactic admissibility check."""
        raise NotImplementedError

    def solve(self, problem: Problem, session=None) -> Result | None:
        """Decide ``problem``, or return ``None`` to decline at runtime.

        ``session`` is the problem's
        :class:`~repro.analysis.session.SchemaSession` (the dispatcher
        always passes it); engines resolve it themselves via
        :func:`~repro.analysis.session.session_for` when called directly
        with ``session=None``.
        """
        raise NotImplementedError

    def describe(self) -> dict:
        return {
            "name": self.name,
            "conclusive": self.conclusive,
            "cost_hint": self.cost_hint,
        }


class EngineRegistry:
    """An ordered collection of engines plus the dispatch policy."""

    def __init__(self) -> None:
        self._engines: dict[str, Engine] = {}

    def register(self, engine: Engine) -> Engine:
        """Add (or replace) an engine under its name."""
        self._engines[engine.name] = engine
        return engine

    def names(self) -> list[str]:
        return sorted(self._engines)

    def get(self, name: str) -> Engine:
        engine = self._engines.get(name)
        if engine is None:
            raise ValueError(
                f"unknown engine {name!r} (registered: {', '.join(self.names())})"
            )
        return engine

    def candidates(self, problem: Problem) -> list[Engine]:
        """All registered engines in dispatch order (cheapest first)."""
        return sorted(self._engines.values(),
                      key=lambda engine: (engine.cost_hint, engine.name))

    def ladder(self, problem: Problem, *, exclude=frozenset(),
               only: str | None = None) -> Iterator[tuple[str, Engine, object]]:
        """The engine ladder for an already canonical ``problem``: the one
        attempt generator behind both :meth:`plan_and_run` and the resident
        workers of :mod:`repro.parallel`.

        Walks the admitted engines cheapest-first and yields one event per
        step, as ``(event, engine, payload)``:

        * ``("trying", engine, None)`` — ``solve`` is about to start;
        * ``("declined", engine, reason)`` — ``solve`` returned ``None``
          (``reason`` is ``None``) or raised :class:`EngineDeclined` (the
          exception) — a *clean* decline, counted as
          ``dispatch.declined.<name>``;
        * ``("failed", engine, error)`` — ``admits`` or ``solve`` raised;
          counted as ``dispatch.error.<name>``, and the walk falls through;
        * ``("result", engine, result)`` — the verdict; the walk ends.

        ``only`` (a race contender) or a forced ``problem.engine`` (except
        for equivalence, which forwards the preference to its
        per-direction subproblems) makes that one engine the whole ladder;
        an unknown name raises ``ValueError`` before the first event.
        Engines named in ``exclude`` (already tried by a worker that timed
        out or died) are skipped, so a fresh worker resumes at the
        next-cheapest engine.

        The walk notes an ``engine_decision`` — every candidate with its
        admission verdict, the chosen engine or ``None`` — on the active
        recording and observes ``dispatch.solve_s`` for the verdict.  With
        no recording active nobody can read the decision, so later
        candidates' ``admits`` run only when the walk reaches them.
        """
        forced = only
        if forced is None and problem.kind is not ProblemKind.EQUIVALENCE:
            forced = problem.engine
        if forced is not None:
            engines = [] if forced in exclude else [self.get(forced)]
        else:
            engines = [engine for engine in self.candidates(problem)
                       if engine.name not in exclude]
        entries = [engine.describe() for engine in engines]
        decision = {"candidates": entries, "chosen": None}
        errors: dict[str, Exception] = {}

        def admitted(engine: Engine, entry: dict) -> bool:
            if "admits" not in entry:
                try:
                    entry["admits"] = engine.admits(problem)
                except Exception as error:
                    entry["admits"] = False
                    entry["error"] = f"{type(error).__name__}: {error}"
                    errors[engine.name] = error
                if forced is not None:
                    entry["forced"] = True
            return entry["admits"]

        def settle() -> None:
            # Noted at every exit, after any nested dispatch has noted its
            # own decision, so the outer decision is the one that stays.
            obs.note("engine_decision", decision)

        if obs.active() is not None:
            for engine, entry in zip(engines, entries):
                admitted(engine, entry)
        started = time.perf_counter()
        session = None  # the problem's session, resolved on first solve
        with obs.span("dispatch", problem=problem.kind.value):
            from .session import session_for

            for engine, entry in zip(engines, entries):
                if not admitted(engine, entry):
                    if engine.name in errors:
                        obs.count(f"dispatch.error.{engine.name}")
                        settle()
                        yield "failed", engine, errors[engine.name]
                    continue
                yield "trying", engine, None
                try:
                    if session is None:
                        session = session_for(problem)
                    result = engine.solve(problem, session)
                except EngineDeclined as declined:
                    # A clean decline surfacing as an exception (a nested
                    # dispatch whose forced engine declined): not an
                    # engine bug, so never ``dispatch.error.*``.
                    entry["declined"] = True
                    obs.count(f"dispatch.declined.{engine.name}")
                    settle()
                    yield "declined", engine, declined
                    continue
                except Exception as error:
                    # An engine bug or an uncaught guard must not abort
                    # the walk: record it and fall through.
                    entry["error"] = f"{type(error).__name__}: {error}"
                    obs.count(f"dispatch.error.{engine.name}")
                    settle()
                    yield "failed", engine, error
                    continue
                if result is None:
                    entry["declined"] = True
                    obs.count(f"dispatch.declined.{engine.name}")
                    settle()
                    yield "declined", engine, None
                    continue
                decision["chosen"] = engine.name
                settle()
                obs.observe("dispatch.solve_s",
                            time.perf_counter() - started)
                yield "result", engine, result
                return
        settle()

    def plan_and_run(self, problem: Problem) -> Result:
        """Dispatch ``problem`` to an engine and return its result.

        The problem is canonicalized by the rewrite pipeline
        (:mod:`repro.xpath.passes`) at the session level — so fragment
        tests, plan-cache keys and verdict-cache keys all see canonical
        forms — and walked down :meth:`ladder`.  With ``problem.engine``
        set, that engine must admit and solve the problem: not admitting
        or declining raises :class:`EngineDeclined`, an engine exception is
        re-raised (equivalence forwards the preference to its
        per-direction subproblems instead).  Otherwise an engine that
        raises or declines falls through to the next admitted one, and the
        last error is re-raised only when no engine remains.
        """
        problem = problem.canonical()
        forced = problem.engine is not None \
            and problem.kind is not ProblemKind.EQUIVALENCE
        last_error: Exception | None = None
        with contextlib.closing(self.ladder(problem)) as events:
            for event, engine, payload in events:
                if event == "result":
                    return payload
                if event == "trying":
                    continue
                if forced:
                    if payload is None:
                        raise EngineDeclined(
                            f"engine {engine.name!r} declined this "
                            f"{problem.kind.value} problem at runtime")
                    raise payload
                if payload is not None:
                    last_error = payload
        if forced:
            raise EngineDeclined(
                f"engine {problem.engine!r} does not admit this "
                f"{problem.kind.value} problem")
        if last_error is not None:
            raise last_error
        raise ValueError(
            f"no registered engine admits this {problem.kind.value} problem"
        )


class BidirectionalEngine(Engine):
    """Decides equivalence as two containment subproblems.

    The per-direction results are preserved verbatim on
    ``ContainmentResult.per_direction``; the aggregate ``explored_up_to``
    is the tightest bound over the *inconclusive* directions only (a
    conclusively-decided direction imposes no bound), and
    ``trees_checked`` is the total work.
    """

    name = "bidirectional"
    conclusive = False  # conclusive iff both directions are.
    cost_hint = 50

    def admits(self, problem: Problem) -> bool:
        return problem.kind is ProblemKind.EQUIVALENCE

    def solve(self, problem: Problem,
              session=None) -> ContainmentResult:
        # The per-direction subproblems resolve their own sessions inside
        # the nested dispatch; the equivalence-level session is unused.
        assert problem.alpha is not None and problem.beta is not None
        forward_problem = Problem(
            ProblemKind.CONTAINMENT, alpha=problem.alpha, beta=problem.beta,
            edtd=problem.edtd, max_nodes=problem.max_nodes,
            engine=problem.engine,
        )
        with obs.span("direction", which="forward"):
            forward = plan_and_run(forward_problem)
        assert isinstance(forward, ContainmentResult)
        if forward.verdict is Verdict.SATISFIABLE:
            return _with_directions(forward, (forward, None))
        backward_problem = Problem(
            ProblemKind.CONTAINMENT, alpha=problem.beta, beta=problem.alpha,
            edtd=problem.edtd, max_nodes=problem.max_nodes,
            engine=problem.engine,
        )
        with obs.span("direction", which="backward"):
            backward = plan_and_run(backward_problem)
        assert isinstance(backward, ContainmentResult)
        if backward.verdict is Verdict.SATISFIABLE:
            return _with_directions(backward, (forward, backward))
        verdict = Verdict.UNSATISFIABLE
        if not (forward.conclusive and backward.conclusive):
            verdict = Verdict.NO_WITNESS_WITHIN_BOUND
        bounds = [direction.explored_up_to
                  for direction in (forward, backward)
                  if not direction.conclusive]
        return ContainmentResult(
            verdict,
            explored_up_to=min((b for b in bounds if b is not None),
                               default=None),
            trees_checked=forward.trees_checked + backward.trees_checked,
            per_direction=(forward, backward),
        )


def _with_directions(
    result: ContainmentResult,
    directions: tuple[ContainmentResult | None, ContainmentResult | None],
) -> ContainmentResult:
    return replace(result, per_direction=directions)


_DEFAULT: EngineRegistry | None = None


def default_registry() -> EngineRegistry:
    """The process-wide registry, with the builtin engines loaded."""
    global _DEFAULT
    if _DEFAULT is None:
        registry = EngineRegistry()
        registry.register(BidirectionalEngine())
        _DEFAULT = registry
        # Builtin engine modules self-register on import; imported lazily
        # here to break the cycle analysis.engines -> ... -> registry.
        from . import automata_engine as _automata  # noqa: F401
        from . import engines as _engines  # noqa: F401
        from . import expspace as _expspace  # noqa: F401
        from . import patterns as _patterns  # noqa: F401
    return _DEFAULT


def plan_and_run(problem: Problem) -> Result:
    """Dispatch ``problem`` through the default registry."""
    return default_registry().plan_and_run(problem)
