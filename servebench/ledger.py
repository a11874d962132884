"""The traced run's in-process half: replay a plan through the program's
public functions, one layer at a time, and through an in-process
``ExecutorService``, so that the served latency can be taken apart.

Each replay starts from the state the daemon had when its timed phase
began: fresh sessions, a fresh cache directory (or none), and the plan's
warm-up answered first.  The timed layer walk runs first, so it meets
the program's process-wide memos (canonical forms, compiled patterns) as
cold as the daemon did; the counted walk and the ``submit`` replay then
find those memos warm.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from repro import obs
from repro.analysis.registry import default_registry
from repro.analysis.session import registry_stats, reset_sessions, session_for
from repro.parallel.cache import VerdictCache
from repro.parallel.runner import BatchOutcome, ExecutorService
from repro.server.protocol import outcome_record, parse_problem_record
from repro.xpath import passes
from repro.xpath.measures import size

from .measure import END_TO_END
from .workloads import Plan, Request

__all__ = ["PER_LAYER", "Step", "layer_metrics", "submit_replay", "walk"]

#: Engines whose solve time and chosen share the ledger reports.
ENGINES = ("patterns", "expspace", "automata", "bounded", "bidirectional")
#: obs counters (summed over requests) the ledger reports as counts.
COUNTERS = ("schema.compile.count", "patterns.embeddings",
            "twoata.emptiness.rounds", "trees.checked")
#: obs gauges, set once per solve, summed over requests.
GAUGES = ("expspace.realizable_types", "twoata.emptiness.evals")

#: Every per-layer metric of the traced run: name -> (unit, better).
PER_LAYER = {
    "server.overhead_ms": ("ms", "lower"),
    "protocol.parse_ms": ("ms", "lower"),
    "protocol.encode_ms": ("ms", "lower"),
    "passes.canonical_ms": ("ms", "lower"),
    "passes.size_ratio": ("ratio", "lower"),
    "cache.get_ms": ("ms", "lower"),
    "cache.put_ms": ("ms", "lower"),
    "cache.mem_hit": ("count", "higher"),
    "cache.disk_hit": ("count", "higher"),
    "cache.miss": ("count", "lower"),
    "cache.store": ("count", "lower"),
    "cache.hit_share": ("share", "higher"),
    "session.compile_ms": ("ms", "lower"),
    "session.created": ("count", "lower"),
    "session.reused": ("count", "higher"),
    "session.evicted": ("count", "lower"),
    "schema.compile.count": ("count", "lower"),
    "runner.overhead_ms": ("ms", "lower"),
    "runner.queue_wait_ms": ("ms", "lower"),
    "runner.attempts_per_req": ("count", "lower"),
    "runner.failures": ("count", "lower"),
    "runner.timeouts": ("count", "lower"),
    "registry.admits_ms": ("ms", "lower"),
    "registry.dispatch_ms": ("ms", "lower"),
    "registry.declines_per_req": ("count", "lower"),
    **{f"registry.chosen_share.{engine}":
       ("share", "higher" if engine == "patterns" else "lower")
       for engine in ENGINES},
    **{f"engine.{engine}.solve_ms": ("ms", "lower") for engine in ENGINES},
    "patterns.embeddings": ("count", "lower"),
    "expspace.realizable_types": ("count", "lower"),
    "twoata.emptiness.rounds": ("count", "lower"),
    "twoata.emptiness.evals": ("count", "lower"),
    "trees.checked": ("count", "lower"),
    "host.probe_ms": ("ms", "lower"),
    "host.idle_cpu_ms": ("ms", "lower"),
    **{f"raw.{name}": (unit, "higher" if kind == "rate" else "lower")
       for name, (unit, kind) in END_TO_END.items() if kind != "plain"},
    "ledger.served_p50_ms": ("ms", "lower"),
    "ledger.layers_p50_ms": ("ms", "lower"),
    "ledger.unaccounted_share": ("share", "lower"),
}


@dataclass
class Step:
    """One request walked through the layers; times in seconds."""

    parse: float = 0.0
    canonical: float = 0.0
    size_ratio: float = 1.0
    cache_get: float | None = None
    cache_put: float | None = None
    session: float | None = None
    compiled: bool = False
    admits: float | None = None
    dispatch: float | None = None
    declines: int = 0
    solves: dict[str, float] = field(default_factory=dict)
    chosen: str | None = None
    encode: float = 0.0
    total: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)


def _walk_one(record: dict, cache: VerdictCache | None) -> Step:
    clock = time.perf_counter
    step = Step()
    registry = default_registry()
    started = clock()
    record_id, kind, problem = parse_problem_record(record)
    mark = clock()
    step.parse = mark - started
    canonical = problem.canonical()
    now = clock()
    step.canonical, mark = now - mark, now
    step.size_ratio = (sum(size(e) for e in canonical.expressions())
                       / sum(size(e) for e in problem.expressions()))
    result = None
    if cache is not None:
        result = cache.get(canonical)
        now = clock()
        step.cache_get, mark = now - mark, now
    hit = result is not None
    if not hit:
        created = registry_stats()["created"]
        session = session_for(canonical)
        now = clock()
        step.session, mark = now - mark, now
        step.compiled = registry_stats()["created"] > created
        admitted, admits = [], 0.0
        for engine in registry.candidates(canonical):
            before = clock()
            if engine.admits(canonical):
                admitted.append(engine)
            admits += clock() - before
        step.admits = admits
        for engine in admitted:
            before = clock()
            try:
                result = engine.solve(canonical, session)
            except Exception:  # noqa: BLE001 - the ladder falls through
                result = None
            step.solves[engine.name] = clock() - before
            if result is not None:
                step.chosen = engine.name
                break
            step.declines += 1
        now = clock()
        step.dispatch, mark = now - mark, now
        if cache is not None and result is not None:
            cache.put(canonical, result)
            now = clock()
            step.cache_put, mark = now - mark, now
    outcome = BatchOutcome(index=0, problem=canonical, result=result,
                           engine="cache" if hit else step.chosen,
                           cache_hit=hit)
    if result is None:
        outcome.error = "no engine produced a result"
    json.dumps(outcome_record(record_id, kind, outcome), sort_keys=True)
    step.encode = clock() - mark
    step.total = clock() - started
    return step


def _fresh_state(directory: Path, cache: bool) -> VerdictCache | None:
    passes.set_default_pipeline("full")
    reset_sessions()
    return VerdictCache(directory) if cache else None


def walk(plan: Plan, directory: Path) -> list[Step]:
    """Walk the warm-up, then each timed request, timing its layers.

    A second walk from the same fresh state captures the program's own
    obs counters per request.  The timed walk runs untraced, so the
    recording's own cost stays out of the layer times."""
    cache = _fresh_state(directory / "timed", plan.workload.cache)
    for request in plan.warmup:
        _walk_one(request.record, cache)
    steps = [_walk_one(request.record, cache) for request in plan.timed]
    cache = _fresh_state(directory / "counted", plan.workload.cache)
    for request in plan.warmup:
        _walk_one(request.record, cache)
    for step, request in zip(steps, plan.timed):
        with obs.record("servebench.walk") as recording:
            _walk_one(request.record, cache)
        step.counts = {name: recording.counters.get(name, 0)
                       for name in COUNTERS}
        step.counts.update({name: recording.gauges.get(name, 0)
                            for name in GAUGES})
    reset_sessions()
    return steps


def _submit(service: ExecutorService,
            request: Request) -> tuple[float, BatchOutcome]:
    """Round trip of one request through ``service``, timed from the
    parsed problem to the outcome, the way the daemon submits it."""
    _, _, problem = parse_problem_record(request.record)
    timeout = request.record.get("timeout")
    started = time.perf_counter()
    if timeout is None:
        future = service.submit(problem)
    else:
        future = service.submit(problem, timeout=float(timeout))
    outcome = future.result()
    return time.perf_counter() - started, outcome


def submit_replay(plan: Plan,
                  directory: Path) -> list[tuple[float, BatchOutcome]]:
    """Each timed request through an in-process ``ExecutorService`` shaped
    like the daemon's (two slots), after the plan's warm-up."""
    cache = _fresh_state(directory, plan.workload.cache)
    service = ExecutorService(workers=2, cache=cache)
    try:
        for request in plan.warmup:
            _submit(service, request)
        return [_submit(service, request) for request in plan.timed]
    finally:
        service.close()


def _ms(values: list[float]) -> float:
    return median(values) * 1000.0 if values else 0.0


def layer_metrics(steps: list[Step],
                  submits: list[tuple[float, BatchOutcome]],
                  served: list[float]) -> dict[str, float]:
    """Per-layer figures from the walk, the submit replay and the served
    latencies (seconds, in plan order)."""
    n = len(steps)
    metrics: dict[str, float] = {
        "protocol.parse_ms": _ms([s.parse for s in steps]),
        "protocol.encode_ms": _ms([s.encode for s in steps]),
        "passes.canonical_ms": _ms([s.canonical for s in steps]),
        "passes.size_ratio": sum(s.size_ratio for s in steps) / n,
        "cache.get_ms": _ms([s.cache_get for s in steps
                             if s.cache_get is not None]),
        "cache.put_ms": _ms([s.cache_put for s in steps
                             if s.cache_put is not None]),
        "session.compile_ms": _ms([s.session for s in steps
                                   if s.compiled]),
        "registry.admits_ms": _ms([s.admits for s in steps
                                   if s.admits is not None]),
        "registry.dispatch_ms": _ms([s.dispatch for s in steps
                                     if s.dispatch is not None]),
        "registry.declines_per_req": sum(s.declines for s in steps) / n,
    }
    for engine in ENGINES:
        metrics[f"registry.chosen_share.{engine}"] = \
            sum(1 for s in steps if s.chosen == engine) / n
        metrics[f"engine.{engine}.solve_ms"] = _ms(
            [s.solves[engine] for s in steps if engine in s.solves])
    for name in COUNTERS + GAUGES:
        metrics[name] = sum(s.counts.get(name, 0) for s in steps)
    submit_s = [seconds for seconds, _ in submits]
    direct_s = [s.total - s.parse - s.encode for s in steps]
    metrics["runner.overhead_ms"] = _ms(
        [a - b for a, b in zip(submit_s, direct_s)])
    metrics["runner.queue_wait_ms"] = _ms(
        [outcome.queue_wait_s for _, outcome in submits])
    metrics["runner.attempts_per_req"] = sum(
        len(outcome.attempts) for _, outcome in submits) / n
    metrics["server.overhead_ms"] = _ms(
        [a - b for a, b in zip(served, submit_s)])
    served_p50 = median(served)
    ledger_p50 = median([s.total for s in steps])
    metrics["ledger.served_p50_ms"] = served_p50 * 1000.0
    metrics["ledger.layers_p50_ms"] = ledger_p50 * 1000.0
    metrics["ledger.unaccounted_share"] = (served_p50 - ledger_p50) \
        / served_p50
    return metrics
