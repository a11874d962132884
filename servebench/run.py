"""The serving benchmark: ``python3 servebench/run.py --workload NAME
--seed N --seconds S --trace 0|1``, from the root of a checkout.

Each run starts fresh ``repro serve --workers 2`` daemons from the
checkout's ``src/`` and drives a seeded, fixed-length closed loop over one
keep-alive HTTP connection: one client, which sends the next request
when the previous answer is in, like ``repro batch --server`` and the
library wrappers.  The generator, the daemon and the daemon's forked
workers share one pinned CPU.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ledger (see ``BENCHMARK.json``); the last line of standard output is the
JSON result.  A wrong conclusive answer, an unbalanced ``/stats`` delta,
a failed workload premise, or a daemon that does not exit cleanly on
SIGTERM makes the result ``"correct": false`` and the exit status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from servebench.measure import END_TO_END  # noqa: E402

#: Daemons started per timed run; ``setup_s`` is the median of their
#: set-ups, and the timed slices go to them in turn.
DAEMONS = 5
#: Probe windows per run (between slices of the timed phase).
SLICES = 40


@dataclass
class Served:
    """One daemon's timed phase, as the client saw it.

    The timed phase is cut into slices with a probe window before the
    first slice and after every slice; ``probes[k]`` and ``probes[k + 1]``
    bracket slice ``k``.  Set-up ``k`` is bracketed by the pair
    ``setup_probes[k]``.  Probe times are in ms."""

    setup_s: list[float] = field(default_factory=list)
    setup_probes: list[tuple[float, float]] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)
    idle_cpu_ms: float = 0.0
    latencies: list[list[float]] = field(default_factory=list)
    slice_s: list[float] = field(default_factory=list)
    slice_cpu_ms: list[float] = field(default_factory=list)
    answers: list[tuple[int, dict]] = field(default_factory=list)
    warm_answers: list[list[tuple[int, dict]]] = field(
        default_factory=list)
    hwm_mb: float = 0.0
    delta: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    @property
    def flat_latencies(self) -> list[float]:
        return [value for one in self.latencies for value in one]


def _slices(items: list, count: int) -> list[list]:
    count = max(1, min(count, len(items)))
    bounds = [len(items) * i // count for i in range(count + 1)]
    return [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def serve(plan, workdir: Path, daemons: int) -> Served:
    """Start and warm ``daemons`` daemons, then play the timed requests
    against them, one slice at a time in turn, so that what one daemon
    process happens to be like averages out within the run."""
    from servebench.harness import Connection, Daemon, Probe
    from servebench.measure import stats_delta

    served = Served()
    warm_raw = [Connection.post("/v1/solve", r.body) for r in plan.warmup]
    running: list = []
    probe = Probe()
    try:
        for index in range(daemons):
            before = probe()
            started = time.perf_counter()
            daemon = Daemon(ROOT, workdir / f"daemon{index}",
                            cache=plan.workload.cache)
            running.append(daemon)
            replies = [daemon.connection.send(raw) for raw in warm_raw]
            served.setup_s.append(time.perf_counter() - started)
            served.setup_probes.append((before, probe()))
            served.warm_answers.append([(status, json.loads(body))
                                        for status, body in replies])
        slices = _slices([Connection.post("/v1/solve", r.body)
                          for r in plan.timed], SLICES)
        stats_before = [d.connection.get_json("/stats") for d in running]
        raw_answers = []
        served.probes.append(probe())
        for index, one in enumerate(slices):
            daemon = running[index % len(running)]
            connection = daemon.connection
            latencies = []
            cpu_started = sum(d.cpu_ms() for d in running)
            slice_started = time.perf_counter()
            for raw in one:
                started = time.perf_counter()
                raw_answers.append(connection.send(raw))
                latencies.append(time.perf_counter() - started)
            served.slice_s.append(time.perf_counter() - slice_started)
            cpu_done = sum(d.cpu_ms() for d in running)
            served.slice_cpu_ms.append(cpu_done - cpu_started)
            served.latencies.append(latencies)
            served.probes.append(probe())
            served.idle_cpu_ms += sum(d.cpu_ms() for d in running) - cpu_done
        stats_after = [d.connection.get_json("/stats") for d in running]
        served.hwm_mb = max(d.hwm_mb() for d in running)
        served.delta = stats_delta(stats_before, stats_after)
        served.answers = [(status, json.loads(body))
                          for status, body in raw_answers]
        while running:
            try:
                running[-1].stop()
            except RuntimeError as error:
                served.errors.append(str(error))
            running.pop()
    finally:
        for daemon in running:
            daemon.kill()
        probe.close()
    return served


def check(plan, served: Served) -> tuple[dict, list[str]]:
    """Judge every answer and run the accounting and premise checks."""
    from servebench.measure import (accounting_errors, error_free, judge,
                                    premise_errors)

    errors = list(served.errors)
    verdicts = {"right": 0, "wrong": 0, "undecided": 0, "error": 0}
    pairs = [pair for answers in served.warm_answers
             for pair in zip(plan.warmup, answers)]
    pairs += zip(plan.timed, served.answers)
    for request, (status, record) in pairs:
        verdict = judge(request.template.expected, request.template.kind,
                        status, record)
        verdicts[verdict] += 1
        if verdict == "wrong":
            errors.append(f"wrong answer to {request.template.name}: "
                          f"{json.dumps(request.record)} -> "
                          f"{json.dumps(record)}")
    attempted = len(plan.timed)
    counts = {
        "attempted": attempted,
        "decided": sum(1 for status, record in served.answers
                       if status == 200 and record.get("conclusive")),
        "error_free": sum(1 for status, record in served.answers
                          if error_free(status, record)),
        **verdicts,
    }
    errors += accounting_errors(served.delta, attempted)
    errors += premise_errors(plan.workload.name, served.delta, attempted)
    return counts, errors


def end_to_end(served: Served, counts: dict) -> tuple[dict, dict]:
    """Raw end-to-end metrics, and the same restated at the reference
    probe time: each slice (and each set-up) by the mean of the two probe
    windows around it, so that host-speed drift within a run cancels."""
    from servebench.measure import factor, percentile

    attempted = counts["attempted"]
    factors = [factor(before, after) for before, after
               in zip(served.probes, served.probes[1:])]
    setup_factors = [factor(before, after)
                     for before, after in served.setup_probes]
    shares = {"decided_share": counts["decided"] / attempted,
              "error_free_share": counts["error_free"] / attempted,
              "peak_rss_mb": served.hwm_mb}
    results = []
    for slice_factors, set_factors in (([1.0] * len(factors),
                                        [1.0] * len(setup_factors)),
                                       (factors, setup_factors)):
        latencies_ms = [value * 1000.0 * scale for one, scale
                        in zip(served.latencies, slice_factors)
                        for value in one]
        timed_s = sum(s * f for s, f in zip(served.slice_s, slice_factors))
        cpu_ms = sum(c * f for c, f in zip(served.slice_cpu_ms,
                                           slice_factors))
        results.append({
            "throughput_rps": attempted / timed_s,
            "latency_p50_ms": percentile(latencies_ms, 50),
            "latency_p95_ms": percentile(latencies_ms, 95),
            "cpu_ms_per_req": cpu_ms / attempted,
            "setup_s": median([s * f for s, f in zip(served.setup_s,
                                                     set_factors)]),
            **shares,
        })
    return results[0], results[1]


def _print_table(title: str, rows: list[tuple[str, str, str]]) -> None:
    print(title)
    for name, value, note in rows:
        print(f"  {name:34} {value:>14}  {note}")


def timed_run(plan, seed: int, workdir: Path,
              daemons: int = DAEMONS) -> tuple[dict, int]:
    """Serve ``plan``, print the end-to-end report; returns the result
    object and the exit status."""
    from servebench.measure import percentile

    workload = plan.workload.name
    served = serve(plan, workdir, daemons)
    counts, errors = check(plan, served)
    raw, normalized = end_to_end(served, counts)
    n = len(served.flat_latencies)
    beyond = n - -(-95 * n // 100)
    _print_table(
        f"{workload} (seed {seed}): {n} timed requests in "
        f"{len(plan.rounds)} rounds, {beyond} beyond p95; metric, value "
        "at the reference probe time, raw value", [
            (name, f"{normalized[name]:.4f}",
             f"{END_TO_END[name][0]:6} raw {raw[name]:.4f}")
            for name in END_TO_END])
    _print_table("host", [
        ("host.probe_ms", f"{median(served.probes):.4f}",
         f"median of {len(served.probes)} windows"),
        ("host.idle_cpu_ms", f"{served.idle_cpu_ms:.1f}",
         "daemon CPU during probe windows"),
    ])
    by_class: dict[str, list[float]] = {}
    for request, seconds in zip(plan.timed, served.flat_latencies):
        by_class.setdefault(request.template.klass, []).append(
            seconds * 1000.0)
    _print_table("raw latency by class (share, p50 ms, p95 ms)", [
        (klass, f"{len(values) / n:.3f}",
         f"{percentile(values, 50):10.3f} {percentile(values, 95):10.3f}")
        for klass, values in by_class.items()])
    print(f"answers: {json.dumps(counts)}")
    for error in errors:
        print(f"CHECK FAILED: {error}")
    result = {
        "correct": not errors,
        "attempted": counts["attempted"],
        "failed": counts["attempted"] - counts["error_free"],
        "metrics": {name: {"value": normalized[name],
                           "unit": END_TO_END[name][0]}
                    for name in END_TO_END},
    }
    return result, 0 if not errors else 1


def traced_run(plan, seed: int, workdir: Path) -> tuple[dict, int]:
    """Serve ``plan`` once, replay it in-process layer by layer, print
    the ledger; returns the result object and the exit status."""
    from servebench import ledger
    from servebench.ledger import PER_LAYER

    workload = plan.workload.name
    served = serve(plan, workdir, 1)
    counts, errors = check(plan, served)
    raw, _ = end_to_end(served, counts)
    steps = ledger.walk(plan, workdir / "walk-cache")
    submits = ledger.submit_replay(plan, workdir / "submit-cache")
    metrics = ledger.layer_metrics(steps, submits, served.flat_latencies)
    delta = served.delta
    cache = delta.get("cache") or {}
    sessions = delta["sessions"]
    metrics.update({
        "cache.mem_hit": cache.get("mem_hits", 0),
        "cache.disk_hit": cache.get("disk_hits", 0),
        "cache.miss": cache.get("misses", 0),
        "cache.store": cache.get("stores", 0),
        "cache.hit_share": cache.get("hits", 0) / counts["attempted"],
        "session.created": sessions.get("created", 0),
        "session.reused": sessions.get("reused", 0),
        "session.evicted": sessions.get("evicted", 0),
        "runner.failures": sum(len(record.get("engine_failures", ()))
                               for _, record in served.answers),
        "runner.timeouts": sum(len(record.get("timeouts", ()))
                               for _, record in served.answers),
        "host.probe_ms": median(served.probes),
        "host.idle_cpu_ms": served.idle_cpu_ms,
    })
    for name, value in raw.items():
        if END_TO_END[name][1] != "plain":
            metrics[f"raw.{name}"] = value
    if set(metrics) != set(PER_LAYER):
        raise RuntimeError("ledger and PER_LAYER disagree: "
                           f"{sorted(set(metrics) ^ set(PER_LAYER))}")
    _print_table(f"{workload} (seed {seed}) ledger over "
                 f"{counts['attempted']} requests", [
                     (name, f"{metrics[name]:.4f}", PER_LAYER[name][0])
                     for name in PER_LAYER])
    for error in errors:
        print(f"CHECK FAILED: {error}")
    result = {
        "correct": not errors,
        "attempted": counts["attempted"],
        "failed": counts["attempted"] - counts["error_free"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, (unit, _) in PER_LAYER.items()},
    }
    return result, 0 if not errors else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["cache_hit", "warm_miss", "cold_miss"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"servebench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # One string-hash order for this process and the daemons, so that
        # set iteration, and with it every counter, repeats run to run.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    from servebench.harness import pin_to_one_cpu
    from servebench.workloads import WORKLOADS, build

    # A SIGTERM from whoever runs the benchmark unwinds like an error, so
    # the ``finally`` blocks stop the daemons and the probe helper.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    pin_to_one_cpu()
    spec = WORKLOADS[args.workload]
    rounds = spec.trace_rounds if args.trace else \
        spec.rounds_for(args.seconds)
    plan = build(args.workload, args.seed, rounds)
    base = ROOT / ".servebench-work"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    try:
        run = traced_run if args.trace else timed_run
        result, status = run(plan, args.seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    print(json.dumps(result, sort_keys=True))
    return status


if __name__ == "__main__":
    sys.exit(main())
