"""Tests for repro.parallel: the batch runner, the verdict cache, engine
racing, timeouts, and worker-failure isolation.

The pool uses the ``fork`` start method, so engine doubles registered in
the *parent's* default registry (the ``Raiser``/``Sleeper`` classes below)
are inherited by worker processes without pickling; only problems and
results cross the pipe.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import signal
import time

import pytest

from repro.analysis import contains, default_registry, satisfiable
from repro.analysis.problems import (
    ContainmentResult,
    Problem,
    ProblemKind,
    SatResult,
    Verdict,
)
from repro.analysis.registry import Engine
from repro.parallel import (
    BatchError,
    BatchRunner,
    ExecutorService,
    VerdictCache,
    contains_many,
    problem_fingerprint,
    run_batch,
    satisfiable_many,
)
from repro.parallel.cache import (
    decode_result,
    encode_result,
    engine_set_fingerprint,
)
from repro.xpath import parse_node, parse_path

from .helpers import random_path

pytestmark = pytest.mark.filterwarnings(
    "ignore::DeprecationWarning")  # fork-in-threads notice on 3.12+


# --------------------------------------------------------- engine doubles


class Raiser(Engine):
    """Admits everything, always raises: the poison the pool must survive."""

    name = "test-raiser"
    conclusive = False
    cost_hint = 1  # cheapest: always tried first

    def admits(self, problem):
        return problem.kind in (ProblemKind.SATISFIABILITY,
                                ProblemKind.CONTAINMENT)

    def solve(self, problem, session=None):
        raise RuntimeError("injected engine failure")


class Sleeper(Engine):
    """Hangs far past any test timeout; only a terminate stops it."""

    name = "test-sleeper"
    conclusive = True  # a race contender
    cost_hint = 1

    def admits(self, problem):
        return problem.kind in (ProblemKind.SATISFIABILITY,
                                ProblemKind.CONTAINMENT)

    def solve(self, problem, session=None):
        time.sleep(60)
        raise AssertionError("sleeper was not terminated")


@pytest.fixture
def register_engine():
    """Register doubles in the default registry; always unregister after."""
    names: list[str] = []

    def _register(engine: Engine) -> Engine:
        default_registry().register(engine)
        names.append(engine.name)
        return engine

    yield _register
    for name in names:
        default_registry()._engines.pop(name, None)


def _pairs(seed: int, count: int):
    rng = random.Random(seed)
    operators = frozenset({"minus", "star"})
    return [(random_path(rng, 2, operators), random_path(rng, 2, operators))
            for _ in range(count)]


def _canon(results):
    return [encode_result(result) for result in results]


# ------------------------------------------------------------ verdict cache


class TestProblemFingerprint:
    def test_stable_across_reparses(self):
        first = Problem(ProblemKind.CONTAINMENT, alpha=parse_path("down[p]"),
                        beta=parse_path("down"))
        second = Problem(ProblemKind.CONTAINMENT, alpha=parse_path("down[p]"),
                         beta=parse_path("down"))
        assert problem_fingerprint(first) == problem_fingerprint(second)

    def test_sensitive_to_every_config_axis(self):
        base = Problem(ProblemKind.CONTAINMENT, alpha=parse_path("down[p]"),
                       beta=parse_path("down"), max_nodes=6)
        variants = [
            Problem(ProblemKind.CONTAINMENT, alpha=parse_path("down[q]"),
                    beta=parse_path("down"), max_nodes=6),
            Problem(ProblemKind.CONTAINMENT, alpha=parse_path("down"),
                    beta=parse_path("down[p]"), max_nodes=6),
            Problem(ProblemKind.CONTAINMENT, alpha=parse_path("down[p]"),
                    beta=parse_path("down"), max_nodes=7),
            Problem(ProblemKind.CONTAINMENT, alpha=parse_path("down[p]"),
                    beta=parse_path("down"), max_nodes=6, engine="bounded"),
            Problem(ProblemKind.EQUIVALENCE, alpha=parse_path("down[p]"),
                    beta=parse_path("down"), max_nodes=6),
        ]
        keys = {problem_fingerprint(variant) for variant in variants}
        assert problem_fingerprint(base) not in keys
        assert len(keys) == len(variants)

    def test_schema_changes_the_key(self):
        from repro.edtd import DTD
        plain = Problem(ProblemKind.SATISFIABILITY, phi=parse_node("p"))
        schema = Problem(ProblemKind.SATISFIABILITY, phi=parse_node("p"),
                         edtd=DTD({"p": "p*"}, root="p"))
        assert problem_fingerprint(plain) != problem_fingerprint(schema)

    def test_engine_set_does_not_change_the_key(self, register_engine):
        """Since cache schema v5 the key is stable across engine
        registration: conclusive verdicts are proofs and survive ladder
        changes.  Staleness of *inconclusive* entries is handled at ``get``
        time via the per-entry engine fingerprint, not via the key."""
        problem = Problem(ProblemKind.SATISFIABILITY, phi=parse_node("p"))
        before = problem_fingerprint(problem)
        register_engine(Sleeper())
        assert problem_fingerprint(problem) == before

    def test_current_engine_set_is_in_the_fingerprint(self):
        names = engine_set_fingerprint().split(",")
        assert "automata" in names
        assert "patterns" in names


class TestResultRoundTrip:
    def test_sat_result_with_witness(self):
        result = satisfiable(parse_node("p and <down[q]>"))
        assert result.witness is not None
        clone = decode_result(encode_result(result))
        assert encode_result(clone) == encode_result(result)
        assert clone.verdict is result.verdict
        assert clone.witness_node == result.witness_node

    def test_containment_with_counterexample(self):
        result = contains(parse_path("down"), parse_path("down[p]"),
                          max_nodes=3)
        assert result.counterexample is not None
        clone = decode_result(encode_result(result))
        assert encode_result(clone) == encode_result(result)
        assert clone.counterexample_pair == result.counterexample_pair

    def test_equivalence_per_direction(self):
        from repro.analysis import equivalent
        result = equivalent(parse_path("down except down[p]"),
                            parse_path("down[not p]"), max_nodes=4)
        assert result.per_direction is not None
        clone = decode_result(encode_result(result))
        assert isinstance(clone, ContainmentResult)
        assert clone.per_direction is not None
        assert encode_result(clone) == encode_result(result)


class TestVerdictCache:
    def _problem(self):
        return Problem(ProblemKind.CONTAINMENT, alpha=parse_path("down[p]"),
                       beta=parse_path("down"), max_nodes=4)

    def test_put_then_get_across_instances(self, tmp_path):
        problem = self._problem()
        result = contains(problem.alpha, problem.beta,
                          max_nodes=problem.max_nodes)
        writer = VerdictCache(tmp_path)
        assert writer.put(problem, result)
        reader = VerdictCache(tmp_path)  # cold in-memory layer: hits disk
        cached = reader.get(problem)
        assert cached is not None
        assert encode_result(cached) == encode_result(result)
        assert reader.info()["hits"] == 1
        assert writer.info()["stores"] == 1

    def test_miss_counts(self, tmp_path):
        cache = VerdictCache(tmp_path)
        assert cache.get(self._problem()) is None
        info = cache.info()
        assert info["directory"] == str(tmp_path)
        assert (info["hits"], info["misses"], info["stores"]) == (0, 1, 0)
        assert (info["mem_hits"], info["disk_hits"]) == (0, 0)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        problem = self._problem()
        result = contains(problem.alpha, problem.beta,
                          max_nodes=problem.max_nodes)
        VerdictCache(tmp_path).put(problem, result)
        key = problem_fingerprint(problem)
        (tmp_path / f"{key}.json").write_text("{not json", encoding="utf-8")
        fresh = VerdictCache(tmp_path)
        assert fresh.get(problem) is None
        assert fresh.info()["misses"] == 1

    def test_conclusive_entry_survives_engine_change(self, tmp_path,
                                                     register_engine):
        """A conclusive verdict is a proof: growing the engine ladder must
        not evict it (cache schema v5)."""
        problem = self._problem()
        result = contains(problem.alpha, problem.beta,
                          max_nodes=problem.max_nodes)
        assert result.conclusive
        cache = VerdictCache(tmp_path)
        assert cache.put(problem, result)
        register_engine(Sleeper())
        served = VerdictCache(tmp_path).get(problem)
        assert served is not None
        assert encode_result(served) == encode_result(result)

    def test_inconclusive_entry_not_served_after_engine_change(
            self, tmp_path, register_engine):
        """A ``no-witness-within-bound`` answer depends on which engines
        exist — a new engine (``patterns`` being the motivating case) might
        turn it into a proof, so it round-trips under its own ladder but is
        a miss once the registered engine set changes."""
        problem = Problem(ProblemKind.CONTAINMENT, alpha=parse_path("down[p]"),
                          beta=parse_path("down"), max_nodes=3,
                          engine="bounded")
        result = contains(problem.alpha, problem.beta, method="bounded",
                          max_nodes=3)
        assert result.verdict is Verdict.NO_WITNESS_WITHIN_BOUND
        cache = VerdictCache(tmp_path)
        assert cache.put(problem, result)
        round_tripped = VerdictCache(tmp_path).get(problem)
        assert round_tripped is not None
        assert encode_result(round_tripped) == encode_result(result)
        register_engine(Sleeper())
        assert VerdictCache(tmp_path).get(problem) is None

    def test_incompatible_entry_is_a_miss(self, tmp_path):
        problem = self._problem()
        key = problem_fingerprint(problem)
        tmp_path.joinpath(f"{key}.json").write_text(
            json.dumps({"type": "sat", "verdict": "not-a-verdict"}),
            encoding="utf-8")
        assert VerdictCache(tmp_path).get(problem) is None


# --------------------------------------------------- differential behaviour


class TestDifferential:
    """The tentpole contract: batch verdicts == sequential verdicts, under
    every pool configuration, including poisoned and hanging engines."""

    def test_pool_race_and_cache_match_sequential(self, tmp_path):
        pairs = _pairs(seed=7, count=12)
        sequential = [contains(alpha, beta, max_nodes=3)
                      for alpha, beta in pairs]
        want = _canon(sequential)

        cache_dir = tmp_path / "cache"
        cold = contains_many(pairs, max_nodes=3, workers=2, cache=cache_dir)
        assert _canon(cold) == want

        warm_cache = VerdictCache(cache_dir)
        warm = contains_many(pairs, max_nodes=3, workers=2, cache=warm_cache)
        assert _canon(warm) == want
        assert warm_cache.info()["hits"] == len(pairs)

        raced = contains_many(pairs, max_nodes=3, workers=2, race=True)
        assert _canon(raced) == want

    def test_raising_first_engine_changes_nothing(self, register_engine):
        register_engine(Raiser())
        pairs = _pairs(seed=11, count=6)
        # Sequential dispatch also survives the raiser (it falls through),
        # so both sides exercise the same ladder semantics.
        sequential = [contains(alpha, beta, max_nodes=3)
                      for alpha, beta in pairs]
        report = run_batch(
            [Problem(ProblemKind.CONTAINMENT, alpha=alpha, beta=beta,
                     max_nodes=3) for alpha, beta in pairs],
            workers=2)
        assert not report.failed
        assert _canon(report.results()) == _canon(sequential)
        for outcome in report.outcomes:
            assert any(failure.engine == "test-raiser"
                       and failure.error_type == "RuntimeError"
                       for failure in outcome.failures)
            assert outcome.engine != "test-raiser"

    def test_timing_out_first_engine_changes_nothing(self, register_engine):
        # Sequential baseline *without* the sleeper: a timed-out engine must
        # degrade to exactly the verdict the rest of the ladder produces.
        pairs = _pairs(seed=13, count=2)
        sequential = [contains(alpha, beta, max_nodes=3)
                      for alpha, beta in pairs]
        register_engine(Sleeper())
        report = run_batch(
            [Problem(ProblemKind.CONTAINMENT, alpha=alpha, beta=beta,
                     max_nodes=3) for alpha, beta in pairs],
            workers=2, timeout=1.0)
        assert not report.failed
        assert _canon(report.results()) == _canon(sequential)
        for outcome in report.outcomes:
            statuses = {attempt["engine"]: attempt["status"]
                        for attempt in outcome.attempts}
            assert statuses["test-sleeper"] == "timeout"
            assert outcome.engine not in (None, "test-sleeper")

    def test_satisfiable_many_matches_sequential(self):
        exprs = [parse_node("p"), parse_node("p and not p"),
                 parse_node("<down[p]> and <down[q]>")]
        sequential = [satisfiable(phi, max_nodes=3) for phi in exprs]
        batch = satisfiable_many(exprs, max_nodes=3, workers=2)
        assert _canon(batch) == _canon(sequential)
        assert all(isinstance(result, SatResult) for result in batch)


# ------------------------------------------------------------------ racing


class TestRacing:
    def test_first_conclusive_verdict_wins(self, register_engine):
        register_engine(Sleeper())
        report = run_batch(
            [Problem(ProblemKind.CONTAINMENT, alpha=parse_path("down[p]"),
                     beta=parse_path("down"))],
            workers=1, race=True, timeout=10.0)
        [outcome] = report.outcomes
        assert outcome.result is not None and outcome.result.conclusive
        assert outcome.race_winner in ("patterns", "expspace")
        statuses = {attempt["engine"]: attempt["status"]
                    for attempt in outcome.attempts}
        assert statuses["test-sleeper"] == "lost-race"

    def test_forced_engine_skips_the_race(self):
        report = run_batch(
            [Problem(ProblemKind.CONTAINMENT, alpha=parse_path("down[p]"),
                     beta=parse_path("down"), engine="bounded")],
            workers=1, race=True)
        [outcome] = report.outcomes
        assert outcome.race_winner is None
        assert outcome.engine == "bounded"


# ------------------------------------------------------- failure isolation


class TestFailureIsolation:
    def test_all_engines_failing_raises_batch_error(self, register_engine):
        register_engine(Raiser())
        with pytest.raises(BatchError) as info:
            satisfiable_many([parse_node("p")], method="test-raiser",
                             workers=1)
        [outcome] = info.value.outcomes
        assert outcome.result is None
        assert "RuntimeError" in outcome.error
        assert outcome.failures[0].traceback  # full child traceback shipped

    def test_runner_reports_failures_without_raising(self, register_engine):
        register_engine(Raiser())
        report = BatchRunner(workers=1).run(
            [Problem(ProblemKind.SATISFIABILITY, phi=parse_node("p"),
                     engine="test-raiser")])
        [outcome] = report.outcomes
        assert report.failed == [outcome]
        assert outcome.error is not None
        assert report.summary()["worker_failures"] == 1

    def test_poisoned_problem_does_not_leak(self, register_engine):
        """One forced-to-fail problem next to healthy ones: the healthy
        verdicts are unchanged and arrive in input order."""
        register_engine(Raiser())
        healthy = Problem(ProblemKind.CONTAINMENT,
                          alpha=parse_path("down[p]"), beta=parse_path("down"))
        poisoned = Problem(ProblemKind.SATISFIABILITY, phi=parse_node("p"),
                           engine="test-raiser")
        report = run_batch([healthy, poisoned, healthy], workers=2)
        first, bad, last = report.outcomes
        assert first.result is not None and first.result.conclusive
        assert last.result is not None
        assert encode_result(first.result) == encode_result(last.result)
        assert bad.result is None and bad.error is not None


# ----------------------------------------------------------- API mechanics


class TestBatchAPI:
    def test_unknown_method_rejected_before_spawning(self):
        with pytest.raises(ValueError, match="unknown method"):
            contains_many([(parse_path("down"), parse_path("down"))],
                          method="quantum")

    def test_empty_batch(self):
        report = BatchRunner(workers=2).run([])
        assert report.outcomes == []
        assert report.summary()["problems"] == 0

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers"):
            BatchRunner(workers=0)

    def test_results_in_input_order(self):
        pairs = [(parse_path("down[p]"), parse_path("down")),
                 (parse_path("down"), parse_path("down[p]")),
                 (parse_path("down[q]"), parse_path("down"))]
        results = contains_many(pairs, max_nodes=3, workers=3)
        assert [bool(result) for result in results] == [True, False, True]

    def test_batch_metrics_reach_the_recording(self, tmp_path):
        from repro import obs
        pairs = [(parse_path("down[p]"), parse_path("down"))]
        with obs.record("test-batch") as recording:
            contains_many(pairs, workers=1, cache=tmp_path / "cache")
            contains_many(pairs, workers=1, cache=tmp_path / "cache")
        counters = recording.counters
        assert counters["batch.problems"] == 2
        assert counters["batch.cache.miss"] == 1
        assert counters["batch.cache.hit"] == 1
        assert "batch.wall_s" in recording.gauges


# ------------------------------------------------------ resident worker pool


class SelfKiller(Engine):
    """SIGKILLs the worker process it runs in: a worker dying mid-request."""

    name = "test-self-killer"
    conclusive = True
    cost_hint = 1

    def admits(self, problem):
        return problem.kind is ProblemKind.SATISFIABILITY

    def solve(self, problem, session=None):
        os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(60)


class SatSleeper(Sleeper):
    """A hanging engine that only admits satisfiability problems."""

    name = "test-sat-sleeper"

    def admits(self, problem):
        return problem.kind is ProblemKind.SATISFIABILITY


def _sat_problem(source: str, **kwargs) -> Problem:
    return Problem(ProblemKind.SATISFIABILITY, phi=parse_node(source),
                   **kwargs)


class TestResidentWorkers:
    """Workers are forked once and reused; they are replaced only when
    they time out, die, lose a race or lack the problem's schema."""

    def test_same_schema_submissions_fork_one_worker_per_slot(self):
        sources = ("p and q", "p or q", "p and not q", "q and <down[p]>",
                   "<down[p and q]>")
        want = [satisfiable(parse_node(source), max_nodes=3).verdict
                for source in sources]
        with ExecutorService(workers=2, cache=None) as service:
            futures = [service.submit(_sat_problem(sources[i % 5],
                                                   max_nodes=3))
                       for i in range(50)]
            outcomes = [future.result(timeout=120) for future in futures]
            stats = service.stats()
        assert [outcome.result.verdict for outcome in outcomes] == \
            [want[i % 5] for i in range(50)]
        assert stats["forks"] <= 2
        assert set(stats["recycled"]) == {
            "timeout", "died", "lost_race", "stale", "surplus"}
        assert sum(stats["recycled"].values()) == 0
        assert stats["worker_compiles"] == 0
        assert stats["worker_cpu_ms"] > 0

    def test_killed_worker_resumes_ladder_in_a_fresh_worker(
            self, register_engine):
        problem = _sat_problem("p and not q", max_nodes=3)
        want = satisfiable(problem.phi, max_nodes=3)
        register_engine(SelfKiller())
        with ExecutorService(workers=1, cache=None) as service:
            outcome = service.submit(problem).result(timeout=120)
            stats = service.stats()
        assert outcome.result is not None
        assert encode_result(outcome.result) == encode_result(want)
        assert outcome.attempts[0] == {"engine": "test-self-killer",
                                       "status": "died"}
        assert outcome.engine != "test-self-killer"
        assert outcome.failures[0].error_type == "WorkerDied"
        assert stats["recycled"]["died"] == 1
        assert stats["forks"] == 2

    def test_timeout_recycles_exactly_that_worker(self, register_engine):
        register_engine(SatSleeper())
        with ExecutorService(workers=1, cache=None, timeout=0.5) as service:
            hung = service.submit(_sat_problem("p")).result(timeout=120)
            after_hang = service.stats()
            nxt = service.submit(Problem(
                ProblemKind.CONTAINMENT, alpha=parse_path("down[p]"),
                beta=parse_path("down"))).result(timeout=120)
            stats = service.stats()
        assert hung.attempts[0] == {"engine": "test-sat-sleeper",
                                    "status": "timeout"}
        assert hung.result is not None and hung.result.conclusive
        assert nxt.result is not None and nxt.result.contained
        assert after_hang["recycled"]["timeout"] == 1
        assert stats["recycled"] == {**stats["recycled"], "timeout": 1,
                                     "died": 0, "lost_race": 0}
        # The hung worker's replacement answered the next submission.
        assert stats["forks"] == after_hang["forks"] == 2

    def test_lost_race_workers_are_recycled(self, register_engine):
        """The losers are killed, the winner stays resident for the slot
        and races again: each later race forks one worker fewer than it
        has contenders."""
        register_engine(Sleeper())
        problem = Problem(ProblemKind.CONTAINMENT,
                          alpha=parse_path("down[p]"),
                          beta=parse_path("down"))
        with ExecutorService(workers=1, cache=None, race=True,
                             timeout=10.0) as service:
            outcome = service.submit(problem).result(timeout=120)
            first = service.stats()
            again = service.submit(problem).result(timeout=120)
            second = service.stats()
        canonical = problem.canonical()
        contenders = sum(1 for engine in
                         default_registry().candidates(canonical)
                         if engine.conclusive and engine.admits(canonical))
        assert contenders >= 2
        assert outcome.result is not None and outcome.result.conclusive
        assert again.result is not None and again.result.conclusive
        assert first["forks"] == contenders
        assert first["recycled"]["lost_race"] >= 1  # the sleeper, at least
        assert sum(first["recycled"].values()) == contenders - 1
        assert first["resident"] == 1
        assert second["forks"] == first["forks"] + contenders - 1
        assert second["resident"] == 1

    def test_close_reaps_every_worker(self):
        service = ExecutorService(workers=2, cache=None)
        futures = [service.submit(_sat_problem(source))
                   for source in ("p", "q", "p and q", "r")]
        assert all(future.result(timeout=120).result is not None
                   for future in futures)
        assert multiprocessing.active_children()
        service.close()
        assert multiprocessing.active_children() == []
        assert service.stats()["resident"] == 0

    def test_worker_and_in_process_ladders_agree(self):
        """The one ladder: a worker records the same ``engine_decision``
        (and a ``dispatch.solve_s`` observation) as in-process dispatch."""
        from repro import obs

        problems = [Problem(ProblemKind.CONTAINMENT, alpha=alpha, beta=beta,
                            max_nodes=3)
                    for alpha, beta in _pairs(seed=7, count=12)]
        problems += [_sat_problem(source, max_nodes=3) for source in
                     ("p", "p and not p", "<down[p]> and <down[q]>",
                      "<up[p]> and not <up>", "<down except down[p]>")]
        problems.append(Problem(ProblemKind.EQUIVALENCE,
                                alpha=parse_path("down[p]"),
                                beta=parse_path("down[p][p]")))
        in_process = []
        for problem in problems:
            with obs.record("in-process") as recording:
                default_registry().plan_and_run(problem)
            in_process.append(recording.meta["engine_decision"])
        report = run_batch(problems, workers=2, collect_stats=True)
        for problem, outcome, want in zip(problems, report.outcomes,
                                          in_process):
            meta = outcome.stats["meta"]
            assert meta["engine_decision"] == want, problem
            assert meta["engine"] == want["chosen"]
            assert "dispatch.solve_s" in outcome.stats["histograms"]
