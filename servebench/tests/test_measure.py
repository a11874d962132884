"""The benchmark's own checks must catch what they are there to catch,
and its arithmetic must give known answers on fixed inputs."""

from __future__ import annotations

import pytest

from servebench import run
from servebench.measure import (REFERENCE_PROBE_MS, accounting_errors,
                                factor, judge, percentile, premise_errors,
                                stats_delta)
from servebench.workloads import build

CONTAINED = {"kind": "contains", "verdict": "unsatisfiable",
             "conclusive": True, "contained": True}
NOT_CONTAINED = {"kind": "contains", "verdict": "satisfiable",
                 "conclusive": True, "contained": False}


def test_judge_flags_a_wrong_conclusive_answer():
    assert judge(True, "contains", 200, CONTAINED) == "right"
    assert judge(True, "contains", 200, NOT_CONTAINED) == "wrong"
    assert judge(False, "satisfiable", 200,
                 {"verdict": "satisfiable", "conclusive": True}) == "wrong"
    assert judge(True, "contains", 200,
                 {**NOT_CONTAINED, "conclusive": False}) == "undecided"
    assert judge(True, "contains", 500, {"error": "boom"}) == "error"


def _balanced(requests: int) -> dict:
    return {"server": {"requests": requests, "solved": requests,
                       "unsolved": 0, "bad_requests": 0, "errors": 0,
                       "shed": 0},
            "sessions": {"created": 0}, "cache": {"mem_hits": requests,
                                                  "misses": 0}}


def test_accounting_flags_an_unbalanced_delta():
    assert accounting_errors(_balanced(10), 10) == []
    unbalanced = _balanced(10)
    unbalanced["server"]["solved"] = 9
    assert accounting_errors(unbalanced, 10)
    assert accounting_errors(_balanced(10), 11)


def test_premises_name_the_path_that_was_measured_instead():
    assert premise_errors("cache_hit", _balanced(5), 5) == []
    missed = _balanced(5)
    missed["cache"]["mem_hits"] = 4
    assert premise_errors("cache_hit", missed, 5)
    compiled = _balanced(5)
    compiled["sessions"]["created"] = 1
    assert premise_errors("warm_miss", compiled, 5)
    assert premise_errors("cold_miss", _balanced(5), 5)


def test_stats_delta_subtracts_counters_by_block():
    before = {"server": {"requests": 3}, "sessions": {"created": 2},
              "cache": None, "executor": {"race": False}}
    after = {"server": {"requests": 8}, "sessions": {"created": 2},
             "cache": None, "executor": {"race": False}}
    delta = stats_delta([before, before], [after, after])
    assert delta["server"] == {"requests": 10}
    assert delta["sessions"] == {"created": 0}
    assert delta["cache"] == {} and delta["executor"] == {}


def test_percentile_is_nearest_rank():
    values = list(range(1, 201))
    assert percentile(values, 50) == 100
    assert percentile(values, 95) == 190
    assert percentile([7.0], 95) == 7.0


def test_normalization_on_fixed_inputs():
    assert factor(REFERENCE_PROBE_MS, REFERENCE_PROBE_MS) == 1.0
    assert factor(2.0, 6.0, reference=8.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        factor(0.0, 1.0)
    R = REFERENCE_PROBE_MS
    served = run.Served(
        setup_s=[1.0, 3.0, 2.0],
        setup_probes=[(R, R), (2 * R, 2 * R), (R / 2, R / 2)],
        probes=[R / 2, R / 2, 2 * R],
        latencies=[[0.001, 0.002], [0.004, 0.004]],
        slice_s=[0.5, 1.0], slice_cpu_ms=[10.0, 40.0], hwm_mb=30.0)
    counts = {"attempted": 4, "decided": 3, "error_free": 4}
    raw, normalized = run.end_to_end(served, counts)
    # Slice factors: R / (R / 2) = 2 and R / (5 R / 4) = 0.8.
    assert raw["throughput_rps"] == pytest.approx(4 / 1.5)
    assert normalized["throughput_rps"] == pytest.approx(4 / (1.0 + 0.8))
    assert raw["latency_p50_ms"] == pytest.approx(2.0)
    assert normalized["latency_p50_ms"] == pytest.approx(3.2)
    assert normalized["latency_p95_ms"] == pytest.approx(4.0)
    assert normalized["cpu_ms_per_req"] == pytest.approx((20 + 32) / 4)
    # Set-up factors 1, 0.5, 2: restated set-ups 1.0, 1.5, 4.0.
    assert raw["setup_s"] == 2.0
    assert normalized["setup_s"] == pytest.approx(1.5)
    assert normalized["decided_share"] == 0.75
    assert normalized["peak_rss_mb"] == 30.0


def _answer(template, right: bool = True) -> dict:
    value = template.expected if right else not template.expected
    if template.kind == "satisfiable":
        return {"verdict": "satisfiable" if value else "unsatisfiable",
                "conclusive": True}
    return {"verdict": "unsatisfiable" if value else "satisfiable",
            "conclusive": True, "contained": value}


def test_check_fails_a_run_with_a_planted_wrong_verdict():
    plan = build("cache_hit", 1, 1)
    attempted = len(plan.timed)
    served = run.Served(
        warm_answers=[[(200, _answer(r.template)) for r in plan.warmup]],
        answers=[(200, _answer(r.template)) for r in plan.timed],
        delta=_balanced(attempted))
    counts, errors = run.check(plan, served)
    assert errors == [] and counts["wrong"] == 0
    served.answers[3] = (200, _answer(plan.timed[3].template, right=False))
    counts, errors = run.check(plan, served)
    assert counts["wrong"] == 1
    assert any("wrong answer" in error for error in errors)
