"""A seconds-long run of each workload, timed and traced, against real
daemons started from this checkout."""

from __future__ import annotations

import pytest

from servebench import run
from servebench.workloads import build


@pytest.mark.parametrize("workload", ["cache_hit", "warm_miss", "cold_miss"])
def test_timed_run_passes_every_check(workload, tmp_path, capsys):
    plan = build(workload, 1, 1)
    result, status = run.timed_run(plan, 1, tmp_path, daemons=2)
    assert status == 0, capsys.readouterr().out
    assert result["correct"] and result["attempted"] == len(plan.timed)
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_traced_run_counts_repeat(tmp_path, capsys):
    """The ledger's counts are exact: two traced runs of one seed agree."""
    from servebench.ledger import PER_LAYER

    plan = build("cold_miss", 2, 1)
    runs = []
    for index in range(2):
        result, status = run.traced_run(plan, 2, tmp_path / str(index))
        assert status == 0, capsys.readouterr().out
        runs.append({name: metric["value"]
                     for name, metric in result["metrics"].items()
                     if PER_LAYER[name][0] == "count"})
    assert runs[0] == runs[1]
    metrics = runs[0]
    assert metrics["cache.miss"] == len(plan.timed)
    assert metrics["session.created"] == len(plan.timed)
    assert metrics["trees.checked"] > 0 and metrics["patterns.embeddings"] > 0


def test_traced_cache_hit_meets_only_the_cache(tmp_path, capsys):
    plan = build("cache_hit", 2, 1)
    result, status = run.traced_run(plan, 2, tmp_path)
    assert status == 0, capsys.readouterr().out
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["cache.mem_hit"] == len(plan.timed)
    assert metrics["session.created"] == 0
    assert metrics["registry.dispatch_ms"] == 0
    assert 0 < metrics["ledger.served_p50_ms"]
