"""``BENCHMARK.json`` must describe exactly what ``run.py`` prints."""

from __future__ import annotations

import json
import re
from pathlib import Path

from servebench.ledger import PER_LAYER
from servebench.measure import END_TO_END
from servebench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_keys_and_limits():
    bench = _benchmark()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["command"] == ["python3", "servebench/run.py"]
    assert bench["paths"] == ["servebench"]
    assert 1 <= bench["run_seconds"] <= 60
    names = [entry["name"] for key in ("workloads", "end_to_end",
                                       "per_layer") for entry in bench[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in bench["workloads"]:
        assert set(entry) == {"name", "why"} and len(entry["why"]) <= 200
    for entry in bench["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25 and UNIT.match(entry["unit"])
    for entry in bench["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
        assert UNIT.match(entry["unit"])
    setup = next(e for e in bench["end_to_end"] if e["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(e["bound"] for e in bench["end_to_end"])


def test_matches_the_code():
    bench = _benchmark()
    assert {w["name"]: w["why"] for w in bench["workloads"]} \
        == {name: w.why for name, w in WORKLOADS.items()}
    assert {e["name"]: e["unit"] for e in bench["end_to_end"]} \
        == {name: unit for name, (unit, _) in END_TO_END.items()}
    assert {e["name"]: (e["unit"], e["better"])
            for e in bench["per_layer"]} == PER_LAYER
