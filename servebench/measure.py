"""Pure arithmetic and checks: percentiles, host-speed normalization, the
answer judge, and the ``/stats`` accounting and premise checks."""

from __future__ import annotations

import math

__all__ = ["END_TO_END", "REFERENCE_PROBE_MS", "accounting_errors",
           "error_free", "factor", "judge", "percentile", "premise_errors",
           "stats_delta"]

#: The probe time (``harness.Probe``) every timing metric is restated at,
#: its median on the reference host (a 2-vCPU x86-64 VM, CPython 3.11): a
#: stretch of work bracketed by probes of ``p`` ms reports a time ``t`` as
#: ``t * REFERENCE_PROBE_MS / p`` and a rate ``r`` as
#: ``r * p / REFERENCE_PROBE_MS`` (see :func:`factor`).
REFERENCE_PROBE_MS = 5.0


#: The end-to-end metrics: name -> (unit, kind).  A "time" is restated
#: at the reference probe time by multiplying, a "rate" by dividing; a
#: "plain" figure is reported as measured.
END_TO_END = {
    "throughput_rps": ("1/s", "rate"),
    "latency_p50_ms": ("ms", "time"),
    "latency_p95_ms": ("ms", "time"),
    "cpu_ms_per_req": ("ms", "time"),
    "setup_s": ("s", "time"),
    "peak_rss_mb": ("MiB", "plain"),
    "decided_share": ("share", "plain"),
    "error_free_share": ("share", "plain"),
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``0 < q <= 100``."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def factor(before_ms: float, after_ms: float,
           reference: float = REFERENCE_PROBE_MS) -> float:
    """The restating factor of a stretch of work bracketed by two probe
    windows: a time is multiplied by it, a rate divided."""
    if before_ms <= 0 or after_ms <= 0:
        raise ValueError("probe times must be positive")
    return 2.0 * reference / (before_ms + after_ms)


def judge(expected: bool, kind: str, status: int, record: dict) -> str:
    """``right``, ``wrong``, ``undecided`` (inconclusive) or ``error``."""
    if status != 200 or "error" in record:
        return "error"
    if not record.get("conclusive"):
        return "undecided"
    answer = record["verdict"] == "satisfiable" if kind == "satisfiable" \
        else bool(record["contained"])
    return "right" if answer == expected else "wrong"


def error_free(status: int, record: dict) -> bool:
    return (status == 200 and "error" not in record
            and "engine_failures" not in record and "timeouts" not in record)


def stats_delta(before: list[dict], after: list[dict]) -> dict:
    """Counter differences between two ``/stats`` documents of each
    daemon, summed over the daemons, by block."""
    delta: dict[str, dict] = {}
    for old_doc, new_doc in zip(before, after):
        for block in ("server", "sessions", "cache", "executor"):
            old, new = old_doc.get(block) or {}, new_doc.get(block) or {}
            sums = delta.setdefault(block, {})
            for key, value in new.items():
                if isinstance(value, (int, float)) \
                        and not isinstance(value, bool):
                    sums[key] = sums.get(key, 0) + value - old.get(key, 0)
    return delta


def accounting_errors(delta: dict, attempted: int) -> list[str]:
    """The server's books must balance over the timed phase."""
    server = delta["server"]
    errors = []
    outcomes = sum(server.get(key, 0) for key in
                   ("solved", "unsolved", "bad_requests", "errors", "shed"))
    if server.get("requests", 0) != outcomes:
        errors.append(f"requests {server.get('requests', 0)} != solved + "
                      f"unsolved + bad_requests + errors + shed {outcomes}")
    if server.get("requests", 0) != attempted:
        errors.append(f"server counted {server.get('requests', 0)} requests, "
                      f"the client sent {attempted}")
    return errors


def premise_errors(workload: str, delta: dict, attempted: int) -> list[str]:
    """Each workload measures one path; say so when it measured another."""
    errors = []
    sessions, cache = delta["sessions"], delta.get("cache") or {}
    if workload in ("cache_hit", "warm_miss") and sessions.get("created"):
        errors.append(f"{sessions['created']} sessions created in the "
                      "timed phase")
    if workload == "cache_hit" and cache.get("mem_hits") != attempted:
        errors.append(f"{cache.get('mem_hits')} memory hits for "
                      f"{attempted} requests")
    if workload == "cold_miss" and cache.get("misses") != attempted:
        errors.append(f"{cache.get('misses')} cache misses for "
                      f"{attempted} requests")
    return errors
