"""Containment-as-a-service: a resident daemon over the parallel backend.

``repro serve`` keeps one :class:`~repro.parallel.runner.ExecutorService`
(warm schema sessions, resident worker processes) behind one two-tier
:class:`~repro.parallel.cache.VerdictCache` and answers decision problems
over HTTP and a JSONL socket — so a request stream amortizes schema
compilation and verdict caching across *requests*, not just within one
batch.  Everything is stdlib-only asyncio.

* :mod:`repro.server.protocol` — the request/answer record format shared
  with ``repro batch`` (one implementation, byte-compatible records).
* :mod:`repro.server.daemon` — :class:`ServerConfig`,
  :class:`ReproServer`, :func:`start_in_thread`.
* :mod:`repro.server.client` — :class:`ServerClient` (the JSONL client
  behind ``repro batch --server``) and a small keep-alive HTTP client.
"""

from .client import HttpClient, ServerClient, http_json
from .daemon import ReproServer, ServerConfig, ServerHandle, start_in_thread
from .protocol import outcome_record, parse_problem_record

__all__ = [
    "HttpClient",
    "ReproServer",
    "ServerClient",
    "ServerConfig",
    "ServerHandle",
    "http_json",
    "outcome_record",
    "parse_problem_record",
    "start_in_thread",
]
