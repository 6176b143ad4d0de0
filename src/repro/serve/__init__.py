"""One-host sweep service: the benches' sweeps behind a socket.

``repro.bench.parallel`` gives deterministic, cache-keyed, bit-identical
parallel sweeps in one process tree. This package serves the same sweeps
to many concurrent clients under the same determinism contract (serial
== parallel == service, bit-identical payloads):

* :mod:`repro.serve.store` — a content-addressed result store. The
  existing ``task_key`` source-hash *is* the address; the tiers are an
  in-memory LRU over an on-disk directory, read-through and write-back,
  with hit/miss counters per tier.
* :mod:`repro.serve.protocol` — the newline-delimited JSON wire protocol
  (stdlib only) shared by the service and its clients, plus the
  task/params wire codecs.
* :mod:`repro.serve.service` — the asyncio sweep service: accepts sweep
  requests over TCP or a UNIX socket, coalesces concurrent requests for
  identical task keys onto one computation (single-flight), batches
  small tasks per dispatch to local executor lanes (processes or
  threads), streams per-point results as they land, and supports
  cancellation.
* :mod:`repro.serve.client` — a synchronous client whose
  :meth:`~repro.serve.client.SweepClient.run_tasks` is a drop-in for
  :func:`repro.bench.parallel.run_tasks`; submission-order merge keeps
  output ordering identical to serial.

Run the service with ``python -m repro.serve serve --listen ADDR``; see
the README's "sweep service" section.
"""

from __future__ import annotations

from .store import ResultStore, StoreStats, atomic_write_json, read_json_payload

__all__ = [
    "ResultStore",
    "StoreStats",
    "atomic_write_json",
    "read_json_payload",
]
