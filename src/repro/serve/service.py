"""The asyncio sweep service: admission, single-flight dedupe, dispatch.

One :class:`SweepService` owns a content-addressed
:class:`~repro.serve.store.ResultStore` and a table of *inflight*
computations keyed by :func:`repro.bench.parallel.task_key`. Every sweep
request is admitted point by point:

1. a store hit streams back immediately;
2. a key already inflight **coalesces** — the request joins the waiter
   list of the existing computation and no new work is created
   (single-flight: each unique key is computed exactly once no matter
   how many clients ask for it concurrently);
3. otherwise a new inflight entry joins the pending queue.

Pending entries are dispatched in batches (``batch_size``) to whichever
local executor lane frees up first (processes by default, threads for
in-process tests). A lane runs each job with the same
:func:`repro.bench.parallel._run_task` that :func:`run_tasks` uses.
Results are written back to the store and streamed to every waiter as
``point`` messages; clients reassemble submission order from the
``index`` field, which keeps the service path bit-identical to a serial
``run_tasks`` run. With ``local_workers=0`` the service has no lanes: it
admits, dedupes and queues requests but computes nothing, which is how
the tests pin admission and cancellation without a race.

Cancellation (``cancel`` message or client disconnect) detaches a
request's waiters; pending entries nobody waits for are dropped at the
next dispatch, while already-running ones complete into the store.
"""

from __future__ import annotations

import asyncio
import threading
from collections import deque
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

from ..bench.parallel import (
    _run_task,
    code_version,
    set_code_version,
    task_key,
)
from . import protocol
from .protocol import ProtocolError, read_message
from .store import ResultStore

#: ``(kind, experiment, params, metrics)``, what ``_run_task`` consumes.
Job = Tuple[str, Any, Any, Any]


def _run_jobs(jobs: List[Job]) -> List[Dict[str, Any]]:
    """One lane dispatch: run a batch of jobs in order.

    Module-level so it pickles to a process lane.
    """
    return [_run_task(job) for job in jobs]


class _Inflight:
    """One unique computation: a task key, its job, and its waiters."""

    __slots__ = ("key", "job", "waiters")

    def __init__(self, key: str, job: Job) -> None:
        self.key = key
        self.job = job
        #: ``(request, index, source)`` triples to stream the result to.
        self.waiters: List[Tuple["_Request", int, str]] = []


class _Request:
    """One client sweep request: delivery bookkeeping."""

    def __init__(self, conn: "_ClientConn", rid: Any, total: int) -> None:
        self.conn = conn
        self.rid = rid
        self.total = total
        self.remaining = total
        self.cancelled = False


class _ClientConn:
    """A client connection: serialised writes + live request table."""

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.lock = asyncio.Lock()
        self.requests: Dict[Any, _Request] = {}

    async def send(self, message: Dict[str, Any]) -> None:
        # The lock is FIFO-fair, so tasks created in order write in order.
        async with self.lock:
            try:
                await protocol.write_message(self.writer, message)
            except (ConnectionError, RuntimeError):
                pass  # client went away; its requests get cancelled on EOF


#: Service counters exposed by the ``stats`` message.
_COUNTERS = (
    "requests", "points_requested", "store_served", "coalesced",
    "computed", "failed", "dropped", "cancelled",
)


class SweepService:
    """See module docstring. Construct, then ``await serve(listen)``."""

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        local_workers: int = 1,
        batch_size: int = 4,
        use_threads: bool = False,
    ) -> None:
        self.store = store if store is not None else ResultStore()
        self.local_workers = max(0, local_workers)
        self.batch_size = max(1, batch_size)
        self.use_threads = use_threads
        self.code_version = code_version()
        self.counters: Dict[str, int] = {name: 0 for name in _COUNTERS}
        self._pending: "deque[_Inflight]" = deque()
        self._inflight: Dict[str, _Inflight] = {}
        self._have_pending: Optional[asyncio.Event] = None
        self._executor: Optional[Executor] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._slots: List[asyncio.Task] = []
        self._closed: Optional[asyncio.Event] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def serve(self, listen: str) -> str:
        """Bind and start serving; returns the bound address."""
        self._have_pending = asyncio.Event()
        self._closed = asyncio.Event()
        if self.local_workers:
            if self.use_threads:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.local_workers)
            else:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.local_workers,
                    initializer=set_code_version,
                    initargs=(self.code_version,),
                )
            self._slots = [
                asyncio.ensure_future(self._local_slot())
                for _ in range(self.local_workers)
            ]
        family, target = protocol.parse_address(listen)
        if family == "unix":
            self._server = await asyncio.start_unix_server(
                self._handle_conn, path=target, limit=protocol.MAX_LINE)
            self.address = listen
        else:
            host, port = target
            self._server = await asyncio.start_server(
                self._handle_conn, host=host, port=port,
                limit=protocol.MAX_LINE)
            bound = self._server.sockets[0].getsockname()
            self.address = f"{bound[0]}:{bound[1]}"
        return self.address

    async def wait_closed(self) -> None:
        assert self._closed is not None
        await self._closed.wait()

    def request_shutdown(self) -> None:
        if self._closed is not None and not self._closed.is_set():
            self._closed.set()

    async def close(self) -> None:
        self.request_shutdown()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for slot in self._slots:
            slot.cancel()
        if self._slots:
            await asyncio.gather(*self._slots, return_exceptions=True)
        if self._executor is not None:
            # Wait (at most one in-flight batch per lane): a process pool
            # still shutting down races the interpreter's exit hook, which
            # then writes to the pool's closed wake-up pipe (EBADF).
            self._executor.shutdown(wait=True, cancel_futures=True)

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------

    def _admit(self, request: _Request, index: int, kind: str,
               experiment: Any, params: Any, metrics: Any) -> None:
        key = task_key(kind, experiment, params, metrics=metrics)
        payload = self.store.get(key)
        if payload is not None:
            self.counters["store_served"] += 1
            self._deliver(request, index, key, payload, "store")
            return
        inflight = self._inflight.get(key)
        if inflight is not None:
            self.counters["coalesced"] += 1
            inflight.waiters.append((request, index, "coalesced"))
            return
        inflight = _Inflight(key, (kind, experiment, params, metrics))
        inflight.waiters.append((request, index, "computed"))
        self._inflight[key] = inflight
        self._pending.append(inflight)
        self._have_pending.set()

    def _deliver(self, request: _Request, index: int, key: str,
                 payload: Dict[str, Any], source: str) -> None:
        if request.cancelled:
            return
        request.remaining -= 1
        last = request.remaining == 0
        asyncio.ensure_future(
            self._send_point(request, index, key, payload, source, last))

    async def _send_point(self, request: _Request, index: int, key: str,
                          payload: Dict[str, Any], source: str,
                          last: bool) -> None:
        await request.conn.send({
            "type": "point",
            "id": request.rid,
            "index": index,
            "key": key,
            "source": source,
            "payload": payload,
        })
        if last:
            await request.conn.send({
                "type": "done", "id": request.rid, "points": request.total,
            })
            request.conn.requests.pop(request.rid, None)

    def _resolve(self, inflight: _Inflight, payload: Dict[str, Any]) -> None:
        self._inflight.pop(inflight.key, None)
        self.counters["computed"] += 1
        self.store.put(inflight.key, payload)
        for request, index, source in inflight.waiters:
            self._deliver(request, index, inflight.key, payload, source)
        inflight.waiters = []

    def _fail(self, inflight: _Inflight, error: str) -> None:
        self._inflight.pop(inflight.key, None)
        self.counters["failed"] += 1
        for request, index, _source in inflight.waiters:
            if request.cancelled:
                continue
            request.cancelled = True
            asyncio.ensure_future(request.conn.send({
                "type": "error", "id": request.rid,
                "error": f"point {index} ({inflight.key}): {error}",
            }))
        inflight.waiters = []

    def _detach_request(self, request: _Request) -> None:
        """Cancel: drop the request's waiters everywhere."""
        request.cancelled = True
        self.counters["cancelled"] += 1
        for inflight in self._inflight.values():
            if inflight.waiters:
                inflight.waiters = [
                    waiter for waiter in inflight.waiters
                    if waiter[0] is not request
                ]

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    async def _take_batch(self) -> List[_Inflight]:
        """Next batch of still-wanted pending computations (blocks)."""
        while True:
            await self._have_pending.wait()
            batch: List[_Inflight] = []
            while self._pending and len(batch) < self.batch_size:
                inflight = self._pending.popleft()
                if not inflight.waiters:
                    # Everyone cancelled before it started: drop it.
                    self._inflight.pop(inflight.key, None)
                    self.counters["dropped"] += 1
                    continue
                batch.append(inflight)
            if not self._pending:
                self._have_pending.clear()
            if batch:
                return batch

    async def _local_slot(self) -> None:
        loop = asyncio.get_event_loop()
        while True:
            batch = await self._take_batch()
            jobs = [inflight.job for inflight in batch]
            try:
                payloads = await loop.run_in_executor(
                    self._executor, _run_jobs, jobs)
            except Exception as exc:  # noqa: BLE001 — reported to waiters
                for inflight in batch:
                    self._fail(inflight, repr(exc))
                continue
            for inflight, payload in zip(batch, payloads):
                self._resolve(inflight, payload)

    # ------------------------------------------------------------------
    # connections
    # ------------------------------------------------------------------

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        try:
            message = await read_message(reader)
            if message is None:
                return
            await self._client_loop(reader, writer, message)
        except asyncio.CancelledError:
            # Service shutdown tears connections down; ending the handler
            # normally keeps the streams transport callback quiet.
            return
        except ProtocolError as exc:
            try:
                await protocol.write_message(
                    writer, {"type": "error", "error": str(exc)})
            except (ConnectionError, RuntimeError):
                pass
        finally:
            try:
                writer.close()
            except RuntimeError:
                pass

    async def _client_loop(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter,
                           message: Dict[str, Any]) -> None:
        conn = _ClientConn(writer)
        try:
            while message is not None:
                kind = message.get("type")
                if kind == "sweep":
                    self._handle_sweep(conn, message)
                elif kind == "cancel":
                    request = conn.requests.pop(message.get("id"), None)
                    if request is not None:
                        self._detach_request(request)
                    await conn.send({"type": "cancelled",
                                     "id": message.get("id")})
                elif kind == "stats":
                    await conn.send(self._stats_message())
                elif kind == "ping":
                    await conn.send({"type": "pong",
                                     "code_version": self.code_version})
                elif kind == "shutdown":
                    await conn.send({"type": "bye"})
                    self.request_shutdown()
                    return
                else:
                    raise ProtocolError(f"unknown message type {kind!r}")
                message = await read_message(reader)
        finally:
            # Client gone: everything it still waits for is cancelled.
            for request in list(conn.requests.values()):
                self._detach_request(request)
            conn.requests.clear()

    def _handle_sweep(self, conn: _ClientConn,
                      message: Dict[str, Any]) -> None:
        rid = message.get("id")
        params = protocol.params_from_wire(message.get("params") or {})
        metrics = message.get("metrics", False)
        tasks = [protocol.task_from_wire(wire)
                 for wire in message.get("tasks") or []]
        request = _Request(conn, rid, len(tasks))
        conn.requests[rid] = request
        self.counters["requests"] += 1
        self.counters["points_requested"] += len(tasks)
        if not tasks:
            request.conn.requests.pop(rid, None)
            asyncio.ensure_future(
                conn.send({"type": "done", "id": rid, "points": 0}))
            return
        for index, (kind, experiment) in enumerate(tasks):
            self._admit(request, index, kind, experiment, params, metrics)

    def _stats_message(self) -> Dict[str, Any]:
        return {
            "type": "stats",
            "service": {
                **self.counters,
                "code_version": self.code_version,
                "inflight": len(self._inflight),
                "pending": len(self._pending),
                "local_workers": self.local_workers,
                "batch_size": self.batch_size,
            },
            "store": self.store.describe(),
        }


# ----------------------------------------------------------------------
# hosting helpers
# ----------------------------------------------------------------------


async def _serve_until_shutdown(service: SweepService, listen: str,
                                ready=None) -> None:
    address = await service.serve(listen)
    if ready is not None:
        ready(address)
    try:
        await service.wait_closed()
    finally:
        await service.close()
        # Connection-handler tasks may still be parked on reads; cancel
        # them so the hosting loop can close without pending-task noise.
        current = asyncio.current_task()
        leftovers = [task for task in asyncio.all_tasks()
                     if task is not current]
        for task in leftovers:
            task.cancel()
        if leftovers:
            await asyncio.gather(*leftovers, return_exceptions=True)


def run_service(listen: str, **kwargs: Any) -> None:
    """Blocking entry point used by ``python -m repro.serve serve``."""
    service = SweepService(**kwargs)

    def announce(address: str) -> None:
        print(f"repro.serve listening on {address} "
              f"(code {service.code_version}, "
              f"{service.local_workers} local workers, "
              f"batch {service.batch_size})", flush=True)

    asyncio.run(_serve_until_shutdown(service, listen, ready=announce))


class ServiceThread:
    """Host a :class:`SweepService` on a background thread (tests/bench).

    ``use_threads=True`` by default so in-process hosting never forks:
    the simulation tasks are pure functions, so thread workers preserve
    the determinism contract while keeping startup cheap.
    """

    def __init__(self, listen: str = "127.0.0.1:0",
                 use_threads: bool = True, **kwargs: Any) -> None:
        self.service = SweepService(use_threads=use_threads, **kwargs)
        self._listen = listen
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self.address: Optional[str] = None

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *_exc: Any) -> None:
        self.stop()

    def start(self) -> "ServiceThread":
        def main() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop

            def ready(address: str) -> None:
                self.address = address
                self._ready.set()

            try:
                loop.run_until_complete(
                    _serve_until_shutdown(self.service, self._listen,
                                          ready=ready))
            finally:
                loop.close()
                self._ready.set()  # unblock start() on bind failure

        self._thread = threading.Thread(target=main, daemon=True,
                                        name="repro-serve")
        self._thread.start()
        self._ready.wait(timeout=30)
        if self.address is None:
            raise RuntimeError(f"service failed to bind {self._listen!r}")
        return self

    def stop(self) -> None:
        if self._loop is not None and self._thread is not None:
            if self._thread.is_alive():
                self._loop.call_soon_threadsafe(
                    self.service.request_shutdown)
            self._thread.join(timeout=30)
