"""Wire protocol for the sweep service: newline-delimited JSON, stdlib only.

Every message is one JSON object on one line (``\\n``-terminated, UTF-8).
A client speaks::

    -> {"type": "sweep", "id": R, "params": {...}, "metrics": M,
        "tasks": [{"kind": K, "experiment": {...}}, ...]}
    <- {"type": "point", "id": R, "index": I, "key": H,
        "source": "store"|"computed"|"coalesced", "payload": {...}}
    <- {"type": "done", "id": R, "points": N}
    -> {"type": "cancel", "id": R}
    -> {"type": "stats"}      <- {"type": "stats", "service": {...}, ...}
    -> {"type": "ping"}       <- {"type": "pong", "code_version": V}
    -> {"type": "shutdown"}   <- {"type": "bye"}
    <- {"type": "error", "id": R?, "error": "..."}

Streamed ``point`` messages arrive in *landing* order; the client merges
them back into submission order by ``index``, which is what keeps
service-path output bit-identical to a serial ``run_tasks`` run.
"""

from __future__ import annotations

import asyncio
import json
import socket
from dataclasses import asdict
from typing import Any, Dict, Optional, Tuple

from ..bench.figures import UpdateExperiment
from ..bench.parallel import FootprintTask, Task
from ..errors import ConfigurationError
from ..params import (
    CacheGeometry,
    InstructionCosts,
    Latencies,
    MachineParams,
    Topology,
    TxLimits,
)
from ..workloads.hashtable import HashtableExperiment
from ..workloads.queue import QueueExperiment
from ..workloads.stamp import KmeansExperiment, VacationExperiment

#: Maximum accepted line length (a 100-CPU metrics payload is ~1 MB;
#: this bounds hostile/broken peers, not legitimate traffic).
MAX_LINE = 64 * 1024 * 1024

#: kind -> experiment dataclass, the task half of the wire codec.
EXPERIMENT_TYPES = {
    "update": UpdateExperiment,
    "hashtable": HashtableExperiment,
    "queue": QueueExperiment,
    "footprint": FootprintTask,
    "vacation": VacationExperiment,
    "kmeans": KmeansExperiment,
}


class ProtocolError(Exception):
    """A malformed or out-of-protocol message."""


# ----------------------------------------------------------------------
# value codecs
# ----------------------------------------------------------------------


def task_to_wire(task: Task) -> Dict[str, Any]:
    kind, experiment = task
    if kind not in EXPERIMENT_TYPES:
        raise ProtocolError(f"unknown task kind {kind!r}")
    return {"kind": kind, "experiment": asdict(experiment)}


def task_from_wire(wire: Dict[str, Any]) -> Task:
    kind = wire.get("kind")
    cls = EXPERIMENT_TYPES.get(kind)
    if cls is None:
        raise ProtocolError(f"unknown task kind {kind!r}")
    try:
        return kind, cls(**wire["experiment"])
    except (TypeError, KeyError, ConfigurationError) as exc:
        raise ProtocolError(f"bad {kind} experiment: {exc}") from exc


#: MachineParams field -> nested dataclass (scalars pass through).
_PARAMS_FIELDS = {
    "topology": Topology,
    "l1": CacheGeometry,
    "l2": CacheGeometry,
    "l3": CacheGeometry,
    "l4": CacheGeometry,
    "latencies": Latencies,
    "costs": InstructionCosts,
    "tx": TxLimits,
}


def params_to_wire(params: MachineParams) -> Dict[str, Any]:
    return asdict(params)


def params_from_wire(wire: Dict[str, Any]) -> MachineParams:
    try:
        kwargs = {
            name: (_PARAMS_FIELDS[name](**value)
                   if name in _PARAMS_FIELDS else value)
            for name, value in wire.items()
        }
        return MachineParams(**kwargs)
    except (TypeError, KeyError, ConfigurationError) as exc:
        raise ProtocolError(f"bad machine params: {exc}") from exc


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------


def encode(message: Dict[str, Any]) -> bytes:
    """One message as one compact JSON line.

    Keys are sorted so identical payloads encode to identical bytes —
    the byte-identity contract extends to the wire and to streamed JSONL
    artifacts.
    """
    return json.dumps(message, sort_keys=True,
                      separators=(",", ":")).encode() + b"\n"


def decode(line: bytes) -> Dict[str, Any]:
    try:
        message = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"undecodable message: {exc}") from exc
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError("message must be an object with a 'type'")
    return message


async def read_message(reader: asyncio.StreamReader) -> Optional[Dict[str, Any]]:
    """Next message from an asyncio stream, or ``None`` at EOF."""
    try:
        line = await reader.readline()
    except ConnectionError:
        return None
    except ValueError as exc:  # line longer than the stream limit
        raise ProtocolError(f"oversized message: {exc}") from exc
    if not line:
        return None
    if len(line) > MAX_LINE:
        raise ProtocolError("message exceeds MAX_LINE")
    return decode(line)


async def write_message(writer: asyncio.StreamWriter,
                        message: Dict[str, Any]) -> None:
    writer.write(encode(message))
    await writer.drain()


# ----------------------------------------------------------------------
# synchronous peer (client)
# ----------------------------------------------------------------------


class MessageStream:
    """Blocking line-delimited JSON over a connected socket."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self._reader = sock.makefile("rb")

    def send(self, message: Dict[str, Any]) -> None:
        self.sock.sendall(encode(message))

    def recv(self) -> Optional[Dict[str, Any]]:
        line = self._reader.readline(MAX_LINE + 1)
        if not line:
            return None
        if len(line) > MAX_LINE:
            raise ProtocolError("message exceeds MAX_LINE")
        return decode(line)

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self.sock.close()


# ----------------------------------------------------------------------
# addresses
# ----------------------------------------------------------------------


def parse_address(address: str) -> Tuple[str, Any]:
    """``"host:port"`` -> ``("tcp", (host, port))``;
    ``"unix:/path"`` -> ``("unix", path)``."""
    if address.startswith("unix:"):
        path = address[len("unix:"):]
        if not path:
            raise ProtocolError("empty unix socket path")
        return "unix", path
    host, sep, port = address.rpartition(":")
    if not sep or not port.isdigit():
        raise ProtocolError(
            f"address {address!r} is neither host:port nor unix:/path")
    return "tcp", (host or "127.0.0.1", int(port))


def connect(address: str, timeout: Optional[float] = None) -> MessageStream:
    """Open a blocking :class:`MessageStream` to a service address."""
    family, target = parse_address(address)
    if family == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        sock.connect(target)
    else:
        sock = socket.create_connection(target, timeout=timeout)
    sock.settimeout(timeout)
    return MessageStream(sock)
