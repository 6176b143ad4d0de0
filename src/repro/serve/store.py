"""Content-addressed result store: a memory tier over a disk tier.

The address of a payload is its :func:`repro.bench.parallel.task_key` —
a hash covering the experiment, the machine parameters, and the source
of the whole ``repro`` package — so a key can never name two different
results and entries never need invalidation: editing the simulator
changes every address.

Two tiers, fastest first:

``memory``
    A bounded in-process LRU of deserialised payloads.
``disk``
    One JSON file per key under a local directory. Writes are atomic
    (unique tmp file + ``os.replace``) and torn or corrupt entries read
    as misses, so a concurrent writer can never poison a sweep.

It is the one result cache: :func:`repro.bench.parallel.run_tasks`
takes a store too, and ``benchmarks/run_figures.py`` caches through a
memory + disk store.

``get`` reads memory, then disk, and promotes a disk hit into memory;
``put`` writes both tiers. All operations keep per-tier hit/miss
counters plus write/corruption counters, surfaced by
:meth:`ResultStore.stats` and the service's ``stats`` protocol message.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from collections import OrderedDict
from typing import Any, Dict, Optional

#: Process-wide counter so two threads writing the same key never share a
#: tmp file (the pid alone is not unique within a process).
_TMP_COUNTER = itertools.count()


def atomic_write_json(path: str, payload: Dict[str, Any]) -> None:
    """Publish ``payload`` at ``path`` atomically.

    The tmp file lives in the destination directory so ``os.replace`` is
    a same-filesystem rename; its name is unique per (pid, call) so
    concurrent writers — including threads of one process — never
    interleave into the same tmp file.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}.{next(_TMP_COUNTER)}"
    try:
        with open(tmp, "w") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def read_json_payload(path: str) -> Optional[Dict[str, Any]]:
    """Read a stored payload; any damage reads as a miss (``None``).

    Tolerates the file being absent, unreadable, torn mid-write by a
    non-atomic producer, or not the dict shape :mod:`repro.bench.parallel`
    writes (every legitimate payload carries a ``"type"`` field).
    """
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict) or "type" not in payload:
        return None
    return payload


class StoreStats:
    """Mutable counters for one :class:`ResultStore` (thread-safe)."""

    FIELDS = (
        "memory_hits", "disk_hits", "misses", "puts", "corrupt_entries",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        for field in self.FIELDS:
            setattr(self, field, 0)

    def bump(self, field: str, by: int = 1) -> None:
        with self._lock:
            setattr(self, field, getattr(self, field) + by)

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return {field: getattr(self, field) for field in self.FIELDS}

    @property
    def hits(self) -> int:
        with self._lock:
            return self.memory_hits + self.disk_hits


class ResultStore:
    """Two-tier content-addressed payload store.

    Parameters
    ----------
    root:
        Local on-disk tier directory, or ``None`` for memory-only.
    memory_entries:
        LRU capacity of the in-memory tier; ``0`` disables it.
    """

    def __init__(
        self,
        root: Optional[str] = None,
        memory_entries: int = 4096,
    ) -> None:
        self.root = root
        self.memory_entries = max(0, memory_entries)
        self._memory: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._lock = threading.Lock()
        self.stats = StoreStats()

    # -- tier plumbing --------------------------------------------------

    def _disk_path(self, key: str) -> str:
        assert self.root is not None
        return os.path.join(self.root, key + ".json")

    def _memory_get(self, key: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            payload = self._memory.get(key)
            if payload is not None:
                self._memory.move_to_end(key)
            return payload

    def _memory_put(self, key: str, payload: Dict[str, Any]) -> None:
        if not self.memory_entries:
            return
        with self._lock:
            self._memory[key] = payload
            self._memory.move_to_end(key)
            while len(self._memory) > self.memory_entries:
                self._memory.popitem(last=False)

    def _disk_read(self, key: str) -> Optional[Dict[str, Any]]:
        path = self._disk_path(key)
        payload = read_json_payload(path)
        if payload is None and os.path.exists(path):
            self.stats.bump("corrupt_entries")
        return payload

    # -- public API -----------------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Read memory, then disk; a disk hit is promoted into memory."""
        payload = self._memory_get(key)
        if payload is not None:
            self.stats.bump("memory_hits")
            return payload
        if self.root is not None:
            payload = self._disk_read(key)
            if payload is not None:
                self.stats.bump("disk_hits")
                self._memory_put(key, payload)
                return payload
        self.stats.bump("misses")
        return None

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Write to both tiers."""
        self.stats.bump("puts")
        self._memory_put(key, payload)
        if self.root is not None:
            atomic_write_json(self._disk_path(key), payload)

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def describe(self) -> Dict[str, Any]:
        """Configuration + counters, as the ``stats`` message reports."""
        with self._lock:
            memory_len = len(self._memory)
        return {
            "root": self.root,
            "memory_entries": self.memory_entries,
            "memory_used": memory_len,
            **self.stats.snapshot(),
        }
