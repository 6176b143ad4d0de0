"""Generic set-associative cache directory with true-LRU replacement.

Used (with different geometries) for the private L1 and L2 data caches;
the shared L3/L4 are plain tag stores (:mod:`repro.mem.shared`). Tracks
presence and ownership state only — data values live in
:class:`repro.mem.memory.MainMemory` plus the store machinery, because the
L1/L2 are store-through and the architected image is always recoverable
(see DESIGN.md, "Value storage").
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, List, Optional

from ..errors import ProtocolError
from ..params import CacheGeometry
from .line import DirectoryEntry, Ownership

#: LRU victim key, evaluated in C by ``min``.
_lru_key = operator.attrgetter("lru")
#: Hoisted enum member: a module global is cheaper to load than the
#: class attribute lookup on the install path.
_INVALID = Ownership.INVALID


class SetAssociativeDirectory:
    """Tag directory: ``rows`` congruence classes x ``ways`` entries."""

    __slots__ = ("geometry", "name", "ways", "_rows", "_entries", "_clock",
                 "_row_shift", "_row_mask")

    def __init__(self, geometry: CacheGeometry, name: str = "cache") -> None:
        self.geometry = geometry
        self.name = name
        self.ways = geometry.ways
        # Rows materialise lazily: large shared caches (L3/L4) have tens
        # of thousands of congruence classes, almost all of which stay
        # empty in any given run.
        self._rows: Dict[int, Dict[int, DirectoryEntry]] = {}
        #: Flat line -> entry index mirroring ``_rows`` so the dominant
        #: operation (lookup) is a single dict probe.
        self._entries: Dict[int, DirectoryEntry] = {}
        self._clock = 0
        # line_size and rows are powers of two, so the congruence class is
        # a shift-and-mask of the line address.
        self._row_shift = geometry.line_size.bit_length() - 1
        self._row_mask = geometry.rows - 1

    # -- basic queries ----------------------------------------------------

    def row_of(self, line: int) -> int:
        return (line >> self._row_shift) & self._row_mask

    def lookup(self, line: int) -> Optional[DirectoryEntry]:
        """Find the entry for ``line``, without touching LRU state."""
        return self._entries.get(line)

    def contains(self, line: int) -> bool:
        return line in self._entries

    def touch(self, entry: DirectoryEntry) -> None:
        """Mark ``entry`` most recently used."""
        self._clock += 1
        entry.lru = self._clock

    def row_entries(self, row: int) -> List[DirectoryEntry]:
        return list(self._rows.get(row, {}).values())

    def occupancy(self) -> int:
        """Total number of valid entries (for tests and statistics)."""
        return len(self._entries)

    # -- mutation ---------------------------------------------------------

    def install(
        self,
        line: int,
        state: Ownership,
        evict: Optional[Callable[[DirectoryEntry], None]] = None,
    ) -> DirectoryEntry:
        """Install ``line``, evicting the row's LRU entry if the row is full.

        ``evict`` is called with the victim entry *before* it is removed, so
        the caller can cascade the eviction (LRU XIs, inclusivity, tx-read
        LRU-extension updates). Returns the (new or refreshed) entry.
        """
        if state is _INVALID:
            raise ProtocolError(f"{self.name}: cannot install an invalid line")
        entry = self._entries.get(line)
        if entry is None:
            index = (line >> self._row_shift) & self._row_mask
            row = self._rows.get(index)
            if row is None:
                row = {}
                self._rows[index] = row
            elif len(row) >= self.ways:
                victim = min(row.values(), key=_lru_key)
                if evict is not None:
                    evict(victim)
                # The evict callback may itself have removed entries (e.g.
                # an abort invalidating tx-dirty lines), so re-check.
                if row.pop(victim.line, None) is not None:
                    del self._entries[victim.line]
            entry = DirectoryEntry(line, state)
            row[line] = entry
            self._entries[line] = entry
        else:
            entry.state = state
        self._clock += 1
        entry.lru = self._clock
        return entry

    def remove(self, line: int) -> Optional[DirectoryEntry]:
        """Invalidate ``line`` if present; returns the removed entry."""
        entry = self._entries.pop(line, None)
        if entry is not None:
            del self._rows[(line >> self._row_shift) & self._row_mask][line]
        return entry

    def demote(self, line: int) -> None:
        """Transition ``line`` from exclusive to read-only if present."""
        entry = self.lookup(line)
        if entry is not None:
            entry.state = Ownership.READ_ONLY

    def invalidate_where(
        self, predicate: Callable[[DirectoryEntry], bool]
    ) -> List[DirectoryEntry]:
        """Remove all entries matching ``predicate``; returns them.

        Used by the abort path: "all cache lines that were modified by the
        transaction in the L1 ... have their valid bits turned off,
        effectively removing them from the L1 cache instantaneously".
        """
        removed: List[DirectoryEntry] = []
        for row in self._rows.values():
            doomed = [line for line, e in row.items() if predicate(e)]
            for line in doomed:
                removed.append(row.pop(line))
                del self._entries[line]
        return removed
