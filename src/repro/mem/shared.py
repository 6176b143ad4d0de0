"""Shared store-in caches: the per-chip L3 and per-MCM L4 tag stores.

Each cache is inclusive of all its connected lower-level caches; evictions
caused by associativity overflow generate **LRU XIs** down the hierarchy
(section III.A). Because the L1/L2 are store-through, the architected data
is always available below, so all the model needs here is presence plus
LRU order; dirty (store-in) state affects latency, not correctness.

That makes each level a plain tag store rather than a directory of
per-line entry objects: one ``line -> stamp`` dict answers presence and
LRU age, and lazily created per-row line lists bound the associativity.
Every miss installs the line at both shared levels, so this is the
hottest structure of capacity sweeps.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..params import CacheGeometry


class SharedCache:
    """A shared inclusive cache level (used for both L3 and L4)."""

    __slots__ = ("name", "index", "ways", "_stamp", "_rows", "_clock",
                 "_row_shift", "_row_mask")

    def __init__(self, geometry: CacheGeometry, name: str, index: int) -> None:
        self.name = name
        self.index = index
        self.ways = geometry.ways
        #: line -> last-use stamp (presence and LRU order in one probe).
        self._stamp: Dict[int, int] = {}
        #: row -> resident lines; rows exist only while non-empty (the
        #: L3/L4 have tens of thousands of rows, almost all empty).
        self._rows: Dict[int, List[int]] = {}
        self._clock = 0
        # line_size and rows are powers of two, so the congruence class is
        # a shift-and-mask of the line address.
        self._row_shift = geometry.line_size.bit_length() - 1
        self._row_mask = geometry.rows - 1

    def contains(self, line: int) -> bool:
        return line in self._stamp

    def install(self, line: int) -> Optional[int]:
        """Install or refresh ``line``; returns the evicted line, if any.

        The caller runs the inclusivity cascade for the victim (LRU XIs
        to every lower-level cache holding it).
        """
        stamp = self._stamp
        self._clock += 1
        if line in stamp:
            stamp[line] = self._clock
            return None
        index = (line >> self._row_shift) & self._row_mask
        row = self._rows.get(index)
        victim = None
        if row is None:
            self._rows[index] = [line]
        else:
            if len(row) >= self.ways:
                # Stamps are unique, so the least recently used way is too.
                victim = min(row, key=stamp.__getitem__)
                row.remove(victim)
                del stamp[victim]
            row.append(line)
        stamp[line] = self._clock
        return victim

    def remove(self, line: int) -> Optional[int]:
        """Drop ``line`` if present; returns it, or None."""
        if self._stamp.pop(line, None) is None:
            return None
        index = (line >> self._row_shift) & self._row_mask
        row = self._rows[index]
        row.remove(line)
        if not row:
            del self._rows[index]
        return line

    def occupancy(self) -> int:
        return len(self._stamp)


class L3Cache(SharedCache):
    """48MB store-in cache shared by the cores of one CP chip."""

    __slots__ = ("chip",)

    def __init__(self, geometry: CacheGeometry, chip: int) -> None:
        super().__init__(geometry, "L3", chip)
        self.chip = chip


class L4Cache(SharedCache):
    """384MB cache shared by the chips of one MCM."""

    __slots__ = ("mcm",)

    def __init__(self, geometry: CacheGeometry, mcm: int) -> None:
        super().__init__(geometry, "L4", mcm)
        self.mcm = mcm
