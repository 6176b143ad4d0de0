"""Address arithmetic helpers.

Addresses are plain integers (byte addresses). A *line address* is the
address of the first byte of a cache line; an *octoword* is a 32-byte
aligned block (the granularity of the constrained-transaction footprint
limit, section II.D of the paper).
"""

from __future__ import annotations

from typing import Tuple

from ..errors import ConfigurationError

#: Cache line size used by all levels of the hierarchy (zEC12: 256 bytes).
LINE_SIZE = 256
#: Octoword size (constrained-transaction footprint granule).
OCTOWORD = 32
#: Doubleword size (NTSTG store granule).
DOUBLEWORD = 8
#: Page size, used by the interruption-filtering model.
PAGE_SIZE = 4096


def line_address(addr: int, line_size: int = LINE_SIZE) -> int:
    """Align ``addr`` down to its cache line."""
    return addr & ~(line_size - 1)


def line_offset(addr: int, line_size: int = LINE_SIZE) -> int:
    """Byte offset of ``addr`` within its cache line."""
    return addr & (line_size - 1)


def octoword_address(addr: int) -> int:
    """Align ``addr`` down to its octoword."""
    return addr & ~(OCTOWORD - 1)


def doubleword_address(addr: int) -> int:
    """Align ``addr`` down to its doubleword."""
    return addr & ~(DOUBLEWORD - 1)


def page_address(addr: int) -> int:
    """Align ``addr`` down to its page."""
    return addr & ~(PAGE_SIZE - 1)


def is_aligned(addr: int, size: int) -> bool:
    """True if ``addr`` is naturally aligned to ``size`` (a power of two)."""
    return (addr & (size - 1)) == 0


def lines_touched(addr: int, length: int, line_size: int = LINE_SIZE) -> Tuple[int, ...]:
    """All line addresses touched by an access of ``length`` bytes at ``addr``."""
    if length < 1:
        raise ConfigurationError("access length must be >= 1 byte")
    first = line_address(addr, line_size)
    last = line_address(addr + length - 1, line_size)
    return tuple(range(first, last + 1, line_size))


def octowords_touched(addr: int, length: int) -> Tuple[int, ...]:
    """All octoword addresses touched by an access (constraint accounting)."""
    if length < 1:
        raise ConfigurationError("access length must be >= 1 byte")
    first = octoword_address(addr)
    last = octoword_address(addr + length - 1)
    return tuple(range(first, last + OCTOWORD, OCTOWORD))
