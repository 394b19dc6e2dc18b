"""Ranked all-time-greats lists and early-era counting."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import DataError, DomainError
from .population import _parse, _read_bytes, fixed_columns


@dataclass(frozen=True)
class PlayerEntry:
    rank: int
    name: str
    career_start_year: int

    def __post_init__(self):
        if self.rank < 1:
            raise DataError(f"rank must be >= 1, got {self.rank}")
        if not self.name or not self.name.strip():
            raise DataError(f"entry at rank {self.rank} has an empty name")


@dataclass(frozen=True)
class RankedList:
    """A named ranking whose entries carry ranks exactly 1..n."""

    source: str
    entries: tuple[PlayerEntry, ...]

    def __post_init__(self):
        if not self.source:
            raise DataError("ranked list needs a non-empty source name")
        if not self.entries:
            raise DataError(f"list {self.source!r} has no entries")
        ranks = [e.rank for e in self.entries]
        if ranks != list(range(1, len(self.entries) + 1)):
            raise DataError(
                f"list {self.source!r} must carry ranks 1..{len(self.entries)} "
                f"in order, without gaps or duplicates"
            )
        names = [e.name for e in self.entries]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise DataError(f"list {self.source!r} repeats players: {dupes}")

    def __len__(self) -> int:
        return len(self.entries)


def count_early(ranked: RankedList, depth: int, cutoff_year: int) -> int:
    """Number of the top ``depth`` players whose careers started in or
    before ``cutoff_year``.  The cutoff is inclusive.
    """
    if not isinstance(depth, int) or isinstance(depth, bool):
        raise DomainError(f"depth must be an integer, got {depth!r}")
    if not 1 <= depth <= len(ranked):
        raise DomainError(
            f"depth must be in [1, {len(ranked)}] for list {ranked.source!r}, got {depth}"
        )
    return sum(1 for e in ranked.entries[:depth] if e.career_start_year <= cutoff_year)


def load_ranked_list(path) -> RankedList:
    """Read a ranked list from CSV with columns ``rank,name,career_start_year``.

    The list's source name is the file's stem.
    """
    return _ranked_list(path, _read_bytes(path))


def _ranked_list(path, raw: bytes) -> RankedList:
    """``load_ranked_list`` of ``raw``, the bytes read from ``path``."""
    # the source comes from the path, not the bytes: a key for the result
    # holds both (the command line's kept text is keyed on its arguments)
    source = Path(path).stem
    return _parse(path, raw, fixed_columns("rank,name,career_start_year", int, str.strip, int),
                  PlayerEntry, lambda entries: RankedList(source, tuple(entries)))
