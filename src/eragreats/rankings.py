"""Ranked all-time-greats lists and early-era counting."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from pathlib import Path

from .errors import DataError, DomainError
from .population import fixed_columns, read_rows


@dataclass(frozen=True, init=False)
class PlayerEntry:
    rank: int
    name: str
    career_start_year: int

    def __init__(self, rank: int, name: str, career_start_year: int):
        # checked, then stored straight into the instance dict: a loader
        # builds one entry per row, and this costs about half of a generated
        # frozen __init__ plus __post_init__
        if rank < 1:
            raise DataError(f"rank must be >= 1, got {rank}")
        if not name or not name.strip():
            raise DataError(f"entry at rank {rank} has an empty name")
        fields = self.__dict__
        fields["rank"] = rank
        fields["name"] = name
        fields["career_start_year"] = career_start_year


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

    @cached_property
    def start_years(self) -> tuple[int, ...]:
        """Career start years in rank order, built once per list."""
        return tuple(e.career_start_year for e in self.entries)


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
    # ``year <= cutoff_year`` per year, counted in C: operator.le compares
    # as ``<=`` does for every type (``cutoff_year.__ge__`` may return a
    # truthy NotImplemented), and countOf returns an int where a sum of
    # numpy bools would not be one
    return operator.countOf(map(operator.le, ranked.start_years[:depth], repeat(cutoff_year)), True)


def load_ranked_list(path) -> RankedList:
    """Read a ranked list from CSV with columns ``rank,name,career_start_year``.

    The list's source name is the file's stem.
    """
    # the source is part of the result, so part of the parse key; read_rows
    # refuses an empty path
    source = Path(path).stem if path else ""
    return read_rows(
        path,
        fixed_columns("rank,name,career_start_year", int, str.strip, int),
        PlayerEntry,
        lambda entries: RankedList(source, tuple(entries)),
        key=("ranked", source),
    )

