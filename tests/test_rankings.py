"""Ranked list structure, early-era counting, and CSV loading."""

import dataclasses

import numpy as np
import pytest

from eragreats import DataError, DomainError, RankedList, load_ranked_list
from eragreats.rankings import PlayerEntry, count_early


def make_list(years, source="test"):
    entries = tuple(
        PlayerEntry(rank, f"player {rank}", year)
        for rank, year in enumerate(years, start=1)
    )
    return RankedList(source, entries)


def test_counts_careers_through_inclusive_cutoff():
    ranked = make_list([1900, 1950, 1951, 1949, 2000])
    assert count_early(ranked, 5, 1950) == 3
    assert count_early(ranked, 2, 1950) == 2
    assert count_early(ranked, 1, 1899) == 0


def test_cutoff_year_itself_counts():
    ranked = make_list([1950])
    assert count_early(ranked, 1, 1950) == 1
    assert count_early(ranked, 1, 1949) == 0


def test_depth_limits(lists_by_name):
    ranked = lists_by_name["ranker"]
    with pytest.raises(DomainError):
        count_early(ranked, 0, 1950)
    with pytest.raises(DomainError):
        count_early(ranked, 26, 1950)
    with pytest.raises(DomainError):
        count_early(ranked, 10.0, 1950)
    assert count_early(ranked, 25, 2015) == 25


@pytest.mark.parametrize("years, cutoff", [
    ([1900, 1950, 1951, 1949, 2000], 1950),
    ([1950.0, 1950.5, 1949.9], 1950),
    ([1900, 1950, 1951], 1950.5),
    ([1900, float("nan"), 1951], 1960),
    ([np.int64(1900), np.int64(1950), np.int64(1951)], 1950),
])
def test_count_matches_a_walk_over_the_entries(years, cutoff):
    ranked = make_list(years)
    for depth in range(1, len(years) + 1):
        walk = sum(1 for e in ranked.entries[:depth] if e.career_start_year <= cutoff)
        count = count_early(ranked, depth, cutoff)
        assert count == walk and type(count) is int


def test_bundled_lists_structure(ranked_lists):
    assert [r.source for r in ranked_lists] == ["ranker", "bwar", "fwar", "espn"]
    for ranked in ranked_lists:
        assert len(ranked) == 25
        assert [e.rank for e in ranked.entries] == list(range(1, 26))
    by_name = {r.source: r for r in ranked_lists}
    assert by_name["bwar"].entries[0].name == "Babe Ruth"


def test_bundled_early_counts(lists_by_name):
    expected = {
        "ranker": (7, 15),
        "bwar": (6, 15),
        "fwar": (6, 12),
        "espn": (5, 11),
    }
    for name, (top10, top25) in expected.items():
        ranked = lists_by_name[name]
        assert count_early(ranked, 10, 1950) == top10
        assert count_early(ranked, 25, 1950) == top25


def test_entry_checks_its_fields_and_behaves_as_a_frozen_dataclass():
    with pytest.raises(DataError, match=r"^rank must be >= 1, got 0$"):
        PlayerEntry(0, "a", 1900)
    for blank in ("", "  "):
        with pytest.raises(DataError, match=r"^entry at rank 3 has an empty name$"):
            PlayerEntry(3, blank, 1900)
    entry = PlayerEntry(1, "Some Player", 1901)
    with pytest.raises(dataclasses.FrozenInstanceError):
        entry.rank = 2
    with pytest.raises(DataError, match=r"^rank must be >= 1, got -1$"):
        dataclasses.replace(entry, rank=-1)
    with pytest.raises(DataError, match=r"^entry at rank 1 has an empty name$"):
        dataclasses.replace(entry, name=" ")
    moved = dataclasses.replace(entry, career_start_year=1950)
    assert moved == PlayerEntry(rank=1, name="Some Player", career_start_year=1950)
    assert moved != entry
    assert hash(entry) == hash(PlayerEntry(1, "Some Player", 1901))
    assert repr(entry) == "PlayerEntry(rank=1, name='Some Player', career_start_year=1901)"
    assert dataclasses.astuple(entry) == (1, "Some Player", 1901)
    assert vars(entry) == {"rank": 1, "name": "Some Player", "career_start_year": 1901}


def test_rank_sequence_must_be_complete():
    with pytest.raises(DataError):
        RankedList("bad", (PlayerEntry(2, "a", 1900),))
    with pytest.raises(DataError):
        RankedList(
            "bad",
            (PlayerEntry(1, "a", 1900), PlayerEntry(3, "b", 1900)),
        )
    with pytest.raises(DataError):
        RankedList(
            "bad",
            (PlayerEntry(1, "a", 1900), PlayerEntry(1, "b", 1900)),
        )


def test_duplicate_names_are_rejected():
    with pytest.raises(DataError):
        RankedList(
            "bad",
            (PlayerEntry(1, "a", 1900), PlayerEntry(2, "a", 1901)),
        )


def test_empty_list_and_empty_source_are_rejected():
    with pytest.raises(DataError):
        RankedList("bad", ())
    with pytest.raises(DataError):
        RankedList("", (PlayerEntry(1, "a", 1900),))


def test_load_and_dump_roundtrip(tmp_path):
    path = tmp_path / "mini.csv"
    path.write_text("rank,name,career_start_year\n1,Some Player,1901\n2,Other Player,1977\n")
    ranked = load_ranked_list(path)
    assert ranked.source == "mini"
    assert ranked.entries[1].career_start_year == 1977


def test_load_rejects_malformed_files(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("rank,name\n1,x\n")
    with pytest.raises(DataError):
        load_ranked_list(path)
    path.write_text("rank,name,career_start_year\n1,x,soon\n")
    with pytest.raises(DataError) as excinfo:
        load_ranked_list(path)
    assert ":2" in str(excinfo.value)
    path.write_text("rank,name,career_start_year\n2,x,1900\n")
    with pytest.raises(DataError):
        load_ranked_list(path)
    with pytest.raises(DataError):
        load_ranked_list(tmp_path / "missing.csv")
