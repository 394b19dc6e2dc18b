"""Every CSV loader rejects the same bad input the same way: a DataError
whose message starts with the path, plus the line when a row or the
header is at fault.  A file with a header and no data row gives one
message from every loader, a bad cell is named by its column, and a
repeated first-column key is refused at its line.  The package reader
builds the same objects and raises the same first error as the original
reader kept in ``oracles``, and every load reads and parses afresh.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import reference_read_rows

import eragreats.population
import eragreats.rankings
from eragreats import (
    DataError,
    load_population_table,
    load_ranked_list,
    load_weight_regimes,
)
from eragreats.detrend import load_season_stats
from eragreats.dilution import load_league_config

# loader, header, a good first row, and a second row whose last cell is
# filled in by each case
LOADERS = {
    "population": (load_population_table, "year,population_millions", "1890,2.0", "1900,{}"),
    "weights": (load_weight_regimes, "year,a", "1890,0.4", "1900,{}"),
    "ranked": (load_ranked_list, "rank,name,career_start_year", "1,A,1901", "2,B,{}"),
    "league": (load_league_config, "year,teams,roster_size", "1890,8,15", "1900,12,{}"),
    "seasons": (load_season_stats, "season,value,league_average", "1919,50,0.1", "1920,54,{}"),
}


def _repeat_key(r1, r2):
    """The second row with the first row's key, and its other cells good."""
    return f"{r1.split(',', 1)[0]},{r2.split(',', 1)[1].format(r1.rsplit(',', 1)[1])}"


# case -> (file text from header, first row and second row; faulty line)
CASES = {
    "non-numeric": (lambda h, r1, r2: f"{h}\n{r1}\n{r2.format('abc')}\n", 3),
    "duplicate-key": (lambda h, r1, r2: f"{h}\n{r1}\n{_repeat_key(r1, r2)}\n", 3),
    "nan": (lambda h, r1, r2: f"{h}\n{r1}\n{r2.format('nan')}\n", 3),
    "inf": (lambda h, r1, r2: f"{h}\n{r1}\n{r2.format('inf')}\n", 3),
    "column-count": (lambda h, r1, r2: f"{h}\n{r1}\n{r2.format('1,1,1')}\n", 3),
    "header": (lambda h, r1, r2: f"wrong,header\n{r1}\n", 1),
    "header-only": (lambda h, r1, r2: f"{h}\n", None),
    "empty": (lambda h, r1, r2: "", None),
    "missing": (None, None),
}


# how a caller may name a file: the reader opens it as given, and its
# errors name Path(given)
PATH_FORMS = {
    "str": str,
    "unnormalized-str": lambda path: f"{path.parent}//{path.name}",
    "path": lambda path: path,
}


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("loader_name", LOADERS)
def test_loaders_reject_bad_input_alike(tmp_path, loader_name, case):
    loader, header, first, second = LOADERS[loader_name]
    good = tmp_path / "good.csv"
    good.write_text(f"{header}\n{first}\n{second.format(first.rsplit(',', 1)[1])}\n")
    text_of, line = CASES[case]
    path = tmp_path / f"{loader_name}.csv"
    if text_of is not None:
        path.write_text(text_of(header, first, second))
    for form, name_of in PATH_FORMS.items():
        loader(name_of(good))
        given = name_of(path)
        with pytest.raises(DataError) as excinfo:
            loader(given)
        assert Path(given) == path, form
        where = f"{path}:{line}: " if line is not None else f"{path}: "
        assert str(excinfo.value).startswith(where), form
        assert (excinfo.value.path, excinfo.value.line) == (Path(given), line), form
        if case == "header-only":
            assert str(excinfo.value) == f"{path}: no data rows found"
        if case == "duplicate-key":
            key = first.split(",")[0]
            assert str(excinfo.value) == f"{path}:3: duplicate {header.split(',')[0]} {key}"
        if case == "non-numeric":
            assert str(excinfo.value).endswith(f"bad {header.split(',')[-1]}: 'abc'")


# the header spec each loader names, where it is not the fixed header
HEADER_SPECS = {
    "population": "year,population_millions[,period_length_years]",
    "weights": "year,<regime>,...",
}


@pytest.mark.parametrize("loader_name", LOADERS)
def test_header_errors_quote_the_header_as_written(tmp_path, loader_name):
    loader, header, first, _ = LOADERS[loader_name]
    written = f" nope , {header} "
    path = tmp_path / f"{loader_name}.csv"
    path.write_text(f"{written}\n{first}\n")
    with pytest.raises(DataError) as excinfo:
        loader(path)
    spec = HEADER_SPECS.get(loader_name, header)
    assert str(excinfo.value) == f"{path}:1: expected header {spec!r}, got {written!r}"


# a blank name is refused at the header, before a later row's fault
@pytest.mark.parametrize("header", ["year,a,", "year, ,a"])
def test_a_blank_regime_name_is_refused_at_the_header(tmp_path, header):
    path = tmp_path / "weights.csv"
    path.write_text(f"{header}\n1890,0.4,x\n")
    with pytest.raises(DataError) as excinfo:
        load_weight_regimes(path)
    assert str(excinfo.value) == f"{path}:1: blank regime name in header"


# a valid file per loader, as rows of cells, for the mutations to work on
BASE_FILES = {
    "population": [["year", "population_millions", "period_length_years"],
                   ["1890", "2.0", "10"], ["1900", "3.5", ""], ["1910", "4.25", "10"],
                   ["1915", "1.0", "5"]],
    "weights": [["year", "a", "b"], ["1890", "0.4", "1"], ["1900", "0.5", "0.25"],
                ["1910", "1", "0"]],
    "ranked": [["rank", "name", "career_start_year"], ["1", "A", "1901"], ["2", "B", "1905"],
               ["3", "C", "1920"]],
    "league": [["year", "teams", "roster_size"], ["1890", "8", "15"], ["1900", "12", "20"],
               ["1910", "16", "25"]],
    "seasons": [["season", "value", "league_average"], ["1919", "50", "0.1"],
                ["1920", "54", "0.2"], ["1921", "-3", "1.5"]],
}
# the modules that name the parse step, from the file bytes to the result,
# that every loader runs
READERS = (eragreats.population, eragreats.rankings)

CELLS = st.sampled_from(
    ["abc", "", " ", "nan", "inf", "-1", "0", "0.5", "1.5", "2", "3", "11", "1e400",
     " 1890 ", "1900", "1905", "A", " B ", "x,y", '"q"']
) | st.text(" 0123456789.-eanifAB,", max_size=5)
BLANKS = st.sampled_from(["", " ", ",", " , ,", "\t"])


@st.composite
def mutations(draw, rows):
    """One change to ``rows``: a cell replaced, dropped or added, a blank
    row, a key copied from another row, two rows swapped, or a row repeated."""
    kind = draw(st.sampled_from(["cell", "drop", "add", "blank", "key", "swap", "repeat"]))
    rows = [list(row) for row in rows]
    if kind == "blank":
        rows.insert(draw(st.integers(1, len(rows))), [draw(BLANKS)])
        return rows
    # the header is changed only cell by cell
    row = rows[draw(st.integers(0 if kind == "cell" else 1, len(rows) - 1))]
    other = rows[draw(st.integers(1, len(rows) - 1))]
    c = draw(st.integers(0, len(row)))
    if kind == "cell" and c < len(row):
        row[c] = draw(CELLS)
    elif kind == "drop" and c < len(row):
        del row[c]
    elif kind == "add":
        row.insert(c, draw(CELLS))
    elif kind == "key" and row and other:
        row[0] = other[0]
    elif kind == "swap":
        row[:], other[:] = other[:], row[:]
    elif kind == "repeat":
        rows.insert(rows.index(row), list(row))
    return rows


def _text(rows):
    return "".join(",".join(row) + "\n" for row in rows)


@st.composite
def mutated_files(draw):
    name = draw(st.sampled_from(sorted(LOADERS)))
    rows = BASE_FILES[name]
    for _ in range(draw(st.integers(0, 4))):
        rows = draw(mutations(rows))
    return name, _text(rows)


def _outcome(loader, path):
    try:
        return "loaded", loader(path)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc).__name__, str(exc)


def _reference_outcome(loader, path):
    """``_outcome`` with every loader on the row-by-row parse."""
    with pytest.MonkeyPatch.context() as patch:
        for module in READERS:
            patch.setattr(module, "_parse", reference_read_rows)
        return _outcome(loader, path)


@settings(max_examples=400)
@given(mutated_files())
# a refused row (make) before a refused cell, a refused file (build), and
# a wrong width after a blank row
@example(("population", "year,population_millions\n1890,2.0\n1900,0\n1910,x\n"))
@example(("ranked", "rank,name,career_start_year\n1,A,1901\n2, ,1905\n2,C,x\n"))
@example(("seasons", "season,value,league_average\n1919,50,0.1\n1920,54,0\n"))
@example(("weights", "year,a\n1890,0.4\n1900,2\n"))
@example(("league", "year,teams,roster_size\n1890,8,15\n ,\n1890,8,15,1\n"))
# explicit examples run in the order written: a valid text, a mutation of
# it, and the valid text again, each compared with a reference parse
@example(("weights", _text(BASE_FILES["weights"])))
@example(("weights", _text(BASE_FILES["weights"]).replace("0.25", "2")))
@example(("weights", _text(BASE_FILES["weights"])))
@example(("ranked", _text(BASE_FILES["ranked"])))
@example(("ranked", _text(BASE_FILES["ranked"]).replace("1905", "1906")))
@example(("ranked", _text(BASE_FILES["ranked"])))
def test_loaders_match_the_row_by_row_reader(case):
    name, text = case
    loader = LOADERS[name][0]
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / f"{name}.csv"
        path.write_text(text)
        got = _outcome(loader, path)
        expected = _reference_outcome(loader, path)
    assert got == expected


# every load reads and parses afresh, and keeps nothing

@pytest.mark.parametrize("loader_name", ["population", "weights", "ranked"])
def test_two_loads_of_one_file_give_equal_but_distinct_objects(tmp_path, loader_name):
    loader = LOADERS[loader_name][0]
    path = tmp_path / f"{loader_name}.csv"
    path.write_text(_text(BASE_FILES[loader_name]))
    first, second = loader(path), loader(path)
    assert first == second
    # the regimes of a weights file, the table or list of the others
    built = [list(result.values()) if isinstance(result, dict) else [result]
             for result in (first, second)]
    assert all(a is not b for a, b in zip(*built))


@pytest.mark.parametrize("loader_name", LOADERS)
def test_same_text_at_two_paths_loads_equal_results(tmp_path, loader_name):
    loader = LOADERS[loader_name][0]
    paths = [tmp_path / side / f"{loader_name}.csv" for side in ("a", "b")]
    for path in paths:
        path.parent.mkdir()
        path.write_text(_text(BASE_FILES[loader_name]))
    first, second = (loader(path) for path in paths)
    assert first == second == _reference_outcome(loader, paths[1])[1]


def test_ranked_lists_with_one_text_keep_their_own_source(tmp_path):
    text = _text(BASE_FILES["ranked"])
    for stem in ("north", "south", "north"):
        path = tmp_path / f"{stem}.csv"
        path.write_text(text)
        ranked = load_ranked_list(path)
        assert ranked.source == stem
        assert ranked == _reference_outcome(load_ranked_list, path)[1]


@pytest.mark.parametrize("loader_name", LOADERS)
def test_a_file_rewritten_at_one_path_is_parsed_again(tmp_path, loader_name):
    loader = LOADERS[loader_name][0]
    path = tmp_path / f"{loader_name}.csv"
    rows = BASE_FILES[loader_name]
    before = _text(rows)
    # the last cell of the last row, swapped with that of the row above
    after = _text(rows[:-2] + [rows[-2][:-1] + rows[-1][-1:], rows[-1][:-1] + rows[-2][-1:]])
    outcomes = []
    for text in (before, after, before):
        path.write_text(text)
        outcomes.append(_outcome(loader, path))
        assert outcomes[-1] == _reference_outcome(loader, path)
    assert outcomes[0] != outcomes[1]
    assert outcomes[0] == outcomes[2]


@pytest.mark.parametrize("loader_name", LOADERS)
def test_errors_are_not_cached(tmp_path, loader_name):
    loader, header, first, second = LOADERS[loader_name]
    text = CASES["non-numeric"][0](header, first, second)
    paths = [tmp_path / side / f"{loader_name}.csv" for side in ("a", "b")]
    for path in paths:
        path.parent.mkdir()
        path.write_text(text)
    for path in (*paths, paths[0]):
        with pytest.raises(DataError) as excinfo:
            loader(path)
        assert (excinfo.value.path, excinfo.value.line) == (path, 3)
        assert str(excinfo.value).startswith(f"{path}:3: bad ")
    # the same bytes, once fixed, load
    paths[0].write_text(_text(BASE_FILES[loader_name]))
    loader(paths[0])


@pytest.mark.parametrize("loader_name", ["weights", "league", "seasons"])
def test_editing_a_returned_container_leaves_the_next_load(tmp_path, loader_name):
    loader = LOADERS[loader_name][0]
    path = tmp_path / f"{loader_name}.csv"
    path.write_text(_text(BASE_FILES[loader_name]))
    got = loader(path)
    expected = _reference_outcome(loader, path)[1]
    assert got == expected
    if isinstance(got, dict):
        got.pop("a")
        got["c"] = None
    else:
        got.pop()
        got.append(None)
    assert loader(path) == expected


@pytest.mark.parametrize("separator", ["\x0c", "\u2028", "\x1c", "\x85"])
def test_names_with_line_separators_load_as_the_reference_reads_them(tmp_path, separator):
    # str.splitlines would split these cells; the CSV file iterator does not
    path = tmp_path / "ranked.csv"
    path.write_text(f"rank,name,career_start_year\n1,A{separator}B,1901\n2,C{separator},1905\n",
                    encoding="utf-8")
    got = _outcome(load_ranked_list, path)
    assert got == _reference_outcome(load_ranked_list, path)
    assert got[1].entries[0].name == f"A{separator}B"


def test_a_bad_byte_past_the_first_chunk_is_reported_as_the_reference_does(tmp_path):
    path = tmp_path / "ranked.csv"
    rows = "".join(f"{rank},Player {rank:05d},1901\n" for rank in range(1, 600))
    data = f"rank,name,career_start_year\n{rows}".encode()
    assert len(data) > 8192 + 100
    path.write_bytes(data[:8192 + 100] + b"\xff" + data[8192 + 100:])
    got = _outcome(load_ranked_list, path)
    assert got == _reference_outcome(load_ranked_list, path)
    assert got[0] == "DataError" and got[1].startswith(f"{path}: cannot parse file: ")
