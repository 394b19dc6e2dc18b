"""Every CSV loader rejects the same bad input the same way: a DataError
whose message starts with the path, plus the line when a row or the
header is at fault.  A file with a header and no data row gives one
message from every loader, a bad cell is named by its column, and a
repeated first-column key is refused at its line.
"""

import pytest

from eragreats import (
    DataError,
    load_league_config,
    load_population_table,
    load_ranked_list,
    load_season_stats,
    load_weight_regimes,
)

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


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("loader_name", LOADERS)
def test_loaders_reject_bad_input_alike(tmp_path, loader_name, case):
    loader, header, first, second = LOADERS[loader_name]
    good = tmp_path / "good.csv"
    good.write_text(f"{header}\n{first}\n{second.format(first.rsplit(',', 1)[1])}\n")
    loader(good)

    text_of, line = CASES[case]
    path = tmp_path / f"{loader_name}.csv"
    if text_of is not None:
        path.write_text(text_of(header, first, second))
    with pytest.raises(DataError) as excinfo:
        loader(path)
    where = f"{path}:{line}: " if line is not None else f"{path}: "
    assert str(excinfo.value).startswith(where)
    assert (excinfo.value.path, excinfo.value.line) == (path, line)
    if case == "header-only":
        assert str(excinfo.value) == f"{path}: no data rows found"
    if case == "duplicate-key":
        key = first.split(",")[0]
        assert str(excinfo.value) == f"{path}:3: duplicate {header.split(',')[0]} {key}"
    if case == "non-numeric":
        assert str(excinfo.value).endswith(f"bad {header.split(',')[-1]}: 'abc'")
