"""Cumulative population shares: hand-computed oracles, proration,
weighting, and structural validation.
"""

import dataclasses
import math
import textwrap

import pytest
from hypothesis import given, settings, strategies as st
from oracles import reference_cumulative_population, reference_cumulative_proportion

from eragreats import (
    DataError,
    DomainError,
    PopulationRecord,
    PopulationTable,
    WeightRegime,
    bridge_check,
    cumulative_population,
    cumulative_proportion,
    load_population_table,
    load_weight_regimes,
)

# hand sums over the bundled table (decade populations in millions)
TOTAL = 348.53
THROUGH_1950 = 65.16
THROUGH_1990 = 179.46


def test_cumulative_population_at_period_ends(table):
    assert cumulative_population(table, 1950) == pytest.approx(THROUGH_1950, rel=1e-12)
    assert cumulative_population(table, 1990) == pytest.approx(THROUGH_1990, rel=1e-12)
    assert cumulative_population(table, 2015) == pytest.approx(TOTAL, rel=1e-12)


def test_prorates_linearly_inside_a_period(table):
    # 1999 takes nine tenths of the 1990..2000 decade
    assert cumulative_population(table, 1999) == pytest.approx(
        THROUGH_1990 + 0.9 * 60.66, rel=1e-12
    )
    # 2013 takes three fifths of the five-year 2010..2015 period
    assert cumulative_population(table, 2013) == pytest.approx(
        312.39 + 0.6 * 36.14, rel=1e-12
    )
    # 1875 takes half of the earliest decade
    assert cumulative_population(table, 1875) == pytest.approx(0.5 * 4.44, rel=1e-12)


def test_proportion_matches_hand_ratio(table):
    assert cumulative_proportion(table, 1950) == pytest.approx(
        THROUGH_1950 / TOTAL, rel=1e-12
    )
    assert f"{cumulative_proportion(table, 1950):.5f}" == "0.18696"


def test_proportion_is_exactly_one_at_final_year(table):
    assert cumulative_proportion(table, 2015) == 1.0


def test_proportion_displays_for_every_period_end(table):
    expected = [
        "0.013", "0.027", "0.043", "0.068", "0.093", "0.122", "0.154", "0.187",
        "0.240", "0.310", "0.407", "0.515", "0.689", "0.896", "1.000",
    ]
    got = [f"{cumulative_proportion(table, year):.3f}" for year in table.years]
    assert got == expected


def test_cutoff_domain_is_half_open(table):
    with pytest.raises(DomainError):
        cumulative_proportion(table, 1870)
    with pytest.raises(DomainError):
        cumulative_proportion(table, 2016)
    with pytest.raises(DomainError):
        cumulative_proportion(table, 1492)
    # a bool is not a year, even where its integer value lies in the span
    year_one = PopulationTable((PopulationRecord(1, 1.0, 1),))
    assert cumulative_proportion(year_one, 1) == 1.0
    with pytest.raises(DomainError):
        cumulative_proportion(year_one, True)
    # first year after the span opens is fine
    assert cumulative_proportion(table, 1871) > 0


def test_weighted_proportion_matches_hand_sums(table, regimes):
    # w1: 0.5 on the first six decades, 0.4 afterwards
    w1 = regimes["w1"]
    numerator = 0.5 * 42.44 + 0.4 * 22.72
    denominator = 0.5 * 42.44 + 0.4 * 306.09
    assert cumulative_proportion(table, 1950, regime=w1) == pytest.approx(
        numerator / denominator, rel=1e-12
    )
    # w3 tapers through the modern decades
    w3 = regimes["w3"]
    numerator = 0.4 * 42.44 + 0.35 * 11.13 + 0.38 * 11.59
    denominator = numerator + math.fsum(
        [0.34 * 18.42, 0.28 * 24.49, 0.16 * 33.93, 0.16 * 37.46,
         0.13 * 60.66, 0.12 * 72.27, 0.10 * 36.14]
    )
    assert cumulative_proportion(table, 1950, regime=w3) == pytest.approx(
        numerator / denominator, rel=1e-12
    )


def test_weighted_population_scales_each_period(table, regimes):
    w1 = regimes["w1"]
    assert cumulative_population(table, 1950, regime=w1) == pytest.approx(
        0.5 * 42.44 + 0.4 * 22.72, rel=1e-12
    )


def test_uniform_weights_reduce_to_unweighted(table):
    for value in (1.0, 0.37):
        given_weights = {year: value for year in table.years}
        uniform = WeightRegime("uniform", given_weights)
        # the regime keeps a read-only copy: neither edit below reaches it
        with pytest.raises(TypeError):
            uniform.weights[1880] = -50.0
        given_weights[1880] = -50.0
        for cutoff in (1871, 1875, 1950, 1999, 2015):
            weighted = cumulative_proportion(table, cutoff, regime=uniform)
            plain = cumulative_proportion(table, cutoff)
            assert weighted == pytest.approx(plain, rel=1e-12)


def test_regime_years_must_match_table(table):
    missing = WeightRegime("short", {1880: 0.5})
    with pytest.raises(DataError):
        cumulative_proportion(table, 1950, regime=missing)
    extra = {year: 0.5 for year in table.years}
    extra[1850] = 0.5
    with pytest.raises(DataError):
        cumulative_proportion(table, 1950, regime=WeightRegime("extra", extra))


def test_all_zero_weights_are_rejected(table):
    zero = WeightRegime("zero", {year: 0.0 for year in table.years})
    with pytest.raises(DomainError):
        cumulative_proportion(table, 1950, regime=zero)


def test_no_share_or_total_is_negative_zero(table, tmp_path):
    # a report step is kept per share, and 0.0 and -0.0 are one key: a
    # share must never be -0.0, even when every weight through the cutoff
    # is written as one
    path = tmp_path / "zeros.csv"
    rows = ["year,neg_float,neg_int,zero"]
    rows += [f"{year},-0.0,-0,0" if year <= 1950 else f"{year},0.5,0.5,0.5"
             for year in table.years]
    path.write_text("\n".join(rows) + "\n")
    zeros = load_weight_regimes(path)
    assert math.copysign(1.0, zeros["neg_float"].weights[1880]) == -1.0
    for cutoff in range(table.first_year + 1, table.final_year + 1):
        for regime in (None, *zeros.values()):
            for share in (cumulative_proportion, cumulative_population):
                value = share(table, cutoff, regime=regime)
                assert math.copysign(1.0, value) == 1.0, (share, cutoff, regime)
            if regime is not None and cutoff <= 1950:
                assert cumulative_proportion(table, cutoff, regime=regime) == 0.0
        share = bridge_check([(10, 6)], table.final_year, cutoff, table)[0].proportion_used
        assert math.copysign(1.0, share) == 1.0


def test_a_total_that_overflows_a_double_is_a_domain_error():
    table = PopulationTable((PopulationRecord(1880, 1e308), PopulationRecord(1890, 1e308, 1)))
    assert cumulative_population(table, 1880) == 1e308
    with pytest.raises(DomainError, match="population total through 1890 overflows"):
        cumulative_population(table, 1890)
    with pytest.raises(DomainError, match="population total through 1890 overflows"):
        cumulative_proportion(table, 1880)


# ------------------------------------------------------- property tests

@st.composite
def tables(draw):
    count = draw(st.integers(1, 8))
    end = draw(st.integers(1800, 1900))
    records = []
    for _ in range(count):
        gap = draw(st.integers(0, 3))
        length = draw(st.integers(1, 10))
        end = end + gap + length
        population = draw(
            st.floats(0.01, 5000.0, allow_nan=False, allow_infinity=False)
        )
        records.append(PopulationRecord(end, population, length))
    return PopulationTable(tuple(records))


@given(tables(), st.data())
def test_share_is_monotone_in_cutoff(table, data):
    years = st.integers(table.first_year + 1, table.final_year)
    y1 = data.draw(years)
    y2 = data.draw(years)
    y1, y2 = sorted((y1, y2))
    assert cumulative_proportion(table, y1) <= cumulative_proportion(table, y2) + 1e-12


@given(tables(), st.data())
def test_share_stays_in_unit_interval(table, data):
    cutoff = data.draw(st.integers(table.first_year + 1, table.final_year))
    share = cumulative_proportion(table, cutoff)
    assert 0.0 < share <= 1.0


@given(tables(), st.floats(1e-3, 1e3, allow_nan=False), st.data())
def test_share_is_scale_invariant(table, factor, data):
    cutoff = data.draw(st.integers(table.first_year + 1, table.final_year))
    scaled = PopulationTable(
        tuple(
            PopulationRecord(r.period_end_year, r.population * factor, r.period_length_years)
            for r in table.records
        )
    )
    assert cumulative_proportion(scaled, cutoff) == pytest.approx(
        cumulative_proportion(table, cutoff), rel=1e-12
    )


@given(tables(), st.data())
def test_weighted_share_with_uniform_weights_is_identity(table, data):
    cutoff = data.draw(st.integers(table.first_year + 1, table.final_year))
    weight = data.draw(st.floats(0.01, 1.0, allow_nan=False))
    uniform = WeightRegime("u", {year: weight for year in table.years})
    assert cumulative_proportion(table, cutoff, regime=uniform) == pytest.approx(
        cumulative_proportion(table, cutoff), rel=1e-12
    )


# populations from tiny to a pair that overflows a double, and weights at
# and between the ends of [0, 1]
POPULATIONS = st.floats(1e-3, 5000.0) | st.sampled_from([5e-324, 1e308, 1.7976931348623157e308])
WEIGHTS = st.sampled_from([0.0, 0.0, 1.0, 0.5]) | st.floats(0.0, 1.0)


@st.composite
def shares(draw):
    """A table with gaps and short periods, a regime (none, fitting, or
    missing or adding a year) and a cutoff inside, at or past the span."""
    end = draw(st.integers(1800, 1900))
    records = []
    for _ in range(draw(st.integers(1, 8))):
        length = draw(st.integers(1, 10))
        end += draw(st.integers(0, 3)) + length
        records.append(PopulationRecord(end, draw(POPULATIONS), length))
    table = PopulationTable(tuple(records))
    regime = None
    kind = draw(st.sampled_from(["none", "none", "fit", "fit", "fit", "fit", "missing", "extra"]))
    if kind != "none":
        weights = {year: draw(WEIGHTS) for year in table.years}
        if kind == "missing":
            del weights[draw(st.sampled_from(table.years))]
        elif kind == "extra":
            weights[table.final_year + draw(st.integers(1, 5))] = 1.0
        regime = WeightRegime("r", weights)
    if draw(st.integers(0, 3)):
        cutoff = draw(st.integers(table.first_year + 1, table.final_year))
    else:
        cutoff = draw(st.sampled_from([table.first_year, table.final_year + 1]))
    return table, cutoff, regime


def _share_outcome(share, *args):
    try:
        return share(*args).hex()
    except (DataError, DomainError) as exc:
        return type(exc), str(exc)


@settings(max_examples=400)
@given(shares())
def test_shares_match_two_walks_of_the_table(case):
    table, cutoff, regime = case
    assert _share_outcome(cumulative_population, table, cutoff, regime) == _share_outcome(
        reference_cumulative_population, table, cutoff, regime
    )
    assert _share_outcome(cumulative_proportion, table, cutoff, regime) == _share_outcome(
        reference_cumulative_proportion, table, cutoff, regime
    )


# ------------------------------------------------------------ structure

def test_record_validation():
    with pytest.raises(
        DataError, match=r"^population for period ending 1950 must be positive, got -1\.0$"
    ):
        PopulationRecord(1950, -1.0)
    with pytest.raises(DataError):
        PopulationRecord(1950, 0.0)
    with pytest.raises(DataError):
        PopulationRecord(1950, 5.0, 0)
    with pytest.raises(
        DataError, match=r"^period length for 1950 must be between 1 and 10 years, got 11$"
    ):
        PopulationRecord(1950, 5.0, 11)
    assert PopulationRecord(1950, 5.0).period_start_year == 1940
    assert PopulationRecord(2015, 5.0, 5).period_start_year == 2010


def test_record_behaves_as_a_frozen_dataclass():
    record = PopulationRecord(1950, 5.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.population = 6.0
    with pytest.raises(DataError, match=r"^population for period ending 1950 must be"):
        dataclasses.replace(record, population=0.0)
    with pytest.raises(DataError, match=r"^period length for 1950 must be between"):
        dataclasses.replace(record, period_length_years=0)
    short = dataclasses.replace(record, period_length_years=5)
    assert short == PopulationRecord(period_end_year=1950, population=5.0, period_length_years=5)
    assert short != record
    assert record == PopulationRecord(1950, 5.0, 10)
    assert hash(record) == hash(PopulationRecord(1950, 5.0, 10))
    assert repr(short) == (
        "PopulationRecord(period_end_year=1950, population=5.0, period_length_years=5)"
    )
    assert dataclasses.astuple(short) == (1950, 5.0, 5)
    assert vars(record) == {"period_end_year": 1950, "population": 5.0,
                            "period_length_years": 10}


def test_table_validation():
    with pytest.raises(DataError):
        PopulationTable(())
    with pytest.raises(DataError):
        PopulationTable((PopulationRecord(1950, 1.0), PopulationRecord(1950, 2.0)))
    with pytest.raises(DataError):
        PopulationTable((PopulationRecord(1960, 1.0), PopulationRecord(1950, 2.0)))
    with pytest.raises(DataError):
        # 1955 ends inside the 1950..1960 span of the next record
        PopulationTable((PopulationRecord(1955, 1.0), PopulationRecord(1960, 2.0)))


# -------------------------------------------------------------- loaders

def test_load_population_table_roundtrip(tmp_path):
    path = tmp_path / "pop.csv"
    path.write_text(textwrap.dedent("""\
        year,population_millions,period_length_years
        1900,2.5,
        1910,3.5,10
        1915,1.0,5
    """))
    table = load_population_table(path)
    assert table.years == (1900, 1910, 1915)
    assert table.records[0].period_length_years == 10
    assert table.records[2].period_length_years == 5
    assert cumulative_proportion(table, 1915) == 1.0


def test_load_population_table_without_length_column(tmp_path):
    path = tmp_path / "pop.csv"
    path.write_text("year,population_millions\n1900,2.5\n1910,3.5\n")
    table = load_population_table(path)
    assert all(r.period_length_years == 10 for r in table.records)


def test_load_population_table_errors_carry_location(tmp_path):
    path = tmp_path / "pop.csv"
    path.write_text("year,population_millions\n1900,not-a-number\n")
    with pytest.raises(DataError) as excinfo:
        load_population_table(path)
    assert "pop.csv" in str(excinfo.value)
    assert ":2" in str(excinfo.value)

    path.write_text("wrong,header\n1900,1.0\n")
    with pytest.raises(DataError):
        load_population_table(path)

    with pytest.raises(DataError):
        load_population_table(tmp_path / "missing.csv")


def test_load_weight_regimes(tmp_path):
    path = tmp_path / "weights.csv"
    path.write_text(textwrap.dedent("""\
        year,a,b
        1900,0.5,1.0
        1910,0.4,0.9
    """))
    regimes = load_weight_regimes(path)
    assert list(regimes) == ["a", "b"]
    assert regimes["a"].weights == {1900: 0.5, 1910: 0.4}
    assert regimes["b"].weights == {1900: 1.0, 1910: 0.9}


def test_load_weight_regimes_rejects_bad_files(tmp_path):
    path = tmp_path / "weights.csv"
    path.write_text("year,a\n1900,1.5\n")
    with pytest.raises(DataError):
        load_weight_regimes(path)
    path.write_text("year,a,a\n1900,0.5,0.5\n")
    with pytest.raises(DataError):
        load_weight_regimes(path)
    path.write_text("year\n1900\n")
    with pytest.raises(DataError):
        load_weight_regimes(path)


def test_bundled_regimes_have_expected_shape(table, regimes):
    assert list(regimes) == ["w1", "w2", "w3", "w4"]
    for regime in regimes.values():
        assert set(regime.weights) == set(table.years)
    # the blended regime averages the other two non-flat ones
    for year in table.years:
        blended = (regimes["w2"].weights[year] + regimes["w3"].weights[year]) / 2
        assert regimes["w4"].weights[year] == pytest.approx(blended, abs=1e-12)
