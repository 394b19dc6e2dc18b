"""End-to-end reports: composition against the underlying pieces,
ordering guarantees, the truncated-pool bridge, and the simulation oracle.
"""

import collections
import math
import re
from dataclasses import astuple
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from eragreats import (
    DataError,
    DomainError,
    RankedList,
    WeightRegime,
    analyze,
    binomial_tail,
    bridge_check,
    cumulative_proportion,
    sensitivity_matrix,
)
from eragreats.analysis import monte_carlo_oracle
from eragreats.population import _exact_population
from eragreats.rankings import PlayerEntry, count_early
from eragreats import analysis
from oracles import enumerated_tail, exact_population, per_cell_reports, per_pair_bridge


def test_analyze_composes_the_pieces(table, lists_by_name):
    ranked = lists_by_name["bwar"]
    report = analyze(ranked, 10, 1950, table)
    assert report.source == "bwar"
    assert report.depth == 10
    assert report.regime is None
    assert report.early_count == count_early(ranked, 10, 1950)
    assert report.proportion_used == cumulative_proportion(table, 1950)
    assert report.tail_probability == binomial_tail(10, report.early_count, report.proportion_used)
    assert report.chance.probability == report.tail_probability
    assert report.chance.display == "1 in 223"


def test_analyze_with_regime_uses_weighted_share(table, regimes, lists_by_name):
    ranked = lists_by_name["espn"]
    report = analyze(ranked, 25, 1950, table, regimes["w4"])
    assert report.regime == "w4"
    assert report.proportion_used == cumulative_proportion(table, 1950, regime=regimes["w4"])
    assert report.chance.display == "1 in 18"


def test_analyze_against_enumeration_oracle(table, lists_by_name):
    ranked = lists_by_name["espn"]
    report = analyze(ranked, 10, 1950, table)
    expected = enumerated_tail(10, report.early_count, report.proportion_used)
    assert report.tail_probability == pytest.approx(expected, abs=1e-13)


def test_analyze_rejects_out_of_span_careers(table):
    ranked = RankedList("bad", (PlayerEntry(1, "too early", 1850),))
    with pytest.raises(DomainError):
        analyze(ranked, 1, 1950, table)


def test_full_span_cutoff_gives_certainty(table, lists_by_name):
    report = analyze(lists_by_name["ranker"], 10, 2015, table)
    assert report.early_count == 10
    assert report.proportion_used == 1.0
    assert report.tail_probability == 1.0
    assert report.chance.display == "1 in 1"


def test_sensitivity_row_order(table, regimes, ranked_lists):
    reports = sensitivity_matrix(
        ranked_lists, list(regimes.values()), (10, 25), 1950, table
    )
    assert len(reports) == 32
    keys = [(r.regime, r.depth, r.source) for r in reports]
    expected = [
        (regime, depth, source)
        for regime in ("w1", "w2", "w3", "w4")
        for depth in (10, 25)
        for source in ("ranker", "bwar", "fwar", "espn")
    ]
    assert keys == expected


def test_sensitivity_matches_individual_analyze(table, regimes, ranked_lists):
    reports = sensitivity_matrix(ranked_lists[:2], [regimes["w2"]], (10,), 1950, table)
    solo = analyze(ranked_lists[0], 10, 1950, table, regimes["w2"])
    assert reports[0] == solo


def test_sensitivity_rejects_empty_axes(table, regimes, ranked_lists):
    with pytest.raises(DomainError):
        sensitivity_matrix([], [regimes["w1"]], (10,), 1950, table)
    with pytest.raises(DomainError):
        sensitivity_matrix(ranked_lists, [], (10,), 1950, table)
    with pytest.raises(DomainError):
        sensitivity_matrix(ranked_lists, [regimes["w1"]], (), 1950, table)


@pytest.mark.parametrize("case", ["lists", "regimes", "depths", "no depths", "counts", "no counts"])
def test_an_iterator_argument_gives_the_list_forms_outcome(table, regimes, ranked_lists, case):
    # each axis is read once, before its emptiness check
    grid = [ranked_lists, [None, regimes["w1"]], [10, 25], 1950, table]
    bridge = [[(10, 6), (25, 10)], 1999, 1950, table]
    evaluate, args, position = {
        "lists": (sensitivity_matrix, grid, 0),
        "regimes": (sensitivity_matrix, grid, 1),
        "depths": (sensitivity_matrix, grid, 2),
        "no depths": (sensitivity_matrix, [*grid[:2], [], *grid[3:]], 2),
        "counts": (bridge_check, bridge, 0),
        "no counts": (bridge_check, [[], *bridge[1:]], 0),
    }[case]
    expected = outcome(evaluate, *args)
    args[position] = iter(args[position])
    assert outcome(evaluate, *args) == expected


def test_reports_are_self_consistent(table, regimes, ranked_lists):
    reports = sensitivity_matrix(
        ranked_lists, list(regimes.values()), (10, 25), 1950, table
    )
    for report in reports:
        assert 0 <= report.early_count <= report.depth
        assert 0.0 < report.proportion_used < 1.0
        assert 0.0 < report.tail_probability <= 1.0
        assert report.chance.probability == report.tail_probability
        assert report.chance.display.startswith("1 in ")


# -------------------------------------------------------- grid evaluator

def bits(value):
    """``value`` with every float as ``float.hex``, so equal is bit for bit."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    return value


def outcome(evaluate, *args):
    """Every field of every report, or the class and text of the error."""
    try:
        return [bits(astuple(report)) for report in evaluate(*args)]
    except (DataError, DomainError) as exc:
        return type(exc), str(exc)


def faulty_regimes(table, regimes):
    """A regime missing the table's first year, and one of zero weights."""
    short = {year: w for year, w in regimes["w1"].weights.items() if year != table.years[0]}
    return {"short": WeightRegime("short", short),
            "zero": WeightRegime("zero", dict.fromkeys(table.years, 0.0))}


@settings(max_examples=200)
@given(data=st.data())
def test_grid_matches_per_cell_loop(table, regimes, data):
    # inputs mostly valid, each axis with its own way to fail: a stray
    # start year, a depth past a list's length, a faulty regime, a cutoff
    # at or past the span's ends
    years = st.integers(table.first_year + 1, table.final_year)
    starts = data.draw(st.lists(st.lists(years, min_size=3, max_size=6), min_size=1, max_size=3))
    stray = data.draw(st.sampled_from([None, None, None, table.first_year, table.final_year + 1]))
    if stray is not None:
        starts[data.draw(st.integers(0, len(starts) - 1))][-1] = stray
    lists = [
        RankedList(f"l{j}", tuple(PlayerEntry(r, f"p{r}", y) for r, y in enumerate(s, 1)))
        for j, s in enumerate(starts)
    ]
    choices = {"unweighted": None, **regimes, **faulty_regimes(table, regimes)}
    names = data.draw(st.lists(st.sampled_from(list(choices)), min_size=1, max_size=3))
    depths = data.draw(st.lists(st.sampled_from([1, 2, 3, 3, 7]), min_size=1, max_size=3))
    outside = st.sampled_from([table.first_year, table.final_year + 1])
    cutoff = data.draw(st.one_of(years, years, years, outside))
    args = (lists, [choices[name] for name in names], depths, cutoff, table)
    assert outcome(sensitivity_matrix, *args) == outcome(per_cell_reports, *args)


def test_grid_matches_per_cell_loop_on_distinct_counts_in_each_group(table, regimes):
    # every (regime, depth) group holds three distinct early counts, none
    # settled by a cheap return, so each cell's tail must be its own
    # count's and not another count's of the same group
    starts = {"a": [1900, 1900, 1900, 1990, 1990],
              "b": [1900, 1990, 1990, 1900, 1990],
              "c": [1900, 1900, 1990, 1900, 1900]}
    lists = [
        RankedList(source, tuple(PlayerEntry(r, f"p{r}", y) for r, y in enumerate(years, 1)))
        for source, years in starts.items()
    ]
    args = (lists, [regimes["w1"], regimes["w2"]], [3, 5], 1950, table)
    got = outcome(sensitivity_matrix, *args)
    assert [cell[2] for cell in got] == [3, 1, 2, 3, 2, 4] * 2
    assert got == outcome(per_cell_reports, *args)


@pytest.mark.parametrize("late_list", range(3))
@pytest.mark.parametrize("short_regime", range(3))
@pytest.mark.parametrize("deep_depth", range(2))
def test_grid_raises_the_per_cell_loops_first_error(
    table, regimes, ranked_lists, late_list, short_regime, deep_depth
):
    # an out-of-span player, a regime that does not match the table and a
    # depth past the lists' length, each planted at one position
    lists = list(ranked_lists[:3])
    ranked = lists[late_list]
    stray = PlayerEntry(len(ranked), "Stray Player", table.first_year)
    lists[late_list] = RankedList(ranked.source, ranked.entries[:-1] + (stray,))
    chosen = [regimes["w1"], regimes["w2"], regimes["w3"]]
    chosen[short_regime] = faulty_regimes(table, regimes)["short"]
    depths = [10, 25]
    depths[deep_depth] = 26
    args = (lists, chosen, depths, 1950, table)
    expected = outcome(per_cell_reports, *args)
    assert expected[0] in (DataError, DomainError)
    assert outcome(sensitivity_matrix, *args) == expected
    first_cell = (lists[0], depths[0], 1950, table, chosen[0])
    assert outcome(lambda *cell: [analyze(*cell)], *first_cell) == outcome(
        per_cell_reports, lists[:1], chosen[:1], depths[:1], 1950, table
    )


@pytest.mark.parametrize("fault", ["short", "stray"])
@pytest.mark.parametrize("weighted", [False, True])
def test_grid_checks_a_cells_tail_before_the_next_list(table, regimes, fault, weighted):
    # depth 1001 is a valid count for the long list and past the tail's
    # MAX_TRIALS: its first cell must fail there, before the faulty list's
    # span check or count runs
    years = range(table.first_year + 1, table.final_year + 1)
    long = RankedList("long", tuple(
        PlayerEntry(r, f"p{r}", years[r % len(years)]) for r in range(1, 1002)))
    entries = [PlayerEntry(1, "a", 1900), PlayerEntry(2, "b", 1960)]
    if fault == "stray":
        entries += [PlayerEntry(3, "c", table.first_year)]
    args = ([long, RankedList("other", tuple(entries))],
            [regimes["w2"] if weighted else None], [1001], 1950, table)
    expected = outcome(per_cell_reports, *args)
    assert expected == (DomainError, "n must be in [1, 1000], got 1001")
    assert outcome(sensitivity_matrix, *args) == expected


# --------------------------------------------------------------- bridge

def test_bridge_uses_prorated_pool_ratio(table):
    reports = bridge_check([(10, 6), (25, 10)], 1999, 1950, table)
    total, scale = _exact_population(table, None, 1999)
    pool = total / scale
    assert pool == pytest.approx(179.46 + 0.9 * 60.66, rel=1e-12)
    # one correctly rounded ratio of the exact totals, not of rounded ones
    exact = exact_population(table, 1950) / exact_population(table, 1999)
    for report in reports:
        assert report.proportion_used == float(exact)
    assert f"{reports[0].proportion_used:.4f}" == "0.2784"
    assert [r.chance.display for r in reports] == ["1 in 30", "1 in 7.7"]
    assert [r.early_count for r in reports] == [6, 10]
    assert [r.source for r in reports] == ["external", "external"]


def test_bridge_with_pool_at_final_year_matches_plain_share(table, lists_by_name):
    reports = bridge_check([(10, 6)], 2015, 1950, table)
    assert reports[0].proportion_used == cumulative_proportion(table, 1950)
    plain = analyze(lists_by_name["bwar"], 10, 1950, table)
    assert reports[0].tail_probability == plain.tail_probability
    assert reports[0].chance.display == plain.chance.display


def test_bridge_validates_inputs(table):
    with pytest.raises(DomainError):
        bridge_check([(10, 6)], 1950, 1999, table)
    with pytest.raises(DomainError):
        bridge_check([], 1999, 1950, table)
    with pytest.raises(DomainError):
        bridge_check([(10, 11)], 1999, 1950, table)
    with pytest.raises(DomainError):
        bridge_check([(10, 6)], 2300, 1950, table)
    for cutoff in ("1999", 1999.0):
        with pytest.raises(DomainError):
            bridge_check([(10, 6)], cutoff, 1950, table)
        with pytest.raises(DomainError):
            bridge_check([(10, 6)], 1999, cutoff, table)


def bridge_pairs():
    """(depth, count) pairs, mostly valid, some with a depth past
    MAX_TRIALS, a count past the depth or a negative count."""
    valid = st.integers(1, 1000).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n)))
    deep = st.tuples(st.just(1001), st.integers(0, 1001))
    high = st.integers(1, 1000).flatmap(lambda n: st.tuples(st.just(n), st.integers(n + 1, n + 3)))
    low = st.tuples(st.integers(1, 1000), st.integers(-3, -1))
    return st.lists(st.one_of(valid, valid, valid, deep, high, low), min_size=1, max_size=5)


@settings(max_examples=100)
@given(pairs=bridge_pairs(), data=st.data())
def test_bridge_matches_per_pair_reports(table, pairs, data):
    era = data.draw(st.integers(table.first_year + 1, table.final_year))
    pool = data.draw(st.integers(era, table.final_year))
    args = (pairs, pool, era, table)
    assert outcome(bridge_check, *args) == outcome(per_pair_bridge, *args)


@pytest.mark.parametrize("pairs, message", [
    ([(10, 6), (1001, 3), (10, 11)], "n must be in [1, 1000], got 1001"),
    ([(10, 6), (10, 11), (1001, 3)], "k_min must be in [0, 10], got 11"),
    ([(10, -1), (1001, 3)], "k_min must be in [0, 10], got -1"),
    # a bool or float equal to an earlier valid pair's int
    ([(1, 1), (True, 1)], "n must be an integer, got True"),
    ([(10, 6), (10.0, 6)], "n must be an integer, got 10.0"),
    ([(10, 6), (10, 6.0)], "k_min must be an integer, got 6.0"),
])
def test_bridge_raises_the_first_faulty_pairs_error(table, pairs, message):
    args = (pairs, 1999, 1950, table)
    assert outcome(bridge_check, *args) == outcome(per_pair_bridge, *args) == (DomainError, message)


def positive_finite(value):
    """True for a finite value whose sign bit is clear: +0.0 is, -0.0 is not."""
    return math.isfinite(value) and math.copysign(1.0, value) == 1.0


@settings(max_examples=100)
@given(data=st.data())
def test_report_shares_and_tails_are_finite_and_never_negative_zero(table, data):
    # the CLI renders each distinct share and tail once, keyed on its float
    # value, which is exact only without NaN, infinities and -0.0; weights
    # of -0.0 and 0.0 give shares and tails of zero
    weight = st.sampled_from([0.0, -0.0, 5e-324, 1.0]) | st.floats(0, 1)
    weights = {year: data.draw(weight) for year in table.years}
    assume(any(weights.values()))
    years = st.integers(table.first_year + 1, table.final_year)
    starts = data.draw(st.lists(st.lists(years, min_size=4, max_size=8), min_size=1, max_size=3))
    lists = [
        RankedList(f"l{j}", tuple(PlayerEntry(r, f"p{r}", y) for r, y in enumerate(s, 1)))
        for j, s in enumerate(starts)
    ]
    depths = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    cutoff = data.draw(years)
    reports = sensitivity_matrix(
        lists, [None, WeightRegime("drawn", weights)], depths, cutoff, table
    )
    pair = st.integers(1, 1000).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n)))
    era = data.draw(years)
    pool = data.draw(st.integers(era, table.final_year))
    reports += bridge_check(data.draw(st.lists(pair, min_size=1, max_size=3)), pool, era, table)
    for report in reports:
        assert positive_finite(report.proportion_used), report
        assert positive_finite(report.tail_probability), report


# ------------------------------------------------------- grid steps

@pytest.fixture
def grid_step_calls(monkeypatch):
    """The calls of each step a grid runs, by name; analysis looks them up
    as module globals."""
    calls = collections.Counter()

    def counting(name, step):
        def counted(*args, **kwargs):
            calls[name] += 1
            return step(*args, **kwargs)
        return counted

    for name in ("_check_span", "cumulative_proportion", "count_early"):
        monkeypatch.setattr(analysis, name, counting(name, getattr(analysis, name)))
    return calls


def test_grid_and_bridge_match_their_oracles_cold_and_warm(
    table, regimes, ranked_lists, monkeypatch, grid_step_calls
):
    # nothing is kept between calls: a grid takes one tail per distinct
    # (depth, count, share) and checks and counts every cell, and a bridge
    # takes one tail per pair, in order, repeated pairs too; analysis looks
    # binomial_tail up as a module global, which is also what the benchmark
    # tracer wraps
    calls = []

    def counting(n, k, p):
        calls.append(bits((n, k, p)))
        return binomial_tail(n, k, p)

    monkeypatch.setattr(analysis, "binomial_tail", counting)
    grid = (ranked_lists, [None, regimes["w1"], regimes["w3"]], [10, 25], 1950, table)
    bridge = ([(10, 6), (25, 10), (10, 6), (25, 0)], 1999, 1950, table)
    for evaluate, oracle, args in ((sensitivity_matrix, per_cell_reports, grid),
                                   (bridge_check, per_pair_bridge, bridge)):
        expected = outcome(oracle, *args)
        tails = [(depth, count, share) for _, depth, count, share, *_ in expected]
        assert len(set(tails)) < len(tails)
        for _ in range(2):
            calls.clear()
            grid_step_calls.clear()
            assert outcome(evaluate, *args) == expected
            if evaluate is bridge_check:
                assert calls == tails
            else:
                assert sorted(calls) == sorted(set(tails))
                # 3 regimes x 2 depths x 4 lists of spans and counts, one share
                # per regime
                assert grid_step_calls == {"_check_span": 24, "cumulative_proportion": 3,
                                           "count_early": 24}
    # every grid group mixes distinct counts, some of them repeated
    groups = {}
    for _, depth, count, share, *_ in outcome(per_cell_reports, *grid):
        groups.setdefault((depth, share), []).append(count)
    assert len(groups) == 6
    assert all(1 < len(set(counts)) < len(counts) for counts in groups.values())


def test_editing_a_result_does_not_reach_a_later_one(table, regimes, ranked_lists):
    args = (ranked_lists, [regimes["w2"]], [10], 1950, table)
    expected = outcome(per_cell_reports, *args)
    first = sensitivity_matrix(*args)
    first.reverse()
    first.append(first[0])
    first[0] = None
    assert outcome(sensitivity_matrix, *args) == expected
    reports = bridge_check([(10, 6)], 1999, 1950, table)
    reports.clear()
    assert outcome(bridge_check, [(10, 6)], 1999, 1950, table) == outcome(
        per_pair_bridge, [(10, 6)], 1999, 1950, table)


def test_a_regime_of_the_same_name_gets_its_own_share(table, regimes, ranked_lists):
    impostor = WeightRegime("w1", {year: 1.0 - w for year, w in regimes["w1"].weights.items()})
    for regime in (regimes["w1"], impostor):
        args = (ranked_lists, [regime], [10, 25], 1950, table)
        assert outcome(sensitivity_matrix, *args) == outcome(per_cell_reports, *args)
    shares = {analyze(ranked_lists[0], 10, 1950, table, regime).proportion_used
              for regime in (regimes["w1"], impostor)}
    assert len(shares) == 2


def test_an_error_is_raised_again_on_every_call(table, ranked_lists):
    years = range(table.first_year + 1, table.final_year + 1)
    long = RankedList("long", tuple(
        PlayerEntry(r, f"p{r}", years[r % len(years)]) for r in range(1, 1002)))
    for _ in range(2):
        assert outcome(sensitivity_matrix, [long], [None], [1001], 1950, table) == (
            DomainError, "n must be in [1, 1000], got 1001")
        assert outcome(bridge_check, [(10, 6), (1001, 3)], 1999, 1950, table) == (
            DomainError, "n must be in [1, 1000], got 1001")


@pytest.mark.parametrize("depths, cutoff, error", [
    ([True], 1950, "depth must be an integer, got True"),
    ([10.0], 1950, "depth must be an integer, got 10.0"),
    ([10], 1950.0, "cutoff year must be an integer, got 1950.0"),
    # the equal int depth runs first in the same call
    ([1, True], 1950, "depth must be an integer, got True"),
    ([10, 10.0], 1950, "depth must be an integer, got 10.0"),
])
def test_an_equal_non_int_does_not_find_a_kept_grid(table, ranked_lists, depths, cutoff, error):
    # True == 1 and 1950.0 == 1950 hash alike, but a grid refuses both,
    # also after the equal int grid has run
    args = (ranked_lists, [None], depths, cutoff, table)
    int_args = (ranked_lists, [None], [int(depth) for depth in depths], int(cutoff), table)
    assert outcome(sensitivity_matrix, *args) == (DomainError, error)
    assert outcome(sensitivity_matrix, *int_args) == outcome(per_cell_reports, *int_args)
    assert outcome(sensitivity_matrix, *args) == (DomainError, error)


def test_a_grid_whose_call_raised_is_not_kept(table, regimes, ranked_lists, monkeypatch):
    args = (ranked_lists, [None, regimes["w1"]], [10, 25], 1950, table)
    expected = outcome(per_cell_reports, *args)
    share = analysis.cumulative_proportion

    def failing(table, cutoff_year, regime=None):
        if regime is not None:
            raise DomainError("weighted share failed")
        return share(table, cutoff_year, regime=regime)

    with monkeypatch.context() as patch:
        patch.setattr(analysis, "cumulative_proportion", failing)
        for _ in range(2):
            assert outcome(sensitivity_matrix, *args) == (DomainError, "weighted share failed")
    # the fault removed, the same objects give their reports
    assert outcome(sensitivity_matrix, *args) == expected
    # a fault of the inputs themselves is raised on every call
    deep = (ranked_lists, [None], [26], 1950, table)
    assert outcome(per_cell_reports, *deep)[0] is DomainError
    for _ in range(2):
        assert outcome(sensitivity_matrix, *deep) == outcome(per_cell_reports, *deep)


def reference_check_span(ranked, table):
    """The span check as one walk over the entries."""
    for entry in ranked.entries:
        if not table.first_year < entry.career_start_year <= table.final_year:
            raise DomainError(
                f"{entry.name!r} starts in {entry.career_start_year}, outside the "
                f"covered span ({table.first_year}, {table.final_year}]"
            )
    return []


@pytest.mark.parametrize("years", [
    [1871, 2015, 1950],
    [1950, 1870, 2016],
    [1950, 2016, 1870],
    [1950.5, 1871.0],
    [1950, math.nan, 1960],
    [1950, 1960, math.nan],
])
def test_span_check_names_the_first_entry_outside(table, years):
    ranked = RankedList("l", tuple(PlayerEntry(r, f"p{r}", y) for r, y in enumerate(years, 1)))
    assert outcome(lambda: analysis._check_span(ranked, table) or []) == outcome(
        reference_check_span, ranked, table)


# ---------------------------------------------------------- monte carlo

def test_oracle_is_deterministic_per_seed():
    first = monte_carlo_oracle(10, 0.18696, 20_000, 7)
    second = monte_carlo_oracle(10, 0.18696, 20_000, 7)
    other = monte_carlo_oracle(10, 0.18696, 20_000, 8)
    assert np.array_equal(first, second)
    assert not np.array_equal(first, other)


def test_oracle_estimates_every_tail_at_once():
    estimates = monte_carlo_oracle(10, 0.18696, 200_000, 3)
    assert estimates.shape == (11,)
    assert estimates[0] == 1.0
    assert np.all(np.diff(estimates) <= 0)
    for k in (1, 4, 6):
        exact = binomial_tail(10, k, 0.18696)
        scale = max(np.sqrt(exact * (1 - exact) / 200_000), 1e-9)
        assert abs(float(estimates[k]) - exact) <= 5 * scale


def test_oracle_degenerate_probabilities():
    zeros = monte_carlo_oracle(5, 0.0, 1000, 0)
    assert list(zeros) == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    ones = monte_carlo_oracle(5, 1.0, 1000, 0)
    assert list(ones) == [1.0] * 6


def test_oracle_validates_inputs():
    with pytest.raises(DomainError):
        monte_carlo_oracle(0, 0.5, 100, 0)
    with pytest.raises(DomainError):
        monte_carlo_oracle(5, 1.5, 100, 0)
    with pytest.raises(DomainError):
        monte_carlo_oracle(5, 0.5, 0, 0)
    with pytest.raises(DomainError):
        monte_carlo_oracle(5, 0.5, 10**8 + 1, 0)
    # p is compared exactly, never converted to a float that overflows
    for p in (float("nan"), Decimal("NaN"), 10**400):
        with pytest.raises(DomainError, match=f"^{re.escape(f'p must be in [0, 1], got {p!r}')}$"):
            monte_carlo_oracle(10, p, 100, 0)


@pytest.mark.parametrize("depth, p, trials, seed", [
    (10, 0.18696, 10**6, 0), (1000, 0.97, 200_001, 9), (5, 0.0, 70_000, 1), (200, 0.5, 65_536, 3),
])
def test_oracle_draws_in_chunks_as_in_one_call(depth, p, trials, seed):
    draws = np.random.default_rng(seed).binomial(depth, p, size=trials)
    at_least = np.bincount(draws, minlength=depth + 1)[::-1].cumsum()[::-1]
    assert np.array_equal(monte_carlo_oracle(depth, p, trials, seed), at_least / trials)


@given(
    depth=st.integers(1, 8),
    p=st.floats(0.05, 0.95, allow_nan=False),
    seed=st.integers(0, 2**32 - 1),
)
def test_oracle_tracks_exact_tails(depth, p, seed):
    trials = 40_000
    estimates = monte_carlo_oracle(depth, p, trials, seed)
    for k in range(depth + 1):
        exact = binomial_tail(depth, k, p)
        tolerance = 6 * max(np.sqrt(exact * (1 - exact) / trials), 1e-4)
        assert abs(float(estimates[k]) - exact) <= tolerance
