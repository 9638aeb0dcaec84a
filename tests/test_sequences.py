from fractions import Fraction
from math import factorial

import pytest
from cauchy import fold

from excedance import claims, cli, exact, permutations, sequences, series
from excedance.permutations import alternating_counts, eulerian_rows
from excedance.sequences import (
    alternating_sums,
    bernoullis,
    genocchis,
    tangents,
    tangents_by_bernoulli,
    tangents_by_tanh,
)
from excedance.series import bernoulli_series, genocchi_series

TANGENT_KNOWN = {1: 1, 3: 2, 5: 16, 7: 272, 9: 7936, 11: 353792}

GENOCCHI_KNOWN = [1, -1, 0, 1, 0, -3, 0, 17, 0, -155, 0, 2073]

# Rows 0..12 of the Eulerian triangle, from one prefix: row n is length n.
ROWS = list(eulerian_rows(13))


def test_eulerian_rows_small():
    assert list(eulerian_rows(0)) == []
    assert ROWS[:5] == [[1], [1], [1, 1], [1, 4, 1], [1, 11, 11, 1]]


def test_each_eulerian_row_is_the_last_row_of_its_prefix_to_12():
    assert len(ROWS) == 13
    for n in range(13):
        assert ROWS[n] == list(eulerian_rows(n + 1))[-1]


def test_eulerian_row_sums_are_factorials():
    total = 1
    for n in range(1, 11):
        total *= n
        assert sum(ROWS[n]) == total


def test_eulerian_row_5_folded_at_four_points():
    # Row 5 folded at t; at t = 2 it is the Fubini number 541.
    assert ROWS[5] == [1, 26, 66, 26, 1]
    points = (1, -1, 2, Fraction(1, 3))
    assert [fold(ROWS[5], t) for t in points] == [120, 16, 541, Fraction(1456, 81)]


def test_bernoulli_values():
    b = bernoullis(11)
    assert b[0] == 1
    assert b[1] == Fraction(-1, 2)
    assert b[2] == Fraction(1, 6)
    assert b[4] == Fraction(-1, 30)
    assert b[10] == Fraction(5, 66)


def test_bernoulli_recurrence_matches_series_to_64():
    b = bernoulli_series(64)
    assert bernoullis(65) == [factorial(n) * b[n] for n in range(65)]


def test_bernoulli_odd_indices_vanish():
    b = bernoullis(22)
    for n in range(3, 22, 2):
        assert b[n] == 0


def test_tangent_three_routes_agree_to_11():
    routes = zip(range(1, 12, 2), tangents(6), tangents_by_bernoulli(6), tangents_by_tanh(6),
                 alternating_counts(12)[1::2], strict=True)
    for m, i, b, s, c in routes:
        assert i == b == s == c == TANGENT_KNOWN[m]


def test_tangent_two_routes_agree_to_25():
    assert tangents(13) == tangents_by_bernoulli(13) == tangents_by_tanh(13)


def test_tangent_values_positive():
    assert all(value > 0 for value in tangents(13))


def test_tangent_rational_intermediates_are_integral():
    for route in (tangents_by_bernoulli, tangents_by_tanh):
        values = route(13)
        assert len(values) == 13 and all(v.denominator == 1 for v in values)


def test_tangent_and_counting_routes_agree_at_13():
    assert alternating_counts(14)[13] == tangents(7)[-1] == 22368256


def test_genocchis_match_bernoulli_to_500():
    # G_n = 2(1 - 2^n) B_n ties the tangent prefix route to the Bernoulli
    # recurrence.
    b = bernoullis(501)
    assert genocchis(500) == [2 * (1 - 2**n) * b[n] for n in range(1, 501)]


def test_genocchis_match_the_egf_series_to_64():
    g = genocchi_series(64)
    assert genocchis(64) == [factorial(n) * g[n] for n in range(1, 65)]


def test_genocchis_do_no_series_division(monkeypatch):
    def divide(num, den):
        raise AssertionError("genocchis divided a series")

    monkeypatch.setattr(series, "_divide", divide)
    genocchis(500)


def test_genocchi_values():
    assert genocchis(12) == GENOCCHI_KNOWN
    assert genocchis(6)[-1] == -3


def test_genocchi_odd_indices_vanish():
    values = genocchis(16)
    for n in range(3, 17, 2):
        assert values[n - 1] == 0


def test_genocchi_integrality_to_16():
    g = genocchi_series(16)
    for n in range(1, 17):
        assert (factorial(n) * g[n]).denominator == 1


def test_alternating_sum_closed_form():
    assert alternating_sums(9) == [1, 1, 0, -2, 0, 16, 0, -272, 0]


def test_alternating_sums_are_the_eulerian_rows_folded_at_minus_one():
    # Past the oracle, the closed form against every tally row to 64.
    rows = list(eulerian_rows(65))
    for n, value in enumerate(alternating_sums(65)):
        assert value == fold(rows[n], -1), n


def test_alternating_sum_signs_track_tangent():
    sums = alternating_sums(14)
    for n, t in zip(range(1, 14, 2), tangents(7)):
        assert sums[n] == (-1) ** ((n - 1) // 2) * t


def test_sequence_prefix_values_and_indices():
    # altsum and bernoulli start at index 0, genocchi at 1, and tangent runs
    # over the odd indices 1, 3, ..., 2*count-1.
    assert alternating_sums(5) == [1, 1, 0, -2, 0]
    assert tangents(4) == [1, 2, 16, 272]
    assert genocchis(3) == [1, -1, 0]
    assert bernoullis(3) == [1, Fraction(-1, 2), Fraction(1, 6)]


@pytest.mark.parametrize("count", [0, 1, 2, 37])
def test_each_prefix_has_count_values_and_extends_to_longer_ones(count):
    # Each prefix, tangent routes and the Eulerian rows included, gives its
    # first count values, and every shorter prefix is a prefix of a longer
    # one.  Most start at index 0, but genocchis starts at G_1 and the
    # tangent prefixes hold T(1), T(3), ..., the odd indices only.
    # eulerian_rows is a generator, so each is read through list.
    for prefix in (bernoullis, tangents, tangents_by_bernoulli, tangents_by_tanh,
                   alternating_counts, genocchis, alternating_sums, eulerian_rows):
        values = list(prefix(count))
        assert len(values) == count
        assert list(prefix(count + 3))[:count] == values


# The constant tables, the only module-level lists, dicts or sets in src/.
TABLES = {claims: ["CLAIMS"], cli: ["SEQUENCES", "SERIES", "COMMANDS"]}


@pytest.mark.parametrize("module", [sequences, series, claims, cli, exact, permutations],
                         ids=lambda m: m.__name__)
def test_no_module_level_lists(module):
    # Sequences and series are computed per request, so no module keeps a
    # memo; the claim registry and the CLI's name and command tables are constant.
    stores = [
        name for name, value in vars(module).items()
        if isinstance(value, (list, dict, set)) and not name.startswith("__")
    ]
    assert stores == TABLES.get(module, [])


def test_sequence_prefixes_reject_a_negative_count():
    # eulerian_rows returns a generator, and refuses on the call itself,
    # before any row is asked for.
    for prefix in (tangents, bernoullis, genocchis, alternating_sums, eulerian_rows,
                   tangents_by_bernoulli, tangents_by_tanh, alternating_counts):
        with pytest.raises(ValueError, match="count must be >= 0, got -1"):
            prefix(-1)
