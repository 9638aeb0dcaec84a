from fractions import Fraction

import pytest

from excedance import claims, permutations, sequences
from excedance.permutations import (
    alternating_sum_bruteforce,
    eulerian_poly_bruteforce,
    excedance_distribution,
)
from excedance.sequences import (
    alternating_sum,
    alternating_sums,
    bernoulli,
    bernoullis,
    eulerian_numbers,
    eulerian_rows,
    genocchi,
    genocchi_value,
    genocchis,
    tangent,
    tangent_bernoulli_value,
    tangent_series_value,
    tangents,
)
from excedance.series import bernoulli_series, egf_coeff

TANGENT_KNOWN = {1: 1, 3: 2, 5: 16, 7: 272, 9: 7936, 11: 353792}

GENOCCHI_KNOWN = [1, -1, 0, 1, 0, -3, 0, 17, 0, -155, 0, 2073]


def test_eulerian_rows_small():
    assert eulerian_numbers(0) == []
    assert eulerian_numbers(1) == [1]
    assert eulerian_numbers(3) == [1, 4, 1]
    assert eulerian_numbers(4) == [1, 11, 11, 1]


def test_eulerian_rows_numbers_and_tally_agree_to_12():
    rows = list(eulerian_rows(12))
    assert len(rows) == 12
    for n in range(1, 13):
        assert rows[n - 1] == eulerian_numbers(n) == list(permutations._excedance_tally(n)[:n])


def test_eulerian_rows_match_bruteforce_to_8():
    for n in range(1, 9):
        assert eulerian_numbers(n) == excedance_distribution(n)


def test_eulerian_row_sums_are_factorials():
    total = 1
    for n in range(1, 11):
        total *= n
        assert sum(eulerian_numbers(n)) == total


def test_eulerian_poly_at_values():
    assert eulerian_poly_bruteforce(5, 1) == 120
    assert eulerian_poly_bruteforce(5, -1) == 16
    assert eulerian_poly_bruteforce(0, 7) == 1
    # 1 - 26 + 66 - 26 + 1 from the fifth row
    assert sum((-1) ** k * c for k, c in enumerate(eulerian_numbers(5))) == 16
    for t in (1, -1, 2, Fraction(1, 3)):
        row_value = sum(c * t**k for k, c in enumerate(eulerian_numbers(5)))
        assert eulerian_poly_bruteforce(5, t) == row_value


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(10) == Fraction(5, 66)


def test_bernoulli_recurrence_matches_series_to_64():
    b = bernoulli_series(64)
    for n in range(65):
        assert bernoulli(n) == egf_coeff(b, n)


def test_bernoulli_odd_indices_vanish():
    for n in range(3, 22, 2):
        assert bernoulli(n) == 0


def test_tangent_three_routes_agree_to_11():
    for m in range(1, 12, 2):
        i = tangent(m, "integer")
        b = tangent(m, "bernoulli")
        s = tangent(m, "series")
        c = tangent(m, "counting")
        assert i == b == s == c == TANGENT_KNOWN[m]


def test_tangent_two_routes_agree_to_25():
    for m in range(1, 26, 2):
        assert tangent(m, "integer") == tangent(m, "bernoulli") == tangent(m, "series")


def test_tangent_values_positive():
    for m in range(1, 26, 2):
        assert tangent(m) > 0


def test_tangent_rational_intermediates_are_integral():
    for m in range(1, 26, 2):
        assert tangent_bernoulli_value(m).denominator == 1
        assert tangent_series_value(m).denominator == 1


def test_tangent_rejects_even_or_bad_route():
    with pytest.raises(ValueError):
        tangent(4)
    with pytest.raises(ValueError):
        tangent(0)
    with pytest.raises(ValueError):
        tangent(3, "guess")
    assert tangent(13, "counting") == tangent(13) == 22368256


def test_genocchi_matches_bernoulli_to_150():
    # G_n = 2(1 - 2^n) B_n ties the egf series route to the recurrence.
    for n in range(1, 151):
        assert genocchi(n) == 2 * (1 - 2**n) * bernoulli(n)


def test_genocchi_values():
    assert [genocchi(n) for n in range(1, 13)] == GENOCCHI_KNOWN
    assert genocchi(6) == -3


def test_genocchi_odd_indices_vanish():
    for n in range(3, 17, 2):
        assert genocchi(n) == 0


def test_genocchi_integrality_to_16():
    for n in range(1, 17):
        assert genocchi_value(n).denominator == 1


def test_alternating_sum_closed_form():
    assert alternating_sum(0) == 1
    assert alternating_sum(4) == 0
    assert alternating_sum(3) == -2
    assert [alternating_sum(n) for n in range(9)] == [1, 1, 0, -2, 0, 16, 0, -272, 0]


def test_alternating_sum_matches_bruteforce_to_8():
    for n in range(9):
        assert alternating_sum(n) == alternating_sum_bruteforce(n)


def test_alternating_sum_signs_track_tangent():
    for n in range(1, 14, 2):
        expected = (-1) ** ((n - 1) // 2) * tangent(n)
        assert alternating_sum(n) == expected


def test_sequence_prefix_values_and_indices():
    # altsum and bernoulli start at index 0, genocchi at 1, and tangent runs
    # over the odd indices 1, 3, ..., 2*count-1.
    assert alternating_sums(5) == [1, 1, 0, -2, 0]
    assert alternating_sums(5) == [alternating_sum(n) for n in range(5)]
    assert tangents(4) == [1, 2, 16, 272]
    assert tangents(4) == [tangent(m) for m in (1, 3, 5, 7)]
    assert genocchis(3) == [1, -1, 0]
    assert genocchis(3) == [genocchi(n) for n in (1, 2, 3)]
    assert bernoullis(3) == [1, Fraction(-1, 2), Fraction(1, 6)]


@pytest.mark.parametrize("count", [0, 1, 2, 37])
def test_sequence_tables_match_their_scalars(count):
    # Each prefix computes its values at once, each scalar reads one index.
    prefixes = {
        tangents: lambda i: tangent(2 * i + 1),
        bernoullis: bernoulli,
        genocchis: lambda i: genocchi(i + 1),
        alternating_sums: alternating_sum,
    }
    for prefix, scalar in prefixes.items():
        values = prefix(count)
        assert len(values) == count
        assert values == [scalar(i) for i in range(count)]


@pytest.mark.parametrize("module", [sequences, claims], ids=lambda m: m.__name__)
def test_no_module_level_lists(module):
    # Sequences are computed per request; the only memo is in series.
    stores = [
        name for name, value in vars(module).items()
        if isinstance(value, list) and not name.startswith("__")
    ]
    assert stores == []


def test_sequence_prefixes_reject_a_negative_count():
    for prefix in (tangents, bernoullis, genocchis, alternating_sums):
        with pytest.raises(ValueError, match="count must be >= 0, got -1"):
            prefix(-1)
