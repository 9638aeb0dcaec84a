import itertools
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest
from cauchy import in_powers_of_t

from excedance.claims import verify_all
from excedance.exact import GuardError
from excedance.permutations import (
    alternating_counts,
    enumerate_permutations,
    eulerian_rows,
    excedance_count,
    excedance_distribution,
    is_alternating_up_down,
)
from excedance.sequences import tangents
from excedance.series import phi_polynomials


def at(row, t):
    """The tally row folded at t: the sum of t^exc over its permutations."""
    return sum(c * t**k for k, c in enumerate(row))


def test_permutation_validates_bijection():
    for good in ((), (1,), (2, 4, 1, 3)):
        excedance_count(good)
        is_alternating_up_down(good)
    for bad in ((0, 1), (1, 1), (2, 3), (1, 2, 4)):
        with pytest.raises(ValueError, match="not a bijection"):
            excedance_count(bad)
        with pytest.raises(ValueError, match="not a bijection"):
            is_alternating_up_down(bad)


@pytest.mark.parametrize(
    "images, expected",
    [((2, 4, 1, 3), 2), ((1, 2, 3, 4), 0), ((2, 3, 1), 2), ((), 0), ((1,), 0)],
)
def test_excedance_count(images, expected):
    assert excedance_count(images) == expected


@pytest.mark.parametrize(
    "images, expected",
    [
        ((1, 3, 2), True),
        ((1, 2, 3), False),
        ((2, 3, 1), True),
        ((), True),
        ((1,), True),
        ((2, 1), False),
        ((1, 3, 4, 2), False),
    ],
)
def test_is_alternating_up_down(images, expected):
    assert is_alternating_up_down(images) is expected


def test_enumerate_small_groups():
    assert list(enumerate_permutations(0)) == [()]
    assert list(enumerate_permutations(1)) == [(1,)]
    three = list(enumerate_permutations(3))
    assert len(three) == 6
    assert three[0] == (1, 2, 3)
    assert three[-1] == (3, 2, 1)
    assert three == sorted(three)  # lexicographic


def test_enumeration_yields_each_element_once():
    for n in range(0, 7):
        seen = set()
        for p in enumerate_permutations(n):
            assert sorted(p) == list(range(1, n + 1))
            seen.add(p)
        assert len(seen) == len(list(itertools.permutations(range(n))))


def test_enumeration_bijection_invariant_to_8():
    for n in (7, 8):
        count = 0
        target = list(range(1, n + 1))
        for p in enumerate_permutations(n):
            assert sorted(p) == target
            count += 1
        assert count == factorial(n)


def test_enumeration_is_deterministic():
    first = list(enumerate_permutations(5))
    second = list(enumerate_permutations(5))
    assert first == second


def test_guard_refuses_then_can_be_raised():
    with pytest.raises(GuardError):
        enumerate_permutations(13)
    assert sum(excedance_distribution(13)) == factorial(13)


def test_negative_length_rejected():
    with pytest.raises(ValueError):
        excedance_distribution(-1)


def test_distribution_small_cases():
    # The one permutation of length 0 has no excedances.
    assert excedance_distribution(0) == [1]
    assert excedance_distribution(1) == [1]
    assert excedance_distribution(2) == [1, 1]
    assert excedance_distribution(3) == [1, 4, 1]
    assert excedance_distribution(4) == [1, 11, 11, 1]


def test_distribution_sums_and_symmetry_to_8():
    expected_total = 1
    for n in range(1, 9):
        expected_total *= n
        tally = excedance_distribution(n)
        assert sum(tally) == expected_total
        assert tally == tally[::-1]


def test_alternating_sum_bruteforce_values():
    # S(n), the sum of (-1)^exc over length n, read from the tally row.
    assert [at(excedance_distribution(n), -1) for n in range(9)] == [
        1, 1, 0, -2, 0, 16, 0, -272, 0,
    ]


def test_alternating_sum_agrees_with_distribution_fold():
    for n in range(1, 9):
        counts = Counter(excedance_count(p) for p in enumerate_permutations(n))
        assert at(excedance_distribution(n), -1) == sum((-1) ** k * c for k, c in counts.items())


def test_count_alternating_examples():
    assert alternating_counts(0) == []
    counts = alternating_counts(6)
    assert counts[0] == 1
    assert counts[1] == 1
    assert counts[3] == 2
    assert counts[5] == 16


def test_count_alternating_matches_filtered_enumeration():
    counts = alternating_counts(10)
    for n in range(0, 10):
        filtered = sum(
            1 for p in enumerate_permutations(n) if is_alternating_up_down(p)
        )
        assert counts[n] == filtered


def test_count_alternating_pins_a000111_to_20():
    assert alternating_counts(21) == [
        1, 1, 1, 2, 5, 16, 61, 272, 1385, 7936, 50521, 353792, 2702765,
        22368256, 199360981, 1903757312, 19391512145, 209865342976,
        2404879675441, 29088885112832, 370371188237525,
    ]


def test_count_alternating_has_no_length_limit():
    counts = alternating_counts(400)
    assert counts[13] == 22368256
    assert counts[399] == tangents(200)[-1]
    with pytest.raises(ValueError):
        alternating_counts(-1)


def test_verify_all_enumerates_each_length_at_most_once(monkeypatch):
    # The tallies come from the Eulerian rows, so verify enumerates nothing.
    calls = []
    raw = itertools.permutations

    def counting(*args):
        calls.append(args)
        return raw(*args)

    monkeypatch.setattr(itertools, "permutations", counting)
    verify_all(8)
    assert calls == []


def test_excedance_tally_matches_enumeration_and_the_triangle():
    for n in range(9):
        counts = Counter(excedance_count(p) for p in enumerate_permutations(n))
        # The row sums to n!, so no count is left outside it.
        row = excedance_distribution(n)
        assert row == [counts[k] for k in range(max(n, 1))] and sum(row) == factorial(n)
    # Past the oracle, phi's polynomials read in powers of t are a second
    # route to the same rows, at every length to 64 and at 100.
    polys = phi_polynomials(100)
    for n, row in enumerate(eulerian_rows(64), 1):
        assert row == in_powers_of_t(polys[n]) and sum(row) == factorial(n), n
    row = excedance_distribution(100)
    assert row == in_powers_of_t(polys[100]) and sum(row) == factorial(100)


def test_even_length_counts_match_down_up_recount():
    # Complement symmetry sigma(i) -> n+1-sigma(i) swaps the up-down and
    # down-up families, so exhaustive recounting under the reversed
    # definition must give the same totals.
    def is_down_up(images):
        return all(
            images[i] > images[i + 1] if i % 2 == 0 else images[i] < images[i + 1]
            for i in range(len(images) - 1)
        )

    counts = alternating_counts(9)
    for n in (2, 4, 6, 8):
        recount = sum(1 for p in enumerate_permutations(n) if is_down_up(p))
        assert counts[n] == recount


def test_eulerian_poly_bruteforce_values():
    # The excedance polynomial, the tally row folded at t.
    assert at(excedance_distribution(3), 1) == 6
    assert at(excedance_distribution(3), -1) == -2


def test_eulerian_poly_bruteforce_empty_permutation():
    assert at(excedance_distribution(0), 7) == 1


def test_eulerian_poly_bruteforce_rational_point():
    value = at(excedance_distribution(3), Fraction(1, 2))
    assert value == 1 + 4 * Fraction(1, 2) + Fraction(1, 4)

