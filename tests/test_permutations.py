import itertools
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest

from excedance import permutations
from excedance.claims import verify_all
from excedance.permutations import (
    GuardError,
    Permutation,
    alternating_sum_bruteforce,
    count_alternating,
    enumerate_permutations,
    eulerian_poly_bruteforce,
    excedance_count,
    excedance_distribution,
    is_alternating_up_down,
)
from excedance.sequences import eulerian_numbers, tangent


def test_permutation_validates_bijection():
    Permutation(())
    Permutation((1,))
    Permutation((2, 4, 1, 3))
    for bad in ((0, 1), (1, 1), (2, 3), (1, 2, 4)):
        with pytest.raises(ValueError):
            Permutation(bad)


@pytest.mark.parametrize(
    "images, expected",
    [((2, 4, 1, 3), 2), ((1, 2, 3, 4), 0), ((2, 3, 1), 2), ((), 0), ((1,), 0)],
)
def test_excedance_count(images, expected):
    assert excedance_count(Permutation(images)) == expected


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
    assert is_alternating_up_down(Permutation(images)) is expected


def test_enumerate_small_groups():
    assert [p.images for p in enumerate_permutations(0)] == [()]
    assert [p.images for p in enumerate_permutations(1)] == [(1,)]
    three = [p.images for p in enumerate_permutations(3)]
    assert len(three) == 6
    assert three[0] == (1, 2, 3)
    assert three[-1] == (3, 2, 1)
    assert three == sorted(three)  # lexicographic


def test_enumeration_yields_each_element_once():
    for n in range(0, 7):
        seen = set()
        for p in enumerate_permutations(n):
            assert sorted(p.images) == list(range(1, n + 1))
            seen.add(p.images)
        assert len(seen) == len(list(itertools.permutations(range(n))))


def test_enumeration_bijection_invariant_to_8():
    for n in (7, 8):
        count = 0
        target = list(range(1, n + 1))
        for p in enumerate_permutations(n):
            assert sorted(p.images) == target
            count += 1
        assert count == factorial(n)


def test_enumeration_is_deterministic():
    first = [p.images for p in enumerate_permutations(5)]
    second = [p.images for p in enumerate_permutations(5)]
    assert first == second


def test_guard_refuses_then_can_be_raised():
    with pytest.raises(GuardError):
        enumerate_permutations(13)
    assert sum(excedance_distribution(13)) == factorial(13)


def test_negative_length_rejected():
    with pytest.raises(ValueError):
        excedance_distribution(-1)


def test_distribution_small_cases():
    assert excedance_distribution(0) == []
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
    assert [alternating_sum_bruteforce(n) for n in range(9)] == [
        1, 1, 0, -2, 0, 16, 0, -272, 0,
    ]


def test_alternating_sum_agrees_with_distribution_fold():
    for n in range(1, 9):
        folded = sum((-1) ** k * c for k, c in enumerate(excedance_distribution(n)))
        assert alternating_sum_bruteforce(n) == folded


def test_count_alternating_examples():
    assert count_alternating(0) == 1
    assert count_alternating(1) == 1
    assert count_alternating(3) == 2
    assert count_alternating(5) == 16


def test_count_alternating_matches_filtered_enumeration():
    for n in range(0, 10):
        filtered = sum(
            1 for p in enumerate_permutations(n) if is_alternating_up_down(p)
        )
        assert count_alternating(n) == filtered


def test_count_alternating_pins_a000111_to_20():
    assert [count_alternating(n) for n in range(21)] == [
        1, 1, 1, 2, 5, 16, 61, 272, 1385, 7936, 50521, 353792, 2702765,
        22368256, 199360981, 1903757312, 19391512145, 209865342976,
        2404879675441, 29088885112832, 370371188237525,
    ]


def test_count_alternating_has_no_length_limit():
    assert count_alternating(13) == tangent(13, "counting") == 22368256
    assert count_alternating(399) == tangent(399)
    with pytest.raises(ValueError):
        count_alternating(-1)


def test_polynomial_routes_check_their_arguments_before_reading_a_row(monkeypatch):
    def unread(n):
        pytest.fail(f"tally of length {n} read for a refused call")

    monkeypatch.setattr(permutations, "_excedance_tally", unread)
    with pytest.raises(TypeError):
        eulerian_poly_bruteforce(12, 0.5)


def test_verify_all_enumerates_each_length_at_most_once(monkeypatch):
    # The tallies come from the open-arc DP, so verify enumerates nothing.
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
        assert permutations._excedance_tally(n) == tuple(counts[k] for k in range(n + 1))
    for n in (12, 50, 100):
        row = permutations._excedance_tally(n)
        assert list(row[:n]) == eulerian_numbers(n)
        assert row[n] == 0 and sum(row) == factorial(n)


def test_even_length_counts_match_down_up_recount():
    # Complement symmetry sigma(i) -> n+1-sigma(i) swaps the up-down and
    # down-up families, so exhaustive recounting under the reversed
    # definition must give the same totals.
    def is_down_up(images):
        return all(
            images[i] > images[i + 1] if i % 2 == 0 else images[i] < images[i + 1]
            for i in range(len(images) - 1)
        )

    for n in (2, 4, 6, 8):
        recount = sum(1 for p in enumerate_permutations(n) if is_down_up(p.images))
        assert count_alternating(n) == recount


def test_eulerian_poly_bruteforce_values():
    assert eulerian_poly_bruteforce(3, 1) == 6
    assert eulerian_poly_bruteforce(3, -1) == -2
    assert eulerian_poly_bruteforce(3, -1) == alternating_sum_bruteforce(3)


def test_eulerian_poly_bruteforce_empty_permutation():
    assert eulerian_poly_bruteforce(0, 7) == 1


def test_eulerian_poly_bruteforce_rational_point():
    value = eulerian_poly_bruteforce(3, Fraction(1, 2))
    assert value == 1 + 4 * Fraction(1, 2) + Fraction(1, 4)

