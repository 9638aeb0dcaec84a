"""Desk-scale enumeration of symmetric groups and permutation statistics.

This module is the ground truth the rest of the package is checked
against: statistics are computed straight from their definitions, and the
excedance tallies come from exhaustive enumeration behind an explicit size
guard (12, i.e. about 4.8e8 permutations; the default verification paths
stay at length 8).  Each length is enumerated at most once per process:
the distribution, the alternating sum and the polynomial evaluation all
read one cached tally.  Up-down permutations are counted by dynamic
programming over alternating prefixes, which the tests check against
filtered enumeration up to length 9.  Positions and values are 1-based
throughout: a permutation is its one-line notation (sigma(1), ...,
sigma(n)) and length 0 is the empty permutation, which has no excedances
and counts as alternating.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .exact import as_rational

__all__ = [
    "ENUMERATION_GUARD",
    "GuardError",
    "Permutation",
    "excedance_count",
    "is_alternating_up_down",
    "enumerate_permutations",
    "excedance_distribution",
    "alternating_sum_bruteforce",
    "count_alternating",
    "eulerian_poly_bruteforce",
]

ENUMERATION_GUARD = 12

CONVENTIONS = ("standard", "shifted")


class GuardError(ValueError):
    """Raised when an enumeration would exceed the configured size guard."""


@dataclass(frozen=True)
class Permutation:
    """One-line notation (sigma(1), ..., sigma(n)) over {1..n}.

    >>> Permutation((2, 4, 1, 3)).images
    (2, 4, 1, 3)
    >>> Permutation((1, 1, 2))
    Traceback (most recent call last):
        ...
    ValueError: images (1, 1, 2) are not a bijection on {1..3}
    """

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        images = tuple(self.images)
        object.__setattr__(self, "images", images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"images {images} are not a bijection on {{1..{n}}}")

    def __len__(self) -> int:
        return len(self.images)


def _check_guard(n: int, guard: int) -> None:
    if n < 0:
        raise ValueError(f"permutation length must be >= 0, got {n}")
    if n > guard:
        raise GuardError(
            f"refusing to enumerate all {n}! permutations of length {n} "
            f"(guard is {guard}); pass guard={n} to raise it deliberately"
        )


def _raw_permutations(n: int) -> Iterator[tuple[int, ...]]:
    # itertools.permutations of a sorted input is lexicographic.
    return itertools.permutations(range(1, n + 1))


def _excedances(images: tuple[int, ...]) -> int:
    return sum(1 for i, v in enumerate(images, 1) if v > i)


def excedance_count(p: Permutation) -> int:
    """Number of positions i with sigma(i) > i.

    >>> excedance_count(Permutation((2, 4, 1, 3)))
    2
    >>> excedance_count(Permutation((1, 2, 3)))
    0
    >>> excedance_count(Permutation((2, 3, 1)))
    2
    """
    return _excedances(p.images)


def is_alternating_up_down(p: Permutation) -> bool:
    """True iff sigma(1) < sigma(2) > sigma(3) < sigma(4) > ...

    Lengths 0 and 1 are vacuously alternating.

    >>> is_alternating_up_down(Permutation((1, 3, 2)))
    True
    >>> is_alternating_up_down(Permutation((1, 2, 3)))
    False
    >>> is_alternating_up_down(Permutation((2, 3, 1)))
    True
    """
    images = p.images
    return all(
        images[i] < images[i + 1] if i % 2 == 0 else images[i] > images[i + 1]
        for i in range(len(images) - 1)
    )


def enumerate_permutations(
    n: int, *, guard: int = ENUMERATION_GUARD
) -> Iterator[Permutation]:
    """Yield every permutation of length n exactly once, lexicographically.

    >>> [p.images for p in enumerate_permutations(0)]
    [()]
    >>> [p.images for p in enumerate_permutations(1)]
    [(1,)]
    >>> first, *_, last = enumerate_permutations(3)
    >>> first.images, last.images
    ((1, 2, 3), (3, 2, 1))
    """
    _check_guard(n, guard)
    return (Permutation(raw) for raw in _raw_permutations(n))


@functools.cache
def _excedance_tally(n: int) -> tuple[int, ...]:
    # Entry k counts the permutations of length n with k excedances, for
    # k = 0..n; entry n is 0 except for the empty permutation (n = 0).
    tally = [0] * (n + 1)
    for raw in _raw_permutations(n):
        tally[_excedances(raw)] += 1
    return tuple(tally)


def excedance_distribution(n: int, *, guard: int = ENUMERATION_GUARD) -> list[int]:
    """Tally of permutations of length n by excedance count, k = 0..n-1.

    >>> excedance_distribution(3)
    [1, 4, 1]
    >>> excedance_distribution(0)
    []
    """
    _check_guard(n, guard)
    return list(_excedance_tally(n)[:n])


def alternating_sum_bruteforce(n: int, *, guard: int = ENUMERATION_GUARD) -> int:
    """Sum of (-1)^exc(sigma) over all permutations of length n.

    >>> alternating_sum_bruteforce(0)
    1
    >>> alternating_sum_bruteforce(2)
    0
    >>> alternating_sum_bruteforce(3)
    -2
    """
    _check_guard(n, guard)
    return sum(-c if k % 2 else c for k, c in enumerate(_excedance_tally(n)))


def count_alternating(n: int, *, guard: int = ENUMERATION_GUARD) -> int:
    """Number of up-down permutations of length n.

    >>> count_alternating(1)
    1
    >>> count_alternating(3)
    2
    >>> count_alternating(5)
    16
    """
    _check_guard(n, guard)
    # Dynamic programming over alternating prefixes: a state is the bitmask
    # of values used so far and the last value, the prefix length is the
    # popcount of the mask, and each layer maps its states to the number of
    # up-down prefixes that reach them.  Position i + 1 must rise above
    # position i for odd i and fall below it for even i.
    if n <= 1:
        return 1
    layer = {(1 << v, v): 1 for v in range(n)}
    for length in range(1, n):
        rising = length % 2 == 1
        grown: dict[tuple[int, int], int] = {}
        for (used, last), ways in layer.items():
            for v in range(last + 1, n) if rising else range(last):
                if not used >> v & 1:
                    key = (used | 1 << v, v)
                    grown[key] = grown.get(key, 0) + ways
        layer = grown
    return sum(layer.values())


def eulerian_poly_bruteforce(
    n: int,
    t: Fraction | int,
    convention: str = "standard",
    *,
    guard: int = ENUMERATION_GUARD,
) -> Fraction:
    """Evaluate the excedance generating polynomial of length n at t.

    "standard" sums t^exc(sigma); "shifted" sums t^(exc(sigma)+1), except
    that the shifted value for n = 0 is defined as 1 so that evaluation at
    t = 1 always yields n!.

    >>> eulerian_poly_bruteforce(3, 1)
    Fraction(6, 1)
    >>> eulerian_poly_bruteforce(3, -1)
    Fraction(-2, 1)
    >>> eulerian_poly_bruteforce(3, -1, "shifted")
    Fraction(2, 1)
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}, got {convention!r}")
    _check_guard(n, guard)
    t = as_rational(t)
    tally = _excedance_tally(n)
    value = sum((count * t**k for k, count in enumerate(tally)), Fraction(0))
    if convention == "shifted" and n > 0:
        value = t * value
    return value
