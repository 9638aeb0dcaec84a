"""Permutation statistics, their polynomial-time counts, and the
enumeration oracle.

Statistics are computed straight from their definitions, and
``enumerate_permutations`` yields every permutation of a length, the
exhaustive oracle the tests check the counting routes against; it is the
one function here with a size limit, ``ENUMERATION_LIMIT`` (12) in the
table of :mod:`excedance.exact`, because its work is n!.  The excedance
distribution comes from an open-arc dynamic program over Laguerre
histories in O(n^3) integer steps, with no cache and no enumeration; the
alternating sum and the excedance polynomial (weight t^exc, as in eq (1),
and no other) both read it.  Up-down permutations are counted by the
Seidel-Entringer rank recurrence in O(n^2) additions, and the tests check
the count against filtered enumeration up to length 9.  Positions and
values are 1-based throughout: a permutation is its one-line notation
(sigma(1), ..., sigma(n)) and length 0 is the empty permutation, which has
no excedances and counts as alternating.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator

from .exact import ENUMERATION_LIMIT, GuardError, as_rational, require_within

__all__ = [
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

class Permutation:
    """One-line notation (sigma(1), ..., sigma(n)) over {1..n}.

    >>> Permutation((2, 4, 1, 3)).images
    (2, 4, 1, 3)
    >>> Permutation((1, 1, 2))
    Traceback (most recent call last):
        ...
    ValueError: images (1, 1, 2) are not a bijection on {1..3}
    """

    __slots__ = ("images",)
    images: tuple[int, ...]

    def __init__(self, images) -> None:
        images = tuple(images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"images {images} are not a bijection on {{1..{n}}}")
        object.__setattr__(self, "images", images)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        return self.images == other.images if type(other) is Permutation else NotImplemented

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation(images={self.images!r})"

    def __len__(self) -> int:
        return len(self.images)


def excedance_count(p: Permutation) -> int:
    """Number of positions i with sigma(i) > i.

    >>> excedance_count(Permutation((2, 4, 1, 3)))
    2
    >>> excedance_count(Permutation((1, 2, 3)))
    0
    >>> excedance_count(Permutation((2, 3, 1)))
    2
    """
    return sum(1 for i, v in enumerate(p.images, 1) if v > i)


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


def enumerate_permutations(n: int) -> Iterator[Permutation]:
    """Yield every permutation of length n exactly once, lexicographically.

    >>> [p.images for p in enumerate_permutations(0)]
    [()]
    >>> [p.images for p in enumerate_permutations(1)]
    [(1,)]
    >>> first, *_, last = enumerate_permutations(3)
    >>> first.images, last.images
    ((1, 2, 3), (3, 2, 1))
    """
    require_within("permutation length", n, 0, ENUMERATION_LIMIT)
    # itertools.permutations of a sorted input is lexicographic.
    return (Permutation(raw) for raw in itertools.permutations(range(1, n + 1)))


def excedance_distribution(n: int) -> list[int]:
    """Tally of permutations of length n by excedance count, k = 0..n-1;
    the one permutation of length 0 has 0 excedances.

    >>> excedance_distribution(3)
    [1, 4, 1]
    >>> excedance_distribution(0)
    [1]
    """
    # Open-arc dynamic programming over Laguerre histories (Flajolet 1980):
    # step i places position i and value i.  An open arc is a position
    # still waiting for a larger value, paired in number with a value still
    # waiting for a later position; arcs[j][k] counts the ways to reach j
    # open arcs with k excedances.  Position i is an excedance exactly when
    # it opens.  States with more open arcs than steps left never close.
    if n < 0:
        raise ValueError(f"permutation length must be >= 0, got {n}")
    arcs = [[1] + [0] * n]
    for i in range(1, n + 1):
        grown = [[0] * (n + 1) for _ in range(len(arcs) + 1)]
        for j, row in enumerate(arcs):
            for k, ways in enumerate(row[:i]):
                # Fix i, or close position i on one of j values and open value i.
                grown[j][k] += (j + 1) * ways
                # Open position i and close value i on one of j positions.
                grown[j][k + 1] += j * ways
                # Open both.
                grown[j + 1][k + 1] += ways
                if j:
                    # Close both.
                    grown[j - 1][k] += j * j * ways
        arcs = grown[: n - i + 1]
    # No permutation of length n >= 1 has n excedances.
    return arcs[0][: n or 1]


def alternating_sum_bruteforce(n: int) -> int:
    """Sum of (-1)^exc(sigma) over all permutations of length n, read from
    the open-arc tally (no enumeration, despite the name).

    >>> alternating_sum_bruteforce(0)
    1
    >>> alternating_sum_bruteforce(2)
    0
    >>> alternating_sum_bruteforce(3)
    -2
    """
    return sum(-c if k % 2 else c for k, c in enumerate(excedance_distribution(n)))


def count_alternating(n: int) -> int:
    """Number of up-down permutations of length n.

    >>> count_alternating(1)
    1
    >>> count_alternating(3)
    2
    >>> count_alternating(5)
    16
    """
    if n < 0:
        raise ValueError(f"permutation length must be >= 0, got {n}")
    # Seidel-Entringer dynamic programming by rank: ways[r] counts the
    # up-down prefixes whose last value has r unused values below it.  A
    # rise to a value with r' unused below comes from every r <= r', a
    # fall from every r > r', so each step is one running sum.
    ways = [1] * n
    for length in range(1, n):
        if length % 2:
            ways = list(itertools.accumulate(ways[:-1]))
        else:
            ways = list(itertools.accumulate(reversed(ways[1:])))[::-1]
    return sum(ways) if n else 1


def eulerian_poly_bruteforce(n: int, t: Fraction | int) -> Fraction:
    """Evaluate the excedance polynomial, the sum of t^exc(sigma) over all
    permutations of length n, from the open-arc tally (no enumeration,
    despite the name).  A float t is refused before any tally.

    >>> eulerian_poly_bruteforce(3, 1)
    Fraction(6, 1)
    >>> eulerian_poly_bruteforce(3, -1)
    Fraction(-2, 1)
    >>> eulerian_poly_bruteforce(0, 7)
    Fraction(1, 1)
    """
    t = as_rational(t)
    return sum((count * t**k for k, count in enumerate(excedance_distribution(n))), Fraction(0))
