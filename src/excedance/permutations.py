"""Permutation statistics, their polynomial-time counts, and the enumeration
oracle.

Statistics are computed straight from their definitions, and
``enumerate_permutations`` yields every permutation of a length, the
exhaustive oracle the tests check the counting routes against; it is the
one function here with a size limit, ``ENUMERATION_LIMIT`` (12) in the
table of :mod:`excedance.exact`, because its work is n!.  The excedance
tally is the Eulerian triangle of :func:`eulerian_rows`, O(n^2) integer
steps with no enumeration, which ``seq eulerian``, ``dist`` and the claims
read.  Like ``alternating_counts`` and the Bernoulli and alternating-sum
prefixes, it starts at index 0: rows 0..count-1, so row n is the tally of
length n.  Up-down permutations of every length below a bound are counted
by one pass of Seidel's boustrophedon triangle in O(n^2) additions, and
the tests check the counts against filtered enumeration up to length 9.
Positions and values are 1-based throughout: a permutation is the tuple of
its images, its one-line notation (sigma(1), ..., sigma(n)), and length 0
is the empty permutation, which has no excedances and counts as
alternating.  The statistics refuse images that are not a bijection on
{1..n}, since they are read from outside.
"""
from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from .exact import ENUMERATION_LIMIT, require_size, require_within

__all__ = [
    "excedance_count",
    "is_alternating_up_down",
    "enumerate_permutations",
    "eulerian_rows",
    "alternating_counts",
]

def _bijection(images: Sequence[int]) -> Sequence[int]:
    # Images come from outside, so each statistic checks them first; 2.0 == 2,
    # so a float image would pass the bijection test unless refused here.
    if not all(isinstance(v, int) for v in images):
        raise TypeError(f"images {tuple(images)} must all be ints")
    n = len(images)
    if sorted(images) != list(range(1, n + 1)):
        raise ValueError(f"images {tuple(images)} are not a bijection on {{1..{n}}}")
    return images


def excedance_count(images: Sequence[int]) -> int:
    """Number of positions i with sigma(i) > i.

    >>> excedance_count((2, 4, 1, 3))
    2
    >>> excedance_count((1, 2, 3))
    0
    >>> excedance_count((2, 3, 1))
    2
    >>> excedance_count((1, 1, 2))
    Traceback (most recent call last):
        ...
    ValueError: images (1, 1, 2) are not a bijection on {1..3}
    """
    return sum(1 for i, v in enumerate(_bijection(images), 1) if v > i)


def is_alternating_up_down(images: Sequence[int]) -> bool:
    """True iff sigma(1) < sigma(2) > sigma(3) < sigma(4) > ...

    Lengths 0 and 1 are vacuously alternating.

    >>> is_alternating_up_down((1, 3, 2))
    True
    >>> is_alternating_up_down((1, 2, 3))
    False
    >>> is_alternating_up_down((2, 3, 1))
    True
    """
    images = _bijection(images)
    return all(
        images[i] < images[i + 1] if i % 2 == 0 else images[i] > images[i + 1]
        for i in range(len(images) - 1)
    )


def enumerate_permutations(n: int) -> Iterator[tuple[int, ...]]:
    """Yield every permutation of length n exactly once, lexicographically.

    >>> list(enumerate_permutations(0))
    [()]
    >>> list(enumerate_permutations(1))
    [(1,)]
    >>> first, *_, last = enumerate_permutations(3)
    >>> first, last
    ((1, 2, 3), (3, 2, 1))
    """
    require_within("permutation length", n, 0, ENUMERATION_LIMIT)
    # itertools.permutations of a sorted input is lexicographic.
    return itertools.permutations(range(1, n + 1))


def eulerian_rows(count: int) -> Iterator[list[int]]:
    """Rows 0..count-1 of the Eulerian triangle, each a fresh list: row n
    tallies the permutations of length n by excedance count, and row 0 is
    [1], the empty permutation with none.

    E(n,k) = (k+1) E(n-1,k) + (n-k) E(n-1,k-1) is an excedance argument:
    insert n into the cycles of a permutation sigma of length n-1 as a
    fixed point or right after a value i, so that sigma'(i) = n and
    sigma'(n) = sigma(i).  The count stays the same when n is fixed or i
    was an excedance (k+1 ways), and rises by one when i was a fixed point
    or a deficiency (n-k ways from count k-1).  A negative count raises
    here, before any row is asked for.

    >>> list(eulerian_rows(4))
    [[1], [1], [1, 1], [1, 4, 1]]
    """
    require_size("count", count)
    return _eulerian_rows(count)


def _eulerian_rows(count: int) -> Iterator[list[int]]:
    row = [1]
    for n in range(count):
        if n:
            row = [(k + 1) * padded[k + 1] + (n - k) * padded[k] for k in range(n)]
        # Copied before the yield, so a caller that changes the row changes no later one.
        padded = [0, *row, 0]
        yield row


def alternating_counts(count: int) -> list[int]:
    """E_0 .. E_(count-1): E_n counts the up-down permutations of length n.

    One pass of Seidel's boustrophedon triangle (Millar, Sloane and Young,
    J. Combin. Theory A 76, 1996): row n holds the Entringer numbers
    E(n, k), the down-up permutations of 1..n+1 that start with k+1, and
    E(n, k) = E(n, k-1) + E(n-1, n-k).  Its last entry counts those that
    start with n+1; removing that value leaves an up-down permutation of
    length n, so the entry is E_n.  O(count^2) additions.

    >>> alternating_counts(6)
    [1, 1, 1, 2, 5, 16]
    """
    require_size("count", count)
    row = [1]
    counts = row[:count]
    for _ in range(1, count):
        row = [0, *itertools.accumulate(reversed(row))]
        counts.append(row[-1])
    return counts
