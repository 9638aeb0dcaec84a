"""Closed-form and recurrence generators for the package's sequences.

Every sequence here has at least two independent computation routes so the
claims module can cross-validate them:

* Bernoulli numbers: defining recurrence sum_{j<=n} C(n+1,j) B_j = 0,
  checked against the x/(e^x-1) series, whose expansion forces the
  convention where index 1 gives -1/2.
* Tangent numbers: one integer-only prefix, the Knuth-Buckholtz
  recurrence of :func:`tangents`, checked against three route prefixes
  that never read it: the Bernoulli formula of
  :func:`tangents_by_bernoulli`, the tanh series of
  :func:`tangents_by_tanh`, and the up-down permutation counts of
  :func:`excedance.permutations.alternating_counts`.
* Genocchi numbers: read from the tangent prefix by
  G_2k = (-1)^k k T_(2k-1) / 4^(k-1), checked against the exponential
  coefficients of 2x/(e^x+1).
* Alternating excedance sums: closed form in terms of tangent numbers,
  checked against the Eulerian rows of :mod:`excedance.permutations`
  folded at t = -1.

Each sequence and each tangent route is one public prefix function that
computes its first ``count`` values from scratch; nothing is kept between
calls.  Everything is exact: the rational routes return their raw
fractions, whose denominators the claims check, and each integer division,
in :func:`bernoullis` and :func:`genocchis`, raises on a non-zero
remainder, so a convention slip fails loudly instead of rounding.  Only
the rational routes import :mod:`fractions`.
"""
from __future__ import annotations

import math
from operator import add, mul

from .exact import require_size
TYPE_CHECKING = False  # type checkers read it as true; at run time fractions loads lazily
if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "bernoullis",
    "tangents", "tangents_by_bernoulli", "tangents_by_tanh",
    "genocchis",
    "alternating_sums",
]


def bernoullis(count: int) -> list[Fraction]:
    """B_0 .. B_(count-1), by the defining recurrence
    sum_{j=0..m} C(m+1, j) B_j = 0.

    >>> bernoullis(3)
    [Fraction(1, 1), Fraction(-1, 2), Fraction(1, 6)]
    >>> bernoullis(0)
    []
    """
    from fractions import Fraction
    require_size("count", count)
    # By von Staudt-Clausen the denominator of each B_m, m < count, divides
    # scale = lcm(1..count), so the recurrence runs on the integers
    # scale * B_m, and a non-zero remainder would be a fault, not rounding.
    scale = math.lcm(*range(1, count + 1))
    scaled = [scale][:count]
    row = [1, 1]  # C(m+1, j) for j = 0..m+1, one Pascal step per m
    for m in range(1, count):
        row = [1, *map(add, row, row[1:]), 1]
        value, remainder = divmod(-sum(map(mul, row, scaled)), m + 1)
        if remainder:
            raise ArithmeticError(f"bernoulli({m}) is not a multiple of 1/{scale}")
        scaled.append(value)
    return [Fraction(b, scale) for b in scaled]


def tangents_by_bernoulli(count: int) -> list[Fraction]:
    """T(1), T(3), ..., T(2*count-1) as raw rationals, from one Bernoulli
    prefix: T(2n-1) = (-1)^(n-1) 4^n (4^n - 1) / (2n) * B_(2n).

    >>> [str(t) for t in tangents_by_bernoulli(4)]
    ['1', '2', '16', '272']
    """
    from fractions import Fraction
    require_size("count", count)
    b = bernoullis(2 * count + 1)
    return [
        Fraction((-1) ** (n - 1) * 4**n * (4**n - 1), 2 * n) * b[2 * n]
        for n in range(1, count + 1)
    ]


def tangents_by_tanh(count: int) -> list[Fraction]:
    """T(1), T(3), ..., T(2*count-1) as raw rationals, from one tanh
    series: T(2n+1) = (-1)^n (2n+1)! [x^(2n+1)] tanh x.

    >>> [str(t) for t in tangents_by_tanh(4)]
    ['1', '2', '16', '272']
    """
    # Only this series route imports series, so seq never loads it.
    from .series import tanh_series
    require_size("count", count)
    if not count:
        return []
    tanh = tanh_series(2 * count - 1)
    return [(-1) ** n * math.factorial(2 * n + 1) * tanh[2 * n + 1] for n in range(count)]


def tangents(count: int) -> list[int]:
    """T(1), T(3), ..., T(2*count-1), in integers only, by the
    Knuth-Buckholtz recurrence as given by Brent and Harvey
    (arXiv:1108.0286): T_1 = 1, T_i = (i-1) T_(i-1), then for i = 2..count
    and j = i..count, T_j = (j-i) T_(j-1) + (j-i+2) T_j.

    >>> tangents(4)
    [1, 2, 16, 272]
    """
    require_size("count", count)
    t = [1] * count
    for i in range(1, count):
        t[i] = i * t[i - 1]
    for i in range(1, count):
        for j in range(i, count):
            t[j] = (j - i) * t[j - 1] + (j - i + 2) * t[j]
    return t


def genocchis(count: int) -> list[int]:
    """G_1 .. G_count, read from the tangent prefix: G_1 = 1, G_n = 0 at
    odd n >= 3, and G_2k = (-1)^k k T_(2k-1) / 4^(k-1).

    >>> genocchis(6)
    [1, -1, 0, 1, 0, -3]
    """
    require_size("count", count)
    values = [1 if n == 1 else 0 for n in range(1, count + 1)]
    for k, t in enumerate(tangents(count // 2), 1):
        value, remainder = divmod(k * t, 4 ** (k - 1))
        if remainder:
            raise ArithmeticError(f"genocchi({2 * k}) produced a non-integer value")
        values[2 * k - 1] = -value if k % 2 else value
    return values


def alternating_sums(count: int) -> list[int]:
    """S(0) .. S(count-1), the alternating excedance sums in closed form.

    >>> alternating_sums(6)
    [1, 1, 0, -2, 0, 16]
    """
    require_size("count", count)
    # S(0) = 1 and S(n) = 0 at even n >= 2; this is the one place the sign
    # rule is written: S(n) = (-1)^((n-1)/2) T(n) at odd n.
    values = [1 if n == 0 else 0 for n in range(count)]
    for i, t in enumerate(tangents(count // 2)):
        values[2 * i + 1] = -t if i % 2 else t
    return values
