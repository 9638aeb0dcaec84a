"""Closed-form and recurrence generators for the package's sequences.

Every sequence here has at least two independent computation routes so the
claims module can cross-validate them:

* Bernoulli numbers: defining recurrence sum_{j<=n} C(n+1,j) B_j = 0,
  checked against the x/(e^x-1) series, whose expansion forces the
  convention where index 1 gives -1/2.
* Tangent numbers: one integer-only prefix, the Knuth-Buckholtz
  recurrence of :func:`tangents`, checked against three named routes: the
  Bernoulli formula, the tanh series, and the up-down permutation count
  of :func:`excedance.permutations.count_alternating`.
* Genocchi numbers: read from the tangent prefix by
  G_2k = (-1)^k k T_(2k-1) / 4^(k-1), checked against the exponential
  coefficients of 2x/(e^x+1).
* Alternating excedance sums: closed form in terms of tangent numbers,
  checked against the Eulerian rows of :mod:`excedance.permutations`
  folded at t = -1.

Each sequence has one public prefix function that computes its first
``count`` values from scratch; the one scalar, :func:`bernoulli`, reads
its index from :func:`bernoullis` for the Bernoulli route to the tangent
numbers.  Nothing is kept between calls.  Everything is exact: the
rational routes return their raw fractions, whose denominators the claims
check, and the one integer division, in :func:`genocchis`, raises on a
non-zero remainder, so a convention slip fails loudly instead of rounding.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .exact import binomial

__all__ = [
    "bernoullis", "bernoulli",
    "tangents", "tangent_bernoulli_value", "tangent_series_value",
    "genocchis",
    "alternating_sums",
]


def _require_count(count: int) -> None:
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")


def bernoullis(count: int) -> list[Fraction]:
    """B_0 .. B_(count-1), by the defining recurrence
    sum_{j=0..m} C(m+1, j) B_j = 0.

    >>> bernoullis(3)
    [Fraction(1, 1), Fraction(-1, 2), Fraction(1, 6)]
    >>> bernoullis(0)
    []
    """
    _require_count(count)
    # Each step sums the nonzero earlier terms as one integer numerator
    # over the lcm of their denominators and divides once.
    values = [Fraction(1)][:count]
    for m in range(1, count):
        terms = [(j, b) for j, b in enumerate(values) if b]
        lcm = math.lcm(*(b.denominator for _, b in terms))
        acc = sum(
            binomial(m + 1, j) * b.numerator * (lcm // b.denominator) for j, b in terms
        )
        values.append(Fraction(-acc, lcm * (m + 1)))
    return values


def bernoulli(n: int) -> Fraction:
    """Bernoulli number at index n, convention index-1 = -1/2, from the
    defining recurrence sum_{j=0..n} C(n+1, j) B_j = 0 with B_0 = 1.

    >>> bernoulli(0)
    Fraction(1, 1)
    >>> bernoulli(1)
    Fraction(-1, 2)
    >>> bernoulli(2)
    Fraction(1, 6)
    """
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    return bernoullis(n + 1)[n]


def _require_odd(m: int) -> int:
    if m < 1 or m % 2 == 0:
        raise ValueError(f"tangent numbers live at odd indices >= 1, got {m}")
    return (m + 1) // 2


def tangent_bernoulli_value(m: int) -> Fraction:
    """Raw rational for the tangent number at odd index m = 2n-1:
    (-1)^(n-1) * 2^(2n) (2^(2n) - 1) / (2n) * B_(2n).

    The division is exact rational arithmetic; integrality is not asserted
    here, so the claims module can inspect the denominator directly.
    """
    n = _require_odd(m)
    sign = -1 if n % 2 == 0 else 1
    return Fraction(sign * 2 ** (2 * n) * (2 ** (2 * n) - 1), 2 * n) * bernoulli(2 * n)


def tangent_series_value(m: int) -> Fraction:
    """Raw rational for the tangent number at odd index m, extracted from
    tanh: (-1)^((m-1)/2) * m! * [x^m] tanh x."""
    # Only this series route imports series, so seq never loads it.
    from .series import egf_coeff, tanh_series
    _require_odd(m)
    sign = -1 if ((m - 1) // 2) % 2 else 1
    return sign * egf_coeff(tanh_series(m), m)


def tangents(count: int) -> list[int]:
    """T(1), T(3), ..., T(2*count-1), in integers only, by the
    Knuth-Buckholtz recurrence as given by Brent and Harvey
    (arXiv:1108.0286): T_1 = 1, T_i = (i-1) T_(i-1), then for i = 2..count
    and j = i..count, T_j = (j-i) T_(j-1) + (j-i+2) T_j.

    >>> tangents(4)
    [1, 2, 16, 272]
    """
    _require_count(count)
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
    _require_count(count)
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
    _require_count(count)
    # S(0) = 1 and S(n) = 0 at even n >= 2; this is the one place the sign
    # rule is written: S(n) = (-1)^((n-1)/2) T(n) at odd n.
    values = [1 if n == 0 else 0 for n in range(count)]
    for i, t in enumerate(tangents(count // 2)):
        values[2 * i + 1] = -t if i % 2 else t
    return values
