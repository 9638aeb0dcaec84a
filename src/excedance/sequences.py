"""Closed-form and recurrence generators for the package's sequences.

Every sequence here has at least two independent computation routes so the
claims module can cross-validate them:

* Eulerian numbers: triangle recurrence, checked against exhaustive tallies.
* Bernoulli numbers: defining recurrence sum_{j<=n} C(n+1,j) B_j = 0,
  checked against the x/(e^x-1) series, whose expansion forces the
  convention where index 1 gives -1/2.
* Tangent numbers: three routes (Bernoulli formula, tanh series, and
  the up-down permutation count of :func:`count_alternating`, which
  stops at its own limit), all required to agree.
* Genocchi numbers: exponential coefficients of 2x/(e^x+1).
* Alternating excedance sums: closed form in terms of tangent numbers,
  checked against brute-force enumeration.

The Bernoulli numbers, the Eulerian rows and the series prefixes are each
grown once, and values are read from them.  Everything is exact, and any
route that passes through rationals asserts integrality before returning
an int, so a convention slip fails loudly instead of rounding.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import ExactValue, binomial
from .permutations import _polynomial_at, count_alternating
from .series import bernoulli_series, egf_coeff, genocchi_series, tanh_series

__all__ = [
    "SequenceEntry",
    "SequenceTable",
    "SEQUENCE_NAMES",
    "TANGENT_ROUTES",
    "eulerian_numbers",
    "eulerian_poly_at",
    "bernoulli",
    "tangent",
    "tangent_bernoulli_value",
    "tangent_series_value",
    "genocchi",
    "genocchi_value",
    "alternating_sum",
    "sequence_table",
]

SEQUENCE_NAMES = ("tangent", "bernoulli", "genocchi", "eulerian", "altsum")

TANGENT_ROUTES = ("bernoulli", "series", "counting")


@dataclass(frozen=True)
class SequenceEntry:
    index: int
    value: ExactValue
    route: str


@dataclass(frozen=True)
class SequenceTable:
    """Immutable snapshot of computed sequence values with provenance."""

    name: str
    entries: tuple[SequenceEntry, ...]

    def values(self) -> list[ExactValue]:
        return [e.value for e in self.entries]


# Memoized triangle rows; grows monotonically, row m at index m-1.
_EULERIAN_ROWS: list[tuple[int, ...]] = [(1,)]


def _eulerian_row(n: int) -> tuple[int, ...]:
    while len(_EULERIAN_ROWS) < n:
        m = len(_EULERIAN_ROWS) + 1
        prev = _EULERIAN_ROWS[-1]
        row = []
        for k in range(m):
            up = (k + 1) * prev[k] if k < m - 1 else 0
            over = (m - k) * prev[k - 1] if k >= 1 else 0
            row.append(up + over)
        _EULERIAN_ROWS.append(tuple(row))
    return _EULERIAN_ROWS[n - 1]


def eulerian_numbers(n: int) -> list[int]:
    """Row n of the Eulerian triangle: entry k counts permutations of
    length n with exactly k excedances.

    Computed by the triangle recurrence
    E(n,k) = (k+1) E(n-1,k) + (n-k) E(n-1,k-1) with E(1,0) = 1.

    >>> eulerian_numbers(1)
    [1]
    >>> eulerian_numbers(3)
    [1, 4, 1]
    >>> eulerian_numbers(4)
    [1, 11, 11, 1]
    >>> eulerian_numbers(0)
    []
    """
    if n < 0:
        raise ValueError(f"row index must be >= 0, got {n}")
    if n == 0:
        return []
    return list(_eulerian_row(n))


def eulerian_poly_at(n: int, t: Fraction | int, convention: str = "standard") -> Fraction:
    """Evaluate the excedance generating polynomial via the triangle.

    >>> eulerian_poly_at(5, 1)
    Fraction(120, 1)
    >>> eulerian_poly_at(5, -1)
    Fraction(16, 1)
    >>> eulerian_poly_at(0, 7)
    Fraction(1, 1)
    """
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    # Length 0 has one permutation, with no excedances.
    return _polynomial_at(n, t, convention, lambda m: _eulerian_row(m) if m else (1,))


# Memoized values from index 0 upward; grows monotonically, no eviction.
_BERNOULLI: list[Fraction] = [Fraction(1)]


def bernoulli(n: int) -> Fraction:
    """Bernoulli number at index n, convention index-1 = -1/2.

    Defining recurrence: sum_{j=0..n} C(n+1, j) B_j = 0 with B_0 = 1.

    >>> bernoulli(0)
    Fraction(1, 1)
    >>> bernoulli(1)
    Fraction(-1, 2)
    >>> bernoulli(2)
    Fraction(1, 6)
    """
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    while len(_BERNOULLI) <= n:
        m = len(_BERNOULLI)
        acc = sum(
            (binomial(m + 1, j) * _BERNOULLI[j] for j in range(m)), Fraction(0)
        )
        _BERNOULLI.append(-acc / (m + 1))
    return _BERNOULLI[n]


def _require_odd(m: int) -> int:
    if m < 1 or m % 2 == 0:
        raise ValueError(f"tangent numbers live at odd indices >= 1, got {m}")
    return (m + 1) // 2


def tangent_bernoulli_value(m: int) -> Fraction:
    """Raw rational for the tangent number at odd index m = 2n-1:
    (-1)^(n-1) * 2^(2n) (2^(2n) - 1) / (2n) * B_(2n).

    The division is exact rational arithmetic; integrality is asserted by
    :func:`tangent`, not here, so the claims module can inspect the
    denominator directly.
    """
    n = _require_odd(m)
    sign = -1 if n % 2 == 0 else 1
    return Fraction(sign * 2 ** (2 * n) * (2 ** (2 * n) - 1), 2 * n) * bernoulli(2 * n)


def tangent_series_value(m: int) -> Fraction:
    """Raw rational for the tangent number at odd index m, extracted from
    tanh: (-1)^((m-1)/2) * m! * [x^m] tanh x."""
    _require_odd(m)
    sign = -1 if ((m - 1) // 2) % 2 else 1
    return sign * egf_coeff(tanh_series(m), m)


def _as_integer(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise ArithmeticError(f"{what} produced a non-integer value {value}")
    return value.numerator


def tangent(m: int, route: str = "bernoulli") -> int:
    """Tangent number at odd index m, by any of three routes.

    Routes: "bernoulli" (explicit formula through Bernoulli numbers),
    "series" (coefficient extraction from tanh), "counting" (the up-down
    permutations of length m, counted by :func:`count_alternating` and
    refused past its limit).  All routes agree and return a positive
    integer.

    >>> tangent(1)
    1
    >>> tangent(3, "counting")
    2
    >>> tangent(5, "series")
    16
    """
    _require_odd(m)
    if route == "bernoulli":
        return _as_integer(tangent_bernoulli_value(m), f"tangent({m}) bernoulli route")
    if route == "series":
        return _as_integer(tangent_series_value(m), f"tangent({m}) series route")
    if route == "counting":
        return count_alternating(m)
    raise ValueError(f"route must be one of {TANGENT_ROUTES}, got {route!r}")


def genocchi_value(n: int) -> Fraction:
    """Raw rational n! * [x^n] of 2x/(e^x+1); integer in lowest terms."""
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    return egf_coeff(genocchi_series(n), n)


def genocchi(n: int) -> int:
    """Genocchi number at index n >= 1.

    >>> genocchi(1)
    1
    >>> genocchi(3)
    0
    >>> genocchi(6)
    -3
    """
    return _as_integer(genocchi_value(n), f"genocchi({n})")


def alternating_sum(n: int) -> int:
    """Closed form for the alternating excedance sum over length n:
    1 at n = 0, 0 at even n >= 2, and (-1)^((n-1)/2) times the tangent
    number at odd n.

    >>> alternating_sum(0)
    1
    >>> alternating_sum(4)
    0
    >>> alternating_sum(3)
    -2
    """
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    if n == 0:
        return 1
    if n % 2 == 0:
        return 0
    sign = -1 if ((n - 1) // 2) % 2 else 1
    return sign * tangent(n, "bernoulli")


def sequence_table(name: str, count: int) -> SequenceTable:
    """First ``count`` values of a named sequence, with route provenance.

    Index conventions: "altsum" and "bernoulli" start at 0, "genocchi" at
    1, and "tangent" runs over the odd indices 1, 3, ..., 2*count-1.  The
    "eulerian" triangle is not a flat sequence; use
    :func:`eulerian_numbers` row by row instead.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if name == "tangent":
        entries = [
            SequenceEntry(2 * i - 1, tangent(2 * i - 1), "bernoulli")
            for i in range(1, count + 1)
        ]
    elif name == "bernoulli":
        entries = [SequenceEntry(i, bernoulli(i), "recurrence") for i in range(count)]
    elif name == "genocchi":
        entries = [
            SequenceEntry(i, genocchi(i), "egf-series") for i in range(1, count + 1)
        ]
    elif name == "altsum":
        entries = [
            SequenceEntry(i, alternating_sum(i), "closed-form") for i in range(count)
        ]
    elif name == "eulerian":
        raise ValueError("eulerian is a triangle; use eulerian_numbers(n) per row")
    else:
        raise ValueError(f"unknown sequence {name!r}; expected one of {SEQUENCE_NAMES}")
    return SequenceTable(name, tuple(entries))
