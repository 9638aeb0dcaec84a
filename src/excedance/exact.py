"""Exact integer and rational primitives shared by every other module.

Integers are plain Python ints, which are already arbitrary precision and
round-trip losslessly through decimal strings.  Rationals are
:class:`fractions.Fraction`, which is eagerly normalized: gcd-reduced
numerator over a strictly positive denominator, so equality is structural.
The helpers below pin down the conventions the rest of the package leans
on, in particular that ``binomial`` is a total function returning 0 outside
the Pascal triangle (the summation convention used by every recurrence
here).  The work limits of every other module are tabled here too, so
each size bound is written once.
"""
from __future__ import annotations

import math
from fractions import Fraction

# Exact value as stored in sequence tables and claim counterexamples.
ExactValue = int | Fraction

__all__ = [
    "ExactValue",
    "GuardError",
    "DESK_LIMIT",
    "ENUMERATION_LIMIT",
    "UPDOWN_LIMIT",
    "SERIES_ORDER_LIMIT",
    "SEQ_COUNT_LIMIT",
    "require_within",
    "factorial",
    "binomial",
    "rational",
    "as_rational",
    "parse_rational",
    "format_exact",
]


class GuardError(ValueError):
    """Raised when a request exceeds a work limit in the table below."""


# Work limits, each with its measured cost (2 cores, Python 3.11).
DESK_LIMIT = 8  # length without --force: 8! = 40320 permutations take 0.06 s
ENUMERATION_LIMIT = 12  # n! enumeration: 6.5 s at n = 10, 73 s at 11, 13 min at 12
UPDOWN_LIMIT = 12  # count_alternating visits about n*2^n states: 0.05 s at 12, 1.7 s at 16
SERIES_ORDER_LIMIT = 64  # series <name> --order 64 takes 0.17 s
SEQ_COUNT_LIMIT = 500  # seq tangent --count 500 takes 13 s; the cost grows faster than count^2


def require_within(what: str, value: int, lo: int, hi: int, hint: str = "") -> None:
    """Refuse a value outside lo..hi with a GuardError naming both bounds.

    >>> require_within("--order", 65, 0, SERIES_ORDER_LIMIT)
    Traceback (most recent call last):
        ...
    excedance.exact.GuardError: --order must be within 0..64, got 65
    """
    if not lo <= value <= hi:
        raise GuardError(f"{what} must be within {lo}..{hi}{hint}, got {value}")


def factorial(n: int) -> int:
    """n! for n >= 0.

    >>> factorial(0)
    1
    >>> factorial(5)
    120
    """
    if n < 0:
        raise ValueError(f"factorial undefined for negative n={n}")
    return math.factorial(n)


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), total in k.

    Out-of-range k gives 0 rather than an error, matching how the
    recurrences in this package write their sums.

    >>> binomial(4, 2)
    6
    >>> binomial(7, 0)
    1
    >>> binomial(3, 5)
    0
    >>> binomial(3, -1)
    0
    """
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def rational(p: int, q: int) -> Fraction:
    """Normalized fraction p/q; q must be nonzero.

    >>> rational(2, 4)
    Fraction(1, 2)
    >>> rational(1, -2)
    Fraction(-1, 2)
    >>> rational(0, 7)
    Fraction(0, 1)
    """
    if q == 0:
        raise ZeroDivisionError("rational with zero denominator")
    return Fraction(p, q)


def as_rational(value: Fraction | int) -> Fraction:
    """Coerce an exact value to Fraction; floats are refused, not converted.

    There is no floating-point mode anywhere in this package, and silently
    taking the binary expansion of a float would be worse than erroring.
    """
    if isinstance(value, float):
        raise TypeError(f"exact arithmetic only: got float {value!r}")
    return Fraction(value)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or a plain integer string into an exact rational."""
    return Fraction(text.strip())


def format_exact(value: ExactValue) -> str:
    """Render an exact value: plain decimal for integers, "p/q" otherwise."""
    if isinstance(value, Fraction) and value.denominator == 1:
        return str(value.numerator)
    return str(value)
