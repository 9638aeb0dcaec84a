"""Exact integer and rational primitives shared by every other module.

Integers are plain Python ints, which are already arbitrary precision and
round-trip losslessly through decimal strings.  Rationals are
:class:`fractions.Fraction`, which is eagerly normalized: gcd-reduced
numerator over a strictly positive denominator, so equality is structural.
The helpers below pin down the conventions the rest of the package leans
on, in particular that ``binomial`` is a total function returning 0 outside
the Pascal triangle (the summation convention used by every recurrence
here).  The work limits are tabled here too, so each size bound is
written once.  A limit is applied only where input arrives from outside
(the command line) or where the work is exponential (the enumeration
oracle); every polynomial library function takes any size.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

# An exact value, as format_exact renders it and claim counterexamples hold it.
ExactValue = int | Fraction

__all__ = [
    "ExactValue",
    "GuardError",
    "DESK_LIMIT",
    "ENUMERATION_LIMIT",
    "SERIES_ORDER_LIMIT",
    "SEQ_COUNT_LIMIT",
    "T_DIGITS_LIMIT",
    "require_within",
    "factorial",
    "binomial",
    "as_rational",
    "parse_rational",
    "format_exact",
    "format_table",
]


class GuardError(ValueError):
    """Raised when input from outside is refused, e.g. past a work limit below."""


# Work limits: where each applies, and its measured cost (2 cores, Python 3.11).
DESK_LIMIT = 8  # CLI dist n and verify --max-n without --force; the oracle enumerates 8! in 0.17 s
ENUMERATION_LIMIT = 12  # enumerate_permutations, 16 s at 10; CLI dist n --force, 0.14 s at 12
SERIES_ORDER_LIMIT = 64  # CLI series <name> --order 64 takes 0.17 s
SEQ_COUNT_LIMIT = 500  # CLI seq eulerian --count 500, the slowest seq, takes 1.3 s; genocchi 0.10 s
# CLI series phi --t: digits of its numerator and of its denominator.  At order 64
# the coefficients reach about 64*d + 100 digits, 2100 at 32: 0.2 s, 0.45 s for p/q.
T_DIGITS_LIMIT = 32


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
    return Fraction(text)


def format_exact(value: ExactValue) -> str:
    """Render an exact value: plain decimal for integers, "p/q" otherwise."""
    return str(value)


def format_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Left-aligned columns two spaces apart, each line right-stripped.

    >>> print(format_table(("k", "count"), [("0", "1"), ("1", "4083")]))
    k  count
    0  1
    1  4083
    """
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in (header, *rows)
    )
