"""The work limits and the refusals every module shares: of a size, of a float.

Integers are plain Python ints, which are already arbitrary precision and
round-trip losslessly through decimal strings.  Rationals are
:class:`fractions.Fraction`, which is eagerly normalized: gcd-reduced
numerator over a strictly positive denominator, so equality is structural.
It is imported only where a rational is built, so a command that builds
none never loads it; :func:`as_rational` refuses floats rather than
converting them.  The work limits are tabled here, so each size bound is
written once, and :func:`require_size` is the one refusal of a negative
size.  A limit is applied only where input arrives from outside
(the command line) or where the work is exponential (the enumeration
oracle); every polynomial library function takes any size.
"""
from __future__ import annotations
TYPE_CHECKING = False  # type checkers read it as true; at run time fractions loads lazily
if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "GuardError",
    "DESK_LIMIT",
    "ENUMERATION_LIMIT",
    "SERIES_ORDER_LIMIT",
    "SEQ_COUNT_LIMIT",
    "T_DIGITS_LIMIT",
    "require_within",
    "require_size",
    "as_rational",
]


class GuardError(ValueError):
    """Raised when input from outside is refused, e.g. past a work limit below."""


# Work limits: where each applies, and its measured cost (2 cores, Python 3.11.7; CLI
# times with process start and no bytecode written, median of 11 fresh processes with
# the commands interleaved, --version alone 0.05 s).  Each limit stays even where
# its work is now cheap, because removing it would change the exit code of refused inputs.
DESK_LIMIT = 8  # CLI dist n and verify --max-n without --force; verify enumerates nothing, 0.06 s
# enumerate_permutations yields all 10! in 0.05 s (in-process, median of 3);
# CLI dist 12 --force builds one row in 0.05 s.
ENUMERATION_LIMIT = 12
SERIES_ORDER_LIMIT = 64  # CLI series <name> --order 64 takes 0.05 to 0.06 s
# CLI seq eulerian --count 500, the slowest seq, takes 0.53 s in text and 0.55 s in JSON;
# genocchi 0.05 s.
SEQ_COUNT_LIMIT = 500
# CLI series phi --t: digits of its numerator and of its denominator, and so 66 characters
# of text.  At order 64 the coefficients reach about 64*d + 100 digits: 0.06 s, 0.07 s for p/q.
T_DIGITS_LIMIT = 32


def require_within(what: str, value: int, lo: int, hi: int | None, hint: str = "") -> None:
    """Refuse a value outside lo..hi with a GuardError naming its bounds;
    hi None means no upper bound.

    >>> require_within("--order", 65, 0, SERIES_ORDER_LIMIT)
    Traceback (most recent call last):
        ...
    excedance.exact.GuardError: --order must be within 0..64, got 65
    """
    if value < lo or hi is not None and value > hi:
        bounds = f">= {lo}" if hi is None else f"within {lo}..{hi}"
        raise GuardError(f"{what} must be {bounds}{hint}, got {value}")


def require_size(what: str, value: int) -> None:
    """Refuse a negative size with a plain ValueError, not a GuardError: a
    library caller passed it, so inside a command it is a fault and propagates."""
    if value < 0:
        raise ValueError(f"{what} must be >= 0, got {value}")


def as_rational(value: Fraction | int) -> Fraction:
    """Coerce an exact value to Fraction; floats are refused, not converted.

    There is no floating-point mode anywhere in this package, and silently
    taking the binary expansion of a float would be worse than erroring.
    """
    from fractions import Fraction
    if isinstance(value, float):
        raise TypeError(f"exact arithmetic only: got float {value!r}")
    return Fraction(value)
