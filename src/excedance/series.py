"""Truncated power series over exact rationals.

A :class:`Series` stores the ordinary coefficients c[0..N] of a formal
power series truncated at an explicit order N.  The exponential view
``n! * c[n]`` is always derived on demand (:func:`egf_coeff`), never stored,
so multiplication stays a plain Cauchy product.  Arithmetic between series
of different orders truncates to the smaller order; precision loss is
therefore always visible in the result's order.

The named constructors build the generating functions this package works
with: e^(a*x), the Eulerian-polynomial generator (t-1)/(t - e^(x(t-1))),
tanh x, 2x/(e^x+1) and x/(e^x-1).  The last four are quotients, whose
coefficient at order k does not depend on the truncation: each is one
grow-only coefficient list, extended by division only when a higher order
is asked for, and every call returns a prefix of it.  The lists share one
store of at most eight keys, which evicts the least recently used key.
A default ``verify`` reads nine (tanh, 2x/(e^x+1) and phi at C1's seven
values of t); the one evicted is read by C1 alone, after C1 is done.
"""
from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction

from .exact import as_rational, factorial, format_exact

__all__ = [
    "Series",
    "constant_series",
    "series_add",
    "series_sub",
    "series_scale",
    "series_mul",
    "series_reciprocal",
    "exp_linear",
    "phi_series",
    "tanh_series",
    "genocchi_series",
    "bernoulli_series",
    "egf_coeff",
    "render_series",
]


class Series:
    """Ordinary coefficients of a power series truncated at ``order``."""

    __slots__ = ("coeffs",)
    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs) -> None:
        if not coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", tuple(as_rational(c) for c in coeffs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        return self.coeffs == other.coeffs if type(other) is Series else NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __repr__(self) -> str:
        return f"Series(order={self.order}, {render_series(self)})"


def constant_series(value: Fraction | int, order: int) -> Series:
    if order < 0:
        raise ValueError("order must be >= 0")
    return Series((as_rational(value),) + (Fraction(0),) * order)


def series_add(a: Series, b: Series) -> Series:
    n = min(a.order, b.order)
    return Series(tuple(a.coeffs[k] + b.coeffs[k] for k in range(n + 1)))


def series_sub(a: Series, b: Series) -> Series:
    n = min(a.order, b.order)
    return Series(tuple(a.coeffs[k] - b.coeffs[k] for k in range(n + 1)))


def series_scale(c: Fraction | int, a: Series) -> Series:
    c = as_rational(c)
    return Series(tuple(c * x for x in a.coeffs))


def series_mul(a: Series, b: Series) -> Series:
    """Cauchy product truncated to the smaller order."""
    n = min(a.order, b.order)
    out = tuple(
        sum((a.coeffs[j] * b.coeffs[k - j] for j in range(k + 1)), Fraction(0))
        for k in range(n + 1)
    )
    return Series(out)


def _divide(num: tuple, den: tuple[Fraction, ...], out: list[Fraction]) -> None:
    # Extend out in place up to len(den) coefficients by solving out*den = num
    # one coefficient at a time; num reads as zero past its end, and den[0]
    # must be nonzero.
    for k in range(len(out), len(den)):
        acc = sum((den[j] * out[k - j] for j in range(1, k + 1)), Fraction(0))
        out.append(((num[k] if k < len(num) else 0) - acc) / den[0])


def series_reciprocal(a: Series) -> Series:
    """Multiplicative inverse up to the truncation order.

    Solves a*b = 1 coefficient by coefficient: b[0] = 1/a[0] and
    b[k] = -(1/a[0]) * sum_{j=1..k} a[j] b[k-j].  Requires a nonzero
    constant term; a series starting at x or later is not invertible.
    """
    if a.coeffs[0] == 0:
        raise ValueError(
            "series with zero constant term is not invertible as a power series"
        )
    out: list[Fraction] = []
    _divide((1,), a.coeffs, out)
    return Series(tuple(out))


def exp_linear(a: Fraction | int, order: int) -> Series:
    """Truncation of e^(a*x): coefficient of x^k is a^k / k!.

    >>> exp_linear(0, 3).coeffs
    (Fraction(1, 1), Fraction(0, 1), Fraction(0, 1), Fraction(0, 1))
    >>> exp_linear(1, 3).coeffs[3]
    Fraction(1, 6)
    >>> exp_linear(-2, 2).coeffs[2]
    Fraction(2, 1)
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    a = as_rational(a)
    return Series(tuple(a**k / factorial(k) for k in range(order + 1)))


# The named quotients' coefficient lists, least recently used first.
_QUOTIENTS: dict[object, list[Fraction]] = {}
_QUOTIENTS_MAX = 8


def _quotient_prefix(key: object, order: int, terms: Callable[[int], tuple]) -> Series:
    # terms(order) gives the numerator and denominator truncated at order;
    # it runs only when the stored prefix is too short.
    if order < 0:
        raise ValueError("order must be >= 0")
    coeffs = _QUOTIENTS.pop(key, [])
    if len(coeffs) <= order:
        _divide(*terms(order), coeffs)
    _QUOTIENTS[key] = coeffs
    if len(_QUOTIENTS) > _QUOTIENTS_MAX:
        del _QUOTIENTS[next(iter(_QUOTIENTS))]
    return Series(tuple(coeffs[: order + 1]))


def phi_series(t: Fraction | int, order: int) -> Series:
    """Truncation of (t-1) / (t - e^(x(t-1))) for t != 1.

    The denominator has constant term t-1, so the quotient exists exactly
    when t != 1.  The exponential view n! * c[n] is the evaluation at t of
    the generating polynomial of the excedance statistic over all
    permutations of length n (sum of t^exc over the symmetric group).
    """
    t = as_rational(t)
    if t == 1:
        raise ValueError(
            "t=1 degenerates the formula (denominator has zero constant term); "
            "the value there is n! per index"
        )

    def terms(n: int):
        return (t - 1,), series_sub(constant_series(t, n), exp_linear(t - 1, n)).coeffs

    return _quotient_prefix(("phi", t), order, terms)


def tanh_series(order: int) -> Series:
    """Truncation of tanh x = (e^x - e^-x) / (e^x + e^-x).

    All even-index coefficients cancel exactly in the arithmetic; tanh is
    odd, and the suite checks the zeros rather than forcing them.
    """
    def terms(n: int):
        up, down = exp_linear(1, n), exp_linear(-1, n)
        return series_sub(up, down).coeffs, series_add(up, down).coeffs

    return _quotient_prefix("tanh", order, terms)


def genocchi_series(order: int) -> Series:
    """Truncation of 2x / (e^x + 1); n! * c[n] is always an integer."""
    def terms(n: int):
        return (0, 2), series_add(exp_linear(1, n), constant_series(1, n)).coeffs

    return _quotient_prefix("genocchi", order, terms)


def bernoulli_series(order: int) -> Series:
    """Truncation of x / (e^x - 1).

    The naive quotient has a denominator with zero constant term, so the x
    is divided out symbolically first: (e^x - 1)/x has coefficients
    1/(k+1)!, and the result is its reciprocal.  n! * c[n] is the n-th
    Bernoulli number in the convention where index 1 gives -1/2.
    """
    def terms(n: int):
        return (1,), tuple(Fraction(1, factorial(k + 1)) for k in range(n + 1))

    return _quotient_prefix("bernoulli", order, terms)


def egf_coeff(s: Series, n: int) -> Fraction:
    """Exponential coefficient n! * c[n]; errors past the truncation order."""
    if n < 0:
        raise ValueError("index must be >= 0")
    if n > s.order:
        raise ValueError(
            f"index {n} exceeds the truncation order {s.order}; "
            "rebuild the series with a larger order"
        )
    return factorial(n) * s.coeffs[n]


def render_series(s: Series) -> str:
    """Plain-text form "c0 + c1*x + c2*x^2 + ..." with rationals as p/q.

    >>> render_series(Series((Fraction(1), Fraction(-1, 2))))
    '1 + -1/2*x'
    """
    parts = [format_exact(s.coeffs[0])]
    for k in range(1, s.order + 1):
        power = "x" if k == 1 else f"x^{k}"
        parts.append(f"{format_exact(s.coeffs[k])}*{power}")
    return " + ".join(parts)
