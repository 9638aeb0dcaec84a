"""Truncated power series over exact rationals.

A :class:`Series` stores the ordinary coefficients c[0..N] of a formal
power series truncated at an explicit order N.  The exponential view
``n! * c[n]`` is always derived on demand (:func:`egf_coeff`), never stored,
so multiplication stays a plain Cauchy product.  Arithmetic between series
of different orders truncates to the smaller order; precision loss is
therefore always visible in the result's order.

The named constructors build the generating functions this package works
with: e^(a*x), the Eulerian-polynomial generator (t-1)/(t - e^(x(t-1))),
tanh x, 2x/(e^x+1) and x/(e^x-1).  The last three are quotients, each
divided afresh on every call; the Eulerian generator is no division but
the evaluation at t of the integer polynomials :func:`phi_polynomials`.
Nothing is kept between calls.  A coefficient at order k does not depend
on the truncation, so a caller that needs several coefficients reads them
from one series at the top order.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial

from .exact import as_rational, binomial, format_exact

__all__ = [
    "Series",
    "constant_series",
    "series_add",
    "series_sub",
    "exp_linear",
    "phi_polynomials",
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


def _divide(num: tuple, den: tuple[Fraction, ...]) -> Series:
    # The quotient num/den truncated at the order of den, solved one
    # coefficient at a time; num reads as zero past its end, and den[0]
    # must be nonzero.
    out: list[Fraction] = []
    for k in range(len(den)):
        acc = sum((den[j] * out[k - j] for j in range(1, k + 1)), Fraction(0))
        out.append(((num[k] if k < len(num) else 0) - acc) / den[0])
    return Series(out)


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


def phi_polynomials(order: int) -> list[list[int]]:
    """a_0 .. a_order, where a_n(t - 1) = n! * [x^n] (t-1) / (t - e^(x(t-1))).

    Each a_n is an integer coefficient list in s = t - 1, lowest power
    first.  With F = sum_{k>=1} s^(k-1) x^k / k!, the generator is 1/(1-F),
    so a_0 = 1 and a_n = sum_{k=1..n} C(n,k) s^(k-1) a_(n-k).  Coefficient
    j of a_n is (n-j)! S(n, n-j), Frobenius's form of the Eulerian
    polynomial.

    >>> phi_polynomials(3)
    [[1], [1], [2, 1], [6, 6, 1]]
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    polys = [[1]]
    for n in range(1, order + 1):
        a = [0] * n
        for k in range(1, n + 1):
            c = binomial(n, k)
            # Multiplying by s^(k-1) shifts the coefficients k-1 places up.
            for j, coeff in enumerate(polys[n - k], k - 1):
                a[j] += c * coeff
        polys.append(a)
    return polys


def phi_series(t: Fraction | int, order: int) -> Series:
    """Truncation of (t-1) / (t - e^(x(t-1))) for t != 1.

    The denominator has constant term t-1, so the quotient exists exactly
    when t != 1.  The exponential view n! * c[n] is the evaluation at t of
    the generating polynomial of the excedance statistic over all
    permutations of length n (sum of t^exc over the symmetric group), read
    from :func:`phi_polynomials` at s = t - 1 = p/q with one integer sum
    per coefficient.
    """
    t = as_rational(t)
    if t == 1:
        raise ValueError(
            "t=1 degenerates the formula (denominator has zero constant term); "
            "the value there is n! per index"
        )
    s = t - 1
    p_powers = [s.numerator**j for j in range(order + 1)]
    q_powers = [s.denominator**j for j in range(order + 1)]
    coeffs = []
    for n, a in enumerate(phi_polynomials(order)):
        # a(p/q) = sum_j a[j] p^j q^(d-j) / q^d, with d the degree of a.
        d = len(a) - 1
        value = sum(c * p_powers[j] * q_powers[d - j] for j, c in enumerate(a))
        coeffs.append(Fraction(value, q_powers[d] * factorial(n)))
    return Series(coeffs)


def tanh_series(order: int) -> Series:
    """Truncation of tanh x = (e^x - e^-x) / (e^x + e^-x).

    All even-index coefficients cancel exactly in the arithmetic; tanh is
    odd, and the suite checks the zeros rather than forcing them.
    """
    up, down = exp_linear(1, order), exp_linear(-1, order)
    return _divide(series_sub(up, down).coeffs, series_add(up, down).coeffs)


def genocchi_series(order: int) -> Series:
    """Truncation of 2x / (e^x + 1); n! * c[n] is always an integer."""
    return _divide((0, 2), series_add(exp_linear(1, order), constant_series(1, order)).coeffs)


def bernoulli_series(order: int) -> Series:
    """Truncation of x / (e^x - 1).

    The naive quotient has a denominator with zero constant term, so the x
    is divided out symbolically first: (e^x - 1)/x has coefficients
    1/(k+1)!, and the result is its reciprocal.  n! * c[n] is the n-th
    Bernoulli number in the convention where index 1 gives -1/2.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    return _divide((1,), tuple(Fraction(1, factorial(k + 1)) for k in range(order + 1)))


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
