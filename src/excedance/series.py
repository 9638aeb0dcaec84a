"""Truncated power series over exact rationals.

A series truncated at order N is the tuple of its ordinary coefficients
c[0..N], so its order is its length less one.  The exponential view
``n! * c[n]`` is written where it is read, never stored.

The named constructors build the generating functions this package works
with: e^(a*x), the Eulerian-polynomial generator (t-1)/(t - e^(x(t-1))),
tanh x, 2x/(e^x+1) and x/(e^x-1).  The last three are quotients, each
divided afresh on every call; the Eulerian generator is no division but
the recurrence of :func:`phi_polynomials` evaluated at t, not expanded.
Nothing is kept between calls.  A coefficient at order k does not depend
on the truncation, so a caller that needs several coefficients reads them
from one series at the top order.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm
from operator import add, sub

from .exact import as_rational, require_size

__all__ = [
    "exp_linear",
    "phi_polynomials",
    "phi_series",
    "tanh_series",
    "genocchi_series",
    "bernoulli_series",
]


def _divide(num: tuple, den: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    # The quotient num/den truncated at the order of den, solved one
    # coefficient at a time; num reads as zero past its end, and den[0]
    # must be nonzero.  num and den are scaled to integers, which leaves the
    # quotient as it is, and earlier coefficients are kept as integers over
    # their lcm, so each step sums integer products and builds one Fraction.
    scale = lcm(*(c.denominator for c in (*num, *den)))
    n, d = ([c.numerator * (scale // c.denominator) for c in part] for part in (num, den))
    out: list[Fraction] = []
    scaled: list[int] = []  # out[i] == scaled[i] / common
    common = 1
    for k in range(len(d)):
        acc = sum(d[j] * scaled[k - j] for j in range(1, k + 1))
        c = Fraction((n[k] if k < len(n) else 0) * common - acc, common * d[0])
        step = lcm(common, c.denominator) // common
        scaled, common = [x * step for x in scaled], common * step
        scaled.append(c.numerator * (common // c.denominator))
        out.append(c)
    return tuple(out)


def exp_linear(a: Fraction | int, order: int) -> tuple[Fraction, ...]:
    """Truncation of e^(a*x): coefficient of x^k is a^k / k!.

    >>> exp_linear(0, 3)
    (Fraction(1, 1), Fraction(0, 1), Fraction(0, 1), Fraction(0, 1))
    >>> exp_linear(1, 3)[3]
    Fraction(1, 6)
    >>> exp_linear(-2, 2)[2]
    Fraction(2, 1)
    """
    require_size("order", order)
    a = as_rational(a)
    return tuple(a**k / factorial(k) for k in range(order + 1))


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
    require_size("order", order)
    polys = [[1]]
    for n in range(1, order + 1):
        a = [0] * n
        for k in range(1, n + 1):
            c = comb(n, k)
            # Multiplying by s^(k-1) shifts the coefficients k-1 places up.
            for j, coeff in enumerate(polys[n - k], k - 1):
                a[j] += c * coeff
        polys.append(a)
    return polys


def phi_series(t: Fraction | int, order: int) -> tuple[Fraction, ...]:
    """Truncation of (t-1) / (t - e^(x(t-1))) for t != 1.

    The denominator has constant term t-1, so the quotient exists exactly
    when t != 1.  The exponential view n! * c[n] is the evaluation at t of
    the generating polynomial of the excedance statistic over all
    permutations of length n (sum of t^exc over the symmetric group),
    evaluated by the recurrence of :func:`phi_polynomials` at s = t - 1 = p/q
    in O(order^2) integer products: w_n = q^n a_n(p/q) is an integer, w_0 = 1
    and w_n = q * sum_{k=1..n} C(n,k) p^(k-1) w_(n-k).
    """
    t = as_rational(t)
    if t == 1:
        raise ValueError(
            "t=1 degenerates the formula (denominator has zero constant term); "
            "the value there is n! per index"
        )
    require_size("order", order)
    p, q = (t - 1).as_integer_ratio()
    p_powers = [p**j for j in range(order)]
    w = [1]
    for n in range(1, order + 1):
        w.append(q * sum(comb(n, k) * p_powers[k - 1] * w[n - k] for k in range(1, n + 1)))
    return tuple(Fraction(v, q**n * factorial(n)) for n, v in enumerate(w))


def tanh_series(order: int) -> tuple[Fraction, ...]:
    """Truncation of tanh x = (e^x - e^-x) / (e^x + e^-x).

    All even-index coefficients cancel exactly in the arithmetic; tanh is
    odd, and the suite checks the zeros rather than forcing them.
    """
    up, down = exp_linear(1, order), exp_linear(-1, order)
    return _divide(tuple(map(sub, up, down)), tuple(map(add, up, down)))


def genocchi_series(order: int) -> tuple[Fraction, ...]:
    """Truncation of 2x / (e^x + 1); n! * c[n] is always an integer."""
    e = exp_linear(1, order)
    return _divide((0, 2), (e[0] + 1, *e[1:]))


def bernoulli_series(order: int) -> tuple[Fraction, ...]:
    """Truncation of x / (e^x - 1).

    The naive quotient has a denominator with zero constant term, so the x
    is divided out symbolically first: (e^x - 1)/x has coefficients
    1/(k+1)!, and the result is its reciprocal.  n! * c[n] is the n-th
    Bernoulli number in the convention where index 1 gives -1/2.
    """
    require_size("order", order)
    return _divide((1,), tuple(Fraction(1, factorial(k + 1)) for k in range(order + 1)))
