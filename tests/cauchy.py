"""Independent checks the tests share, each written without the package's
own route: the Cauchy product of two truncated series, which checks series
division without any division of its own, the series quotient solved in
Fraction arithmetic term by term, the reference for the package's integer
division, and the change of variable from s = t - 1 to t, which reads
phi's polynomials as excedance tallies."""
from fractions import Fraction
from math import comb


def series_mul(a: tuple, b: tuple) -> tuple:
    """Cauchy product of two coefficient tuples, truncated to the shorter."""
    return tuple(
        sum((a[j] * b[k - j] for j in range(k + 1)), Fraction(0))
        for k in range(min(len(a), len(b)))
    )


def divide(num: tuple, den: tuple) -> tuple:
    """num/den truncated at the order of den, one Fraction at a time; num
    reads as zero past its end, and den[0] must be nonzero."""
    out: list = []
    for k in range(len(den)):
        acc = sum((den[j] * out[k - j] for j in range(1, k + 1)), Fraction(0))
        out.append(((num[k] if k < len(num) else 0) - acc) / den[0])
    return tuple(out)


def in_powers_of_t(a: list[int]) -> list[int]:
    """Integer coefficients of a(t - 1) in t, from those of a(s) in s:
    s^j = (t - 1)^j gives C(j, i) (-1)^(j-i) to t^i for each i <= j."""
    return [sum(comb(j, i) * (-1) ** (j - i) * a[j] for j in range(i, len(a)))
            for i in range(len(a))]
