"""The Cauchy product of two truncated series: the tests' independent check
of series division, written without any division of its own."""
from fractions import Fraction

from excedance.series import Series


def series_mul(a: Series, b: Series) -> Series:
    """Cauchy product truncated to the smaller order."""
    n = min(a.order, b.order)
    return Series(tuple(
        sum((a.coeffs[j] * b.coeffs[k - j] for j in range(k + 1)), Fraction(0))
        for k in range(n + 1)
    ))
