"""Reference values for checking excedance output, computed without the package.

Every route here is independent of the package's own code:

* Eulerian rows: the plain-int triangle E(n,k) = (k+1)E(n-1,k) + (n-k)E(n-1,k-1).
* Tangent numbers: the integer Knuth-Buckholtz recurrence in the form of
  Brent & Harvey, "Fast computation of Bernoulli, Tangent and Secant
  numbers" (arXiv:1108.0286), Algorithm TangentNumbers.
* Bernoulli numbers: the Akiyama-Tanigawa transform, which yields B_1 = +1/2;
  the sign is flipped to the package's convention B_1 = -1/2.
* Genocchi numbers: G_n = 2(1 - 2^n) B_n.
* Alternating excedance sums: 1 at n = 0, 0 at even n, and
  (-1)^((n-1)/2) T_n at odd n.

Each table grows on demand and keeps its longest prefix.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial


class References:
    """Growing prefixes of every reference sequence the checks need."""

    def __init__(self) -> None:
        self._eulerian: list[list[int]] = [[], [1]]
        self._tangent: list[int] = []
        self._bernoulli: list[Fraction] = []

    def eulerian_row(self, n: int) -> list[int]:
        """Row n of the Eulerian triangle; row 0 is empty."""
        while len(self._eulerian) <= n:
            m = len(self._eulerian)
            prev = self._eulerian[-1]
            self._eulerian.append([
                (k + 1) * (prev[k] if k < m - 1 else 0)
                + (m - k) * (prev[k - 1] if k >= 1 else 0)
                for k in range(m)
            ])
        return self._eulerian[n]

    def tangent(self, count: int) -> list[int]:
        """T_1, T_3, ..., T_(2*count-1)."""
        if len(self._tangent) < count:
            t = [0] * (count + 1)
            t[1] = 1
            for k in range(2, count + 1):
                t[k] = (k - 1) * t[k - 1]
            for k in range(2, count + 1):
                for j in range(k, count + 1):
                    t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
            self._tangent = t[1:]
        return self._tangent[:count]

    def bernoulli(self, count: int) -> list[Fraction]:
        """B_0, ..., B_(count-1) with B_1 = -1/2."""
        if len(self._bernoulli) < count:
            a = [Fraction(0)] * count
            values = []
            for m in range(count):
                a[m] = Fraction(1, m + 1)
                for j in range(m, 0, -1):
                    a[j - 1] = j * (a[j - 1] - a[j])
                values.append(a[0])
            if count > 1:
                values[1] = -values[1]
            self._bernoulli = values
        return self._bernoulli[:count]

    def genocchi(self, count: int) -> list[int]:
        """G_1, ..., G_count."""
        b = self.bernoulli(count + 1)
        return [_integer(2 * (1 - 2**n) * b[n]) for n in range(1, count + 1)]

    def altsum(self, count: int) -> list[int]:
        """S_0, ..., S_(count-1)."""
        t = self.tangent(count // 2 + 1)
        out = []
        for n in range(count):
            if n == 0:
                out.append(1)
            elif n % 2 == 0:
                out.append(0)
            else:
                out.append((-1) ** ((n - 1) // 2) * t[(n - 1) // 2])
        return out

    def series_egf(self, name: str, order: int, t: Fraction | None = None) -> list[Fraction]:
        """n! * [x^n] of a named series for n = 0..order."""
        if name == "tanh":
            tan = self.tangent(order // 2 + 1)
            return [
                Fraction((-1) ** ((n - 1) // 2) * tan[(n - 1) // 2]) if n % 2 else Fraction(0)
                for n in range(order + 1)
            ]
        if name == "genocchi":
            return [Fraction(0)] + [Fraction(g) for g in self.genocchi(order)]
        if name == "bernoulli":
            return self.bernoulli(order + 1)
        if name == "phi":
            return [Fraction(1)] + [
                sum((c * t**k for k, c in enumerate(self.eulerian_row(n))), Fraction(0))
                for n in range(1, order + 1)
            ]
        raise ValueError(f"no reference for series {name!r}")


def _integer(value: Fraction) -> int:
    if value.denominator != 1:
        raise ArithmeticError(f"reference value {value} is not an integer")
    return value.numerator


def format_exact(value: Fraction | int) -> str:
    """Decimal for integers, p/q otherwise: the rendering the CLI documents."""
    value = Fraction(value)
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def ordinary(egf: list[Fraction]) -> list[Fraction]:
    """[x^n] from n! * [x^n]."""
    return [c / factorial(n) for n, c in enumerate(egf)]
