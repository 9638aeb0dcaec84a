"""Differential property tests: independent routes agree on random inputs."""
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from excedance import series
from excedance.cli import SERIES
from excedance.exact import factorial
from excedance.permutations import eulerian_poly_bruteforce
from excedance.sequences import eulerian_numbers, tangent
from excedance.series import (
    Series,
    constant_series,
    egf_coeff,
    exp_linear,
    phi_series,
    series_add,
    series_mul,
    series_reciprocal,
    series_sub,
)

lengths = st.integers(min_value=0, max_value=7)
points = st.builds(
    Fraction,
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=1, max_value=9),
)


@settings(deadline=None)
@given(n=lengths, t=points)
def test_tally_triangle_and_series_agree(n, t):
    # Length 0 has one permutation, with no excedances.
    row = eulerian_numbers(n) if n else [1]
    assert eulerian_poly_bruteforce(n, t) == sum(c * t**k for k, c in enumerate(row))
    if t != 1:
        assert eulerian_poly_bruteforce(n, t) == egf_coeff(phi_series(t, n), n)


small = st.builds(
    Fraction,
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=1, max_value=5),
)
small_series = st.lists(small, min_size=1, max_size=8).map(lambda cs: Series(tuple(cs)))
invertible_series = st.builds(
    lambda c0, rest: Series((c0, *rest)),
    small.filter(lambda c: c != 0),
    st.lists(small, max_size=7),
)


@given(a=invertible_series)
def test_reciprocal_is_a_multiplicative_inverse(a):
    assert series_mul(a, series_reciprocal(a)) == constant_series(1, a.order)


@given(a=small_series, b=small_series, c=small_series)
def test_series_mul_commutes_and_associates(a, b, c):
    assert series_mul(a, b) == series_mul(b, a)
    assert series_mul(series_mul(a, b), c) == series_mul(a, series_mul(b, c))


def _quotient_terms(name, t, n):
    # Numerator and denominator at order n, built without any division.
    up, down = exp_linear(1, n), exp_linear(-1, n)
    if name == "tanh":
        return series_sub(up, down), series_add(up, down)
    if name == "genocchi":
        two_x = Series(tuple(Fraction(2 if k == 1 else 0) for k in range(n + 1)))
        return two_x, series_add(up, constant_series(1, n))
    if name == "bernoulli":
        return constant_series(1, n), Series(
            tuple(Fraction(1, factorial(k + 1)) for k in range(n + 1))
        )
    return constant_series(t - 1, n), series_sub(
        constant_series(t, n), exp_linear(t - 1, n)
    )


@settings(deadline=None)
@given(
    name=st.sampled_from(sorted(SERIES)),
    t=points.filter(lambda t: t != 1),
    orders=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=5),
)
def test_named_series_are_prefixes_of_one_quotient(name, t, orders):
    series._QUOTIENTS.clear()  # grow from empty, in the drawn order
    results = [SERIES[name](n, t) for n in orders]
    longest = max(results, key=lambda s: s.order)
    for s in results:
        assert s.coeffs == longest.coeffs[: s.order + 1]
        numerator, denominator = _quotient_terms(name, t, s.order)
        assert series_mul(s, denominator) == numerator


odd = st.integers(min_value=1, max_value=200).map(lambda k: 2 * k - 1)


@settings(deadline=None)
@given(m=odd)
def test_tangent_routes_agree_wherever_defined(m):
    value = tangent(m, "integer")
    assert value == tangent(m, "bernoulli")
    if m <= 64:
        assert value == tangent(m, "series")
    assert value == tangent(m, "counting")
