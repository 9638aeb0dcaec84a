"""Differential property tests: independent routes agree on random inputs."""
from fractions import Fraction
from math import factorial

import pytest
from cauchy import divide, fold, series_mul
from hypothesis import given, settings
from hypothesis import strategies as st

from excedance.cli import SERIES
from excedance.permutations import alternating_counts, eulerian_rows
from excedance.sequences import tangents, tangents_by_bernoulli, tangents_by_tanh
from excedance.series import _divide, exp_linear, phi_series

lengths = st.integers(min_value=0, max_value=7)
# The excedance tallies of lengths 0..7, from one prefix: row n is length n.
ROWS = list(eulerian_rows(8))
points = st.builds(
    Fraction,
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=1, max_value=9),
)


@settings(deadline=None)
@given(n=lengths, t=points)
def test_tally_triangle_and_series_agree(n, t):
    # The tally row folded at t against phi's coefficient, evaluated from its
    # polynomials; t = 1 is the row sum n!.
    assert fold(ROWS[n], t) == (factorial(n) * phi_series(t, n)[n] if t != 1 else factorial(n))


small = st.builds(
    Fraction,
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=1, max_value=5),
)
small_series = st.lists(small, min_size=1, max_size=8).map(tuple)
invertible_series = st.builds(
    lambda c0, rest: (c0, *rest),
    small.filter(lambda c: c != 0),
    st.lists(small, max_size=7),
)


@given(a=invertible_series)
def test_reciprocal_is_a_multiplicative_inverse(a):
    assert series_mul(a, _divide((1,), a)) == (1, *[0] * (len(a) - 1))


@given(a=small_series, b=small_series, c=small_series)
def test_series_mul_commutes_and_associates(a, b, c):
    assert series_mul(a, b) == series_mul(b, a)
    assert series_mul(series_mul(a, b), c) == series_mul(a, series_mul(b, c))


def _quotient_terms(name, t, n):
    # Numerator and denominator at order n, built without any division.
    up, down = exp_linear(1, n), exp_linear(-1, n)
    zeros = [0] * n
    if name == "tanh":
        return tuple(u - d for u, d in zip(up, down)), tuple(u + d for u, d in zip(up, down))
    if name == "genocchi":
        return (0, 2, *zeros)[: n + 1], (up[0] + 1, *up[1:])
    if name == "bernoulli":
        return (1, *zeros), tuple(Fraction(1, factorial(k + 1)) for k in range(n + 1))
    e = exp_linear(t - 1, n)
    return (t - 1, *zeros), (t - e[0], *(-c for c in e[1:]))


@pytest.mark.parametrize("name", ["tanh", "genocchi", "bernoulli"])
@pytest.mark.parametrize("order", [0, 1, 2, 7, 31, 64])
def test_named_quotients_divide_as_the_fraction_reference(name, order):
    numerator, denominator = _quotient_terms(name, None, order)
    assert _divide(numerator, denominator) == divide(numerator, denominator)


coefficient = small | st.integers(min_value=-5, max_value=5)


@given(
    num=st.lists(coefficient, max_size=13).map(tuple),
    den=st.lists(coefficient, min_size=1, max_size=13).filter(lambda d: d[0] != 0).map(tuple),
)
def test_division_matches_the_fraction_reference(num, den):
    assert _divide(num, den) == divide(num, den)


@settings(deadline=None)
@given(
    name=st.sampled_from(sorted(SERIES)),
    t=points.filter(lambda t: t != 1),
    orders=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=5),
)
def test_named_series_are_prefixes_of_one_quotient(name, t, orders):
    results = [SERIES[name](n, t) for n in orders]
    longest = max(results, key=len)
    for s in results:
        assert s == longest[: len(s)]
        numerator, denominator = _quotient_terms(name, t, len(s) - 1)
        assert series_mul(s, denominator) == numerator


odd = st.integers(min_value=1, max_value=200).map(lambda k: 2 * k - 1)


@settings(deadline=None)
@given(m=odd)
def test_tangent_routes_agree_wherever_defined(m):
    count = (m + 1) // 2
    value = tangents(count)[-1]
    assert value == tangents_by_bernoulli(count)[-1]
    if m <= 64:
        assert value == tangents_by_tanh(count)[-1]
    assert value == alternating_counts(m + 1)[m]
