import random
from fractions import Fraction
from math import factorial

import pytest
from cauchy import series_mul

from excedance import cli, series
from excedance.series import (
    _divide,
    bernoulli_series,
    exp_linear,
    genocchi_series,
    phi_series,
    tanh_series,
)
from excedance.permutations import excedance_count, is_alternating_up_down


def S(*coeffs):
    return tuple(Fraction(c) for c in coeffs)


def constant(value, order):
    return S(value, *[0] * order)


def reciprocal(a):
    return _divide((1,), a)


def test_series_is_its_order_plus_one_fractions():
    # A series truncated at order N is the tuple of its N + 1 coefficients.
    for build in (tanh_series, genocchi_series, bernoulli_series,
                  lambda n: exp_linear(2, n), lambda n: phi_series(2, n)):
        for order in (0, 1, 5):
            s = build(order)
            assert len(s) - 1 == order and all(type(c) is Fraction for c in s)
        with pytest.raises(ValueError):
            build(-1)


def test_arithmetic_truncates_to_smaller_order():
    assert len(series_mul(exp_linear(1, 10), S(1, 1))) - 1 == 1


def test_mul_examples():
    assert series_mul(S(1, 1, 0), S(1, -1, 0)) == S(1, 0, -1)  # (1+x)(1-x) = 1 - x^2
    assert series_mul(S(1, 1), S(1, -1)) == S(1, 0)  # same, truncated at order 1
    one = constant(1, 5)
    t = tanh_series(5)
    assert series_mul(t, one) == t


def test_exp_times_exp_inverse_is_one_convolution_oracle():
    # Oracle: expected coefficient k is the literal convolution
    # sum_j 1/j! * (-1)^(k-j)/(k-j)!, computed independently of series_mul.
    n = 12
    product = series_mul(exp_linear(1, n), exp_linear(-1, n))
    for k in range(n + 1):
        expected = sum(
            Fraction(1, factorial(j)) * Fraction((-1) ** (k - j), factorial(k - j))
            for j in range(k + 1)
        )
        assert product[k] == expected
        assert expected == (1 if k == 0 else 0)


def test_reciprocal_geometric_series():
    rec = reciprocal(S(1, -1, 0, 0, 0, 0))
    assert rec == tuple(Fraction(1) for _ in range(6))


def test_reciprocal_of_one_is_one():
    one = constant(1, 4)
    assert reciprocal(one) == one


def test_reciprocal_of_exp_is_exp_of_negated():
    assert reciprocal(exp_linear(1, 10)) == exp_linear(-1, 10)


def test_reciprocal_zero_constant_term_errors():
    # A series starting at x or later has no inverse as a power series.
    with pytest.raises(ZeroDivisionError):
        reciprocal(S(0, 1, 2))


def test_reciprocal_is_true_inverse_on_random_series():
    rng = random.Random(20260808)
    one = constant(1, 12)
    for _ in range(50):
        coeffs = [Fraction(rng.randint(1, 9), rng.randint(1, 9))]
        coeffs += [
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(12)
        ]
        s = tuple(coeffs)
        assert series_mul(s, reciprocal(s)) == one


@pytest.mark.parametrize(
    "a, k, expected",
    [(0, 0, 1), (0, 3, 0), (1, 3, Fraction(1, 6)), (-2, 2, 2)],
)
def test_exp_linear_coefficients(a, k, expected):
    assert exp_linear(a, 5)[k] == expected


def test_phi_constant_term_is_one():
    for t in (Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3)):
        assert phi_series(t, 6)[0] == 1


def test_phi_rejects_t_equal_one():
    with pytest.raises(ValueError):
        phi_series(1, 5)


def test_phi_at_minus_one_is_one_plus_tanh():
    tanh = tanh_series(8)
    assert phi_series(Fraction(-1), 8) == (1 + tanh[0], *tanh[1:])


def test_phi_egf_matches_exhaustive_count_at_two():
    # 3! * [x^3] phi(x,2) = 1*1 + 4*2 + 1*4 over the six length-3
    # permutations tallied by excedance count (1, 4, 1).
    assert factorial(3) * phi_series(2, 3)[3] == 13


def test_phi_satisfies_defining_relation():
    # phi, evaluated by its recurrence at t, times the denominator of the
    # quotient it equals, so a wrong coefficient anywhere up to the top order
    # fails; up to 32-digit integers and p/q at the top order.
    big = Fraction(12345678901234567890123456789012, 98765432109876543210987654321097)
    cases = [(t, 12) for t in (Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3))]
    top = (Fraction(-7, 5), Fraction(6, 5), big, Fraction(10**32 - 1), -big)
    for t, n in cases + [(t, 64) for t in top]:
        phi = phi_series(t, n)
        e = exp_linear(t - 1, n)
        denominator = (t - e[0], *(-c for c in e[1:]))
        assert series_mul(phi, denominator) == constant(t - 1, n)


def test_phi_is_evaluated_apart_from_its_polynomials(monkeypatch):
    # phi_series runs the recurrence at t itself: with phi_polynomials
    # refused it still gives each a_n(t - 1) / n!, read from the expansion.
    points = (Fraction(0), Fraction(-1), Fraction(3), Fraction(-7, 2), Fraction(6, 5))
    expected = {
        t: tuple(sum(c * (t - 1) ** j for j, c in enumerate(a)) / factorial(n)
                 for n, a in enumerate(series.phi_polynomials(33)))
        for t in points
    }

    def refused(order):
        raise AssertionError("phi_series expanded phi_polynomials")
    monkeypatch.setattr(series, "phi_polynomials", refused)
    for t in points:
        assert phi_series(t, 33) == expected[t]


def test_tanh_low_order_coefficients():
    t = tanh_series(7)
    assert t[0] == 0
    assert t[1] == 1
    assert t[2] == 0
    assert t[3] == Fraction(-1, 3)
    assert t[5] == Fraction(2, 15)
    assert t[7] == Fraction(-17, 315)


def test_tanh_even_coefficients_vanish_to_order_20():
    t = tanh_series(20)
    for k in range(0, 21, 2):
        assert t[k] == 0


def test_tanh_odd_egf_values_are_signed_positive_integers():
    t = tanh_series(15)
    for m in range(1, 16, 2):
        value = factorial(m) * t[m] * (-1) ** ((m - 1) // 2)
        assert value.denominator == 1
        assert value > 0


def test_genocchi_series_first_values():
    g = genocchi_series(8)
    assert factorial(1) * g[1] == 1
    assert factorial(2) * g[2] == -1
    assert factorial(3) * g[3] == 0
    assert factorial(6) * g[6] == -3


def test_genocchi_series_integrality():
    g = genocchi_series(12)
    for n in range(1, 13):
        assert (factorial(n) * g[n]).denominator == 1


def test_bernoulli_series_values_and_parity():
    b = bernoulli_series(15)
    assert factorial(0) * b[0] == 1
    assert factorial(1) * b[1] == Fraction(-1, 2)
    assert factorial(2) * b[2] == Fraction(1, 6)
    for n in range(3, 16, 2):
        assert factorial(n) * b[n] == 0


def test_e_to_the_x_has_every_exponential_coefficient_one():
    e = exp_linear(1, 9)
    for k in range(10):
        assert factorial(k) * e[k] == 1


def test_series_text_writes_x0_and_x1_without_powers(capsys):
    # The constant term has no power of x, and x^1 is written x.
    for argv, first in (
        (["tanh", "--order", "3"], "tanh(order=3) = 0 + 1*x + 0*x^2 + -1/3*x^3"),
        (["bernoulli", "--order", "1"], "bernoulli(order=1) = 1 + -1/2*x"),
        (["bernoulli", "--order", "0"], "bernoulli(order=0) = 1"),
    ):
        assert cli.main(["series", *argv]) == 0
        assert capsys.readouterr().out.splitlines()[0] == first


def test_floats_are_refused_everywhere():
    with pytest.raises(TypeError):
        exp_linear(0.5, 3)
    with pytest.raises(TypeError):
        phi_series(0.5, 3)
    with pytest.raises(TypeError):
        excedance_count((2.0, 1.0))
    with pytest.raises(TypeError):
        is_alternating_up_down((1.0, 3.0, 2.0))


def test_series_are_rebuilt_unchanged_after_other_points():
    points = [Fraction(p, 7) for p in range(8, 28)]
    first = phi_series(points[0], 6)
    for t in points:
        phi_series(t, 6)
    assert phi_series(points[0], 6) == first
