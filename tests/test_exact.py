from fractions import Fraction

import pytest

from excedance.exact import binomial, format_exact


@pytest.mark.parametrize(
    "n, k, expected",
    [(4, 2, 6), (7, 0, 1), (3, 5, 0), (3, -1, 0), (0, 0, 1), (10, 10, 1)],
)
def test_binomial_values(n, k, expected):
    assert binomial(n, k) == expected


def test_binomial_rejects_negative_n():
    with pytest.raises(ValueError):
        binomial(-2, 1)


def test_binomial_pascal_rule_up_to_30():
    for n in range(1, 31):
        for k in range(0, n + 1):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_field_axioms_hold_structurally():
    values = [Fraction(p, q) for p in range(-3, 4) for q in range(1, 4)]
    for a in values:
        for b in values:
            assert a + b == b + a
            assert a * b == b * a
            assert a - b == -(b - a)
            for c in values[::5]:
                assert a * (b + c) == a * b + a * c
                assert (a + b) + c == a + (b + c)
    nonzero = [v for v in values if v != 0]
    for a in nonzero:
        inv = 1 / a
        assert a * inv == Fraction(1)
        assert (a * inv).denominator == 1


def test_rational_results_stay_normalized():
    a, b = Fraction(1, 6), Fraction(1, 3)
    total = a + b  # 1/2, not 3/6
    assert (total.numerator, total.denominator) == (1, 2)
    assert -Fraction(1, -2) == Fraction(1, 2)
    assert Fraction(1, 3) < Fraction(1, 2) < Fraction(2, 3)


def test_integer_decimal_roundtrip_to_1000_digits():
    for value in (0, 7, -12345, 10**999 + 7, -(10**999) - 7, 10**1000 - 1):
        assert int(str(value)) == value
    text = "9" * 1000
    assert str(int(text)) == text


def test_parse_and_format_roundtrip():
    for text in ("0", "7", "-13", "1/2", "-17/315", "2432902008176640000"):
        assert format_exact(Fraction(text)) == text
    assert format_exact(Fraction(6, 3)) == "2"
    assert format_exact(13) == "13"
