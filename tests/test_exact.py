from fractions import Fraction


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

