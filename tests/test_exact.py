from fractions import Fraction

import pytest

from excedance import claims, permutations, series
from excedance.exact import GuardError, as_rational


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


def test_a_float_is_refused_not_converted():
    # The one float that tests/test_source.py allows in src/ is this refusal's.
    with pytest.raises(TypeError, match=r"^exact arithmetic only: got float 0\.5$"):
        as_rational(0.5)


def test_integer_decimal_roundtrip_to_1000_digits():
    for value in (0, 7, -12345, 10**999 + 7, -(10**999) - 7, 10**1000 - 1):
        assert int(str(value)) == value
    text = "9" * 1000
    assert str(int(text)) == text


# The sequence prefixes, which refuse a negative count the same way, are
# checked in test_sequences.py.
@pytest.mark.parametrize("function, args, what", [
    (permutations.eulerian_rows, (-1,), "count"),
    (series.exp_linear, (1, -1), "order"),
    (series.phi_polynomials, (-1,), "order"),
    (series.bernoulli_series, (-1,), "order"),
    (claims.verify_claim, ("C3-phi-tanh", -1), "max_n"),
    (series.phi_series, (2, -1), "order"),
], ids=lambda v: getattr(v, "__name__", None))
def test_a_negative_size_is_a_plain_value_error(function, args, what):
    # A library caller's fault, so not a GuardError: inside a command it
    # propagates as a fault instead of printing a refusal.
    with pytest.raises(ValueError, match=f"^{what} must be >= 0, got -1$") as refused:
        function(*args)
    assert not isinstance(refused.value, GuardError)
