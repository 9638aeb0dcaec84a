"""Differential property tests: independent routes agree on random inputs."""
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from excedance.permutations import eulerian_poly_bruteforce
from excedance.sequences import eulerian_poly_at
from excedance.series import egf_coeff, phi_series

lengths = st.integers(min_value=0, max_value=7)
points = st.builds(
    Fraction,
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=1, max_value=9),
)


@settings(deadline=None)
@given(n=lengths, t=points)
def test_enumeration_triangle_and_series_agree(n, t):
    for convention in ("standard", "shifted"):
        assert eulerian_poly_bruteforce(n, t, convention) == eulerian_poly_at(
            n, t, convention
        )
    if t != 1:
        assert eulerian_poly_bruteforce(n, t) == egf_coeff(phi_series(t, n), n)
