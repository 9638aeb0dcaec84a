"""Exact-arithmetic toolkit for excedance statistics and the classical
sequences attached to them, with a mechanical identity-verification harness.

Everything is computed over arbitrary-precision integers and normalized
rationals; there is no floating point anywhere.  The subpackages:

* :mod:`excedance.exact` -- integers, rationals, factorial/binomial.
* :mod:`excedance.series` -- truncated power series and the named
  generating functions (Eulerian, tanh, Genocchi, Bernoulli).
* :mod:`excedance.permutations` -- statistics, the excedance tally and the
  exhaustive enumeration oracle.
* :mod:`excedance.sequences` -- multi-route sequence generators.
* :mod:`excedance.claims` -- the claim registry and PASS/FAIL verification.
* :mod:`excedance.cli` -- the ``excedance`` command.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .claims import (
    Claim,
    ClaimResult,
    Counterexample,
    Report,
    claim_ids,
    render_report,
    verify_all,
    verify_claim,
)
from .exact import GuardError, binomial, factorial, format_exact, parse_rational
from .permutations import (
    Permutation,
    alternating_sum_bruteforce,
    count_alternating,
    enumerate_permutations,
    eulerian_poly_bruteforce,
    excedance_count,
    excedance_distribution,
    is_alternating_up_down,
)
from .sequences import alternating_sum, bernoulli, eulerian_numbers, genocchi, tangent
from .series import (
    Series,
    bernoulli_series,
    egf_coeff,
    exp_linear,
    genocchi_series,
    phi_series,
    series_add,
    series_mul,
    series_reciprocal,
    series_scale,
    tanh_series,
)

# Every public name imported above, so each export is written once.
__all__ = ["__version__"] + [
    name for name, value in list(globals().items())
    if not name.startswith("_") and getattr(value, "__module__", "").startswith(__name__ + ".")
]
