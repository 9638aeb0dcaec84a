"""Exact-arithmetic toolkit for excedance statistics and the classical
sequences attached to them, with a mechanical identity-verification harness.

Everything is computed over arbitrary-precision integers and normalized
rationals; there is no floating point anywhere.  The subpackages:

* :mod:`excedance.exact` -- integers, rationals, factorial/binomial.
* :mod:`excedance.series` -- truncated power series and the named
  generating functions (Eulerian, tanh, Genocchi, Bernoulli).
* :mod:`excedance.permutations` -- exhaustive enumeration and statistics;
  the ground-truth oracle.
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
from .exact import GuardError, binomial, factorial, format_exact, parse_rational, rational
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
from .sequences import (
    SequenceTable,
    alternating_sum,
    bernoulli,
    eulerian_numbers,
    eulerian_poly_at,
    genocchi,
    sequence_table,
    tangent,
)
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

__all__ = [
    "__version__",
    "Claim",
    "ClaimResult",
    "Counterexample",
    "Report",
    "claim_ids",
    "render_report",
    "verify_all",
    "verify_claim",
    "binomial",
    "factorial",
    "format_exact",
    "parse_rational",
    "rational",
    "GuardError",
    "Permutation",
    "alternating_sum_bruteforce",
    "count_alternating",
    "enumerate_permutations",
    "eulerian_poly_bruteforce",
    "excedance_count",
    "excedance_distribution",
    "is_alternating_up_down",
    "SequenceTable",
    "alternating_sum",
    "bernoulli",
    "eulerian_numbers",
    "eulerian_poly_at",
    "genocchi",
    "sequence_table",
    "tangent",
    "Series",
    "bernoulli_series",
    "egf_coeff",
    "exp_linear",
    "genocchi_series",
    "phi_series",
    "series_add",
    "series_mul",
    "series_reciprocal",
    "series_scale",
    "tanh_series",
]
