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

Importing the package loads none of them: each export and each submodule
resolves on first use, so a command loads only the modules it runs.
"""
from __future__ import annotations

import importlib

__version__ = "0.1.0"

# Each export and the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "claims": ("Claim", "ClaimResult", "Counterexample", "Report", "claim_ids",
                   "render_report", "verify_all", "verify_claim"),
        "exact": ("GuardError", "binomial", "factorial", "format_exact", "parse_rational"),
        "permutations": ("Permutation", "alternating_sum_bruteforce", "count_alternating",
                         "enumerate_permutations", "eulerian_poly_bruteforce",
                         "excedance_count", "excedance_distribution",
                         "is_alternating_up_down"),
        "sequences": ("alternating_sum", "bernoulli", "eulerian_numbers", "genocchi",
                      "tangent"),
        "series": ("Series", "bernoulli_series", "egf_coeff", "exp_linear",
                   "genocchi_series", "phi_series", "series_add", "series_mul",
                   "series_reciprocal", "series_scale", "tanh_series"),
    }.items()
    for name in names
}
_SUBMODULES = ("claims", "cli", "exact", "permutations", "sequences", "series")

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
