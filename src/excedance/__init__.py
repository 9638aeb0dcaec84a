"""Exact-arithmetic toolkit for excedance statistics and the classical
sequences attached to them, with a mechanical identity-verification harness.

Everything is computed over arbitrary-precision integers and normalized
rationals; there is no floating point anywhere.  The subpackages:

* :mod:`excedance.exact` -- work limits, their refusal and the float refusal.
* :mod:`excedance.series` -- truncated power series and the named
  generating functions (Eulerian, tanh, Genocchi, Bernoulli).
* :mod:`excedance.permutations` -- statistics, the excedance tally (the
  Eulerian rows) and the exhaustive enumeration oracle.
* :mod:`excedance.sequences` -- multi-route sequence generators.
* :mod:`excedance.claims` -- the claim registry and PASS/FAIL verification.
* :mod:`excedance.cli` -- the ``excedance`` command, the one module that
  renders results as text or JSON.

Importing the package loads none of them: each submodule resolves on first
use, so a command loads only the modules it runs.  Each public name lives
in its module, listed in that module's ``__all__``.
"""
from __future__ import annotations

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("claims", "cli", "exact", "permutations", "sequences", "series")

__all__ = ["__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULES})
