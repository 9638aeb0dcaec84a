"""Registry of asserted identities, each verified by independent routes.

Every claim pairs a left and a right computation that share nothing beyond
the exact-arithmetic primitives: series extraction against the
excedance tally, closed forms against recurrences, and so on.  A claim is
evaluated per index over a finite range; any index where the two sides
disagree becomes a counterexample, and the verdict is FAIL exactly when at
least one counterexample exists.

Claims are registered verbatim as asserted in their source text, including
the ones that are false; the point of the harness is to find that out
mechanically, not to silently correct them.  For claims known to fail, the
registry records the first failing index, which drives the expected-verdict
logic of the command-line interface: a FAIL that appears exactly where it
should is a confirmation, not a regression.
"""
from __future__ import annotations

import json
from fractions import Fraction
from typing import Callable, NamedTuple

from .exact import DESK_LIMIT, ExactValue, binomial, format_exact, format_table
from .permutations import alternating_sum_bruteforce, count_alternating, eulerian_poly_bruteforce
from .sequences import (
    alternating_sum,
    genocchi,
    genocchi_value,
    tangent_bernoulli_value,
    tangent_series_value,
    tangents,
)
from .series import (
    constant_series,
    egf_coeff,
    phi_series,
    series_add,
    tanh_series,
)

__all__ = [
    "Claim",
    "Counterexample",
    "ClaimResult",
    "Report",
    "register",
    "claim_ids",
    "get_claim",
    "verify_claim",
    "verify_all",
    "render_report",
]

PASS = "PASS"
FAIL = "FAIL"

# Pairs of exact values produced per index by a claim evaluator.
Pairs = list[tuple[ExactValue, ExactValue]]

# Evaluation points for the generating-function claims; kept small and
# mixed-sign/mixed-size so a convention slip cannot cancel out.
_T_POINTS = (Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3))


class Claim(NamedTuple):
    """A single identity with an index range and a per-index evaluator.

    ``evaluate(n)`` returns (lhs, rhs) pairs of exact values; several pairs
    per index are allowed (for example one per evaluation point t).  An
    empty list means the identity says nothing at that index.
    """

    id: str
    paper_ref: str
    statement: str
    lo: int
    hi: int
    evaluate: Callable[[int], Pairs]
    expected_first_failure: int | None = None
    notes: str = ""

    def expected_verdict(self, max_n: int) -> str:
        first = self.expected_first_failure
        if first is not None and self.lo <= first <= min(self.hi, max_n):
            return FAIL
        return PASS


class Counterexample(NamedTuple):
    n: int
    lhs: ExactValue
    rhs: ExactValue

    def render(self) -> str:
        return f"n={self.n}: lhs={format_exact(self.lhs)} rhs={format_exact(self.rhs)}"


class ClaimResult(NamedTuple):
    claim_id: str
    paper_ref: str
    verdict: str
    lo: int
    hi: int
    counterexamples: tuple[Counterexample, ...]
    notes: str = ""


class Report(NamedTuple):
    max_n: int
    results: tuple[ClaimResult, ...]
    generated_at: str = ""
    version: str = ""


_REGISTRY: dict[str, Claim] = {}


def register(claim: Claim) -> Claim:
    """Add a claim to the registry; citation-less or duplicate ids refuse."""
    if not claim.paper_ref.strip():
        raise ValueError(f"claim {claim.id!r} has no source citation")
    if claim.id in _REGISTRY:
        raise ValueError(f"claim id {claim.id!r} is already registered")
    if claim.lo > claim.hi:
        raise ValueError(f"claim {claim.id!r} has an empty range")
    _REGISTRY[claim.id] = claim
    return claim


def claim_ids() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def get_claim(claim_id: str) -> Claim:
    try:
        return _REGISTRY[claim_id]
    except KeyError:
        raise KeyError(
            f"unknown claim {claim_id!r}; registered ids: {', '.join(_REGISTRY)}"
        ) from None


def verify_claim(claim_id: str, max_n: int = DESK_LIMIT) -> ClaimResult:
    """Evaluate one claim on its range intersected with [0, max_n]."""
    claim = get_claim(claim_id)
    if max_n < 0:
        raise ValueError(f"max_n must be >= 0, got {max_n}")
    hi = min(claim.hi, max_n)
    counterexamples = []
    for n in range(claim.lo, hi + 1):
        for lhs, rhs in claim.evaluate(n):
            if lhs != rhs:
                counterexamples.append(Counterexample(n, lhs, rhs))
    verdict = FAIL if counterexamples else PASS
    return ClaimResult(
        claim_id=claim.id,
        paper_ref=claim.paper_ref,
        verdict=verdict,
        lo=claim.lo,
        hi=hi,
        counterexamples=tuple(counterexamples),
        notes=claim.notes,
    )


def verify_all(
    max_n: int = DESK_LIMIT, ids: tuple[str, ...] | list[str] | None = None
) -> Report:
    """One result per requested claim, always in registry order."""
    # Imported here: only this function reads the clock, and only the JSON
    # report's metadata shows it.
    from datetime import datetime, timezone

    wanted = set(ids) if ids is not None else None
    if wanted is not None:
        for claim_id in ids:
            get_claim(claim_id)  # surface the first unknown id before any work
    results = tuple(
        verify_claim(claim_id, max_n)
        for claim_id in _REGISTRY
        if wanted is None or claim_id in wanted
    )
    return Report(
        max_n=max_n,
        results=results,
        generated_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        version=_package_version(),
    )


def _package_version() -> str:
    from . import __version__

    return __version__


# ---------------------------------------------------------------------------
# rendering


def render_report(report: Report, format: str = "text", *, include_meta: bool = True) -> str:
    """Fixed-width text table or the JSON document with stable keys."""
    if format == "text":
        return _render_text(report)
    if format == "json":
        return _render_json(report, include_meta=include_meta)
    raise ValueError(f"format must be 'text' or 'json', got {format!r}")


def _render_text(report: Report) -> str:
    header = ("id", "paper_ref", "range", "verdict", "first_counterexample")
    rows = []
    for r in report.results:
        first = r.counterexamples[0].render() if r.counterexamples else "-"
        rows.append((r.claim_id, r.paper_ref, f"[{r.lo},{r.hi}]", r.verdict, first))
    return format_table(header, rows)


def _render_json(report: Report, *, include_meta: bool) -> str:
    doc: dict = {"max_n": report.max_n}
    doc["results"] = [
        {
            "id": r.claim_id,
            "paper_ref": r.paper_ref,
            "verdict": r.verdict,
            "range": [r.lo, r.hi],
            "counterexamples": [
                {"n": c.n, "lhs": format_exact(c.lhs), "rhs": format_exact(c.rhs)}
                for c in r.counterexamples
            ],
            "notes": r.notes,
        }
        for r in report.results
    ]
    if include_meta:
        doc["meta"] = {"timestamp": report.generated_at, "version": report.version}
    return json.dumps(doc, indent=2)


# ---------------------------------------------------------------------------
# claim evaluators


def _eval_egf_standard(n: int) -> Pairs:
    return [(egf_coeff(phi_series(t, n), n), eulerian_poly_bruteforce(n, t)) for t in _T_POINTS]


def _eval_egf_shifted(n: int) -> Pairs:
    # Sec 2.2 weights each permutation by t^(exc+1); length 0 keeps weight 1.
    return [
        (egf_coeff(phi_series(t, n), n), t * eulerian_poly_bruteforce(n, t) if n else 1)
        for t in _T_POINTS
    ]


def _eval_phi_tanh(n: int) -> Pairs:
    lhs = phi_series(Fraction(-1), 12)
    rhs = series_add(constant_series(1, 12), tanh_series(12))
    return [(lhs.coeffs[n], rhs.coeffs[n])]


def _eval_sum_rule(n: int) -> Pairs:
    return [(alternating_sum(n), alternating_sum_bruteforce(n))]


def _eval_even_parity(n: int) -> Pairs:
    if n % 2:
        return []
    return [(alternating_sum_bruteforce(n), 0)]


def _eval_tangent_routes(m: int) -> Pairs:
    if m % 2 == 0:
        return []
    values = [
        tangents((m + 1) // 2)[-1],
        tangent_bernoulli_value(m),
        tangent_series_value(m),
        count_alternating(m),
    ]
    return list(zip(values, values[1:]))


def _eval_integrality(n: int) -> Pairs:
    pairs: Pairs = []
    if n % 2 == 1 and n <= 25:
        pairs.append((tangent_bernoulli_value(n).denominator, 1))
        pairs.append((tangent_series_value(n).denominator, 1))
    if 1 <= n <= 16:
        pairs.append((genocchi_value(n).denominator, 1))
    return pairs


def _eval_genocchi_relation(n: int) -> Pairs:
    sign = -1 if ((n + 1) // 2) % 2 else 1
    return [(alternating_sum_bruteforce(n), sign * genocchi(n + 1))]


def _claimed_genocchi_recurrence(n: int) -> int:
    # Self-contained recurrence route: seeds index 1 and consumes only its
    # own earlier values, never the series.  Index 0 is an empty sum, 0.
    g = [0, 1]
    for m in range(2, n + 1):
        g.append(-sum(binomial(m, k) * g[k] for k in range(1, m)))
    return g[n]


def _eval_genocchi_recurrence(n: int) -> Pairs:
    return [(_claimed_genocchi_recurrence(n), genocchi(n))]


def _eval_congruences(n: int) -> Pairs:
    if n % 2 == 0:
        return []
    value = alternating_sum(n)
    pairs: Pairs = [(value % 2, 0)]
    if n % 4 == 3:
        pairs.append((value % 4, 0))
    elif n >= 5:  # n % 4 == 1
        pairs.append((value % 4, 2))
    return pairs


def _sign_exponent(n: int, k: int) -> int:
    return (n + 1) // 2 - (k + 1) // 2


def _eval_signed_recurrence(n: int) -> Pairs:
    lhs = sum(
        (-1) ** _sign_exponent(n, k) * binomial(n + 1, k) * alternating_sum(k)
        for k in range(1, n)
    )
    return [(lhs, alternating_sum_bruteforce(n))]


def _eval_insertion_recurrence(n: int) -> Pairs:
    lhs = sum((-1) ** k * binomial(n, k) * alternating_sum(k) for k in range(n + 1))
    return [(lhs, alternating_sum_bruteforce(n + 1))]


def _eval_odd_function(n: int) -> Pairs:
    if n % 2:
        return []
    return [(tanh_series(20).coeffs[n], Fraction(0))]


# ---------------------------------------------------------------------------
# the registry itself

register(Claim(
    id="C1-egf-standard",
    paper_ref="eq (1)",
    statement="n! * [x^n] phi(x,t) = sum over length-n permutations of t^exc",
    lo=0, hi=7,
    evaluate=_eval_egf_standard,
))

register(Claim(
    id="C2-egf-shifted",
    paper_ref="sec 2.2",
    statement="n! * [x^n] phi(x,t) = sum over length-n permutations of t^(exc+1)",
    lo=0, hi=7,
    evaluate=_eval_egf_shifted,
    expected_first_failure=1,
    notes="eq (1) expands with weight t^exc, not t^(exc+1); see C1",
))

register(Claim(
    id="C3-phi-tanh",
    paper_ref="sec 3.2",
    statement="phi(x,-1) = 1 + tanh x, coefficient for coefficient (order 12)",
    lo=0, hi=12,
    evaluate=_eval_phi_tanh,
))

register(Claim(
    id="C4-sum-rule",
    paper_ref="sec 3.3",
    statement="S(0)=1, S(2n)=0, S(2n-1) = (-1)^(n-1) T(2n-1)",
    lo=0, hi=8,
    evaluate=_eval_sum_rule,
))

register(Claim(
    id="C5-parity",
    paper_ref="sec 4.2",
    statement="S(n) = 0 for even n >= 2",
    lo=2, hi=8,
    evaluate=_eval_even_parity,
))

register(Claim(
    id="C6-tangent-bernoulli",
    paper_ref="eq (2)",
    statement="tangent numbers: Bernoulli formula = tanh series = alternating count",
    lo=1, hi=11,
    evaluate=_eval_tangent_routes,
))

register(Claim(
    id="C7-integrality",
    paper_ref="sec 4.1",
    statement="T and G computed through rational intermediates have denominator 1",
    lo=1, hi=25,
    evaluate=_eval_integrality,
))

register(Claim(
    id="C8-genocchi-relation",
    paper_ref="sec 4.3",
    statement="S(n) = (-1)^floor((n+1)/2) * G(n+1)",
    lo=0, hi=8,
    evaluate=_eval_genocchi_relation,
    expected_first_failure=3,
    notes="the confirmed pairing is S(2n-1) = (-1)^(n-1) T(2n-1), see C4",
))

register(Claim(
    id="C9-genocchi-recurrence",
    paper_ref="sec 4.3",
    statement="G(n) = -sum_{k=1..n-1} C(n,k) G(k) with G(1) = 1",
    lo=2, hi=12,
    evaluate=_eval_genocchi_recurrence,
    expected_first_failure=2,
    notes="the series gives G(2) = -1 while the stated recurrence forces -2",
))

register(Claim(
    id="C10-congruences",
    paper_ref="sec 4.3",
    statement="S(2n-1) even; S(4n-1) = 0 (mod 4); S(4n+1) = 2 (mod 4)",
    lo=1, hi=13,
    evaluate=_eval_congruences,
    expected_first_failure=1,
    notes="S(1) = 1 is odd, so the parity chain fails at the first odd index",
))

register(Claim(
    id="C11-signed-recurrence",
    paper_ref="sec 4.3",
    statement=(
        "S(n) = sum_{k=1..n-1} (-1)^f(n,k) C(n+1,k) S(k), "
        "f(n,k) = floor((n+1)/2) - floor((k+1)/2)"
    ),
    lo=3, hi=8,
    evaluate=_eval_signed_recurrence,
    expected_first_failure=3,
    notes="the stated sign exponent never reproduces the brute-force values",
))

register(Claim(
    id="C12-insertion-recurrence",
    paper_ref="sec 4.4",
    statement="S(n+1) = sum_{k=0..n} (-1)^k C(n,k) S(k)",
    lo=0, hi=7,
    evaluate=_eval_insertion_recurrence,
    expected_first_failure=2,
    notes="predicts S(3) = -1 while enumeration gives -2; odd targets match",
))

register(Claim(
    id="C13-odd-function",
    paper_ref="sec 4.2",
    statement="tanh x is odd: even-index series coefficients vanish (order 20)",
    lo=0, hi=20,
    evaluate=_eval_odd_function,
))
