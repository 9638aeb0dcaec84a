"""Registry of asserted identities, each verified by independent routes.

Every claim pairs a left and a right computation that share nothing beyond
the exact-arithmetic primitives: series extraction against the
excedance tally, closed forms against recurrences, and so on.  A claim is
evaluated over its whole finite index range at once, so each series and
prefix it reads is computed once, at the top of the range.  Any index
where the two sides disagree becomes a counterexample, and the verdict is
FAIL exactly when at least one counterexample exists.  A ClaimResult
holds its Claim, the top index checked and the counterexamples, and
derives its verdict from them; only the JSON report's metadata adds a
timestamp and the package version.

Claims are registered verbatim as asserted in their source text, including
the ones that are false; the point of the harness is to find that out
mechanically, not to silently correct them.  For claims known to fail, the
registry records the first failing index, which drives the expected-verdict
logic of the command-line interface: a FAIL that appears exactly where it
should is a confirmation, not a regression.

The registry is a constant table at the end of this module, in report
order, keyed by each claim's own id.  Tests check it: every claim cites
its source, no two claims share an id, and each range has lo <= hi.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterator, NamedTuple

from .exact import DESK_LIMIT, ExactValue, binomial, format_exact, format_table
from .permutations import alternating_sum_bruteforce, count_alternating, eulerian_poly_bruteforce
from .sequences import (
    alternating_sums,
    genocchis,
    tangent_bernoulli_value,
    tangent_series_value,
    tangents,
)
from .series import egf_coeff, genocchi_series, phi_series, tanh_series

__all__ = [
    "Claim",
    "Counterexample",
    "ClaimResult",
    "Report",
    "claim_ids",
    "get_claim",
    "verify_claim",
    "verify_all",
    "render_report",
]

PASS = "PASS"
FAIL = "FAIL"

# (n, lhs, rhs) triples of exact values produced by a claim evaluator.
Triples = Iterator[tuple[int, ExactValue, ExactValue]]

# Evaluation points for the generating-function claims; kept small and
# mixed-sign/mixed-size so a convention slip cannot cancel out.
_T_POINTS = (Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3))
# Both sides of eq (1) at length n are polynomials in t of degree at most
# n - 1, so agreement at 7 distinct t != 1 proves C1 on its whole range 0..7.
_C1_POINTS = _T_POINTS + (Fraction(0), Fraction(3), Fraction(-1, 2))


class Claim(NamedTuple):
    """A single identity with an index range and an evaluator over it.

    ``evaluate(ns)`` takes the range of indices to check and yields
    (n, lhs, rhs) triples of exact values in increasing n; several triples
    per index are allowed (for example one per evaluation point t), and an
    index with none is one the identity says nothing about.
    """

    id: str
    paper_ref: str
    statement: str
    lo: int
    hi: int
    evaluate: Callable[[range], Triples]
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
    """A claim checked on its range up to hi, with every disagreement found."""

    claim: Claim
    hi: int
    counterexamples: tuple[Counterexample, ...]

    @property
    def verdict(self) -> str:
        return FAIL if self.counterexamples else PASS


class Report(NamedTuple):
    max_n: int
    results: tuple[ClaimResult, ...]


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
    counterexamples = tuple(
        Counterexample(n, lhs, rhs)
        for n, lhs, rhs in claim.evaluate(range(claim.lo, hi + 1))
        if lhs != rhs
    )
    return ClaimResult(claim, hi, counterexamples)


def verify_all(
    max_n: int = DESK_LIMIT, ids: tuple[str, ...] | list[str] | None = None
) -> Report:
    """One result per requested claim, always in registry order."""
    # Looking every id up first surfaces the first unknown one before any work.
    wanted = _REGISTRY.keys() if ids is None else {get_claim(i).id for i in ids}
    results = tuple(
        verify_claim(claim_id, max_n) for claim_id in _REGISTRY if claim_id in wanted
    )
    return Report(max_n, results)


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
        rows.append((r.claim.id, r.claim.paper_ref, f"[{r.claim.lo},{r.hi}]", r.verdict, first))
    return format_table(header, rows)


def _render_json(report: Report, *, include_meta: bool) -> str:
    import json
    doc: dict = {"max_n": report.max_n}
    doc["results"] = [
        {
            "id": r.claim.id,
            "paper_ref": r.claim.paper_ref,
            "verdict": r.verdict,
            "range": [r.claim.lo, r.hi],
            "counterexamples": [
                {"n": c.n, "lhs": format_exact(c.lhs), "rhs": format_exact(c.rhs)}
                for c in r.counterexamples
            ],
            "notes": r.claim.notes,
        }
        for r in report.results
    ]
    if include_meta:
        # Imported here: only this metadata reads the clock, so text and
        # --no-meta runs never load datetime.
        from datetime import datetime, timezone

        from . import __version__

        timestamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        doc["meta"] = {"timestamp": timestamp, "version": __version__}
    return json.dumps(doc, indent=2)


# ---------------------------------------------------------------------------
# claim evaluators: each reads its prefixes and series once, at the top
# order ns.stop - 1, which is hi >= 0 even where ns is empty


def _eval_egf_standard(ns: range) -> Triples:
    phis = [phi_series(t, ns.stop - 1) for t in _C1_POINTS]
    for n in ns:
        for t, phi in zip(_C1_POINTS, phis):
            yield n, egf_coeff(phi, n), eulerian_poly_bruteforce(n, t)


def _eval_egf_shifted(ns: range) -> Triples:
    # Sec 2.2 weights each permutation by t^(exc+1); length 0 keeps weight 1.
    phis = [phi_series(t, ns.stop - 1) for t in _T_POINTS]
    for n in ns:
        for t, phi in zip(_T_POINTS, phis):
            yield n, egf_coeff(phi, n), t * eulerian_poly_bruteforce(n, t) if n else 1


def _eval_phi_tanh(ns: range) -> Triples:
    phi = phi_series(Fraction(-1), ns.stop - 1).coeffs
    tanh = tanh_series(ns.stop - 1).coeffs
    # The constant 1 adds to coefficient 0 only.
    return ((n, phi[n], (n == 0) + tanh[n]) for n in ns)


def _eval_sum_rule(ns: range) -> Triples:
    sums = alternating_sums(ns.stop)
    return ((n, sums[n], alternating_sum_bruteforce(n)) for n in ns)


def _eval_even_parity(ns: range) -> Triples:
    return ((n, alternating_sum_bruteforce(n), 0) for n in ns if n % 2 == 0)


def _eval_tangent_routes(ns: range) -> Triples:
    integers = tangents(ns.stop // 2)
    for m in ns:
        if m % 2:
            values = [
                integers[m // 2],
                tangent_bernoulli_value(m),
                tangent_series_value(m),
                count_alternating(m),
            ]
            for lhs, rhs in zip(values, values[1:]):
                yield m, lhs, rhs


def _eval_integrality(ns: range) -> Triples:
    tanh = tanh_series(ns.stop - 1)
    genocchi = genocchi_series(min(ns.stop - 1, 16))
    for n in ns:
        if n % 2:
            # The series route's sign does not change its denominator.
            yield n, tangent_bernoulli_value(n).denominator, 1
            yield n, egf_coeff(tanh, n).denominator, 1
        if n <= 16:
            yield n, egf_coeff(genocchi, n).denominator, 1


def _eval_genocchi_relation(ns: range) -> Triples:
    g = genocchis(ns.stop)  # G(1) .. G(ns.stop)
    for n in ns:
        sign = -1 if ((n + 1) // 2) % 2 else 1
        yield n, alternating_sum_bruteforce(n), sign * g[n]


def _eval_genocchi_recurrence(ns: range) -> Triples:
    # Self-contained recurrence route: seeds index 1 and consumes only its
    # own earlier values, never the series.  Index 0 is an empty sum, 0.
    claimed = [0, 1]
    for m in range(2, ns.stop):
        claimed.append(-sum(binomial(m, k) * claimed[k] for k in range(1, m)))
    g = genocchis(ns.stop - 1)  # G(1) .. G(ns.stop - 1)
    return ((n, claimed[n], g[n - 1]) for n in ns)


def _eval_congruences(ns: range) -> Triples:
    sums = alternating_sums(ns.stop)
    for n in ns:
        if n % 2:
            yield n, sums[n] % 2, 0
            if n % 4 == 3:
                yield n, sums[n] % 4, 0
            elif n >= 5:  # n % 4 == 1
                yield n, sums[n] % 4, 2


def _sign_exponent(n: int, k: int) -> int:
    return (n + 1) // 2 - (k + 1) // 2


def _eval_signed_recurrence(ns: range) -> Triples:
    sums = alternating_sums(ns.stop)
    for n in ns:
        lhs = sum(
            (-1) ** _sign_exponent(n, k) * binomial(n + 1, k) * sums[k] for k in range(1, n)
        )
        yield n, lhs, alternating_sum_bruteforce(n)


def _eval_insertion_recurrence(ns: range) -> Triples:
    sums = alternating_sums(ns.stop)
    for n in ns:
        lhs = sum((-1) ** k * binomial(n, k) * sums[k] for k in range(n + 1))
        yield n, lhs, alternating_sum_bruteforce(n + 1)


def _eval_odd_function(ns: range) -> Triples:
    tanh = tanh_series(ns.stop - 1).coeffs
    return ((n, tanh[n], Fraction(0)) for n in ns if n % 2 == 0)


# ---------------------------------------------------------------------------
# the registry itself: a constant table in report order, checked by tests

_REGISTRY: dict[str, Claim] = {c.id: c for c in (
    Claim(
        id="C1-egf-standard",
        paper_ref="eq (1)",
        statement="n! * [x^n] phi(x,t) = sum over length-n permutations of t^exc",
        lo=0, hi=7,
        evaluate=_eval_egf_standard,
    ),
    Claim(
        id="C2-egf-shifted",
        paper_ref="sec 2.2",
        statement="n! * [x^n] phi(x,t) = sum over length-n permutations of t^(exc+1)",
        lo=0, hi=7,
        evaluate=_eval_egf_shifted,
        expected_first_failure=1,
        notes="eq (1) expands with weight t^exc, not t^(exc+1); see C1",
    ),
    Claim(
        id="C3-phi-tanh",
        paper_ref="sec 3.2",
        statement="phi(x,-1) = 1 + tanh x, coefficient for coefficient (order 12)",
        lo=0, hi=12,
        evaluate=_eval_phi_tanh,
    ),
    Claim(
        id="C4-sum-rule",
        paper_ref="sec 3.3",
        statement="S(0)=1, S(2n)=0, S(2n-1) = (-1)^(n-1) T(2n-1)",
        lo=0, hi=8,
        evaluate=_eval_sum_rule,
    ),
    Claim(
        id="C5-parity",
        paper_ref="sec 4.2",
        statement="S(n) = 0 for even n >= 2",
        lo=2, hi=8,
        evaluate=_eval_even_parity,
    ),
    Claim(
        id="C6-tangent-bernoulli",
        paper_ref="eq (2)",
        statement="tangent numbers: Bernoulli formula = tanh series = alternating count",
        lo=1, hi=11,
        evaluate=_eval_tangent_routes,
    ),
    Claim(
        id="C7-integrality",
        paper_ref="sec 4.1",
        statement="T and G computed through rational intermediates have denominator 1",
        lo=1, hi=25,
        evaluate=_eval_integrality,
    ),
    Claim(
        id="C8-genocchi-relation",
        paper_ref="sec 4.3",
        statement="S(n) = (-1)^floor((n+1)/2) * G(n+1)",
        lo=0, hi=8,
        evaluate=_eval_genocchi_relation,
        expected_first_failure=3,
        notes="the confirmed pairing is S(2n-1) = (-1)^(n-1) T(2n-1), see C4",
    ),
    Claim(
        id="C9-genocchi-recurrence",
        paper_ref="sec 4.3",
        statement="G(n) = -sum_{k=1..n-1} C(n,k) G(k) with G(1) = 1",
        lo=2, hi=12,
        evaluate=_eval_genocchi_recurrence,
        expected_first_failure=2,
        notes="the series gives G(2) = -1 while the stated recurrence forces -2",
    ),
    Claim(
        id="C10-congruences",
        paper_ref="sec 4.3",
        statement="S(2n-1) even; S(4n-1) = 0 (mod 4); S(4n+1) = 2 (mod 4)",
        lo=1, hi=13,
        evaluate=_eval_congruences,
        expected_first_failure=1,
        notes="S(1) = 1 is odd, so the parity chain fails at the first odd index",
    ),
    Claim(
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
    ),
    Claim(
        id="C12-insertion-recurrence",
        paper_ref="sec 4.4",
        statement="S(n+1) = sum_{k=0..n} (-1)^k C(n,k) S(k)",
        lo=0, hi=7,
        evaluate=_eval_insertion_recurrence,
        expected_first_failure=2,
        notes="predicts S(3) = -1 while enumeration gives -2; odd targets match",
    ),
    Claim(
        id="C13-odd-function",
        paper_ref="sec 4.2",
        statement="tanh x is odd: even-index series coefficients vanish (order 20)",
        lo=0, hi=20,
        evaluate=_eval_odd_function,
    ),
)}
