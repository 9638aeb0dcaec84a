"""Registry of asserted identities, each verified by independent routes.

Every claim pairs a left and a right computation that share nothing beyond
the exact-arithmetic primitives: the integer polynomials of phi against
the excedance tally, read from the Eulerian rows in powers of t or folded
at t = -1, closed forms against recurrences, and so on.  phi comes from
its polynomials and tanh from a series division, so C3 compares two
independent routes.  A claim is evaluated over its whole finite index
range at once, so each series, prefix and tally it reads is computed once,
at the top of the range; C6 and C7 read each tangent route as one such
prefix, and C7 checks the Genocchi series at every index of its range.
Any index where the two sides disagree becomes a counterexample, and the
verdict is FAIL exactly when at least one counterexample exists.
A ClaimResult holds its Claim, the top index checked and the
counterexamples, and derives its verdict from them.  Results are plain
values; only the command-line interface renders them as text or JSON.

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
from itertools import zip_longest
from math import comb
from typing import Callable, Iterator, NamedTuple

from .exact import DESK_LIMIT, require_size
from .permutations import alternating_counts, eulerian_rows
from .sequences import (
    alternating_sums,
    genocchis,
    tangents,
    tangents_by_bernoulli,
    tangents_by_tanh,
)
from .series import egf_coeff, genocchi_series, phi_polynomials, phi_series, tanh_series

__all__ = [
    "Claim",
    "Counterexample",
    "ClaimResult",
    "claim_ids",
    "get_claim",
    "verify_claim",
    "verify_all",
]

PASS = "PASS"
FAIL = "FAIL"

ExactValue = int | Fraction

# (n, lhs, rhs) triples of exact values produced by a claim evaluator.
Triples = Iterator[tuple[int, ExactValue, ExactValue]]

# Evaluation points for C2; kept small and mixed-sign/mixed-size so a
# convention slip cannot cancel out.
_T_POINTS = (Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3))


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


class ClaimResult(NamedTuple):
    """A claim checked on its range up to hi, with every disagreement found."""

    claim: Claim
    hi: int
    counterexamples: tuple[Counterexample, ...]

    @property
    def verdict(self) -> str:
        return FAIL if self.counterexamples else PASS


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
    require_size("max_n", max_n)
    hi = min(claim.hi, max_n)
    counterexamples = tuple(
        Counterexample(n, lhs, rhs)
        for n, lhs, rhs in claim.evaluate(range(claim.lo, hi + 1))
        if lhs != rhs
    )
    return ClaimResult(claim, hi, counterexamples)


def verify_all(
    max_n: int = DESK_LIMIT, ids: tuple[str, ...] | list[str] | None = None
) -> tuple[ClaimResult, ...]:
    """One result per requested claim, always in registry order."""
    # Looking every id up first surfaces the first unknown one before any work.
    wanted = _REGISTRY.keys() if ids is None else {get_claim(i).id for i in ids}
    return tuple(
        verify_claim(claim_id, max_n) for claim_id in _REGISTRY if claim_id in wanted
    )


# ---------------------------------------------------------------------------
# claim evaluators: each reads its prefixes, series and tally rows once, at
# the top order ns.stop - 1, which is hi >= 0 even where ns is empty


def _at(coeffs: list[int], x: ExactValue) -> ExactValue:
    """The polynomial with these coefficients, lowest power first, at x."""
    value = 0
    for c in reversed(coeffs):
        value = value * x + c
    return value


def _tallies(count: int) -> list[list[int]]:
    """Excedance tallies of lengths 0 .. count-1, in powers of t."""
    return [[1], *eulerian_rows(count - 1)]


def _tally_sums(count: int) -> list[int]:
    """S(0) .. S(count-1), the sums of (-1)^exc: each tally at t = -1."""
    return [_at(row, -1) for row in _tallies(count)]


def _eval_egf_standard(ns: range) -> Triples:
    # Both sides of eq (1) as integer polynomials in s = t - 1, one triple
    # per coefficient: the expansion of phi against the tally row, whose
    # t^i = (s+1)^i contributes C(i,j) to s^j.
    polys = phi_polynomials(ns.stop - 1)
    tallies = _tallies(ns.stop)
    for n in ns:
        tally = tallies[n]
        row = [sum(comb(i, j) * c for i, c in enumerate(tally)) for j in range(len(tally))]
        for lhs, rhs in zip_longest(polys[n], row, fillvalue=0):
            yield n, lhs, rhs


def _eval_egf_shifted(ns: range) -> Triples:
    # Sec 2.2 weights each permutation by t^(exc+1); length 0 keeps weight 1.
    # The left side is phi's a_n at s = t - 1, the right the tally row at t.
    polys = phi_polynomials(ns.stop - 1)
    tallies = _tallies(ns.stop)
    for n in ns:
        for t in _T_POINTS:
            yield n, _at(polys[n], t - 1), t * _at(tallies[n], t) if n else 1


def _eval_phi_tanh(ns: range) -> Triples:
    phi = phi_series(Fraction(-1), ns.stop - 1)
    tanh = tanh_series(ns.stop - 1)
    # The constant 1 adds to coefficient 0 only.
    return ((n, phi[n], (n == 0) + tanh[n]) for n in ns)


def _eval_sum_rule(ns: range) -> Triples:
    sums = alternating_sums(ns.stop)
    tally_sums = _tally_sums(ns.stop)
    return ((n, sums[n], tally_sums[n]) for n in ns)


def _eval_even_parity(ns: range) -> Triples:
    tally_sums = _tally_sums(ns.stop)
    return ((n, tally_sums[n], 0) for n in ns if n % 2 == 0)


def _eval_tangent_routes(ns: range) -> Triples:
    # Each prefix holds T(m) at m // 2; up-down counts are read at odd m.
    count = ns.stop // 2
    routes = (tangents(count), tangents_by_bernoulli(count), tangents_by_tanh(count),
              alternating_counts(ns.stop)[1::2])
    for m in ns:
        if m % 2:
            values = [route[m // 2] for route in routes]
            for lhs, rhs in zip(values, values[1:]):
                yield m, lhs, rhs


def _eval_integrality(ns: range) -> Triples:
    count = ns.stop // 2
    rational_routes = (tangents_by_bernoulli(count), tangents_by_tanh(count))
    genocchi = genocchi_series(ns.stop - 1)
    for n in ns:
        if n % 2:
            for route in rational_routes:
                yield n, route[n // 2].denominator, 1
        yield n, egf_coeff(genocchi, n).denominator, 1


def _eval_genocchi_relation(ns: range) -> Triples:
    g = genocchis(ns.stop)  # G(1) .. G(ns.stop)
    tally_sums = _tally_sums(ns.stop)
    for n in ns:
        sign = -1 if ((n + 1) // 2) % 2 else 1
        yield n, tally_sums[n], sign * g[n]


def _eval_genocchi_recurrence(ns: range) -> Triples:
    # Self-contained recurrence route: seeds index 1 and consumes only its
    # own earlier values, never the series.  Index 0 is an empty sum, 0.
    claimed = [0, 1]
    for m in range(2, ns.stop):
        claimed.append(-sum(comb(m, k) * claimed[k] for k in range(1, m)))
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
    tally_sums = _tally_sums(ns.stop)
    for n in ns:
        lhs = sum(
            (-1) ** _sign_exponent(n, k) * comb(n + 1, k) * sums[k] for k in range(1, n)
        )
        yield n, lhs, tally_sums[n]


def _eval_insertion_recurrence(ns: range) -> Triples:
    sums = alternating_sums(ns.stop)
    tally_sums = _tally_sums(ns.stop + 1)
    for n in ns:
        lhs = sum((-1) ** k * comb(n, k) * sums[k] for k in range(n + 1))
        yield n, lhs, tally_sums[n + 1]


def _eval_odd_function(ns: range) -> Triples:
    tanh = tanh_series(ns.stop - 1)
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
