"""Each verdict depends on every route it reads.

A claim could PASS while one of its sides comes from a prefix position the
comparison never reads.  So each case replaces one route name in
``excedance.claims`` with a wrapper that changes one value the evaluator
reads, keeping its type, and requires the first counterexample to appear
at the index whose value was changed (mutation analysis: DeMillo, Lipton
and Sayward, IEEE Computer 11(4), 1978).  A claim that PASSes must then
FAIL, and an expected FAIL must show a counterexample earlier than the
documented one.
"""
from fractions import Fraction

import pytest

from excedance import claims
from excedance.claims import CLAIMS, verify_claim

MAX_NS = (8, 25)


def _same(n):
    return n


def _half(n):
    # A tangent prefix holds T(1), T(3), ..., so T(n) sits at n // 2.
    return n // 2


def _odd(n):
    return n % 2 == 1


def _even(n):
    return n % 2 == 0


def _every(n):
    return True


# Claim id -> the route names its evaluator reads in excedance.claims, each
# with the route position read at claim index n and which indices read it.
ROUTES = {
    "C1-egf-standard": {"phi_polynomials": (_same, _every), "eulerian_rows": (_same, _every)},
    # At n = 0 the tally side is the constant 1, not a row.
    "C2-egf-shifted": {"phi_polynomials": (_same, _every),
                       "eulerian_rows": (_same, lambda n: n >= 1)},
    "C3-phi-tanh": {"phi_series": (_same, _every), "tanh_series": (_same, _every)},
    "C4-sum-rule": {"alternating_sums": (_same, _every), "eulerian_rows": (_same, _every)},
    "C5-parity": {"eulerian_rows": (_same, _even)},
    "C6-tangent-bernoulli": {"tangents": (_half, _odd), "tangents_by_bernoulli": (_half, _odd),
                             "tangents_by_tanh": (_half, _odd),
                             "alternating_counts": (_same, _odd)},
    "C7-integrality": {"tangents_by_bernoulli": (_half, _odd), "tangents_by_tanh": (_half, _odd),
                       "genocchi_series": (_same, _every)},
    "C8-genocchi-relation": {"genocchis": (_same, _every), "eulerian_rows": (_same, _every)},
    "C9-genocchi-recurrence": {"genocchis": (lambda n: n - 1, _every)},
    "C10-congruences": {"alternating_sums": (_same, _odd)},
    # sums[k] is read from n = k + 1 on, the tally at n itself.
    "C11-signed-recurrence": {"alternating_sums": (lambda n: n - 1, _every),
                              "eulerian_rows": (_same, _every)},
    # S(n+1) is the tally row n + 1; sums[k] is read from n = k on.
    "C12-insertion-recurrence": {"alternating_sums": (_same, _every),
                                 "eulerian_rows": (lambda n: n + 1, _every)},
    "C13-odd-function": {"tanh_series": (_same, _even)},
}

# Expected FAILs with no index below the documented first failure that reads
# the route: C2's index 0 reads no tally row, and C9, C10 and C11 start at
# their first failure.
NO_EARLIER_INDEX = {
    ("C2-egf-shifted", "eulerian_rows"),
    ("C9-genocchi-recurrence", "genocchis"),
    ("C10-congruences", "alternating_sums"),
    ("C11-signed-recurrence", "alternating_sums"),
    ("C11-signed-recurrence", "eulerian_rows"),
}


def _shift(value):
    """The value changed, its type kept: a row or polynomial in its first
    entry, an int by 1, a Fraction by 1/29, which moves its denominator
    and that of n! times it for every n below 29."""
    if isinstance(value, list):
        return [_shift(value[0]), *value[1:]]
    return value + (Fraction(1, 29) if isinstance(value, Fraction) else 1)


def _mutated(route, position):
    """route with the value at position changed; a generator stays one."""
    def wrapper(*args):
        values = route(*args)
        if isinstance(values, (list, tuple)):
            changed = list(values)
            changed[position] = _shift(changed[position])
            return type(values)(changed)
        return (_shift(v) if i == position else v for i, v in enumerate(values))
    return wrapper


def _read_indices(claim_id, route, max_n):
    claim = CLAIMS[claim_id]
    reads = ROUTES[claim_id][route][1]
    return [n for n in range(claim.lo, min(claim.hi, max_n) + 1) if reads(n)]


def _cases():
    # A claim that PASSes is changed at the lowest and at the top index that
    # reads the route; an expected FAIL at every such index below its first
    # failure.
    for max_n in MAX_NS:
        for claim_id, routes in ROUTES.items():
            first = CLAIMS[claim_id].expected_first_failure
            for route in routes:
                read = _read_indices(claim_id, route, max_n)
                chosen = {read[0], read[-1]} if first is None else {n for n in read if n < first}
                for n in sorted(chosen):
                    yield pytest.param(max_n, claim_id, route, n,
                                       id=f"{max_n}-{claim_id}-{route}-{n}")


def _verify_changed(monkeypatch, claim_id, route, position, max_n):
    monkeypatch.setattr(claims, route, _mutated(getattr(claims, route), position))
    return verify_claim(claim_id, max_n)


@pytest.mark.parametrize("max_n, claim_id, route, n", _cases())
def test_a_changed_route_value_fails_where_it_is_read(monkeypatch, max_n, claim_id, route, n):
    position = ROUTES[claim_id][route][0](n)
    result = _verify_changed(monkeypatch, claim_id, route, position, max_n)
    assert result.verdict == "FAIL"
    assert result.counterexamples[0][0] == n


@pytest.mark.parametrize("max_n", MAX_NS)
def test_expected_fails_without_an_earlier_index_are_the_listed_pairs(monkeypatch, max_n):
    no_earlier = set()
    for claim_id, routes in ROUTES.items():
        first = CLAIMS[claim_id].expected_first_failure
        for route in routes:
            if first is not None and not any(
                    n < first for n in _read_indices(claim_id, route, max_n)):
                no_earlier.add((claim_id, route))
    assert no_earlier == NO_EARLIER_INDEX
    # A change at any route position below the first failure leaves the
    # documented first counterexample first.
    for claim_id, route in sorted(NO_EARLIER_INDEX):
        first = CLAIMS[claim_id].expected_first_failure
        for position in range(first):
            with monkeypatch.context() as patch:
                result = _verify_changed(patch, claim_id, route, position, max_n)
            assert result.counterexamples[0][0] == first, (claim_id, route, position)


def test_the_table_names_every_claim_and_only_routes_of_the_claims_module():
    assert list(ROUTES) == list(CLAIMS)
    for routes in ROUTES.values():
        for route in routes:
            assert callable(getattr(claims, route))
