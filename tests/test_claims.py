import json
import re
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from cauchy import enumerated_tally, in_powers_of_t

import excedance
from excedance import claims, cli, sequences, series
from excedance.claims import CLAIMS, Claim, verify_all, verify_claim
from excedance.series import phi_polynomials

# The full expected-verdict table at the default bound.  A regression in
# any computation route flips one of these and fails the suite.
EXPECTED_AT_8 = {
    "C1-egf-standard": "PASS",
    "C2-egf-shifted": "FAIL",
    "C3-phi-tanh": "PASS",
    "C4-sum-rule": "PASS",
    "C5-parity": "PASS",
    "C6-tangent-bernoulli": "PASS",
    "C7-integrality": "PASS",
    "C8-genocchi-relation": "FAIL",
    "C9-genocchi-recurrence": "FAIL",
    "C10-congruences": "FAIL",
    "C11-signed-recurrence": "FAIL",
    "C12-insertion-recurrence": "FAIL",
    "C13-odd-function": "PASS",
}

# First counterexample of each failing claim, as (n, lhs, rhs).
FIRST_COUNTEREXAMPLES = {
    "C2-egf-shifted": (1, 1, -1),
    "C8-genocchi-relation": (3, -2, 1),
    "C9-genocchi-recurrence": (2, -2, -1),
    "C10-congruences": (1, 1, 0),
    "C11-signed-recurrence": (3, -4, -2),
    "C12-insertion-recurrence": (2, -1, -2),
}


def test_claims_table_has_thirteen_claims_in_order():
    assert list(CLAIMS) == list(EXPECTED_AT_8)


def test_every_claim_cites_a_source_location():
    for claim in CLAIMS.values():
        assert claim.paper_ref.strip()


def test_claims_table_is_well_formed():
    # CLAIMS is a constant table, so its shape is checked here rather
    # than on every import.
    ids = [claim.id for claim in CLAIMS.values()]
    assert ids == list(CLAIMS)
    assert len(set(ids)) == len(ids) == 13
    for claim in CLAIMS.values():
        assert claim.lo <= claim.hi, claim.id


def test_phi_polynomials_are_frobenius_and_the_enumerated_tally():
    # Coefficient j of a_n, in powers of s = t - 1, is (n-j)! S(n, n-j),
    # which counts the surjections of n onto n - j; read in powers of t it
    # is the tally of the enumeration oracle, in integers only.
    def surjections(n, k):
        return sum((-1) ** i * comb(k, i) * (k - i) ** n for i in range(k + 1))

    for n, a in enumerate(phi_polynomials(8)):
        assert a == [surjections(n, n - j) for j in range(max(n, 1))]
        in_t = in_powers_of_t(a)
        assert all(type(c) is int for c in in_t)
        assert in_t == enumerated_tally(n)


def test_c1_compares_integer_coefficients():
    # One triple per coefficient of a_n, so n contributes max(n, 1) triples,
    # each a pair of ints.
    triples = list(CLAIMS["C1-egf-standard"].evaluate(range(8)))
    assert [n for n, _, _ in triples] == [n for n in range(8) for _ in range(max(n, 1))]
    assert all(type(lhs) is int and type(rhs) is int for _, lhs, rhs in triples)


def test_c1_fails_on_a_wrong_tally(monkeypatch):
    # One permutation too many without excedances at length 5 fails there only.
    rows = claims.eulerian_rows

    def miscounted(count):
        for n, row in enumerate(rows(count)):
            yield [row[0] + 1, *row[1:]] if n == 5 else row

    monkeypatch.setattr(claims, "eulerian_rows", miscounted)
    result = verify_claim("C1-egf-standard", 8)
    assert result.verdict == "FAIL" and {n for n, _, _ in result.counterexamples} == {5}


@pytest.mark.parametrize("claim_id", [
    "C1-egf-standard", "C2-egf-shifted", "C4-sum-rule", "C5-parity",
    "C8-genocchi-relation", "C11-signed-recurrence", "C12-insertion-recurrence",
])
def test_a_claim_reads_phi_and_its_tally_rows_once(claim_id, monkeypatch):
    # Each evaluator expands phi and reads the tally rows at most once, at
    # the top of its range, not once per index or per evaluation point.
    calls = Counter()

    def counted(name):
        original = getattr(claims, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in ("phi_polynomials", "eulerian_rows"):
        monkeypatch.setattr(claims, name, counted(name))
    verify_claim(claim_id, CLAIMS[claim_id].hi)
    assert calls["eulerian_rows"] == 1 and calls["phi_polynomials"] <= 1


@pytest.mark.parametrize("claim_id, divisions", [
    ("C1-egf-standard", 0), ("C3-phi-tanh", 1), ("C6-tangent-bernoulli", 1),
    ("C7-integrality", 2), ("C13-odd-function", 1),
])
def test_a_claim_divides_each_series_once_at_its_top_order(claim_id, divisions, monkeypatch):
    hi = CLAIMS[claim_id].hi
    orders = []
    divide = series._divide

    def counting(num, den):
        orders.append(len(den) - 1)
        return divide(num, den)

    monkeypatch.setattr(series, "_divide", counting)
    verify_claim(claim_id, hi)
    assert orders == [hi] * divisions


@pytest.mark.parametrize("claim_id", ["C6-tangent-bernoulli", "C7-integrality"])
def test_a_claim_reads_the_bernoulli_prefix_once(claim_id, monkeypatch):
    # The Bernoulli route is one prefix read at the top of the range, not
    # one Bernoulli prefix per odd index.
    calls = []
    bernoullis = sequences.bernoullis

    def counting(count):
        calls.append(count)
        return bernoullis(count)

    monkeypatch.setattr(sequences, "bernoullis", counting)
    verify_claim(claim_id, CLAIMS[claim_id].hi)
    assert len(calls) == 1


def test_claims_build_by_keyword_with_defaults():
    fields = dict(id="X", paper_ref="sec 0", statement="x", lo=0, hi=2,
                  evaluate=lambda ns: ((n, n, n) for n in ns))
    claim = Claim(**fields)
    assert claim.expected_first_failure is None and claim.notes == ""
    assert claim.expected_verdict(2) == "PASS"
    failing = Claim(**fields, expected_first_failure=1, notes="n")
    assert failing.expected_verdict(2) == "FAIL" and failing.expected_verdict(0) == "PASS"


def test_verdict_table_at_default_bound():
    results = verify_all(8)
    assert len(results) == 13
    assert {r.claim.id: r.verdict for r in results} == EXPECTED_AT_8


def test_first_counterexamples_are_the_documented_ones():
    by_id = {r.claim.id: r for r in verify_all(8)}
    for claim_id, (n, lhs, rhs) in FIRST_COUNTEREXAMPLES.items():
        assert by_id[claim_id].counterexamples[0] == (n, lhs, rhs), claim_id
    for claim_id, verdict in EXPECTED_AT_8.items():
        if verdict == "PASS":
            assert by_id[claim_id].counterexamples == ()


def test_fail_verdict_iff_counterexamples():
    for result in verify_all(8):
        assert (result.verdict == "FAIL") == bool(result.counterexamples)


def test_expected_verdicts_depend_on_bound():
    c8 = CLAIMS["C8-genocchi-relation"]
    assert c8.expected_verdict(2) == "PASS"
    assert c8.expected_verdict(3) == "FAIL"
    assert c8.expected_verdict(8) == "FAIL"
    c1 = CLAIMS["C1-egf-standard"]
    assert c1.expected_verdict(0) == "PASS"
    assert c1.expected_verdict(8) == "PASS"


def test_everything_passes_at_bound_zero():
    results = verify_all(0)
    assert len(results) == 13
    for result in results:
        assert result.verdict == "PASS"
        assert result.counterexamples == ()


def test_single_claim_examples():
    result = verify_claim("C4-sum-rule", 6)
    assert result.verdict == "PASS"
    assert result.counterexamples == ()

    result = verify_claim("C8-genocchi-relation", 4)
    assert result.verdict == "FAIL"
    assert result.counterexamples[0] == (3, -2, 1)

    result = verify_claim("C5-parity", 8)
    assert result.verdict == "PASS"


def test_range_is_clamped_to_bound():
    result = verify_claim("C3-phi-tanh", 8)
    assert (result.claim.lo, result.hi) == (0, 8)
    result = verify_claim("C3-phi-tanh", 12)
    assert (result.claim.lo, result.hi) == (0, 12)


def test_unknown_claim_is_a_key_error_and_negative_max_n_a_value_error():
    with pytest.raises(KeyError):
        verify_claim("C99-nope", 8)
    with pytest.raises(ValueError):
        verify_claim("C3-phi-tanh", -1)
    assert verify_claim("C3-phi-tanh", 9).verdict == "PASS"


def test_forced_full_ranges_keep_expected_verdicts():
    for result in verify_all(13):
        claim = result.claim
        assert result.verdict == claim.expected_verdict(13)
        assert result.hi == min(claim.hi, 13)


def test_reports_are_deterministic():
    assert verify_all(8) == verify_all(8)


def test_subset_requests_preserve_registry_order():
    results = verify_all(8, ids=["C8-genocchi-relation", "C2-egf-shifted"])
    assert [r.claim.id for r in results] == [
        "C2-egf-shifted",
        "C8-genocchi-relation",
    ]
    with pytest.raises(KeyError):
        verify_all(8, ids=["C2-egf-shifted", "C99-nope"])


def test_json_rendering_schema(capsys):
    assert cli.main(["verify", "--max-n", "8", "--format", "json", "--no-meta"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["max_n", "results"]
    assert doc["max_n"] == 8
    assert len(doc["results"]) == 13
    for entry in doc["results"]:
        assert list(entry) == [
            "id", "paper_ref", "verdict", "range", "counterexamples", "notes",
        ]
        assert entry["verdict"] in ("PASS", "FAIL")
        assert len(entry["range"]) == 2
        for cex in entry["counterexamples"]:
            assert list(cex) == ["n", "lhs", "rhs"]
            assert isinstance(cex["n"], int)
            assert isinstance(cex["lhs"], str) and isinstance(cex["rhs"], str)
    c8 = next(e for e in doc["results"] if e["id"] == "C8-genocchi-relation")
    assert c8["counterexamples"][0] == {"n": 3, "lhs": "-2", "rhs": "1"}
    c2 = next(e for e in doc["results"] if e["id"] == "C2-egf-shifted")
    assert {"n": 1, "lhs": "1", "rhs": "1/2"} in c2["counterexamples"]


def test_json_meta_block(capsys):
    assert cli.main(["verify", "--max-n", "0", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["max_n", "results", "meta"]
    assert set(doc["meta"]) == {"timestamp", "version"}
    assert doc["meta"]["version"] == excedance.__version__
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", doc["meta"]["timestamp"])


def test_exact_values_in_counterexamples():
    result = verify_claim("C2-egf-shifted", 2)
    values = set(result.counterexamples)
    # At n=1 the left side is 1 for every t while the right side is t itself.
    assert (1, Fraction(1), Fraction(-1)) in values
    assert (1, Fraction(1), Fraction(1, 2)) in values
