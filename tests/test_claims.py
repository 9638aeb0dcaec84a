import json
from fractions import Fraction

import pytest

import excedance
from excedance import claims
from excedance.claims import (
    Claim,
    Counterexample,
    claim_ids,
    get_claim,
    render_report,
    verify_all,
    verify_claim,
)

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


def test_registry_has_thirteen_claims_in_order():
    assert claim_ids() == tuple(EXPECTED_AT_8)


def test_every_claim_cites_a_source_location():
    for claim_id in claim_ids():
        assert get_claim(claim_id).paper_ref.strip()


def test_registry_table_is_well_formed():
    # The registry is a constant table, so its shape is checked here rather
    # than on every import.
    ids = [claim.id for claim in claims._REGISTRY.values()]
    assert ids == list(claims._REGISTRY)
    assert len(set(ids)) == len(ids) == 13
    for claim in claims._REGISTRY.values():
        assert claim.lo <= claim.hi, claim.id


def test_c1_points_prove_eq_1_on_its_whole_range():
    # Both sides at length n are polynomials in t of degree at most n - 1,
    # so hi distinct points other than t = 1 pin them down for every n <= hi.
    points = claims._C1_POINTS
    assert all(isinstance(t, Fraction) for t in points)
    assert len(set(points)) == len(points) >= get_claim("C1-egf-standard").hi
    assert Fraction(1) not in points
    assert set(claims._T_POINTS) <= set(points)


def test_claims_build_by_keyword_with_defaults():
    fields = dict(id="X", paper_ref="sec 0", statement="x", lo=0, hi=2,
                  evaluate=lambda n: [(n, n)])
    claim = Claim(**fields)
    assert claim.expected_first_failure is None and claim.notes == ""
    assert claim.expected_verdict(2) == "PASS"
    failing = Claim(**fields, expected_first_failure=1, notes="n")
    assert failing.expected_verdict(2) == "FAIL" and failing.expected_verdict(0) == "PASS"


def test_verdict_table_at_default_bound():
    report = verify_all(8)
    assert len(report.results) == 13
    assert {r.claim.id: r.verdict for r in report.results} == EXPECTED_AT_8


def test_first_counterexamples_are_the_documented_ones():
    report = verify_all(8)
    by_id = {r.claim.id: r for r in report.results}
    for claim_id, (n, lhs, rhs) in FIRST_COUNTEREXAMPLES.items():
        first = by_id[claim_id].counterexamples[0]
        assert (first.n, first.lhs, first.rhs) == (n, lhs, rhs), claim_id
    for claim_id, verdict in EXPECTED_AT_8.items():
        if verdict == "PASS":
            assert by_id[claim_id].counterexamples == ()


def test_fail_verdict_iff_counterexamples():
    for result in verify_all(8).results:
        assert (result.verdict == "FAIL") == bool(result.counterexamples)


def test_expected_verdicts_depend_on_bound():
    c8 = get_claim("C8-genocchi-relation")
    assert c8.expected_verdict(2) == "PASS"
    assert c8.expected_verdict(3) == "FAIL"
    assert c8.expected_verdict(8) == "FAIL"
    c1 = get_claim("C1-egf-standard")
    assert c1.expected_verdict(0) == "PASS"
    assert c1.expected_verdict(8) == "PASS"


def test_everything_passes_at_bound_zero():
    report = verify_all(0)
    assert len(report.results) == 13
    for result in report.results:
        assert result.verdict == "PASS"
        assert result.counterexamples == ()


def test_single_claim_examples():
    result = verify_claim("C4-sum-rule", 6)
    assert result.verdict == "PASS"
    assert result.counterexamples == ()

    result = verify_claim("C8-genocchi-relation", 4)
    assert result.verdict == "FAIL"
    assert result.counterexamples[0] == Counterexample(3, -2, 1)

    result = verify_claim("C5-parity", 8)
    assert result.verdict == "PASS"


def test_range_is_clamped_to_bound():
    result = verify_claim("C3-phi-tanh", 8)
    assert (result.claim.lo, result.hi) == (0, 8)
    result = verify_claim("C3-phi-tanh", 12)
    assert (result.claim.lo, result.hi) == (0, 12)


def test_unknown_claim_and_guard_errors():
    with pytest.raises(KeyError):
        verify_claim("C99-nope", 8)
    with pytest.raises(ValueError):
        verify_claim("C3-phi-tanh", -1)
    assert verify_claim("C3-phi-tanh", 9).verdict == "PASS"


def test_forced_full_ranges_keep_expected_verdicts():
    report = verify_all(13)
    for result in report.results:
        claim = result.claim
        assert result.verdict == claim.expected_verdict(13)
        assert result.hi == min(claim.hi, 13)


def test_reports_are_deterministic():
    a = verify_all(8)
    b = verify_all(8)
    assert a.results == b.results
    assert render_report(a, "json", include_meta=False) == render_report(
        b, "json", include_meta=False
    )


def test_subset_requests_preserve_registry_order():
    report = verify_all(8, ids=["C8-genocchi-relation", "C2-egf-shifted"])
    assert [r.claim.id for r in report.results] == [
        "C2-egf-shifted",
        "C8-genocchi-relation",
    ]
    with pytest.raises(KeyError):
        verify_all(8, ids=["C2-egf-shifted", "C99-nope"])


def test_text_rendering():
    report = verify_all(8)
    text = render_report(report, "text")
    lines = text.splitlines()
    assert lines[0].split() == ["id", "paper_ref", "range", "verdict", "first_counterexample"]
    assert len(lines) == 14
    c8_line = next(line for line in lines if line.startswith("C8-genocchi-relation"))
    assert "FAIL" in c8_line
    assert "n=3: lhs=-2 rhs=1" in c8_line
    c5_line = next(line for line in lines if line.startswith("C5-parity"))
    assert "PASS" in c5_line and c5_line.rstrip().endswith("-")


def test_text_rendering_edge_reports():
    from excedance.claims import Report

    empty = Report(max_n=8, results=())
    assert render_report(empty, "text").splitlines() == [
        "id  paper_ref  range  verdict  first_counterexample"
    ]
    single = Report(max_n=8, results=(verify_claim("C5-parity", 8),))
    lines = render_report(single, "text").splitlines()
    assert len(lines) == 2 and "PASS" in lines[1]
    assert render_report(empty, "json", include_meta=False) == json.dumps(
        {"max_n": 8, "results": []}, indent=2
    )


def test_json_rendering_schema():
    report = verify_all(8)
    doc = json.loads(render_report(report, "json", include_meta=False))
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


def test_json_meta_block():
    report = verify_all(0)
    doc = json.loads(render_report(report, "json"))
    assert list(doc) == ["max_n", "results", "meta"]
    assert set(doc["meta"]) == {"timestamp", "version"}
    assert doc["meta"]["version"] == excedance.__version__
    assert doc["meta"]["timestamp"].endswith("+00:00")


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError):
        render_report(verify_all(0), "yaml")


def test_exact_values_in_counterexamples():
    result = verify_claim("C2-egf-shifted", 2)
    values = {(c.n, c.lhs, c.rhs) for c in result.counterexamples}
    # At n=1 the left side is 1 for every t while the right side is t itself.
    assert (1, Fraction(1), Fraction(-1)) in values
    assert (1, Fraction(1), Fraction(1, 2)) in values
