import excedance


def test_package_exports_are_pinned():
    assert sorted(excedance.__all__) == [
        "Claim", "ClaimResult", "Counterexample", "GuardError", "Permutation",
        "Report", "SequenceTable", "Series", "__version__", "alternating_sum",
        "alternating_sum_bruteforce", "bernoulli", "bernoulli_series", "binomial",
        "claim_ids", "count_alternating", "egf_coeff", "enumerate_permutations",
        "eulerian_numbers", "eulerian_poly_at", "eulerian_poly_bruteforce",
        "excedance_count", "excedance_distribution", "exp_linear", "factorial",
        "format_exact", "genocchi", "genocchi_series", "is_alternating_up_down",
        "parse_rational", "phi_series", "render_report", "sequence_table",
        "series_add", "series_mul", "series_reciprocal", "series_scale", "tangent",
        "tanh_series", "verify_all", "verify_claim",
    ]
    for name in excedance.__all__:
        assert hasattr(excedance, name)
