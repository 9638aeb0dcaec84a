import os
import subprocess
import sys
from pathlib import Path

import excedance

SRC = str(Path(__file__).resolve().parent.parent / "src")


def test_package_exports_are_pinned():
    assert sorted(excedance.__all__) == [
        "Claim", "ClaimResult", "Counterexample", "GuardError", "Permutation",
        "Report", "Series", "__version__", "alternating_sum",
        "alternating_sum_bruteforce", "bernoulli", "bernoulli_series", "binomial",
        "claim_ids", "count_alternating", "egf_coeff", "enumerate_permutations",
        "eulerian_numbers", "eulerian_poly_bruteforce",
        "excedance_count", "excedance_distribution", "exp_linear", "factorial",
        "format_exact", "genocchi", "genocchi_series", "is_alternating_up_down",
        "parse_rational", "phi_series", "render_report",
        "series_add", "series_mul", "series_reciprocal", "series_scale", "tangent",
        "tanh_series", "verify_all", "verify_claim",
    ]
    for name in excedance.__all__:
        assert hasattr(excedance, name)


def test_cli_import_leaves_slow_modules_unloaded():
    # In a fresh interpreter, since pytest itself loads dataclasses.
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    code = ("import sys, excedance.cli; "
            "print(sorted({'dataclasses', 'inspect', 'datetime'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, timeout=30)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_text_verify_leaves_datetime_unloaded():
    # Only the JSON metadata reads the clock, so a text report never loads it.
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    code = ("import sys, excedance.cli; code = excedance.cli.main(['verify']); "
            "print(code, 'datetime' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0 False"
