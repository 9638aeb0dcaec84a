import os
import subprocess
import sys
from pathlib import Path

import pytest

import excedance

SRC = str(Path(__file__).resolve().parent.parent / "src")

SUBMODULES = ("exact", "series", "permutations", "sequences", "claims", "cli")


def run_fresh(code: str) -> subprocess.CompletedProcess:
    # A fresh interpreter, since pytest itself loads dataclasses, json and
    # every module the other tests import.
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)


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


def test_star_import_binds_exactly_the_exports():
    namespace: dict = {}
    exec("from excedance import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(excedance.__all__)
    for name in excedance.__all__:
        assert namespace[name] is getattr(excedance, name)


def test_dir_lists_every_export_and_submodule():
    assert set(excedance.__all__) | set(SUBMODULES) <= set(dir(excedance))


def test_an_unknown_attribute_is_refused_by_name():
    with pytest.raises(AttributeError, match="no_such_name"):
        excedance.no_such_name


def test_each_submodule_resolves_on_first_use():
    # Each submodule is read before anything has imported it, so the lazy
    # lookup, not an earlier import, binds it; the package alone loads none.
    code = ("import sys, excedance\n"
            "assert not [m for m in sys.modules if m.startswith('excedance.')]\n"
            f"for m in {SUBMODULES!r}:\n"
            "    assert 'excedance.' + m not in sys.modules, m\n"
            "    assert getattr(excedance, m) is sys.modules['excedance.' + m], m\n"
            "print('ok')")
    result = run_fresh(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ok\n"


def test_cli_import_leaves_slow_modules_unloaded():
    slow = {"dataclasses", "inspect", "datetime", "json", "excedance.claims",
            "excedance.permutations", "excedance.sequences", "excedance.series"}
    result = run_fresh(f"import sys, excedance.cli; print(sorted({slow!r} & set(sys.modules)))")
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


@pytest.mark.parametrize("argv, runs, unloaded", [
    (["seq", "tangent", "--count", "3"], "sequences",
     {"excedance.claims", "excedance.series", "json"}),
    (["dist", "5"], "permutations",
     {"excedance.claims", "excedance.series", "excedance.sequences", "json"}),
    (["series", "tanh", "--order", "3"], "series",
     {"excedance.claims", "excedance.permutations", "json"}),
    # Only the JSON metadata reads the clock, so a text report never loads it.
    (["verify"], "claims", {"datetime", "json"}),
], ids=["seq", "dist", "series", "verify"])
def test_each_command_loads_only_what_it_runs(argv, runs, unloaded):
    code = (f"import sys, excedance.cli; code = excedance.cli.main({argv!r}); "
            f"print(code, 'excedance.{runs}' in sys.modules, "
            f"sorted({unloaded!r} & set(sys.modules)))")
    result = run_fresh(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0 True []"
