import pytest
from harness import run_python

import excedance

SUBMODULES = ("exact", "series", "permutations", "sequences", "claims", "cli")

# The load pins run in a fresh interpreter, since pytest itself loads
# dataclasses, json and every module the other tests import.
# The command line is read from cli.COMMANDS, so no command loads argparse or
# the gettext and locale that argparse loads.
ARGPARSE = {"argparse", "gettext", "locale"}


def test_package_exports_are_pinned():
    # The package exports its version only; each public name is declared
    # once, in the __all__ of the module that defines it.
    assert excedance.__all__ == ["__version__"]
    owners: dict = {}
    for short in SUBMODULES:
        module = getattr(excedance, short)
        for name in getattr(module, "__all__", ()):
            # A function or class is listed by the module that defines it.
            defined_in = getattr(getattr(module, name), "__module__", module.__name__)
            assert defined_in == module.__name__, (short, name)
            owners.setdefault(name, []).append(short)
    assert {name: shorts for name, shorts in owners.items() if len(shorts) > 1} == {}
    assert owners["GuardError"] == ["exact"]


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
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ok\n"


def test_cli_import_leaves_slow_modules_unloaded():
    slow = {*ARGPARSE, "dataclasses", "inspect", "datetime", "fractions", "json",
            "excedance.claims", "excedance.permutations", "excedance.sequences", "excedance.series"}
    result = run_python("-c",
                        f"import sys, excedance.cli; print(sorted({slow!r} & set(sys.modules)))")
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


@pytest.mark.parametrize("argv, exit_code, runs, unloaded", [
    # Only a command that builds a rational loads fractions.
    (["seq", "tangent", "--count", "3"], 0, "sequences",
     {"excedance.claims", "excedance.series", "fractions", "json"}),
    # The Eulerian rows are the excedance tally, so they live in permutations.
    (["seq", "eulerian", "--count", "3"], 0, "permutations",
     {"excedance.claims", "excedance.series", "excedance.sequences", "fractions", "json"}),
    # seq quotes each value itself, so its JSON loads no json either.
    (["seq", "tangent", "--count", "3", "--format", "json"], 0, "sequences",
     {"excedance.claims", "excedance.series", "fractions", "json"}),
    (["seq", "eulerian", "--count", "3", "--format", "json"], 0, "permutations",
     {"excedance.claims", "excedance.series", "excedance.sequences", "fractions", "json"}),
    (["dist", "5"], 0, "permutations",
     {"excedance.claims", "excedance.series", "excedance.sequences", "fractions", "json"}),
    (["series", "tanh", "--order", "3"], 0, "series",
     {"excedance.claims", "excedance.permutations", "json"}),
    # A text report writes no JSON, and the JSON metadata is stamped
    # without datetime.
    (["verify"], 0, "claims", {"datetime", "json"}),
    (["verify", "--format", "json"], 0, "claims", {"datetime"}),
    # A bound is refused before any claim is loaded.
    (["verify", "--max-n", "9"], 2, "exact", {"excedance.claims", "fractions"}),
    (["verify", "--max-n", "-1"], 2, "exact", {"excedance.claims", "fractions"}),
    (["--version"], 0, "exact", {"excedance.claims", "excedance.permutations",
                                 "excedance.sequences", "excedance.series", "fractions", "json"}),
], ids=["seq", "seq-eulerian", "seq-json", "seq-eulerian-json", "dist", "series", "verify",
        "verify-json", "verify-over-cap", "verify-negative", "version"])
def test_each_command_loads_only_what_it_runs(argv, exit_code, runs, unloaded):
    code = (f"import sys, excedance.cli; code = excedance.cli.main({argv!r}); "
            f"print(code, 'excedance.{runs}' in sys.modules, "
            f"sorted({unloaded | ARGPARSE!r} & set(sys.modules)))")
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == f"{exit_code} True []"
