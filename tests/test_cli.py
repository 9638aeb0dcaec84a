import json
from math import factorial
from pathlib import Path

import pytest
from cauchy import in_powers_of_t
from harness import ROOT, run_cli, run_python

from excedance import claims, cli
from excedance.exact import (
    DESK_LIMIT,
    ENUMERATION_LIMIT,
    SEQ_COUNT_LIMIT,
    SERIES_ORDER_LIMIT,
    T_DIGITS_LIMIT,
)
from excedance.series import phi_polynomials

DATA = Path(__file__).resolve().parent / "data"
TRACED = str(ROOT / "bench" / "traced.py")


def test_seq_altsum():
    result = run_cli("seq", "altsum", "--count", "5")
    assert result.returncode == 0
    assert result.stdout == "1, 1, 0, -2, 0\n"


def test_seq_genocchi():
    result = run_cli("seq", "genocchi", "--count", "3")
    assert result.returncode == 0
    assert result.stdout == "1, -1, 0\n"


def test_seq_tangent_and_bernoulli():
    result = run_cli("seq", "tangent", "--count", "5")
    assert result.returncode == 0
    assert result.stdout == "1, 2, 16, 272, 7936\n"
    result = run_cli("seq", "bernoulli", "--count", "5")
    assert result.returncode == 0
    assert result.stdout == "1, -1/2, 1/6, 0, -1/30\n"


def test_seq_eulerian_rows():
    result = run_cli("seq", "eulerian", "--count", "3")
    assert result.returncode == 0
    assert result.stdout == "1\n1 1\n1 4 1\n"


def test_seq_json():
    result = run_cli("seq", "altsum", "--count", "3", "--format", "json")
    assert result.returncode == 0
    assert json.loads(result.stdout) == {
        "name": "altsum",
        "count": 3,
        "values": ["1", "1", "0"],
    }


def test_seq_rejects_unknown_name_and_bad_count():
    assert run_cli("seq", "fibonacci", "--count", "3").returncode == 2
    assert run_cli("seq", "altsum", "--count", "0").returncode == 2


def test_seq_refuses_a_count_past_its_cap():
    for name in ("tangent", "eulerian"):
        result = run_cli("seq", name, "--count", "501", timeout=15)
        assert result.returncode == 2
        assert result.stderr == "error: --count must be within 1..500, got 501\n"
        assert result.stdout == ""


def test_dist_table():
    result = run_cli("dist", "3")
    assert result.returncode == 0
    assert result.stdout == "k  count\n0  1\n1  4\n2  1\nsum = 6 = 3!\n"


def test_dist_small_cases():
    assert run_cli("dist", "1").stdout == "k  count\n0  1\nsum = 1 = 1!\n"
    assert run_cli("dist", "2").stdout == "k  count\n0  1\n1  1\nsum = 2 = 2!\n"


def test_dist_json():
    result = run_cli("dist", "3", "--format", "json")
    doc = json.loads(result.stdout)
    assert doc == {
        "n": 3,
        "rows": [
            {"k": 0, "count": "1"},
            {"k": 1, "count": "4"},
            {"k": 2, "count": "1"},
        ],
        "sum": "6",
        "factorial": "6",
    }


def test_dist_guard_and_force():
    assert run_cli("dist", "0").returncode == 2
    assert run_cli("dist", "9").returncode == 2
    forced = run_cli("dist", "9", "--force")
    assert forced.returncode == 0
    assert forced.stdout.endswith("sum = 362880 = 9!\n")
    assert run_cli("dist", "13", "--force").returncode == 2


def test_dist_at_the_forced_limit_is_the_eulerian_row():
    # The row dist prints against phi's polynomial read in powers of t.
    result = run_cli("dist", str(ENUMERATION_LIMIT), "--force", "--format", "json", timeout=15)
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    expected = in_powers_of_t(phi_polynomials(ENUMERATION_LIMIT)[ENUMERATION_LIMIT])
    assert [int(row["count"]) for row in doc["rows"]] == expected
    assert doc["sum"] == doc["factorial"] == str(factorial(ENUMERATION_LIMIT))


@pytest.mark.parametrize("argv", [
    ("dist", str(DESK_LIMIT)),
    ("series", "tanh", "--order", str(SERIES_ORDER_LIMIT)),
    ("verify", "--max-n", str(DESK_LIMIT)),
    ("seq", "eulerian", "--count", str(SEQ_COUNT_LIMIT)),
])
def test_each_limit_accepts_its_own_value(argv):
    result = run_cli(*argv, timeout=60)
    assert result.returncode == 0
    assert result.stderr == ""


@pytest.mark.parametrize("argv, refusal", [
    (("dist", str(DESK_LIMIT + 1)),
     f"n must be within 1..{DESK_LIMIT} (--force raises the cap to {ENUMERATION_LIMIT}), "
     f"got {DESK_LIMIT + 1}"),
    (("dist", str(ENUMERATION_LIMIT + 1), "--force"),
     f"n must be within 1..{ENUMERATION_LIMIT}, got {ENUMERATION_LIMIT + 1}"),
    (("series", "tanh", "--order", str(SERIES_ORDER_LIMIT + 1)),
     f"--order must be within 0..{SERIES_ORDER_LIMIT}, got {SERIES_ORDER_LIMIT + 1}"),
    (("verify", "--max-n", str(DESK_LIMIT + 1)),
     f"--max-n must be within 0..{DESK_LIMIT} (--force lifts the cap), got {DESK_LIMIT + 1}"),
    (("seq", "eulerian", "--count", str(SEQ_COUNT_LIMIT + 1)),
     f"--count must be within 1..{SEQ_COUNT_LIMIT}, got {SEQ_COUNT_LIMIT + 1}"),
])
def test_each_limit_refuses_one_past_it(argv, refusal):
    result = run_cli(*argv, timeout=15)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == f"error: {refusal}\n"


def test_help_shows_the_limits():
    # argparse wraps help text to the terminal width, so compare words.
    dist = " ".join(run_cli("dist", "--help").stdout.split())
    assert f"permutation length (1..{DESK_LIMIT}, {ENUMERATION_LIMIT} with --force)" in dist
    verify = " ".join(run_cli("verify", "--help").stdout.split())
    assert f"default {DESK_LIMIT}; higher needs --force" in verify
    assert (
        f"enumeration up to length {ENUMERATION_LIMIT}, verification past max-n {DESK_LIMIT}"
        in verify
    )


def test_series_tanh_text():
    result = run_cli("series", "tanh", "--order", "3")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "tanh(order=3) = 0 + 1*x + 0*x^2 + -1/3*x^3"
    assert lines[1].split() == ["n", "[x^n]", "n!*[x^n]"]
    assert lines[2].split() == ["0", "0", "0"]
    assert lines[3].split() == ["1", "1", "1"]
    assert lines[4].split() == ["2", "0", "0"]
    assert lines[5].split() == ["3", "-1/3", "-2"]


def test_series_phi_matches_one_plus_tanh():
    result = run_cli("series", "phi", "--t", "-1", "--order", "2")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "phi(t=-1, order=2) = 1 + 1*x + 0*x^2"
    # A negative fraction after a space is a value, not an unknown flag.
    spaced = run_cli("series", "phi", "--order", "3", "--t", "-1/2")
    joined = run_cli("series", "phi", "--order", "3", "--t=-1/2")
    assert spaced.returncode == joined.returncode == 0
    assert spaced.stdout == joined.stdout
    assert spaced.stdout.startswith("phi(t=-1/2, order=3) = ")


def test_series_bernoulli_egf_column():
    result = run_cli("series", "bernoulli", "--order", "2", "--format", "json")
    doc = json.loads(result.stdout)
    assert doc == {
        "name": "bernoulli",
        "order": 2,
        "coeffs": ["1", "-1/2", "1/12"],
        "egf": ["1", "-1/2", "1/6"],
    }


def test_series_phi_requires_valid_t():
    result = run_cli("series", "phi", "--t", "1", "--order", "4")
    assert result.returncode == 2
    assert "t=1" in result.stderr
    assert run_cli("series", "phi", "--order", "4").returncode == 2
    assert run_cli("series", "tanh", "--order", "4", "--t", "2").returncode == 2
    assert run_cli("series", "phi", "--t", "x", "--order", "4").returncode == 2


def test_series_phi_refuses_exponent_notation():
    for text in ("--t=1e100000", "--t=2E3"):
        result = run_cli("series", "phi", "--order", "64", text, timeout=15)
        assert result.returncode == 2
        assert "p/q" in result.stderr
        assert result.stdout == ""


def test_series_phi_t_digit_limit():
    # The largest t within the limit prints in full at the top order; one
    # more digit above or below the bar, or a long decimal, exits 2 at once.
    largest = "9" * T_DIGITS_LIMIT
    order = str(SERIES_ORDER_LIMIT)
    text = run_cli("series", "phi", "--order", order, f"--t={largest}", timeout=15)
    assert text.returncode == 0 and text.stderr == ""
    assert text.stdout.startswith(f"phi(t={largest}, order={order}) = 1 + ")
    assert len(text.stdout.splitlines()) == SERIES_ORDER_LIMIT + 3
    json_run = run_cli("series", "phi", "--order", order, f"--t=-{largest}", "--format", "json",
                       timeout=15)
    assert json_run.returncode == 0 and json_run.stderr == ""
    doc = json.loads(json_run.stdout)
    assert doc["t"] == f"-{largest}" and len(doc["egf"]) == SERIES_ORDER_LIMIT + 1
    for t in ("9" * (T_DIGITS_LIMIT + 1), f"1/{'9' * (T_DIGITS_LIMIT + 1)}", "9" * 70,
              "1." + "5" * 4000):
        result = run_cli("series", "phi", "--order", order, f"--t={t}", timeout=15)
        assert result.returncode == 2
        assert result.stdout == ""
        assert f"at most {T_DIGITS_LIMIT} digits" in result.stderr
        assert "T_DIGITS_LIMIT" in result.stderr


def test_series_phi_long_t_is_echoed_short():
    result = run_cli("series", "phi", "--order", "3", "--t=" + "9" * 5000, timeout=15)
    assert result.returncode == 2 and result.stdout == ""
    assert "T_DIGITS_LIMIT" in result.stderr
    assert len(result.stderr.encode()) < 300


def test_seq_eulerian_json_streams_in_bounded_memory():
    # The document is 77 MB at a count of 500.  Built whole with its rows it
    # peaks near 300 MB; written row by row, near 18 MB.  A fresh interpreter
    # starts the command and reads its peak, because a child of this process
    # would count this process's own peak as its own.
    code = (
        "import resource, subprocess, sys; "
        "subprocess.run([sys.executable, '-m', 'excedance', 'seq', 'eulerian', '--count', '500', "
        "'--format', 'json'], stdout=subprocess.DEVNULL, check=True); "
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
    )
    result = run_python("-c", code, timeout=60)
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) < 64 * 1024  # kilobytes on Linux


def test_series_guards():
    assert run_cli("series", "tanh", "--order", "65").returncode == 2
    assert run_cli("series", "nope", "--order", "3").returncode == 2


def test_verify_single_pass_claim():
    result = run_cli("verify", "--claims", "C5-parity", "--max-n", "8")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert len(lines) == 2
    assert "PASS" in lines[1]


def test_verify_expected_fail_is_exit_zero_unless_strict():
    result = run_cli("verify", "--claims", "C8-genocchi-relation", "--max-n", "4")
    assert result.returncode == 0
    assert "FAIL" in result.stdout
    assert "n=3: lhs=-2 rhs=1" in result.stdout
    strict = run_cli(
        "verify", "--claims", "C8-genocchi-relation", "--max-n", "4", "--strict"
    )
    assert strict.returncode == 1


def test_verify_all_default():
    result = run_cli("verify")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert len(lines) == 14  # header + 13 claims
    assert result.stderr == ""


def test_verify_text_rendering():
    result = run_cli("verify", "--max-n", "8")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0].split() == ["id", "paper_ref", "range", "verdict", "first_counterexample"]
    assert len(lines) == 14
    c8_line = next(line for line in lines if line.startswith("C8-genocchi-relation"))
    assert "FAIL" in c8_line
    assert "n=3: lhs=-2 rhs=1" in c8_line
    c5_line = next(line for line in lines if line.startswith("C5-parity"))
    assert "PASS" in c5_line and c5_line.rstrip().endswith("-")


def test_verify_all_at_zero():
    result = run_cli("verify", "--claims", "all", "--max-n", "0")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert len(lines) == 14
    assert all("FAIL" not in line for line in lines)


def test_verify_guard_and_force():
    assert run_cli("verify", "--max-n", "9").returncode == 2
    assert run_cli("verify", "--max-n", "-1").returncode == 2
    assert run_cli("verify", "--max-n", "9", "--force").returncode == 0


def test_verify_unknown_claim():
    result = run_cli("verify", "--claims", "C99-nope")
    assert result.returncode == 2
    assert result.stdout == ""


@pytest.mark.parametrize("argv, message", [
    (("verify", "--max-n", "-1"),
     f"--max-n must be within 0..{DESK_LIMIT} (--force lifts the cap), got -1"),
    (("verify", "--claims", "C99-nope"),
     "unknown claim 'C99-nope'; registered ids: " + ", ".join(claims.claim_ids())),
    (("verify", "--claims", ","), "--claims needs 'all' or a comma-separated id list"),
    (("series", "phi", "--order", "3"), "phi needs --t (any exact rational except 1)"),
    (("series", "phi", "--order", "3", "--t", "1"),
     "phi is undefined at t=1: the denominator t - e^(x(t-1)) has a vanishing constant term there"),
    (("series", "tanh", "--order", "3", "--t", "2"), "--t only applies to phi, not 'tanh'"),
    (("verify", "--max-n", "-1", "--force"), "--max-n must be within 0..inf, got -1"),
])
def test_each_refusal_prints_its_message_and_exits_2(argv, message):
    result = run_cli(*argv)
    assert (result.returncode, result.stdout, result.stderr) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, names", [
    (("seq", "nope", "--count", "3"), cli.SEQUENCES),
    (("series", "nope", "--order", "3"), cli.SERIES),
    (("verify", "--format", "yaml"), ("text", "json")),
])
def test_unknown_names_are_refused_with_the_choices_listed(argv, names):
    result = run_cli(*argv)
    assert result.returncode == 2 and result.stdout == ""
    assert repr("yaml" if "--format" in argv else "nope") in result.stderr
    assert all(repr(name) in result.stderr for name in names)


@pytest.mark.parametrize("argv", [
    ("seq", "tangent", "--count", "3", "--force"),
    ("series", "tanh", "--order", "3", "--force"),
])
def test_force_is_refused_where_no_guard_reads_it(argv):
    result = run_cli(*argv)
    assert result.returncode == 2 and result.stdout == ""
    assert "unrecognized arguments: --force" in result.stderr


@pytest.mark.parametrize("fault", [KeyError("route"), ValueError("bad value")])
def test_a_fault_inside_a_claim_is_not_a_usage_error(fault, monkeypatch):
    def evaluate(ns):
        raise fault

    claim = claims._REGISTRY["C5-parity"]._replace(evaluate=evaluate)
    monkeypatch.setitem(claims._REGISTRY, "C5-parity", claim)
    with pytest.raises(type(fault)):
        cli.main(["verify", "--claims", "C5-parity"])


def test_verify_json_no_meta_is_byte_identical():
    args = ("verify", "--claims", "all", "--max-n", "8", "--format", "json", "--no-meta")
    first, second = run_cli(*args), run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    doc = json.loads(first.stdout)
    assert list(doc) == ["max_n", "results"]


@pytest.mark.parametrize("argv, golden", [
    (("verify", "--max-n", "25", "--force", "--format", "json", "--no-meta"),
     "verify_max_n_25_force.json"),
    (("verify",), "verify.txt"),
    (("dist", "12", "--force"), "dist_12_force.txt"),
    (("series", "phi", "--order", "12", "--t", "-1/2"), "series_phi_order_12_t_-1_2.txt"),
    (("seq", "eulerian", "--count", "12"), "seq_eulerian_count_12.txt"),
    (("seq", "bernoulli", "--count", "20"), "seq_bernoulli_count_20.txt"),
    (("seq", "eulerian", "--count", "12", "--format", "json"), "seq_eulerian_count_12.json"),
    (("seq", "tangent", "--count", "12", "--format", "json"), "seq_tangent_count_12.json"),
    (("series", "phi", "--order", "64", "--t=-7/5", "--format", "json"),
     "series_phi_order_64_t_-7_5.json"),
])
def test_verify_output_matches_the_golden_file(argv, golden):
    # The files pin each output byte for byte; rewrite one only when a
    # verdict, range, counterexample or value is meant to change.  CI diffs
    # the same files against `python -m excedance` writing to a pipe.
    result = run_cli(*argv, timeout=60)
    assert result.returncode == 0
    assert result.stdout == (DATA / golden).read_text()


def test_bench_tracer_runs_verify_unchanged(tmp_path):
    # bench/traced.py wraps the package's public functions by name and reads
    # labelled arguments from their signatures; a signature it no longer
    # matches makes the traced command fail.
    result = run_python(TRACED, "verify", "--max-n", "25", "--force", "--format", "json",
                        "--no-meta", env={"EXCEDANCE_BENCH_TRACE": str(tmp_path / "trace.json")})
    assert result.returncode == 0, result.stderr
    assert result.stdout == (DATA / "verify_max_n_25_force.json").read_text()


@pytest.mark.parametrize("argv, span", [
    (("seq", "tangent", "--count", "5"), "sequences.tangents"),
    (("series", "tanh", "--order", "5", "--format", "json"), "series.tanh_series"),
])
def test_bench_tracer_sees_the_functions_a_command_imports_late(argv, span, tmp_path):
    # cli imports each command's module only when the command runs, and then
    # reads each function from it, so the traced wrapper must be the one called.
    trace = tmp_path / "trace.json"
    result = run_python(TRACED, *argv, env={"EXCEDANCE_BENCH_TRACE": str(trace)})
    assert result.returncode == 0, result.stderr
    assert result.stdout == run_cli(*argv).stdout
    assert span in {record[0] for record in json.loads(trace.read_text())["spans"]}


def test_verify_json_meta_present_by_default():
    result = run_cli("verify", "--format", "json")
    doc = json.loads(result.stdout)
    assert "meta" in doc
    assert set(doc["meta"]) == {"timestamp", "version"}


def test_unknown_subcommand_and_flag_exit_2():
    result = run_cli("bogus")
    assert result.returncode == 2
    assert result.stdout == ""
    result = run_cli("seq", "altsum", "--count", "3", "--bogus")
    assert result.returncode == 2
    assert result.stdout == ""


def test_version_flag():
    result = run_cli("--version")
    assert result.returncode == 0
    assert result.stdout.startswith("excedance ")


def test_python_m_exits_with_the_code_main_returns():
    # The other tests call main in-process; here __main__ hands its code to sys.exit.
    result = run_python("-m", "excedance", "verify")
    assert (result.returncode, result.stdout) == (0, (DATA / "verify.txt").read_text())
    strict = run_python("-m", "excedance", "verify", "--claims", "C8-genocchi-relation", "--strict")
    assert strict.returncode == 1
    for argv in (("verify", "--max-n", "9"), ("bogus",)):
        result = run_python("-m", "excedance", *argv)
        assert (result.returncode, result.stdout) == (2, "")


# Each reader closes the command's stdout: after 10 bytes of the pipe, or
# before the command starts.
@pytest.mark.parametrize("argv, reader", [
    (("seq", "eulerian", "--count", "300"),
     "p = subprocess.Popen(argv, stdout=subprocess.PIPE); p.stdout.read(10); p.stdout.close()"),
    (("verify",),
     "r, w = os.pipe(); os.close(r); p = subprocess.Popen(argv, stdout=w); os.close(w)"),
], ids=["seq-after-10-bytes", "verify-before-any-write"])
def test_a_closed_stdout_exits_1_with_nothing_on_stderr(argv, reader):
    # The command's stderr is the captured stderr of the interpreter that
    # starts it.  Its stdout is block-buffered, as in a shell pipeline, so a
    # short report first fails at the flush.
    code = (f"import os, subprocess, sys; argv = [sys.executable, '-m', 'excedance', *{argv!r}]; "
            f"{reader}; print(p.wait())")
    result = run_python("-c", code, env={"PYTHONUNBUFFERED": ""})
    assert (result.stdout, result.stderr) == ("1\n", "")
