"""The command line on random input: its output against bench/reference.py,
which computes every value without the package, and its exit codes on argv
drawn from a small grammar of valid and refused input.  Each argv runs
twice, and both runs must give the same exit code, stdout and stderr."""
import json
import sys
from fractions import Fraction

from harness import ROOT, run_cli
from hypothesis import given, settings
from hypothesis import strategies as st

from excedance.cli import SEQUENCES, SERIES
from excedance.exact import DESK_LIMIT, ENUMERATION_LIMIT, SEQ_COUNT_LIMIT, SERIES_ORDER_LIMIT

sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402
from reference import References  # noqa: E402

REFS = References()
formats = st.sampled_from(workloads.FORMATS)
points = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)).filter(lambda t: t != 1)


def without_meta(stdout: str) -> object:
    # The JSON report's meta holds a timestamp, the one output meant to vary.
    if not stdout.startswith("{"):
        return stdout
    doc = json.loads(stdout)
    doc.pop("meta", None)
    return doc


def run_twice(*argv: str):
    first, second = run_cli(*argv), run_cli(*argv)
    assert (first.returncode, first.stderr, without_meta(first.stdout)) == \
        (second.returncode, second.stderr, without_meta(second.stdout)), argv
    return first


def assert_checked(command: workloads.Command) -> None:
    result = run_twice(*command.argv)
    problem, _ = command.check(result.returncode, result.stdout, result.stderr)
    assert problem is None, (command.argv, problem)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(tuple(SEQUENCES)), count=st.integers(1, 80), flags=formats)
def test_seq_matches_the_reference(name, count, flags):
    assert_checked(workloads.seq(REFS, name, count, flags))


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(tuple(SERIES)), order=st.integers(0, 24), flags=formats, t=points)
def test_series_matches_the_reference(name, order, flags, t):
    assert_checked(workloads.series(REFS, name, order, flags, t if name == "phi" else None))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, ENUMERATION_LIMIT), flags=formats)
def test_dist_matches_the_reference(n, flags):
    assert_checked(workloads.dist(REFS, n, (*flags, "--force")))


# Each t follows "--t" after a space: "-1/2" is the one argparse alone would
# read as a flag.
T_TEXTS = ("1", "1e5", "0/0", "9" * 70, "-1/2")
CLAIM_LISTS = ("all", "C5-parity", "C99-nope", ",")


def sizes(cap: int):
    return st.sampled_from((-1, 0, 1, cap, cap + 1)).map(str)


@st.composite
def argvs(draw) -> list[str]:
    command = draw(st.sampled_from(("seq", "series", "dist", "verify", "bogus")))
    argv = [command]
    if command == "seq":
        argv += [draw(st.sampled_from((*SEQUENCES, "nope"))),
                 "--count", draw(sizes(SEQ_COUNT_LIMIT))]
    elif command == "series":
        argv += [draw(st.sampled_from((*SERIES, "nope"))),
                 "--order", draw(sizes(SERIES_ORDER_LIMIT))]
        argv += draw(st.sampled_from(((), *(("--t", t) for t in T_TEXTS))))
    elif command == "dist":
        argv.append(draw(sizes(draw(st.sampled_from((DESK_LIMIT, ENUMERATION_LIMIT))))))
    elif command == "verify":
        argv += ["--max-n", draw(sizes(DESK_LIMIT))]
        argv += draw(st.sampled_from(((), *(("--claims", c) for c in CLAIM_LISTS))))
    argv += draw(st.sampled_from(((), ("--format", "json"), ("--format", "yaml"), ("--no-meta",))))
    argv += draw(st.sampled_from(((), ("--force",))))
    return argv


@settings(max_examples=100, deadline=None)
@given(argv=argvs())
def test_every_argv_exits_0_1_or_2_and_a_refusal_writes_only_to_stderr(argv):
    # Any exception other than argparse's exit escapes run_cli and fails the test.
    result = run_twice(*argv)
    assert result.returncode in (0, 1, 2)
    if result.returncode == 2:
        assert result.stdout == ""
        assert result.stderr.startswith(("error:", "usage:"))
