"""Seeded command lists for each workload, with an output check per command.

A command is the argv given to the ``excedance`` CLI and a check that reads
its exit code, stdout and stderr.  Checks compare against
:mod:`reference` and the documented claim table below, never against the
package itself.  A check returns the problem it found (or None) and the
notes it read from the output (``claims.vacuous`` and ``claims.clamped``).

The seed picks sizes, formats, claim subsets and the order of the list.
Sizes are drawn from fixed strata (for example one forced verify bound from
each of 9..10, 11..12 and 13..25), so every seed does about the same amount
of work and a run's figures depend on the program rather than the draw.
"""
from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable

from reference import References, format_exact, ordinary

Notes = dict[str, int]
Check = Callable[[int, str, str], "tuple[str | None, Notes]"]


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Check


FORMATS = (("--format", "text"), ("--format", "json"), ("--format", "json", "--no-meta"))

# The documented claim table: id, paper_ref, lo, hi, first failing index.
CLAIMS = (
    ("C1-egf-standard", "eq (1)", 0, 7, None),
    ("C2-egf-shifted", "sec 2.2", 0, 7, 1),
    ("C3-phi-tanh", "sec 3.2", 0, 12, None),
    ("C4-sum-rule", "sec 3.3", 0, 8, None),
    ("C5-parity", "sec 4.2", 2, 8, None),
    ("C6-tangent-bernoulli", "eq (2)", 1, 11, None),
    ("C7-integrality", "sec 4.1", 1, 25, None),
    ("C8-genocchi-relation", "sec 4.3", 0, 8, 3),
    ("C9-genocchi-recurrence", "sec 4.3", 2, 12, 2),
    ("C10-congruences", "sec 4.3", 1, 13, 1),
    ("C11-signed-recurrence", "sec 4.3", 3, 8, 3),
    ("C12-insertion-recurrence", "sec 4.4", 0, 7, 2),
    ("C13-odd-function", "sec 4.2", 0, 20, None),
)
CLAIM_IDS = tuple(c[0] for c in CLAIMS)

# Documented first counterexample (n, lhs, rhs) of every claim that fails.
FIRST_COUNTEREXAMPLES = {
    "C2-egf-shifted": (1, "1", "-1"),
    "C8-genocchi-relation": (3, "-2", "1"),
    "C9-genocchi-recurrence": (2, "-2", "-1"),
    "C10-congruences": (1, "1", "0"),
    "C11-signed-recurrence": (3, "-4", "-2"),
    "C12-insertion-recurrence": (2, "-1", "-2"),
}

DEFAULT_MAX_N = 8


def _ok(problem: str | None = None, notes: Notes | None = None) -> tuple[str | None, Notes]:
    return problem, notes or {}


def _load_json(out: str) -> object:
    try:
        return json.loads(out)
    except ValueError:
        return None


def _exit_problem(rc: int, err: str, want: int = 0) -> str:
    last = err.strip().splitlines()[-1:] or [""]
    return f"expected exit {want}, got {rc}: {last[0][:200]}"


def _format_of(flags: tuple[str, ...]) -> str:
    return "json" if "json" in flags else "text"


def refusal(*argv: str) -> Command:
    """A command the CLI must refuse: exit 2, a message on stderr, no stdout."""
    def check(rc: int, out: str, err: str):
        if rc != 2:
            return _ok(f"expected exit 2, got {rc}")
        if out or not err.strip():
            return _ok("a refusal must print a message on stderr and nothing on stdout")
        return _ok()
    return Command(tuple(argv), check)


def version() -> Command:
    def check(rc: int, out: str, err: str):
        if rc != 0 or not re.fullmatch(r"excedance \S+\n", out):
            return _ok(f"--version gave exit {rc} and {out!r}")
        return _ok()
    return Command(("--version",), check)


# ---------------------------------------------------------------------------
# seq


def seq(refs: References, name: str, count: int, flags: tuple[str, ...]) -> Command:
    if name == "eulerian":
        rows = [[str(v) for v in refs.eulerian_row(n)] for n in range(1, count + 1)]
        for n, row in enumerate(rows, 1):
            if sum(int(v) for v in row) != factorial(n):
                raise ArithmeticError(f"reference Eulerian row {n} does not sum to {n}!")
        if _format_of(flags) == "json":
            want: object = {"name": name, "count": count, "rows": rows}
        else:
            want = [" ".join(row) for row in rows]
    else:
        values = {
            "tangent": lambda: refs.tangent(count),
            "bernoulli": lambda: refs.bernoulli(count),
            "genocchi": lambda: refs.genocchi(count),
            "altsum": lambda: refs.altsum(count),
        }[name]()
        rendered = [format_exact(v) for v in values]
        if _format_of(flags) == "json":
            want = {"name": name, "count": count, "values": rendered}
        else:
            want = [", ".join(rendered)]
    return Command(("seq", name, "--count", str(count), *flags), _document_check(want))


def _document_check(want: object) -> Check:
    """Compare a JSON document, or the stdout lines, with ``want``."""
    def check(rc: int, out: str, err: str):
        if rc != 0:
            return _ok(_exit_problem(rc, err))
        got = _load_json(out) if isinstance(want, dict) else out.splitlines()
        if got != want:
            return _ok("output differs from the reference")
        return _ok()
    return check


# ---------------------------------------------------------------------------
# dist


def dist(refs: References, n: int, flags: tuple[str, ...]) -> Command:
    row = refs.eulerian_row(n)
    total = sum(row)
    if total != factorial(n):
        raise ArithmeticError(f"reference Eulerian row {n} does not sum to {n}!")
    if _format_of(flags) == "json":
        want: object = {
            "n": n,
            "rows": [{"k": k, "count": str(c)} for k, c in enumerate(row)],
            "sum": str(total),
            "factorial": str(total),
        }
        return Command(("dist", str(n), *flags), _document_check(want))

    def check(rc: int, out: str, err: str):
        if rc != 0:
            return _ok(_exit_problem(rc, err))
        lines = out.splitlines()
        if not lines or lines[0].split() != ["k", "count"] or lines[-1] != f"sum = {total} = {n}!":
            return _ok("table header or sum line differs from the reference")
        if [line.split() for line in lines[1:-1]] != [[str(k), str(c)] for k, c in enumerate(row)]:
            return _ok("tally differs from the Eulerian row")
        return _ok()
    return Command(("dist", str(n), *flags), check)


# ---------------------------------------------------------------------------
# series


def series(refs: References, name: str, order: int, flags: tuple[str, ...],
           t: Fraction | None = None) -> Command:
    egf = refs.series_egf(name, order, t)
    coeffs = [format_exact(c) for c in ordinary(egf)]
    egf_text = [format_exact(c) for c in egf]
    t_args = () if t is None else (f"--t={format_exact(t)}",)
    argv = ("series", name, "--order", str(order), *t_args, *flags)
    if _format_of(flags) == "json":
        want: dict = {"name": name}
        if t is not None:
            want["t"] = format_exact(t)
        want.update({"order": order, "coeffs": coeffs, "egf": egf_text})
        return Command(argv, _document_check(want))

    label = f"{name}(order={order})" if t is None else f"phi(t={format_exact(t)}, order={order})"
    terms = [coeffs[0]] + [f"{c}*{'x' if k == 1 else f'x^{k}'}" for k, c in enumerate(coeffs) if k]
    first = f"{label} = {' + '.join(terms)}"
    rows = [[str(k), coeffs[k], egf_text[k]] for k in range(order + 1)]

    def check(rc: int, out: str, err: str):
        if rc != 0:
            return _ok(_exit_problem(rc, err))
        lines = out.splitlines()
        if len(lines) != order + 3 or lines[0] != first or lines[1].split() != ["n", "[x^n]", "n!*[x^n]"]:
            return _ok("series heading differs from the reference")
        if [line.split() for line in lines[2:]] != rows:
            return _ok("n!*[x^n] column differs from the reference")
        return _ok()
    return Command(argv, check)


# ---------------------------------------------------------------------------
# verify


def verify(max_n: int | None, flags: tuple[str, ...], claims: tuple[str, ...] = (),
           force: bool = False, strict: bool = False) -> Command:
    bound = DEFAULT_MAX_N if max_n is None else max_n
    argv = ["verify"]
    if claims:
        argv += ["--claims", ",".join(claims)]
    if max_n is not None:
        argv += ["--max-n", str(max_n)]
    argv += ["--force"] * force + ["--strict"] * strict + list(flags)
    expected = []
    for cid, ref, lo, hi, first in CLAIMS:
        if claims and cid not in claims:
            continue
        top = min(hi, bound)
        fails = first is not None and lo <= first <= top
        expected.append((cid, ref, lo, top, "FAIL" if fails else "PASS",
                         FIRST_COUNTEREXAMPLES[cid] if fails else None))
    want_rc = 1 if strict and any(e[4] == "FAIL" for e in expected) else 0
    as_json = _format_of(flags) == "json"
    with_meta = "--no-meta" not in flags

    def check(rc: int, out: str, err: str):
        if rc != want_rc:
            return _ok(_exit_problem(rc, err, want_rc))
        got = _parse_json_report(out, bound, with_meta) if as_json else _parse_text_report(out)
        if got is None:
            return _ok("report does not parse")
        if got != expected:
            return _ok("verdicts, ranges or first counterexamples differ from the documented table")
        return _ok(notes={
            "claims.vacuous": sum(1 for e in got if e[3] < e[2]),
            "claims.clamped": sum(1 for e in got if e[3] < bound),
        })
    return Command(tuple(argv), check)


_TEXT_FIRST = re.compile(r"n=(-?\d+): lhs=(\S+) rhs=(\S+)")


def _parse_text_report(out: str) -> list | None:
    lines = out.splitlines()
    if not lines or re.split(r"\s{2,}", lines[0].strip()) != [
        "id", "paper_ref", "range", "verdict", "first_counterexample"
    ]:
        return None
    rows = []
    for line in lines[1:]:
        cells = re.split(r"\s{2,}", line.strip())
        span = re.fullmatch(r"\[(-?\d+),(-?\d+)\]", cells[2]) if len(cells) == 5 else None
        if span is None:
            return None
        first = None
        if cells[4] != "-":
            match = _TEXT_FIRST.fullmatch(cells[4])
            if match is None:
                return None
            first = (int(match[1]), match[2], match[3])
        rows.append((cells[0], cells[1], int(span[1]), int(span[2]), cells[3], first))
    return rows


def _parse_json_report(out: str, bound: int, with_meta: bool) -> list | None:
    doc = _load_json(out)
    if not isinstance(doc, dict) or doc.get("max_n") != bound or ("meta" in doc) != with_meta:
        return None
    rows = []
    try:
        for r in doc["results"]:
            firsts = r["counterexamples"]
            first = (firsts[0]["n"], firsts[0]["lhs"], firsts[0]["rhs"]) if firsts else None
            rows.append((r["id"], r["paper_ref"], r["range"][0], r["range"][1], r["verdict"], first))
    except (KeyError, IndexError, TypeError):
        return None
    return rows


# ---------------------------------------------------------------------------
# the workloads


def audit(rng: random.Random, refs: References) -> list[Command]:
    """verify at the default bound, on claim subsets, low bounds and forced bounds."""
    # Eight full runs at the default bound and one forced run at 9..10 take
    # the middle ranks of the pass, so the median command is one of them
    # whatever the seed draws.
    text, meta, no_meta = FORMATS
    cmds = [verify(None, f) for f in (text, text, text, no_meta, no_meta, meta, meta)]
    cmds.append(verify(None, rng.choice(FORMATS), strict=True))
    ids = list(CLAIM_IDS)
    rng.shuffle(ids)
    for part in (ids[:4], ids[4:8], ids[8:]):
        picked = tuple(c for c in CLAIM_IDS if c in part)
        cmds.append(verify(None, rng.choice(FORMATS), claims=picked))
    cmds.append(verify(rng.randint(0, 2), rng.choice(FORMATS)))
    for lo, hi in ((9, 10), (11, 12), (13, 25)):
        cmds.append(verify(rng.randint(lo, hi), rng.choice(FORMATS), force=True))
    cmds += [
        refusal("verify", "--max-n", str(rng.randint(9, 25))),
        refusal("verify", "--claims", "C99-unregistered"),
        refusal("verify", "--max-n", "-1"),
    ]
    rng.shuffle(cmds)
    return cmds


def enumerate_(rng: random.Random, refs: References) -> list[Command]:
    """dist n over every n in 1..8 and four more in 1..8, plus forced n = 9 and 10.

    The extra n come in pairs (k, 9 - k), so the median command is a small n
    near 5 whatever the seed draws.
    """
    pairs = [rng.randint(1, 4) for _ in range(2)]
    ns = list(range(1, 9)) + pairs + [9 - k for k in pairs] + [9] * 5 + [10]
    cmds = []
    for n in ns:
        flags = rng.choice(FORMATS)
        cmds.append(dist(refs, n, flags + ("--force",) if n > 8 or rng.random() < 0.25 else flags))
    cmds += [
        refusal("dist", "13", "--force"),
        refusal("dist", str(rng.randint(9, 12))),
        refusal("dist", "0"),
    ]
    rng.shuffle(cmds)
    return cmds


def sequences(rng: random.Random, refs: References) -> list[Command]:
    """seq over every sequence and series over every named generating function."""
    # The upper strata are narrow: these commands hold the tail ranks, and a
    # wide stratum would let the seed, not the program, move cmd_tail_s.
    cmds = []
    strata = {
        "tangent": ((1, 100), (148, 152), (308, 312)),
        "genocchi": ((1, 40), (61, 63), (89, 91)),
        "bernoulli": ((1, 100), (198, 202), (298, 302)),
        "altsum": ((1, 100), (198, 202), (298, 302)),
        "eulerian": ((1, 30), (30, 60)),
    }
    for name, bins in strata.items():
        for lo, hi in bins:
            cmds.append(seq(refs, name, rng.randint(lo, hi), rng.choice(FORMATS)))
    for name in ("tanh", "genocchi", "bernoulli", "phi"):
        for order in (64, rng.randint(0, 63)):
            t = _rational_t(rng) if name == "phi" else None
            cmds.append(series(refs, name, order, rng.choice(FORMATS), t))
    cmds += [
        refusal("series", "phi", "--order", str(rng.randint(0, 64)), "--t=1"),
        refusal("series", "phi", "--order", str(rng.randint(0, 64))),
        refusal("series", rng.choice(("tanh", "genocchi", "bernoulli")), "--order", "65"),
        refusal("seq", rng.choice(("tangent", "genocchi", "bernoulli", "altsum")), "--count", "0"),
    ]
    rng.shuffle(cmds)
    return cmds


def _rational_t(rng: random.Random) -> Fraction:
    """An exact rational t != 1, passed as --t=p/q (see NOTES.md)."""
    while True:
        t = Fraction(rng.randint(-7, 7), rng.randint(1, 5))
        if t != 1:
            return t


WORKLOADS = {"audit": audit, "enumerate": enumerate_, "sequences": sequences}


def commands(workload: str, seed: int, refs: References) -> list[Command]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), refs)
