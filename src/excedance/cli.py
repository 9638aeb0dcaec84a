"""Command-line surface: sequence dumps, excedance distribution tables,
series printing, and the claim verification report.  This is the one
module that turns results into text or JSON; the library returns values.

Exit codes: 0 on success (for ``verify``: every verdict matches its
expectation), 1 when ``verify`` finds an unexpected verdict or, under
--strict, any FAIL at all, or when the reader closes stdout before all of
the output is written, and 2 on usage or guard errors.  Each refusal
raises GuardError where its argument is read, and only ``main`` prints it;
any other exception is a fault and propagates.  All output is
deterministic; the only timestamp lives in the JSON report metadata and is
suppressed by --no-meta.
"""
from __future__ import annotations

import argparse
import os
import re
import sys
from collections.abc import Sequence
from math import factorial, inf

from . import __version__
from .exact import (
    DESK_LIMIT,
    ENUMERATION_LIMIT,
    SEQ_COUNT_LIMIT,
    SERIES_ORDER_LIMIT,
    T_DIGITS_LIMIT,
    GuardError,
    require_within,
)


def _format_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Left-aligned columns two spaces apart, each line right-stripped.

    >>> print(_format_table(("k", "count"), [("0", "1"), ("1", "4083")]))
    k  count
    0  1
    1  4083
    """
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in (header, *rows)
    )


_package = sys.modules[__package__]

# Each prefix gives the first count values, or rows of the Eulerian triangle.
# An entry reaches its module through the package and reads its function
# there only when called, so a command loads no module it does not run, and
# a wrapper that bench/traced.py binds on the module in the function's place
# is the one called.
SEQUENCES = {
    "tangent": lambda count: _package.sequences.tangents(count),
    "bernoulli": lambda count: _package.sequences.bernoullis(count),
    "genocchi": lambda count: _package.sequences.genocchis(count),
    "eulerian": lambda count: _package.permutations.eulerian_rows(count),
    "altsum": lambda count: _package.sequences.alternating_sums(count),
}

# Each constructor takes the order and phi's --t, which only phi reads.
SERIES = {
    "tanh": lambda order, t: _package.series.tanh_series(order),
    "phi": lambda order, t: _package.series.phi_series(t, order),
    "genocchi": lambda order, t: _package.series.genocchi_series(order),
    "bernoulli": lambda order, t: _package.series.bernoulli_series(order),
}


def cmd_seq(args: argparse.Namespace) -> int:
    name, count = args.name, args.count
    require_within("--count", count, 1, SEQ_COUNT_LIMIT)
    values = SEQUENCES[name](count)
    if name == "eulerian":
        key, items = "rows", ([str(v) for v in row] for row in values)
    else:
        key, items = "values", map(str, values)
    if args.format == "json":
        import json
        # Item by item, the bytes json.dumps(..., indent=2) would give for
        # the whole document, which would hold every item at once.
        print("{", f'  "name": "{name}",', f'  "count": {count},', f'  "{key}": [', sep="\n")
        separator = ""
        for item in items:
            print(separator + "    " + json.dumps(item, indent=2).replace("\n", "\n    "), end="")
            separator = ",\n"
        print("\n  ]\n}")
    elif name == "eulerian":
        for row in items:
            print(" ".join(row))
    else:
        print(", ".join(items))
    return 0


def cmd_dist(args: argparse.Namespace) -> int:
    n = args.n
    hint = "" if args.force else f" (--force raises the cap to {ENUMERATION_LIMIT})"
    require_within("n", n, 1, ENUMERATION_LIMIT if args.force else DESK_LIMIT, hint)
    from .permutations import excedance_distribution
    tally = excedance_distribution(n)
    total = sum(tally)
    n_factorial = factorial(n)
    if args.format == "json":
        import json
        doc = {
            "n": n,
            "rows": [{"k": k, "count": str(c)} for k, c in enumerate(tally)],
            "sum": str(total),
            "factorial": str(n_factorial),
        }
        print(json.dumps(doc, indent=2))
    else:
        print(_format_table(("k", "count"), [(str(k), str(c)) for k, c in enumerate(tally)]))
        if total == n_factorial:
            print(f"sum = {total} = {n}!")
        else:
            print(f"sum = {total} != {n}! = {n_factorial}")
    return 0


def cmd_series(args: argparse.Namespace) -> int:
    name, order = args.name, args.order
    require_within("--order", order, 0, SERIES_ORDER_LIMIT)
    t = args.t
    if name == "phi":
        if t is None:
            raise GuardError("phi needs --t (any exact rational except 1)")
        if t == 1:
            raise GuardError(
                "phi is undefined at t=1: the denominator t - e^(x(t-1)) "
                "has a vanishing constant term there"
            )
    elif t is not None:
        raise GuardError(f"--t only applies to phi, not {name!r}")
    from .series import egf_coeff
    series = SERIES[name](order, t)
    ordinary = [str(c) for c in series]
    egf = [str(egf_coeff(series, k)) for k in range(order + 1)]
    if name == "phi":
        label = f"phi(t={t}, order={order})"
    else:
        label = f"{name}(order={order})"
    if args.format == "json":
        import json
        doc: dict = {"name": name}
        if name == "phi":
            doc["t"] = str(t)
        doc.update({"order": order, "coeffs": ordinary, "egf": egf})
        print(json.dumps(doc, indent=2))
    else:
        powers = ("", "*x", *(f"*x^{k}" for k in range(2, order + 1)))
        print(f"{label} = " + " + ".join(c + power for c, power in zip(ordinary, powers)))
        rows = [(str(k), ordinary[k], egf[k]) for k in range(order + 1)]
        print(_format_table(("n", "[x^n]", "n!*[x^n]"), rows))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    hint = "" if args.force else " (--force lifts the cap)"
    require_within("--max-n", args.max_n, 0, inf if args.force else DESK_LIMIT, hint)
    from .claims import FAIL, get_claim, verify_all
    if args.claims.strip() == "all":
        ids = None
    else:
        ids = tuple(part.strip() for part in args.claims.split(",") if part.strip())
        if not ids:
            raise GuardError("--claims needs 'all' or a comma-separated id list")
        for claim_id in ids:
            # Only this lookup refuses; a KeyError from an evaluator is a fault.
            try:
                get_claim(claim_id)
            except LookupError as exc:
                raise GuardError(exc.args[0]) from None
    results = verify_all(args.max_n, ids)
    if args.format == "json":
        import json
        doc: dict = {"max_n": args.max_n, "results": [
            {
                "id": r.claim.id,
                "paper_ref": r.claim.paper_ref,
                "verdict": r.verdict,
                "range": [r.claim.lo, r.hi],
                "counterexamples": [
                    {"n": c.n, "lhs": str(c.lhs), "rhs": str(c.rhs)} for c in r.counterexamples
                ],
                "notes": r.claim.notes,
            }
            for r in results
        ]}
        if not args.no_meta:
            import time
            timestamp = time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())
            doc["meta"] = {"timestamp": timestamp, "version": __version__}
        print(json.dumps(doc, indent=2))
    else:
        header = ("id", "paper_ref", "range", "verdict", "first_counterexample")
        print(_format_table(header, [
            (r.claim.id, r.claim.paper_ref, f"[{r.claim.lo},{r.hi}]", r.verdict,
             "n={}: lhs={} rhs={}".format(*r.counterexamples[0]) if r.counterexamples else "-")
            for r in results
        ]))
    any_fail = any(r.verdict == FAIL for r in results)
    unexpected = [
        r.claim.id for r in results if r.verdict != r.claim.expected_verdict(args.max_n)
    ]
    if args.strict and any_fail:
        return 1
    if unexpected:
        print(
            f"unexpected verdicts for: {', '.join(unexpected)}",
            file=sys.stderr,
        )
        return 1
    return 0


def _rational_arg(text: str) -> Fraction:
    from fractions import Fraction
    # Echo a prefix of a text too long for any t within the digit limit.
    shown = repr(text)
    if len(text) > 2 * T_DIGITS_LIMIT + 2:
        shown = f"{text[:16]!r}... ({len(text)} characters; T_DIGITS_LIMIT is {T_DIGITS_LIMIT})"
    # Fraction expands an exponent, so "1e100000" would become an integer of
    # 100001 digits whose powers no series order could afford.
    if "e" in text.lower():
        raise argparse.ArgumentTypeError(
            f"exponent notation is not accepted: {shown}; write t as p/q or an integer"
        )
    try:
        t = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not an exact rational: {shown}")
    if max(abs(t.numerator), t.denominator) >= 10**T_DIGITS_LIMIT:
        raise argparse.ArgumentTypeError(
            f"t may have at most {T_DIGITS_LIMIT} digits in its numerator and in its "
            "denominator (T_DIGITS_LIMIT)")
    return t


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    common.add_argument(
        "--no-meta", action="store_true",
        help="omit the timestamp/version metadata from JSON output "
             "(only verify's JSON has any)",
    )
    # Only dist and verify have a guard that --force raises.
    forcing = argparse.ArgumentParser(add_help=False)
    forcing.add_argument(
        "--force", action="store_true",
        help=f"raise desk-scale guards (enumeration up to length {ENUMERATION_LIMIT}, "
             f"verification past max-n {DESK_LIMIT})",
    )

    parser = argparse.ArgumentParser(
        prog="excedance",
        description="Exact permutation statistics, classical sequences, and identity verification.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_seq = sub.add_parser("seq", parents=[common], help="print the first values of a sequence")
    p_seq.add_argument("name", choices=SEQUENCES)
    p_seq.add_argument("--count", type=int, required=True, help=f"how many values (1..{SEQ_COUNT_LIMIT})")
    p_seq.set_defaults(func=cmd_seq)

    p_dist = sub.add_parser("dist", parents=[common, forcing], help="excedance distribution table")
    p_dist.add_argument("n", type=int, help=f"permutation length (1..{DESK_LIMIT}, "
                                            f"{ENUMERATION_LIMIT} with --force)")
    p_dist.set_defaults(func=cmd_dist)

    p_series = sub.add_parser("series", parents=[common], help="print a truncated series")
    p_series.add_argument("name", choices=SERIES)
    p_series.add_argument("--order", type=int, required=True,
                          help=f"truncation order (0..{SERIES_ORDER_LIMIT})")
    p_series.add_argument("--t", type=_rational_arg, default=None,
                          help="evaluation point for phi (exact rational, not 1)")
    p_series.set_defaults(func=cmd_series)

    p_verify = sub.add_parser("verify", parents=[common, forcing], help="verify registered claims")
    p_verify.add_argument("--claims", default="all",
                          help="'all' or comma-separated claim ids (default: all)")
    p_verify.add_argument("--max-n", type=int, default=DESK_LIMIT, dest="max_n",
                          help=f"index bound (default {DESK_LIMIT}; higher needs --force)")
    p_verify.add_argument("--strict", action="store_true",
                          help="exit 1 if any claim FAILs, even expected ones")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def _attach_negative_t(argv: list[str]) -> list[str]:
    # argparse reads "-1/2" after "--t" as an unknown flag rather than a
    # value, because it only recognises negative integers and decimals;
    # "--t=-1/2" leaves it no choice.
    joined: list[str] = []
    for arg in argv:
        if joined and joined[-1] == "--t" and re.match(r"-[\d.]", arg):
            joined[-1] = f"--t={arg}"
        else:
            joined.append(arg)
    return joined


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_t(sys.argv[1:] if argv is None else argv))
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader is gone; devnull takes what is left, so the flush at exit cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
