"""Run one excedance command with the package's public functions traced.

Usage::

    PYTHONPATH=src EXCEDANCE_BENCH_TRACE=out.json python3 bench/traced.py ARGV...

ARGV is what the ``excedance`` command would get.  After ``import
excedance.cli`` (timed as the import), every public function of the six
modules is replaced by a wrapper, under its own name and under every name
another module bound with ``from .x import``.  Each call records a span
(name, label, start, end, parent) in memory; the ``exact`` helpers, which
run about 1e5 times per command, only count their calls, except
``format_exact``, which gets spans.  When the command ends, the spans,
counts and the ``functools`` cache statistics are written as JSON to
$EXCEDANCE_BENCH_TRACE, and the process exits with the command's code.
"""
import os
import sys
import time

MODULES = ("exact", "series", "permutations", "sequences", "claims", "cli")

# Calls that get one span per call although their layer is counted only.
SPANNED_EXACT = {"format_exact"}

# Spans named after the value of one argument, for per-claim and per-route times.
LABELS = {"claims.verify_claim": "claim_id", "sequences.tangent": "route"}

# Exhaustive tallies: each enumerates all n! permutations of its first argument.
TALLIES = {"excedance_distribution", "alternating_sum_bruteforce",
           "eulerian_poly_bruteforce", "enumerate_permutations"}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, label, start, end, parent index or -1]
        self.stack = []
        self.counts = {}
        self.tally_ns = set()
        self.max_order = 0

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def span(self, name, fn, label=None, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, label(args, kwargs) if label else None, 0.0, 0.0,
                      stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            record[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if after:
                after(args, kwargs, result)
            return result
        return wrapper

    def counter(self, name, fn):
        count = self.count

        def wrapper(*args, **kwargs):
            count(name)
            return fn(*args, **kwargs)
        return wrapper

    def after_series(self, name):
        # Coefficient products of a Cauchy product or reciprocal at result order r.
        terms = {"series_mul": lambda r: (r + 1) * (r + 2) // 2,
                 "series_reciprocal": lambda r: r * (r + 1) // 2}.get(name)

        def after(args, kwargs, result):
            order = getattr(result, "order", None)
            if isinstance(order, int):
                self.max_order = max(self.max_order, order)
                if terms:
                    self.count("series.cauchy_terms", terms(order))
        return after

    def after_tally(self, factorial):
        def after(args, kwargs, result):
            n = args[0] if args else kwargs["n"]
            self.count("permutations.tallies")
            self.count("permutations.perms_enumerated", factorial(n))
            self.tally_ns.add(n)
        return after


def install(tracer, package):
    """Wrap every public function of each module wherever it is bound."""
    import argparse
    import inspect
    import math
    import types

    replacements = {}
    caches = {}
    for short in MODULES:
        module = getattr(package, short)
        for attr, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if hasattr(obj, "cache_info"):
                caches.setdefault(short, []).append(obj)
            if attr.startswith("_") or not (isinstance(obj, types.FunctionType)
                                            or hasattr(obj, "cache_info")):
                continue
            name = f"{short}.{attr}"
            fn = obj
            if short == "exact":
                fn = tracer.counter("exact.calls", obj)
                if attr not in SPANNED_EXACT:
                    replacements[id(obj)] = fn
                    continue
            label = None
            if name in LABELS:
                label = _argument_reader(inspect.signature(obj), LABELS[name])
            after = None
            if short == "series":
                after = tracer.after_series(attr)
            elif short == "permutations" and attr in TALLIES:
                after = tracer.after_tally(math.factorial)
            replacements[id(obj)] = tracer.span(name, fn, label, after)
    for mod_name, module in list(sys.modules.items()):
        if mod_name == package.__name__ or mod_name.startswith(package.__name__ + "."):
            for attr, obj in list(vars(module).items()):
                if id(obj) in replacements:
                    setattr(module, attr, replacements[id(obj)])
    argparse.ArgumentParser.parse_args = tracer.span(
        "cli.parse_args", argparse.ArgumentParser.parse_args)
    return caches


def _argument_reader(signature, parameter):
    def read(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return str(bound.arguments[parameter])
    return read


def main(argv):
    out_path = os.environ["EXCEDANCE_BENCH_TRACE"]
    start = time.perf_counter()
    import excedance
    import excedance.cli
    import_s = time.perf_counter() - start

    import json

    tracer = Tracer()
    caches = install(tracer, excedance)
    code = 1
    try:
        code = excedance.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        sys.stdout.flush()
        stats = {}
        for layer, objs in caches.items():
            infos = [obj.cache_info() for obj in objs]
            stats[layer] = [sum(i.hits for i in infos), sum(i.misses for i in infos)]
        with open(out_path, "w") as fh:
            json.dump({
                "import_s": import_s,
                "spans": tracer.spans,
                "counts": tracer.counts,
                "caches": stats,
                "tally_ns": sorted(tracer.tally_ns),
                "max_order": tracer.max_order,
            }, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
