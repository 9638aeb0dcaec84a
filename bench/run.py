"""End-to-end and per-layer benchmark of the ``excedance`` command.

Usage, from the root of a checkout::

    python3 bench/run.py --workload {audit,enumerate,sequences} --seed N \
        --seconds S --trace {0,1}

This single-threaded process runs the workload's seeded command list, one
fresh ``python3 -m excedance`` process at a time (a closed loop with one
client), and checks every output against references that do not import the
package (see reference.py and workloads.py).  The commands are spawned and
reaped by bench/spawner.py, a small helper process, so that this process's
own memory stays out of their max RSS.  A round runs the whole command list
once (one pass), with ``excedance --version`` (set-up: interpreter start,
``import excedance`` and parser construction) timed at a few evenly spaced
points of it.  Rounds repeat until ``--seconds`` are used up; the first
MIN_ROUNDS always run whole, and the last may stop part-way.  The timing
metrics average each command over its rounds before they combine commands,
so a run's figures do not depend on how many rounds fitted.  A command that
exits wrongly, prints the wrong output or outlives its timeout counts as
failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
command a second time, right after its untraced run, under bench/traced.py,
and prints the per-layer metrics of those traced passes; pairing the runs
keeps the measured tracing overhead clear of the machine's drift.  The
report lines come first; the last line of stdout is the JSON result.  See
NOTES.md for what each metric means.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from reference import References
from workloads import CLAIM_IDS, WORKLOADS, Command, commands, version

BENCH_DIR = Path(__file__).resolve().parent

COMMAND_TIMEOUT_S = 60.0
# Past --seconds plus this grace, no further command starts; the rest fail.
GRACE_S = 90.0
# Timed --version runs per round, spread evenly through the pass.
SETUP_REPS = 6
# Untraced rounds every run makes, so that each command is timed three times.
MIN_ROUNDS = 3
# Commands beyond the tail: with MIN_ROUNDS rounds, at least 10 timed runs.
TAIL_BEYOND = -(-10 // MIN_ROUNDS)
TANGENT_ROUTES = ("bernoulli", "series", "counting")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cmd_p50_s": "s",
    "cmd_tail_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Sample:
    argv: tuple[str, ...]
    wall: float
    cpu: float
    rss_mb: float
    out_bytes: int
    problem: str | None
    notes: dict = field(default_factory=dict)
    trace: dict | None = None


class Runner:
    """Runs one command at a time through bench/spawner.py and checks it."""

    def __init__(self, root: Path, workdir: Path, deadline: float) -> None:
        paths = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        self.stdout = workdir / "stdout"
        self.stderr = workdir / "stderr"
        self.trace = workdir / "trace.json"
        self.deadline = deadline
        self.skipped = 0
        self.spawner = subprocess.Popen(
            [sys.executable, "-I", "-S", str(BENCH_DIR / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )

    def __enter__(self) -> Runner:
        return self

    def __exit__(self, *exc_info) -> None:
        if exc_info[0] is not None:
            self.spawner.terminate()
        self.spawner.stdin.close()
        self.spawner.wait()
        self.spawner.stdout.close()

    def run_pass(self, cmds: list[Command], modes: tuple[bool, ...], setup: list[Sample],
                 stop_at: float, expected: list[float] | None) -> list[list[Sample]]:
        """One pass per mode (untraced, traced), alternating modes per command.

        SETUP_REPS untraced ``--version`` runs, spread evenly through the
        pass, are added to ``setup``.  Given ``expected`` times, the pass
        stops before a command that would end after ``stop_at``.
        """
        passes: list[list[Sample]] = [[] for _ in modes]
        every = -(-len(cmds) // SETUP_REPS)
        for done, cmd in enumerate(cmds):
            now = time.perf_counter()
            if now >= self.deadline:
                self.skipped += (len(cmds) - done) * len(modes)
                break
            if expected is not None and now + expected[done] > stop_at:
                break
            if done % every == 0:
                setup.append(self.run(version()))
            for samples, traced in zip(passes, modes):
                samples.append(self.run(cmd, traced))
        return passes

    def run(self, cmd: Command, traced: bool = False) -> Sample:
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "traced.py"), *cmd.argv]
            env = {"EXCEDANCE_BENCH_TRACE": str(self.trace)}
            self.trace.unlink(missing_ok=True)
        else:
            argv = [sys.executable, "-m", "excedance", *cmd.argv]
            env = {}
        timeout = max(0.0, min(COMMAND_TIMEOUT_S, self.deadline - time.perf_counter()))
        request = {"argv": argv, "env": env, "stdout": str(self.stdout),
                   "stderr": str(self.stderr), "timeout": timeout}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            raise RuntimeError("bench/spawner.py exited early")
        result = json.loads(reply)
        out = self.stdout.read_text(errors="replace")
        err = self.stderr.read_text(errors="replace")
        notes: dict = {}
        if result["timed_out"]:
            problem = f"timed out after {timeout:.0f}s"
        else:
            problem, notes = cmd.check(os.waitstatus_to_exitcode(result["status"]), out, err)
        trace = None
        if traced and self.trace.is_file():
            trace = json.loads(self.trace.read_text())
        return Sample(cmd.argv, result["wall"], result["cpu"], result["maxrss_kb"] / 1024,
                      len(out.encode()), problem, notes, trace)


@dataclass
class Rounds:
    setup: list[Sample] = field(default_factory=list)
    passes: list[list[Sample]] = field(default_factory=list)
    traced: list[list[Sample]] = field(default_factory=list)

    def all_samples(self) -> list[Sample]:
        return self.setup + [s for p in self.passes + self.traced for s in p]


def measure(runner: Runner, cmds: list[Command], seconds: float, trace: bool) -> Rounds:
    """Rounds over the command list until ``seconds`` are used up.

    The first MIN_ROUNDS untraced rounds (one traced round, as those take
    twice as long) run whole.  After them no command starts that would, at
    its time in the first round, end after ``seconds``.
    """
    rounds = Rounds()
    modes = (False, True) if trace else (False,)
    min_rounds = 1 if trace else MIN_ROUNDS
    stop_at = time.perf_counter() + seconds
    while not runner.skipped:
        expected = None
        if len(rounds.passes) >= min_rounds:
            first = [rounds.passes[0], *rounds.traced[:1]]
            expected = [sum(p[i].wall for p in first) for i in range(len(cmds))]
        untraced, *traced = runner.run_pass(cmds, modes, rounds.setup, stop_at, expected)
        if untraced:
            rounds.passes.append(untraced)
            rounds.traced += traced
        if len(untraced) < len(cmds):
            break
    return rounds


def _per_command(passes: list[list[Sample]], attr: str) -> list[float]:
    """Each command's mean ``attr`` over the rounds that ran it."""
    n = max(len(p) for p in passes)
    return [statistics.fmean(getattr(p[i], attr) for p in passes if i < len(p)) for i in range(n)]


def end_to_end(rounds: Rounds) -> tuple[dict, dict]:
    """Metric values, and for each its sample count (plus the tail's percentile).

    Timings of the command list take each command's mean over its rounds.
    """
    walls = _per_command(rounds.passes, "wall")
    order = sorted(range(len(walls)), key=walls.__getitem__)
    runs = sum(len(p) for p in rounds.passes)
    # 1-based rank with TAIL_BEYOND commands beyond it; never below the median.
    rank = max(len(walls) - TAIL_BEYOND, (len(walls) + 1) // 2)
    values = {
        "setup_s": statistics.median(s.wall for s in rounds.setup),
        "wall_s": sum(walls),
        "cmd_p50_s": statistics.median(walls),
        "cmd_tail_s": walls[order[rank - 1]],
        "cpu_s": sum(_per_command(rounds.passes, "cpu")),
        "peak_rss_mb": max(s.rss_mb for p in rounds.passes for s in p),
    }
    samples = {
        "setup_s": len(rounds.setup),
        "wall_s": runs,
        "cmd_p50_s": runs,
        "cmd_tail_s": runs,
        "cpu_s": runs,
        "peak_rss_mb": runs,
        "cmd_tail_percentile": round(100 * rank / len(walls), 2),
        "cmd_tail_runs_beyond": sum(1 for i in order[rank:] for p in rounds.passes if i < len(p)),
    }
    return values, samples


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(samples: list[Sample], untraced: list[Sample], setup_s: float) -> dict:
    """Per-layer figures of one traced pass and its paired untraced pass."""
    self_s: Counter = Counter()
    inclusive: Counter = Counter()
    counts: Counter = Counter()
    notes: Counter = Counter()
    hits: Counter = Counter()
    lookups: Counter = Counter()
    distinct = max_order = 0
    import_s = 0.0
    for sample in samples:
        notes.update(sample.notes)
        trace = sample.trace
        if trace is None:
            continue
        import_s += trace["import_s"]
        spans = trace["spans"]
        covered = [0.0] * len(spans)
        for name, label, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for index, (name, label, start, end, parent) in enumerate(spans):
            self_s[name.split(".")[0]] += end - start - covered[index]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][4]
            if parent < 0:  # outermost span of this name
                inclusive[name if label is None else f"{name}[{label}]"] += end - start
        counts.update(trace["counts"])
        for layer, (hit, miss) in trace["caches"].items():
            hits[layer] += hit
            lookups[layer] += hit + miss
        distinct += len(trace["tally_ns"])
        max_order = max(max_order, trace["max_order"])
    wall = sum(s.wall for s in samples)
    metrics = {
        "permutations.self_s": (self_s["permutations"], "s"),
        "permutations.perms_enumerated": (counts["permutations.perms_enumerated"], "count"),
        "permutations.distinct_tally_ratio": (_ratio(distinct, counts["permutations.tallies"]), "ratio"),
        "permutations.count_alternating_s": (inclusive["permutations.count_alternating"], "s"),
        "series.self_s": (self_s["series"], "s"),
        "series.mul_s": (inclusive["series.series_mul"], "s"),
        "series.reciprocal_s": (inclusive["series.series_reciprocal"], "s"),
        "series.cauchy_terms": (counts["series.cauchy_terms"], "count"),
        "series.cache_hit_ratio": (_ratio(hits["series"], lookups["series"]), "ratio"),
        "series.max_order": (max_order, "order"),
        "sequences.self_s": (self_s["sequences"], "s"),
        "sequences.bernoulli_s": (inclusive["sequences.bernoulli"], "s"),
        **{f"sequences.tangent.{route}_s": (inclusive[f"sequences.tangent[{route}]"], "s")
           for route in TANGENT_ROUTES},
        "sequences.genocchi_s": (inclusive["sequences.genocchi"], "s"),
        "sequences.cache_hit_ratio": (_ratio(hits["sequences"], lookups["sequences"]), "ratio"),
        **{f"claims.{cid}.s": (inclusive[f"claims.verify_claim[{cid}]"], "s") for cid in CLAIM_IDS},
        "claims.self_s": (self_s["claims"], "s"),
        "claims.render_s": (inclusive["claims.render_report"], "s"),
        "claims.vacuous": (notes["claims.vacuous"], "count"),
        "claims.clamped": (notes["claims.clamped"], "count"),
        "cli.import_s": (import_s, "s"),
        "cli.parse_s": (inclusive["cli.build_parser"] + inclusive["cli.parse_args"], "s"),
        "cli.self_s": (self_s["cli"], "s"),
        "cli.output_bytes": (sum(s.out_bytes for s in samples), "bytes"),
        "exact.calls": (counts["exact.calls"], "count"),
        "exact.format_s": (inclusive["exact.format_exact"], "s"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_ratio": (_ratio(wall, sum(s.wall for s in untraced)), "ratio"),
        "trace.accounted_ratio": (_ratio(sum(self_s.values()) + len(samples) * setup_s, wall), "ratio"),
    }
    return metrics


def per_layer(rounds: Rounds, n_cmds: int, setup_s: float) -> dict:
    """Median over the traced passes of each per-layer metric."""
    pairs = list(zip(rounds.traced, rounds.passes))
    per_pass = [layer_metrics(t, u, setup_s)
                for t, u in [p for p in pairs if len(p[0]) == n_cmds] or pairs]
    return {
        name: (statistics.median(m[name][0] for m in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }


def git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, args: argparse.Namespace) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": list(os.getloadavg()),
        "commit": git_commit(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so the spawner and its command are stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "excedance" / "cli.py").is_file():
        print("error: no src/excedance here; run from the root of an excedance checkout",
              file=sys.stderr)
        return 2
    env = environment(root, args)
    cmds = commands(args.workload, args.seed, References())
    build = root / ".bench_build"
    build.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=build, prefix="run-") as workdir:
        deadline = time.perf_counter() + args.seconds + GRACE_S
        with Runner(root, Path(workdir), deadline) as runner:
            runner.run(version())  # warm the bytecode and file caches
            if args.trace:
                runner.run(version(), traced=True)
            rounds = measure(runner, cmds, args.seconds, bool(args.trace))
    env["loadavg_after"] = list(os.getloadavg())

    samples = rounds.all_samples()
    failures = [s for s in samples if s.problem]
    attempted = len(samples) + runner.skipped
    failed = len(failures) + runner.skipped
    values, counts = end_to_end(rounds)
    metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    if args.trace:
        layers = per_layer(rounds, len(cmds), values["setup_s"])

    report = {
        "env": env,
        "commands_per_pass": len(cmds),
        "rounds": len(rounds.passes),
        "commands_timed": sum(len(p) for p in rounds.passes),
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "end_to_end": {name: {"value": v, "unit": u, "samples": counts[name]}
                       for name, (v, u) in metrics.items()},
        "cmd_tail_percentile": counts["cmd_tail_percentile"],
        "cmd_tail_runs_beyond": counts["cmd_tail_runs_beyond"],
        "pass_wall_s": [sum(s.wall for s in p) for p in rounds.passes],
        "failures": [{"argv": list(s.argv), "problem": s.problem} for s in failures[:20]],
        "command_wall_s": [
            [" ".join(s.argv), [p[i].wall for p in rounds.passes if i < len(p)]]
            for i, s in enumerate(rounds.passes[0])
        ],
    }
    if args.trace:
        report["per_layer"] = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
    out_name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (build / out_name).write_text(json.dumps(report, indent=2) + "\n")

    print(f"excedance benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace}; {len(cmds)} commands per pass, {len(rounds.passes)} rounds "
          f"(the last may stop part-way)")
    print("env " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        extra = (f" (p{counts['cmd_tail_percentile']} of commands by mean,"
                 f" {counts['cmd_tail_runs_beyond']} runs beyond)") if name == "cmd_tail_s" else ""
        print(f"  {name:<14} {value:>12.6f} {unit:<3} samples={counts[name]}{extra}")
    print(f"  {'failed_ratio':<14} {failed / attempted:>12.6f}     {failed}/{attempted} commands")
    for s in failures[:20]:
        print(f"  FAILED {' '.join(s.argv)}: {s.problem}")
    if args.trace:
        for name, (value, unit) in layers.items():
            print(f"  {name:<40} {value:>16.6f} {unit}")
    print(f"report written to {build.name}/{out_name}")

    shown = layers if args.trace else metrics
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
