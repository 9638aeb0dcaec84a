"""The two ways the tests run the ``excedance`` command line.

``run_cli`` calls ``cli.main`` in this process and returns what a process
would have given: exit code, stdout and stderr.  ``run_python`` starts a
fresh interpreter with ``src/`` on PYTHONPATH, for the few tests where the
process itself is the point: the modules a command loads from a cold
start, its peak memory, ``python -m`` and its ``sys.exit``, the golden
bytes each argv writes into a pipe, a reader that closes the pipe, and
bench/traced.py, which wraps the package before the command runs.
"""
import io
import os
import signal
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from excedance import cli

ROOT = Path(__file__).resolve().parent.parent


def _time_out(signum, frame):
    raise TimeoutError("the command ran past its time bound")


def run_cli(*argv: str, timeout: float | None = None) -> subprocess.CompletedProcess:
    """Run ``excedance ARGV`` in-process; past ``timeout`` seconds, raise TimeoutError."""
    out, err = io.StringIO(), io.StringIO()
    if timeout is not None:
        previous = signal.signal(signal.SIGALRM, _time_out)
        signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        if timeout is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    return subprocess.CompletedProcess(("excedance", *argv), code, out.getvalue(), err.getvalue())


def run_python(*args: str, env: dict[str, str] | None = None,
               timeout: float = 60) -> subprocess.CompletedProcess:
    """Run ``python ARGS`` in a fresh interpreter that imports the package from src/."""
    environ = {**os.environ, **(env or {})}
    environ["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + environ.get("PYTHONPATH", "")
    result = subprocess.run([sys.executable, *args], capture_output=True, env=environ,
                            timeout=timeout)
    # Decoded here, since text=True would read "\r\n" as "\n" and hide it from a
    # byte-for-byte comparison.
    return subprocess.CompletedProcess(result.args, result.returncode, result.stdout.decode(),
                                       result.stderr.decode())
