"""Spawn one command per request; report its wall time and resource usage.

run.py starts this process once per run.  It reads one JSON request per
line on stdin, ``{"argv", "env", "stdout", "stderr", "timeout"}``, where
``env`` holds variables to add.  For each request it spawns the command with
stdin from /dev/null and stdout and stderr sent to the given files.  It waits
on a pidfd and kills the command when the timeout passes.  Then it reaps the
command with ``os.wait4`` and answers with one JSON line,
``{"wall", "cpu", "maxrss_kb", "status", "timed_out"}``.

Commands are spawned from here rather than from run.py because Linux counts
the pages a child shares with its parent before exec in the child's
``ru_maxrss``.  Spawning from this small process keeps run.py's own
memory out of the reported peak RSS.  On SIGTERM the running command is
killed and reaped before this process exits.
"""
import json
import os
import select
import signal
import sys
import time

_running = None


def _terminate(signum, frame):
    if _running is not None:
        try:
            os.kill(_running, signal.SIGKILL)
            os.wait4(_running, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    sys.exit(1)


def run(request):
    global _running
    write = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, request["stdout"], write, 0o600),
        (os.POSIX_SPAWN_OPEN, 2, request["stderr"], write, 0o600),
    ]
    argv = request["argv"]
    env = dict(os.environ, **request["env"])
    start = time.perf_counter()
    pid = _running = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        timed_out = not select.select([pidfd], [], [], request["timeout"])[0]
    finally:
        os.close(pidfd)
    if timed_out:
        os.kill(pid, signal.SIGKILL)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    _running = None
    return {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "status": status,
        "timed_out": timed_out,
    }


def main():
    signal.signal(signal.SIGTERM, _terminate)
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
