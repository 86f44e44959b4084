"""Run one command; report its wall time, peak RSS and exit status.

    python3 -S bench/launch.py REPORT_JSON TIMEOUT_S SAMPLE_EVERY_S -- COMMAND [ARG...]

The benchmark starts every measured child through this launcher. The
kernel carries the peak RSS of a forking process into its child's
ru_maxrss, so forking from this small interpreter instead of from the
benchmark keeps the benchmark's own memory out of the child's peak. The
command inherits standard output and error. After TIMEOUT_S seconds it is
killed and reported as timed out.

With SAMPLE_EVERY_S > 0 the command is stopped (SIGSTOP) after every
SAMPLE_EVERY_S seconds of running, the launcher times `reference_loop` on
the same CPU, and the command is continued (SIGCONT). The report lists the
command's run segments between stops and the reference times taken in the
stops, so that the benchmark can rescale every segment by the machine's
speed around it. The stops are not part of `wall_s`. With SAMPLE_EVERY_S = 0
the command runs without stops.
"""

import gc
import json
import os
import select
import signal
import sys
import time

REFERENCE_ITERATIONS = 150_000


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python task, integer arithmetic plus
    allocating and sorting tuples: the machine's speed now. The cyclic GC
    is off, so the time does not depend on the caller's heap."""
    gc.disable()
    try:
        t0 = clock()
        s = 0
        pairs = []
        for i in range(REFERENCE_ITERATIONS):
            s += i * i
            pairs.append((i, s & 0xFFFF))
        pairs.sort(key=lambda p: p[1])
        return clock() - t0
    finally:
        gc.enable()


def run(command, timeout: float, every: float) -> dict:
    launch = clock()
    pid = os.fork()
    if pid == 0:
        try:
            os.execv(command[0], command)
        finally:
            os._exit(127)
    pidfd = os.pidfd_open(pid)
    deadline = launch + timeout
    segments, refs = [], []
    start = launch
    timed_out = False
    exited = None  # (status, rusage) once the command has been reaped
    while exited is None:
        left = deadline - clock()
        wait = left if every <= 0 else min(every, left)
        ready, _, _ = select.select([pidfd], [], [], max(wait, 0.0))
        if ready:
            break
        if clock() >= deadline:
            timed_out = True
            os.kill(pid, signal.SIGKILL)
            break
        os.kill(pid, signal.SIGSTOP)
        _, status, usage = os.wait4(pid, os.WUNTRACED)
        if not os.WIFSTOPPED(status):  # it exited as the stop was sent
            exited = (status, usage)
            break
        segments.append(clock() - start)
        refs.append(reference_loop())
        start = clock()
        os.kill(pid, signal.SIGCONT)
    if exited is None:
        _, status, usage = os.wait4(pid, 0)
        exited = (status, usage)
    segments.append(clock() - start)
    os.close(pidfd)
    status, usage = exited
    return {
        "launch": launch,
        "wall_s": sum(segments),
        "segments_s": segments,
        "refs_s": refs,
        "maxrss_kb": usage.ru_maxrss,
        "exit_code": os.waitstatus_to_exitcode(status),
        "timed_out": timed_out,
    }


def main(argv) -> int:
    if len(argv) < 5 or argv[3] != "--":
        print(
            "usage: launch.py REPORT_JSON TIMEOUT_S SAMPLE_EVERY_S -- COMMAND...",
            file=sys.stderr,
        )
        return 2
    report, timeout, every, command = argv[0], float(argv[1]), float(argv[2]), argv[4:]
    result = run(command, timeout, every)
    with open(report, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
