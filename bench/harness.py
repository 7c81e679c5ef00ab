"""Closed-loop op runner: deadlines, the correctness gate, host-speed
scaling, percentiles and child processes.

An op is one call into hyperball with a fixed expected outcome.  The runner
times the call alone; the check that compares the result with the expected
outcome runs after the clock stops.  A deadline miss counts as a failed op,
a wrong answer (or an exception) counts as failed *and* marks the run
incorrect, naming the op.

Every timing is scaled by the host's current speed, read from a fixed
pure-Python loop that does not touch hyperball (``HostSpeed``).  On a
shared host the speed of the same code can change by a factor of two within
seconds; the loop's own time follows those changes, and the ratio of an op's
time to it stays within a few per cent.
"""

from __future__ import annotations

import math
import os
import signal
import statistics
import subprocess
import tempfile
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class Deadline(BaseException):
    """Raised from SIGALRM when an op outlives its deadline.

    A BaseException so that no ``except Exception`` inside the program can
    swallow it.
    """


def _on_alarm(signum, frame):
    raise Deadline()


@contextmanager
def deadline(seconds: float):
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------------
# Host speed

# Timings are reported for a host on which one reference loop takes this long.
REFERENCE_S = 1e-3
REFERENCE_WINDOW = 10


def reference_seconds() -> float:
    """Seconds one fixed loop of exact rational arithmetic and dict stores,
    the kind of work hyperball does, takes on the host right now."""
    start = time.perf_counter()
    acc = Fraction(0)
    seen = {}
    for i in range(1, 200):
        acc += Fraction(i % 7 - 3, i % 5 + 1) * Fraction(i, 3)
        seen[(i, i % 9)] = acc
    return time.perf_counter() - start


class HostSpeed:
    """Scale factor from measured seconds to reference seconds: REFERENCE_S
    over the median of the last REFERENCE_WINDOW reference loops.
    ``sample`` runs ``loops`` more of them; call it next to the work it
    scales."""

    def __init__(self, loops: int = 1):
        self.loops = loops
        self.window = deque((reference_seconds() for _ in range(REFERENCE_WINDOW)),
                            maxlen=REFERENCE_WINDOW)

    def sample(self) -> float:
        self.window.extend(reference_seconds() for _ in range(self.loops))
        return REFERENCE_S / statistics.median(self.window)


@dataclass
class Op:
    """One timed call; ``check`` returns None when the result is right,
    otherwise the reason it is wrong."""

    op_id: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Tally:
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    deadline_misses: int = 0
    wrong: list[tuple[str, str]] = field(default_factory=list)
    block_rates: list[float] = field(default_factory=list)


def run_block(ops: list[Op], limit_s: float, tally: Tally, speed: HostSpeed,
              tracer=None) -> float:
    """Run ops one after another (closed loop); returns the timed seconds,
    scaled to the reference host.  Reference loops run after each op, and
    the op's time is scaled by the last REFERENCE_WINDOW of them, which lie
    on both sides of it."""
    timed = 0.0
    ok = 0
    for op in ops:
        if tracer is not None:
            tracer.op_id = op.op_id
        result = None
        error = None
        start = time.perf_counter()
        try:
            with deadline(limit_s):
                result = op.run()
        except Deadline:
            error = "deadline"
        except Exception as exc:  # a crash is a wrong answer, reported by op
            error = f"raised {type(exc).__name__}: {exc}"
        elapsed = (time.perf_counter() - start) * speed.sample()
        timed += elapsed
        tally.latencies.append(elapsed)
        tally.attempted += 1
        if error is None:
            error = op.check(result)
        if error is None:
            ok += 1
            continue
        tally.failed += 1
        if error == "deadline":
            tally.deadline_misses += 1
        else:
            tally.wrong.append((op.op_id, error))
    if timed > 0:
        tally.block_rates.append(ok / timed)
    return timed


# ---------------------------------------------------------------------------
# Percentiles


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least a share q
    of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank q-percentile of n samples."""
    return n - max(1, math.ceil(q * n))


def check_samples(n: int, q: float, need: int = 10) -> None:
    """A percentile is reported only with at least ``need`` samples beyond it."""
    if samples_beyond(n, q) < need:
        raise ValueError(
            f"p{round(q * 100)} needs {need} samples beyond it; {n} samples give "
            f"{samples_beyond(n, q)}"
        )


def end_to_end(tally: Tally, setup_s: float, peak_rss_mb: float, smoke: bool) -> dict:
    if not smoke:
        check_samples(len(tally.latencies), 0.9)
    ok_ratio = (tally.attempted - tally.failed) / tally.attempted
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (statistics.median(tally.block_rates), "1/s"),
        "latency_p50_ms": (percentile(tally.latencies, 0.5) * 1e3, "ms"),
        "latency_p90_ms": (percentile(tally.latencies, 0.9) * 1e3, "ms"),
        "ok_ratio": (ok_ratio, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


# ---------------------------------------------------------------------------
# Child processes


@dataclass
class ChildResult:
    code: int
    stdout: str
    stderr: str
    max_rss_kb: int


def run_child(argv: list[str], env: dict, scratch: str, cwd: str) -> ChildResult:
    """Run one child to completion and reap it with wait4, which also yields
    that child's own peak RSS.  Output goes through anonymous files in
    ``scratch``, so a full pipe can never block the child; a Deadline raised
    while waiting kills it first."""
    with tempfile.TemporaryFile(dir=scratch) as out, tempfile.TemporaryFile(dir=scratch) as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return ChildResult(proc.returncode, out.read().decode(), err.read().decode(),
                           usage.ru_maxrss)
