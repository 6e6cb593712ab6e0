"""Timing primitives: child processes with their own rusage, pass loops,
percentiles and the host-speed probe.  Standard library only."""

from __future__ import annotations

import os
import subprocess
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Callable


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    out: bytes
    err: bytes


def run_child(argv: list[str], env: dict[str, str], cwd: str) -> Child:
    """Run one process to completion and take its own rusage from wait4.

    stderr is read after stdout; the programs run here write at most a few
    lines to stderr, far below a pipe's buffer.
    """
    start = perf_counter()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=cwd, env=env
    )
    with proc.stdout, proc.stderr:
        out = proc.stdout.read()
        err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,  # Linux reports kilobytes
        code=proc.returncode,
        out=out,
        err=err,
    )


def timed_passes(
    one_pass: Callable[[int], None],
    seconds: float,
    min_passes: int = 1,
    between: Callable[[], None] | None = None,
) -> list[float]:
    """Wall time of each pass, run while the next one fits in `seconds`.

    A pass starts only if, at the length of the previous one, it would end
    within the run's time, so a run stays close to `seconds` whatever a pass
    costs; at least `min_passes` run.  `between` runs after each pass,
    outside its wall time but inside the run's.
    """
    walls: list[float] = []
    start = perf_counter()
    while len(walls) < min_passes or perf_counter() - start + walls[-1] <= seconds:
        t0 = perf_counter()
        one_pass(len(walls))
        walls.append(perf_counter() - t0)
        if between:
            between()
    return walls


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 1]."""
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def spin_probe() -> float:
    """Seconds for a fixed pure-Fraction loop: the host's speed right now."""
    start = perf_counter()
    acc = Fraction(0)
    for i in range(1, 40001):
        acc = Fraction(i % 97 + 1, i % 89 + 1) * Fraction(i % 13 + 1, i % 17 + 1) + acc / (i % 5 + 2)
        acc = Fraction(acc.numerator % 1009, acc.denominator % 1013 + 1)
    return perf_counter() - start
