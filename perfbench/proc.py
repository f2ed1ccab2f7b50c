"""Child processes: environment pinning, and timed runs that report the
child's exit code, wall time and peak resident set; CPU choice and the
reference work that scales wall times to a fixed CPU speed."""

from __future__ import annotations

import os
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, TypeVar

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PYTHON = sys.executable

THREAD_SETTINGS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
"""BLAS pinned to one thread: numpy's OpenBLAS would otherwise start up to
64 threads on a 2-CPU machine and the runs would measure the scheduler."""


CPUS = sorted(os.sched_getaffinity(0))
T = TypeVar("T")


def _probe_s() -> float:
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return best


def pin_to_fastest_cpu() -> None:
    """Pin this process, and the children it starts, to the usable CPU that
    runs a fixed probe fastest right now.

    On a shared host each vCPU's speed flips between two levels about 1.9x
    apart for seconds at a time, independently per vCPU (other tenants on
    its sibling hyperthread).  Measuring on the currently faster CPU keeps
    work off a slowed vCPU where it can; :class:`Reference` scaling
    corrects the drift that remains.
    """
    if len(CPUS) > 1:
        timings = {}
        for cpu in CPUS:
            os.sched_setaffinity(0, {cpu})
            timings[cpu] = _probe_s()
        os.sched_setaffinity(0, {min(timings, key=timings.get)})


def unpin() -> None:
    os.sched_setaffinity(0, CPUS)


_M = (np.arange(16).reshape(4, 4) + 1j * np.arange(16)[::-1].reshape(4, 4)) / 30


def numpy_loop() -> None:
    """A fixed mix of interpreter work and 4x4 complex numpy arithmetic, the
    kind of work fibanyon does, but none of fibanyon's code.  The hermiticity
    check mirrors fibanyon's validation and never fails."""
    m = np.eye(4, dtype=complex)
    for _ in range(200):
        m = _M @ m @ _M.conj().T
        m = m / np.trace(m)
        if not np.allclose(m, m.conj().T, atol=10):
            break


def interpreter_start() -> None:
    """A fresh ``python -c pass``: process start and site set-up."""
    run_child([PYTHON, "-c", "pass"], timeout=60)


@dataclass(frozen=True)
class Reference:
    """A fixed piece of work, timed on the measured work's CPU just before and
    just after it, whose speed scales the measured wall time.

    On a shared host a vCPU's speed drifts by up to about 1.9x over seconds
    (other tenants on its core), and a 30 s run's wall times follow it.  The
    reference slows with the CPU, so the scaled time follows the program's
    own cost instead.  Each kind of measured work is scaled by the reference
    that slows like it: in-process tasks by :func:`numpy_loop`, fresh
    processes by :func:`interpreter_start`.
    """

    work: Callable[[], None]
    nominal_s: float
    """About the reference's time on a 2-vCPU Intel Xeon VM at its faster
    speed level; every reported time is scaled to that speed."""
    samples: int

    def time_s(self) -> float:
        """Median time of ``samples`` runs of the reference."""
        times = []
        for _ in range(self.samples):
            start = time.perf_counter()
            self.work()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def scale(self, before_s: float, after_s: float) -> float:
        """Factor from wall time to time at nominal speed."""
        return self.nominal_s / ((before_s + after_s) / 2)


NUMPY_LOOP = Reference(numpy_loop, nominal_s=0.007, samples=5)
INTERPRETER_START = Reference(interpreter_start, nominal_s=0.05, samples=2)


def timed(reference: Reference, work: Callable[[], T]) -> tuple[T, float, float]:
    """Run ``work`` on the currently fastest CPU; return its result, its
    wall time and the factor that scales the wall time to nominal speed."""
    pin_to_fastest_cpu()
    before = reference.time_s()
    start = time.perf_counter()
    result = work()
    wall = time.perf_counter() - start
    return result, wall, reference.scale(before, reference.time_s())


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(THREAD_SETTINGS)
    return env


@dataclass(frozen=True)
class Child:
    exitcode: int
    wall_s: float
    maxrss_kb: int


def run_child(argv: list[str], timeout: float, stdout_path: Path | None = None,
              stderr_path: Path | None = None) -> Child:
    """Run ``argv`` to completion and reap it with its resource usage.

    The wall time runs from just before the fork to the moment the child is
    reaped.  A child still running after ``timeout`` seconds is killed.
    """
    out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
    err = open(stderr_path, "wb") if stderr_path else subprocess.DEVNULL
    try:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                if not select.select([pidfd], [], [], timeout)[0]:
                    proc.kill()
            finally:
                os.close(pidfd)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, wall, usage.ru_maxrss)
    finally:
        for f in (out, err):
            if f is not subprocess.DEVNULL:
                f.close()

