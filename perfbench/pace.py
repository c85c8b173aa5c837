"""Pace: the host's speed, timed on fixed work of the benchmark's own.

On a shared virtual machine the host switches between a fast and a slow
state within seconds, and the share of slow time drifts over minutes (see
README.md, "Pace"), so two runs of the same code can differ by a quarter
in wall and CPU time alike.  A paced client therefore times a pace
kernel every EVERY_S between its ops.  Each op's latency is then scaled by
the kernel's nominal time over the mean of the kernel timings just before
and just after the op: the paced latency is what the op would have taken at
the nominal speed.  Set-up is paced the same way by kernel timings before
and after it.

The kernels never touch solvechart, so a change to the program cannot move
them; they only follow the host.  The interpreter kernel tracks
eval-programs and eval-lookup, whose time is Python bytecode; align's time is array passes over
576x576 matrices, which slow down less in the slow state, so it has the
array kernel.
"""

from __future__ import annotations

import bisect
import statistics
import time

EVERY_S = 0.02  # a paced client times its kernel this often, between ops
SETUP_TIMINGS = 10  # kernel timings before and again after each set-up measurement

_WORDS = tuple(f"w{i}" for i in range(64))
_MATRIX = []


def interpreter_kernel() -> None:
    """Dict updates, string formatting, float arithmetic and a sort."""
    counts: dict[str, int] = {}
    total = 0.0
    for i in range(1500):
        word = _WORDS[i & 63]
        counts[word] = counts.get(word, 0) + 1
        total += len(f"{word}:{i}") * 0.5
    ",".join(sorted(counts))


def array_kernel() -> None:
    """Argmin over a 576x576 matrix and row and column rewrites, twelve
    times.  Imports numpy, so it only runs where the workload has loaded it."""
    import numpy as np

    if not _MATRIX:
        _MATRIX.append(np.random.default_rng(0).random((576, 576)))
    matrix = _MATRIX[0].copy()
    for k in range(12):
        i = int(np.argmin(matrix)) // matrix.shape[1]
        matrix[:, k] = (matrix[i, :] + matrix[k, :]) * 0.5
        matrix[k, :] = np.inf


# Kernel and its time at the nominal speed, in ms: the fast state of the
# machine in README.md.
KERNELS = {"interpreter": (interpreter_kernel, 0.5), "array": (array_kernel, 2.0)}
SETUP_KERNEL = "interpreter"  # set-up timing starts before numpy loads


def kernel_for(workload: str) -> str:
    return "array" if workload == "align" else "interpreter"


def time_kernel(name: str, clock=time.perf_counter) -> float:
    """One timing of the named kernel on `clock`, in ms."""
    kernel = KERNELS[name][0]
    t0 = clock()
    kernel()
    return (clock() - t0) * 1e3


def setup_factor(samples: list[float]) -> float:
    """Factor that takes a set-up time to the nominal speed."""
    return KERNELS[SETUP_KERNEL][1] / statistics.mean(samples)


def pace_phase(phase: dict) -> tuple[list[float], float, float]:
    """(op latencies, wall factor, user CPU factor) of a phase at the
    nominal speed.

    A single client times its kernel in wall time: each op's latency is
    paced by the timings just around it, and both factors are the paced op
    time over the measured op time.  Two clients (eval-live) each time
    their kernel in their own thread's CPU time, which leaves out the other
    client's hold on the interpreter lock, and the user CPU factor is the
    nominal over the mean kernel time.  Their ops wait on the stub, whose
    fixed reply delay (op["wait"]: requests times delay) does not follow the
    host, so an op's latency is paced except for that delay; the rest is
    work on this host (both clients, the stub, loopback TCP).  The wall
    factor is again the paced op time over the measured op time.
    """
    latencies = [op["ms"] for op in phase["ops"]]
    samples = phase["pace"]
    nominal = KERNELS[phase["pace_kernel"]][1]
    if phase["threads"] > 1:
        user = nominal / statistics.mean(ms for _t, ms in samples)
        paced = [op["wait"] + (op["ms"] - op["wait"]) * user for op in phase["ops"]]
        return paced, sum(paced) / sum(latencies), user
    starts = [t for t, _ms in samples]
    paced = []
    for op in phase["ops"]:
        after = bisect.bisect_left(starts, op["t"] + op["ms"] / 1e3)
        around = [samples[i][1] for i in (after - 1, after) if 0 <= i < len(samples)]
        paced.append(op["ms"] * nominal * len(around) / sum(around))
    factor = sum(paced) / sum(latencies)
    return paced, factor, factor


def cpu_ms_per_op(phase: dict, user_factor: float) -> float:
    """CPU time per op of a phase without the benchmark's own work (counted
    as user time), its user part scaled by `user_factor`.  System CPU time
    (sockets, file writes) is never paced: the kernels make no system calls,
    and on eval-live pacing it too over-corrected."""
    user = phase["cpu_s"] - phase["prep_cpu_s"] - phase["sys_s"]
    return (user * user_factor + phase["sys_s"]) * 1e3 / len(phase["ops"])
