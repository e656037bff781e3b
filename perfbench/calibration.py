"""Machine-speed calibration for the benchmark's timings.

On the shared 2-core VM the benchmark was tuned on (Python 3.11), the
speed of the CPU drifts by 10-80% between runs and within a run.  So every
reported time is scaled to a reference speed: next to the work it times,
in the same stretch of time, the benchmark runs `chunk`, a fixed piece of
pure-Python integer work that shares no code with wkit and allocates no
tracked objects, and multiplies the time by `REF_S / mean(chunk times)`.
The mean, not the median, because a timed op also absorbs every stall in
its stretch of time.
"""

from __future__ import annotations

# A nominal time of `chunk`, close to its mean on that VM.
REF_S = 0.0005

_ROWS = tuple(tuple((i * 7 + k) % 3 - 1 for k in range(24)) for i in range(8))


def chunk() -> int:
    acc = 0
    for row in _ROWS:
        n = len(row)
        for k in range(1, n):
            for i in range(n):
                acc += row[i] * row[(i + k) % n]
    return acc


def speed(times: list[float]) -> float:
    """How much faster than the reference the machine ran `chunk`."""
    return REF_S * len(times) / sum(times)
