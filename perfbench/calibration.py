"""Host-speed calibration: a fixed piece of work timed beside every op.

The machines this benchmark runs on share their cores with other tenants,
and the speed they give one process drifts by 20 % and more over minutes
while the code stays the same.  ``work`` is a fixed mix of what the CLI
spends its time on (interpreted loops, big-integer products and
reductions, small dicts and string joins) that lives in the benchmark, not
in the program, so no change to the program changes it.  ``scaled`` turns
measured op times into times at the reference speed: each op's time times
``REFERENCE_S`` over the median of the calibrations run nearest to it.
"""

from __future__ import annotations

import statistics
import time

# Median of `measure()` on the development machine (2-vCPU KVM guest, Intel
# Xeon 2.1 GHz, Python 3.11.7).  Scaled times read as times on a host that
# runs `work` in this long.
REFERENCE_S = 0.0024
RADIUS = 5  # calibrations on each side of an op that set its speed

_MODULUS = 7 ** 700
_BASE = 3 ** 600 + 1


def work() -> int:
    s = 0
    for i in range(4000):
        s += i * i % 7
    x = _BASE
    for _ in range(120):
        x = x * x % _MODULUS
    table = {}
    for i in range(300):
        table[str(i)] = (i, i % 3)
    text = ",".join(f"{k}:{v[0]}" for k, v in table.items())
    return s ^ x ^ len(text)


def measure() -> float:
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


def scaled(seconds: list[float], calibrations: list[float]) -> list[float]:
    """Each time in `seconds` at the reference speed; `calibrations[i]` was
    measured right before the i-th time."""
    return [
        s * REFERENCE_S / statistics.median(calibrations[max(0, i - RADIUS):i + RADIUS + 1])
        for i, s in enumerate(seconds)
    ]
