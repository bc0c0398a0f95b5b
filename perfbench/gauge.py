"""Machine-speed gauge: reports op times in reference seconds.

On the shared 2-core VM this benchmark was tuned on, compute-bound code runs
up to 1.45x slower for phases lasting from seconds to a whole run (the host
shares the cores with other tenants). Raw wall times then spread by 25-30%
from run to run, on the same inputs. A fixed calibration kernel (numpy FFT,
complex exp and a Python loop, no fslab code) is timed after every op, in
the op's own process, and around every set-up probe. The kernel slows down in
step with the ops. Each op's wall
time is scaled by CALIBRATION_REF_S over the median kernel time around it,
which gives the op's time on a machine where the kernel takes 2 ms.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

CALIBRATION_REF_S = 0.002

# Bound at import, before any tracer patches numpy.fft, so the kernel is never traced.
_fftn = np.fft.fftn
_rng = np.random.default_rng(0)
_FFT_IN = _rng.standard_normal((16, 32, 32)) + 0j
_EXP_IN = _rng.standard_normal(16384)


def calibration_kernel() -> float:
    """Wall time of the fixed calibration work, about 2 ms."""
    start = time.perf_counter()
    for _ in range(3):
        _fftn(_FFT_IN, axes=(1, 2))
        np.exp(1j * _EXP_IN)
    total = 0
    for i in range(3000):
        total += i * i
    return time.perf_counter() - start


def reference_time(wall_s: float, kernel_times: list) -> float:
    """`wall_s` in reference seconds, given the kernel timings around it."""
    return wall_s * CALIBRATION_REF_S / statistics.median(kernel_times)


class Timeline:
    """Wall times of events (ops), each followed by a kernel timing."""

    def __init__(self):
        self.calibration = [calibration_kernel()]
        self.events = []  # (kind, wall_s, index of the kernel timing just before)

    def add(self, kind: str, wall_s: float) -> None:
        self.events.append((kind, wall_s, len(self.calibration) - 1))
        self.calibration.append(calibration_kernel())

    def wall(self, kind: str) -> list:
        return [wall for k, wall, _ in self.events if k == kind]

    def reference(self, kind: str) -> list:
        """Times of `kind` events in reference seconds.

        The speed around an event is the median of the two kernel timings on
        each side of it, so one interrupted kernel run does not skew it.
        """
        return [reference_time(wall, self.calibration[max(i - 1, 0):i + 3])
                for k, wall, i in self.events if k == kind]
