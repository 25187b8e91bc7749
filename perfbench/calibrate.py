"""Machine-speed calibration for the qel benchmark.

The benchmark runs on shared virtual machines whose CPU speed drifts by 20 to
50 percent within seconds and by up to 25 percent between hours: warm qel ops
took 20 to 37 ms within 25 s, and single cold ``qel bounds`` processes 0.69 to
0.97 s within two minutes.  Op times of separate runs are therefore not
comparable at a useful bound.  A fixed probe, independent of qel, is timed
between ops; each op's wall time is rescaled by

    reference_s / (median probe time within window_s of the op),

giving seconds on a machine where the probe takes reference_s.  The drift
cancels because the op and the probe do the same kind of work and slow down
together.

Warm ops are calibrated by an in-process kernel of scalar root finding
through Python callbacks and small numpy calls, the bulk of a warm op, run
after every op, so that each op is scaled by the probes just before and after
it.  Cold ops and the set-up time are calibrated by a fresh interpreter that
imports numpy and scipy.optimize, the bulk of a cold qel process, every 1.5 s:
the in-process kernel moved 1.7 times as much as cold processes between slow
and fast periods, while the cold probe took the quartile spread of single
``qel bounds`` times from 0.24 to 0.09 and of ``qel verify`` times from 0.18
to 0.12.
"""
from __future__ import annotations

import bisect
import functools
import math
import statistics
import subprocess
import sys
import time

#: Kernel time that defines a calibrated second: about its median on a
#: 2-vCPU Intel Xeon virtual machine with Python 3.11 and numpy 2.4.
KERNEL_REFERENCE_S = 0.008
#: The same for the cold probe, with scipy 1.17.
COLD_REFERENCE_S = 0.75
COLD_PROBE = "import numpy, scipy.optimize"
#: Seconds between calibration points during a warm loop: after every op.
EVERY_S = 0.0
#: Calibration points within this many seconds of an op set its scale.
WINDOW_S = 0.05


@functools.cache
def _matrix():
    import numpy as np
    return np.random.default_rng(0).random((16, 16))


def _falling(x: float) -> float:
    """A smooth function falling from 1 at x = 0 to 1/2 at x = pi/2."""
    c, s = math.cos(x), math.sin(x)
    return (c + 1.0 / math.sqrt(1.0 + s * s)) / math.sqrt(2.0 * (1.0 + c * c))


def kernel() -> float:
    """Fixed mix of scalar root finding through Python callbacks and small numpy calls.

    Warm qel ops spend most of their time in scipy's bisect calling small
    Python functions of math calls; a kernel of inline float arithmetic
    tracked them less well (its speed moved 10% less than theirs between the
    machine's fast and slow periods).
    """
    # imported here, so that a cold run's own process stays small (see
    # workloads.run_process)
    import numpy as np
    from scipy import optimize

    matrix = _matrix()
    acc = 0.0
    for k in range(1, 71):
        target = 0.5 + 0.5 * k / 71
        acc += optimize.bisect(lambda x: _falling(x) - target, 0.0, math.pi / 2, xtol=1e-13)
    for _ in range(100):
        acc += float(np.trace(matrix @ matrix.T)) + float(np.abs(matrix).sum())
    return acc


def cold_probe(env: dict, cwd: str):
    """A probe timing one fresh interpreter that imports what qel imports."""
    cmd = [sys.executable, "-c", COLD_PROBE]

    def probe() -> float:
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=cwd, capture_output=True, check=True, timeout=60)
        return time.perf_counter() - t0
    return probe


def _kernel_time() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Calibrator:
    """Calibration points (clock stamp, probe time) and the scale they imply."""

    def __init__(self, probe=_kernel_time, reference_s=KERNEL_REFERENCE_S, every_s=EVERY_S,
                 window_s=WINDOW_S):
        self.probe = probe
        self.reference_s = reference_s
        self.every_s = every_s
        self.window_s = window_s
        self.stamps: list[float] = []
        self.times: list[float] = []

    @classmethod
    def cold(cls, env: dict, cwd: str) -> "Calibrator":
        """Calibrator of cold ops: a fresh-interpreter probe every 1.5 s."""
        return cls(cold_probe(env, cwd), COLD_REFERENCE_S, every_s=1.5, window_s=4.0)

    def sample(self) -> None:
        start = time.perf_counter()
        self.times.append(self.probe())
        self.stamps.append((start + time.perf_counter()) / 2)

    def due(self) -> bool:
        return not self.stamps or time.perf_counter() - self.stamps[-1] >= self.every_s

    def scale(self, stamp: float) -> float:
        """reference_s over the median probe time near a clock stamp."""
        lo = bisect.bisect_left(self.stamps, stamp - self.window_s)
        hi = bisect.bisect_right(self.stamps, stamp + self.window_s)
        if lo == hi:  # no calibration point that close: take the nearest ones
            lo, hi = max(0, lo - 1), min(len(self.stamps), hi + 1)
        return self.reference_s / statistics.median(self.times[lo:hi])

    def scaled(self, stamps, times) -> list[float]:
        return [t * self.scale(s) for s, t in zip(stamps, times)]
