"""A fixed reference job that tracks how fast this machine runs right now.

On a shared virtual machine the CPU speed can drift by half within minutes
(other tenants share the physical cores), and process CPU time drifts with
it. The benchmark times this job around its timed operations and rescales
their CPU time to the job's nominal duration, so that figures taken at
different moments compare.

The job mixes the kinds of work mraclab does: an interpreted per-step loop
over small numpy vectors and ring buffers, float formatting and parsing.
It uses no mraclab code, so a change to the program cannot move it.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import deque

import numpy as np

# CPU seconds job() takes on an idle core of the reference machine
# (2 vCPU Intel Xeon at 2.0 GHz, Python 3.11, numpy 2.4).
NOMINAL_S = 0.05


def job(steps: int = 3000) -> float:
    theta = np.array([0.3, -0.2, 1.5, 0.1, -0.05])
    lo, hi = theta - 1.0, theta + 1.0
    ys = deque([0.0] * 4, maxlen=4)
    us = deque([0.0] * 4, maxlen=4)
    acc = 0.0
    lines = []
    for t in range(steps):
        phi = np.empty(5)
        phi[0], phi[1] = ys[0], ys[1]
        phi[2], phi[3], phi[4] = us[0], us[1], us[2]
        r = 1.0 if (t % 60) < 30 else -1.0
        u = (r - float(phi[:2] @ theta[:2])) / theta[2]
        us.appendleft(u)
        y = 0.6 * ys[0] - 0.08 * ys[1] + 2.0 * us[1] + 0.5 * us[2] + 1e-3 * math.sin(t)
        ys.appendleft(y)
        norm = math.sqrt(float(phi @ phi))
        if norm > 0.0:
            e = y - float(phi @ theta)
            theta = np.minimum(np.maximum(theta + phi * (e / norm**2), lo), hi)
        acc += sum(c * v for c, v in zip((1.0, -0.4), ys))
        lines.append(",".join("%.17g" % v for v in (y, u, acc, norm)))
    for line in lines:
        acc += sum(float(v) for v in line.split(","))
    return acc


def seconds() -> float:
    """CPU seconds one run of job() takes now."""
    start = time.process_time()
    job()
    return time.process_time() - start


def rescale(cpu_s: float, samples: int = 3) -> float:
    """CPU seconds spent just now, at the speed where job() takes NOMINAL_S."""
    return cpu_s * NOMINAL_S / statistics.median(seconds() for _ in range(samples))


class Meter:
    """Rescales CPU seconds to the machine speed at which job() takes NOMINAL_S.

    factor() times job() now and pairs it with the previous timing, so an
    operation run between two calls is rescaled by the speed around it.
    """

    def __init__(self):
        self.last = seconds()
        self.factors: list[float] = []

    def factor(self) -> float:
        now = seconds()
        f = NOMINAL_S / ((self.last + now) / 2.0)
        self.last = now
        self.factors.append(f)
        return f
