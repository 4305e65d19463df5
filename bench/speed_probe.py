"""A fixed speed probe, recorded beside every run for information only.

On a shared virtual machine the speed of this package's work drifts by tens
of percent over minutes.  Each run times this probe before and after its
units and records the medians as ``info.speed_probe_s``, so that a reader of
two result files can tell a slower machine from a slower program.  No
reported metric is scaled by it.

The probe is a frozen copy of the sweeps' dominant work, classical RK4 on a
rotated 3-cycle with a bounded-confidence force, one 6-element state at a
time; it uses nothing from the package, so no change to the package can move
it.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np


def _rotated_cycle_coboundary() -> np.ndarray:
    c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    tail = np.array([[c, -s], [s, c]])
    b = np.zeros((6, 6))
    for e in range(3):
        head = (e + 1) % 3
        b[2 * e : 2 * e + 2, 2 * head : 2 * head + 2] += np.eye(2)
        b[2 * e : 2 * e + 2, 2 * e : 2 * e + 2] -= tail
    return b


_B = _rotated_cycle_coboundary()
_B_T = _B.T.copy()


def _field(x: np.ndarray) -> np.ndarray:
    y = (x @ _B_T).reshape(3, 2)
    u = (y * y).sum(-1)
    gain = np.where(u <= 1.0, (1.0 - u) ** 2, 0.0)
    return -((y * gain[:, None]).reshape(6) @ _B)


def _rk4_loop() -> None:
    h = 0.01
    x = np.full(6, 0.3)
    for _ in range(400):
        k1 = _field(x)
        k2 = _field(x + 0.5 * h * k1)
        k3 = _field(x + 0.5 * h * k2)
        k4 = _field(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def speed_probe(repeats: int = 5) -> float:
    """Median wall time of the probe over ``repeats`` runs, in seconds."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        _rk4_loop()
        times.append(perf_counter() - t0)
    return statistics.median(times)
