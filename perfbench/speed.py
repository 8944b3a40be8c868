"""Machine-speed gauge: a fixed kernel timed between measured blocks.

On the 2-vCPU reference machine each vCPU switches between a fast and a
slow phase about 1.8x apart, and the mix drifts over minutes, while CPU time
tracks wall time.  Medians within a run cannot remove a drift that lasts the
whole run, so every measured block is rescaled by the slowdown the kernel
shows around it.  The kernel does the kind of work uwloc's hot paths do and
uses nothing from uwloc, so a change to the program cannot move it.
"""

import time

import numpy as np

# Median kernel time on the reference machine, rounded: the unit that
# rescaled times are expressed in.
REFERENCE_S = 5.0e-3

_GRAM = np.array([
    [4.0, 1.0, 0.5, 0.2, 0.1],
    [1.0, 3.0, 0.3, 0.2, 0.1],
    [0.5, 0.3, 2.0, 0.1, 0.2],
    [0.2, 0.2, 0.1, 1.5, 0.1],
    [0.1, 0.1, 0.2, 0.1, 1.0],
])
_QUAD = np.diag([1.0, 1.0, 1.0, 0.0, 0.0])
_RHS = np.arange(1.0, 6.0)
_POINTS = np.random.default_rng(1).standard_normal((8, 3))
_TARGET = np.array([1.0, 2.0, 3.0])
_ANCHORS = 1000.0 * np.random.default_rng(3).standard_normal((10, 3))


def kernel_seconds():
    """Wall time of one pass of the fixed kernel.

    Shifted 5x5 Cholesky and solve steps (the multiplier search); small
    design-matrix builds with a symmetric eigendecomposition and some
    interpreter work (system assembly and the rank check); per-anchor outer
    products and a Cholesky written as a Python loop (the Fisher bounds).
    """
    start = time.perf_counter()
    for lam in np.linspace(0.0, 1.0, 40).tolist():
        shifted = _GRAM + lam * _QUAD
        s = 1.0 / np.sqrt(np.diag(shifted))
        scaled = shifted * np.outer(s, s)
        np.linalg.cholesky(scaled)
        y = np.linalg.solve(scaled, _RHS * s)
        float(y @ y)
    for _ in range(30):
        d = np.linalg.norm(_TARGET - _POINTS, axis=1)
        design = np.column_stack([d, d**2, np.ones(len(d))])
        gram = design.T @ design
        w, _ = np.linalg.eigh(gram)
        x = np.linalg.solve(gram + np.eye(3), design.T @ d)
        record = {"low": float(w[0]), "x": [float(v) for v in x]}
        sum(record["x"]) + record["low"]
    for _ in range(12):
        block = np.zeros((3, 3))
        for anchor in _ANCHORS:
            diff = _TARGET - anchor
            d = np.linalg.norm(diff)
            c = (20.0 + 0.001 * d) * diff
            block += np.outer(c, c) / d**4
        lower = np.zeros((4, 4))
        for j in range(4):
            pivot = _GRAM[j, j] - lower[j, :j] @ lower[j, :j]
            lower[j, j] = np.sqrt(pivot)
            lower[j + 1 : 4, j] = (_GRAM[j + 1 : 4, j] - lower[j + 1 : 4, :j] @ lower[j, :j]) / lower[j, j]
    return time.perf_counter() - start


class Gauge:
    """Slowdown relative to the reference machine, block by block."""

    def __init__(self, kernel=kernel_seconds, reference_s=REFERENCE_S):
        self.kernel = kernel
        self.reference_s = reference_s
        self.last = kernel()
        self.slowdowns = []

    def block_slowdown(self):
        """Slowdown over the block that just ended.

        It is the mean of the kernel times before and after the block, over
        the reference time.  A value above 1 means a slower machine.
        """
        now = self.kernel()
        slowdown = (self.last + now) / (2.0 * self.reference_s)
        self.last = now
        self.slowdowns.append(slowdown)
        return slowdown
