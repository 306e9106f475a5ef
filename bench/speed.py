"""Machine-speed probe: a fixed kernel timed between campaigns.

On a shared host the same campaign can take 1.5x longer for minutes at a
time. The probe runs the same mix as a campaign (interpreter loops, many
small LAPACK calls, a few 32x32 factorizations and a contraction) on fixed
inputs, plus a steering-vector quadrature like the one-ring correlation,
using only numpy and scipy, so no change to gpip can alter it. Its
time relative to REFERENCE_S says how fast the machine runs right now, and
campaign times are scaled by it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

# median probe time on the machine the benchmark was calibrated on: a 2-vCPU
# Intel Xeon KVM guest, OpenBLAS 0.3.31 pinned to one thread
REFERENCE_S = 0.09


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        small = rng.standard_normal((48, 8, 8)) + 1j * rng.standard_normal((48, 8, 8))
        self.small = small @ small.conj().transpose(0, 2, 1) + 8.0 * np.eye(8)
        self.rhs = rng.standard_normal((48, 8)) + 1j * rng.standard_normal((48, 8))
        big = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        self.big = big @ big.conj().T + 32.0 * np.eye(32)
        self.angles = np.linspace(-np.pi, np.pi, 512)
        self.positions = rng.standard_normal((16, 2))
        self.node_weights = np.full(512, 1.0 / 512)

    def kernel(self) -> float:
        acc = 0.0
        for _ in range(30):
            for k in range(48):
                low = np.linalg.cholesky(self.small[k])
                y = solve_triangular(low, self.rhs[k], lower=True, check_finite=False)
                acc += float(np.real(y @ y.conj()))
                for j in range(100):
                    acc += j * 1e-12
        for _ in range(60):
            _, vecs = np.linalg.eigh(self.big)
            x = cho_solve(cho_factor(self.big), vecs)
            acc += float(np.real(np.einsum("in,nm,im->", vecs.conj(), self.big, x)))
        for _ in range(6):
            phase = (np.cos(self.angles)[:, None] * self.positions[None, :, 0]
                     + np.sin(self.angles)[:, None] * self.positions[None, :, 1])
            steer = np.exp(3j * phase)
            acc += float(np.real(np.einsum("m,mn,mk->nk", self.node_weights, steer,
                                           steer.conj())).sum())
        return acc

    def sample(self) -> float:
        """Median time of five kernel runs, in seconds."""
        times = []
        for _ in range(5):
            t0 = perf_counter()
            self.kernel()
            times.append(perf_counter() - t0)
        return sorted(times)[2]
