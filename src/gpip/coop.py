"""Cooperative multi-cell precoding over a cluster of C base stations.

The cluster shares (imperfect) channel knowledge but not user data: each BS
still transmits only to its own users, and cooperation consists of designing
all C stacked precoders jointly so cross-cell interference is shaped rather
than ignored. The objective lifts to a product of C*K Rayleigh quotients of
the concatenated stack f (length C*N*K). This module lifts the cluster's
pairs into that problem and runs the power-iteration kernel of `solver` on
it, under the relaxed sum-power constraint, followed by one rescaling that
enforces the binding per-BS power constraint (the largest per-cell norm is
scaled to one, so every cell's power is feasible and at least one is tight).

Quotient (l, k) belongs to user k of cell l. Its lifted matrix is block
diagonal over (cell j, user i) blocks of size N: every block of cell j equals
the effective channel of BS j toward user (l, k) (outer product + error
covariance + noise ridge), and the companion matrix removes the desired
rank-one term at block (l, k) only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import DimensionMismatch
from .numerics import BlockDiagonal, solve_hermitian
from .solver import (
    DEFAULT_MAX_ITER,
    DEFAULT_SELECT_THRESHOLD,
    DEFAULT_TOL,
    _as_weights,
    _ClusterProblem,
    _log2_objective,
    _power_iteration,
)


@dataclass(frozen=True)
class CoopEffectivePair:
    """Lifted quotient matrices for user `user` of cell `cell`.

    estimates[j] is the channel estimate from BS j toward this user, and
    error_covs[j] its error covariance; both run over all C cluster BSs.
    """

    cell: int
    user: int
    n_cells: int
    n_users: int
    estimates: np.ndarray  # (C, N)
    error_covs: np.ndarray  # (C, N, N)
    noise_ratio: float

    @property
    def n_antennas(self) -> int:
        return self.estimates.shape[1]

    def _blocks(self, with_rank1: bool) -> np.ndarray:
        c, k, n = self.n_cells, self.n_users, self.n_antennas
        blocks = np.empty((c * k, n, n), dtype=np.complex128)
        for j in range(c):
            blk = (
                np.outer(self.estimates[j], self.estimates[j].conj())
                + self.error_covs[j]
                + self.noise_ratio * np.eye(n)
            )
            blocks[j * k : (j + 1) * k] = blk
        if not with_rank1:
            own = self.estimates[self.cell]
            blocks[self.cell * k + self.user] -= np.outer(own, own.conj())
        return blocks

    @property
    def a(self) -> BlockDiagonal:
        return BlockDiagonal(self._blocks(with_rank1=True))

    @property
    def b(self) -> BlockDiagonal:
        return BlockDiagonal(self._blocks(with_rank1=False))


def build_coop_pair(
    estimates: np.ndarray, error_covs, cell: int, user: int, noise_ratio: float
) -> CoopEffectivePair:
    """Lift one user's quotient from cluster-wide knowledge.

    `estimates` has shape (C, C, K, N): entry [j, l, k] is BS j's estimate of
    its channel toward user k of cell l. `error_covs` matches with trailing
    (N, N), or is None for perfect knowledge.
    """
    est = np.asarray(estimates, dtype=np.complex128)
    if est.ndim != 4 or est.shape[0] != est.shape[1]:
        raise DimensionMismatch(f"estimates must be (C, C, K, N), got {est.shape}")
    c, _, k, n = est.shape
    if error_covs is None:
        cov = np.zeros((c, c, k, n, n), dtype=np.complex128)
    else:
        cov = np.asarray(error_covs, dtype=np.complex128)
        if cov.shape != (c, c, k, n, n):
            raise DimensionMismatch(f"error covariances must be (C, C, K, N, N), got {cov.shape}")
    if not (0 <= cell < c and 0 <= user < k):
        raise DimensionMismatch("cell or user index out of range")
    return CoopEffectivePair(
        cell=cell,
        user=user,
        n_cells=c,
        n_users=k,
        estimates=est[:, cell, user, :],
        error_covs=cov[:, cell, user, :, :],
        noise_ratio=float(noise_ratio),
    )


def build_coop_pairs(estimates, error_covs=None, noise_ratio=1.0) -> list[CoopEffectivePair]:
    """All C*K quotients of the cluster, ordered by (cell, user)."""
    est = np.asarray(estimates, dtype=np.complex128)
    c, _, k, _ = est.shape
    nr = np.broadcast_to(np.asarray(noise_ratio, dtype=float), (c, k))
    return [
        build_coop_pair(estimates, error_covs, l, u, float(nr[l, u]))
        for l in range(c)
        for u in range(k)
    ]


def _coop_problem(pairs: list[CoopEffectivePair]) -> _ClusterProblem:
    """The kernel's problem, with the pairs stacked in (cell, user) order."""
    c, k = pairs[0].n_cells, pairs[0].n_users
    if len(pairs) != c * k:
        raise DimensionMismatch("need one pair per (cell, user)")
    by_index = {}
    for p in pairs:
        if p.n_cells != c or p.n_users != k:
            raise DimensionMismatch("inconsistent cluster dimensions across pairs")
        by_index[(p.cell, p.user)] = p
    if len(by_index) != c * k:
        raise DimensionMismatch("pairs must cover every (cell, user) exactly once")
    ordered = [by_index[(l, u)] for l in range(c) for u in range(k)]
    n = ordered[0].n_antennas
    # est[j, l, u] = BS j's estimate toward user (l, u)
    est = np.stack([p.estimates for p in ordered], axis=1).reshape(c, c, k, n)
    cov = np.stack([p.error_covs for p in ordered], axis=1).reshape(c, c, k, n, n)
    nr = np.array([p.noise_ratio for p in ordered]).reshape(c, k)
    return _ClusterProblem(est, cov, nr)


def lambda_coop_log2(pairs: list[CoopEffectivePair], weights, f_cells: np.ndarray) -> float:
    """log2 of the cooperative quotient product (weighted cluster rate bound)."""
    prob = _coop_problem(pairs)
    w = _as_weights(weights, (prob.c, prob.k))
    qa, qb = prob.quad_forms(np.asarray(f_cells, dtype=np.complex128))
    return _log2_objective(w, qa, qb)


def lambda_coop(pairs: list[CoopEffectivePair], weights, f_cells: np.ndarray) -> float:
    return float(2.0 ** lambda_coop_log2(pairs, weights, f_cells))


def coop_kkt_residual(pairs: list[CoopEffectivePair], weights, f_cells: np.ndarray) -> float:
    """Pencil residual of the cooperative stationarity condition."""
    prob = _coop_problem(pairs)
    w = _as_weights(weights, (prob.c, prob.k))
    return prob.kkt_residual(w, np.asarray(f_cells, dtype=np.complex128))


@dataclass
class CoopResult:
    """Cluster-wide solution; precoder[l, k] is BS l's beam for its user k."""

    precoder: np.ndarray  # (C, K, N); max per-cell norm equals 1 after rescaling
    objective_log2: float
    iterations: int
    converged: bool
    kkt_residual: float
    schedule: list[tuple[int, int]]
    per_user_power: np.ndarray  # (C, K), fractions of each BS's power budget
    per_cell_norm: np.ndarray  # (C,)
    trajectory: list[float] = field(default_factory=list)

    @property
    def stacked(self) -> np.ndarray:
        return self.precoder.reshape(-1)

    def csv_row(self, seed, snr_db) -> list:
        c, k, n = self.precoder.shape
        row = [seed, n, k, snr_db, self.iterations, repr(self.objective_log2),
               repr(self.kkt_residual), len(self.schedule)]
        for l in range(c):
            row.append(repr(float(self.per_cell_norm[l])))
            row.extend(repr(float(p)) for p in self.per_user_power[l])
        return row


def gpip_coop(
    pairs: list[CoopEffectivePair],
    weights=None,
    init: np.ndarray | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    select_threshold: float = DEFAULT_SELECT_THRESHOLD,
) -> CoopResult:
    """Cooperative power iteration plus the per-BS power rescaling.

    Runs the power-iteration kernel on the cluster pencil under the sum-power
    relaxation (the full stack is kept unit-norm between sweeps), then scales
    the converged stack by 1/max_l ||f_l|| so every per-BS constraint holds
    with the binding cell at equality. The stationarity residual is reported
    on the unit-norm iterate, where the relaxation's optimality condition
    lives; it is invariant to the final rescaling.
    """
    prob = _coop_problem(pairs)
    w = _as_weights(weights, (prob.c, prob.k))
    solve_blocks = partial(prob.cholesky_blocks, solve=solve_hermitian)
    best_f, best_obj, iterations, converged, traj = _power_iteration(
        prob, w, init, (prob.c, prob.k, prob.n), tol, max_iter, solve_blocks
    )
    residual = coop_kkt_residual(pairs, w, best_f)
    cell_norms = np.linalg.norm(best_f.reshape(prob.c, -1), axis=1)
    scaled = best_f / cell_norms.max()
    cell_norms = np.linalg.norm(scaled.reshape(prob.c, -1), axis=1)
    power = np.sum(np.abs(scaled) ** 2, axis=2)
    schedule = [
        (l, u)
        for l in range(prob.c)
        for u in range(prob.k)
        if np.linalg.norm(scaled[l, u]) >= select_threshold
    ]
    return CoopResult(
        precoder=scaled,
        objective_log2=best_obj,
        iterations=iterations,
        converged=converged,
        kkt_residual=residual,
        schedule=schedule,
        per_user_power=power,
        per_cell_norm=cell_norms,
        trajectory=traj,
    )
