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

Quotient (l, k) belongs to user k of cell l. Its lifted pair is
`solver.EffectivePair`, the one pair type of the package (`CoopEffectivePair`
names the same class); the builders here fill it from cluster-wide knowledge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .numerics import solve_hermitian
from .solver import (
    _CSV_BASE,
    _CSV_TAIL,
    DEFAULT_MAX_ITER,
    DEFAULT_SELECT_THRESHOLD,
    DEFAULT_TOL,
    EffectivePair,
    _ClusterProblem,
    _as_cluster_arrays,
    _as_weights,
    _lift,
    _log2_objective,
    _objective_decreases,
    _power_iteration,
    _problem,
    _stop_reason,
    extract_schedule,
)

# a cooperative quotient is the general lifted pair; a single cell is C = 1
CoopEffectivePair = EffectivePair


def build_coop_pair(
    estimates: np.ndarray, error_covs, cell: int, user: int, noise_ratio: float
) -> EffectivePair:
    """Lift one user's quotient from cluster-wide knowledge.

    `estimates` has shape (C, C, K, N): entry [j, l, k] is BS j's estimate of
    its channel toward user k of cell l. `error_covs` matches with trailing
    (N, N), or is None for perfect knowledge.
    """
    return _lift(*_as_cluster_arrays(estimates, error_covs, noise_ratio), cell, user)


def build_coop_pairs(estimates, error_covs=None, noise_ratio=1.0) -> list[EffectivePair]:
    """All C*K quotients of the cluster, ordered by (cell, user)."""
    est, cov, nr = _as_cluster_arrays(estimates, error_covs, noise_ratio)
    c, _, k, _ = est.shape
    return [_lift(est, cov, nr, l, u) for l in range(c) for u in range(k)]


def lambda_coop_log2(pairs: list[EffectivePair], weights, f_cells: np.ndarray) -> float:
    """log2 of the cooperative quotient product (weighted cluster rate bound)."""
    prob = _problem(pairs)
    w = _as_weights(weights, (prob.c, prob.k))
    qa, qb = prob.quad_forms(np.asarray(f_cells, dtype=np.complex128))
    return _log2_objective(w, qa, qb)


def lambda_coop(pairs: list[EffectivePair], weights, f_cells: np.ndarray) -> float:
    return float(2.0 ** lambda_coop_log2(pairs, weights, f_cells))


def coop_kkt_residual(pairs: list[EffectivePair], weights, f_cells: np.ndarray,
                      problem: _ClusterProblem | None = None) -> float:
    """Pencil residual of the cooperative stationarity condition.

    `problem` is the kernel's problem already built from `pairs`; `gpip_coop`
    passes its own so the residual does not rebuild it.
    """
    prob = _problem(pairs) if problem is None else problem
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
    def objective_decreases(self) -> int:
        """Sweeps whose objective fell below the previous iterate's."""
        return _objective_decreases(self.trajectory)

    def csv_row(self, seed, snr_db) -> list:
        c, k, n = self.precoder.shape
        row = [seed, n, k, snr_db, self.iterations, repr(self.objective_log2),
               repr(self.kkt_residual), len(self.schedule)]
        for l in range(c):
            row.append(repr(float(self.per_cell_norm[l])))
            row.extend(repr(float(p)) for p in self.per_user_power[l])
        row.extend((self.objective_decreases, _stop_reason(self.converged)))
        return row

    @staticmethod
    def csv_header(n_cells: int, n_users: int) -> list[str]:
        header = list(_CSV_BASE)
        for l in range(n_cells):
            header.append(f"cell{l}_norm")
            header.extend(f"cell{l}_power_{k}" for k in range(n_users))
        header.extend(_CSV_TAIL)
        return header


def gpip_coop(
    pairs: list[EffectivePair],
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
    prob = _problem(pairs)
    w = _as_weights(weights, (prob.c, prob.k))
    solve_blocks = partial(prob.cholesky_blocks, solve=solve_hermitian)
    best_f, best_obj, iterations, converged, traj = _power_iteration(
        prob, w, init, (prob.c, prob.k, prob.n), tol, max_iter, solve_blocks
    )
    residual = coop_kkt_residual(pairs, w, best_f, prob)
    scaled = best_f / np.linalg.norm(best_f.reshape(prob.c, -1), axis=1).max()
    cell_norms = np.linalg.norm(scaled.reshape(prob.c, -1), axis=1)
    active, _ = extract_schedule(scaled.reshape(-1, prob.n), select_threshold)
    return CoopResult(
        precoder=scaled,
        objective_log2=best_obj,
        iterations=iterations,
        converged=converged,
        kkt_residual=residual,
        schedule=[divmod(i, prob.k) for i in active],
        per_user_power=np.sum(np.abs(scaled) ** 2, axis=2),
        per_cell_norm=cell_norms,
        trajectory=traj,
    )
