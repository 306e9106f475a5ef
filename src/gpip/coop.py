"""Cooperative multi-cell precoding over a cluster of C base stations.

The cluster shares (imperfect) channel knowledge but not user data: each BS
still transmits only to its own users, and cooperation consists of designing
all C stacked precoders jointly so cross-cell interference is shaped rather
than ignored. The objective lifts to a product of C*K Rayleigh quotients of
the concatenated stack f (length C*N*K). This module runs the power-iteration
kernel of `solver` on the problem its `LiftedPairs` carry, under the relaxed
sum-power constraint, followed by one rescaling that enforces the binding
per-BS power constraint (the largest per-cell norm is scaled to one, so every
cell's power is feasible and at least one is tight).

Quotient (l, k) belongs to user k of cell l. Its lifted pair is
`solver.EffectivePair`, the one pair type of the package, and entry l*K + k
of the `LiftedPairs` that `build_coop_pairs` returns from cluster-wide
knowledge; the objective is exposed as its base-2 log, `lambda_coop_log2`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .numerics import solve_hermitian
from .solver import (
    DEFAULT_MAX_ITER,
    DEFAULT_SELECT_THRESHOLD,
    DEFAULT_TOL,
    GpipResult,
    LiftedPairs,
    _as_cluster_arrays,
    _checked,
    _log2_objective,
    _power_iteration,
    extract_schedule,
)


def build_coop_pairs(estimates, error_covs=None, noise_ratio=1.0) -> LiftedPairs:
    """All C*K quotients of the cluster, lifted from cluster-wide knowledge.

    `estimates` has shape (C, C, K, N): entry [j, l, k] is BS j's estimate of
    its channel toward user k of cell l. `error_covs` matches with trailing
    (N, N), or is None for perfect knowledge. The pairs are ordered by
    (cell, user), so user k of cell l is entry l * K + k.
    """
    return LiftedPairs(*_as_cluster_arrays(estimates, error_covs, noise_ratio))


def lambda_coop_log2(pairs: LiftedPairs, weights, f_cells: np.ndarray) -> float:
    """log2 of the cooperative quotient product (weighted cluster rate bound)."""
    prob, w, f = _checked(pairs, weights, f_cells, "f_cells")
    return _log2_objective(w, *prob.quad_forms(f))


def coop_kkt_residual(pairs: LiftedPairs, weights, f_cells: np.ndarray) -> float:
    """Pencil residual of the cooperative stationarity condition, on the
    problem `pairs` carry (so after `gpip_coop` on them nothing is rebuilt)."""
    prob, w, f = _checked(pairs, weights, f_cells, "f_cells")
    return prob.kkt_residual(w, f)


@dataclass
class CoopResult(GpipResult):
    """Cluster-wide solution; precoder[l, k] is BS l's beam for its user k.

    The precoder is (C, K, N) with the largest per-cell norm equal to 1,
    `schedule` holds (cell, user) pairs and `per_user_power` is (C, K), in
    fractions of each BS's power budget.
    """

    per_cell_norm: np.ndarray = field(kw_only=True)  # (C,)

    def csv_row(self, seed, snr_db, n_cells: int | None = None) -> list:
        """The row under `csv_header(n_cells, K)`, of Python numbers and
        strings only; n_cells defaults to this cluster's size, and a cell past
        the cluster's end gets empty fields."""
        c, k, _ = self.precoder.shape
        norms, powers = self.per_cell_norm.tolist(), self.per_user_power.tolist()
        cols = []
        for l in range(c if n_cells is None else n_cells):
            cols += [norms[l], *powers[l]] if l < c else [""] * (k + 1)
        return self._csv_row(seed, snr_db, cols)

    @staticmethod
    def csv_header(n_cells: int, n_users: int) -> list[str]:
        return GpipResult._csv_header([
            col for l in range(n_cells)
            for col in (f"cell{l}_norm", *(f"cell{l}_power_{k}" for k in range(n_users)))
        ])


def gpip_coop(
    pairs: LiftedPairs,
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
    prob, w, init = _checked(pairs, weights, init, "init")
    best_f, best_obj, iterations, converged, traj = _power_iteration(
        prob, w, init, tol, max_iter, partial(prob.cholesky_blocks, solve=solve_hermitian))
    residual = coop_kkt_residual(pairs, w, best_f)
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
