"""Joint user selection, power allocation, and precoding: the power iteration.

The weighted sum of rate lower bounds over K users equals the base-2 log of a
product of Rayleigh quotients of the stacked per-user precoder f (length N*K):

    objective(f) = prod_k [ f^H A_k f / f^H B_k f ]^(w_k)

where A_k repeats the user-k effective channel block (outer product of the
estimate, plus its error covariance, plus the noise-over-power ridge) down the
diagonal, and B_k is A_k with the desired rank-one term removed from block k.
A stationary point satisfies the self-consistent pencil equation
Abar(f) f = Bbar(f) f, Abar = sum_k c_k A_k and Bbar = sum_k d_k B_k with the
quotient weights c_k = w_k / f^H A_k f and d_k = w_k / f^H B_k f, and the solver
finds one by power iteration: f <- normalize(Bbar(f)^-1 Abar(f) f). No positive
scale of either weight family changes that update, so both are divided by
max(d) and no product of quadratic forms is formed: the objective overflows
doubles for large K and is exposed as its base-2 log, `objective_log2`.
Selection, powers, and beam directions are read off the converged stack.

Every quadratic form is read off one power sum, `_power_sum`, which zeroes the
desired terms rather than subtracting them, so nothing cancels; `evaluation`
scores the true SINRs and the rate bounds with the same sum.

The lifted pair, its validation and the iteration are each written once,
for a cluster of C cooperating base stations (see `coop`) and its (C, K, N)
stack; `build_effective_pairs` and the solvers here are the case C = 1. The
builders check a cluster's arrays and return them as a `LiftedPairs`, read as
a pair sequence; every solver and evaluator opens with `_checked`, which reads
the problem, built once, from them and checks the weights and stack it is given.
Within cell j, Abar has one shared diagonal block and every block of Bbar is
another shared matrix minus one rank-one term, so a sweep costs one Cholesky
factorization of size N per cell plus O(C*K*N^2), never a dense one. The
covariance-free path hands the kernel explicit block inverses instead, built
from the ridge by O(K log K) rank-one inverse updates. Error covariances are
classified once per problem as zero, scalar or full (see `_ClusterPowers`).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite
from .numerics import (PIVOT_TOL, BlockDiagonal, _rescaled, rank1_inverse_update,
                       solve_hermitian)

DEFAULT_TOL = 0.01
DEFAULT_MAX_ITER = 100
DEFAULT_SELECT_THRESHOLD = 0.01


@dataclass(frozen=True)
class EffectivePair:
    """The lifted matrices of the quotient of user `user` of cell `cell`.

    estimates[j] and error_covs[j] are BS j's estimate and error covariance
    toward this user, over the C cluster BSs (a single cell is C = 1). Every
    (cell j, user i) block of A is BS j's outer product + error covariance +
    ridge; B removes the desired rank-one term at block (cell, user).
    """

    cell: int
    user: int
    n_cells: int
    n_users: int
    estimates: np.ndarray  # (C, N)
    error_covs: np.ndarray  # (C, N, N)
    noise_ratio: float  # effective noise variance over transmit power

    def _blocks(self, with_rank1: bool) -> BlockDiagonal:
        est = self.estimates
        ridge = self.noise_ratio * np.eye(est.shape[1])
        per_cell = np.einsum("jn,jm->jnm", est, est.conj()) + self.error_covs + ridge
        blocks = np.repeat(per_cell, self.n_users, axis=0)
        if not with_rank1:
            own = est[self.cell]
            blocks[self.cell * self.n_users + self.user] -= np.outer(own, own.conj())
        return BlockDiagonal(blocks)

    @property
    def a(self) -> BlockDiagonal:
        return self._blocks(with_rank1=True)

    @property
    def b(self) -> BlockDiagonal:
        return self._blocks(with_rank1=False)


def _as_cluster_arrays(estimates, error_covs, noise_ratio):
    """Read-only C-order copies of the finite (C, C, K, N) estimates, (C, C, K, N, N) error
    covariances (zero for None) and positive (C, K) noise ratios; [j, l, u] is BS j toward
    user u of cell l. The kernel's rounding depends on the memory layout, hence the copies."""
    est = np.array(estimates, dtype=np.complex128, order="C")
    if est.ndim != 4 or est.shape[0] != est.shape[1]:
        raise DimensionMismatch(f"estimates must be (C, C, K, N), got {est.shape}")
    if 0 in est.shape:
        raise DimensionMismatch(f"need at least one cell, user and antenna, got {est.shape}")
    c, _, k, n = est.shape
    if error_covs is None:
        cov = np.zeros((c, c, k, n, n), dtype=np.complex128)
    else:
        cov = np.array(error_covs, dtype=np.complex128, order="C")
        if cov.shape != (c, c, k, n, n):
            raise DimensionMismatch(f"error covariances must be (C, C, K, N, N), got {cov.shape}")
    nr = _as_real("noise ratios", noise_ratio)
    try:
        nr = np.broadcast_to(nr, (c, k)).copy()
    except ValueError:
        raise DimensionMismatch(
            f"noise ratios must broadcast to (C, K) = {(c, k)}, got {nr.shape}") from None
    for name, arr in (("estimates", est), ("error covariances", cov), ("noise ratios", nr)):
        _require_finite(name, arr)
    if np.any(nr <= 0):
        raise ValueError("noise ratios must be positive")
    for arr in (est, cov, nr):
        arr.flags.writeable = False
    return est, cov, nr


@dataclass(frozen=True, eq=False)
class LiftedPairs(Sequence):
    """A cluster's pairs as views of `_as_cluster_arrays`' output: entry l * K + u,
    user u of cell l, is lifted when indexed, and `problem` is the kernel's problem,
    built on first use. Only the builders make one, so its arrays are checked when built."""

    est: np.ndarray  # (C, C, K, N)
    cov: np.ndarray  # (C, C, K, N, N)
    nr: np.ndarray  # (C, K)

    def __len__(self) -> int:
        return self.nr.size

    def __getitem__(self, i: int) -> EffectivePair:
        c, _, k, _ = self.est.shape
        l, u = divmod(range(len(self))[i], k)
        return EffectivePair(l, u, c, k, self.est[:, l, u], self.cov[:, l, u],
                             float(self.nr[l, u]))

    @cached_property
    def problem(self) -> _ClusterProblem:
        return _ClusterProblem(self.est, self.cov, self.nr)


def build_effective_pairs(estimates, error_covs=None, noise_ratio=1.0) -> LiftedPairs:
    """The pairs of one cell's users, entry u for user u; `estimates` is
    (K, N) and `error_covs` (K, N, N), or None for perfect knowledge."""
    est = np.asarray(estimates)
    if est.ndim != 2:
        raise DimensionMismatch(f"estimates must be (K, N), got {est.shape}")
    cov = None if error_covs is None else np.asarray(error_covs)[None, None]
    return LiftedPairs(*_as_cluster_arrays(est[None, None], cov, noise_ratio))


def _as_real(name: str, values) -> np.ndarray:
    """`values` as floats; a nonzero imaginary part raises instead of being cast away."""
    a = np.asarray(values)
    if np.iscomplexobj(a) and np.any(a.imag):
        raise ValueError(f"{name} must be real")
    return np.asarray(a.real, dtype=float)


def _require_finite(name: str, arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")


def _as_weights(weights, shape: tuple) -> np.ndarray:
    if weights is None:
        return np.ones(shape)
    w = _as_real("weights", weights)
    if w.shape != shape:
        raise DimensionMismatch(f"weights must have shape {shape}")
    _require_finite("weights", w)
    if np.any(w <= 0):
        raise ValueError("weights must be positive")
    return w


def _log2_objective(w, qa, qb) -> float:
    return float(np.vdot(w, np.log2(qa / qb)))


def _cov_form(cov: np.ndarray) -> str:
    """Which of three forms a (..., N, N) error-covariance stack takes: "zero"
    when every entry is 0, "scalar" when every matrix is exactly alpha * I
    with real alpha (off-diagonals exactly 0, diagonal entries exactly equal),
    else "full"."""
    if not np.any(cov):
        return "zero"
    diag = cov.diagonal(0, -2, -1)
    alpha = diag[..., :1]
    if np.any(alpha.imag) or np.any(diag != alpha):
        return "full"
    # with equal diagonals, every nonzero entry must sit on a diagonal
    return "scalar" if np.count_nonzero(cov) == np.count_nonzero(diag) else "full"


class _ClusterPowers:
    """A cluster's powers at any (C, K, N) stack, the desired ones and the rest,
    covariance leakage included: all a rate bound reads. The kernel's
    `_ClusterProblem` extends it with what its sweeps reuse.

    est[j, l, u] is BS j's estimate of its channel toward user u of cell l,
    cov[j, l, u] its error covariance, and nr[l, u] that user's effective
    noise over transmit power. A single cell is C = 1. Nothing is checked
    here: the builders check the arrays, and `_checked` the weights and stacks.

    The error covariances take one of three forms, fixed here (`cov_form`).
    "scalar", every covariance exactly alpha[j, l, u] * I, keeps the (C, C, K)
    levels, and the leakage is alpha times each BS's transmit power; "zero"
    and "full" keep the covariances themselves.
    """

    def __init__(self, est, cov, nr):
        self.c, _, self.k, self.n = est.shape
        self.nr = nr  # (C, K)
        self.cov_form = _cov_form(cov)
        self.desired_at = _desired_index(self.c, self.k)  # [l, l, u, u]
        self.est_conj = est.conj()
        if self.cov_form == "scalar":
            self.alpha = cov[..., 0, 0].real  # (C, C, K)
            self.alpha_rows = self.alpha.reshape(self.c, -1)
        else:
            self.cov = cov  # (C, C, K, N, N)

    def powers(self, f: np.ndarray):
        """`_power_sum` at a (C, K, N) stack, the covariance leakage added to its rest."""
        desired, rest = _power_sum(self.est_conj, f, self.desired_at)
        if self.cov_form == "scalar":
            # sum_(j, i) f_(j, i)^H (alpha_j I) f_(j, i) = sum_j alpha_j ||f_j||^2
            cell_power = np.einsum("jin,jin->j", f.conj(), f).real
            rest = rest + (cell_power @ self.alpha_rows).reshape(self.c, self.k)
        elif self.cov_form == "full":
            # sum_i f_i^H cov f_i = <cov, sum_i conj(f_i) f_i^T>
            gram = np.einsum("jin,jim->jnm", f.conj(), f)
            rest = rest + np.real(np.einsum("jlknm,jnm->lk", self.cov, gram))
        return desired, rest


class _ClusterProblem(_ClusterPowers):
    """Per-cluster quantities shared by every iteration of the kernel.

    A sweep is bound by its number of numpy calls at small sizes, so all it
    reuses (conjugates, the desired index, the own-estimate half of the
    solves' right-hand sides) is computed here once. "zero" covariances
    (perfect knowledge, whose rounding the scalar route would move) and
    "full" ones keep per-link blocks `g0` = outer product + covariance.
    "scalar" ones add alpha to the shared blocks' diagonal, and a sweep sums
    their outer products as one matmul per cell.
    """

    def __init__(self, est, cov, nr):
        super().__init__(est, cov, nr)
        self.own = est[self.desired_at[:3]]  # (C, K, N): each BS toward its own users
        self.own_conj = self.own.conj()
        if self.cov_form == "scalar":
            # each BS's estimates as (C*K, N) rows, and alpha + ridge per row
            self.rows = est.reshape(self.c, -1, self.n)
            self.rows_conj = self.est_conj.reshape(self.c, -1, self.n)
            self.diag_rows = (self.alpha + nr).reshape(self.c, -1)
        else:
            self.g0 = np.einsum("jlkn,jlkm->jlknm", est, self.est_conj) + cov
        # [rhs_j | own_j] of every cell, as rows; cholesky_blocks fills the rhs half
        self.stacked = np.empty((self.c, 2 * self.k, self.n), dtype=np.complex128)
        self.stacked[:, self.k:] = self.own

    def quad_forms(self, f: np.ndarray):
        """f^H A_(l,u) f and f^H B_(l,u) f as (C, K) arrays, for a (C, K, N) stack:
        qb is `powers`' rest plus nr * ||f||^2, and qa adds the desired power to it."""
        desired, rest = self.powers(f)
        qb = rest + self.nr * np.vdot(f, f).real
        return qb + desired, qb

    def cell_blocks(self, coeff):
        """Per-cell shared block sum_(l,u) coeff[l,u] * g0[j,l,u] + ridge, (C, N, N).

        With the c weights of `_quotient_weights` this is every diagonal block
        of Abar in cell j; with the d weights, block (j, u) of Bbar subtracts
        d[j, u] e e^H from it, e = own[j, u].
        """
        if self.cov_form == "scalar":
            # (N x CK) diag(coeff) (CK x N) per cell, then alpha + ridge on the diagonal
            scaled = self.rows * coeff.reshape(1, -1, 1)
            flat = (scaled.transpose(0, 2, 1) @ self.rows_conj).reshape(self.c, -1)
            flat[:, :: self.n + 1] += (self.diag_rows @ coeff.reshape(-1))[:, None]
        else:
            flat = np.einsum("lk,jlknm->jnm", coeff, self.g0).reshape(self.c, -1)
            flat[:, :: self.n + 1] += np.vdot(coeff, self.nr)  # the ridge, on each diagonal
        return flat.reshape(self.c, self.n, self.n)

    def cholesky_blocks(self, d, rhs, solve):
        """Bbar^-1 rhs: one `solve` (a Cholesky solver) per cell, then one
        rank-one correction per user.

        Block (j, u) of Bbar is shared_j - d[j, u] e e^H, with e = own[j, u].
        One factorization of shared_j serves all 2K right-hand sides
        [rhs_j | own_j], giving y = shared_j^-1 rhs_(j, u) and
        z = shared_j^-1 e, and Sherman-Morrison finishes every block at once:
        x = y + z * d (e^H y) / (1 - d e^H z). The denominator equals
        det(block) / det(shared_j), which lies in (0, 1] for a positive-definite
        block; one that is not finite or is at most PIVOT_TOL marks an
        indefinite or degenerate block and raises NotPositiveDefinite.
        """
        k = self.k
        self.stacked[:, :k] = rhs
        stacked = self.stacked.transpose(0, 2, 1)
        shared = self.cell_blocks(d)
        sol = np.empty_like(stacked)
        for j in range(self.c):
            sol[j] = solve(shared[j], stacked[j])
        # proj[j, u, i] = own[j, u]^H sol[j, :, i]; its two diagonals are
        # e^H y and e^H z of every user
        proj = self.own_conj @ sol
        ey = proj[:, :, :k].diagonal(0, 1, 2)
        denom = 1.0 - d * proj[:, :, k:].diagonal(0, 1, 2).real
        if not (denom.min() > PIVOT_TOL and denom.max() < np.inf):  # NaN fails both
            j, u = np.argwhere(~(np.isfinite(denom) & (denom > PIVOT_TOL)))[0]
            raise NotPositiveDefinite(
                f"Bbar block (cell {j}, user {u}): rank-one correction denominator "
                f"{denom[j, u]:.3e} (threshold {PIVOT_TOL:.1e})"
            )
        x = sol[:, :, :k] + sol[:, :, k:] * (d * ey / denom)[:, None, :]
        return x.transpose(0, 2, 1)

    def kkt_residual(self, w, f) -> float:
        """|| Abar f - Bbar f || / || Abar f || at the (C, K, N) stack f and the sweep's
        weights: the same number as || Abar f - objective * Bbar f || / || Abar f || at
        the scale of `build_weighted_pair`, with no power of the objective formed."""
        c, d = _quotient_weights(w, *self.quad_forms(f))
        af = f @ self.cell_blocks(c).transpose(0, 2, 1)
        bf = f @ self.cell_blocks(d).transpose(0, 2, 1)
        bf -= (d * np.einsum("jkn,jkn->jk", self.own_conj, f))[:, :, None] * self.own
        return float(np.linalg.norm(af - bf) / np.linalg.norm(af))


def _desired_index(c: int, k: int):
    """The index of every desired entry [l, l, u, u] of a (C, C, K, K) power array, (C, K)."""
    cells, users = np.arange(c)[:, None], np.arange(k)
    return cells, cells, users, users


def _power_sum(h_conj, f, desired_at):
    """(desired, rest), (C, K): |h_(l,l,u)^H f_(l,u)|^2 and, those entries zeroed, the sum of
    every |h_(j,l,u)^H f_(j,i)|^2; h_conj is (C, C, K, N) [BS j, cell l, user u], f (C, K, N)."""
    # power[j, l, u, i] = |h(BS j -> user (l, u))^H f_(j, i)|^2
    power = np.abs(h_conj @ f.transpose(0, 2, 1)[:, None]) ** 2
    desired = power[desired_at]
    power[desired_at] = 0.0
    return desired, power.sum(axis=(0, 3))


def _quotient_weights(w, qa, qb):
    """The quotient weights (c, d) = (w / qa, w / qb) of the sweep's pencil, both
    divided by max(d), so every weight is at most one (qa >= qb)."""
    d = w / qb
    scale = d.max()
    return w / qa / scale, d / scale


def _problem(pairs: LiftedPairs, single_cell: bool = False) -> _ClusterProblem:
    """The kernel's problem of `pairs`; `single_cell` also requires C = 1."""
    if not isinstance(pairs, LiftedPairs):
        raise TypeError("pairs must come from build_effective_pairs or build_coop_pairs")
    c = pairs.est.shape[0]
    if single_cell and c != 1:
        raise DimensionMismatch(f"single-cell solvers need pairs of one cell, got {c} cells")
    return pairs.problem


def _checked(pairs: LiftedPairs, weights, stack, name: str, single_cell: bool = False):
    """(problem, weights, stack), the entry of every solver and evaluator: weights are
    (K,) for one cell, (C, K) for a cluster, ones for None; the stack `name` is (K, N) or
    (C, K, N), finite and nonzero, returned as (C, K, N); None (the default init) passes.
    Every use of a stack is scale-free, so one whose largest entry is far from one is
    divided by it, which keeps its squared norm in range."""
    prob = _problem(pairs, single_cell)
    cell_shape = (prob.k,) if single_cell else (prob.c, prob.k)
    w = _as_weights(weights, cell_shape)
    if stack is not None:
        f = np.asarray(stack, dtype=np.complex128)
        if f.shape != (*cell_shape, prob.n):
            raise DimensionMismatch(f"{name} must be {(*cell_shape, prob.n)}, got {f.shape}")
        _require_finite(name, f)
        if not f.any():
            raise ValueError(f"{name} must be nonzero")
        stack = _rescaled(f).reshape(prob.c, prob.k, prob.n)
    return prob, w, stack


def objective_log2(pairs: LiftedPairs, weights, f_users: np.ndarray) -> float:
    """log2 of the Rayleigh-quotient product; equals the weighted rate bound sum."""
    prob, w, f = _checked(pairs, weights, f_users, "f_users", single_cell=True)
    return _log2_objective(w, *prob.quad_forms(f))


def build_weighted_pair(
    pairs: LiftedPairs, weights, f_users: np.ndarray
) -> tuple[BlockDiagonal, BlockDiagonal]:
    """The linearized pencil (Abar(f), Bbar(f)) at the given stack.

    Both matrices are defined up to one common positive scale. Bbar is the
    sweep's divided by the objective, so that Abar f = objective * Bbar f at a
    stationary point, the paper's form of the pencil. Past 1022 bits: OverflowError.
    """
    prob, w, f = _checked(pairs, weights, f_users, "f_users", single_cell=True)
    qa, qb = prob.quad_forms(f)
    c, d = _quotient_weights(w, qa, qb)
    if not (log2_obj := _log2_objective(w, qa, qb)) <= 1022:
        raise OverflowError(f"objective of {log2_obj:.1f} bits: 2^-objective is not normal")
    d = d * np.exp2(-log2_obj)
    own = prob.own[0]
    a_blocks = np.broadcast_to(prob.cell_blocks(c), (prob.k, prob.n, prob.n)).copy()
    b_blocks = prob.cell_blocks(d) - d[0, :, None, None] * np.einsum("kn,km->knm", own, own.conj())
    return BlockDiagonal(a_blocks), BlockDiagonal(b_blocks)


def kkt_residual(pairs: LiftedPairs, weights, f_users: np.ndarray) -> float:
    """|| Abar f - objective * Bbar f || / || Abar f ||, zero at stationarity, on
    the problem `pairs` carry (so after a solve on them nothing is rebuilt)."""
    prob, w, f = _checked(pairs, weights, f_users, "f_users", single_cell=True)
    return prob.kkt_residual(w, f)


def extract_schedule(
    f_users: np.ndarray,
    activity_threshold: float = DEFAULT_SELECT_THRESHOLD,
    total_power: float = 1.0,
) -> tuple[list[int], np.ndarray]:
    """Active users and their transmit powers, read off the per-user norms.

    User k is scheduled iff ||f_k||_2 >= activity_threshold; its power is
    total_power * ||f_k||_2^2.
    """
    f_users = np.asarray(f_users)
    norms = np.linalg.norm(f_users, axis=1)
    active = [int(k) for k in np.nonzero(norms >= activity_threshold)[0]]
    return active, total_power * norms**2


@dataclass
class GpipResult:
    """Converged (or best-found) solution of the fixed-point iteration."""

    precoder: np.ndarray  # (K, N) per-user rows, unit total power
    objective_log2: float
    iterations: int
    converged: bool
    kkt_residual: float
    schedule: list[int]
    per_user_power: np.ndarray
    trajectory: list[float] = field(default_factory=list)  # objective_log2 per iterate

    @property
    def objective_decreases(self) -> int:
        """Sweeps whose objective fell below the previous iterate's."""
        return sum(after < before for before, after in itertools.pairwise(self.trajectory))

    def csv_row(self, seed, snr_db) -> list:
        return self._csv_row(seed, snr_db, self.per_user_power.tolist())

    @staticmethod
    def csv_header(n_users: int) -> list[str]:
        return GpipResult._csv_header([f"power_{k}" for k in range(n_users)])

    def _csv_row(self, seed, snr_db, power_fields: list) -> list:
        """A solver CSV row around the result's power fields, of Python numbers
        and strings only, so `csv` writes each float in its shortest round-trip
        form whatever numpy's print options; the last column, stop_reason, is
        "tol" when successive iterates came within the tolerance, else
        "max_iter"."""
        k, n = self.precoder.shape[-2:]
        return [seed, n, k, snr_db, self.iterations, float(self.objective_log2),
                float(self.kkt_residual), len(self.schedule), *power_fields,
                self.objective_decreases, "tol" if self.converged else "max_iter"]

    @staticmethod
    def _csv_header(power_columns: list[str]) -> list[str]:
        return ["seed", "N", "K", "SNR_dB", "iterations", "objective_log2", "kkt_residual",
                "active_count", *power_columns, "objective_decreases", "stop_reason"]


def _initial_stack(prob: _ClusterProblem, init) -> np.ndarray:
    """The unit-norm (C, K, N) start: `init`, checked by `_checked`, or by
    default each BS's estimates of its own users (matched filter)."""
    f = prob.own if init is None else init
    norm = np.linalg.norm(f)
    if not norm > 0:  # only the default gets here: `_checked` rejects a zero init
        raise ValueError("own-cell estimates are all zero, so the default matched-filter "
                         "init is zero; pass a nonzero init")
    return f / norm


def _power_iteration(prob: _ClusterProblem, w, init, tol, max_iter, solve_blocks):
    """The fixed-point iteration on a (C, K, N) stack, shared by every solver.

    Each sweep rebuilds the pencil at the current stack, applies the per-cell
    Abar block, hands the Bbar blocks to `solve_blocks(d, rhs)`, and
    renormalizes; the quadratic forms of an iterate serve both its objective
    and the next sweep's weights. It stops and picks its iterate as
    `gpip_iterate` says, and returns (best stack, its log2 objective, sweeps,
    converged, objective per iterate).
    """
    if not tol > 0:  # NaN included
        raise ValueError("tol must be positive")
    f = _initial_stack(prob, init)
    qa, qb = prob.quad_forms(f)
    best_f, best_obj = f, _log2_objective(w, qa, qb)
    traj = [best_obj]
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        c, d = _quotient_weights(w, qa, qb)
        rhs = f @ prob.cell_blocks(c).transpose(0, 2, 1)  # row (j, u) is Abar_j f_(j, u)
        f_new = solve_blocks(d, rhs)
        norm2 = np.vdot(f_new, f_new).real
        if not 0 < norm2 < np.inf:  # NaN fails too; finite entries can overflow it
            raise NotPositiveDefinite(f"sweep {iterations}: the Bbar solve returned a stack "
                                      f"of {'zero' if norm2 == 0 else 'non-finite'} norm")
        f_new /= math.sqrt(norm2)
        diff = f_new - f
        step = math.sqrt(np.vdot(diff, diff).real)
        f = f_new
        qa, qb = prob.quad_forms(f)
        obj = _log2_objective(w, qa, qb)
        traj.append(obj)
        if obj > best_obj:
            best_obj, best_f = obj, f
        if step <= tol:
            converged = True
            break
    return best_f, best_obj, iterations, converged, traj


def _finish(pairs, w, select_threshold, best_f, best_obj, iterations, converged,
            traj) -> GpipResult:
    f_users = best_f[0]
    active, powers = extract_schedule(f_users, select_threshold)
    return GpipResult(
        precoder=f_users,
        objective_log2=best_obj,
        iterations=iterations,
        converged=converged,
        kkt_residual=kkt_residual(pairs, w, f_users),
        schedule=active,
        per_user_power=powers,
        trajectory=traj,
    )


def gpip_iterate(
    pairs: LiftedPairs,
    weights=None,
    init: np.ndarray | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    select_threshold: float = DEFAULT_SELECT_THRESHOLD,
) -> GpipResult:
    """Power iteration on the self-consistent pencil until the stack settles.

    Each sweep rebuilds the pencil at the current stack, applies the shared
    Abar block, solves the K rank-one-perturbed Bbar blocks with one Cholesky
    factorization and a rank-one correction per user, and renormalizes. The
    normalized update runs first and the stopping distance compares successive
    unit-norm stacks, so `tol` is scale-free. The iterate with the best
    objective seen (including the start) is returned, so the result never
    falls below its initialization.
    """
    prob, w, init = _checked(pairs, weights, init, "init", single_cell=True)
    solve_blocks = partial(prob.cholesky_blocks, solve=solve_hermitian)
    out = _power_iteration(prob, w, init, tol, max_iter, solve_blocks)
    return _finish(pairs, w, select_threshold, *out)


def covfree_block_inverses(
    estimates: np.ndarray, d: np.ndarray, delta: float
) -> np.ndarray:
    """Inverses of every Bbar block when all error covariances are scalar.

    Block j is delta * I + sum_{i != j} d_i * est_i est_i^H. The K
    leave-one-out inverses are built by divide and conquer from (1/delta) I:
    each half of a range of users continues from the inverse that already
    holds every user outside the range, plus the other half, so every block
    comes from additive rank-one inverse updates only, about K log2 K of them
    in all instead of K (K - 1).
    """
    est = np.asarray(estimates, dtype=np.complex128)
    k, n = est.shape
    out = np.empty((k, n, n), dtype=np.complex128)
    # each entry: the inverse holding every user outside [lo, hi), lo, hi
    pending = [((1.0 / delta) * np.eye(n), 0, k)]
    while pending:
        inv, lo, hi = pending.pop()
        if hi - lo <= 1:
            out[lo:hi] = inv
            continue
        mid = (lo + hi) // 2
        for (a, b), added in (((lo, mid), range(mid, hi)), ((mid, hi), range(lo, mid))):
            part = inv
            for i in added:
                part = rank1_inverse_update(part, est[i], float(d[i]))
            pending.append((part, a, b))
    return out


def gpip_covfree(
    estimates: np.ndarray,
    error_scales,
    noise_ratio,
    weights=None,
    init: np.ndarray | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    select_threshold: float = DEFAULT_SELECT_THRESHOLD,
) -> GpipResult:
    """gpip_iterate for scalar error covariances, with recursive block inverses.

    `error_scales` holds the finite, non-negative scalar error variances
    alpha_k, one shared or one per user (the error covariance is
    alpha_k * I). It solves on the problem of the pairs `build_effective_pairs`
    lifts from these arrays. Iteration semantics are identical to gpip_iterate;
    only the block inversion path differs, so the two agree to solver tolerance
    on the same inputs.
    """
    est = np.asarray(estimates, dtype=np.complex128)
    if est.ndim != 2:
        raise DimensionMismatch(f"estimates must be (K, N), got {est.shape}")
    k, n = est.shape
    alphas = _as_real("error scales", error_scales)
    if alphas.shape not in ((), (k,)):
        raise DimensionMismatch(f"error_scales must be a scalar or ({k},), got {alphas.shape}")
    _require_finite("error scales", alphas)
    if np.any(alphas < 0):
        raise ValueError("error scales must be non-negative")
    alphas = np.broadcast_to(alphas, (k,))
    pairs = build_effective_pairs(est, alphas[:, None, None] * np.eye(n), noise_ratio)
    prob, w, init = _checked(pairs, weights, init, "init", single_cell=True)

    def solve_blocks(d, rhs):
        delta = float(np.sum(d * (alphas + pairs.nr)))
        inverses = covfree_block_inverses(est, d[0], delta)
        return (inverses @ rhs[0][:, :, None]).transpose(2, 0, 1)

    out = _power_iteration(prob, w, init, tol, max_iter, solve_blocks)
    return _finish(pairs, w, select_threshold, *out)
