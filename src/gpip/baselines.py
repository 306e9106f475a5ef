"""Reference precoders and user-selection schemes.

All functions take per-user channel rows (K, N) and return per-user precoder
rows (K, N) normalized to unit total power (sum over users of squared norms),
plus selection metadata where applicable. `noise_ratio` is always the
effective noise variance divided by the total transmit power.
"""

from __future__ import annotations

import numpy as np

from .errors import NotPositiveDefinite, RankDeficient
from .numerics import _far_peak, _rescaled, solve_hermitian

DEFAULT_SUS_ALPHA = 0.3


def _unit_power(f: np.ndarray) -> np.ndarray:
    """`f` scaled to unit total power; a zero stack, from all-zero estimates, raises."""
    norm = np.linalg.norm(f)
    if not norm > 0:
        raise RankDeficient("estimates are all zero, so no beam has a direction")
    return f / norm


def _rate_inputs(name: str, rows, noise_ratio) -> tuple[np.ndarray, float]:
    """(rows as complex, noise_ratio as float) of a rate formula; non-finite rows or a
    noise ratio that is not positive and finite raise ValueError naming the argument."""
    h = np.asarray(rows, dtype=np.complex128)
    if not np.isfinite(h).all():
        raise ValueError(f"{name} must be finite")
    nr = float(noise_ratio)
    if not 0 < nr < np.inf:  # NaN fails too
        raise ValueError(f"noise_ratio must be positive and finite, got {nr}")
    return h, nr


def _joint_rescaled(estimates, noise_ratio, covs=None):
    """The estimates as complex, the noise ratio and `covs`, divided by p, p^2 and p^2
    when the estimates' `_far_peak` p is far from one. The division leaves gains over
    noise unchanged and in range; every baseline that reads them starts here."""
    est, noise_ratio = np.asarray(estimates, dtype=np.complex128), float(noise_ratio)
    if (peak := _far_peak(est)) is None:
        return est, noise_ratio, covs
    p = peak.item()
    return est / p, noise_ratio / p / p, None if covs is None else covs / p / p


def mrt(estimates: np.ndarray) -> np.ndarray:
    """Matched filtering: beams along the estimates, channel-strength powers.
    The stack is `_rescaled` as a whole, so its powers keep their ratios."""
    return _unit_power(_rescaled(np.asarray(estimates, dtype=np.complex128)))


def _zf_directions(est: np.ndarray) -> np.ndarray:
    """Unit-norm zero-forcing beam rows for full-column-rank channel rows,
    each row `_rescaled` on its own."""
    k, n = est.shape
    if k > n:
        raise RankDeficient(f"{k} users exceed {n} antennas")
    est = _rescaled(est, axis=1)
    norms = np.linalg.norm(est, axis=1)
    if not np.all((norms > 0) & (norms < np.inf)):  # NaN fails too
        raise RankDeficient(f"channel rows are linearly dependent: row norms {norms.tolist()}")
    # unit rows: row scale moves no beam, and the pivot test weighs each user by its own gain
    u = est / norms[:, None]
    try:  # with G = conj(u) u^T, row k of conj(G^-1 conj(u)) is along user k's ZF beam
        beams = solve_hermitian(u.conj() @ u.T, u.conj()).conj()
    except NotPositiveDefinite as exc:
        raise RankDeficient(f"channel rows are linearly dependent: {exc}") from exc
    return beams / np.linalg.norm(beams, axis=1, keepdims=True)


def zf(estimates: np.ndarray) -> np.ndarray:
    """Zero forcing with equal per-user power."""
    est = np.asarray(estimates, dtype=np.complex128)
    dirs = _zf_directions(est)
    return dirs / np.sqrt(est.shape[0])


def rrzf(estimates: np.ndarray, error_covs, noise_ratio: float) -> np.ndarray:
    """Regularized zero forcing robustified by the summed error covariances.

    Beam rows solve (H^H H_cov + sum_k Phi_k + noise_ratio*I) x_k
    = est_k, where the first term is the N x N outer-product sum of the
    estimates; the result is normalized to unit total power. With zero error
    covariances this is plain RZF. noise_ratio is one scalar: the shared
    inverse admits a single regularization level. The inputs are
    `_joint_rescaled`, which moves no beam.
    """
    covs = None if error_covs is None else np.asarray(error_covs, dtype=np.complex128)
    est, noise_ratio, covs = _joint_rescaled(estimates, noise_ratio, covs)
    k, n = est.shape
    gram = est.T @ est.conj()  # sum_k est_k est_k^H, (N, N)
    if covs is not None:
        gram = gram + np.sum(covs, axis=0)
    gram = gram + noise_ratio * np.eye(n)
    return _unit_power(solve_hermitian(gram, est.T).T)  # solve gives (N, K) columns


def rzf(estimates: np.ndarray, noise_ratio: float) -> np.ndarray:
    """Regularized zero forcing; the zero-error-covariance case of rrzf."""
    return rrzf(estimates, None, noise_ratio)


def waterfill(gains, total_power: float, noise_var: float = 1.0) -> np.ndarray:
    """Power allocation p_k = max(0, mu - noise_var/gains_k) summing to total_power.

    Closed form: with the floors noise_var/gains sorted ascending, the level
    over the m lowest floors is (total_power + their sum) / m, and the active
    set is the longest prefix whose level stays above its last floor. A final
    equal spread of the rounding residue over that prefix pins the sum
    exactly at any noise level and cancels the common error the level picks
    up from large floors. A floor so large that the floors' sum could
    overflow drops out; when every floor does, the largest gains share it.
    """
    g = np.asarray(gains, dtype=float)
    noise_var = float(noise_var)
    if not np.isfinite(g).all():
        raise ValueError("gains must be finite")
    for name, value in (("total_power", total_power), ("noise_var", noise_var)):
        if not 0 <= value < np.inf:  # NaN fails too
            raise ValueError(f"{name} must be finite and non-negative, got {value}")
    if g.size == 0 or np.all(g <= 0):
        raise ValueError("need at least one positive gain")
    with np.errstate(over="ignore"):
        floors = np.where(g > 0, noise_var / np.maximum(g, 1e-300), np.inf)
    floors[floors > np.finfo(float).max / g.size] = np.inf  # so that their sum is a double
    if np.isinf(floors).all():
        floors = np.where(g == g.max(), 0.0, np.inf)
    order = np.argsort(floors, kind="stable")[:np.count_nonzero(np.isfinite(floors))]
    levels = (total_power + np.cumsum(floors[order])) / np.arange(1, order.size + 1)
    m = np.count_nonzero(levels >= floors[order])
    p = np.maximum(0.0, levels[m - 1] - floors)
    p[order[:m]] += (total_power - p.sum()) / m
    return p


def _greedy_orthogonal(est: np.ndarray, limit: int, alpha: float | None = None):
    """Greedy Gram-Schmidt selection over the rows of est.

    Each step takes the remaining row with the largest component orthogonal
    to the span of the rows taken so far (the first index on ties). A row
    whose residual falls to 1e-12 of its own norm or below lies in that span
    to rounding and is closed for good, so the stop does not depend on the
    scale of the rows; selection ends after `limit` rows or when no row is
    left open. With `alpha`, each step also drops every remaining row whose
    normalized projection |est_i^H d| / ||est_i|| onto the newest direction
    d exceeds alpha (semi-orthogonal user selection). Returns (order,
    residual norms).
    """
    k, n = est.shape
    open_rows = np.ones(k, dtype=bool)
    row_norms = np.maximum(np.linalg.norm(est, axis=1), 1e-300)
    basis = np.zeros((limit, n), dtype=est.dtype)
    order: list[int] = []
    norms: list[float] = []
    for step in range(limit):
        res = est - (est @ basis[:step].conj().T) @ basis[:step]
        res_norms = np.linalg.norm(res, axis=1)
        open_rows &= res_norms > 1e-12 * row_norms
        if not open_rows.any():
            break
        best = int(np.argmax(np.where(open_rows, res_norms, -1.0)))
        order.append(best)
        norms.append(float(res_norms[best]))
        basis[step] = res[best] / res_norms[best]
        open_rows[best] = False
        if alpha is not None:
            open_rows &= np.abs(est.conj() @ basis[step]) / row_norms <= alpha
    return order, np.asarray(norms)


def sus_zf(
    estimates: np.ndarray, noise_ratio: float, alpha_sus: float = DEFAULT_SUS_ALPHA
) -> tuple[list[int], np.ndarray]:
    """Semi-orthogonal user selection, then zero forcing with water-filled powers.

    Greedy selection as in _greedy_orthogonal: pick the user whose component
    orthogonal to the span of those already selected is largest, then drop
    every remaining candidate whose normalized projection onto the newest
    direction exceeds alpha_sus. Stops at N users or when no candidate
    survives. Water-filling runs over the selected users' effective beam
    gains.
    """
    est, noise_ratio, _ = _joint_rescaled(estimates, noise_ratio)
    selected, _ = _greedy_orthogonal(est, est.shape[1], alpha_sus)
    f = np.zeros_like(est)
    dirs = _zf_directions(est[selected])
    gains = np.abs(np.einsum("sn,sn->s", est[selected].conj(), dirs)) ** 2
    f[selected] = np.sqrt(waterfill(gains, 1.0, noise_ratio))[:, None] * dirs
    return selected, f


def zf_dpc_waterfilling(
    channels: np.ndarray, noise_ratio: float
) -> tuple[list[int], np.ndarray, float]:
    """Successive zero-forcing encoding bound with water-filled powers.

    Users are ordered greedily as in _greedy_orthogonal, by largest residual
    norm after projecting out already-encoded channels; user i's effective
    gain is that squared residual norm. Returns (ordering, powers over the
    ordering, sum rate): rate = sum_i log2(1 + p_i * gain_i / noise_ratio).
    Serves as the spectral-efficiency upper reference for linear schemes.
    """
    h, noise_ratio, _ = _joint_rescaled(*_rate_inputs("channels", channels, noise_ratio))
    ordering, norms = _greedy_orthogonal(h, min(h.shape))
    if not ordering:
        raise RankDeficient("no user has a nonzero channel")
    gains_arr = norms**2
    powers = waterfill(gains_arr, 1.0, noise_ratio)
    rate = float(np.sum(np.log2(1.0 + powers * gains_arr / noise_ratio)))
    return ordering, powers, rate


def _zf_equal_power_rate(est: np.ndarray, subset: list[int], noise_ratio: float) -> float:
    dirs = _zf_directions(est[subset])
    gains = np.abs(np.einsum("sn,sn->s", est[subset].conj(), dirs)) ** 2
    p = 1.0 / len(subset)
    return float(np.sum(np.log2(1.0 + p * gains / noise_ratio)))


def rank_adaptive_zf(
    estimates: np.ndarray, noise_ratio: float
) -> tuple[list[int], np.ndarray]:
    """Greedy user adding under zero forcing with equal powers.

    Starts from the single user with the largest single-user rate, then keeps
    adding whichever user raises the equal-power ZF sum rate the most,
    stopping when no candidate improves it (or ZF runs out of rank).
    """
    est, noise_ratio, _ = _joint_rescaled(*_rate_inputs("estimates", estimates, noise_ratio))
    k, n = est.shape
    norms = np.linalg.norm(est, axis=1)
    selected = [int(np.argmax(norms))]
    best_rate = float(np.log2(1.0 + norms[selected[0]] ** 2 / noise_ratio))
    while len(selected) < min(k, n):
        best_cand, best_cand_rate = None, best_rate
        for i in range(k):
            if i in selected:
                continue
            try:
                rate = _zf_equal_power_rate(est, selected + [i], noise_ratio)
            except RankDeficient:
                continue
            if rate > best_cand_rate:
                best_cand, best_cand_rate = i, rate
        if best_cand is None:
            break
        selected.append(best_cand)
        best_rate = best_cand_rate
    f = np.zeros_like(est)
    dirs = _zf_directions(est[selected])
    f[selected] = dirs / np.sqrt(len(selected))
    return selected, f
