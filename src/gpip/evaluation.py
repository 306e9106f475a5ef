"""Rate evaluation and Monte Carlo averaging.

True-channel SINRs measure what users actually receive from the designed
precoders; the estimate-based lower-bound rates are what a transmitter can
promise from its imperfect knowledge. Both read their powers off the
solver's one power sum, as its quadratic forms do, and live here with the
single-cell link trial, the seeded substreams and Monte Carlo mean,
proportional-fairness weighting, and empirical CDFs. A link trial draws
all of its users' CSIT in one stacked call of its model's channel
function; it and a system block run the algorithms of their config, in
config order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import baselines, channel, coop, solver
from .config import COV_KNOWLEDGE, CSIT_MODELS
from .errors import ConfigInvalid, DimensionMismatch, located
from .numerics import hermitian_sqrt, hermitize


@dataclass
class RateReport:
    """Per-user SINRs (linear) and rates (bits/s/Hz) plus their sum."""

    sinr: np.ndarray  # (L, K)
    rate: np.ndarray  # (L, K)
    sum_rate: float


def true_sinr(true_h: np.ndarray, precoders: np.ndarray, noise_ratio: float) -> RateReport:
    """Ground-truth SINRs of every user under all cells' actual precoders.

    true_h (L, L, K, N) is indexed [bs, user_cell, user]; precoders (L, K, N)
    have unit total power per cell; both are finite. noise_ratio > 0 is the
    receiver noise variance over the per-cell transmit power. The denominator
    collects same-cell interference, other-cell interference, and noise.
    """
    h, noise_ratio = baselines._rate_inputs("true_h", true_h, noise_ratio)
    f = np.asarray(precoders, dtype=np.complex128)
    if h.ndim != 4 or h.shape[0] != h.shape[1] or f.shape != h.shape[1:]:
        raise DimensionMismatch(f"true_h and precoders must be (L, L, K, N) and (L, K, N), "
                                f"got {h.shape} and {f.shape}")
    solver._require_finite("precoders", f)
    desired, rest = solver._power_sum(h.conj(), f, solver._desired_index(*f.shape[:2]))
    sinr = desired / (rest + noise_ratio)
    rate = np.log2(1.0 + sinr)
    return RateReport(sinr, rate, float(rate.sum()))


def gmi_rate_lb(
    estimates: np.ndarray, error_covs, precoders: np.ndarray, noise_ratio
) -> np.ndarray:
    """Single-cell per-user rate lower bounds, from the problem `build_effective_pairs` checks:

    rate_k = log2(1 + |est_k^H f_k|^2 / (sum_{i != k} |est_k^H f_i|^2
             + sum_i f_i^H Phi_k f_i + noise_ratio_k)).
    """
    pairs = solver.build_effective_pairs(estimates, error_covs, noise_ratio)
    prob = solver._ClusterPowers(pairs.est, pairs.cov, pairs.nr)
    f = np.asarray(precoders, dtype=np.complex128)
    if f.shape != (prob.k, prob.n):
        raise DimensionMismatch(f"precoders must be {(prob.k, prob.n)}, got {f.shape}")
    solver._require_finite("precoders", f)
    desired, rest = prob.powers(f[None])
    return np.log2(1.0 + desired[0] / (rest[0] + prob.nr[0]))


def pf_weights(long_term_rates, floor: float = 1e-3) -> np.ndarray:
    """Proportional-fairness weights: inverse smoothed rates, mean-normalized.

    The smoothed rates T come from `update_pf_averages`; the weights are
    1 / max(T, floor) scaled to mean one over the last axis, so an (L, K)
    array gives every cell's weights at once.
    """
    t = np.maximum(np.asarray(long_term_rates, dtype=float), floor)
    w = 1.0 / t
    return w / w.mean(axis=-1, keepdims=True)


def update_pf_averages(averages, served_rates, smoothing: float = 0.1) -> np.ndarray:
    """Exponentially smoothed served-rate tracker for PF weighting."""
    t = np.asarray(averages, dtype=float)
    r = np.asarray(served_rates, dtype=float)
    return (1.0 - smoothing) * t + smoothing * r


@dataclass
class CdfCurve:
    """Empirical distribution: sorted sample values with quantiles (i+1)/n."""

    values: np.ndarray
    quantiles: np.ndarray


def rate_cdf(samples) -> CdfCurve:
    s = np.sort(np.asarray(samples, dtype=float))
    if s.size == 0:
        raise ValueError("need at least one sample")
    q = np.arange(1, s.size + 1) / s.size
    return CdfCurve(s, q)


# ---------------------------------------------------------------------------
# Single-cell Monte Carlo engine
# ---------------------------------------------------------------------------


def _link_correlations(config) -> np.ndarray:
    """(K, N, N) one-ring correlations for the single-cell layout.

    Users sit at evenly spaced azimuths 2*pi*k/K with the configured angular
    spread and unit gain; antennas form a half-wavelength circular array.
    """
    geom = channel.uniform_circular_array(config.n_antennas, wavelength=1.0)
    theta = 2.0 * np.pi * np.arange(1, config.n_users + 1) / config.n_users
    return channel.one_ring_correlation(
        geom, channel.OneRingParams(theta, config.angular_spread, 1.0)
    )


@dataclass(frozen=True)
class LinkStatistics:
    """What a link campaign's CSIT model fixes for all of its trials.

    `roots` holds the (K, N, N) PSD roots each user's draw starts from: of
    the correlations, or under tdd of the MMSE estimate covariances R - phi.
    `cov` is the (K, N, N) error covariance stack every trial reports (zero
    under perfect CSIT); `err_root` is the root of the additive model's error
    covariance or the (K, N, N) roots of the tdd model's (None otherwise).
    `known_cov` is `_known_cov` of `cov` under the campaign's `cov_knowledge`:
    what the transmitter knows of its error, zero under perfect CSIT or
    "none". `csit_model` and `fdd_kappa` are the config values the draws
    read. Arrays are read-only: every trial shares them.
    """

    roots: np.ndarray
    cov: np.ndarray
    err_root: np.ndarray | None
    known_cov: np.ndarray
    csit_model: str
    fdd_kappa: float


def link_statistics(config) -> LinkStatistics:
    """The LinkStatistics of `config` on its `_link_correlations`."""
    corr = _link_correlations(config)
    model, n = config.csit_model, config.n_antennas
    if model not in CSIT_MODELS:
        raise ConfigInvalid(f"csit_model: unknown model {model!r}")
    err_root = None
    if model == "tdd":
        # single-cell uplink training: no co-pilot cells, quality set by
        # the configured noise-to-pilot-energy ratio
        cov, roots, err_root = channel.mmse_statistics(corr, [], config.uplink_noise_over_pilot())
    else:
        roots = hermitian_sqrt(corr)
    if model == "additive":
        phi = config.csit_error_var * np.eye(n)
        err_root = hermitian_sqrt(phi)
        cov = np.repeat(np.asarray(phi, dtype=np.complex128)[None], corr.shape[0], axis=0)
    elif model == "fdd":
        cov = (config.fdd_kappa**2) * hermitize(corr)
    elif model == "perfect":
        cov = np.zeros_like(corr)
    known_cov = _known_cov(config.cov_knowledge, cov)
    for a in (roots, cov, err_root, known_cov):
        if a is not None:
            a.flags.writeable = False
    return LinkStatistics(roots, cov, err_root, known_cov, model, config.fdd_kappa)


def _draw_link_csit(stats: LinkStatistics, rng):
    """(true (K,N), est (K,N)) for one fading block.

    One stacked call of the CSIT model's channel function on the campaign's
    (K, N, N) roots; it draws user by user, in order.
    """
    model = stats.csit_model
    if model == "perfect":
        true = channel.sample_channel(stats.roots, rng)
        return true, true.copy()
    if model == "additive":
        return channel.additive_error_csit(stats.roots, stats.err_root, rng)
    if model == "tdd":
        return channel.mmse_csit_tdd(stats.roots, stats.err_root, rng)
    return channel.fdd_quantized_csit(stats.roots, stats.fdd_kappa, rng)


def _levels(cov: np.ndarray) -> np.ndarray:
    """Trace-matched scalar levels tr/N of a (..., N, N) covariance stack, clipped
    at zero: a trace formed by a subtraction, as the MMSE error's R - R (R + Q)^-1 R
    is, can round slightly negative."""
    return np.maximum(np.real(np.trace(cov, axis1=-2, axis2=-1)) / cov.shape[-1], 0.0)


def _known_cov(knowledge: str, cov: np.ndarray) -> np.ndarray:
    """Error covariance as the transmitter knows it, per the `cov_knowledge` setting.

    cov is a (..., N, N) stack, zero under perfect CSIT. Under "full" the
    known covariances are `cov` itself, under "scalar" its `_levels` times I,
    and under "none" zero.
    """
    if knowledge not in COV_KNOWLEDGE:
        raise ConfigInvalid(f"cov_knowledge: unknown setting {knowledge!r}")
    if knowledge == "none":
        return np.zeros_like(cov)
    return cov if knowledge == "full" else _levels(cov)[..., None, None] * np.eye(cov.shape[-1])


def design_precoders(algorithm: str, est: np.ndarray, known_cov, noise_ratio, config,
                     weights=None):
    """Run one algorithm on one block's knowledge; returns (precoder, extras).

    `known_cov` (K, N, N) is what the transmitter knows of its error, as
    `_known_cov` gives it (zero when it knows nothing); `gpip-covfree` takes
    its `_levels`. The precoder is a (K, N) row stack with unit total power.
    The joint designs return every row: `extras.schedule` lists those whose
    norm is at or above `sel_threshold`, and the rest are still transmitted
    with little power (`sus-zf` and `rank-zf` zero the rows they leave out).
    `extras` carries solver diagnostics when available. noise_ratio may be
    per-user; the joint designs use it as given, while the one-shot baselines
    take its mean (they admit one noise level). `weights` reach the joint
    designs only; every baseline ignores them.
    """
    nr_scalar = float(np.mean(noise_ratio))
    opts = dict(weights=weights, tol=config.tol, max_iter=config.max_iter,
                select_threshold=config.sel_threshold)
    if algorithm == "gpip":
        pairs = solver.build_effective_pairs(est, known_cov, noise_ratio)
        res = solver.gpip_iterate(pairs, **opts)
        return res.precoder, res
    if algorithm == "gpip-covfree":
        res = solver.gpip_covfree(est, _levels(known_cov), noise_ratio, **opts)
        return res.precoder, res
    if algorithm == "mrt":
        return baselines.mrt(est), None
    if algorithm == "zf":
        return baselines.zf(est), None
    if algorithm == "rzf":
        return baselines.rzf(est, nr_scalar), None
    if algorithm == "rrzf":
        return baselines.rrzf(est, known_cov, nr_scalar), None
    if algorithm == "sus-zf":
        _, f = baselines.sus_zf(est, nr_scalar, config.sus_alpha)
        return f, None
    if algorithm == "rank-zf":
        _, f = baselines.rank_adaptive_zf(est, nr_scalar)
        return f, None
    raise ConfigInvalid(f"algorithms: unknown algorithm {algorithm!r}")


def _block_rates(config, true_h, est_h, cells, noise_ratio, clusters=(),
                 weights=None, metric: str = "true") -> dict:
    """Design every algorithm of `config` from one block's estimates and score
    it; a link trial is a block of one cell.

    `true_h`, `est_h` are (L, L, K, N), indexed [bs, user_cell, user]. Cell l
    designs from `cells[l]`, its (known covariances, noise ratio) for
    `design_precoders`, each cluster from its `clusters` entry (cell indices,
    known covariances (C, C, K, N, N), noise ratios (C, K)). `weights` maps
    an algorithm to (L, K) weights, else all weigh one. `zf-dpc` holds each
    cell's sum-rate bound at its mean noise ratio on user 0; the others are
    true-channel rates under all cells' precoders at the downlink
    `noise_ratio` or, with metric "estimated", each cell's own lower bounds.
    Returns {algorithm: ((L, K) rates, extras list or None)}.
    """
    if metric not in ("true", "estimated"):
        raise ValueError(f"metric must be 'true' or 'estimated', got {metric!r}")
    n_cells, _, n_users, n = est_h.shape
    out = {}
    for alg in config.algorithms:
        with located(f"algorithm {alg}: "):
            if alg == "zf-dpc":
                rates = np.zeros((n_cells, n_users))
                for l, (_, nr) in enumerate(cells):
                    rates[l, 0] = baselines.zf_dpc_waterfilling(est_h[l, l], float(np.mean(nr)))[2]
                out[alg] = (rates, None)
                continue
            w = weights[alg] if weights else np.ones((n_cells, n_users))
            f = np.zeros((n_cells, n_users, n), dtype=np.complex128)
            extras = []
            if alg == "gpip-coop":
                for cl, known_cov, nr in clusters:
                    pairs = coop.build_coop_pairs(est_h[np.ix_(cl, cl)], known_cov, nr)
                    extras.append(coop.gpip_coop(pairs, weights=w[cl], tol=config.tol,
                                                 max_iter=config.max_iter,
                                                 select_threshold=config.sel_threshold))
                    f[cl] = extras[-1].precoder
            else:
                for l, (known_cov, nr) in enumerate(cells):
                    f[l], extra = design_precoders(alg, est_h[l, l], known_cov, nr, config, w[l])
                    extras.append(extra)
            if metric == "true":
                rates = true_sinr(true_h, f, noise_ratio).rate
            else:
                rates = np.array([gmi_rate_lb(est_h[l, l], known_cov, f[l], nr)
                                  for l, (known_cov, nr) in enumerate(cells)])
            out[alg] = (rates, [e for e in extras if e is not None] or None)
    return out


def link_trial(config, snr_db: float, rng, stats: LinkStatistics, metric: str = "true") -> dict:
    """One fading block: draw channels once, run every algorithm of `config` on them.

    A `_block_rates` block of one cell that knows `stats.known_cov` from the
    campaign's `LinkStatistics`; returns {algorithm: (per-user rates,
    extras)}, paired across algorithms by the shared draw. `metric` is
    "true" (rates on the actual channels) or "estimated" (the transmitter's
    lower bounds from its own imperfect knowledge); any other value raises.
    """
    noise_ratio = 10.0 ** (-snr_db / 10.0)
    true, est = _draw_link_csit(stats, rng)
    out = _block_rates(config, true[None, None], est[None, None],
                       [(stats.known_cov, noise_ratio)], noise_ratio, metric=metric)
    return {alg: (rates[0], extras and extras[0]) for alg, (rates, extras) in out.items()}


def monte_carlo_mean(samples: np.ndarray) -> tuple[float, float]:
    """(mean, 1.96 * stderr) of one or more samples; one sample's half-width is inf."""
    s = np.asarray(samples, dtype=float)
    if s.size == 0:
        raise ValueError("need at least one sample")
    if s.size == 1:
        return float(s.mean()), float("inf")
    half = 1.96 * s.std(ddof=1) / np.sqrt(s.size)
    return float(s.mean()), float(half)


# spawn-key domains, so different purposes never share a substream
DOMAIN_LINK_TRIAL = 0
DOMAIN_SYSTEM_DROP = 1
DOMAIN_SYSTEM_BLOCK = 2


def trial_rng(master_seed: int, domain: int, index: int) -> np.random.Generator:
    """Independent, reproducible substream for one Monte Carlo unit."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(domain, index))
    )
