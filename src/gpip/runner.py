"""Campaign orchestration: configs in, CSV artifacts out.

Link-level campaigns sweep SNR over seeded single-cell fading blocks. System
campaigns drop users on a hexagonal layout, derive large-scale gains from the
path-loss and shadowing models, build uplink-trained CSIT with pilot reuse
outside each cooperation cluster, run the selected algorithms per fading
block, and aggregate true-channel rates.

Every artifact is deterministic for a given resolved configuration: trial
substreams are derived from (seed, domain, index), iteration order is fixed,
and floats are written with repr (shortest round-trip form).
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import baselines, channel, coop, evaluation, solver
from .config import ExperimentConfig, write_manifest
from .errors import ConfigInvalid, RankDeficient, located
from .evaluation import (
    DOMAIN_LINK_TRIAL,
    DOMAIN_SYSTEM_BLOCK,
    DOMAIN_SYSTEM_DROP,
    link_trial,
    monte_carlo_mean,
    trial_rng,
)
from .numerics import hermitian_sqrt


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(x) -> str:
    return repr(float(x))


def _campaign_dir(cfg: ExperimentConfig, scenario: str, out_dir) -> Path:
    """Validate `cfg` for `scenario`, then create and return its output directory."""
    cfg.validate()
    if cfg.scenario != scenario:
        raise ConfigInvalid(f"scenario: run_{scenario}_level needs scenario='{scenario}'")
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cdf_samples(cfg: ExperimentConfig) -> dict:
    """Empty per-user rate samples for every precoding algorithm.

    zf-dpc is a per-cell sum-rate bound, not a precoder: it has no per-user
    rates and no solver diagnostics, so it gets no CDF, no per-user rows and
    no solver rows.
    """
    return {alg: [] for alg in cfg.algorithms if alg != "zf-dpc"}


def _write_artifacts(out: Path, cfg: ExperimentConfig, tables, cdf_samples) -> dict:
    """Write the manifest, one CSV per (name, header, rows) table and one rate
    CDF per precoding algorithm; returns {artifact_name: path}."""
    paths = {"manifest": out / "manifest.json"}
    write_manifest(cfg, paths["manifest"])
    for name, header, rows in tables:
        paths[name] = out / f"{name}.csv"
        _write_csv(paths[name], header, rows)
    for alg, samples in cdf_samples.items():
        rows = []
        if samples:
            curve = evaluation.rate_cdf(samples)
            rows = [[_fmt(v), _fmt(q)] for v, q in zip(curve.values, curve.quantiles)]
        paths[f"cdf_{alg}"] = out / f"cdf_{alg}.csv"
        _write_csv(paths[f"cdf_{alg}"], ["rate", "quantile"], rows)
    return paths


def run_link_level(cfg: ExperimentConfig, out_dir=None) -> dict:
    """Single-cell ergodic campaign; returns {artifact_name: path}."""
    out = _campaign_dir(cfg, "link", out_dir)
    link_stats = evaluation.link_statistics(cfg, evaluation._link_correlations(cfg))

    summary_rows = []
    per_trial_rows = []
    per_user_rows = []
    solver_rows = []
    cdf_samples = _cdf_samples(cfg)
    for snr_idx, snr in enumerate(cfg.snr_db):
        sums = {alg: np.empty(cfg.n_trials) for alg in cfg.algorithms}
        extras = {alg: [] for alg in cfg.algorithms}
        for t in range(cfg.n_trials):
            rng = trial_rng(cfg.seed, DOMAIN_LINK_TRIAL, snr_idx * cfg.n_trials + t)
            with located(f"SNR {snr} dB, trial {t}, "):
                results = link_trial(cfg, snr, cfg.algorithms, rng, link_stats)
            for alg in cfg.algorithms:
                sums[alg][t] = results[alg][0].sum()
                per_trial_rows.append([alg, _fmt(snr), t, _fmt(sums[alg][t])])
            for alg, samples in cdf_samples.items():
                rates, extra = results[alg]
                for k, rate in enumerate(rates):
                    per_user_rows.append([alg, _fmt(snr), t, k, _fmt(rate)])
                    samples.append(float(rate))
                if extra is not None:
                    extras[alg].append(extra)
                    solver_rows.append([alg] + extra.csv_row(cfg.seed, snr))
        for alg in cfg.algorithms:
            mean, half = monte_carlo_mean(sums[alg])
            row = [alg, _fmt(snr), cfg.n_trials, _fmt(mean), _fmt(half)]
            stats = [(e.iterations, e.kkt_residual, len(e.schedule)) for e in extras[alg]]
            row += [_fmt(np.mean(col)) for col in zip(*stats)] if stats else ["", "", ""]
            summary_rows.append(row)

    return _write_artifacts(out, cfg, [
        ("summary", ["algorithm", "snr_db", "n_trials", "mean_sum_se", "ci_half_width",
                     "mean_iterations", "mean_kkt_residual", "mean_active_count"], summary_rows),
        ("per_trial", ["algorithm", "snr_db", "trial", "sum_rate"], per_trial_rows),
        ("per_user", ["algorithm", "snr_db", "trial", "user", "rate"], per_user_rows),
        ("solver", ["algorithm"] + solver.GpipResult.csv_header(cfg.n_users), solver_rows),
    ], cdf_samples)


# ---------------------------------------------------------------------------
# Multi-cell machinery
# ---------------------------------------------------------------------------


def consecutive_clusters(n_cells: int, cluster_size: int) -> list[list[int]]:
    """Fixed geographic clusters: consecutive grid indices, last may be short."""
    return [list(range(i, min(i + cluster_size, n_cells)))
            for i in range(0, n_cells, cluster_size)]


def system_correlations(cfg: ExperimentConfig, rng) -> tuple[np.ndarray, channel.Topology, np.ndarray]:
    """One drop's per-link correlation matrices (L, L, K, N, N) and gains.

    Azimuths come from the true user geometry; large-scale gains combine the
    path-loss model with independent log-normal shadowing per link. The
    correlation matrices are returned in noise-normalized units (gain divided
    by noise-power-over-transmit-power), so the downlink noise ratio becomes
    exactly one and matrix conditioning is independent of the absolute
    physical scales. `betas` stays in raw linear units. Each serving BS's
    L*K links take one `one_ring_correlation` call.
    """
    topo = channel.drop_users(
        cfg.n_cells, cfg.n_users, cfg.inter_site_m, cfg.min_distance_m, rng
    )
    geom = channel.uniform_circular_array(cfg.n_antennas, cfg.wavelength_m())
    dist_km = topo.distances_km()
    shadow = rng.normal(0.0, cfg.shadowing_db, size=dist_km.shape)
    betas = channel.gain_from_pathloss(channel.okumura_hata_pathloss(dist_km), shadow)
    delta = topo.user_xy[None, :, :, :] - topo.cell_xy[:, None, None, :]  # (L, L, K, 2)
    theta = np.arctan2(delta[..., 1], delta[..., 0])
    gains = betas / (cfg.noise_power_mw() / cfg.bs_power_mw())
    corr = np.empty(dist_km.shape + (cfg.n_antennas, cfg.n_antennas), dtype=np.complex128)
    for j in range(cfg.n_cells):
        corr[j] = channel.one_ring_correlation(
            geom, channel.OneRingParams(theta[j], cfg.angular_spread, gains[j])
        )
    return corr, topo, betas


def _outside_power(traces: np.ndarray, n: int, clusters=None) -> np.ndarray:
    """(L, K) isotropic expectation of the interference from the BSs outside
    each user's cell or (optional) cluster, over transmit power, from the
    (L, L, K) link correlation traces. Added to the receiver noise ratio it
    is the users' effective noise over power."""
    outside = ~np.eye(traces.shape[0], dtype=bool)  # outside[j, l]: BS j is outside l's cluster
    for cl in clusters or []:
        outside[np.ix_(cl, cl)] = False
    return np.einsum("jl,jlk->lk", outside, traces) / n


@dataclass(frozen=True)
class DropStatistics:
    """Everything second-order a drop fixes for all of its fading blocks.

    `known[j, l, k]` marks the links BS j trains from in-cluster pilots.
    `roots[j, l, k]` is the PSD root link (j, l, k)'s draw starts from: the
    root of the MMSE estimate covariance R - phi on a trained link under
    tdd, the root of R on every other link. `err_cov` and `err_roots` hold
    each BS's MMSE error covariances phi and their roots, indexed [BS j,
    position of the user's cell in j's cluster, user], as
    `channel.mmse_statistics` gives them for j's cluster (zero past a short
    cluster's end); `err_cov` is zero and `err_roots` None under perfect
    CSIT. `position[l]` is cell l's index in its cluster. `outside` and
    `outside_coop` are the out-of-cell and out-of-cluster interference
    powers; a block adds its noise ratio to them. `clusters` holds the
    cooperation clusters the pilots were assigned for, as lists of cell
    indices. Arrays are read-only: one drop's blocks share them.
    """

    roots: np.ndarray  # (L, L, K, N, N)
    known: np.ndarray  # (L, L, K) bool
    err_cov: np.ndarray  # (L, C, K, N, N)
    err_roots: np.ndarray | None  # (L, C, K, N, N)
    position: np.ndarray  # (L,)
    outside: np.ndarray  # (L, K)
    outside_coop: np.ndarray  # (L, K)
    clusters: tuple
    _known_covs: dict = field(default_factory=dict, repr=False, compare=False)

    def known_cov(self, cov_knowledge: str) -> tuple:
        """`evaluation._known_cov` of `err_cov` (None under perfect CSIT) for
        a `cov_knowledge` setting: derived on first use, then shared by the
        drop's blocks, read-only."""
        if cov_knowledge not in self._known_covs:
            perfect = self.err_roots is None
            known = evaluation._known_cov(cov_knowledge, None if perfect else self.err_cov,
                                          self.roots.shape[-1])
            for a in known:
                if a is not None:
                    a.flags.writeable = False
            self._known_covs[cov_knowledge] = known
        return self._known_covs[cov_knowledge]


def drop_statistics(corr: np.ndarray, clusters, noise_over_pilot: float,
                    perfect: bool = False) -> DropStatistics:
    """The DropStatistics of one drop's (L, L, K, N, N) correlation stack.

    `corr` is consumed and becomes `roots`: serving BS by serving BS, the
    correlations of the links drawn from their prior are replaced by their
    PSD roots (one batched `hermitian_sqrt` each) and, under tdd, those of
    the trained links by their estimate roots, so a drop never holds the
    correlations and the roots at once. One `channel.mmse_statistics` call
    per BS gives its trained links, with the out-of-cluster co-pilot
    contamination that `multicell_csit` describes; their correlations are
    never rooted. Pass a copy to keep the correlations. Raises RankDeficient
    naming the cell when training leaves a BS no knowledge of its own users.
    """
    n_cells, _, _, n, _ = corr.shape
    position = np.empty(n_cells, dtype=np.intp)
    known = np.zeros(corr.shape[:3], dtype=bool)
    for cl in clusters:
        position[cl] = np.arange(len(cl))
        known[np.ix_(cl, cl)] = True
    traces = np.real(np.trace(corr, axis1=3, axis2=4))  # (L, L, K)
    size = max(len(cl) for cl in clusters)
    err_cov = np.zeros((n_cells, size, *corr.shape[2:]), dtype=np.complex128)
    err_roots = None if perfect else np.zeros_like(err_cov)
    for cl in clusters:
        for j in cl:
            if perfect:
                corr[j] = hermitian_sqrt(corr[j])
                continue
            outside = [lp for lp in range(n_cells) if lp not in cl]
            r = corr[j, cl]  # (C, K, N, N): BS j toward its cluster's users
            interferers = [np.broadcast_to(corr[j, lp], r.shape) for lp in outside]
            stats = channel.mmse_statistics(r, interferers, noise_over_pilot)
            if not stats.est_root[position[j]].any():
                raise RankDeficient(f"cell {j}: uplink training leaves every own-cell "
                                    f"estimate zero (noise over pilot {noise_over_pilot:g})")
            err_cov[j, :len(cl)], err_roots[j, :len(cl)] = stats.phi, stats.err_root
            corr[j, cl] = stats.est_root
            if outside:
                corr[j, outside] = hermitian_sqrt(corr[j, outside])
    for a in (corr, known, err_cov, err_roots, position):
        if a is not None:
            a.flags.writeable = False
    return DropStatistics(
        roots=corr, known=known, err_cov=err_cov, err_roots=err_roots, position=position,
        outside=_outside_power(traces, n), outside_coop=_outside_power(traces, n, clusters),
        clusters=tuple(list(cl) for cl in clusters),
    )


def multicell_csit(stats: DropStatistics, rng) -> tuple[np.ndarray, np.ndarray]:
    """Joint (true, estimate) draw for every link of one block.

    Both are (L, L, K, N) arrays indexed [bs, user_cell, user]; an estimate
    is zero on every link its BS has no pilots for (`stats.known`).
    BSs estimate links to every user of their own cluster from uplink pilots
    that are orthogonal inside the cluster and reused outside it, so the
    contaminating covariances for user (l, k) are the same-index users of all
    out-of-cluster cells. Links without pilots are drawn from their prior.
    `stats` is the drop's `DropStatistics`, which leaves only the Gaussian
    draws to each block. Links are drawn in (cell, user, BS) order: one
    stacked CSIT call per run of consecutive BSs with the same knowledge of
    a user, which draws member by member, so the stream is that of one call
    per link.
    """
    n_cells, _, n_users, n, _ = stats.roots.shape
    true_h = np.zeros((n_cells, n_cells, n_users, n), dtype=np.complex128)
    est_h = np.zeros_like(true_h)
    for l in range(n_cells):
        known = stats.known[:, l, 0]  # a BS trains on all users of a cell or on none
        edges = [0, *(np.flatnonzero(known[1:] != known[:-1]) + 1).tolist(), n_cells]
        runs = [(slice(j0, j1), known[j0]) for j0, j1 in itertools.pairwise(edges)]
        for k in range(n_users):
            for bss, trained in runs:
                links = (bss, l, k)
                if not trained:
                    true_h[links] = channel.sample_channel(stats.roots[links], rng)
                elif stats.err_roots is None:
                    true_h[links] = est_h[links] = channel.sample_channel(stats.roots[links], rng)
                else:
                    true_h[links], est_h[links] = channel.mmse_csit_tdd(
                        stats.roots[links], stats.err_roots[bss, stats.position[l], k], rng
                    )
    return true_h, est_h


def _slice(a, idx):
    """a[idx], passing None through."""
    return None if a is None else a[idx]


def multicell_block(
    cfg: ExperimentConfig,
    stats: DropStatistics,
    algorithms,
    rng,
    pf_weights=None,
    noise_ratio_dl: float = 1.0,
) -> dict:
    """Run every algorithm on one fading block of a multi-cell drop.

    `stats` is the drop's `DropStatistics` (see `multicell_csit`), built
    once per drop in the units of `noise_ratio_dl`; the system runner passes
    noise-normalized correlations with noise_ratio_dl=1.
    All algorithms see the same CSIT draw (paired comparison). `pf_weights`
    optionally maps an algorithm name to its (L, K) weight array; weights
    only affect the joint-design algorithms. Returns
    {algorithm: (rates (L, K), solver_extras)} with rates evaluated on the
    true channels under all cells' simultaneous transmissions.
    """
    n_cells, _, n_users, n, _ = stats.roots.shape
    true_h, est_h = multicell_csit(stats, rng)
    # every link's knowledge, once per drop; each design below takes its slice
    known_cov, alphas = stats.known_cov(cfg.cov_knowledge)
    nr_noncoop = noise_ratio_dl + stats.outside
    nr_coop = noise_ratio_dl + stats.outside_coop
    out = {}
    for alg in algorithms:
        with located(f"algorithm {alg}: "):
            if alg == "zf-dpc":
                rates = np.zeros((n_cells, n_users))
                for l in range(n_cells):
                    nr_cell = float(np.mean(nr_noncoop[l]))
                    _, _, rate = baselines.zf_dpc_waterfilling(est_h[l, l], nr_cell)
                    rates[l, 0] = rate  # per-cell sum bound, stored on slot 0
                out[alg] = (rates, None)
                continue
            w_alg = pf_weights.get(alg) if pf_weights else None
            precoders = np.zeros((n_cells, n_users, n), dtype=np.complex128)
            extras = []
            if alg == "gpip-coop":
                for cl in stats.clusters:
                    pairs = coop.build_coop_pairs(est_h[np.ix_(cl, cl)],
                                                  _slice(known_cov, (cl, slice(len(cl)))),
                                                  nr_coop[cl])
                    res = coop.gpip_coop(pairs, weights=_slice(w_alg, cl), tol=cfg.tol,
                                         max_iter=cfg.max_iter,
                                         select_threshold=cfg.sel_threshold)
                    precoders[cl] = res.precoder
                    extras.append(res)
            else:
                w_cells = w_alg if alg.startswith("gpip") else None
                for l, p in enumerate(stats.position):
                    precoders[l], extra = evaluation.design_precoders(
                        alg, est_h[l, l], _slice(known_cov, (l, p)),
                        nr_noncoop[l], cfg, _slice(alphas, (l, p)), _slice(w_cells, l),
                    )
                    if extra is not None:
                        extras.append(extra)
            report = evaluation.true_sinr(true_h, precoders, noise_ratio_dl)
            out[alg] = (report.rate, extras or None)
    return out


def run_system_level(cfg: ExperimentConfig, out_dir=None) -> dict:
    """Hexagonal-layout campaign; returns {artifact_name: path}."""
    out = _campaign_dir(cfg, "system", out_dir)
    clusters = consecutive_clusters(cfg.n_cells, cfg.n_coop)
    snr_db = cfg.bs_power_dbm - cfg.noise_power_dbm()

    per_user_rows = []
    per_drop_rows = []
    solver_rows = []
    coop_rows = []
    cdf_samples = _cdf_samples(cfg)
    drop_means = {alg: [] for alg in cfg.algorithms}
    use_pf = cfg.weights == "pf"
    # uplink noise over pilot energy in the noise-normalized units of
    # `system_correlations` (training runs at physical powers)
    noise_over_pilot = cfg.uplink_noise_over_pilot() * cfg.bs_power_mw() / cfg.noise_power_mw()
    perfect = cfg.csit_model == "perfect"
    for d in range(cfg.n_drops):
        with located(f"drop {d}, "):
            corr, _topo, _betas = system_correlations(
                cfg, trial_rng(cfg.seed, DOMAIN_SYSTEM_DROP, d)
            )
            stats = drop_statistics(corr, clusters, noise_over_pilot, perfect)  # consumes corr
        acc = {alg: np.zeros((cfg.n_cells, cfg.n_users)) for alg in cfg.algorithms}
        pf_avg = {alg: np.full((cfg.n_cells, cfg.n_users), 1e-3) for alg in cfg.algorithms}
        for b in range(cfg.n_blocks):
            rng = trial_rng(cfg.seed, DOMAIN_SYSTEM_BLOCK, d * cfg.n_blocks + b)
            pf_w = {alg: evaluation.pf_weights(t) for alg, t in pf_avg.items()} if use_pf else None
            with located(f"drop {d}, block {b}, "):
                results = multicell_block(cfg, stats, cfg.algorithms, rng, pf_w)
            for alg in cfg.algorithms:
                rates, extras = results[alg]
                acc[alg] += rates
                if use_pf:
                    pf_avg[alg] = evaluation.update_pf_averages(
                        pf_avg[alg], rates, cfg.pf_smoothing
                    )
                for extra in extras or []:
                    if isinstance(extra, coop.CoopResult):
                        coop_rows.append([alg, d, b] + extra.csv_row(cfg.seed, snr_db, cfg.n_coop))
                    else:
                        solver_rows.append([alg, d, b] + extra.csv_row(cfg.seed, snr_db))
        block_avg = {alg: a / cfg.n_blocks for alg, a in acc.items()}
        for alg in cfg.algorithms:
            drop_means[alg].append(float(block_avg[alg].sum(axis=1).mean()))
            per_drop_rows.append([alg, d, _fmt(drop_means[alg][-1])])
        for alg, samples in cdf_samples.items():
            for (l, k), rate in np.ndenumerate(block_avg[alg]):
                per_user_rows.append([alg, d, l, k, _fmt(rate)])
                samples.append(float(rate))

    summary_rows = []
    for alg in cfg.algorithms:
        mean, half = monte_carlo_mean(np.asarray(drop_means[alg]))
        summary_rows.append([alg, _fmt(snr_db), cfg.n_drops, _fmt(mean), _fmt(half)])
    tables = [
        ("summary", ["algorithm", "tx_snr_db", "n_drops", "mean_cell_sum_se", "ci_half_width"],
         summary_rows),
        ("per_drop", ["algorithm", "drop", "mean_cell_sum_se"], per_drop_rows),
        ("per_user", ["algorithm", "drop", "cell", "user", "rate"], per_user_rows),
        ("solver", ["algorithm", "drop", "block"] + solver.GpipResult.csv_header(cfg.n_users),
         solver_rows),
    ]
    if "gpip-coop" in cfg.algorithms:
        tables.append(("solver_coop", ["algorithm", "drop", "block"]
                       + coop.CoopResult.csv_header(cfg.n_coop, cfg.n_users), coop_rows))
    return _write_artifacts(out, cfg, tables, cdf_samples)


def run(cfg: ExperimentConfig, out_dir=None) -> dict:
    """Dispatch on the configured scenario."""
    if cfg.scenario == "link":
        return run_link_level(cfg, out_dir)
    return run_system_level(cfg, out_dir)
