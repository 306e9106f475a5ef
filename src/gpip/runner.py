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
from pathlib import Path

import numpy as np

from . import baselines, channel, coop, evaluation, solver
from .config import ExperimentConfig, write_manifest
from .errors import ConfigInvalid
from .evaluation import link_trial, monte_carlo_mean, trial_rng

# spawn-key domains, so different purposes never share a substream
DOMAIN_LINK_TRIAL = 0
DOMAIN_SYSTEM_DROP = 1
DOMAIN_SYSTEM_BLOCK = 2


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(x) -> str:
    return repr(float(x))


def run_link_level(cfg: ExperimentConfig, out_dir=None) -> dict:
    """Single-cell ergodic campaign; returns {artifact_name: path}."""
    cfg.validate()
    if cfg.scenario != "link":
        raise ConfigInvalid("scenario: run_link_level needs scenario='link'")
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    corr = evaluation._link_correlations(cfg)

    summary_rows = []
    per_trial_rows = []
    per_user_rows = []
    solver_rows = []
    cdf_samples = {alg: [] for alg in cfg.algorithms}
    for snr_idx, snr in enumerate(cfg.snr_db):
        sums = {alg: np.empty(cfg.n_trials) for alg in cfg.algorithms}
        iters = {alg: [] for alg in cfg.algorithms}
        resid = {alg: [] for alg in cfg.algorithms}
        active = {alg: [] for alg in cfg.algorithms}
        for t in range(cfg.n_trials):
            rng = trial_rng(cfg.seed, DOMAIN_LINK_TRIAL, snr_idx * cfg.n_trials + t)
            results = link_trial(cfg, snr, cfg.algorithms, rng, corr)
            for alg in cfg.algorithms:
                rates, extras = results[alg]
                sums[alg][t] = rates.sum()
                per_trial_rows.append([alg, _fmt(snr), t, _fmt(rates.sum())])
                if alg == "zf-dpc":
                    continue
                for k in range(cfg.n_users):
                    per_user_rows.append(
                        [alg, _fmt(snr), t, k, _fmt(rates[k])]
                    )
                    cdf_samples[alg].append(float(rates[k]))
                if extras is not None:
                    iters[alg].append(extras.iterations)
                    resid[alg].append(extras.kkt_residual)
                    active[alg].append(len(extras.schedule))
                    solver_rows.append([alg] + extras.csv_row(cfg.seed, snr))
        for alg in cfg.algorithms:
            mean, half = monte_carlo_mean(sums[alg])
            row = [alg, _fmt(snr), cfg.n_trials, _fmt(mean), _fmt(half)]
            if iters[alg]:
                row += [_fmt(np.mean(iters[alg])), _fmt(np.mean(resid[alg])),
                        _fmt(np.mean(active[alg]))]
            else:
                row += ["", "", ""]
            summary_rows.append(row)

    paths = {}
    paths["manifest"] = out / "manifest.json"
    write_manifest(cfg, paths["manifest"])
    paths["summary"] = out / "summary.csv"
    _write_csv(
        paths["summary"],
        ["algorithm", "snr_db", "n_trials", "mean_sum_se", "ci_half_width",
         "mean_iterations", "mean_kkt_residual", "mean_active_count"],
        summary_rows,
    )
    paths["per_trial"] = out / "per_trial.csv"
    _write_csv(paths["per_trial"], ["algorithm", "snr_db", "trial", "sum_rate"], per_trial_rows)
    paths["per_user"] = out / "per_user.csv"
    _write_csv(paths["per_user"], ["algorithm", "snr_db", "trial", "user", "rate"], per_user_rows)
    for alg in cfg.algorithms:
        if alg == "zf-dpc":
            continue
        curve = evaluation.rate_cdf(cdf_samples[alg]) if cdf_samples[alg] else None
        p = out / f"cdf_{alg}.csv"
        rows = []
        if curve is not None:
            rows = [[_fmt(v), _fmt(q)] for v, q in zip(curve.values, curve.quantiles)]
        _write_csv(p, ["rate", "quantile"], rows)
        paths[f"cdf_{alg}"] = p
    paths["solver"] = out / "solver.csv"
    _write_csv(
        paths["solver"],
        ["algorithm"] + solver.GpipResult.csv_header(cfg.n_users),
        solver_rows,
    )
    return paths


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
    physical scales. `betas` stays in raw linear units.
    """
    topo = channel.drop_users(
        cfg.n_cells, cfg.n_users, cfg.inter_site_m, cfg.min_distance_m, rng
    )
    geom = channel.uniform_circular_array(cfg.n_antennas, cfg.wavelength_m())
    dist_km = topo.distances_km()
    shadow = rng.normal(0.0, cfg.shadowing_db, size=dist_km.shape)
    n_cells, _, n_users = dist_km.shape
    betas = np.empty_like(dist_km)
    corr = np.empty(
        (n_cells, n_cells, n_users, cfg.n_antennas, cfg.n_antennas), dtype=np.complex128
    )
    norm = cfg.noise_power_mw() / cfg.bs_power_mw()
    for j in range(n_cells):
        for l in range(n_cells):
            for k in range(n_users):
                loss = channel.okumura_hata_pathloss(dist_km[j, l, k])
                betas[j, l, k] = channel.gain_from_pathloss(loss, shadow[j, l, k])
                delta = topo.user_xy[l, k] - topo.cell_xy[j]
                theta = float(np.arctan2(delta[1], delta[0]))
                corr[j, l, k] = channel.one_ring_correlation(
                    geom,
                    channel.OneRingParams(theta, cfg.angular_spread, betas[j, l, k] / norm),
                )
    return corr, topo, betas


def multicell_csit(corr: np.ndarray, clusters, noise_over_pilot: float, rng,
                   perfect: bool = False) -> channel.ChannelSet:
    """Joint (true, estimate, error-cov) draw for every link of one block.

    BSs estimate links to every user of their own cluster from uplink pilots
    that are orthogonal inside the cluster and reused outside it, so the
    contaminating covariances for user (l, k) are the same-index users of all
    out-of-cluster cells. Links without pilots are drawn from their prior.
    """
    n_cells, _, n_users, n, _ = corr.shape
    cluster_of = {}
    for cl in clusters:
        for l in cl:
            cluster_of[l] = cl
    true_h = np.zeros((n_cells, n_cells, n_users, n), dtype=np.complex128)
    est_h = np.zeros_like(true_h)
    err_cov = np.zeros((n_cells, n_cells, n_users, n, n), dtype=np.complex128)
    known = np.zeros((n_cells, n_cells, n_users), dtype=bool)
    for l in range(n_cells):
        members = cluster_of[l]
        copilot = [lp for lp in range(n_cells) if lp not in members]
        for k in range(n_users):
            for j in range(n_cells):
                if j in members:
                    if perfect:
                        h = channel.sample_channel(corr[j, l, k], rng)
                        true_h[j, l, k], est_h[j, l, k] = h, h
                    else:
                        interferers = [corr[j, lp, k] for lp in copilot]
                        h, hhat, phi = channel.mmse_csit_tdd(
                            corr[j, l, k], interferers, noise_over_pilot, 1.0, 1.0, rng
                        )
                        true_h[j, l, k], est_h[j, l, k], err_cov[j, l, k] = h, hhat, phi
                    known[j, l, k] = True
                else:
                    true_h[j, l, k] = channel.sample_channel(corr[j, l, k], rng)
    return channel.ChannelSet(true_h, est_h, err_cov, known)


def effective_noise_ratios(corr: np.ndarray, noise_ratio_dl: float,
                           clusters=None) -> np.ndarray:
    """(L, K) effective noise over power: receiver noise plus the isotropic
    expectation of interference from cells outside the (optional) cluster."""
    n_cells, _, _, n, _ = corr.shape
    outside = ~np.eye(n_cells, dtype=bool)  # outside[j, l]: BS j is outside l's cluster
    for cl in clusters or []:
        outside[np.ix_(cl, cl)] = False
    traces = np.real(np.trace(corr, axis1=3, axis2=4))  # (L, L, K)
    return noise_ratio_dl + np.einsum("jl,jlk->lk", outside, traces) / n


def multicell_block(
    cfg: ExperimentConfig,
    corr: np.ndarray,
    clusters,
    algorithms,
    rng,
    pf_weights=None,
    noise_ratio_dl: float = 1.0,
    noise_over_pilot: float | None = None,
) -> dict:
    """Run every algorithm on one fading block of a multi-cell drop.

    `corr` and the two noise parameters must share one unit convention; the
    system runner passes noise-normalized correlations with noise_ratio_dl=1.
    All algorithms see the same CSIT draw (paired comparison). `pf_weights`
    optionally maps an algorithm name to its (L, K) weight array; weights
    only affect the joint-design algorithms. Returns
    {algorithm: (rates (L, K), solver_extras)} with rates evaluated on the
    true channels under all cells' simultaneous transmissions.
    """
    n_cells, _, n_users, n, _ = corr.shape
    perfect = cfg.csit_model == "perfect"
    if noise_over_pilot is None:
        # uplink trained at physical powers; convert to the normalized units
        noise_over_pilot = cfg.uplink_noise_over_pilot() * cfg.bs_power_mw() / cfg.noise_power_mw()
    csit = multicell_csit(corr, clusters, noise_over_pilot, rng, perfect)
    nr_noncoop = effective_noise_ratios(corr, noise_ratio_dl)
    nr_coop = effective_noise_ratios(corr, noise_ratio_dl, clusters)
    out = {}
    for alg in algorithms:
        extras = []
        w_alg = pf_weights.get(alg) if pf_weights else None
        if alg == "gpip-coop":
            precoders = np.zeros((n_cells, n_users, n), dtype=np.complex128)
            for cl in clusters:
                idx = np.ix_(cl, cl)
                known, _ = evaluation._known_cov(cfg, None if perfect else csit.err_cov[idx], n)
                pairs = coop.build_coop_pairs(
                    csit.est_h[idx], known, nr_coop[cl],
                )
                w = np.asarray([w_alg[l] for l in cl]) if w_alg is not None else None
                res = coop.gpip_coop(pairs, weights=w, tol=cfg.tol,
                                     max_iter=cfg.max_iter,
                                     select_threshold=cfg.sel_threshold)
                for pos, l in enumerate(cl):
                    precoders[l] = res.precoder[pos]
                extras.append(res)
            report = evaluation.true_sinr(csit.true_h, precoders, noise_ratio_dl)
            out[alg] = (report.rate, extras)
            continue
        if alg == "zf-dpc":
            rates = np.zeros((n_cells, n_users))
            for l in range(n_cells):
                nr_cell = float(np.mean(nr_noncoop[l]))
                _, _, rate = baselines.zf_dpc_waterfilling(csit.serving_estimates(l), nr_cell)
                rates[l, 0] = rate  # per-cell sum bound, stored on slot 0
            out[alg] = (rates, None)
            continue
        precoders = np.zeros((n_cells, n_users, n), dtype=np.complex128)
        for l in range(n_cells):
            est = csit.serving_estimates(l)
            cov = None if perfect else csit.serving_err_cov(l)
            known_cov, alphas = evaluation._known_cov(cfg, cov, n)
            f, extra = evaluation.design_precoders(
                alg, est, known_cov, nr_noncoop[l], cfg, alphas,
                w_alg[l] if (w_alg is not None and alg.startswith("gpip")) else None,
            )
            precoders[l] = f
            if extra is not None:
                extras.append(extra)
        report = evaluation.true_sinr(csit.true_h, precoders, noise_ratio_dl)
        out[alg] = (report.rate, extras or None)
    return out


def run_system_level(cfg: ExperimentConfig, out_dir=None) -> dict:
    """Hexagonal-layout campaign; returns {artifact_name: path}."""
    cfg.validate()
    if cfg.scenario != "system":
        raise ConfigInvalid("scenario: run_system_level needs scenario='system'")
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    clusters = consecutive_clusters(cfg.n_cells, cfg.n_coop)
    snr_db = cfg.bs_power_dbm - cfg.noise_power_dbm()

    per_user_rows = []
    per_drop_rows = []
    solver_rows = []
    coop_rows = []
    cdf_samples = {alg: [] for alg in cfg.algorithms}
    drop_means = {alg: [] for alg in cfg.algorithms}
    use_pf = cfg.weights == "pf"
    for d in range(cfg.n_drops):
        corr, _topo, _betas = system_correlations(
            cfg, trial_rng(cfg.seed, DOMAIN_SYSTEM_DROP, d)
        )
        acc = {alg: np.zeros((cfg.n_cells, cfg.n_users)) for alg in cfg.algorithms}
        pf_avg = (
            {alg: np.full((cfg.n_cells, cfg.n_users), 1e-3) for alg in cfg.algorithms}
            if use_pf else None
        )
        for b in range(cfg.n_blocks):
            rng = trial_rng(cfg.seed, DOMAIN_SYSTEM_BLOCK, d * cfg.n_blocks + b)
            pf_w = None
            if use_pf:
                pf_w = {
                    alg: np.stack([
                        evaluation.pf_weights(pf_avg[alg][l])
                        for l in range(cfg.n_cells)
                    ])
                    for alg in cfg.algorithms
                }
            results = multicell_block(cfg, corr, clusters, cfg.algorithms, rng, pf_w)
            for alg in cfg.algorithms:
                rates, extras = results[alg]
                acc[alg] += rates
                if use_pf:
                    pf_avg[alg] = evaluation.update_pf_averages(
                        pf_avg[alg], rates, cfg.pf_smoothing
                    )
                if extras:
                    for extra in extras:
                        row = [alg, d, b] + extra.csv_row(cfg.seed, snr_db)
                        if isinstance(extra, coop.CoopResult):
                            coop_rows.append(row)
                        else:
                            solver_rows.append(row)
        for alg in cfg.algorithms:
            block_avg = acc[alg] / cfg.n_blocks
            drop_means[alg].append(float(block_avg.sum(axis=1).mean()))
            per_drop_rows.append([alg, d, _fmt(drop_means[alg][-1])])
            if alg == "zf-dpc":
                continue
            for l in range(cfg.n_cells):
                for k in range(cfg.n_users):
                    per_user_rows.append([alg, d, l, k, _fmt(block_avg[l, k])])
                    cdf_samples[alg].append(float(block_avg[l, k]))

    paths = {}
    paths["manifest"] = out / "manifest.json"
    write_manifest(cfg, paths["manifest"])
    summary_rows = []
    for alg in cfg.algorithms:
        mean, half = monte_carlo_mean(np.asarray(drop_means[alg]))
        summary_rows.append([alg, _fmt(snr_db), cfg.n_drops, _fmt(mean), _fmt(half)])
    paths["summary"] = out / "summary.csv"
    _write_csv(
        paths["summary"],
        ["algorithm", "tx_snr_db", "n_drops", "mean_cell_sum_se", "ci_half_width"],
        summary_rows,
    )
    paths["per_drop"] = out / "per_drop.csv"
    _write_csv(paths["per_drop"], ["algorithm", "drop", "mean_cell_sum_se"], per_drop_rows)
    paths["per_user"] = out / "per_user.csv"
    _write_csv(paths["per_user"], ["algorithm", "drop", "cell", "user", "rate"], per_user_rows)
    for alg in cfg.algorithms:
        if alg == "zf-dpc":
            continue
        p = out / f"cdf_{alg}.csv"
        rows = []
        if cdf_samples[alg]:
            curve = evaluation.rate_cdf(cdf_samples[alg])
            rows = [[_fmt(v), _fmt(q)] for v, q in zip(curve.values, curve.quantiles)]
        _write_csv(p, ["rate", "quantile"], rows)
        paths[f"cdf_{alg}"] = p
    paths["solver"] = out / "solver.csv"
    _write_csv(
        paths["solver"],
        ["algorithm", "drop", "block"] + solver.GpipResult.csv_header(cfg.n_users),
        solver_rows,
    )
    if any(a == "gpip-coop" for a in cfg.algorithms):
        paths["solver_coop"] = out / "solver_coop.csv"
        _write_csv(
            paths["solver_coop"],
            ["algorithm", "drop", "block"] + coop.CoopResult.csv_header(cfg.n_coop, cfg.n_users),
            coop_rows,
        )
    return paths


def run(cfg: ExperimentConfig, out_dir=None) -> dict:
    """Dispatch on the configured scenario."""
    if cfg.scenario == "link":
        return run_link_level(cfg, out_dir)
    return run_system_level(cfg, out_dir)
