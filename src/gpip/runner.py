"""Campaign orchestration: configs in, CSV artifacts out.

Link-level campaigns sweep SNR over seeded single-cell fading blocks. System
campaigns drop users on a hexagonal layout, derive large-scale gains from the
path-loss and shadowing models, build uplink-trained CSIT with pilot reuse
outside each cooperation cluster, run the selected algorithms per fading
block, and aggregate true-channel rates.

A campaign maps its units (`link_unit`: an SNR and trial; `system_drop`: a
drop and its blocks) to table rows and folds them in unit order; the summary
and CDFs are computed from those rows. A unit reads what it runs (algorithms,
clusters, correlations) from the config alone. A drop's correlations are in
units of the downlink noise over transmit power, so its downlink noise ratio
is one and no statistic carries it. Units draw from their own
substreams (seed, domain, index), so artifacts are deterministic per
resolved config, and rows hold Python numbers only, which `csv` writes in
shortest repr form. `ergodic_sum_se` is the library's mean of the link units
at one operating point.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import channel, coop, evaluation, solver
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


def _validated(cfg: ExperimentConfig, scenario: str, caller: str) -> ExperimentConfig:
    """`cfg`, validated and checked to be a `scenario` config for `caller`."""
    cfg.validate()
    if cfg.scenario != scenario:
        raise ConfigInvalid(f"scenario: {caller} needs scenario='{scenario}'")
    return cfg


def _campaign_dir(cfg: ExperimentConfig, scenario: str, out_dir) -> Path:
    """Validate `cfg` for `scenario`, then create and return its output directory."""
    _validated(cfg, scenario, f"run_{scenario}_level")
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigInvalid(f"output_dir: cannot create {out} ({exc})") from exc
    return out


def _has_users(alg: str) -> bool:
    """False for zf-dpc, a sum-rate bound: no per-user rows, solver rows or CDF."""
    return alg != "zf-dpc"


def _fold(units) -> dict:
    """{table: rows} with each unit's rows of a table appended in unit order."""
    tables = {}
    for unit in units:
        for name, rows in unit.items():
            tables.setdefault(name, []).extend(rows)
    return tables


def _write_artifacts(out: Path, cfg: ExperimentConfig, tables) -> dict:
    """Write the manifest, one CSV per (name, header, rows) table and one rate
    CDF per algorithm from its per_user rows (rate last); returns {artifact_name: path}."""
    paths = {"manifest": out / "manifest.json"}
    write_manifest(cfg, paths["manifest"])
    for name, header, rows in tables:
        paths[name] = out / f"{name}.csv"
        _write_csv(paths[name], header, rows)
    per_user = next(rows for name, _, rows in tables if name == "per_user")
    for alg in filter(_has_users, cfg.algorithms):
        curve = evaluation.rate_cdf([row[-1] for row in per_user if row[0] == alg])
        paths[f"cdf_{alg}"] = out / f"cdf_{alg}.csv"
        _write_csv(paths[f"cdf_{alg}"], ["rate", "quantile"],
                   zip(curve.values.tolist(), curve.quantiles.tolist()))
    return paths


def link_unit(cfg: ExperimentConfig, stats: evaluation.LinkStatistics, index: int,
              metric: str = "true") -> dict:
    """The per_trial, per_user and solver rows of link unit `index`: trial t of
    SNR point p, where (p, t) = divmod(index, n_trials). Rates are `link_trial`'s
    under `metric`."""
    point, t = divmod(index, cfg.n_trials)
    snr = cfg.snr_db[point]
    with located(f"SNR {snr} dB, trial {t}, "):
        results = link_trial(cfg, snr, trial_rng(cfg.seed, DOMAIN_LINK_TRIAL, index), stats,
                             metric)
    rows = {"per_trial": [], "per_user": [], "solver": []}
    for alg in cfg.algorithms:
        rates, extra = results[alg]
        rows["per_trial"].append([alg, float(snr), t, float(rates.sum())])
        if _has_users(alg):
            rows["per_user"] += [[alg, float(snr), t, k, r] for k, r in enumerate(rates.tolist())]
        if extra is not None:
            rows["solver"].append([alg] + extra.csv_row(cfg.seed, snr))
    return rows


def run_link_level(cfg: ExperimentConfig, out_dir=None) -> dict:
    """Single-cell ergodic campaign; returns {artifact_name: path}."""
    out = _campaign_dir(cfg, "link", out_dir)
    stats = evaluation.link_statistics(cfg)
    tables = _fold(link_unit(cfg, stats, i) for i in range(len(cfg.snr_db) * cfg.n_trials))
    # per (SNR, algorithm): the mean sum rate and solver diagnostics of its rows
    header = ["algorithm"] + solver.GpipResult.csv_header(cfg.n_users)
    cols = [header.index(c) for c in ("SNR_dB", "iterations", "kkt_residual", "active_count")]
    points = {key: ([], []) for key in itertools.product(cfg.snr_db, cfg.algorithms)}
    for alg, snr, _, rate in tables["per_trial"]:
        points[snr, alg][0].append(rate)
    for row in tables["solver"]:
        points[row[cols[0]], row[0]][1].append([row[c] for c in cols[1:]])
    summary = [[alg, float(snr), cfg.n_trials, *monte_carlo_mean(sums),
                *([float(np.mean(c)) for c in zip(*solves)] or ["", "", ""])]
               for (snr, alg), (sums, solves) in points.items()]
    return _write_artifacts(out, cfg, [
        ("summary", ["algorithm", "snr_db", "n_trials", "mean_sum_se", "ci_half_width",
                     "mean_iterations", "mean_kkt_residual", "mean_active_count"], summary),
        ("per_trial", ["algorithm", "snr_db", "trial", "sum_rate"], tables["per_trial"]),
        ("per_user", ["algorithm", "snr_db", "trial", "user", "rate"], tables["per_user"]),
        ("solver", header, tables["solver"]),
    ])


def ergodic_sum_se(config: ExperimentConfig, algorithm: str,
                   metric: str = "true") -> tuple[float, float]:
    """Monte Carlo mean sum spectral efficiency with a 95% half-width.

    The mean of the sum_rate rows of `link_unit` t < `config.n_trials`, the
    trials at the operating point `config.snr_db[0]`, of the config with
    `algorithm` as its one algorithm: the number `summary.csv` reports for
    that point. The default metric averages true-channel rates;
    metric="estimated" averages the transmitter's own rate bounds instead.
    The config must be a valid link config; one that is not raises
    `ConfigInvalid` naming the field before any trial.
    """
    cfg = _validated(replace(config, algorithms=[algorithm]), "link", "ergodic_sum_se")
    stats = evaluation.link_statistics(cfg)
    return monte_carlo_mean([row[-1] for t in range(cfg.n_trials)
                             for row in link_unit(cfg, stats, t, metric)["per_trial"]])


# ---------------------------------------------------------------------------
# Multi-cell machinery
# ---------------------------------------------------------------------------


def consecutive_clusters(n_cells: int, cluster_size: int) -> list[list[int]]:
    """Fixed geographic clusters: consecutive grid indices, last may be short."""
    return [list(range(i, min(i + cluster_size, n_cells)))
            for i in range(0, n_cells, cluster_size)]


def system_correlations(cfg: ExperimentConfig, rng) -> np.ndarray:
    """One drop's per-link correlation matrices (L, L, K, N, N).

    Azimuths come from the true user geometry; large-scale gains combine the
    path-loss model with independent log-normal shadowing per link. Every
    correlation is expressed in units of the downlink noise power over the
    transmit power (its gain divided by that ratio), so the downlink noise
    ratio of every system drop and block is exactly one and matrix
    conditioning is independent of the absolute physical scales. Each
    serving BS's L*K links take one `one_ring_correlation` call.
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
    return corr


@dataclass(frozen=True)
class DropStatistics:
    """Everything second-order a drop fixes for all of its fading blocks.

    `known[j, l]` is the cluster layout: BS j and cell l share a cluster, so
    j trains on the pilots of all of l's users. `roots[j, l, k]` is the PSD
    root link (j, l, k)'s draw starts from: the root of the MMSE estimate
    covariance R - phi on a trained link under tdd, the root of R on every
    other link. `err_cov` and `err_roots` hold each BS's MMSE error
    covariances phi and their roots, indexed [BS j, position of the user's
    cell in j's cluster, user], as `channel.mmse_statistics` gives them for
    j's cluster (zero past a short cluster's end); `err_cov` is zero and
    `err_roots` None under perfect CSIT. `position[l]` is cell l's index in
    its cluster. `nr_cell` and `nr_coop` add the out-of-cell and
    out-of-cluster interference powers to the downlink noise ratio of one,
    giving every user's effective noise ratio for the per-cell and the
    cooperative designs. `known_cov` is `evaluation._known_cov` of `err_cov`
    under the campaign's `cov_knowledge`: zero under perfect CSIT or "none".
    `clusters` holds the cooperation clusters the pilots were assigned for,
    as lists of cell indices. Arrays are read-only: one drop's blocks share
    them.
    """

    roots: np.ndarray  # (L, L, K, N, N)
    known: np.ndarray  # (L, L) bool
    err_cov: np.ndarray  # (L, C, K, N, N)
    err_roots: np.ndarray | None  # (L, C, K, N, N)
    position: np.ndarray  # (L,)
    nr_cell: np.ndarray  # (L, K)
    nr_coop: np.ndarray  # (L, K)
    known_cov: np.ndarray  # (L, C, K, N, N)
    clusters: tuple


def drop_statistics(corr: np.ndarray, clusters, noise_over_pilot: float,
                    perfect: bool = False, cov_knowledge: str = "full") -> DropStatistics:
    """The DropStatistics of one drop's (L, L, K, N, N) correlation stack, in
    the units of `system_correlations`, where the downlink noise ratio is one.

    `clusters` must partition the L cells (else ValueError naming the cell);
    it is read once, into the mask `known`. `corr` is consumed and becomes
    `roots`: serving BS by serving BS, the correlations of the links drawn
    from their prior are replaced by their PSD roots (one batched
    `hermitian_sqrt` each) and, under tdd, those of the trained links by
    their estimate roots, so a drop never holds the correlations and the
    roots at once. One `channel.mmse_statistics` call per BS j gives its
    trained links, contaminated by the co-pilot stack `corr[j, ~known[j]]`
    as `multicell_csit` describes; their correlations are never rooted. Pass
    a copy to keep the correlations. `cov_knowledge` is applied once, here.
    Raises RankDeficient naming the cell when training leaves a BS no
    knowledge of its own users, and a failed MMSE solve names its cell too.
    """
    n_cells, _, _, n, _ = corr.shape
    cluster_of, position = np.full(n_cells, -1), np.empty(n_cells, dtype=np.intp)
    for i, cl in enumerate(clusters):
        for p, l in enumerate(cl):
            if not 0 <= l < n_cells:
                raise ValueError(f"clusters: cell {l} is outside 0..{n_cells - 1}")
            if cluster_of[l] >= 0:
                where = "listed twice" if cluster_of[l] == i else "in two clusters"
                raise ValueError(f"clusters: cell {l} is {where}")
            cluster_of[l], position[l] = i, p
    if (missing := np.flatnonzero(cluster_of < 0)).size:
        raise ValueError(f"clusters: cell {missing[0]} is in no cluster")
    known = cluster_of[:, None] == cluster_of  # (L, L): BS j trains on cell l's pilots
    traces = np.real(np.trace(corr, axis1=3, axis2=4))  # (L, L, K)
    size = max(len(cl) for cl in clusters)
    err_cov = np.zeros((n_cells, size, *corr.shape[2:]), dtype=np.complex128)
    err_roots = None if perfect else np.zeros_like(err_cov)
    for cl in clusters:
        for j in cl:
            if perfect:
                corr[j] = hermitian_sqrt(corr[j])
                continue
            with located(f"cell {j}: "):
                stats = channel.mmse_statistics(corr[j, cl], corr[j, ~known[j]], noise_over_pilot)
            if not stats.est_root[position[j]].any():
                raise RankDeficient(f"cell {j}: uplink training leaves every own-cell "
                                    f"estimate zero (noise over pilot {noise_over_pilot:g})")
            err_cov[j, :len(cl)], err_roots[j, :len(cl)] = stats.phi, stats.err_root
            corr[j, cl] = stats.est_root
            if not known[j].all():
                corr[j, ~known[j]] = hermitian_sqrt(corr[j, ~known[j]])
    known_cov = evaluation._known_cov(cov_knowledge, err_cov)
    nr_cell = 1.0 + np.einsum("jl,jlk->lk", ~np.eye(n_cells, dtype=bool), traces) / n
    nr_coop = 1.0 + np.einsum("jl,jlk->lk", ~known, traces) / n
    for a in (corr, known, err_cov, err_roots, position, nr_cell, nr_coop, known_cov):
        if a is not None:
            a.flags.writeable = False
    return DropStatistics(
        roots=corr, known=known, err_cov=err_cov, err_roots=err_roots, position=position,
        nr_cell=nr_cell, nr_coop=nr_coop, known_cov=known_cov,
        clusters=tuple(list(cl) for cl in clusters))


def multicell_csit(stats: DropStatistics, rng) -> tuple[np.ndarray, np.ndarray]:
    """Joint (true, estimate) draw for every link of one block.

    Both are (L, L, K, N) arrays indexed [bs, user_cell, user]; an estimate
    is zero on every link its BS has no pilots for (`~stats.known[:, l]` for
    cell l's users). BSs estimate links to every user of their own cluster
    from uplink pilots that are orthogonal inside the cluster and reused
    outside it, so the contaminating covariances for user (l, k) are the
    same-index users of all out-of-cluster cells. Links without pilots are
    drawn from their prior.
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
        known = stats.known[:, l]
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


def multicell_block(cfg: ExperimentConfig, stats: DropStatistics, rng, pf_weights=None) -> dict:
    """Run every algorithm of `cfg` on one fading block of a multi-cell drop.

    `stats` is the drop's `DropStatistics`: each cell designs from its own
    estimates, knowledge and effective noise ratios, each cluster from its
    members'. `pf_weights` optionally maps an algorithm name to its (L, K)
    weights. Returns `evaluation._block_rates` of the block's CSIT draw.
    """
    true_h, est_h = multicell_csit(stats, rng)
    cells = [(stats.known_cov[l, p], stats.nr_cell[l]) for l, p in enumerate(stats.position)]
    clusters = [(cl, stats.known_cov[cl, :len(cl)], stats.nr_coop[cl]) for cl in stats.clusters]
    return evaluation._block_rates(cfg, true_h, est_h, cells, 1.0, clusters, pf_weights)


def system_drop(cfg: ExperimentConfig, d: int) -> dict:
    """The per_drop, per_user, solver and solver_coop rows of drop `d`, whose
    fading blocks share its statistics and PF averages; rates are block means.
    The drop's pilots are assigned for `consecutive_clusters` of `n_coop` cells."""
    snr_db = cfg.bs_power_dbm - cfg.noise_power_dbm()
    use_pf = cfg.weights == "pf"
    # uplink noise over pilot energy in the noise-normalized units of
    # `system_correlations` (training runs at physical powers)
    noise_over_pilot = cfg.uplink_noise_over_pilot() * cfg.bs_power_mw() / cfg.noise_power_mw()
    with located(f"drop {d}, "):
        corr = system_correlations(cfg, trial_rng(cfg.seed, DOMAIN_SYSTEM_DROP, d))
        stats = drop_statistics(corr, consecutive_clusters(cfg.n_cells, cfg.n_coop),
                                noise_over_pilot,  # consumes corr
                                cfg.csit_model == "perfect", cfg.cov_knowledge)
    acc = {alg: np.zeros((cfg.n_cells, cfg.n_users)) for alg in cfg.algorithms}
    pf_avg = {alg: np.full((cfg.n_cells, cfg.n_users), evaluation.PF_FLOOR)
              for alg in cfg.algorithms}
    rows = {"per_drop": [], "per_user": [], "solver": [], "solver_coop": []}
    for b in range(cfg.n_blocks):
        rng = trial_rng(cfg.seed, DOMAIN_SYSTEM_BLOCK, d * cfg.n_blocks + b)
        pf_w = {alg: evaluation.pf_weights(t) for alg, t in pf_avg.items()} if use_pf else None
        with located(f"drop {d}, block {b}, "):
            results = multicell_block(cfg, stats, rng, pf_w)
        for alg in cfg.algorithms:
            rates, extras = results[alg]
            acc[alg] += rates
            if use_pf:
                pf_avg[alg] = evaluation.update_pf_averages(pf_avg[alg], rates, cfg.pf_smoothing)
            for extra in extras or []:
                if isinstance(extra, coop.CoopResult):
                    rows["solver_coop"].append(
                        [alg, d, b] + extra.csv_row(cfg.seed, snr_db, cfg.n_coop))
                else:
                    rows["solver"].append([alg, d, b] + extra.csv_row(cfg.seed, snr_db))
    for alg in cfg.algorithms:
        block_avg = acc[alg] / cfg.n_blocks
        rows["per_drop"].append([alg, d, float(block_avg.sum(axis=1).mean())])
        if _has_users(alg):
            rows["per_user"] += [[alg, d, l, k, float(r)] for (l, k), r in np.ndenumerate(block_avg)]
    return rows


def run_system_level(cfg: ExperimentConfig, out_dir=None) -> dict:
    """Hexagonal-layout campaign; returns {artifact_name: path}."""
    out = _campaign_dir(cfg, "system", out_dir)
    tables = _fold(system_drop(cfg, d) for d in range(cfg.n_drops))
    summary = [[alg, cfg.bs_power_dbm - cfg.noise_power_dbm(), cfg.n_drops,
                *monte_carlo_mean([m for a, _, m in tables["per_drop"] if a == alg])]
               for alg in cfg.algorithms]
    header = ["algorithm", "drop", "block"]
    artifacts = [
        ("summary", ["algorithm", "tx_snr_db", "n_drops", "mean_cell_sum_se", "ci_half_width"],
         summary),
        ("per_drop", ["algorithm", "drop", "mean_cell_sum_se"], tables["per_drop"]),
        ("per_user", ["algorithm", "drop", "cell", "user", "rate"], tables["per_user"]),
        ("solver", header + solver.GpipResult.csv_header(cfg.n_users), tables["solver"]),
    ]
    if "gpip-coop" in cfg.algorithms:
        artifacts.append(("solver_coop", header + coop.CoopResult.csv_header(
            cfg.n_coop, cfg.n_users), tables["solver_coop"]))
    return _write_artifacts(out, cfg, artifacts)


def run(cfg: ExperimentConfig, out_dir=None) -> dict:
    """Dispatch on the configured scenario."""
    if cfg.scenario == "link":
        return run_link_level(cfg, out_dir)
    return run_system_level(cfg, out_dir)
