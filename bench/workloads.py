"""The benchmark's workloads: campaign configs, seed pool and units of work.

The program only ever sees resolved configs. A workload is one or more
campaigns ("parts") of the same config with different seeds, taken from a
fixed pool, so every part's summary can be compared against a reference
recorded for that exact campaign. Long workloads are split into parts of a
few seconds each so that the machine-speed probe runs between them often.
"""

from __future__ import annotations

# Benchmark seed n is pool entry n mod POOL_SIZE; part j of entry i runs with
# campaign seed i + j * POOL_SIZE. Pool entries at or above HELD_OUT_FROM are
# held out: do not use them while writing a change, use them to re-check a
# claim afterwards.
POOL_SIZE = 32
HELD_OUT_FROM = 24

_LINK_SWEEP = {
    "scenario": "link",
    "n_antennas": 8,
    "n_users": 8,
    "snr_db": [0, 5, 10, 15, 20],
    "algorithms": ["gpip", "zf", "rzf", "sus-zf", "mrt", "zf-dpc"],
    "csit_model": "additive",
    "csit_error_var": 0.1,
    "cov_knowledge": "full",
    "n_trials": 20,
}

_LINK_WIDE = {
    "scenario": "link",
    "n_antennas": 32,
    "n_users": 32,
    "snr_db": [10],
    "algorithms": ["gpip", "gpip-covfree", "rzf"],
    "csit_model": "additive",
    "csit_error_var": 0.1,
    "cov_knowledge": "scalar",
    "n_trials": 2,
}

# Three blocks per drop: the 1444 one-ring correlations of a drop cost about
# as much as two to three blocks, so correlation setup is about 40% of the
# campaign, neither negligible nor dominant. Four parts of one drop each,
# because the mean SE of one drop moves by about 13% from drop to drop.
_SYSTEM_19CELL = {
    "scenario": "system",
    "n_antennas": 16,
    "n_users": 4,
    "n_cells": 19,
    "n_coop": 2,
    "algorithms": ["gpip", "gpip-coop", "rrzf", "sus-zf"],
    "csit_model": "tdd",
    "weights": "pf",
    "n_drops": 1,
    "n_blocks": 3,
}

# per-layer counters every workload must drive above zero when traced
TRACED_EVERYWHERE = (
    "solver.gpip_calls", "solver.kkt_ms", "numerics.solve_calls", "numerics.sqrt_calls",
    "channel.corr_calls", "channel.csit_calls", "runner.unit_ms_p50", "runner.drop_setup_ms",
    "runner.block_csit_ms", "runner.write_ms", "runner.self_ms", "evaluation.true_sinr_calls",
    "evaluation.design_self_ms", "baselines.calls", "config.load_ms",
)

# "variant" is the joint-design variant whose SE is reported as variant_se
WORKLOADS = {
    "link-sweep": {
        "config": _LINK_SWEEP,
        "parts": 1,
        "variant": "gpip",
        "must_trace": TRACED_EVERYWHERE,
    },
    "link-wide": {
        "config": _LINK_WIDE,
        # per-trial sweep counts vary by about 18%, so 16 trials per pass
        "parts": 8,
        "variant": "gpip-covfree",
        "must_trace": TRACED_EVERYWHERE + ("solver.covfree_calls", "numerics.rank1_calls"),
    },
    "system-19cell": {
        "config": _SYSTEM_19CELL,
        "parts": 4,
        "variant": "gpip-coop",
        "must_trace": TRACED_EVERYWHERE + ("coop.coop_calls", "coop.kkt_ms"),
    },
}


def pool_entry(seed: int) -> int:
    return seed % POOL_SIZE


def is_held_out(seed: int) -> bool:
    return pool_entry(seed) >= HELD_OUT_FROM


def campaign_configs(workload: str, seed: int) -> list[dict]:
    """The full config of every part of a workload for benchmark seed `seed`."""
    base = WORKLOADS[workload]["config"]
    return [dict(base, seed=pool_entry(seed) + j * POOL_SIZE)
            for j in range(WORKLOADS[workload]["parts"])]


def warmup_config(workload: str) -> dict:
    """A tiny campaign on the same code paths, run untimed before measuring."""
    cfg = dict(WORKLOADS[workload]["config"], seed=0, n_antennas=2, n_users=2)
    if cfg["scenario"] == "link":
        cfg.update(snr_db=[10], n_trials=1)
    else:
        cfg.update(n_cells=2, n_drops=1, n_blocks=1)
    return cfg


def units(cfg: dict) -> int:
    """Monte Carlo units of one campaign: (SNR, trial) pairs or fading blocks."""
    if cfg["scenario"] == "link":
        return len(cfg["snr_db"]) * cfg["n_trials"]
    return cfg["n_drops"] * cfg["n_blocks"]


def expected_artifacts(cfg: dict) -> list[str]:
    """Every file a campaign with this config must write."""
    names = ["manifest.json", "summary.csv", "per_user.csv", "solver.csv"]
    names.append("per_trial.csv" if cfg["scenario"] == "link" else "per_drop.csv")
    names += [f"cdf_{alg}.csv" for alg in cfg["algorithms"] if alg != "zf-dpc"]
    if "gpip-coop" in cfg["algorithms"]:
        names.append("solver_coop.csv")
    return sorted(names)
