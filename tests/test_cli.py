import csv
import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpip import channel, cli, coop, evaluation, runner, solver
from gpip.config import FIELD_RULES, ExperimentConfig, config_from_dict, load_config
from gpip.errors import ConfigInvalid, GpipError, NotPositiveDefinite, RankDeficient
from gpip.numerics import hermitian_sqrt


def minimal_link(**overrides):
    data = dict(
        scenario="link",
        n_antennas=2,
        n_users=2,
        algorithms=["mrt"],
        seed=7,
        snr_db=[10.0],
        n_trials=5,
    )
    data.update(overrides)
    return data


# a two-cell uplink-trained system, N=2 and K=1, for the decibel-field probes
SYSTEM_TDD = dict(scenario="system", n_cells=2, n_users=1, csit_model="tdd", algorithms=["gpip"])


class TestConfigValidation:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(minimal_link()))
        cfg = load_config(p)
        assert cfg.n_antennas == 2

    @pytest.mark.parametrize(
        "patch,field",
        [
            (dict(algorithms=[]), "algorithms"),
            (dict(algorithms=["nope"]), "algorithms"),
            (dict(n_antennas=0), "n_antennas"),
            (dict(n_users=0), "n_users"),
            (dict(snr_db=[]), "snr_db"),
            (dict(scenario="weird"), "scenario"),
            (dict(csit_model="psychic"), "csit_model"),
            (dict(cov_knowledge="vibes"), "cov_knowledge"),
            (dict(fdd_kappa=1.5), "fdd_kappa"),
            (dict(tol=-1.0), "tol"),
            (dict(n_trials=0), "n_trials"),
        ],
    )
    def test_field_level_messages(self, patch, field):
        with pytest.raises(ConfigInvalid) as err:
            config_from_dict(minimal_link(**patch))
        assert field in str(err.value)

    @pytest.mark.parametrize("key", ["scenario", "n_antennas", "n_users", "algorithms", "seed"])
    def test_required_key(self, key):
        data = minimal_link()
        del data[key]
        with pytest.raises(ConfigInvalid, match=f"^{key}: required key is missing$"):
            config_from_dict(data)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigInvalid) as err:
            config_from_dict(minimal_link(banana=1))
        assert "banana" in str(err.value)

    def test_system_coop_bounds(self):
        data = minimal_link(scenario="system", n_cells=2, n_coop=3)
        with pytest.raises(ConfigInvalid) as err:
            config_from_dict(data)
        assert "n_coop" in str(err.value)

    def test_coop_algorithm_needs_system_scenario(self):
        with pytest.raises(ConfigInvalid) as err:
            config_from_dict(minimal_link(algorithms=["gpip-coop"]))
        assert "gpip-coop" in str(err.value)

    def test_pf_weights_need_system_scenario(self):
        with pytest.raises(ConfigInvalid) as err:
            config_from_dict(minimal_link(weights="pf"))
        assert "weights" in str(err.value)

    def test_system_csit_restricted_to_uplink_models(self):
        data = minimal_link(scenario="system", n_cells=1, csit_model="fdd")
        with pytest.raises(ConfigInvalid) as err:
            config_from_dict(data)
        assert "csit_model" in str(err.value)

    @pytest.mark.parametrize(
        "patch,field",
        [
            # zero forcing serves every user: K > N leaves no null space
            (dict(n_antennas=4, n_users=8, algorithms=["gpip", "zf"]), "algorithms"),
            (dict(scenario="system", n_cells=2, n_antennas=4, n_users=8,
                  algorithms=["zf"]), "algorithms"),
            # below the path-loss model's range
            (dict(scenario="system", n_cells=7, n_users=30, inter_site_m=200.0,
                  min_distance_m=1.0, seed=0), "min_distance_m"),
            # no point of the hexagon is that far from its center
            (dict(scenario="system", n_cells=7, inter_site_m=60.0,
                  min_distance_m=40.0), "min_distance_m"),
            # physical fields outside their meaning, which fail mid-campaign or run
            # meaninglessly unless rejected up front
            (dict(csit_model="tdd", tdd_noise_over_pilot=-1.0), "tdd_noise_over_pilot"),
            (dict(csit_model="additive", csit_error_var=-0.5), "csit_error_var"),
            (dict(scenario="system", n_cells=1, bandwidth_hz=0.0), "bandwidth_hz"),
            (dict(scenario="system", n_cells=1, carrier_hz=0.0), "carrier_hz"),
            (dict(scenario="system", n_cells=1, csit_model="tdd", pilot_len=0), "pilot_len"),
            (dict(snr_db=[10.0, float("nan")]), "snr_db"),
            (dict(scenario="system", n_cells=1, weights="pf", pf_smoothing=2.0), "pf_smoothing"),
            (dict(algorithms=["gpip"], sel_threshold=-0.1), "sel_threshold"),
            (dict(algorithms=["sus-zf"], sus_alpha=-0.3), "sus_alpha"),
            # a non-finite sector has no quadrature node count
            (dict(angular_spread=float("nan")), "angular_spread"),
            (dict(scenario="system", n_cells=1, angular_spread=float("inf")), "angular_spread"),
            # json reads NaN and Infinity: each hung drop_users, ran every solve to
            # max_iter or raised mid-campaign after the output directory existed
            (dict(scenario="system", n_cells=1, min_distance_m=float("nan")), "min_distance_m"),
            (dict(tol=float("nan")), "tol"),
            (dict(scenario="system", n_cells=1, inter_site_m=float("nan")), "inter_site_m"),
            (dict(scenario="system", n_cells=1, inter_site_m=float("inf")), "inter_site_m"),
            (dict(scenario="system", n_cells=1, shadowing_db=float("nan")), "shadowing_db"),
            (dict(scenario="system", n_cells=1, noise_figure_db=float("nan")), "noise_figure_db"),
            (dict(scenario="system", n_cells=1, bs_power_dbm=float("inf")), "bs_power_dbm"),
            (dict(scenario="system", n_cells=1, carrier_hz=float("inf")), "carrier_hz"),
            (dict(scenario="system", n_cells=1, csit_model="tdd",
                  pilot_power_dbm=float("nan")), "pilot_power_dbm"),
            (dict(csit_model="additive", csit_error_var=float("inf")), "csit_error_var"),
            (dict(csit_model="tdd", tdd_noise_over_pilot=float("inf")), "tdd_noise_over_pilot"),
            # json reads integers of any size; beyond a float they overflow
            (dict(snr_db=[10**400]), "snr_db"),
            (dict(scenario="system", n_cells=1, bs_power_dbm=10**400), "bs_power_dbm"),
            # a negative scale or seed fails inside numpy
            (dict(scenario="system", n_cells=1, shadowing_db=-3.0), "shadowing_db"),
            (dict(seed=-1), "seed"),
            # a repeated algorithm doubled its summary rows but not its per-user rows
            (dict(algorithms=["gpip", "mrt", "gpip"]), "algorithms"),
            # finite decibel values whose linear value overflows or vanishes: each
            # crashed mid-campaign after the output directory existed
            (dict(algorithms=["gpip"], snr_db=[-4000]), "snr_db"),
            (dict(algorithms=["gpip"], snr_db=[4000]), "snr_db"),
            (dict(SYSTEM_TDD, bs_power_dbm=4000), "bs_power_dbm"),
            (dict(SYSTEM_TDD, noise_figure_db=4000), "noise_figure_db"),
            (dict(SYSTEM_TDD, bs_power_dbm=-4000), "bs_power_dbm"),
            (dict(SYSTEM_TDD, pilot_power_dbm=-4000), "pilot_power_dbm"),
            (dict(SYSTEM_TDD, bandwidth_hz=1e300), "bandwidth_hz"),
            # training this noisy left every estimate zero: gpip raised a misleading
            # error mid-campaign, mrt and rzf wrote NaN rates
            (dict(csit_model="tdd", algorithms=["gpip", "mrt", "rzf"],
                  tdd_noise_over_pilot=1e300), "tdd_noise_over_pilot"),
            # fewer symbols than n_coop * n_users: the in-cluster pilots the CSIT
            # model assumes orthogonal cannot be, yet the campaign ran to the end
            (dict(scenario="system", n_cells=4, n_coop=2, n_users=2, csit_model="tdd",
                  pilot_len=1), "pilot_len"),
            # a positive carrier this low overflowed the wavelength into an untyped
            # ValueError after the output directory existed
            (dict(scenario="system", n_cells=1, carrier_hz=1e-300), "carrier_hz"),
            # training this clean rounded the error covariances indefinite: link
            # statistics or gpip-covfree raised after the output directory existed
            (dict(csit_model="tdd", algorithms=["gpip", "gpip-covfree"],
                  tdd_noise_over_pilot=0.0), "tdd_noise_over_pilot"),
            (dict(csit_model="tdd", algorithms=["gpip", "gpip-covfree"],
                  tdd_noise_over_pilot=1e-11), "tdd_noise_over_pilot"),
            # so near the circumradius a drop almost never placed a user: it hung
            (dict(scenario="system", n_cells=7, min_distance_m=577.3), "min_distance_m"),
            # the tables key rows by SNR value: a repeated point would put two
            # different draws under one key
            (dict(snr_db=[10, 10.0]), "snr_db"),
        ],
    )
    def test_unrunnable_configs_rejected_before_any_output(self, tmp_path, patch, field):
        data = minimal_link(**patch)
        with pytest.raises(ConfigInvalid) as err:
            config_from_dict(data)
        assert str(err.value).startswith(f"{field}:")
        out = tmp_path / "out"
        with pytest.raises(ConfigInvalid):
            runner.run(ExperimentConfig(**data), out)
        assert not out.exists()
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(data))
        assert cli.main(["run", "--config", str(p), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "patch,message",
        [
            (dict(n_antennas=4.0), "n_antennas: must be an integer"),
            (dict(n_antennas=True), "n_antennas: must be an integer"),
            (dict(n_users=2.5), "n_users: must be an integer"),
            (dict(n_trials=1.5), "n_trials: must be an integer"),
            (dict(max_iter=2.5), "max_iter: must be an integer"),
            (dict(seed=True), "seed: must be an integer"),
            (dict(scenario="system", n_cells=1, pilot_len=2.0), "pilot_len: must be an integer"),
            (dict(snr_db=10), "snr_db: must be a list"),
            (dict(snr_db=[10, "20"]), "snr_db: every entry must be a number"),
            (dict(tol="0.01"), "tol: must be a number"),
            (dict(csit_error_var=False), "csit_error_var: must be a number"),
            (dict(algorithms="gpip"), "algorithms: must be a list"),
            (dict(output_dir=5), "output_dir: must be a string"),
        ],
    )
    def test_wrong_field_types_rejected_before_any_output(self, tmp_path, patch, message):
        data = minimal_link(**patch)
        with pytest.raises(ConfigInvalid, match=f"^{message}$"):
            config_from_dict(data)
        out = tmp_path / "out"
        with pytest.raises(ConfigInvalid, match=f"^{message}$"):
            runner.run(ExperimentConfig(**data), out)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(data))
        assert cli.main(["run", "--config", str(p), "--out", str(out)]) == 2
        assert not out.exists()

    def test_every_field_has_a_rule_or_is_structural(self):
        names = {f.name for f in dataclasses.fields(ExperimentConfig)}
        structural = {"scenario", "algorithms", "snr_db", "output_dir",
                      "csit_model", "cov_knowledge", "weights"}
        assert set(FIELD_RULES) <= names
        assert names - set(FIELD_RULES) <= structural

    def test_repeated_algorithm_message(self):
        with pytest.raises(ConfigInvalid, match="^algorithms: 'gpip' is listed twice$"):
            config_from_dict(minimal_link(algorithms=["gpip", "mrt", "gpip"]))

    @settings(max_examples=400, deadline=None)
    @given(
        name=st.sampled_from([f.name for f in dataclasses.fields(ExperimentConfig)]),
        value=st.sampled_from([float("nan"), float("inf"), float("-inf"), -1, 0, 0.5, 1e308,
                               True, "x", None, []]),
    )
    def test_one_odd_field_is_rejected_or_harmless(self, name, value):
        try:
            cfg = config_from_dict(minimal_link(**{name: value}))
        except ConfigInvalid:
            return
        resolved = cfg.resolved()
        entries = [v for x in resolved.values() for v in (x if isinstance(x, list) else [x])]
        assert all(math.isfinite(v) for v in entries if isinstance(v, (int, float)))
        assert cfg.seed >= 0

    def test_runners_reject_the_other_scenario(self, tmp_path):
        link = config_from_dict(minimal_link())
        system = config_from_dict(minimal_link(scenario="system", n_cells=1))
        with pytest.raises(ConfigInvalid, match=r"^scenario: run_link_level needs scenario='link'$"):
            runner.run_link_level(system, tmp_path / "a")
        with pytest.raises(ConfigInvalid,
                           match=r"^scenario: run_system_level needs scenario='system'$"):
            runner.run_system_level(link, tmp_path / "b")
        assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()

    def test_snr_conversion(self):
        cfg = config_from_dict(minimal_link(scenario="system", n_cells=1))
        # -174 dBm/Hz + 10log10(20 MHz) + 9 dB noise figure
        assert cfg.noise_power_dbm() == pytest.approx(-174 + 10 * np.log10(20e6) + 9)
        assert cfg.bs_power_mw() == pytest.approx(1e4)


class TestLinkRunner:
    def test_single_user_mrt_matches_oracle_row(self, tmp_path):
        cfg = config_from_dict(minimal_link(n_users=1, n_trials=8))
        paths = runner.run_link_level(cfg, tmp_path)
        mean, half = runner.ergodic_sum_se(cfg, "mrt")
        rows = Path(paths["summary"]).read_text().strip().split("\n")
        header = rows[0].split(",")
        vals = rows[1].split(",")
        row = dict(zip(header, vals))
        assert row["algorithm"] == "mrt"
        assert float(row["mean_sum_se"]) == pytest.approx(mean)
        assert float(row["ci_half_width"]) == pytest.approx(half)

    def test_ergodic_sum_se_is_the_summary_row_of_every_algorithm(self, tmp_path):
        # the library's number and summary.csv come from the same link units
        algorithms = ["gpip", "gpip-covfree", "rrzf", "sus-zf", "zf-dpc"]
        cfg = config_from_dict(minimal_link(
            n_antennas=3, n_users=3, algorithms=algorithms, csit_model="additive",
            csit_error_var=0.2, snr_db=[5.0, 15.0], n_trials=4,
        ))
        paths = runner.run_link_level(cfg, tmp_path)
        with open(paths["summary"], newline="") as fh:
            rows = [r for r in csv.DictReader(fh) if float(r["snr_db"]) == cfg.snr_db[0]]
        assert [r["algorithm"] for r in rows] == algorithms
        for row in rows:
            mean, half = runner.ergodic_sum_se(cfg, row["algorithm"])
            assert (float(row["mean_sum_se"]), float(row["ci_half_width"])) == (mean, half)

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_data = minimal_link(
            algorithms=["gpip", "mrt", "zf", "zf-dpc"], n_trials=4, snr_db=[0.0, 10.0]
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        runner.run_link_level(config_from_dict(cfg_data), out1)
        runner.run_link_level(config_from_dict(cfg_data), out2)
        for name in sorted(p.name for p in out1.iterdir()):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_manifest_rerun_reproduces_outputs(self, tmp_path):
        cfg = config_from_dict(minimal_link(algorithms=["gpip", "rzf"], n_trials=3))
        out1 = tmp_path / "first"
        paths = runner.run_link_level(cfg, out1)
        cfg2 = load_config(paths["manifest"])
        out2 = tmp_path / "second"
        runner.run_link_level(cfg2, out2)
        for name in sorted(p.name for p in out1.iterdir()):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_artifact_schema(self, tmp_path):
        cfg = config_from_dict(minimal_link(algorithms=["gpip", "mrt"], n_trials=3))
        paths = runner.run_link_level(cfg, tmp_path)
        assert set(paths) >= {"manifest", "summary", "per_user", "solver", "cdf_gpip", "cdf_mrt"}
        per_user = Path(paths["per_user"]).read_text().strip().split("\n")
        assert per_user[0] == "algorithm,snr_db,trial,user,rate"
        # one row per (algorithm, snr, trial, user)
        assert len(per_user) == 1 + 2 * 1 * 3 * 2
        solver_rows = Path(paths["solver"]).read_text().strip().split("\n")
        assert solver_rows[0].startswith("algorithm,seed,N,K,SNR_dB,iterations")
        assert len(solver_rows) == 1 + 3
        cdf = Path(paths["cdf_gpip"]).read_text().strip().split("\n")
        assert cdf[0] == "rate,quantile"
        vals = np.array([list(map(float, r.split(","))) for r in cdf[1:]])
        assert np.all(np.diff(vals[:, 0]) >= 0)

    @pytest.mark.parametrize("snr,error_var,max_iter,reason", [
        # error-free CSIT at high SNR oscillates instead of converging
        (60.0, 0.0, 5, "max_iter"),
        (10.0, 0.1, 100, "tol"),
    ])
    def test_solver_rows_report_how_each_solve_stopped(self, tmp_path, snr, error_var,
                                                       max_iter, reason):
        cfg = config_from_dict(minimal_link(
            n_antennas=4, n_users=4, algorithms=["gpip", "mrt"], snr_db=[snr],
            csit_model="additive", csit_error_var=error_var, max_iter=max_iter,
        ))
        paths = runner.run_link_level(cfg, tmp_path)
        with open(paths["solver"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0])[-1] == "stop_reason"
        assert len(rows) == cfg.n_trials
        assert all(r["algorithm"] == "gpip" and r["stop_reason"] == reason for r in rows)
        if reason == "max_iter":
            assert all(int(r["iterations"]) == max_iter for r in rows)

    def test_zf_dpc_is_a_bound_without_per_user_artifacts(self, tmp_path):
        cfg = config_from_dict(minimal_link(algorithms=["gpip", "zf-dpc"], n_trials=3))
        paths = runner.run_link_level(cfg, tmp_path)
        assert "cdf_zf-dpc" not in paths
        assert not (tmp_path / "cdf_zf-dpc.csv").exists()
        summary = Path(paths["summary"]).read_text().strip().split("\n")
        assert [r.split(",")[0] for r in summary[1:]] == ["gpip", "zf-dpc"]
        per_trial = Path(paths["per_trial"]).read_text().strip().split("\n")
        assert sum(r.startswith("zf-dpc,") for r in per_trial) == 3
        for name in ("per_user", "solver"):
            rows = Path(paths[name]).read_text().strip().split("\n")[1:]
            assert rows and all(r.startswith("gpip,") for r in rows), name

    @pytest.mark.parametrize("spread", [1e-6, 3.0])
    def test_cleanest_allowed_training_runs(self, tmp_path, spread):
        # the low end of tdd_noise_over_pilot, under a narrow and a wide
        # sector, for every algorithm a link campaign can run on tdd CSIT
        cfg = config_from_dict(minimal_link(
            n_antennas=4, n_users=3, csit_model="tdd", angular_spread=spread,
            tdd_noise_over_pilot=FIELD_RULES["tdd_noise_over_pilot"].low, snr_db=[0.0, 30.0],
            algorithms=["gpip", "gpip-covfree", "rzf", "rrzf", "mrt", "sus-zf", "zf-dpc"],
        ))
        assert cfg.tdd_noise_over_pilot == 1e-10
        paths = runner.run_link_level(cfg, tmp_path)
        rows = list(csv.DictReader(Path(paths["summary"]).read_text().splitlines()))
        assert len(rows) == 14
        assert all(math.isfinite(float(row["mean_sum_se"])) for row in rows)


class TestSystemRunner:
    def test_single_cell_system_uses_link_machinery(self, tmp_path):
        # same per-cell design path: a 1-cell system block with the system's
        # correlation matrices must reproduce the library's single-cell flow
        cfg = config_from_dict(
            minimal_link(
                scenario="system", n_cells=1, n_users=2, n_antennas=2,
                algorithms=["gpip"], n_drops=1, n_blocks=1, csit_model="tdd",
            )
        )
        corr = runner.system_correlations(
            cfg, evaluation.trial_rng(cfg.seed, runner.DOMAIN_SYSTEM_DROP, 0)
        )
        stats = system_drop_statistics(cfg, corr, [[0]])
        rng = evaluation.trial_rng(cfg.seed, runner.DOMAIN_SYSTEM_BLOCK, 0)
        results = runner.multicell_block(cfg, stats, rng)
        rates, _ = results["gpip"]

        # rebuild by hand in the same noise-normalized units
        rng2 = evaluation.trial_rng(cfg.seed, runner.DOMAIN_SYSTEM_BLOCK, 0)
        nr = 1.0
        true_h, est_h = runner.multicell_csit(stats, rng2)
        from gpip import solver as slv

        pairs = slv.build_effective_pairs(est_h[0, 0], stats.err_cov[0, 0], nr)
        res = slv.gpip_iterate(pairs, tol=cfg.tol, max_iter=cfg.max_iter)
        report = evaluation.true_sinr(true_h, res.precoder[None], nr)
        np.testing.assert_allclose(rates, report.rate, atol=1e-12)

    def test_coop_degeneration_single_cluster_of_one(self, tmp_path):
        cfg = config_from_dict(
            minimal_link(
                scenario="system", n_cells=2, n_coop=1, n_users=2, n_antennas=2,
                algorithms=["gpip", "gpip-coop"], n_drops=1, n_blocks=1,
                csit_model="tdd",
            )
        )
        corr = runner.system_correlations(
            cfg, evaluation.trial_rng(cfg.seed, runner.DOMAIN_SYSTEM_DROP, 0)
        )
        stats = system_drop_statistics(cfg, corr, runner.consecutive_clusters(2, 1))
        rng = evaluation.trial_rng(cfg.seed, runner.DOMAIN_SYSTEM_BLOCK, 0)
        results = runner.multicell_block(cfg, stats, rng)
        np.testing.assert_allclose(
            results["gpip"][0], results["gpip-coop"][0], atol=1e-10
        )

    def test_system_run_writes_artifacts_and_is_deterministic(self, tmp_path):
        cfg_data = minimal_link(
            scenario="system", n_cells=2, n_coop=2, n_users=2, n_antennas=2,
            algorithms=["gpip", "gpip-coop", "rrzf"], n_drops=2, n_blocks=2,
            csit_model="tdd",
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        runner.run_system_level(config_from_dict(cfg_data), out1)
        runner.run_system_level(config_from_dict(cfg_data), out2)
        names = sorted(p.name for p in out1.iterdir())
        assert "summary.csv" in names and "solver_coop.csv" in names
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_short_cluster_rows_are_as_wide_as_the_header(self, tmp_path):
        # three cells in clusters of two leave cell 2 in a cluster of one
        cfg = config_from_dict(minimal_link(
            scenario="system", n_cells=3, n_coop=2, n_users=2, n_antennas=2,
            algorithms=["gpip-coop"], n_drops=1, n_blocks=2, csit_model="tdd",
        ))
        runner.run_system_level(cfg, tmp_path)
        with open(tmp_path / "solver_coop.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert len(rows) == 4
        assert all(len(row) == len(header) for row in rows)
        with open(tmp_path / "solver_coop.csv", newline="") as fh:
            records = list(csv.DictReader(fh))
        for rec in records:
            assert rec["stop_reason"] in ("tol", "max_iter")
            assert int(rec["objective_decreases"]) >= 0
        short = [rec for rec in records if rec["cell1_norm"] == ""]
        assert len(short) == 2
        assert all(rec[f"cell1_power_{k}"] == "" for rec in short for k in range(2))

    @pytest.mark.parametrize("algorithms", [["gpip", "zf-dpc", "mrt"],
                                            ["gpip-coop", "zf-dpc", "rrzf"]])
    def test_system_artifact_set(self, tmp_path, algorithms):
        cfg = config_from_dict(
            minimal_link(
                scenario="system", n_cells=2, n_coop=2, algorithms=algorithms,
                n_drops=1, n_blocks=1, csit_model="tdd",
            )
        )
        paths = runner.run_system_level(cfg, tmp_path)
        expected = {"manifest", "summary", "per_drop", "per_user", "solver"}
        expected |= {f"cdf_{alg}" for alg in algorithms if alg != "zf-dpc"}
        if "gpip-coop" in algorithms:
            expected.add("solver_coop")
        assert set(paths) == expected
        assert {p.name for p in tmp_path.iterdir()} == {Path(p).name for p in paths.values()}

    def test_baselines_accept_per_user_effective_noise(self, tmp_path):
        # per-user effective noise must reduce to one scalar for the one-shot
        # baselines regardless of the antenna/user shape
        cfg = config_from_dict(
            minimal_link(
                scenario="system", n_cells=2, n_users=3, n_antennas=8,
                algorithms=["rrzf", "sus-zf", "rank-zf", "rzf"],
                n_drops=1, n_blocks=1, csit_model="tdd",
            )
        )
        corr = runner.system_correlations(
            cfg, evaluation.trial_rng(cfg.seed, runner.DOMAIN_SYSTEM_DROP, 0)
        )
        stats = system_drop_statistics(cfg, corr, [[0], [1]])
        rng = evaluation.trial_rng(cfg.seed, runner.DOMAIN_SYSTEM_BLOCK, 0)
        results = runner.multicell_block(cfg, stats, rng)
        for alg in cfg.algorithms:
            rates, _ = results[alg]
            assert np.all(np.isfinite(rates)) and rates.shape == (2, 3)

    @pytest.mark.parametrize("knowledge", ["full", "scalar", "none"])
    def test_every_knowledge_setting_runs_and_reruns_byte_identical(self, tmp_path, knowledge):
        cfg_data = minimal_link(
            scenario="system", n_cells=3, n_coop=2, n_users=2, n_antennas=2,
            algorithms=["gpip", "gpip-covfree", "gpip-coop", "rrzf"], n_drops=1, n_blocks=2,
            csit_model="tdd", cov_knowledge=knowledge,
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        runner.run_system_level(config_from_dict(cfg_data), out1)
        runner.run_system_level(config_from_dict(cfg_data), out2)
        names = sorted(p.name for p in out1.iterdir())
        assert "solver_coop.csv" in names
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    @pytest.mark.parametrize("knowledge", ["full", "scalar"])
    def test_covfree_runs_with_pilots_far_above_the_noise(self, tmp_path, knowledge):
        # an MMSE error trace formed by a subtraction rounds slightly negative
        # here; gpip-covfree raised an untyped ValueError after the output
        # directory existed
        cfg = config_from_dict(dict(
            scenario="system", n_antennas=4, n_users=4, n_cells=3, n_coop=3,
            algorithms=["gpip-covfree"], csit_model="tdd", pilot_power_dbm=100,
            shadowing_db=40.0, n_drops=1, n_blocks=1, seed=36, cov_knowledge=knowledge,
        ))
        paths = runner.run_system_level(cfg, tmp_path)
        assert set(paths) == {"manifest", "summary", "per_drop", "per_user", "solver",
                              "cdf_gpip-covfree"}
        assert {p.name for p in tmp_path.iterdir()} == {Path(p).name for p in paths.values()}

    def test_covfree_designs_at_the_levels_of_each_cells_scalar_knowledge(self):
        cfg = config_from_dict(minimal_link(
            scenario="system", n_cells=3, n_coop=2, n_users=2, n_antennas=4,
            algorithms=["gpip-covfree"], n_drops=1, n_blocks=1, csit_model="tdd",
            cov_knowledge="scalar",
        ))
        corr = runner.system_correlations(
            cfg, evaluation.trial_rng(cfg.seed, runner.DOMAIN_SYSTEM_DROP, 0))
        stats = system_drop_statistics(cfg, corr, runner.consecutive_clusters(3, 2))
        block = (cfg.seed, runner.DOMAIN_SYSTEM_BLOCK, 0)
        _, extras = runner.multicell_block(cfg, stats,
                                           evaluation.trial_rng(*block))["gpip-covfree"]
        _, est_h = runner.multicell_csit(stats, evaluation.trial_rng(*block))
        assert len(extras) == cfg.n_cells
        for l, p in enumerate(stats.position):
            # with N a power of two, tr(alpha I) / N reads alpha back exactly
            levels = np.diagonal(stats.known_cov[l, p], axis1=1, axis2=2).real[:, 0]
            assert levels.any()
            pairs = solver.build_effective_pairs(
                est_h[l, l], levels[:, None, None] * np.eye(cfg.n_antennas), stats.nr_cell[l])
            ref = solver.gpip_covfree(pairs, tol=cfg.tol, max_iter=cfg.max_iter,
                                      select_threshold=cfg.sel_threshold)
            assert np.array_equal(extras[l].precoder, ref.precoder)

    def test_known_covariances_derived_once_per_drop(self, tmp_path, monkeypatch):
        calls = []
        known_cov = evaluation._known_cov

        def counted(*args):
            calls.append(args[0])
            return known_cov(*args)

        monkeypatch.setattr(evaluation, "_known_cov", counted)
        cfg = config_from_dict(
            minimal_link(
                scenario="system", n_cells=3, n_coop=3, n_users=2, n_antennas=2,
                algorithms=["gpip", "gpip-coop", "rrzf"], n_drops=2, n_blocks=3,
                csit_model="tdd", cov_knowledge="scalar",
            )
        )
        runner.run_system_level(cfg, tmp_path)
        assert calls == ["scalar", "scalar"]

    def test_pf_weights_flow(self, tmp_path):
        cfg = config_from_dict(
            minimal_link(
                scenario="system", n_cells=1, n_users=3, n_antennas=2,
                algorithms=["gpip"], n_drops=1, n_blocks=3, weights="pf",
                csit_model="tdd",
            )
        )
        paths = runner.run_system_level(cfg, tmp_path)
        rows = Path(paths["per_user"]).read_text().strip().split("\n")
        assert len(rows) == 1 + 3


def system_drop_statistics(cfg, corr, clusters):
    """The system runner's DropStatistics of a copy of `corr`."""
    noise_over_pilot = cfg.uplink_noise_over_pilot() * cfg.bs_power_mw() / cfg.noise_power_mw()
    return runner.drop_statistics(corr.copy(), clusters, noise_over_pilot,
                                  cfg.csit_model == "perfect", cfg.cov_knowledge)


def per_link_csit_reference(corr, clusters, noise_over_pilot, rng, perfect):
    """multicell_csit as a per-link loop that derives every statistic per call."""
    n_cells, _, n_users, n, _ = corr.shape
    cluster_of = {l: cl for cl in clusters for l in cl}
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
                        h = channel.sample_channel(hermitian_sqrt(corr[j, l, k]), rng)
                        true_h[j, l, k], est_h[j, l, k] = h, h
                    else:
                        interferers = [corr[j, lp, k] for lp in copilot]
                        stats = channel.mmse_statistics(corr[j, l, k], interferers,
                                                        noise_over_pilot)
                        h, hhat = channel.mmse_csit_tdd(stats.est_root, stats.err_root, rng)
                        true_h[j, l, k], est_h[j, l, k], err_cov[j, l, k] = h, hhat, stats.phi
                    known[j, l, k] = True
                else:
                    true_h[j, l, k] = channel.sample_channel(hermitian_sqrt(corr[j, l, k]), rng)
    return true_h, est_h, err_cov, known


def effective_noise_reference(corr, noise_ratio_dl, clusters=None):
    """Receiver noise plus the isotropic out-of-cluster interference, per link."""
    n_cells, _, n_users, n, _ = corr.shape
    out = np.full((n_cells, n_users), noise_ratio_dl)
    for l, k in np.ndindex(n_cells, n_users):
        inside = next((cl for cl in clusters if l in cl), [l]) if clusters else [l]
        out[l, k] += sum(np.trace(corr[j, l, k]).real for j in range(n_cells)
                         if j not in inside) / n
    return out


def random_correlations(rng, n_cells, n_users, n):
    """PSD links of random rank and gains over four decades."""
    corr = np.empty((n_cells, n_cells, n_users, n, n), dtype=np.complex128)
    for idx in np.ndindex(n_cells, n_cells, n_users):
        shape = (n, int(rng.integers(1, n + 1)))
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        corr[idx] = 10.0 ** rng.uniform(-2, 2) * (a @ a.conj().T) / n
    return corr


class TestDropStatistics:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 4), st.integers(1, 3), st.integers(1, 4),
           st.integers(1, 3), st.booleans())
    def test_draw_equals_per_link_loop(self, seed, n_cells, n_users, n, n_coop, perfect):
        rng = np.random.default_rng(seed)
        corr = random_correlations(rng, n_cells, n_users, n)
        clusters = runner.consecutive_clusters(n_cells, min(n_coop, n_cells))
        noise = float(rng.uniform(0.01, 1.0))
        stats = runner.drop_statistics(corr.copy(), clusters, noise, perfect)
        for nr, cl in ((stats.nr_cell, None), (stats.nr_coop, clusters)):
            np.testing.assert_allclose(nr, effective_noise_reference(corr, 1.0, cl), rtol=1e-13)
        for block in range(2):
            ref = per_link_csit_reference(corr, clusters, noise,
                                          np.random.default_rng([seed, block]), perfect)
            drawn = runner.multicell_csit(stats, np.random.default_rng([seed, block]))
            got_err_cov = np.zeros_like(corr)
            for cl in clusters:
                # [BS, position in its cluster] back to [BS, user cell]
                got_err_cov[np.ix_(cl, cl)] = stats.err_cov[cl, :len(cl)]
                assert not stats.err_cov[cl, len(cl):].any()
            for got, want in zip((*drawn, got_err_cov, stats.known), ref):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("perfect", [False, True])
    def test_layout(self, perfect):
        corr = random_correlations(np.random.default_rng(1), 5, 2, 3)
        stats = runner.drop_statistics(corr, runner.consecutive_clusters(5, 2), 0.2, perfect)
        assert np.all(np.isfinite(stats.roots))
        assert stats.err_cov.shape == (5, 2, 2, 3, 3)
        assert (stats.err_roots is None) == perfect
        assert stats.position.tolist() == [0, 1, 0, 1, 0]

    def test_statistics_are_read_only(self):
        corr = random_correlations(np.random.default_rng(0), 3, 2, 2)
        stats = runner.drop_statistics(corr, [[0, 1], [2]], 0.1)
        for a in (stats.roots, stats.err_cov, stats.err_roots, stats.nr_cell, stats.nr_coop):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 1.0

    @pytest.mark.parametrize("knowledge", ["full", "scalar", "none"])
    @pytest.mark.parametrize("perfect", [False, True])
    def test_knowledge_is_fixed_when_built(self, knowledge, perfect):
        corr = random_correlations(np.random.default_rng(0), 3, 2, 2)
        stats = runner.drop_statistics(corr, [[0, 1], [2]], 0.1, perfect, knowledge)
        want = evaluation._known_cov(knowledge, stats.err_cov)
        if perfect or knowledge == "none":
            assert not stats.known_cov.any()
        if knowledge == "full":
            assert stats.known_cov is stats.err_cov
        np.testing.assert_array_equal(stats.known_cov, want)
        assert not stats.known_cov.flags.writeable

    def test_unknown_knowledge_fails_when_built(self):
        corr = random_correlations(np.random.default_rng(0), 2, 1, 2)
        with pytest.raises(ConfigInvalid, match="^cov_knowledge: "):
            runner.drop_statistics(corr, [[0], [1]], 0.1, cov_knowledge="vibes")


class TestStackedBlockDraws:
    @pytest.mark.parametrize("perfect", [False, True])
    def test_roots_only_for_links_drawn_from_their_prior(self, monkeypatch, perfect):
        rooted = []
        sqrt = runner.hermitian_sqrt

        def counted(m):
            rooted.append(np.asarray(m).reshape(-1, *np.shape(m)[-2:]).copy())
            return sqrt(m)

        monkeypatch.setattr(runner, "hermitian_sqrt", counted)
        corr = random_correlations(np.random.default_rng(3), 5, 2, 3)
        clusters = runner.consecutive_clusters(5, 2)
        stats = runner.drop_statistics(corr.copy(), clusters, 0.2, perfect)
        rooted = np.concatenate(rooted)
        prior = np.ones(stats.known.shape, dtype=bool) if perfect else ~stats.known
        assert len(rooted) == np.count_nonzero(prior)
        assert {m.tobytes() for m in rooted} == {m.tobytes() for m in corr[prior]}

    @pytest.mark.parametrize("perfect", [False, True])
    def test_one_csit_call_per_run_of_equal_knowledge(self, monkeypatch, perfect):
        cfg = config_from_dict(minimal_link(
            scenario="system", n_cells=7, n_coop=2, n_users=2, n_antennas=2,
            algorithms=["gpip"], n_drops=1, n_blocks=1, csit_model="tdd",
        ))
        corr = runner.system_correlations(cfg, np.random.default_rng(0))
        clusters = runner.consecutive_clusters(7, 2)
        stats = runner.drop_statistics(corr, clusters, 0.1, perfect)
        calls = []
        for name in ("sample_channel", "mmse_csit_tdd"):
            def counted(*args, _name=name, _fn=getattr(channel, name), **kwargs):
                out = _fn(*args, **kwargs)
                calls.append((_name, len(out[0] if isinstance(out, tuple) else out)))
                return out
            monkeypatch.setattr(channel, name, counted)
        runner.multicell_csit(stats, np.random.default_rng(1))

        cluster_of = {l: cl for cl in clusters for l in cl}
        expected = []
        for l, _k in itertools.product(range(7), range(2)):
            for trained, run in itertools.groupby(range(7), key=lambda j: j in cluster_of[l]):
                name = "mmse_csit_tdd" if trained and not perfect else "sample_channel"
                expected.append((name, len(list(run))))
        assert calls == expected
        assert len(calls) == 18 * 2  # cells 0, 1, 6 have two runs, cells 2 to 5 three


class TestUnitErrors:
    def test_link_error_names_snr_trial_and_algorithm(self, tmp_path, monkeypatch):
        def fail(alg, *args, **kwargs):
            raise NotPositiveDefinite("pivot 0.0 at column 1")

        monkeypatch.setattr(evaluation, "design_precoders", fail)
        cfg = config_from_dict(minimal_link(algorithms=["gpip"], snr_db=[5.0]))
        with pytest.raises(NotPositiveDefinite,
                           match=r"^SNR 5\.0 dB, trial 0, algorithm gpip: pivot 0\.0 at column 1$"):
            runner.run_link_level(cfg, tmp_path)

    def test_ergodic_error_names_snr_trial_and_algorithm(self, monkeypatch):
        def fail(alg, *args, **kwargs):
            raise NotPositiveDefinite("pivot 0.0 at column 1")

        monkeypatch.setattr(evaluation, "design_precoders", fail)
        cfg = config_from_dict(minimal_link(algorithms=["gpip"], snr_db=[5.0]))
        with pytest.raises(NotPositiveDefinite,
                           match=r"^SNR 5\.0 dB, trial 0, algorithm gpip: pivot 0\.0 at column 1$"):
            runner.ergodic_sum_se(cfg, "gpip")

    def test_system_error_names_drop_block_and_algorithm(self, tmp_path, monkeypatch):
        def fail(pairs, **kwargs):
            raise RankDeficient("cluster channel has rank 1")

        monkeypatch.setattr(coop, "gpip_coop", fail)
        cfg = config_from_dict(minimal_link(
            scenario="system", n_cells=2, n_coop=2, algorithms=["mrt", "gpip-coop"],
            n_drops=1, n_blocks=1, csit_model="tdd",
        ))
        with pytest.raises(RankDeficient, match=r"^drop 0, block 0, algorithm gpip-coop: "
                                                r"cluster channel has rank 1$"):
            runner.run_system_level(cfg, tmp_path)

    def test_broken_down_solve_names_its_unit(self, tmp_path, monkeypatch):
        # a Bbar solve that returns a non-finite stack is a typed error naming its
        # unit, not a division warning, and leaves no artifact behind
        def nan_blocks(self, d, rhs, solve):
            return np.full_like(rhs, np.nan)

        monkeypatch.setattr(solver._ClusterProblem, "cholesky_blocks", nan_blocks)
        cfg = config_from_dict(minimal_link(algorithms=["gpip"], snr_db=[10], n_trials=1))
        with pytest.raises(NotPositiveDefinite,
                           match=r"^SNR 10 dB, trial 0, algorithm gpip: sweep 1: "):
            runner.run_link_level(cfg, tmp_path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 7])
    def test_perfect_knowledge_at_100_db_writes_finite_artifacts(self, tmp_path, seed):
        # N = K = 32 at 100 dB spans hundreds of bits of objective: the sweep's
        # weights used to share one scale, so the Bbar solve overflowed at sweep 2
        cfg = config_from_dict(minimal_link(
            n_antennas=32, n_users=32, algorithms=["gpip", "gpip-covfree"], snr_db=[100],
            n_trials=1, max_iter=10, seed=seed,
        ))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            paths = runner.run_link_level(cfg, tmp_path)
        assert set(paths) == {"manifest", "summary", "per_trial", "per_user", "solver",
                              "cdf_gpip", "cdf_gpip-covfree"}
        solver_rows = list(csv.DictReader(paths["solver"].read_text().splitlines()))
        assert [row["algorithm"] for row in solver_rows] == ["gpip", "gpip-covfree"]
        for name, path in paths.items():
            if path.suffix != ".csv":
                continue
            for row in csv.DictReader(path.read_text().splitlines()):
                # one trial has no confidence interval: its half-width is inf by design
                values = [v for col, v in row.items() if col != "ci_half_width"]
                assert not {v.lower() for v in values} & {"nan", "inf", "-inf"}, name

    def test_singular_cluster_at_wide_dynamic_range_is_typed(self, tmp_path):
        # 100 dBm under 40 dB shadowing: a user's B-side quadratic form used to
        # cancel to zero and divide by zero; the shared block is singular in
        # double precision, so a typed pivot error naming the unit is the outcome
        cfg = config_from_dict(dict(
            scenario="system", n_antennas=2, n_users=4, n_cells=6, n_coop=6,
            algorithms=["gpip-coop"], csit_model="perfect", bs_power_dbm=100,
            shadowing_db=40.0, n_drops=1, n_blocks=1, seed=879,
        ))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotPositiveDefinite,
                               match=r"^drop 0, block 0, algorithm gpip-coop: "):
                runner.run_system_level(cfg, tmp_path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("seed, algorithm", [(4, "zf"), (1, "sus-zf")])
    def test_zero_forcing_at_wide_dynamic_range_writes_artifacts(self, tmp_path, seed,
                                                                  algorithm):
        # 100 dBm under 40 dB shadowing: the zero-forcing pivot test used to compare
        # every user to the strongest one and reject rows six decades weaker
        cfg = config_from_dict(dict(
            scenario="system", n_antennas=4, n_users=4, n_cells=7, n_coop=1,
            algorithms=[algorithm], csit_model="perfect", bs_power_dbm=100,
            shadowing_db=40.0, n_drops=1, n_blocks=1, seed=seed,
        ))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            paths = runner.run_system_level(cfg, tmp_path)
        assert set(paths) == {"manifest", "summary", "per_drop", "per_user", "solver",
                              f"cdf_{algorithm}"}
        assert all(path.stat().st_size > 0 for path in paths.values())

    def test_failed_drop_setup_names_its_cell(self, tmp_path):
        # pilots 100 dB above the noise under 40 dB shadowing: a BS's MMSE
        # solve meets a pivot below threshold, which named only the drop
        cfg = config_from_dict(dict(
            scenario="system", n_antennas=3, n_users=4, n_cells=3, n_coop=3,
            algorithms=["mrt"], csit_model="tdd", pilot_power_dbm=100, shadowing_db=40.0,
            angular_spread=1e-6, n_drops=1, n_blocks=1, seed=838,
        ))
        with pytest.raises(NotPositiveDefinite, match=r"^drop 0, cell \d+: "):
            runner.run_system_level(cfg, tmp_path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("algorithm", ["gpip", "mrt", "rrzf"])
    def test_training_without_knowledge_fails_before_any_artifact(self, tmp_path, algorithm):
        # pilots this far below the noise leave every estimate exactly zero: gpip
        # raised a misleading init error, mrt and rrzf wrote a NaN summary
        cfg = config_from_dict(minimal_link(
            **dict(SYSTEM_TDD, algorithms=[algorithm]), pilot_power_dbm=-100.0,
            noise_figure_db=100.0, n_drops=1, n_blocks=1,
        ))
        with pytest.raises(RankDeficient, match=r"^drop 0, cell \d+: "):
            runner.run_system_level(cfg, tmp_path)
        assert list(tmp_path.iterdir()) == []


FOLD_LINK = minimal_link(algorithms=["gpip", "zf-dpc", "mrt"], snr_db=[0, 10.5], n_trials=3)
FOLD_SYSTEM = minimal_link(scenario="system", n_cells=3, n_coop=2, csit_model="tdd", weights="pf",
                           algorithms=["gpip", "gpip-coop", "zf-dpc"], n_drops=3, n_blocks=2)


def assert_same_artifacts(a, b):
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestCampaignFold:
    """A campaign maps its units to rows and folds them in unit order; the rows
    hold Python numbers, so numpy's print options cannot reach the artifacts."""

    @pytest.mark.parametrize("data", [FOLD_LINK, FOLD_SYSTEM], ids=["link", "system"])
    def test_units_computed_in_reverse_fold_to_the_same_artifacts(self, tmp_path, monkeypatch,
                                                                  data):
        cfg = config_from_dict(data)
        runner.run(cfg, tmp_path / "normal")
        if cfg.scenario == "link":
            stats = evaluation.link_statistics(cfg)
            indices = range(len(cfg.snr_db) * cfg.n_trials)
            units = {i: runner.link_unit(cfg, stats, i) for i in reversed(indices)}
            name, unit = "link_unit", lambda cfg, _, i: calls.append(i) or units[i]
        else:
            indices = range(cfg.n_drops)
            units = {d: runner.system_drop(cfg, d) for d in reversed(indices)}
            name, unit = "system_drop", lambda cfg, d: calls.append(d) or units[d]
        calls = []
        monkeypatch.setattr(runner, name, unit)
        runner.run(cfg, tmp_path / "folded")
        assert calls == list(indices)
        assert_same_artifacts(tmp_path / "normal", tmp_path / "folded")

    def test_artifacts_ignore_numpy_print_options(self, tmp_path):
        for data in (FOLD_LINK, FOLD_SYSTEM):
            cfg = config_from_dict(data)
            default, legacy = tmp_path / f"{cfg.scenario}-a", tmp_path / f"{cfg.scenario}-b"
            runner.run(cfg, default)
            saved = np.get_printoptions()
            try:
                np.set_printoptions(legacy="1.13")
                runner.run(cfg, legacy)
            finally:
                np.set_printoptions(**saved)
            assert_same_artifacts(default, legacy)
        assert (tmp_path / "system-b" / "solver_coop.csv").is_file()

    def test_solver_rows_hold_python_numbers_and_strings(self):
        rng = np.random.default_rng(4)
        est = rng.standard_normal((2, 2, 3, 2)) + 1j * rng.standard_normal((2, 2, 3, 2))
        single = solver.gpip_iterate(solver.build_effective_pairs(est[0, 0], None, 0.5))
        cluster = coop.gpip_coop(coop.build_coop_pairs(est, None, 0.5))
        rows = [single.csv_row(7, 10.0), cluster.csv_row(7, 10.0), cluster.csv_row(7, 10.0, 3)]
        # a third cell past this cluster of two gets K + 1 empty fields
        assert rows[2][-6:-2] == [""] * 4 and len(rows[2]) == len(rows[1]) + 4
        for row in rows:
            assert {type(v) for v in row} <= {int, float, str}, row


class TestCli:
    def test_run_command(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(minimal_link(n_trials=2)))
        code = cli.main(["run", "--config", str(p), "--out", str(tmp_path / "out")])
        assert code == 0
        captured = capsys.readouterr().out
        assert "summary" in captured
        assert (tmp_path / "out" / "summary.csv").exists()

    def test_overrides(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(minimal_link(algorithms=["mrt", "zf"], n_trials=2)))
        out = tmp_path / "out"
        code = cli.main([
            "run", "--config", str(p), "--out", str(out),
            "--seed", "99", "--trials", "3", "--algorithms", "mrt",
        ])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 99
        assert manifest["n_trials"] == 3
        assert manifest["algorithms"] == ["mrt"]

    def test_bad_config_exit_code(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(minimal_link(algorithms=[])))
        code = cli.main(["run", "--config", str(p)])
        assert code == 2
        assert "algorithms" in capsys.readouterr().err

    def test_module_entry_point(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(minimal_link(n_trials=2)))
        out = tmp_path / "out"
        src = Path(runner.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-m", "gpip", "run", "--config", str(p), "--out", str(out)],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])},
        )
        assert proc.returncode == 0, proc.stderr
        assert {f.name for f in out.iterdir()} == {
            "manifest.json", "summary.csv", "per_trial.csv", "per_user.csv", "solver.csv",
            "cdf_mrt.csv"}

    @pytest.mark.parametrize("override,field", [
        (["--seed", "-1"], "seed"),
        (["--algorithms", "mrt,mrt"], "algorithms"),
    ])
    def test_overrides_validated_before_any_output(self, tmp_path, capsys, override, field):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(minimal_link(n_trials=2)))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(p), "--out", str(out), *override]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {field}:")
        assert not out.exists()

    def test_module_entry_point_rejects_nan_minimum_distance(self, tmp_path):
        # a NaN minimum distance once hung drop_users; the timeout makes a gap a failure
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(minimal_link(
            scenario="system", n_cells=1, n_drops=1, n_blocks=1, min_distance_m=float("nan"))))
        out = tmp_path / "out"
        src = Path(runner.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-m", "gpip", "run", "--config", str(p), "--out", str(out)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])},
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("config error: min_distance_m:")
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["missing", "directory", "undecodable"])
    def test_unreadable_config_is_a_config_error(self, tmp_path, capsys, kind):
        path = tmp_path / kind
        if kind == "directory":
            path.mkdir()
        elif kind == "undecodable":
            path.write_bytes(b"\xff\xfe{\x00}\x00")
        assert cli.main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {path}: cannot read (")

    def test_output_path_naming_a_file_is_a_config_error(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(minimal_link(n_trials=2)))
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        assert cli.main(["run", "--config", str(p), "--out", str(taken)]) == 2
        assert capsys.readouterr().err.startswith("config error: output_dir: ")
        assert taken.read_text() == "not a directory\n"

    def test_algorithm_filter_must_be_subset(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(minimal_link()))
        code = cli.main(["run", "--config", str(p), "--algorithms", "rzf"])
        assert code == 2
