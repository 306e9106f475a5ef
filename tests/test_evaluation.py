import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpip import baselines, channel, evaluation, runner, solver
from gpip.config import ExperimentConfig
from gpip.errors import ConfigInvalid
from gpip.numerics import hermitian_sqrt, hermitize


def link_config(**overrides):
    base = dict(
        scenario="link",
        n_antennas=2,
        n_users=2,
        algorithms=["mrt"],
        seed=123,
        snr_db=[10.0],
        n_trials=20,
    )
    base.update(overrides)
    return ExperimentConfig(**base).validate()


def wide_range_cell():
    """(h, f, noise ratio) of a two-user cell in which user 0's desired power is
    5e19 and its interference 100, below half an ulp of 5e19: its SINR is 5e19 / 101."""
    h = np.array([[1e10, np.sqrt(200.0)], [0.0, 1.0]], dtype=complex)
    return h, np.eye(2) / np.sqrt(2.0), 1.0


class TestTrueSinr:
    def test_interference_below_an_ulp_of_the_desired_power_is_kept(self):
        # the interference used to be the sum minus the desired power, which is 0 here
        h, f, nr = wide_range_cell()
        report = evaluation.true_sinr(h[None, None], f[None], nr)
        assert report.sinr[0, 0] == pytest.approx(5e19 / 101, rel=1e-12)

    @pytest.mark.parametrize("h_entry, f_entry, nr, message", [
        (np.nan, 0.0, 0.1, "^true_h must be finite$"),
        (0.0, np.inf, 0.1, "^precoders must be finite$"),
        (0.0, 0.0, -1.0, "^noise_ratio must be positive and finite, got -1.0$"),
        (0.0, 0.0, 0.0, "^noise_ratio must be positive and finite, got 0.0$"),
        (0.0, 0.0, np.nan, "^noise_ratio must be positive and finite, got nan$"),
    ])
    def test_inputs_it_cannot_score_rejected(self, h_entry, f_entry, nr, message):
        # unchecked, NaN inputs give NaN rates and a noise ratio of -1 gives -102 bit/s/Hz
        h, f, _ = wide_range_cell()
        h[1, 1] += h_entry
        f = f + f_entry
        with pytest.raises(ValueError, match=message):
            evaluation.true_sinr(h[None, None], f[None], nr)

    def test_single_user_matched_filter(self):
        h = np.array([1.0 + 1j, 2.0])
        f = h / np.linalg.norm(h)
        nr = 0.1
        report = evaluation.true_sinr(h[None, None, None], f[None, None], nr)
        assert report.sinr[0, 0] == pytest.approx(np.linalg.norm(h) ** 2 / nr)
        assert report.sum_rate == pytest.approx(np.log2(1 + np.linalg.norm(h) ** 2 / nr))

    def test_perfect_zf_nulls_interference(self):
        rng = np.random.default_rng(0)
        h = (rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))) / np.sqrt(2)
        f = baselines.zf(h)
        nr = 0.2
        report = evaluation.true_sinr(h[None, None], f[None], nr)
        for k in range(3):
            desired = abs(h[k].conj() @ f[k]) ** 2
            assert report.sinr[0, k] == pytest.approx(desired / nr, rel=1e-9)

    def test_two_cell_matches_independent_summation(self):
        # oracle: accumulate desired/same-cell/cross-cell terms one by one
        rng = np.random.default_rng(1)
        l, k, n = 2, 3, 4
        h = (rng.standard_normal((l, l, k, n)) + 1j * rng.standard_normal((l, l, k, n))) / np.sqrt(2)
        f = rng.standard_normal((l, k, n)) + 1j * rng.standard_normal((l, k, n))
        for cell in range(l):
            f[cell] /= np.linalg.norm(f[cell])
        nr = 0.15
        report = evaluation.true_sinr(h, f, nr)
        for cell in range(l):
            for u in range(k):
                desired = abs(h[cell, cell, u].conj() @ f[cell, u]) ** 2
                iui = sum(
                    abs(h[cell, cell, u].conj() @ f[cell, i]) ** 2
                    for i in range(k) if i != u
                )
                ici = sum(
                    abs(h[j, cell, u].conj() @ f[j, i]) ** 2
                    for j in range(l) if j != cell
                    for i in range(k)
                )
                expected = desired / (iui + ici + nr)
                assert report.sinr[cell, u] == pytest.approx(expected, abs=1e-12)


class TestGmiRateLb:
    def test_equals_true_sinr_under_perfect_knowledge(self):
        rng = np.random.default_rng(2)
        k, n = 3, 4
        h = (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))) / np.sqrt(2)
        f = baselines.rzf(h, 0.1)
        for h, f, nr in ((h, f, 0.1), wide_range_cell()):
            rates = evaluation.gmi_rate_lb(h, None, f, nr)
            report = evaluation.true_sinr(h[None, None], f[None], nr)
            np.testing.assert_allclose(rates, report.rate[0], atol=1e-12)
        assert 2.0 ** rates[0] - 1.0 == pytest.approx(5e19 / 101, rel=1e-12)

    @pytest.mark.parametrize("h_entry, f_entry, nr, message", [
        (0.0, np.nan, 0.1, "^precoders must be finite$"),
        (np.inf, 0.0, 0.1, "^estimates must be finite$"),
        (0.0, 0.0, 0.0, "^noise ratios must be positive$"),
    ])
    def test_inputs_it_cannot_score_rejected(self, h_entry, f_entry, nr, message):
        h, f, _ = wide_range_cell()
        h[1, 1] += h_entry
        with pytest.raises(ValueError, match=message):
            evaluation.gmi_rate_lb(h, None, f + f_entry, nr)

    def test_zero_beam_gives_zero_rate(self):
        h = np.array([[1.0 + 0j, 0.0], [0.0, 1.0 + 0j]])
        f = np.array([[1.0 + 0j, 0.0], [0.0, 0.0]])
        rates = evaluation.gmi_rate_lb(h, None, f, 0.1)
        assert rates[1] == 0.0

    def test_consistent_with_solver_objective(self):
        rng = np.random.default_rng(3)
        k, n = 3, 2
        est = (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))) / np.sqrt(2)
        cov = np.broadcast_to(0.1 * np.eye(n), (k, n, n)).copy()
        nr = 0.2
        pairs = solver.build_effective_pairs(est, cov, nr)
        f = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
        f /= np.linalg.norm(f)
        rates = evaluation.gmi_rate_lb(est, cov, f, nr)
        assert solver.objective_log2(pairs, None, f) == pytest.approx(rates.sum(), abs=1e-9)


class TestErgodicSumSe:
    def test_zero_snr_limit_near_zero(self):
        cfg = link_config(snr_db=[-100.0], n_trials=5)
        mean, _ = runner.ergodic_sum_se(cfg, "mrt")
        assert mean < 1e-6

    def test_single_user_mrt_matches_direct_simulation(self):
        # oracle: 10^6-draw direct evaluation of E[log2(1 + ||h||^2 / nr)]
        # under the same one-ring correlation
        cfg = link_config(n_antennas=2, n_users=1, n_trials=400)
        mean, half = runner.ergodic_sum_se(cfg, "mrt")
        corr = evaluation._link_correlations(cfg)[0]
        rng = np.random.default_rng(0)
        vals, vecs = np.linalg.eigh(corr)
        root = (vecs * np.sqrt(np.maximum(vals, 0))) @ vecs.conj().T
        g = (rng.standard_normal((1_000_000, 2)) + 1j * rng.standard_normal((1_000_000, 2))) / np.sqrt(2)
        h = g @ root.T
        nr = 10 ** (-cfg.snr_db[0] / 10)
        ref = np.mean(np.log2(1 + np.sum(np.abs(h) ** 2, axis=1) / nr))
        assert abs(mean - ref) < 3 * half

    def test_deterministic(self):
        cfg = link_config(n_trials=10)
        a = runner.ergodic_sum_se(cfg, "mrt")
        b = runner.ergodic_sum_se(cfg, "mrt")
        assert a == b

    def test_half_width_shrinks_like_sqrt_n(self):
        _, h100 = runner.ergodic_sum_se(link_config(n_users=2, n_trials=100), "mrt")
        _, h400 = runner.ergodic_sum_se(link_config(n_users=2, n_trials=400), "mrt")
        ratio = h100 / h400
        assert 2.0 / 1.5 <= ratio <= 2.0 * 1.5

    def test_estimated_metric_equals_true_under_perfect_csit(self):
        cfg = link_config(n_trials=12)
        true_val = runner.ergodic_sum_se(cfg, "rzf")
        est_val = runner.ergodic_sum_se(cfg, "rzf", metric="estimated")
        assert est_val == pytest.approx(true_val)

    def test_estimated_metric_diverges_under_errors(self):
        cfg = link_config(csit_model="additive", cov_knowledge="full", n_trials=12)
        true_val, _ = runner.ergodic_sum_se(cfg, "rzf")
        est_val, _ = runner.ergodic_sum_se(cfg, "rzf", metric="estimated")
        assert est_val != true_val

    @pytest.mark.parametrize("overrides, algorithm, message", [
        (dict(snr_db=[]), "mrt", r"^snr_db: list must be nonempty$"),
        (dict(snr_db=[float("nan")]), "mrt", r"^snr_db: every entry must be finite"),
        (dict(scenario="system"), "mrt", r"^scenario: ergodic_sum_se needs scenario='link'$"),
        (dict(), "gpip-coop", r"^algorithms: 'gpip-coop' needs the system scenario$"),
    ], ids=["no-snr", "nan-snr", "system-config", "gpip-coop"])
    def test_invalid_config_rejected_before_any_trial(self, monkeypatch, overrides,
                                                      algorithm, message):
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(runner, "link_trial", no_trial)
        cfg = dataclasses.replace(link_config(n_trials=2), **overrides)
        with pytest.raises(ConfigInvalid, match=message):
            runner.ergodic_sum_se(cfg, algorithm)

    def test_unknown_metric_rejected(self):
        # any other value used to measure true rates without a word
        with pytest.raises(ValueError, match="^metric must be 'true' or 'estimated', got 'estimate'$"):
            runner.ergodic_sum_se(link_config(n_trials=2), "rzf", metric="estimate")


def per_user_link_csit_reference(config, corr, rng):
    """_draw_link_csit and the error covariances of LinkStatistics as a
    per-user loop that derives every root per call."""
    k, n = config.n_users, config.n_antennas
    true = np.empty((k, n), dtype=np.complex128)
    est = np.empty((k, n), dtype=np.complex128)
    cov = np.zeros((k, n, n), dtype=np.complex128)
    model = config.csit_model
    for u in range(k):
        if model == "perfect":
            h = channel.sample_channel(hermitian_sqrt(corr[u]), rng)
            true[u], est[u] = h, h
        elif model == "additive":
            h = channel.sample_channel(hermitian_sqrt(corr[u]), rng)
            cov[u] = config.csit_error_var * np.eye(n)
            est[u] = h + channel.sample_channel(hermitian_sqrt(cov[u]), rng)
            true[u] = h
        elif model == "tdd":
            stats = channel.mmse_statistics(corr[u], [], config.uplink_noise_over_pilot())
            true[u], est[u] = channel.mmse_csit_tdd(stats.est_root, stats.err_root, rng)
            cov[u] = stats.phi
        else:
            true[u], est[u] = channel.fdd_quantized_csit(hermitian_sqrt(corr[u]),
                                                         config.fdd_kappa, rng)
            cov[u] = config.fdd_kappa**2 * hermitize(corr[u])
    return true, est, cov


class TestLinkStatistics:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from(["perfect", "additive", "tdd", "fdd"]),
           st.integers(1, 4), st.integers(1, 5))
    def test_draw_equals_per_user_loop(self, seed, model, k, n):
        rng = np.random.default_rng(seed)
        cfg = link_config(
            n_users=k, n_antennas=n, csit_model=model,
            angular_spread=float(rng.uniform(0.05, 1.5)),
            csit_error_var=float(rng.uniform(0.0, 1.0)),
            tdd_noise_over_pilot=float(rng.uniform(0.01, 1.0)),
            fdd_kappa=float(rng.uniform(0.0, 1.0)),
        )
        corr = evaluation._link_correlations(cfg)
        stats = evaluation.link_statistics(cfg)
        for trial in range(2):
            rng_want = np.random.default_rng([seed, trial])
            rng_got = np.random.default_rng([seed, trial])
            want = per_user_link_csit_reference(cfg, corr, rng_want)
            got = evaluation._draw_link_csit(stats, rng_got)
            for g, w in zip((*got, stats.cov), want):
                np.testing.assert_array_equal(g, w)
            assert rng_got.bit_generator.state == rng_want.bit_generator.state

    @pytest.mark.parametrize("model, name", [
        ("perfect", "sample_channel"), ("additive", "additive_error_csit"),
        ("tdd", "mmse_csit_tdd"), ("fdd", "fdd_quantized_csit"),
    ])
    def test_one_csit_call_per_trial(self, monkeypatch, model, name):
        cfg = link_config(n_users=4, n_antennas=3, csit_model=model, csit_error_var=0.1)
        stats = evaluation.link_statistics(cfg)
        calls = []
        for fn in ("sample_channel", "additive_error_csit", "mmse_csit_tdd", "fdd_quantized_csit"):
            def counted(*args, _name=fn, _fn=getattr(channel, fn), **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(channel, fn, counted)
        for trial in range(3):
            true, est = evaluation._draw_link_csit(stats, np.random.default_rng(trial))
            assert true.shape == est.shape == (4, 3)
            assert not np.shares_memory(true, est)
        assert calls == [name] * 3


class TestKnownCovariance:
    def test_covfree_uses_trace_matched_levels_under_full_knowledge(self):
        cfg = link_config(n_antennas=4, n_users=3, algorithms=["gpip-covfree"],
                          csit_model="tdd", tdd_noise_over_pilot=0.3)
        stats = evaluation.link_statistics(cfg)
        _, est = evaluation._draw_link_csit(stats, np.random.default_rng(2))
        cov = stats.cov
        known = evaluation._known_cov("full", cov)
        assert known is cov
        f, _ = evaluation.design_precoders("gpip-covfree", est, known, 0.2, cfg)
        levels = np.real(np.trace(cov, axis1=1, axis2=2)) / cfg.n_antennas
        pairs = solver.build_effective_pairs(est, levels[:, None, None] * np.eye(4), 0.2)
        ref = solver.gpip_covfree(pairs, tol=cfg.tol, max_iter=cfg.max_iter,
                                  select_threshold=cfg.sel_threshold)
        assert np.array_equal(f, ref.precoder)

    def test_covfree_rates_depend_on_the_knowledge_setting(self):
        rates = {}
        for knowledge in ("full", "scalar", "none"):
            cfg = link_config(n_antennas=4, n_users=4, algorithms=["gpip-covfree"],
                              csit_model="additive", csit_error_var=0.3,
                              cov_knowledge=knowledge)
            stats = evaluation.link_statistics(cfg)
            out = evaluation.link_trial(cfg, 10.0, np.random.default_rng(1), stats)
            rates[knowledge] = out["gpip-covfree"][0]
        # additive errors are white, so the trace-matched levels are the truth
        assert np.array_equal(rates["full"], rates["scalar"])
        assert not np.array_equal(rates["full"], rates["none"])

    def test_link_campaign_derives_its_knowledge_once(self, tmp_path, monkeypatch):
        calls = []
        known_cov = evaluation._known_cov

        def counted(*args):
            calls.append(args[0])
            return known_cov(*args)

        monkeypatch.setattr(evaluation, "_known_cov", counted)
        cfg = link_config(n_antennas=3, n_users=2, algorithms=["gpip", "gpip-covfree", "rrzf"],
                          csit_model="tdd", cov_knowledge="scalar", snr_db=[0.0, 10.0],
                          n_trials=3)
        runner.run_link_level(cfg, tmp_path)
        assert calls == ["scalar"]

    @pytest.mark.parametrize("model", ["perfect", "additive"])
    def test_unknown_knowledge_fails_when_the_statistics_are_built(self, model):
        cfg = link_config(csit_model=model)
        cfg.cov_knowledge = "vibes"
        with pytest.raises(ConfigInvalid, match="^cov_knowledge: unknown setting 'vibes'$"):
            evaluation.link_statistics(cfg)

    @pytest.mark.parametrize("knowledge", ["full", "scalar", "none"])
    def test_knowledge_is_read_only_and_full_knowledge_shares_the_covariances(self, knowledge):
        cfg = link_config(csit_model="fdd", cov_knowledge=knowledge)
        stats = evaluation.link_statistics(cfg)
        if knowledge == "none":
            assert not stats.known_cov.any()
        assert (stats.known_cov is stats.cov) == (knowledge == "full")
        with pytest.raises(ValueError, match="read-only"):
            stats.known_cov[0] = 0.0


class TestUnitsRunTheConfigsAlgorithms:
    """A link trial and a system block run exactly the algorithms of their
    config, in config order."""

    def test_link_trial(self):
        cfg = link_config(n_antennas=3, n_users=2, algorithms=["rrzf", "zf-dpc", "gpip", "mrt"],
                          csit_model="additive", csit_error_var=0.1)
        stats = evaluation.link_statistics(cfg)
        out = evaluation.link_trial(cfg, 10.0, np.random.default_rng(0), stats)
        assert list(out) == cfg.algorithms

    def test_multicell_block(self):
        cfg = ExperimentConfig(scenario="system", n_antennas=3, n_users=2, n_cells=3, n_coop=2,
                               algorithms=["gpip-coop", "zf-dpc", "gpip", "rzf"],
                               csit_model="tdd", seed=4).validate()
        corr = runner.system_correlations(cfg, np.random.default_rng(1))
        noise_over_pilot = cfg.uplink_noise_over_pilot() * cfg.bs_power_mw() / cfg.noise_power_mw()
        stats = runner.drop_statistics(corr, runner.consecutive_clusters(3, 2), noise_over_pilot)
        out = runner.multicell_block(cfg, stats, np.random.default_rng(2))
        assert list(out) == cfg.algorithms


class TestZfDpcBound:
    """`zf-dpc` rates hold each cell's sum-rate bound on its own estimates at
    its mean noise ratio on user 0, and zeros elsewhere."""

    def test_link_trial_row(self):
        cfg = link_config(n_antennas=3, n_users=3, algorithms=["zf-dpc"], csit_model="tdd",
                          tdd_noise_over_pilot=0.3)
        stats = evaluation.link_statistics(cfg)
        rates, extras = evaluation.link_trial(cfg, 5.0, np.random.default_rng(3),
                                              stats)["zf-dpc"]
        _, est = evaluation._draw_link_csit(stats, np.random.default_rng(3))
        bound = baselines.zf_dpc_waterfilling(est, 10.0 ** -0.5)[2]
        assert extras is None
        assert rates.tolist() == [bound, 0.0, 0.0]

    def test_system_block_rows(self):
        cfg = ExperimentConfig(scenario="system", n_antennas=3, n_users=2, n_cells=3, n_coop=2,
                               algorithms=["zf-dpc"], csit_model="tdd", seed=4).validate()
        corr = runner.system_correlations(cfg, np.random.default_rng(1))
        noise_over_pilot = cfg.uplink_noise_over_pilot() * cfg.bs_power_mw() / cfg.noise_power_mw()
        stats = runner.drop_statistics(corr, runner.consecutive_clusters(3, 2), noise_over_pilot)
        rates, extras = runner.multicell_block(cfg, stats, np.random.default_rng(2))["zf-dpc"]
        _, est_h = runner.multicell_csit(stats, np.random.default_rng(2))
        bounds = [baselines.zf_dpc_waterfilling(est_h[l, l], np.mean(stats.nr_cell[l]))[2]
                  for l in range(3)]
        assert extras is None
        assert rates.tolist() == [[b, 0.0] for b in bounds]


class TestPfWeights:
    def test_equal_rates_give_uniform_weights(self):
        w = evaluation.pf_weights([2.0, 2.0, 2.0])
        np.testing.assert_allclose(w, 1.0)

    def test_starved_user_gets_max_weight(self):
        w = evaluation.pf_weights([1e-9, 1.0, 2.0])
        assert np.argmax(w) == 0

    def test_two_user_arithmetic(self):
        w = evaluation.pf_weights([1.0, 3.0])
        np.testing.assert_allclose(w, [1.5, 0.5])

    def test_cell_stack_equals_stacked_rows(self):
        t = np.random.default_rng(4).uniform(0.0, 3.0, size=(5, 4))
        t[2, 1] = 1e-9  # below the floor
        expected = np.stack([evaluation.pf_weights(row) for row in t])
        assert np.array_equal(evaluation.pf_weights(t), expected)

    def test_smoothing_update(self):
        t = evaluation.update_pf_averages([1.0, 1.0], [3.0, 0.0], 0.1)
        np.testing.assert_allclose(t, [1.2, 0.9])


class TestMonteCarloMean:
    def test_no_sample_rejected(self):
        # the mean of no sample was NaN, with a RuntimeWarning
        with pytest.raises(ValueError, match="^need at least one sample$"):
            evaluation.monte_carlo_mean([])


class TestRateCdf:
    def test_small_example(self):
        curve = evaluation.rate_cdf([3.0, 1.0, 2.0])
        np.testing.assert_allclose(curve.values, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(curve.quantiles, [1 / 3, 2 / 3, 1.0])

    def test_constant_samples(self):
        curve = evaluation.rate_cdf([2.0] * 5)
        np.testing.assert_allclose(curve.values, 2.0)
        assert curve.quantiles[-1] == 1.0

    def test_matches_independent_sort(self):
        rng = np.random.default_rng(4)
        samples = rng.uniform(0, 10, size=1000)
        curve = evaluation.rate_cdf(samples)
        assert np.array_equal(curve.values, np.array(sorted(samples)))
        assert np.all(np.diff(curve.values) >= 0)
        assert np.all((curve.quantiles > 0) & (curve.quantiles <= 1))
