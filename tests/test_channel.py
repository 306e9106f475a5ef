import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpip import channel, evaluation, runner
from gpip.config import config_from_dict
from gpip.errors import BelowMinimumDistance, DimensionMismatch
from gpip.numerics import hermitian_sqrt, hermitize


def reference_one_ring(pos, wavelength, theta, delta, beta, nodes=200_000):
    """Independent trapezoid-rule evaluation of the sector-average correlation."""
    a = np.linspace(theta - delta, theta + delta, nodes)
    w = np.full(nodes, 1.0 / (nodes - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    phase = -(2 * np.pi / wavelength) * (
        np.cos(a)[:, None] * pos[None, :, 0] + np.sin(a)[:, None] * pos[None, :, 1]
    )
    steer = np.exp(1j * phase)
    return beta * np.einsum("m,mn,mk->nk", w, steer, steer.conj())


def fixed_rule_one_ring(geom, params, n_nodes=512):
    """The one-ring matrix of a fixed n_nodes Gauss-Legendre rule, step for
    step as `one_ring_correlation` computed it with a fixed 512-node rule."""
    nodes, gl_weights = np.polynomial.legendre.leggauss(n_nodes)
    alphas = params.azimuth + params.angular_spread * nodes
    weights = 0.5 * gl_weights
    k_wave = 2 * np.pi / geom.wavelength
    phase = -k_wave * (
        np.cos(alphas)[:, None] * geom.positions[None, :, 0]
        + np.sin(alphas)[:, None] * geom.positions[None, :, 1]
    )
    steer = np.exp(1j * phase)
    return hermitize(params.gain * ((weights[:, None] * steer).T @ steer.conj()))


class TestArrayGeometry:
    @pytest.mark.parametrize("n", [2, 3, 4, 8, 16, 64])
    def test_adjacent_spacing_is_half_wavelength(self, n):
        geom = channel.uniform_circular_array(n, wavelength=1.0)
        spacing = np.linalg.norm(geom.positions[1] - geom.positions[0])
        assert abs(spacing - 0.5) < 1e-9

    def test_single_antenna(self):
        geom = channel.uniform_circular_array(1)
        assert geom.positions.shape == (1, 2)

    def test_non_physical_geometry_rejected(self):
        for wavelength in (0.0, -0.15, np.nan, np.inf):
            with pytest.raises(ValueError, match="^wavelength must be positive and finite$"):
                channel.ArrayGeometry(np.zeros((2, 2)), wavelength)
        with pytest.raises(ValueError, match="^positions must be finite$"):
            channel.ArrayGeometry(np.array([[0.0, 0.0], [np.nan, 0.5]]), 1.0)


class TestOneRing:
    def test_diagonal_equals_gain(self):
        geom = channel.uniform_circular_array(6)
        r = channel.one_ring_correlation(geom, channel.OneRingParams(0.4, np.pi / 6, 2.5))
        np.testing.assert_allclose(np.diag(r).real, 2.5, rtol=1e-6)
        np.testing.assert_allclose(np.diag(r).imag, 0.0, atol=1e-12)

    def test_zero_spread_limit_is_rank_one(self):
        geom = channel.uniform_circular_array(4)
        theta = 0.3
        r = channel.one_ring_correlation(geom, channel.OneRingParams(theta, 1e-9, 1.0))
        evals = np.linalg.eigvalsh(r)
        assert evals[-2] / evals[-1] < 1e-4
        # principal direction is the steering vector at the azimuth
        k = 2 * np.pi / geom.wavelength
        steer = np.exp(
            -1j * k * (np.cos(theta) * geom.positions[:, 0] + np.sin(theta) * geom.positions[:, 1])
        )
        _, vecs = np.linalg.eigh(r)
        top = vecs[:, -1]
        overlap = abs(np.vdot(top, steer)) / (np.linalg.norm(top) * np.linalg.norm(steer))
        assert overlap > 1 - 1e-6

    def test_matches_high_resolution_reference(self):
        geom = channel.uniform_circular_array(4)
        r = channel.one_ring_correlation(geom, channel.OneRingParams(0.0, np.pi / 6, 1.0))
        ref = reference_one_ring(geom.positions, 1.0, 0.0, np.pi / 6, 1.0)
        assert np.abs(r - ref).max() < 1e-6

    @pytest.mark.parametrize("n", [4, 16])
    def test_equals_explicit_node_sum(self, n):
        geom = channel.uniform_circular_array(n)
        params = channel.OneRingParams(0.9, 0.35, 1.4)
        nodes, weights = np.polynomial.legendre.leggauss(channel.QUAD_NODES)
        ref = np.zeros((n, n), dtype=complex)
        for node, weight in zip(nodes, weights):
            a = params.azimuth + params.angular_spread * node
            s = np.exp(
                -1j * (2 * np.pi / geom.wavelength)
                * (np.cos(a) * geom.positions[:, 0] + np.sin(a) * geom.positions[:, 1])
            )
            ref += 0.5 * weight * np.outer(s, s.conj())
        r = channel.one_ring_correlation(geom, params)
        assert np.abs(r - params.gain * ref).max() < 1e-12

    @pytest.mark.parametrize("n,theta,delta", [(4, 0.0, 0.1), (8, 1.2, np.pi / 6), (32, -2.0, 0.8)])
    def test_hermitian_psd_and_trace(self, n, theta, delta):
        beta = 1.7
        geom = channel.uniform_circular_array(n)
        r = channel.one_ring_correlation(geom, channel.OneRingParams(theta, delta, beta))
        assert np.abs(r - r.conj().T).max() < 1e-14
        assert np.linalg.eigvalsh(r).min() >= -1e-9 * beta
        assert abs(np.trace(r).real - n * beta) < 1e-5 * n * beta


    @pytest.mark.parametrize("wavelength", [1.0, 0.15])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16, 32, 64])
    def test_sized_rule_matches_fixed_512_node_rule(self, n, wavelength):
        geom = channel.uniform_circular_array(n, wavelength)
        rng = np.random.default_rng(n)
        for delta in (1e-9, 1e-3, 0.1, np.pi / 6, 0.8, 1.5, 2.5, np.pi):
            params = channel.OneRingParams(rng.uniform(-np.pi, np.pi), delta, 2.3)
            r = channel.one_ring_correlation(geom, params)
            assert np.abs(r - fixed_rule_one_ring(geom, params)).max() <= 1e-13 * params.gain

    def test_geometry_at_the_cap_equals_fixed_512_node_rule_exactly(self):
        geom = channel.uniform_circular_array(256, 0.15)
        assert channel._node_count(geom, np.pi) == channel.QUAD_NODES == 512
        params = channel.OneRingParams(0.3, np.pi, 1.7)
        r = channel.one_ring_correlation(geom, params)
        assert np.array_equal(r, fixed_rule_one_ring(geom, params))

    def test_node_count_never_decreases_with_aperture_or_spread(self):
        spreads = np.concatenate([[1e-9], np.linspace(1e-3, np.pi, 200)])
        counts = []
        for n in range(1, 257):
            geom = channel.uniform_circular_array(n, 0.15)
            counts.append([channel._node_count(geom, d) for d in spreads])
        counts = np.array(counts)
        assert np.all(np.diff(counts, axis=0) >= 0)  # aperture grows with n
        assert np.all(np.diff(counts, axis=1) >= 0)
        assert counts.min() > 0 and counts.max() == channel.QUAD_NODES
        # the aperture is read from the positions, so hand-built arrays are sized too
        line = [channel._node_count(channel.ArrayGeometry(
                    np.column_stack([np.arange(8) * d, np.zeros(8)]), 1.0), 0.5)
                for d in np.linspace(0.0, 30.0, 121)]
        assert np.all(np.diff(line) >= 0) and line[0] < line[-1] == channel.QUAD_NODES

    def test_aperture_is_the_largest_antenna_distance(self):
        positions = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0], [1.0, 1.0]])
        assert channel.ArrayGeometry(positions, 1.0).aperture == 5.0
        assert channel.uniform_circular_array(1).aperture == 0.0

    @pytest.mark.parametrize("name", ["azimuth", "angular_spread", "gain"])
    def test_non_finite_inputs_rejected(self, name):
        for value in (np.nan, np.inf, -np.inf):
            fields = dict(azimuth=0.1, angular_spread=0.2, gain=1.0) | {name: value}
            with pytest.raises(ValueError, match=f"^{name} must be finite$"):
                channel.OneRingParams(**fields)


class TestStackedOneRing:
    @pytest.mark.parametrize(
        "n,wavelength,spread,shape",
        [(16, 0.15, np.pi / 6, (3, 5)), (16, 0.15, np.pi / 6, (76,)), (8, 1.0, 0.8, (76,)),
         (256, 0.15, np.pi, (3, 5))],
    )
    def test_stack_equals_per_link_calls(self, n, wavelength, spread, shape):
        geom = channel.uniform_circular_array(n, wavelength)
        rng = np.random.default_rng(n)
        azimuth = rng.uniform(-np.pi, np.pi, shape)
        gain = 10.0 ** rng.uniform(-3.0, 3.0, shape)
        stack = channel.one_ring_correlation(geom, channel.OneRingParams(azimuth, spread, gain))
        assert stack.shape == shape + (n, n)
        for idx in np.ndindex(shape):
            one = channel.OneRingParams(float(azimuth[idx]), spread, float(gain[idx]))
            assert np.array_equal(stack[idx], channel.one_ring_correlation(geom, one))
        if n == 256:
            assert channel._node_count(geom, spread) == channel.QUAD_NODES
            one = channel.OneRingParams(float(azimuth[1, 2]), spread, float(gain[1, 2]))
            assert np.array_equal(stack[1, 2], fixed_rule_one_ring(geom, one))

    def test_scalar_gain_broadcasts_over_azimuths(self):
        geom = channel.uniform_circular_array(4)
        azimuth = np.array([0.1, 1.2, -2.0])
        stack = channel.one_ring_correlation(geom, channel.OneRingParams(azimuth, 0.3, 1.5))
        for a, r in zip(azimuth, stack):
            assert np.array_equal(r, channel.one_ring_correlation(
                geom, channel.OneRingParams(float(a), 0.3, 1.5)))

    @pytest.mark.parametrize("name,value,message", [
        ("azimuth", np.nan, "azimuth must be finite"),
        ("azimuth", -np.inf, "azimuth must be finite"),
        ("gain", np.inf, "gain must be finite"),
        ("gain", 0.0, "gain must be positive"),
        ("gain", -2.0, "gain must be positive"),
    ])
    def test_one_bad_entry_rejects_the_stack(self, name, value, message):
        fields = dict(azimuth=np.linspace(-1.0, 1.0, 6).reshape(2, 3), angular_spread=0.2,
                      gain=np.full((2, 3), 1.5))
        fields[name][1, 2] = value
        with pytest.raises(ValueError, match=f"^{message}$"):
            channel.OneRingParams(**fields)


class TestStackedPathloss:
    def test_array_equals_scalar_calls(self):
        d = np.random.default_rng(3).uniform(0.04, 2.0, (4, 5, 3))
        losses = channel.okumura_hata_pathloss(d)
        assert losses.shape == d.shape
        for idx in np.ndindex(d.shape):
            assert losses[idx] == channel.okumura_hata_pathloss(float(d[idx]))

    def test_any_entry_below_minimum_names_the_smallest(self):
        d = np.array([[0.5, 0.039], [0.0391, 1.0]])
        with pytest.raises(BelowMinimumDistance, match=r"^distance 0\.039 km < 0\.04 km$"):
            channel.okumura_hata_pathloss(d)

    def test_system_correlations_equal_a_per_link_loop(self):
        cfg = config_from_dict(dict(scenario="system", n_antennas=4, n_users=3, n_cells=7,
                                    algorithms=["gpip"], seed=0))
        corr = runner.system_correlations(cfg, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        topo = channel.drop_users(cfg.n_cells, cfg.n_users, cfg.inter_site_m,
                                  cfg.min_distance_m, rng)
        dist_km = topo.distances_km()
        shadow = rng.normal(0.0, cfg.shadowing_db, size=dist_km.shape)
        betas = channel.gain_from_pathloss(channel.okumura_hata_pathloss(dist_km), shadow)
        geom = channel.uniform_circular_array(cfg.n_antennas, cfg.wavelength_m())
        norm = cfg.noise_power_mw() / cfg.bs_power_mw()
        for j, l, k in np.ndindex(dist_km.shape):
            loss = channel.okumura_hata_pathloss(dist_km[j, l, k])
            beta = channel.gain_from_pathloss(loss, shadow[j, l, k])
            # 10 ** x on an array may round differently from the scalar power
            assert abs(betas[j, l, k] - beta) <= np.spacing(beta)
            delta = topo.user_xy[l, k] - topo.cell_xy[j]
            theta = float(np.arctan2(delta[1], delta[0]))
            params = channel.OneRingParams(theta, cfg.angular_spread, betas[j, l, k] / norm)
            assert np.array_equal(corr[j, l, k], channel.one_ring_correlation(geom, params))


class TestSampleChannel:
    def test_zero_covariance_gives_zero(self):
        h = channel.sample_channel(hermitian_sqrt(np.zeros((3, 3))), 0)
        np.testing.assert_allclose(h, 0)

    def test_empirical_covariance_identity(self):
        rng = np.random.default_rng(10)
        n, trials = 3, 100_000
        acc = np.zeros((n, n), dtype=complex)
        root = np.eye(n)
        g = channel.standard_complex_gaussian(rng, trials, n)
        samples = g @ root.T
        acc = samples.T.conj() @ samples / trials
        assert np.abs(acc.T - np.eye(n)).max() < 0.05

    def test_rank_one_support(self):
        v = np.array([1.0, 1j, -0.5]) / np.linalg.norm([1.0, 1j, -0.5])
        r = np.outer(v, v.conj())
        for seed in range(5):
            h = channel.sample_channel(hermitian_sqrt(r), seed)
            residual = h - (v.conj() @ h) * v
            assert np.linalg.norm(residual) < 1e-8

    def test_deterministic_per_seed(self):
        r = np.diag([1.0, 2.0])
        a = channel.sample_channel(hermitian_sqrt(r), 123)
        b = channel.sample_channel(hermitian_sqrt(r), 123)
        assert np.array_equal(a, b)


def random_psd_stack(rng, lead, n):
    """A (*lead, N, N) stack of random PSD matrices of random rank."""
    out = np.empty((*lead, n, n), dtype=np.complex128)
    for idx in np.ndindex(*lead):
        shape = (n, int(rng.integers(1, n + 1)))
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        out[idx] = a @ a.conj().T / n
    return out


# lead shapes of at most two axes and five members
LEAD_SHAPES = st.sampled_from([(), (1,), (2,), (5,), (1, 1), (1, 3), (2, 2), (5, 1)])


class TestStackedCsitDraws:
    """A stack call of every CSIT function equals its single-member calls in
    C order, bit for bit, and leaves the generator in the same state."""

    @staticmethod
    def assert_stack_equals_members(stack_call, member_call, lead, seed):
        """`stack_call(rng)` and `member_call(idx, rng)` return tuples of arrays."""
        rng_stack, rng_member = np.random.default_rng(seed), np.random.default_rng(seed)
        got = stack_call(rng_stack)
        per_member = [member_call(idx, rng_member) for idx in np.ndindex(*lead)]
        for i, part in enumerate(got):
            want = np.array([m[i] for m in per_member]).reshape(np.shape(part))
            np.testing.assert_array_equal(part, want)
        assert rng_stack.bit_generator.state == rng_member.bit_generator.state

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), LEAD_SHAPES, st.integers(1, 6))
    def test_sample_channel(self, seed, lead, n):
        root = hermitian_sqrt(random_psd_stack(np.random.default_rng(seed), lead, n))
        self.assert_stack_equals_members(
            lambda rng: (channel.sample_channel(root, rng),),
            lambda idx, rng: (channel.sample_channel(root[idx], rng),), lead, seed)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), LEAD_SHAPES, st.integers(1, 6), st.integers(0, 2))
    def test_mmse_csit_tdd(self, seed, lead, n, n_interferers):
        rng = np.random.default_rng(seed)
        r = random_psd_stack(rng, lead, n)
        ints = [random_psd_stack(rng, lead, n) for _ in range(n_interferers)]
        stats = channel.mmse_statistics(r, ints, 0.3)
        self.assert_stack_equals_members(
            lambda rng: channel.mmse_csit_tdd(stats.est_root, stats.err_root, rng),
            lambda idx, rng: channel.mmse_csit_tdd(stats.est_root[idx], stats.err_root[idx], rng),
            lead, seed)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), LEAD_SHAPES, st.integers(1, 6), st.booleans())
    def test_additive_error_csit(self, seed, lead, n, shared):
        rng = np.random.default_rng(seed)
        root = hermitian_sqrt(random_psd_stack(rng, lead, n))
        err_root = hermitian_sqrt(random_psd_stack(rng, () if shared else lead, n))
        self.assert_stack_equals_members(
            lambda rng: channel.additive_error_csit(root, err_root, rng),
            lambda idx, rng: channel.additive_error_csit(
                root[idx], err_root if shared else err_root[idx], rng), lead, seed)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), LEAD_SHAPES, st.integers(1, 6),
           st.sampled_from([0.0, 0.3, 1.0]))
    def test_fdd_quantized_csit(self, seed, lead, n, kappa):
        root = hermitian_sqrt(random_psd_stack(np.random.default_rng(seed), lead, n))
        self.assert_stack_equals_members(
            lambda rng: channel.fdd_quantized_csit(root, kappa, rng),
            lambda idx, rng: channel.fdd_quantized_csit(root[idx], kappa, rng), lead, seed)

    def test_identical_members_draw_independently(self):
        # one Gaussian shared by every member would make these rows equal
        corr = np.broadcast_to(np.diag([1.0, 2.0, 0.5]).astype(complex), (2, 3, 3))
        root = hermitian_sqrt(corr)
        h = channel.sample_channel(root, np.random.default_rng(1))
        stats = channel.mmse_statistics(corr, [0.5 * corr], 0.1)
        true_h, est = channel.mmse_csit_tdd(stats.est_root, stats.err_root,
                                            np.random.default_rng(1))
        true_f, est_f = channel.fdd_quantized_csit(root, 0.5, np.random.default_rng(1))
        true_a, est_a = channel.additive_error_csit(root, root[0], np.random.default_rng(1))
        for pair in (h, true_h, est, true_f, est_f, true_a, est_a, est_a - true_a):
            assert pair.shape == (2, 3)
            assert not np.any(pair[0] == pair[1])


class TestPathloss:
    def test_one_km(self):
        assert channel.okumura_hata_pathloss(1.0) == pytest.approx(135.1047)

    def test_per_decade_slope(self):
        assert channel.okumura_hata_pathloss(10.0) == pytest.approx(135.1047 + 35.0413)

    def test_boundary(self):
        expected = 135.1047 + 35.0413 * np.log10(0.04)
        assert channel.okumura_hata_pathloss(0.04) == pytest.approx(expected)

    def test_below_minimum(self):
        with pytest.raises(BelowMinimumDistance):
            channel.okumura_hata_pathloss(0.039)


class TestTddCsit:
    def test_vanishing_noise_gives_perfect_csit(self):
        geom = channel.uniform_circular_array(4)
        r = channel.one_ring_correlation(geom, channel.OneRingParams(0.2, 0.5, 1.0))
        phi = channel.mmse_statistics(r, [], 1e-12).phi
        assert np.abs(phi).max() < 1e-6 * np.trace(r).real

    @pytest.mark.parametrize("ratio", [-1e-3, float("nan")])
    def test_negative_or_nan_noise_ratio_rejected(self, ratio):
        with pytest.raises(ValueError, match="^noise_over_pilot must be non-negative"):
            channel.mmse_statistics(np.eye(2), [], ratio)

    def test_identity_algebra(self):
        n = 3
        phi = channel.mmse_statistics(np.eye(n), [np.eye(n)], 1.0).phi
        np.testing.assert_allclose(phi, (2.0 / 3.0) * np.eye(n), atol=1e-12)

    def test_matches_independent_closed_form(self):
        # oracle: same closed form evaluated through an explicit matrix inverse
        geom = channel.uniform_circular_array(4)
        r = channel.one_ring_correlation(geom, channel.OneRingParams(0.1, 0.4, 1.3))
        r2 = channel.one_ring_correlation(geom, channel.OneRingParams(1.1, 0.3, 0.6))
        noise_term = 0.37
        phi = channel.mmse_statistics(r, [r2], noise_term).phi
        expected = r - r @ np.linalg.inv(r + r2 + noise_term * np.eye(4)) @ r
        assert np.abs(phi - expected).max() < 1e-8

    def test_error_covariance_psd_and_bounded_by_prior(self):
        rng = np.random.default_rng(99)
        geom = channel.uniform_circular_array(4)
        for _ in range(100):
            theta = rng.uniform(-np.pi, np.pi)
            delta = rng.uniform(0.05, np.pi / 3)
            beta = rng.uniform(0.2, 3.0)
            r = channel.one_ring_correlation(geom, channel.OneRingParams(theta, delta, beta))
            n_int = rng.integers(0, 3)
            ints = [
                channel.one_ring_correlation(
                    geom,
                    channel.OneRingParams(
                        rng.uniform(-np.pi, np.pi), rng.uniform(0.05, 1.0), rng.uniform(0.1, 1.0)
                    ),
                )
                for _ in range(n_int)
            ]
            phi = channel.mmse_statistics(r, ints, rng.uniform(0.01, 1.0)).phi
            tol = 1e-9 * np.trace(r).real
            assert np.linalg.eigvalsh(hermitize(phi)).min() >= -tol
            assert np.linalg.eigvalsh(hermitize(r - phi)).min() >= -tol

    def test_statistics_accept_list_interferers(self):
        geom = channel.uniform_circular_array(4)
        r = channel.one_ring_correlation(geom, channel.OneRingParams(0.1, 0.4, 1.3))
        r2 = channel.one_ring_correlation(geom, channel.OneRingParams(1.1, 0.3, 0.6))
        from_arrays = channel.mmse_statistics(r, [r2], 0.37)
        from_lists = channel.mmse_statistics(r, [r2.tolist()], 0.37)
        for a, b in zip(from_arrays, from_lists):
            np.testing.assert_array_equal(a, b)
        with pytest.raises(DimensionMismatch):
            channel.mmse_statistics(r, [np.eye(3).tolist()], 0.37)

    def test_estimate_error_independence(self):
        # cov(est) must be R - phi and the error must be uncorrelated with it
        rng = np.random.default_rng(3)
        r = np.diag([1.0, 0.5])
        trials = 60_000
        ests = np.empty((trials, 2), dtype=complex)
        errs = np.empty((trials, 2), dtype=complex)
        stats = channel.mmse_statistics(r, [], 0.5)
        phi = stats.phi
        for t in range(trials):
            h, hhat = channel.mmse_csit_tdd(stats.est_root, stats.err_root, rng)
            ests[t] = hhat
            errs[t] = h - hhat
        est_cov = ests.conj().T @ ests / trials
        err_cov = errs.conj().T @ errs / trials
        cross = ests.conj().T @ errs / trials
        np.testing.assert_allclose(est_cov, r - phi, atol=0.05)
        np.testing.assert_allclose(err_cov, phi, atol=0.05)
        assert np.abs(cross).max() < 0.05


class TestMmseStatisticsWhitePriors:
    def test_matches_tdd_error_power_for_white_covariances(self):
        # with white priors the per-antenna error power of the uplink-trained
        # model has the closed form beta (1 - beta / (beta + beta_int + noise))
        n = 4
        beta, beta_int, noise = 1.3, 0.4, 0.2
        r = beta * np.eye(n)
        phi = channel.mmse_statistics(r, [beta_int * np.eye(n)], noise).phi
        alpha = beta * (1.0 - beta / (beta + beta_int + noise))
        assert np.trace(phi).real / n == pytest.approx(alpha, rel=1e-12)


class TestFddCsit:
    def test_perfect_quality_endpoint(self):
        r = np.diag([2.0, 1.0])
        h, hhat = channel.fdd_quantized_csit(hermitian_sqrt(r), 0.0, 7)
        np.testing.assert_allclose(h, hhat)

    def test_zero_quality_endpoint_decorrelates(self):
        rng = np.random.default_rng(21)
        trials = 40_000
        cross = 0.0
        for _ in range(trials):
            h, hhat = channel.fdd_quantized_csit(np.eye(1), 1.0, rng)
            cross += (h.conj() * hhat).real[0]
        assert abs(cross / trials) < 0.05

    def test_estimate_covariance_preserved(self):
        rng = np.random.default_rng(8)
        n, trials = 2, 60_000
        acc = np.zeros((n, n), dtype=complex)
        for _ in range(trials):
            _, hhat = channel.fdd_quantized_csit(np.eye(n), 0.5, rng)
            acc += np.outer(hhat, hhat.conj())
        assert np.abs(acc / trials - np.eye(n)).max() < 0.05

    def test_reported_cov_is_kappa_sq_scaled(self):
        # the error covariances a link campaign reports for the fdd model
        cfg = config_from_dict(dict(scenario="link", n_antennas=3, n_users=2, algorithms=["mrt"],
                                    seed=0, csit_model="fdd", fdd_kappa=0.5))
        r = evaluation._link_correlations(cfg)
        phi = evaluation.link_statistics(cfg).cov
        np.testing.assert_allclose(phi, 0.25 * r)


class TestAdditiveCsit:
    def test_zero_cov_returns_exact(self):
        root = hermitian_sqrt(np.diag([1.0, 2.0]).astype(complex))
        h, hhat = channel.additive_error_csit(root, hermitian_sqrt(np.zeros((2, 2))), 0)
        np.testing.assert_allclose(hhat, h)

    def test_empirical_error_covariance(self):
        rng = np.random.default_rng(17)
        n, trials = 2, 100_000
        root = hermitian_sqrt(np.eye(n, dtype=complex))
        errs = np.empty((trials, n), dtype=complex)
        for t in range(trials):
            h, hhat = channel.additive_error_csit(root, hermitian_sqrt(0.1 * np.eye(n)), rng)
            errs[t] = hhat - h
        emp = errs.conj().T @ errs / trials
        assert np.abs(emp - 0.1 * np.eye(n)).max() < 0.05 * 0.1 + 0.005

    def test_null_direction_untouched(self):
        rng = np.random.default_rng(4)
        root = hermitian_sqrt(np.eye(2, dtype=complex))
        for _ in range(20):
            h, hhat = channel.additive_error_csit(root, hermitian_sqrt(np.diag([0.1, 0.0])), rng)
            assert hhat[1] == h[1]


class TestTopology:
    def test_hex_grid_counts_and_spacing(self):
        centers = channel.hex_cell_centers(19, 1000.0)
        assert centers.shape == (19, 2)
        np.testing.assert_allclose(centers[0], 0.0)
        dists = np.linalg.norm(centers[1:7] - centers[0], axis=1)
        np.testing.assert_allclose(dists, 1000.0)

    def test_drop_respects_minimum_distance(self):
        topo = channel.drop_users(7, 10, 1000.0, 40.0, 99)
        d = topo.distances_km() * 1000.0
        assert d.min() >= 40.0
        assert topo.user_xy.shape == (7, 10, 2)

    def test_users_inside_own_hexagon(self):
        topo = channel.drop_users(3, 50, 1000.0, 40.0, 5)
        for l in range(3):
            rel = topo.user_xy[l] - topo.cell_xy[l]
            assert channel._in_hexagon(rel, 500.0).all()

    def test_minimum_distance_beyond_the_hexagon_rejected(self):
        # no point of a 60 m hexagon lies 40 m from its center
        with pytest.raises(ValueError, match="circumradius"):
            channel.drop_users(1, 1, 60.0, 40.0, 0)

    def test_minimum_distance_bounded_by_the_inradius(self):
        # toward the circumradius almost no candidate passes, and a 19-cell drop
        # at 577.3 m did not finish; the inradius, half the inter-site
        # distance, is the largest distance allowed
        topo = channel.drop_users(19, 4, 1000.0, 500.0, 0)
        assert (topo.distances_km() * 1000.0).min() >= 500.0
        with pytest.raises(ValueError, match="circumradius"):
            channel.drop_users(19, 4, 1000.0, 500.001, 0)

    def test_nan_minimum_distance_rejected(self):
        # NaN passes no distance test, so the rejection loop would never place a user
        with pytest.raises(ValueError, match="circumradius"):
            channel.drop_users(1, 2, 1000.0, float("nan"), 0)

    @pytest.mark.parametrize("inter_site", [float("nan"), float("inf"), 0.0, -1000.0])
    def test_non_finite_or_non_positive_inter_site_rejected(self, inter_site):
        with pytest.raises(ValueError, match="^inter_site .* must be positive and finite$"):
            channel.drop_users(1, 2, inter_site, 40.0, 0)

    def test_deterministic_per_seed(self):
        a = channel.drop_users(4, 6, 1000.0, 40.0, 11)
        b = channel.drop_users(4, 6, 1000.0, 40.0, 11)
        assert np.array_equal(a.user_xy, b.user_xy)
