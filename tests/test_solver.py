import dataclasses
import gc
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpip import coop, evaluation, solver
from gpip.errors import DimensionMismatch, NotPositiveDefinite
from gpip.numerics import cholesky_factor, hermitize, solve_hermitian

# channels of the two-antenna, three-user worked example used across the suite
EX_CHANNELS = np.array(
    [
        [0.46 + 0.56j, 0.08 - 0.67j],
        [0.04 + 0.33j, 0.01 + 0.365j],
        [-0.0031 - 0.0025j, 0.0082 - 0.0038j],
    ]
)


def random_instance(rng, k, n, cov_scale=0.0, noise_ratio=0.1):
    est = (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))) / np.sqrt(2)
    if cov_scale > 0:
        cov = np.empty((k, n, n), dtype=complex)
        for i in range(k):
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            cov[i] = cov_scale * hermitize(m @ m.conj().T) / n
    else:
        cov = None
    return est, cov, noise_ratio


def scalar_covs(rng, k, n, scale):
    """Per-user alpha_k * I with alpha_k uniform in [0, scale), one of them
    exactly 0 when K > 1."""
    alpha = rng.uniform(0.0, scale, k)
    if k > 1:
        alpha[rng.integers(k)] = 0.0
    return alpha[:, None, None] * np.eye(n)


def random_kind_instance(rng, k, n, kind, cov_scale, noise_ratio=0.1):
    """random_instance with error covariances of one of the kernel's three
    forms: "zero" (None), "scalar" (scalar_covs) or "full"."""
    est, cov, nr = random_instance(rng, k, n, cov_scale if kind == "full" else 0.0, noise_ratio)
    return est, scalar_covs(rng, k, n, cov_scale) if kind == "scalar" else cov, nr


COV_KINDS = ("zero", "scalar", "full")


def covfree_pairs(est, alphas, nr):
    """The pairs of (K, N) estimates with error covariances alpha_k * I, from one
    shared level or one per user: what `gpip_covfree` solves on."""
    est = np.asarray(est)
    k, n = est.shape
    levels = np.broadcast_to(alphas, (k,))
    cov = np.zeros((k, n, n), dtype=np.result_type(levels, float))
    cov[:, range(n), range(n)] = levels[:, None]  # no 0 * inf off the diagonal
    return solver.build_effective_pairs(est, cov, nr)


def random_stack(rng, k, n):
    f = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    return f / np.linalg.norm(f)


def direct_quadratic_forms(est, cov, noise_ratio, f):
    """Term-by-term evaluation of the lifted numerator/denominator sums."""
    k, n = est.shape
    cov = np.zeros((k, n, n)) if cov is None else cov
    nr = np.broadcast_to(np.asarray(noise_ratio, dtype=float), (k,))
    norm2 = np.sum(np.abs(f) ** 2)
    qa = np.empty(k)
    qb = np.empty(k)
    for u in range(k):
        total = 0.0
        for i in range(k):
            total += abs(est[u].conj() @ f[i]) ** 2
            total += np.real(f[i].conj() @ cov[u] @ f[i])
        qa[u] = total + nr[u] * norm2
        qb[u] = qa[u] - abs(est[u].conj() @ f[u]) ** 2
    return qa, qb


def direct_weighted_rate(est, cov, noise_ratio, f, w=None):
    """Independent SINR-form evaluation of the weighted rate lower bound."""
    k, n = est.shape
    cov = np.zeros((k, n, n)) if cov is None else cov
    nr = np.broadcast_to(np.asarray(noise_ratio, dtype=float), (k,))
    w = np.ones(k) if w is None else w
    norm2 = np.sum(np.abs(f) ** 2)
    total = 0.0
    for u in range(k):
        desired = abs(est[u].conj() @ f[u]) ** 2
        iui = sum(abs(est[u].conj() @ f[i]) ** 2 for i in range(k) if i != u)
        leak = sum(np.real(f[i].conj() @ cov[u] @ f[i]) for i in range(k))
        total += w[u] * np.log2(1.0 + desired / (iui + leak + nr[u] * norm2))
    return total


class TestBuildEffectivePair:
    def test_single_user_direct_substitution(self):
        est = np.array([[1.0 + 0j, 0.0]])
        pair = solver.build_effective_pairs(est, None, 1.0)[0]
        np.testing.assert_allclose(pair.a.dense(), np.diag([2.0, 1.0]))
        np.testing.assert_allclose(pair.b.dense(), np.eye(2))

    def test_a_minus_b_is_single_rank_one_block(self):
        rng = np.random.default_rng(0)
        est, cov, nr = random_instance(rng, 3, 2, cov_scale=0.2)
        for u in range(3):
            pair = solver.build_effective_pairs(est, cov, nr)[u]
            diff = pair.a.dense() - pair.b.dense()
            expected = np.zeros_like(diff)
            expected[2 * u : 2 * u + 2, 2 * u : 2 * u + 2] = np.outer(est[u], est[u].conj())
            np.testing.assert_allclose(diff, expected, atol=1e-14)
            evals = np.linalg.eigvalsh(hermitize(diff))
            assert evals.min() > -1e-12
            assert np.sum(evals > 1e-12) == 1

    def test_quadratic_forms_match_direct_sums(self):
        rng = np.random.default_rng(42)
        est, cov, nr = random_instance(rng, 3, 2, cov_scale=0.3)
        pairs = solver.build_effective_pairs(est, cov, nr)
        for _ in range(20):
            f = random_stack(rng, 3, 2)
            qa, qb = direct_quadratic_forms(est, cov, nr, f)
            for u, pair in enumerate(pairs):
                assert pair.a.quad(f.reshape(-1)) == pytest.approx(qa[u], abs=1e-10)
                assert pair.b.quad(f.reshape(-1)) == pytest.approx(qb[u], abs=1e-10)


class TestObjective:
    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        est, cov, nr = random_instance(rng, 3, 2, cov_scale=0.1)
        pairs = solver.build_effective_pairs(est, cov, nr)
        f = random_stack(rng, 3, 2)
        lam = 2.0 ** solver.objective_log2(pairs, None, f)
        for alpha in (2.0, 0.3, 1j, -1.5):
            assert 2.0 ** solver.objective_log2(pairs, None, alpha * f) == pytest.approx(
                lam, rel=1e-12
            )

    def test_single_user_matched_filter_value(self):
        est = np.array([[1.0 + 0j, 0.0]])
        pairs = solver.build_effective_pairs(est, None, 1.0)
        f = est / np.linalg.norm(est)
        assert 2.0 ** solver.objective_log2(pairs, None, f) == pytest.approx(2.0)

    def test_log_objective_equals_direct_rate_form(self):
        rng = np.random.default_rng(7)
        est, cov, nr = random_instance(rng, 2, 2, cov_scale=0.2)
        pairs = solver.build_effective_pairs(est, cov, nr)
        for _ in range(10):
            f = random_stack(rng, 2, 2)
            expected = direct_weighted_rate(est, cov, nr, f)
            assert solver.objective_log2(pairs, None, f) == pytest.approx(expected, abs=1e-9)

    def test_log_objective_with_weights(self):
        rng = np.random.default_rng(8)
        est, cov, nr = random_instance(rng, 3, 2, cov_scale=0.1)
        pairs = solver.build_effective_pairs(est, cov, nr)
        w = np.array([1.0, 2.0, 0.5])
        f = random_stack(rng, 3, 2)
        expected = direct_weighted_rate(est, cov, nr, f, w)
        assert solver.objective_log2(pairs, w, f) == pytest.approx(expected, abs=1e-9)


class TestBuildWeightedPair:
    def test_unit_weight_coefficients_are_cross_products(self):
        rng = np.random.default_rng(3)
        est, cov, nr = random_instance(rng, 2, 2)
        pairs = solver.build_effective_pairs(est, cov, nr)
        f = random_stack(rng, 2, 2)
        qa, qb = direct_quadratic_forms(est, cov, nr, f)
        abar, bbar = solver.build_weighted_pair(pairs, None, f)
        # Abar = c0 A0 + c1 A1 with c0 prop to qa1, c1 prop to qa0 (shared scale)
        expected_dir = qa[1] * pairs[0].a.dense() + qa[0] * pairs[1].a.dense()
        got = abar.dense()
        scale = got[0, 0] / expected_dir[0, 0]
        np.testing.assert_allclose(got, scale * expected_dir, atol=1e-10 * abs(scale))

    def test_single_user_reduces_to_pair(self):
        est = np.array([[0.5 + 0.5j, -0.3j]])
        pairs = solver.build_effective_pairs(est, None, 0.7)
        f = est / np.linalg.norm(est)
        abar, bbar = solver.build_weighted_pair(pairs, None, f)
        a = pairs[0].a.dense()
        scale = abar.dense()[0, 0] / a[0, 0]
        np.testing.assert_allclose(abar.dense(), scale * a, atol=1e-12 * abs(scale))
        np.testing.assert_allclose(bbar.dense(), scale * pairs[0].b.dense(), atol=1e-10 * abs(scale))

    def test_pencil_residual_parallels_numerical_gradient(self):
        # finite-difference oracle for the stationarity direction, mixed weights
        rng = np.random.default_rng(12)
        est, cov, nr = random_instance(rng, 3, 2, cov_scale=0.15)
        pairs = solver.build_effective_pairs(est, cov, nr)
        w = np.array([1.0, 2.0, 0.5])
        f = random_stack(rng, 3, 2)
        abar, bbar = solver.build_weighted_pair(pairs, w, f)
        lam = 2.0 ** solver.objective_log2(pairs, w, f)
        fv = f.reshape(-1)
        pencil_dir = abar.matvec(fv) - lam * bbar.matvec(fv)

        def log_obj(vec):
            return direct_weighted_rate(est, cov, nr, vec.reshape(3, 2), w) * np.log(2.0)

        eps = 1e-6
        grad = np.zeros(6, dtype=complex)
        for idx in range(6):
            for direction, mult in ((1.0, 1.0), (1j, 1j)):
                up, down = fv.copy(), fv.copy()
                up[idx] += eps * direction
                down[idx] -= eps * direction
                grad[idx] += 0.5 * mult * (log_obj(up) - log_obj(down)) / (2 * eps)
        cos = abs(np.vdot(pencil_dir, grad)) / (
            np.linalg.norm(pencil_dir) * np.linalg.norm(grad)
        )
        assert cos > 1 - 1e-5


class TestGpipIterate:
    def test_single_user_converges_to_matched_filter(self):
        rng = np.random.default_rng(5)
        est = (rng.standard_normal((1, 4)) + 1j * rng.standard_normal((1, 4))) / np.sqrt(2)
        pairs = solver.build_effective_pairs(est, None, 0.5)
        init = random_stack(rng, 1, 4)
        res = solver.gpip_iterate(pairs, init=init, tol=1e-10, max_iter=500)
        direction = est[0] / np.linalg.norm(est[0])
        assert abs(np.vdot(res.precoder[0], direction)) > 1 - 1e-8

    def test_worked_example_deactivates_weak_user(self):
        pairs = solver.build_effective_pairs(EX_CHANNELS, None, 0.1)
        res = solver.gpip_iterate(pairs, tol=0.01)
        assert res.converged
        assert np.sum(np.abs(res.precoder[2]) ** 2) <= 1e-3
        assert res.schedule == [0, 1]

    def test_near_optimality_against_random_search(self):
        # oracle: best of many random unit stacks, objective evaluated by the
        # independent direct rate form
        rng = np.random.default_rng(100)
        est, cov, nr = random_instance(rng, 2, 2)
        pairs = solver.build_effective_pairs(est, cov, nr)
        res = solver.gpip_iterate(pairs, tol=1e-8, max_iter=500)
        best = -np.inf
        samples = rng.standard_normal((100_000, 4)) + 1j * rng.standard_normal((100_000, 4))
        samples /= np.linalg.norm(samples, axis=1, keepdims=True)
        for f in samples[:: 100_000 // 2_000]:
            best = max(best, direct_weighted_rate(est, cov, nr, f.reshape(2, 2)))
        got = direct_weighted_rate(est, cov, nr, res.precoder)
        assert got >= 0.99 * best

    def test_unit_power_and_trajectory_improves_on_start(self):
        rng = np.random.default_rng(33)
        for seed in range(10):
            est, cov, nr = random_instance(np.random.default_rng(seed), 4, 4, cov_scale=0.1)
            pairs = solver.build_effective_pairs(est, cov, nr)
            res = solver.gpip_iterate(pairs, tol=1e-6, max_iter=200)
            assert abs(np.linalg.norm(res.precoder) - 1.0) < 1e-12
            assert res.objective_log2 >= res.trajectory[0] - 1e-12
            assert res.per_user_power.sum() == pytest.approx(1.0, abs=1e-10)

    def test_max_iter_flag(self):
        rng = np.random.default_rng(2)
        est, cov, nr = random_instance(rng, 4, 2)
        pairs = solver.build_effective_pairs(est, cov, nr)
        res = solver.gpip_iterate(pairs, tol=1e-14, max_iter=3)
        assert not res.converged
        assert res.iterations == 3

    def test_rejects_non_finite_estimates_and_misshaped_init(self):
        pairs = solver.build_effective_pairs(EX_CHANNELS, None, 0.1)
        with pytest.raises(DimensionMismatch):
            solver.gpip_iterate(pairs, init=np.ones((2, 3)))
        with pytest.raises(ValueError, match="init must be finite"):
            solver.gpip_iterate(pairs, init=np.full((3, 2), np.inf))
        bad = EX_CHANNELS.copy()
        bad[1, 0] = np.nan
        with pytest.raises(ValueError, match="estimates must be finite"):
            solver.gpip_iterate(solver.build_effective_pairs(bad, None, 0.1))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("nr", [0.0, -0.1])
    def test_rejects_non_positive_noise_ratios(self, nr):
        with pytest.raises(ValueError, match="noise ratios must be positive"):
            solver.gpip_iterate(solver.build_effective_pairs(EX_CHANNELS, None, nr))

    def test_all_zero_estimates_name_the_estimates(self):
        pairs = solver.build_effective_pairs(np.zeros((3, 2)), None, 0.1)
        with pytest.raises(ValueError, match="estimates are all zero"):
            solver.gpip_iterate(pairs)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 4), st.integers(1, 4))
    def test_objective_never_below_start_property(self, seed, k, n):
        rng = np.random.default_rng(seed)
        est, cov, nr = random_instance(rng, k, n, cov_scale=0.1)
        pairs = solver.build_effective_pairs(est, cov, nr)
        init = random_stack(rng, k, n)
        for res in (
            solver.gpip_iterate(pairs, init=init, tol=1e-6, max_iter=50),
            solver.gpip_covfree(covfree_pairs(est, 0.1, nr), init=init, tol=1e-6, max_iter=50),
        ):
            assert res.objective_log2 >= res.trajectory[0]

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 1000))
    def test_scale_invariance_property(self, seed):
        rng = np.random.default_rng(seed)
        est, cov, nr = random_instance(rng, 2, 3, cov_scale=0.05)
        pairs = solver.build_effective_pairs(est, cov, nr)
        f = random_stack(rng, 2, 3)
        lam = 2.0 ** solver.objective_log2(pairs, None, f)
        alpha = complex(rng.standard_normal(), rng.standard_normal())
        if abs(alpha) > 1e-3:
            assert 2.0 ** solver.objective_log2(pairs, None, alpha * f) == pytest.approx(
                lam, rel=1e-11
            )


@pytest.mark.parametrize("solve", [
    lambda est, tol: solver.gpip_iterate(solver.build_effective_pairs(est, None, 0.1), tol=tol),
    lambda est, tol: solver.gpip_covfree(covfree_pairs(est, 0.1, 0.1), tol=tol),
    lambda est, tol: coop.gpip_coop(coop.build_coop_pairs(est[None, None], None, 0.1), tol=tol),
], ids=["gpip_iterate", "gpip_covfree", "gpip_coop"])
def test_nan_tol_rejected(solve):
    # NaN fails every comparison, so a `tol <= 0` guard let it run to max_iter
    est = random_instance(np.random.default_rng(3), 3, 4)[0]
    with pytest.raises(ValueError, match="^tol must be positive$"):
        solve(est, float("nan"))


@pytest.mark.parametrize("shape", [(3, 0), (0, 3)], ids=["N=0", "K=0"])
@pytest.mark.parametrize("solve", [
    lambda est: solver.gpip_iterate(solver.build_effective_pairs(est, None, 0.1)),
    lambda est: solver.gpip_covfree(covfree_pairs(est, 0.1, 0.1)),
    lambda est: coop.gpip_coop(coop.build_coop_pairs(est[None, None], None, 0.1)),
], ids=["gpip_iterate", "gpip_covfree", "gpip_coop"])
def test_empty_cells_raise_dimension_mismatch(solve, shape):
    # with no user or no antenna, the default init was reported as all zero
    with pytest.raises(DimensionMismatch, match="^need at least one cell, user and antenna"):
        solve(np.zeros(shape))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("solve", [
    lambda est, nr, w: solver.gpip_iterate(solver.build_effective_pairs(est, None, nr), weights=w),
    lambda est, nr, w: solver.gpip_covfree(covfree_pairs(est, 0.1, nr), weights=w),
    lambda est, nr, w: coop.gpip_coop(coop.build_coop_pairs(est[None, None], None, nr),
                                      weights=None if w is None else w[None]),
], ids=["gpip_iterate", "gpip_covfree", "gpip_coop"])
def test_complex_scalars_rejected(solve):
    # a float cast would drop the imaginary part with only a ComplexWarning
    est = random_instance(np.random.default_rng(3), 3, 4)[0]
    with pytest.raises(ValueError, match="^noise ratios must be real$"):
        solve(est, np.array([0.1 + 1j, 0.1, 0.1]), None)
    with pytest.raises(ValueError, match="^weights must be real$"):
        solve(est, 0.1, np.array([1.0, 1.0 + 0.5j, 1.0]))
    # a zero imaginary part is a real value
    want = solve(est, 0.1, np.ones(3))
    got = solve(est, np.complex128(0.1), np.ones(3, dtype=complex))
    np.testing.assert_array_equal(got.precoder, want.precoder)


class TestInvariances:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 5), st.integers(1, 5),
           st.floats(-3.0, 3.0))
    def test_rescaled_channel_knowledge_gives_the_same_precoder(self, seed, k, n, log_s):
        # (h * s, phi * s^2, noise * s^2) scales every quadratic form by s^2
        rng = np.random.default_rng(seed)
        est, cov, nr = random_instance(rng, k, n, cov_scale=0.1)
        s = 10.0**log_s
        ref = solver.gpip_iterate(solver.build_effective_pairs(est, cov, nr),
                                  tol=1e-10, max_iter=2000)
        res = solver.gpip_iterate(solver.build_effective_pairs(est * s, cov * s**2, nr * s**2),
                                  tol=1e-10, max_iter=2000)
        np.testing.assert_allclose(res.precoder, ref.precoder, atol=1e-6)
        assert res.objective_log2 == pytest.approx(ref.objective_log2, rel=1e-9, abs=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 5), st.integers(1, 5))
    def test_permuted_users_permute_the_precoder_rows(self, seed, k, n):
        rng = np.random.default_rng(seed)
        est, cov, _ = random_instance(rng, k, n, cov_scale=0.1)
        nr = rng.uniform(0.05, 0.5, k)
        w = rng.uniform(0.5, 2.0, k)
        perm = rng.permutation(k)
        ref = solver.gpip_iterate(solver.build_effective_pairs(est, cov, nr), weights=w,
                                  tol=1e-10, max_iter=2000)
        res = solver.gpip_iterate(solver.build_effective_pairs(est[perm], cov[perm], nr[perm]),
                                  weights=w[perm], tol=1e-10, max_iter=2000)
        np.testing.assert_allclose(res.precoder, ref.precoder[perm], atol=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 8), st.integers(1, 8),
           st.sampled_from(COV_KINDS))
    def test_log2_objective_is_the_sum_of_rate_bounds(self, seed, k, n, cov_kind):
        rng = np.random.default_rng(seed)
        est, cov, _ = random_kind_instance(rng, k, n, cov_kind, 0.2)
        nr = rng.uniform(0.01, 1.0, k)
        w = rng.uniform(0.1, 3.0, k)
        f = random_stack(rng, k, n)
        pairs = solver.build_effective_pairs(est, cov, nr)
        rates = evaluation.gmi_rate_lb(est, cov, f, nr)
        assert solver.objective_log2(pairs, w, f) == pytest.approx(
            float(np.dot(w, rates)), rel=1e-10, abs=1e-12
        )


class TestBlockSolves:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.integers(1, 8),
        st.integers(1, 8),
        st.sampled_from(COV_KINDS),
        st.sampled_from([0.0, 30.0, 60.0]),
    )
    def test_one_sweep_matches_per_block_cholesky(self, seed, k, n, cov_kind, snr_db):
        rng = np.random.default_rng(seed)
        est, cov, nr = random_kind_instance(rng, k, n, cov_kind, 0.1, 10 ** (-snr_db / 10))
        pairs = solver.build_effective_pairs(est, cov, nr)
        w = rng.uniform(0.2, 2.0, size=k)
        f = random_stack(rng, k, n)
        res = solver.gpip_iterate(pairs, w, init=f, tol=1e-300, max_iter=1)
        abar, bbar = solver.build_weighted_pair(pairs, w, f)
        step = bbar.solve(abar.matvec(f.reshape(-1)))
        step /= np.linalg.norm(step)
        ref = solver.objective_log2(pairs, w, step.reshape(k, n))
        assert res.trajectory[1] == pytest.approx(ref, rel=1e-9)

    def test_singular_block_raises_without_warnings(self):
        # no ridge and no error covariance: with K = N every Bbar block is
        # the full-rank shared block minus one of its K rank-one terms
        rng = np.random.default_rng(4)
        est, _, _ = random_instance(rng, 4, 4)
        # the builders reject a zero noise ratio, so the pairs are made directly
        pairs = solver.LiftedPairs(est[None, None], np.zeros((1, 1, 4, 4, 4), dtype=complex),
                                   np.zeros((1, 4)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotPositiveDefinite):
                solver.gpip_iterate(pairs)

    @pytest.mark.parametrize("fill, what", [(np.nan, "non-finite"), (1e300, "non-finite"),
                                            (0.0, "zero")])
    def test_broken_down_solve_names_its_sweep(self, fill, what):
        rng = np.random.default_rng(5)
        est, cov, nr = random_instance(rng, 3, 2)
        prob = solver._problem(solver.build_effective_pairs(est, cov, nr), single_cell=True)

        def broken(d, rhs):
            return np.full_like(rhs, fill)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotPositiveDefinite,
                               match=f"^sweep 1: the Bbar solve returned a stack of {what} norm$"):
                solver._power_iteration(prob, np.ones(3), None, 0.01, 10, broken)


class FullRouteProblem(solver._ClusterProblem):
    """Oracle for the scalar route: the same problem with its covariances
    contracted as a dense (C, C, K, N, N) stack, as the full route does."""

    def __init__(self, est, cov, nr):
        super().__init__(est, cov, nr)
        self.dense_cov = cov
        self.dense_g0 = np.einsum("jlkn,jlkm->jlknm", est, est.conj()) + cov

    def quad_forms(self, f):
        inner = self.est_conj @ f.transpose(0, 2, 1)[:, None]
        power = np.abs(inner) ** 2
        gram = np.einsum("jin,jim->jnm", f.conj(), f)
        leak = np.real(np.einsum("jlknm,jnm->lk", self.dense_cov, gram))
        qa = power.sum(axis=(0, 3)) + leak + self.nr * np.vdot(f, f).real
        return qa, qa - power.diagonal(0, 0, 1).diagonal(0, 0, 1)

    def cell_blocks(self, coeff):
        blocks = np.einsum("lk,jlknm->jnm", coeff, self.dense_g0)
        return blocks + np.vdot(coeff, self.nr) * np.eye(self.n)


def _cov_stack(*alphas, entry=None):
    """alpha * I blocks of size 3, with `entry` = (block, row, col, value) set."""
    cov = np.stack([a * np.eye(3, dtype=complex) for a in alphas])
    if entry is not None:
        cov[entry[:3]] = entry[3]
    return cov


@pytest.mark.parametrize("cov, form", [
    (np.zeros((2, 4, 3, 3), dtype=complex), "zero"),
    (_cov_stack(0.3, 0.05, 2.0), "scalar"),
    (_cov_stack(0.0, 0.1, 0.0), "scalar"),
    (_cov_stack(0.1 + 0.1j, 0.1), "full"),
    (_cov_stack(0.1, 0.1, entry=(1, 0, 2, 1e-300)), "full"),
    (_cov_stack(0.1, 0.1, entry=(0, 2, 2, 0.2)), "full"),
], ids=["all-zero", "unequal-real-alphas", "zero-and-alpha-blocks", "complex-alpha",
        "tiny-off-diagonal", "unequal-diagonal"])
def test_cov_form(cov, form):
    assert solver._cov_form(cov) == form


class TestCovarianceForms:
    @staticmethod
    def form(cov):
        pairs = solver.build_effective_pairs(EX_CHANNELS, cov, 0.1)
        return solver._problem(pairs, single_cell=True)

    def test_alpha_times_identity_takes_the_scalar_route(self):
        eye = np.eye(2)
        prob = self.form(np.stack([0.2 * eye, 0.0 * eye, 0.05 * eye]))
        assert prob.cov_form == "scalar"
        np.testing.assert_array_equal(prob.alpha, [[[0.2, 0.0, 0.05]]])
        assert not hasattr(prob, "cov") and not hasattr(prob, "g0")

    def test_anything_but_real_alpha_times_identity_takes_the_full_route(self):
        base = np.broadcast_to(0.2 * np.eye(2, dtype=complex), (3, 2, 2))
        off_diagonal, unequal, complex_diagonal = base.copy(), base.copy(), base.copy()
        off_diagonal[1, 0, 1] = 1e-3
        unequal[2, 1, 1] += 1e-12
        complex_diagonal[0] = (0.2 + 0.01j) * np.eye(2)
        for cov in (off_diagonal, unequal, complex_diagonal):
            assert self.form(cov).cov_form == "full"

    def test_perfect_knowledge_keeps_the_per_link_route(self):
        rng = np.random.default_rng(12)
        prob = self.form(None)
        assert prob.cov_form == "zero"
        coeff = rng.uniform(0.1, 2.0, (1, 3))
        expected = np.einsum("lk,jlknm->jnm", coeff, prob.g0)
        expected[:, [0, 1], [0, 1]] += np.vdot(coeff, prob.nr)
        np.testing.assert_array_equal(prob.cell_blocks(coeff), expected)

    def test_scalar_route_matches_the_full_route_oracle(self):
        rng = np.random.default_rng(32)
        k = n = 32
        est = (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))) / np.sqrt(2)
        cov = np.broadcast_to(0.1 * np.eye(n, dtype=complex), (k, n, n))
        res = solver.gpip_iterate(solver.build_effective_pairs(est, cov, 0.1))
        oracle = FullRouteProblem(est[None, None], cov[None, None], np.full((1, k), 0.1))
        best_f, best_obj, iterations, _, traj = solver._power_iteration(
            oracle, np.ones(k), None, solver.DEFAULT_TOL, solver.DEFAULT_MAX_ITER,
            partial(oracle.cholesky_blocks, solve=solve_hermitian),
        )
        assert res.iterations == iterations
        np.testing.assert_allclose(res.trajectory, traj, rtol=1e-12)
        assert np.linalg.norm(res.precoder - best_f[0]) <= 1e-12 * np.linalg.norm(best_f[0])


class TestCovarianceFree:
    def test_block_inverses_match_direct_cholesky(self):
        rng = np.random.default_rng(9)
        k, n = 4, 8
        est = (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))) / np.sqrt(2)
        d = rng.uniform(0.2, 1.5, size=k)
        delta = 0.7
        inverses = solver.covfree_block_inverses(est, d, delta)
        for j in range(k):
            block = delta * np.eye(n, dtype=complex)
            for i in range(k):
                if i != j:
                    block += d[i] * np.outer(est[i], est[i].conj())
            low = cholesky_factor(block)
            direct = solve_hermitian(block, np.eye(n, dtype=complex))
            assert np.abs(inverses[j] - direct).max() < 1e-8
            assert np.abs(low @ low.conj().T - block).max() < 1e-10

    @pytest.mark.parametrize("k", [1, 5, 32])
    def test_block_inverses_match_dense_inverse_over_wide_range(self, k):
        rng = np.random.default_rng(k)
        n, delta = 8, 1e-3
        est = (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))) / np.sqrt(2)
        d = np.exp(rng.uniform(np.log(1e-6), 0.0, size=k))
        inverses = solver.covfree_block_inverses(est, d, delta)
        for j in range(k):
            others = np.arange(k) != j
            block = delta * np.eye(n) + np.einsum(
                "i,in,im->nm", d[others], est[others], est[others].conj()
            )
            direct = np.linalg.inv(block)
            assert np.linalg.norm(inverses[j] - direct) <= 1e-10 * np.linalg.norm(direct)

    def test_leaves_no_reference_cycles(self):
        # a cycle per sweep keeps every sweep's (K, N, N) inverses alive until
        # a full collection, which grows the peak memory of long campaigns
        rng = np.random.default_rng(3)
        est = (rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))) / np.sqrt(2)
        gc.collect()
        gc.disable()
        try:
            solver.gpip_covfree(covfree_pairs(est, 0.1, 0.1), max_iter=5)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_zero_error_single_user_matched_filter(self):
        rng = np.random.default_rng(1)
        est = (rng.standard_normal((1, 3)) + 1j * rng.standard_normal((1, 3))) / np.sqrt(2)
        res = solver.gpip_covfree(covfree_pairs(est, 0.0, 0.4), tol=1e-10, max_iter=300)
        direction = est[0] / np.linalg.norm(est[0])
        assert abs(np.vdot(res.precoder[0], direction)) > 1 - 1e-8

    def test_matches_general_path_on_scalar_covariances(self):
        rng = np.random.default_rng(77)
        k, n = 4, 8
        est = (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))) / np.sqrt(2)
        alpha = 0.1
        cov = np.broadcast_to(alpha * np.eye(n), (k, n, n)).copy()
        pairs = solver.build_effective_pairs(est, cov, 0.2)
        ref = solver.gpip_iterate(pairs, tol=1e-8, max_iter=300)
        fast = solver.gpip_covfree(pairs, tol=1e-8, max_iter=300)
        assert np.abs(ref.precoder - fast.precoder).max() < 1e-6
        assert ref.schedule == fast.schedule

    def test_rejects_non_finite_inputs_and_misshaped_init(self):
        with pytest.raises(DimensionMismatch):
            solver.gpip_covfree(covfree_pairs(EX_CHANNELS, 0.1, 0.1), init=np.ones(5))
        with pytest.raises(ValueError, match="noise ratios must be finite"):
            covfree_pairs(EX_CHANNELS, 0.1, np.nan)
        bad = EX_CHANNELS.copy()
        bad[2, 1] = np.inf
        with pytest.raises(ValueError, match="estimates must be finite"):
            covfree_pairs(bad, 0.1, 0.1)

    @pytest.mark.filterwarnings("error")
    def test_rejects_non_positive_noise_and_negative_or_misshaped_scales(self):
        for alpha, nr in ((0.0, 0.0), (0.1, -0.05)):
            with pytest.raises(ValueError, match="noise ratios must be positive"):
                covfree_pairs(EX_CHANNELS, alpha, nr)
        with pytest.raises(ValueError, match="^error scales must be non-negative$"):
            solver.gpip_covfree(covfree_pairs(EX_CHANNELS, -0.1, 0.1))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alphas", [np.nan, np.inf, [0.1, np.nan, 0.1]])
    def test_rejects_non_finite_error_scales(self, alphas):
        with pytest.raises(ValueError, match="^error covariances must be finite$"):
            covfree_pairs(EX_CHANNELS, alphas, 0.1)

    def test_all_zero_estimates_name_the_estimates(self):
        with pytest.raises(ValueError, match="estimates are all zero"):
            solver.gpip_covfree(covfree_pairs(np.zeros((3, 2)), 0.1, 0.1))

    def test_three_dimensional_estimates_name_the_expected_shape(self):
        with pytest.raises(DimensionMismatch,
                           match=r"estimates must be \(K, N\), got \(2, 2, 2\)"):
            solver.build_effective_pairs(np.ones((2, 2, 2)), None, 0.1)

    def test_one_dimensional_estimates_name_the_expected_shape(self):
        with pytest.raises(DimensionMismatch, match=r"estimates must be \(K, N\), got \(3,\)"):
            solver.build_effective_pairs(np.ones(3), None, 0.1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("pairs, message", [
        (lambda: solver.build_effective_pairs(
            *random_instance(np.random.default_rng(4), 3, 2, cov_scale=0.1)),
         "^gpip_covfree needs .* got full ones"),
        # (0.1 + 0.1j) I is not Hermitian: its level has no real reading
        (lambda: covfree_pairs(EX_CHANNELS, [0.1, 0.1 + 0.1j, 0.1], 0.1), "complex levels$"),
        (lambda: covfree_pairs(EX_CHANNELS, [0.1, 0.0, -1e-3], 0.1),
         "^error scales must be non-negative$"),
    ], ids=["full", "complex", "negative"])
    def test_covariances_without_real_non_negative_levels_are_named(self, pairs, message):
        with pytest.raises(ValueError, match=message):
            solver.gpip_covfree(pairs())


class TestSchedule:
    def test_worked_example_schedule(self):
        pairs = solver.build_effective_pairs(EX_CHANNELS, None, 0.1)
        res = solver.gpip_iterate(pairs, tol=0.01)
        active, powers = solver.extract_schedule(res.precoder, 0.01)
        assert active == [0, 1]
        assert powers.sum() == pytest.approx(1.0, abs=1e-10)

    def test_equal_norm_stack_all_active(self):
        k = 4
        f = np.tile(np.array([1.0 + 0j, 0.0]), (k, 1)) / np.sqrt(k)
        active, _ = solver.extract_schedule(f, 0.4)  # threshold < 1/sqrt(4)
        assert active == list(range(k))

    def test_exact_zero_always_inactive(self):
        f = np.array([[1.0 + 0j, 0.0], [0.0, 0.0]])
        active, powers = solver.extract_schedule(f, 1e-12)
        assert active == [0]
        assert powers[1] == 0

    def test_power_scaling(self):
        f = np.array([[1.0 + 0j, 0.0], [0.0, 1.0 + 0j]]) / np.sqrt(2)
        _, powers = solver.extract_schedule(f, 0.01, total_power=10.0)
        np.testing.assert_allclose(powers, [5.0, 5.0])


class TestKktResidual:
    def test_exact_eigenvector_single_user(self):
        est = np.array([[0.8 + 0.1j, -0.4j, 0.2]])
        pairs = solver.build_effective_pairs(est, None, 0.5)
        # K=1: the pencil is frozen; matched filter is its exact stationary point
        f = est / np.linalg.norm(est)
        assert solver.kkt_residual(pairs, None, f) < 1e-10

    def test_converged_iterate_is_stationary(self):
        rng = np.random.default_rng(6)
        est, cov, nr = random_instance(rng, 3, 3, cov_scale=0.1)
        pairs = solver.build_effective_pairs(est, cov, nr)
        res = solver.gpip_iterate(pairs, tol=1e-6, max_iter=500)
        assert res.converged
        assert res.kkt_residual < 1e-4

    def test_solvers_reuse_their_problem_for_the_residual(self, monkeypatch):
        # one problem per solve; its residual equals a rebuilt one bit for bit
        rng = np.random.default_rng(16)
        est, cov, nr = random_instance(rng, 4, 3, cov_scale=0.1)
        alphas = np.full(4, 0.1)
        w = rng.uniform(0.5, 2.0, 4)
        cases = [
            ((est, cov, nr), lambda p: solver.gpip_iterate(p, weights=w, tol=1e-6)),
            ((est, alphas[:, None, None] * np.eye(3), nr),
             lambda p: solver.gpip_covfree(p, weights=w, tol=1e-6)),
        ]
        built = []

        class Counted(solver._ClusterProblem):
            def __init__(self, *args):
                built.append(1)
                super().__init__(*args)

        for arrays, solve in cases:
            built.clear()
            with monkeypatch.context() as patched:
                patched.setattr(solver, "_ClusterProblem", Counted)
                res = solve(solver.build_effective_pairs(*arrays))
            assert len(built) == 1
            fresh = solver.build_effective_pairs(*arrays)
            assert res.kkt_residual == solver.kkt_residual(fresh, w, res.precoder)

    def test_generic_point_is_not_stationary(self):
        rng = np.random.default_rng(15)
        est, cov, nr = random_instance(rng, 3, 3)
        pairs = solver.build_effective_pairs(est, cov, nr)
        f = random_stack(rng, 3, 3)
        assert solver.kkt_residual(pairs, None, f) > 0.01

    def test_equals_the_public_pencil_residual(self):
        rng = np.random.default_rng(17)
        est, cov, nr = random_instance(rng, 4, 3, cov_scale=0.1)
        pairs = solver.build_effective_pairs(est, cov, nr)
        w = rng.uniform(0.5, 2.0, 4)
        f = random_stack(rng, 4, 3)
        abar, bbar = solver.build_weighted_pair(pairs, w, f)
        lam = 2.0 ** solver.objective_log2(pairs, w, f)
        af = abar.matvec(f.reshape(-1))
        expected = np.linalg.norm(af - lam * bbar.matvec(f.reshape(-1))) / np.linalg.norm(af)
        assert solver.kkt_residual(pairs, w, f) == pytest.approx(expected, rel=1e-9)

    def test_finite_beyond_the_largest_double_objective(self):
        # zero forcing at noise ratio 1e-10, N = K = 48: the objective is about 1350
        # bits, and 2 ** objective overflowed a float
        rng = np.random.default_rng(48)
        est = (rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))) / np.sqrt(2)
        f = np.linalg.pinv(est.conj()).T  # row k is user k's zero-forcing beam
        f /= np.linalg.norm(f)
        cell = solver.build_effective_pairs(est, None, 1e-10)
        cluster = coop.build_coop_pairs(est[None, None], None, 1e-10)
        assert solver.objective_log2(cell, None, f) > 1024
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            residuals = [solver.kkt_residual(cell, None, f),
                         coop.coop_kkt_residual(cluster, None, f[None])]
            # the public pencil's Bbar is scaled by 2 ** -objective, which is not a
            # normal double here: it used to be returned as zero
            with pytest.raises(OverflowError, match=r"^objective of 13\d\d\.\d bits: "):
                solver.build_weighted_pair(cell, None, f)
        assert np.isfinite(residuals).all()


class TestResultSerialization:
    def test_csv_row_schema(self):
        pairs = solver.build_effective_pairs(EX_CHANNELS, None, 0.1)
        res = solver.gpip_iterate(pairs, tol=0.01)
        header = solver.GpipResult.csv_header(3)
        row = res.csv_row(seed=7, snr_db=10.0)
        assert len(header) == len(row)
        assert header[:4] == ["seed", "N", "K", "SNR_dB"]
        assert row[:4] == [7, 2, 3, 10.0]
        assert header[-2:] == ["objective_decreases", "stop_reason"]
        assert row[-2:] == [res.objective_decreases, "tol" if res.converged else "max_iter"]


class TestObjectiveDecreases:
    # N = K = 8 under perfect knowledge: the iteration settles at 20 dB and
    # oscillates between two states at 60 dB
    @pytest.mark.parametrize("snr_db, monotone", [(20.0, True), (60.0, False)])
    def test_counts_the_sweeps_whose_objective_fell(self, snr_db, monotone):
        rng = np.random.default_rng(1)
        est = (rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))) / np.sqrt(2)
        res = solver.gpip_iterate(solver.build_effective_pairs(est, None, 10 ** (-snr_db / 10)))
        traj = res.trajectory
        fell = sum(traj[i + 1] < traj[i] for i in range(len(traj) - 1))
        assert res.objective_decreases == fell
        assert (fell == 0) == monotone
        assert res.converged == monotone
        cres = coop.gpip_coop(coop.build_coop_pairs(est[None, None], None, 10 ** (-snr_db / 10)))
        assert cres.objective_decreases == fell
        assert cres.csv_row(0, snr_db)[-2] == fell


class TestPairLists:
    def test_duplicate_missing_or_out_of_range_pairs_are_rejected(self):
        # a hand-assembled list is no input, whatever pairs it holds; an
        # empty cell fails in the builder
        pairs = list(solver.build_effective_pairs(EX_CHANNELS, None, 0.1))
        f = EX_CHANNELS / np.linalg.norm(EX_CHANNELS)
        for bad in (
            pairs,
            [],
            pairs[:-1] + [pairs[0]],
            pairs[:-1],
            pairs[:-1] + [dataclasses.replace(pairs[-1], user=3)],
            pairs[:-1] + [dataclasses.replace(pairs[-1], cell=1)],
        ):
            with pytest.raises(TypeError):
                solver.gpip_iterate(bad)
            with pytest.raises(TypeError):
                solver.objective_log2(bad, None, f)
            with pytest.raises(TypeError):
                solver.kkt_residual(bad, None, f)
        with pytest.raises(DimensionMismatch):
            solver.build_effective_pairs(np.zeros((0, 2)), None, 0.1)


class TestLiftedPairs:
    def test_length_order_and_indexing(self):
        rng = np.random.default_rng(50)
        est, cov, nr = random_instance(rng, 3, 2, cov_scale=0.2)
        pairs = solver.build_effective_pairs(est, cov, nr)
        assert len(pairs) == 3
        assert [(p.cell, p.user, p.n_cells, p.n_users) for p in pairs] == [
            (0, u, 1, 3) for u in range(3)]
        assert pairs[-1].user == 2 and pairs[-3].user == 0
        for i in (3, -4):
            with pytest.raises(IndexError):
                pairs[i]

    def test_lifted_pairs_equal_pairs_built_from_the_same_slices(self):
        rng = np.random.default_rng(51)
        est, cov, nr = random_instance(rng, 3, 2, cov_scale=0.2)
        for u, p in enumerate(solver.build_effective_pairs(est, cov, nr)):
            ref = solver.EffectivePair(0, u, 1, 3, est[None, u], cov[None, u], nr)
            np.testing.assert_array_equal(p.a.dense(), ref.a.dense())
            np.testing.assert_array_equal(p.b.dense(), ref.b.dense())

    def test_two_solves_share_one_problem(self, monkeypatch):
        rng = np.random.default_rng(52)
        pairs = solver.build_effective_pairs(*random_instance(rng, 4, 3, cov_scale=0.1))
        built = []

        class Counted(solver._ClusterProblem):
            def __init__(self, *args):
                built.append(1)
                super().__init__(*args)

        monkeypatch.setattr(solver, "_ClusterProblem", Counted)
        first = solver.gpip_iterate(pairs, tol=1e-6)
        second = solver.gpip_iterate(pairs, tol=1e-6)
        assert len(built) == 1
        np.testing.assert_array_equal(first.precoder, second.precoder)
        assert first.trajectory == second.trajectory
        assert first.kkt_residual == second.kkt_residual

    def test_arrays_are_read_only_copies(self):
        rng = np.random.default_rng(53)
        est, cov, nr = random_instance(rng, 3, 2, cov_scale=0.2)
        ref = solver.gpip_iterate(solver.build_effective_pairs(est, cov, nr))
        pairs = solver.build_effective_pairs(est, cov, nr)
        est[:] = 0.0
        cov[:] = 0.0
        res = solver.gpip_iterate(pairs)
        np.testing.assert_array_equal(res.precoder, ref.precoder)
        for arr in (pairs.est, pairs.cov, pairs.nr):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1.0


def _cell_pairs():
    return solver.build_effective_pairs(*random_instance(np.random.default_rng(61), 2, 2, 0.1))


def _cluster_pairs():
    rng = np.random.default_rng(62)
    est = (rng.standard_normal((2, 2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2, 2))) / np.sqrt(2)
    return coop.build_coop_pairs(est, None, 0.1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", ["shape", "nan", "zero"])
@pytest.mark.parametrize("evaluate, pairs, name, shape, wrong", [
    (solver.objective_log2, _cell_pairs, "f_users", (2, 2), (3, 2)),
    (solver.build_weighted_pair, _cell_pairs, "f_users", (2, 2), (3, 2)),
    (solver.kkt_residual, _cell_pairs, "f_users", (2, 2), (3, 2)),
    (coop.lambda_coop_log2, _cluster_pairs, "f_cells", (2, 2, 2), (2, 3, 2)),
    (coop.coop_kkt_residual, _cluster_pairs, "f_cells", (2, 2, 2), (1, 2, 2)),
], ids=["objective_log2", "build_weighted_pair", "kkt_residual", "lambda_coop_log2",
        "coop_kkt_residual"])
def test_evaluators_check_their_stack(evaluate, pairs, name, shape, wrong, case):
    # a misshaped stack used to give a number (or broadcast over the cells),
    # and a zero or NaN stack a NaN
    if case == "shape":
        with pytest.raises(DimensionMismatch) as err:
            evaluate(pairs(), None, np.ones(wrong))
        assert str(err.value) == f"{name} must be {shape}, got {wrong}"
    else:
        stack = np.full(shape, np.nan if case == "nan" else 0.0)
        message = "finite" if case == "nan" else "nonzero"
        with pytest.raises(ValueError, match=f"^{name} must be {message}$"):
            evaluate(pairs(), None, stack)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_stacks_of_extreme_magnitude_act_as_unit_stacks(scale):
    # every use of a stack is scale-free; a squared norm that overflowed used
    # to raise a RuntimeWarning, and one that underflowed "must be nonzero"
    rng = np.random.default_rng(63)
    cell, cluster = _cell_pairs(), _cluster_pairs()
    f_cell, f_cluster = random_stack(rng, 2, 2), random_stack(rng, 4, 2).reshape(2, 2, 2)
    for evaluate, pairs, f in ((solver.objective_log2, cell, f_cell),
                               (solver.kkt_residual, cell, f_cell),
                               (coop.lambda_coop_log2, cluster, f_cluster),
                               (coop.coop_kkt_residual, cluster, f_cluster)):
        assert evaluate(pairs, None, scale * f) == pytest.approx(evaluate(pairs, None, f),
                                                                 rel=1e-13, abs=1e-15)
    for solve, pairs, f in ((solver.gpip_iterate, cell, f_cell), (coop.gpip_coop, cluster, f_cluster)):
        ref, res = solve(pairs, init=f), solve(pairs, init=scale * f)
        assert res.iterations == ref.iterations
        np.testing.assert_allclose(res.precoder, ref.precoder, rtol=0, atol=1e-14)
