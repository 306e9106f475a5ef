import dataclasses
import time
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpip import coop, solver
from gpip.errors import DimensionMismatch
from gpip.numerics import hermitize, solve_hermitian


def random_cluster(rng, c, k, n, cov_scale=0.0, cross_gain=0.3):
    """Cluster-wide estimates (C, C, K, N) with weaker cross-cell links."""
    est = (rng.standard_normal((c, c, k, n)) + 1j * rng.standard_normal((c, c, k, n))) / np.sqrt(2)
    for j in range(c):
        for l in range(c):
            if j != l:
                est[j, l] *= np.sqrt(cross_gain)
    if cov_scale > 0:
        cov = np.empty((c, c, k, n, n), dtype=complex)
        for j in range(c):
            for l in range(c):
                for u in range(k):
                    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                    cov[j, l, u] = cov_scale * hermitize(m @ m.conj().T) / n
    else:
        cov = None
    return est, cov


def scalar_cluster_covs(rng, c, k, n, scale):
    """alpha[j, l, u] * I, BS-specific, alpha uniform in [0, scale) with one of
    them exactly 0."""
    alpha = rng.uniform(0.0, scale, (c, c, k))
    alpha.flat[rng.integers(alpha.size)] = 0.0
    return alpha[..., None, None] * np.eye(n)


def random_coop_stack(rng, c, k, n):
    f = rng.standard_normal((c, k, n)) + 1j * rng.standard_normal((c, k, n))
    return f / np.linalg.norm(f)


def direct_coop_forms(est, cov, nr, f):
    """Term-by-term sums over (bs, precoded user) for quotient (l, k)."""
    c, _, k, n = est.shape
    cov = np.zeros((c, c, k, n, n)) if cov is None else cov
    nr = np.broadcast_to(np.asarray(nr, dtype=float), (c, k))
    norm2 = np.sum(np.abs(f) ** 2)
    qa = np.empty((c, k))
    qb = np.empty((c, k))
    for l in range(c):
        for u in range(k):
            total = 0.0
            for j in range(c):
                for i in range(k):
                    total += abs(est[j, l, u].conj() @ f[j, i]) ** 2
                    total += np.real(f[j, i].conj() @ cov[j, l, u] @ f[j, i])
            qa[l, u] = total + nr[l, u] * norm2
            qb[l, u] = qa[l, u] - abs(est[l, l, u].conj() @ f[l, u]) ** 2
    return qa, qb


def direct_coop_rate(est, cov, nr, f, w=None):
    qa, qb = direct_coop_forms(est, cov, nr, f)
    w = np.ones_like(qa) if w is None else w
    return float(np.sum(w * (np.log2(qa) - np.log2(qb))))


class TestBuildCoopPair:
    def test_single_cell_reduces_to_plain_pair(self):
        rng = np.random.default_rng(0)
        est, cov = random_cluster(rng, 1, 3, 2, cov_scale=0.2)
        for u in range(3):
            cpair = coop.build_coop_pairs(est, cov, 0.4)[u]
            pair = solver.build_effective_pairs(est[0, 0], cov[0, 0], 0.4)[u]
            np.testing.assert_allclose(cpair.a.dense(), pair.a.dense(), atol=1e-14)
            np.testing.assert_allclose(cpair.b.dense(), pair.b.dense(), atol=1e-14)

    def test_quotient_gap_is_own_beam_power(self):
        rng = np.random.default_rng(1)
        est, cov = random_cluster(rng, 2, 2, 3, cov_scale=0.1)
        pairs = coop.build_coop_pairs(est, cov, 0.3)
        f = random_coop_stack(rng, 2, 2, 3)
        fv = f.reshape(-1)
        for p in pairs:
            gap = p.a.quad(fv) - p.b.quad(fv)
            expected = abs(est[p.cell, p.cell, p.user].conj() @ f[p.cell, p.user]) ** 2
            assert gap == pytest.approx(expected, abs=1e-12)

    def test_misshaped_noise_ratios_name_the_expected_shape(self):
        expected = r"noise ratios must broadcast to \(C, K\) = \(1, 2\), got \(3,\)"
        with pytest.raises(DimensionMismatch, match=expected):
            coop.build_coop_pairs(np.ones((1, 1, 2, 2)), None, np.ones(3))

    def test_quadratic_forms_match_direct_sums(self):
        # the lifted pairs and the kernel's quadratic forms, for error
        # covariances of each of the kernel's three forms
        rng = np.random.default_rng(2)
        nr = 0.25
        for kind in ("zero", "scalar", "full"):
            est, cov = random_cluster(rng, 2, 2, 2, cov_scale=0.2 if kind == "full" else 0.0)
            if kind == "scalar":
                cov = scalar_cluster_covs(rng, 2, 2, 2, 0.2)
            pairs = coop.build_coop_pairs(est, cov, nr)
            prob = solver._problem(pairs)
            assert prob.cov_form == kind
            for _ in range(20):
                f = random_coop_stack(rng, 2, 2, 2)
                qa, qb = direct_coop_forms(est, cov, nr, f)
                np.testing.assert_allclose(prob.quad_forms(f), (qa, qb), rtol=0, atol=1e-10)
                fv = f.reshape(-1)
                for p in pairs:
                    assert p.a.quad(fv) == pytest.approx(qa[p.cell, p.user], abs=1e-10)
                    assert p.b.quad(fv) == pytest.approx(qb[p.cell, p.user], abs=1e-10)


class TestLambdaCoop:
    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        est, cov = random_cluster(rng, 2, 2, 2, cov_scale=0.1)
        pairs = coop.build_coop_pairs(est, cov, 0.2)
        f = random_coop_stack(rng, 2, 2, 2)
        lam = 2.0 ** coop.lambda_coop_log2(pairs, None, f)
        for alpha in (0.5, 2.0, 1j):
            assert 2.0 ** coop.lambda_coop_log2(pairs, None, alpha * f) == pytest.approx(
                lam, rel=1e-12
            )

    def test_single_cell_equals_plain_objective(self):
        rng = np.random.default_rng(4)
        est, cov = random_cluster(rng, 1, 3, 2, cov_scale=0.15)
        cpairs = coop.build_coop_pairs(est, cov, 0.3)
        pairs = solver.build_effective_pairs(est[0, 0], cov[0, 0], 0.3)
        f = random_coop_stack(rng, 1, 3, 2)
        assert coop.lambda_coop_log2(cpairs, None, f) == pytest.approx(
            solver.objective_log2(pairs, None, f[0]), abs=1e-12
        )

    def test_matches_direct_rate_form(self):
        rng = np.random.default_rng(5)
        est, cov = random_cluster(rng, 2, 2, 2, cov_scale=0.1)
        nr = 0.2
        pairs = coop.build_coop_pairs(est, cov, nr)
        for _ in range(5):
            f = random_coop_stack(rng, 2, 2, 2)
            assert coop.lambda_coop_log2(pairs, None, f) == pytest.approx(
                direct_coop_rate(est, cov, nr, f), abs=1e-9
            )


class TestGpipCoop:
    def test_single_cell_degeneration(self):
        rng = np.random.default_rng(6)
        est, cov = random_cluster(rng, 1, 3, 2, cov_scale=0.1)
        cpairs = coop.build_coop_pairs(est, cov, 0.3)
        pairs = solver.build_effective_pairs(est[0, 0], cov[0, 0], 0.3)
        cres = coop.gpip_coop(cpairs, tol=1e-7, max_iter=300)
        res = solver.gpip_iterate(pairs, tol=1e-7, max_iter=300)
        assert np.abs(cres.precoder[0] - res.precoder).max() < 1e-10
        assert cres.iterations == res.iterations
        assert cres.objective_log2 == pytest.approx(res.objective_log2, abs=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 4), st.integers(1, 4), st.booleans())
    def test_single_cell_cluster_repeats_single_cell_iteration(self, seed, k, n, with_cov):
        rng = np.random.default_rng(seed)
        est, cov = random_cluster(rng, 1, k, n, cov_scale=0.1 if with_cov else 0.0)
        nr = rng.uniform(0.05, 0.5, size=k)
        pairs = solver.build_effective_pairs(est[0, 0], None if cov is None else cov[0, 0], nr)
        res = solver.gpip_iterate(pairs, tol=1e-6, max_iter=50)
        cres = coop.gpip_coop(coop.build_coop_pairs(est, cov, nr[None]), tol=1e-6, max_iter=50)
        assert cres.iterations == res.iterations
        assert cres.trajectory == res.trajectory
        assert np.abs(cres.precoder[0] - res.precoder).max() <= 1e-12

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
    def test_objective_never_below_start_property(self, seed, c, k, n):
        rng = np.random.default_rng(seed)
        est, cov = random_cluster(rng, c, k, n, cov_scale=0.1)
        pairs = coop.build_coop_pairs(est, cov, 0.2)
        res = coop.gpip_coop(pairs, init=random_coop_stack(rng, c, k, n), tol=1e-6, max_iter=50)
        assert res.objective_log2 >= res.trajectory[0]

    def test_rejects_non_finite_estimates_and_misshaped_init(self):
        rng = np.random.default_rng(12)
        est, cov = random_cluster(rng, 2, 2, 3)
        pairs = coop.build_coop_pairs(est, cov, 0.2)
        with pytest.raises(DimensionMismatch):
            coop.gpip_coop(pairs, init=np.ones((2, 3)))
        est[1, 0, 1, 2] = np.nan
        with pytest.raises(ValueError, match="estimates must be finite"):
            coop.gpip_coop(coop.build_coop_pairs(est, cov, 0.2))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("nr", [0.0, -0.1])
    def test_rejects_non_positive_noise_ratios(self, nr):
        est, cov = random_cluster(np.random.default_rng(12), 2, 2, 3)
        with pytest.raises(ValueError, match="noise ratios must be positive"):
            coop.gpip_coop(coop.build_coop_pairs(est, cov, nr))

    def test_all_zero_estimates_name_the_estimates(self):
        pairs = coop.build_coop_pairs(np.zeros((2, 2, 2, 3)), None, 0.2)
        with pytest.raises(ValueError, match="estimates are all zero"):
            coop.gpip_coop(pairs)

    def test_mirrored_cells_get_equal_norms(self):
        rng = np.random.default_rng(7)
        k, n = 2, 3
        own = (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))) / np.sqrt(2)
        cross = 0.4 * (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))) / np.sqrt(2)
        est = np.empty((2, 2, k, n), dtype=complex)
        est[0, 0] = own
        est[1, 1] = own
        est[0, 1] = cross
        est[1, 0] = cross
        pairs = coop.build_coop_pairs(est, None, 0.2)
        res = coop.gpip_coop(pairs, tol=1e-9, max_iter=500)
        assert abs(res.per_cell_norm[0] - res.per_cell_norm[1]) < 1e-6
        assert res.per_cell_norm.max() == pytest.approx(1.0, abs=1e-12)

    def test_feasibility_and_binding_cell(self):
        rng = np.random.default_rng(8)
        est, cov = random_cluster(rng, 3, 2, 2, cov_scale=0.1)
        pairs = coop.build_coop_pairs(est, cov, 0.3)
        res = coop.gpip_coop(pairs, tol=1e-6, max_iter=300)
        assert np.all(res.per_cell_norm <= 1.0 + 1e-12)
        assert res.per_cell_norm.max() == pytest.approx(1.0, abs=1e-12)

    def test_near_optimality_against_random_search(self):
        rng = np.random.default_rng(9)
        est, cov = random_cluster(rng, 2, 2, 2)
        nr = 0.15
        pairs = coop.build_coop_pairs(est, cov, nr)
        res = coop.gpip_coop(pairs, tol=1e-8, max_iter=500)
        # compare objectives at unit total norm, where the relaxation lives
        unit = res.precoder / np.linalg.norm(res.precoder)
        got = direct_coop_rate(est, cov, nr, unit)
        best = -np.inf
        for _ in range(2000):
            f = random_coop_stack(rng, 2, 2, 2)
            best = max(best, direct_coop_rate(est, cov, nr, f))
        assert got >= 0.99 * best

    def test_stationarity_at_convergence(self):
        rng = np.random.default_rng(10)
        est, cov = random_cluster(rng, 2, 3, 2, cov_scale=0.1)
        pairs = coop.build_coop_pairs(est, cov, 0.2)
        res = coop.gpip_coop(pairs, tol=1e-6, max_iter=500)
        assert res.converged
        assert res.kkt_residual < 1e-4

    def test_reuses_its_problem_for_the_residual(self, monkeypatch):
        rng = np.random.default_rng(12)
        est, cov = random_cluster(rng, 2, 3, 2, cov_scale=0.1)
        pairs = coop.build_coop_pairs(est, cov, 0.2)
        built = []

        class Counted(solver._ClusterProblem):
            def __init__(self, *args):
                built.append(1)
                super().__init__(*args)

        monkeypatch.setattr(solver, "_ClusterProblem", Counted)
        res = coop.gpip_coop(pairs, tol=1e-6, max_iter=500)
        assert len(built) == 1
        unit = res.precoder / np.linalg.norm(res.precoder)
        assert res.kkt_residual == pytest.approx(
            coop.coop_kkt_residual(pairs, None, unit), rel=1e-9, abs=1e-12
        )

    def test_per_iteration_cost_grows_superlinearly_in_cells(self):
        # Coarse wall-clock check. The quadratic-form stage is quadratic in
        # the cluster size while the per-block solves are linear, so at these
        # sizes the observed ratio sits between the linear and quadratic laws;
        # assert it stays inside that envelope with a 2x cushion either way.
        # The sizes are timed in interleaved rounds and each keeps its fastest
        # round, so a burst of host contention during one loop does not set
        # the ratio.
        rng = np.random.default_rng(11)
        k, n = 4, 16
        pairs, times = {}, {}
        for c in (1, 4):
            est, _ = random_cluster(rng, c, k, n)
            pairs[c] = coop.build_coop_pairs(est, None, 0.2)
            coop.gpip_coop(pairs[c], tol=1e-300, max_iter=3)  # warm up
            times[c] = float("inf")
        for _round in range(5):
            for c, reps in ((1, 30), (4, 8)):
                start = time.perf_counter()
                for _ in range(reps):
                    coop.gpip_coop(pairs[c], tol=1e-300, max_iter=10)
                times[c] = min(times[c], (time.perf_counter() - start) / (reps * 10))
        ratio = times[4] / times[1]
        assert 4.0 / 2.0 <= ratio <= 2.0 * 16.0


class TestPowerIteration:
    def test_rebinds_no_attribute_of_its_problem(self):
        # the residual recomputes what it needs, so the kernel leaves its
        # problem as it found it
        rng = np.random.default_rng(0)
        est, cov = random_cluster(rng, 2, 3, 4, cov_scale=0.05)
        prob = solver._problem(coop.build_coop_pairs(est, cov, 0.1))
        before = dict(vars(prob))
        solver._power_iteration(prob, rng.uniform(0.5, 2.0, (2, 3)), None, (2, 3, 4), 1e-9,
                                40, partial(prob.cholesky_blocks, solve=solve_hermitian))
        assert vars(prob).keys() == before.keys()
        assert all(vars(prob)[name] is value for name, value in before.items())


class TestPairLists:
    def test_duplicate_missing_or_out_of_range_pairs_are_rejected(self):
        # a hand-assembled list is no input, whatever pairs it holds; an
        # empty cluster fails in the builder
        rng = np.random.default_rng(43)
        est, cov = random_cluster(rng, 2, 2, 3)
        pairs = list(coop.build_coop_pairs(est, cov, 0.2))
        f = random_coop_stack(rng, 2, 2, 3)
        for bad in (
            pairs,
            [],
            pairs[:-1] + [pairs[0]],
            pairs[:-1],
            pairs[:-1] + [dataclasses.replace(pairs[-1], cell=2)],
            pairs[:-1] + [dataclasses.replace(pairs[-1], user=2)],
        ):
            with pytest.raises(TypeError):
                coop.gpip_coop(bad)
            with pytest.raises(TypeError):
                coop.lambda_coop_log2(bad, None, f)
            with pytest.raises(TypeError):
                coop.coop_kkt_residual(bad, None, f)
        for shape in ((0, 0, 2, 3), (2, 2, 0, 3), (2, 2, 2, 0)):
            with pytest.raises(DimensionMismatch):
                coop.build_coop_pairs(np.zeros(shape), None, 0.2)

    def test_cluster_pairs_are_rejected_by_single_cell_solvers(self):
        est, cov = random_cluster(np.random.default_rng(44), 2, 3, 2)
        with pytest.raises(DimensionMismatch, match="one cell"):
            solver.gpip_iterate(coop.build_coop_pairs(est, cov, 0.2))

    def test_csv_header_matches_row(self):
        rng = np.random.default_rng(45)
        est, cov = random_cluster(rng, 2, 3, 2)
        res = coop.gpip_coop(coop.build_coop_pairs(est, cov, 0.2), tol=1e-3)
        header = coop.CoopResult.csv_header(2, 3)
        assert header == [
            "seed", "N", "K", "SNR_dB", "iterations", "objective_log2", "kkt_residual",
            "active_count", "cell0_norm", "cell0_power_0", "cell0_power_1", "cell0_power_2",
            "cell1_norm", "cell1_power_0", "cell1_power_1", "cell1_power_2",
            "objective_decreases", "stop_reason",
        ]
        assert len(res.csv_row(seed=7, snr_db=10.0)) == len(header)


class TestLiftedPairs:
    def test_length_order_and_indexing(self):
        est, cov = random_cluster(np.random.default_rng(60), 2, 3, 2, cov_scale=0.1)
        pairs = coop.build_coop_pairs(est, cov, 0.2)
        assert len(pairs) == 6
        assert [(p.cell, p.user, p.n_cells, p.n_users) for p in pairs] == [
            (l, u, 2, 3) for l in range(2) for u in range(3)]
        assert (pairs[-1].cell, pairs[-1].user) == (1, 2)
        assert (pairs[-6].cell, pairs[-6].user) == (0, 0)
        for i in (6, -7):
            with pytest.raises(IndexError):
                pairs[i]

    def test_lifted_pairs_equal_pairs_built_from_the_same_slices(self):
        est, cov = random_cluster(np.random.default_rng(61), 2, 2, 3, cov_scale=0.1)
        nr = np.array([[0.2, 0.3], [0.4, 0.5]])
        for i, p in enumerate(coop.build_coop_pairs(est, cov, nr)):
            l, u = divmod(i, 2)
            ref = solver.EffectivePair(l, u, 2, 2, est[:, l, u], cov[:, l, u], nr[l, u])
            np.testing.assert_array_equal(p.a.dense(), ref.a.dense())
            np.testing.assert_array_equal(p.b.dense(), ref.b.dense())

    def test_two_solves_share_one_problem(self, monkeypatch):
        est, cov = random_cluster(np.random.default_rng(62), 2, 3, 2, cov_scale=0.1)
        pairs = coop.build_coop_pairs(est, cov, 0.2)
        built = []

        class Counted(solver._ClusterProblem):
            def __init__(self, *args):
                built.append(1)
                super().__init__(*args)

        monkeypatch.setattr(solver, "_ClusterProblem", Counted)
        first = coop.gpip_coop(pairs, tol=1e-6)
        second = coop.gpip_coop(pairs, tol=1e-6)
        assert len(built) == 1
        np.testing.assert_array_equal(first.precoder, second.precoder)
        assert first.trajectory == second.trajectory
        assert first.kkt_residual == second.kkt_residual

    def test_arrays_are_read_only_copies(self):
        est, cov = random_cluster(np.random.default_rng(63), 2, 3, 2, cov_scale=0.1)
        nr = np.full((2, 3), 0.2)
        ref = coop.gpip_coop(coop.build_coop_pairs(est, cov, nr))
        pairs = coop.build_coop_pairs(est, cov, nr)
        est[:] = 0.0
        cov[:] = 0.0
        nr[:] = 5.0
        res = coop.gpip_coop(pairs)
        np.testing.assert_array_equal(res.precoder, ref.precoder)
        for arr in (pairs.est, pairs.cov, pairs.nr):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1.0
