import warnings
from fractions import Fraction

import numpy as np
import pytest

from gpip import baselines
from gpip.errors import RankDeficient


def random_channels(rng, k, n, scale=1.0):
    return scale * (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))) / np.sqrt(2)


def total_power(f):
    return float(np.sum(np.abs(f) ** 2))


def leakage(est, f):
    """Largest cross-user received amplitude |est_k^H f_i|, i != k."""
    inner = np.abs(est.conj() @ f.T)
    np.fill_diagonal(inner, 0.0)
    return inner.max()


class TestMrt:
    def test_single_user_normalization(self):
        f = baselines.mrt(np.array([[3.0 + 0j, 4.0]]))
        np.testing.assert_allclose(f, [[0.6, 0.8]])

    def test_orthogonal_equal_norm_channels_split_power_evenly(self):
        est = np.eye(3, dtype=complex)
        f = baselines.mrt(est)
        np.testing.assert_allclose(np.sum(np.abs(f) ** 2, axis=1), 1.0 / 3)

    def test_columns_collinear_with_estimates(self):
        rng = np.random.default_rng(0)
        est = random_channels(rng, 4, 6)
        f = baselines.mrt(est)
        for k in range(4):
            cos = abs(np.vdot(f[k], est[k])) / (np.linalg.norm(f[k]) * np.linalg.norm(est[k]))
            assert cos > 1 - 1e-12

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_beams_do_not_depend_on_stack_scale(self, scale):
        # a raw stack norm overflows past about 1e154 and underflows below about 1e-154
        est = random_channels(np.random.default_rng(9), 3, 4)
        np.testing.assert_allclose(baselines.mrt(est * scale), baselines.mrt(est),
                                   rtol=0, atol=1e-15)


class TestZf:
    def test_orthonormal_channels(self):
        est = np.eye(3, dtype=complex)
        f = baselines.zf(est)
        np.testing.assert_allclose(f, est / np.sqrt(3))

    def test_single_user_is_matched_filter_direction(self):
        rng = np.random.default_rng(1)
        est = random_channels(rng, 1, 4)
        f = baselines.zf(est)
        cos = abs(np.vdot(f[0], est[0])) / (np.linalg.norm(f[0]) * np.linalg.norm(est[0]))
        assert cos > 1 - 1e-12

    def test_interference_nulled(self):
        rng = np.random.default_rng(2)
        est = random_channels(rng, 3, 4)
        f = baselines.zf(est)
        assert leakage(est, f) < 1e-9
        assert total_power(f) == pytest.approx(1.0, abs=1e-10)

    def test_rank_deficient_raises(self):
        est = np.array([[1.0 + 0j, 0.0], [1.0 + 0j, 0.0]])
        with pytest.raises(RankDeficient):
            baselines.zf(est)
        with pytest.raises(RankDeficient):
            baselines.zf(random_channels(np.random.default_rng(0), 5, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RankDeficient, match=r"^channel rows are linearly dependent: "
                                                    r"row norms \[1\.0, 0\.0\]$"):
                baselines.zf(np.array([[1.0 + 0j, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("scales", [[1e6, 1.0, 1e-6], [1e-6, 1e6, 1e6],
                                        [1e200, 1.0, 1e-200], [1e-200, 1e200, 1e200]])
    def test_directions_do_not_depend_on_row_scale(self, scales):
        # the pivot test used to compare every user to the strongest one, so
        # rows six decades apart read as linearly dependent; raw row norms
        # overflow past about 1e154 and underflow below about 1e-154
        est = random_channels(np.random.default_rng(10), 3, 4)
        dirs = baselines._zf_directions(est * np.array(scales)[:, None])
        np.testing.assert_allclose(dirs, baselines._zf_directions(est), rtol=0, atol=1e-12)


class TestRzfRrzf:
    def test_large_ridge_limit_is_mrt(self):
        rng = np.random.default_rng(3)
        est = random_channels(rng, 3, 4)
        f = baselines.rzf(est, 1e9)
        m = baselines.mrt(est)
        for k in range(3):
            cos = abs(np.vdot(f[k], m[k])) / (np.linalg.norm(f[k]) * np.linalg.norm(m[k]))
            assert cos > 1 - 1e-4

    def test_small_ridge_limit_is_zf(self):
        rng = np.random.default_rng(4)
        est = random_channels(rng, 3, 4)
        f = baselines.rzf(est, 1e-9)
        assert leakage(est, f) < 1e-4

    def test_rzf_equals_rrzf_with_zero_covariances(self):
        rng = np.random.default_rng(5)
        est = random_channels(rng, 3, 4)
        a = baselines.rzf(est, 0.2)
        b = baselines.rrzf(est, np.zeros((3, 4, 4)), 0.2)
        c = baselines.rrzf(est, None, 0.2)
        assert np.array_equal(a, c)
        np.testing.assert_allclose(a, b, atol=1e-15)

    def test_huge_error_covariance_limit_is_mrt(self):
        rng = np.random.default_rng(6)
        est = random_channels(rng, 3, 4)
        cov = np.broadcast_to(1e9 * np.eye(4), (3, 4, 4))
        f = baselines.rrzf(est, cov, 0.1)
        m = baselines.mrt(est)
        for k in range(3):
            cos = abs(np.vdot(f[k], m[k])) / (np.linalg.norm(f[k]) * np.linalg.norm(m[k]))
            assert cos > 1 - 1e-4

    @pytest.mark.parametrize("scale, nr", [(1e200, 1e-100), (1e-200, 1e100),
                                           (1e154, 0.1), (1e-154, 0.1)])
    def test_beams_do_not_depend_on_joint_scale(self, scale, nr):
        # (est s, cov s^2, nr s^2) is the same problem as (est, cov, nr); the raw
        # gram overflows or underflows past about 1e±154. At s = 1e±200 the
        # scaled noise ratio stays a double only with the ridge far below the
        # gains (zero forcing, so K = N) or far above them.
        rng = np.random.default_rng(12)
        est = random_channels(rng, 3, 3)
        m = random_channels(rng, 9, 3).reshape(3, 3, 3)
        cov = 0.5 * nr * (m @ m.conj().transpose(0, 2, 1))
        np.testing.assert_allclose(baselines.rzf(est * scale, nr * scale * scale),
                                   baselines.rzf(est, nr), rtol=0, atol=1e-12)
        np.testing.assert_allclose(baselines.rrzf(est * scale, cov * scale * scale,
                                                  nr * scale * scale),
                                   baselines.rrzf(est, cov, nr), rtol=0, atol=1e-12)

    def test_solve_residual_oracle(self):
        # oracle: the unnormalized beams X satisfy (G + sum Phi + ridge) X = est
        rng = np.random.default_rng(7)
        k, n = 3, 4
        est = random_channels(rng, k, n)
        cov = np.empty((k, n, n), dtype=complex)
        for i in range(k):
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            cov[i] = 0.1 * (m @ m.conj().T)
        nr = 0.3
        f = baselines.rrzf(est, cov, nr)
        lhs = est.T @ est.conj() + cov.sum(axis=0) + nr * np.eye(n)
        # recover the pre-normalization scale from any nonzero entry
        x = np.linalg.solve(lhs, est.T)
        scale = np.linalg.norm(x.T)
        assert np.abs(lhs @ (f.T * scale) - est.T).max() < 1e-8


class TestWaterfill:
    def test_equal_gains_split_evenly(self):
        p = baselines.waterfill([2.0, 2.0], 1.0, 0.5)
        np.testing.assert_allclose(p, [0.5, 0.5], atol=1e-12)
        # without noise every channel is worth the same
        np.testing.assert_allclose(baselines.waterfill([1.0, 2.0, 4.0], 1.0, 0.0), 1 / 3,
                                   atol=1e-12)

    def test_extreme_gains_winner_takes_all(self):
        p = baselines.waterfill([1e12, 1e-12], 0.1, 1.0)
        assert p[0] == pytest.approx(0.1, abs=1e-9)
        assert p[1] == 0.0

    @pytest.mark.parametrize("gains", [[np.nan], [np.nan, 1.0], [np.inf, 1.0], [1.0, -np.inf]])
    def test_non_finite_gains_rejected(self, gains):
        # a NaN used to raise IndexError or count as a zero gain, an inf to take all the power
        with pytest.raises(ValueError, match="^gains must be finite$"):
            baselines.waterfill(gains, 1.0)

    @pytest.mark.parametrize("total, nv, name", [
        (1.0, -1.0, "noise_var"), (1.0, np.nan, "noise_var"), (1.0, np.inf, "noise_var"),
        (-1.0, 1.0, "total_power"), (np.nan, 1.0, "total_power"), (np.inf, 1.0, "total_power"),
    ])
    def test_budget_and_noise_it_cannot_allocate_rejected(self, total, nv, name):
        # a negative noise variance used to give the weaker channels more power, a NaN
        # budget NaN powers and a NaN noise variance an IndexError
        with pytest.raises(ValueError, match=f"^{name} must be finite and non-negative"):
            baselines.waterfill([1.0, 2.0, 4.0], total, nv)

    def test_sum_constraint_and_kkt(self):
        rng = np.random.default_rng(8)
        gains = rng.uniform(0.05, 5.0, size=8)
        nv = 0.7
        p = baselines.waterfill(gains, 2.0, nv)
        assert p.sum() == pytest.approx(2.0, abs=1e-10)
        levels = nv / gains + p
        active = p > 0
        mu = levels[active].mean()
        assert np.abs(levels[active] - mu).max() < 1e-8
        assert np.all(nv / gains[~active] >= mu - 1e-8)

    def test_beats_random_feasible_allocations(self):
        # oracle: objective sum log(1 + p g / nv) over random simplex points
        rng = np.random.default_rng(9)
        gains = rng.uniform(0.1, 3.0, size=8)
        nv = 0.4
        total = 1.0
        p_star = baselines.waterfill(gains, total, nv)
        best = np.sum(np.log1p(p_star * gains / nv))
        random_ps = rng.dirichlet(np.ones(8), size=100_000) * total
        objs = np.sum(np.log1p(random_ps * gains / nv), axis=1)
        assert best >= objs.max() - 1e-9


class TestSusZf:
    def test_single_user(self):
        rng = np.random.default_rng(10)
        est = random_channels(rng, 1, 3)
        selected, f = baselines.sus_zf(est, 0.5)
        assert selected == [0]
        cos = abs(np.vdot(f[0], est[0])) / (np.linalg.norm(f[0]) * np.linalg.norm(est[0]))
        assert cos > 1 - 1e-10

    def test_identical_channels_pick_one(self):
        h = np.array([1.0 + 0.5j, -0.2j, 0.3])
        est = np.stack([h, h])
        selected, _ = baselines.sus_zf(est, 0.99)
        assert len(selected) == 1

    def test_matches_reference_pseudocode(self):
        # independent re-implementation of the published greedy selection
        def sus_reference(est, alpha):
            k = est.shape[0]
            t_set = list(range(k))
            s_set = []
            basis = []
            while t_set and len(s_set) < est.shape[1]:
                norms = []
                for i in t_set:
                    g = est[i].copy()
                    for b in basis:
                        g = g - (b.conj() @ est[i]) * b
                    norms.append((np.linalg.norm(g), i, g))
                norms.sort(key=lambda x: (-x[0], x[1]))
                best_norm, best_i, best_g = norms[0]
                if best_norm <= 1e-12:
                    break
                s_set.append(best_i)
                b_new = best_g / best_norm
                basis.append(b_new)
                t_set = [
                    i
                    for i in t_set
                    if i != best_i
                    and abs(est[i].conj() @ b_new) / np.linalg.norm(est[i]) <= alpha
                ]
            return s_set

        for seed in range(20):
            rng = np.random.default_rng(seed)
            est = random_channels(rng, 4, 2)
            selected, _ = baselines.sus_zf(est, 0.3)
            assert selected == sus_reference(est, 0.3)

    def test_power_feasible(self):
        rng = np.random.default_rng(11)
        est = random_channels(rng, 6, 4)
        _, f = baselines.sus_zf(est, 0.4)
        assert total_power(f) <= 1 + 1e-10


class TestZfDpc:
    def test_orthogonal_equal_gain_channels(self):
        g = 2.0
        est = np.sqrt(g) * np.eye(3, dtype=complex)
        nv = 0.5
        ordering, powers, rate = baselines.zf_dpc_waterfilling(est, nv)
        np.testing.assert_allclose(powers, 1.0 / 3, atol=1e-10)
        assert rate == pytest.approx(3 * np.log2(1 + g / (3 * nv)))

    def test_single_user_capacity(self):
        h = np.array([[1.0 + 1j, 2.0 - 1j]])
        nv = 0.3
        _, _, rate = baselines.zf_dpc_waterfilling(h, nv)
        assert rate == pytest.approx(np.log2(1 + np.linalg.norm(h) ** 2 / nv))

    def test_dominates_zf_with_waterfilling(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            est = random_channels(rng, 4, 4)
            nv = 0.2
            _, _, dpc_rate = baselines.zf_dpc_waterfilling(est, nv)
            dirs = baselines._zf_directions(est)
            gains = np.abs(np.einsum("kn,kn->k", est.conj(), dirs)) ** 2
            p = baselines.waterfill(gains, 1.0, nv)
            zf_rate = np.sum(np.log2(1 + p * gains / nv))
            assert dpc_rate >= zf_rate - 1e-9


class TestRankAdaptiveZf:
    def test_single_user(self):
        rng = np.random.default_rng(12)
        est = random_channels(rng, 1, 3)
        selected, f = baselines.rank_adaptive_zf(est, 0.5)
        assert selected == [0]
        assert total_power(f) == pytest.approx(1.0)

    def test_orthogonal_strong_channels_at_high_snr_both_selected(self):
        est = np.array([[2.0 + 0j, 0.0], [0.0, 2.0 + 0j]])
        selected, _ = baselines.rank_adaptive_zf(est, 1e-4)
        assert sorted(selected) == [0, 1]

    def test_identical_channels_pick_one(self):
        h = np.array([1.0 + 0j, 0.5j])
        est = np.stack([h, h])
        selected, _ = baselines.rank_adaptive_zf(est, 0.1)
        assert len(selected) == 1

    def test_never_decreases_rate(self):
        rng = np.random.default_rng(13)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            est = random_channels(rng, 5, 4)
            nv = 0.3
            selected, f = baselines.rank_adaptive_zf(est, nv)
            # selected-set rate must beat the best single user
            best_single = np.log2(1 + np.max(np.linalg.norm(est, axis=1)) ** 2 / nv)
            gains = np.abs(np.einsum("kn,kn->k", est[selected].conj(),
                                     baselines._zf_directions(est[selected]))) ** 2
            rate = np.sum(np.log2(1 + gains / (len(selected) * nv)))
            assert rate >= best_single - 1e-9


class TestPowerFeasibility:
    def test_all_baselines_within_budget(self):
        rng = np.random.default_rng(14)
        est = random_channels(rng, 4, 6)
        cov = np.broadcast_to(0.1 * np.eye(6), (4, 6, 6)).copy()
        for f in (
            baselines.mrt(est),
            baselines.zf(est),
            baselines.rzf(est, 0.1),
            baselines.rrzf(est, cov, 0.1),
            baselines.sus_zf(est, 0.1)[1],
            baselines.rank_adaptive_zf(est, 0.1)[1],
        ):
            assert total_power(f) <= 1 + 1e-10


@pytest.mark.parametrize("scale, nr", [(1e200, 1e-100), (1e-200, 1e93),
                                       (1e160, 1e-20), (1e-160, 1e13)])
def test_selection_baselines_do_not_depend_on_joint_scale(scale, nr):
    # (est s, nr s^2) has the gains over noise of (est, nr); the raw squared
    # norms overflow or underflow past about 1e±154. The noise ratio is chosen
    # so that nr s^2 stays a normal double.
    est = random_channels(np.random.default_rng(21), 4, 6)
    est_s, nr_s = est * scale, nr * scale * scale
    for design in (baselines.sus_zf, baselines.rank_adaptive_zf):
        want, got = design(est, nr), design(est_s, nr_s)
        assert got[0] == want[0]
        np.testing.assert_allclose(got[1], want[1], rtol=0, atol=1e-12)
    order, powers, rate = baselines.zf_dpc_waterfilling(est, nr)
    got = baselines.zf_dpc_waterfilling(est_s, nr_s)
    assert got[0] == order
    np.testing.assert_allclose(got[1], powers, rtol=0, atol=1e-12)
    assert got[2] == pytest.approx(rate, rel=1e-12, abs=1e-300)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("design", [
    baselines.mrt,
    lambda est: baselines.rzf(est, 0.1),
    lambda est: baselines.rrzf(est, np.broadcast_to(0.1 * np.eye(3), (2, 3, 3)), 0.1),
], ids=["mrt", "rzf", "rrzf"])
def test_all_zero_estimates_raise_rank_deficient(design):
    # the unit-power normalization divided by a zero norm and returned NaN beams
    with pytest.raises(RankDeficient, match="^estimates are all zero"):
        design(np.zeros((2, 3), dtype=complex))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("formula", [baselines.zf_dpc_waterfilling, baselines.rank_adaptive_zf],
                         ids=["zf-dpc", "rank-zf"])
@pytest.mark.parametrize("row, nr, message", [
    (0, 0.0, "noise_ratio must be positive and finite, got 0.0"),
    (0, -1.0, "noise_ratio must be positive and finite, got -1.0"),
    (0, np.inf, "noise_ratio must be positive and finite, got inf"),
    (0, np.nan, "noise_ratio must be positive and finite, got nan"),
    (np.nan, 0.1, "must be finite"),
    (np.inf, 0.1, "must be finite"),
])
def test_rate_formulas_reject_inputs_they_cannot_score(formula, row, nr, message):
    # a rate divides by the noise ratio, and a negative one gives negative rates
    h = random_channels(np.random.default_rng(15), 2, 3)
    h[1, 0] += row
    with pytest.raises(ValueError, match=f"{message}$"):
        formula(h, nr)


def greedy_loop_reference(est, limit, alpha=None):
    """The per-candidate Gram-Schmidt loop the baselines used before
    `_greedy_orthogonal`: (order, residual norms), first index on ties."""
    candidates = list(range(est.shape[0]))
    order, norms, basis = [], [], []
    while candidates and len(order) < limit:
        best, best_norm, best_res = None, -1.0, None
        for i in candidates:
            res = est[i].copy()
            for b in basis:
                res -= (b.conj() @ est[i]) * b
            norm = np.linalg.norm(res)
            if norm > best_norm:
                best, best_norm, best_res = i, norm, res
        if best_norm <= 1e-12:
            break
        order.append(best)
        norms.append(best_norm)
        basis.append(best_res / best_norm)
        candidates = [
            i for i in candidates
            if i != best and (
                alpha is None
                or abs(est[i].conj() @ basis[-1]) / max(np.linalg.norm(est[i]), 1e-300) <= alpha
            )
        ]
    return order, np.asarray(norms)


def random_greedy_inputs(seed, max_dim=16):
    """Random (K, N) rows with scales over four decades; every other draw
    copies some rows onto others, so exact ties and rank deficiency occur.
    Row norms stay below about 1e2, where a duplicate's rounding residual
    (about 1e-16 times the row norm) is far below the absolute 1e-12 stop."""
    rng = np.random.default_rng(seed)
    k, n = rng.integers(1, max_dim + 1, 2)
    est = random_channels(rng, k, n) * 10 ** rng.uniform(-3, 1, (k, 1))
    if seed % 2 and k > 1:
        src = rng.integers(0, k, rng.integers(1, k))
        est[rng.integers(0, k, src.size)] = est[src]
    return est, rng


class TestGreedyOrthogonal:
    def test_zf_dpc_ordering_matches_loop_reference(self):
        for seed in range(300):
            est, rng = random_greedy_inputs(seed)
            nv = 10 ** rng.uniform(-3, 1)
            ordering, powers, rate = baselines.zf_dpc_waterfilling(est, nv)
            ref_order, ref_norms = greedy_loop_reference(est, min(est.shape))
            assert ordering == ref_order
            ref_powers = baselines.waterfill(ref_norms**2, 1.0, nv)
            ref_rate = np.sum(np.log2(1.0 + ref_powers * ref_norms**2 / nv))
            assert rate == pytest.approx(ref_rate, rel=1e-12)

    def test_sus_selection_matches_loop_reference(self):
        for seed in range(300):
            est, rng = random_greedy_inputs(seed)
            alpha = rng.uniform(0.1, 0.9)
            order, _ = baselines._greedy_orthogonal(est, est.shape[1], alpha)
            assert order == greedy_loop_reference(est, est.shape[1], alpha)[0]

    def test_dependent_rows_stop_at_rank_at_any_scale(self):
        # rows e0, e1 and e0 + 2j e1 in a random orthonormal frame have rank
        # 2; at scale 1e6 the third row's rounding residual lies far above an
        # absolute 1e-12 stop but far below 1e-12 of its own norm
        rows = np.zeros((3, 4), dtype=complex)
        rows[0, 0] = rows[1, 1] = rows[2, 0] = 1.0
        rows[2, 1] = 2j
        for seed in range(50):
            q, _ = np.linalg.qr(random_channels(np.random.default_rng(seed), 4, 4))
            est = 1e6 * rows @ q
            order, _ = baselines._greedy_orthogonal(est, 3)
            assert len(order) == 2
            assert len(baselines.zf_dpc_waterfilling(est, 0.1)[0]) == 2


def waterfill_exact(gains, total, noise_var):
    """Water-filling in exact rational arithmetic over the float floors
    noise_var / gains (the rounding both sides share)."""
    floors = [Fraction(float(f)) for f in noise_var / np.asarray(gains)]
    s = sorted(floors)
    total = Fraction(total)
    mu = None
    for m in range(1, len(s) + 1):
        level = (total + sum(s[:m])) / m
        if level <= s[m - 1]:
            break
        mu = level
    return [max(Fraction(0), mu - f) for f in floors]


class TestWaterfillExactReference:
    def test_matches_rational_solution_over_eight_decades(self):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            k = int(rng.integers(1, 33))
            gains = 10 ** rng.uniform(-8, 0, k)
            total = 10 ** rng.uniform(-1, 1)
            nv = 10 ** rng.uniform(-2, 2)
            p = baselines.waterfill(gains, total, nv)
            exact = np.array([float(x) for x in waterfill_exact(gains, total, nv)])
            assert np.abs(p - exact).max() <= 1e-14 * total
