import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack, solve_triangular

from gpip import numerics
from gpip.errors import DenominatorUnderflow, DimensionMismatch, EigenFailure, NotPositiveDefinite
from gpip.numerics import (
    BlockDiagonal,
    cholesky_factor,
    hermitian_sqrt,
    hermitize,
    rank1_inverse_update,
    solve_hermitian,
)
from gpip.solver import covfree_block_inverses


def random_pd(rng, n, ridge=0.5):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return hermitize(m @ m.conj().T) + ridge * np.eye(n)


def random_psd(rng, n, rank=None):
    rank = n if rank is None else rank
    m = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    return hermitize(m @ m.conj().T)


def run_python(code: str, *args) -> str:
    """Standard output of `code` in a fresh interpreter that imports this checkout's gpip."""
    src = Path(numerics.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


class TestLapackImport:
    def test_import_and_config_load_leave_scipy_linalg_unimported(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(scenario="link", n_antennas=2, n_users=2,
                                       algorithms=["gpip"], snr_db=[10.0], n_trials=1, seed=0)))
        code = ("import sys, gpip; gpip.load_config(sys.argv[1]); "
                "print('scipy.linalg' in sys.modules)")
        assert run_python(code, cfg) == "False"

    @pytest.mark.parametrize("first, second", [("gpip.numerics", "scipy.linalg.lapack"),
                                               ("scipy.linalg.lapack", "gpip.numerics")])
    def test_routines_are_scipys_whichever_is_imported_first(self, first, second):
        code = (f"import {first}, {second}, gpip.numerics as n, scipy.linalg.lapack as l; "
                "print(n.zpotrf is l.zpotrf, n.zpotrs is l.zpotrs)")
        assert run_python(code) == "True True"

    def test_missing_extension_falls_back_to_scipy_linalg_lapack(self, monkeypatch):
        monkeypatch.delitem(sys.modules, numerics._FLAPACK)
        monkeypatch.setattr(numerics, "EXTENSION_SUFFIXES", [".no-such-suffix"])
        zpotrf, zpotrs = numerics._load_lapack()
        assert zpotrf is lapack.zpotrf and zpotrs is lapack.zpotrs
        assert numerics._FLAPACK not in sys.modules


class TestImportCost:
    def test_import_loads_no_thread_pool_or_logging(self):
        # drop setup runs on plain threads: concurrent.futures pulls in logging,
        # about 11 ms of every process's start
        code = "import sys, gpip; print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
        assert run_python(code) == "[]"


class TestCholesky:
    def test_identity(self):
        np.testing.assert_allclose(cholesky_factor(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        np.testing.assert_allclose(
            cholesky_factor(np.diag([4.0, 9.0])), np.diag([2.0, 3.0])
        )

    def test_reconstructs_random_pd(self):
        # oracle: L L^H must rebuild the input to 1e-10 of its largest entry
        rng = np.random.default_rng(42)
        m = random_pd(rng, 8)
        low = cholesky_factor(m)
        err = np.abs(low @ low.conj().T - m).max()
        assert err < 1e-10 * np.abs(m).max()
        assert np.allclose(np.triu(low, 1), 0)

    def test_rejects_indefinite(self):
        m = np.diag([1.0, -1.0])
        with pytest.raises(NotPositiveDefinite):
            cholesky_factor(m)
        # never a LinAlgError or a NaN factor: non-finite entries, and a
        # leading minor that turns negative at a middle column
        nan_entry = np.eye(3)
        nan_entry[2, 1] = nan_entry[1, 2] = np.nan
        inf_entry = np.eye(3)
        inf_entry[1, 0] = inf_entry[0, 1] = np.inf
        middle = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        for bad in (nan_entry, inf_entry, middle):
            with pytest.raises(NotPositiveDefinite):
                cholesky_factor(bad)

    def test_failed_leading_minor_names_its_column(self):
        # the leading 3x3 minor is indefinite, so the factorization stops at column 2
        m = np.eye(5)
        m[1, 2] = m[2, 1] = 2.0
        with pytest.raises(NotPositiveDefinite, match="column 2"):
            cholesky_factor(m)

    @pytest.mark.parametrize("n", [1, 2, 8, 16, 32])
    def test_upper_triangle_is_zero(self, n):
        low = cholesky_factor(random_pd(np.random.default_rng(n), n))
        assert np.array_equal(np.triu(low, 1), np.zeros((n, n)))
        assert np.all(low.diagonal().real > 0)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            cholesky_factor(np.ones((2, 3)))

    def test_rejects_tiny_pivot(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky_factor(np.diag([1.0, 1e-13]))

    def test_bit_reproducible(self):
        rng = np.random.default_rng(7)
        m = random_pd(rng, 6)
        a = cholesky_factor(m)
        b = cholesky_factor(m.copy())
        assert np.array_equal(a, b)


class TestSolveHermitian:
    def test_identity(self):
        v = np.array([1.0 + 2j, -3.0])
        np.testing.assert_allclose(solve_hermitian(np.eye(2), v), v)

    def test_diagonal(self):
        x = solve_hermitian(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
        np.testing.assert_allclose(x, [1.0, 1.0])

    def test_residual_random_system(self):
        rng = np.random.default_rng(3)
        m = random_pd(rng, 6)
        rhs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        x = solve_hermitian(m, rhs)
        assert np.linalg.norm(m @ x - rhs) < 1e-8 * np.linalg.norm(rhs)

    @pytest.mark.parametrize("n", [1, 2, 8, 16, 32])
    @pytest.mark.parametrize("complex_input", [False, True])
    def test_matches_triangular_solves_bit_for_bit(self, n, complex_input):
        # oracle: forward and back substitution on the factor cholesky_factor
        # returns. OpenBLAS solves a lone column by a different triangular
        # kernel, so 1-D right-hand sides are compared with their column of
        # a two-column oracle.
        rng = np.random.default_rng(100 + n)
        m = random_pd(rng, n) if complex_input else random_pd(rng, n).real + n * np.eye(n)
        low = cholesky_factor(m)

        def oracle(rhs):
            y = solve_triangular(low, rhs, lower=True, check_finite=False)
            return solve_triangular(low.conj().T, y, lower=False, check_finite=False)

        def draw(shape):
            real = rng.standard_normal(shape)
            return real + 1j * rng.standard_normal(shape) if complex_input else real

        for cols in (2, 5, 3 * n):
            rhs = draw((n, cols))
            np.testing.assert_array_equal(solve_hermitian(m, rhs), oracle(rhs))
        vec = draw(n)
        np.testing.assert_array_equal(
            solve_hermitian(m, vec), oracle(np.stack([vec, draw(n)], axis=1))[:, 0]
        )

    def test_rejects_mismatched_right_hand_side(self):
        for rhs in (np.ones(3), np.ones((2, 2, 2)), np.ones((3, 2))):
            with pytest.raises(DimensionMismatch):
                solve_hermitian(np.eye(2), rhs)

    def test_propagates_not_pd(self):
        with pytest.raises(NotPositiveDefinite):
            solve_hermitian(np.zeros((2, 2)), np.ones(2))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 10))
    def test_solve_then_multiply_is_identity(self, seed, n):
        rng = np.random.default_rng(seed)
        m = random_pd(rng, n)
        rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = solve_hermitian(m, rhs)
        assert np.linalg.norm(m @ x - rhs) <= 1e-8 * max(1.0, np.linalg.norm(rhs))


class TestRank1InverseUpdate:
    def test_analytic_identity_update(self):
        e1 = np.array([1.0, 0.0])
        out = rank1_inverse_update(np.eye(2), e1, 1.0)
        np.testing.assert_allclose(out, np.diag([0.5, 1.0]), atol=1e-14)

    def test_zero_vector_is_noop(self):
        out = rank1_inverse_update(np.eye(4), np.zeros(4), 1.0)
        np.testing.assert_allclose(out, np.eye(4))

    def test_chain_matches_direct_inverse(self):
        # oracle: accumulate M = I + sum c_i u_i u_i^H and invert directly
        rng = np.random.default_rng(11)
        n = 4
        inv = np.eye(n, dtype=complex)
        m = np.eye(n, dtype=complex)
        for _ in range(4):
            u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            c = float(rng.uniform(0.1, 2.0))
            inv = rank1_inverse_update(inv, u, c)
            m = m + c * np.outer(u, u.conj())
        assert np.abs(inv - np.linalg.inv(m)).max() < 1e-8

    def test_long_chain_well_conditioned(self):
        rng = np.random.default_rng(5)
        n, k = 16, 16
        inv = np.eye(n, dtype=complex)
        m = np.eye(n, dtype=complex)
        for _ in range(k):
            u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            c = float(rng.uniform(0.05, 1.0))
            inv = rank1_inverse_update(inv, u, c)
            m = m + c * np.outer(u, u.conj())
        assert np.abs(inv - np.linalg.inv(m)).max() < 1e-8

    def test_denominator_underflow(self):
        # a crafted non-PSD "inverse" drives 1/c + u^H inv u to zero
        inv = np.array([[-1.0 + 0j]])
        with pytest.raises(DenominatorUnderflow):
            rank1_inverse_update(inv, np.array([1.0 + 0j]), 1.0)

    def test_nan_vector_raises_instead_of_a_nan_inverse(self):
        u = np.array([1.0, np.nan])
        with pytest.raises(DenominatorUnderflow):
            rank1_inverse_update(np.eye(2), u, 1.0)

    def test_rejects_nonpositive_scale(self):
        for c in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="positive and finite"):
                rank1_inverse_update(np.eye(2), np.ones(2), c)


def sherman_morrison_oracle(inv, u, c):
    """The update as a whole-matrix divide followed by a re-symmetrizing pass."""
    v = inv @ u
    denom = 1.0 / c + np.real(u.conj() @ v)
    return hermitize(inv - np.outer(v, v.conj()) / denom)


def hermitian_gap(m):
    """Largest |m - m^H| relative to the largest entry of m."""
    return np.abs(m - m.conj().T).max() / np.abs(m).max()


class TestRank1UpdateAccuracy:
    """The single outer-product update against the re-symmetrized formula."""

    @pytest.mark.parametrize("seed", range(4))
    def test_chain_over_seven_decades_of_scale(self, seed):
        rng = np.random.default_rng(seed)
        n, updates = 32, 64
        shape = (updates, n)
        us = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
        cs = 10.0 ** rng.uniform(-6.0, 1.0, size=updates)
        inv = np.eye(n, dtype=complex)
        ref = inv.copy()
        m = inv.copy()
        for u, c in zip(us, cs):
            inv = rank1_inverse_update(inv, u, float(c))
            ref = sherman_morrison_oracle(ref, u, float(c))
            m += c * np.outer(u, u.conj())
        assert hermitian_gap(inv) <= 1e-14
        assert np.abs(inv - ref).max() <= 1e-13 * np.abs(ref).max()
        direct = np.linalg.inv(m)
        assert np.abs(inv - direct).max() <= 1e-12 * np.abs(direct).max()

    def test_negative_denominator_adds_the_outer_product(self):
        inv, u = np.array([[-2.0 + 0j]]), np.array([1.0 + 0j])
        out = rank1_inverse_update(inv, u, 1.0)
        np.testing.assert_allclose(out, [[2.0]], rtol=0, atol=1e-15)
        np.testing.assert_allclose(out, sherman_morrison_oracle(inv, u, 1.0), rtol=0, atol=1e-15)

    def test_covfree_block_inverses_are_hermitian(self):
        rng = np.random.default_rng(7)
        k = n = 32
        est = (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))) / np.sqrt(2)
        blocks = covfree_block_inverses(est, rng.uniform(0.2, 1.5, size=k), 0.1)
        assert max(hermitian_gap(b) for b in blocks) <= 1e-14


class TestHermitianSqrt:
    def test_identity(self):
        np.testing.assert_allclose(hermitian_sqrt(np.eye(3)), np.eye(3))

    def test_psd_with_null_direction(self):
        np.testing.assert_allclose(
            hermitian_sqrt(np.diag([4.0, 0.0])), np.diag([2.0, 0.0]), atol=1e-12
        )

    def test_reconstructs_seeded_psd(self):
        rng = np.random.default_rng(9)
        m = random_psd(rng, 6)
        s = hermitian_sqrt(m)
        assert np.abs(s @ s.conj().T - m).max() < 1e-8

    def test_clips_small_negative_eigenvalues(self):
        rng = np.random.default_rng(2)
        m = random_psd(rng, 5, rank=2)  # numerically rank deficient
        s = hermitian_sqrt(m)
        assert np.abs(s @ s.conj().T - m).max() < 1e-8
        assert np.all(np.linalg.eigvalsh(hermitize(s)) > -1e-10)

    def test_eigen_failure_surfaces(self):
        bad = np.full((3, 3), np.nan)
        with pytest.raises(EigenFailure):
            hermitian_sqrt(bad)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_entry_raises(self, bad):
        m = np.eye(3)
        m[0, 2] = bad
        with pytest.raises(EigenFailure, match="non-finite entry"):
            hermitian_sqrt(m)
        stack = np.stack([np.eye(3), m])
        with pytest.raises(EigenFailure, match="non-finite entry"):
            hermitian_sqrt(stack)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 8))
    def test_sqrt_times_adjoint_reproduces_input(self, seed, n):
        rng = np.random.default_rng(seed)
        m = random_psd(rng, n)
        s = hermitian_sqrt(m)
        assert np.abs(s @ s.conj().T - m).max() <= 1e-8 * max(1.0, np.abs(m).max())


    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 3), st.integers(1, 4), st.integers(1, 6))
    def test_stack_equals_per_matrix_calls(self, seed, b0, b1, n):
        # members of full rank, of lower rank, all zero, and on scales 1e-20
        # to 1e20: a stack-wide clip threshold would zero the small ones
        rng = np.random.default_rng(seed)
        stack = np.empty((b0, b1, n, n), dtype=np.complex128)
        for idx in np.ndindex(b0, b1):
            kind = rng.integers(3)
            if kind == 2:
                stack[idx] = 0.0
            else:
                rank = n if kind == 0 else int(rng.integers(1, n + 1))
                stack[idx] = 10.0 ** rng.uniform(-20, 20) * random_psd(rng, n, rank)
        roots = hermitian_sqrt(stack)
        assert roots.shape == stack.shape
        for idx in np.ndindex(b0, b1):
            np.testing.assert_array_equal(roots[idx], hermitian_sqrt(stack[idx]))
        # clipped against its own largest eigenvalue, not the stack's
        tiny = hermitian_sqrt(np.stack([np.eye(n), 1e-30 * np.eye(n)]))[1]
        np.testing.assert_allclose(tiny, 1e-15 * np.eye(n), rtol=1e-12, atol=0)


class TestBlockDiagonal:
    def test_matvec_and_quad_match_dense(self):
        rng = np.random.default_rng(1)
        blocks = np.stack([random_pd(rng, 3) for _ in range(4)])
        bd = BlockDiagonal(blocks)
        f = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        dense = bd.dense()
        np.testing.assert_allclose(bd.matvec(f), dense @ f)
        assert bd.quad(f) == pytest.approx(np.real(f.conj() @ dense @ f))

    def test_solve_uses_blocks(self):
        rng = np.random.default_rng(4)
        blocks = np.stack([random_pd(rng, 2) for _ in range(3)])
        bd = BlockDiagonal(blocks)
        f = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        x = bd.solve(f)
        assert np.linalg.norm(bd.matvec(x) - f) < 1e-9
