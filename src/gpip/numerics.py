"""Dense complex Hermitian linear-algebra kernels.

Everything here is deterministic (no randomized pivoting) and pure: identical
inputs give bit-identical outputs. A Hermitian solve is one LAPACK
factorization (`zpotrf`) and one factored solve (`zpotrs`), with the
positive-definiteness checks around them. Inverses are never materialized for
solves; only the rank-one update path carries explicit inverses, because its
recursion needs them. A rank-one update forms one scaled outer product in a
fresh buffer and subtracts it from (or adds it to) the old inverse in that
buffer, one pass over the result: a Hermitian input stays Hermitian to
rounding, so no re-symmetrizing pass follows.

The two LAPACK routines come from `scipy.linalg._flapack`, the compiled
module `scipy.linalg.lapack` re-exports them from, loaded from its file
(`_load_lapack`): importing `scipy.linalg` runs its package init, which
pulls in `numpy.f2py`, `numpy.testing` and more and took about two thirds
of the time of `import gpip`, for two routines. They are the same function objects
`scipy.linalg.lapack` hands out, so solves are bit-identical and cost the
same; where the file cannot be found or loaded, `scipy.linalg.lapack`'s own
are imported instead.
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np

from .errors import DenominatorUnderflow, DimensionMismatch, EigenFailure, NotPositiveDefinite

# A pivot at or below this fraction of the largest diagonal entry is treated
# as a non-PD input. Relative, so the check is invariant to the physical
# units of channel gains. Effective-channel matrices always carry a noise
# ridge, so genuine solver inputs stay clear.
PIVOT_TOL = 1e-12
# Eigenvalues below this fraction of the largest are clipped to zero in PSD
# square roots; small-angular-spread correlation matrices are rank-deficient.
EIG_CLIP_REL = 1e-12
SM_DENOM_TOL = 1e-14
# the compiled module that scipy.linalg.lapack re-exports its routines from
_FLAPACK = "scipy.linalg._flapack"


def _load_lapack():
    """`zpotrf` and `zpotrs` of scipy's compiled LAPACK module, loaded from its
    file so that importing gpip does not run `scipy.linalg`'s package init.

    The module is registered under its own name, so a later `scipy.linalg`
    import reuses it and both hand out the same routine objects. Where the
    file cannot be found or loaded, the public `scipy.linalg.lapack` routines.
    """
    try:
        module = sys.modules.get(_FLAPACK)
        if module is None:
            scipy_spec = importlib.util.find_spec("scipy")  # finds, does not import
            if scipy_spec is None or not scipy_spec.submodule_search_locations:
                raise ImportError("scipy is not a package on the path")
            linalg = os.path.join(scipy_spec.submodule_search_locations[0], "linalg")
            finder = FileFinder(linalg, (ExtensionFileLoader, EXTENSION_SUFFIXES))
            spec = finder.find_spec(_FLAPACK)
            if spec is None:
                raise ImportError(f"no {_FLAPACK} extension in {linalg}")
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[_FLAPACK] = module
        return module.zpotrf, module.zpotrs
    except ImportError:
        from scipy.linalg.lapack import zpotrf, zpotrs

        return zpotrf, zpotrs


zpotrf, zpotrs = _load_lapack()


def _far_peak(a: np.ndarray, axis=None) -> np.ndarray | None:
    """The largest |entry| of `a`, overall or along `axis` (kept as length one),
    wherever that peak is finite and nonzero but outside (1e-150, 1e150), where
    squared norms overflow or underflow, and 1 elsewhere; None when no peak is."""
    peak = np.abs(a).max(axis=axis, keepdims=True, initial=0.0)
    far = (peak > 0) & (peak < np.inf) & ~((1e-150 < peak) & (peak < 1e150))
    return np.where(far, peak, 1.0) if far.any() else None


def _rescaled(a: np.ndarray, axis=None) -> np.ndarray:
    """`a` divided by its `_far_peak`, so that squared norms neither overflow nor
    underflow; `a` itself when no peak is far. For scale-free uses only; inputs
    in range keep their arithmetic bit for bit."""
    peak = _far_peak(a, axis)
    return a if peak is None else a / peak


def hermitize(m: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (m + m^H)/2 of a matrix or a (..., N, N) stack."""
    m = np.asarray(m)
    return 0.5 * (m + np.swapaxes(m, -1, -2).conj())


def cholesky_factor(m: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L @ L^H = m for Hermitian positive-definite m.

    LAPACK factors the lower triangle; the upper triangle of L is zero.
    Raises NotPositiveDefinite for a non-finite entry, a failed factorization,
    or any pivot |L_jj|^2 <= PIVOT_TOL times the largest diagonal entry, which
    signals a degenerate input: the caller must add a ridge or reject it.
    """
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    # LAPACK never reads the upper triangle, so every entry is checked here
    if not np.isfinite(a).all():
        raise NotPositiveDefinite("non-finite entry")
    scale = float(a.diagonal().real.max(initial=0.0))
    if scale <= 0.0:
        raise NotPositiveDefinite("no positive diagonal entry")
    low, info = zpotrf(a, lower=1, clean=1)
    if info > 0:
        raise NotPositiveDefinite(f"factorization failed at column {info - 1}")
    threshold = PIVOT_TOL * scale
    pivots = np.abs(low.diagonal()) ** 2
    if not pivots.min() > threshold:  # NaN fails too
        j = np.flatnonzero(~(pivots > threshold))[0]
        raise NotPositiveDefinite(
            f"pivot {pivots[j]:.3e} at column {j} (threshold {threshold:.1e})"
        )
    return low


def solve_hermitian(m: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve m @ x = rhs for Hermitian positive-definite m via Cholesky.

    `rhs` is (N,) or (N, R); x has its shape.
    """
    low = cholesky_factor(m)
    rhs = np.asarray(rhs)
    if rhs.ndim not in (1, 2) or rhs.shape[0] != low.shape[0]:
        raise DimensionMismatch(f"right-hand side shape {rhs.shape} does not fit {low.shape}")
    x, _ = zpotrs(low, rhs, lower=1)  # info < 0 only flags an argument the checks above rule out
    return x


def rank1_inverse_update(inv: np.ndarray, u: np.ndarray, c: float) -> np.ndarray:
    """Given Hermitian inv = M^-1, return (M + c * u u^H)^-1 by the
    Sherman-Morrison identity.

    With v = inv u and denom = 1/c + u^H v, the result is inv - v v^H / denom,
    formed as one outer product of w = v / sqrt(|denom|) subtracted from (or,
    for denom < 0, added to) inv. w w^H is Hermitian by construction, so the
    result is Hermitian to rounding and is not re-symmetrized.
    Raises ValueError unless c is positive and finite, and
    DenominatorUnderflow when denom falls below tolerance in magnitude or is
    NaN, which would make the update numerically meaningless.
    """
    if not (c > 0 and math.isfinite(c)):  # NaN fails both
        raise ValueError(f"update scale c must be positive and finite, got {c}")
    u = np.asarray(u, dtype=np.complex128)
    v = inv @ u
    denom = 1.0 / c + np.real(u.conj() @ v)
    if not abs(denom) >= SM_DENOM_TOL:  # NaN fails too
        raise DenominatorUnderflow(f"Sherman-Morrison denominator {denom:.3e}")
    w = v / math.sqrt(abs(denom))
    out = np.multiply.outer(w, w.conj())
    return np.subtract(inv, out, out=out) if denom > 0 else np.add(inv, out, out=out)


def hermitian_sqrt(m: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root S with S @ S^H = m, of a matrix or of every
    matrix of a (..., N, N) stack.

    Eigenvalues below EIG_CLIP_REL times the largest of their own matrix are
    clipped to zero, so numerically rank-deficient PSD inputs are handled
    without complex noise. A stack gives each matrix exactly the root a call
    on that matrix alone gives: one call per stack only saves call overhead.
    Raises EigenFailure for a non-finite entry.
    """
    a = np.asarray(m, dtype=np.complex128)
    if not np.isfinite(a).all():
        raise EigenFailure("non-finite entry")
    a = hermitize(a)
    try:
        w, u = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc
    top = np.maximum(w[..., -1:], 0.0)
    w = np.where(w < EIG_CLIP_REL * top, 0.0, w)
    return (u * np.sqrt(w)[..., None, :]) @ np.swapaxes(u.conj(), -1, -2)


@dataclass(frozen=True)
class BlockDiagonal:
    """Block-diagonal Hermitian matrix stored as stacked equal-size blocks.

    Off-block entries are implicitly zero and never materialized. `blocks`
    has shape (n_blocks, n, n); the total dimension is n_blocks * n.
    """

    blocks: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.blocks, dtype=np.complex128)
        if b.ndim != 3 or b.shape[1] != b.shape[2]:
            raise DimensionMismatch(f"expected (k, n, n) blocks, got shape {b.shape}")
        object.__setattr__(self, "blocks", b)

    @property
    def n_blocks(self) -> int:
        return self.blocks.shape[0]

    @property
    def block_dim(self) -> int:
        return self.blocks.shape[1]

    @property
    def dim(self) -> int:
        return self.n_blocks * self.block_dim

    def _split(self, f: np.ndarray) -> np.ndarray:
        f = np.asarray(f)
        if f.shape != (self.dim,):
            raise DimensionMismatch(f"vector length {f.shape} != {self.dim}")
        return f.reshape(self.n_blocks, self.block_dim)

    def matvec(self, f: np.ndarray) -> np.ndarray:
        parts = self._split(f)
        return np.einsum("knm,km->kn", self.blocks, parts).reshape(-1)

    def quad(self, f: np.ndarray) -> float:
        """Real quadratic form f^H M f."""
        parts = self._split(f)
        return float(np.real(np.einsum("kn,knm,km->", parts.conj(), self.blocks, parts)))

    def solve(self, f: np.ndarray) -> np.ndarray:
        """Per-block Cholesky solve; never factors the dense matrix."""
        parts = self._split(f)
        out = np.empty_like(parts)
        for k in range(self.n_blocks):
            out[k] = solve_hermitian(self.blocks[k], parts[k])
        return out.reshape(-1)

    def dense(self) -> np.ndarray:
        n, d = self.block_dim, self.dim
        out = np.zeros((d, d), dtype=np.complex128)
        for k in range(self.n_blocks):
            out[k * n : (k + 1) * n, k * n : (k + 1) * n] = self.blocks[k]
        return out
