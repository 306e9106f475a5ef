"""Topology, spatial correlation, fading realizations, and imperfect CSIT.

Channel vectors follow a one-ring scattering geometry: the correlation
between two antennas is the average phase difference of plane waves arriving
from a uniform angular sector around the user's azimuth. All generation is
deterministic per (inputs, seed).

Conventions: a channel or precoder "vector" is a length-N complex array;
per-user collections are arrays of shape (K, N) with row k belonging to
user k. Multi-cell true channels live in an (L, L, K, N) array indexed as
[serving_or_interfering_bs, user_cell, user, antenna].

The fading draws (`sample_channel`, `additive_error_csit`, `mmse_csit_tdd`,
`fdd_quantized_csit`) take only stored PSD roots; the three CSIT models
return (true_h, estimate). Each takes a (..., N, N) stack of roots and
draws it member by member, so one call covers a link trial's users or a
run of a system block's links.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from .errors import BelowMinimumDistance, DimensionMismatch
from .numerics import hermitian_sqrt, hermitize, solve_hermitian

QUAD_NODES = 512  # cap on the one-ring quadrature's node count
_QUAD_MARGIN = 32  # nodes beyond the integrand's bandwidth

PATHLOSS_INTERCEPT_DB = 135.1047
PATHLOSS_SLOPE_DB = 35.0413
MIN_DISTANCE_KM = 0.04

_SQRT2 = math.sqrt(2.0)


def as_rng(seed) -> np.random.Generator:
    """Accept an int seed, a SeedSequence, or a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class ArrayGeometry:
    """Antenna positions (meters) and carrier wavelength for one site."""

    positions: np.ndarray  # (N, 2)
    wavelength: float

    def __post_init__(self):
        # the quadrature node count is read from wavelength and positions
        if not 0 < self.wavelength < math.inf:
            raise ValueError("wavelength must be positive and finite")
        if not np.all(np.isfinite(self.positions)):
            raise ValueError("positions must be finite")

    @cached_property
    def aperture(self) -> float:
        """Largest distance between two antenna positions (meters)."""
        diff = self.positions[:, None, :] - self.positions[None, :, :]
        return float(np.max(np.hypot(diff[..., 0], diff[..., 1])))


def uniform_circular_array(n_antennas: int, wavelength: float = 1.0) -> ArrayGeometry:
    """Circle of isotropic antennas with half-wavelength adjacent spacing.

    The radius is wavelength * 0.5 / sqrt((1 - cos(2*pi/N))^2 + sin(2*pi/N)^2),
    which makes neighboring elements exactly wavelength/2 apart.
    """
    if n_antennas < 1:
        raise ValueError("n_antennas must be >= 1")
    if n_antennas == 1:
        return ArrayGeometry(np.zeros((1, 2)), wavelength)
    step = 2 * np.pi / n_antennas
    scale = 0.5 / np.hypot(1.0 - np.cos(step), np.sin(step))
    angles = step * np.arange(n_antennas)
    pos = wavelength * scale * np.column_stack([np.cos(angles), np.sin(angles)])
    return ArrayGeometry(pos, wavelength)


@dataclass(frozen=True)
class OneRingParams:
    """Azimuth, angular spread (radians), and large-scale linear power gain;
    azimuth and gain may be arrays that broadcast to one shape S of links."""

    azimuth: float | np.ndarray
    angular_spread: float
    gain: float | np.ndarray = 1.0

    def __post_init__(self):
        for name in ("azimuth", "angular_spread", "gain"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        if self.angular_spread <= 0:
            raise ValueError("angular_spread must be positive")
        if not np.all(np.greater(self.gain, 0)):
            raise ValueError("gain must be positive")


@cache  # bounded: `_node_count` only asks for counts up to QUAD_NODES
def _gauss_legendre(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1]."""
    rule = np.polynomial.legendre.leggauss(n_nodes)
    for a in rule:
        a.flags.writeable = False
    return rule


def _node_count(geom: ArrayGeometry, angular_spread: float) -> int:
    """Gauss-Legendre node count of `one_ring_correlation` for this array and sector.

    In the node variable t in [-1, 1] the integrand is exp(-j k d(t)) with
    |d'(t)| <= D * spread, D the array aperture and k = 2*pi/wavelength, so
    its bandwidth is at most k*D*spread; Gauss-Legendre error falls
    super-exponentially once the node count passes it (Trefethen, SIAM Rev.
    50(1), 2008). _QUAD_MARGIN nodes beyond it reach rounding; the count is
    capped at QUAD_NODES.
    """
    bandwidth = 2 * np.pi / geom.wavelength * geom.aperture * angular_spread
    return min(QUAD_NODES, math.ceil(bandwidth) + _QUAD_MARGIN)


def one_ring_correlation(geom: ArrayGeometry, params: OneRingParams) -> np.ndarray:
    """Antenna correlation matrix of a scatterer ring around the user, or the
    (*S, N, N) stack of them for azimuths and gains of shape S, each bit for
    bit what a call with that link's scalars gives.

    Entry (n, m) is the gain times the average over arrival angles
    alpha in [azimuth - spread, azimuth + spread] of
    exp(-j * 2*pi/wavelength * [cos a, sin a] . (r_n - r_m)).

    Evaluated with a Gauss-Legendre rule of `_node_count` nodes (41
    for 16 antennas at half-wavelength spacing and a pi/6 spread, QUAD_NODES
    at most), which keeps the result PSD by construction (positive
    quadrature weights turn the matrix into a convex combination of steering
    outer products). It matches the QUAD_NODES rule to about 1e-14 * gain;
    a geometry that reaches the cap gets exactly the QUAD_NODES rule.
    """
    azimuth, gain = np.broadcast_arrays(params.azimuth, params.gain)
    nodes, gl_weights = _gauss_legendre(_node_count(geom, params.angular_spread))
    alphas = azimuth[..., None] + params.angular_spread * nodes  # (*S, nodes)
    weights = 0.5 * gl_weights  # normalizes the sector average to 1
    k_wave = 2 * np.pi / geom.wavelength
    phase = -k_wave * (
        np.cos(alphas)[..., None] * geom.positions[:, 0]
        + np.sin(alphas)[..., None] * geom.positions[:, 1]
    )
    steer = np.exp(1j * phase)  # (*S, nodes, N)
    r = gain[..., None, None] * (np.swapaxes(weights[:, None] * steer, -1, -2) @ steer.conj())
    return hermitize(r)


def sample_channel(root: np.ndarray, rng) -> np.ndarray:
    """Draw h = root g with g standard circularly-symmetric Gaussian, or the
    (..., N) stack of draws for a (..., N, N) stack of PSD roots.

    `root` is the correlation's PSD root (`hermitian_sqrt`); campaigns take
    every root of a drop from one batched call. Like every CSIT function
    here, a stack draws member by member in C order, so it equals the
    single-member calls in that order bit for bit and leaves `rng` in the
    same state.
    """
    rng = as_rng(rng)
    g = _member_gaussians(rng, root.shape[:-2], 1, root.shape[-1])
    return _apply(root, g[..., 0, :])


def standard_complex_gaussian(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Unit-variance circularly-symmetric complex Gaussian samples."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _member_gaussians(rng: np.random.Generator, lead: tuple, count: int, n: int) -> np.ndarray:
    """(*lead, count, n) standard complex Gaussians, drawn member by member:
    for each member of `lead` in C order, `count` vectors, each as
    `standard_complex_gaussian(rng, n)` draws it (real parts, then imaginary)."""
    z = rng.standard_normal((*lead, count, 2, n))
    g = np.empty((*lead, count, n), dtype=np.complex128)
    g.real = z[..., 0, :]
    g.imag = z[..., 1, :]
    g /= _SQRT2
    return g


def _apply(root: np.ndarray, g: np.ndarray) -> np.ndarray:
    """root @ g for each member: (..., N, N) or one shared (N, N) root times
    a (..., N) stack, each member bit for bit its own matrix-vector product."""
    return (root @ g[..., None])[..., 0]


def okumura_hata_pathloss(distance_km):
    """Urban macro path loss in dB of a distance or an array of them; valid from 40 m outward."""
    d = np.asarray(distance_km, dtype=float)
    if np.any(d < MIN_DISTANCE_KM):
        raise BelowMinimumDistance(f"distance {np.nanmin(d)} km < {MIN_DISTANCE_KM} km")
    return PATHLOSS_INTERCEPT_DB + PATHLOSS_SLOPE_DB * np.log10(d)


def gain_from_pathloss(loss_db, shadow_db=0.0):
    """Linear power gain from path losses and optional shadowing terms (dB)."""
    return 10.0 ** ((-loss_db + shadow_db) / 10.0)


# ---------------------------------------------------------------------------
# Imperfect CSIT models
# ---------------------------------------------------------------------------


class MmseStatistics(NamedTuple):
    """What uplink MMSE training fixes for a link: the error covariance phi
    and the PSD roots of the estimate covariance R - phi and of phi.

    Each field is one (N, N) matrix or a (..., N, N) stack of them.
    """

    phi: np.ndarray
    est_root: np.ndarray
    err_root: np.ndarray


def mmse_statistics(
    r_serving: np.ndarray,
    r_interferers: list[np.ndarray] | np.ndarray,
    noise_over_pilot: float,
) -> MmseStatistics:
    """The second-order statistics of `mmse_csit_tdd`, for one link or a stack.

    phi = R - R (R + sum_j R_j + noise_over_pilot I)^-1 R, with the sum over
    the interfering co-pilot covariances and `noise_over_pilot` the uplink
    noise variance over the pilot energy (pilot length times pilot power).
    Each interferer (a list's items, or an array's along its first axis)
    must broadcast to the (N, N) or (..., N, N) shape of `r_serving`, and
    is summed onto R in order; each matrix of a stack gets exactly what a
    call on it alone gives.
    """
    if not noise_over_pilot >= 0:
        raise ValueError(f"noise_over_pilot must be non-negative, got {noise_over_pilot!r}")
    r = hermitize(np.asarray(r_serving, dtype=np.complex128))
    n = r.shape[-1]
    total = r.copy()
    for ri in r_interferers:
        try:  # in place, so an interferer must broadcast to R's shape
            total += np.asarray(ri, dtype=np.complex128)
        except ValueError:
            raise DimensionMismatch("interferer covariance shape mismatch") from None
    total = hermitize(total) + noise_over_pilot * np.eye(n)
    gain = np.empty_like(r)
    for idx in np.ndindex(r.shape[:-2]):
        gain[idx] = solve_hermitian(total[idx], r[idx])
    phi = hermitize(r - r @ gain)
    return MmseStatistics(phi, hermitian_sqrt(r - phi), hermitian_sqrt(phi))


def mmse_csit_tdd(est_root: np.ndarray, err_root: np.ndarray, rng) -> tuple[np.ndarray, np.ndarray]:
    """Uplink-pilot MMSE estimation with co-pilot contamination.

    Returns (true_h, estimate) for the roots `est_root` of R - phi and
    `err_root` of phi that `mmse_statistics` gives. The estimate and the
    error are drawn jointly and independently from CN(0, R - phi) and
    CN(0, phi), estimate first; the true channel is their sum, which makes
    the pair exactly consistent with MMSE estimation (the estimate never
    carries more uncertainty than the prior). For a stack of links each
    member draws its estimate and then its error.
    """
    rng = as_rng(rng)
    g = _member_gaussians(rng, est_root.shape[:-2], 2, est_root.shape[-1])
    est = _apply(est_root, g[..., 0, :])
    err = _apply(err_root, g[..., 1, :])
    return est + err, est


def fdd_quantized_csit(root: np.ndarray, kappa: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """Quantized-feedback CSIT of tunable quality kappa in [0, 1].

    Returns (true_h, estimate). With `root` the PSD square root S of the
    correlation matrix, the true channel is S g and the estimate is
    S (sqrt(1 - kappa^2) g + kappa v) for independent standard Gaussians
    g, v: kappa = 0 is perfect, kappa = 1 is useless. The error covariance
    the rest of the pipeline identifies with this model is the
    kappa^2-scaled correlation matrix (the colored variance of the v term).
    For a (..., N, N) stack each member draws g and then v.
    """
    if not 0.0 <= kappa <= 1.0:
        raise ValueError("kappa must lie in [0, 1]")
    rng = as_rng(rng)
    gv = _member_gaussians(rng, root.shape[:-2], 2, root.shape[-1])
    g, v = gv[..., 0, :], gv[..., 1, :]
    return _apply(root, g), _apply(root, np.sqrt(1.0 - kappa**2) * g + kappa * v)


def additive_error_csit(root: np.ndarray, err_root: np.ndarray, rng) -> tuple[np.ndarray, np.ndarray]:
    """Additive-error CSIT: the true channel and an estimate off by white noise.

    Returns (true_h, estimate): true_h = root g as `sample_channel` draws it,
    and estimate = true_h + err_root e for an independent standard Gaussian e.
    `root` may be a (..., N, N) stack, with one shared (N, N) error-covariance
    root or a matching stack of them; each member draws g and then e.
    """
    rng = as_rng(rng)
    ge = _member_gaussians(rng, root.shape[:-2], 2, root.shape[-1])
    h = _apply(root, ge[..., 0, :])
    return h, h + _apply(err_root, ge[..., 1, :])


# ---------------------------------------------------------------------------
# Multi-cell topology
# ---------------------------------------------------------------------------

_HEX_DIRECTIONS = [(1, -1, 0), (0, -1, 1), (-1, 0, 1), (-1, 1, 0), (0, 1, -1), (1, 0, -1)]


def hex_cell_centers(n_cells: int, inter_site: float) -> np.ndarray:
    """Centers of a hexagonal grid, spiraling outward from the origin."""
    if n_cells < 1:
        raise ValueError("n_cells must be >= 1")
    coords = [(0, 0, 0)]
    ring = 1
    while len(coords) < n_cells:
        cube = tuple(ring * c for c in _HEX_DIRECTIONS[4])
        for side in range(6):
            for _ in range(ring):
                coords.append(cube)
                d = _HEX_DIRECTIONS[side]
                cube = (cube[0] + d[0], cube[1] + d[1], cube[2] + d[2])
        ring += 1
    coords = coords[:n_cells]
    out = np.empty((n_cells, 2))
    for i, (q, r, _s) in enumerate(coords):
        out[i] = (inter_site * (q + r / 2.0), inter_site * np.sqrt(3.0) / 2.0 * r)
    return out


def _in_hexagon(points: np.ndarray, half_width: float) -> np.ndarray:
    """Membership test for the Voronoi hexagon of a triangular lattice site."""
    angles = np.arange(6) * np.pi / 3.0
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    proj = points @ dirs.T
    return np.all(proj <= half_width + 1e-12, axis=1)


@dataclass(frozen=True)
class Topology:
    """Cell sites and user drop positions (meters)."""

    cell_xy: np.ndarray  # (L, 2)
    user_xy: np.ndarray  # (L, K, 2)

    def distances_km(self) -> np.ndarray:
        """(L_bs, L_cell, K) distances from every BS to every user, in km."""
        diff = self.user_xy[None, :, :, :] - self.cell_xy[:, None, None, :]
        return np.linalg.norm(diff, axis=-1) / 1000.0


def drop_users(
    n_cells: int, n_users: int, inter_site: float, min_distance: float, rng
) -> Topology:
    """Uniform user positions inside each cell's hexagon, seeded.

    Users are rejected until they are at least min_distance from every BS,
    so min_distance may be at most the hexagon's inradius, half the inter-site
    distance: beyond it only the corners remain, and they vanish toward the circumradius.
    """
    rng = as_rng(rng)
    if not 0 < inter_site < np.inf:
        raise ValueError(f"inter_site {inter_site} must be positive and finite")
    circum = inter_site / np.sqrt(3.0)
    if not min_distance <= inter_site / 2.0:  # NaN included: no candidate would ever pass
        raise ValueError(
            f"min_distance {min_distance} must be at most half the inter-site distance "
            f"{inter_site}: toward the circumradius {circum} almost no point of the "
            "hexagon is that far from every BS"
        )
    centers = hex_cell_centers(n_cells, inter_site)
    half_width = inter_site / 2.0
    users = np.empty((n_cells, n_users, 2))
    for l in range(n_cells):
        placed = 0
        while placed < n_users:
            cand = rng.uniform(-circum, circum, size=(4 * n_users, 2))
            ok = _in_hexagon(cand, half_width)
            cand = cand[ok] + centers[l]
            if cand.size == 0:
                continue
            dist = np.linalg.norm(cand[:, None, :] - centers[None, :, :], axis=-1)
            cand = cand[np.all(dist >= min_distance, axis=1)]
            take = min(n_users - placed, cand.shape[0])
            users[l, placed : placed + take] = cand[:take]
            placed += take
    return Topology(centers, users)
