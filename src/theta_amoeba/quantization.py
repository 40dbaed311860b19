"""Bohr-Sommerfeld data, fiber sections, Bergman kernels, and peak
sections on flat tori.

The unitary gauge makes the covariantly constant fiber section over
b = beta/k exactly sigma(x) = e^{i pi k t(x) b} (plain normalization), so
fiber integrals against the theta basis reduce to one-dimensional
trapezoid sums that are spectrally accurate.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .abelian import RiemannMatrix, base_distance, fiber_volume, z_to_xy
from .errors import ConfigError, DegenerateSample, InvalidPoints, NonPositive
from .heisenberg import conjugation_sum, shift_table
from .theta import (
    ZERO_FLOOR_LOG,
    GaugeValue,
    ThetaBasis,
    _as_points,
    _level,
    _seed,
    grid_gauge_blocks,
    section_gauge_values,
    theta_basis,
)


@dataclass(frozen=True)
class BSFiberSet:
    """Exact rational enumeration of Bohr-Sommerfeld points at level k."""

    k: int
    kind: str
    points: tuple


def bs_fibers_abelian(om: RiemannMatrix, k: int) -> BSFiberSet:
    basis = theta_basis(om, k)
    pts = tuple(tuple(Fraction(int(j), basis.k) for j in idx) for idx in basis.indices)
    return BSFiberSet(k=basis.k, kind="abelian", points=pts)


def bs_points_cp1(k: int) -> BSFiberSet:
    k = _level(k)
    pts = tuple(Fraction(2 * i - k, k) for i in range(k + 1))
    return BSFiberSet(k=k, kind="cp1", points=pts)


def _check_fiber(basis: ThetaBasis, i) -> None:
    """Refuse i unless it numbers one of the k^n Bohr-Sommerfeld fibers: a
    negative index would wrap to the last fibers."""
    count = basis.n_sections
    if isinstance(i, bool) or not isinstance(i, numbers.Integral) or not 0 <= i < count:
        raise ConfigError(f"fiber index must be an integer in [0, {count}), got {i!r}")


def sigma_section(om: RiemannMatrix, k: int, i: int, x) -> GaugeValue:
    """Covariantly constant section over the i-th Bohr-Sommerfeld fiber.

    In the unitary gauge its modulus is identically 1 and its phase is
    pi k t(x) b_i.
    """
    basis = theta_basis(om, k)
    _check_fiber(basis, i)
    b = basis.b_points[i]
    # sigma depends on x alone; _as_points checks it as both coordinates
    x, _ = _as_points(x, x, om.n)
    phase = np.pi * k * (x @ b)
    ones = np.ones((1, phase.size), dtype=complex)
    return GaugeValue(log_scale=np.zeros(phase.size), base_phase=phase, values=ones)


def bergman_kernel(basis: ThetaBasis, x1, y1, x2, y2) -> np.ndarray:
    """Pi_k(z, w) = sum_i s_i(z) conj(s_i(w)) in gauge values.

    Inputs are matched batches of (x, y) coordinates for z and w, of one
    length.
    """
    v1 = section_gauge_values(basis, x1, y1).complex_values()
    v2 = section_gauge_values(basis, x2, y2).complex_values()
    if v1.shape != v2.shape:
        raise InvalidPoints(f"z and w batches differ in length: {v1.shape} and {v2.shape}")
    return np.einsum("im,im->m", v1, np.conj(v2))


def fiber_coefficients(basis: ThetaBasis, i: int) -> np.ndarray:
    """c_j = int over the i-th BS fiber of (sigma_i, s_j)_h dx, in the
    coordinate measure dx with sigma_i of modulus 1."""
    _check_fiber(basis, i)
    om, k, n = basis.om, basis.k, basis.om.n
    m = max(16 * k, 32)
    axes = np.meshgrid(*([np.arange(m) / m] * n), indexing="ij")
    xg = np.stack([a.ravel() for a in axes], axis=-1)
    b = basis.b_points[i]
    yg = np.broadcast_to(b, xg.shape)
    s_vals = section_gauge_values(basis, xg, yg).complex_values()
    sig = sigma_section(om, k, i, xg).complex_values()[0]
    return (np.conj(s_vals) @ sig) / xg.shape[0]


@dataclass(frozen=True)
class ReconstructionResult:
    ratio_mean: complex
    ratio_rel_std: float
    measured_abs: float
    printed_abs: float
    printed_matches: bool


def printed_reconstruction_constant(om: RiemannMatrix, k: int) -> float:
    """|C'_Omega| k^{n/4} as printed: 2^{1/4} det(Im om)^{n/4} /
    |det conj(om)|^{n/2} times k^{n/4}."""
    n, k = om.n, _level(k)
    det_t = float(np.linalg.det(om.im))
    det_om = abs(np.linalg.det(np.conj(om.omega)))
    return 2.0**0.25 * det_t ** (n / 4.0) / det_om ** (n / 2.0) * k ** (n / 4.0)


def berg_reconstruct(
    basis: ThetaBasis, i: int, sample_x, sample_y
) -> ReconstructionResult:
    """Ratio of the fiber-integrated kernel to the i-th section.

    Computes int over the BS fiber of Pi_k(z, x) sigma_i(x) dx at each
    sample z (the coefficients of fiber_coefficients) and divides by
    s_i(z); the proposition predicts a z-independent constant. An empty
    sample raises InvalidPoints: it has no mean.
    """
    x, y = _as_points(sample_x, sample_y, basis.om.n)
    if not len(x):
        raise InvalidPoints("berg_reconstruct needs at least one sample point")
    c = fiber_coefficients(basis, i)
    vals = section_gauge_values(basis, x, y)
    if np.any(vals.log_mag[i] < ZERO_FLOOR_LOG):
        raise DegenerateSample("sample point too close to a section zero")
    v = vals.complex_values()
    ratios = (c @ v) / v[i]
    mean = complex(ratios.mean())
    rel_std = float(ratios.std() / max(abs(mean), 1e-300))
    printed = printed_reconstruction_constant(basis.om, basis.k)
    return ReconstructionResult(
        ratio_mean=mean,
        ratio_rel_std=rel_std,
        measured_abs=abs(mean),
        printed_abs=printed,
        printed_matches=bool(abs(abs(mean) - printed) <= 1e-4 * printed),
    )


@dataclass(frozen=True)
class PeakSectionDiagnostics:
    k: int
    proportionality_residual: float
    gram_offdiag_max: float
    band_min: float
    band_max: float
    decay_slope: float
    decay_r2: float
    decay_slope_model: float
    change_of_basis_cond: float


def peak_section_suite(om: RiemannMatrix, k: int) -> PeakSectionDiagnostics:
    """Peak sections from fiber projections of the exact Bergman kernel.

    s~_i = kappa sum_j c_ij s_j with c_ij = sqrt(V) fiber_coefficients: the
    fiber integrals of the unit-normalized sigma_i in the Riemannian fiber
    measure, V the fiber volume. On a flat torus each s~_i is exactly
    proportional to s_i, so all the asymptotic statements can be checked
    against that oracle.

    c is a circulant, c_ij = c_{0, j-i} with indices mod k, so only the
    fiber over b = 0 is integrated. Shifting y by beta/k (the finite
    Heisenberg group) sends s_j(x, y) to e^{i pi x.beta} s_{j-beta}(x, y),
    and sigma_i = e^{i pi x.i} sigma_0 on the fiber y = i/k; the phase
    cancels in conj(s_j) sigma_i, so c_ij = c_{0, j-i}. For that circulant
    the shift sends s~_i to e^{i pi x.beta} s~_{i-beta}, so the band sum
    |s~_i|^2 is the same on every y-strip of side 1/k, and the Gram over a
    shifted strip is the strip's with its indices permuted.

    Memory contract: the Gram and band are reduced block by block over one
    y-strip, so beyond c, the (k^n, k^n) Gram and its k^n permuted copies
    the extra memory is a few blocks of sections and peak sections, and
    the route's tables, never the whole grid.
    """
    basis = theta_basis(om, k)
    k, n = basis.k, om.n
    # the analogue of (k/2pi)^{-n/4} in this curvature normalization: the
    # reciprocal of the limiting fiber-projection coefficient |c_ii| = (2k)^{n/4}
    kappa = (2.0 * k) ** (-0.25 * n)
    # the y-shifts by idx_b / k are heisenberg.shift_table's rows at alpha = 0
    table = shift_table(k, np.zeros_like(basis.indices), basis.indices)
    c = (np.sqrt(fiber_volume(om)) * fiber_coefficients(basis, 0))[table[0]]

    # (a) proportionality: mass of row i away from entry i, summed directly
    # (1 - |c_ii|^2/|c_i|^2 cannot read below sqrt(eps) ~ 1.5e-8)
    mass = np.abs(c) ** 2
    off = mass - np.diag(np.diag(mass))
    prop_res = float(np.sqrt(np.max(off.sum(axis=1) / mass.sum(axis=1))))

    sv = np.linalg.svd(c, compute_uv=False)
    cond = float(sv[0] / sv[-1])

    # (b) Gram and (d) pointwise band of sum |s~|^2 / k^n
    gram_peak, band_min, band_max = _peak_gram_band(basis, c, table, kappa)
    dg = np.sqrt(np.abs(np.diag(gram_peak)))
    normalized = gram_peak / np.outer(dg, dg)
    off = np.abs(normalized - np.diag(np.diag(normalized)))
    gram_off = float(off.max())

    # (e) decay of s~_0 along the base, against squared base distance
    ys = np.linspace(-0.35, 0.35, 57)
    pts_y = np.tile(ys[:, None], (1, n))
    gv = section_gauge_values(basis, np.zeros_like(pts_y), pts_y)
    tilde0 = kappa * (c[0] @ gv.complex_values())
    log_sq = 2.0 * np.log(np.abs(tilde0))
    dists = base_distance(pts_y, np.zeros(n), om)
    a = np.polyfit(dists**2, log_sq, 1)
    fitted = np.polyval(a, dists**2)
    ss_res = float(np.sum((log_sq - fitted) ** 2))
    ss_tot = float(np.sum((log_sq - log_sq.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot

    return PeakSectionDiagnostics(
        k=k,
        proportionality_residual=prop_res,
        gram_offdiag_max=gram_off,
        band_min=float(band_min),
        band_max=float(band_max),
        decay_slope=float(a[0]),
        decay_r2=float(r2),
        decay_slope_model=-2.0 * np.pi * k,
        change_of_basis_cond=cond,
    )


def _peak_gram_band(basis: ThetaBasis, c: np.ndarray, table, kappa: float):
    """The Gram of the peak sections kappa c s over the max(8k, 16)^{2n}
    grid, over its node count, and the min and max of their band
    sum |s~_i|^2 / k^n, from the y-strip [0, 1/k)^n alone: the y-shifts
    permute the peak sections by table's rows, up to a common phase, so the
    grid's Gram is heisenberg.conjugation_sum of the strip's over them."""
    k, n = basis.k, basis.om.n
    m = max(8 * k, 16)
    gram_strip, band_min, band_max = None, np.inf, -np.inf
    for gv in grid_gauge_blocks(basis, m, box=(m,) * n + (m // k,) * n):
        tilde = c @ gv.complex_values()
        tilde *= kappa
        tilde_bar = tilde.conj()
        part = tilde @ tilde_bar.T
        # the first block starts the sum, so a one-block strip keeps its bits
        gram_strip = part if gram_strip is None else gram_strip + part
        band = np.einsum("im,im->m", tilde, tilde_bar).real / k**n
        band_min, band_max = np.minimum(band_min, band.min()), np.maximum(band_max, band.max())
    gram = conjugation_sum(gram_strip, *table, k)
    return gram / m ** (2 * n), band_min, band_max


def bsz_model_kernel(g: np.ndarray, k: int, u, v):
    """(k/2pi)^n exp(-1/2 tu G ubar - 1/2 tv G vbar + tu G vbar), one value per
    broadcast pair of (..., n) batches u, v; a single pair gives a complex."""
    k = _level(k)
    u, v = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise InvalidPoints("model kernel offsets u and v must be finite")
    g = np.atleast_2d(np.asarray(g, dtype=complex))
    # a NaN eigenvalue fails every comparison, so a non-finite g goes first
    if not np.isfinite(g).all() or np.linalg.eigvalsh(0.5 * (g + g.conj().T))[0] <= 0.0:
        raise NonPositive("model metric matrix must be finite and positive definite")

    def form(a, b):
        return np.einsum("...i,ij,...j->...", a, g, np.conj(b))

    expo = -0.5 * form(u, u) - 0.5 * form(v, v) + form(u, v)
    val = (k / (2.0 * np.pi)) ** len(g) * np.exp(expo)
    return complex(val) if val.ndim == 0 else val


def bsz_comparison(om: RiemannMatrix, k: int, seed: int = 0) -> float:
    """Max relative magnitude error of the model kernel against the exact
    kernel over 20 seeded pairs of offsets z0 + u/sqrt(k), z0 + v/sqrt(k),
    with G = pi (Im om)^{-1}; u and v have real and imaginary parts
    uniform in [-1/sqrt(2), 1/sqrt(2)].

    The exact kernel is divided by (2pi)^n, matching the model's diagonal
    normalization of the volume form.
    """
    n = om.n
    basis = theta_basis(om, k)
    rng = np.random.default_rng(_seed(seed))
    g = np.pi * om.im_inv
    z0 = (rng.uniform(size=n) + 1j * rng.uniform(size=n)) @ om.im_chol.T
    # per pair, in draw order: Re u, Im u, Re v, Im v
    r = rng.uniform(-1, 1, (20, 4, n))
    u = (r[:, 0] + 1j * r[:, 1]) / np.sqrt(2)
    v = (r[:, 2] + 1j * r[:, 3]) / np.sqrt(2)
    xa, ya = z_to_xy(z0 + u / np.sqrt(k), om)
    xb, yb = z_to_xy(z0 + v / np.sqrt(k), om)
    exact = bergman_kernel(basis, xa, ya, xb, yb)
    model = bsz_model_kernel(g, k, u, v)
    err = np.abs(np.abs(exact) / (2.0 * np.pi) ** n - np.abs(model)) / np.abs(model)
    return float(err.max())
