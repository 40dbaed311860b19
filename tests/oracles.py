"""Oracles shared by the test modules: the joins of the program's block
routes into whole arrays, which the program itself never builds, the
convergence suite's eps over every node of a grid, the peak suite's
Gram and band over every node of its grid, and the Heisenberg
representation by its index formula."""

import itertools

import numpy as np

from theta_amoeba.amoeba import _softmax
from theta_amoeba.metrics import (
    MetricField,
    _metric_blocks,
    c0_metric_deviation,
    check_grid_resolution,
    quadrature_grid,
)
from theta_amoeba.abelian import base_distance
from theta_amoeba import theta
from theta_amoeba.quantization import PeakSectionDiagnostics
from theta_amoeba.theta import GaugeValue, _stacked_log_mag_blocks, grid_gauge_blocks, section_gauge_values


def joined(rows, m, blocks):
    """The (rows, m) array of the (points, block) pairs of blocks, each
    block a (rows, points) array: every bit of the blocks, none changed."""
    out = np.empty((rows, m))
    for pts, block in blocks:
        out[:, pts] = block
    return out


def grid_gauge_values(basis, m, grad=False):
    """Every section on every node of quadrature_grid(n, m), x-major: the
    blocks of grid_gauge_blocks joined, every bit kept."""
    parts = list(grid_gauge_blocks(basis, m, grad=grad))
    return GaugeValue(
        log_scale=np.concatenate([p.log_scale for p in parts]),
        base_phase=np.concatenate([p.base_phase for p in parts]),
        values=np.concatenate([p.values for p in parts], axis=1),
        grad=np.concatenate([p.grad for p in parts], axis=1) if grad else None,
    )


def stacked_log_mag(basis, x, y):
    """log|s_i|_h by the per-section route, the blocks of
    _stacked_log_mag_blocks joined into one (k^n, m) array."""
    return joined(basis.n_sections, *_stacked_log_mag_blocks(basis, x, y))


def dense_walk_log_mag(basis, x, y):
    """log|s_i|_h by the per-section route's dense branch before its table
    was a product, joined into one (k^n, m) array: every key of the span
    that a (section, point) pair takes is marked, and the marked keys'
    points are summed by one theta._theta_sums call per _CHUNK_TERMS keys
    of the span."""
    z, base_lm, _ = theta._gauge(basis, x, y, phase=False)
    m, n_s = len(z), basis.n_sections
    keys, span, points, _ = theta._shifted_keys(basis, z)
    seen = np.zeros(span, dtype=bool)
    for pts in theta._point_blocks(n_s, m):
        seen[keys(slice(None), pts)] = True
    lm = np.empty(span)
    for start in range(0, span, theta._CHUNK_TERMS):
        marked = start + np.flatnonzero(seen[start : start + theta._CHUNK_TERMS])
        zs, l_star = points(marked)
        shift, vals = theta._theta_sums(basis.om.omega / basis.k, zs, None, None, l_star)
        with np.errstate(divide="ignore"):
            lm[marked] = np.log(np.abs(vals)) + shift
    blocks = ((pts, lm[keys(slice(None), pts)] + base_lm[pts]) for pts in theta._point_blocks(n_s, m))
    return joined(n_s, m, blocks)


def per_section_image(basis, x, y):
    """The moment map amoeba_sample merges, shape (m, k^n): the _softmax
    of each block of _stacked_log_mag_blocks, joined with every bit."""
    m, blocks = _stacked_log_mag_blocks(basis, x, y)
    return joined(basis.n_sections, m, _softmax(blocks)).T


def omega_k_metric_field(basis, grid):
    """Oracle of the convergence suite's eps: the pulled-back metric g_k at
    every node of the grid, built block by block (grid_gauge_blocks) into
    the (nodes, n, n) field, so beyond it the extra memory is a few blocks
    with their gradients and forms, and the route's tables."""
    check_grid_resolution(basis, grid)
    n = basis.om.n
    h = np.empty((grid.size, n, n), dtype=complex)
    start = 0
    for _, part in _metric_blocks(basis, grid_gauge_blocks(basis, grid.m, grad=True)):
        h[start : start + len(part)] = part
        start += len(part)
    return MetricField(grid=grid, om=basis.om, h=h)


def grid_deviation(basis, m):
    """The C0 deviation eps over every node of the m-grid."""
    return c0_metric_deviation(basis.om, omega_k_metric_field(basis, quadrature_grid(1, m)).h)


def peak_gram_band(basis, c):
    """The Gram of the peak sections kappa c s over every node of the
    max(8k, 16)^{2n} grid, over the node count, and the min and max of
    their band sum |s~_i|^2 / k^n, for any matrix c: the peak suite's
    reduction before it read one y-strip, node by node and block by block."""
    k, n = basis.k, basis.om.n
    kappa = (2.0 * k) ** (-0.25 * n)
    m = max(8 * k, 16)
    gram_peak, band_min, band_max = None, np.inf, -np.inf
    for gv in grid_gauge_blocks(basis, m):
        tilde = c @ gv.complex_values()
        tilde *= kappa
        tilde_bar = tilde.conj()
        part = tilde @ tilde_bar.T
        # the first block starts the sum, so a one-block grid keeps its bits
        gram_peak = part if gram_peak is None else gram_peak + part
        band = np.einsum("im,im->m", tilde, tilde_bar).real / k**n
        band_min, band_max = np.minimum(band_min, band.min()), np.maximum(band_max, band.max())
    return gram_peak / m ** (2 * n), band_min, band_max


def peak_diagnostics(basis, c):
    """The peak suite's measurements of the peak sections kappa c s for any
    matrix c, with the Gram and band of peak_gram_band: the suite as it
    was before it took c's first row and read one y-strip."""
    om, k, n = basis.om, basis.k, basis.om.n
    kappa = (2.0 * k) ** (-0.25 * n)
    mass = np.abs(c) ** 2
    off = mass - np.diag(np.diag(mass))
    prop_res = float(np.sqrt(np.max(off.sum(axis=1) / mass.sum(axis=1))))
    sv = np.linalg.svd(c, compute_uv=False)
    cond = float(sv[0] / sv[-1])

    gram_peak, band_min, band_max = peak_gram_band(basis, c)
    dg = np.sqrt(np.abs(np.diag(gram_peak)))
    normalized = gram_peak / np.outer(dg, dg)
    off = np.abs(normalized - np.diag(np.diag(normalized)))
    gram_off = float(off.max())

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
    return PeakSectionDiagnostics(
        k=k,
        proportionality_residual=prop_res,
        gram_offdiag_max=gram_off,
        band_min=float(band_min),
        band_max=float(band_max),
        decay_slope=float(a[0]),
        decay_r2=float(1.0 - ss_res / ss_tot),
        decay_slope_model=-2.0 * np.pi * k,
        change_of_basis_cond=cond,
    )


def rho_monomial(g):
    """rho(g)'s monomial rows (dest, exps) by the index formula rho_matrix
    used before it read heisenberg.shift_table: its own lexicographic
    (Z/k)^n table, the target idx_i - beta mod k, and its mixed-radix index."""
    k, n = g.k, g.alpha.size
    idx = np.array(list(itertools.product(range(k), repeat=n)), dtype=int)
    strides = k ** np.arange(n - 1, -1, -1)
    target = np.mod(idx - g.beta[None, :], k)
    return target @ strides, np.mod(g.c + target @ g.alpha, k)
