"""Oracles shared by the test modules: the joins of the program's block
routes into whole arrays, which the program itself never builds, and the
convergence suite's eps over every node of a grid."""

import numpy as np

from theta_amoeba.amoeba import _softmax
from theta_amoeba.metrics import (
    MetricField,
    _metric_blocks,
    c0_metric_deviation,
    check_grid_resolution,
    quadrature_grid,
)
from theta_amoeba.theta import GaugeValue, _stacked_log_mag_blocks, grid_gauge_blocks


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
