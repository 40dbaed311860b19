"""L^2 structure and pulled-back metrics for the section basis.

Integrals use the periodic tensor trapezoid rule, which on the torus is a
plain grid mean and converges spectrally for smooth integrands. In the
(x, y) chart the flat volume of X is exactly 1, so the grid mean needs no
volume factor.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

from .abelian import RiemannMatrix, real_metric_tensor
from .errors import ConfigError, DegenerateSample, NonPositive
from .theta import (
    ZERO_FLOOR_LOG,
    GaugeValue,
    ThetaBasis,
    grid_gauge_values,
    section_gauge_values,
)


@dataclass(frozen=True)
class QuadratureGrid:
    """Uniform periodic grid on [0,1)^{2n} in (x, y), m nodes per axis."""

    n: int
    m: int
    x: np.ndarray
    y: np.ndarray

    @property
    def size(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class MetricField:
    """Metric tensors sampled on every node of a quadrature grid."""

    grid: QuadratureGrid
    g: np.ndarray


def quadrature_grid(n: int, m: int) -> QuadratureGrid:
    """The m^{2n} nodes (x, y) in ((1/m) Z / Z)^{2n}, x-major.

    n must be an integer >= 1 and m an integer >= 2: a fractional m would
    not give a periodic grid, and grid_gauge_values reads node indices.
    """
    for name, value, least in (("dimension", n, 1), ("nodes per axis", m, 2)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
            raise ConfigError(f"grid {name} must be an integer >= {least}, got {value!r}")
    axes = np.meshgrid(*([np.arange(m) / m] * (2 * n)), indexing="ij")
    flat = np.stack([a.ravel() for a in axes], axis=-1)
    return QuadratureGrid(n=n, m=m, x=flat[:, :n], y=flat[:, n:])


def check_grid_resolution(basis: ThetaBasis, grid: QuadratureGrid):
    if grid.n != basis.om.n:
        raise ConfigError(f"grid dimension {grid.n} does not match basis {basis.om.n}")
    if grid.m < 8 * basis.k:
        raise ConfigError(
            f"grid resolution {grid.m} too coarse for level {basis.k}; need >= {8 * basis.k}"
        )


def gram_matrix(basis: ThetaBasis, grid: QuadratureGrid) -> np.ndarray:
    """L^2 Gram matrix (s_i, s_j) by grid-mean quadrature of gauge values."""
    check_grid_resolution(basis, grid)
    v = grid_gauge_values(basis, grid.m).complex_values()
    g = (v @ v.conj().T) / grid.size
    return 0.5 * (g + g.conj().T)


def _metric_field(basis: ThetaBasis, gv: GaugeValue) -> np.ndarray:
    """Pulled-back Fubini-Study metric from section values and d log Theta_k.

    With p_i = |s_i|_h^2 / f_k, the complex Hessian of log f_k is
    Cov_p(d log Theta_k(z; b_i)) - pi k (Im om)^{-1}, so the hermitian
    coefficient matrix of g_k is Cov_p / (pi k): positive semidefinite by
    construction. It maps to real 2n x 2n tensors in (x, y) through
    dz = [Omega, I] d(x, y). A section with log_mag -inf carries no weight.
    """
    om, k = basis.om, basis.k
    lw = 2.0 * gv.log_mag
    shift = lw.max(axis=0)
    with np.errstate(invalid="ignore"):
        e = np.exp(lw - shift)
        log_fk = shift + np.log(e.sum(axis=0))
    if not np.all(log_fk >= 2.0 * ZERO_FLOOR_LOG):
        raise DegenerateSample("f_k vanishes at a sample point: common zero of the sections")
    p = e / e.sum(axis=0)
    # an exact zero of one section carries no weight; its d log is nan
    d = np.where(p[:, :, None] > 0.0, gv.dlog, 0.0)
    d = d - np.einsum("sm,sma->ma", p, d)[None]
    cov = np.einsum("sm,sma,smb->mab", p, d, d.conj())
    a = np.hstack([om.omega, np.eye(om.n)])
    g = np.einsum("ni,mip,pq->mnq", a.T, cov, np.conj(a)).real / (np.pi * k)
    g = 0.5 * (g + np.swapaxes(g, 1, 2))
    lams = np.linalg.eigvalsh(g)
    # nan-safe; exact zeros are allowed (g_2 vanishes at 2-torsion points)
    if not lams[:, 0].min() >= -1e-12 * lams[:, -1].max():
        raise NonPositive("pulled-back metric is not positive semidefinite")
    return g


def omega_k_field(basis: ThetaBasis, x, y):
    """Pulled-back metric tensors at scattered points, shape (m, 2n, 2n);
    omega_k_metric_field serves the nodes of a quadrature grid."""
    return _metric_field(basis, section_gauge_values(basis, x, y, dlog=True))


def balanced_matrix(basis: ThetaBasis, grid: QuadratureGrid) -> np.ndarray:
    """Embedding mass matrix M_ij = int (s_i, s_j)_h / f against the
    pulled-back volume form."""
    check_grid_resolution(basis, grid)
    gv = grid_gauge_values(basis, grid.m, dlog=True)
    v = gv.complex_values()
    f = np.einsum("im,im->m", v, v.conj()).real
    gk = _metric_field(basis, gv)
    # g_k may vanish at isolated nodes, where det is 0 up to roundoff
    vol = np.sqrt(np.maximum(np.linalg.det(gk), 0.0))
    m = np.einsum("im,jm,m->ij", v, v.conj(), vol / f) / grid.size
    return 0.5 * (m + m.conj().T)


def c0_metric_deviation(om: RiemannMatrix, field: MetricField) -> float:
    """sup over the field's nodes of || g0^{-1/2} (g0 - g) g0^{-1/2} ||_2."""
    g0 = real_metric_tensor(om)
    chol = np.linalg.cholesky(g0)
    inv = np.linalg.inv(chol)
    rel = inv[None, :, :] @ (g0[None, :, :] - field.g) @ inv.T[None, :, :]
    rel = 0.5 * (rel + np.swapaxes(rel, 1, 2))
    return float(np.max(np.abs(np.linalg.eigvalsh(rel))))


def flat_metric_field(om: RiemannMatrix, grid: QuadratureGrid) -> MetricField:
    g0 = real_metric_tensor(om)
    return MetricField(grid=grid, g=np.broadcast_to(g0, (grid.size, 2 * grid.n, 2 * grid.n)))


def omega_k_metric_field(basis: ThetaBasis, grid: QuadratureGrid) -> MetricField:
    check_grid_resolution(basis, grid)
    gv = grid_gauge_values(basis, grid.m, dlog=True)
    return MetricField(grid=grid, g=_metric_field(basis, gv))


def _graph_edges(field: MetricField):
    """Sparse edge list of the periodic one-shell grid graph with
    endpoint-averaged metric edge lengths."""
    grid = field.grid
    dim = 2 * grid.n
    m = grid.m
    shape = (m,) * dim
    node = np.arange(grid.size).reshape(shape)
    rows, cols, vals = [], [], []
    offsets = [o for o in itertools.product((-1, 0, 1), repeat=dim) if any(o)]
    # keep one orientation per undirected edge
    offsets = [o for o in offsets if o > tuple([0] * dim)]
    for o in offsets:
        nb = node
        for ax, step in enumerate(o):
            if step:
                nb = np.roll(nb, -step, axis=ax)
        i = node.ravel()
        j = nb.ravel()
        delta = np.array(o, dtype=float) / m
        gavg = 0.5 * (field.g[i] + field.g[j])
        w = np.sqrt(np.einsum("p,mpq,q->m", delta, gavg, delta))
        rows.append(i)
        cols.append(j)
        vals.append(w)
    return (
        np.concatenate(rows),
        np.concatenate(cols),
        np.concatenate(vals),
    )


def geodesic_distances(field: MetricField, sources) -> np.ndarray:
    """Graph-geodesic distances from source node indices to all nodes."""
    rows, cols, vals = _graph_edges(field)
    n_nodes = field.grid.size
    graph = coo_matrix((vals, (rows, cols)), shape=(n_nodes, n_nodes)).tocsr()
    return dijkstra(graph, directed=False, indices=np.asarray(sources, dtype=int))
