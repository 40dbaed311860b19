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

from .abelian import RiemannMatrix
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
    """A metric on every node of a quadrature grid as Hermitian forms h, shape
    (nodes, n, n), in dz; the flat metric's are h0 = (Im om)^{-1}."""

    grid: QuadratureGrid
    om: RiemannMatrix
    h: np.ndarray


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
    """Pulled-back Fubini-Study metric as Hermitian forms, shape (points, n, n).

    With F = sum_j |Theta_j|^2 and u = sum_j conj(Theta_j) d Theta_j / F,
    h = sum_i (d Theta_i - Theta_i u)(d Theta_i - Theta_i u)^* / (pi k F) is
    (Im om)^{-1} + Hess log f_k / (pi k), positive semidefinite by construction.
    No section is divided out, so an exact zero keeps its term
    |d Theta_i|^2 / (pi k F); the per-point scale of values and grad cancels.
    """
    v, d = gv.values, gv.grad
    total = (np.abs(v) ** 2).sum(axis=0)
    with np.errstate(divide="ignore"):
        log_fk = 2.0 * gv.log_scale + np.log(total)
    if not np.all(log_fk >= 2.0 * ZERO_FLOOR_LOG):
        raise DegenerateSample("f_k vanishes at a sample point: common zero of the sections")
    u = np.einsum("sm,sma->ma", v.conj(), d) / total[:, None]
    c = d - v[:, :, None] * u
    h = np.einsum("sma,smb->mab", c, c.conj()) / (np.pi * basis.k * total[:, None, None])
    h = 0.5 * (h + np.swapaxes(h, 1, 2).conj())
    lams = np.linalg.eigvalsh(h)
    # exact zeros are allowed (g_2 vanishes at 2-torsion points); no points
    # give an empty (0, n, n) field
    if lams.size and not lams[:, 0].min() >= -1e-12 * lams[:, -1].max():
        raise NonPositive("pulled-back metric is not positive semidefinite")
    return h


def omega_k_field(basis: ThetaBasis, x, y):
    """Pulled-back metric at scattered points as Hermitian forms h, shape
    (m, n, n); omega_k_metric_field serves the nodes of a quadrature grid."""
    return _metric_field(basis, section_gauge_values(basis, x, y, grad=True))


def balanced_matrix(basis: ThetaBasis, grid: QuadratureGrid) -> np.ndarray:
    """Embedding mass matrix M_ij = int (s_i, s_j)_h / f against the
    pulled-back volume form."""
    check_grid_resolution(basis, grid)
    gv = grid_gauge_values(basis, grid.m, grad=True)
    v = gv.complex_values()
    f = np.einsum("im,im->m", v, v.conj()).real
    # sqrt det of the real form in (x, y): dz = Omega dx + dy has Jacobian det(Im om)
    vol = np.linalg.det(basis.om.im) * np.abs(np.linalg.det(_metric_field(basis, gv)))
    m = np.einsum("im,jm,m->ij", v, v.conj(), vol / f) / grid.size
    return 0.5 * (m + m.conj().T)


def c0_metric_deviation(field: MetricField) -> float:
    """sup over the field's nodes of || g0^{-1/2} (g0 - g) g0^{-1/2} ||_2: with
    Im om = c t(c), the largest |eigenvalue| of t(c) (h0 - h) c."""
    c = field.om.im_chol
    rel = c.T @ (field.om.im_inv - field.h) @ c
    return float(np.max(np.abs(np.linalg.eigvalsh(rel))))


def omega_k_metric_field(basis: ThetaBasis, grid: QuadratureGrid) -> MetricField:
    check_grid_resolution(basis, grid)
    gv = grid_gauge_values(basis, grid.m, grad=True)
    return MetricField(grid=grid, om=basis.om, h=_metric_field(basis, gv))


def _graph_edges(field: MetricField):
    """Sparse edge list of the periodic one-shell grid graph with endpoint-averaged
    edge lengths sqrt(Re(t(dz) h conj(dz))), dz = Omega dx + dy per step.

    Only geodesic_distances calls this; see there why both stay."""
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
        dz = field.om.omega @ delta[: grid.n] + delta[grid.n :]
        havg = 0.5 * (field.h[i] + field.h[j])
        w = np.sqrt(np.einsum("p,mpq,q->m", dz, havg, dz.conj()).real)
        rows.append(i)
        cols.append(j)
        vals.append(w)
    return (
        np.concatenate(rows),
        np.concatenate(cols),
        np.concatenate(vals),
    )


def _source_indices(sources, nodes: int) -> np.ndarray:
    """sources as a 1-D array of node indices, each an integer in [0, nodes).

    Anything else is refused: SciPy's dijkstra reads -1 as the last node,
    truncates 0.5 to node 0 and returns one more axis for nested sources.
    """
    a = np.asarray(sources)
    integral = a.ndim == 1 and a.size > 0 and a.dtype.kind in "iu"
    if not (integral and 0 <= a.min() and a.max() < nodes):
        raise ConfigError(f"sources must be integer node indices in [0, {nodes}), got {sources!r}")
    return a.astype(int)


def geodesic_distances(field: MetricField, sources) -> np.ndarray:
    """Graph-geodesic distances from source node indices to all nodes.

    No subcommand calls this: the convergence suite bounds GH through the C0
    deviation. It stays only because the benchmark's tracer wraps it by name
    and its self-test checks that every wrapped function exists. The graph
    overestimates flat distances by up to 15 % at Omega = 0.3+1.2i.
    """
    n_nodes = field.grid.size
    indices = _source_indices(sources, n_nodes)
    rows, cols, vals = _graph_edges(field)
    graph = coo_matrix((vals, (rows, cols)), shape=(n_nodes, n_nodes)).tocsr()
    return dijkstra(graph, directed=False, indices=indices)
