"""Moment-map image of the projective embedding.

The embedded torus maps to the simplex by xi_i = |s_i|_h^2 / f_k, a ratio
of gauge magnitudes that never overflows. Distances on the simplex use the
positive-orthant sphere metric scaled by 1/sqrt(pi k); distances on the
sampled image B_k are intrinsic shortest paths on a nearest-neighbor
graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components, dijkstra
from scipy.spatial import cKDTree

from .errors import DisconnectedSample, MixedLevels
from .metrics import QuadratureGrid, check_grid_resolution
from .theta import ThetaBasis, _stacked_log_mag, _unique_rows

SIMPLEX_CONSTANT = 1.0 / np.sqrt(np.pi)


@dataclass(frozen=True)
class SimplexPoint:
    """Nonnegative moment coordinates summing to one."""

    k: int
    xi: np.ndarray

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=float)
        if np.any(xi < 0.0):
            raise ValueError("moment coordinates must be nonnegative")
        object.__setattr__(self, "xi", xi / xi.sum())


@dataclass(frozen=True)
class AmoebaSample:
    """Sampled moment-map image with its intrinsic neighbor graph."""

    k: int
    xi: np.ndarray
    pre_x: np.ndarray
    pre_y: np.ndarray
    graph: object

    @property
    def size(self) -> int:
        return self.xi.shape[0]

    def point(self, i: int) -> SimplexPoint:
        return SimplexPoint(k=self.k, xi=self.xi[i])


def moment_points(basis: ThetaBasis, x, y) -> np.ndarray:
    """Moment coordinates for a batch of points, shape (m, k^n).

    Computed as a softmax of 2 log|s_i|_h, so the ratio is exact even when
    the individual magnitudes underflow. Evaluated one lattice sum per
    section (see theta._stacked_log_mag), whose roundoff the amoeba
    sample's point count depends on; each distinct shifted point z - b_i
    is summed once, with the values of summing every one bit for bit.
    """
    lm = 2.0 * _stacked_log_mag(basis, x, y)
    lm = lm - lm.max(axis=0, keepdims=True)
    w = np.exp(lm)
    return (w / w.sum(axis=0, keepdims=True)).T


def moment_point(basis: ThetaBasis, x, y) -> SimplexPoint:
    return SimplexPoint(k=basis.k, xi=moment_points(basis, x, y)[0])


def phi_k(basis: ThetaBasis, y) -> SimplexPoint:
    """Restriction of the moment map to the zero section x = 0."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    return moment_point(basis, np.zeros_like(y), y)


def simplex_distance(p: SimplexPoint, q: SimplexPoint) -> float:
    """d = (SIMPLEX_CONSTANT / sqrt(k)) arccos(sum_i sqrt(xi_i eta_i)).

    The arccos of the Bhattacharyya coefficient is the great-circle
    distance between sqrt(xi) and sqrt(eta) on the unit sphere, which is
    the submersion metric on the simplex.
    """
    if p.k != q.k:
        raise MixedLevels(f"simplex points at levels {p.k} and {q.k}")
    dot = np.clip(np.sqrt(p.xi * q.xi).sum(), -1.0, 1.0)
    return SIMPLEX_CONSTANT / np.sqrt(p.k) * float(np.arccos(dot))


def _simplex_distance_rows(k, xi_a, xi_b) -> np.ndarray:
    dots = np.clip(np.einsum("mi,mi->m", np.sqrt(xi_a), np.sqrt(xi_b)), -1.0, 1.0)
    return SIMPLEX_CONSTANT / np.sqrt(k) * np.arccos(dots)


def amoeba_sample(basis: ThetaBasis, grid: QuadratureGrid) -> AmoebaSample:
    """Image of the grid under the moment map with an r-NN graph.

    Duplicate images (coordinates agreeing to 1e-12) are merged; the graph
    joins each sample to its r = 2(2n)+1 nearest neighbors in the sphere
    chord metric, with simplex-distance edge lengths. The grid must match
    the basis dimension and have at least 8k nodes per axis.
    """
    check_grid_resolution(basis, grid)
    xi_all = moment_points(basis, grid.x, grid.y)
    keep, rep = _unique_rows(np.round(xi_all, 12))
    xi = xi_all[keep]
    pre_x = grid.x[keep]
    pre_y = grid.y[keep]

    m = xi.shape[0]
    if m == 1:
        graph = coo_matrix((1, 1)).tocsr()
        return AmoebaSample(basis.k, xi, pre_x, pre_y, graph)
    r = 2 * (2 * basis.om.n) + 1
    r = min(r, m - 1)
    tree = cKDTree(np.sqrt(xi))
    _, nbr = tree.query(np.sqrt(xi), k=r + 1)
    rows = [np.repeat(np.arange(m), r)]
    cols = [nbr[:, 1:].ravel()]
    # add images of grid-adjacent preimage pairs: chords of curves inside
    # the image, guaranteeing connectivity for grid-sourced samples
    dim = 2 * grid.n
    node = rep.reshape((grid.m,) * dim)
    for ax in range(dim):
        a = node.ravel()
        b = np.roll(node, -1, axis=ax).ravel()
        mask = a != b
        rows.append(a[mask])
        cols.append(b[mask])
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    lo, hi = np.minimum(rows, cols), np.maximum(rows, cols)
    # lo * m + hi sorts as the pair (lo, hi) does, since hi < m
    rows, cols = np.divmod(np.unique(lo * m + hi), m)
    vals = _simplex_distance_rows(basis.k, xi[rows], xi[cols])
    graph = coo_matrix((vals, (rows, cols)), shape=(m, m)).tocsr()
    n_comp, _ = connected_components(graph, directed=False)
    if n_comp > 1:
        raise DisconnectedSample(
            f"amoeba neighbor graph split into {n_comp} components"
        )
    return AmoebaSample(basis.k, xi, pre_x, pre_y, graph)


def nearest_sample_index(sample: AmoebaSample, p: SimplexPoint) -> int:
    d = _simplex_distance_rows(sample.k, sample.xi, np.broadcast_to(p.xi, sample.xi.shape))
    return int(np.argmin(d))


def bk_distances(sample: AmoebaSample, sources) -> np.ndarray:
    """Intrinsic shortest-path distances from sample indices to all samples."""
    return dijkstra(
        sample.graph, directed=False, indices=np.asarray(sources, dtype=int)
    )
