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

from .errors import DisconnectedSample
from .metrics import QuadratureGrid, _source_indices, check_grid_resolution
from .theta import ThetaBasis, _stacked_log_mag, _unique_rows

SIMPLEX_CONSTANT = 1.0 / np.sqrt(np.pi)


@dataclass(frozen=True)
class AmoebaSample:
    """Sampled moment-map image with its intrinsic neighbor graph.

    nodes[p] is the grid node sample point p was taken from, and
    node_sample[g] the sample point grid node g merged into, so
    node_sample[nodes] is arange(size).
    """

    k: int
    xi: np.ndarray
    nodes: np.ndarray
    node_sample: np.ndarray
    graph: object

    @property
    def size(self) -> int:
        return self.xi.shape[0]


def moment_points(basis: ThetaBasis, x, y) -> np.ndarray:
    """Moment coordinates for a batch of points, shape (m, k^n).

    Computed as a softmax of 2 log|s_i|_h, so the ratio is exact even when
    the individual magnitudes underflow. Evaluated one lattice sum per
    section (see theta._stacked_log_mag), whose roundoff the amoeba
    sample's point count depends on. Each distinct shifted point z - b_i
    is summed once; the groups come from per-coordinate tables of Im z and
    of the differences Re z - j / k, indexed without a sort, never from the
    k^n m shifted rows themselves. They are the groups of
    bitwise-equal rows, and the distinct points are formed by the same
    subtraction and summed in the same order, so every xi is bit for bit
    that of summing every shifted point.
    """
    # in place: the (k^n, m) softmax holds no temporaries of its size
    w = _stacked_log_mag(basis, x, y)
    w *= 2.0
    w -= w.max(axis=0)
    np.exp(w, out=w)
    w /= w.sum(axis=0)
    return w.T


def simplex_distances(k, xi_a, xi_b) -> np.ndarray:
    """Row-wise d = (SIMPLEX_CONSTANT / sqrt(k)) arccos(sum_i sqrt(xi_i eta_i)).

    The arccos of the Bhattacharyya coefficient is the great-circle
    distance between sqrt(xi) and sqrt(eta) on the unit sphere, which is
    the submersion metric on the simplex.
    """
    dots = np.clip(np.einsum("mi,mi->m", np.sqrt(xi_a), np.sqrt(xi_b)), -1.0, 1.0)
    return SIMPLEX_CONSTANT / np.sqrt(k) * np.arccos(dots)


def amoeba_sample(basis: ThetaBasis, grid: QuadratureGrid) -> AmoebaSample:
    """Image of the grid under the moment map with an r-NN graph.

    Nodes whose images are equal after np.round(xi, 12) are merged into
    one sample point, the image of the first such node. This is not a
    1e-12 tolerance: images within 1e-12 whose coordinates round to
    different 12th decimals stay apart. The graph joins each sample to its
    r = 2(2n)+1 nearest neighbors in the sphere chord metric, with
    simplex-distance edge lengths. The grid must match the basis dimension
    and have at least 8k nodes per axis.
    """
    check_grid_resolution(basis, grid)
    xi_all = moment_points(basis, grid.x, grid.y)
    nodes, node_sample = _unique_rows(np.round(xi_all, 12))
    xi = xi_all[nodes]

    m = xi.shape[0]
    if m == 1:
        graph = coo_matrix((1, 1)).tocsr()
        return AmoebaSample(basis.k, xi, nodes, node_sample, graph)
    r = 2 * (2 * basis.om.n) + 1
    r = min(r, m - 1)
    tree = cKDTree(np.sqrt(xi))
    _, nbr = tree.query(np.sqrt(xi), k=r + 1)
    rows = [np.repeat(np.arange(m), r)]
    cols = [nbr[:, 1:].ravel()]
    # add images of grid-adjacent preimage pairs: chords of curves inside
    # the image, guaranteeing connectivity for grid-sourced samples
    dim = 2 * grid.n
    node = node_sample.reshape((grid.m,) * dim)
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
    vals = simplex_distances(basis.k, xi[rows], xi[cols])
    graph = coo_matrix((vals, (rows, cols)), shape=(m, m)).tocsr()
    n_comp, _ = connected_components(graph, directed=False)
    if n_comp > 1:
        raise DisconnectedSample(
            f"amoeba neighbor graph split into {n_comp} components"
        )
    return AmoebaSample(basis.k, xi, nodes, node_sample, graph)


def bk_distances(sample: AmoebaSample, sources) -> np.ndarray:
    """Intrinsic shortest-path distances from sample indices to all samples."""
    indices = _source_indices(sources, sample.size)
    return dijkstra(sample.graph, directed=False, indices=indices)
