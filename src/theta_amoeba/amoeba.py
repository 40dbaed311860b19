"""Moment-map image of the projective embedding.

The embedded torus maps to the simplex by xi_i = |s_i|_h^2 / f_k, a ratio
of gauge magnitudes that never overflows. Distances on the simplex use the
positive-orthant sphere metric scaled by 1/sqrt(pi k); distances on the
sampled image B_k are intrinsic shortest paths on a nearest-neighbor
graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components, dijkstra
from scipy.spatial import cKDTree

from .errors import ConfigError, DisconnectedSample, InvalidPoints
from .metrics import QuadratureGrid, _source_indices, check_grid_resolution
from .theta import (
    ThetaBasis,
    _level,
    _stacked_log_mag_blocks,
    grid_gauge_blocks,
    section_gauge_values,
)

SIMPLEX_CONSTANT = 1.0 / np.sqrt(np.pi)


@dataclass(frozen=True)
class AmoebaSample:
    """Sampled moment-map image; its intrinsic neighbor graph is built on
    first read.

    nodes[p] is the grid node sample point p was taken from, and
    node_sample[g] the sample point grid node g merged into, so
    node_sample[nodes] is arange(size). grid_shape, each axis wrapping
    around, is the shape of the x-major nodes the graph's grid-adjacent
    pairs are read from: (m,) * 2n, or (m / k, m) on a 1/k strip.
    """

    k: int
    xi: np.ndarray
    nodes: np.ndarray
    node_sample: np.ndarray
    grid_shape: tuple

    @property
    def size(self) -> int:
        return self.xi.shape[0]

    @cached_property
    def graph(self):
        """The sample's neighbor graph, a CSR matrix of simplex-distance
        edge lengths, built on first read and kept.

        It joins each sample to its r = 2(2n)+1 nearest neighbors in the
        sphere chord metric, and the images of every pair of grid-adjacent
        nodes (the grid wraps around). A graph of more than one component
        raises DisconnectedSample here, so a caller that reads only the
        image never builds the graph or meets that error.
        """
        xi, m = self.xi, self.size
        if m == 1:
            return coo_matrix((1, 1)).tocsr()
        dim = len(self.grid_shape)
        r = min(2 * dim + 1, m - 1)
        tree = cKDTree(np.sqrt(xi))
        _, nbr = tree.query(np.sqrt(xi), k=r + 1)
        rows = [np.repeat(np.arange(m), r)]
        cols = [nbr[:, 1:].ravel()]
        # add images of grid-adjacent preimage pairs: chords of curves inside
        # the image, guaranteeing connectivity for grid-sourced samples
        node = self.node_sample.reshape(self.grid_shape)
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
        vals = simplex_distances(self.k, xi[rows], xi[cols])
        graph = coo_matrix((vals, (rows, cols)), shape=(m, m)).tocsr()
        n_comp, _ = connected_components(graph, directed=False)
        if n_comp > 1:
            raise DisconnectedSample(
                f"amoeba neighbor graph split into {n_comp} components"
            )
        return graph


def _softmax(blocks):
    """xi from (points, w) blocks of log|s_i|_h, in place: each block's w
    becomes the softmax of 2 w over its sections (axis 0), so the ratio is
    exact even when the individual magnitudes underflow, and no temporary
    of a block's size is made."""
    for pts, w in blocks:
        w *= 2.0
        w -= w.max(axis=0)
        np.exp(w, out=w)
        w /= w.sum(axis=0)
        yield pts, w


def _grid_moment_blocks(basis: ThetaBasis, m: int, box: tuple | None = None):
    """Moment coordinates on the nodes of quadrature_grid(n, m), or of its
    leading box of nodes, by the grid route: (nodes, blocks), where
    blocks yields (nodes, w) for each block of theta.grid_gauge_blocks,
    nodes the slice of its node indices in the box's x-major order and w
    the _softmax of its log_mag, shape (k^n, nodes). The images agree with
    the per-section route's to roundoff, not to the bit."""

    def log_mags():
        start = 0
        for gv in grid_gauge_blocks(basis, m, box=box):
            w = gv.log_mag
            yield slice(start, start + w.shape[1]), w
            start += w.shape[1]

    return math.prod(box or (m,) * (2 * basis.om.n)), _softmax(log_mags())


def moment_points(basis: ThetaBasis, x, y) -> np.ndarray:
    """Moment coordinates for a batch of points, shape (m, k^n): the
    _softmax of section_gauge_values' log|s_i|_h, one lattice sum per point.
    Each xi_i is accurate to roundoff of max_j xi_j, that route's contract:
    within 1e-13 of the per-section route's image (amoeba_sample's) for
    k <= 32 and coordinates in [-0.5, 1.5]. Nothing in the package calls it."""
    _, xi = next(_softmax([(None, section_gauge_values(basis, x, y).log_mag)]))
    return xi.T


def _merged_image(n_sections: int, m: int, blocks):
    """(xi, nodes, node_sample): the images of m points, streamed in
    (points, w) blocks of xi as amoeba_sample and _grid_moment_blocks
    stream them, merged where np.round(xi, 12) is bit-equal, groups
    numbered by first appearance.

    Each point's rounded image is looked up by its raw bytes in a dict of
    the groups so far, which numbers a new group by insertion order; equal
    bytes are equal bits, so -0.0 and 0.0 stay apart. A group's image is
    its first point's, unrounded. Memory: the sample, one bytes key per
    sample point, and one block.
    """
    row = np.dtype((np.void, 8 * n_sections))
    node_sample = np.empty(m, dtype=np.intp)
    xi, nodes = [np.empty((0, n_sections))], [np.empty(0, dtype=np.intp)]
    groups = {}
    for pts, w in blocks:
        size = len(groups)
        keys = np.ascontiguousarray(np.round(w, 12).T).view(row).ravel().tolist()
        group = np.array([groups.setdefault(key, len(groups)) for key in keys], dtype=np.intp)
        # a new group's first node is where the running maximum id rises
        first = np.flatnonzero(np.diff(np.maximum.accumulate(np.append(size - 1, group))))
        xi.append(w.T[first])
        nodes.append(pts.start + first)
        node_sample[pts] = group
    return np.concatenate(xi), np.concatenate(nodes), node_sample


def simplex_distances(k, xi_a, xi_b) -> np.ndarray:
    """Row-wise d = (SIMPLEX_CONSTANT / sqrt(k)) arccos(sum_i sqrt(xi_i eta_i)).

    The arccos of the Bhattacharyya coefficient is the great-circle
    distance between sqrt(xi) and sqrt(eta) on the unit sphere, which is
    the submersion metric on the simplex. A level k that is not a positive
    integer raises NonPositive, and xi_a and xi_b that are not finite,
    nonnegative and of one (m, N) shape raise InvalidPoints.
    """
    k = _level(k)
    xi_a, xi_b = np.asarray(xi_a, dtype=float), np.asarray(xi_b, dtype=float)
    # min is NaN if any entry is, which fails 0 <= min as -inf does
    bounded = [0 <= xi.min() <= xi.max() < np.inf for xi in (xi_a, xi_b) if xi.size]
    if xi_a.ndim != 2 or xi_a.shape != xi_b.shape or not all(bounded):
        raise InvalidPoints("xi_a and xi_b must be finite, nonnegative (m, N) arrays of one shape")
    dots = np.clip(np.einsum("mi,mi->m", np.sqrt(xi_a), np.sqrt(xi_b)), -1.0, 1.0)
    return SIMPLEX_CONSTANT / np.sqrt(k) * np.arccos(dots)


def amoeba_sample(basis: ThetaBasis, grid: QuadratureGrid) -> AmoebaSample:
    """Image of the grid under the moment map, with an r-NN graph built on
    first read (AmoebaSample.graph).

    Nodes whose images are equal after np.round(xi, 12) are merged into
    one sample point, the image of the first such node. This is not a
    1e-12 tolerance: images within 1e-12 whose coordinates round to
    different 12th decimals stay apart. The graph joins each sample to its
    r = 2(2n)+1 nearest neighbors in the sphere chord metric, with
    simplex-distance edge lengths. The grid must match the basis dimension
    and have at least 8k nodes per axis.

    The images are the _softmax of the blocks of the per-section route,
    theta._stacked_log_mag_blocks. Because the merge compares rounded
    bits, the point count depends on that route's last-bit roundoff: at
    Omega = i, k = 32 on 256^2 it gives 292 points where the grid route
    gives the 256 of the 1e-12 clusters. The amoeba subcommand writes this
    sample, and the benchmark pins its counts, so it keeps the route until
    those pins are restated (ROADMAP items 1 and 2 retire it).

    The merge rule is the one over the whole image, but the image streams
    block by block (_merged_image). Memory: the sample (its images, node
    maps and one bytes key per point), one block, and what the route holds
    besides its blocks (its lookup table of the distinct shifted points'
    sums, one slice of those points and the grid's coordinate tables);
    never a (grid.size, k^n) image. The graph, once read, adds its edges
    and the k-d tree it was built from.
    """
    check_grid_resolution(basis, grid)
    m, blocks = _stacked_log_mag_blocks(basis, grid.x, grid.y)
    return _sample(basis, (grid.m,) * (2 * grid.n), m, _softmax(blocks))


def _grid_amoeba_sample(basis: ThetaBasis, grid: QuadratureGrid) -> AmoebaSample:
    """amoeba_sample of one 1/k strip of the grid, x_1 in [0, 1/k), with
    the images from the grid route (_grid_moment_blocks), merged by the
    same np.round(xi, 12) rule. The grid needs k | m, else ConfigError.

    Every |s_i|_h is 1/k-periodic in x, so xi is too, and the strip's
    m^2n / k nodes hold the whole image: its grid_shape
    (m/k,) + (m,) * (2n - 1) wraps the strip's last x-row onto its first,
    as the whole grid's next x-row would. On the 8k grids at Omega = i
    and 0.3+1.2i, k = 4..10, the strip's node map tiled k times along x
    is the whole grid's merge, with the same xi, nodes and graph, except
    where x-translates round apart in the 12th decimal: the whole grid
    holds 581 points against the strip's 576 at Omega = 0.3+1.2i, k = 9,
    and 261 against 256 at Omega = -0.45+0.8i, k = 4.

    Each node's image agrees with amoeba_sample's to roundoff, <= 3.4e-15
    at Omega = 0.3+1.2i, k = 4, 6, 8, 10 (moment_points': <= 1.7e-15), and
    the point counts are the 1e-12 clusters': 256/384/512/640 at that Omega
    on the 8k grids, where amoeba_sample's rounded bits give 256/386/528/640.
    Memory: the sample, one block of grid_gauge_blocks and its step
    buffers and tables; never a (grid.size, k^n) image.
    """
    check_grid_resolution(basis, grid)
    k, m, n = basis.k, grid.m, grid.n
    if m % k:
        raise ConfigError(f"the 1/k strip needs k | m, got m = {m} at level {k}")
    shape = (m // k,) + (m,) * (2 * n - 1)
    return _sample(basis, shape, *_grid_moment_blocks(basis, m, shape))


def _sample(basis: ThetaBasis, grid_shape: tuple, m: int, blocks) -> AmoebaSample:
    """The AmoebaSample of m nodes of grid_shape from their streamed images."""
    xi, nodes, node_sample = _merged_image(basis.n_sections, m, blocks)
    return AmoebaSample(basis.k, xi, nodes, node_sample, grid_shape)


def bk_distances(sample: AmoebaSample, sources, min_only: bool = False) -> np.ndarray:
    """Intrinsic shortest-path distances from sample indices to all
    samples, along sample.graph, which this builds on first use: shape
    (sources, size), or with min_only the distance from the nearest
    source, shape (size,), in one multi-source search."""
    indices = _source_indices(sources, sample.size)
    return dijkstra(sample.graph, directed=False, indices=indices, min_only=min_only)
