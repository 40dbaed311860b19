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

from .errors import DisconnectedSample, InvalidPoints
from .metrics import QuadratureGrid, _source_indices, check_grid_resolution
from .theta import ThetaBasis, _level, _stacked_log_mag_blocks, _unique_rows

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


def _moment_blocks(basis: ThetaBasis, x, y):
    """Moment coordinates in blocks of points: (m, blocks), where blocks
    yields (points, w) over theta._point_blocks' slices, in order, and w is
    the C-ordered (k^n, points) array of xi for those points.

    Computed as a softmax of 2 log|s_i|_h over each block's sections, so
    the ratio is exact even when the individual magnitudes underflow. A
    block holds every section of at least two points (or the one point),
    and numpy reduces its sections in the order it reduces the whole
    (k^n, m) array's, so each xi has the same bits on any block split.
    """
    m, blocks = _stacked_log_mag_blocks(basis, x, y)

    def softmax():
        for pts, w in blocks:
            # in place: a block's softmax holds no temporaries of its size
            w *= 2.0
            w -= w.max(axis=0)
            np.exp(w, out=w)
            w /= w.sum(axis=0)
            yield pts, w

    return m, softmax()


def moment_points(basis: ThetaBasis, x, y) -> np.ndarray:
    """Moment coordinates for a batch of points, shape (m, k^n).

    The blocks of _moment_blocks joined, as a softmax of 2 log|s_i|_h.
    Evaluated one lattice sum per section (see theta._stacked_log_mag_blocks),
    whose roundoff the amoeba sample's point count depends on. Each
    distinct shifted point z - b_i is summed once: the repeats are found
    by integer keys built from per-coordinate tables of Im z and of the
    differences Re z - j / k, in blocks of at most theta._CHUNK_TERMS
    (section, point) pairs, never from the k^n m shifted rows themselves.
    Equal keys mean bit-equal points, and the distinct points are rebuilt
    with the bits of the subtraction, so every xi is bit for bit that of
    summing every shifted point. theta._theta_sums sums them in runs on
    theta.THREADS threads, each over its own rows; a row's sum does not
    depend on which run or chunk takes it, so xi is the same bits on any
    thread count and budget.

    Memory: the (k^n, m) result, returned transposed, plus one block and
    what the lattice-sum route holds besides its blocks: arrays over the
    distinct shifted points and over the m points' coordinate tables.
    amoeba_sample does not call this, and holds no (k^n, m) array.
    """
    m, blocks = _moment_blocks(basis, x, y)
    out = np.empty((basis.n_sections, m))
    for pts, w in blocks:
        out[:, pts] = w
    return out.T


def _block_keys(rounded: np.ndarray) -> np.ndarray:
    """One 64-bit key per point of a rounded (k^n, points) block: bit-equal
    columns get equal keys, and unequal ones collide rarely. Section i's
    bits are multiplied by its own odd constant, a bijection that mixes low
    bits upward, and the sections are folded by xor, whose result takes no
    order; so images whose sections are permuted, as the Heisenberg shifts
    permute them, do not share a key by that alone."""
    odd = np.arange(1, 2 * rounded.shape[0], 2, dtype=np.uint64)[:, None]
    key = rounded.view(np.uint64) * (odd * np.uint64(0x9E3779B97F4A7C15))
    return np.bitwise_xor.reduce(key, axis=0)


def _merged_image(basis: ThetaBasis, x, y):
    """(xi, nodes, node_sample): the moment map's images merged where
    np.round(xi, 12) is bit-equal, groups numbered by first appearance.

    The images stream in _moment_blocks' blocks. Each block's rounded
    columns get _block_keys; a node whose key the sorted keys of the
    groups so far lack opens a group with the block's other nodes of that
    key, and the group's image is its first node's. Every node's rounded
    image is checked against its group's first; on any key collision the
    whole image is grouped by its rounded rows instead. Memory: the
    sample, its rounded images and one block.
    """
    m, blocks = _moment_blocks(basis, x, y)
    node_sample = np.empty(m, dtype=np.intp)
    xi, nodes = [np.empty((0, basis.n_sections))], [np.empty(0, dtype=np.intp)]
    # the groups' first rounded images, in room that doubles as it fills
    rounded_xi, size = np.empty((0, basis.n_sections)), 0
    keys, key_group = np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.intp)
    for pts, w in blocks:
        rounded = np.round(w, 12)
        key = _block_keys(rounded)
        at = np.searchsorted(keys, key)
        old = at < keys.size
        old[old] = keys[at[old]] == key[old]
        group = np.empty(key.size, dtype=np.intp)
        group[old] = key_group[at[old]]
        new = np.flatnonzero(~old)
        if new.size:
            first, inverse = _unique_rows(key[new][:, None])
            group[new] = size + inverse
            first = new[first]
            xi.append(w.T[first])
            nodes.append(pts.start + first)
            if size + first.size > len(rounded_xi):
                grown = np.empty((2 * (size + first.size), basis.n_sections))
                grown[:size] = rounded_xi[:size]
                rounded_xi = grown
            rounded_xi[size:size + first.size] = rounded.T[first]
            order = np.argsort(key[first])
            where = np.searchsorted(keys, key[first][order])
            keys = np.insert(keys, where, key[first][order])
            key_group = np.insert(key_group, where, size + order)
            size += first.size
        node_sample[pts] = group
        if not np.array_equal(rounded_xi[group].view(np.int64), rounded.T.view(np.int64)):
            xi_all = moment_points(basis, x, y)
            first, inverse = _unique_rows(np.round(xi_all, 12))
            return xi_all[first], first, inverse
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
    """Image of the grid under the moment map with an r-NN graph.

    Nodes whose images are equal after np.round(xi, 12) are merged into
    one sample point, the image of the first such node. This is not a
    1e-12 tolerance: images within 1e-12 whose coordinates round to
    different 12th decimals stay apart. The graph joins each sample to its
    r = 2(2n)+1 nearest neighbors in the sphere chord metric, with
    simplex-distance edge lengths. The grid must match the basis dimension
    and have at least 8k nodes per axis.

    The merge rule is the one over the whole image, but the image streams
    block by block (_merged_image). Memory: the sample (its images and
    node maps), one block of _moment_blocks, and what the lattice-sum
    route holds besides its blocks (arrays over the distinct shifted
    points and the grid's coordinate tables); no (grid.size, k^n) image,
    unless a key collision sends the merge to its exact fallback.
    """
    check_grid_resolution(basis, grid)
    xi, nodes, node_sample = _merged_image(basis, grid.x, grid.y)

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
