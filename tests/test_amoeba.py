import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.spatial import cKDTree

from theta_amoeba import ConfigError, DisconnectedSample, InvalidPoints, NonPositive, amoeba, theta
from theta_amoeba.abelian import validate_riemann_matrix
from theta_amoeba.amoeba import (
    amoeba_sample,
    bk_distances,
    moment_points,
    simplex_distances,
)
from theta_amoeba.metrics import quadrature_grid
from theta_amoeba.theta import _unique_rows, theta_basis

from oracles import joined, per_section_image

SQUARE = validate_riemann_matrix([[1j]])
GENERIC = validate_riemann_matrix([[0.3 + 1.2j]])
COUPLED = validate_riemann_matrix([[0.1 + 1.0j, 0.25 + 0.2j], [0.25 + 0.2j, -0.2 + 1.3j]])
RNG = np.random.default_rng(23)


def random_simplex(n_coords, rng):
    """One random point of the simplex, as a (1, n_coords) row."""
    xi = rng.uniform(0.0, 1.0, size=(1, n_coords))
    return xi / xi.sum()


def simplex_distance(k, xi, eta) -> float:
    return float(simplex_distances(k, xi, eta)[0])


def test_moment_coordinates_normalized():
    basis = theta_basis(SQUARE, 4)
    xi = moment_points(basis, RNG.uniform(size=(10, 1)), RNG.uniform(size=(10, 1)))
    assert np.allclose(xi.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(xi >= 0.0)


@pytest.mark.parametrize(
    "om, ks",
    [(SQUARE, (1, 2, 3, 5, 8, 16, 32)), (GENERIC, (1, 2, 3, 5, 8, 16, 32)), (COUPLED, (1, 2, 3, 4))],
    ids=["square", "generic", "coupled"],
)
def test_moment_points_match_the_per_section_image(om, ks):
    # one lattice sum per point against one per section, at unreduced
    # points: section_gauge_values' contract, 1e-13 (1.04e-14 measured);
    # no points give an empty (0, k^n) image
    for k in ks:
        basis = theta_basis(om, k)
        x, y = np.random.default_rng(k).uniform(-0.5, 1.5, size=(2, 500, om.n))
        xi = moment_points(basis, x, y)
        assert xi.shape == (500, basis.n_sections)
        assert np.max(np.abs(xi - per_section_image(basis, x, y))) <= 1e-13
        assert moment_points(basis, x[:0], y[:0]).shape == (0, basis.n_sections)


def test_moment_invariant_under_fiber_torsion():
    # translating x by alpha/k permutes section magnitudes only by phases
    basis = theta_basis(SQUARE, 5)
    x = np.array([[0.17]])
    y = np.array([[0.43]])
    a = moment_points(basis, x, y)
    b = moment_points(basis, x + 1.0 / 5.0, y)
    assert np.max(np.abs(a - b)) < 1e-10


def test_moment_peak_section_at_its_base_point():
    basis = theta_basis(SQUARE, 8)
    for i in range(8):
        xi = moment_points(basis, [[0.0]], [[i / 8.0]])[0]
        assert int(np.argmax(xi)) == i


def test_moment_concentration_at_nearest_base_point():
    basis = theta_basis(SQUARE, 8)
    for y in np.linspace(0.0, 1.0, 40, endpoint=False):
        xi = moment_points(basis, [[0.0]], [[y]])[0]
        nearest = int(np.round(y * 8)) % 8
        assert int(np.argmax(xi)) == nearest


def test_simplex_distance_coincident_points():
    p = random_simplex(4, RNG)
    assert simplex_distance(4, p, p) == pytest.approx(0.0, abs=1e-12)


def test_simplex_distance_between_vertices():
    k = 4
    e1 = np.array([[1.0, 0.0, 0.0, 0.0]])
    e2 = np.array([[0.0, 1.0, 0.0, 0.0]])
    assert simplex_distance(k, e1, e2) == pytest.approx(
        np.pi / (2.0 * np.sqrt(np.pi * k)), rel=1e-14
    )


def test_simplex_distance_matches_great_circle_oracle():
    k = 3
    p = RNG.uniform(size=(10, 3))
    q = RNG.uniform(size=(10, 3))
    p /= p.sum(axis=1, keepdims=True)
    q /= q.sum(axis=1, keepdims=True)
    # oracle: arc length between unit vectors sqrt(xi) on the sphere
    u, v = np.sqrt(p), np.sqrt(q)
    arc = np.arctan2(np.linalg.norm(np.cross(u, v), axis=1), (u * v).sum(axis=1))
    assert np.allclose(simplex_distances(k, p, q), arc / np.sqrt(np.pi * k), rtol=1e-9, atol=0.0)


@pytest.mark.parametrize(
    "bad",
    [
        pytest.param(lambda p, q: (np.where([[True, False, False]], np.nan, p), q), id="nan"),
        pytest.param(lambda p, q: (p, np.where([[False, True, False]], -0.25, q)), id="negative"),
        pytest.param(lambda p, q: (np.where([[False, False, True]], np.inf, p), q), id="inf"),
        pytest.param(lambda p, q: (np.vstack([p, p]), q), id="rows-differ"),
        pytest.param(lambda p, q: (p, q[:, :2]), id="columns-differ"),
        pytest.param(lambda p, q: (p[0], q[0]), id="flat"),
    ],
)
def test_simplex_distance_refuses_bad_moment_coordinates(bad):
    # a NaN or negative entry gave a NaN distance
    p, q = random_simplex(3, RNG), random_simplex(3, RNG)
    with pytest.raises(InvalidPoints):
        simplex_distances(2, *bad(p, q))


@pytest.mark.parametrize("k", [0, -1, 2.5, True, np.nan])
def test_simplex_distance_refuses_bad_levels(k):
    # k = 0 gave inf and k = -1 NaN
    p, q = random_simplex(3, RNG), random_simplex(3, RNG)
    with pytest.raises(NonPositive):
        simplex_distances(k, p, q)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_simplex_distance_metric_axioms(seed):
    rng = np.random.default_rng(seed)
    k = 4
    a, b, c = (random_simplex(5, rng) for _ in range(3))
    dab = simplex_distance(k, a, b)
    assert dab == pytest.approx(simplex_distance(k, b, a), abs=1e-12)
    assert dab <= simplex_distance(k, a, c) + simplex_distance(k, c, b) + 1e-12


def test_level_one_image_is_a_point():
    basis = theta_basis(SQUARE, 1)
    sample = amoeba_sample(basis, quadrature_grid(1, 16))
    assert sample.size == 1
    assert sample.xi[0, 0] == pytest.approx(1.0)


def test_sample_size_at_benchmark_grid():
    # the point count depends on last-bit roundoff of xi, merged at 12 digits
    sample = amoeba_sample(theta_basis(SQUARE, 16), quadrature_grid(1, 256))
    assert sample.size == 2304


def test_sample_memory_at_level_32():
    # the benchmark's largest level; with 4 000 000-term lattice chunks and
    # one sort of packed keys over the 2 097 152 shifted rows it peaked at
    # 122 MB, cache-sized chunks and the first-row table brought it to 70 MB,
    # merging by per-row keys, without a rounded copy, to the moment map's
    # own 54 MB, and blocked key passes to 21 MiB; streaming the image block
    # by block took it to 11.5 MiB, below the (65 536 x 32) image it no
    # longer holds, and summing the distinct shifted points in slices, with
    # no graph until one is read, to 6.0 MiB
    basis, grid = theta_basis(SQUARE, 32), quadrature_grid(1, 256)
    tracemalloc.start()
    try:
        amoeba_sample(basis, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20 < grid.size * basis.n_sections * 8


def test_sample_size_bounded_by_grid():
    basis = theta_basis(SQUARE, 4)
    grid = quadrature_grid(1, 32)
    sample = amoeba_sample(basis, grid)
    assert 1 < sample.size <= grid.size


def test_sample_stays_off_vertices():
    basis = theta_basis(SQUARE, 4)
    sample = amoeba_sample(basis, quadrature_grid(1, 32))
    assert np.max(sample.xi) < 1.0


def test_bk_distance_identity_and_lower_bound():
    basis = theta_basis(SQUARE, 4)
    sample = amoeba_sample(basis, quadrature_grid(1, 32))
    assert bk_distances(sample, [3])[0, 3] == 0.0
    i, j = 0, sample.size // 2
    chord = simplex_distance(4, sample.xi[[i]], sample.xi[[j]])
    assert bk_distances(sample, [i])[0, j] >= chord - 1e-12


@pytest.mark.parametrize(
    "sources",
    [[-1], [0.5], [[0]], "points", [], [True], ["0"], 0],
    ids=["negative", "fraction", "nested", "past-end", "empty", "bool", "string", "scalar"],
)
def test_bk_distances_refuse_bad_sources(sources):
    sample = amoeba_sample(theta_basis(SQUARE, 4), quadrature_grid(1, 32))
    with pytest.raises(ConfigError):
        bk_distances(sample, [sample.size] if sources == "points" else sources)
    assert bk_distances(sample, np.array([sample.size - 1]))[0, sample.size - 1] == 0.0


@pytest.mark.parametrize(
    "flags",
    [
        {"limit": np.nan},
        {"limit": -1e-300},
        {"limit": -np.inf},
        {"limit": "1"},
        {"limit": True},
        {"min_only": "yes"},
        {"min_only": 1},
        {"min_only": None},
    ],
    ids=["nan", "negative", "minus-inf", "string", "bool", "yes", "one", "none"],
)
def test_bk_distances_refuse_bad_flags(flags):
    sample = amoeba_sample(theta_basis(SQUARE, 4), quadrature_grid(1, 32))
    with pytest.raises(ConfigError):
        bk_distances(sample, [0], **flags)


def test_bk_distances_stop_at_the_limit():
    # a sample at most limit away keeps its unbounded distance, to the
    # bit; SciPy's limit is inclusive, so one exactly at limit is kept;
    # every sample farther away reads inf
    sample = amoeba_sample(theta_basis(SQUARE, 4), quadrature_grid(1, 32))
    full = bk_distances(sample, [0, 5])
    limit = np.sort(full, axis=None)[full.size // 2]
    bounded = bk_distances(sample, [0, 5], limit=limit)
    near = full <= limit
    assert np.any(full == limit) and 0 < np.count_nonzero(near) < full.size
    assert np.array_equal(bounded[near], full[near]) and np.all(np.isinf(bounded[~near]))
    assert np.array_equal(bk_distances(sample, [0, 5], limit=0.0), np.where(full == 0.0, 0.0, np.inf))
    nearest = bk_distances(sample, [0, 5], min_only=np.True_, limit=np.float64(limit))
    assert np.array_equal(nearest, np.where(full.min(axis=0) <= limit, full.min(axis=0), np.inf))


def test_graph_connects_whole_sample():
    basis = theta_basis(SQUARE, 8)
    sample = amoeba_sample(basis, quadrature_grid(1, 64))
    d = bk_distances(sample, [0])
    assert np.all(np.isfinite(d))


def eager_graph(basis, grid, sample):
    """Oracle: the r-NN graph as amoeba_sample built it up front, before
    the graph was built on first read."""
    xi, m = sample.xi, sample.size
    r = min(2 * (2 * basis.om.n) + 1, m - 1)
    _, nbr = cKDTree(np.sqrt(xi)).query(np.sqrt(xi), k=r + 1)
    rows, cols = [np.repeat(np.arange(m), r)], [nbr[:, 1:].ravel()]
    node = sample.node_sample.reshape((grid.m,) * (2 * grid.n))
    for ax in range(2 * grid.n):
        a, b = node.ravel(), np.roll(node, -1, axis=ax).ravel()
        rows.append(a[a != b])
        cols.append(b[a != b])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    rows, cols = np.divmod(np.unique(np.minimum(rows, cols) * m + np.maximum(rows, cols)), m)
    vals = simplex_distances(basis.k, xi[rows], xi[cols])
    return coo_matrix((vals, (rows, cols)), shape=(m, m)).tocsr()


@pytest.mark.parametrize(
    "om, k, m",
    [(SQUARE, 4, 32), (GENERIC, 5, 40), (COUPLED, 2, 16)],
    ids=["square-4", "generic-5", "coupled-2"],
)
def test_graph_is_built_once_on_first_read(monkeypatch, om, k, m):
    # amoeba_sample builds no k-d tree; the first read of .graph builds
    # one, and later reads return the same graph, whose CSR parts are those
    # of the graph amoeba_sample used to build up front
    basis, grid = theta_basis(om, k), quadrature_grid(om.n, m)
    trees = []

    def counting(points):
        trees.append(len(points))
        return cKDTree(points)

    monkeypatch.setattr(amoeba, "cKDTree", counting)
    sample = amoeba_sample(basis, grid)
    assert trees == []
    graph = sample.graph
    assert sample.graph is graph and trees == [sample.size]
    want = eager_graph(basis, grid, sample)
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(graph, part), getattr(want, part))


def test_disconnected_graph_raises_where_it_is_read(monkeypatch):
    # a graph in two components: amoeba_sample returns the image, and the
    # graph's readers meet the typed error, each time they read it
    monkeypatch.setattr(amoeba, "connected_components", lambda graph, directed: (2, None))
    sample = amoeba_sample(theta_basis(SQUARE, 4), quadrature_grid(1, 32))
    assert sample.size > 1
    for read in (lambda: sample.graph, lambda: bk_distances(sample, [0])):
        with pytest.raises(DisconnectedSample, match="2 components"):
            read()


def test_covering_by_base_image_shrinks():
    # every sampled point lies close to the zero-section image, closer at
    # higher level
    radii = []
    for k in (4, 8):
        basis = theta_basis(SQUARE, k)
        sample = amoeba_sample(basis, quadrature_grid(1, 8 * k))
        d = bk_distances(sample, sample.node_sample[: 8 * k])
        radii.append(d.min(axis=0).max())
    assert radii[1] < radii[0]


def test_sample_rejects_grid_of_other_dimension():
    basis = theta_basis(SQUARE, 2)
    with pytest.raises(ConfigError, match="dimension"):
        amoeba_sample(basis, quadrature_grid(2, 16))


def test_sample_rejects_grid_below_eight_k():
    basis = theta_basis(SQUARE, 4)
    with pytest.raises(ConfigError, match="too coarse"):
        amoeba_sample(basis, quadrature_grid(1, 8))


def nearest_sample_oracle(sample, xi):
    """Brute nearest sample point to each row of xi, by the arccos of the
    Bhattacharyya coefficient."""
    dots = np.clip(np.sqrt(xi) @ np.sqrt(sample.xi).T, -1.0, 1.0)
    return np.argmin(np.arccos(dots), axis=1)


@pytest.mark.parametrize("om", [SQUARE, GENERIC], ids=["square", "generic"])
@pytest.mark.parametrize("k", [3, 4, 8])
def test_node_map_inverts_and_matches_nearest_sample(om, k):
    basis = theta_basis(om, k)
    grid = quadrature_grid(1, 8 * k)
    sample = amoeba_sample(basis, grid)
    assert np.array_equal(sample.node_sample[sample.nodes], np.arange(sample.size))
    xi_all = moment_points(basis, grid.x, grid.y)
    assert np.max(np.abs(xi_all - sample.xi[sample.node_sample])) <= 1e-12
    # the zero section x = 0 is the grid's first row of 8k nodes
    zero = np.arange(8 * k)
    assert np.array_equal(grid.x[zero], np.zeros((8 * k, 1)))
    phi = moment_points(basis, np.zeros((8 * k, 1)), grid.y[zero])
    assert np.array_equal(
        nearest_sample_oracle(sample, phi), sample.node_sample[: 8 * k]
    )


@pytest.mark.parametrize("om, k", [(SQUARE, 8), (GENERIC, 5)], ids=["square-8", "generic-5"])
def test_sample_is_the_same_on_any_thread_count(monkeypatch, om, k):
    # slices of 12 J distinct shifted points (J lattice terms a point) in
    # chunks of 12 / threads rows, so 2 and 3 threads split each slice into
    # runs, the last slice's of unequal length
    basis, grid = theta_basis(om, k), quadrature_grid(1, 8 * k + 2)
    monkeypatch.setattr(theta, "_CHUNK_TERMS", 12 * len(theta._offsets((om.omega / k).imag)))
    samples = []
    for threads in (1, 2, 3):
        monkeypatch.setattr(theta, "THREADS", threads)
        samples.append(amoeba_sample(basis, grid))
    for sample in samples[1:]:
        assert np.array_equal(sample.xi, samples[0].xi)
        assert np.array_equal(sample.nodes, samples[0].nodes)
        assert np.array_equal(sample.node_sample, samples[0].node_sample)


def rounded_groups(xi):
    """Oracle of the merge rule: the rows of a whole (m, k^n) image
    grouped by the bits of their rounded values, as (xi, nodes,
    node_sample)."""
    first, inverse = _unique_rows(np.round(xi, 12))
    return xi[first], first, inverse


def whole_image_groups(n_sections, m, blocks):
    """Oracle of amoeba._merged_image: the streamed blocks joined into the
    whole (m, k^n) image, then grouped at once."""
    return rounded_groups(joined(n_sections, m, blocks).T)


@pytest.mark.parametrize("empty", [False, True], ids=["built", "empty"])
def test_merge_groups_rounded_images_by_their_bits(empty):
    # rows fed to the merge two points a block: equal to 12 digits, a hair
    # on either side of a rounding boundary, -0.0 next to 0.0 (different
    # bits, so different points), and groups that reappear in later blocks
    rows = np.array(
        [
            [0.25, 0.75],
            [0.25 + 1e-14, 0.75 - 1e-14],
            [0.1234567890125 + 1e-15, 0.5],
            [0.1234567890125 - 1e-15, 0.5],
            [0.0, 0.5],
            [-0.0, 0.5],
            [-1e-14, 0.5],
            [0.25 - 1e-14, 0.75 + 1e-14],
        ]
    )
    if empty:
        rows = rows[:0]

    blocks = ((slice(i, i + 2), rows[i : i + 2].T.copy()) for i in range(0, len(rows), 2))
    xi, nodes, node_sample = amoeba._merged_image(2, len(rows), blocks)
    want = [0, 0, 1, 2, 3, 4, 4, 0][: len(rows)]
    assert np.array_equal(node_sample, want) and node_sample.dtype == np.intp
    assert np.array_equal(nodes, [0, 2, 3, 4, 5][: len(rows)])
    assert xi.shape == (len(nodes), 2)
    assert np.array_equal(xi.view(np.int64), rows[nodes].view(np.int64))
    first, inverse = _unique_rows(np.round(rows, 12))
    assert np.array_equal(nodes, first) and np.array_equal(node_sample, inverse)


def assert_same_sample(got, want):
    assert np.array_equal(got.xi, want.xi)
    assert np.array_equal(got.nodes, want.nodes)
    assert np.array_equal(got.node_sample, want.node_sample)
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got.graph, part), getattr(want.graph, part))


@pytest.mark.parametrize(
    "om, k, m",
    [(SQUARE, 8, 64), (GENERIC, 5, 42), (COUPLED, 2, 16)],
    ids=["square-8", "generic-5", "coupled-2"],
)
def test_streamed_sample_is_the_whole_image_sample_at_any_pair_budget(monkeypatch, om, k, m):
    # blocks of 2 points (budgets 1, 3 and 7 pairs) merge into the running
    # sample many times over, against the whole image grouped at once; the
    # coupled grid's 65 536 nodes take the default budget only, as the
    # smaller budgets split its lattice sums into single points
    basis, grid = theta_basis(om, k), quadrature_grid(om.n, m)
    with monkeypatch.context() as patch:
        patch.setattr(amoeba, "_merged_image", whole_image_groups)
        want = amoeba_sample(basis, grid)
    budgets = (1, 3, 7, theta._CHUNK_TERMS) if om.n == 1 else (theta._CHUNK_TERMS,)
    for pairs in budgets:
        monkeypatch.setattr(theta, "_CHUNK_TERMS", pairs)
        assert_same_sample(amoeba_sample(basis, grid), want)


@pytest.mark.parametrize("pairs", [1, 7, theta._CHUNK_TERMS])
def test_streamed_merge_of_coupled_points_at_any_pair_budget(monkeypatch, pairs):
    # the coupled Omega's n = 2 image on a 6^4 grid, below the sample's
    # resolution floor, merged block by block and as a whole
    basis, grid = theta_basis(COUPLED, 2), quadrature_grid(2, 6)
    want = rounded_groups(per_section_image(basis, grid.x, grid.y))
    monkeypatch.setattr(theta, "_CHUNK_TERMS", pairs)
    m, blocks = theta._stacked_log_mag_blocks(basis, grid.x, grid.y)
    for got, ref in zip(amoeba._merged_image(basis.n_sections, m, amoeba._softmax(blocks)), want):
        assert np.array_equal(got, ref)


def grid_image(basis, m):
    """The grid route's moment map joined into one (m^2n, k^n) image."""
    return joined(basis.n_sections, *amoeba._grid_moment_blocks(basis, m)).T


@pytest.mark.parametrize(
    "om, k, m",
    [(SQUARE, 16, 256), (SQUARE, 32, 256)]
    + [(GENERIC, k, 8 * k) for k in range(4, 11)]
    + [(COUPLED, 2, 16)],
    ids=["square-16", "square-32"] + [f"generic-{k}" for k in range(4, 11)] + ["coupled-2"],
)
def test_grid_route_images_match_moment_points(om, k, m):
    # the grid route's sums factor each term exactly but add them in
    # another order, so the images agree to roundoff, node by node
    basis, grid = theta_basis(om, k), quadrature_grid(om.n, m)
    xi = grid_image(basis, m)
    assert xi.shape == (grid.size, basis.n_sections)
    assert np.max(np.abs(xi - moment_points(basis, grid.x, grid.y))) <= 1e-14


def test_grid_sample_points_are_the_cluster_counts():
    # the suite's sample: the 1e-12 cluster counts at Omega = 0.3+1.2i,
    # where the per-section route's rounded bits give 256/386/528/640. It
    # holds the 1/k strip of the 8k grid, 8 x-nodes by 8k y-nodes, whose
    # node map tiled k times along x serves every node of the grid
    for k, count in ((4, 256), (6, 384), (8, 512), (10, 640)):
        basis, grid = theta_basis(GENERIC, k), quadrature_grid(1, 8 * k)
        sample = amoeba._grid_amoeba_sample(basis, grid)
        assert sample.size == count
        assert sample.grid_shape == (8, 8 * k)
        assert np.array_equal(sample.node_sample[sample.nodes], np.arange(sample.size))
        xi = grid_image(basis, 8 * k)
        assert np.max(np.abs(xi - sample.xi[np.tile(sample.node_sample, k)])) <= 1e-12
        # the streamed merge is the merge of the strip's image
        strip = xi[: sample.node_sample.size]
        for got, want in zip((sample.xi, sample.nodes, sample.node_sample), rounded_groups(strip)):
            assert np.array_equal(got, want)


def whole_grid_sample(basis, m):
    """Oracle of the strip sample: the grid route's image of every node of
    the m-grid, merged at once."""
    return amoeba.AmoebaSample(basis.k, *rounded_groups(grid_image(basis, m)), (m,) * (2 * basis.om.n))


SKEW = validate_riemann_matrix([[-0.45 + 0.8j]])
# whole-grid point counts where some nodes round apart from their
# x-translates in the strip, in the 12th decimal; the strip keeps 8 * 8k
ROUNDING_SPLITS = {("generic", 9): 581, ("skew", 4): 261}


@pytest.mark.parametrize("k", range(4, 11))
@pytest.mark.parametrize("name, om", [("generic", GENERIC), ("square", SQUARE), ("skew", SKEW)])
def test_strip_sample_tiled_is_the_whole_grid_sample(name, om, k):
    # xi is 1/k-periodic in x, so the strip's node map tiled k times along
    # x is the whole grid's merge, with the same points, first nodes and
    # graph: the strip's wrapped x-axis joins its last x-row to its first,
    # as the whole grid joins it to the next strip's. Where translates
    # round apart, the whole grid has more points, each within 1e-12 of
    # the strip's
    basis = theta_basis(om, k)
    strip = amoeba._grid_amoeba_sample(basis, quadrature_grid(1, 8 * k))
    whole = whole_grid_sample(basis, 8 * k)
    tiled = np.tile(strip.node_sample, k)
    if (name, k) in ROUNDING_SPLITS:
        assert (strip.size, whole.size) == (64 * k, ROUNDING_SPLITS[name, k])
        assert np.max(np.abs(grid_image(basis, 8 * k) - strip.xi[tiled])) <= 1e-12
        return
    assert np.array_equal(tiled, whole.node_sample)
    assert np.array_equal(strip.xi, whole.xi) and np.array_equal(strip.nodes, whole.nodes)
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(strip.graph, part), getattr(whole.graph, part))


def test_strip_sample_needs_k_to_divide_m():
    with pytest.raises(ConfigError, match="k \\| m"):
        amoeba._grid_amoeba_sample(theta_basis(GENERIC, 5), quadrature_grid(1, 42))
