import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from theta_amoeba import ConfigError
from theta_amoeba.abelian import validate_riemann_matrix
from theta_amoeba.amoeba import (
    amoeba_sample,
    bk_distances,
    moment_points,
    simplex_distances,
)
from theta_amoeba.metrics import quadrature_grid
from theta_amoeba.theta import theta_basis

SQUARE = validate_riemann_matrix([[1j]])
GENERIC = validate_riemann_matrix([[0.3 + 1.2j]])
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
    # 122 MB, cache-sized chunks and the first-row table bring it to 70 MB
    basis, grid = theta_basis(SQUARE, 32), quadrature_grid(1, 256)
    tracemalloc.start()
    try:
        amoeba_sample(basis, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 80e6


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


def test_graph_connects_whole_sample():
    basis = theta_basis(SQUARE, 8)
    sample = amoeba_sample(basis, quadrature_grid(1, 64))
    d = bk_distances(sample, [0])
    assert np.all(np.isfinite(d))


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
