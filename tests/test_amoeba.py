import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from theta_amoeba import ConfigError, MixedLevels
from theta_amoeba.abelian import validate_riemann_matrix
from theta_amoeba.amoeba import (
    SimplexPoint,
    amoeba_sample,
    bk_distances,
    moment_point,
    moment_points,
    nearest_sample_index,
    phi_k,
    simplex_distance,
)
from theta_amoeba.metrics import quadrature_grid
from theta_amoeba.theta import theta_basis

SQUARE = validate_riemann_matrix([[1j]])
RNG = np.random.default_rng(23)


def random_simplex(k, n_coords, rng):
    xi = rng.uniform(0.0, 1.0, size=n_coords)
    return SimplexPoint(k=k, xi=xi)


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
        p = moment_point(basis, [0.0], [i / 8.0])
        assert int(np.argmax(p.xi)) == i


def test_moment_concentration_at_nearest_base_point():
    basis = theta_basis(SQUARE, 8)
    for y in np.linspace(0.0, 1.0, 40, endpoint=False):
        p = moment_point(basis, [0.0], [y])
        nearest = int(np.round(y * 8)) % 8
        assert int(np.argmax(p.xi)) == nearest


def test_simplex_distance_coincident_points():
    p = random_simplex(4, 4, RNG)
    assert simplex_distance(p, p) == pytest.approx(0.0, abs=1e-12)


def test_simplex_distance_between_vertices():
    k = 4
    e1 = SimplexPoint(k=k, xi=np.array([1.0, 0.0, 0.0, 0.0]))
    e2 = SimplexPoint(k=k, xi=np.array([0.0, 1.0, 0.0, 0.0]))
    assert simplex_distance(e1, e2) == pytest.approx(
        np.pi / (2.0 * np.sqrt(np.pi * k)), rel=1e-14
    )


def test_simplex_distance_matches_great_circle_oracle():
    k = 3
    for _ in range(10):
        p = random_simplex(k, 3, RNG)
        q = random_simplex(k, 3, RNG)
        # oracle: arc length between unit vectors sqrt(xi) on the sphere
        u = np.sqrt(p.xi)
        v = np.sqrt(q.xi)
        arc = np.arctan2(np.linalg.norm(np.cross(u, v)), u @ v)
        assert simplex_distance(p, q) == pytest.approx(
            arc / np.sqrt(np.pi * k), rel=1e-9
        )


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_simplex_distance_metric_axioms(seed):
    rng = np.random.default_rng(seed)
    k = 4
    a, b, c = (random_simplex(k, 5, rng) for _ in range(3))
    dab = simplex_distance(a, b)
    assert dab == pytest.approx(simplex_distance(b, a), abs=1e-12)
    assert dab <= simplex_distance(a, c) + simplex_distance(c, b) + 1e-12


def test_simplex_distance_rejects_mixed_levels():
    p = random_simplex(2, 2, RNG)
    q = random_simplex(3, 2, RNG)
    with pytest.raises(MixedLevels):
        simplex_distance(p, q)


def test_level_one_image_is_a_point():
    basis = theta_basis(SQUARE, 1)
    sample = amoeba_sample(basis, quadrature_grid(1, 16))
    assert sample.size == 1
    assert sample.xi[0, 0] == pytest.approx(1.0)


def test_sample_size_at_benchmark_grid():
    # the point count depends on last-bit roundoff of xi, merged at 12 digits
    sample = amoeba_sample(theta_basis(SQUARE, 16), quadrature_grid(1, 256))
    assert sample.size == 2304


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
    chord = simplex_distance(sample.point(i), sample.point(j))
    assert bk_distances(sample, [i])[0, j] >= chord - 1e-12


def test_phi_k_matches_moment_point_at_zero_section():
    basis = theta_basis(SQUARE, 3)
    y = [0.37]
    assert np.allclose(
        phi_k(basis, y).xi, moment_point(basis, [0.0], y).xi, atol=1e-15
    )


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
        ys = np.arange(8 * k) / (8 * k)
        idx = [nearest_sample_index(sample, phi_k(basis, [y])) for y in ys]
        d = bk_distances(sample, idx)
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
