import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from theta_amoeba import InvalidPoints, NotPositive, NotSymmetric, ThetaAmoebaError, abelian
from theta_amoeba.abelian import (
    _torus_quadratic_distance,
    base_distance,
    base_metric,
    fiber_volume,
    flat_diameter,
    real_metric_tensor,
    reduce_mod1,
    riemann_matrix_from_json,
    validate_riemann_matrix,
    xy_to_z,
    z_to_xy,
)

RNG = np.random.default_rng(20260826)


def flat_distance(dx, dy, om):
    """Oracle: flat distance on (X, g_0) for the offset (dx, dy), by the
    closest-vector search over Z^{2n}."""
    return _torus_quadratic_distance(np.concatenate([dx, dy]), real_metric_tensor(om))


def random_riemann(n, rng):
    s = rng.normal(size=(n, n))
    s = 0.5 * (s + s.T)
    a = rng.normal(size=(n, n))
    t = a @ a.T + n * np.eye(n)
    return validate_riemann_matrix(s + 1j * t)


def test_validate_accepts_identity_times_i():
    rm = validate_riemann_matrix([[1j]])
    assert rm.n == 1
    assert rm.lambda_min == pytest.approx(1.0)


def test_validate_accepts_diagonal():
    rm = validate_riemann_matrix(np.diag([1j, 2j]))
    assert rm.n == 2
    assert rm.lambda_min == pytest.approx(1.0)


def test_validate_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        validate_riemann_matrix([[1j, 0.5], [0.0, 1j]])


def test_validate_rejects_negative_imaginary_part():
    with pytest.raises(NotPositive):
        validate_riemann_matrix([[-1j]])


def test_validate_rejects_indefinite_imaginary_part():
    with pytest.raises(NotPositive):
        validate_riemann_matrix(np.diag([1j, -1j]))


@pytest.mark.parametrize(
    "raw",
    [
        [[np.nan + 1j]],
        [[1j * np.inf]],
        [[1j, np.nan], [np.nan, 2j]],
    ],
    ids=["nan-real", "inf-imag", "nan-offdiagonal"],
)
def test_validate_rejects_non_finite_entries(raw):
    with pytest.raises(NotSymmetric, match="non-finite"):
        validate_riemann_matrix(raw)


def test_json_loader_roundtrip(tmp_path):
    path = tmp_path / "om.json"
    path.write_text(
        json.dumps({"n": 2, "re": [[0.1, 0.0], [0.0, 0.0]], "im": [[2.0, 0.3], [0.3, 1.0]]})
    )
    rm = riemann_matrix_from_json(path)
    assert rm.n == 2
    assert rm.omega[0, 0] == pytest.approx(0.1 + 2.0j)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_coords_roundtrip(n):
    rm = random_riemann(n, RNG)
    for _ in range(5):
        x, y = RNG.uniform(size=(2, n))
        xr, yr = z_to_xy(xy_to_z(x, y, rm), rm)
        assert np.allclose(xr, x, atol=1e-12)
        assert np.allclose(yr, y, atol=1e-12)


def test_unreduced_inverse_matches_linear_solve():
    rm = random_riemann(2, RNG)
    zs = RNG.normal(size=(4, 2)) + 1j * RNG.normal(size=(4, 2))
    xs, ys = z_to_xy(zs, rm)
    # oracle: solve the real 2n x 2n linear system [Re om, I; Im om, 0]
    a = np.block([[rm.re, np.eye(2)], [rm.im, np.zeros((2, 2))]])
    for z, xb, yb in zip(zs, xs, ys):
        sol = np.linalg.solve(a, np.concatenate([z.real, z.imag]))
        x, y = z_to_xy(z, rm)
        assert np.allclose(np.concatenate([x, y]), sol, atol=1e-12)
        assert np.allclose(np.concatenate([xb, yb]), sol, atol=1e-12)
    # xy_to_z maps the batch back
    assert np.allclose(xy_to_z(xs, ys, rm), zs, atol=1e-12)


def test_torus_point_reduces_mod_one():
    # a point of X in action-angle coordinates has each coordinate in [0, 1)
    assert reduce_mod1(1.25)[0] == pytest.approx(0.25)
    assert reduce_mod1(-0.25)[0] == pytest.approx(0.75)
    assert reduce_mod1([0.0, 3.0, -2.0]).tolist() == [0.0, 0.0, 0.0]
    # values within 1e-15 below 1 round down to 0, not up to a point at 1
    assert reduce_mod1([1.0 - 1e-16, -1e-17, 1.0 - 1e-15]).tolist() == [0.0, 0.0, 0.0]
    assert reduce_mod1(1.0 - 1e-14)[0] == 1.0 - 1e-14


def test_metric_tensor_square_torus_is_identity():
    rm = validate_riemann_matrix([[1j]])
    assert np.allclose(real_metric_tensor(rm), np.eye(2), atol=1e-14)


def test_metric_tensor_matches_distance_pullback():
    # oracle: |dz|^2_{Im om} for dz = Omega dx + dy must equal t(d) G d
    rm = random_riemann(2, RNG)
    g = real_metric_tensor(rm)
    for _ in range(5):
        dx = RNG.normal(size=2) * 0.01
        dy = RNG.normal(size=2) * 0.01
        dz = rm.omega @ dx + dy
        direct = (dz @ rm.im_inv @ np.conj(dz)).real
        d = np.concatenate([dx, dy])
        assert direct == pytest.approx(d @ g @ d, rel=1e-10)


def test_total_distance_square_torus_half_shift():
    rm = validate_riemann_matrix([[1j]])
    assert flat_distance(np.zeros(1), np.array([-0.5]), rm) == pytest.approx(0.5, abs=1e-14)


def test_total_distance_wraps_around():
    rm = validate_riemann_matrix([[1j]])
    assert flat_distance(np.zeros(1), np.array([0.1 - 0.9]), rm) == pytest.approx(
        0.2, abs=1e-14
    )


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_total_distance_metric_axioms(seed):
    rng = np.random.default_rng(seed)
    rm = random_riemann(2, rng)
    a, b, c = rng.uniform(size=(3, 4))

    def dist(p, q):
        return flat_distance(p[:2] - q[:2], p[2:] - q[2:], rm)

    dab = dist(a, b)
    dba = dist(b, a)
    dac = dist(a, c)
    dcb = dist(c, b)
    assert dist(a, a) <= 1e-10
    assert dab == pytest.approx(dba, abs=1e-10)
    assert dab <= dac + dcb + 1e-10


def test_base_distance_square_torus():
    rm = validate_riemann_matrix([[1j]])
    assert base_distance(np.zeros(1), np.array([0.5]), rm) == pytest.approx(0.5, abs=1e-14)


def test_base_metric_pure_imaginary_is_inverse_im():
    # with Re om = 0 the Schur complement collapses to (Im om)^{-1}
    rm = validate_riemann_matrix(np.diag([2j, 1j]) + 0.0)
    assert np.allclose(base_metric(rm), np.diag([0.5, 1.0]), atol=1e-13)


def test_fiber_volume_square_torus():
    rm = validate_riemann_matrix([[1j]])
    assert fiber_volume(rm) == pytest.approx(1.0, abs=1e-14)


def test_fiber_volume_stretched_torus():
    rm = validate_riemann_matrix([[2j]])
    # fiber {Omega x} has length |Omega| / sqrt(Im om) = 2 / sqrt(2)
    assert fiber_volume(rm) == pytest.approx(np.sqrt(2.0), rel=1e-13)


def test_submersion_inequality_base_vs_total():
    rm = random_riemann(2, RNG)
    for _ in range(5):
        # two points on one fiber section x = const
        y1, y2 = RNG.uniform(size=(2, 2))
        assert base_distance(y1, y2, rm) <= flat_distance(np.zeros(2), y1 - y2, rm) + 1e-10


def brute_closest(d, q, r):
    """Oracle: min of sqrt(t(d+s) q (d+s)) over every shift s in [-r, r]^n."""
    grid = np.arange(-r, r + 1, dtype=float)
    shifts = np.stack(np.meshgrid(*[grid] * d.size, indexing="ij"), -1).reshape(-1, d.size)
    v = d + shifts
    return float(np.sqrt(np.einsum("ki,ij,kj->k", v, q, v).min()))


def test_distances_match_brute_closest_vector_on_skewed_lattice():
    # Im om = A tA with A unimodular: the same lattice as i I, in a basis so
    # skewed that the nearest representative often lies outside {-1,0,1}^n
    a = np.array([[1.0, 3.0], [0.0, 1.0]])
    rm = validate_riemann_matrix(1j * (a @ a.T))
    g = real_metric_tensor(rm)
    q = base_metric(rm)
    rng = np.random.default_rng(5)
    for _ in range(100):
        px, py, rx, ry = rng.uniform(size=(4, 2))
        d_base = brute_closest(py - ry, q, 8)
        d_total = brute_closest(np.concatenate([px - rx, py - ry]), g, 5)
        assert base_distance(py, ry, rm) == pytest.approx(d_base, abs=1e-12)
        assert flat_distance(px - rx, py - ry, rm) == pytest.approx(d_total, abs=1e-12)


def skewed(a01):
    # Im om = A tA with A = [[1, a01], [0, 1]] unimodular: the lattice of i I
    basis = np.array([[1.0, a01], [0.0, 1.0]])
    return validate_riemann_matrix(1j * (basis @ basis.T))


@pytest.mark.parametrize(
    "n, rm, rows, radius",
    [
        (1, None, 40, 8),
        (2, None, 40, 8),
        (3, None, 40, 4),
        (2, skewed(3.0), 40, 8),
        # a box of 3021 shifts: 4000 rows are searched a few dozen shifts at
        # a time, and their minimisers fall in several blocks
        (2, skewed(10.0), 4000, 12),
    ],
    ids=["random-1", "random-2", "random-3", "skewed-3", "skewed-10-blocks"],
)
def test_batched_distances_match_brute_closest_vector(n, rm, rows, radius):
    rng = np.random.default_rng(11 + n)
    rm = random_riemann(n, rng) if rm is None else rm
    q = base_metric(rm)
    y1, y2 = rng.uniform(-1.5, 1.5, size=(2, rows, n))
    batch = base_distance(y1, y2, rm)
    assert batch.shape == (rows,)
    brute = [brute_closest(d, q, radius) for d in reduce_mod1(y1) - reduce_mod1(y2)]
    assert np.allclose(batch, brute, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2])
def test_base_distance_broadcasts_pairs(n):
    rng = np.random.default_rng(20 + n)
    rm = random_riemann(n, rng)
    a = rng.uniform(size=(8, 1, n))
    b = rng.uniform(size=(1, 8, n))
    block = base_distance(a, b, rm)
    assert block.shape == (8, 8)
    pairwise = [[base_distance(a[i, 0], b[0, j], rm) for j in range(8)] for i in range(8)]
    assert np.allclose(block, pairwise, rtol=0.0, atol=1e-15)
    assert np.allclose(np.diag(base_distance(a[:, 0], a[:, 0], rm)), 0.0)
    # a single pair is a float, and an empty batch an empty array
    assert isinstance(base_distance(a[0, 0], b[0, 0], rm), float)
    assert base_distance(np.zeros((0, n)), np.zeros(n), rm).shape == (0,)


@pytest.mark.parametrize("n", [1, 2])
def test_base_distance_rejects_batches_that_are_not_n_vectors(n):
    # a length-1 last axis at n = 2 would broadcast across both coordinates
    # and return the distance of (y1 - y2) * (1, 1)
    rm = validate_riemann_matrix(np.diag([1j, 1.3j])[:n, :n] + 0.0)
    for y1, y2 in [
        (np.full(n + 1, 0.1), np.full(n + 1, 0.2)),
        (np.zeros((4, n)), np.zeros((3, n))),
        (np.zeros((4, n)), np.zeros(n + 1)),
        (0.1, 0.2),
        ([["a"] * n], np.zeros(n)),
    ] + ([([0.1], [0.2]), (np.zeros((4, 1)), np.zeros(2))] if n == 2 else []):
        with pytest.raises(InvalidPoints):
            base_distance(y1, y2, rm)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_base_distance_rejects_non_finite_points(bad):
    rm = validate_riemann_matrix(np.diag([1j, 2j]) + 0.0)
    with pytest.raises(InvalidPoints, match="finite"):
        base_distance([0.1, bad], [0.2, 0.3], rm)
    with pytest.raises(InvalidPoints, match="finite"):
        base_distance(np.zeros((3, 2)), [[0.0, 0.0], [0.1, 0.2], [bad, 0.0]], rm)


@pytest.mark.parametrize(
    "raw, diameter",
    [([[1j]], np.sqrt(2.0) / 2.0), ([[5.0 + 1j]], np.sqrt(2.0) / 2.0), (np.diag([1j, 1j]), 1.0)],
    ids=["square", "square-skewed-basis", "square-n2"],
)
def test_flat_diameter_of_square_tori_is_the_half_diagonal(raw, diameter):
    # Omega = 5 + i spans the same lattice as i in a skewed basis
    assert flat_diameter(validate_riemann_matrix(raw)) == pytest.approx(diameter, rel=1e-14)


def test_flat_diameter_against_brute_grid():
    # oracle: the farthest node of a 400^2 grid from 0 is a lower bound, and
    # every point lies within half a grid cell's diagonal of a node
    rm = validate_riemann_matrix([[0.3 + 1.2j]])
    g = real_metric_tensor(rm)
    m = 400
    nodes = np.stack(np.meshgrid(np.arange(m) / m, np.arange(m) / m), axis=-1).reshape(-1, 2)
    brute = _torus_quadratic_distance(nodes, g).max()
    diagonals = np.array([[1.0, 1.0], [1.0, -1.0]])
    half_cell = np.sqrt(np.einsum("di,ij,dj->d", diagonals, g, diagonals)).max() / (2 * m)
    diameter = flat_diameter(rm)
    assert brute == pytest.approx(0.6533692, abs=1e-7)
    assert diameter == pytest.approx(0.6536157, abs=1e-7)
    assert brute <= diameter <= brute + half_cell


def test_flat_diameter_bounds_random_distances_at_n2():
    rng = np.random.default_rng(5)
    rm = random_riemann(2, rng)
    g = real_metric_tensor(rm)
    farthest = _torus_quadratic_distance(rng.uniform(size=(4000, 4)), g).max()
    assert farthest <= flat_diameter(rm) <= 1.2 * farthest


def test_flat_diameter_fails_loudly_on_a_small_patch(monkeypatch):
    # the 3 x 3 patch misses the Voronoi-relevant vectors of the skewed basis
    # Omega = 5 + i, so some vertex of its cell lies nearer another lattice point
    patch = np.indices((3, 3)).reshape(2, -1).T - 1
    monkeypatch.setattr(abelian, "ellipsoid_points", lambda *args: patch)
    with pytest.raises(ThetaAmoebaError, match="too small"):
        flat_diameter(validate_riemann_matrix([[5.0 + 1j]]))
