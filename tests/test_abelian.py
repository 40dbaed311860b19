import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from theta_amoeba import NotPositive, NotSymmetric
from theta_amoeba.abelian import (
    TorusPoint,
    base_distance,
    base_metric,
    coords_to_z,
    fiber_volume,
    h0_log_density,
    real_metric_tensor,
    riemann_matrix_from_json,
    total_distance,
    validate_riemann_matrix,
    z_to_coords,
    z_to_xy,
)

RNG = np.random.default_rng(20260826)


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
        p = TorusPoint(x=RNG.uniform(size=n), y=RNG.uniform(size=n))
        z = coords_to_z(p, rm)
        q = z_to_coords(z, rm)
        assert np.allclose(q.x, p.x, atol=1e-12)
        assert np.allclose(q.y, p.y, atol=1e-12)


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


def test_torus_point_reduces_mod_one():
    p = TorusPoint(x=np.array([1.25]), y=np.array([-0.25]))
    assert p.x[0] == pytest.approx(0.25)
    assert p.y[0] == pytest.approx(0.75)


def test_h0_log_density_square_torus():
    rm = validate_riemann_matrix([[1j]])
    # z = i: -pi * |z|^2 / Im om = -pi
    assert h0_log_density(np.array([1j]), rm) == pytest.approx(-np.pi, abs=1e-14)


def test_h0_log_density_is_real_negative_quadratic():
    rm = random_riemann(2, RNG)
    z = RNG.normal(size=2) + 1j * RNG.normal(size=2)
    v = h0_log_density(z, rm)
    assert v <= 0.0
    assert h0_log_density(2.0 * z, rm) == pytest.approx(4.0 * v, rel=1e-12)


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
    p = TorusPoint(x=np.zeros(1), y=np.zeros(1))
    q = TorusPoint(x=np.zeros(1), y=np.array([0.5]))
    assert total_distance(p, q, rm) == pytest.approx(0.5, abs=1e-14)


def test_total_distance_wraps_around():
    rm = validate_riemann_matrix([[1j]])
    p = TorusPoint(x=np.zeros(1), y=np.array([0.1]))
    q = TorusPoint(x=np.zeros(1), y=np.array([0.9]))
    assert total_distance(p, q, rm) == pytest.approx(0.2, abs=1e-14)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_total_distance_metric_axioms(seed):
    rng = np.random.default_rng(seed)
    rm = random_riemann(2, rng)
    pts = [TorusPoint(x=rng.uniform(size=2), y=rng.uniform(size=2)) for _ in range(3)]
    a, b, c = pts
    dab = total_distance(a, b, rm)
    dba = total_distance(b, a, rm)
    dac = total_distance(a, c, rm)
    dcb = total_distance(c, b, rm)
    assert total_distance(a, a, rm) <= 1e-10
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
        p = TorusPoint(x=RNG.uniform(size=2), y=RNG.uniform(size=2))
        q = TorusPoint(x=p.x.copy(), y=RNG.uniform(size=2))
        assert base_distance(p.y, q.y, rm) <= total_distance(p, q, rm) + 1e-10


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
        p = TorusPoint(x=rng.uniform(size=2), y=rng.uniform(size=2))
        r = TorusPoint(x=rng.uniform(size=2), y=rng.uniform(size=2))
        d_base = brute_closest(p.y - r.y, q, 8)
        d_total = brute_closest(np.concatenate([p.x - r.x, p.y - r.y]), g, 5)
        assert base_distance(p.y, r.y, rm) == pytest.approx(d_base, abs=1e-12)
        assert total_distance(p, r, rm) == pytest.approx(d_total, abs=1e-12)
