from fractions import Fraction

import numpy as np
import pytest

from theta_amoeba import DegenerateSample, NonPositive, abelian, metrics, quantization, theta
from theta_amoeba.abelian import fiber_volume, validate_riemann_matrix, xy_to_z
from theta_amoeba.metrics import quadrature_grid
from theta_amoeba.quantization import (
    berg_reconstruct,
    bergman_kernel,
    bs_fibers_abelian,
    bs_points_cp1,
    bsz_comparison,
    bsz_model_kernel,
    fiber_coefficients,
    peak_section_suite,
    printed_reconstruction_constant,
    sigma_section,
)
from theta_amoeba.theta import (
    distortion_fk,
    grid_gauge_values,
    section_gauge_values,
    theta_basis,
)

SQUARE = validate_riemann_matrix([[1j]])
GENERIC = validate_riemann_matrix([[0.3 + 1.4j]])
RNG = np.random.default_rng(41)


def sigma_holomorphic(om, k, b, x):
    """Oracle: the classical covariantly constant expression
    exp(k pi/2 tz T^{-1} z - i k pi tx om x) along z = om x + b."""
    x = np.atleast_2d(x)
    z = x @ om.omega.T + b
    t_inv = om.im_inv
    quad = np.einsum("mi,ij,mj->m", z, t_inv, z)
    osc = np.einsum("mi,ij,mj->m", x, om.omega, x.astype(complex))
    return np.exp(0.5 * k * np.pi * quad - 1j * k * np.pi * osc)


def test_abelian_fibers_level_two():
    fs = bs_fibers_abelian(SQUARE, 2)
    assert fs.points == ((Fraction(0),), (Fraction(1, 2),))


@pytest.mark.parametrize("k", range(1, 9))
def test_abelian_fiber_count_n1(k):
    assert len(bs_fibers_abelian(SQUARE, k).points) == k


@pytest.mark.parametrize("k", [1, 2, 3])
def test_abelian_fiber_count_n2(k):
    rm = validate_riemann_matrix(np.diag([1j, 2j]) + 0.0)
    assert len(bs_fibers_abelian(rm, k).points) == k**2


def test_abelian_fibers_match_basis_points():
    basis = theta_basis(GENERIC, 4)
    fs = bs_fibers_abelian(GENERIC, 4)
    pts = np.array([[float(c) for c in p] for p in fs.points])
    assert np.array_equal(pts, basis.b_points)


def test_cp1_points_level_three():
    fs = bs_points_cp1(3)
    assert fs.points == (
        Fraction(-1),
        Fraction(-1, 3),
        Fraction(1, 3),
        Fraction(1),
    )


@pytest.mark.parametrize("k", range(1, 11))
def test_cp1_count(k):
    fs = bs_points_cp1(k)
    assert len(fs.points) == k + 1
    assert fs.points[0] == -1 and fs.points[-1] == 1


def test_sigma_modulus_constant_along_fiber():
    xg = np.linspace(0.0, 1.0, 64, endpoint=False).reshape(-1, 1)
    gv = sigma_section(GENERIC, 4, 1, xg)
    mags = np.exp(gv.log_mag[0])
    assert mags.std() / mags.mean() < 1e-9


def test_sigma_covariantly_constant_oracle():
    # finite-difference check of (d - pi k t(zbar) T^{-1} dz) sigma = 0
    # along the fiber direction dz = om dx, on the classical expression
    om, k = GENERIC, 3
    b = np.array([1.0 / 3.0])
    h = 1e-6
    for x0 in (0.1, 0.45, 0.8):
        x = np.array([[x0]])
        z = x @ om.omega.T + b
        d_num = (
            sigma_holomorphic(om, k, b, x + h) - sigma_holomorphic(om, k, b, x - h)
        ) / (2.0 * h)
        conn = np.pi * k * (np.conj(z) @ om.im_inv @ om.omega)
        resid = d_num - conn * sigma_holomorphic(om, k, b, x)
        assert abs(resid[0]) / abs(sigma_holomorphic(om, k, b, x)[0]) < 1e-6 * k


def test_sigma_gauge_value_matches_classical_oracle():
    # multiplying the classical expression by the real gauge factor
    # e^{-k pi/2 tz T^{-1} zbar} must land on the stored unitary-gauge value
    om, k, i = GENERIC, 4, 3
    b = np.array([3.0 / 4.0])
    xg = RNG.uniform(size=(6, 1))
    z = xg @ om.omega.T + b
    quad = np.einsum("mi,ij,mj->m", z, om.im_inv, np.conj(z)).real
    oracle = sigma_holomorphic(om, k, b, xg) * np.exp(-0.5 * np.pi * k * quad)
    ours = sigma_section(om, k, i, xg).complex_values()[0]
    assert np.allclose(ours, oracle, rtol=1e-10)


def test_sigma_value_at_origin():
    gv = sigma_section(GENERIC, 5, 2, np.zeros((1, 1)))
    assert gv.log_mag[0, 0] == 0.0
    assert gv.phase[0, 0] == 0.0


def test_bergman_diagonal_is_distortion():
    basis = theta_basis(GENERIC, 4)
    x = RNG.uniform(size=(8, 1))
    y = RNG.uniform(size=(8, 1))
    diag = bergman_kernel(basis, x, y, x, y)
    f = distortion_fk(basis, x, y, mode="closed")
    assert np.allclose(diag.real, f, rtol=1e-12)
    assert np.max(np.abs(diag.imag)) < 1e-12 * np.max(f)


def test_bergman_reproducing_property():
    basis = theta_basis(SQUARE, 3)
    grid = quadrature_grid(1, 24)
    v = section_gauge_values(basis, grid.x, grid.y).complex_values()
    xz = np.array([[0.21]])
    yz = np.array([[0.64]])
    vz = section_gauge_values(basis, xz, yz).complex_values()[:, 0]
    for j in range(3):
        integral = np.mean(np.einsum("i,im->m", vz, np.conj(v)) * v[j])
        assert integral == pytest.approx(vz[j], rel=1e-7)


def test_bergman_offdiagonal_decay():
    from theta_amoeba.abelian import _torus_quadratic_distance, real_metric_tensor

    g0 = real_metric_tensor(SQUARE)
    basis = theta_basis(SQUARE, 8)
    logs, dists = [], []
    for _ in range(40):
        x1, y1 = RNG.uniform(size=2)
        x2, y2 = RNG.uniform(size=2)
        val = bergman_kernel(basis, [[x1]], [[y1]], [[x2]], [[y2]])[0]
        # oracle: the flat distance on (X, g_0), a closest-vector search
        d = _torus_quadratic_distance(np.array([x1 - x2, y1 - y2]), g0)
        if abs(val) > 1e-280 and d > 1e-3:
            logs.append(np.log(abs(val) / 8.0))
            dists.append(np.sqrt(8.0) * d)
    slope, intercept = np.polyfit(dists, logs, 1)
    assert slope < 0.0
    # all samples below the fitted envelope C k^n e^{-c sqrt(k) d}
    c = -slope
    bound = intercept + 1.0
    assert np.all(np.asarray(logs) <= bound - c * np.asarray(dists) + 1e-9)


@pytest.mark.parametrize("k", [1, 2, 4])
def test_reconstruction_ratio_constant(k):
    basis = theta_basis(SQUARE, k)
    res = berg_reconstruct(
        basis, 0, RNG.uniform(0.05, 0.95, (20, 1)), RNG.uniform(0.05, 0.95, (20, 1))
    )
    assert res.ratio_rel_std < 1e-6


def test_reconstruction_matches_printed_constant_square_torus():
    basis = theta_basis(SQUARE, 2)
    res = berg_reconstruct(
        basis, 0, RNG.uniform(0.1, 0.9, (20, 1)), RNG.uniform(0.1, 0.9, (20, 1))
    )
    assert abs(res.measured_abs - res.printed_abs) < 1e-4 * res.printed_abs
    assert res.printed_abs == pytest.approx(
        printed_reconstruction_constant(SQUARE, 2), rel=1e-15
    )


@pytest.mark.parametrize(
    "om, k",
    [
        (GENERIC, 8),
        (GENERIC, 16),
        (validate_riemann_matrix(np.diag([1.5j, 0.8j]) + 0.0), 3),
        (validate_riemann_matrix([[0.1 + 1.0j, 0.25 + 0.2j], [0.25 + 0.2j, -0.2 + 1.3j]]), 3),
    ],
    ids=["generic-8", "generic-16", "diag-3", "coupled-3"],
)
def test_fiber_projection_diagonal_coefficient(om, k):
    # in the unit normalization (sigma of fiber norm 1, Riemannian measure)
    # |c_ii| is (2k)^{n/4} whatever Omega is; peak_section_suite's kappa is
    # its reciprocal
    basis = theta_basis(om, k)
    for i in (0, basis.n_sections - 1):
        c_ii = abs(fiber_coefficients(basis, i)[i]) * np.sqrt(fiber_volume(om))
        assert c_ii == pytest.approx((2.0 * k) ** (om.n / 4.0), rel=1e-12)


def test_reconstruction_rejects_zero_locus():
    basis = theta_basis(SQUARE, 1)
    # the single section vanishes at (x, y) = (1/2, 1/2)
    with pytest.raises(DegenerateSample):
        berg_reconstruct(basis, 0, [[0.5]], [[0.5]])


def test_peak_sections_proportional_to_basis():
    d = peak_section_suite(SQUARE, 4)
    assert d.proportionality_residual < 1e-6
    assert d.change_of_basis_cond < 1.0 + 1e-4


@pytest.mark.parametrize("k", [2, 4, 8])
def test_peak_proportionality_resolves_roundoff(k):
    # c is diagonal to roundoff here; 1 - |c_ii|^2/|c_i|^2 read ~1.5e-8
    # (sqrt(eps)), the off-diagonal mass reads ~1e-15
    d = peak_section_suite(validate_riemann_matrix([[0.3 + 1.2j]]), k)
    assert d.proportionality_residual < 1e-12


def test_peak_gram_asymptotically_orthonormal():
    for k in (2, 4, 8):
        d = peak_section_suite(SQUARE, k)
        assert d.gram_offdiag_max < 1e-12


def test_peak_band_tightens():
    d8 = peak_section_suite(SQUARE, 8)
    d16 = peak_section_suite(SQUARE, 16)
    assert 0.9 < d8.band_min <= d8.band_max < 1.1
    assert d16.band_max - d16.band_min < d8.band_max - d8.band_min


@pytest.mark.parametrize("tau", [0.3 + 1.2j, 2j])
def test_peak_band_tends_to_one_off_unit_determinant(tau):
    # sum |s~_i|^2 / k^n tends to 1 for every Omega, not det(Im Omega)^{-1/2};
    # a missing or doubled sqrt(V) moves it by a factor V^{+-1}
    d = peak_section_suite(validate_riemann_matrix([[tau]]), 16)
    assert abs(d.band_min - 1.0) < 1e-3 and abs(d.band_max - 1.0) < 1e-3


def test_peak_suite_evaluates_grid_once(monkeypatch):
    # the Gram and the band of the peak sections come from one evaluation
    # of the sections on the max(8k, 16)^{2n} quadrature grid
    sizes = []

    def counted(basis, m, dlog=False):
        sizes.append(m ** (2 * basis.om.n))
        return grid_gauge_values(basis, m, dlog=dlog)

    # every module binding, so a second route through metrics counts too
    for module in (theta, metrics, quantization):
        monkeypatch.setattr(module, "grid_gauge_values", counted)
    for k in (2, 4):
        sizes.clear()
        peak_section_suite(SQUARE, k)
        assert sizes.count(max(8 * k, 16) ** 2) == 1


def test_peak_suite_measures_base_distances_through_base_distance(monkeypatch):
    # the 57 base distances of the decay curve come from one call of the
    # one public route, and equal it point by point
    calls = []

    def counted(y1, y2, om):
        out = abelian.base_distance(y1, y2, om)
        calls.append((np.asarray(y1), om, out))
        return out

    monkeypatch.setattr(quantization, "base_distance", counted)
    for k in (2, 4):
        calls.clear()
        peak_section_suite(SQUARE, k)
        assert len(calls) == 1
        pts_y, om, dists = calls[0]
        assert pts_y.shape == (57, 1) and om is SQUARE
        pointwise = [abelian.base_distance(p, np.zeros(1), SQUARE) for p in pts_y]
        assert np.array_equal(dists, pointwise)


def test_peak_decay_regression():
    d4 = peak_section_suite(SQUARE, 4)
    d8 = peak_section_suite(SQUARE, 8)
    assert d4.decay_r2 > 0.99 and d8.decay_r2 > 0.99
    assert d4.decay_slope < 0.0
    ratio = d8.decay_slope / d4.decay_slope
    assert abs(ratio - 2.0) < 0.2
    assert abs(d8.decay_slope - d8.decay_slope_model) < 0.1 * abs(d8.decay_slope_model)


def test_bsz_model_diagonal_value():
    val = bsz_model_kernel(np.array([[np.pi]]), 4, [0.0], [0.0])
    assert val == pytest.approx(4.0 / (2.0 * np.pi), rel=1e-15)


def test_bsz_model_hermitian_symmetry():
    g = np.array([[2.0]])
    u = [0.3 + 0.2j]
    v = [-0.1 + 0.5j]
    assert bsz_model_kernel(g, 4, u, v) == pytest.approx(
        np.conj(bsz_model_kernel(g, 4, v, u)), rel=1e-14
    )


@pytest.mark.parametrize("n", [1, 2])
def test_bsz_model_batch_matches_single_pairs(n):
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    g = a @ a.conj().T + np.eye(n)
    u = rng.normal(size=(6, 1, n)) + 1j * rng.normal(size=(6, 1, n))
    v = rng.normal(size=(1, 5, n)) + 1j * rng.normal(size=(1, 5, n))
    batch = bsz_model_kernel(g, 4, u, v)
    assert batch.shape == (6, 5)
    single = [[bsz_model_kernel(g, 4, ui[0], vj) for vj in v[0]] for ui in u]
    assert np.allclose(batch, single, rtol=1e-13, atol=0.0)
    assert isinstance(bsz_model_kernel(g, 4, u[0, 0], v[0, 0]), complex)


def test_bsz_model_rejects_indefinite_metric():
    with pytest.raises(NonPositive):
        bsz_model_kernel(np.array([[-1.0]]), 4, [0.0], [0.0])


def test_bsz_error_decays_in_level():
    errs = [bsz_comparison(SQUARE, k, seed=5) for k in (4, 16, 64)]
    slope = np.polyfit(np.log([4.0, 16.0, 64.0]), np.log(errs), 1)[0]
    assert slope <= -0.4
