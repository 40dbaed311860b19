import dataclasses
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from theta_amoeba import (
    ConfigError,
    DegenerateSample,
    InvalidPoints,
    NonPositive,
    abelian,
    metrics,
    quantization,
    theta,
)
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
    grid_gauge_blocks,
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


@pytest.mark.parametrize("k", [2.5, np.nan, True, np.True_, 0, -1, np.inf])
def test_bs_sets_refuse_non_integral_levels(k):
    # 2.5 and NaN used to raise a bare TypeError, and True was level 1
    with pytest.raises(NonPositive):
        bs_fibers_abelian(SQUARE, k)
    with pytest.raises(NonPositive):
        bs_points_cp1(k)
    assert bs_fibers_abelian(SQUARE, np.int64(3)) == bs_fibers_abelian(SQUARE, 3)
    assert bs_points_cp1(3.0) == bs_points_cp1(3)


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


COUPLED = validate_riemann_matrix([[0.1 + 1.0j, 0.25 + 0.2j], [0.25 + 0.2j, -0.2 + 1.3j]])


@pytest.mark.parametrize("om", [SQUARE, COUPLED], ids=["n1", "n2"])
def test_reconstruction_rejects_an_empty_sample(om):
    # no points gave ratio_mean nan+nanj and ratio_rel_std nan
    empty = np.zeros((0, om.n))
    with pytest.raises(InvalidPoints):
        berg_reconstruct(theta_basis(om, 2), 0, empty, empty)


@pytest.mark.parametrize("om, k", [(SQUARE, 3), (COUPLED, 2)], ids=["n1", "n2"])
def test_fiber_index_out_of_range_is_refused(om, k):
    # a negative index used to wrap to the last fiber, one past the end to
    # raise a bare IndexError
    basis = theta_basis(om, k)
    count = basis.n_sections
    x = np.zeros((1, om.n))
    for i in (-1, count, count + 2, True, 1.0, "0"):
        with pytest.raises(ConfigError):
            fiber_coefficients(basis, i)
        with pytest.raises(ConfigError):
            sigma_section(om, k, i, x)
        with pytest.raises(ConfigError):
            berg_reconstruct(basis, i, x + 0.3, x + 0.4)
    # numpy integers in range are fiber indices like ints
    np.testing.assert_array_equal(
        fiber_coefficients(basis, np.int64(count - 1)), fiber_coefficients(basis, count - 1)
    )


@pytest.mark.parametrize(
    "om, x",
    [(SQUARE, [np.nan]), (SQUARE, [[0.2], [np.inf]]), (COUPLED, [[0.1], [0.2]]),
     (COUPLED, [0.1, 0.2, 0.3]), (SQUARE, ["a"]), (SQUARE, [[0.1], [None, 0.2]])],
    ids=["nan", "inf", "last-axis-1", "last-axis-3", "text", "ragged"],
)
def test_sigma_section_refuses_bad_points(om, x):
    # NaN used to give nan+nanj, (2, 1) was read as one 2-vector, and text
    # or a ragged batch raised a bare ValueError
    with pytest.raises(InvalidPoints):
        sigma_section(om, 2, 0, x)


@pytest.mark.parametrize("m1, m2", [(1, 3), (2, 3), (3, 1)])
def test_bergman_kernel_refuses_unmatched_batches(m1, m2):
    # 1 against 3 used to broadcast silently, 2 against 3 to raise a bare ValueError
    basis = theta_basis(GENERIC, 3)
    x1, y1 = RNG.uniform(size=(2, m1, 1))
    x2, y2 = RNG.uniform(size=(2, m2, 1))
    with pytest.raises(InvalidPoints):
        bergman_kernel(basis, x1, y1, x2, y2)


def per_fiber_coefficients(basis):
    """Oracle: the fiber-projection matrix c_ij of peak_section_suite, one
    fiber integral per Bohr-Sommerfeld fiber."""
    rows = [fiber_coefficients(basis, i) for i in range(basis.n_sections)]
    return np.sqrt(fiber_volume(basis.om)) * np.stack(rows)


PEAK_CASES = [
    pytest.param(om, k, id=f"{name}-{k}")
    for name, om, ks in (
        ("square", SQUARE, (1, 2, 3, 5, 8)),
        ("generic", validate_riemann_matrix([[0.3 + 1.2j]]), (1, 2, 3, 5, 8)),
        ("coupled", COUPLED, (1, 2, 3)),
    )
    for k in ks
]


def suite_and_matrix(monkeypatch, om, k):
    """peak_section_suite's diagnostics and the matrix c it measured."""
    seen = []

    def recorded(basis, c):
        seen.append(c)
        return measure(basis, c)

    measure = quantization._peak_diagnostics
    monkeypatch.setattr(quantization, "_peak_diagnostics", recorded)
    d = peak_section_suite(om, k)
    monkeypatch.undo()
    (c,) = seen
    return d, c


@pytest.mark.parametrize("om, k", PEAK_CASES)
def test_peak_matrix_is_the_per_fiber_circulant(monkeypatch, om, k):
    # c_ij = c_{0, j-i}: one fiber integral gives every row through the
    # Heisenberg shift of y by b_i
    _, c = suite_and_matrix(monkeypatch, om, k)
    oracle = per_fiber_coefficients(theta_basis(om, k))
    assert c.shape == oracle.shape == (k**om.n, k**om.n)
    assert np.max(np.abs(c - oracle)) <= 1e-14 * np.max(np.abs(oracle))
    np.testing.assert_array_equal(c[0], oracle[0])


@pytest.mark.parametrize("om, k", PEAK_CASES)
def test_peak_diagnostics_match_the_per_fiber_suite(monkeypatch, om, k):
    # every field against the suite built from the per-fiber matrix; the
    # proportionality residual and Gram off-diagonal sit at roundoff, so
    # they are held to 1e-14 absolute
    d, _ = suite_and_matrix(monkeypatch, om, k)
    basis = theta_basis(om, k)
    oracle = quantization._peak_diagnostics(basis, per_fiber_coefficients(basis))
    assert d.k == oracle.k == k
    for field in dataclasses.fields(d)[1:]:
        ours, ref = getattr(d, field.name), getattr(oracle, field.name)
        assert np.isclose(ours, ref, rtol=1e-13, atol=1e-14), (field.name, ours, ref)
    assert d.decay_slope == oracle.decay_slope and d.decay_r2 == oracle.decay_r2


def test_peak_suite_integrates_one_fiber(monkeypatch):
    calls = []

    def counted(basis, i):
        calls.append(i)
        return fiber_coefficients(basis, i)

    monkeypatch.setattr(quantization, "fiber_coefficients", counted)
    for om, k in ((SQUARE, 4), (COUPLED, 3)):
        calls.clear()
        peak_section_suite(om, k)
        assert calls == [0]


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
    # the Gram and the band of the peak sections come from one pass over
    # the blocks of the sections on the max(8k, 16)^{2n} quadrature grid
    sizes = []

    def counted(basis, m, grad=False):
        sizes.append(m ** (2 * basis.om.n))
        return grid_gauge_blocks(basis, m, grad=grad)

    # every module binding, so a second route through metrics or through
    # grid_gauge_values counts too
    for module in (theta, metrics, quantization):
        monkeypatch.setattr(module, "grid_gauge_blocks", counted)
    for k in (2, 4):
        sizes.clear()
        peak_section_suite(SQUARE, k)
        assert sizes.count(max(8 * k, 16) ** 2) == 1


@pytest.mark.parametrize(
    "rm, k",
    [
        pytest.param(SQUARE, 3, id="square-3"),
        pytest.param(GENERIC, 4, id="generic-4"),
        pytest.param(COUPLED, 2, id="coupled-2"),
    ],
)
def test_peak_suite_keeps_its_contract_at_any_block_size(monkeypatch, rm, k):
    # one x-node per block, the shipped blocks and the whole grid in one:
    # the sections keep their accuracy contract, 1e-13 of the node's
    # largest, and the normalized Gram and the band (about 1) keep it too
    runs = []
    for terms in (1, theta._CHUNK_TERMS, 4_000_000):
        monkeypatch.setattr(theta, "_CHUNK_TERMS", terms)
        runs.append(peak_section_suite(rm, k))
    ref = runs[-1]
    for d in runs:
        for name in ("gram_offdiag_max", "band_min", "band_max", "proportionality_residual"):
            assert abs(getattr(d, name) - getattr(ref, name)) <= 1e-13
        assert d.decay_slope == pytest.approx(ref.decay_slope, rel=1e-12)


def test_peak_suite_holds_blocks_not_the_grid():
    # the benchmark's largest level: holding the whole 192^2 grid of 24
    # sections three times over, the suite peaked at 28.2 MiB; block by
    # block it holds the route's steps and the reduction's temporaries,
    # about ten blocks, beyond the 24 x 24 Gram
    basis = theta_basis(SQUARE, 24)
    gv = next(grid_gauge_blocks(basis, 192))
    block = gv.values.nbytes + gv.log_scale.nbytes + gv.base_phase.nbytes
    tracemalloc.start()
    try:
        peak_section_suite(SQUARE, 24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * block


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


@pytest.mark.parametrize(
    "g", [[[np.nan]], [[np.inf]], [[np.pi, np.nan], [np.nan, np.pi]]], ids=["nan", "inf", "n2-nan"]
)
def test_bsz_model_refuses_metric_that_is_not_finite(g):
    # a NaN eigenvalue failed the positivity test's comparison, and the
    # kernel came out nan+nanj
    u = np.full(np.shape(g)[0], 0.1)
    with pytest.raises(NonPositive):
        bsz_model_kernel(np.array(g), 4, u, u)


@pytest.mark.parametrize("k", [-2, 0, 2.5, True])
def test_printed_constant_refuses_bad_levels(k):
    # -2 used to give the complex (1+1j), and 0 gave 0.0
    with pytest.raises(NonPositive):
        printed_reconstruction_constant(SQUARE, k)


@pytest.mark.parametrize("k", [0, -1, 2.5, np.nan])
def test_bsz_model_refuses_bad_levels(k):
    # 0 used to give 0j
    with pytest.raises(NonPositive):
        bsz_model_kernel(np.array([[np.pi]]), k, [0.1], [0.2])


@pytest.mark.parametrize(
    "u, v", [([np.nan], [0.2]), ([0.1], [np.inf * 1j]), ([[0.1], [complex(np.nan, 0)]], [0.2])]
)
def test_bsz_model_refuses_points_that_are_not_finite(u, v):
    # NaN in u used to give nan+nanj
    with pytest.raises(InvalidPoints):
        bsz_model_kernel(np.array([[np.pi]]), 4, u, v)


@pytest.mark.parametrize("seed", [-1, 2.5, True, "0"])
def test_bsz_comparison_refuses_bad_seeds(seed):
    # -1 used to raise a bare ValueError, and 2.5 a bare TypeError
    with pytest.raises(ConfigError, match="seed"):
        bsz_comparison(SQUARE, 4, seed=seed)
    assert bsz_comparison(SQUARE, 4, seed=np.int64(5)) == bsz_comparison(SQUARE, 4, seed=5)


def test_bsz_error_decays_in_level():
    errs = [bsz_comparison(SQUARE, k, seed=5) for k in (4, 16, 64)]
    slope = np.polyfit(np.log([4.0, 16.0, 64.0]), np.log(errs), 1)[0]
    assert slope <= -0.4
