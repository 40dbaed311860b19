import itertools

import mpmath
import numpy as np
import pytest

from theta_amoeba import ConfigError, DegenerateSample, InvalidPoints
from theta_amoeba.abelian import real_metric_tensor, validate_riemann_matrix
from theta_amoeba.metrics import (
    _metric_field,
    balanced_matrix,
    c0_metric_deviation,
    flat_metric_field,
    geodesic_distances,
    gram_matrix,
    omega_k_field,
    omega_k_metric_field,
    quadrature_grid,
)
from theta_amoeba.theta import (
    GaugeValue,
    ThetaBasis,
    distortion_fk,
    section_gauge_values,
    theta_basis,
)

SQUARE = validate_riemann_matrix([[1j]])
GENERIC = validate_riemann_matrix([[0.3 + 1.2j]])
COUPLED = validate_riemann_matrix(
    np.array([[0.1 + 1.0j, 0.25 + 0.2j], [0.25 + 0.2j, -0.2 + 1.3j]])
)


def grid_for(k, n=1):
    return quadrature_grid(n, max(8 * k, 16))


@pytest.mark.parametrize("rm", [SQUARE, GENERIC])
@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_gram_is_identity(rm, k):
    basis = theta_basis(rm, k)
    g = gram_matrix(basis, grid_for(k))
    assert np.max(np.abs(g - np.eye(k))) < 1e-8


def test_gram_hermitian_exactly():
    basis = theta_basis(GENERIC, 3)
    g = gram_matrix(basis, grid_for(3))
    assert np.array_equal(g, g.conj().T)


def test_gram_refinement_stable():
    basis = theta_basis(GENERIC, 3)
    g1 = gram_matrix(basis, quadrature_grid(1, 24))
    g2 = gram_matrix(basis, quadrature_grid(1, 48))
    assert np.max(np.abs(g1 - g2)) < 1e-10


def test_gram_rejects_coarse_grid():
    basis = theta_basis(SQUARE, 4)
    with pytest.raises(ConfigError):
        gram_matrix(basis, quadrature_grid(1, 16))


def test_gram_two_dimensional():
    rm = validate_riemann_matrix(np.diag([1j, 2j]) + 0.0)
    basis = theta_basis(rm, 2)
    g = gram_matrix(basis, quadrature_grid(2, 16))
    assert np.max(np.abs(g - np.eye(4))) < 1e-8


def test_balanced_is_scalar_matrix():
    basis = theta_basis(SQUARE, 4)
    m = balanced_matrix(basis, grid_for(4))
    c = np.trace(m).real / 4
    assert np.max(np.abs(m - c * np.eye(4))) / c < 1e-6
    # integrand traces to the total volume
    assert np.trace(m).real == pytest.approx(1.0, rel=1e-6)


def test_balanced_detects_perturbed_basis():
    # dropping one of the four level-4 sections unbalances the embedding
    basis = ThetaBasis(om=SQUARE, k=4, indices=theta_basis(SQUARE, 4).indices[:3])
    m = balanced_matrix(basis, grid_for(4))
    c = np.trace(m).real / 3
    assert np.max(np.abs(m - c * np.eye(3))) / c > 0.1


def test_omega_k_definiteness_on_grid():
    # the level-2 map is the 2:1 Kummer map, so g_2 vanishes exactly at the
    # four 2-torsion points (grid nodes) and nowhere else
    g = quadrature_grid(1, 16)
    lam = np.linalg.eigvalsh(omega_k_field(theta_basis(SQUARE, 2), g.x, g.y))[:, 0]
    torsion = np.all(np.isin(np.hstack([g.x, g.y]), (0.0, 0.5)), axis=1)
    assert torsion.sum() == 4
    assert np.all(lam[torsion] <= 1e-12)
    assert np.all(lam[~torsion] >= 0.01)
    for k in (3, 4):
        lam = np.linalg.eigvalsh(omega_k_field(theta_basis(SQUARE, k), g.x, g.y))[:, 0]
        assert lam.min() > 0.0


def test_omega_k_lattice_translation_invariance():
    basis = theta_basis(SQUARE, 4)
    g1 = omega_k_field(basis, [[0.13]], [[0.27]])
    g2 = omega_k_field(basis, [[0.13 + 0.25]], [[0.27 + 0.25]])
    assert np.max(np.abs(g1 - g2)) < 1e-8


def fd_hessian_log_fk(basis, x, y, h=1e-3, weights=None):
    """Oracle: complex Hessian of log f_k in z, by Richardson-extrapolated
    central differences over the real and imaginary z directions."""
    om, n = basis.om, basis.om.n
    dirs = [np.eye(n)[j] + 0.0j for j in range(n)] + [1j * np.eye(n)[j] for j in range(n)]

    def second_derivs(hh):
        disp = [np.zeros(n, dtype=complex)]
        index = {}
        for r in range(2 * n):
            for sgn in (2.0, -2.0):
                index[(r, r, sgn)] = len(disp)
                disp.append(sgn * hh * dirs[r])
        for r in range(2 * n):
            for s in range(r + 1, 2 * n):
                for sr, ss in itertools.product((1.0, -1.0), repeat=2):
                    index[(r, s, sr, ss)] = len(disp)
                    disp.append(hh * (sr * dirs[r] + ss * dirs[s]))
        dz = np.array(disp)
        # z-shift in unreduced coordinates: dx = T^{-1} Im dz, dy = Re dz - S dx
        dx = np.linalg.solve(om.im, dz.imag.T).T
        dy = dz.real - dx @ om.re.T
        xs = (x[:, None, :] + dx[None, :, :]).reshape(-1, n)
        ys = (y[:, None, :] + dy[None, :, :]).reshape(-1, n)
        if weights is None:
            fk = distortion_fk(basis, xs, ys)
        else:
            fk = weights @ section_gauge_values(basis, xs, ys).norm_sq()
        f = np.log(fk).reshape(x.shape[0], len(disp))
        d = np.empty((x.shape[0], 2 * n, 2 * n))
        for r in range(2 * n):
            d[:, r, r] = (
                f[:, index[(r, r, 2.0)]] - 2.0 * f[:, 0] + f[:, index[(r, r, -2.0)]]
            ) / (4.0 * hh * hh)
            for s in range(r + 1, 2 * n):
                val = (
                    f[:, index[(r, s, 1.0, 1.0)]]
                    - f[:, index[(r, s, 1.0, -1.0)]]
                    - f[:, index[(r, s, -1.0, 1.0)]]
                    + f[:, index[(r, s, -1.0, -1.0)]]
                ) / (4.0 * hh * hh)
                d[:, r, s] = val
                d[:, s, r] = val
        return d

    d = (4.0 * second_derivs(0.5 * h) - second_derivs(h)) / 3.0
    daa, dbb, dab, dba = d[:, :n, :n], d[:, n:, n:], d[:, :n, n:], d[:, n:, :n]
    return 0.25 * ((daa + dbb) + 1j * (dab - dba))


def fd_metric_field(basis, x, y, weights=None):
    """Oracle g_k from H_k = (Im om)^{-1} + (1 / pi k) Hess log f_k."""
    om, n = basis.om, basis.om.n
    hk = om.im_inv + fd_hessian_log_fk(basis, x, y, weights=weights) / (np.pi * basis.k)
    a = np.hstack([om.omega, np.eye(n)])
    g = np.einsum("ni,mip,pq->mnq", a.T, hk, np.conj(a)).real
    return 0.5 * (g + np.swapaxes(g, 1, 2))


def weighted(gv, weights):
    """gv with section i scaled by sqrt(w_i): its log_mag shifted by log(w_i) / 2."""
    with np.errstate(divide="ignore"):
        shift = 0.5 * np.log(weights)[:, None]
    return GaugeValue(gv.log_mag + shift, gv.phase, gv.dlog)


def assert_matches_fd(basis, x, y, weights=None):
    # compare on the Hessian scale: g_k carries a factor 1 / (pi k)
    gv = section_gauge_values(basis, x, y, dlog=True)
    g = _metric_field(basis, gv if weights is None else weighted(gv, weights))
    g_fd = fd_metric_field(basis, x, y, weights=weights)
    assert np.max(np.abs(g - g_fd)) * np.pi * basis.k <= 1e-8


@pytest.mark.parametrize("rm", [SQUARE, GENERIC], ids=["square", "generic"])
@pytest.mark.parametrize("k", [2, 3, 4, 8])
def test_omega_k_matches_finite_differences(rm, k):
    rng = np.random.default_rng(k)
    assert_matches_fd(theta_basis(rm, k), rng.uniform(size=(6, 1)), rng.uniform(size=(6, 1)))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_omega_k_matches_finite_differences_coupled(k):
    basis = theta_basis(COUPLED, k)
    rng = np.random.default_rng(10 + k)
    x, y = rng.uniform(size=(40, 2)), rng.uniform(size=(40, 2))
    # off section zeros, where log f_k and its differences are well conditioned
    keep = section_gauge_values(basis, x, y).log_mag.min(axis=0) > np.log(0.05)
    assert keep.sum() >= 4
    assert_matches_fd(basis, x[keep][:4], y[keep][:4])


def test_omega_k_matches_finite_differences_weighted():
    rng = np.random.default_rng(5)
    weights = np.array([1.0, 1.4, 0.7]) ** 2
    assert_matches_fd(
        theta_basis(GENERIC, 3), rng.uniform(size=(6, 1)), rng.uniform(size=(6, 1)), weights
    )


def assert_psd(g):
    lams = np.linalg.eigvalsh(g)
    assert np.all(np.isfinite(g))
    assert lams[:, 0].min() >= -1e-12 * lams[:, -1].max()


def test_omega_k_finite_at_exact_section_zeros():
    # nodes of the 12^4 grid where level-2 sections vanish exactly: Omega / 2
    # is diagonal, so Theta_2(z; b) factors into theta3(tau_i, z_i - b_i), and
    # the first factor (tau = i/2) sits on its zero 1/2 + tau/2 there. The
    # precondition checks that at 50 digits; the one-sum route leaves
    # roundoff at those sections instead
    im_diag = (1, 2)
    basis = theta_basis(validate_riemann_matrix(1j * np.diag(im_diag) + 0.0), 2)
    x = np.array([[3, 9], [3, 9], [9, 3]]) / 12
    y = np.array([[0, 3], [6, 9], [0, 10]]) / 12
    with mpmath.workdps(50):
        for xp, yp in zip(x, y):
            z = [1j * mpmath.mpf(t) * mpmath.mpf(xi) + mpmath.mpf(yi)
                 for t, xi, yi in zip(im_diag, xp, yp)]
            q = [mpmath.exp(-mpmath.pi * t / basis.k) for t in im_diag]
            smallest = min(
                abs(mpmath.fprod(mpmath.jtheta(3, mpmath.pi * (zi - bi), qi)
                                 for zi, bi, qi in zip(z, b, q)))
                for b in basis.b_points
            )
            assert smallest < 1e-30
    lm = section_gauge_values(basis, x, y).log_mag
    assert np.all((lm.min(axis=0) - lm.max(axis=0)) < np.log(1e-14))
    assert_psd(omega_k_field(basis, x, y))


def test_metric_field_with_injected_exact_zero():
    # an exact zero (log_mag -inf, d log nan) carries no weight, like a
    # section with weight 0
    basis = theta_basis(GENERIC, 3)
    rng = np.random.default_rng(3)
    x, y = rng.uniform(size=(6, 1)), rng.uniform(size=(6, 1))
    gv = section_gauge_values(basis, x, y, dlog=True)
    log_mag, dlog = gv.log_mag.copy(), gv.dlog.copy()
    log_mag[1, 2:4] = -np.inf
    dlog[1, 2:4] = np.nan
    g = _metric_field(basis, GaugeValue(log_mag, gv.phase, dlog))
    assert_psd(g)
    g_w = _metric_field(basis, weighted(gv, np.array([1.0, 0.0, 1.0])))
    np.testing.assert_array_equal(g[2:4], g_w[2:4])


def test_omega_k_rejects_common_zero_at_level_one():
    # the only level-1 section vanishes at (1/2, 1/2)
    basis = theta_basis(SQUARE, 1)
    with pytest.raises(DegenerateSample):
        omega_k_field(basis, [[0.5]], [[0.5]])
    with pytest.raises(DegenerateSample):
        balanced_matrix(basis, grid_for(1))


def test_omega_k_rejects_bad_coordinates_as_such():
    # a NaN point is not a common zero of the sections
    basis = theta_basis(SQUARE, 2)
    for x, y in (([[np.nan]], [[0.5]]), ([[0.5]], [[-np.inf]]), ([[0.5], [0.25]], [[0.5]])):
        with pytest.raises(InvalidPoints):
            omega_k_field(basis, x, y)


@pytest.mark.parametrize(
    "n, m",
    [(1, 4.5), (0, 4), (1, 1), (-1, 4), (1.0, 4), (2, "8"), (1, True)],
)
def test_quadrature_grid_rejects_bad_sizes(n, m):
    # a fractional m would build a grid that is not periodic
    with pytest.raises(ConfigError):
        quadrature_grid(n, m)


def test_quadrature_grid_accepts_numpy_integers():
    grid = quadrature_grid(np.int64(1), np.int32(4))
    assert grid.size == 16
    np.testing.assert_array_equal(grid.y[:4, 0], [0.0, 0.25, 0.5, 0.75])


def test_omega_k_metric_field_rejects_mismatched_grid():
    with pytest.raises(ConfigError):
        omega_k_metric_field(theta_basis(SQUARE, 2), quadrature_grid(2, 16))


def test_omega_k_tensor_symmetric():
    basis = theta_basis(GENERIC, 3)
    g = omega_k_field(basis, [[0.2]], [[0.7]])[0]
    assert np.array_equal(g, g.T)


def test_c0_deviation_zero_for_exact_flat_field():
    g0 = real_metric_tensor(GENERIC)
    chol = np.linalg.inv(np.linalg.cholesky(g0))
    rel = chol @ (g0 - g0) @ chol.T
    assert np.max(np.abs(np.linalg.eigvalsh(rel))) == 0.0


def test_c0_deviation_decreasing_in_level():
    devs = [
        c0_metric_deviation(SQUARE, omega_k_metric_field(theta_basis(SQUARE, k), grid_for(k)))
        for k in (2, 4, 6, 8)
    ]
    assert all(a > b for a, b in zip(devs, devs[1:]))
    # log-log slope at most -1 (flat case decays much faster)
    ks = np.log([2, 4, 6, 8])
    slope = np.polyfit(ks, np.log(devs), 1)[0]
    assert slope <= -1.0


def test_flat_geodesic_half_period():
    grid = quadrature_grid(1, 32)
    field = flat_metric_field(SQUARE, grid)
    # node (x, y) = (0, 0) to (0, 1/2): the grid runs x-major
    d = geodesic_distances(field, [0])[0, 16]
    assert (grid.x[16], grid.y[16]) == (0.0, 0.5)
    assert d == pytest.approx(0.5, abs=2.0 / 32)


def test_geodesic_symmetry():
    grid = quadrature_grid(1, 24)
    field = omega_k_metric_field(theta_basis(SQUARE, 3), grid)
    # nodes nearest (0, 0) and (0.3, 0.4)
    p, q = 0, 7 * 24 + 10
    d = geodesic_distances(field, [p, q])
    assert d[0, q] == pytest.approx(d[1, p], abs=1e-12)


def test_geodesic_ratio_near_one():
    grid = quadrature_grid(1, 48)
    f0 = flat_metric_field(SQUARE, grid)
    fk = omega_k_metric_field(theta_basis(SQUARE, 6), grid)
    rng = np.random.default_rng(3)
    src = rng.integers(grid.size, size=4)
    d0 = geodesic_distances(f0, src)
    dk = geodesic_distances(fk, src)
    mask = d0 > 0.2
    ratio = dk[mask] / d0[mask]
    assert np.max(np.abs(ratio - 1.0)) < 0.05

