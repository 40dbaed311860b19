import itertools
import tracemalloc

import mpmath
import numpy as np
import pytest

from theta_amoeba import ConfigError, DegenerateSample, InvalidPoints, NonPositive, theta
from theta_amoeba.abelian import validate_riemann_matrix
from theta_amoeba.metrics import (
    MetricField,
    _metric_blocks,
    _metric_field,
    balanced_matrix,
    c0_metric_deviation,
    check_grid_resolution,
    geodesic_distances,
    gram_matrix,
    omega_k_field,
    quadrature_grid,
)
from theta_amoeba.theta import (
    GaugeValue,
    ThetaBasis,
    distortion_fk,
    grid_gauge_blocks,
    grid_gauge_values,
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


def omega_k_metric_field(basis, grid):
    """Oracle of the convergence suite's eps: the pulled-back metric g_k at
    every node of the grid, built block by block (grid_gauge_blocks) into
    the (nodes, n, n) field, so beyond it the extra memory is a few blocks
    with their gradients and forms, and the route's tables."""
    check_grid_resolution(basis, grid)
    n = basis.om.n
    h = np.empty((grid.size, n, n), dtype=complex)
    start = 0
    for _, part in _metric_blocks(basis, grid_gauge_blocks(basis, grid.m, grad=True)):
        h[start : start + len(part)] = part
        start += len(part)
    return MetricField(grid=grid, om=basis.om, h=h)


def grid_deviation(basis, m):
    """The C0 deviation eps over every node of the m-grid."""
    return c0_metric_deviation(basis.om, omega_k_metric_field(basis, quadrature_grid(1, m)).h)


def flat_metric_field(om, grid):
    """The flat metric h0 = (Im om)^{-1} at every node of the grid."""
    return MetricField(grid=grid, om=om, h=np.broadcast_to(om.im_inv, (grid.size, om.n, om.n)))


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
    """Oracle: the Hermitian H_k = (Im om)^{-1} + (1 / pi k) Hess log f_k."""
    return basis.om.im_inv + fd_hessian_log_fk(basis, x, y, weights=weights) / (np.pi * basis.k)


def weighted(gv, weights):
    """gv with section i scaled by sqrt(w_i): its values and gradient."""
    root = np.sqrt(weights)[:, None]
    return GaugeValue(gv.log_scale, gv.base_phase, gv.values * root, gv.grad * root[:, :, None])


def columns(gv, cols):
    """gv at the points cols only."""
    return GaugeValue(
        gv.log_scale[cols], gv.base_phase[cols], gv.values[:, cols], gv.grad[:, cols]
    )


def grid_zeros(basis, m):
    """Grid-route values and gradients, and the nodes where a section sums
    to an exact zero."""
    gv = grid_gauge_values(basis, m, grad=True)
    return gv, (gv.values == 0.0).any(axis=0)


def assert_matches_fd(basis, x, y, weights=None, gv=None):
    # compare on the Hessian scale: g_k carries a factor 1 / (pi k)
    if gv is None:
        gv = section_gauge_values(basis, x, y, grad=True)
    h = _metric_field(basis, gv if weights is None else weighted(gv, weights))
    h_fd = fd_metric_field(basis, x, y, weights=weights)
    assert np.max(np.abs(h - h_fd)) * np.pi * basis.k <= 1e-8


@pytest.mark.parametrize(
    "rm, k, zeros",
    [(rm, k, False) for k in (2, 3, 4, 8) for rm in (SQUARE, GENERIC)]
    + [(GENERIC, k, True) for k in (7, 9, 10)],
    ids=[f"{k}-{name}" for k in (2, 3, 4, 8) for name in ("square", "generic")]
    + [f"{k}-generic-grid-zeros" for k in (7, 9, 10)],
)
def test_omega_k_matches_finite_differences(rm, k, zeros):
    basis = theta_basis(rm, k)
    if not zeros:
        rng = np.random.default_rng(k)
        assert_matches_fd(basis, rng.uniform(size=(6, 1)), rng.uniform(size=(6, 1)))
        return
    # the nodes of the 8k grid where the grid route sums a section to exactly
    # zero: one at k = 7 and 9, three at k = 10
    grid = quadrature_grid(1, 8 * k)
    gv, zero = grid_zeros(basis, grid.m)
    assert zero.sum() == (3 if k == 10 else 1)
    assert_matches_fd(basis, grid.x[zero], grid.y[zero], gv=columns(gv, zero))


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


def assert_psd(h):
    lams = np.linalg.eigvalsh(h)
    assert np.all(np.isfinite(h))
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
    # an exact zero (values 0, gradient kept) adds its term
    # |d Theta_i|^2 / (pi k f_k), here at least a tenth of the rest, to the
    # field without section i; the d log form dropped that term
    basis = theta_basis(GENERIC, 3)
    rng = np.random.default_rng(3)
    x, y = rng.uniform(size=(6, 1)), rng.uniform(size=(6, 1))
    gv = section_gauge_values(basis, x, y, grad=True)
    values = gv.values.copy()
    values[1, 2:4] = 0.0
    h = _metric_field(basis, GaugeValue(gv.log_scale, gv.base_phase, values, gv.grad))
    assert_psd(h)
    h_w = _metric_field(basis, weighted(gv, np.array([1.0, 0.0, 1.0])))
    total = (np.abs(values[:, 2:4]) ** 2).sum(axis=0)
    term = np.abs(gv.grad[1, 2:4, 0]) ** 2 / (np.pi * basis.k * total)
    assert np.all(term >= 0.1 * np.abs(h_w[2:4, 0, 0]))
    np.testing.assert_allclose(h[2:4, 0, 0] - h_w[2:4, 0, 0], term, rtol=1e-12)


def log_form_metric_field(basis, gv):
    """Oracle: the d log form of the field, Cov_p(d log Theta) / (pi k),
    with weights p_i = exp(2 log_mag_i - max) / sum_j exp(2 log_mag_j - max)
    and d log Theta_i = grad_i / values_i; undefined at an exact zero."""
    lw = 2.0 * gv.log_mag
    e = np.exp(lw - lw.max(axis=0))
    p = e / e.sum(axis=0)
    d = gv.grad / gv.values[:, :, None]
    d = d - np.einsum("sm,sma->ma", p, d)[None]
    return np.einsum("sm,sma,smb->mab", p, d, d.conj()) / (np.pi * basis.k)


@pytest.mark.parametrize(
    "rm, k",
    [(GENERIC, k) for k in range(4, 11)] + [(COUPLED, 2)],
    ids=[f"generic-{k}" for k in range(4, 11)] + ["coupled-2"],
)
def test_metric_field_matches_log_form_weights(rm, k):
    # on the grids the suites use: the field of values and gradients is the
    # d log form to 1e-13 of each node's largest entry, floored at the flat
    # metric's (g_2 vanishes at 2-torsion nodes). At the exact section zeros
    # (GEN k = 7 and 9 on 8k^2 have one, k = 10 on 80^2 three) the d log form
    # is undefined, and the scattered route, whose roundoff leaves those
    # sections nonzero, is the reference to 1e-12
    basis = theta_basis(rm, k)
    grid = grid_for(k, rm.n)
    gv, zero = grid_zeros(basis, grid.m)
    h = _metric_field(basis, gv)
    ref = np.empty_like(h)
    ref[~zero] = log_form_metric_field(basis, columns(gv, ~zero))
    if zero.any():
        ref[zero] = omega_k_field(basis, grid.x[zero], grid.y[zero])
    scale = np.maximum(np.abs(ref).max(axis=(1, 2)), np.abs(rm.im_inv).max())
    err = np.abs(h - ref).max(axis=(1, 2))
    assert np.all(err[~zero] <= 1e-13 * scale[~zero])
    assert np.all(err[zero] <= 1e-12 * scale[zero])


@pytest.mark.parametrize("k", [7, 9, 10])
def test_omega_k_continuous_at_grid_zeros(k):
    # at the grid's exact section zeros the field equals the scattered
    # route's at points 1e-9 away to 1e-12: it has no dip there
    basis = theta_basis(GENERIC, k)
    grid = quadrature_grid(1, 8 * k)
    gv, zero = grid_zeros(basis, grid.m)
    h = _metric_field(basis, gv)[zero]
    x, y = grid.x[zero], grid.y[zero]
    for dx, dy in ((1e-9, 0.0), (0.0, 1e-9), (-1e-9, 1e-9)):
        assert np.max(np.abs(omega_k_field(basis, x + dx, y + dy) - h)) <= 1e-12


@pytest.mark.parametrize("k, m", [(7, 56), (9, 72), (10, 80)])
def test_omega_k_field_is_one_over_k_periodic(k, m):
    # translating x or y by 1/k moves each section by a root of unity or
    # permutes them, so when k | m the field repeats every m / k nodes along
    # both axes, exact section zeros included, to 1e-13 of its largest entry
    h = omega_k_metric_field(theta_basis(GENERIC, k), quadrature_grid(1, m)).h.reshape(m, m)
    for axis in (0, 1):
        shifted = np.roll(h, m // k, axis=axis)
        assert np.max(np.abs(shifted - h)) <= 1e-13 * np.abs(h).max()


def test_omega_k_rejects_common_zero_at_level_one():
    # the only level-1 section vanishes at (1/2, 1/2)
    basis = theta_basis(SQUARE, 1)
    with pytest.raises(DegenerateSample):
        omega_k_field(basis, [[0.5]], [[0.5]])
    with pytest.raises(DegenerateSample):
        balanced_matrix(basis, grid_for(1))


CHUNK_SIZES = [1, theta._CHUNK_TERMS, 4_000_000]


@pytest.mark.parametrize(
    "rm, k, m",
    [
        pytest.param(SQUARE, 3, 24, id="square-3"),
        pytest.param(GENERIC, 4, 32, id="generic-4"),
        pytest.param(COUPLED, 2, 16, id="coupled-2"),
    ],
)
def test_grid_reductions_keep_their_contract_at_any_block_size(monkeypatch, rm, k, m):
    # one x-node per block, the shipped blocks and the whole grid in one:
    # the chunk budget moves the steps, so the values keep only their
    # accuracy contract (1e-13 of the node's largest section, gradients
    # 1e-12), and so do the node means built on them: a Gram entry to
    # 2e-13 of the mean of f_k, k^n; the balanced matrix and the metric
    # forms to 1e-12 of their largest entry
    basis, grid = theta_basis(rm, k), quadrature_grid(rm.n, m)
    runs = []
    for terms, blocks in zip(CHUNK_SIZES, (m**rm.n, None, 1)):
        monkeypatch.setattr(theta, "_CHUNK_TERMS", terms)
        if blocks is not None:
            assert sum(1 for _ in grid_gauge_blocks(basis, m, grad=True)) == blocks
        field = omega_k_metric_field(basis, grid)
        runs.append((gram_matrix(basis, grid), balanced_matrix(basis, grid), field.h))
    gram_ref, bal_ref, h_ref = runs[-1]
    for gram, bal, h in runs:
        assert np.abs(gram - gram_ref).max() <= 2e-13 * k**rm.n
        assert np.abs(bal - bal_ref).max() <= 1e-12 * np.abs(bal_ref).max()
        assert np.abs(h - h_ref).max() <= 1e-12 * np.abs(h_ref).max()


def test_grid_refusals_hold_with_one_x_node_per_block(monkeypatch):
    # the level-1 common zero (1/2, 1/2) sits in the block of x-node 1/2 alone
    monkeypatch.setattr(theta, "_CHUNK_TERMS", 1)
    basis = theta_basis(SQUARE, 1)
    for reduce_grid in (omega_k_metric_field, balanced_matrix):
        with pytest.raises(DegenerateSample):
            reduce_grid(basis, grid_for(1))


def test_metric_positivity_test_is_global_with_one_x_node_per_block(monkeypatch):
    # NonPositive compares the lowest eigenvalue over every node with
    # -1e-12 times the highest over every node. Every node's lowest of its
    # two is set to -depth times the field's highest: 2e-12 fails at any
    # blocking, 0.5e-12 passes, though a block whose own highest is below
    # half the field's would fail it if judged alone
    basis, grid = theta_basis(COUPLED, 2), quadrature_grid(2, 16)
    top = np.linalg.eigvalsh(omega_k_metric_field(basis, grid).h)[:, -1].reshape(256, 256)
    assert top.max(axis=1).min() < 0.5 * top.max()
    monkeypatch.setattr(theta, "_CHUNK_TERMS", 1)
    eigvalsh = np.linalg.eigvalsh
    for depth, refused in ((2e-12, True), (0.5e-12, False)):

        def shifted(h, depth=depth):
            # only the batched call of the metric forms, not the lattice's
            lams = eigvalsh(h)
            if lams.ndim == 2:
                lams[:, 0] = -depth * top.max()
            return lams

        monkeypatch.setattr(np.linalg, "eigvalsh", shifted)
        for reduce_grid in (omega_k_metric_field, balanced_matrix):
            if refused:
                with pytest.raises(NonPositive):
                    reduce_grid(basis, grid)
            else:
                reduce_grid(basis, grid)


def traced_peak(fn, *args):
    """fn(*args) and the peak of its traced allocations, in bytes."""
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def block_bytes(basis, m, grad):
    """Bytes of the first grid block: values, scales, phases and gradients."""
    gv = next(grid_gauge_blocks(basis, m, grad=grad))
    parts = (gv.log_scale, gv.base_phase, gv.values) + ((gv.grad,) if grad else ())
    return sum(a.nbytes for a in parts)


@pytest.mark.parametrize(
    "reduce_grid, k, m, grad",
    [
        pytest.param(gram_matrix, 3, 24, False, id="gram-3"),
        pytest.param(balanced_matrix, 2, 16, True, id="balanced-2"),
    ],
)
def test_grid_reductions_hold_blocks_not_the_grid(reduce_grid, k, m, grad):
    # the coupled n = 2 grids of the benchmark's scale: holding the whole
    # grid, the Gram peaked at 101.3 MiB on 24^4 nodes and the balanced
    # matrix at 41.3 MiB on 16^4. Block by block they hold the route's
    # steps and tables and the reduction's temporaries, about ten blocks
    basis = theta_basis(COUPLED, k)
    out, peak = traced_peak(reduce_grid, basis, quadrature_grid(2, m))
    assert peak <= 16 * block_bytes(basis, m, grad) + out.nbytes


def test_metric_field_holds_the_forms_and_blocks():
    # the forms h are the one whole-grid array: 4 MiB of them on 16^4
    # nodes, where the field peaked at 36.3 MiB holding the grid's values
    basis, grid = theta_basis(COUPLED, 2), quadrature_grid(2, 16)
    field, peak = traced_peak(omega_k_metric_field, basis, grid)
    assert peak <= field.h.nbytes + 16 * block_bytes(basis, grid.m, True)


@pytest.mark.parametrize("n", [1, 2])
def test_omega_k_field_of_no_points_is_empty(n):
    rm = SQUARE if n == 1 else COUPLED
    h = omega_k_field(theta_basis(rm, 2), np.zeros((0, n)), np.zeros((0, n)))
    assert h.shape == (0, n, n)


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
    # Hermitian to the bit, n = 1 and 2
    for rm, x, y in ((GENERIC, [[0.2]], [[0.7]]), (COUPLED, [[0.2, 0.4]], [[0.7, 0.1]])):
        h = omega_k_field(theta_basis(rm, 3), x, y)[0]
        assert np.array_equal(h, h.conj().T)


def test_c0_deviation_zero_for_exact_flat_field():
    field = flat_metric_field(GENERIC, quadrature_grid(1, 8))
    assert c0_metric_deviation(field.om, field.h) == 0.0


def test_c0_deviation_decreasing_in_level():
    devs = [grid_deviation(theta_basis(SQUARE, k), grid_for(k).m) for k in (2, 4, 6, 8)]
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


@pytest.mark.parametrize(
    "sources",
    [[-1], [0.5], [[0]], "nodes", [], [True], ["0"], 0],
    ids=["negative", "fraction", "nested", "past-end", "empty", "bool", "string", "scalar"],
)
def test_geodesic_distances_refuse_bad_sources(sources):
    # SciPy read -1 as the last node, truncated 0.5 to node 0 and gave [[0]]
    # a third axis
    grid = quadrature_grid(1, 16)
    field = flat_metric_field(SQUARE, grid)
    with pytest.raises(ConfigError):
        geodesic_distances(field, [grid.size] if sources == "nodes" else sources)
    d = geodesic_distances(field, np.array([0, grid.size - 1], dtype=np.int32))
    assert d.shape == (2, grid.size) and d[0, 0] == d[1, grid.size - 1] == 0.0


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

