"""End-to-end acceptance checks, one test per headline claim.

Each test exercises the public API at the scales the library targets
(n = 1 with k up to 16, n = 2 with k up to 4) and asserts the quantitative
thresholds the suites are built around.
"""

import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from theta_amoeba.abelian import validate_riemann_matrix
from theta_amoeba.gh import convergence_suite
from theta_amoeba.heisenberg import (
    GroupElement,
    commutant_dimension,
    group_mul,
    rho_matrix,
    verify_equivariance,
)
from theta_amoeba.metrics import balanced_matrix, gram_matrix, quadrature_grid
from theta_amoeba.mirror import (
    addition_formula_residual,
    intersection_count_vs_dimension,
    triangle_coefficient,
)
from theta_amoeba.quantization import (
    berg_reconstruct,
    bs_fibers_abelian,
    bs_points_cp1,
    bsz_comparison,
    peak_section_suite,
)
from theta_amoeba.theta import ThetaBasis, distortion_fk, theta_basis, theta_char

SQUARE = validate_riemann_matrix([[1j]])
GENERIC = validate_riemann_matrix([[0.3 + 1.2j]])
DIAG2 = validate_riemann_matrix(np.diag([1j, 2j]) + 0.0)


@pytest.mark.parametrize("om", [SQUARE, GENERIC], ids=["square", "generic"])
@pytest.mark.parametrize("k", range(1, 9))
def test_accept_01_orthonormality(om, k):
    grid = quadrature_grid(1, 8 * k)
    gram = gram_matrix(theta_basis(om, k), grid)
    assert np.max(np.abs(gram - np.eye(k))) < 1e-8


@pytest.mark.parametrize("om", [SQUARE, GENERIC], ids=["square", "generic"])
@pytest.mark.parametrize("k", range(1, 9))
def test_accept_02_distortion_normalization_n1(om, k):
    grid = quadrature_grid(1, 8 * k)
    mean = distortion_fk(theta_basis(om, k), grid.x, grid.y).mean()
    assert abs(mean - k) < 1e-8 * k


@pytest.mark.parametrize("k", [1, 2, 3])
def test_accept_02_distortion_normalization_n2(k):
    # the integrand is a trig polynomial whose coefficients past frequency 12
    # are below 1e-30, so the grid-12 mean is exact at the target tolerance
    grid = quadrature_grid(2, 12)
    mean = distortion_fk(theta_basis(DIAG2, k), grid.x, grid.y, mode="direct").mean()
    assert abs(mean - k**2) < 1e-8 * k**2


def test_accept_03_balanced_condition():
    basis = theta_basis(GENERIC, 3)
    grid = quadrature_grid(1, 24)
    m = balanced_matrix(basis, grid)
    tr = m.trace().real / 3
    assert np.max(np.abs(m - tr * np.eye(3))) / tr < 1e-5
    # negative control: three of the four level-4 sections are not balanced
    # (two of them are, to roundoff)
    partial = ThetaBasis(om=GENERIC, k=4, indices=theta_basis(GENERIC, 4).indices[:3])
    m_bad = balanced_matrix(partial, quadrature_grid(1, 32))
    tr_bad = m_bad.trace().real / 3
    assert np.max(np.abs(m_bad - tr_bad * np.eye(3))) / tr_bad > 0.1


def test_accept_04_heisenberg():
    for k in (2, 3):
        els = [
            GroupElement(k, c, np.array([a]), np.array([b]))
            for c, a, b in itertools.product(range(k), repeat=3)
        ]
        # group law and representation property, exact integer arithmetic
        for g, h in itertools.product(els[: k * k], els[: k * k]):
            lhs = rho_matrix(group_mul(g, h))
            rhs = rho_matrix(g).compose(rho_matrix(h))
            assert lhs.same_as(rhs)
        rng = np.random.default_rng(4)
        basis = theta_basis(SQUARE, k)
        xs = rng.uniform(size=(5, 1))
        ys = rng.uniform(size=(5, 1))
        for g in els:
            m = rho_matrix(g).to_dense()
            assert np.allclose(m @ m.conj().T, np.eye(k), atol=1e-14)
            assert verify_equivariance(basis, g, xs, ys) < 1e-8
        assert commutant_dimension(k, 1) == 1


def test_accept_05_bs_counts():
    for k in range(1, 9):
        assert len(bs_fibers_abelian(SQUARE, k).points) == k
    for k in (1, 2, 3):
        assert len(bs_fibers_abelian(DIAG2, k).points) == k**2
    for k in range(1, 11):
        fs = bs_points_cp1(k)
        assert len(fs.points) == k + 1
        assert fs.points == tuple(Fraction(2 * i - k, k) for i in range(k + 1))


def test_accept_06_mirror_example():
    rng = np.random.default_rng(6)
    for _ in range(10):
        tau = rng.uniform(-1.0, 1.0) + 1j * rng.uniform(0.5, 3.0)
        om_eff = np.array([[2.0 * tau]])
        z0 = np.zeros((1, 1))
        ref0 = theta_char(om_eff, z0)[0]
        ref1 = theta_char(om_eff, z0, a=np.array([0.5]))[0]
        assert abs(triangle_coefficient(tau, "b0") - ref0) < 1e-9 * abs(ref0)
        assert abs(triangle_coefficient(tau, "b1") - ref1) < 1e-9 * abs(ref1)
    for tau in (1j, 0.5 + 1j, 2j):
        u, v = np.meshgrid(np.linspace(0.0, 1.0, 10), np.linspace(0.0, 1.0, 10))
        assert addition_formula_residual(tau, (u + tau * v).ravel()) < 1e-9
    for k in range(1, 11):
        assert intersection_count_vs_dimension(k) == (k, k)


@pytest.mark.parametrize("k", [1, 2, 4])
def test_accept_07_reconstruction(k):
    rng = np.random.default_rng(7)
    basis = theta_basis(SQUARE, k)
    res = berg_reconstruct(
        basis, 0, rng.uniform(0.05, 0.95, (20, 1)), rng.uniform(0.05, 0.95, (20, 1))
    )
    assert res.ratio_rel_std < 1e-6
    # the measured constant is reported against the closed-form prediction
    # and flagged, not asserted
    discrepancy = abs(res.measured_abs - res.printed_abs) / res.printed_abs
    print(
        f"k={k}: measured {res.measured_abs:.12g}, predicted {res.printed_abs:.12g},"
        f" rel discrepancy {discrepancy:.3g}, agree={res.printed_matches}"
    )
    assert isinstance(res.printed_matches, bool)


def test_accept_08_metric_convergence():
    report = convergence_suite(SQUARE, list(range(2, 11)), seed=8)
    c0 = report.rows["c0_deviation"]
    assert np.all(np.diff(c0) < 0.0)
    assert report.slopes["c0_deviation"][0] <= -1.0
    assert report.slopes["gh_ub_metric"][0] <= -1.0


def test_accept_09_fibration_convergence():
    start = time.monotonic()
    report = convergence_suite(SQUARE, [4, 9, 16], seed=9)
    elapsed = time.monotonic() - start
    assert report.slopes["phi_distortion"][0] <= -0.5
    assert report.slopes["phi_covering_radius"][0] <= -0.5
    assert report.slopes["coupled_defect"][0] <= -0.5
    assert elapsed < 180.0


def test_accept_10_peak_sections():
    diags = {k: peak_section_suite(SQUARE, k) for k in (2, 4, 8, 16)}
    for k in (2, 4, 8):
        assert diags[k].proportionality_residual < 1e-6
    # peak sections on flat tori are exactly proportional to an orthonormal
    # basis, so the Gram off-diagonals sit at quadrature roundoff for every
    # level; accept either a genuine decrease or the machine-noise floor
    offs = [diags[k].gram_offdiag_max for k in (2, 4, 8)]
    assert all(b <= a for a, b in zip(offs, offs[1:])) or max(offs) < 1e-12
    assert 0.9 < diags[8].band_min <= diags[8].band_max < 1.1
    assert diags[16].band_max - diags[16].band_min < diags[8].band_max - diags[8].band_min
    for k in (2, 4, 8):
        assert diags[k].decay_r2 > 0.99


def test_accept_11_bsz_model():
    errs = [bsz_comparison(SQUARE, k, seed=11) for k in (4, 16, 64)]
    slope = np.polyfit(np.log([4.0, 16.0, 64.0]), np.log(errs), 1)[0]
    assert slope <= -0.4

