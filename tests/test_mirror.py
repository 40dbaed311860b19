from fractions import Fraction

import mpmath
import numpy as np
import pytest

from theta_amoeba import (
    ConfigError,
    InvalidPoints,
    NonPositive,
    NotIntegral,
    ParallelLagrangians,
    SameLagrangian,
)
from theta_amoeba.mirror import (
    AffineLagrangian,
    addition_formula_residual,
    intersection_count_vs_dimension,
    intersections,
    triangle_coefficient,
)
from theta_amoeba.theta import theta_char

RNG = np.random.default_rng(73)


def mp_coefficient(tau: complex, delta: float) -> complex:
    # independent high-precision evaluation of the same Gaussian sum
    with mpmath.workdps(40):
        t = mpmath.mpc(tau)
        total = mpmath.nsum(
            lambda m: mpmath.exp(2j * mpmath.pi * t * (m + delta) ** 2),
            [-mpmath.inf, mpmath.inf],
        )
        return complex(total)


def test_lagrangian_offset_reduced():
    line = AffineLagrangian(2, Fraction(7, 3))
    assert line.offset == Fraction(1, 3)


def test_lagrangian_rejects_negative_slope():
    # NotIntegral is a ValueError too, which callers caught before
    with pytest.raises(NotIntegral, match="nonnegative integer, got -1"):
        AffineLagrangian(-1, Fraction(0))


@pytest.mark.parametrize("slope", [True, 1.5], ids=["bool", "fraction"])
def test_lagrangian_rejects_slopes_that_are_not_integers(slope):
    # AffineLagrangian(True, 0.5) kept slope=True
    with pytest.raises(NotIntegral):
        AffineLagrangian(slope, Fraction(1, 2))


def test_intersections_slope_gap_two():
    pts = intersections(
        AffineLagrangian(1, Fraction(0)), AffineLagrangian(3, Fraction(1, 2))
    )
    assert pts == (Fraction(1, 4), Fraction(3, 4))


def test_intersections_order_independent_count():
    a = AffineLagrangian(0, Fraction(1, 5))
    b = AffineLagrangian(4, Fraction(0))
    assert len(intersections(a, b)) == len(intersections(b, a)) == 4


def test_intersections_parallel_raises():
    with pytest.raises(ParallelLagrangians):
        intersections(AffineLagrangian(2, Fraction(0)), AffineLagrangian(2, Fraction(1, 3)))


def test_intersections_identical_raises():
    with pytest.raises(SameLagrangian):
        intersections(AffineLagrangian(2, Fraction(1, 3)), AffineLagrangian(2, Fraction(1, 3)))


@pytest.mark.parametrize("k", range(1, 11))
def test_intersection_count_matches_section_count(k):
    count, dim = intersection_count_vs_dimension(k)
    assert count == dim == k


def test_triangle_coefficient_square_torus_value():
    # direct partial sum at tau = i: 1 + 2 e^{-2 pi} + 2 e^{-8 pi} + ...
    direct = 1.0 + 2.0 * sum(np.exp(-2.0 * np.pi * m * m) for m in range(1, 8))
    val = triangle_coefficient(1j, "b0")
    assert direct == pytest.approx(1.0037348855, abs=1e-9)
    assert val == pytest.approx(direct, abs=1e-12)
    assert abs(val.imag) < 1e-15


def test_triangle_coefficient_matches_theta_engine():
    for tau in (1j, 0.5 + 1j, 2j, -0.3 + 0.7j):
        om_eff = np.array([[2.0 * tau]])
        z0 = np.zeros((1, 1))
        b0 = theta_char(om_eff, z0)[0]
        b1 = theta_char(om_eff, z0, a=np.array([0.5]))[0]
        assert triangle_coefficient(tau, "b0") == pytest.approx(b0, abs=1e-10)
        assert triangle_coefficient(tau, "b1") == pytest.approx(b1, abs=1e-10)


def test_triangle_coefficient_against_nome_series():
    for _ in range(10):
        tau = RNG.uniform(-1.0, 1.0) + 1j * RNG.uniform(0.5, 3.0)
        assert triangle_coefficient(tau, "b0") == pytest.approx(
            mp_coefficient(tau, 0.0), abs=1e-9
        )
        assert triangle_coefficient(tau, "b1") == pytest.approx(
            mp_coefficient(tau, 0.5), abs=1e-9
        )


def test_triangle_coefficient_rejects_bad_tau():
    with pytest.raises(NonPositive):
        triangle_coefficient(0.5 - 1j, "b0")
    with pytest.raises(ConfigError, match="unknown target 'b2'"):
        triangle_coefficient(1j, "b2")


@pytest.mark.parametrize("tau", [complex(np.nan, 1.0), complex(np.inf, 1.0), complex(0.0, np.inf)])
def test_triangle_coefficient_rejects_non_finite_tau(tau):
    # nan + 1j raised a bare ZeroDivisionError
    with pytest.raises(NonPositive):
        triangle_coefficient(tau, "b0")


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_addition_formula_rejects_non_finite_z(bad):
    # a NaN z gave a NaN residual
    with pytest.raises(InvalidPoints):
        addition_formula_residual(1j, [0.25, bad])


def test_addition_formula_rejects_no_z():
    # the max over no z raised a bare ValueError
    for empty in ([], np.zeros((0, 3))):
        with pytest.raises(InvalidPoints):
            addition_formula_residual(1j, empty)


@pytest.mark.parametrize("tau", [1j, 0.5 + 1j, 2j])
def test_addition_formula_on_grid(tau):
    u, v = np.meshgrid(np.linspace(0.0, 1.0, 10), np.linspace(0.0, 1.0, 10))
    z = (u + tau * v).ravel()
    assert addition_formula_residual(tau, z) < 1e-9


def test_addition_formula_random_tau():
    for _ in range(5):
        tau = RNG.uniform(-0.5, 0.5) + 1j * RNG.uniform(0.6, 2.0)
        z = RNG.uniform(-1.0, 1.0, 16) + tau * RNG.uniform(0.0, 1.0, 16)
        assert addition_formula_residual(tau, z) < 1e-9


def test_count_rejects_nonpositive_level():
    with pytest.raises(NonPositive):
        intersection_count_vs_dimension(0)


@pytest.mark.parametrize("k", [True, 2.5, np.nan], ids=["bool", "fraction", "nan"])
def test_count_rejects_levels_that_are_not_positive_integers(k):
    # True returned (1, True)
    with pytest.raises(NonPositive):
        intersection_count_vs_dimension(k)
