"""Mirror-side bookkeeping for the two-torus.

A one-dimensional complex torus with a level k polarization has a mirror
description by affine lines in a flat two-torus.  Intersection points of two
such lines index morphisms, and weighted triangle counts through those points
reproduce the structure constants of theta multiplication.  The module
enumerates intersections, sums the triangle weight series, and checks the
resulting quadratic addition rule numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    InvalidPoints,
    NonPositive,
    NotIntegral,
    ParallelLagrangians,
    SameLagrangian,
)
from .theta import _level, theta_char


@dataclass(frozen=True)
class AffineLagrangian:
    """Line y = slope * x + offset in the square two-torus.

    The slope is the degree of the line bundle the line corresponds to, so
    it must be a nonnegative integer.  The offset lives on the circle and is
    stored reduced to [0, 1).
    """

    slope: int
    offset: Fraction

    def __post_init__(self):
        if isinstance(self.slope, bool) or not isinstance(self.slope, int):
            raise NotIntegral(f"slope must be a nonnegative integer, got {self.slope!r}")
        if self.slope < 0:
            raise ValueError("slope must be a nonnegative integer")
        object.__setattr__(self, "offset", Fraction(self.offset) % 1)


def intersections(l1: AffineLagrangian, l2: AffineLagrangian) -> tuple[Fraction, ...]:
    """x-coordinates of the transverse intersection points, sorted in [0, 1).

    Lines of slopes m1 and m2 meet in |m1 - m2| points on the torus, at
    x = (c1 - c2 + j) / (m2 - m1) for j = 0, ..., |m2 - m1| - 1.
    """
    if l1.slope == l2.slope:
        if l1.offset == l2.offset:
            raise SameLagrangian("identical lines have no transverse intersection")
        raise ParallelLagrangians("equal slopes with distinct offsets never meet")
    d = l2.slope - l1.slope
    pts = [Fraction(l1.offset - l2.offset + j, d) % 1 for j in range(abs(d))]
    return tuple(sorted(pts))


def triangle_coefficient(tau: complex, target: str) -> complex:
    """Area-weighted count of triangles contributing to one structure constant.

    Sums exp(2 pi i tau m^2) over m in Z (target "b0") or Z + 1/2 (target
    "b1").  Each term is the exponentiated area of one triangle family on the
    mirror torus.  The sum is the theta constant theta[delta; 0](2 tau, 0),
    delta = 0 or 1/2, evaluated by the shared lattice-sum kernel and its
    truncation rule.
    """
    tau = complex(tau)
    if not (np.isfinite(tau) and tau.imag > 0.0):
        raise NonPositive(f"tau must be finite with positive imaginary part, got {tau!r}")
    if target == "b0":
        delta = 0.0
    elif target == "b1":
        delta = 0.5
    else:
        raise ValueError(f"unknown target {target!r}")
    return complex(theta_char([[2.0 * tau]], [[0.0]], a=[delta])[0])


def _theta_series(tau: complex, z: np.ndarray, a: float) -> np.ndarray:
    # one-variable theta[a; 0](tau, z) over z of any shape
    z = np.asarray(z, dtype=complex)
    return theta_char([[tau]], z.reshape(-1, 1), a=[a]).reshape(z.shape)


def addition_formula_residual(tau: complex, z) -> float:
    """Max deviation of theta(z)^2 from its mirror triangle-count expansion.

    theta(tau, z)^2 = b0(tau) theta[0](2 tau, 2 z)
                    + b1(tau) theta[1/2](2 tau, 2 z)
    where b0 and b1 are the two triangle coefficients.  Returns the largest
    absolute residual over the supplied z values, relative to the largest
    magnitude of theta(z)^2. An empty or non-finite z raises InvalidPoints.
    """
    b0, b1 = triangle_coefficient(tau, "b0"), triangle_coefficient(tau, "b1")
    z = np.asarray(z, dtype=complex)
    if not (z.size and np.isfinite(z).all()):
        raise InvalidPoints("z must be a nonempty batch of finite values")
    lhs = _theta_series(tau, z, 0.0) ** 2
    rhs = b0 * _theta_series(2.0 * tau, 2.0 * z, 0.0) + b1 * _theta_series(2.0 * tau, 2.0 * z, 0.5)
    scale = max(float(np.max(np.abs(lhs))), 1.0)
    return float(np.max(np.abs(lhs - rhs)) / scale)


def intersection_count_vs_dimension(k: int) -> tuple[int, int]:
    """Intersection count of slope-0 and slope-k lines next to the section count.

    The two numbers agree for every positive k: the lines meet in k points and
    the degree k bundle on the torus has a k-dimensional space of sections.
    """
    k = _level(k)
    pts = intersections(AffineLagrangian(0, Fraction(0)), AffineLagrangian(k, Fraction(0)))
    return len(pts), k
