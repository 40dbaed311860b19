"""Finite Heisenberg group acting on the level-k theta basis.

Elements are triples (c, alpha, beta) with c in Z/k central and
alpha, beta in (Z/k)^n encoding the translations Omega alpha / k and
beta / k. All phases are k-th roots of unity, tracked as exact integer
exponents, so representation identities hold to rounding error only when
matrices are finally materialized.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import MixedLevels
from .theta import ThetaBasis, _as_points, _level, section_gauge_values


@dataclass(frozen=True, eq=False)
class GroupElement:
    """(c, alpha, beta) in the level-k finite Heisenberg group."""

    k: int
    c: int
    alpha: np.ndarray
    beta: np.ndarray

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupElement)
            and self.k == other.k
            and self.c == other.c
            and np.array_equal(self.alpha, other.alpha)
            and np.array_equal(self.beta, other.beta)
        )

    def __hash__(self):
        return hash((self.k, self.c, self.alpha.tobytes(), self.beta.tobytes()))

    def __post_init__(self):
        object.__setattr__(self, "k", _level(self.k))
        object.__setattr__(self, "c", int(self.c) % self.k)
        object.__setattr__(
            self, "alpha", np.mod(np.asarray(self.alpha, dtype=int), self.k)
        )
        object.__setattr__(
            self, "beta", np.mod(np.asarray(self.beta, dtype=int), self.k)
        )


def group_mul(g1: GroupElement, g2: GroupElement) -> GroupElement:
    """Product with cocycle zeta^{t(alpha_2) beta_1}."""
    if g1.k != g2.k:
        raise MixedLevels(f"cannot multiply levels {g1.k} and {g2.k}")
    c = g1.c + g2.c + int(g2.alpha @ g1.beta)
    return GroupElement(
        k=g1.k, c=c, alpha=g1.alpha + g2.alpha, beta=g1.beta + g2.beta
    )


def group_inverse(g: GroupElement) -> GroupElement:
    return GroupElement(
        k=g.k, c=-g.c + int(g.alpha @ g.beta), alpha=-g.alpha, beta=-g.beta
    )


@dataclass(frozen=True)
class MonomialMatrix:
    """One nonzero entry per column: column i carries zeta^{exps[i]} in
    row dest[i]. Exponents are exact integers mod k."""

    k: int
    dest: np.ndarray
    exps: np.ndarray

    @property
    def dim(self) -> int:
        return self.dest.size

    def to_dense(self) -> np.ndarray:
        zeta = np.exp(2j * np.pi / self.k)
        m = np.zeros((self.dim, self.dim), dtype=complex)
        m[self.dest, np.arange(self.dim)] = zeta ** self.exps
        return m

    def compose(self, other: "MonomialMatrix") -> "MonomialMatrix":
        """Matrix product self @ other, exact in the exponents."""
        if self.k != other.k:
            raise MixedLevels(f"cannot compose levels {self.k} and {other.k}")
        return MonomialMatrix(
            k=self.k,
            dest=self.dest[other.dest],
            exps=np.mod(self.exps[other.dest] + other.exps, self.k),
        )

    def inverse(self) -> "MonomialMatrix":
        inv_dest = np.empty_like(self.dest)
        inv_dest[self.dest] = np.arange(self.dim)
        return MonomialMatrix(
            k=self.k, dest=inv_dest, exps=np.mod(-self.exps[inv_dest], self.k)
        )

    def same_as(self, other: "MonomialMatrix") -> bool:
        return (
            self.k == other.k
            and np.array_equal(self.dest, other.dest)
            and np.array_equal(self.exps, other.exps)
        )


def _index_table(k: int, n: int):
    idx = np.array(list(itertools.product(range(k), repeat=n)), dtype=int)
    strides = k ** np.arange(n - 1, -1, -1)
    return idx, strides


def rho_matrix(g: GroupElement, n: int) -> MonomialMatrix:
    """Level-k monomial representation on the theta basis.

    rho(c, alpha, beta) = zeta^c A(alpha) B(beta) with A diagonal,
    A s_i = zeta^{t(alpha) i} s_i, and B the translation s_i -> s_{i - beta}.
    """
    idx, strides = _index_table(g.k, n)
    target = np.mod(idx - g.beta[None, :], g.k)
    dest = target @ strides
    exps = np.mod(g.c + target @ g.alpha, g.k)
    return MonomialMatrix(k=g.k, dest=dest, exps=exps)


def translate_sections(basis: ThetaBasis, g: GroupElement, x, y) -> np.ndarray:
    """Apply the analytic translation operator U_g to every basis section.

    In the unitary gauge, with a = alpha/k and b = beta/k,
      (U_g s)(x, y) = zeta^c e^{i pi k t(a) y} e^{-i pi k t(x + a) b}
                      s(x + a, y + b).
    Returns complex section values of shape (n_sections, n_points).
    """
    if g.k != basis.k:
        raise MixedLevels(f"group level {g.k} does not match basis level {basis.k}")
    x, y = _as_points(x, y, basis.om.n)
    a = g.alpha / g.k
    b = g.beta / g.k
    vals = section_gauge_values(basis, x + a, y + b).complex_values()
    phase = (
        2.0 * np.pi * g.c / g.k
        + np.pi * basis.k * (y @ a)
        - np.pi * basis.k * ((x + a) @ b)
    )
    return vals * np.exp(1j * phase)[None, :]


def verify_equivariance(basis: ThetaBasis, g: GroupElement, x, y) -> float:
    """Max absolute defect between U_g on sections and the monomial matrix.

    Checks, columnwise, U_g s_i = sum_j rho(g)_{ji} s_j at the given
    points.
    """
    analytic = translate_sections(basis, g, x, y)
    base = section_gauge_values(basis, x, y).complex_values()
    algebraic = rho_matrix(g, basis.om.n).to_dense().T @ base
    return float(np.max(np.abs(analytic - algebraic)))


def commutant_dimension(k: int, n: int, trials: int = 20, seed: int = 0) -> int:
    """Dimension of the span of G-averaged random Hermitian matrices.

    Averaging X -> mean_g rho(g) X rho(g)^{-1} over the k^{2n} elements
    with trivial center projects onto the commutant; a one-dimensional
    span certifies the representation is irreducible.
    """
    k = _level(k)
    dim = k**n
    rng = np.random.default_rng(seed)
    mats = []
    for alpha in itertools.product(range(k), repeat=n):
        for beta in itertools.product(range(k), repeat=n):
            g = GroupElement(k=k, c=0, alpha=np.array(alpha), beta=np.array(beta))
            mats.append(rho_matrix(g, n))
    dense = [m.to_dense() for m in mats]
    inv = [m.inverse().to_dense() for m in mats]
    rows = []
    for _ in range(trials):
        h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = 0.5 * (h + h.conj().T)
        avg = sum(d @ h @ i for d, i in zip(dense, inv)) / len(dense)
        rows.append(avg.ravel())
    sv = np.linalg.svd(np.array(rows), compute_uv=False)
    return int(np.sum(sv > 1e-8 * max(sv[0], 1.0)))
