import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from theta_amoeba import MixedLevels, NonPositive
from theta_amoeba.abelian import validate_riemann_matrix
from theta_amoeba.heisenberg import (
    GroupElement,
    commutant_dimension,
    group_inverse,
    group_mul,
    rho_matrix,
    verify_equivariance,
)
from theta_amoeba.theta import theta_basis

RNG = np.random.default_rng(11)


def elem(k, c, alpha, beta):
    return GroupElement(k=k, c=c, alpha=np.atleast_1d(alpha), beta=np.atleast_1d(beta))


def random_elem(k, n, rng):
    return GroupElement(
        k=k,
        c=int(rng.integers(k)),
        alpha=rng.integers(k, size=n),
        beta=rng.integers(k, size=n),
    )


def test_rejects_nonpositive_level():
    with pytest.raises(NonPositive):
        elem(0, 0, 0, 0)


@pytest.mark.parametrize("k", [2.5, True, np.nan, np.inf], ids=["fraction", "bool", "nan", "inf"])
def test_rejects_levels_that_are_not_positive_integers(k):
    # k = 2.5 built float exponents, and True and NaN were accepted
    with pytest.raises(NonPositive):
        elem(k, 0, 0, 0)


def test_integral_level_is_stored_as_int():
    g = elem(np.int64(3), 4, [5], [1])
    assert type(g.k) is int and g == elem(3, 1, [2], [1])


def test_commutant_rejects_nonpositive_level():
    # k = 0 raised a bare ZeroDivisionError
    with pytest.raises(NonPositive):
        commutant_dimension(0, 1)


def test_identity_and_inverse():
    g = elem(5, 3, [2], [4])
    e = elem(5, 0, [0], [0])
    assert group_mul(g, e) == g
    assert group_mul(e, g) == g
    assert group_mul(g, group_inverse(g)) == e
    assert group_mul(group_inverse(g), g) == e


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 7), st.integers(1, 2), st.integers(0, 2**31 - 1))
def test_associativity(k, n, seed):
    rng = np.random.default_rng(seed)
    g1, g2, g3 = (random_elem(k, n, rng) for _ in range(3))
    lhs = group_mul(group_mul(g1, g2), g3)
    rhs = group_mul(g1, group_mul(g2, g3))
    assert lhs == rhs


def test_mixed_levels_rejected():
    with pytest.raises(MixedLevels):
        group_mul(elem(2, 0, 0, 0), elem(3, 0, 0, 0))


def test_central_element_is_scalar_root_of_unity():
    m = rho_matrix(elem(4, 1, [0], [0]), 1).to_dense()
    assert np.allclose(m, np.exp(2j * np.pi / 4) * np.eye(4), atol=1e-14)


def test_diagonal_generator_level_two():
    # alpha = 1 acts as diag(1, -1) on the two level-2 sections
    m = rho_matrix(elem(2, 0, [1], [0]), 1).to_dense()
    assert np.allclose(m, np.diag([1.0, -1.0]), atol=1e-14)


def test_translation_generator_level_two():
    # beta = 1 swaps the two sections
    m = rho_matrix(elem(2, 0, [0], [1]), 1).to_dense()
    assert np.allclose(m, np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-14)


def test_generator_commutation_phase():
    # A B = zeta^{-t(alpha) beta} B A
    k = 5
    a = rho_matrix(elem(k, 0, [2], [0]), 1)
    b = rho_matrix(elem(k, 0, [0], [3]), 1)
    lhs = a.compose(b).to_dense()
    rhs = np.exp(-2j * np.pi * 6 / k) * b.compose(a).to_dense()
    assert np.allclose(lhs, rhs, atol=1e-13)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 2), st.integers(0, 2**31 - 1))
def test_representation_is_homomorphism(k, n, seed):
    rng = np.random.default_rng(seed)
    g1 = random_elem(k, n, rng)
    g2 = random_elem(k, n, rng)
    prod = rho_matrix(g1, n).compose(rho_matrix(g2, n))
    assert prod.same_as(rho_matrix(group_mul(g1, g2), n))


def test_matrices_are_unitary():
    m = rho_matrix(elem(4, 3, [1], [2]), 1).to_dense()
    assert np.allclose(m @ m.conj().T, np.eye(4), atol=1e-13)


def test_monomial_inverse_matches_dense_inverse():
    m = rho_matrix(elem(6, 2, [3], [5]), 1)
    assert np.allclose(
        m.inverse().to_dense(), np.linalg.inv(m.to_dense()), atol=1e-12
    )


@pytest.mark.parametrize("k", [2, 3, 5])
def test_equivariance_generic_period_matrix(k):
    rm = validate_riemann_matrix([[0.3 + 1.2j]])
    basis = theta_basis(rm, k)
    x = RNG.uniform(size=(5, 1))
    y = RNG.uniform(size=(5, 1))
    for g in [
        elem(k, 0, [1], [0]),
        elem(k, 0, [0], [1]),
        elem(k, 1, [1], [1]),
        elem(k, 2, [k - 1], [1]),
    ]:
        assert verify_equivariance(basis, g, x, y) < 1e-10


def test_equivariance_two_dimensional():
    rm = validate_riemann_matrix(
        np.array([[0.2 + 1.0j, 0.1 + 0.3j], [0.1 + 0.3j, 1.5j]])
    )
    basis = theta_basis(rm, 2)
    x = RNG.uniform(size=(3, 2))
    y = RNG.uniform(size=(3, 2))
    g = GroupElement(k=2, c=1, alpha=np.array([1, 0]), beta=np.array([1, 1]))
    assert verify_equivariance(basis, g, x, y) < 1e-10


def test_equivariance_rejects_mismatched_level():
    rm = validate_riemann_matrix([[1j]])
    basis = theta_basis(rm, 3)
    with pytest.raises(MixedLevels):
        verify_equivariance(basis, elem(2, 0, [1], [0]), [[0.1]], [[0.2]])


@pytest.mark.parametrize("k,n", [(2, 1), (3, 1), (4, 1), (2, 2)])
def test_commutant_is_one_dimensional(k, n):
    assert commutant_dimension(k, n, trials=8, seed=123) == 1


def test_commutant_detects_reducible_subgroup():
    # sanity on the method: averaging over only the diagonal subgroup
    # (beta = 0) must leave a commutant larger than the scalars
    import itertools as it

    k, n, dim = 3, 1, 3
    rng = np.random.default_rng(5)
    mats = [rho_matrix(elem(k, 0, [a], [0]), n) for a in range(k)]
    rows = []
    for _ in range(8):
        h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = 0.5 * (h + h.conj().T)
        avg = sum(
            m.to_dense() @ h @ m.inverse().to_dense() for m in mats
        ) / len(mats)
        rows.append(avg.ravel())
    sv = np.linalg.svd(np.array(rows), compute_uv=False)
    assert np.sum(sv > 1e-8 * sv[0]) == dim
