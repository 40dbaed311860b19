import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from theta_amoeba import ConfigError, InvalidPoints, MixedDimensions, MixedLevels, NonPositive, NotIntegral
from theta_amoeba.abelian import validate_riemann_matrix
from theta_amoeba.heisenberg import (
    GroupElement,
    commutant_dimension,
    conjugation_sum,
    group_inverse,
    group_mul,
    rho_matrix,
    shift_table,
    translate_sections,
    verify_equivariance,
)
from theta_amoeba.theta import theta_basis

from oracles import rho_monomial

RNG = np.random.default_rng(11)
GENERIC = validate_riemann_matrix([[0.3 + 1.2j]])
COUPLED = validate_riemann_matrix([[0.1 + 1.0j, 0.25 + 0.2j], [0.25 + 0.2j, -0.2 + 1.3j]])


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


@pytest.mark.parametrize(
    "c, alpha, beta",
    [(2.5, [1], [0]), (2, [1.7], [0]), (2, [1], [0.9]), (True, [1], [0]), (2, [np.nan], [0])],
    ids=["c", "alpha", "beta", "bool", "nan"],
)
def test_rejects_labels_that_are_not_integers(c, alpha, beta):
    # (2.5, [1.7], [0.9]) was stored as (2, [1], [0])
    with pytest.raises(NotIntegral):
        GroupElement(k=3, c=c, alpha=alpha, beta=beta)


@pytest.mark.parametrize("c", [[1], [1, 2]], ids=["one-entry", "two-entries"])
def test_rejects_a_central_label_that_is_not_one_integer(c):
    # int() of the label array raised numpy's bare TypeError
    with pytest.raises(NotIntegral, match="group label c must be one integer"):
        GroupElement(3, c, [0], [0])


def test_commutant_rejects_nonpositive_dimension():
    # n = 0 returned 1
    with pytest.raises(NonPositive):
        commutant_dimension(2, 0)


def test_commutant_rejects_nonpositive_level():
    # k = 0 raised a bare ZeroDivisionError
    with pytest.raises(NonPositive):
        commutant_dimension(0, 1)


@pytest.mark.parametrize("trials", [0, -1, 2.5, True, np.nan])
def test_commutant_rejects_trials_that_are_not_positive_integers(trials):
    # trials = 0 raised LinAlgError, 2.5 a TypeError
    with pytest.raises(NonPositive):
        commutant_dimension(2, 1, trials=trials)


@pytest.mark.parametrize("seed", [-1, 1.5, "0", True])
def test_commutant_rejects_seeds_that_are_not_non_negative_integers(seed):
    # seed = -1 raised a bare ValueError from default_rng
    with pytest.raises(ConfigError):
        commutant_dimension(2, 1, trials=2, seed=seed)


def test_equivariance_rejects_no_points():
    # the max over no points raised a bare ValueError
    basis = theta_basis(validate_riemann_matrix([[1j]]), 3)
    for empty in ([], np.zeros((0, 1))):
        with pytest.raises(InvalidPoints):
            verify_equivariance(basis, elem(3, 0, [1], [2]), empty, empty)


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
    m = rho_matrix(elem(4, 1, [0], [0])).to_dense()
    assert np.allclose(m, np.exp(2j * np.pi / 4) * np.eye(4), atol=1e-14)


def test_diagonal_generator_level_two():
    # alpha = 1 acts as diag(1, -1) on the two level-2 sections
    m = rho_matrix(elem(2, 0, [1], [0])).to_dense()
    assert np.allclose(m, np.diag([1.0, -1.0]), atol=1e-14)


def test_translation_generator_level_two():
    # beta = 1 swaps the two sections
    m = rho_matrix(elem(2, 0, [0], [1])).to_dense()
    assert np.allclose(m, np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-14)


def test_generator_commutation_phase():
    # A B = zeta^{-t(alpha) beta} B A
    k = 5
    a = rho_matrix(elem(k, 0, [2], [0]))
    b = rho_matrix(elem(k, 0, [0], [3]))
    lhs = a.compose(b).to_dense()
    rhs = np.exp(-2j * np.pi * 6 / k) * b.compose(a).to_dense()
    assert np.allclose(lhs, rhs, atol=1e-13)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 2), st.integers(0, 2**31 - 1))
def test_representation_is_homomorphism(k, n, seed):
    rng = np.random.default_rng(seed)
    g1 = random_elem(k, n, rng)
    g2 = random_elem(k, n, rng)
    prod = rho_matrix(g1).compose(rho_matrix(g2))
    assert prod.same_as(rho_matrix(group_mul(g1, g2)))


def test_matrices_are_unitary():
    m = rho_matrix(elem(4, 3, [1], [2])).to_dense()
    assert np.allclose(m @ m.conj().T, np.eye(4), atol=1e-13)


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


@pytest.mark.parametrize("k,n", [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2)])
def test_commutant_is_one_dimensional(k, n):
    assert commutant_dimension(k, n, trials=8, seed=123) == 1


def test_commutant_detects_reducible_subgroup():
    # sanity on the method: the conjugation sum over only the diagonal
    # subgroup (beta = 0) must leave a commutant larger than the scalars
    k, dim = 3, 3
    rng = np.random.default_rng(5)
    alpha = np.arange(k)[:, None]
    dest, exps = shift_table(k, alpha, np.zeros_like(alpha))
    rows = []
    for _ in range(8):
        h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = 0.5 * (h + h.conj().T)
        rows.append(conjugation_sum(h, dest, exps, k).ravel() / k)
    sv = np.linalg.svd(np.array(rows), compute_uv=False)
    assert np.sum(sv > 1e-8 * sv[0]) == dim


def every_element(k, n, c):
    idx = np.array(list(itertools.product(range(k), repeat=n)), dtype=int)
    return [GroupElement(k=k, c=c, alpha=a, beta=b) for a in idx for b in idx]


@pytest.mark.parametrize("k, n", [(k, 1) for k in range(1, 7)] + [(k, 2) for k in range(1, 5)])
def test_rho_matrix_is_the_index_formula(k, n):
    # the table-built rho against the formula it replaced, every (alpha,
    # beta) with c in {0, 1}, exact in dest and exps
    for c in (0, 1):
        for g in every_element(k, n, c):
            dest, exps = rho_monomial(g)
            m = rho_matrix(g)
            assert np.array_equal(m.dest, dest) and np.array_equal(m.exps, exps), g


@pytest.mark.parametrize("k, n", [(3, 1), (5, 1), (2, 2), (3, 2)])
def test_conjugation_sum_is_the_dense_group_sum(k, n):
    # sum_g rho(g)^{-1} x rho(g) over a random batch of elements, against
    # dense matrices and their inverses
    rng = np.random.default_rng(k + 10 * n)
    alpha, beta = rng.integers(k, size=(2, 7, n))
    x = rng.normal(size=(k**n, k**n)) + 1j * rng.normal(size=(k**n, k**n))
    dense = [rho_matrix(GroupElement(k, 0, a, b)).to_dense() for a, b in zip(alpha, beta)]
    expected = sum(np.linalg.inv(d) @ x @ d for d in dense)
    ours = conjugation_sum(x, *shift_table(k, alpha, beta), k)
    assert np.max(np.abs(ours - expected)) <= 1e-13 * np.max(np.abs(expected))


CELL_CASES = [(GENERIC, k) for k in range(2, 7)] + [(COUPLED, k) for k in (2, 3)]


@pytest.mark.parametrize("om, k", CELL_CASES, ids=[f"n{om.n}-k{k}" for om, k in CELL_CASES])
def test_equivariance_at_the_nodes_of_one_cell(om, k):
    # one seeded random element per level, at every node of one (1/k)-cell
    # of the 4k-grid (n = 2) or the 8k-grid (n = 1)
    n = om.n
    m = (8 if n == 1 else 4) * k
    nodes = np.indices((m // k,) * 2 * n).reshape(2 * n, -1).T / m
    g = random_elem(k, n, np.random.default_rng(k))
    assert verify_equivariance(theta_basis(om, k), g, nodes[:, :n], nodes[:, n:]) < 1e-10


@pytest.mark.parametrize(
    "alpha, beta",
    [([1], [0, 1]), ([[1]], [[0]]), (1, 0), ([], [])],
    ids=["lengths", "nested", "scalar", "empty"],
)
def test_group_element_takes_vectors_of_one_length(alpha, beta):
    # [1] with [0, 1] and [[1]] with [[0]] were accepted, the nested pair
    # giving rho_matrix a (1, 3) dest; scalars raised a bare IndexError in
    # rho_matrix and empty labels a bare ValueError
    with pytest.raises(MixedDimensions):
        GroupElement(3, 0, alpha, beta)


def test_mixed_dimensions_rejected():
    # matmul raised a bare ValueError
    with pytest.raises(MixedDimensions):
        group_mul(elem(3, 0, [1], [2]), elem(3, 0, [1, 0], [2, 2]))


def test_compose_rejects_mixed_sizes():
    # a 4- by a 2-dimensional matrix returned dest = [2, 3], and the other
    # order raised a bare IndexError
    big, small = rho_matrix(elem(2, 0, [1, 0], [1, 1])), rho_matrix(elem(2, 0, [1], [1]))
    for a, b in ((big, small), (small, big)):
        with pytest.raises(MixedDimensions):
            a.compose(b)


def test_equivariance_rejects_mismatched_dimension():
    # an n = 2 basis with 1-long labels raised matmul's bare ValueError
    basis = theta_basis(COUPLED, 2)
    g = elem(2, 0, [1], [1])
    with pytest.raises(MixedDimensions):
        verify_equivariance(basis, g, [[0.1, 0.2]], [[0.3, 0.4]])
    with pytest.raises(MixedDimensions):
        translate_sections(basis, g, [[0.1, 0.2]], [[0.3, 0.4]])
