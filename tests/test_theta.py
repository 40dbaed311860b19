import itertools
import os
import sys
import threading
import time
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from theta_amoeba import (
    ConfigError,
    InvalidPoints,
    NonPositive,
    NotSymmetric,
    TruncationOverflow,
    theta,
)
from theta_amoeba.abelian import validate_riemann_matrix, xy_to_z
from theta_amoeba.metrics import quadrature_grid
from theta_amoeba.theta import (
    _CHUNK_TERMS,
    TAIL_LOG,
    _as_points,
    _gauge,
    _half_widths,
    _lattice_terms,
    _offsets,
    _unique_rows,
    distortion_fk,
    grid_gauge_blocks,
    section_gauge_values,
    theta_basis,
    theta_char,
    theta_char_log,
)

from oracles import grid_gauge_values, per_section_image, stacked_log_mag

RNG = np.random.default_rng(7)
SQUARE = validate_riemann_matrix([[1j]])
GENERIC = validate_riemann_matrix([[0.3 + 1.2j]])
COUPLED = validate_riemann_matrix(
    np.array([[0.1 + 1.0j, 0.25 + 0.2j], [0.25 + 0.2j, -0.2 + 1.3j]])
)


def mp_theta(tau, z):
    """Oracle: scalar theta sum via mpmath's Jacobi theta3."""
    q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
    return complex(mpmath.jtheta(3, mpmath.pi * mpmath.mpc(z), q))


def mp_theta_char(tau, z, a, b):
    """Oracle: reduce characteristics to a shifted theta3."""
    pre = mpmath.exp(1j * mpmath.pi * a * a * tau + 2j * mpmath.pi * a * (z + b))
    return complex(pre * mpmath.mpc(mp_theta(tau, z + a * tau + b)))


def brute_theta(om, z, a, b, r=12):
    """Oracle: direct double-precision lattice sum, independent code path."""
    om = np.atleast_2d(om)
    n = om.shape[0]
    z = np.atleast_1d(z)
    total = 0.0 + 0.0j
    for l in itertools.product(range(-r, r + 1), repeat=n):
        la = np.array(l, dtype=float) + a
        w = 0.5 * la @ om @ la + la @ (z + b)
        total += np.exp(2j * np.pi * w)
    return total


def einsum_lattice_terms(om_eff: np.ndarray, z: np.ndarray, a: np.ndarray):
    """Oracle: theta._lattice_terms before its exponent was factored.

    Same interface, offsets and centres; each chunk builds l = l* + off + a
    as a (rows, J, n) array and takes the exponent with two einsums.
    """
    t_eff = om_eff.imag
    off = _offsets(t_eff)
    l_star = np.round(-a - z.imag @ np.linalg.inv(t_eff).T)
    m = z.shape[0]
    # the (m, J, n) intermediates set the memory, so budget by J * n
    chunk = max(1, _CHUNK_TERMS // off.size)

    def chunks():
        for s in range(0, m, chunk):
            rows = slice(s, min(m, s + chunk))
            la = l_star[rows, None, :] + off[None, :, :] + a
            # the quadratic part depends only on the centre l*: one row
            # serves a chunk whose points all share it, as the points of the
            # closed-form f_k do once reduced mod 1/k (barring rounding ties)
            lq = la[:1] if (l_star[rows] == l_star[s]).all() else la
            # einsum casts to complex in buffered blocks, not as a copy
            quad = np.einsum("mjn,np,mjp->mj", lq, om_eff, lq)
            lin = np.einsum("mjn,mn->mj", la, z[rows])
            w = 2j * np.pi * (0.5 * quad + lin)
            shift = w.real.max(axis=1)
            # exponentiate in place: a second name for the terms would keep
            # them alive while the next chunk is built
            w -= shift[:, None]
            np.exp(w, out=w)
            yield rows, l_star[rows], w, shift

    return off, chunks()


def test_theta_square_lattice_origin():
    val = theta_char(np.array([[1j]]), np.array([[0.0 + 0.0j]]))[0]
    assert val == pytest.approx(mp_theta(1j, 0.0), rel=1e-13)


def test_theta_matches_mpmath_generic_point():
    tau = 0.3 + 0.8j
    z = 0.17 - 0.05j
    val = theta_char(np.array([[tau]]), np.array([[z]]))[0]
    assert val == pytest.approx(mp_theta(tau, z), rel=1e-12)


def test_theta_with_characteristics_matches_oracle():
    tau = -0.1 + 1.3j
    z = 0.4 + 0.2j
    for a, b in [(0.5, 0.0), (0.0, 0.5), (0.25, -0.5), (1.0 / 3.0, 0.125)]:
        val = theta_char(np.array([[tau]]), np.array([[z]]), a=[a], b=[b])[0]
        assert val == pytest.approx(mp_theta_char(tau, z, a, b), rel=1e-11)


@pytest.mark.parametrize(
    "om, z, a, b, error",
    [
        (1j, [[0.1]], [0.1, 0.2], None, InvalidPoints),
        (1j, [[0.1]], [np.nan], None, InvalidPoints),
        (1j, [[0.1]], None, [0.0, 0.5], InvalidPoints),
        (1j, [[0.1, 0.2]], None, None, InvalidPoints),
        (1j, [[[0.1]]], None, None, InvalidPoints),
        (1j, np.inf, None, None, InvalidPoints),
        (1j, [[0.1]], None, [np.inf], InvalidPoints),
        (1j, [["x"]], None, None, InvalidPoints),
        (np.nan, [[0.1]], None, None, NotSymmetric),
        ([[1j, 0.1], [0.2, 1j]], [[0.1, 0.2]], None, None, NotSymmetric),
    ],
    ids=["a-length-2", "a-nan", "b-length-2", "z-length-2", "z-3d", "z-inf", "b-inf",
         "z-text", "omega-nan", "omega-asymmetric"],
)
def test_theta_char_refuses_bad_arguments(om, z, a, b, error):
    # a length-2 a at n = 1 returned 0.975+0.154i, NaN and inf inputs gave
    # NaN, a length-2 b or z raised a bare ValueError, and an asymmetric
    # omega was summed
    with pytest.raises(error):
        theta_char(om, z, a=a, b=b)
    with pytest.raises(error):
        theta_char_log(om, z, a=a, b=b)


def test_theta_diagonal_period_matrix_factorizes():
    om = np.diag([0.2 + 1.1j, -0.3 + 0.7j])
    z = np.array([0.1 + 0.3j, -0.2 + 0.1j])
    val = theta_char(om, z[None, :])[0]
    oracle = mp_theta(om[0, 0], z[0]) * mp_theta(om[1, 1], z[1])
    assert val == pytest.approx(oracle, rel=1e-12)


def test_theta_coupled_period_matrix_vs_brute_sum():
    om = np.array([[0.1 + 1.0j, 0.3 + 0.2j], [0.3 + 0.2j, -0.2 + 1.5j]])
    a = np.array([0.5, 0.0])
    b = np.array([0.0, 0.25])
    z = np.array([0.21 + 0.4j, -0.3 - 0.1j])
    val = theta_char(om, z[None, :], a=a, b=b)[0]
    assert val == pytest.approx(brute_theta(om, z, a, b), rel=1e-11)


def test_theta_quasi_periodicity():
    # theta(om, z + om m) = e(-1/2 tm om m - tm z) theta(om, z)
    om = np.array([[0.2 + 0.9j]])
    z = np.array([0.3 + 0.25j])
    m = np.array([1.0])
    lhs = theta_char(om, (z + om @ m)[None, :])[0]
    factor = np.exp(2j * np.pi * (-0.5 * m @ om @ m - m @ z))
    rhs = factor[()] * theta_char(om, z[None, :])[0]
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_theta_integer_periodicity_exact_magnitude():
    om = np.array([[0.1 + 1.2j]])
    z = np.array([[0.37 + 0.11j]])
    v0 = theta_char(om, z)[0]
    v1 = theta_char(om, z + 1.0)[0]
    assert v1 == pytest.approx(v0, rel=1e-13)


@settings(max_examples=30, deadline=None)
@given(
    st.floats(-0.5, 0.5),
    st.floats(0.4, 3.0),
    st.floats(-1.0, 1.0),
    st.floats(-0.6, 0.6),
)
def test_theta_random_vs_mpmath(re_tau, im_tau, re_z, im_z):
    tau = re_tau + 1j * im_tau
    z = re_z + 1j * im_z
    lm, ph = theta_char_log(np.array([[tau]]), np.array([[z]]))
    ours = np.exp(lm[0] + 1j * ph[0])
    assert ours == pytest.approx(mp_theta(tau, z), rel=1e-10)


def test_truncation_overflow_for_thin_lattice():
    om = np.array([[1e-7j]])
    with pytest.raises(TruncationOverflow):
        theta_char_log(om, np.array([[0.0 + 0.0j]]))
    # f_k's dual series needs |b| up to ~1.6e4 here
    with pytest.raises(TruncationOverflow):
        distortion_fk(theta_basis(validate_riemann_matrix(om), 1), 0.0, 0.0)


@pytest.mark.parametrize(
    "om",
    [
        np.diag([1j, 6j]),
        np.array([[0.2 + 1.0j, -0.1 + 0.95j], [-0.1 + 0.95j, 0.3 + 1.0j]]),
    ],
    ids=["diag-1-6", "coupled-thin"],
)
def test_ellipsoid_offsets_match_wide_brute_sum(om):
    rng = np.random.default_rng(11)
    for _ in range(4):
        z = rng.uniform(-1.0, 1.0, 2) + 1j * rng.uniform(-0.3, 0.3, 2)
        a, b = rng.choice([0.0, 0.5], 2), rng.choice([0.0, 0.25], 2)
        val = theta_char(om, z[None, :], a=a, b=b)[0]
        ref = brute_theta(om, z, a, b, r=30)
        assert abs(val - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize(
    "rm, k",
    [
        pytest.param(GENERIC, 32, id="generic-32"),
        pytest.param(COUPLED, 1, id="coupled-1"),
        pytest.param(COUPLED, 2, id="coupled-2"),
        pytest.param(COUPLED, 8, id="coupled-8"),
    ],
)
def test_row_terms_are_the_same_bits_in_any_chunk(rm, k):
    # each point's terms and shift, computed in a batch of 40, alone, and in
    # slices of 3 and 17, agree bit for bit: the per-section route's dedup
    # relies on a row's sum not depending on the rows that share its chunk
    x, y = np.random.default_rng(k).uniform(-0.5, 1.5, size=(2, 40, rm.n))
    z = xy_to_z(x, y, rm)

    def terms(zs):
        _, chunks = _lattice_terms(rm.omega / k, zs, np.zeros(rm.n))
        (_, _, w, shift), = list(chunks())
        return w, shift

    w_all, s_all = terms(z)
    for rows in [slice(p, p + 1) for p in range(40)] + [slice(5, 8), slice(11, 28)]:
        w, shift = terms(z[rows])
        np.testing.assert_array_equal(w, w_all[rows])
        np.testing.assert_array_equal(shift, s_all[rows])

@st.composite
def period_matrices(draw):
    """A symmetric Omega with positive definite imaginary part, n = 1 or 2;
    at n = 2 Im Omega is random or a diagonal form in a skewed basis."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n = draw(st.integers(1, 2))
    s = rng.uniform(-0.5, 0.5, (n, n))
    if n == 1:
        t = np.array([[rng.uniform(0.5, 2.0)]])
    elif draw(st.booleans()):
        g = rng.normal(size=(2, 2))
        t = g @ g.T + rng.uniform(0.3, 1.0) * np.eye(2)
    else:
        # a diagonal form in a skewed basis, as A tA with A = [[1, 3], [0, 1]]
        u = np.array([[1.0, draw(st.sampled_from([-3, -2, 2, 3]))], [0.0, 1.0]])
        t = u @ np.diag(rng.uniform(0.5, 2.0, 2)) @ u.T
    return s + s.T + 1j * t


@st.composite
def kernel_problems(draw):
    """A level-k series Omega / k with n = 1 or 2, points z = Omega x + y with
    x, y in [-0.5, 1.5]^n, and a characteristic a in {0, 1/2}^n."""
    om = draw(period_matrices())
    n = om.shape[0]
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    x, y = rng.uniform(-0.5, 1.5, (2, 20, n))
    a = 0.5 * rng.integers(0, 2, n)
    return om / draw(st.integers(1, 32)), x @ om.T + y, a


@settings(max_examples=40, deadline=None)
@given(kernel_problems())
def test_factored_terms_match_einsum_oracle(problem):
    # each term w e^shift within 1e-13 of its row's largest term, plus a few
    # ulps of its exponent's partial sums 2 pi (1/2 |l| |om| |l| + |l| |z|):
    # both kernels round that exponent, in different orders, and far points
    # carry exponents in the thousands at n = 2, k = 32
    om_eff, z, a = problem
    off, new = _lattice_terms(om_eff, z, a)
    off_ref, ref = einsum_lattice_terms(om_eff, z, a)
    np.testing.assert_array_equal(off, off_ref)
    for (rows, l_star, w, shift), (rows_ref, l_ref, w_ref, s_ref) in zip(new(), ref, strict=True):
        assert rows == rows_ref
        np.testing.assert_array_equal(l_star, l_ref)
        # the row's largest real exponent is 0, and |e^(i phi)| may round
        # an ulp above 1
        assert np.all(np.abs(w) <= 1.0 + 2.0 * np.finfo(float).eps)
        la = np.abs(l_ref[:, None, :] + off + a)
        size = 2.0 * np.pi * (
            0.5 * np.einsum("mjn,np,mjp->mj", la, np.abs(om_eff), la)
            + np.einsum("mjn,mn->mj", la, np.abs(z[rows]))
        )
        err = np.abs(w * np.exp(shift - s_ref)[:, None] - w_ref)
        assert np.all(err <= 1e-13 + 8.0 * np.finfo(float).eps * size * np.abs(w_ref))


def test_chunk_holds_terms_not_offset_vectors(monkeypatch):
    # one chunk of the Gram workload's CPL Omega/2 series on 16^4 nodes.
    # At the shipped size NumPy's fixed ufunc buffers rival the terms, so
    # there the bound is absolute: two chunks' worth of complex terms.
    # With 4 000 000-term chunks the terms dominate: the chunk allocates
    # them about twice at peak and keeps them once, and a (rows, J, n)
    # array of l, as the einsum kernel built, would push the peak past 2.5x
    grid = quadrature_grid(2, 16)
    z = xy_to_z(grid.x, grid.y, COUPLED)

    def first_chunk():
        off, chunks = _lattice_terms(COUPLED.omega / 2, z, np.zeros(2))
        tracemalloc.start()
        try:
            _, _, w, _ = next(chunks())
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert w.shape == (theta._CHUNK_TERMS // off.size, len(off))
        return w.nbytes, held, peak

    _, _, peak = first_chunk()
    assert peak <= 2 * 16 * theta._CHUNK_TERMS
    monkeypatch.setattr(theta, "_CHUNK_TERMS", 4_000_000)
    size, held, peak = first_chunk()
    assert peak <= 2.5 * size
    assert held <= 1.25 * size


CHUNK_SIZES = [1, _CHUNK_TERMS, 4_000_000]


@pytest.mark.parametrize(
    "rm, k, m",
    [
        pytest.param(SQUARE, 8, 64, id="square-8"),
        pytest.param(GENERIC, 5, 40, id="generic-5"),
        pytest.param(COUPLED, 2, 6, id="coupled-2"),
    ],
)
def test_moment_map_is_the_same_bits_at_any_chunk_size(monkeypatch, rm, k, m):
    # 1-row chunks, the shipped size and 4 000 000 terms: a row's terms and
    # sum do not depend on its chunk, so amoeba_sample's rounding splits,
    # and the point counts the benchmark pins, do not either
    basis, grid = theta_basis(rm, k), quadrature_grid(rm.n, m)
    x, y = grid.x, grid.y
    runs = []
    for terms in CHUNK_SIZES:
        monkeypatch.setattr(theta, "_CHUNK_TERMS", terms)
        runs.append((stacked_log_mag(basis, x, y), per_section_image(basis, x, y)))
    for lm, xi in runs[1:]:
        assert np.array_equal(lm, runs[0][0]) and np.array_equal(xi, runs[0][1])


THREAD_COUNTS = [1, 2, 3]


def run_rows(monkeypatch, om_eff, z, threads):
    """_theta_sums on `threads` threads: the rows of each chunk of each run
    it sums, the runs in order of their first row, and the sums."""
    monkeypatch.setattr(theta, "THREADS", threads)
    runs = []
    lattice_terms = theta._lattice_terms

    def recording(*args, **kwargs):
        off, chunks = lattice_terms(*args, **kwargs)

        def recorded(*bounds):
            run = []
            runs.append(run)
            for terms in chunks(*bounds):
                run.append((terms[0].start, terms[0].stop))
                yield terms

        return off, recorded

    monkeypatch.setattr(theta, "_lattice_terms", recording)
    try:
        sums = theta._theta_sums(om_eff, z, None, None)
    finally:
        monkeypatch.setattr(theta, "_lattice_terms", lattice_terms)
    return sorted(runs), sums


@pytest.mark.parametrize(
    "rm, k, m",
    [
        pytest.param(SQUARE, 8, 1001, id="square-8"),
        pytest.param(GENERIC, 32, 997, id="generic-32"),
        pytest.param(COUPLED, 2, 389, id="coupled-2"),
    ],
)
def test_theta_sums_are_the_same_bits_on_any_thread_count(monkeypatch, rm, k, m):
    # chunks of 12 rows on one thread, 12 / threads on more, so every
    # thread count splits the m points into runs of unequal length, the
    # last chunk partial; the sums are the one-thread bits all the same
    x, y = np.random.default_rng(m).uniform(-0.5, 1.5, size=(2, m, rm.n))
    z = xy_to_z(x, y, rm)
    monkeypatch.setattr(theta, "_CHUNK_TERMS", 12 * len(_offsets((rm.omega / k).imag)))
    runs = {}
    for threads in THREAD_COUNTS:
        chunks, runs[threads] = run_rows(monkeypatch, rm.omega / k, z, threads)
        flat = [r for run in chunks for r in run]
        assert len(chunks) == threads and flat[-1][1] == m
        assert flat[0] == (0, 12 // threads) and flat[-1][1] - flat[-1][0] < 12 // threads
        if threads > 1:
            assert len({len(run) for run in chunks}) > 1
    for shift, vals in runs.values():
        assert np.array_equal(shift, runs[1][0]) and np.array_equal(vals, runs[1][1])


def test_theta_sums_thread_count_past_the_cores_with_short_switches(monkeypatch):
    # more threads than cores, switched every microsecond: a lost or
    # misplaced row would change the sums
    x, y = np.random.default_rng(5).uniform(-0.5, 1.5, size=(2, 3001, 1))
    z = xy_to_z(x, y, GENERIC)
    om_eff = GENERIC.omega / 16
    monkeypatch.setattr(theta, "_CHUNK_TERMS", 16 * len(_offsets(om_eff.imag)))
    monkeypatch.setattr(theta, "THREADS", 1)
    ref = theta._theta_sums(om_eff, z, None, None)
    monkeypatch.setattr(theta, "THREADS", 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = [theta._theta_sums(om_eff, z, None, None) for _ in range(5)]
    finally:
        sys.setswitchinterval(interval)
    assert len(run_rows(monkeypatch, om_eff, z, 8)[0]) == 8
    for shift, vals in runs:
        assert np.array_equal(shift, ref[0]) and np.array_equal(vals, ref[1])


@pytest.mark.parametrize("threads", [1, 2, 3, 7])
@pytest.mark.parametrize("rows_per_chunk", [1, 5, 1000])
def test_runs_cover_the_points_once_in_order(monkeypatch, threads, rows_per_chunk):
    # contiguous runs of whole chunks of 1 / threads of the terms, and one
    # run of full chunks when there are fewer than two chunks per thread
    z = xy_to_z(*np.random.default_rng(1).uniform(size=(2, 50, 1)), SQUARE)
    om_eff = SQUARE.omega / 4
    monkeypatch.setattr(theta, "_CHUNK_TERMS", rows_per_chunk * len(_offsets(om_eff.imag)))
    runs, _ = run_rows(monkeypatch, om_eff, z, threads)
    flat = [r for run in runs for r in run]
    assert [a for a, _ in flat] == [0] + [b for _, b in flat[:-1]]
    assert flat[-1][1] == 50
    chunk = max(1, rows_per_chunk // threads)
    if -(-50 // chunk) >= 2 * threads:
        assert len(runs) == threads and all(b - a <= chunk for a, b in flat)
    else:
        assert len(runs) == 1 and flat[0][1] == min(50, rows_per_chunk)


def test_one_run_starts_no_thread_at_any_thread_count(monkeypatch):
    # fewer than two chunks a run: one run, summed on the calling thread
    def start(self):
        raise AssertionError("a thread was started")

    z = np.full((30, 1), 0.3 + 0.2j)
    ref = theta._theta_sums(SQUARE.omega, z, None, None)
    monkeypatch.setattr(threading.Thread, "start", start)
    for threads in (1, 8):
        runs, (shift, vals) = run_rows(monkeypatch, SQUARE.omega, z, threads)
        assert len(runs) == 1
        assert np.array_equal(shift, ref[0]) and np.array_equal(vals, ref[1])
    # with 1-term chunks the 8 runs do start threads, which the patch refuses
    monkeypatch.setattr(theta, "_CHUNK_TERMS", 1)
    with pytest.raises(AssertionError, match="a thread was started"):
        theta._theta_sums(SQUARE.omega, z, None, None)


def test_plain_sums_take_chunks_of_lattice_terms(monkeypatch):
    # at n = 2 a sum's chunk holds n times the rows of a gradient chunk:
    # both hold _CHUNK_TERMS of the caller's terms
    z = xy_to_z(*np.random.default_rng(2).uniform(size=(2, 100, 2)), COUPLED)
    om_eff = COUPLED.omega / 2
    monkeypatch.setattr(theta, "_CHUNK_TERMS", 6 * len(_offsets(om_eff.imag)))
    _, chunks = _lattice_terms(om_eff, z, np.zeros(2))
    rows, *_ = next(chunks())
    assert rows == slice(0, 3)
    assert run_rows(monkeypatch, om_eff, z, 1)[0][0][0] == (0, 6)


@pytest.mark.parametrize(
    "rm, k, m",
    [
        pytest.param(SQUARE, 8, 72, id="square-8"),
        pytest.param(GENERIC, 5, 46, id="generic-5"),
    ],
)
def test_moment_map_is_the_same_bits_on_any_thread_count(monkeypatch, rm, k, m):
    # the grid's distinct shifted points in slices of 12 J points (J lattice
    # terms a point), summed in chunks of 12 / threads rows: 2 and 3
    # threads split each slice into runs, the last slice's of unequal length
    basis, grid = theta_basis(rm, k), quadrature_grid(rm.n, m)
    monkeypatch.setattr(theta, "_CHUNK_TERMS", 12 * len(_offsets((rm.omega / k).imag)))
    runs = []
    for threads in THREAD_COUNTS:
        monkeypatch.setattr(theta, "THREADS", threads)
        runs.append(per_section_image(basis, grid.x, grid.y))
    for xi in runs[1:]:
        assert np.array_equal(xi, runs[0])


def test_worker_errors_reach_the_caller(monkeypatch):
    # a point at infinity in the last thread's run: its invalid multiply
    # is a RuntimeWarning, an error under this suite's filters
    monkeypatch.setattr(theta, "_CHUNK_TERMS", 1)
    z = np.full((30, 1), 0.3 + 0.2j)
    assert run_rows(monkeypatch, SQUARE.omega, z, 3)[0][-1][-1] == (29, 30)
    z[-1] = np.inf
    with pytest.raises(RuntimeWarning, match="invalid value"):
        theta._theta_sums(SQUARE.omega, z, None, None)
    # the caller's errstate reaches the workers
    with np.errstate(invalid="ignore"):
        _, vals = theta._theta_sums(SQUARE.omega, z, None, None)
    assert np.isnan(vals[-1]) and np.isfinite(vals[:-1]).all()

    # the middle run fails at once, and the last takes its time: the
    # error is raised here only after the other runs ended
    ended = []
    lattice_terms = theta._lattice_terms

    def failing(*args, **kwargs):
        off, chunks = lattice_terms(*args, **kwargs)

        def run(start, stop, budget):
            if start == 10:
                raise KeyError("bad")
            yield from chunks(start, stop, budget)
            if start == 20:
                time.sleep(0.05)
            ended.append(start)

        return off, run

    monkeypatch.setattr(theta, "_lattice_terms", failing)
    with pytest.raises(KeyError, match="bad"):
        theta._theta_sums(SQUARE.omega, np.full((30, 1), 0.3j), None, None)
    assert sorted(ended) == [0, 20]


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity here")
def test_threads_default_to_the_usable_cpus():
    # os.cpu_count() would count CPUs a taskset mask keeps this process off
    assert theta.THREADS == len(os.sched_getaffinity(0))


@pytest.mark.parametrize(
    "rm, k, m",
    [
        pytest.param(GENERIC, 5, 40, id="generic-5"),
        pytest.param(COUPLED, 3, 8, id="coupled-3"),
    ],
)
def test_gauge_values_keep_their_contract_at_any_chunk_size(monkeypatch, rm, k, m):
    # not bit for bit: BLAS contracts a chunk's terms by a path that depends
    # on its shape, so only the accuracy contract holds across chunk sizes,
    # the gradients as in test_grid_route_matches_scattered_route
    basis, grid = theta_basis(rm, k), quadrature_grid(rm.n, m)
    runs = []
    for terms in CHUNK_SIZES:
        monkeypatch.setattr(theta, "_CHUNK_TERMS", terms)
        runs.append(section_gauge_values(basis, grid.x, grid.y, grad=True))
        runs.append(grid_gauge_values(basis, m, grad=True))
    ref = runs[-1]
    v_ref, d_ref = ref.complex_values(), gauge_grad(ref)
    peak = np.abs(v_ref).max(axis=0)
    d_scale = np.maximum(np.abs(d_ref).max(axis=(0, 2)), 2.0 * np.pi * peak)
    for gv in runs:
        assert np.all(np.abs(gv.complex_values() - v_ref) <= 1e-13 * peak)
        err = np.abs(gauge_grad(gv) - d_ref).max(axis=(0, 2))
        assert np.all(err <= 1e-12 * d_scale)


@pytest.mark.parametrize(
    "rm, k, m",
    [
        pytest.param(SQUARE, 24, 192, id="square-24"),
        pytest.param(GENERIC, 5, 40, id="generic-5"),
        pytest.param(COUPLED, 2, 10, id="coupled-2"),
    ],
)
def test_grid_blocks_are_whole_x_nodes_that_join_to_the_grid(monkeypatch, rm, k, m):
    # each block is one step of whole x-nodes, whose operands over the
    # offsets and sums over the y-nodes fill the chunk budget unless it is
    # one x-node, and the blocks joined are grid_gauge_values bit for bit.
    # The scales and gauge phases are elementwise, so they keep their bits
    # at any budget: x @ x.T through BLAS moved the last bit of the n = 2
    # phase with the block's shape on 10^4 nodes
    n, basis = rm.n, theta_basis(rm, k)
    n_off = len(_offsets((rm.omega / k).imag))
    scales, phases = [], []
    for terms in CHUNK_SIZES:
        monkeypatch.setattr(theta, "_CHUNK_TERMS", terms)
        for grad in (False, True):
            blocks = list(grid_gauge_blocks(basis, m, grad=grad))
            nodes = [b.values.shape[1] for b in blocks]
            assert sum(nodes) == m ** (2 * n) and all(p % m**n == 0 for p in nodes)
            width = basis.n_sections * (1 + n * grad) * (m**n + n_off)
            assert all(p == m**n or p // m**n * width <= terms for p in nodes)
            whole = grid_gauge_values(basis, m, grad=grad)
            for name, axis in (("log_scale", 0), ("base_phase", 0), ("values", 1), ("grad", 1)):
                if name != "grad" or grad:
                    joined = np.concatenate([getattr(b, name) for b in blocks], axis=axis)
                    assert np.array_equal(joined, getattr(whole, name))
            scales.append(whole.log_scale)
            phases.append(whole.base_phase)
    for scale, phase in zip(scales, phases):
        assert np.array_equal(scale, scales[0]) and np.array_equal(phase, phases[0])


@pytest.mark.parametrize("rm", [SQUARE, GENERIC, COUPLED], ids=["square", "generic", "coupled"])
def test_grid_blocks_of_leading_x_nodes_are_the_grid_prefix(rm):
    # a box of leading nodes per axis holds the whole grid's same nodes, in
    # the same order: scales and gauge phases bit for bit, values and
    # gradients to the accuracy contract, since a narrower step's BLAS
    # product may add in another order. The boxes keep leading x-nodes
    # only (one x-node, the 1/k strip (m/k,) + (m,) * (2n - 1), all but
    # the last x-row) or restrict y too (the (1/k)-cell (m/k,) * 2n, and
    # every x-node with a 1/k strip of y); the strip keeps every bit here
    n = rm.n
    for k in ((2, 3) if n == 2 else (4, 7, 10)):
        basis, m = theta_basis(rm, k), (8 * k if n == 1 else 12)
        whole = grid_gauge_values(basis, m, grad=True)
        strip = (m // k,) + (m,) * (2 * n - 1)
        boxes = [
            (1,) * n + (m,) * n,
            strip,
            (m - 1,) + (m,) * (2 * n - 1),
            (m // k,) * (2 * n),
            (m,) * n + (m // k,) + (m,) * (n - 1),
        ]
        for box in boxes:
            # the box's nodes in the whole grid's x-major order
            index = np.indices((m,) * (2 * n)).reshape(2 * n, -1).T
            inside = np.flatnonzero(np.all(index < box, axis=1))
            blocks = list(grid_gauge_blocks(basis, m, grad=True, box=box))
            for name, axis, tol in (("log_scale", 0, 0), ("base_phase", 0, 0), ("values", 1, 1e-13), ("grad", 1, 1e-12)):
                joined = np.concatenate([getattr(b, name) for b in blocks], axis=axis)
                ref = np.take(getattr(whole, name), inside, axis=axis)
                if tol == 0 or box == strip:
                    assert np.array_equal(joined, ref)
                else:
                    assert np.abs(joined - ref).max() <= tol * np.abs(ref).max()


def closed_form_im(t, k):
    """Im of the genus-2n matrix of genus_2n_fk at level k."""
    return np.kron([[2.0 / k, -1.0], [-1.0, k]], t)


def genus_2n_fk(basis, x, y):
    """Oracle: f_k as one genus-2n theta series, whose box does not shrink
    with k. The b-sum forces the lattice indices l, l' of Theta_k and its
    conjugate to agree mod k, so with l' = l - k q, L = (l, q) in Z^{2n},
      f_k = C^2 k^{n/2} e^{-2 pi k tx T x} Re theta(Omega_2, zeta),
      Omega_2 = [[0, 1], [1, -k]] (x) S + i [[2/k, -1], [-1, k]] (x) T,
      zeta = (z - zbar, k zbar),
    at (x, y) reduced mod 1/k, which leaves f_k unchanged and keeps the
    series centred."""
    om, k, n = basis.om, basis.k, basis.om.n
    x, y = _as_points(x, y, n)
    x, y = x - np.round(k * x) / k, y - np.round(k * y) / k
    z = xy_to_z(x, y, om)
    om2 = np.kron([[0.0, 1.0], [1.0, -k]], om.re) + 1j * closed_form_im(om.im, k)
    lm, ph = theta_char_log(om2, np.hstack([z - z.conj(), k * z.conj()]))
    xtx = np.einsum("mi,ij,mj->m", x, om.im, x)
    log_c = 2.0 * basis.log_c_omega + 0.5 * n * np.log(k) - 2.0 * np.pi * k * xtx
    return np.exp(log_c + lm) * np.cos(ph)


@st.composite
def tail_problems(draw):
    """A positive T and a centre c, with some coordinates of c half-integers."""
    kind = draw(st.sampled_from(["random", "skewed", "closed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    if kind == "closed":
        n0 = draw(st.integers(1, 2))
        t0 = COUPLED.im if n0 == 2 else np.array([[draw(st.floats(0.5, 2.0))]])
        t = closed_form_im(t0, draw(st.integers(2, 8)))
    elif kind == "random":
        n = draw(st.integers(1, 4))
        g = rng.normal(size=(n, n))
        t = g @ g.T + draw(st.floats(0.3, 2.0)) * np.eye(n)
    else:
        # a diagonal form in a skewed basis, as A tA with A = [[1, 3], [0, 1]]
        n = draw(st.integers(2, 4))
        i, j = rng.permutation(n)[:2]
        u = np.eye(n)
        u[i, j] = draw(st.sampled_from([-3, -2, 2, 3]))
        t = u @ np.diag(rng.uniform(0.5, 2.0, n)) @ u.T
    n = t.shape[0]
    c = rng.uniform(-5.0, 5.0, n)
    ties = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    c = np.where(ties, np.floor(c) + 0.5, c)
    return t, c


@settings(max_examples=60, deadline=None)
@given(tail_problems())
def test_offsets_contain_every_tail_term(problem):
    # every l with pi |l - c|_T^2 <= TAIL_LOG is among the kept terms
    # l* + off, with l* = round(c) as _lattice_terms takes it
    t, c = problem
    keep = {tuple(v) for v in (np.round(c) + _offsets(t)).astype(int)}
    half = np.sqrt(TAIL_LOG * np.diag(np.linalg.inv(t)) / np.pi) + 1.0
    ranges = [range(int(np.floor(ci - h)), int(np.ceil(ci + h)) + 1) for ci, h in zip(c, half)]
    box = np.array(list(itertools.product(*ranges)))
    u = box - c
    inside = box[np.pi * np.einsum("ji,ik,jk->j", u, t, u) <= TAIL_LOG]
    assert {tuple(l) for l in inside} <= keep


def test_offset_counts():
    # the n = 2 series of the Gram workload and the genus-4 oracle genus_2n_fk
    assert len(_offsets(COUPLED.im / 2)) == 103
    assert len(_offsets(closed_form_im(COUPLED.im, 2))) == 3585


@pytest.mark.parametrize("k", [0, 1.9, 2.5, np.nan, np.inf, -np.inf, True])
def test_basis_rejects_nonpositive_level(k):
    # a non-integral level is refused, not truncated to int(k); NaN and +-inf
    # raise the same typed error, and True is not taken for level 1
    rm = validate_riemann_matrix([[1j]])
    with pytest.raises(NonPositive, match="positive integer"):
        theta_basis(rm, k)


def test_basis_enumeration():
    rm = validate_riemann_matrix(np.diag([1j, 2j]) + 0.0)
    basis = theta_basis(rm, 3)
    assert basis.n_sections == 9
    assert basis.indices[0].tolist() == [0, 0]
    assert basis.indices[-1].tolist() == [2, 2]
    assert np.allclose(basis.b_points[4], [1.0 / 3.0, 1.0 / 3.0])


def section_norm_sq_reference(basis, x, y) -> np.ndarray:
    """Pointwise h-norms squared through the classical (non-gauge) route.

    Uses s_i = C k^{-n/4} theta_0(z)^k Theta_k(z; b_i) with the holomorphic
    Gaussian theta_0 = exp(pi/2 tz (Im om)^{-1} z) and the level-k metric
    weight exp(-pi k tz (Im om)^{-1} zbar). Serves as an oracle for the
    gauge formulas.
    """
    om, k, n = basis.om, basis.k, basis.om.n
    x, y = _as_points(x, y, n)
    z = xy_to_z(x, y, om)
    zi = np.linalg.solve(om.im_chol.T, np.linalg.solve(om.im_chol, z.T)).T
    theta0_re = 0.5 * np.pi * np.einsum("mi,mi->m", z, zi).real
    weight = -np.pi * np.einsum("mi,mi->m", z, np.conj(zi)).real

    zs = (z[None, :, :] - basis.b_points[:, None, :]).reshape(-1, n)
    lm, _ = theta_char_log(om.omega / k, zs)
    lm = lm.reshape(basis.n_sections, x.shape[0])
    const = 2.0 * basis.log_c_omega - 0.5 * n * np.log(k)
    return np.exp(const + (2.0 * k * theta0_re + k * weight)[None, :] + 2.0 * lm)


def test_gauge_norm_matches_classical_route():
    rm = validate_riemann_matrix([[0.3 + 1.4j]])
    basis = theta_basis(rm, 4)
    x = RNG.uniform(-0.5, 1.5, size=(6, 1))
    y = RNG.uniform(-0.5, 1.5, size=(6, 1))
    gauge = section_gauge_values(basis, x, y).norm_sq()
    ref = section_norm_sq_reference(basis, x, y)
    assert np.allclose(gauge, ref, rtol=1e-10)


def test_gauge_norm_is_periodic():
    rm = validate_riemann_matrix([[0.2 + 0.8j]])
    basis = theta_basis(rm, 5)
    x = np.array([[0.3], [0.3], [0.3]])
    y = np.array([[0.6], [0.6], [0.6]])
    shifted_x = x + np.array([[0.0], [1.0], [-2.0]])
    shifted_y = y + np.array([[0.0], [3.0], [1.0]])
    base = section_gauge_values(basis, x, y).norm_sq()
    moved = section_gauge_values(basis, shifted_x, shifted_y).norm_sq()
    assert np.allclose(moved, base[:, [0, 0, 0]], rtol=1e-11)


def test_gauge_magnitude_never_overflows_at_high_level():
    rm = validate_riemann_matrix([[1j]])
    basis = theta_basis(rm, 64)
    gv = section_gauge_values(basis, np.array([[0.5]]), np.array([[0.5]]))
    assert np.all(np.isfinite(gv.log_mag))
    assert np.all(np.isfinite(gv.phase))


@pytest.mark.parametrize(
    "rm, k",
    [(SQUARE, 5), (GENERIC, 3), (GENERIC, 8), (COUPLED, 2), (COUPLED, 3)],
    ids=["square-5", "generic-3", "generic-8", "coupled-2", "coupled-3"],
)
def test_scaled_values_match_the_log_form(rm, k):
    # on both routes, the scale times the sums is exp(log_mag + i phase) to
    # 1e-14 of max_j |s_j|_h at each point, and phase keeps the bits of
    # base_phase + arg(values) that theta_eval.csv writes
    basis = theta_basis(rm, k)
    rng = np.random.default_rng(k)
    x, y = rng.uniform(size=(2, 40, rm.n))
    for gv in (section_gauge_values(basis, x, y), grid_gauge_values(basis, 8)):
        ref = np.exp(gv.log_mag + 1j * gv.phase)
        peak = np.abs(ref).max(axis=0)
        assert np.all(np.abs(gv.complex_values() - ref).max(axis=0) <= 1e-14 * peak)
        assert np.array_equal(gv.phase, gv.base_phase + np.angle(gv.values))


@pytest.mark.parametrize("rm, k", [(GENERIC, 8), (COUPLED, 3)], ids=["generic-8", "coupled-3"])
def test_scaled_values_finite_at_unreduced_points(rm, k):
    # |x| ~ 10: the gauge weight exp(-pi k tx T x) and the sums' row shift
    # cancel inside log_scale, never in a product of overflowing factors
    basis = theta_basis(rm, k)
    rng = np.random.default_rng(k)
    x = rng.choice([-1.0, 1.0], size=(8, rm.n)) * rng.uniform(9.5, 10.5, size=(8, rm.n))
    gv = section_gauge_values(basis, x, rng.uniform(-10.0, 10.0, size=(8, rm.n)), grad=True)
    for a in (gv.log_scale, gv.values, gv.grad, gv.log_mag, gv.phase, gv.complex_values()):
        assert np.all(np.isfinite(a))
    np.testing.assert_allclose(gv.norm_sq(), np.exp(2.0 * gv.log_mag), rtol=1e-13)


def test_section_shift_symmetry():
    # translating y by the basis spacing permutes the section norms
    rm = validate_riemann_matrix([[1j]])
    basis = theta_basis(rm, 4)
    x = np.array([[0.21]])
    y = np.array([[0.37]])
    base = section_gauge_values(basis, x, y).norm_sq()[:, 0]
    moved = section_gauge_values(basis, x, y + 0.25).norm_sq()[:, 0]
    assert np.allclose(np.roll(base, 1), moved, rtol=1e-11)


def test_distortion_closed_matches_direct():
    # unreduced points: the closed form reduces (x, y) mod 1/k itself
    rm = validate_riemann_matrix([[0.4 + 1.1j]])
    for k in (1, 2, 6, 16, 32):
        basis = theta_basis(rm, k)
        rng = np.random.default_rng(k)
        x = rng.uniform(-3.0, 4.0, size=(8, 1))
        y = rng.uniform(-3.0, 4.0, size=(8, 1))
        direct = distortion_fk(basis, x, y, mode="direct")
        closed = distortion_fk(basis, x, y, mode="closed")
        assert np.allclose(closed, direct, rtol=1e-10), k


@pytest.mark.parametrize("mode", ["Closed", "series", "", None], ids=["case", "other", "empty", "none"])
def test_distortion_refuses_an_unknown_mode(mode):
    # an unknown mode raised a bare ValueError, outside the package's
    # error types
    basis = theta_basis(GENERIC, 2)
    with pytest.raises(ConfigError, match="distortion mode"):
        distortion_fk(basis, [[0.1]], [[0.2]], mode=mode)


def test_distortion_closed_matches_direct_n2():
    rm = validate_riemann_matrix(
        np.array([[0.1 + 1.0j, 0.2 + 0.3j], [0.2 + 0.3j, 1.4j]])
    )
    for k in (1, 2, 6, 16, 32):
        basis = theta_basis(rm, k)
        rng = np.random.default_rng(100 + k)
        x = rng.uniform(-3.0, 4.0, size=(4, 2))
        y = rng.uniform(-3.0, 4.0, size=(4, 2))
        direct = distortion_fk(basis, x, y, mode="direct")
        closed = distortion_fk(basis, x, y, mode="closed")
        assert np.allclose(closed, direct, rtol=1e-9), k


def dual_terms(basis, half_widths, signed=True):
    """Oracle: every nu = (a, b) of the box |nu_i| <= half_widths_i, with
    k^n (-1)^{k ta b} exp(-(pi k / 2) |a - Omega b|^2) and its exponent,
    the norm taken from a - Omega b itself."""
    om, k, n = basis.om, basis.k, basis.om.n
    nu = np.indices(2 * half_widths + 1).reshape(2 * n, -1).T - half_widths
    a, b = nu[:, :n], nu[:, n:]
    w = a - b @ om.omega.T
    expo = 0.5 * np.pi * k * np.einsum("ji,ik,jk->j", w.conj(), om.im_inv, w).real
    coef = k**n * np.exp(-expo)
    if signed:
        coef *= (-1.0) ** (k * (a * b).sum(axis=1))
    return nu, coef, expo


def dual_fk(nu, coef, x, y, k):
    return np.cos(2.0 * np.pi * k * (np.hstack([x, y]) @ nu.T)) @ coef


def dual_half_widths(basis):
    """The half-widths of distortion_fk's box, from its form Q."""
    om, k = basis.om, basis.k
    s, t, t_inv = om.re, om.im, om.im_inv
    q = 0.5 * np.pi * k * np.block([[t_inv, -t_inv @ s], [-s @ t_inv, s @ t_inv @ s + t]])
    return _half_widths(q, np.sqrt(TAIL_LOG))


FK_OMEGAS = {
    "square": SQUARE,
    "generic": GENERIC,
    "tilted": validate_riemann_matrix([[0.4 + 1.1j]]),
    "coupled": COUPLED,
    "coupled-2": validate_riemann_matrix(
        np.array([[0.1 + 1.0j, 0.2 + 0.3j], [0.2 + 0.3j, 1.4j]])
    ),
}


def unreduced_points(rm, k):
    rng = np.random.default_rng(k)
    return rng.uniform(-3.0, 4.0, size=(2, 8, rm.n))


@pytest.mark.parametrize("k", [1, 2, 3, 6, 16, 32])
@pytest.mark.parametrize("name", list(FK_OMEGAS))
def test_distortion_series_matches_genus_2n_oracle_and_direct(name, k):
    # absolute in units of k^n, the mean of f_k: the accuracy contract
    rm = FK_OMEGAS[name]
    basis = theta_basis(rm, k)
    x, y = unreduced_points(rm, k)
    closed = distortion_fk(basis, x, y)
    assert np.abs(closed - genus_2n_fk(basis, x, y)).max() <= 1e-14 * k**rm.n
    direct = distortion_fk(basis, x, y, mode="direct")
    assert np.abs(closed - direct).max() <= 1e-11 * k**rm.n


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("name", ["generic", "coupled"])
def test_distortion_series_needs_the_sign_at_odd_level(name, k):
    # the sign (-1)^{k ta b} is 1 at even k; at odd k, without it the
    # series is off by ~1e-3 k^n on the coupled matrix at k = 3
    rm = FK_OMEGAS[name]
    basis = theta_basis(rm, k)
    x, y = unreduced_points(rm, k)
    direct = distortion_fk(basis, x, y, mode="direct")
    half = dual_half_widths(basis)
    signed = dual_fk(*dual_terms(basis, half)[:2], x, y, k)
    unsigned = dual_fk(*dual_terms(basis, half, signed=False)[:2], x, y, k)
    assert np.abs(signed - direct).max() <= 1e-11 * k**rm.n
    assert np.abs(unsigned - direct).max() > 1e-4 * k**rm.n


@pytest.mark.parametrize("k", [1, 2, 3, 6, 16, 32])
@pytest.mark.parametrize("name", list(FK_OMEGAS))
def test_distortion_series_tail_against_a_box_twice_as_wide(name, k):
    rm = FK_OMEGAS[name]
    basis = theta_basis(rm, k)
    x, y = unreduced_points(rm, k)
    nu, coef, expo = dual_terms(basis, 2 * dual_half_widths(basis))
    # the terms past TAIL_LOG change f_k by at most their mass, at any point
    assert np.abs(coef[expo > TAIL_LOG]).sum() <= 1e-15 * k**rm.n
    # the sums differ also by their order of summation, ~1e-15 k^n
    wide = dual_fk(nu, coef, x, y, k)
    assert np.abs(distortion_fk(basis, x, y) - wide).max() <= 1e-14 * k**rm.n


def test_distortion_mean_is_total_sections():
    # integral of f_k over X equals k^n when the Gram matrix is near identity
    rm = validate_riemann_matrix([[1j]])
    basis = theta_basis(rm, 8)
    m = 48
    g = (np.arange(m) + 0.5) / m
    xg, yg = np.meshgrid(g, g, indexing="ij")
    pts_x = xg.reshape(-1, 1)
    pts_y = yg.reshape(-1, 1)
    f = distortion_fk(basis, pts_x, pts_y, mode="closed")
    assert np.all(f > 0.0)
    assert f.mean() == pytest.approx(8.0, rel=1e-6)


def gauge_grad(gv):
    """The gradients of gv times each point's gauge factor, as
    complex_values scales the values."""
    return np.exp(gv.log_scale + 1j * gv.base_phase)[None, :, None] * gv.grad


def stacked_dlog(basis, x, y):
    """Oracle: d_z log Theta_k(z; b_i), and Theta_k(z; b_i) times the gauge
    magnitude, by one brute lattice sum per section."""
    om, k, n = basis.om, basis.k, basis.om.n
    om_k = om.omega / k
    r = int(np.ceil(np.sqrt(50.0 / (np.pi * np.linalg.eigvalsh(om_k.imag)[0])))) + 2
    off = np.array(list(itertools.product(range(-r, r + 1), repeat=n)), dtype=float)
    zs = (xy_to_z(x, y, om)[None] - basis.b_points[:, None]).reshape(-1, n)
    la = np.round(-zs.imag @ np.linalg.inv(om_k.imag).T)[:, None, :] + off[None]
    e = 2j * np.pi * (
        0.5 * np.einsum("mja,ab,mjb->mj", la, om_k, la) + np.einsum("mja,ma->mj", la, zs)
    )
    shift = e.real.max(axis=1)
    w = np.exp(e - shift[:, None])
    d = 2j * np.pi * np.einsum("mj,mja->ma", w, la) / w.sum(axis=1)[:, None]
    _, base_lm, _ = _gauge(basis, x, y)
    values = np.exp(shift + np.tile(base_lm, basis.n_sections)) * w.sum(axis=1)
    return d.reshape(basis.n_sections, x.shape[0], n), values.reshape(basis.n_sections, -1)


@pytest.mark.parametrize(
    "rm, k",
    [
        pytest.param(rm, k, id=f"{name}-{k}")
        for name, rm, ks in (
            ("square", SQUARE, (1, 2, 3, 5, 8, 16, 32)),
            ("generic", GENERIC, (1, 2, 3, 5, 8, 16, 32)),
            ("coupled", COUPLED, (1, 2, 3)),
        )
        for k in ks
    ],
)
def test_one_sum_route_matches_per_section_route(rm, k):
    # contract: |s_i|_h to roundoff of max_j |s_j|_h at each point, and the
    # gradients d Theta_k, in gauge magnitude, to roundoff of their largest
    basis = theta_basis(rm, k)
    rng = np.random.default_rng(k)
    x = rng.uniform(-0.5, 1.5, size=(30, rm.n))
    y = rng.uniform(-0.5, 1.5, size=(30, rm.n))
    gv = section_gauge_values(basis, x, y, grad=True)
    ref = np.exp(stacked_log_mag(basis, x, y))
    peak = ref.max(axis=0)
    assert np.all(np.abs(np.exp(gv.log_mag) - ref) <= 1e-12 * peak)
    d_ref, v_ref = stacked_dlog(basis, x, y)
    g_ref = d_ref * v_ref[:, :, None]
    err = np.abs(np.exp(gv.log_scale)[None, :, None] * gv.grad - g_ref).max(axis=(0, 2))
    assert np.all(err <= 1e-12 * np.abs(g_ref).max(axis=(0, 2)))


@st.composite
def grid_problems(draw):
    """A basis on a random Omega (n = 1 or 2) and a grid of m = 8k to
    8k + 5 nodes per axis, so that both k | m and k not dividing m occur."""
    rm = validate_riemann_matrix(draw(period_matrices()))
    # n = 2 stops at k = 2: its grid has m^4 nodes
    k = draw(st.integers(1, 16 if rm.n == 1 else 2))
    return theta_basis(rm, k), 8 * k + draw(st.integers(0, 5)), draw(st.integers(0, 2**31 - 1))


def largest_term(basis, x, y):
    """The largest term of each point's lattice sum, in gauge units."""
    z, base_lm, _ = _gauge(basis, x, y)
    _, chunks = _lattice_terms(basis.om.omega / basis.k, z, np.zeros(basis.om.n))
    return np.exp(base_lm + np.concatenate([shift for *_, shift in chunks()]))


@settings(max_examples=30, deadline=None)
@given(grid_problems())
def test_grid_route_matches_scattered_route(problem):
    # the shared contract at every compared node: |s_i|_h to 1e-13 of
    # max_j |s_j|_h, and the gradients as in the one-sum route test, with
    # their scale floored at 2 pi times the value scale: d Theta_k vanishes
    # at the half-period nodes, where both routes read roundoff of terms
    # 2 pi i l, |l| >= 1
    basis, m, seed = problem
    grid = quadrature_grid(basis.om.n, m)
    gv = grid_gauge_values(basis, m, grad=True)
    assert gv.log_mag.shape == (basis.n_sections, grid.size)
    # the oracle costs a full lattice sum per node: at most 4096 of them
    nodes = np.arange(grid.size)
    if grid.size > 4096:
        nodes = np.sort(np.random.default_rng(seed).choice(grid.size, 4096, replace=False))
    x, y = grid.x[nodes], grid.y[nodes]
    ref = section_gauge_values(basis, x, y, grad=True)
    v, v_ref = gv.complex_values()[:, nodes], ref.complex_values()
    peak = np.abs(v_ref).max(axis=0)
    # roundoff is relative to a sum's largest term, which at k >= 2 stays
    # below max_j |s_j|_h (a ratio <= 1.0 measured on the coupled and
    # random matrices); at k = 1 the one section cancels to zero along the
    # theta divisor, so there the term is the scale
    scale = peak if basis.k > 1 else np.maximum(peak, largest_term(basis, x, y))
    assert np.all(np.abs(v - v_ref) <= 1e-13 * scale)
    # no section is divided out, so the gradients are compared at every
    # node, exact zeros and the k = 1 common zeros included
    d, d_ref = gauge_grad(gv)[:, nodes], gauge_grad(ref)
    err = np.abs(d - d_ref).max(axis=(0, 2))
    d_scale = np.maximum(np.abs(d_ref).max(axis=(0, 2)), 2.0 * np.pi * scale)
    assert np.all(err <= 1e-12 * d_scale)


@pytest.mark.parametrize(
    "rm, x, y",
    [
        (SQUARE, [[np.nan]], [[0.5]]),
        (SQUARE, [[0.25]], [[np.inf]]),
        (SQUARE, [[0.25], [-np.inf]], [[0.5], [0.5]]),
        (SQUARE, [[0.25], [0.5]], [[0.5]]),
        (COUPLED, [0.1, 0.2, 0.3], [0.1, 0.2, 0.3]),
        (COUPLED, [[0.1], [0.2]], [[0.3], [0.4]]),
        (SQUARE, [[0.1, 0.2]], [[0.3, 0.4]]),
        (SQUARE, [["a"]], [[0.5]]),
    ],
    ids=[
        "nan-x", "inf-y", "-inf-x", "shape", "not-n-vectors", "last-axis-1-at-n-2",
        "last-axis-2-at-n-1", "not-numbers",
    ],
)
def test_bad_coordinates_raise_typed_error(rm, x, y):
    # raised before any arithmetic: no NaN output, no RuntimeWarning
    basis = theta_basis(rm, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for evaluate in (section_gauge_values, distortion_fk):
            with pytest.raises(InvalidPoints):
                evaluate(basis, x, y)


def test_points_at_n1_may_be_scalars_or_flat_batches():
    basis = theta_basis(SQUARE, 3)
    x, y = [0.1, 0.2, 0.3], [0.4, 0.5, 0.6]
    ref = section_gauge_values(basis, np.c_[x], np.c_[y]).values
    assert np.array_equal(section_gauge_values(basis, x, y).values, ref)
    one = section_gauge_values(basis, [[0.1]], [[0.4]]).values
    assert np.array_equal(section_gauge_values(basis, 0.1, 0.4).values, one)


def mp_section_log_mag(basis, x, y):
    """Oracle: log|s_i|_h of an n = 1 basis at every point, via theta3 at 30 digits."""
    k = basis.k
    tau = complex(basis.om.omega[0, 0])
    _, base_lm, _ = _gauge(basis, x, y)
    out = np.empty((k, x.shape[0]))
    with mpmath.workdps(30):
        q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau) / k)
        for p in range(x.shape[0]):
            z = mpmath.mpc(tau) * mpmath.mpf(x[p, 0]) + mpmath.mpf(y[p, 0])
            out[:, p] = base_lm[p] + np.array(
                [
                    float(mpmath.log(abs(mpmath.jtheta(3, mpmath.pi * (z - mpmath.mpf(j) / k), q))))
                    for j in range(k)
                ]
            )
    return out


@pytest.mark.parametrize("rm", [SQUARE, GENERIC], ids=["square", "generic"])
@pytest.mark.parametrize("k", [5, 32])
def test_section_values_vs_mpmath_near_column_maximum(rm, k):
    # the sections within e^-20 of the largest one at a point, against
    # theta3 at 30 digits: error within roundoff of the largest section
    basis = theta_basis(rm, k)
    rng = np.random.default_rng(k)
    x, y = rng.uniform(size=(3, 1)), rng.uniform(size=(3, 1))
    lm = section_gauge_values(basis, x, y).log_mag
    exact = mp_section_log_mag(basis, x, y)
    for p in range(3):
        near = exact[:, p] >= exact[:, p].max() - 20.0
        rel = np.exp(exact[near, p] - exact[:, p].max())
        assert np.all(np.abs(lm[near, p] - exact[near, p]) * rel <= 1e-13)


@pytest.mark.parametrize("rm", [SQUARE, GENERIC], ids=["square", "generic"])
def test_section_accuracy_contract_at_level_32(rm):
    # section_gauge_values's stated contract, on both routes, at its largest
    # level and over its whole coordinate box: |s_i|_h within 1e-13 of
    # max_j |s_j|_h at each point, against theta3 at 30 digits
    basis = theta_basis(rm, 32)
    x, y = np.random.default_rng(32).uniform(-0.5, 1.5, size=(2, 24, 1))
    exact = mp_section_log_mag(basis, x, y)
    top = exact.max(axis=0)
    for lm in (section_gauge_values(basis, x, y).log_mag, stacked_log_mag(basis, x, y)):
        assert np.abs(np.exp(lm - top) - np.exp(exact - top)).max() <= 1e-13


@pytest.mark.parametrize("dtype", [float, complex])
def test_unique_rows_matches_numpy_unique(dtype):
    rng = np.random.default_rng(11)
    a = rng.integers(0, 3, size=(400, 3)).astype(dtype)
    if dtype is complex:
        a += 1j * rng.integers(0, 2, size=a.shape)
    first, inverse = _unique_rows(a)
    _, index, inv = np.unique(a, axis=0, return_index=True, return_inverse=True)
    # the same groups with the same first rows, numbered by first appearance
    assert np.array_equal(first, np.sort(index))
    assert np.array_equal(first[inverse], index[inv.ravel()])
    assert np.array_equal(a[first][inverse], a)


def test_unique_rows_edge_cases():
    # bitwise keys: -0.0 and +0.0 are different rows
    first, inverse = _unique_rows(np.array([[0.0], [-0.0], [0.0]]))
    assert first.tolist() == [0, 1] and inverse.tolist() == [0, 1, 0]
    first, inverse = _unique_rows(np.array([[0.5 + 1j, 2.0]]))
    assert first.tolist() == [0] and inverse.tolist() == [0]
    first, inverse = _unique_rows(np.zeros((0, 2), dtype=complex))
    assert first.size == 0 and inverse.size == 0


def stacked_rows(basis, z):
    """Oracle: the k^n m shifted points z_p - b_i, row i m + p, built in full."""
    return (z[None, :, :] - basis.b_points[:, None, :]).reshape(-1, basis.om.n)


def stacked_log_mag_every_row(basis, x, y):
    """Oracle: one lattice sum for every shifted point z - b_i, repeats included."""
    z, base_lm, _ = theta._gauge(basis, x, y)
    lm, _ = theta_char_log(basis.om.omega / basis.k, stacked_rows(basis, z))
    return base_lm[None, :] + lm.reshape(basis.n_sections, z.shape[0])


def grid_z(rm, k, m):
    grid = quadrature_grid(rm.n, m)
    return _gauge(theta_basis(rm, k), grid.x, grid.y)[0]


def seeded_z(rm, k, size):
    x, y = np.random.default_rng(3).uniform(-0.5, 1.5, size=(2, size, rm.n))
    return _gauge(theta_basis(rm, k), x, y)[0]


def signed_zero_z():
    # Re and Im over 0.0, -0.0 and 0.5: -0.0 - 0 stays apart from 0.0 - 0,
    # while -0.0 - 1/2 and 0.0 - 1/2 are the same point
    parts = np.array(list(itertools.product([0.0, -0.0, 0.5], [0.0, -0.0])))
    z = parts[:, :1].astype(complex)
    z.imag = parts[:, 1:]
    return z


def summed_at(monkeypatch, z):
    """Make z the chart points of every (x, y), with gauge factor 1, and
    record the points each _theta_sums call receives."""
    monkeypatch.setattr(theta, "_gauge", lambda basis, x, y, phase=True: (z, np.zeros(len(z)), None))
    return recorded_sums(monkeypatch)


def recorded_sums(monkeypatch):
    """The list the points of each later _theta_sums call are appended to."""
    sent = []
    original = theta._theta_sums

    def recording(om_eff, zs, a, b, l_star=None):
        sent.append(zs.copy())
        return original(om_eff, zs, a, b, l_star)

    monkeypatch.setattr(theta, "_theta_sums", recording)
    return sent


def assert_each_sent_once(sent, want):
    """The calls together sent the rows of want, each exactly once, and
    none sent more than a slice of _CHUNK_TERMS points; returns how many."""
    got = np.concatenate([np.zeros((0, want.shape[1]), dtype=complex), *sent])
    assert all(len(zs) <= theta._CHUNK_TERMS for zs in sent)
    assert len(got) == len(want) == len(_unique_rows(got)[0])
    assert len(_unique_rows(np.vstack([got, want]))[0]) == len(want)
    return len(got)


def assert_sums_unique_rows(basis, z, sent):
    """The stacked log-magnitudes are the every-row oracle's bits, and the
    points summed for them are the distinct rows of the stack, each once
    over all the lattice-sum calls; returns how many were sent."""
    lm = stacked_log_mag(basis, None, None)
    stack = stacked_rows(basis, z)
    # before the oracle, whose lattice sums are recorded too
    count = assert_each_sent_once(sent, stack[_unique_rows(stack)[0]])
    assert np.array_equal(lm, stacked_log_mag_every_row(basis, None, None))
    return count


@pytest.mark.parametrize(
    "rm, k, z",
    [
        pytest.param(SQUARE, 16, grid_z(SQUARE, 16, 128), id="square-grid"),
        pytest.param(GENERIC, 16, grid_z(GENERIC, 16, 128), id="generic-grid"),
        pytest.param(COUPLED, 2, grid_z(COUPLED, 2, 8), id="coupled-grid"),
        pytest.param(GENERIC, 5, seeded_z(GENERIC, 5, 200), id="generic-seeded"),
        pytest.param(COUPLED, 3, seeded_z(COUPLED, 3, 200), id="coupled-seeded"),
        pytest.param(SQUARE, 2, signed_zero_z(), id="signed-zeros"),
        pytest.param(SQUARE, 3, np.zeros((0, 1), dtype=complex), id="no-points"),
        pytest.param(COUPLED, 3, np.zeros((0, 2), dtype=complex), id="no-points-coupled"),
    ],
)
def test_shifted_groups_are_unique_rows_of_the_stack(monkeypatch, rm, k, z):
    basis = theta_basis(rm, k)
    sent = summed_at(monkeypatch, z)
    assert_sums_unique_rows(basis, z, sent)


def test_shifted_keys_renumber_past_2_63(monkeypatch):
    # 2^12 Re rows (r, ..., r) / 2^14, each with Im rows A, B and A again:
    # 32 sections give 393 216 rows and 2^13 distinct differences per axis,
    # so the mixed-radix key of the Im code and five such codes spans
    # 2^66. The partial keys are renumbered before the last axis; a large
    # Im Omega keeps the lattice sums to 11 terms
    basis = theta_basis(validate_riemann_matrix(1000j * np.eye(5)), 2)
    re = np.repeat(np.arange(2**12) / 2**14, 3)[:, None] * np.ones(5)
    z = re.astype(complex)
    z.imag = np.tile([[0.1, 0.2, 0.3, 0.4, 0.5], [0.5, 0.4, 0.3, 0.2, 0.1],
                      [0.1, 0.2, 0.3, 0.4, 0.5]], (2**12, 1))
    codes = [np.unique(stacked_rows(basis, z).real[:, d]).size for d in range(5)]
    _, span, _ = theta._shifted_keys(basis, z)
    assert codes == [2**13] * 5 and span < 2**63
    sent = summed_at(monkeypatch, z)
    assert assert_sums_unique_rows(basis, z, sent) == 2 * len(z) * basis.n_sections // 3


@pytest.mark.parametrize(
    "rm, k, grid_m",
    [
        pytest.param(SQUARE, 16, 128, id="square-grid"),
        pytest.param(GENERIC, 5, None, id="generic-seeded"),
        pytest.param(COUPLED, 2, 8, id="coupled-grid"),
    ],
)
def test_stacked_log_mag_sums_distinct_points_bitwise(rm, k, grid_m):
    # grid points repeat under the shifts b_i; seeded points do not
    if grid_m is None:
        x, y = np.random.default_rng(3).uniform(-0.5, 1.5, size=(2, 200, rm.n))
    else:
        grid = quadrature_grid(rm.n, grid_m)
        x, y = grid.x, grid.y
    basis = theta_basis(rm, k)
    assert np.array_equal(stacked_log_mag(basis, x, y), stacked_log_mag_every_row(basis, x, y))


@pytest.mark.parametrize(
    "rm, k, m",
    [
        pytest.param(SQUARE, 8, 16, id="square-8"),
        pytest.param(GENERIC, 5, 12, id="generic-5"),
        pytest.param(COUPLED, 2, 4, id="coupled-2"),
    ],
)
def test_moment_map_is_the_same_bits_at_any_pair_budget(monkeypatch, rm, k, m):
    # budgets of 1, 3 and 7 pairs, with lattice chunks of as few terms,
    # give blocks of every section of two or three points and merge the
    # distinct keys many times over; square takes the table over the key
    # span, generic and coupled the binary search
    basis, grid = theta_basis(rm, k), quadrature_grid(rm.n, m)
    x, y = grid.x, grid.y
    runs = []
    for pairs in (1, 3, 7, theta._CHUNK_TERMS):
        monkeypatch.setattr(theta, "_CHUNK_TERMS", pairs)
        runs.append((stacked_log_mag(basis, x, y), per_section_image(basis, x, y)))
    for lm, xi in runs[:-1]:
        assert np.array_equal(lm, runs[-1][0]) and np.array_equal(xi, runs[-1][1])
    assert np.array_equal(runs[-1][0], stacked_log_mag_every_row(basis, x, y))


def test_stacked_log_mag_memory_is_the_result_and_a_margin():
    # Omega = i, k = 32 on 256^2: a 16 MB result from 129 024 distinct
    # points; building key, index or inverse arrays over the 2 097 152
    # pairs, as a whole-stack grouping would, peaks past 3x the result
    basis, grid = theta_basis(SQUARE, 32), quadrature_grid(1, 256)
    tracemalloc.start()
    try:
        lm = stacked_log_mag(basis, grid.x, grid.y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * lm.nbytes


def test_one_section_keys_take_no_table_of_every_section():
    # the dense-span check's keys of one section at every point, Omega = i,
    # k = 32 on 256^2: a few (1, m) rows, not the 16 MiB (m, k) table of
    # every point's codes that gathering points before sections builds
    basis, grid = theta_basis(SQUARE, 32), quadrature_grid(1, 256)
    keys, _, _ = theta._shifted_keys(basis, _gauge(basis, grid.x, grid.y)[0])
    tracemalloc.start()
    try:
        key = keys(slice(1), slice(None))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert key.shape == (1, grid.size) and key.flags.c_contiguous
    assert peak <= 4 * key.nbytes < grid.size * basis.k * 8


@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("m", [0, 1, 2, 5, 6, 17])
def test_point_blocks_tile_the_points_with_two_or_more_each(monkeypatch, k, m):
    # whole-section blocks of at most the budget's points and at least two
    # (one when there is one point): numpy sums one point's sections
    # pairwise but two or more points' sections in order
    for pairs in (1, 3, 7, 12):
        monkeypatch.setattr(theta, "_CHUNK_TERMS", pairs)
        blocks = list(theta._point_blocks(k, m))
        assert [p for b in blocks for p in range(m)[b]] == list(range(m))
        assert all(b.stop - b.start >= min(2, m) for b in blocks)
        assert all(b.stop - b.start <= max(2, pairs // k) + 1 for b in blocks)


@pytest.mark.parametrize("rm", [SQUARE, COUPLED], ids=["square", "coupled"])
def test_stacked_log_mag_of_no_points(rm):
    basis = theta_basis(rm, 3)
    empty = np.zeros((0, rm.n))
    assert stacked_log_mag(basis, empty, empty).shape == (basis.n_sections, 0)


@pytest.mark.parametrize("k, m, rows", [(16, 128, 31_744), (32, 256, 129_024)])
def test_stacked_log_mag_sums_each_distinct_point_once(monkeypatch, k, m, rows):
    # of the k * m^2 shifted points of a grid with k | m, only these differ;
    # the calls together take each once, in slices of _CHUNK_TERMS points
    sent = recorded_sums(monkeypatch)
    grid = quadrature_grid(1, m)
    stacked_log_mag(theta_basis(SQUARE, k), grid.x, grid.y)
    got = np.concatenate(sent)
    assert len(got) == len(_unique_rows(got)[0]) == rows
    assert max(map(len, sent)) <= theta._CHUNK_TERMS


@pytest.mark.parametrize("pairs", [1, 5, _CHUNK_TERMS])
@pytest.mark.parametrize(
    "rm, k, m",
    [
        pytest.param(SQUARE, 8, 16, id="square-8"),
        pytest.param(GENERIC, 5, 10, id="generic-5"),
        pytest.param(COUPLED, 2, 4, id="coupled-2"),
    ],
)
def test_distinct_points_are_summed_once_in_slices_at_any_pair_budget(monkeypatch, rm, k, m, pairs):
    # slices of 1 and 5 points and the shipped size, walked over the span
    # table (square) or the sorted keys (generic, coupled): every distinct
    # shifted point goes to exactly one call, and the values keep the
    # every-row oracle's bits
    basis, grid = theta_basis(rm, k), quadrature_grid(rm.n, m)
    z = _gauge(basis, grid.x, grid.y)[0]
    monkeypatch.setattr(theta, "_CHUNK_TERMS", pairs)
    sent = recorded_sums(monkeypatch)
    lm = stacked_log_mag(basis, grid.x, grid.y)
    stack = stacked_rows(basis, z)
    assert_each_sent_once(sent, stack[_unique_rows(stack)[0]])
    assert np.array_equal(lm, stacked_log_mag_every_row(basis, grid.x, grid.y))


@pytest.mark.parametrize("rm, k, m", [(SQUARE, 4, 32), (COUPLED, 2, 16), (COUPLED, 3, 8)],
                         ids=["square-4", "coupled-2", "coupled-3"])
def test_centres_are_the_whole_batch_centres_in_any_slice(rm, k, m):
    # points() reads each point's centre from its distinct Im z row, so a
    # slice of one point gets the centre that one product over every
    # distinct point gives it: at n = 2 the product's own bits depend on
    # its row count, and a centre moved at a rounding tie changes the sum
    basis, grid = theta_basis(rm, k), quadrature_grid(rm.n, m)
    z = _gauge(basis, grid.x, grid.y)[0]
    keys, _, points = theta._shifted_keys(basis, z)
    distinct = theta._distinct_keys(keys, basis.n_sections, len(z))
    zs, l_star = points(distinct)
    assert np.array_equal(l_star, theta._centres((rm.omega / k).imag, zs.imag, np.zeros(rm.n)))
    singles = [points(distinct[i : i + 1])[1] for i in range(0, len(distinct), 97)]
    assert np.array_equal(np.concatenate(singles), l_star[::97])
