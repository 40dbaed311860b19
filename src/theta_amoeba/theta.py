"""Theta series with characteristics and gauge-fixed section bases.

The level-k basis on X = C^n / (Omega Z^n + Z^n) is indexed by rational
points b_i in (1/k)(Z/k)^n of the base torus. All section evaluation goes
through one truncated lattice sum, reported as a per-point log-scale times
complex sums of modulus at most the term count, so large k never overflows.
"""

from __future__ import annotations

import contextvars
import itertools
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .abelian import RiemannMatrix, ellipsoid_points, validate_riemann_matrix, xy_to_z
from .errors import ConfigError, InvalidPoints, NonPositive, NotPositive, TruncationOverflow

# tail budget: every dropped term lies below exp(-TAIL_LOG) ~ 1e-16 * e^-5
# of the Gaussian peak (see _offsets)
TAIL_LOG = 16.0 * np.log(10.0) + 5.0
MAX_RADIUS = 200
# double precision leaves ~1e-17 residue at true section zeros, so a
# degeneracy cutoff on |s|_h must sit well above that cancellation floor
ZERO_FLOOR_LOG = np.log(1e-12)
# complex terms per lattice chunk (512 KB): in cache and at the memory floor,
# yet amortising each chunk's Python work (swept from 8192 to 4 000 000);
# also the (section, point) pairs per block of the per-section route (int64
# keys and gathers of 256 KB each), and the terms per product of its span table
_CHUNK_TERMS = 32_768
# the per-section route sums every key of its span, as a product table, where
# the span holds at most this many keys per distinct shifted point
_DENSE_SPAN = 4


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


# threads _theta_sums runs on: the CPUs this process may use, which the CLI
# caps at THETA_AMOEBA_THREADS
THREADS = _usable_cpus()


def _truncation_radii(t_eff: np.ndarray) -> tuple[float, np.ndarray]:
    """Radius R + rho of the ellipsoid of kept offsets, and its bounding box.

    R^2 = TAIL_LOG / pi is the Gaussian tail radius about the series centre
    c, and rho = max |delta|_{t_eff} over the corners delta of {+-1/2}^n is
    the farthest c can sit from its rounded centre l* = round(c). The
    ellipsoid t(v) t_eff v <= (R + rho)^2 reaches (R + rho)
    sqrt((t_eff^{-1})_ii) along axis i; the box half-widths round that up.
    """
    if float(np.linalg.eigvalsh(t_eff)[0]) <= 0.0:
        raise NotPositive("effective period matrix has nonpositive imaginary part")
    corners = 0.5 * np.array(list(itertools.product((-1.0, 1.0), repeat=t_eff.shape[0])))
    rho = np.sqrt(np.einsum("ji,ik,jk->j", corners, t_eff, corners).max())
    radius = float(np.sqrt(TAIL_LOG / np.pi) + rho)
    return radius, _half_widths(t_eff, radius)


def _half_widths(q: np.ndarray, radius: float) -> np.ndarray:
    """Integer half-widths of the box about 0 that holds the ellipsoid
    t(v) q v <= radius^2: its reach radius sqrt((q^{-1})_ii) along axis i,
    rounded up. TruncationOverflow past MAX_RADIUS."""
    r = np.ceil(radius * np.sqrt(np.diag(np.linalg.inv(q)))).astype(int)
    if r.max() > MAX_RADIUS:
        raise TruncationOverflow(
            f"lattice truncation radius {r.max()} exceeds cap {MAX_RADIUS}"
        )
    return r


def _offsets(t_eff: np.ndarray) -> np.ndarray:
    """Offsets v with t(v) t_eff v <= (R + rho)^2, in lexicographic order.

    One set serves every centre: a term at l = l* + v with |l - c|_{t_eff}
    <= R has |v| <= |l - c| + |l* - c| <= R + rho, so every dropped term
    lies below exp(-TAIL_LOG) times the Gaussian peak at c, for any om.
    """
    radius, radii = _truncation_radii(t_eff)
    return ellipsoid_points(t_eff, radius, np.zeros(radii.size), radii).astype(float)


def _centres(t_eff: np.ndarray, im: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Rounded centres l* = round(-a - Im z t_eff^{-1}) of the Gaussians of
    points with imaginary parts im (rows), by one product over the rows.

    At n >= 2 the product's bits depend on how many rows it takes, and
    rounding shows that at exact ties, so a caller that sums one set of
    points in slices computes their centres once, before slicing.
    """
    return np.round(-a - im @ np.linalg.inv(t_eff).T)


def _exponents(om_eff, off, z, l_star, a):
    """The (rows, J) exponents 2 pi i (1/2 tl om l + tl z_p) of the terms
    l = c_p + off_j, c_p = l*_p + a, of points z, factored (Deconinck et
    al. 2004) as P_p + Q_j + t(om c_p + z_p) off_j with P_p = 1/2 t(c_p) om
    c_p + t(c_p) z_p, Q_j = 1/2 t(off_j) om off_j; elementwise, not BLAS,
    so a row's bits do not depend on the other rows."""
    c = l_star + a
    zeta = z + sum(c[:, d, None] * om_eff[d] for d in range(z.shape[1]))
    w = zeta[:, :1] * off[:, 0]
    for d in range(1, z.shape[1]):
        w += zeta[:, d, None] * off[:, d]
    w += 0.5 * np.einsum("jn,np,jp->j", off, om_eff, off)
    w += 0.5 * (c * (zeta + z)).sum(axis=1)[:, None]
    w *= 2j * np.pi  # in place: a second name would keep the terms alive
    return w


def _lattice_terms(om_eff: np.ndarray, z: np.ndarray, a: np.ndarray, depth: int | None = None,
                   l_star: np.ndarray | None = None):
    """Truncated terms of theta[a; 0](om_eff, z), built once per point.

    Returns the offsets off of _offsets (shape (J, n)), one set for every
    point, and a generator function chunks(start=0, stop=m,
    budget=_CHUNK_TERMS) over the points start to stop in whole chunks,
    yielding (rows, l_star, w, shift). Point p's terms run over l = c_p +
    off_j, c_p = l*_p + a, with l*_p the rounded centre of its Gaussian:
    w[p, j] = exp(x_pj - shift_p), x the exponents of _exponents and
    shift_p the row's largest real exponent, so |w| <= 1, the same bits in
    any chunk. A chunk holds `budget` of the caller's terms: `depth` per
    lattice term, n by default for the gradient contraction's (rows, n, J)
    terms, 1 for a plain sum. The centres l*, if not given, are _centres
    of the batch.
    """
    t_eff = om_eff.imag
    off = _offsets(t_eff)
    if l_star is None:
        l_star = _centres(t_eff, z.imag, a)
    m, n = z.shape
    row = len(off) * (n if depth is None else depth)

    def chunks(start=0, stop=m, budget=_CHUNK_TERMS):
        chunk = max(1, budget // row)
        for s in range(start, stop, chunk):
            rows = slice(s, min(stop, s + chunk))
            w = _exponents(om_eff, off, z[rows], l_star[rows], a)
            shift = w.real.max(axis=1)
            w -= shift[:, None]
            np.exp(w, out=w)
            yield rows, l_star[rows], w, shift

    return off, chunks


def _theta_sums(om_eff, z, a, b, l_star=None):
    """theta[a; b](om_eff, z) = exp(shift) * vals, as arrays over the points,
    about the centres l_star if given (see _lattice_terms).

    The points are summed in THREADS contiguous runs of whole chunks of
    _CHUNK_TERMS // THREADS lattice terms, so the live chunks together stay
    within _CHUNK_TERMS; with fewer than two chunks a run there is one run
    of full chunks. The first run stays on this thread, each other goes to
    a worker in a copy of this thread's context, which carries numpy 2's
    errstate. Each run writes its own rows, and a row's sum does not
    depend on its run, so the result is bit for bit the one-thread result.
    An error in any run, a warning turned into an error included, is
    raised here once every run has ended.
    """
    om_eff = np.atleast_2d(np.asarray(om_eff, dtype=complex))
    n = om_eff.shape[0]
    z = np.atleast_2d(np.asarray(z, dtype=complex))
    a = np.zeros(n) if a is None else np.asarray(a, dtype=float)
    # z itself without b: z + zeros would copy every point
    zb = z if b is None else z + np.asarray(b, dtype=float)
    off, chunks = _lattice_terms(om_eff, zb, a, depth=1, l_star=l_star)
    m, threads = z.shape[0], THREADS
    chunk = max(1, _CHUNK_TERMS // threads // len(off))
    if -(-m // chunk) < 2 * threads:
        # too few chunks to share: one run of full chunks
        threads, chunk = 1, max(1, _CHUNK_TERMS // len(off))
    n_chunks = -(-m // chunk)
    ends = [min(m, t * n_chunks // threads * chunk) for t in range(threads + 1)]
    shift, vals = np.empty(m), np.empty(m, dtype=complex)

    def total(run):
        for rows, _, w, s in chunks(ends[run], ends[run + 1], chunk * len(off)):
            shift[rows] = s
            vals[rows] = w.sum(axis=1)

    with ThreadPoolExecutor(max(1, threads - 1)) as pool:
        futures = [pool.submit(contextvars.copy_context().run, total, t) for t in range(1, threads)]
        total(0)
    for future in futures:
        future.result()
    return shift, vals


def _characteristic_args(om_eff, z, a, b):
    """The arguments of theta_char and theta_char_log, checked as they state."""
    om_eff = validate_riemann_matrix(om_eff).omega
    n = om_eff.shape[0]
    try:
        z = np.atleast_2d(np.asarray(z, dtype=complex))
        a, b = (None if c is None else np.asarray(c, dtype=float) for c in (a, b))
    except (TypeError, ValueError) as exc:
        raise InvalidPoints(f"z, a and b must be numeric: {exc}") from None
    for name, c, shape in (("z", z, (len(z), n)), ("a", a, (n,)), ("b", b, (n,))):
        if c is not None and (c.shape != shape or not np.isfinite(c).all()):
            raise InvalidPoints(f"{name} must be finite with shape {shape}, got {c.shape}")
    return om_eff, z, a, b


def theta_char_log(om_eff: np.ndarray, z: np.ndarray, a=None, b=None):
    """Log-form theta sum with characteristics.

    theta[a; b](om_eff, z) = sum_l e(1/2 t(l+a) om (l+a) + t(l+a)(z+b)),
    with e(t) = exp(2 pi i t). Returns (log_mag, phase) arrays over the
    leading axis of z (shape (m, n)). The sum is accurate to roundoff of its
    largest term, which grows with the exponents, not relative to its size.
    om_eff must pass validate_riemann_matrix, z must be finite (m, n) points
    and a and b finite n-vectors, or InvalidPoints.
    """
    shift, vals = _theta_sums(*_characteristic_args(om_eff, z, a, b))
    # theta has honest zeros: log_mag = -inf there, phase arbitrary 0
    with np.errstate(divide="ignore"):
        return shift + np.log(np.abs(vals)), np.angle(vals)


def theta_char(om_eff, z, a=None, b=None) -> np.ndarray:
    """Complex theta values; only safe when magnitudes are moderate.

    Scales the sums by exp(shift) directly, as GaugeValue.complex_values
    scales its sums by exp(log_scale): no round trip through log|.| and
    arg, which would lose digits at large magnitude. Checks as theta_char_log.
    """
    shift, vals = _theta_sums(*_characteristic_args(om_eff, z, a, b))
    return np.exp(shift) * vals


@dataclass(frozen=True)
class GaugeValue:
    """Section values in the unitary gauge: a per-point scale times sums.

    Section i at point p is exp(log_scale[p] + i base_phase[p]) values[i, p].
    The per-point factor, from arrays of shape (n_points,), is the gauge
    factor times the lattice sum's row scale exp(shift); values, shape
    (n_sections, n_points), are the sums times their point phases, of
    modulus at most the term count.
    No section is divided by the scale, so norms stay representable at any
    level. grad, when requested, holds d_z of the sums, shape (n_sections,
    n_points, n), scaled like values: d_z Theta_k(z; b_i), none divided out.
    """

    log_scale: np.ndarray
    base_phase: np.ndarray
    values: np.ndarray
    grad: np.ndarray | None = None

    @property
    def log_mag(self) -> np.ndarray:
        with np.errstate(divide="ignore"):  # -inf at an exact zero
            return self.log_scale + np.log(np.abs(self.values))

    @property
    def phase(self) -> np.ndarray:
        return self.base_phase + np.angle(self.values)

    def complex_values(self) -> np.ndarray:
        return np.exp(self.log_scale + 1j * self.base_phase) * self.values

    def norm_sq(self) -> np.ndarray:
        return np.exp(2.0 * self.log_scale) * np.abs(self.values) ** 2


@dataclass(frozen=True)
class ThetaBasis:
    """Level-k theta basis, indexed lexicographically over (Z/k)^n."""

    om: RiemannMatrix
    k: int
    indices: np.ndarray

    @property
    def n_sections(self) -> int:
        return self.indices.shape[0]

    @property
    def b_points(self) -> np.ndarray:
        return self.indices / self.k

    @property
    def log_c_omega(self) -> float:
        """log of the L^2 normalizing constant 2^{n/4} det(Im om)^{1/4}."""
        n = self.om.n
        logdet = 2.0 * np.sum(np.log(np.diag(self.om.im_chol)))
        return 0.25 * (n * np.log(2.0) + logdet)


def _level(k, name: str = "level k") -> int:
    """k as an int, or NonPositive unless it is a positive integer."""
    # bool is an int subclass, and NaN and +-inf fail the chained comparison
    # before int() could raise on them
    if isinstance(k, (bool, np.bool_)) or not (1 <= k < np.inf and k == int(k)):
        raise NonPositive(f"{name} must be a positive integer, got {k!r}")
    return int(k)


def _seed(seed) -> int:
    """seed as an int, or ConfigError unless it is a non-negative integer."""
    if isinstance(seed, (bool, np.bool_)) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def _section_indices(k: int, n: int) -> np.ndarray:
    """(Z/k)^n in lexicographic order: theta_basis's indices, and heisenberg's."""
    return np.array(list(itertools.product(range(k), repeat=n)), dtype=int)


def theta_basis(om: RiemannMatrix, k: int) -> ThetaBasis:
    k = _level(k)
    return ThetaBasis(om=om, k=k, indices=_section_indices(k, om.n))


def _as_points(x, y, n):
    """x and y as matching (m, n) arrays of finite coordinates.

    Each is a batch of n-vectors along its last axis, or at n = 1 also a
    scalar or a flat batch of shape (m,).
    """
    try:
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidPoints(f"coordinates are not real {n}-vectors: {exc}") from None
    for a in (x, y):
        if a.shape[-1:] != (n,) and not (n == 1 and a.ndim < 2):
            raise InvalidPoints(f"coordinates are not real {n}-vectors: shape {a.shape}")
    x, y = x.reshape(-1, n), y.reshape(-1, n)
    if x.shape != y.shape:
        raise InvalidPoints(f"x and y shapes differ: {x.shape} and {y.shape}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise InvalidPoints("point coordinates must be finite")
    return x, y


def _gauge(basis: ThetaBasis, x, y, phase: bool = True):
    """Points z = Omega x + y and the gauge factor's log-magnitude and phase
    (None without phase, for callers that read magnitudes only).

    The unitary gauge multiplies the holomorphic section by
    exp(i pi k (tx Omega x + tx y)) times the Gaussian h-weight, giving
      log|s_i|_h = log C - (n/4) log k - pi k tx T x + log|Theta_k(z; b_i)|
      arg s_i    = pi k (tx S x + tx y) + arg Theta_k(z; b_i)
    with Theta_k(z; b) = theta[0; 0](Omega / k, z - b).
    """
    om, k, n = basis.om, basis.k, basis.om.n
    x, y = _as_points(x, y, n)
    xtx = np.einsum("mi,ij,mj->m", x, om.im, x)
    base_lm = basis.log_c_omega - 0.25 * n * np.log(k) - np.pi * k * xtx
    if not phase:
        return xy_to_z(x, y, om), base_lm, None
    xsx = np.einsum("mi,ij,mj->m", x, om.re, x)
    xy = np.einsum("mi,mi->m", x, y)
    base_ph = np.pi * k * (xsx + xy)
    return xy_to_z(x, y, om), base_lm, base_ph


def _gradient(vals, l_star, w_off, phase, out):
    """d_z of section sums times their point phases, written into out and
    returned: shape (..., n, S) over the points' leading axes.

    vals (..., S) are the sums before the point phase, scaled by
    exp(-shift); w_off (..., n, S) the same sums with each term times its
    offset, and l_star (..., n) the centres. Term l = l* + off carries
    2 pi i l, so d_z is 2 pi i (l* vals + w_off): nothing is divided, and
    an exact zero keeps its gradient. The products and the sum run in the
    order of that expression, in place in out, so no temporary of the
    gradient's size is built.
    """
    np.multiply(l_star[..., :, None], vals[..., None, :], out=out)
    out += w_off
    np.multiply(2j * np.pi * phase[..., None, :], out, out=out)
    return out


def section_gauge_values(basis: ThetaBasis, x, y, grad: bool = False) -> GaugeValue:
    """Evaluate every basis section at unreduced coordinates z = Omega x + y.

    This is the route for scattered points. grid_gauge_blocks serves the
    nodes of a quadrature grid, with the same values and accuracy contract:
    it factors each node's terms exactly instead of summing them afresh,
    so every node keeps its own sum and gram_matrix = I still checks the
    basis node by node.
    Section j is the Omega/k series with term l twisted by e(-tl j / k), so
    one lattice sum per point gives all k^n sections: its terms are
    contracted against the table e(-t(off) j / k) over the offsets,
    then multiplied by the point's phase e(-t(l*) j / k). Both phases are
    read from the k-th roots of unity by an integer index mod k. With
    grad, the same contraction of (l* + off) times the terms gives the
    gradient d_z Theta_k(z; b_i), scaled like the values.

    Accuracy contract, shared with _stacked_log_mag_blocks and grid_gauge_blocks:
    |s_i|_h is accurate to roundoff times max_j |s_j|_h at each point, not
    relative to |s_i|_h: every section sums the same terms up to phase.
    The roundoff grows with k and |x|; for k <= 32 and coordinates in
    [-0.5, 1.5] it is within 1e-13 (against mpmath at k = 32, 250 points:
    <= 2.9e-14 on Omega = i, <= 5.7e-14 on 0.3 + 1.2i). Sections far below
    the largest carry no digits. At k = 1 the one section cancels to zero
    along the theta divisor; there the roundoff is relative to the sum's
    largest term instead.
    """
    k, n = basis.k, basis.om.n
    z, log_scale, base_ph = _gauge(basis, x, y)
    m = z.shape[0]
    off, chunks = _lattice_terms(basis.om.omega / k, z, np.zeros(n))
    unit = np.exp(-2j * np.pi * np.arange(k) / k)
    idx = basis.indices.T
    table = unit[(off.astype(int) @ idx) % k]
    values = np.empty((basis.n_sections, m), dtype=complex)
    grads = np.empty((basis.n_sections, m, n), dtype=complex) if grad else None
    for rows, l_star, w, shift in chunks():
        l_star = l_star.astype(int)
        vals = w @ table
        phase = unit[(l_star @ idx) % k]
        if grad:
            w_off = (w[:, None, :] * off.T[None, :, :]) @ table
            g = _gradient(vals, l_star, w_off, phase, np.empty_like(w_off))
            grads[:, rows] = g.transpose(2, 0, 1)
        vals *= phase
        values[:, rows] = vals.T
        log_scale[rows] += shift
    return GaugeValue(log_scale=log_scale, base_phase=base_ph, values=values, grad=grads)


def grid_gauge_blocks(basis: ThetaBasis, m: int, grad: bool = False, box: tuple | None = None):
    """Every basis section on the nodes of quadrature_grid(n, m), in blocks;
    with box, a tuple of 2n counts, on the nodes whose index on axis a is
    below box[a] only (x-axes first, then y-axes).

    The grid route: section_gauge_values at the grid's nodes, with the
    same values and accuracy contract. Yields one GaugeValue per block of
    whole x-nodes, each with the box's y-nodes, in the grid's x-major node
    order, so the blocks' nodes run over the box once.
    At z = Omega x + y with real y the centre l* and the row shift depend
    on x alone, and y enters term l only as the phase e(tl y). So one
    lattice sum per x-node, at z = Omega x, serves its y-nodes y = q / m:
    their sums are
      sum_j w(x, j) e(-t(off_j) s / k) e(t(off_j) q / m),
    times the point phases e(-t(l*) s / k) e(t(l*) q / m), all read from
    roots of unity by integer indices mod k and mod m. A step of x-nodes
    then costs one (y-nodes x J)(J x rows k^n) product, the multiply-adds of
    section_gauge_values' contraction without its per-node exponentials;
    grad widens it by n more tables of the offset-weighted terms. Each
    node still gets its own sum: every term is factored exactly, and no
    node's values are copied from another by a Heisenberg translation.

    Memory contract: a block is one step, the longest run of whole x-nodes
    whose (J, tables, S) operands and (y-nodes, tables, S) sums fill at
    most _CHUNK_TERMS entries, and at least one x-node. Beyond the blocks a
    caller keeps, the route holds the block it builds, four buffers of one
    step's arrays, one lattice chunk, and tables over the offsets times
    the y-nodes, the x-nodes and the sections: none over the whole grid.
    With grad, a step's gradients are made in its terms' buffer, whose
    terms are spent once summed, so the gradient half of a step allocates
    only the copy its block returns.
    Steps are counted from each lattice chunk's start, and a node's
    values have the same bits as in one whole-grid array. A smaller box
    can narrow a step's BLAS product and its order of adds (up to 2.7e-15
    at one x-node, n = 1); the 1/k strip (m/k,) + (m,) * (2n - 1) kept
    every bit.
    """
    k, n = basis.k, basis.om.n
    box = (m,) * (2 * n) if box is None else box
    x_nodes, y_nodes = (np.indices(sides).reshape(n, -1).T for sides in (box[:n], box[n:]))
    x, y = x_nodes / m, y_nodes / m
    z, log_scale, base_ph = _gauge(basis, x, np.zeros_like(x))
    off, chunks = _lattice_terms(basis.om.omega / k, z, np.zeros(n))
    off_int = off.astype(int)
    unit_k = np.exp(-2j * np.pi * np.arange(k) / k)
    unit_m = np.exp(2j * np.pi * np.arange(m) / m)
    idx = basis.indices.T
    y_table = unit_m[(y_nodes @ off_int.T) % m]
    # the section table, then with grad each offset coordinate times it:
    # (J, tables, S)
    tables = unit_k[(off_int @ idx) % k][:, None, :]
    if grad:
        tables = np.concatenate([tables, off[:, :, None] * tables], axis=1)
    n_s, n_y, n_t = basis.n_sections, len(y_nodes), tables.shape[1]
    step = max(1, _CHUNK_TERMS // (n_t * n_s * (n_y + len(off))))
    # flat buffers for a whole step's terms (then, with grad, its
    # gradients), sums, values and phases, which every step rewrites:
    # allocated afresh per step, their pages went back to the system after
    # each step and were faulted in again
    work = [
        np.empty(size * n_s * step, dtype=complex)
        for size in (max(len(off) * n_t, n_y * n if grad else 0), n_y * n_t, n_y, n_y)
    ]

    def into(i, *shape):
        """The first entries of work buffer i, as an array of shape."""
        return work[i][: np.prod(shape)].reshape(shape)

    def block(wx, lx, xs):
        """The GaugeValue of the x-nodes xs from their terms wx and centres lx."""
        r = len(wx)
        terms = into(0, len(off), n_t, r, n_s)
        np.multiply(wx.T[:, None, :, None], tables[:, :, None, :], out=terms)
        sums = into(1, n_y, n_t * r * n_s)
        np.matmul(y_table, terms.reshape(len(off), -1), out=sums)
        sums = sums.reshape(n_y, n_t, r, n_s)
        # node order is x-major: rows of (x-node, y-node)
        vals = into(2, r, n_y, n_s)
        vals[...] = sums[:, 0].transpose(1, 0, 2)
        phase = into(3, r, n_y, n_s)
        s_phase, y_phase = unit_k[(lx @ idx) % k], unit_m[(lx @ y_nodes.T) % m]
        np.multiply(s_phase[:, None, :], y_phase[:, :, None], out=phase)
        grads = None
        if grad:
            # (x-node, y-node, n, S), into the spent terms' buffer
            w_off = sums[:, 1:].transpose(2, 0, 1, 3)
            g = _gradient(vals, lx[:, None, :], w_off, phase, into(0, r, n_y, n, n_s))
            # a C-order (S, nodes, n) copy: the metric's products read it
            grads = g.transpose(3, 0, 1, 2).copy().reshape(n_s, r * n_y, n)
        vals = vals.reshape(r * n_y, n_s)
        vals *= phase.reshape(r * n_y, n_s)
        # the gauge phase pi k (tx S x + tx y) at the block's nodes.
        # Elementwise, not BLAS: a node's bits must not depend on its
        # block's shape
        xy = sum(x[xs, d, None] * y[:, d] for d in range(n))
        base_phase = base_ph[xs, None] + np.pi * k * xy
        return GaugeValue(np.repeat(log_scale[xs], n_y), base_phase.ravel(), vals.T.copy(), grads)

    for rows, l_star, w, shift in chunks():
        l_star = l_star.astype(int)
        log_scale[rows] += shift
        for start in range(0, len(w), step):
            wx, lx = w[start : start + step], l_star[start : start + step]
            yield block(wx, lx, slice(rows.start + start, rows.start + start + len(wx)))


def _unique_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Groups of bitwise-equal rows of a 2-D array: (first, inverse).

    first[g] is the index of group g's first row, ascending, so groups are
    numbered in order of first appearance; a[first][inverse] restores a.
    Rows are compared as their raw bytes (an int64 view), so -0.0 and
    +0.0 fall into different groups and equal means bit-equal.
    """
    keys = np.ascontiguousarray(a).view(np.int64)
    # lexsort is stable, so each group's rows stay in ascending order
    order = np.lexsort(keys.T[::-1])
    sorted_keys = keys[order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = (sorted_keys[1:] != sorted_keys[:-1]).any(axis=1)
    starts = np.flatnonzero(new)
    first = order[starts]
    by_first = np.argsort(first)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(by_first.size)
    inverse = np.empty_like(order)
    inverse[order] = np.repeat(rank, np.diff(starts, append=order.size))
    return first[by_first], inverse


def _sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of an integer array, ascending, flattened: one
    sort and a neighbour compare, without np.unique's extra passes."""
    keys = np.sort(keys, axis=None)
    new = np.ones(keys.size, dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    return keys[new]


def _point_blocks(n_sections: int, m: int):
    """Slices of the m points in blocks of every section, each of at most
    _CHUNK_TERMS (section, point) pairs and at least two points; the last
    block takes a lone remaining point. numpy adds a one-point block's
    sections pairwise but a wider block's in order, as it does the whole
    (sections, m) array's, so a lone point would change the softmax's bits."""
    step = max(2, _CHUNK_TERMS // n_sections)
    starts = list(range(0, m - 1, step)) or list(range(m))
    for p0, p1 in zip(starts, [*starts[1:], m]):
        yield slice(p0, p1)


def _distinct_keys(block_keys, n_sections: int, m: int) -> np.ndarray:
    """Sorted distinct values of block_keys(sections, points) over every
    section of the blocks of _point_blocks(n_sections, m).

    Each block's distinct keys wait in a list that is merged into the
    sorted result once it outgrows both that result and a chunk, so the
    merges cost a sort of each key amortised a bounded number of times,
    and the list never holds more than the result plus two chunks.
    """
    merged = np.empty(0, dtype=np.int64)
    waiting, size = [], 0
    for pts in _point_blocks(n_sections, m):
        waiting.append(_sorted_distinct(block_keys(slice(None), pts)))
        size += waiting[-1].size
        if size > max(merged.size, _CHUNK_TERMS):
            merged = _sorted_distinct(np.concatenate([merged, *waiting]))
            waiting, size = [], 0
    return _sorted_distinct(np.concatenate([merged, *waiting]))


def _shifted_keys(basis: ThetaBasis, z: np.ndarray):
    """Integer keys of the shifted points z_p - b_i, and the points back.

    b_i is real, so the pair (i, p) gives the point with the bits of Im z_p
    and, per coordinate d, of the IEEE difference Re z_pd - b_id: two pairs
    give bit-equal points exactly when their Im z rows are and each
    coordinate's differences are. Tables over the distinct Im z rows, and
    per d over the distinct values u of Re z[:, d] times j < k, code these;
    the codes combine into one mixed-radix key per pair, below span. Where
    the next radix would pass 2^63, the partial keys are first renumbered
    by their sorted distinct values.

    Returns (keys, span, points, centres): keys(sections, points) gives a
    block's C-ordered (sections, points) keys, and points(keys) the pair
    (zs, l_star) of the shifted points of keys, with the bits z_p - b_i
    has, and their centres for the lattice sum over Omega / k. A centre
    depends on Im z alone, so it is read from centres, _centres of the
    distinct Im z rows, computed once: a point's centre is the same in any
    slice of keys. Unless an axis was renumbered (then centres is None),
    key r span / len(centres) + u is Im row r and Re values u.
    Each axis's codes are kept flat, u-major, and a block gathers only its
    own (section, point) codes, so one section's keys over every point
    take no (points x k) table. Of z, only the distinct Im rows are kept.
    """
    k, (m, n) = basis.k, z.shape
    im_first, im_code = _unique_rows(z.imag)
    im_rows = z.imag[im_first]
    centres = _centres((basis.om.omega / k).imag, im_rows, np.zeros(n))

    def partial_keys(axes):
        def keys(sections, points):
            key = im_code[points][None, :]
            for renumber, diffs, row, diff_code, index in axes:
                if renumber is not None:
                    key = np.searchsorted(renumber, key)
                key = key * diffs.size + diff_code[index[sections][:, None] + row[points]]
            return key
        return keys

    axes, span = [], im_first.size
    for d in range(n):
        re, re_code = np.unique(
            np.ascontiguousarray(z.real[:, d]).view(np.int64), return_inverse=True
        )
        # j / k has the bits of b_points = indices / k
        diffs = re.view(float)[:, None] - np.arange(k) / k
        codes, diff_code = np.unique(diffs.view(np.int64).ravel(), return_inverse=True)
        renumber = None
        if span * codes.size > 2**63:
            renumber = _distinct_keys(partial_keys(tuple(axes)), basis.n_sections, m)
            span = renumber.size
        # row[p] is where z_p's k differences start in the flat diff_code
        axes.append((renumber, codes.view(float), re_code * k, diff_code.ravel(),
                     basis.indices[:, d]))
        span *= codes.size

    def points(keys):
        zs = np.empty((keys.size, n), dtype=complex)
        for d in reversed(range(n)):
            renumber, diffs = axes[d][:2]
            keys, code = np.divmod(keys, diffs.size)
            zs.real[:, d] = diffs[code]
            if renumber is not None:
                keys = renumber[keys]
        # Im z_p - 0.0 keeps every bit of Im z_p, signed zeros included
        zs.imag = im_rows[keys]
        return zs, centres[keys]

    return partial_keys(axes), span, points, centres if all(ax[0] is None for ax in axes) else None


def _span_table(om_eff, span, points, centres):
    """shift + log|vals| of the lattice sums over om_eff at every key of a
    product span of _shifted_keys, flat: the bits _theta_sums (a = 0)
    gives each key's point, as _stacked_log_mag_blocks states."""
    off = _offsets(om_eff.imag)
    first, group = _unique_rows(centres)
    lm = np.empty((len(centres), span // max(1, len(centres))))
    width = lm.shape[1]
    e = _exponents(om_eff, off, *points(np.arange(len(lm)) * width), 0.0).real
    shift = e.max(axis=1)
    e = np.exp(e - shift[:, None] + 0j)
    per_u = max(1, _CHUNK_TERMS // e.shape[1])
    for g, row in enumerate(first):
        rows = np.flatnonzero(group == g)
        for us in np.split(np.arange(width), range(per_u, width, per_u)):
            cs = _exponents(om_eff, off, *points(row * width + us), 0.0)
            cs.real = 0.0
            np.exp(cs, out=cs)
            step = max(1, _CHUNK_TERMS // cs.size)
            for part in np.split(rows, range(step, len(rows), step)):
                vals = (e[part, None] * cs).sum(axis=2)
                with np.errstate(divide="ignore"):  # -inf at an exact zero
                    lm[part[:, None], us] = np.log(np.abs(vals)) + shift[part, None]
    return lm.ravel()


def _stacked_log_mag_blocks(basis: ThetaBasis, x, y):
    """log|s_i|_h through one lattice sum per section, at z - b_i, in
    blocks of points.

    The route section_gauge_values replaced, with the same values and
    accuracy contract, kept for its one caller, amoeba_sample, whose 12-digit
    merge makes its point count depend on last-bit roundoff (ROADMAP item 2).

    Returns (m, blocks): the point count, and a generator of (points,
    block) over the slices of _point_blocks, in order, where block is the
    C-ordered (k^n, points) array of log|s_i|_h, every section of those
    points. Each block is a new array the caller may change in place.

    Each distinct shifted point z - b_i is summed once: on a grid that the
    shifts b_i map to itself most of them repeat. Two passes over the
    blocks find them by integer keys (_shifted_keys). The first, before
    this returns, builds a lookup table of their sums. Where the key span
    is at most _DENSE_SPAN times the distinct points of one section, a
    lower bound on the distinct count (square and rectangular grids), the
    table (_span_table, on this thread) covers the span: each distinct Im
    z row with each combination of distinct Re z - b values. A term's
    exponent (_exponents) has a real part r that depends on its point's
    Im z and centre alone and an imaginary part t that depends on its Re z
    and centre alone: each real-times-complex step is promoted with a zero
    imaginary part, whose products, +-0, change only signs of zero. So
    does the row's shift, its largest r. glibc's cexp and numpy's npy_cexp
    return exp(r + it) as (e^r cos t, e^r sin t), each part one IEEE
    product, so a term is E[row, j] CS[u, j] bit for bit, E = exp((r -
    shift) + 0i) per Im row and CS = exp(0 + it) per centre and Re value,
    both numpy's complex exp (its real exp, cos and sin differ in the last
    bit). The products are summed over j in the pairwise order of
    _theta_sums' w.sum(axis=1); log|.| ignores the signs of zeros. Else
    (skewed grids, most n = 2 grids) it sorts and merges each block's
    keys, and the points of each slice of _CHUNK_TERMS of them, rebuilt
    with the bits z - b_i has and centred by their distinct Im z rows, go
    to one _theta_sums call. The second pass, as the generator runs, recomputes
    each block's keys and gathers the sums, through the span table or by
    binary search in the sorted keys. Either way a point's value has the
    bits of its own lattice sum, so the values are those of summing every
    shifted point, bit for bit.

    Memory contract: the extra memory is bounded by one block (its keys,
    gathers and values, at most _CHUNK_TERMS pairs or two points), the
    lookup table and what builds it (when dense, a sum for each of at most
    _DENSE_SPAN keys per distinct point, E and at most _CHUNK_TERMS terms
    each of CS and of one product, or one Re value's; else a sorted key
    and a sum per distinct point, the sums twice while their slices are
    joined, and one slice with its points, centres and sums), and the
    coordinate tables: the m points' codes and gauge magnitudes, their
    distinct Im z rows with their centres and, per coordinate, their
    distinct Re z values times k. No array over the k^n m pairs is built,
    nor any other over every distinct point; a caller that keeps no block
    holds no (k^n, m) array either.
    """
    z, base_lm, _ = _gauge(basis, x, y, phase=False)
    m, n_s = z.shape[0], basis.n_sections
    keys, span, points, centres = _shifted_keys(basis, z)
    # points() keeps the distinct Im z rows, so z itself can go
    del z
    om_eff = basis.om.omega / basis.k

    def log_mags(distinct):
        """shift + log|vals| of the lattice sums at the points of keys distinct."""
        zs, l_star = points(distinct)
        # section b enters only as a z-shift
        shift, vals = _theta_sums(om_eff, zs, None, None, l_star)
        # log|vals| + shift in place, which has the bits of shift + log|vals|
        lm = np.abs(vals)
        with np.errstate(divide="ignore"):
            np.log(lm, out=lm)
        lm += shift
        return lm

    # one section's distinct points are a lower bound on all of them
    dense = span <= _DENSE_SPAN * _sorted_distinct(keys(slice(1), slice(None))).size
    if centres is not None and dense:
        # a table over the key span: a block costs one gather
        lm, distinct = _span_table(om_eff, span, points, centres), None
    else:
        distinct = _distinct_keys(keys, n_s, m)
        # joined once summed: a table made first would sit beside the first
        # slice's sums. A span past the dense bound is positive, so there
        # are points and at least one slice
        lm = np.concatenate([
            log_mags(distinct[start : start + _CHUNK_TERMS])
            for start in range(0, distinct.size, _CHUNK_TERMS)
        ])

    def blocks():
        for pts in _point_blocks(n_s, m):
            key = keys(slice(None), pts)
            block = lm[key if distinct is None else np.searchsorted(distinct, key)]
            block += base_lm[pts]
            yield pts, block

    return m, blocks()


def distortion_fk(basis: ThetaBasis, x, y, mode: str = "closed"):
    """Density f_k = sum_i |s_i|_h^2 of the coherent-state distortion.

    mode "direct" sums the gauge norms section by section. mode "closed"
    sums f_k's Fourier series over the dual lattice, the Poisson dual of
    the section sums (Mumford, Tata Lectures on Theta I, ch. II):
      f_k / k^n = sum over nu = (a, b) in Z^{2n} of
                  (-1)^{k ta b} exp(-(pi k / 2) |a - Omega b|^2) cos(2 pi k (ta x + tb y)),
    with |w|^2 = w* T^{-1} w, S = Re Omega and T = Im Omega. The exponent is
    t(nu) Q nu with Q = (pi k / 2) [[T^{-1}, -T^{-1} S], [-S T^{-1}, S T^{-1} S + T]],
    so the kept terms are the nu with t(nu) Q nu <= TAIL_LOG, enumerated
    from their bounding box: every dropped coefficient lies below
    exp(-TAIL_LOG) ~ 1e-16 e^-5, and a box past MAX_RADIUS raises
    TruncationOverflow. The terms fall as k grows: at Omega = 0.3 + 1.2i
    the series keeps 83 terms at k = 1 and nu = 0 alone at k = 32. The
    phase is periodic in (x, y), so points need no reduction. Any other
    mode raises ConfigError.

    Accuracy contract: f_k is accurate to roundoff relative to k^n, its
    mean over X. The dropped terms of a box twice as wide weigh at most
    1e-15 k^n together, and the sum agrees with the genus-2n theta series
    of f_k to 1e-14 k^n at points in [-3, 4]. Where f_k << k^n, as at k = 1
    near the theta divisor, where f_k vanishes, that is no bound relative
    to f_k.
    """
    om, k, n = basis.om, basis.k, basis.om.n
    x, y = _as_points(x, y, n)
    if mode == "direct":
        return section_gauge_values(basis, x, y).norm_sq().sum(axis=0)
    if mode != "closed":
        raise ConfigError(f"unknown distortion mode {mode!r}")
    s, t, t_inv = om.re, om.im, om.im_inv
    q = 0.5 * np.pi * k * np.block([[t_inv, -t_inv @ s], [-s @ t_inv, s @ t_inv @ s + t]])
    radius = np.sqrt(TAIL_LOG)
    nu = ellipsoid_points(q, radius, np.zeros(2 * n), _half_widths(q, radius))
    # -nu carries the same term as nu, and in lexicographic order the set
    # mirrors about nu = 0 in its middle: sum the second half, nu = 0 once
    # and every other term twice
    nu = nu[len(nu) // 2 :].astype(float)
    sign = 1 - 2 * (k * np.einsum("ji,ji->j", nu[:, :n], nu[:, n:]) % 2)
    coef = 2 * k**n * sign * np.exp(-np.einsum("ji,ik,jk->j", nu, q, nu))
    coef[0] /= 2
    xy = np.hstack([x, y])
    f = np.empty(len(xy))
    step = max(1, _CHUNK_TERMS // len(nu))
    for start in range(0, len(xy), step):
        rows = slice(start, start + step)
        f[rows] = np.cos(2.0 * np.pi * k * (xy[rows] @ nu.T)) @ coef
    return f
