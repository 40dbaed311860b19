"""Theta series with characteristics and gauge-fixed section bases.

The level-k basis on X = C^n / (Omega Z^n + Z^n) is indexed by rational
points b_i in (1/k)(Z/k)^n of the base torus. All section evaluation goes
through one truncated lattice sum, reported as a per-point log-scale times
complex sums of modulus at most the term count, so large k never overflows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .abelian import RiemannMatrix, ellipsoid_points, xy_to_z
from .errors import InvalidPoints, NonPositive, NotPositive, TruncationOverflow

# tail budget: every dropped term lies below exp(-TAIL_LOG) ~ 1e-16 * e^-5
# of the Gaussian peak (see _offsets)
TAIL_LOG = 16.0 * np.log(10.0) + 5.0
MAX_RADIUS = 200
# double precision leaves ~1e-17 residue at true section zeros, so a
# degeneracy cutoff on |s|_h must sit well above that cancellation floor
ZERO_FLOOR_LOG = np.log(1e-12)
# complex terms per lattice chunk (512 KB): in cache and at the memory floor,
# yet amortising each chunk's Python work (swept from 8192 to 4 000 000)
_CHUNK_TERMS = 32_768


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
    r = np.ceil(radius * np.sqrt(np.diag(np.linalg.inv(t_eff)))).astype(int)
    if r.max() > MAX_RADIUS:
        raise TruncationOverflow(
            f"lattice truncation radius {r.max()} exceeds cap {MAX_RADIUS}"
        )
    return radius, r


def _offsets(t_eff: np.ndarray) -> np.ndarray:
    """Offsets v with t(v) t_eff v <= (R + rho)^2, in lexicographic order.

    One set serves every centre: a term at l = l* + v with |l - c|_{t_eff}
    <= R has |v| <= |l - c| + |l* - c| <= R + rho, so every dropped term
    lies below exp(-TAIL_LOG) times the Gaussian peak at c, for any om.
    """
    radius, radii = _truncation_radii(t_eff)
    return ellipsoid_points(t_eff, radius, np.zeros(radii.size), radii).astype(float)


def _lattice_terms(om_eff: np.ndarray, z: np.ndarray, a: np.ndarray):
    """Truncated terms of theta[a; 0](om_eff, z), built once per point.

    Returns the offsets off of _offsets (shape (J, n)), one set for every
    point, and a generator over chunks of points yielding (rows, l_star, w,
    shift). Point p's terms run over l = c_p + off_j, c_p = l*_p + a, with
    l*_p the rounded centre of its Gaussian, and are stored as
    w[p, j] = exp(2 pi i (1/2 tl om l + tl z_p) - shift_p), where shift_p
    is the row's largest real exponent, so |w| <= 1. The exponent is factored
    (Deconinck et al. 2004) as P_p + Q_j + t(om c_p + z_p) off_j, with
    P_p = 1/2 t(c_p) om c_p + t(c_p) z_p and Q_j = 1/2 t(off_j) om off_j.
    """
    t_eff = om_eff.imag
    off = _offsets(t_eff)
    l_star = np.round(-a - z.imag @ np.linalg.inv(t_eff).T)
    m, n = z.shape
    q = 0.5 * np.einsum("jn,np,jp->j", off, om_eff, off)
    # sized so that the gradient contraction's (rows, n, J) terms fit in a chunk
    chunk = max(1, _CHUNK_TERMS // off.size)

    def chunks():
        for s in range(0, m, chunk):
            rows = slice(s, min(m, s + chunk))
            c = l_star[rows] + a
            # elementwise, not BLAS: a row's bits must not depend on its chunk's shape
            zeta = z[rows] + sum(c[:, d, None] * om_eff[d] for d in range(n))
            w = zeta[:, :1] * off[:, 0]
            for d in range(1, n):
                w += zeta[:, d, None] * off[:, d]
            w += q
            w += 0.5 * (c * (zeta + z[rows])).sum(axis=1)[:, None]
            # in place: a second name would keep the terms alive into the next chunk
            w *= 2j * np.pi
            shift = w.real.max(axis=1)
            w -= shift[:, None]
            np.exp(w, out=w)
            yield rows, l_star[rows], w, shift

    return off, chunks()


def _theta_sums(om_eff, z, a, b):
    """theta[a; b](om_eff, z) = exp(shift) * vals, as arrays over the points."""
    om_eff = np.atleast_2d(np.asarray(om_eff, dtype=complex))
    n = om_eff.shape[0]
    z = np.atleast_2d(np.asarray(z, dtype=complex))
    a = np.zeros(n) if a is None else np.asarray(a, dtype=float)
    b = np.zeros(n) if b is None else np.asarray(b, dtype=float)
    _, chunks = _lattice_terms(om_eff, z + b, a)
    shift = np.empty(z.shape[0])
    vals = np.empty(z.shape[0], dtype=complex)
    for rows, _, w, s in chunks:
        shift[rows] = s
        vals[rows] = w.sum(axis=1)
    return shift, vals


def theta_char_log(om_eff: np.ndarray, z: np.ndarray, a=None, b=None):
    """Log-form theta sum with characteristics.

    theta[a; b](om_eff, z) = sum_l e(1/2 t(l+a) om (l+a) + t(l+a)(z+b)),
    with e(t) = exp(2 pi i t). Returns (log_mag, phase) arrays over the
    leading axis of z (shape (m, n)). The sum is accurate to roundoff of its
    largest term, which grows with the exponents, not relative to its size.
    """
    shift, vals = _theta_sums(om_eff, z, a, b)
    # theta has honest zeros: log_mag = -inf there, phase arbitrary 0
    with np.errstate(divide="ignore"):
        return shift + np.log(np.abs(vals)), np.angle(vals)


def theta_char(om_eff, z, a=None, b=None) -> np.ndarray:
    """Complex theta values; only safe when magnitudes are moderate.

    Scales the sums by exp(shift) directly, as GaugeValue.complex_values
    scales its sums by exp(log_scale): no round trip through log|.| and
    arg, which would lose digits at large magnitude.
    """
    shift, vals = _theta_sums(om_eff, z, a, b)
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


def _level(k) -> int:
    """k as an int, or NonPositive unless it is a positive integer."""
    # bool is an int subclass, and NaN and +-inf fail the chained comparison
    # before int() could raise on them
    if isinstance(k, (bool, np.bool_)) or not (1 <= k < np.inf and k == int(k)):
        raise NonPositive(f"level k must be a positive integer, got {k!r}")
    return int(k)


def theta_basis(om: RiemannMatrix, k: int) -> ThetaBasis:
    k = _level(k)
    idx = np.array(list(itertools.product(range(k), repeat=om.n)), dtype=int)
    return ThetaBasis(om=om, k=k, indices=idx)


def _as_points(x, y, n):
    """x and y as matching (m, n) arrays of finite coordinates."""
    try:
        x = np.atleast_2d(np.asarray(x, dtype=float)).reshape(-1, n)
        y = np.atleast_2d(np.asarray(y, dtype=float)).reshape(-1, n)
    except (TypeError, ValueError) as exc:
        raise InvalidPoints(f"coordinates are not real {n}-vectors: {exc}") from None
    if x.shape != y.shape:
        raise InvalidPoints(f"x and y shapes differ: {x.shape} and {y.shape}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise InvalidPoints("point coordinates must be finite")
    return x, y


def _gauge(basis: ThetaBasis, x, y):
    """Points z = Omega x + y and the gauge factor's log-magnitude and phase.

    The unitary gauge multiplies the holomorphic section by
    exp(i pi k (tx Omega x + tx y)) times the Gaussian h-weight, giving
      log|s_i|_h = log C - (n/4) log k - pi k tx T x + log|Theta_k(z; b_i)|
      arg s_i    = pi k (tx S x + tx y) + arg Theta_k(z; b_i)
    with Theta_k(z; b) = theta[0; 0](Omega / k, z - b).
    """
    om, k, n = basis.om, basis.k, basis.om.n
    x, y = _as_points(x, y, n)
    xtx = np.einsum("mi,ij,mj->m", x, om.im, x)
    xsx = np.einsum("mi,ij,mj->m", x, om.re, x)
    xy = np.einsum("mi,mi->m", x, y)
    base_lm = basis.log_c_omega - 0.25 * n * np.log(k) - np.pi * k * xtx
    base_ph = np.pi * k * (xsx + xy)
    return xy_to_z(x, y, om), base_lm, base_ph


def _gradient(vals, l_star, w_off, phase):
    """d_z of one chunk's section sums times their point phases: (S, p, n).

    vals (p, S) are a chunk's section sums before the point phase, scaled
    by exp(-shift); w_off (p, n, S) the same sums with each term times its
    offset. Term l = l* + off carries 2 pi i l, so d_z is 2 pi i (l* vals +
    w_off): nothing is divided, and an exact zero keeps its gradient.
    """
    grad = 2j * np.pi * phase[:, None, :] * (l_star[:, :, None] * vals[:, None, :] + w_off)
    return grad.transpose(2, 0, 1)


def section_gauge_values(basis: ThetaBasis, x, y, grad: bool = False) -> GaugeValue:
    """Evaluate every basis section at unreduced coordinates z = Omega x + y.

    This is the route for scattered points. grid_gauge_values serves the
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

    Accuracy contract, shared with _stacked_log_mag and grid_gauge_values:
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
    for rows, l_star, w, shift in chunks:
        l_star = l_star.astype(int)
        vals = w @ table
        phase = unit[(l_star @ idx) % k]
        if grad:
            w_off = (w[:, None, :] * off.T[None, :, :]) @ table
            grads[:, rows] = _gradient(vals, l_star, w_off, phase)
        vals *= phase
        values[:, rows] = vals.T
        log_scale[rows] += shift
    return GaugeValue(log_scale=log_scale, base_phase=base_ph, values=values, grad=grads)


def grid_gauge_values(basis: ThetaBasis, m: int, grad: bool = False) -> GaugeValue:
    """Every basis section on every node of quadrature_grid(n, m), x-major.

    The grid route: section_gauge_values at the grid's nodes, with the
    same values and accuracy contract. At z = Omega x + y with real y the
    centre l* and the row shift depend on x alone, and y enters term l
    only as the phase e(tl y). So one lattice sum per x-node, at
    z = Omega x, serves its m^n nodes y = q / m: their sums are
      sum_j w(x, j) e(-t(off_j) s / k) e(t(off_j) q / m),
    times the point phases e(-t(l*) s / k) e(t(l*) q / m), all read from
    roots of unity by integer indices mod k and mod m. A chunk of x-nodes
    then costs one (m^n x J)(J x rows k^n) product, the multiply-adds of
    section_gauge_values' contraction without its per-node exponentials;
    grad widens it by n more blocks of the offset-weighted terms. Each
    node still gets its own sum: every term is factored exactly, and no
    node's values are copied from another by a Heisenberg translation.
    """
    k, n = basis.k, basis.om.n
    nodes = np.array(list(itertools.product(range(m), repeat=n)), dtype=int)
    x = nodes / m
    z, log_scale, base_ph = _gauge(basis, x, np.zeros_like(x))
    off, chunks = _lattice_terms(basis.om.omega / k, z, np.zeros(n))
    off_int = off.astype(int)
    unit_k = np.exp(-2j * np.pi * np.arange(k) / k)
    unit_m = np.exp(2j * np.pi * np.arange(m) / m)
    idx = basis.indices.T
    y_table = unit_m[(nodes @ off_int.T) % m]
    # the section table, then with grad each offset coordinate times it:
    # (J, blocks, S)
    blocks = unit_k[(off_int @ idx) % k][:, None, :]
    if grad:
        blocks = np.concatenate([blocks, off[:, :, None] * blocks], axis=1)
    n_s, n_y, n_b = basis.n_sections, len(nodes), blocks.shape[1]
    # the x-nodes' (J, blocks, S) operands and (m^n, blocks, S) sums fill a chunk
    step = max(1, _CHUNK_TERMS // (n_b * n_s * (n_y + len(off))))
    values = np.empty((n_s, n_y * n_y), dtype=complex)
    grads = np.empty((n_s, n_y * n_y, n), dtype=complex) if grad else None
    for rows, l_star, w, shift in chunks:
        l_star = l_star.astype(int)
        log_scale[rows] += shift
        for start in range(0, w.shape[0], step):
            part = slice(start, start + step)
            wx, lx = w[part], l_star[part]
            r = len(wx)
            terms = wx.T[:, None, :, None] * blocks[:, :, None, :]
            sums = (y_table @ terms.reshape(len(off), -1)).reshape(n_y, n_b, r, n_s)
            # node order is x-major: rows of (x-node, y-node)
            vals = sums[:, 0].transpose(1, 0, 2).reshape(r * n_y, n_s)
            cols = slice((rows.start + start) * n_y, (rows.start + start + r) * n_y)
            phase = (
                unit_k[(lx @ idx) % k][:, None, :] * unit_m[(lx @ nodes.T) % m][:, :, None]
            ).reshape(r * n_y, n_s)
            if grad:
                w_off = sums[:, 1:].transpose(2, 0, 1, 3).reshape(r * n_y, n, n_s)
                grads[:, cols] = _gradient(vals, np.repeat(lx, n_y, axis=0), w_off, phase)
            vals *= phase
            values[:, cols] = vals.T
    # the gauge phase pi k (tx S x + tx y) at every node; y runs over the
    # same points nodes / m as x
    base_ph = base_ph[:, None] + np.pi * k * (x @ x.T)
    return GaugeValue(
        log_scale=np.repeat(log_scale, n_y),
        base_phase=base_ph.ravel(),
        values=values,
        grad=grads,
    )


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


def _shifted_groups(basis: ThetaBasis, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_unique_rows of the shifted points z_p - b_i (row i m + p), unbuilt.

    b_i is real, so row (i, p) holds the bits of Im z_p and, per coordinate
    d, of the IEEE difference Re z_pd - b_id: two rows are bit-equal
    exactly when their Im z rows are and each coordinate's differences
    are. Tables far smaller than the k^n m rows code these: the distinct
    Im z rows, and per d the distinct differences u - j / k over the
    distinct values u of Re z[:, d] and j < k, grouped by their bits. The
    codes combine into one mixed-radix key per row, below span, indexing a
    table of each key's first row; only a renumbered key is sorted.
    """
    k, (m, n) = basis.k, z.shape
    n_rows = basis.n_sections * m
    im_first, im_code = _unique_rows(z.imag)
    key, span = np.broadcast_to(im_code, (basis.n_sections, m)), im_first.size
    for d in range(n):
        re, re_code = np.unique(
            np.ascontiguousarray(z.real[:, d]).view(np.int64), return_inverse=True
        )
        # j / k has the bits of b_points = indices / k
        diffs = re.view(float)[:, None] - np.arange(k) / k
        codes, diff_code = np.unique(diffs.view(np.int64).ravel(), return_inverse=True)
        key = key * codes.size + diff_code[re_code * k + basis.indices[:, d, None]]
        span *= codes.size
        if span > 2 * n_rows:
            # up to 2 n_rows, the span-long tables cost less than np.unique's
            # sort; codes.size <= n_rows, so the next product fits in int64
            distinct, flat = np.unique(key.ravel(), return_inverse=True)
            key, span = flat.reshape(key.shape), distinct.size
    key = key.ravel()
    # ufunc.at applies every index in turn, unlike a repeated-index store
    first_row = np.full(span, n_rows)
    np.minimum.at(first_row, key, np.arange(n_rows))
    first = np.sort(first_row[first_row < n_rows])
    rank = np.empty(span, dtype=np.intp)
    rank[key[first]] = np.arange(first.size)
    return first, rank[key]


def _stacked_log_mag(basis: ThetaBasis, x, y) -> np.ndarray:
    """log|s_i|_h through one lattice sum per section, at z - b_i.

    The route section_gauge_values replaced, with the same values and
    accuracy contract. amoeba.moment_points keeps it, because
    amoeba_sample merges images that agree to 12 digits, so its point
    count depends on last-bit roundoff; the tests use it as oracle. Each
    distinct shifted point z - b_i is summed once: on a grid that the
    shifts b_i map to itself most of them repeat. _shifted_groups finds
    them from per-coordinate tables and a table of first rows, without
    building or sorting the k^n m rows, and gives the groups _unique_rows
    gives on those rows. The distinct points are then formed by the same
    complex-minus-real subtraction, so they reach the lattice sum with the
    same bits and in the same order; a row's sum does not depend on the
    other rows or on the chunk size, so the values are those of summing
    every shifted point, bit for bit.
    """
    z, base_lm, _ = _gauge(basis, x, y)
    m = z.shape[0]
    first, inverse = _shifted_groups(basis, z)
    # one lattice-sum call: section b enters only as a z-shift
    section, point = np.divmod(first, m)
    zs = z[point] - basis.b_points[section]
    shift, vals = _theta_sums(basis.om.omega / basis.k, zs, None, None)
    with np.errstate(divide="ignore"):
        lm = shift + np.log(np.abs(vals))
    # in place: the only (k^n, m) array is the result
    lm = lm[inverse].reshape(basis.n_sections, m)
    lm += base_lm
    return lm


def distortion_fk(basis: ThetaBasis, x, y, mode: str = "closed"):
    """Density f_k = sum_i |s_i|_h^2 of the coherent-state distortion.

    mode "direct" sums the gauge norms section by section. mode "closed"
    sums the basis in closed form: the b-sum forces the lattice indices
    l, l' of Theta_k and its conjugate to agree mod k, so with
    l' = l - k q, L = (l, q) in Z^{2n},
      f_k = C^2 k^{n/2} e^{-2 pi k tx T x} Re theta(Omega_2, zeta),
      Omega_2 = [[0, 1], [1, -k]] (x) S + i [[2/k, -1], [-1, k]] (x) T,
      zeta = (z - zbar, k zbar),
    one genus-2n theta series whose cost does not grow with k^n. f_k is
    invariant under (1/k)-lattice translations; reducing (x, y) mod 1/k
    first keeps the series centred.
    """
    om, k, n = basis.om, basis.k, basis.om.n
    x, y = _as_points(x, y, n)
    if mode == "direct":
        return section_gauge_values(basis, x, y).norm_sq().sum(axis=0)
    if mode != "closed":
        raise ValueError(f"unknown distortion mode {mode!r}")
    x = x - np.round(k * x) / k
    y = y - np.round(k * y) / k
    z = xy_to_z(x, y, om)
    zeta = np.hstack([z - z.conj(), k * z.conj()])
    om2 = np.kron([[0.0, 1.0], [1.0, -k]], om.re) + 1j * np.kron(
        [[2.0 / k, -1.0], [-1.0, k]], om.im
    )
    lm, ph = theta_char_log(om2, zeta)
    xtx = np.einsum("mi,ij,mj->m", x, om.im, x)
    const = 2.0 * basis.log_c_omega + 0.5 * n * np.log(k)
    return np.exp(const - 2.0 * np.pi * k * xtx + lm) * np.cos(ph)
