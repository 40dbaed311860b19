"""Period-matrix validation and flat geometry of X = C^n / (Omega Z^n + Z^n).

Coordinates follow the convention z = Omega x + y with x the fiber (action)
coordinate and y the base coordinate; both live on the unit torus.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidPoints, NotPositive, NotSymmetric, ThetaAmoebaError

SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class RiemannMatrix:
    """Validated n x n complex symmetric matrix with Im(omega) > 0."""

    n: int
    omega: np.ndarray
    im_chol: np.ndarray
    lambda_min: float

    @property
    def re(self) -> np.ndarray:
        return self.omega.real

    @property
    def im(self) -> np.ndarray:
        return self.omega.imag

    @property
    def im_inv(self) -> np.ndarray:
        c = self.im_chol
        return np.linalg.inv(c.T) @ np.linalg.inv(c)


def reduce_mod1(v) -> np.ndarray:
    """Reduce coordinates to [0, 1), rounding near-1 values down to 0."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    r = np.mod(v, 1.0)
    r[r >= 1.0 - 1e-15] = 0.0
    return r


def validate_riemann_matrix(raw) -> RiemannMatrix:
    """Check finiteness, symmetry and positivity of Im(omega); derive
    Cholesky data."""
    om = np.atleast_2d(np.asarray(raw, dtype=complex))
    if om.ndim != 2 or om.shape[0] != om.shape[1]:
        raise NotSymmetric(f"matrix is {om.shape}, expected square")
    # NaN fails every comparison, so the checks below would let it through
    if not np.all(np.isfinite(om)):
        raise NotSymmetric("period matrix has a non-finite entry")
    asym = np.max(np.abs(om - om.T)) if om.size else 0.0
    if asym > SYMMETRY_TOL:
        raise NotSymmetric(f"entrywise asymmetry {asym:.3e} exceeds {SYMMETRY_TOL}")
    im = om.imag.copy()
    try:
        chol = np.linalg.cholesky(im)
    except np.linalg.LinAlgError as exc:
        raise NotPositive("Im(omega) is not positive definite") from exc
    lam = float(np.linalg.eigvalsh(im)[0])
    if lam <= 0.0:
        raise NotPositive("Im(omega) has a nonpositive eigenvalue")
    return RiemannMatrix(n=om.shape[0], omega=om, im_chol=chol, lambda_min=lam)


def _real_matrix(data: dict, key: str) -> np.ndarray:
    """data[key] as a float array; ConfigError unless every entry is a
    number (ragged lists, strings, null and bools are refused)."""
    try:
        a = np.asarray(data[key])
    except ValueError as exc:
        raise ConfigError(f"{key!r} is not a matrix: {exc}") from exc
    if a.dtype.kind not in "iuf":
        raise ConfigError(f"{key!r} must hold numbers only")
    return a.astype(float)


def riemann_matrix_from_json(source) -> RiemannMatrix:
    """Load {"n": int, "re": [[...]], "im": [[...]]} from a path or dict.

    re and im must be number arrays of one shape, and n an integer (not a
    bool) equal to the matrix size; anything else raises ConfigError, and
    a matrix that is not a Riemann matrix raises as
    validate_riemann_matrix does.
    """
    if isinstance(source, dict):
        data = source
    else:
        with open(source) as fh:
            data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError("riemann_matrix must be a JSON object")
    missing = {"n", "re", "im"} - set(data)
    if missing:
        raise ConfigError(f"riemann_matrix lacks {sorted(missing)}")
    re, im = _real_matrix(data, "re"), _real_matrix(data, "im")
    if re.shape != im.shape:
        raise ConfigError(f"re is {re.shape} but im is {im.shape}")
    n = data["n"]
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ConfigError(f"n must be an integer, got {n!r}")
    rm = validate_riemann_matrix(re + 1j * im)
    if rm.n != n:
        raise NotSymmetric(f"declared n={n} but matrix is {rm.n} x {rm.n}")
    return rm


def xy_to_z(x, y, om: RiemannMatrix) -> np.ndarray:
    """Unreduced chart map; x, y may be arrays of shape (..., n)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return x @ om.omega.T + y


def z_to_xy(z, om: RiemannMatrix):
    """Invert z = Omega x + y without reduction: x = (Im om)^{-1} Im z.

    z is one point of shape (n,) or a batch of shape (m, n).
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    x = np.linalg.solve(om.im_chol.T, np.linalg.solve(om.im_chol, z.imag.T)).T
    y = z.real - x @ om.re.T
    return x, y


def real_metric_tensor(om: RiemannMatrix) -> np.ndarray:
    """Flat metric of omega_0 as a real 2n x 2n form in (x, y) coordinates.

    dz = Omega dx + dy, so G = Re(tA H conj(A)) with A = [Omega | I] and
    H = (Im omega)^{-1}.
    """
    n = om.n
    a = np.hstack([om.omega, np.eye(n)])
    g = (a.T @ om.im_inv @ np.conj(a)).real
    return 0.5 * (g + g.T)


def fiber_volume(om: RiemannMatrix) -> float:
    return float(np.sqrt(np.linalg.det(real_metric_tensor(om)[: om.n, : om.n])))


def base_metric(om: RiemannMatrix) -> np.ndarray:
    """Riemannian-submersion quotient metric on the base torus X^-, n x n:
    the Schur complement of the fiber block in the flat 2n x 2n metric."""
    g = real_metric_tensor(om)
    n = om.n
    gxx, gxy = g[:n, :n], g[:n, n:]
    gyx, gyy = g[n:, :n], g[n:, n:]
    q = gyy - gyx @ np.linalg.solve(gxx, gxy)
    return 0.5 * (q + q.T)


def ellipsoid_points(q: np.ndarray, radius: float, centre, half_widths) -> np.ndarray:
    """Integer points v with t(v - c) q (v - c) <= radius^2, in lexicographic order.

    They are enumerated from the box |v_i - c_i| <= half_widths_i, which
    contains the ellipsoid when half_widths_i >= radius sqrt((q^{-1})_ii),
    the reach of the ellipsoid along axis i (Fincke and Pohst, Math. Comp.
    44, 1985).
    """
    centre = np.asarray(centre, dtype=float)
    lo = np.ceil(centre - half_widths).astype(int)
    hi = np.floor(centre + half_widths).astype(int)
    box = np.indices(hi - lo + 1).reshape(centre.size, -1).T + lo
    u = box - centre
    return box[np.einsum("ji,ik,jk->j", u, q, u) <= radius * radius]


def _torus_quadratic_distance(d, q: np.ndarray) -> np.ndarray:
    """Min over integer shifts s of sqrt(t(d+s) q (d+s)) per row of d (..., n).

    d - round(d) is exact for |d| < 1, so d + s keeps its bits, and then
    |d_i| <= 1/2. The shift s = 0 bounds every row's minimum by r = max |d|_q,
    so the minimiser lies in the box |s_i| <= ceil(r sqrt((q^{-1})_ii) + 1/2)
    (Fincke and Pohst, Math. Comp. 44, 1985), evaluated for all rows at
    once in blocks of shifts that bound the memory.
    """
    d = np.asarray(d, dtype=float)
    rows = np.reshape(d - np.round(d), (-1, d.shape[-1]))
    r2 = np.einsum("ki,ij,kj->k", rows, q, rows).max(initial=0.0)
    half = np.ceil(np.sqrt(r2) * np.sqrt(np.diag(np.linalg.inv(q))) + 0.5).astype(int)
    shifts = np.indices(2 * half + 1).reshape(half.size, -1).T - half
    vals = np.full(len(rows), np.inf)
    step = max(1, 2**18 // max(len(rows), 1))  # shifts per block of ~2^18 pairs
    for lo in range(0, len(shifts), step):
        v = rows[:, None, :] + shifts[lo : lo + step]
        vals = np.minimum(vals, np.einsum("rsi,ij,rsj->rs", v, q, v).min(axis=1))
    return np.sqrt(np.maximum(vals, 0.0)).reshape(d.shape[:-1])


def base_distance(y1, y2, om: RiemannMatrix):
    """Quotient-metric distance on the base torus X^-, one per broadcast pair
    of (..., n) batches y1, y2; a single pair gives a float. Other shapes,
    and coordinates that are not finite reals, raise InvalidPoints."""
    try:
        y1, y2 = np.asarray(y1, dtype=float), np.asarray(y2, dtype=float)
        np.broadcast_shapes(y1.shape, y2.shape)
    except (TypeError, ValueError) as exc:
        raise InvalidPoints(f"base points are not broadcast real batches: {exc}") from None
    # einsum would stretch a length-1 last axis across the n coordinates
    if y1.shape[-1:] != (om.n,) or y2.shape[-1:] != (om.n,):
        raise InvalidPoints(f"base points are not {om.n}-vectors: {y1.shape}, {y2.shape}")
    if not (np.isfinite(y1).all() and np.isfinite(y2).all()):
        raise InvalidPoints("base point coordinates must be finite")
    dist = _torus_quadratic_distance(reduce_mod1(y1) - reduce_mod1(y2), base_metric(om))
    return float(dist) if dist.ndim == 0 else dist


def flat_diameter(om: RiemannMatrix) -> float:
    """diam(X, g_0): the largest distance from 0 over the vertices of the
    Voronoi cell of 0 in Z^{2n} under real_metric_tensor(om).

    The nearest-plane bound R^2 <= sum_i L_ii^2 / 4 (G = L t(L)) caps the
    covering radius, so the lattice points within 2R of 0, which include
    every Voronoi-relevant vector, fix the cell. Each vertex must then be
    as close to 0 as to any lattice point, checked by
    _torus_quadratic_distance, so a patch that is too small fails loudly.
    """
    # here, not at module level: scipy.spatial would load with every import
    # of theta, which needs nothing else from it
    from scipy.spatial import Voronoi

    g = real_metric_tensor(om)
    low = np.linalg.cholesky(g)
    reach = np.sqrt(np.sum(np.diag(low) ** 2))
    half_widths = reach * np.sqrt(np.diag(np.linalg.inv(g)))
    patch = ellipsoid_points(g, reach, np.zeros(len(g)), half_widths)
    cells = Voronoi(patch @ low)
    region = cells.regions[cells.point_region[np.flatnonzero(~patch.any(axis=1))[0]]]
    vertices = np.linalg.solve(low.T, cells.vertices[region].T).T
    own = np.sqrt(np.einsum("vi,ij,vj->v", vertices, g, vertices))
    nearest = _torus_quadratic_distance(vertices, g)
    if -1 in region or not np.allclose(nearest, own, rtol=1e-12, atol=0.0):
        raise ThetaAmoebaError("the lattice patch is too small for the Voronoi cell of 0")
    return float(own.max())
