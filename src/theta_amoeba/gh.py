"""The level sweep measuring convergence of the embedded torus to its
base, and the log-log slope fit of its columns.

Exact GH is combinatorial, but the convergence statements under test are
themselves proved through explicit epsilon-approximations, so upper bounds
carry the content. Each column of the sweep names the spaces it measures:

- gh_ub_metric bounds GH((X, g_0), (X, g_k)) through the identity map, by
  the Lipschitz bound on the C0 deviation (Burago, Burago and Ivanov, A
  Course in Metric Geometry, AMS GSM 33, 2001, section 7.3); the deviation
  is a supremum over the metric grid's nodes, taken at their residues mod
  1/k, one (1/k)-cell of a finer grid, see convergence_suite.
- phi_distortion and phi_covering_radius are the distortion and covering
  radius of phi_k from the eight base points j/8, with exact base
  distances, into the chord graph of the 8k-grid amoeba sample B_k; they
  carry that graph's discretization error. At Omega = 0.3+1.2i the 16k grid
  moves phi_distortion from 3.08e-2 to 3.04e-2 at k = 4 and from 1.78e-4 to
  7.14e-5 at k = 10, so more than half of the k = 10 value is graph error;
  phi_covering_radius moves by at most 0.5 %.
- coupled_defect adds to phi_distortion the largest B_k graph distance from
  50 sampled points p to phi_k of their base projections. Its Dijkstra
  search stops at the longest chord path along a drawn point's fiber, a
  path of the graph, so every distance it reads is exact; see
  convergence_suite.

B_k is sampled by the grid route on one 1/k strip of the 8k grid
(amoeba._grid_amoeba_sample), whose point counts are the 1e-12 cluster
counts; only the amoeba subcommand's sample (amoeba.amoeba_sample) still
takes the per-section route.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .abelian import RiemannMatrix, base_distance, flat_diameter
from .amoeba import _grid_amoeba_sample, bk_distances
from .errors import ConfigError, NonPositive
from .metrics import _metric_blocks, c0_metric_deviation, quadrature_grid
from .theta import _level, _seed, grid_gauge_blocks, theta_basis


@dataclass(frozen=True)
class ConvergenceReport:
    ks: np.ndarray
    rows: dict
    slopes: dict
    notes: list = field(default_factory=list)


def fit_loglog_slope(ks, values):
    """Least-squares slope of log value vs log k; returns (slope, 95%
    half-width). With more than three levels the smallest k (transient) is
    left out of the fit. A level or value that is not finite and positive
    has no logarithm and raises NonPositive; ks and values that do not
    pair up one value per level raise ConfigError."""
    ks = np.asarray(ks, dtype=float)
    values = np.asarray(values, dtype=float)
    if ks.ndim != 1 or ks.shape != values.shape:
        raise ConfigError(f"slope fit needs one value per level, got {ks.shape} and {values.shape}")
    for name, a in (("levels", ks), ("values", values)):
        if not np.all((a > 0.0) & (a < np.inf)):
            raise NonPositive(f"slope fit needs finite positive {name}, got {a.tolist()}")
    mask = ks > ks.min() if ks.size > 3 else np.ones_like(ks, dtype=bool)
    x = np.log(ks[mask])
    y = np.log(values[mask])
    if x.size < 3 or np.ptp(x) == 0.0:
        raise ConfigError("slope fit needs at least 3 levels, not all equal")
    dx, dy = x - x.mean(), y - y.mean()
    slope = (dx @ dy) / (dx @ dx)
    resid = dy - slope * dx
    stderr = np.sqrt((resid @ resid) / (x.size - 2) / (dx @ dx))
    return float(slope), float(1.96 * stderr)


def convergence_suite(
    om: RiemannMatrix,
    k_list,
    grid_resolution: int | None = None,
    seed: int = 0,
) -> ConvergenceReport:
    """Per-level convergence measurements for an n = 1 period matrix.

    For each k: the C0 deviation eps of the pulled-back metric, the GH upper
    bound (1/2) max(1 - sqrt(max(1 - eps, 0)), sqrt(1 + eps) - 1) diam(X, g_0)
    that (1 - eps) g_0 <= g_k <= (1 + eps) g_0 gives the identity map, the
    base-map distortion and covering radius of the moment-map image, and the
    coupled-space defect d(pi(p), pi_k(p)) over 50 sampled points.

    The base-map columns read each level's amoeba sample B_k of the 8k
    grid, taken by the grid route on its 1/k strip in x, where xi repeats
    (amoeba._grid_amoeba_sample), and merged where np.round(xi, 12) is
    bit-equal: 256/384/512/640 points at Omega = 0.3+1.2i, k = 4, 6, 8,
    10, the 1e-12 cluster counts, and the whole grid's merge there. The
    amoeba subcommand's per-section sample holds 386 and 528 points at
    k = 6 and 8 on the same grids; the images agree to 3.4e-15, and the
    phi_* columns by 4.1e-11 relative. coupled_defect draws its 50 points
    from the sample's indices, so a different count draws other points.
    Each level runs Dijkstra only from the sources it reads: the 8 base
    points' images, one multi-source search from all 8k images of phi_k
    for the covering radius, and the distinct images the 50 points need.
    That last search stops at L, the longest chord path along a drawn
    point's fiber: from the strip's x index 0 (the node whose image is the
    source) to p's node through x-adjacent nodes at p's y index, the
    graph's own edge lengths summed in path order. It is a path of the
    graph and floating-point addition is monotone, so every distance read
    is at most L, and SciPy's limit is inclusive; the rows keep their bits
    at every read entry.

    eps is the supremum over the nodes of the m0-grid, not over X. g_k is
    1/k-periodic in x and in y, so it is taken at the nodes' residues mod
    1/k: the nodes of one (1/k)-cell of the lcm(m0, k)-grid, lcm(m0, k)/k
    per axis, on the grid route with gradients. That is 2164 nodes over
    k = 4, 6, 8, 10 at m0 = 80, against 4 x 6400, and all m0^2 where
    gcd(m0, k) = 1. The cell moved eps from the supremum over every node
    by at most 3.1e-15 absolute, 1.8e-11 relative at Omega = 0.3+1.2i,
    1.4e-10 at Omega = i and 2.0e-10 at -0.45+0.8i (m0 = 80 and 160 with
    k = 4, 8, 10, 80 with k = 6, 7, 9, 90 with k = 4, 6, 9). The gap
    between nodes was bounded by refinement and sampling, measured again
    on this route: eps is bit-identical on 80^2 and 160^2 grids at Omega =
    i (k = 2..10 but 9, which moves by 2.2e-16) and 0.3+1.2i (k = 4, 6, 8,
    10), and 200 000 random off-node points never exceed it there, nor do
    100 000 at tau = 1/2+0.866i, 0.1+2i, -0.4+0.7i and 0.45+0.95i (k = 3,
    5, 6, 9).
    """
    if om.n != 1:
        raise ConfigError("convergence suite is implemented for n = 1")
    seed = _seed(seed)
    k_list = sorted(_level(k) for k in k_list)
    if len(k_list) < 3:
        raise ConfigError("need at least 3 ascending levels")
    if len(set(k_list)) < len(k_list):
        raise ConfigError(f"levels repeat: {k_list}")
    m0 = max(8 * max(k_list), 32) if grid_resolution is None else grid_resolution
    # as quadrature_grid checks it, before a string or a bool is compared
    if isinstance(m0, bool) or not isinstance(m0, numbers.Integral):
        raise ConfigError(f"grid resolution must be an integer, got {m0!r}")
    if m0 < 8 * max(k_list):
        raise ConfigError(f"grid resolution {m0} below 8*max(k) = {8 * max(k_list)}")
    rng = np.random.default_rng(seed)
    diameter = flat_diameter(om)

    # the eight base points j/8 exist exactly on every 8k grid (ys[j k] is
    # j/8 to the bit), so one base-distance block serves the whole sweep
    y8 = np.arange(8) / 8
    d_base = base_distance(y8[:, None, None], y8[None, :, None], om)

    rows = {
        "c0_deviation": [],
        "gh_ub_metric": [],
        "phi_distortion": [],
        "phi_covering_radius": [],
        "coupled_defect": [],
        "base_diameter": [],
    }
    for k in k_list:
        basis = theta_basis(om, k)
        # eps on one (1/k)-cell of the lcm(m0, k)-grid, whose nodes are the
        # m0-grid nodes' residues mod 1/k
        lcm = math.lcm(m0, k)
        cell = grid_gauge_blocks(basis, lcm, grad=True, box=(lcm // k,) * 2)
        eps = max(c0_metric_deviation(om, h) for _, h in _metric_blocks(basis, cell))
        rows["c0_deviation"].append(eps)
        stretch = max(1.0 - np.sqrt(max(1.0 - eps, 0.0)), np.sqrt(1.0 + eps) - 1.0)
        rows["gh_ub_metric"].append(0.5 * stretch * diameter)

        sample = _grid_amoeba_sample(basis, quadrature_grid(1, 8 * k))
        # the strip runs x-major, so node g has y index g % 8k and its first
        # 8k nodes are the zero section x = 0: phi_k at every base point
        phi_idx = sample.node_sample[: 8 * k]
        base_phi = phi_idx[np.arange(8) * k]
        d_img = bk_distances(sample, base_phi)[:, base_phi]
        distortion = float(np.max(np.abs(d_base - d_img)))
        covering = float(bk_distances(sample, phi_idx, min_only=True).max())
        rows["phi_distortion"].append(distortion)
        rows["phi_covering_radius"].append(covering)

        # coupled-space defect: distance inside B_k from the image of p to
        # the image of its base projection, plus the measured distortion
        # as the gluing padding
        p_idx = rng.choice(sample.size, size=min(50, sample.size), replace=False)
        # the base point nearest p's preimage is its own y node
        x_node, y_node = np.divmod(sample.nodes[p_idx], 8 * k)
        sources, row = np.unique(phi_idx[y_node], return_inverse=True)
        # the graph holds each edge once, at (lo, hi); a pair merged into
        # one point reads 0
        node = sample.node_sample.reshape(sample.grid_shape)
        lo, hi = np.minimum(node[:-1], node[1:]), np.maximum(node[:-1], node[1:])
        steps = np.asarray(sample.graph[lo.ravel(), hi.ravel()]).reshape(lo.shape)
        chord = np.cumsum(np.vstack([np.zeros(8 * k), steps]), axis=0)
        defect = bk_distances(sample, sources, limit=chord[x_node, y_node].max())[row, p_idx]
        rows["coupled_defect"].append(float(defect.max()) + distortion)

        rows["base_diameter"].append(float(d_base.max()))

    rows = {k2: np.array(v) for k2, v in rows.items()}
    ks = np.array(k_list, dtype=float)
    slopes = {
        name: fit_loglog_slope(ks, rows[name])
        for name in (
            "c0_deviation",
            "gh_ub_metric",
            "phi_distortion",
            "phi_covering_radius",
            "coupled_defect",
        )
    }
    notes = [
        "smooth-convergence claims are certified only through the C0 proxy",
        "gh_ub_metric bounds GH((X, g_0), (X, g_k)) by the C0 deviation over the grid nodes",
        "phi_* and coupled_defect are distances in the chord graph of the 8k-grid amoeba sample, "
        "taken by the grid route and merged where np.round(xi, 12) is bit-equal",
    ]
    return ConvergenceReport(ks=ks, rows=rows, slopes=slopes, notes=notes)
