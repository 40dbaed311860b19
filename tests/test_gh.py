import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import theta_amoeba
from theta_amoeba import (
    ConfigError,
    EmptySet,
    NonPositive,
    NotACorrespondence,
    abelian,
    gh,
    metrics,
)
from theta_amoeba.abelian import flat_diameter, validate_riemann_matrix
from theta_amoeba.gh import (
    convergence_suite,
    finite_metric_space,
    fit_loglog_slope,
    gh_upper_bound,
    hausdorff_distance,
    map_distortion,
)
from theta_amoeba.theta import theta_basis

RNG = np.random.default_rng(31)
SQUARE = validate_riemann_matrix([[1j]])
GENERIC = validate_riemann_matrix([[0.3 + 1.2j]])


def line_space(points):
    pts = np.asarray(points, dtype=float)
    d = np.abs(pts[:, None] - pts[None, :])
    return finite_metric_space([str(p) for p in pts], d)


def random_euclidean_space(m, rng, dim=3, scale=1.0):
    pts = rng.normal(size=(m, dim)) * scale
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    return finite_metric_space(list(range(m)), d), pts


def test_construction_rejects_triangle_violation():
    d = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
    with pytest.raises(ValueError):
        finite_metric_space(["a", "b", "c"], d)


@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
def test_construction_rejects_non_finite_entries(bad):
    # a disconnected graph's shortest-path matrix has +inf entries; both
    # they and NaN are named as such, not passed on or called asymmetric
    d = np.array([[0.0, 1.0, bad], [1.0, 0.0, 1.0], [bad, 1.0, 0.0]])
    with pytest.raises(ValueError, match="finite entries"):
        finite_metric_space(["a", "b", "c"], d)


def test_hausdorff_identical_subsets():
    space = line_space([0.0, 1.0, 2.5])
    assert hausdorff_distance(space, [0, 1, 2], [0, 1, 2]) == 0.0


def test_hausdorff_line_example():
    space = line_space([0.0, 1.0])
    assert hausdorff_distance(space, [0], [0, 1]) == 1.0


def test_hausdorff_empty_subset():
    space = line_space([0.0, 1.0])
    with pytest.raises(EmptySet):
        hausdorff_distance(space, [], [0])


def test_hausdorff_matches_brute_force():
    for _ in range(10):
        space, _ = random_euclidean_space(10, RNG)
        a = RNG.choice(10, size=4, replace=False)
        b = RNG.choice(10, size=5, replace=False)
        # oracle: exhaustive double loop over the definition
        d_ab = max(min(space.d[i, j] for j in b) for i in a)
        d_ba = max(min(space.d[i, j] for i in a) for j in b)
        assert hausdorff_distance(space, a, b) == pytest.approx(
            max(d_ab, d_ba), abs=1e-14
        )


def test_map_distortion_isometric_inclusion():
    space = line_space([0.0, 0.3, 1.0])
    dist, cov = map_distortion(space, space, [0, 1, 2])
    assert dist == 0.0
    assert cov == 0.0


def test_map_distortion_of_scaling():
    delta = 0.25
    src = line_space([0.0, 1.0, 2.0])
    dst = line_space([0.0, 1.0 + delta / 2.0, 2.0 + delta])
    dist, cov = map_distortion(src, dst, [0, 1, 2])
    # diameter-2 source scaled by 1 + delta/2
    assert dist == pytest.approx(delta, abs=1e-14)
    assert cov == 0.0


def test_gh_identity_correspondence_is_zero():
    space, _ = random_euclidean_space(8, RNG)
    corr = np.stack([np.arange(8), np.arange(8)], axis=1)
    assert gh_upper_bound(space, space, corr) == 0.0


def test_gh_two_point_spaces_matches_exhaustive_optimum():
    a = line_space([0.0, 1.0])
    b = line_space([0.0, 2.0])
    full = [(0, 0), (0, 1), (1, 0), (1, 1)]
    # the all-pairs relation is a valid but loose correspondence
    assert gh_upper_bound(a, b, full) == pytest.approx(1.0)
    # oracle: enumerate every correspondence (subsets covering both sides)
    best = np.inf
    for size in range(2, 5):
        for sub in itertools.combinations(full, size):
            sub = np.asarray(sub)
            if {0, 1} != set(sub[:, 0]) or {0, 1} != set(sub[:, 1]):
                continue
            best = min(best, gh_upper_bound(a, b, sub))
    assert best == pytest.approx(abs(2.0 - 1.0) / 2.0, abs=1e-14)


def test_gh_rejects_partial_relation():
    a = line_space([0.0, 1.0])
    b = line_space([0.0, 2.0])
    with pytest.raises(NotACorrespondence):
        gh_upper_bound(a, b, [(0, 0)])


def test_slope_fit_recovers_power_law():
    ks = np.array([2.0, 4.0, 8.0, 16.0])
    vals = 3.0 * ks**-1.5
    slope, ci = fit_loglog_slope(ks, vals)
    assert slope == pytest.approx(-1.5, abs=1e-12)
    assert ci == pytest.approx(0.0, abs=1e-9)


def test_slope_fit_excludes_transient_smallest_level():
    ks = np.array([2.0, 4.0, 8.0, 16.0])
    vals = 3.0 * ks**-2.0
    vals[0] = 17.0
    slope, _ = fit_loglog_slope(ks, vals)
    assert slope == pytest.approx(-2.0, abs=1e-12)


def test_slope_fit_matches_linregress():
    # oracle: scipy's linregress on the same log-log data
    rng = np.random.default_rng(8)
    for size in (3, 4, 6, 9):
        ks = np.sort(rng.choice(np.arange(2, 40), size=size, replace=False)).astype(float)
        vals = 2.0 * ks ** rng.uniform(-2.5, -0.5) * np.exp(rng.normal(scale=0.1, size=size))
        slope, ci = fit_loglog_slope(ks, vals)
        keep = slice(1, None) if size > 3 else slice(None)
        ref = stats.linregress(np.log(ks[keep]), np.log(vals[keep]))
        assert slope == pytest.approx(ref.slope, rel=1e-12)
        assert ci == pytest.approx(1.96 * ref.stderr, rel=1e-10)


@pytest.mark.parametrize(
    "bad", [0.0, -0.01, np.nan, np.inf], ids=["zero", "negative", "nan", "inf"]
)
def test_slope_fit_rejects_values_without_a_logarithm(bad):
    # 0 was clamped to 1e-300 and fitted a slope of -114.6 +- 2222; NaN gave
    # (nan, nan), which the strict JSON writer then refused untyped
    with pytest.raises(NonPositive):
        fit_loglog_slope([2.0, 4.0, 8.0], [0.1, bad, 0.01])


def test_slope_fit_rejects_degenerate_levels():
    with pytest.raises(ConfigError):
        fit_loglog_slope([2.0, 4.0], [1.0, 0.5])
    with pytest.raises(ConfigError):
        fit_loglog_slope([2.0, 2.0, 4.0, 8.0], [1.0, 1.0, 0.5, 0.25])
    with pytest.raises(ConfigError):
        fit_loglog_slope([3.0, 3.0, 3.0], [1.0, 0.9, 0.8])


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about half a second of import time on every run
    code = "import sys, theta_amoeba.cli; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(theta_amoeba.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"


def test_theta_import_leaves_scipy_spatial_and_sparse_unloaded():
    # only flat_diameter needs scipy.spatial, and it imports it itself
    code = (
        "import sys, theta_amoeba.theta; "
        "print([m for m in ('scipy.spatial', 'scipy.sparse') if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(theta_amoeba.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "[]"


def test_suite_rejects_short_sweeps():
    rm = validate_riemann_matrix([[1j]])
    with pytest.raises(ConfigError):
        convergence_suite(rm, [2, 4])


def test_suite_rejects_zero_grid_resolution():
    # 0 is a resolution below 8*max(k), not a request for the default grid
    rm = validate_riemann_matrix([[1j]])
    with pytest.raises(ConfigError, match="below 8"):
        convergence_suite(rm, [2, 3, 4], grid_resolution=0)


@pytest.mark.parametrize("seed", [-1, 2.5, True, "0"])
def test_suite_refuses_bad_seeds(seed):
    # -1 used to raise a bare ValueError from numpy's seeding, after the
    # levels were checked
    rm = validate_riemann_matrix([[1j]])
    with pytest.raises(ConfigError, match="seed"):
        convergence_suite(rm, [2, 3, 4], grid_resolution=32, seed=seed)


def test_suite_measures_base_distances_through_base_distance(monkeypatch):
    # the 8 x 8 block of base distances between the points j/8 comes from
    # one call of the one public route, and equals it pair by pair
    calls = []

    def counted(y1, y2, om):
        out = abelian.base_distance(y1, y2, om)
        calls.append((np.broadcast(y1, y2).shape, om, out))
        return out

    monkeypatch.setattr(gh, "base_distance", counted)
    rm = validate_riemann_matrix([[1j]])
    convergence_suite(rm, [2, 3, 4], grid_resolution=32, seed=0)
    assert len(calls) == 1
    shape, om, block = calls[0]
    assert shape == (8, 8, 1) and om is rm
    y8 = np.arange(8) / 8
    pairwise = [[abelian.base_distance([a], [b], rm) for b in y8] for a in y8]
    assert np.array_equal(block, pairwise)


def test_suite_rejects_higher_dimension():
    rm = validate_riemann_matrix(np.diag([1j, 2j]) + 0.0)
    with pytest.raises(ConfigError):
        convergence_suite(rm, [2, 3, 4])


def test_suite_small_sweep(monkeypatch):
    levels = []
    evaluate = metrics.grid_gauge_blocks

    def counted(basis, m, grad=False):
        levels.append(basis.k)
        return evaluate(basis, m, grad=grad)

    monkeypatch.setattr(metrics, "grid_gauge_blocks", counted)
    rm = validate_riemann_matrix([[1j]])
    rep = convergence_suite(rm, [2, 3, 4], grid_resolution=32, seed=0)
    # one metric field per level, read once for the C0 deviation and the GH bound
    assert levels == [2, 3, 4]
    assert np.all(rep.rows["c0_deviation"] > 0.0)
    assert np.all(np.diff(rep.rows["c0_deviation"]) < 0.0)
    assert np.allclose(rep.rows["base_diameter"], rep.rows["base_diameter"][0])
    slope, _ = rep.slopes["c0_deviation"]
    assert slope < -1.0


def lipschitz_bound(eps, diameter):
    """(1/2) max(1 - sqrt(max(1 - eps, 0)), sqrt(1 + eps) - 1) diam."""
    stretch = np.maximum(1.0 - np.sqrt(np.maximum(1.0 - eps, 0.0)), np.sqrt(1.0 + eps) - 1.0)
    return 0.5 * stretch * diameter


def test_suite_gh_column_is_the_lipschitz_bound_of_each_row():
    rep = convergence_suite(SQUARE, [2, 3, 4], grid_resolution=32, seed=0)
    eps = rep.rows["c0_deviation"]
    # eps >= 1 at k = 2, where 1 - sqrt(1 - eps) would be NaN
    assert eps[0] > 1.0 and np.all(np.isfinite(rep.rows["gh_ub_metric"]))
    expected = lipschitz_bound(eps, np.sqrt(2.0) / 2.0)
    assert rep.rows["gh_ub_metric"] == pytest.approx(expected, rel=1e-15)


def test_suite_runs_no_metric_grid_geodesics(monkeypatch):
    calls = []

    def counting(name):
        original = getattr(metrics, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return counted

    for name in ("geodesic_distances", "_graph_edges"):
        monkeypatch.setattr(metrics, name, counting(name))
    convergence_suite(SQUARE, [2, 3, 4], grid_resolution=32, seed=0)
    assert calls == []
    assert not hasattr(metrics, "flat_metric_field")


@pytest.mark.parametrize(
    "levels, error",
    [([2.5, 3, 4], NonPositive), ([4, 4, 6], ConfigError), ([True, 3, 4], NonPositive)],
    ids=["fraction", "repeat", "bool"],
)
def test_suite_refuses_levels_the_cli_refuses(levels, error):
    # int() truncated 2.5 to level 2, and a repeated level entered the slope
    # fit twice
    with pytest.raises(error):
        convergence_suite(SQUARE, levels, grid_resolution=48)


def test_gh_column_ignores_seed_and_grid():
    ks = [4, 6, 8, 10]
    base = convergence_suite(GENERIC, ks, grid_resolution=80, seed=1).rows
    for grid, seed in ((80, 7), (160, 1)):
        rows = convergence_suite(GENERIC, ks, grid_resolution=grid, seed=seed).rows
        assert np.array_equal(rows["gh_ub_metric"], base["gh_ub_metric"])
    assert np.all(np.isfinite(base["gh_ub_metric"]))
    assert base["gh_ub_metric"] == pytest.approx(
        lipschitz_bound(base["c0_deviation"], flat_diameter(GENERIC)), rel=1e-15
    )


@pytest.mark.parametrize("rm", [SQUARE, GENERIC], ids=["square", "generic"])
def test_off_node_points_stay_below_the_node_deviation(rm):
    # the suite's eps is a supremum over grid nodes; random points between
    # the nodes of the 80^2 grid must not exceed it
    rng = np.random.default_rng(20)
    grid = metrics.quadrature_grid(1, 80)
    c = rm.im_chol
    for k in range(4, 11):
        basis = theta_basis(rm, k)
        eps = metrics.c0_metric_deviation(metrics.omega_k_metric_field(basis, grid))
        h = metrics.omega_k_field(basis, rng.uniform(size=10_000), rng.uniform(size=10_000))
        off = np.max(np.abs(np.linalg.eigvalsh(c.T @ (rm.im_inv - h) @ c)))
        assert off <= eps * (1.0 + 1e-12)
