import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import theta_amoeba
from theta_amoeba import ConfigError, NonPositive, abelian, amoeba, gh, metrics
from theta_amoeba.abelian import base_distance, flat_diameter, validate_riemann_matrix
from theta_amoeba.amoeba import bk_distances
from theta_amoeba.gh import convergence_suite, fit_loglog_slope
from theta_amoeba.theta import theta_basis

from oracles import grid_deviation

SQUARE = validate_riemann_matrix([[1j]])
GENERIC = validate_riemann_matrix([[0.3 + 1.2j]])


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


@pytest.mark.parametrize(
    "bad", [0.0, -2.0, np.nan, np.inf], ids=["zero", "negative", "nan", "inf"]
)
def test_slope_fit_rejects_levels_without_a_logarithm(bad):
    # a NaN level returned (nan, nan)
    with pytest.raises(NonPositive, match="levels"):
        fit_loglog_slope([2.0, bad, 4.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("ks", [[2.0, 4.0], [2.0, 4.0, 8.0, 16.0]], ids=["short", "long"])
def test_slope_fit_rejects_levels_and_values_that_do_not_pair_up(ks):
    # more levels than values reached numpy's bare IndexError
    with pytest.raises(ConfigError, match="one value per level"):
        fit_loglog_slope(ks, [1.0, 0.5, 0.25])


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


def test_every_exported_error_has_a_raise_site():
    # a deleted layer must not leave a public error type that nothing raises
    source = "".join(p.read_text() for p in Path(theta_amoeba.__file__).parent.glob("*.py"))
    exported = [
        name for name, obj in vars(theta_amoeba).items()
        if isinstance(obj, type) and issubclass(obj, BaseException)
    ]
    assert "ThetaAmoebaError" in exported and "InvalidPoints" in exported
    unraised = [name for name in exported if not re.search(rf"raise {name}\(", source)]
    assert unraised == []


def test_suite_rejects_short_sweeps():
    rm = validate_riemann_matrix([[1j]])
    with pytest.raises(ConfigError):
        convergence_suite(rm, [2, 4])


def test_suite_rejects_zero_grid_resolution():
    # 0 is a resolution below 8*max(k), not a request for the default grid
    rm = validate_riemann_matrix([[1j]])
    with pytest.raises(ConfigError, match="below 8"):
        convergence_suite(rm, [2, 3, 4], grid_resolution=0)


@pytest.mark.parametrize("resolution", ["40", True, 40.0])
def test_suite_refuses_resolutions_that_are_not_integers(resolution):
    # "40" reached a bare TypeError from the comparison with 8*max(k), and
    # True was refused as a resolution "below 8*max(k)"
    with pytest.raises(ConfigError, match="must be an integer"):
        convergence_suite(SQUARE, [2, 3, 4], grid_resolution=resolution)


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
    grid = gh.grid_gauge_blocks

    def counted(basis, m, grad=False, box=None):
        levels.append((basis.k, m, grad, box))
        return grid(basis, m, grad=grad, box=box)

    monkeypatch.setattr(gh, "grid_gauge_blocks", counted)
    rm = validate_riemann_matrix([[1j]])
    rep = convergence_suite(rm, [2, 3, 4], grid_resolution=32, seed=0)
    # one metric evaluation per level, read once for the C0 deviation and
    # the GH bound: on one (1/k)-cell of the lcm(32, k)-grid, c = lcm / k
    # nodes per axis, the 32-grid nodes' residues mod 1/k; the amoeba
    # sample reads the grid route through its own module
    assert levels == [(2, 32, True, (16, 16)), (3, 96, True, (32, 32)), (4, 32, True, (8, 8))]
    assert np.all(rep.rows["c0_deviation"] > 0.0)
    assert np.all(np.diff(rep.rows["c0_deviation"]) < 0.0)
    assert np.allclose(rep.rows["base_diameter"], rep.rows["base_diameter"][0])
    slope, _ = rep.slopes["c0_deviation"]
    assert slope < -1.0


@pytest.mark.parametrize(
    "rm",
    [GENERIC, SQUARE, validate_riemann_matrix([[-0.45 + 0.8j]])],
    ids=["generic", "square", "skew"],
)
def test_suite_eps_at_residues_is_the_whole_grid_eps(rm):
    # the suite takes eps on one (1/k)-cell of the lcm(m0, k)-grid, whose
    # nodes are the m0-grid nodes' residues mod 1/k; over every node of the
    # m0-grid it is the same up to roundoff, whether k divides m0 or not
    # (m0 = 80: k = 6, 7, 9; m0 = 90: k = 4, 6, 9) and where gcd(m0, k) = 1
    # (80 with 7 and 9), so the cell is all m0^2 residues
    for m0, ks in ((80, [6, 7, 9]), (90, [4, 6, 9])):
        rows = convergence_suite(rm, ks, grid_resolution=m0, seed=0).rows
        for k, eps in zip(ks, rows["c0_deviation"]):
            assert abs(eps - grid_deviation(theta_basis(rm, k), m0)) <= 1e-13


def test_suite_runs_dijkstra_only_from_the_sources_it_reads(monkeypatch):
    # per level: the 8 base points' images, one multi-source search from
    # all 8k images of phi_k, and the distinct images the defect reads;
    # only the defect search stops at a finite limit, since the other two
    # read distances across the whole image
    calls = []

    def counted(sample, sources, min_only=False, limit=np.inf):
        calls.append((sample.k, np.asarray(sources), min_only, limit))
        return bk_distances(sample, sources, min_only=min_only, limit=limit)

    monkeypatch.setattr(gh, "bk_distances", counted)
    convergence_suite(GENERIC, [4, 6, 8], seed=0)
    # (level, min_only, finite limit) of each search
    searches = [(k, min_only, bool(np.isfinite(limit))) for k, _, min_only, limit in calls]
    kinds = [(False, False), (True, False), (False, True)]
    assert searches == [(k, *kind) for k in (4, 6, 8) for kind in kinds]
    for level, k in enumerate([4, 6, 8]):
        (_, base, _, _), (_, cover, _, _), (_, defect, _, limit) = calls[3 * level : 3 * level + 3]
        assert base.size == 8 and cover.size == 8 * k
        assert 1 <= defect.size <= 50 and np.array_equal(defect, np.unique(defect))
        assert limit > 0.0


@pytest.mark.parametrize(
    "rm",
    [GENERIC, SQUARE, validate_riemann_matrix([[-0.45 + 0.8j]])],
    ids=["generic", "square", "skew"],
)
def test_defect_search_limit_bounds_every_distance_it_reads(monkeypatch, rm):
    # the limit is a path length of the graph, so every distance the defect
    # reads is within it, and the bounded rows are the unbounded rows at
    # every read entry, to the bit; some nodes stay unreached (inf)
    searches = []

    def recorded(sample, sources, min_only=False, limit=np.inf):
        d = bk_distances(sample, sources, min_only=min_only, limit=limit)
        if np.isfinite(limit):
            searches.append((sample, np.asarray(sources), limit, d))
        return d

    monkeypatch.setattr(gh, "bk_distances", recorded)
    ks = [4, 6, 8]
    for seed in range(4):
        searches.clear()
        convergence_suite(rm, ks, seed=seed)
        rng = np.random.default_rng(seed)
        pruned = 0
        for k, (sample, sources, limit, d) in zip(ks, searches):
            p_idx = rng.choice(sample.size, size=min(50, sample.size), replace=False)
            phi = sample.node_sample[sample.nodes[p_idx] % (8 * k)]
            row = np.searchsorted(sources, phi)
            assert np.array_equal(sources[row], phi)
            full = bk_distances(sample, sources)
            assert np.all(full[row, p_idx] <= limit)
            assert np.array_equal(d[row, p_idx], full[row, p_idx])
            pruned += np.count_nonzero(np.isinf(d))
        assert len(searches) == len(ks) and pruned > 0


def test_suite_phi_columns_match_plain_loops():
    # the distortion, covering radius and coupled defect of phi_k, from
    # the graph distances of the suite's own sample (the grid route's) and
    # base_distance, one pair at a time
    ks, seed = [4, 6, 8], 3
    rows = convergence_suite(GENERIC, ks, seed=seed).rows
    rng = np.random.default_rng(seed)
    for level, k in enumerate(ks):
        basis, grid = theta_basis(GENERIC, k), metrics.quadrature_grid(1, 8 * k)
        sample = amoeba._grid_amoeba_sample(basis, grid)
        # sources: the 8k zero-section nodes, phi_k at the base points j/(8k)
        phi = sample.node_sample[: 8 * k]
        d = bk_distances(sample, phi)
        distortion = 0.0
        for a in range(8):
            for b in range(8):
                base = base_distance([a / 8], [b / 8], GENERIC)
                distortion = max(distortion, abs(base - d[a * k, phi[b * k]]))
        covering = 0.0
        for p in range(sample.size):
            covering = max(covering, min(d[s, p] for s in range(8 * k)))
        defect = 0.0
        for p in rng.choice(sample.size, size=min(50, sample.size), replace=False):
            defect = max(defect, d[sample.nodes[p] % (8 * k), p])
        assert rows["phi_distortion"][level] == distortion
        assert rows["phi_covering_radius"][level] == covering
        assert rows["coupled_defect"][level] == defect + distortion


def test_suite_samples_by_the_grid_route(monkeypatch):
    # no level's amoeba sample sums the sections one lattice sum each
    def refuse(*args):
        raise AssertionError("the suite called the per-section route")

    monkeypatch.setattr(amoeba, "_stacked_log_mag_blocks", refuse)
    rows = convergence_suite(GENERIC, [4, 6, 8], seed=0).rows
    assert np.all(rows["phi_covering_radius"] > 0.0)


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
    c = rm.im_chol
    for k in range(4, 11):
        basis = theta_basis(rm, k)
        eps = grid_deviation(basis, 80)
        h = metrics.omega_k_field(basis, rng.uniform(size=10_000), rng.uniform(size=10_000))
        off = np.max(np.abs(np.linalg.eigvalsh(c.T @ (rm.im_inv - h) @ c)))
        assert off <= eps * (1.0 + 1e-12)
