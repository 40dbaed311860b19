"""The benchmark's four workloads: generated inputs, set-up, the timed run
and the checks on what the run wrote.

Each workload is one CLI call on a fixed period matrix; ``gram`` adds
library calls on a coupled n = 2 matrix, the only two-dimensional lattice
box in the benchmark. Why each workload exists, and which layer it is
meant to stress, is recorded in ``layers.json``.

``gram`` starts at k = 2: at k = 1 the CLI writes ``balanced_rel_dev =
NaN`` (a known gap of the program, see ``layers.json``), and every workload
of the benchmark must run without a failed check. ``GRAM_K1`` is that
level on its own; the benchmark's tests run the same checks on it and
expect them to fail until the program is fixed.

The parent process (``run.py``) calls ``write_inputs`` and ``check``; the
child process (``child.py``) calls ``setup`` and ``run``. Only the child
imports ``theta_amoeba``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

SQUARE = {"n": 1, "re": [[0.0]], "im": [[1.0]]}
GENERIC = {"n": 1, "re": [[0.3]], "im": [[1.2]]}
COUPLED = {
    "n": 2,
    "re": [[0.1, 0.25], [0.25, -0.2]],
    "im": [[1.0, 0.2], [0.2, 1.3]],
}
# library part of ``gram``: Gram matrix over 16^4 nodes at k = 2 and the
# closed vs direct f_k comparison on seeded points
COUPLED_K = 2
COUPLED_GRID = 16
FK_POINTS = 256

# acceptance thresholds, as in tests/test_acceptance.py
GRAM_TOL = 1e-8
BALANCED_TOL = 1e-5
FK_REL_TOL = 1e-10
METRIC_SLOPE_MAX = -1.0
FIBRATION_SLOPE_MAX = -0.5
BSZ_SLOPE_MAX = -0.4

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    omega: dict
    ks: tuple

    def argv(self, inputs: Path, out: Path, seed: int) -> list:
        return [
            self.command,
            "--omega-file",
            str(inputs / "omega.json"),
            "--k",
            *(str(k) for k in self.ks),
            "--seed",
            str(seed),
            "--out",
            str(out),
        ]

    def grid_sizes(self) -> list:
        """Grid resolutions the CLI subcommand builds for this k-list."""
        if self.command == "converge":
            return [max(8 * max(self.ks), 32)] + [8 * k for k in self.ks]
        if self.command == "peak":
            return [max(8 * k, 16) for k in self.ks]
        return [8 * max(self.ks)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("converge-n1", "converge", GENERIC, (4, 6, 8, 10)),
        Workload("amoeba-n1", "amoeba", SQUARE, (16, 32)),
        Workload("gram", "gram", SQUARE, (2, 3, 4)),
        Workload("peak-n1", "peak", SQUARE, (2, 4, 8, 16, 24)),
    )
}
# CLI part of ``gram`` at the level left out of the workload
GRAM_K1 = Workload("gram", "gram", SQUARE, (1,))


# ---------------------------------------------------------------- parent side


def write_inputs(w: Workload, seed: int, inputs: Path) -> None:
    """Everything the program sees, generated from the seed."""
    inputs.mkdir(parents=True)
    (inputs / "omega.json").write_text(json.dumps(w.omega))
    if w.name == "gram":
        (inputs / "coupled.json").write_text(json.dumps(COUPLED))
        rng = np.random.default_rng(seed)
        np.savez(
            inputs / "points.npz",
            x=rng.uniform(size=(FK_POINTS, 2)),
            y=rng.uniform(size=(FK_POINTS, 2)),
        )


class Checks:
    """Named pass/fail results; each one counts into ``fail_frac``."""

    def __init__(self):
        self.results = []

    def add(self, name: str, ok, detail="") -> bool:
        self.results.append({"name": name, "ok": bool(ok), "detail": str(detail)})
        return bool(ok)

    def close(self, name, value, ref, tol) -> bool:
        """|value - ref| <= atol + rtol |ref|, elementwise."""
        value = np.asarray(value, dtype=float)
        ref = np.asarray(ref, dtype=float)
        ok = value.shape == ref.shape and bool(
            np.all(np.abs(value - ref) <= tol["atol"] + tol["rtol"] * np.abs(ref))
        )
        return self.add(name, ok, f"got {value.tolist()} want {ref.tolist()}")


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def _load_json(checks: Checks, path: Path):
    """Parse strictly (a NaN or Infinity fails the check); fall back to the
    lenient parse so the remaining checks still see the values."""
    text = path.read_text()
    try:
        data = json.loads(text, parse_constant=_reject_constant)
        checks.add(f"{path.name} is strict JSON", True)
        return data
    except ValueError as exc:
        checks.add(f"{path.name} is strict JSON", False, exc)
        return json.loads(text)


def _read_csv(path: Path) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: np.array([float(r[i]) for r in body]) for i, name in enumerate(header)}


def _loglog_slope(ks, values) -> float:
    return float(np.polyfit(np.log(ks), np.log(values), 1)[0])


def check(w: Workload, out: Path, cli_code) -> Checks:
    """Check a finished run's artifacts; never raises on bad output."""
    checks = Checks()
    if not checks.add("cli exit code is 0", cli_code == 0, cli_code):
        return checks
    try:
        manifest = _load_json(checks, out / "manifest.json")
        missing = [f for f in manifest["files"] if not (out / f).is_file()]
        checks.add("manifest lists only written files", not missing, missing)
        summary = _load_json(checks, out / "summary.json")["results"]
        _CHECKS[w.name](checks, w, out, summary, REFERENCE.get(w.name, {}))
    except (OSError, KeyError, IndexError, ValueError, TypeError) as exc:
        checks.add("artifacts readable", False, f"{type(exc).__name__}: {exc}")
    return checks


def _tol(ref: dict, column: str) -> dict:
    return ref["tolerance"].get(column, ref["tolerance"]["default"])


def _check_converge(checks, w, out, summary, ref):
    table = _read_csv(out / "converge.csv")
    checks.add("converge.csv has one row per level", table["k"].tolist() == list(w.ks))
    for name, limit in (
        ("c0_deviation", METRIC_SLOPE_MAX),
        ("gh_ub_metric", METRIC_SLOPE_MAX),
        ("phi_distortion", FIBRATION_SLOPE_MAX),
        ("phi_covering_radius", FIBRATION_SLOPE_MAX),
        ("coupled_defect", FIBRATION_SLOPE_MAX),
    ):
        slope = summary["slopes"][name][0]
        checks.add(f"slope {name} <= {limit}", slope <= limit, slope)
    checks.add(
        "c0_deviation decreases with k",
        bool(np.all(np.diff(table["c0_deviation"]) < 0.0)),
        table["c0_deviation"].tolist(),
    )
    # gh_ub_metric and coupled_defect depend on the seeded node sample, the
    # other columns do not and must match the recorded values
    for column in ref["columns"]:
        checks.close(f"{column} matches reference", table[column], ref["columns"][column], _tol(ref, column))


def _check_amoeba(checks, w, out, summary, ref):
    table = _read_csv(out / "amoeba.csv")
    for k in w.ks:
        points = summary[str(k)]["points"]
        checks.add(f"k={k} point count matches reference", points == ref["points"][str(k)], points)
        rows = table["k"] == k
        xi = table["xi"][rows]
        if not checks.add(f"k={k} csv has points x k rows", xi.size == points * k, xi.size):
            continue
        xi = xi.reshape(points, k)
        checks.add(
            f"k={k} moment coordinates lie on the simplex",
            np.all(xi >= 0.0) and np.max(np.abs(xi.sum(axis=1) - 1.0)) < 1e-12,
        )
        # translating x by 1/k permutes the sections cyclically, so the image
        # is invariant under a cyclic shift of the moment coordinates
        gap, _ = cKDTree(xi).query(np.roll(xi, 1, axis=1))
        checks.add(f"k={k} image is invariant under the Heisenberg shift", gap.max() < 1e-9, gap.max())
        checks.close(
            f"k={k} sum of squared coordinates matches reference",
            np.sum(xi**2),
            ref["sum_xi_sq"][str(k)],
            ref["tolerance"]["default"],
        )


def _check_gram(checks, w, out, summary, ref):
    check_gram_cli(checks, w, out, summary)
    _check_gram_library(checks, out)


def check_gram_cli(checks, w, out, summary):
    """Checks on what ``theta-amoeba gram`` wrote for the levels ``w.ks``."""
    table = _read_csv(out / "gram.csv")
    for k in w.ks:
        dev = summary[str(k)]["gram_max_dev"]
        checks.add(f"k={k} summary gram_max_dev < {GRAM_TOL}", dev < GRAM_TOL, dev)
        bal = summary[str(k)]["balanced_rel_dev"]
        # a NaN compares false, so it fails here as it should
        checks.add(f"k={k} balanced_rel_dev < {BALANCED_TOL}", bal < BALANCED_TOL, bal)
        rows = table["k"] == k
        if not checks.add(f"k={k} gram.csv has k^2 entries", rows.sum() == k * k, rows.sum()):
            continue
        gram = (table["re"][rows] + 1j * table["im"][rows]).reshape(k, k)
        dev = np.max(np.abs(gram - np.eye(k)))
        checks.add(f"k={k} gram.csv within {GRAM_TOL} of I", dev < GRAM_TOL, dev)


def _check_gram_library(checks, out):
    lib = np.load(out / "library.npz")
    n_sections = COUPLED_K ** COUPLED["n"]
    dev = np.max(np.abs(lib["gram"] - np.eye(n_sections)))
    checks.add(f"n=2 k={COUPLED_K} Gram within {GRAM_TOL} of I", dev < GRAM_TOL, dev)
    closed, direct = lib["fk_closed"], lib["fk_direct"]
    rel = np.max(np.abs(closed - direct) / np.abs(direct))
    checks.add(f"n=2 f_k closed vs direct within {FK_REL_TOL}", rel <= FK_REL_TOL, rel)
    checks.add("n=2 f_k is finite and positive", np.all(np.isfinite(closed)) and np.all(closed > 0.0))


def _check_peak(checks, w, out, summary, ref):
    table = _read_csv(out / "peak.csv")
    if not checks.add("peak.csv has one row per level", table["k"].tolist() == list(w.ks)):
        return
    row = {k: i for i, k in enumerate(w.ks)}

    def col(name, ks):
        return np.array([table[name][row[k]] for k in ks])

    prop = col("proportionality_residual", (2, 4, 8))
    checks.add("proportionality residual < 1e-6 at k = 2, 4, 8", np.all(prop < 1e-6), prop.tolist())
    offs = col("gram_offdiag_max", (2, 4, 8))
    checks.add(
        "peak Gram off-diagonals decrease or sit at roundoff",
        np.all(np.diff(offs) <= 0.0) or offs.max() < 1e-12,
        offs.tolist(),
    )
    lo, hi = col("band_min", (8,))[0], col("band_max", (8,))[0]
    checks.add("0.9 < band at k = 8 < 1.1", 0.9 < lo <= hi < 1.1, [lo, hi])
    width = col("band_max", (8, 16)) - col("band_min", (8, 16))
    checks.add("band narrows from k = 8 to 16", width[1] < width[0], width.tolist())
    r2 = col("decay_r2", (2, 4, 8))
    checks.add("decay R^2 > 0.99 at k = 2, 4, 8", np.all(r2 > 0.99), r2.tolist())
    # the BSZ error depends on the seeded offsets; its decay does not
    ks = [k for k in w.ks if k >= 4]
    slope = _loglog_slope(ks, col("bsz_rel_err", ks))
    checks.add(f"BSZ error slope over k >= 4 <= {BSZ_SLOPE_MAX}", slope <= BSZ_SLOPE_MAX, slope)
    for k in w.ks:
        band = summary[str(k)]["band"]
        checks.add(f"k={k} summary band matches peak.csv", band == [table["band_min"][row[k]], table["band_max"][row[k]]])
    for column in ref["columns"]:
        checks.close(f"{column} matches reference", table[column], ref["columns"][column], _tol(ref, column))


_CHECKS = {
    "converge-n1": _check_converge,
    "amoeba-n1": _check_amoeba,
    "gram": _check_gram,
    "peak-n1": _check_peak,
}


# ----------------------------------------------------------------- child side


def setup(w: Workload, inputs: Path) -> dict:
    """Import the program and build the workload's matrices, bases and grids."""
    import theta_amoeba.cli  # noqa: F401  (imports every layer the CLI uses)
    from theta_amoeba.abelian import riemann_matrix_from_json
    from theta_amoeba.metrics import quadrature_grid
    from theta_amoeba.theta import theta_basis

    om = riemann_matrix_from_json(str(inputs / "omega.json"))
    state = {
        "bases": [theta_basis(om, k) for k in w.ks],
        "grids": [quadrature_grid(om.n, m) for m in w.grid_sizes()],
    }
    if w.name == "gram":
        coupled = riemann_matrix_from_json(str(inputs / "coupled.json"))
        points = np.load(inputs / "points.npz")
        state["coupled_basis"] = theta_basis(coupled, COUPLED_K)
        state["coupled_grid"] = quadrature_grid(coupled.n, COUPLED_GRID)
        state["x"], state["y"] = points["x"], points["y"]
    return state


def run(w: Workload, state: dict, inputs: Path, out: Path, seed: int) -> tuple:
    """The timed part: returns (CLI exit code, library results to save)."""
    from theta_amoeba import cli, metrics, theta

    code = cli.main(w.argv(inputs, out, seed))
    results = {}
    if w.name == "gram":
        basis = state["coupled_basis"]
        results["gram"] = metrics.gram_matrix(basis, state["coupled_grid"])
        results["fk_closed"] = theta.distortion_fk(basis, state["x"], state["y"])
        results["fk_direct"] = theta.distortion_fk(basis, state["x"], state["y"], mode="direct")
    return code, results
