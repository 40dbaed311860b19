"""Command-line harness for the experiment suites.

Subcommands cover point evaluation, Gram and balanced matrices, fiber
enumeration, amoeba export, the convergence sweep, the peak-section and
near-diagonal kernel suites, and the mirror two-torus example.  Every run
writes a manifest listing all produced files; data artifacts are
byte-reproducible for a fixed config and seed (the manifest itself carries
wall-clock timings, so it is the one file allowed to differ between runs).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .abelian import RiemannMatrix, riemann_matrix_from_json
from .amoeba import amoeba_sample
from .errors import ConfigError, ThetaAmoebaError
from .gh import convergence_suite
from .metrics import balanced_matrix, gram_matrix, quadrature_grid
from .mirror import (
    addition_formula_residual,
    intersection_count_vs_dimension,
    triangle_coefficient,
)
from .quantization import (
    bs_fibers_abelian,
    bs_points_cp1,
    bsz_comparison,
    peak_section_suite,
)
from .theta import section_gauge_values, theta_basis


def _integer(name: str, value) -> int:
    """value as an int; ConfigError unless it is an integral JSON number."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError(f"{name} must be an integer, got {value!r}")


@dataclass
class ExperimentConfig:
    riemann_matrix: RiemannMatrix
    k_list: list
    # read by GRID_COMMANDS only, None elsewhere; load_config sets the
    # default 8 * max(k_list)
    grid_per_dim: int | None = None
    seed: int = 0
    output_dir: str = "out"

    def __post_init__(self):
        if not isinstance(self.k_list, (list, tuple)) or not self.k_list:
            raise ConfigError("k_list must be a nonempty list")
        ks = [_integer("k_list entry", k) for k in self.k_list]
        if min(ks) < 1:
            raise ConfigError("k_list entries must be positive integers")
        if ks != sorted(ks) or len(set(ks)) != len(ks):
            raise ConfigError("k_list must be strictly ascending")
        self.k_list = ks
        if self.grid_per_dim is not None:
            self.grid_per_dim = _integer("grid_per_dim", self.grid_per_dim)
            if self.grid_per_dim < 8 * max(ks):
                raise ConfigError(
                    f"grid_per_dim {self.grid_per_dim} is below 8*max(k_list)"
                )
        self.seed = _integer("seed", self.seed)
        if not isinstance(self.output_dir, (str, os.PathLike)):
            raise ConfigError(f"output_dir must be a path, got {self.output_dir!r}")

    def echo(self) -> dict:
        return {
            "riemann_matrix": {
                "n": self.riemann_matrix.n,
                "re": self.riemann_matrix.re.tolist(),
                "im": self.riemann_matrix.im.tolist(),
            },
            "k_list": self.k_list,
            "grid_per_dim": self.grid_per_dim,
            "seed": self.seed,
            "output_dir": str(self.output_dir),
        }


def load_config(path: str | None, args) -> ExperimentConfig:
    raw = {}
    if path is not None:
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(raw) - {f.name for f in fields(ExperimentConfig)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    flags = {
        "riemann_matrix": args.omega_file,
        "k_list": args.k,
        "grid_per_dim": getattr(args, "grid", None),
        "seed": args.seed,
        "output_dir": args.out,
    }
    raw.update({key: value for key, value in flags.items() if value is not None})
    if "grid_per_dim" in raw and args.subcommand not in GRID_COMMANDS:
        raise ConfigError(f"{args.subcommand} does not read grid_per_dim")
    source = raw.get("riemann_matrix", {"n": 1, "re": [[0.0]], "im": [[1.0]]})
    if not isinstance(source, (str, dict)):
        raise ConfigError("riemann_matrix must be a path or a JSON object")
    try:
        om = riemann_matrix_from_json(source)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad riemann_matrix: {exc}") from exc
    cfg = ExperimentConfig(
        riemann_matrix=om,
        k_list=raw.get("k_list", [2, 4]),
        grid_per_dim=raw.get("grid_per_dim"),
        seed=raw.get("seed", 0),
        output_dir=raw.get("output_dir", "out"),
    )
    if args.subcommand in GRID_COMMANDS and cfg.grid_per_dim is None:
        cfg.grid_per_dim = 8 * max(cfg.k_list)
    return cfg


def _fmt(value) -> str:
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def write_csv(path: Path, header: list, rows: list) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _cap_threads() -> int | None:
    """Cap BLAS threads at THETA_AMOEBA_THREADS; return the cap in effect.

    numpy has loaded its BLAS before this runs, so setting the thread
    environment variables here would change nothing: without threadpoolctl
    a requested cap cannot be applied, and that is a ConfigError.
    """
    raw = os.environ.get("THETA_AMOEBA_THREADS")
    if raw is None:
        return None
    try:
        limit = max(1, int(raw))
    except ValueError:
        raise ConfigError(f"THETA_AMOEBA_THREADS must be an integer, got {raw!r}")
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        raise ConfigError(
            "THETA_AMOEBA_THREADS needs threadpoolctl: BLAS is already loaded, "
            "so its thread count can no longer be set through the environment"
        ) from None
    threadpool_limits(limits=limit)
    return limit


def run_theta_eval(cfg: ExperimentConfig, out: Path) -> tuple[dict, list]:
    om = cfg.riemann_matrix
    rows = []
    for k in cfg.k_list:
        basis = theta_basis(om, k)
        grid = quadrature_grid(om.n, 8)
        gv = section_gauge_values(basis, grid.x, grid.y)
        for i in range(basis.n_sections):
            for m in range(grid.size):
                rows.append(
                    [k, i]
                    + [float(v) for v in grid.x[m]]
                    + [float(v) for v in grid.y[m]]
                    + [float(gv.log_mag[i, m]), float(gv.phase[i, m])]
                )
    header = (
        ["k", "section"]
        + [f"x{d}" for d in range(om.n)]
        + [f"y{d}" for d in range(om.n)]
        + ["log_mag", "phase"]
    )
    write_csv(out / "theta_eval.csv", header, rows)
    return {"points_per_level": 8 ** (2 * om.n)}, ["theta_eval.csv"]


def run_gram(cfg: ExperimentConfig, out: Path) -> tuple[dict, list]:
    om = cfg.riemann_matrix
    rows, summary = [], {}
    for k in cfg.k_list:
        basis = theta_basis(om, k)
        grid = quadrature_grid(om.n, cfg.grid_per_dim)
        gram = gram_matrix(basis, grid)
        bal = balanced_matrix(basis, grid)
        gram_dev = float(np.max(np.abs(gram - np.eye(basis.n_sections))))
        tr = bal.trace().real / basis.n_sections
        bal_dev = float(
            np.max(np.abs(bal - tr * np.eye(basis.n_sections))) / tr
        )
        summary[str(k)] = {"gram_max_dev": gram_dev, "balanced_rel_dev": bal_dev}
        for i in range(basis.n_sections):
            for j in range(basis.n_sections):
                rows.append([k, i, j, float(gram[i, j].real), float(gram[i, j].imag)])
    write_csv(out / "gram.csv", ["k", "i", "j", "re", "im"], rows)
    return summary, ["gram.csv"]


def run_bs_count(cfg: ExperimentConfig, out: Path, cp1: bool) -> tuple[dict, list]:
    rows, summary = [], {}
    for k in cfg.k_list:
        if cp1:
            fs = bs_points_cp1(k)
            pts = [(p,) for p in fs.points]
        else:
            fs = bs_fibers_abelian(cfg.riemann_matrix, k)
            pts = fs.points
        summary[str(k)] = {"kind": fs.kind, "count": len(pts)}
        for idx, p in enumerate(pts):
            rows.append([k, idx] + [str(c) for c in p])
    dim = 1 if cp1 else cfg.riemann_matrix.n
    header = ["k", "index"] + [f"b{d}" for d in range(dim)]
    write_csv(out / "bs_count.csv", header, rows)
    return summary, ["bs_count.csv"]


def run_amoeba(cfg: ExperimentConfig, out: Path) -> tuple[dict, list]:
    om = cfg.riemann_matrix
    rows, summary = [], {}
    for k in cfg.k_list:
        basis = theta_basis(om, k)
        grid = quadrature_grid(om.n, cfg.grid_per_dim)
        sample = amoeba_sample(basis, grid)
        summary[str(k)] = {"points": sample.size}
        for m in range(sample.size):
            for comp in range(sample.xi.shape[1]):
                rows.append([k, m, comp, float(sample.xi[m, comp])])
    write_csv(out / "amoeba.csv", ["k", "point", "component", "xi"], rows)
    return summary, ["amoeba.csv"]


def run_converge(cfg: ExperimentConfig, out: Path) -> tuple[dict, list]:
    report = convergence_suite(
        cfg.riemann_matrix, cfg.k_list, cfg.grid_per_dim, seed=cfg.seed
    )
    rows = []
    names = sorted(report.rows)
    for idx, k in enumerate(report.ks):
        rows.append([k] + [float(report.rows[name][idx]) for name in names])
    write_csv(out / "converge.csv", ["k"] + names, rows)
    summary = {
        "slopes": {name: report.slopes[name] for name in sorted(report.slopes)},
        "notes": report.notes,
    }
    return summary, ["converge.csv"]


_PEAK_COLUMNS = [
    "proportionality_residual",
    "gram_offdiag_max",
    "band_min",
    "band_max",
    "decay_slope",
    "decay_slope_model",
    "decay_r2",
]


def run_peak(cfg: ExperimentConfig, out: Path) -> tuple[dict, list]:
    om = cfg.riemann_matrix
    rows, summary = [], {}
    for k in cfg.k_list:
        d = peak_section_suite(om, k)
        bsz_err = bsz_comparison(om, k, seed=cfg.seed)
        rows.append([k] + [getattr(d, name) for name in _PEAK_COLUMNS] + [bsz_err])
        summary[str(k)] = {"band": [d.band_min, d.band_max], "bsz_rel_err": bsz_err}
    write_csv(out / "peak.csv", ["k"] + _PEAK_COLUMNS + ["bsz_rel_err"], rows)
    return summary, ["peak.csv"]


def run_mirror(cfg: ExperimentConfig, out: Path) -> tuple[dict, list]:
    taus = [1j, 0.5 + 1j, 2j]
    rows = []
    for tau in taus:
        b0 = triangle_coefficient(tau, "b0")
        b1 = triangle_coefficient(tau, "b1")
        u, v = np.meshgrid(np.linspace(0.0, 1.0, 10), np.linspace(0.0, 1.0, 10))
        resid = addition_formula_residual(tau, (u + tau * v).ravel())
        rows.append([tau.real, tau.imag, b0.real, b0.imag, b1.real, b1.imag, resid])
    write_csv(
        out / "mirror.csv",
        ["tau_re", "tau_im", "b0_re", "b0_im", "b1_re", "b1_im", "addition_residual"],
        rows,
    )
    counts = {str(k): intersection_count_vs_dimension(k)[0] for k in cfg.k_list}
    return {"intersection_counts": counts}, ["mirror.csv"]


# subcommand -> runner(cfg, out, args); the parser and main both read it
RUNNERS = {
    "theta-eval": lambda cfg, out, args: run_theta_eval(cfg, out),
    "gram": lambda cfg, out, args: run_gram(cfg, out),
    "bs-count": lambda cfg, out, args: run_bs_count(cfg, out, args.cp1),
    "amoeba": lambda cfg, out, args: run_amoeba(cfg, out),
    "converge": lambda cfg, out, args: run_converge(cfg, out),
    "peak": lambda cfg, out, args: run_peak(cfg, out),
    "mirror": lambda cfg, out, args: run_mirror(cfg, out),
}
# the subcommands that read grid_per_dim; only they take --grid
GRID_COMMANDS = ("gram", "amoeba", "converge")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="theta-amoeba",
        description="experiment harness for theta section bases on abelian varieties",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--k", type=int, nargs="+", default=None)
        p.add_argument("--omega-file", default=None)
        if name in GRID_COMMANDS:
            p.add_argument("--grid", type=int, default=None)
        if name == "bs-count":
            p.add_argument("--cp1", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        thread_cap = _cap_threads()
        cfg = load_config(args.config, args)
        out = Path(cfg.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        start = time.monotonic()
        summary, files = RUNNERS[args.subcommand](cfg, out, args)
        elapsed = time.monotonic() - start
        write_json(out / "summary.json", {"subcommand": args.subcommand, "results": summary})
        files = files + ["summary.json"]
        write_json(
            out / "manifest.json",
            {
                "subcommand": args.subcommand,
                "config": cfg.echo(),
                "versions": {
                    "theta_amoeba": __version__,
                    "numpy": np.__version__,
                    "scipy": scipy.__version__,
                    "python": sys.version.split()[0],
                },
                "wall_time_seconds": elapsed,
                "thread_cap": thread_cap,
                "files": sorted(files + ["manifest.json"]),
            },
        )
        if args.subcommand == "bs-count" and args.cp1:
            for k in cfg.k_list:
                pts = ", ".join(str(p) for p in bs_points_cp1(k).points)
                print(f"k={k}: {pts}")
        else:
            print(json.dumps({"subcommand": args.subcommand, "results": summary}, sort_keys=True))
        return 0
    except ThetaAmoebaError as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}, sort_keys=True),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
