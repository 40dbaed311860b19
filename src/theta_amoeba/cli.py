"""Command-line harness for the experiment suites.

Subcommands cover point evaluation, Gram and balanced matrices, fiber
enumeration, amoeba export, the convergence sweep, the peak-section and
near-diagonal kernel suites, and the mirror two-torus example.  Runners only
compute; main writes their tables, summary.json and a manifest listing
exactly those files.  Data artifacts are byte-reproducible for a fixed
config and seed (the manifest itself carries wall-clock timings, so it is
the one file allowed to differ between runs).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import scipy

from . import __version__, theta
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
from .theta import _seed, grid_gauge_blocks, theta_basis


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
        self.seed = _seed(_integer("seed", self.seed))
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
        "grid_per_dim": args.grid,
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
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
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


def write_csv(path: Path, header: list, table: np.ndarray) -> None:
    """The header, then each row of table: numbers as %.17g, which reads
    back to the same double, and objects (bs-count's Fractions) as str.
    Rows are formatted and written in blocks of at most theta._CHUNK_TERMS
    cells and at least one row, each by one % over one format string, so
    the text of the whole table is never held at once. A cell's text does
    not depend on its block, so the file has the same bytes as the whole
    table formatted at once."""
    cell = "%.17g" if np.issubdtype(table.dtype, np.number) else "%s"
    rows, cols = table.shape
    line = ",".join([cell] * cols) + "\n"
    step = max(1, theta._CHUNK_TERMS // max(1, cols))
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, rows, step):
            block = table[start : start + step]
            fh.write(line * len(block) % tuple(block.ravel().tolist()))


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


@contextlib.contextmanager
def _cap_threads():
    """Cap the threads the lattice sums run on (theta.THREADS), and BLAS
    threads, at THETA_AMOEBA_THREADS for the run inside the with block;
    yield the cap and the pools it took effect on. Both caps are lifted on
    leaving the block, so a later run in the same process starts uncapped.

    numpy has loaded its BLAS before this runs, so setting the thread
    environment variables here would change nothing: the BLAS cap needs
    threadpoolctl, and without it only the lattice sums are capped.
    """
    raw = os.environ.get("THETA_AMOEBA_THREADS")
    if raw is None:
        yield None, []
        return
    try:
        limit = int(raw)
    except ValueError:
        limit = 0  # refused below with the same message
    if limit < 1:
        raise ConfigError(f"THETA_AMOEBA_THREADS must be a positive integer, got {raw!r}")
    threads = theta.THREADS
    theta.THREADS = min(threads, limit)
    try:
        try:
            from threadpoolctl import threadpool_limits
        except ImportError:
            yield limit, ["lattice"]
        else:
            with threadpool_limits(limits=limit):
                yield limit, ["blas", "lattice"]
    finally:
        theta.THREADS = threads


def run_theta_eval(cfg: ExperimentConfig) -> tuple[dict, dict]:
    om = cfg.riemann_matrix
    blocks = []
    for k in cfg.k_list:
        basis = theta_basis(om, k)
        grid = quadrature_grid(om.n, 8)
        parts = list(grid_gauge_blocks(basis, grid.m))
        log_mag = np.hstack([gv.log_mag for gv in parts])
        phase = np.hstack([gv.phase for gv in parts])
        i, m = np.divmod(np.arange(log_mag.size), grid.size)
        blocks.append(
            np.column_stack(
                [np.full(i.size, k), i, grid.x[m], grid.y[m]]
                + [log_mag.ravel(), phase.ravel()]
            )
        )
    header = (
        ["k", "section"]
        + [f"x{d}" for d in range(om.n)]
        + [f"y{d}" for d in range(om.n)]
        + ["log_mag", "phase"]
    )
    summary = {"points_per_level": 8 ** (2 * om.n)}
    return summary, {"theta_eval.csv": (header, np.concatenate(blocks))}


def run_gram(cfg: ExperimentConfig) -> tuple[dict, dict]:
    om = cfg.riemann_matrix
    blocks, summary = [], {}
    grid = quadrature_grid(om.n, cfg.grid_per_dim)
    for k in cfg.k_list:
        basis = theta_basis(om, k)
        gram = gram_matrix(basis, grid)
        bal = balanced_matrix(basis, grid)
        gram_dev = float(np.max(np.abs(gram - np.eye(basis.n_sections))))
        tr = bal.trace().real / basis.n_sections
        bal_dev = float(
            np.max(np.abs(bal - tr * np.eye(basis.n_sections))) / tr
        )
        summary[str(k)] = {"gram_max_dev": gram_dev, "balanced_rel_dev": bal_dev}
        i, j = np.divmod(np.arange(gram.size), len(gram))
        blocks.append(
            np.column_stack([np.full(i.size, k), i, j, gram.real.ravel(), gram.imag.ravel()])
        )
    return summary, {"gram.csv": (["k", "i", "j", "re", "im"], np.concatenate(blocks))}


def run_bs_count(cfg: ExperimentConfig, cp1: bool) -> tuple[dict, dict]:
    blocks, summary = [], {}
    for k in cfg.k_list:
        fs = bs_points_cp1(k) if cp1 else bs_fibers_abelian(cfg.riemann_matrix, k)
        count = len(fs.points)
        summary[str(k)] = {"kind": fs.kind, "count": count}
        points = np.array(fs.points, dtype=object).reshape(count, -1)
        blocks.append(np.column_stack([np.full(count, k), np.arange(count), points]))
    dim = 1 if cp1 else cfg.riemann_matrix.n
    header = ["k", "index"] + [f"b{d}" for d in range(dim)]
    return summary, {"bs_count.csv": (header, np.concatenate(blocks))}


def run_amoeba(cfg: ExperimentConfig) -> tuple[dict, dict]:
    om = cfg.riemann_matrix
    blocks, summary = [], {}
    for k in cfg.k_list:
        basis = theta_basis(om, k)
        grid = quadrature_grid(om.n, cfg.grid_per_dim)
        xi = amoeba_sample(basis, grid).xi
        summary[str(k)] = {"points": xi.shape[0]}
        m, comp = np.divmod(np.arange(xi.size), xi.shape[1])
        blocks.append(np.column_stack([np.full(m.size, k), m, comp, xi.ravel()]))
    header = ["k", "point", "component", "xi"]
    return summary, {"amoeba.csv": (header, np.concatenate(blocks))}


def run_converge(cfg: ExperimentConfig) -> tuple[dict, dict]:
    report = convergence_suite(
        cfg.riemann_matrix, cfg.k_list, cfg.grid_per_dim, seed=cfg.seed
    )
    names = sorted(report.rows)
    table = np.column_stack([report.ks] + [report.rows[name] for name in names])
    summary = {
        "slopes": {name: report.slopes[name] for name in sorted(report.slopes)},
        "notes": report.notes,
    }
    return summary, {"converge.csv": (["k"] + names, table)}


_PEAK_COLUMNS = [
    "proportionality_residual",
    "gram_offdiag_max",
    "band_min",
    "band_max",
    "decay_slope",
    "decay_slope_model",
    "decay_r2",
]


def run_peak(cfg: ExperimentConfig) -> tuple[dict, dict]:
    om = cfg.riemann_matrix
    rows, summary = [], {}
    for k in cfg.k_list:
        d = peak_section_suite(om, k)
        bsz_err = bsz_comparison(om, k, seed=cfg.seed)
        rows.append([k] + [getattr(d, name) for name in _PEAK_COLUMNS] + [bsz_err])
        summary[str(k)] = {"band": [d.band_min, d.band_max], "bsz_rel_err": bsz_err}
    header = ["k"] + _PEAK_COLUMNS + ["bsz_rel_err"]
    return summary, {"peak.csv": (header, np.array(rows))}


def run_mirror(cfg: ExperimentConfig) -> tuple[dict, dict]:
    rows = []
    for tau in [1j, 0.5 + 1j, 2j]:
        b0 = triangle_coefficient(tau, "b0")
        b1 = triangle_coefficient(tau, "b1")
        u, v = np.meshgrid(np.linspace(0.0, 1.0, 10), np.linspace(0.0, 1.0, 10))
        resid = addition_formula_residual(tau, (u + tau * v).ravel())
        rows.append([tau.real, tau.imag, b0.real, b0.imag, b1.real, b1.imag, resid])
    header = ["tau_re", "tau_im", "b0_re", "b0_im", "b1_re", "b1_im", "addition_residual"]
    counts = {str(k): intersection_count_vs_dimension(k)[0] for k in cfg.k_list}
    return {"intersection_counts": counts}, {"mirror.csv": (header, np.array(rows))}


# subcommand -> runner(cfg), bs-count's with --cp1 as well. A runner only
# computes: it returns (summary, tables), tables mapping a CSV name to
# (header, 2-D array), and main writes them. The parser and main read this.
RUNNERS = {
    "theta-eval": run_theta_eval,
    "gram": run_gram,
    "bs-count": run_bs_count,
    "amoeba": run_amoeba,
    "converge": run_converge,
    "peak": run_peak,
    "mirror": run_mirror,
}
# the subcommands that read grid_per_dim; only they take --grid
GRID_COMMANDS = ("gram", "amoeba", "converge")


def build_parser() -> argparse.ArgumentParser:
    """One flat parser: the subcommand, the flags every subcommand takes,
    and --grid and --cp1, which main refuses where they are not read."""
    parser = argparse.ArgumentParser(
        prog="theta-amoeba",
        description="experiment harness for theta section bases on abelian varieties",
    )
    parser.add_argument("subcommand", choices=RUNNERS)
    parser.add_argument("--config", default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--k", type=int, nargs="+", default=None)
    parser.add_argument("--omega-file", default=None)
    parser.add_argument("--grid", type=int, default=None, help=f"{', '.join(GRID_COMMANDS)} only")
    parser.add_argument("--cp1", action="store_true", help="bs-count only")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.grid is not None and args.subcommand not in GRID_COMMANDS:
        parser.error(f"argument --grid: {args.subcommand} does not read it")
    if args.cp1 and args.subcommand != "bs-count":
        parser.error(f"argument --cp1: {args.subcommand} does not read it")
    try:
        with _cap_threads() as (thread_cap, capped):
            cfg = load_config(args.config, args)
            out = Path(cfg.output_dir)
            out.mkdir(parents=True, exist_ok=True)
            start = time.monotonic()
            runner = RUNNERS[args.subcommand]
            summary, tables = runner(cfg, args.cp1) if runner is run_bs_count else runner(cfg)
            for name, (header, table) in tables.items():
                write_csv(out / name, header, table)
            elapsed = time.monotonic() - start
            results = {"subcommand": args.subcommand, "results": summary}
            write_json(out / "summary.json", results)
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
                    "thread_cap_applied_to": capped,
                    "lattice_threads": theta.THREADS,
                    "files": sorted([*tables, "summary.json", "manifest.json"]),
                },
            )
            if args.cp1:
                _, table = tables["bs_count.csv"]
                for k in cfg.k_list:
                    pts = ", ".join(str(b) for b in table[table[:, 0] == k, 2])
                    print(f"k={k}: {pts}")
            else:
                print(json.dumps(results, sort_keys=True))
            return 0
    except ThetaAmoebaError as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}, sort_keys=True),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
