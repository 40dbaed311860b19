import contextlib
import gc
import json
import os
import sys
import types
from fractions import Fraction

import numpy as np
import pytest

from theta_amoeba import amoeba, cli, theta
from theta_amoeba.abelian import validate_riemann_matrix
from theta_amoeba.amoeba import amoeba_sample
from theta_amoeba.cli import ExperimentConfig, main, run_amoeba, run_theta_eval, write_csv
from theta_amoeba.metrics import quadrature_grid
from theta_amoeba.theta import theta_basis

from oracles import grid_gauge_values


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cp1_count_three_prints_four_points(capsys, tmp_path):
    code, out, _ = run(capsys, "bs-count", "--k", "3", "--cp1", "--out", str(tmp_path))
    assert code == 0
    assert "k=3: -1, -1/3, 1/3, 1" in out


def test_gram_square_torus_level_four(capsys, tmp_path):
    code, out, _ = run(capsys, "gram", "--k", "4", "--out", str(tmp_path))
    assert code == 0
    summary = json.loads(out)
    assert summary["results"]["4"]["gram_max_dev"] < 1e-8


def test_gram_balanced_at_an_exact_section_zero(capsys, tmp_path):
    # on Omega = 0.3 + 1.2i one node of the level-7 grid sits on an exact
    # zero of a section; its volume form keeps that section's gradient, so
    # the balanced matrix is scalar to roundoff
    om = tmp_path / "omega.json"
    om.write_text(json.dumps({"n": 1, "re": [[0.3]], "im": [[1.2]]}))
    code, out, _ = run(
        capsys, "gram", "--k", "7", "--omega-file", str(om), "--out", str(tmp_path / "o")
    )
    assert code == 0
    assert json.loads(out)["results"]["7"]["balanced_rel_dev"] < 1e-12


def test_gram_level_one_is_typed_error(capsys, tmp_path):
    # the only level-1 section vanishes at the grid node (1/2, 1/2)
    code, _, err = run(capsys, "gram", "--k", "1", "--out", str(tmp_path))
    assert code == 1
    assert json.loads(err)["error"] == "DegenerateSample"
    assert not (tmp_path / "summary.json").exists()


def test_empty_k_list_is_config_error(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k_list": [], "grid_per_dim": 16}))
    code, _, err = run(capsys, "gram", "--config", str(cfg), "--out", str(tmp_path))
    assert code != 0
    payload = json.loads(err)
    assert payload["error"] == "ConfigError"
    assert "k_list" in payload["message"]


def test_descending_k_list_rejected(capsys, tmp_path):
    code, _, err = run(capsys, "gram", "--k", "4", "2", "--out", str(tmp_path))
    assert code != 0
    assert json.loads(err)["error"] == "ConfigError"


def test_grid_below_eight_k_rejected(capsys, tmp_path):
    code, _, err = run(
        capsys, "gram", "--k", "4", "--grid", "16", "--out", str(tmp_path)
    )
    assert code != 0
    assert json.loads(err)["error"] == "ConfigError"


def test_unknown_config_key_rejected(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    for key, value in (("grid", 16), ("tolerances", {"gram": 1e-30})):
        cfg.write_text(json.dumps({"k_list": [2], key: value}))
        code, _, err = run(capsys, "gram", "--config", str(cfg), "--out", str(tmp_path))
        assert code != 0
        assert json.loads(err)["error"] == "ConfigError"


@pytest.mark.parametrize(
    "config",
    [
        {"seed": "x"},
        {"k_list": 3},
        {"k_list": [None]},
        {"grid_per_dim": "big"},
        {"output_dir": 5},
        {"riemann_matrix": 5},
        {"riemann_matrix": {"n": 1, "re": "x", "im": [[1.0]]}},
        {"seed": -1},
    ],
)
def test_malformed_config_value_is_config_error(capsys, tmp_path, monkeypatch, config):
    # no --out, which would override output_dir; a run would write ./out
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    code, _, err = run(capsys, "gram", "--config", "cfg.json")
    assert code == 1
    assert json.loads(err)["error"] == "ConfigError"
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]


def test_omega_file_flag(capsys, tmp_path):
    om = tmp_path / "omega.json"
    om.write_text(json.dumps({"n": 1, "re": [[0.3]], "im": [[1.2]]}))
    code, out, _ = run(
        capsys,
        "gram",
        "--k",
        "2",
        "--omega-file",
        str(om),
        "--out",
        str(tmp_path / "o"),
    )
    assert code == 0
    assert json.loads(out)["results"]["2"]["gram_max_dev"] < 1e-8


def test_malformed_omega_file_is_config_error(capsys, tmp_path):
    # re broadcast against a 2 x 2 im used to load as Re Omega = 0.3 ones
    om = tmp_path / "omega.json"
    om.write_text(json.dumps({"n": 2, "re": [[0.3]], "im": [[1, 0.2], [0.2, 1.3]]}))
    out = tmp_path / "o"
    code, _, err = run(capsys, "gram", "--k", "2", "--omega-file", str(om), "--out", str(out))
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "ConfigError"
    assert payload["message"].startswith("bad riemann_matrix: ")
    assert not out.exists()


def test_non_finite_omega_is_typed_error(capsys, tmp_path):
    om = tmp_path / "omega.json"
    om.write_text('{"n": 1, "re": [[NaN]], "im": [[1.0]]}')
    out = tmp_path / "o"
    code, _, err = run(capsys, "gram", "--k", "2", "--omega-file", str(om), "--out", str(out))
    assert code == 1
    assert json.loads(err)["error"] == "NotSymmetric"
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("name", ["theta-eval", "bs-count", "peak", "mirror"])
def test_grid_flag_only_where_read(capsys, tmp_path, name):
    # --grid is an argparse error (exit 2) on subcommands that never read it
    with pytest.raises(SystemExit) as exc:
        main([name, "--k", "2", "--grid", "16", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--grid" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["theta-eval", "gram", "amoeba", "converge", "peak", "mirror"])
def test_cp1_flag_only_on_bs_count(capsys, tmp_path, name):
    with pytest.raises(SystemExit) as exc:
        main([name, "--k", "2", "--cp1", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--cp1" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["theta-eval", "bs-count", "peak", "mirror"])
def test_grid_config_key_only_where_read(capsys, tmp_path, name):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k_list": [2], "grid_per_dim": 16}))
    out = tmp_path / "o"
    code, _, err = run(capsys, name, "--config", str(cfg), "--out", str(out))
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "ConfigError"
    assert "grid_per_dim" in payload["message"]
    assert not out.exists()


def test_manifest_references_every_file(capsys, tmp_path):
    code, _, _ = run(capsys, "theta-eval", "--k", "2", "--out", str(tmp_path))
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert sorted(manifest["files"]) == sorted(os.listdir(tmp_path))
    assert manifest["config"]["k_list"] == [2]
    assert "numpy" in manifest["versions"]


def test_data_artifacts_byte_reproducible(capsys, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code, _, _ = run(
            capsys,
            "converge",
            "--k",
            "2",
            "3",
            "4",
            "--grid",
            "32",
            "--seed",
            "11",
            "--out",
            str(out),
        )
        assert code == 0
    for name in ("converge.csv", "summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_mirror_subcommand(capsys, tmp_path):
    code, out, _ = run(capsys, "mirror", "--k", "2", "3", "--out", str(tmp_path))
    assert code == 0
    summary = json.loads(out)
    assert summary["results"]["intersection_counts"] == {"2": 2, "3": 3}
    text = (tmp_path / "mirror.csv").read_text()
    assert text.startswith("tau_re,tau_im,b0_re")


def test_amoeba_export(capsys, tmp_path):
    code, _, _ = run(capsys, "amoeba", "--k", "2", "--out", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "amoeba.csv").read_text().strip().splitlines()
    assert lines[0] == "k,point,component,xi"
    assert len(lines) > 1


def test_amoeba_export_builds_no_graph(capsys, tmp_path, monkeypatch):
    # the subcommand writes only xi: with the graph unreadable it exits 0
    # and writes the same bytes
    code, _, _ = run(capsys, "amoeba", "--k", "2", "3", "--out", str(tmp_path / "a"))
    assert code == 0

    def unreadable(sample):
        raise AssertionError("the amoeba subcommand read the neighbor graph")

    monkeypatch.setattr(amoeba.AmoebaSample, "graph", property(unreadable))
    code, _, _ = run(capsys, "amoeba", "--k", "2", "3", "--out", str(tmp_path / "b"))
    assert code == 0
    for name in ("amoeba.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_converge_builds_one_graph_per_level(capsys, tmp_path, monkeypatch):
    built = []
    components = amoeba.connected_components

    def counting(graph, directed):
        built.append(graph.shape[0])
        return components(graph, directed=directed)

    monkeypatch.setattr(amoeba, "connected_components", counting)
    code, _, _ = run(capsys, "converge", "--k", "2", "3", "4", "--out", str(tmp_path))
    assert code == 0 and len(built) == 3
    # a disconnected sample reaches the CLI as the typed JSON error
    monkeypatch.setattr(amoeba, "connected_components", lambda graph, directed: (2, None))
    code, out, err = run(capsys, "converge", "--k", "2", "3", "4", "--out", str(tmp_path))
    assert code == 1 and out == ""
    error = json.loads(err)
    assert error["error"] == "DisconnectedSample" and "2 components" in error["message"]


def fake_threadpoolctl(monkeypatch):
    """Install a stand-in threadpoolctl whose threadpool_limits, a context
    manager, records the limits it enters with in calls and holds each in
    active until it exits; the lattice sums' thread count the CLI caps is
    restored after the test."""
    monkeypatch.setattr(theta, "THREADS", theta.THREADS)
    calls, active = [], []

    @contextlib.contextmanager
    def threadpool_limits(limits):
        calls.append(limits)
        active.append(limits)
        try:
            yield
        finally:
            active.pop()

    module = types.ModuleType("threadpoolctl")
    module.threadpool_limits = threadpool_limits
    monkeypatch.setitem(sys.modules, "threadpoolctl", module)
    return calls, active


def test_thread_cap_env_validation(capsys, tmp_path, monkeypatch):
    limits, _ = fake_threadpoolctl(monkeypatch)
    for raw in ("many", "0", "-2"):
        monkeypatch.setenv("THETA_AMOEBA_THREADS", raw)
        code, _, err = run(capsys, "gram", "--k", "2", "--out", str(tmp_path))
        assert code != 0
        assert json.loads(err)["error"] == "ConfigError"
    assert limits == []
    monkeypatch.setenv("THETA_AMOEBA_THREADS", "1")
    code, _, _ = run(capsys, "gram", "--k", "2", "--out", str(tmp_path))
    assert code == 0
    assert limits == [1]


def test_thread_cap_without_threadpoolctl_caps_the_lattice_sums(capsys, tmp_path, monkeypatch):
    # numpy's BLAS is loaded by then, so its cap cannot go through the
    # environment; the lattice sums are capped all the same for the run,
    # and the manifest says which pools the cap reached
    threads = theta.THREADS
    monkeypatch.setattr(theta, "THREADS", threads)
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)
    monkeypatch.setenv("THETA_AMOEBA_THREADS", "1")
    code, _, _ = run(capsys, "gram", "--k", "2", "--out", str(tmp_path))
    assert code == 0
    assert theta.THREADS == threads
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["thread_cap"] == 1
    assert manifest["thread_cap_applied_to"] == ["lattice"]
    assert manifest["lattice_threads"] == 1


def test_manifest_records_thread_cap(capsys, tmp_path, monkeypatch):
    # the cap in effect, and the thread count the lattice sums run on
    monkeypatch.delenv("THETA_AMOEBA_THREADS", raising=False)
    code, _, _ = run(capsys, "theta-eval", "--k", "2", "--out", str(tmp_path / "a"))
    assert code == 0
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["thread_cap"] is None
    assert manifest["thread_cap_applied_to"] == []
    assert manifest["lattice_threads"] == theta._usable_cpus()
    limits, _ = fake_threadpoolctl(monkeypatch)
    for cap in (2, 1):
        monkeypatch.setenv("THETA_AMOEBA_THREADS", str(cap))
        code, _, _ = run(capsys, "theta-eval", "--k", "2", "--out", str(tmp_path / str(cap)))
        assert code == 0
        manifest = json.loads((tmp_path / str(cap) / "manifest.json").read_text())
        assert manifest["thread_cap"] == cap
        assert manifest["thread_cap_applied_to"] == ["blas", "lattice"]
        assert manifest["lattice_threads"] == min(cap, theta._usable_cpus())
    assert limits == [2, 1]


def test_thread_cap_lasts_one_run(capsys, tmp_path, monkeypatch):
    # a capped run, then an uncapped one in the same process: the second
    # runs on every usable CPU with BLAS unlimited, and says so
    limits, active = fake_threadpoolctl(monkeypatch)
    threads = theta.THREADS
    for cap in ("1", None):
        if cap is None:
            monkeypatch.delenv("THETA_AMOEBA_THREADS")
        else:
            monkeypatch.setenv("THETA_AMOEBA_THREADS", cap)
        out = tmp_path / str(cap)
        code, _, _ = run(capsys, "theta-eval", "--k", "2", "--out", str(out))
        assert code == 0
        assert theta.THREADS == threads and active == []
    capped = json.loads((tmp_path / "1" / "manifest.json").read_text())
    assert (capped["thread_cap"], capped["lattice_threads"]) == (1, 1)
    manifest = json.loads((tmp_path / "None" / "manifest.json").read_text())
    assert manifest["thread_cap"] is None
    assert manifest["thread_cap_applied_to"] == []
    assert manifest["lattice_threads"] == threads
    assert limits == [1]


@pytest.mark.parametrize(
    "argv, code",
    [(["theta-eval", "--k", "2"], 0), (["gram", "--k", "1"], 1)],
    ids=["done", "typed-error"],
)
def test_collector_freeze_lasts_one_run(capsys, tmp_path, monkeypatch, argv, code):
    # the run starts with every object then alive frozen out of the garbage
    # collector, and main hands them back however the run ends
    load, frozen = cli.load_config, []

    def recording(*args):
        frozen.append(gc.get_freeze_count())
        return load(*args)

    monkeypatch.setattr(cli, "load_config", recording)
    assert gc.get_freeze_count() == 0
    assert run(capsys, *argv, "--out", str(tmp_path))[0] == code
    assert gc.get_freeze_count() == 0
    assert len(frozen) == 1 and frozen[0] > 1000


def test_collector_freeze_ends_on_a_usage_error(capsys, tmp_path):
    with pytest.raises(SystemExit):
        main(["theta-eval", "--k", "2", "--cp1", "--out", str(tmp_path)])
    assert gc.get_freeze_count() == 0


def test_runner_tables_match_row_loops():
    # the column-built tables hold the rows the per-cell loops produced
    om = validate_riemann_matrix([[1j, 0.2 + 0.1j], [0.2 + 0.1j, 0.3 + 1.2j]])
    cfg = ExperimentConfig(riemann_matrix=om, k_list=[1, 2], grid_per_dim=16)
    rows = []
    for k in cfg.k_list:
        grid = quadrature_grid(2, 8)
        gv = grid_gauge_values(theta_basis(om, k), grid.m)
        for i in range(k**2):
            for m in range(grid.size):
                rows.append([k, i, *grid.x[m], *grid.y[m], gv.log_mag[i, m], gv.phase[i, m]])
    header, table = run_theta_eval(cfg)[1]["theta_eval.csv"]
    assert header == ["k", "section", "x0", "x1", "y0", "y1", "log_mag", "phase"]
    assert np.array_equal(table, np.array(rows))
    square = validate_riemann_matrix([[1j]])
    cfg = ExperimentConfig(riemann_matrix=square, k_list=[2, 3], grid_per_dim=24)
    rows = []
    for k in cfg.k_list:
        xi = amoeba_sample(theta_basis(square, k), quadrature_grid(1, 24)).xi
        for m in range(xi.shape[0]):
            for comp in range(xi.shape[1]):
                rows.append([k, m, comp, xi[m, comp]])
    _, table = run_amoeba(cfg)[1]["amoeba.csv"]
    assert np.array_equal(table, np.array(rows))


def test_write_csv_exact_text(tmp_path):
    # one %.17g rule for numeric tables, str for tables of objects
    numbers = np.array([[3, 0.1, 1 / 3, -0.0], [1e-300, -np.inf, 2.0**53, 0.5]])
    write_csv(tmp_path / "numbers.csv", ["a", "b", "c", "d"], numbers)
    assert (tmp_path / "numbers.csv").read_text() == (
        "a,b,c,d\n"
        "3,0.10000000000000001,0.33333333333333331,-0\n"
        "1e-300,-inf,9007199254740992,0.5\n"
    )
    text = np.array([[3, 0, Fraction(-1, 3)], [3, 1, Fraction(1)]], dtype=object)
    write_csv(tmp_path / "text.csv", ["k", "index", "b0"], text)
    assert (tmp_path / "text.csv").read_text() == "k,index,b0\n3,0,-1/3\n3,1,1\n"
    # a table with no rows writes only its header line
    write_csv(tmp_path / "empty.csv", ["a", "b"], np.empty((0, 2)))
    assert (tmp_path / "empty.csv").read_text() == "a,b\n"
    # the one-pass format writes what formatting row by row writes
    rng = np.random.default_rng(3)
    scales = 10.0 ** rng.integers(-300, 300, (500, 3))
    table = np.column_stack([np.arange(500), rng.normal(size=(500, 3)) * scales])
    write_csv(tmp_path / "wide.csv", ["a", "b", "c", "d"], table)
    rows = ["%.17g,%.17g,%.17g,%.17g" % tuple(r) for r in table.tolist()]
    assert (tmp_path / "wide.csv").read_text() == "a,b,c,d\n" + "\n".join(rows) + "\n"


def one_shot_csv(header, table):
    """Oracle: the whole table formatted by one % over one format string."""
    cell = "%.17g" if np.issubdtype(table.dtype, np.number) else "%s"
    rows, cols = table.shape
    body = "".join([",".join([cell] * cols) + "\n"] * rows)
    return ",".join(header) + "\n" + body % tuple(table.ravel().tolist())


@pytest.mark.parametrize("cells", [1, 7, 12, theta._CHUNK_TERMS])
def test_write_csv_in_row_blocks_writes_the_one_shot_bytes(tmp_path, monkeypatch, cells):
    # budgets of 1, 7 and 12 cells give blocks of one to four rows, and the
    # shipped size one block, over a numeric table and a table of Fractions
    rng = np.random.default_rng(5)
    scales = 10.0 ** rng.integers(-300, 300, (301, 3))
    numbers = np.column_stack([np.arange(301), rng.normal(size=(301, 3)) * scales])
    numbers[::50, 1] = [np.inf, -np.inf, -0.0, 0.0, 2.0**53, 1e-320, 0.1]
    fractions = np.array(
        [[3, i, Fraction(int(i) - 40, 7)] for i in rng.integers(0, 99, 73)], dtype=object
    )
    monkeypatch.setattr(theta, "_CHUNK_TERMS", cells)
    for name, header, table in (("numbers.csv", list("abcd"), numbers),
                                ("fractions.csv", ["k", "index", "b0"], fractions)):
        write_csv(tmp_path / name, header, table)
        assert (tmp_path / name).read_bytes() == one_shot_csv(header, table).encode()


@pytest.mark.parametrize(
    "flags, csv, stdout",
    [
        (
            [],
            "k,index,b0\n3,0,0\n3,1,1/3\n3,2,2/3\n",
            '{"results": {"3": {"count": 3, "kind": "abelian"}}, "subcommand": "bs-count"}\n',
        ),
        (
            ["--cp1"],
            "k,index,b0\n3,0,-1\n3,1,-1/3\n3,2,1/3\n3,3,1\n",
            "k=3: -1, -1/3, 1/3, 1\n",
        ),
    ],
)
def test_bs_count_exact_artifacts(capsys, tmp_path, flags, csv, stdout):
    code, out, _ = run(capsys, "bs-count", "--k", "3", *flags, "--out", str(tmp_path))
    assert code == 0
    assert out == stdout
    assert (tmp_path / "bs_count.csv").read_text() == csv
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["files"] == ["bs_count.csv", "manifest.json", "summary.json"]


def test_seventeen_digit_floats(capsys, tmp_path):
    code, _, _ = run(capsys, "theta-eval", "--k", "2", "--out", str(tmp_path))
    assert code == 0
    import numpy as np

    lines = (tmp_path / "theta_eval.csv").read_text().strip().splitlines()
    vals = [float(line.split(",")[-2]) for line in lines[1:]]
    # round-trip through the text must be lossless at 17 significant digits
    assert all(float("%.17g" % v) == v for v in vals)
    assert np.isfinite(vals).all()
