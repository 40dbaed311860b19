"""Outside-in tracing of the program's layers.

``Tracer.install`` wraps public functions of ``theta_amoeba`` at every
module binding (``metrics``, ``amoeba``, ``quantization`` and ``cli`` import
several of them by name), so a call is recorded whichever module makes it.
Each call becomes one span: name, start, end, the span that was open when
it began, and counts taken from its arguments and return value. Spans stay
in memory and are written out once the workload ends; ``layer_metrics``
reduces them to the per-layer metrics named in ``layers.json``.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time
from pathlib import Path

import numpy as np


def _points(arguments) -> int:
    basis = arguments["basis"]
    return int(np.asarray(arguments["x"]).size // basis.om.n)


def _key(arguments) -> str:
    """Digest of the basis and the evaluation points, to spot repeated calls."""
    basis = arguments["basis"]
    h = hashlib.blake2b(digest_size=16)
    h.update(np.ascontiguousarray(basis.om.omega).tobytes())
    h.update(str(basis.k).encode())
    for name in ("x", "y"):
        h.update(np.ascontiguousarray(arguments[name], dtype=float).tobytes())
    return h.hexdigest()


def _sections(arguments, out) -> dict:
    points = _points(arguments)
    return {
        "points": points,
        "section_evals": arguments["basis"].n_sections * points,
        "key": _key(arguments),
    }


def _field(arguments, out) -> dict:
    return {"points": _points(arguments), "key": _key(arguments)}


def _fk(arguments, out) -> dict:
    return {"points": _points(arguments)}


def _graph(arguments, out) -> dict:
    grid = arguments["field"].grid
    # one edge per node and per offset in one half of {-1, 0, 1}^{2n} \ {0}
    return {"edges": grid.size * (3 ** (2 * grid.n) - 1) // 2}


def _amoeba(arguments, out) -> dict:
    return {
        "nodes": arguments["grid"].size,
        "points": out.size,
        "edges": int(out.graph.nnz),
    }


def _artifact(arguments, out) -> dict:
    path = Path(arguments["path"])
    # the manifest carries wall-clock time, so its size is not a count
    return {"bytes": 0 if path.name == "manifest.json" else path.stat().st_size}


# module.function -> counts taken from (bound arguments, return value)
TRACED = {
    "theta.theta_char_log": None,
    "theta.section_gauge_values": _sections,
    "theta.distortion_fk": _fk,
    "metrics.omega_k_field": _field,
    "metrics.gram_matrix": None,
    "metrics.balanced_matrix": None,
    "metrics.geodesic_distances": _graph,
    "amoeba.amoeba_sample": _amoeba,
    "amoeba.moment_points": None,
    "amoeba.bk_distances": None,
    "gh.convergence_suite": None,
    "quantization.fiber_coefficients": None,
    "quantization.peak_section_suite": None,
    "quantization.bsz_comparison": None,
    "abelian.base_distance": None,
    "cli.write_csv": _artifact,
    "cli.write_json": _artifact,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name: str, fn, count):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._open[-1] if self._open else None}
            self._open.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if count is not None:
                span.update(count(signature.bind(*args, **kwargs).arguments, out))
            return out

        return traced

    def install(self) -> None:
        """Replace each traced function at every binding inside the package."""
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("theta_amoeba.")]
        for qualname, count in TRACED.items():
            module, name = qualname.split(".")
            original = getattr(sys.modules[f"theta_amoeba.{module}"], name)
            wrapped = self.wrap(qualname, original, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)


def _duration(span) -> float:
    return span["end"] - span["start"]


class SpanIndex:
    """Spans with their children, for inclusive and self times."""

    def __init__(self, spans: list):
        self.spans = spans
        self.children = [[] for _ in spans]
        for i, span in enumerate(spans):
            if span["parent"] is not None:
                self.children[span["parent"]].append(i)

    def named(self, name: str) -> list:
        return [i for i, s in enumerate(self.spans) if s["name"] == name]

    def ancestors(self, i: int):
        parent = self.spans[i]["parent"]
        while parent is not None:
            yield parent
            parent = self.spans[parent]["parent"]

    def inclusive(self, name: str) -> float:
        """Seconds inside ``name``, counting nested calls of it once."""
        return sum(
            (
                _duration(self.spans[i])
                for i in self.named(name)
                if all(self.spans[a]["name"] != name for a in self.ancestors(i))
            ),
            0.0,
        )

    def self_time(self, name: str) -> float:
        return sum(
            (
                _duration(self.spans[i]) - sum(_duration(self.spans[c]) for c in self.children[i])
                for i in self.named(name)
            ),
            0.0,
        )

    def total(self, name: str, field: str) -> int:
        return sum(self.spans[i][field] for i in self.named(name))

    def repeat_frac(self, name: str) -> float:
        keys = [self.spans[i]["key"] for i in self.named(name)]
        return _ratio(len(keys) - len(set(keys)), len(keys))

    def nested_total(self, name: str, field: str, inside: str) -> int:
        return sum(
            self.spans[i][field]
            for i in self.named(name)
            if any(self.spans[a]["name"] == inside for a in self.ancestors(i))
        )

    def top_level_seconds(self) -> float:
        return sum(_duration(s) for s in self.spans if s["parent"] is None)


def _ratio(num, den) -> float:
    """num / den, or 0.0 when the workload never reaches the layer."""
    return num / den if den else 0.0


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics as {name: (value, unit)}; a layer the workload never
    calls reads 0."""
    ix = SpanIndex(spans)
    return {
        "theta.theta_char_log.s": (ix.inclusive("theta.theta_char_log"), "s"),
        "theta.section_gauge_values.s": (ix.inclusive("theta.section_gauge_values"), "s"),
        "theta.section_gauge_values.calls": (len(ix.named("theta.section_gauge_values")), "count"),
        "theta.section_evals": (ix.total("theta.section_gauge_values", "section_evals"), "count"),
        "theta.section_gauge_values.repeat_frac": (ix.repeat_frac("theta.section_gauge_values"), "ratio"),
        "theta.distortion_fk.s": (ix.inclusive("theta.distortion_fk"), "s"),
        "theta.fk_points": (ix.total("theta.distortion_fk", "points"), "count"),
        "metrics.omega_k_field.self_s": (ix.self_time("metrics.omega_k_field"), "s"),
        "metrics.omega_k_field.points": (ix.total("metrics.omega_k_field", "points"), "count"),
        "metrics.fk_evals_per_field_point": (
            _ratio(
                ix.nested_total("theta.distortion_fk", "points", inside="metrics.omega_k_field"),
                ix.total("metrics.omega_k_field", "points"),
            ),
            "ratio",
        ),
        "metrics.omega_k_field.repeat_frac": (ix.repeat_frac("metrics.omega_k_field"), "ratio"),
        "metrics.gram_matrix.self_s": (ix.self_time("metrics.gram_matrix"), "s"),
        "metrics.balanced_matrix.self_s": (ix.self_time("metrics.balanced_matrix"), "s"),
        "metrics.geodesic_distances.s": (ix.inclusive("metrics.geodesic_distances"), "s"),
        "metrics.graph_edges": (ix.total("metrics.geodesic_distances", "edges"), "count"),
        "amoeba.amoeba_sample.self_s": (ix.self_time("amoeba.amoeba_sample"), "s"),
        "amoeba.sample_points": (ix.total("amoeba.amoeba_sample", "points"), "count"),
        "amoeba.unique_frac": (
            _ratio(ix.total("amoeba.amoeba_sample", "points"), ix.total("amoeba.amoeba_sample", "nodes")),
            "ratio",
        ),
        "amoeba.graph_edges": (ix.total("amoeba.amoeba_sample", "edges"), "count"),
        "amoeba.moment_points.calls": (len(ix.named("amoeba.moment_points")), "count"),
        "amoeba.bk_distances.s": (ix.inclusive("amoeba.bk_distances"), "s"),
        "gh.convergence_suite.self_s": (ix.self_time("gh.convergence_suite"), "s"),
        "quantization.fiber_coefficients.s": (ix.inclusive("quantization.fiber_coefficients"), "s"),
        "quantization.fiber_coefficients.calls": (len(ix.named("quantization.fiber_coefficients")), "count"),
        "quantization.peak_section_suite.self_s": (ix.self_time("quantization.peak_section_suite"), "s"),
        "quantization.bsz_comparison.s": (ix.inclusive("quantization.bsz_comparison"), "s"),
        "abelian.base_distance.s": (ix.inclusive("abelian.base_distance"), "s"),
        "abelian.base_distance.calls": (len(ix.named("abelian.base_distance")), "count"),
        "cli.write_csv.s": (ix.inclusive("cli.write_csv"), "s"),
        "cli.artifact_bytes": (ix.total("cli.write_csv", "bytes") + ix.total("cli.write_json", "bytes"), "bytes"),
    }
