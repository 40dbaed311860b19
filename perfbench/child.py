"""One benchmark repetition in a fresh process.

Run by ``run.py`` with BLAS threads already fixed in the environment, from
the root of a source checkout:

    python3 perfbench/child.py WORKLOAD INPUTS OUT SEED {setup,run,trace}

``setup`` only imports the program and builds the workload's inputs;
``run`` also runs the workload; ``trace`` runs it with every layer traced
and writes the spans to OUT/spans.json. The result goes to OUT/result.json.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

# numpy wheels bundle OpenBLAS under a prefixed name
_OPENBLAS_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads")


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in _OPENBLAS_GETTERS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def main(argv) -> int:
    name, inputs, out, seed, mode = argv
    w = workloads.WORKLOADS[name]
    inputs, out, seed = Path(inputs), Path(out), int(seed)
    state = workloads.setup(w, inputs)
    result = {"setup_done": time.monotonic()}
    if mode != "setup":
        tracer = Tracer()
        if mode == "trace":
            tracer.install()
        start = time.perf_counter()
        code, arrays = workloads.run(w, state, inputs, out, seed)
        result["wall_s"] = time.perf_counter() - start
        result["cli_code"] = code
        if arrays:
            np.savez(out / "library.npz", **arrays)
        if mode == "trace":
            (out / "spans.json").write_text(json.dumps(tracer.spans))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["blas_threads"] = blas_threads()
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
