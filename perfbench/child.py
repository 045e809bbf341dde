"""Entry points the benchmark runs in child processes.

    python3 perfbench/child.py warmup CONFIG
        Import gbulab, parse CONFIG and build its initial fields, then print
        the library versions as JSON.  This is the set-up every operation
        repeats before its first step.

    python3 perfbench/child.py trace SPANS OP_ID -- GBULAB_ARGS...
        Run `gbulab GBULAB_ARGS` with the span tracer installed and write the
        spans to SPANS when it ends.  The exit code is gbulab's.

Both expect `src` on PYTHONPATH; run.py sets it.
"""

from __future__ import annotations

import importlib.util
import json
import platform
import sys
import time


def warmup(config_path) -> int:
    import numpy as np
    import yaml
    from gbulab import cli
    from gbulab.grid import Grid2D
    from gbulab.profile_math import (manufactured_params,
                                     manufactured_solution, profile_constants)

    with open(config_path) as fh:
        raw = yaml.safe_load(fh)
    if "alpha" in raw:  # an MMS study: its initial fields are the exact ones
        pc = profile_constants(float(raw["p"]))
        mp = manufactured_params(pc, float(raw["alpha"]), float(raw["T"]))
        for n in raw["grids"]:
            X, Y = Grid2D(Lx=float(raw["Lx"]), Ly=float(raw["Ly"]),
                          nx=n, ny=n).meshgrid()
            manufactured_solution(mp, pc, X, Y, 0.0)
    else:
        cfg = cli.load_config(config_path)
        cfg.make_initial(cfg.make_grid())
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }))
    return 0


def trace(spans_path, op_id, argv) -> int:
    t0 = time.perf_counter_ns()
    from gbulab import cli
    import_ns = time.perf_counter_ns() - t0

    from tracer import Tracer, install
    tracer = Tracer(op_id)
    install(tracer)
    main = tracer.wrap("cli.main", cli.main)
    rc = 1
    try:
        rc = main(argv)
    finally:
        tracer.dump(spans_path, import_ns=import_ns, rc=rc)
    return rc


if __name__ == "__main__":
    mode = sys.argv[1] if len(sys.argv) > 1 else ""
    if mode == "warmup" and len(sys.argv) == 3:
        sys.exit(warmup(sys.argv[2]))
    if mode == "trace" and len(sys.argv) > 5 and sys.argv[4] == "--":
        sys.exit(trace(sys.argv[2], sys.argv[3], sys.argv[5:]))
    print(__doc__, file=sys.stderr)
    sys.exit(2)
