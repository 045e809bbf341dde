"""Outside-in span tracer for one gbulab process.

`install` replaces module attributes of the program with wrappers that record
a span per call: name, start, end (perf_counter_ns), the enclosing span, and
whether the call raised.  A few spans also keep one `extra` value taken from
the call (array size, bytes read, simulated time).  Nothing inside `src/`
changes: the program calls the wrappers because it looks these names up on
the module at call time.  Spans stay in memory and are written once, by
`dump`, when the process ends.
"""

from __future__ import annotations

import inspect
import json
import time
from functools import wraps


class Tracer:
    def __init__(self, op_id: str):
        self.op_id = op_id
        self.names: list = []
        self.rows: list = []  # [name index, start, end, parent, failed, extra]
        self._stack = [-1]

    def wrap(self, name, fn, extra=None):
        ix = len(self.names)
        self.names.append(name)
        rows, stack, clock = self.rows, self._stack, time.perf_counter_ns

        @wraps(fn)
        def traced(*args, **kwargs):
            me = len(rows)
            rows.append(None)  # reserve the slot so children see our index
            parent = stack[-1]
            stack.append(me)
            failed = 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                failed = 0
                return out
            finally:
                t1 = clock()
                stack.pop()
                rows[me] = [ix, t0, t1, parent, failed,
                            extra(args, out) if extra and not failed else 0]
        return traced

    def dump(self, path, **fields):
        doc = {"op": self.op_id, "names": self.names, "rows": self.rows,
               **fields}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _nodes(args, out):
    return int(args[0].size)


def _snapshot_bytes_written(args, out):
    return int(args[0].values.nbytes)


def _snapshot_bytes_read(args, out):
    return int(out[0].values.nbytes)


def _sim_time_and_steps(args, out):
    return [float(out.t_stop), len(out.series["t"]) - 1]


def _snapshot_count(args, out):
    return len(args[0])


def install(tracer: Tracer):
    """Wrap the layer entry points named in README.md ("Layers")."""
    from gbulab import (_kernels, cli, diagnostics, initial_data, profile_fit,
                        solver)

    def patch(owner, attr, name, extra=None):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), extra))

    patch(_kernels, "rhs_interior", "_kernels.rhs", _nodes)
    patch(_kernels, "grad_norm_max", "_kernels.gradmax", _nodes)
    patch(_kernels, "rhs_interior_1d", "_kernels.rhs1d", _nodes)
    patch(_kernels, "grad_max_1d", "_kernels.gradmax1d", _nodes)
    patch(solver, "step", "solver.step")
    patch(solver, "run", "solver.run", _sim_time_and_steps)
    patch(solver, "run_1d", "solver.run_1d", _sim_time_and_steps)
    patch(solver, "write_series", "solver.write_series")
    patch(solver, "write_snapshot", "solver.write_snapshot",
          _snapshot_bytes_written)
    patch(cli, "read_snapshot", "grid.read_snapshot", _snapshot_bytes_read)
    patch(cli, "manufactured_solution", "profile_math.manufactured_solution")
    for attr in dir(profile_fit):
        if attr.startswith("fit_") or attr == "time_rate_linear":
            patch(profile_fit, attr, f"profile_fit.{attr}")
    patch(diagnostics, "build_report", "diagnostics.build_report",
          _snapshot_count)
    patch(diagnostics, "write_report", "diagnostics.write_report")
    patch(cli, "load_config", "cli.load_config")
    patch(cli, "_emit_profile_csvs", "cli.emit_profile_csvs")
    # the 1D sine arch is built here rather than in initial_data
    patch(cli.RunConfig, "make_initial", "initial_data.make_initial")
    for attr in initial_data.__all__:
        if inspect.isfunction(getattr(initial_data, attr)):
            patch(initial_data, attr, f"initial_data.{attr}")
