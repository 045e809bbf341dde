"""Per-layer metrics from the spans of one traced operation.

A layer's self time is a span's duration minus the time its child spans
cover.  Where one layer's entry point calls another of the same layer
(`fit_time_rate` calls `time_rate_linear`), only the outer span counts toward
the layer's time, calls and failures.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

# name, unit, better
METRICS = [
    ("kernels.rhs_calls", "count", "lower"),
    ("kernels.rhs_ns_per_node", "ns/node", "lower"),
    ("kernels.rhs_bytes_computed", "B", "lower"),
    ("kernels.gradmax_calls", "count", "lower"),
    ("kernels.gradmax_ns_per_node", "ns/node", "lower"),
    ("kernels.rhs1d_calls", "count", "lower"),
    ("kernels.rhs1d_us_per_call", "us/call", "lower"),
    ("kernels.gradmax1d_us_per_call", "us/call", "lower"),
    ("solver.steps", "count", "lower"),
    ("solver.rhs_per_simtime", "1/s", "lower"),
    ("solver.step_ms.p50", "ms", "lower"),
    ("solver.step_ms.p99", "ms", "lower"),
    ("solver.step_overhead_ms", "ms", "lower"),
    ("solver.run_self_s", "s", "lower"),
    ("solver.series_write_s", "s", "lower"),
    ("solver.snapshot_writes", "count", "lower"),
    ("solver.snapshot_write_s", "s", "lower"),
    ("solver.artifact_mb", "MB", "lower"),
    ("grid.snapshot_reads", "count", "lower"),
    ("grid.snapshot_read_s", "s", "lower"),
    ("grid.snapshot_read_mb_per_s", "MB/s", "higher"),
    ("profile_math.mms_calls", "count", "lower"),
    ("profile_math.mms_s", "s", "lower"),
    ("profile_math.mms_share", "1", "lower"),
    ("profile_fit.fit_calls", "count", "lower"),
    ("profile_fit.fits_s", "s", "lower"),
    ("profile_fit.fit_failures", "count", "lower"),
    ("profile_fit.fit_success_ratio", "1", "higher"),
    ("diagnostics.report_s", "s", "lower"),
    ("diagnostics.ms_per_snapshot", "ms", "lower"),
    ("diagnostics.write_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.config_s", "s", "lower"),
    ("initial_data.build_s", "s", "lower"),
    ("cli.csv_emit_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]

# computed from array sizes: each kernel reads its input array once and the
# stencils write one output array; a lower bound on memory traffic
KERNEL_BYTES_PER_NODE = {"rhs": 16, "gradmax": 8, "rhs1d": 16, "gradmax1d": 8}


class _Span:
    __slots__ = ("name", "dur", "own", "failed", "extra", "outer")


def _spans(docs):
    out = []
    for doc in docs:
        names, rows = doc["names"], doc["rows"]
        spans = []
        for ix, t0, t1, parent, failed, extra in rows:
            s = _Span()
            s.name, s.dur, s.failed, s.extra = names[ix], (t1 - t0) * 1e-9, \
                failed, extra
            s.own = s.dur
            layer = s.name.split(".")[0]
            s.outer = parent < 0 or names[rows[parent][0]].split(".")[0] != layer
            spans.append(s)
        for s, row in zip(spans, rows):
            if row[3] >= 0:
                spans[row[3]].own -= s.dur
        out.extend(spans)
    return out


def _pct(values, q):
    vals = sorted(values)
    return vals[min(len(vals) - 1, int(q * len(vals)))] if vals else 0.0


def op_layers(docs, wall_s, artifact_mb):
    """Layer metrics of one operation from its processes' span documents."""
    by = defaultdict(list)
    for s in _spans(docs):
        by[s.name].append(s)

    def total(name):
        return sum(s.dur for s in by[name])

    def family(prefix):
        return [s for name, ss in by.items() if name.startswith(prefix)
                for s in ss if s.outer]

    def per_node(name):
        nodes = sum(s.extra for s in by[name])
        return total(name) * 1e9 / nodes if nodes else 0.0

    def per_call(name):
        return total(name) * 1e6 / len(by[name]) if by[name] else 0.0

    runs = [s for s in by["solver.run"] + by["solver.run_1d"] if not s.failed]
    sim_time = sum(s.extra[0] for s in runs)
    rhs_calls = len(by["_kernels.rhs"]) + len(by["_kernels.rhs1d"])
    step_ms = [s.dur * 1e3 for s in by["solver.step"]]
    read_s = total("grid.read_snapshot")
    read_mb = sum(s.extra for s in by["grid.read_snapshot"]) / 1e6
    fits = family("profile_fit.")
    report_snaps = sum(s.extra for s in by["diagnostics.build_report"])
    mms_s = total("profile_math.manufactured_solution")
    return {
        "kernels.rhs_calls": len(by["_kernels.rhs"]),
        "kernels.rhs_ns_per_node": per_node("_kernels.rhs"),
        "kernels.rhs_bytes_computed": KERNEL_BYTES_PER_NODE["rhs"]
        * sum(s.extra for s in by["_kernels.rhs"]),
        "kernels.gradmax_calls": len(by["_kernels.gradmax"]),
        "kernels.gradmax_ns_per_node": per_node("_kernels.gradmax"),
        "kernels.rhs1d_calls": len(by["_kernels.rhs1d"]),
        "kernels.rhs1d_us_per_call": per_call("_kernels.rhs1d"),
        "kernels.gradmax1d_us_per_call": per_call("_kernels.gradmax1d"),
        "solver.steps": sum(s.extra[1] for s in runs),
        "solver.rhs_per_simtime": rhs_calls / sim_time if sim_time else 0.0,
        "solver.step_ms.p50": _pct(step_ms, 0.5),
        "solver.step_ms.p99": _pct(step_ms, 0.99),
        "solver.step_overhead_ms": statistics.median(
            s.own for s in by["solver.step"]) * 1e3 if step_ms else 0.0,
        "solver.run_self_s": sum(s.own for s in runs),
        "solver.series_write_s": total("solver.write_series"),
        "solver.snapshot_writes": len(by["solver.write_snapshot"]),
        "solver.snapshot_write_s": total("solver.write_snapshot"),
        "solver.artifact_mb": artifact_mb,
        "grid.snapshot_reads": len(by["grid.read_snapshot"]),
        "grid.snapshot_read_s": read_s,
        "grid.snapshot_read_mb_per_s": read_mb / read_s if read_s else 0.0,
        "profile_math.mms_calls": len(by["profile_math.manufactured_solution"]),
        "profile_math.mms_s": mms_s,
        "profile_math.mms_share": mms_s / wall_s,
        "profile_fit.fit_calls": len(fits),
        "profile_fit.fits_s": sum(s.dur for s in fits),
        "profile_fit.fit_failures": sum(s.failed for s in fits),
        "profile_fit.fit_success_ratio":
            1.0 - sum(s.failed for s in fits) / len(fits) if fits else 0.0,
        "diagnostics.report_s": total("diagnostics.build_report"),
        "diagnostics.ms_per_snapshot": total("diagnostics.build_report")
        * 1e3 / report_snaps if report_snaps else 0.0,
        "diagnostics.write_s": total("diagnostics.write_report"),
        "cli.import_s": sum(doc["import_ns"] for doc in docs) * 1e-9,
        "cli.config_s": total("cli.load_config"),
        "initial_data.build_s": sum(s.dur for s in family("initial_data.")),
        "cli.csv_emit_s": total("cli.emit_profile_csvs"),
        "cli.self_s": sum(s.own for s in by["cli.main"]),
        "trace.spans": sum(len(v) for v in by.values()),
    }


def median_layers(per_op):
    """Median over operations of each metric in `per_op` (a list of dicts)."""
    return {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
