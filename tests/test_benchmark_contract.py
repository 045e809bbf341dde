"""The benchmark's tracer (perfbench/tracer.py) wraps program entry points by
module attribute name.  Renaming or deleting one of them breaks every traced
benchmark run, so this test installs the tracer against src/ and drives a
small 1D run, a small uniform 2D run and a small graded 2D run (the step
`blowup-2d` takes) through the CLI, checking that each run calls its kernels
through the wrappers.  It runs in a subprocess, which keeps the tracer's
patches out of the other tests."""

import os
import subprocess
import sys
import textwrap

import yaml

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = textwrap.dedent("""
    import sys
    perfbench, src, root = sys.argv[1:]
    sys.path[:0] = [perfbench, src]
    from tracer import Tracer, install
    tracer = Tracer("contract")
    install(tracer)
    from gbulab import cli
    live = {"solver.run", "solver.step", "solver.write_snapshot",
            "grid.read_snapshot", "cli.load_config",
            "initial_data.make_initial", "solver.write_series"}
    twod = {"_kernels.rhs", "_kernels.gradmax", "cli.emit_profile_csvs",
            "diagnostics.build_report", "diagnostics.write_report",
            "profile_fit.fit_normal"}
    kernels = {"oned": {"_kernels.rhs1d", "_kernels.gradmax1d"},
               "twod": twod, "graded": twod}
    for name, names in kernels.items():
        first = len(tracer.rows)
        rc = cli.main(["run", f"{root}/{name}.yaml", "-o", f"{root}/{name}"])
        assert rc == 0, f"gbulab run {name} exited {rc}"
        called = {tracer.names[row[0]] for row in tracer.rows[first:]}
        missing = sorted((live | names) - called)
        assert not missing, f"{name} never called: {missing}"
""")


def test_tracer_installs_and_sees_the_1d_kernels(tmp_path):
    (tmp_path / "oned.yaml").write_text(yaml.safe_dump({
        "p": 3.0, "domain": {"Lx": 0.25, "Ly": 1.0}, "grid": {"ny": 65},
        "initial_data": {"family": "sine_1d", "amplitude": 1.5},
        "solver": {"stop_grad_norm": 100.0, "t_max": 0.01}}))
    (tmp_path / "twod.yaml").write_text(yaml.safe_dump({
        "p": 3.0, "domain": {"Lx": 0.25, "Ly": 0.25},
        "grid": {"nx": 65, "ny": 65},
        "initial_data": {"family": "cap", "amplitude": 0.1, "width": 0.18},
        "solver": {"t_max": 0.001}}))
    (tmp_path / "graded.yaml").write_text(yaml.safe_dump({
        "p": 3.0, "domain": {"Lx": 0.25, "Ly": 0.25},
        "grid": {"y_first": 1e-3, "y_ratio": 1.3, "y_max": 0.02,
                 "x_first": 1e-3, "x_ratio": 1.3, "x_max": 0.02},
        "initial_data": {"family": "cap", "amplitude": 0.1, "width": 0.18},
        "solver": {"t_max": 0.001}}))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, os.path.join(ROOT, "perfbench"),
         os.path.join(ROOT, "src"), str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
