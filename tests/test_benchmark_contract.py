"""The benchmark's tracer (perfbench/tracer.py) wraps program entry points by
module attribute name.  Renaming or deleting one of them breaks every traced
benchmark run, so this test installs the tracer against src/ and drives a
small 1D run, a small uniform 2D run and a small graded 2D run (the step
`blowup-2d` takes) through the CLI, checking that each run calls its kernels
through the wrappers.  It runs in a subprocess, which keeps the tracer's
patches out of the other tests.

The benchmark's replay self-test (perfbench/checks.py `tamper_snapshot`)
shifts one value of an early snapshot by byte offset; a second test checks
that the offset still lands in the values of the snapshot layout and that
`gbulab check` then exits 5."""

import importlib.util
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import yaml

from gbulab import cli
from gbulab.grid import read_snapshot

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


def _perfbench_checks():
    path = os.path.join(ROOT, "perfbench", "checks.py")
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tamper_snapshot_shifts_one_value_and_check_exits_5(tmp_path):
    """tamper_snapshot's offset, 32 + 8 * ((size - 32) // 16), lies past the
    header and the x and y nodes: it changes one value of one early
    snapshot of a small uniform run, whose check then exits 5."""
    cfg = tmp_path / "twod.yaml"
    cfg.write_text(yaml.safe_dump({
        "p": 3.0, "domain": {"Lx": 0.25, "Ly": 0.25},
        "grid": {"nx": 33, "ny": 33},
        "initial_data": {"family": "cap", "amplitude": 0.1, "width": 0.18},
        "solver": {"t_max": 0.002, "snapshot_stride": 5}}))
    run_dir = tmp_path / "run"
    assert cli.main(["run", str(cfg), "-o", str(run_dir)]) == cli.EXIT_OK
    assert cli.main(["check", str(run_dir)]) == cli.EXIT_OK
    snaps = sorted((run_dir / "snapshots").iterdir())
    assert len(snaps) >= 3
    before = [p.read_bytes() for p in snaps]
    rel = _perfbench_checks().tamper_snapshot(str(run_dir), delta=0.5)
    changed = [i for i, p in enumerate(snaps) if p.read_bytes() != before[i]]
    assert [snaps[i] for i in changed] == [run_dir / rel]
    assert changed[0] < len(snaps) - 1
    (tmp_path / "orig.bin").write_bytes(before[changed[0]])
    (f0, t0), (f1, t1) = (read_snapshot(p)
                          for p in (tmp_path / "orig.bin", run_dir / rel))
    assert f1.grid == f0.grid and f1.grid.uniform and t1 == t0
    shift = f1.values - f0.values
    assert np.count_nonzero(shift) == 1
    assert np.max(shift) == pytest.approx(0.5)
    assert cli.main(["check", str(run_dir)]) == cli.EXIT_SNAPSHOT
