"""gbulab benchmark: one workload, one seed, a closed loop with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It generates the workload's input from the
seed, sets up, then runs one `gbulab` operation at a time in a child process
(single-threaded numpy) until S seconds have passed, checking every
operation's outputs.  With --trace 0 it reports the end-to-end metrics; with
--trace 1 it alternates traced and untraced operations and reports the
per-layer metrics.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

import checks
import layers
from workloads import WORKLOADS, generate

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 5
OP_TIMEOUT_S = 170.0
RUN_BUDGET_S = 165.0  # start no operation that could end after this
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "fit_err": "1"}


class SetupError(Exception):
    pass


@dataclass
class Proc:
    rc: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str


def spawn(argv, env, log) -> Proc:
    """Run argv to completion; wall time and peak RSS come from wait4."""
    with open(log + ".out", "w") as out, open(log + ".err", "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log + ".out") as fh_out, open(log + ".err") as fh_err:
        return Proc(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                    fh_out.read(), fh_err.read())


@dataclass
class Op:
    traced: bool
    wall_s: float = 0.0
    rss_mb: float = 0.0
    fit_err: float | None = None
    error: str | None = None
    exit_codes: list = field(default_factory=list)
    docs: list = field(default_factory=list)
    artifact_mb: float = 0.0


CHECKS = {"blowup-2d": checks.blowup_2d, "rate-1d": checks.rate_1d}


def _dir_mb(path):
    return sum(os.path.getsize(f) for f in glob.glob(
        os.path.join(path, "**"), recursive=True) if os.path.isfile(f)) / 1e6


class Bench:
    def __init__(self, root, work, workload, seed, trace):
        self.root, self.work, self.wl = root, work, workload
        self.seed, self.trace = seed, trace
        self.config = os.path.join(work, "input.yaml")
        self.replay_dir = os.path.join(work, "replay-run")
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            self.env[var] = "1"
        self.nspawn = 0
        self.setup_layers = None

    def _spawn(self, argv):
        self.nspawn += 1
        return spawn(argv, self.env, os.path.join(self.work, f"p{self.nspawn}"))

    def _argv(self, gbulab_args, spans=None, op_id=""):
        if spans is None:
            return [sys.executable, "-m", "gbulab.cli", *gbulab_args]
        return [sys.executable, os.path.join(HERE, "child.py"), "trace",
                spans, op_id, "--", *gbulab_args]

    # -- set-up ------------------------------------------------------------

    def setup(self) -> float:
        """Generate the input and warm up, several times; median seconds.

        For replay, writing the input run directory is added on top.
        """
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            with open(self.config, "w") as fh:
                fh.write(generate(self.root, self.wl, self.seed))
            proc = self._spawn([sys.executable, os.path.join(HERE, "child.py"),
                                "warmup", self.config])
            times.append(time.perf_counter() - t0)
            if proc.rc:
                raise SetupError(f"warm-up exited {proc.rc}: {proc.stderr}")
        self.versions = json.loads(proc.stdout.splitlines()[-1])
        setup_s = statistics.median(times)
        if self.wl.kind == "replay":
            spans = os.path.join(self.work, "setup-spans.json") \
                if self.trace else None
            proc = self._spawn(self._argv(
                ["run", self.config, "-o", self.replay_dir], spans, "setup"))
            setup_s += proc.wall_s
            if proc.rc:
                raise SetupError(f"replay set-up run exited {proc.rc}: "
                                 f"{proc.stderr}")
            try:
                self.reference = checks.ReplayReference(self.replay_dir)
            except checks.CheckFailed as exc:
                raise SetupError(f"replay set-up: {exc}")
            if spans:
                with open(spans) as fh:
                    self.setup_layers = layers.op_layers(
                        [json.load(fh)], proc.wall_s, _dir_mb(self.replay_dir))
        return setup_s

    # -- one operation -----------------------------------------------------

    def operation(self, index, traced, run_dir=None) -> Op:
        op = Op(traced)
        kind = self.wl.kind
        if kind == "replay":
            run_dir = run_dir or self.replay_dir
            calls = [["fit", run_dir], ["check", run_dir]]
        elif kind == "mms":
            calls = [["mms", self.config]]
        else:
            run_dir = os.path.join(self.work, f"op{index}")
            calls = [["run", self.config, "-o", run_dir]]
        stdout = ""
        for n, args in enumerate(calls):
            spans = os.path.join(self.work, f"spans{index}-{n}.json") \
                if traced else None
            proc = self._spawn(self._argv(args, spans, f"op{index}"))
            op.wall_s += proc.wall_s
            op.rss_mb = max(op.rss_mb, proc.rss_mb)
            op.exit_codes.append(proc.rc)
            stdout += proc.stdout
            if proc.rc and op.error is None:
                op.error = f"gbulab {args[0]} exited {proc.rc}: " \
                           f"{proc.stderr.strip()[-300:]}"
            if spans and os.path.exists(spans):
                with open(spans) as fh:
                    op.docs.append(json.load(fh))
        if op.error is None:
            try:
                if kind == "replay":
                    op.fit_err = self.reference.check(run_dir)
                elif kind == "mms":
                    op.fit_err = checks.mms_ladder(stdout)
                else:
                    op.fit_err = CHECKS[self.wl.name](run_dir)
            except checks.CheckFailed as exc:
                op.error = f"output check: {exc}"
        if run_dir is not None:
            op.artifact_mb = _dir_mb(run_dir)
            if kind == "run":
                shutil.rmtree(run_dir, ignore_errors=True)
        return op

    def tamper_self_test(self) -> dict:
        """A replay operation on a copy with one early snapshot corrupted
        must count as failed."""
        copy = os.path.join(self.work, "tampered")
        shutil.copytree(self.replay_dir, copy)
        snapshot = checks.tamper_snapshot(copy)
        op = self.operation(-1, False, run_dir=copy)
        return {"tampered": snapshot, "gbulab_check_exit": op.exit_codes[-1],
                "counted_failed": op.error is not None, "reason": op.error}


def run_record(root, versions) -> dict:
    sha = dirty = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                  capture_output=True, text=True, timeout=30)
            status = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=root, capture_output=True, text=True, timeout=30)
            if head.returncode == 0:
                sha, dirty = head.stdout.strip(), bool(status.stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = 0
    for path in glob.glob(os.path.join(root, "src", "**", "*.py"),
                          recursive=True):
        with open(path, "rb") as fh:
            src_lines += fh.read().count(b"\n")
    return {"git_sha": sha, "git_dirty": dirty, **versions,
            "kernel_backend": "numba" if versions["numba_importable"]
            else "numpy", "nproc": os.cpu_count(), "src_lines": src_lines,
            "kernel_bytes_per_node_computed": layers.KERNEL_BYTES_PER_NODE}


def measure(bench: Bench, seconds: float, t_start: float):
    setup_s = bench.setup()
    deadline = time.perf_counter() + seconds
    ops = []
    while True:
        # traced runs alternate, traced first, so both kinds get a sample
        ops.append(bench.operation(len(ops),
                                   bench.trace and len(ops) % 2 == 0))
        now = time.perf_counter()
        enough = now >= deadline and (not bench.trace or len(ops) >= 2)
        longest = max(op.wall_s for op in ops)
        if enough or now - t_start + longest > RUN_BUDGET_S:
            return setup_s, ops


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def report(bench, setup_s, ops, self_test):
    plain = [op for op in ops if not op.traced]
    traced = [op for op in ops if op.traced]
    fit_errs = [op.fit_err for op in ops if op.fit_err is not None]
    failed = sum(op.error is not None for op in ops)
    e2e = {
        "wall_s": _median(op.wall_s for op in plain),
        "setup_s": setup_s,
        "peak_rss_mb": _median(op.rss_mb for op in plain),
        # 1.0 (a 100% miss) when no operation produced an estimate
        "fit_err": _median(fit_errs, 1.0),
    }
    wl = bench.wl.name
    print(f"perfbench {wl}: seed {bench.seed}, trace {int(bench.trace)}, "
          f"{len(ops)} operations ({len(traced)} traced)")
    for i, op in enumerate(ops):
        tag = "traced" if op.traced else "plain "
        print(f"  op {i:2d} {tag} wall {op.wall_s:9.4f} s  rss "
              f"{op.rss_mb:7.1f} MB  fit_err {op.fit_err}"
              + (f"  FAILED: {op.error}" if op.error else ""))
    if plain:
        print(f"  wall_s      = {e2e['wall_s']:.4f} s (median of n={len(plain)})")
    print(f"  setup_s     = {setup_s:.4f} s (median of {SETUP_REPEATS} set-ups"
          + (", plus writing the run directory)" if bench.wl.kind == "replay"
             else ")"))
    print(f"  peak_rss_mb = {e2e['peak_rss_mb']:.1f} MB")
    print(f"  fit_err     = {e2e['fit_err']:.6g}")
    print(f"  failed_frac = {failed}/{len(ops)}")
    if self_test is not None:
        print(f"  tamper self-test: {self_test}")

    correct = failed == 0 and (self_test is None or self_test["counted_failed"])
    if not bench.trace:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    else:
        per_op = [layers.op_layers(op.docs, op.wall_s, op.artifact_mb)
                  for op in traced if op.docs]
        correct = correct and bool(per_op)
        vals = layers.median_layers(per_op) if per_op else {}
        if bench.setup_layers:
            # replay operations run no solver or kernel: report the traced
            # set-up that wrote their input instead
            for k, v in bench.setup_layers.items():
                if k.startswith(("solver.", "kernels.", "initial_data.")) \
                        and not vals.get(k):
                    vals[k] = v
        vals["trace.overhead_s"] = (
            _median(op.wall_s for op in traced)
            - _median(op.wall_s for op in plain)) if plain else 0.0
        metrics = {name: {"value": vals.get(name, 0.0), "unit": unit}
                   for name, unit, _ in layers.METRICS}
        for name, m in metrics.items():
            print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print("record: " + json.dumps(run_record(bench.root, bench.versions)))
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))


def main(argv=None) -> int:
    t_start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gbulab", "cli.py")):
        print(f"perfbench: no gbulab sources under {root}/src; run from the "
              f"repository root", file=sys.stderr)
        return 2
    work = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        bench = Bench(root, work, WORKLOADS[args.workload], args.seed,
                      bool(args.trace))
        setup_s, ops = measure(bench, args.seconds, t_start)
        self_test = bench.tamper_self_test() \
            if bench.wl.kind == "replay" else None
        report(bench, setup_s, ops, self_test)
    except SetupError as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
