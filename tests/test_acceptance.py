"""Acceptance suite: one test per release gate, each printing a PASS/FAIL line.

The heavy runs are the shipped presets executed through the real CLI once per
session; every gate reads the artifacts a user would read (fits.json,
report.json, series.csv).  p3-blowup runs on a graded grid that resolves the
boundary quench to grad_max 1e5, so gates 4-9 read its deep singular regime.
p25-blowup still runs on a uniform 257 x 257 grid, which cannot reach the
p = 2.5 tangential tail, so the p = 2.5 half of gate 5 fails (see its
assertion message); it is asserted faithfully rather than weakened.  Every
run, p25-blowup's uniform grid and gate 2's manufactured-solution study
included, takes the solver's linearly implicit step: adaptive in the preset
runs, N0 4^k equal steps to t_end on the k-th grid of the forced study.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from gbulab import (Grid2D, SolverConfig, gradient, profile_constants,
                    steady_state, symmetric_cap)
from gbulab import cli, solver
from gbulab import diagnostics as dg
from gbulab.profile_math import calibrate_barrier_c0

PC3 = profile_constants(3.0)
PC25 = profile_constants(2.5)


def _gate(num, name, ok, detail):
    line = f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


def _run_preset(tmp_path_factory, preset, budget_s):
    out = str(tmp_path_factory.mktemp(preset))
    t0 = time.time()
    rc = cli.cmd_run(preset, out)
    elapsed = time.time() - t0
    assert rc == 0, f"preset {preset} exited {rc}"
    assert elapsed < budget_s, f"preset {preset} took {elapsed:.0f}s"
    with open(os.path.join(out, "fits.json")) as fh:
        fits = json.load(fh)
    return out, fits, elapsed


@pytest.fixture(scope="session")
def p3_run(tmp_path_factory):
    return _run_preset(tmp_path_factory, "p3-blowup", 20 * 60)


@pytest.fixture(scope="session")
def p25_run(tmp_path_factory):
    return _run_preset(tmp_path_factory, "p25-blowup", 20 * 60)


@pytest.fixture(scope="session")
def rate1d_run(tmp_path_factory):
    return _run_preset(tmp_path_factory, "p3-rate-1d", 5 * 60)


# --------------------------------------------------------------------------


def test_criterion_01_steady_identity():
    rng = np.random.default_rng(20240817)
    a = rng.uniform(0.0, 2.0, 1000)
    y = rng.uniform(1e-6, 2.0, 1000)
    worst = 0.0
    for p in (2.5, 3.0, 4.0):
        pc = profile_constants(p)
        _, d1, d2 = steady_state(a, y, pc)
        worst = max(worst, float(np.max(np.abs(-d2 - d1**p) / np.abs(d2))))
    ok = worst <= 1e-12
    assert ok, _gate(1, "steady identity", ok, f"worst rel err {worst:.2e} <= 1e-12")


def test_criterion_02_mms_convergence():
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, "-m", "gbulab.cli", "mms", "mms-p3"],
        capture_output=True, text=True)
    elapsed = time.time() - t0
    assert proc.returncode == 0, proc.stderr
    orders = [float(line.rsplit("=", 1)[1])
              for line in proc.stdout.splitlines() if line.startswith("order(")]
    assert len(orders) == 2, proc.stdout
    ok = all(1.7 <= o <= 2.3 for o in orders) and elapsed < 5 * 60
    detail = f"orders {orders[0]:.3f}, {orders[1]:.3f} in [1.7, 2.3]; {elapsed:.0f}s"
    assert ok, _gate(2, "MMS order", ok, detail)


def test_criterion_03_barrier_residual():
    t0 = time.time()
    worst = np.inf
    for p in (2.5, 3.0):
        pc = profile_constants(p)
        _, _, rmin = calibrate_barrier_c0(
            pc, x0=0.1, r=0.05, d=0.02, t0=0.0, T=0.5, eta=0.01,
            lattice=(50, 50, 20))
        worst = min(worst, rmin)
    elapsed = time.time() - t0
    ok = worst >= 0.0 and elapsed < 30
    detail = f"min residual {worst:.3e} >= 0 on 50x50x20, p in {{2.5, 3}}; {elapsed:.1f}s"
    assert ok, _gate(3, "barrier residual", ok, detail)


def test_criterion_04_normal_profile(p3_run):
    _, fits, _ = p3_run
    fit = fits["normal"]
    assert "error" not in fit, fit
    exp, amp = fit["exponent"], fit["amplitude"]
    ok = abs(exp + 0.5) <= 0.05 and abs(amp / PC3.d_p - 1.0) <= 0.15
    detail = (f"u_y(0, y) exponent {exp:+.4f} (target -0.5 +- 0.05), "
              f"amplitude {amp:.4f} (target {PC3.d_p:.4f} +- 15%)")
    assert ok, _gate(4, "normal profile", ok, detail)


def test_criterion_05_tangential_profile(p3_run, p25_run):
    details = []
    ok = True
    for run, pc, tol, tag in ((p3_run, PC3, 0.4, "p=3"),
                              (p25_run, PC25, 0.8, "p=2.5")):
        fit = run[1]["tangential"]
        if "error" in fit:
            ok = False
            details.append(f"{tag}: no fit ({fit['error']})")
        else:
            good = abs(fit["exponent"] + pc.tangential_exp) <= tol
            ok = ok and good
            details.append(f"{tag}: exponent {fit['exponent']:+.3f} "
                           f"(target {-pc.tangential_exp:+.1f} +- {tol})")
    detail = "; ".join(details)
    msg = _gate(5, "tangential profile", ok, detail) + (
        "\nThe x^(-2/(p-2)) boundary tail needs the origin gradient to climb "
        "~50-100x above its initial scale.  p3-blowup's graded grid takes it "
        "to 1e5; p25-blowup still runs on a uniform 257^2 grid, whose largest "
        "representable boundary gradient against the d_p y^(-2/3) layer is "
        "~8x the initial scale (and this ratio is invariant under the "
        "equation's scaling, so no domain size escapes it).  Stopping inside "
        "the resolved range leaves the boundary row quench-front-dominated "
        "and no steep outer window exists.  p25-blowup stays uniform while "
        "the benchmark's replay input is derived from its uniform-grid "
        "calibration.")
    assert ok, msg


def test_criterion_06_anisotropy(p3_run):
    _, fits, _ = p3_run
    aniso = fits["aniso"]
    level_set = fits["level_set"]
    assert "error" not in aniso, aniso
    assert "error" not in level_set, level_set
    res = aniso["residual_rel"]
    K = level_set["fit"]["exponent"]
    ok_res = res <= 0.35
    ok_K = abs(K - 4.0) <= 1.0
    ok = ok_res and ok_K
    detail = (f"fit_aniso residual_rel {res:.3f} (gate <= 0.35); "
              f"level-set exponent {K:+.2f} (target 4 +- 1)")
    msg = _gate(6, "anisotropy", ok, detail) + (
        "\nThe quartic sag belongs to the deep singular regime: at a "
        "uniform-grid stop the level-set sag is still the quadratic imprint "
        "of the initial cap (exponent 2).  It also needs the level set far "
        "above the saturation scale (fits.level_frac) and enough columns "
        "across it (the x grading).")
    assert ok, msg


def test_criterion_07_time_rate_1d(rate1d_run):
    _, fits, elapsed = rate1d_run
    tr = fits["time_rate"]
    assert "error" not in tr, tr
    exp = tr["fit"]["exponent"]
    r2 = tr["linear_r_squared"]
    ok = abs(exp + 1.0) <= 0.15 and r2 >= 0.99 and elapsed < 5 * 60
    detail = (f"exponent {exp:+.4f} (target -1 +- 0.15), "
              f"1/grad_max-vs-t linear r^2 {r2:.5f} (gate >= 0.99); "
              f"{elapsed:.0f}s")
    assert ok, _gate(7, "1D time rate", ok, detail)


def _snapshot_grad_series(run_dir):
    """(grad_max, t, field) per persisted snapshot, via series.csv lookup."""
    meta, snaps, series = cli._load_run(run_dir)
    ts = np.asarray(series["t"])
    gm = np.asarray(series["grad_max"])
    out = []
    for t, f in snaps:
        i = int(np.argmin(np.abs(ts - t)))
        out.append((float(gm[i]), t, f))
    return meta, out


def test_criterion_08_envelopes(p3_run):
    run_dir, _, _ = p3_run
    meta, snaps = _snapshot_grad_series(run_dir)
    g_end = snaps[-1][0]
    decade = [s for s in snaps if s[0] >= g_end / 10.0]
    series = {}
    prev = prev_t = None
    geo = dg.Geometry(decade[0][2].grid, PC3)
    for gmax, t, f in decade:
        grad = gradient(f)
        for e in dg.monitor_bounds(f, t, grad, geo, prev, prev_t):
            series.setdefault(e.name, []).append(e.worst_value)
        series.setdefault("bernstein", []).append(
            dg.bernstein_monitor(grad, geo, t).worst_value)
        prev, prev_t = f, t

    growths = {}
    env_ok = True
    for name, vals in series.items():
        if name == "max_principle_sup":
            continue
        # a monitor that is zero up to round-off at both ends (uy_lower,
        # the sup of -u_y, reads +-1e-14 on a mirrored graded mesh) has no
        # growth to measure; the others read 1 and more
        if abs(vals[0]) <= 1e-9 and abs(vals[-1]) <= 1e-9:
            growths[name] = 0.0
        else:
            growths[name] = (vals[-1] - vals[0]) / abs(vals[0])
        env_ok = env_ok and growths[name] < 0.10
    sup_ok = all(np.max(f.values) <= snaps[0][2].values.max() + 1e-8
                 for _, _, f in snaps)
    reach_ok = g_end >= 1e3
    ok = env_ok and sup_ok and reach_ok
    worst = max(growths.values())
    detail = (f"worst envelope growth {worst:+.1%} over final decade "
              f"(gate < 10%), sup drift within 1e-8: {sup_ok}, "
              f"grad_max reached {g_end:.3g} (gate >= 1e3)")
    msg = _gate(8, "envelope monitors", ok, detail) + (
        "\nThe exact solution keeps every one of these envelopes bounded to "
        "the singular time.  A uniform grid of spacing hy represents boundary "
        "gradients only up to ~1.8/sqrt(hy) (17 at 257^2); past that the "
        "first interior cell develops a kink whose u_t / u_xx / Bernstein "
        "values are grid artifacts, so the >= 1e3 clause needs a grid graded "
        "toward the wall.")
    assert ok, msg


def test_criterion_09_j_sign_and_theta(p3_run):
    run_dir, _, _ = p3_run
    with open(os.path.join(run_dir, "report.json")) as fh:
        rep = json.load(fh)
    j_k = rep["j_k"]
    jm = rep["j_max"]
    tail = jm[len(jm) * 3 // 4:]
    worst_j = max(v for _, v in tail)
    theta_hi = rep["theta_range"][1]
    ok = j_k > 0 and worst_j <= 0.0 and theta_hi <= PC3.beta + 0.2
    detail = (f"k = {j_k} with max J = {worst_j:.3e} <= 0 over the final "
              f"quarter; Theta_max {theta_hi:.4f} <= beta + 0.2 = "
              f"{PC3.beta + 0.2:.2f}")
    assert ok, _gate(9, "J-sign / Theta", ok, detail)


def test_criterion_10_determinism_and_symmetry(tmp_path):
    out = str(tmp_path / "fresh")
    assert cli.cmd_run("small-data", out) == 0
    assert cli.cmd_check(out) == 0, "replay produced a different derived file"

    g = Grid2D(Lx=0.25, Ly=0.25, nx=129, ny=129)
    u0 = symmetric_cap(0.3, 0.18, g)
    full_cfg = SolverConfig(p=3.0, t_max=1.0, stop_grad_norm=1e9)
    sf = solver.make_state(u0.copy(), full_cfg)
    for _ in range(200):
        sf = solver.step(sf, full_cfg)
    asym = float(np.max(np.abs(sf.field.values - sf.field.values[:, ::-1])))
    ok = asym <= 1e-12
    detail = (f"replay byte-identical; even-symmetry dev {asym:.2e} <= 1e-12 "
              f"on 129^2")
    assert ok, _gate(10, "determinism & symmetry", ok, detail)


def test_blow_up_presets_land_on_their_stop(p3_run, p25_run, rate1d_run):
    """The 2D blow-up presets end with stop <= grad_max <= 1.001 stop, their
    last step landed on the stop; p3-rate-1d, a column, keeps its last step
    and its overshoot to grad_max 10022.9 against its stop of 1e4, past
    the band [1e4, 1.001e4] a landed run would end in."""
    for (out, _, _), landed in ((p3_run, True), (p25_run, True),
                                (rate1d_run, False)):
        with open(os.path.join(out, "meta.json")) as fh:
            meta = json.load(fh)
        stop = meta["solver"]["stop_grad_norm"]
        final = meta["outcome"]["grad_max_final"]
        assert meta["outcome"]["reason"] == solver.BLOW_UP, out
        if landed:
            assert stop <= final <= 1.001 * stop, out
        else:
            assert round(final, 1) == 10022.9, out


def test_p3_blowup_fits_are_converged_in_the_step(p3_run, tmp_path,
                                                  monkeypatch):
    """The shipped step size is converged for the p3-blowup fits: run at
    half of `solver._REL_CHANGE`, twice the steps, its fits agree with the
    shipped run's to 1e-3 on the normal exponent, 5e-3 on the tangential
    exponent and the aniso residual, and 2e-2 on the level-set exponent.
    Both runs land on the stop, so the final profile is taken at the same
    grad_max; the step's first-order time error moves the stop's t."""
    _, fits, _ = p3_run
    monkeypatch.setattr(solver, "_REL_CHANGE", 0.5 * solver._REL_CHANGE)
    assert cli.cmd_run("p3-blowup", str(tmp_path)) == 0
    half = json.loads((tmp_path / "fits.json").read_text())
    gaps = {
        "normal": (fits["normal"]["exponent"], half["normal"]["exponent"],
                   1e-3),
        "tangential": (fits["tangential"]["exponent"],
                       half["tangential"]["exponent"], 5e-3),
        "aniso": (fits["aniso"]["residual_rel"],
                  half["aniso"]["residual_rel"], 5e-3),
        "level set": (fits["level_set"]["fit"]["exponent"],
                      half["level_set"]["fit"]["exponent"], 2e-2),
    }
    far = {name: (a, b) for name, (a, b, tol) in gaps.items()
           if not abs(a - b) <= tol}
    assert not far, far


def test_p3_blowup_blows_up_below_its_amplitude():
    """p3-blowup's amplitude sits off the blow-up threshold of its grid and
    step, not calibrated just above it: a run at amplitude / 1.05 reaches
    the stop too, at the shipped step."""
    rc = cli.load_config(os.path.join(cli._PRESET_DIR, "p3-blowup.yaml"))
    rc.initial_data["amplitude"] /= 1.05
    out = solver.run(rc.make_initial(rc.make_grid()), rc.make_solver_config())
    assert out.reason == solver.BLOW_UP, (out.reason, out.final.grad_max)
