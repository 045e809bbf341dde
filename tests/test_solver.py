"""Integrator tests: exactness oracles (zero data, shifted steady states),
manufactured-solution convergence, qualitative invariants (nonnegativity,
sup-norm bound), run persistence and resume, the run's workspace and the 1D
reduction on a column."""

import hashlib
import json
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from gbulab import (ConfigurationError, DtUnderflow, Grid2D, ScalarField,
                    SolverConfig, manufactured_callbacks, manufactured_params,
                    manufactured_solution, profile_constants, solver,
                    steady_state, symmetric_cap)
from gbulab import _kernels
from gbulab.grid import read_snapshot
from gbulab.solver import BLOW_UP, HORIZON, UNDERFLOW


def advance(state, cfg, n):
    for _ in range(n):
        state = solver.step(state, cfg)
    return state


# --------------------------------------------------------------------------
# Exactness oracles
# --------------------------------------------------------------------------


def test_zero_data_is_a_fixed_point():
    g = Grid2D(Lx=0.5, Ly=0.5, nx=33, ny=33)
    cfg = SolverConfig(p=3.0, t_max=1.0)
    st = solver.make_state(ScalarField(g, np.zeros((33, 33))))
    st = advance(st, cfg, 20)
    assert np.all(st.field.values == 0.0)
    assert st.grad_max == 0.0


def column_run(u0, Ly, cfg):
    """Run the 1D reduction from the values u0 on uniform nodes of [0, Ly];
    return the outcome and the final values."""
    g = Grid2D.column(0.25, Ly, np.linspace(0.0, Ly, u0.size))
    out = solver.run(ScalarField(g, u0[:, None]), cfg)
    return out, out.final.field.values[:, 0]


def test_steady_state_residual_1d():
    """V_a is a steady state: the 1D scheme must hold it to stencil accuracy."""
    pc = profile_constants(3.0)
    n, Ly, a = 257, 0.5, 0.05
    y = np.linspace(0.0, Ly, n)
    v, _, _ = steady_state(a, y, pc)
    cfg = SolverConfig(p=3.0, t_max=2e-4, stop_grad_norm=1e9)
    out, final = column_run(v, Ly, cfg)
    assert out.reason == HORIZON
    drift = np.max(np.abs(final - v))
    # truncation residual ~ hy^2 * |V''''| near y = 0 integrates to O(1e-4)
    assert drift < 5e-4


def test_dt_formula():
    g = Grid2D(Lx=0.5, Ly=0.5, nx=33, ny=33)
    cfg = SolverConfig(p=3.0, t_max=1.0, stop_grad_norm=1e9)
    st = solver.make_state(symmetric_cap(0.2, 0.3, g))
    h = min(g.hx, g.hy)
    expected = solver._CFL_SAFETY * h * h / 4.0 \
        / (1.0 + cfg.p * st.grad_max ** (cfg.p - 1.0) * h / 4.0)
    st2 = solver.step(st, cfg)
    assert st2.dt_last == pytest.approx(expected, rel=1e-14)


# --------------------------------------------------------------------------
# Manufactured-solution accuracy
# --------------------------------------------------------------------------


def mms_start(n, t_end):
    """The manufactured solution at t = 0 on an n x n grid, and the forced
    config that runs it to t_end."""
    pc = profile_constants(3.0)
    mp = manufactured_params(pc, 3.0, 1.0)
    g = Grid2D(Lx=0.5, Ly=0.5, nx=n, ny=n)
    X, Y = g.meshgrid()
    u0 = manufactured_solution(mp, pc, X, Y, 0.0)[0]
    forcing, boundary = manufactured_callbacks(mp, pc, g.x, g.y)
    cfg = SolverConfig(p=3.0, t_max=t_end, stop_grad_norm=1e9,
                       forcing=forcing, boundary=boundary)
    return ScalarField(g, u0), cfg, (mp, pc)


def mms_error(n, t_end=0.02):
    u0, cfg, (mp, pc) = mms_start(n, t_end)
    out = solver.run(u0, cfg)
    assert out.reason == HORIZON
    X, Y = u0.grid.meshgrid()
    exact = manufactured_solution(mp, pc, X, Y, out.t_stop)[0]
    return float(np.max(np.abs(out.final.field.values - exact)))


def test_mms_second_order():
    e33, e65 = mms_error(33), mms_error(65)
    order = np.log2(e33 / e65)
    assert 1.7 < order < 2.3


def edges(v):
    """The wall values of v: bottom, top, left and right edges."""
    return np.concatenate([v[0], v[-1], v[:, 0], v[:, -1]])


@pytest.mark.parametrize("grid", ["uniform", "graded"])
def test_a_step_holds_the_walls(grid):
    """Without a boundary callback both steps keep the walls of the state
    they step from bit for bit, nonzero walls included."""
    g = (Grid2D(Lx=0.25, Ly=0.1, nx=33, ny=33) if grid == "uniform"
         else graded_grid())
    X, Y = g.meshgrid()
    u0 = ScalarField(g, 1.0 + X + Y + symmetric_cap(0.2, 0.18, g).values)
    st = solver.step(solver.make_state(u0), SolverConfig(p=3.0))
    assert not np.array_equal(st.field.values, u0.values)
    assert np.array_equal(edges(st.field.values), edges(u0.values))


def test_a_forced_run_takes_its_walls_from_boundary():
    """A forced run's walls are boundary(t) at its final time, the side
    columns taking the corners."""
    u0, cfg, _ = mms_start(33, 0.001)
    out = solver.run(u0, cfg)
    want = np.empty_like(u0.values)
    want[0], want[-1], want[:, 0], want[:, -1] = cfg.boundary(out.t_stop)
    assert out.final.step > 1
    assert np.array_equal(edges(out.final.field.values), edges(want))


# --------------------------------------------------------------------------
# Qualitative invariants
# --------------------------------------------------------------------------


def test_decaying_cap_invariants():
    g = Grid2D(Lx=0.25, Ly=0.1, nx=65, ny=65)
    u0 = symmetric_cap(0.05, 0.15, g)
    sup0 = u0.values.max()
    cfg = SolverConfig(p=3.0, t_max=1e-3, stop_grad_norm=1e9)
    st = solver.make_state(u0)
    for _ in range(200):
        st = solver.step(st, cfg)
        assert np.all(st.field.values >= -1e-14)
        assert st.field.values.max() <= sup0 + 1e-8


def test_blow_up_detected():
    g = Grid2D(Lx=0.25, Ly=0.06, nx=129, ny=129)
    u0 = symmetric_cap(0.4, 0.18, g)
    cfg = SolverConfig(p=3.0, t_max=0.05, stop_grad_norm=300.0)
    out = solver.run(u0, cfg)
    assert out.reason == BLOW_UP
    assert out.final.grad_max >= 300.0
    assert out.series["grad_max"][0] < 300.0


def test_dt_underflow():
    g = Grid2D(Lx=0.25, Ly=0.1, nx=33, ny=33)
    u0 = symmetric_cap(0.05, 0.15, g)
    cfg = SolverConfig(p=3.0, t_max=1.0, dt_floor=1.0, stop_grad_norm=1e9)
    with pytest.raises(DtUnderflow):
        solver.step(solver.make_state(u0), cfg)
    out = solver.run(u0, cfg)
    assert out.reason == UNDERFLOW


# --------------------------------------------------------------------------
# Persistence and resume
# --------------------------------------------------------------------------


def run_dirs_equal(d1, d2):
    return (d1 / "series.csv").read_bytes() == (d2 / "series.csv").read_bytes()


def snapshot_steps(run_dir):
    meta = json.loads((run_dir / "meta.json").read_text())
    return [e["step"] for e in meta["outcome"]["snapshots"]]


def cut_step(run_dir):
    return len(solver.load_series(run_dir / "series.csv")["t"]) - 1


def test_run_persistence(tmp_path):
    g = Grid2D(Lx=0.25, Ly=0.06, nx=65, ny=65)
    u0 = symmetric_cap(0.4, 0.18, g)
    cfg = SolverConfig(p=3.0, t_max=0.05, stop_grad_norm=200.0)
    out = solver.run(u0, cfg, run_dir=str(tmp_path / "r"))
    assert (tmp_path / "r" / "series.csv").exists()
    assert (tmp_path / "r" / "meta.json").exists()
    assert len(out.snapshots) >= 2
    for ref in out.snapshots:
        f, t = read_snapshot(ref.path, ref.sha256)
        assert f.grid == g and t == ref.t
    series = solver.load_series(tmp_path / "r" / "series.csv")
    assert len(series["t"]) == out.final.step + 1
    assert series["grad_max"][-1] == pytest.approx(out.final.grad_max)


def test_resume_is_deterministic(tmp_path):
    g = Grid2D(Lx=0.25, Ly=0.06, nx=65, ny=65)
    u0 = symmetric_cap(0.4, 0.18, g)

    # one shot
    cfg_full = SolverConfig(p=3.0, t_max=0.05, stop_grad_norm=200.0)
    out_a = solver.run(u0.copy(), cfg_full, run_dir=str(tmp_path / "a"))

    # interrupted (horizon short of blow-up), then resumed
    t_mid = out_a.series["t"][len(out_a.series["t"]) // 2]
    cfg_short = SolverConfig(p=3.0, t_max=float(t_mid), stop_grad_norm=200.0)
    solver.run(u0.copy(), cfg_short, run_dir=str(tmp_path / "b"))
    cut = cut_step(tmp_path / "b")
    out_b = solver.resume(str(tmp_path / "b"), cfg_full)

    assert out_b.reason == out_a.reason == BLOW_UP
    assert np.array_equal(out_b.final.field.values, out_a.final.field.values)
    assert out_b.final.t == out_a.final.t
    assert out_b.final.step == out_a.final.step
    # the resumed run continues the snapshot cascade where the cut left it
    assert snapshot_steps(tmp_path / "b") == \
        sorted(set(snapshot_steps(tmp_path / "a")) | {cut})


def test_concurrent_runs_share_nothing():
    """Three runs each on a uniform grid, a graded grid and a graded column,
    each run in its own thread, end bit for bit where they end when run
    alone: a run owns its workspace."""
    uniform = Grid2D(Lx=0.25, Ly=0.06, nx=129, ny=129)
    graded = SolverConfig(p=3.0, t_max=0.05, stop_grad_norm=100.0)
    cases = [(uniform, SolverConfig(p=3.0, t_max=2e-6, stop_grad_norm=1e9)),
             (graded_grid(), graded), (graded_column(), graded)]
    jobs = [(symmetric_cap(a, 0.18, g), cfg) for g, cfg in cases
            for a in (0.3, 0.35, 0.4)]
    alone = [solver.run(u0, cfg).final.field.values for u0, cfg in jobs]
    together = [None] * len(jobs)

    def work(i):
        together[i] = solver.run(*jobs[i]).final.field.values

    threads = [threading.Thread(target=work, args=(i,))
               for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for a, b in zip(alone, together):
        assert np.array_equal(a, b)


# --------------------------------------------------------------------------
# 1D reduction on a column
# --------------------------------------------------------------------------


def test_run_1d_sine_decays():
    n, Ly = 129, 1.0
    y = np.linspace(0.0, Ly, n)
    u0 = 0.05 * np.sin(np.pi * y)
    cfg = SolverConfig(p=3.0, t_max=0.05, stop_grad_norm=1e9)
    out, final = column_run(u0, Ly, cfg)
    assert out.reason == HORIZON
    assert final.max() < 0.05 * np.exp(-np.pi**2 * 0.05) * 1.5


def test_run_1d_blow_up():
    n, Ly = 257, 1.0
    y = np.linspace(0.0, Ly, n)
    u0 = 1.5 * np.sin(np.pi * y / 2.0)  # monotone, above the 1D threshold
    cfg = SolverConfig(p=3.0, t_max=2.0, stop_grad_norm=500.0)
    out, _ = column_run(u0, Ly, cfg)
    assert out.reason == BLOW_UP
    # gradient maximum sits at the boundary y = 0
    assert out.series["uy_origin"][-1] == pytest.approx(
        out.series["grad_max"][-1], rel=0.05)


# --------------------------------------------------------------------------
# Graded grids: linearly implicit step
# --------------------------------------------------------------------------


def graded_grid():
    return Grid2D.graded(0.25, 0.06, y_first=1e-5, y_ratio=1.3, y_max=0.004,
                         x_first=2e-3, x_ratio=1.2, x_max=0.02)


def graded_column():
    """The y axis of graded_grid() as a 1D column."""
    return Grid2D.column(0.25, 0.06, graded_grid().y)


def test_graded_zero_data_is_a_fixed_point():
    g = graded_grid()
    st = solver.make_state(ScalarField(g, np.zeros((g.ny, g.nx))))
    st = advance(st, SolverConfig(p=3.0, t_max=1.0), 5)
    assert np.all(st.field.values == 0.0)
    assert st.grad_max == 0.0


def test_graded_blow_up_keeps_symmetry():
    g = graded_grid()
    cfg = SolverConfig(p=3.0, t_max=0.05, stop_grad_norm=300.0)
    out = solver.run(symmetric_cap(0.4, 0.18, g), cfg)
    assert out.reason == BLOW_UP
    v = out.final.field.values
    # the line solves sweep one way, so the mirror images agree to round-off
    assert np.max(np.abs(v - v[:, ::-1])) <= 1e-12 * np.max(v)
    assert np.max(np.abs(v - v[::-1, :])) <= 1e-12 * np.max(v)
    assert v.min() >= 0.0
    assert out.series["uy_origin"][-1] == pytest.approx(
        out.series["grad_max"][-1], rel=1e-6)


def test_graded_steps_track_grad_max_change():
    """dt keeps the per-step change of grad_max near the target."""
    g = graded_grid()
    cfg = SolverConfig(p=3.0, t_max=0.05, stop_grad_norm=300.0)
    out = solver.run(symmetric_cap(0.4, 0.18, g), cfg)
    gm = out.series["grad_max"]
    rel = np.abs(np.diff(gm)) / gm[:-1]
    assert np.max(rel) <= 2.0 * solver._REL_CHANGE
    assert np.median(rel[len(rel) // 2:]) >= 0.5 * solver._REL_CHANGE


def test_graded_resume_is_deterministic(tmp_path):
    for g in (graded_grid(), graded_column()):
        root = tmp_path / f"nx{g.nx}"
        u0 = symmetric_cap(0.4, 0.18, g)
        cfg_full = SolverConfig(p=3.0, t_max=0.05, stop_grad_norm=300.0)
        out_a = solver.run(u0.copy(), cfg_full, run_dir=str(root / "a"))
        t_mid = out_a.series["t"][len(out_a.series["t"]) // 2]
        cfg_short = SolverConfig(p=3.0, t_max=float(t_mid),
                                 stop_grad_norm=300.0)
        solver.run(u0.copy(), cfg_short, run_dir=str(root / "b"))
        cut = cut_step(root / "b")
        out_b = solver.resume(str(root / "b"), cfg_full)
        assert out_b.final.field.grid == g
        assert np.array_equal(out_b.final.field.values,
                              out_a.final.field.values)
        assert out_b.final.step == out_a.final.step
        assert run_dirs_equal(root / "a", root / "b")
        assert snapshot_steps(root / "b") == \
            sorted(set(snapshot_steps(root / "a")) | {cut})
        # the resumed run keeps the hashes of the snapshots it started from
        meta = json.loads((root / "b" / "meta.json").read_text())
        for e in meta["outcome"]["snapshots"]:
            blob = (root / "b" / e["path"]).read_bytes()
            assert e["sha256"] == hashlib.sha256(blob).hexdigest()


def fsal_runs():
    """(initial field, config, a later stop) of the runs whose steps hand
    their gradient over: a graded run and a column run, and on the full
    domain of a uniform grid an unforced cap and a forced 33² run from
    manufactured_callbacks, whose boundary moves every step."""
    graded = SolverConfig(p=3.0, t_max=0.05, stop_grad_norm=100.0)
    heun = SolverConfig(p=3.0, t_max=5e-4, stop_grad_norm=1e9)
    mms_u0, mms, _ = mms_start(33, 1e-3)
    uniform = Grid2D(Lx=0.25, Ly=0.25, nx=33, ny=33)
    return [(symmetric_cap(0.4, 0.18, g), graded,
             replace(graded, stop_grad_norm=300.0))
            for g in (graded_grid(), graded_column())] + [
        (symmetric_cap(0.1, 0.18, uniform), heun, replace(heun, t_max=1e-3)),
        (mms_u0, mms, replace(mms, t_max=2e-3))]


def test_handed_gradient_is_the_states_gradient(tmp_path, monkeypatch):
    """Every state that a run steps from, a resumed run's included, holds
    the gradient of its values bit for bit, which the next right-hand side
    takes in place of its own."""
    checked = []
    step = solver.step

    def checking_step(state, cfg):
        u, g, ws = state.field.values, state.field.grid, state.work
        assert ws.of is u
        if g.is_column:
            uy = _kernels.derivative(u, g.ay)
            assert np.array_equal(ws.grad[0], uy)
        else:
            ux, uy = _kernels.gradient(u, g)
            for a, b in zip(ws.grad, (ux, uy, ux * ux + uy * uy)):
                assert np.array_equal(a, b)
        # the state's u_y at the origin is that gradient's, bit for bit
        assert state.uy_origin == uy[0, g.ix0]
        checked.append(state.step)
        return step(state, cfg)

    monkeypatch.setattr(solver, "step", checking_step)
    for i, (u0, cfg, later) in enumerate(fsal_runs()):
        run_dir = str(tmp_path / f"run{i}")
        out = solver.run(u0, cfg, run_dir=run_dir)
        assert checked == list(range(out.final.step))
        checked.clear()
        solver.resume(run_dir, later)
        assert checked[0] == out.final.step and len(checked) > 1
        checked.clear()


def test_handed_gradient_changes_no_bit():
    """A step from the handed gradient matches, bit for bit, a step whose
    right-hand side forms its own (a state without the run's workspace)."""
    for u0, cfg, _ in fsal_runs():
        a = b = solver.make_state(u0)
        for _ in range(20):
            a = solver.step(a, cfg)
            b = solver.step(replace(b, work=None), cfg)
            assert np.array_equal(a.field.values, b.field.values)
            assert (a.dt_last, a.grad_max) == (b.dt_last, b.grad_max)


@pytest.mark.parametrize("grid", ["uniform", "graded"])
def test_a_step_allocates_little_beyond_its_new_state(grid):
    """After a warm-up step, a full-domain step's traced allocation peak
    stays within 1.5 u.nbytes: the new state's values, plus numpy's own
    ufunc buffers (up to three of `np.getbufsize()` values, 192 KiB, for an
    operation on strided views), but no interior-size temporary, of about
    u.nbytes each.  Before the kernels took the workspace's scratch, the
    peak was 5.2 u.nbytes here for the Heun step and 4.2 for the graded
    one.  The grids hold over 65k nodes, so numpy's buffers stay under
    0.4 u.nbytes; on 129² they alone are 1.48 u.nbytes."""
    if grid == "uniform":
        g = Grid2D(Lx=0.25, Ly=0.06, nx=257, ny=257)
        cfg = SolverConfig(p=3.0, t_max=1.0, stop_grad_norm=1e9)
    else:
        g = Grid2D.graded(0.25, 0.06, y_first=1e-5, y_ratio=1.2, y_max=3e-4,
                          x_first=1e-3, x_ratio=1.1, x_max=1.5e-3)
        cfg = SolverConfig(p=3.0, t_max=0.05)
    assert g.nx * g.ny > 65_000
    st = solver.step(solver.make_state(symmetric_cap(0.4, 0.18, g)), cfg)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        st = solver.step(st, cfg)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * st.field.values.nbytes


def test_outcome_holds_no_buffers():
    """The run's workspace goes when its loop ends, before the caller fits
    anything: the final state of a Heun run, a graded run and a column run
    holds none."""
    g = Grid2D(Lx=0.25, Ly=0.06, nx=33, ny=33)
    heun = SolverConfig(p=3.0, t_max=1e-5)
    graded = SolverConfig(p=3.0, t_max=1e-3)
    for grid, cfg in ((g, heun), (graded_grid(), graded),
                      (graded_column(), graded)):
        out = solver.run(symmetric_cap(0.4, 0.18, grid), cfg)
        assert out.final.step > 0 and out.final.work is None


def thomas_oracle(a, b, c, d):
    """The line solve as first written, row by row over separate arrays:
    solves a[k] v[k-1] + b[k] v[k] + c[k] v[k+1] = d[k] along axis 0."""
    w = np.empty_like(b[0])
    for k in range(1, b.shape[0]):
        np.divide(a[k], b[k - 1], out=w)
        b[k] -= w * c[k - 1]
        d[k] -= w * d[k - 1]
    d[-1] /= b[-1]
    for k in range(b.shape[0] - 2, -1, -1):
        d[k] -= c[k] * d[k + 1]
        d[k] /= b[k]
    return d


@pytest.mark.parametrize("shape", [(229, 1), (245, 159), (159, 245)])
def test_sweep_matches_the_row_by_row_oracle(shape):
    """The stacked sweep, and the float sweep of a single line, give the
    oracle's bits on random diagonally dominant systems."""
    rng = np.random.default_rng(shape[1])
    a, c = rng.uniform(-1.0, 0.0, (2,) + shape)
    b = 2.0 + rng.uniform(0.0, 1.0, shape)
    d = rng.normal(size=shape)
    Z = np.stack([b, d, c], axis=1)
    got = solver._thomas(a, Z, solver._thomas_rows(a, Z))
    assert np.array_equal(got, thomas_oracle(a, b.copy(), c, d.copy()))


def test_graded_rejects_forcing_and_boundary():
    st = solver.make_state(symmetric_cap(0.1, 0.18, graded_grid()))
    for cfg in (SolverConfig(p=3.0, forcing=lambda t: 0.0),
                SolverConfig(p=3.0, boundary=lambda t: (0.0,) * 4)):
        with pytest.raises(ConfigurationError):
            solver.step(st, cfg)
