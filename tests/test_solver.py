"""Integrator tests: exactness oracles (zero data, shifted steady states),
manufactured-solution convergence, qualitative invariants (nonnegativity,
sup-norm bound), run persistence and resume, the run's workspace and the 1D
reduction on a column."""

import hashlib
import importlib.util
import json
import math
import os
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import yaml

from gbulab import (ConfigurationError, DtUnderflow, Grid2D, ScalarField,
                    SolverConfig, manufactured_callbacks, manufactured_params,
                    manufactured_solution, profile_constants, solver,
                    steady_state, symmetric_cap)
from gbulab import _kernels, cli
from gbulab.grid import read_snapshot
from gbulab.solver import BLOW_UP, HORIZON, UNDERFLOW

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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


# --------------------------------------------------------------------------
# Manufactured-solution accuracy
# --------------------------------------------------------------------------


def mms_grid(n, stretch=0.0):
    """An n x n grid of [-0.5, 0.5] x [0, 0.5]: uniform, or with stretch
    s > 0 the nodes L sinh(s xi) / sinh s of evenly spaced xi, clustered at
    x = 0 and at y = 0."""
    if not stretch:
        return Grid2D(Lx=0.5, Ly=0.5, nx=n, ny=n)

    def nodes(xi):
        return 0.5 * (np.sinh(stretch * xi) / np.sinh(stretch))
    x = nodes(np.linspace(-1.0, 1.0, n))
    x[n // 2] = 0.0
    return Grid2D(Lx=0.5, Ly=0.5, nx=n, ny=n,
                  coords=(x, nodes(np.linspace(0.0, 1.0, n))))


def mms_start(n, t_end, n_steps=None, stretch=0.0):
    """The manufactured solution at t = 0 on mms_grid(n, stretch), and the
    forced config that runs it to t_end in n_steps equal steps (by default
    the fewest with dt <= min(h)^2, as `gbulab mms` takes on its coarsest
    grid)."""
    pc = profile_constants(3.0)
    mp = manufactured_params(pc, 3.0, 1.0)
    g = mms_grid(n, stretch)
    X, Y = g.meshgrid()
    u0 = manufactured_solution(mp, pc, X, Y, 0.0)[0]
    if n_steps is None:
        n_steps = math.ceil(t_end / min(g.hx, g.hy) ** 2)
    cfg = SolverConfig(p=3.0, t_max=t_end, stop_grad_norm=1e9,
                       forced=manufactured_callbacks(mp, pc, g.x, g.y),
                       n_steps=n_steps)
    return ScalarField(g, u0), cfg, (mp, pc)


def mms_orders(ladder, t_end, n0, stretch=0.0):
    """The orders log2(e_k / e_(k+1)) of the max errors at t_end on the
    ladder's grids, the k-th taking n0 4^k steps, as `gbulab mms` does."""
    errors = []
    for k, n in enumerate(ladder):
        u0, cfg, (mp, pc) = mms_start(n, t_end, n0 * 4 ** k, stretch)
        out = solver.run(u0, cfg)
        assert out.reason == HORIZON and out.final.t == t_end
        X, Y = u0.grid.meshgrid()
        exact = manufactured_solution(mp, pc, X, Y, t_end)[0]
        errors.append(float(np.max(np.abs(out.final.field.values - exact))))
    return np.log2(np.array(errors[:-1]) / errors[1:])


def test_mms_second_order():
    (order,) = mms_orders((33, 65), 0.02, 82)
    assert 1.7 < order < 2.3


def test_mms_order_on_graded_grids():
    """The forced run keeps second order on sinh-mapped grids clustered at
    x = 0 and y = 0: the non-uniform stencils and line solves that carry
    the blow-up runs on graded grids.  40 steps on 33² (dt about 3.4
    min(h)^2, where the min(h)^2 rule would take 135) keep it near 2 s;
    the orders are 1.941 and 1.997."""
    orders = mms_orders((33, 65, 129), 0.01, 40, stretch=2.0)
    assert np.all((1.7 <= orders) & (orders <= 2.3)), orders


def edges(v):
    """The wall values of v: bottom, top, left and right edges."""
    return np.concatenate([v[0], v[-1], v[:, 0], v[:, -1]])


@pytest.mark.parametrize("grid", ["uniform", "graded"])
def test_a_step_holds_the_walls(grid):
    """Without a forced-run callback a step keeps the walls of the state it
    steps from bit for bit, nonzero walls included."""
    g = (Grid2D(Lx=0.25, Ly=0.1, nx=33, ny=33) if grid == "uniform"
         else graded_grid())
    X, Y = g.meshgrid()
    u0 = ScalarField(g, 1.0 + X + Y + symmetric_cap(0.2, 0.18, g).values)
    st = solver.step(solver.make_state(u0), SolverConfig(p=3.0))
    assert not np.array_equal(st.field.values, u0.values)
    assert np.array_equal(edges(st.field.values), edges(u0.values))


def test_a_forced_run_takes_its_walls_from_boundary():
    """A forced run's walls are the edges of forced(t) at its final time,
    the side columns taking the corners."""
    u0, cfg, _ = mms_start(33, 0.001)
    out = solver.run(u0, cfg)
    want = np.empty_like(u0.values)
    want[0], want[-1], want[:, 0], want[:, -1] = cfg.forced(out.final.t)[1]
    assert out.final.step > 1
    assert np.array_equal(edges(out.final.field.values), edges(want))


def test_a_forced_run_evaluates_each_callback_once_per_time_level():
    """A forced run of n_steps = N takes N equal steps and ends on t_max
    bit for bit; each step evaluates its callback once, at its new time, so
    the calls come at t_1 ... t_N."""
    u0, cfg, _ = mms_start(33, 1e-3, n_steps=7)
    times = []

    def recorded(t):
        times.append(t)
        return cfg.forced(t)

    out = solver.run(u0, replace(cfg, forced=recorded))
    t = out.series["t"]
    assert out.reason == HORIZON and out.final.step == 7
    assert out.final.t == t[-1] == cfg.t_max
    assert np.allclose(np.diff(t), cfg.t_max / 7, rtol=1e-12, atol=0.0)
    assert times == t[1:].tolist()


def test_the_step_count_belongs_to_a_forced_run():
    """SolverConfig rejects a forced run without a step count or with one
    below 1, and a count on an unforced run."""
    forced = lambda t: (0.0, (0.0,) * 4)  # noqa: E731
    for bad in ({"forced": forced}, {"forced": forced, "n_steps": 0},
                {"forced": forced, "n_steps": -2},
                {"forced": forced, "n_steps": 2.5}, {"n_steps": 10}):
        with pytest.raises(ConfigurationError, match="n_steps"):
            SolverConfig(p=3.0, **bad)
    SolverConfig(p=3.0, forced=forced, n_steps=1)


def test_a_column_rejects_forcing_and_boundary():
    """A forced column is rejected: its side walls are the whole column."""
    st = solver.make_state(symmetric_cap(0.1, 0.18, graded_column()))
    cfg = SolverConfig(p=3.0, forced=lambda t: (0.0, (0.0,) * 4), n_steps=4)
    with pytest.raises(ConfigurationError, match="column"):
        solver.step(st, cfg)


@pytest.mark.parametrize("grid", ["uniform", "graded", "column"])
def test_an_unforced_run_ends_on_its_horizon(grid):
    """An unforced run whose step would cross t_max takes that step again,
    shortened, and ends on t_max bit for bit; a step from t_max on is not
    held there."""
    g = {"uniform": Grid2D(Lx=0.25, Ly=0.1, nx=33, ny=33),
         "graded": graded_grid(), "column": graded_column()}[grid]
    cfg = SolverConfig(p=3.0, t_max=1e-3, stop_grad_norm=1e9)
    out = solver.run(symmetric_cap(0.05, 0.15, g), cfg)
    t = out.series["t"]
    assert out.reason == HORIZON and len(t) > 3
    assert out.final.t == t[-1] == cfg.t_max and t[-2] < cfg.t_max
    assert out.series["dt"][-1] == cfg.t_max - t[-2]
    assert solver.step(out.final, cfg).t > cfg.t_max


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
    """(initial field, config, a later stop) of runs whose states hold
    their gradient: a graded run and a column run, whose steps take it, and
    on a uniform grid an unforced cap, whose steps take it, the caps
    stepping their quarter, and a forced 33² run from
    manufactured_callbacks, whose walls move every step, so each step forms
    the gradient of its new values first."""
    graded = SolverConfig(p=3.0, t_max=0.05, stop_grad_norm=100.0)
    cap = SolverConfig(p=3.0, t_max=5e-4, stop_grad_norm=1e9)
    mms_u0, mms, _ = mms_start(33, 1e-3)
    uniform = Grid2D(Lx=0.25, Ly=0.25, nx=33, ny=33)
    return [(symmetric_cap(0.4, 0.18, g), graded,
             replace(graded, stop_grad_norm=300.0))
            for g in (graded_grid(), graded_column())] + [
        (symmetric_cap(0.1, 0.18, uniform), cap, replace(cap, t_max=1e-3)),
        (mms_u0, mms, replace(mms, t_max=2e-3, n_steps=2 * mms.n_steps))]


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
        else:  # on the window's nodes but its ghosts
            ux, uy = _kernels.gradient(u, g)
            for a, b in zip(ws.grad, (ux, uy, ux * ux + uy * uy)):
                assert np.array_equal(a[ws.own], b[ws.win][ws.own])
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
    """A step from the handed gradient matches, bit for bit, a step from a
    state without the run's workspace, which forms the gradient first."""
    for u0, cfg, _ in fsal_runs():
        a = b = solver.make_state(u0, cfg)
        for _ in range(20):
            a = solver.step(a, cfg)
            b = solver.step(replace(b, work=None), cfg)
            assert np.array_equal(a.field.values, b.field.values)
            assert (a.dt_last, a.grad_max) == (b.dt_last, b.grad_max)


def test_every_right_hand_side_takes_the_gradient_of_its_values(
        monkeypatch):
    """The gradient that a step's right-hand side takes is that of the
    values it is given, bit for bit: the handed one in an unforced run, and
    in a forced run that of the new values, whose walls moved."""
    checked = []

    def checking(kernel, gradient):
        def rhs(u, axes, p, out, *rest):
            for a, b in zip(rest[-1], gradient(u, axes)):
                assert np.array_equal(a, b)
            checked.append(u.shape)
            return kernel(u, axes, p, out, *rest)
        return rhs

    def interior(u, g):
        fx, fy = _kernels.gradient(u, g)
        return tuple(v[1:-1, 1:-1] for v in (fx, fy, fx * fx + fy * fy))

    monkeypatch.setattr(_kernels, "rhs_interior", checking(
        _kernels.rhs_interior, interior))
    # a column's u_y, compared row by row
    monkeypatch.setattr(_kernels, "rhs_interior_1d", checking(
        _kernels.rhs_interior_1d,
        lambda u, ay: _kernels.derivative(u, ay)[1:-1]))
    for u0, cfg, _ in fsal_runs():
        advance(solver.make_state(u0, cfg), cfg, 5)
        assert len(checked) >= 5
        checked.clear()


@pytest.mark.parametrize("grid", ["uniform", "graded", "forced"])
def test_a_step_allocates_little_beyond_its_new_state(grid):
    """After a warm-up step, a step's traced allocation peak stays within
    1.5 u.nbytes: the new state's values, plus numpy's own
    ufunc buffers (up to three of `np.getbufsize()` values, 192 KiB, for an
    operation on strided views), but no interior-size temporary, of about
    u.nbytes each.  It holds for the step on the x half of a uniform and
    of a graded grid, its mirror fill included, and for the whole-grid step
    of a forced run, whose new values take their
    walls before its right-hand side is formed and whose callback's forcing
    overwrites one array of its own.  The grids hold over 65k nodes, so
    numpy's buffers stay under 0.4 u.nbytes; on 129² they alone are 1.48
    u.nbytes."""
    if grid == "forced":
        u0, cfg, _ = mms_start(257, 1.0)
    else:
        if grid == "uniform":
            g = Grid2D(Lx=0.25, Ly=0.06, nx=257, ny=257)
            cfg = SolverConfig(p=3.0, t_max=1.0, stop_grad_norm=1e9)
        else:
            g = Grid2D.graded(0.25, 0.06, y_first=1e-5, y_ratio=1.2,
                              y_max=3e-4, x_first=1e-3, x_ratio=1.1,
                              x_max=1.5e-3)
            cfg = SolverConfig(p=3.0, t_max=0.05)
        u0 = symmetric_cap(0.4, 0.18, g)
    assert u0.grid.nx * u0.grid.ny > 65_000
    st = solver.step(solver.make_state(u0, cfg), cfg)
    # the graded cap steps its quarter, its y fill included; the uniform
    # one's y nodes are not mirror images about Ly/2 bit for bit
    assert st.work.mirror == {"forced": (False, False),
                              "uniform": (True, False),
                              "graded": (True, True)}[grid]
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
    anything: the final state of a forced run, and of an unforced run
    on a uniform grid, a graded grid and a column, holds none."""
    g = Grid2D(Lx=0.25, Ly=0.06, nx=33, ny=33)
    cfg = SolverConfig(p=3.0, t_max=1e-3)
    forced_u0, forced, _ = mms_start(33, 1e-5)
    runs = [(symmetric_cap(0.4, 0.18, grid), cfg)
            for grid in (g, graded_grid(), graded_column())]
    for u0, cfg in runs + [(forced_u0, forced)]:
        out = solver.run(u0, cfg)
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


def mirrored_line(a, b, c, d, at):
    """The dense matrix and right-hand side of the whole line that a line
    folded at `at` (see `solver._fold`) stands for: its n unknowns and
    their n - 1 mirror images about the first unknown (at = 0) or the last
    (at = -1), each mirror row the image of its own row; and the slice of
    the whole line that is the folded line."""
    n = b.size
    whole = 2 * n - 1
    M, rhs = np.zeros((whole, whole)), np.empty(whole)
    for j in range(whole):
        k = abs(j - (n - 1)) if at == 0 else (n - 1) - abs(j - (n - 1))
        image = j < n - 1 if at == 0 else j > n - 1
        lo, up = (c[k], a[k]) if image else (a[k], c[k])
        M[j, j], rhs[j] = b[k], d[k]
        if j > 0:
            M[j, j - 1] = lo
        if j < whole - 1:
            M[j, j + 1] = up
    return M, rhs, slice(n - 1, None) if at == 0 else slice(0, n)


@pytest.mark.parametrize("shape, at", [
    ((229, 1), None), ((245, 159), None), ((159, 245), None),
    ((61, 1), 0), ((61, 7), 0), ((61, 1), -1), ((61, 7), -1)],
    ids=["shape0", "shape1", "shape2", "folded-start-1", "folded-start",
         "folded-end-1", "folded-end"])
def test_sweep_matches_the_row_by_row_oracle(shape, at):
    """The stacked sweep, and the float sweep of a single line, give the
    oracle's bits on random diagonally dominant systems.  Folded at a
    mirror ghost, they solve the whole mirrored line, as a dense solve of
    it gives it to rounding."""
    rng = np.random.default_rng(shape[1])
    a, c = rng.uniform(-1.0, 0.0, (2,) + shape)
    b = 2.0 + rng.uniform(0.0, 1.0, shape)
    d = rng.normal(size=shape)
    Z = np.stack([b, d, c], axis=1)
    if at is None:
        got = solver._thomas(a, Z, solver._thomas_rows(a, Z))
        assert np.array_equal(got, thomas_oracle(a, b.copy(), c, d.copy()))
        return
    a_folded = a.copy()
    solver._fold(a_folded, Z, at)
    got = solver._thomas(a_folded, Z, solver._thomas_rows(a_folded, Z))
    for m in range(shape[1]):
        M, rhs, own = mirrored_line(a[:, m], b[:, m], c[:, m], d[:, m], at)
        want = np.linalg.solve(M, rhs)
        assert np.allclose(want, want[::-1], rtol=0.0, atol=1e-12)
        assert np.allclose(got[:, m], want[own], rtol=1e-12, atol=1e-13)


# --------------------------------------------------------------------------
# The mirror window
# --------------------------------------------------------------------------


def mirror_grid(grid):
    """A grid whose nodes are mirror images about x = 0 and about Ly/2 bit
    for bit, ny odd: uniform on dyadic spacings, or graded_grid()."""
    g = Grid2D(Lx=0.25, Ly=0.0625, nx=65, ny=65) if grid == "uniform" \
        else graded_grid()
    assert g.mirror_nodes == (True, True) and g.ny % 2
    return g


def one_ulp_off_in_y(u0):
    """u0 with one value on x = 0, near the top wall, one ulp larger: still
    even in x bit for bit, no longer even about Ly/2."""
    v = u0.values.copy()
    j, i = u0.grid.ny - 3, u0.grid.ix0
    assert v[j, i] > 0.0
    v[j, i] = np.nextafter(v[j, i], np.inf)
    return ScalarField(u0.grid, v)


def one_ulp_off(u0):
    """u0 with one value near the top wall and the left side, far from the
    origin, one ulp larger: no longer mirror-symmetric in x or y."""
    v = u0.values.copy()
    j, i = u0.grid.ny - 3, u0.grid.ix0 - 3
    assert v[j, i] > 0.0
    v[j, i] = np.nextafter(v[j, i], np.inf)
    return ScalarField(u0.grid, v)


@pytest.mark.parametrize("grid, data", [
    ("uniform", "x"), ("graded", "x"), ("uniform", "xy"), ("graded", "xy")],
    ids=["uniform", "graded", "uniform-xy", "graded-xy"])
def test_a_mirrored_run_matches_the_whole_grid_run(grid, data):
    """An unforced run of data even in x bit for bit steps x >= 0 alone,
    and of data also even about Ly/2 bit for bit, as the cap is, y <= Ly/2
    alone too; either ends where the whole grid's run of the same data,
    one ulp off at one node, ends, to rounding grown over the run
    (measured: the values to 6.6e-15 of the largest, the series to 8.6e-12
    relative).  The data even in x alone is the cap one ulp off in y."""
    g = mirror_grid(grid)
    u0 = symmetric_cap(0.4, 0.18, g)
    if data == "x":
        u0 = one_ulp_off_in_y(u0)
    cfg = SolverConfig(p=3.0, t_max=0.05, stop_grad_norm=100.0)
    assert solver.make_state(u0, cfg).work.mirror == (True, data == "xy")
    whole = one_ulp_off(u0)
    assert solver.make_state(whole, cfg).work.mirror == (False, False)
    a, b = solver.run(u0, cfg), solver.run(whole, cfg)
    assert a.reason == b.reason == BLOW_UP
    assert a.final.step == b.final.step
    va, vb = a.final.field.values, b.final.field.values
    assert np.array_equal(va, va[:, ::-1])
    if data == "xy":
        assert np.array_equal(va, va[::-1])
    scale = np.max(np.abs(vb))
    assert np.max(np.abs(va - vb)) <= 1e-13 * scale
    for col in ("t", "grad_max", "uy_origin", "dt"):
        assert np.allclose(a.series[col], b.series[col], rtol=1e-10, atol=0.0)


def test_the_ghosts_stay_out_of_grad_max():
    """A mirrored state's grad_max and u_y at the origin are the whole
    grid's, on two data sets whose one-sided differences at a ghost read
    twice the slope, past the largest |grad u|: a tent in x times (1 + y),
    stepped on x >= 0 alone, at its ghost column, and a tent in x and in
    y, stepped on the quarter, at its ghost row (its ghost column reads
    just under the largest)."""
    g = mirror_grid("uniform")
    X, Y = g.meshgrid()
    tent = 1.0 - np.abs(X) / g.Lx
    for u, mirror in ((tent * (1.0 + Y), (True, False)),
                      (tent * (1.0 - np.abs(2.0 * Y / g.Ly - 1.0)),
                       (True, True))):
        st = solver.make_state(ScalarField(g, u), SolverConfig(p=3.0))
        assert st.work.mirror == mirror
        uy = _kernels.gradient(u, g)[1]
        assert st.grad_max == pytest.approx(
            _kernels.grad_norm_max(u, g), rel=1e-14)
        assert st.uy_origin == uy[0, g.ix0]


@pytest.mark.parametrize("data", ["none", "nodes", "y"])
def test_data_that_is_not_mirror_symmetric_steps_the_whole_grid(data):
    """Data that is not even in x bit for bit, on a grid whose nodes are
    mirror images, steps every x and keeps its asymmetry; so does data that
    is even in x bit for bit on x nodes one of which is one ulp off its
    mirror image.  Both are one ulp off even about Ly/2, so they step every
    y; the cap, even about Ly/2 bit for bit, steps y <= Ly/2 alone and
    stays even."""
    g = mirror_grid("graded")
    if data == "nodes":
        x = g.x.copy()
        x[g.ix0 - 3] = np.nextafter(x[g.ix0 - 3], 0.0)
        g = Grid2D(Lx=g.Lx, Ly=g.Ly, nx=g.nx, ny=g.ny, coords=(x, g.y))
    cap = symmetric_cap(0.4, 0.18, g)
    v = (cap if data == "y" else one_ulp_off_in_y(cap)).values
    if data == "nodes":
        v[:, :g.ix0] = v[:, :g.ix0:-1]
    else:
        v = v * (1.0 + g.meshgrid()[0])
    cfg = SolverConfig(p=3.0, t_max=1e-3, stop_grad_norm=1e9)
    st = solver.make_state(ScalarField(g, v), cfg)
    assert st.work.mirror == (False, data == "y")
    rows = (g.ny + 3) // 2 if data == "y" else g.ny
    assert st.work.F.shape == (rows, g.nx)
    v = advance(st, cfg, 10).field.values
    if data != "nodes":
        assert np.max(np.abs(v - v[:, ::-1])) > 0.05 * np.max(v)
    assert np.array_equal(v, v[::-1]) == (data == "y")


def test_a_forced_run_and_a_column_are_never_mirrored():
    """A forced run steps the whole grid, even from data mirror-symmetric
    bit for bit; so do a column and a state made without its run's cfg."""
    g = mirror_grid("uniform")
    u0 = symmetric_cap(0.4, 0.18, g)
    forced = SolverConfig(p=3.0, forced=lambda t: (0.0, (0.0,) * 4),
                          n_steps=4)
    unforced = SolverConfig(p=3.0)
    assert solver.make_state(u0, unforced).work.mirror == (True, True)
    assert solver.make_state(u0, forced).work.mirror == (False, False)
    assert solver.make_state(u0).work.mirror == (False, False)
    st = solver.step(solver.make_state(u0, forced), forced)
    assert st.work.mirror == (False, False)
    col = symmetric_cap(0.1, 0.18, graded_column())
    assert solver.make_state(col, unforced).work.mirror == (False, False)


def perfbench_workloads():
    """perfbench/workloads.py, loaded from its file, as the benchmark's
    inputs are built."""
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # where @dataclass looks it up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_shipped_2d_run_steps_its_x_half(tmp_path):
    """Every shipped 2D preset's cap, and the seed-0 inputs of the
    benchmark's blowup-2d and replay, are even in x and about Ly/2 bit for
    bit on their grids, so their runs step the quarter x >= 0, y <= Ly/2
    alone."""
    paths = []
    for name in sorted(os.listdir(cli._PRESET_DIR)):
        path = os.path.join(cli._PRESET_DIR, name)
        if name.endswith(".yaml"):
            with open(path) as fh:
                family = yaml.safe_load(fh).get("initial_data", {}).get(
                    "family")
            if family == "cap":
                paths.append(path)
    assert len(paths) == 3
    wl = perfbench_workloads()
    for name in ("blowup-2d", "replay"):
        path = tmp_path / f"{name}.yaml"
        path.write_text(wl.generate(ROOT, wl.WORKLOADS[name], 0))
        paths.append(str(path))
    for path in paths:
        rc = cli.load_config(path)
        g = rc.make_grid()
        u0 = rc.make_initial(g)
        assert np.array_equal(u0.values, u0.values[:, ::-1]), path
        assert np.array_equal(u0.values, u0.values[::-1]), path
        work = solver.make_state(u0, rc.make_solver_config()).work
        assert work.mirror == (True, True), path
        assert work.F.shape == ((g.ny + 3) // 2, g.nx - g.ix0 + 1), path


# --------------------------------------------------------------------------
# Landing on the stop
# --------------------------------------------------------------------------


def count_solves(monkeypatch):
    """A list that grows by one for every line-solve pass of a step."""
    calls = []
    solve = solver._solve

    def counting(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(solver, "_solve", counting)
    return calls


@pytest.mark.parametrize("grid", ["uniform", "graded", "whole"])
def test_a_2d_blow_up_run_lands_on_its_stop(grid, monkeypatch):
    """An unforced 2D run that blows up ends with stop <= grad_max <=
    1.001 stop, on its quarter window and on the whole grid: a last step
    past the band, or one that leaves the next step a sliver short of the
    stop, is taken again from the same state, in a solve or two more."""
    g = mirror_grid("graded" if grid == "whole" else grid)
    u0 = symmetric_cap(0.4, 0.18, g)
    if grid == "whole":
        u0 = one_ulp_off(u0)
    cfg = SolverConfig(p=3.0, t_max=0.05, stop_grad_norm=100.0)
    solves = count_solves(monkeypatch)
    out = solver.run(u0, cfg)
    assert out.reason == BLOW_UP
    assert 100.0 <= out.final.grad_max <= 100.1
    assert out.series["grad_max"][-2] < 100.0
    assert out.final.step < len(solves) <= out.final.step + 5


def test_a_run_that_peaks_below_its_stop_is_not_landed(monkeypatch):
    """A run whose grad_max peaks just below its stop and then decays steps
    as it steps with no stop in reach, bit for bit: its step to the peak,
    short of the stop by a sliver, is stretched once, and the stretch,
    which passes the peak and falls short of the stop, is dropped."""
    u0 = symmetric_cap(0.2, 0.18, mirror_grid("uniform"))
    solves = count_solves(monkeypatch)
    free = solver.run(u0, SolverConfig(p=3.0, t_max=0.003,
                                       stop_grad_norm=1e9))
    peak = float(np.max(free.series["grad_max"]))
    assert free.series["grad_max"][-1] < peak
    n_free = len(solves)
    solves.clear()
    for stop in (1.00001 * peak, 1.003 * peak):
        out = solver.run(u0, SolverConfig(p=3.0, t_max=0.003,
                                          stop_grad_norm=stop))
        assert out.reason == HORIZON
        assert len(solves) == n_free + 1
        solves.clear()
        for col in solver.SERIES:
            assert np.array_equal(out.series[col], free.series[col])
        assert np.array_equal(out.final.field.values,
                              free.final.field.values)


def test_a_stretch_past_the_step_size_control_is_dropped(monkeypatch):
    """A step short of the stop by a sliver is not stretched past the
    step-size control.  Near blow-up at p = 6 a step changes grad_max by
    over 1.8 _REL_CHANGE; as grad_max grows ever faster, a stretch of its
    dt by 1.2 to the stop changes grad_max by over 2 _REL_CHANGE, so the
    step is kept as sized, bit for bit, for one solve more."""
    u0 = symmetric_cap(0.2, 0.18, mirror_grid("uniform"))
    free_cfg = SolverConfig(p=6.0, t_max=0.05, stop_grad_norm=1e9)
    st = solver.make_state(u0, free_cfg)
    for _ in range(400):  # 122 steps
        free = solver.step(st, free_cfg)
        g, gmax = st.grad_max, free.grad_max
        if gmax / g - 1.0 > 1.8 * solver._REL_CHANGE:
            break
        st = free
    else:
        pytest.fail("no step changed grad_max by over 1.8 _REL_CHANGE")
    # the stretch aims at the band's middle: 1.2 times the step's change
    stop = (g + 1.2 * (gmax - g)) / (1.0 + 0.5 * solver._LANDING)
    solves = count_solves(monkeypatch)
    again = solver.step(st, free_cfg)
    n_free = len(solves)
    solves.clear()
    landed = solver.step(st, replace(free_cfg, stop_grad_norm=stop))
    assert len(solves) == n_free + 1
    for out in (again, landed):
        assert out.dt_last == free.dt_last and out.grad_max == gmax < stop
        assert np.array_equal(out.field.values, free.field.values)


def test_a_retake_short_of_a_step_past_the_band_is_not_cut(monkeypatch):
    """The retakes that land a step past the band are shorter than a step
    the step-size control passed, and are not cut by it again: with the
    control made ever tighter after the step past the band, the bracket
    still lands on the stop in a few solves.  A retake the control cut
    short would fall short of the stop, and the next one aimed past it
    would be cut again, round a cycle."""
    u0 = symmetric_cap(0.4, 0.18, mirror_grid("uniform"))
    free_cfg = SolverConfig(p=3.0, t_max=0.05, stop_grad_norm=1e9)
    st = solver.make_state(u0, free_cfg)
    for _ in range(20):
        st = solver.step(st, free_cfg)
    free = solver.step(st, free_cfg)
    stop = st.grad_max + 0.5 * (free.grad_max - st.grad_max)
    solves, solve = [], solver._solve

    def tightening(*args):
        solves.append(1)
        assert len(solves) <= 10, "the landing went round a cycle"
        if len(solves) == 2:  # after the step past the band was measured
            monkeypatch.setattr(solver, "_REL_CHANGE", 1e-12)
        return solve(*args)

    monkeypatch.setattr(solver, "_solve", tightening)
    landed = solver.step(st, replace(free_cfg, stop_grad_norm=stop))
    assert stop <= landed.grad_max <= stop * (1.0 + solver._LANDING)
    assert landed.dt_last < free.dt_last


def test_a_column_keeps_its_last_step():
    """A column is never landed: its last step overshoots the stop as
    sized (to 102.5 here), since its fit reads the time rate of its series,
    not its final profile."""
    u0 = symmetric_cap(0.4, 0.18, graded_column())
    cfg = SolverConfig(p=3.0, t_max=0.05, stop_grad_norm=100.0)
    out = solver.run(u0, cfg)
    assert out.reason == BLOW_UP
    assert out.final.grad_max > 100.1


def test_a_landed_run_resumes_bit_for_bit(tmp_path):
    """A run cut on the state its landed last step starts from, then
    resumed, lands that step as the one-shot run did, bit for bit."""
    g = mirror_grid("graded")
    u0 = symmetric_cap(0.4, 0.18, g)
    full = SolverConfig(p=3.0, t_max=0.05, stop_grad_norm=100.0)
    out_a = solver.run(u0, full, run_dir=str(tmp_path / "a"))
    assert 100.0 <= out_a.final.grad_max <= 100.1
    cut = SolverConfig(p=3.0, t_max=float(out_a.series["t"][-2]),
                       stop_grad_norm=100.0)
    solver.run(u0, cut, run_dir=str(tmp_path / "b"))
    assert cut_step(tmp_path / "b") == out_a.final.step - 1
    out_b = solver.resume(str(tmp_path / "b"), full)
    assert out_b.final.step == out_a.final.step
    assert out_b.final.grad_max == out_a.final.grad_max
    assert np.array_equal(out_b.final.field.values, out_a.final.field.values)
    assert run_dirs_equal(tmp_path / "a", tmp_path / "b")


def test_p3_blowup_first_step_is_set_by_the_bottom_half():
    """The cap's rows above Ly/2 are copies of those below, so its top wall
    carries no rounding noise for the first step to resolve: p3-blowup's
    first dt is ~9.5e-5, as its bottom half sets it.  With the top half
    computed, the noise put a right-hand side of 1.1e8 at the row below the
    top wall and cut the first dt to 4.5e-10."""
    rc = cli.load_config(os.path.join(cli._PRESET_DIR, "p3-blowup.yaml"))
    g = rc.make_grid()
    cfg = rc.make_solver_config()
    st = solver.step(solver.make_state(rc.make_initial(g), cfg), cfg)
    assert st.work.mirror == (True, True)
    assert 9e-5 < st.dt_last < 1e-4
