"""Adaptive integration of u_t = Lap(u) + |grad u|^p (+ forcing) with
Dirichlet boundary, blow-up-aware stopping and snapshot persistence.

On a uniform grid the step is explicit Heun.  Its size blends the diffusive
limit min(h)^2/4 with an advective limit h / (p |grad u|^(p-1)) so the
gradient-stiff endgame stays stable, with a fixed safety factor of 0.4:

    dt = 0.4 * min(h)^2/4 / (1 + p * grad_max^(p-1) * min(h)/4)

On a graded grid the step is linearized implicit Euler with approximate
factorization, (I - dt J_x)(I - dt J_y) (u_new - u) = dt F(u), where F is
the right-hand side and J_x, J_y hold the diffusion and the linearized
p |grad u|^(p-2) grad u . grad along one axis each: two batched tridiagonal
solves per step.  Its size aims at a relative change of grad_max of
_REL_CHANGE per step (scaled from the last step's change) and is cut back
when u or grad_max changed by more than twice that.  It depends only on the
state and the last step's dt and grad_max, which series.csv records, so a
resumed run repeats the one-shot run.  It supports no forcing.  Both steps
hold the walls of the state they step from; only `SolverConfig.boundary`
sets them, in a forced run.

The 1D reduction u_t = u_yy + |u_y|^p runs on a column (`Grid2D.column`),
uniform or graded in y, through the same step, run, persistence and resume:
it takes the graded step with one y sweep and no x sweep.

A forced run (the MMS study) passes `SolverConfig.forcing` and
`SolverConfig.boundary`, two callbacks that take only the time: forcing(t)
returns the interior values and boundary(t) the four edges.  They are meant
to be bound to the grid's nodes once, as `profile_math.manufactured_callbacks`
binds the manufactured solution, so a step rebuilds no coordinates.

Every derivative comes from the numpy stencils of `_kernels`.  A run is a
single logical writer advancing the state, which holds the run's workspace
(`SimulationState.work`, made by `make_state` and dropped from the run's
outcome), so independent runs share nothing and may execute concurrently.
The workspace depends on the grid alone and holds every interior-size buffer
a step needs: the kernels' scratch, the gradient handed between steps, and
Heun's stage buffers or the graded step's right-hand side and line-solve
buffers.  A step allocates no interior-size array but its new values.
Both steps hand the gradient that their grad_max formed for the new state to
the next step's first right-hand side ("first same as last"), which then
forms only the Laplacian and the source; the stencils give the same bits
either way.  `make_state` forms it for the first state, so a resumed run
repeats the one-shot run bit for bit.  The state's u_y at the origin is read
off that gradient too.
"""

from __future__ import annotations

import json
import os
from array import array
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import _kernels
from .errors import ConfigurationError, DtUnderflow, NumericError, \
    SnapshotError
from .grid import (Grid2D, ScalarField, read_snapshot, read_verified,
                   write_json, write_rows, write_snapshot)

__all__ = [
    "SolverConfig",
    "SimulationState",
    "SnapshotRef",
    "RunOutcome",
    "make_state",
    "default_stop_grad_norm",
    "step",
    "run",
    "resume",
    "open_run",
    "load_series",
    "write_series",
]

BLOW_UP = "blow_up_detected"
HORIZON = "horizon_reached"
UNDERFLOW = "dt_underflow"


@dataclass
class SolverConfig:
    p: float
    dt_floor: float = 1e-13
    stop_grad_norm: Optional[float] = None  # None -> default_stop_grad_norm
    t_max: float = 1.0
    snapshot_stride: int = 0  # steps between periodic snapshots; 0 disables
    # forcing(t) -> the (ny-2, nx-2) interior values at time t
    forcing: Optional[Callable] = None
    # boundary(t) -> the edge values (bottom, top, left, right) at time t;
    # None holds the walls of the initial data
    boundary: Optional[Callable] = None

    def __post_init__(self):
        if not self.dt_floor > 0:
            raise ConfigurationError("dt_floor must be positive")
        if not self.t_max > 0:
            raise ConfigurationError("t_max must be positive")
        if self.stop_grad_norm is not None and not self.stop_grad_norm > 0:
            raise ConfigurationError("stop_grad_norm must be positive")
        if self.snapshot_stride < 0:
            raise ConfigurationError("snapshot_stride must be >= 0")


@dataclass
class SimulationState:
    field: ScalarField
    t: float
    step: int
    grad_max: float
    uy_origin: float
    dt_last: float
    grad_prev: Optional[float] = None  # grad_max one step earlier
    # the run's buffers, a _HeunWork or a _GradedWork; a run's outcome
    # drops them
    work: object = None


@dataclass
class SnapshotRef:
    step: int
    t: float
    path: str
    sha256: str  # of the file, recorded when written


@dataclass
class RunOutcome:
    reason: str
    t_stop: float
    series: dict  # arrays: t, grad_max, uy_origin, dt
    snapshots: list
    final: SimulationState


def default_stop_grad_norm(h: float, p: float) -> float:
    """Resolution-bound stop for the smallest spacing h: beyond this the grid
    cannot represent the layer."""
    return 50.0 / h ** (1.0 / (p - 1.0))


class _Work:
    """The buffers that one run's steps share, made once per run for its
    grid.  `grad` holds the gradient of the values `of` over the grid
    ((u_x, u_y, |grad u|^2), or (u_y,) on a column), left by `grad_max` for
    the next step's right-hand side; `tmp` is one more array of the grid's
    shape; `scratch` is the six interior-size arrays that
    `_kernels.rhs_interior` takes (none on a column)."""

    def __init__(self, g: Grid2D):
        self.grid = g
        self.grad = tuple(np.empty((g.ny, g.nx))
                          for _ in range(1 if g.is_column else 3))
        self.tmp = np.empty((g.ny, g.nx))
        self.scratch = () if g.is_column else tuple(
            np.empty((g.ny - 2, g.nx - 2)) for _ in range(6))
        self.of = None

    def grad_max(self, u: np.ndarray) -> float:
        """Largest |grad u| over every node (a column has only u_y); the
        gradient stays in grad, for the step from u."""
        self.of = u
        if self.grid.is_column:
            return _kernels.grad_max_1d(u, self.grid.ay, self.grad[0])
        return _kernels.grad_norm_max(u, self.grid, self.grad, self.tmp)

    def handed(self, u: np.ndarray):
        """The interior of grad if it holds the gradient of u, as the step
        that made u (or make_state) left it, else None."""
        if self.of is not u:
            return None
        inner = np.s_[1:-1] if self.grid.is_column else np.s_[1:-1, 1:-1]
        return tuple(v[inner] for v in self.grad)

    def uy_origin(self) -> float:
        """u_y at the origin (x = 0 on the wall y = 0) of the values `of`."""
        uy = self.grad[0 if self.grid.is_column else 1]
        return float(uy[0, self.grid.ix0])


def _workspace(g: Grid2D, ws) -> _Work:
    """ws if it is the workspace of grid g, else a new one of the kind the
    step on g takes: Heun's on a uniform grid, the graded step's otherwise."""
    if ws is not None and ws.grid is g:
        return ws
    return (_HeunWork if g.uniform else _GradedWork)(g)


def make_state(u0: ScalarField) -> SimulationState:
    """The state at t = 0 of u0, holding the run's workspace, handed the
    gradient of u0 (as `resume` needs it)."""
    work = _workspace(u0.grid, None)
    return SimulationState(field=u0, t=0.0, step=0,
                           grad_max=work.grad_max(u0.values),
                           uy_origin=work.uy_origin(), dt_last=0.0, work=work)


_CFL_SAFETY = 0.4  # of the Heun step, a fraction of the diffusive limit


def _dt_for(state: SimulationState, cfg: SolverConfig, g: Grid2D) -> float:
    h = min(g.hx, g.hy)
    diff = _CFL_SAFETY * h * h / 4.0
    return diff / (1.0 + cfg.p * state.grad_max ** (cfg.p - 1.0) * h / 4.0)


def _apply_bc(u: np.ndarray, cfg: SolverConfig, t: float):
    if cfg.boundary is not None:  # the side columns take the corners
        u[0, :], u[-1, :], u[:, 0], u[:, -1] = cfg.boundary(t)


def _check_dt(dt: float, cfg: SolverConfig, state: SimulationState):
    """Raise DtUnderflow if a step from state takes a dt under the floor."""
    if dt < cfg.dt_floor:
        raise DtUnderflow(f"dt={dt:.3e} under floor {cfg.dt_floor:.3e} "
                          f"at t={state.t:.6g}, step {state.step}")


class _HeunWork(_Work):
    """`_Work` with the stage buffers (k1, k2, u1) of one run's Heun steps,
    of the grid's shape."""

    def __init__(self, g: Grid2D):
        super().__init__(g)
        # rhs_interior writes only the interior: k1 and k2 keep zero walls,
        # so u1 and the new values keep the walls of u
        self.stages = tuple(np.zeros((g.ny, g.nx)) for _ in range(3))


def _rhs(u, g, cfg, t, out, scratch, grad=None):
    """Write the right-hand side at time t, forcing included, into out."""
    _kernels.rhs_interior(u, g, cfg.p, out, scratch, grad)
    if cfg.forcing is not None:
        out[1:-1, 1:-1] += cfg.forcing(t)


def _heun(state: SimulationState, cfg: SolverConfig, ws):
    """One Heun step on the buffers of ws: (the new values, dt, their
    grad_max).  The first right-hand side takes the handed gradient, if
    any."""
    g, u, t = state.field.grid, state.field.values, state.t
    dt = _dt_for(state, cfg, g)
    _check_dt(dt, cfg, state)
    k1, k2, u1 = ws.stages
    _rhs(u, g, cfg, t, k1, ws.scratch, ws.handed(u))
    np.multiply(k1, dt, out=u1)
    u1 += u
    _apply_bc(u1, cfg, t + dt)
    _rhs(u1, g, cfg, t + dt, k2, ws.scratch)
    np.add(k1, k2, out=k1)
    un = np.multiply(k1, 0.5 * dt)
    un += u
    _apply_bc(un, cfg, t + dt)
    return un, dt, ws.grad_max(un)


# target relative change of u and grad_max per graded step: halving it from
# 0.05 moved the p3-blowup fits (aniso residual 0.338 -> 0.318), halving it
# again did not
_REL_CHANGE = 0.025
_DT_GROWTH = 1.5  # largest growth of dt from one graded step to the next


def _dt_graded(state: SimulationState, cfg: SolverConfig, umax, F) -> float:
    """First guess of the graded step size: the last dt scaled to a
    _REL_CHANGE change of grad_max, or on the first step a _REL_CHANGE
    change of u, whose largest |value| is umax, at the rate F."""
    if state.grad_prev and state.dt_last > 0:
        rel = abs(state.grad_max - state.grad_prev) / state.grad_prev
        growth = _REL_CHANGE / rel if rel > 0 else _DT_GROWTH
        return min(state.dt_last * min(growth, _DT_GROWTH), cfg.t_max)
    fmax = float(np.max(np.abs(F)))
    if fmax == 0.0:
        return cfg.t_max
    return min(_REL_CHANGE * umax / fmax, cfg.t_max)


def _thomas_rows(a, Z):
    """The per-row views `_thomas` sweeps over, made once per buffer; None
    for a single column, which needs none."""
    n, _, m = Z.shape
    if m == 1:
        return None
    return ([(a[k], Z[k - 1, 0], Z[k - 1, 2:0:-1], Z[k, :2])
             for k in range(1, n)],
            [(Z[k, 2], Z[k + 1, 1], Z[k, 1], Z[k, 0])
             for k in range(n - 2, -1, -1)])


def _thomas(a, Z, rows):
    """Solve a[k] v[k-1] + b[k] v[k] + c[k] v[k+1] = d[k] along axis 0 for
    every column at once, where Z[:, 0], Z[:, 1] and Z[:, 2] hold b, d and c
    (a[0] and c[-1] are not read) and rows = `_thomas_rows(a, Z)`.
    Overwrites Z, and d with the solution, which it returns.  A single
    column is swept over Python floats: the same IEEE double arithmetic
    without numpy calls on 1-element rows."""
    if Z.shape[2] == 1:
        a, (b, d, c) = a[:, 0].tolist(), Z[:, :, 0].T.tolist()
        for k in range(1, len(b)):
            w = a[k] / b[k - 1]
            b[k] -= w * c[k - 1]
            d[k] -= w * d[k - 1]
        d[-1] /= b[-1]
        for k in range(len(b) - 2, -1, -1):
            d[k] = (d[k] - c[k] * d[k + 1]) / b[k]
        Z[:, 1, 0] = d
        return Z[:, 1]
    divide, multiply, subtract = np.divide, np.multiply, np.subtract
    w, wz = np.empty(Z.shape[2]), np.empty((2, Z.shape[2]))
    forward, backward = rows
    for ak, bp, cdp, bdk in forward:  # (b, d)[k] -= w (c, d)[k-1]
        divide(ak, bp, w)
        multiply(w, cdp, wz)
        subtract(bdk, wz, bdk)
    Z[-1, 1] /= Z[-1, 0]
    for ck, dn, dk, bk in backward:  # d[k] = (d[k] - c[k] d[k+1]) / b[k]
        multiply(ck, dn, w)
        subtract(dk, w, dk)
        divide(dk, bk, dk)
    return Z[:, 1]


class _Sweep:
    """The buffers of the line solves (I - dt (D2 + speed D1)) v = rhs along
    one axis of a grid: n interior lines of m values, v = 0 on the walls."""

    def __init__(self, axis, n, m):
        self.axis = axis
        self.speed = np.empty((n, m))  # set once per step
        self.lo = np.empty((n, m))
        self.Z = np.empty((n, 3, m))  # per line: diagonal, rhs, upper
        self.rows = _thomas_rows(self.lo, self.Z)

    def solve(self, dt):
        """Solve for the rhs in Z[:, 1] with step dt; return the solution."""
        # -dt (d2 + speed d1) in each of the three bands, plus 1 on the
        # diagonal
        for out, w1, w2 in zip((self.lo, self.Z[:, 0], self.Z[:, 2]),
                               self.axis.d1, self.axis.d2):
            np.multiply(self.speed, w1, out=out)
            out += w2
            out *= -dt
        self.Z[:, 0] += 1.0
        return _thomas(self.lo, self.Z, self.rows)


class _GradedWork(_Work):
    """`_Work` with the buffers of one run's graded steps: the right-hand
    side F and a `_Sweep` per axis, x first."""

    def __init__(self, g: Grid2D):
        super().__init__(g)
        self.F = np.zeros((g.ny, g.nx))  # its walls stay 0
        self.sweeps = [_Sweep(g.ay, g.ny - 2, 1)] if g.is_column else [
            _Sweep(g.ax, g.nx - 2, g.ny - 2), _Sweep(g.ay, g.ny - 2, g.nx - 2)]


def _step_graded(state: SimulationState, cfg: SolverConfig, ws):
    """One linearly implicit step on the buffers of ws: (the new values,
    dt, their grad_max)."""
    if cfg.forcing or cfg.boundary:
        raise ConfigurationError("graded grids and columns run unforced only")
    g = state.field.grid
    u = state.field.values
    handed = ws.handed(u)
    F = ws.F
    if g.is_column:  # one y sweep over the interior rows
        inner = np.s_[1:-1]
        uy, k = _kernels.rhs_interior_1d(
            u, g.ay, cfg.p, F, None if handed is None else handed[0])
        np.multiply(cfg.p * k, uy, out=ws.sweeps[0].speed)
        src = F[inner]
    else:
        inner = np.s_[1:-1, 1:-1]
        ux, uy, k = _kernels.rhs_interior(u, g, cfg.p, F, ws.scratch,
                                          handed)
        # p |grad u|^(p-2): times grad u, the advection speed
        a = np.multiply(cfg.p, k, out=k)
        # x lines first, on transposed views so both sweeps run along axis 0
        np.multiply(a.T, ux.T, out=ws.sweeps[0].speed)
        np.multiply(a, uy, out=ws.sweeps[1].speed)
        src = F[inner].T
    umax = float(np.max(np.abs(u, out=ws.tmp)))
    dt = _dt_graded(state, cfg, umax, F)
    while True:
        _check_dt(dt, cfg, state)
        np.multiply(src, dt, out=ws.sweeps[0].Z[:, 1])
        delta = ws.sweeps[0].solve(dt)
        for sweep in ws.sweeps[1:]:  # the y lines of a 2D grid
            np.copyto(sweep.Z[:, 1], delta.T)
            delta = sweep.solve(dt)
        un = u.copy()
        un[inner] += delta
        gmax = ws.grad_max(un)
        dmax = float(np.max(np.abs(delta, out=ws.tmp[inner])))
        # retry shorter if u or grad_max changed by over twice the target
        change = max(dmax / umax if umax else 0.0,
                     abs(gmax / state.grad_max - 1.0) if state.grad_max
                     else 0.0)
        if not change > 2.0 * _REL_CHANGE:  # NaN falls through to the check
            return un, dt, gmax
        dt *= _REL_CHANGE / change


def step(state: SimulationState, cfg: SolverConfig) -> SimulationState:
    """Advance one adaptive step (Heun on a uniform grid, linearly implicit
    on a graded grid or a column); raises DtUnderflow below the dt floor."""
    g = state.field.grid
    ws = _workspace(g, state.work)
    # an overflow or NaN reaches gmax and is reported below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        un, dt, gmax = (_heun if g.uniform else _step_graded)(state, cfg, ws)
    if not np.isfinite(gmax):
        bad = np.argwhere(~np.isfinite(un))
        where = f"node (i={bad[0][1]}, j={bad[0][0]})" if len(bad) else "gradient"
        raise NumericError(f"non-finite update at step {state.step + 1}: {where}")
    return SimulationState(field=ScalarField(g, un), t=state.t + dt,
                           step=state.step + 1, grad_max=gmax,
                           uy_origin=ws.uy_origin(), dt_last=dt,
                           grad_prev=state.grad_max, work=ws)


class _Series:
    cols = ("t", "grad_max", "uy_origin", "dt")

    def __init__(self):
        self.data = {c: array("d") for c in self.cols}

    def append(self, t, gmax, uy0, dt):
        self.data["t"].append(t)
        self.data["grad_max"].append(gmax)
        self.data["uy_origin"].append(uy0)
        self.data["dt"].append(dt)

    def as_dict(self):
        return {c: np.asarray(self.data[c]) for c in self.cols}


def write_series(series: dict, path) -> str:
    """Write series.csv; returns the sha256 hex digest of its bytes."""
    return write_rows(path, _Series.cols,
                      zip(*(series[c] for c in _Series.cols)))


def load_series(path, sha256: Optional[str] = None) -> dict:
    """The columns of a series.csv; SnapshotError if it is malformed or, with
    sha256 set, if its digest differs from the one meta.json recorded."""
    text = read_verified(path, sha256).decode("latin-1")
    try:
        raw = np.loadtxt(text.splitlines(), delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise SnapshotError(f"cannot read {path}: {exc}")
    if raw.shape[1] != len(_Series.cols):
        raise SnapshotError(f"{path}: wrong number of columns")
    return {c: raw[:, i] for i, c in enumerate(_Series.cols)}


class _SnapshotWriter:
    """Periodic snapshots plus a geometric cascade as grad_max doubles."""

    def __init__(self, run_dir, stride, grad0):
        self.run_dir = run_dir
        self.stride = stride
        self.next_thresh = 2.0 * max(grad0, 1e-30)
        self.refs = []
        if run_dir is not None:
            os.makedirs(os.path.join(run_dir, "snapshots"), exist_ok=True)

    def crossed(self, grad_max) -> bool:
        """Double the cascade's next level past grad_max; True if grad_max
        reached it."""
        crossed = False
        while grad_max >= self.next_thresh:
            self.next_thresh *= 2.0
            crossed = True
        return crossed

    def maybe(self, state: SimulationState, force=False):
        if self.run_dir is None:
            return
        due = self.crossed(state.grad_max) or force
        if self.stride and state.step % self.stride == 0:
            due = True
        if not due:
            return
        if self.refs and self.refs[-1].step == state.step:
            return
        path = os.path.join(self.run_dir, "snapshots",
                            f"{len(self.refs):04d}.bin")
        digest = write_snapshot(state.field, path, state.t)
        self.refs.append(SnapshotRef(state.step, state.t, path, digest))


def run(u0: ScalarField, cfg: SolverConfig, run_dir=None,
        config_echo=None) -> RunOutcome:
    """Iterate step() until blow-up, horizon, or dt underflow.

    With run_dir set, persists series.csv, snapshots/NNNN.bin and meta.json;
    without it, the outcome lists no snapshots.
    """
    state = make_state(u0.copy())
    series = _Series()
    series.append(state.t, state.grad_max, state.uy_origin, 0.0)
    snaps = _SnapshotWriter(run_dir, cfg.snapshot_stride, state.grad_max)
    snaps.maybe(state, force=True)
    return _advance(state, cfg, series, snaps, run_dir, config_echo)


def _advance(state: SimulationState, cfg: SolverConfig, series: _Series,
             snaps: _SnapshotWriter, run_dir, config_echo) -> RunOutcome:
    """The loop of `run` and `resume` from a state recorded in series."""
    g = state.field.grid
    if cfg.stop_grad_norm is None:
        cfg = replace(cfg, stop_grad_norm=default_stop_grad_norm(
            min(g.hx, g.hy), cfg.p))
    reason = HORIZON
    while True:
        if state.grad_max >= cfg.stop_grad_norm:
            reason = BLOW_UP
            break
        if state.t >= cfg.t_max:
            reason = HORIZON
            break
        try:
            state = step(state, cfg)
        except DtUnderflow:
            reason = UNDERFLOW
            break
        series.append(state.t, state.grad_max, state.uy_origin, state.dt_last)
        snaps.maybe(state)

    snaps.maybe(state, force=True)
    # the run's buffers go before the fits are computed
    outcome = RunOutcome(reason=reason, t_stop=state.t,
                         series=series.as_dict(), snapshots=snaps.refs,
                         final=replace(state, work=None))
    if run_dir is not None:
        _persist(outcome, cfg, g, run_dir, config_echo)
    return outcome


# 1D runs go through run on a column; perfbench/tracer.py wraps this name
run_1d = run


def _persist(outcome: RunOutcome, cfg: SolverConfig, g: Grid2D, run_dir,
             config_echo):
    digest = write_series(outcome.series, os.path.join(run_dir, "series.csv"))
    meta = {
        "config": config_echo,
        "grid": {"Lx": g.Lx, "Ly": g.Ly, "nx": g.nx, "ny": g.ny},
        "solver": {k: v for k, v in cfg.__dict__.items()
                   if k not in ("forcing", "boundary")},
        "outcome": {
            "reason": outcome.reason,
            "t_stop": outcome.t_stop,
            "steps": outcome.final.step,
            "grad_max_final": outcome.final.grad_max,
            "uy_origin_final": outcome.final.uy_origin,
            "series_sha256": digest,
            "snapshots": [{"step": r.step, "t": r.t,
                           "path": os.path.relpath(r.path, run_dir),
                           "sha256": r.sha256} for r in outcome.snapshots],
        },
    }
    write_json(os.path.join(run_dir, "meta.json"), meta)


def open_run(run_dir):
    """(meta, a SnapshotRef per snapshot, series.csv's sha256) of a run
    directory.  SnapshotError if meta.json is unreadable or lacks `config`
    (null is allowed), `outcome.reason`, `outcome.series_sha256`, a
    snapshot, or a snapshot's integer `step`, `t`, `path` or `sha256`."""
    path = os.path.join(run_dir, "meta.json")
    try:
        with open(path) as fh:
            meta = json.load(fh)
    except (OSError, ValueError) as exc:
        raise SnapshotError(f"cannot read {path}: {exc}")
    outcome = meta.get("outcome") if isinstance(meta, dict) else None
    entries = outcome.get("snapshots") if isinstance(outcome, dict) else None
    if not (isinstance(entries, list) and entries and "config" in meta
            and "reason" in outcome
            and isinstance(outcome.get("series_sha256"), str)):
        raise SnapshotError(f"{path}: needs config, outcome.reason, "
                            "outcome.series_sha256 and outcome.snapshots")
    if not all(isinstance(s, dict) and type(s.get("step")) is int
               and "t" in s and isinstance(s.get("path"), str)
               and isinstance(s.get("sha256"), str) for s in entries):
        raise SnapshotError(f"{path}: a snapshot lacks an integer step, "
                            "t, path or sha256")
    return meta, [SnapshotRef(s["step"], s["t"],
                              os.path.join(run_dir, s["path"]), s["sha256"])
                  for s in entries], outcome["series_sha256"]


def resume(run_dir, cfg: SolverConfig) -> RunOutcome:
    """Restart a persisted run from its last snapshot, deterministically."""
    meta, refs, series_sha256 = open_run(run_dir)
    last = refs[-1]
    fld, t_snap = read_snapshot(last.path, last.sha256)
    st = make_state(fld)
    st.t, st.step = t_snap, last.step

    old = load_series(os.path.join(run_dir, "series.csv"), series_sha256)
    if not 0 <= last.step < len(old["t"]):
        raise SnapshotError(f"{run_dir}: snapshot step {last.step} is not a "
                            f"row of series.csv ({len(old['t'])} rows)")
    # the graded step sizes dt from the last step's dt and grad_max change
    st.dt_last = float(old["dt"][last.step])
    if last.step > 0:
        st.grad_prev = float(old["grad_max"][last.step - 1])
    series = _Series()
    snaps = _SnapshotWriter(run_dir, cfg.snapshot_stride,
                            float(old["grad_max"][0]))
    snaps.refs = refs
    # series rows are one per step starting at step 0; replaying the
    # cascade's doubling over them restores its next level bit for bit
    for row in zip(*(old[c][:last.step + 1] for c in _Series.cols)):
        series.append(*row)
        snaps.crossed(row[1])
    return _advance(st, cfg, series, snaps, run_dir, meta["config"])
