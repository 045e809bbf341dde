"""Integration of u_t = Lap(u) + |grad u|^p (+ forcing) with Dirichlet
boundary, blow-up-aware stopping and snapshot persistence.

Every run, on a uniform grid, a graded grid or a column, forced or not, takes
linearized implicit Euler with approximate factorization,
(I - dt J_x)(I - dt J_y) (u_new - u) = dt F, where F is the right-hand side
and J_x, J_y hold the diffusion and the linearized p |grad u|^(p-2) grad u .
grad along one axis each: two batched tridiagonal solves per step, with the
update zero on the walls.

An unforced run sizes its steps to a relative change of grad_max of
_REL_CHANGE per step (scaled from the last step's change) and cuts a step
back when u or grad_max changed by more than twice that.  The size depends
only on the state and the last step's dt and grad_max, which series.csv
records, so a resumed run repeats the one-shot run.  A step that would
cross t_max is taken again from the same state, shortened to land on t_max.
An unforced 2D run lands on its stop the same way (`_step_implicit`):
grad_max ends in [stop, stop (1 + _LANDING)], so the final profile, which
the fits read, does not hinge on how far the last step would overshoot.  A
column keeps its last step.  A step holds the walls of the state it steps from.

A forced run (the MMS study) passes `SolverConfig.forced`, a callback that
must be a function of the time alone: forced(t) returns the interior forcing
and the four edges.  It takes `SolverConfig.n_steps` equal steps and lands
on t_max bit for bit: step k + 1 goes from t_k to t_(k+1) = t_max (k + 1) /
n_steps.  It calls forced(t_(k+1)) once, sets the walls of the new values to
its edges, forms their gradient (their walls moved) and F from them plus its
forcing, and solves for the interior update.  A forced column raises
ConfigurationError, as its side walls are the whole column.  The callback
is meant to be bound to the grid's nodes once, as
`profile_math.manufactured_callbacks` binds the manufactured solution, so a
step rebuilds no coordinates.

The 1D reduction u_t = u_yy + |u_y|^p runs on a column (`Grid2D.column`),
uniform or graded in y, through the same step, run, persistence and resume,
with one y sweep and no x sweep.

A step solves a window of the grid, chosen once per run by `make_state`
from the run's config (`run` and `resume` pass it).  An unforced 2D run
whose x nodes and values are mirror images about x = 0, bit for bit, solves
x >= 0; if ny is odd and its y nodes and values are also mirror images
about y = Ly/2, it solves y <= Ly/2 too.  The window carries one ghost line
per mirror: the column x = -x_1 and the row above Ly/2.  Its stencils take
the grid's own weights (`Grid2D.window`), so its right-hand side is the
whole grid's, bit for bit.  Each line solve folds its ghost into its band:
the x lines' first unknown, x = 0, has the ghost below it (c_0 += a_0), the
y lines' last, y = Ly/2, above it (a_last += c_last).  After each step the
rest of the grid is filled by mirroring, so everything that reads a state
sees the whole field.  grad_max skips the ghosts, whose one-sided
differences the whole grid does not take.  Forced runs, columns and data
that fail the check solve the whole grid through the same code.  The
shipped cap is even in x and about Ly/2 bit for bit
(`initial_data.symmetric_cap`), so shipped 2D runs solve the quarter
x >= 0, y <= Ly/2.

Every derivative comes from the numpy stencils of `_kernels`.  A run is a
single logical writer advancing the state, which holds the run's workspace
(`SimulationState.work`, made by `make_state` and dropped from the run's
outcome), so independent runs share nothing and may execute concurrently.
The workspace, made with the state, holds every window-size buffer a step
needs: the kernels' scratch, the gradient handed between steps, the step's
right-hand side and the line-solve buffers.  A step on a 2D grid allocates
no interior-size array but its new values; a column's right-hand side
allocates its own intermediates, and its line solve runs on Python lists.
Every step's right-hand side takes the gradient of its values that grad_max
left in the workspace and forms only the Laplacian and the source.  A step
leaves the gradient of its new values there ("first same as last"), and
`make_state` the first state's, so a resumed run repeats the one-shot run
bit for bit.  A step forms it first where it is not there: on a forced
step's new walls, and for a state stepped twice or without its run's
workspace.  The state's u_y at the origin is read off that gradient too.
"""

from __future__ import annotations

import json
import os
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
    # a forced run's callback, a function of t alone evaluated once per step
    # at the step's new time: forced(t) -> (the (ny-2, nx-2) interior
    # forcing, the edge values (bottom, top, left, right)) at time t
    forced: Optional[Callable] = None
    # the number of equal steps a forced run takes to t_max; a forced run
    # needs it (>= 1) and an unforced run, which sizes its own, takes none
    n_steps: Optional[int] = None

    def __post_init__(self):
        forced = self.forced is not None
        if (self.n_steps is not None) != forced or forced and not (
                isinstance(self.n_steps, int) and self.n_steps >= 1):
            raise ConfigurationError("n_steps: a forced run needs an int >= "
                                     f"1, an unforced run none; got "
                                     f"{self.n_steps!r}")
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
    # the run's buffers, a _Work; a run's outcome drops them
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
    series: dict  # an array per SERIES column
    snapshots: list
    final: SimulationState


def default_stop_grad_norm(h: float, p: float) -> float:
    """Resolution-bound stop for the smallest spacing h: beyond this the grid
    cannot represent the layer."""
    return 50.0 / h ** (1.0 / (p - 1.0))


class _Work:
    """The buffers that one run's steps share, made once per run, and the
    window of its grid that they solve: all of it, or with `mirror` =
    (x, y) the nodes x >= 0 if x is set and y <= Ly/2 if y is set, each
    with its ghost line, the column x = -x_1 and the row above Ly/2
    (`_mirrors`).  `win` is the window's slice of a field, `own` the slice
    of the window that leaves its ghosts out, and `axes` its stencil
    weights; `grad` holds the gradient of the values `of` over the window
    ((u_x, u_y, |grad u|^2), or (u_y,) on a column), left by `grad_max` for
    the next step's right-hand side, which takes `handed`, its interior
    views; `tmp` is one more array of the window's shape; `scratch` is the
    three arrays of its interior's shape that `_kernels.rhs_interior` takes
    (none on a column); `F` is the right-hand side, its walls 0, and
    `sweeps` a `_Sweep` per axis, x first."""

    def __init__(self, g: Grid2D, mirror=(False, False)):
        self.grid, self.mirror = g, mirror
        i0 = g.ix0 - 1 if mirror[0] else 0
        j1 = (g.ny + 3) // 2 if mirror[1] else g.ny
        self.win = np.s_[:j1, i0:]
        self.own = np.s_[:j1 - int(mirror[1]), int(mirror[0]):]
        self.origin = (0, g.ix0 - i0)  # x = 0 on the wall y = 0
        self.inner = np.s_[1:-1] if g.is_column else np.s_[1:-1, 1:-1]
        self.axes = g.window(i0, j1) if any(mirror) else g
        ny, nx = j1, g.nx - i0
        self.grad = tuple(np.empty((ny, nx))
                          for _ in range(1 if g.is_column else 3))
        self.handed = tuple(v[self.inner] for v in self.grad)
        self.tmp = np.empty((ny, nx))
        self.scratch = () if g.is_column else tuple(
            np.empty((ny - 2, nx - 2)) for _ in range(3))
        self.F = np.zeros((ny, nx))
        self.sweeps = [_Sweep(g.ay, ny - 2, 1)] if g.is_column else [
            _Sweep(self.axes.ax, nx - 2, ny - 2, 0 if mirror[0] else None),
            _Sweep(self.axes.ay, ny - 2, nx - 2, -1 if mirror[1] else None)]
        self.of = None

    def grad_max(self, u: np.ndarray) -> float:
        """Largest |grad u| over the window's nodes but its ghosts (a column
        has only u_y); the gradient stays in grad, for the step from u."""
        self.of = u
        if self.grid.is_column:
            return _kernels.grad_max_1d(u, self.grid.ay, self.grad[0])
        gmax = _kernels.grad_norm_max(u[self.win], self.axes, self.grad,
                                      self.tmp)
        if not any(self.mirror):
            return gmax
        return float(np.sqrt(np.max(self.grad[2][self.own])))

    def uy_origin(self) -> float:
        """u_y at the origin (x = 0 on the wall y = 0) of the values `of`."""
        return float(self.grad[0 if self.grid.is_column else 1][self.origin])

    def advanced(self, u: np.ndarray, delta: np.ndarray) -> np.ndarray:
        """New values: u on the window with delta added to its interior, the
        nodes outside it their mirror images."""
        un = np.empty_like(u)
        np.copyto(un[self.win], u[self.win])
        un[self.win][self.inner] += delta
        mx, my = self.mirror
        # x through tmp: un[:, :i] = un[:, :i:-1] would take a temporary
        if mx:
            rows, i = self.win[0], self.grid.ix0
            half = self.tmp[:, :i]
            np.copyto(half, un[rows, :i:-1])
            un[rows, :i] = half
        if my:
            mid = self.grid.ny // 2
            un[mid + 1:] = un[mid - 1::-1]
        return un


def _mirrors(u: np.ndarray, g: Grid2D, cfg: Optional[SolverConfig]):
    """(x, y): whether an unforced run of cfg from the values u of g may
    solve x >= 0 alone, its x nodes and values mirror images about x = 0,
    and y <= Ly/2 alone, ny odd and its y nodes and values mirror images
    about Ly/2 (`Grid2D.mirror_nodes`), each bit for bit.  Neither for a
    forced run, a column or no cfg."""
    if cfg is None or cfg.forced is not None or g.is_column:
        return False, False
    nodes_x, nodes_y = g.mirror_nodes
    i, mid = g.ix0, g.ny // 2
    in_x = nodes_x and np.array_equal(u[:, i:], u[:, i::-1])
    in_y = (g.ny % 2 == 1 and nodes_y
            and np.array_equal(u[mid:], u[mid::-1]))
    return bool(in_x), bool(in_y)


def make_state(u0: ScalarField, cfg: Optional[SolverConfig] = None
               ) -> SimulationState:
    """The state at t = 0 of u0, holding the run's workspace, handed the
    gradient of u0 (as `resume` needs it).  Given the run's cfg, its steps
    solve the mirror window that `_mirrors` allows; else the whole grid.
    NumericError if the gradient of u0 is not finite."""
    g = u0.grid
    work = _Work(g, _mirrors(u0.values, g, cfg))
    # an overflow is reported below, not as a warning, as `step` does
    with np.errstate(over="ignore", invalid="ignore"):
        gmax = work.grad_max(u0.values)
    if not np.isfinite(gmax):
        raise NumericError("non-finite gradient of the initial data")
    return SimulationState(field=u0, t=0.0, step=0, grad_max=gmax,
                           uy_origin=work.uy_origin(), dt_last=0.0, work=work)


def _check_dt(dt: float, cfg: SolverConfig, state: SimulationState):
    """Raise DtUnderflow if a step from state takes a dt under the floor."""
    if dt < cfg.dt_floor:
        raise DtUnderflow(f"dt={dt:.3e} under floor {cfg.dt_floor:.3e} "
                          f"at t={state.t:.6g}, step {state.step}")


# target relative change of u and grad_max per implicit step: halving it from
# 0.05 moved the p3-blowup fits (aniso residual 0.334 -> 0.2960), halving it
# again did not (0.2959, in 891 steps against 460; a dated measurement, made
# when p3-blowup stepped every row and its last step overshot the stop)
_REL_CHANGE = 0.025
# largest growth of dt from one implicit step to the next one's first guess,
# and of a step stretched to land on the stop
_DT_GROWTH = 1.5
# an unforced 2D run ends with grad_max in [stop, stop (1 + _LANDING)]
_LANDING = 1e-3


def _dt_implicit(state: SimulationState, cfg: SolverConfig, umax, F) -> float:
    """First guess of the implicit step size: the last dt scaled to a
    _REL_CHANGE change of grad_max, or on the first step a _REL_CHANGE
    change of u, whose largest |value| is umax, at the rate F; NumericError
    if that rate is not finite."""
    if state.grad_prev and state.dt_last > 0:
        rel = abs(state.grad_max - state.grad_prev) / state.grad_prev
        growth = _REL_CHANGE / rel if rel > 0 else _DT_GROWTH
        return min(state.dt_last * min(growth, _DT_GROWTH), cfg.t_max)
    fmax = float(np.max(np.abs(F)))
    if not np.isfinite(fmax):
        raise NumericError("non-finite right-hand side at step "
                           f"{state.step + 1}")
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


def _fold(a, Z, at):
    """Fold a mirror ghost into the bands of `_thomas`: at = 0 when the
    first unknown's lower neighbour is the mirror image of its upper one
    (c[0] += a[0]), -1 when the last's upper neighbour is the mirror image
    of its lower one (a[-1] += c[-1])."""
    if at == 0:
        Z[0, 2] += a[0]
    else:
        a[-1] += Z[-1, 2]


class _Sweep:
    """The buffers of the line solves (I - dt (D2 + speed D1)) v = rhs along
    one axis of a grid: n interior lines of m values, v = 0 on the walls,
    but for a mirror ghost at the line's end `fold`, 0 or -1 (`_fold`)."""

    def __init__(self, axis, n, m, fold=None):
        self.axis, self.fold = axis, fold
        self.speed = np.empty((n, m))  # set once per step
        self.lo = np.empty((n, m))
        self.Z = np.empty((n, 3, m))  # per line: diagonal, rhs, upper
        self.rows = _thomas_rows(self.lo, self.Z)

    def solve(self, dt):
        """Solve for the rhs in Z[:, 1] with step dt; return the solution."""
        # speed (-dt d1) + (one - dt d2) in each of the three bands, with
        # one = 1 on the diagonal: two passes over each band
        for out, w1, w2, one in zip((self.lo, self.Z[:, 0], self.Z[:, 2]),
                                    self.axis.d1, self.axis.d2,
                                    (0.0, 1.0, 0.0)):
            np.multiply(self.speed, -dt * w1, out=out)
            out += one - dt * w2
        if self.fold is not None:
            _fold(self.lo, self.Z, self.fold)
        return _thomas(self.lo, self.Z, self.rows)


def _solve(ws, src, dt):
    """The interior update of a step of size dt: the solution of
    (I - dt J_x)(I - dt J_y) delta = dt F, for src the interior of F as the
    first sweep takes it (transposed on a 2D grid)."""
    np.multiply(src, dt, out=ws.sweeps[0].Z[:, 1])
    delta = ws.sweeps[0].solve(dt)
    for sweep in ws.sweeps[1:]:  # the y lines of a 2D grid
        np.copyto(sweep.Z[:, 1], delta.T)
        delta = sweep.solve(dt)
    return delta


def _step_implicit(state: SimulationState, cfg: SolverConfig, ws):
    """One linearly implicit step on the buffers of ws: (the new values,
    their time, dt, their grad_max).

    An unforced step is taken again, shorter, while u or grad_max changes
    by over 2 _REL_CHANGE.  A 2D step from below the stop is taken again
    until grad_max lands in [stop, top], top = stop (1 + _LANDING), aiming
    at the band's middle.  A step past top is retaken by regula falsi
    between the state (or a step short of the stop) and it; these retakes
    are shorter than a step the control passed and are not checked again,
    as one it cut would send the bracket round a cycle.  A step short of
    the stop by less than half its change is stretched to land, as the
    next step would be an ill-conditioned sliver, unless the stretch fails
    the control or falls short of the stop (past a peak of grad_max).
    """
    u = state.field.values
    if cfg.n_steps:  # forced: the new values, with their walls, from the start
        t = cfg.t_max * ((state.step + 1) / cfg.n_steps)
        u = u.copy()
        forcing, edges = cfg.forced(t)
        u[0, :], u[-1, :], u[:, 0], u[:, -1] = edges  # the sides take corners
    # grad holds the gradient of u, as the step that made u (or make_state)
    # left it, but for a forced step's new walls, a state stepped twice and
    # a state without its run's workspace
    if ws.of is not u:
        ws.grad_max(u)
    F, uw, inner = ws.F, u[ws.win], ws.inner
    if ws.grid.is_column:  # one y sweep over the interior rows
        uy, k = _kernels.rhs_interior_1d(uw, ws.axes.ay, cfg.p, F,
                                         ws.handed[0])
        np.multiply(cfg.p * k, uy, out=ws.sweeps[0].speed)
        src = F[inner]
    else:
        ux, uy, k = _kernels.rhs_interior(uw, ws.axes, cfg.p, F, ws.scratch,
                                          ws.handed)
        # p |grad u|^(p-2): times grad u, the advection speed
        a = np.multiply(cfg.p, k, out=k)
        # x lines first, on transposed views so both sweeps run along axis 0
        np.multiply(a.T, ux.T, out=ws.sweeps[0].speed)
        np.multiply(a, uy, out=ws.sweeps[1].speed)
        src = F[inner].T
    if cfg.n_steps:  # on the whole grid: uw is u
        F[inner] += forcing
        dt = t - state.t
        _check_dt(dt, cfg, state)
        uw[inner] += _solve(ws, src, dt)
        return u, t, dt, ws.grad_max(u)
    umax = float(np.max(np.abs(uw, out=ws.tmp)))
    dt = _dt_implicit(state, cfg, umax, F)
    g, stop = state.grad_max, cfg.stop_grad_norm
    # a column keeps its last step: its fit reads the series, not the profile
    land = stop is not None and not ws.grid.is_column and g < stop
    if land:
        top, aim = stop * (1.0 + _LANDING), stop * (1.0 + 0.5 * _LANDING)
    lo, hi, sized = (0.0, g), None, None  # (dt, grad_max) short of, past stop
    while True:
        _check_dt(dt, cfg, state)
        delta = _solve(ws, src, dt)
        un = ws.advanced(u, delta)
        gmax = ws.grad_max(un)
        dmax = float(np.max(np.abs(delta, out=ws.tmp[inner])))
        # the control: u or grad_max changed by over twice the target
        change = max(dmax / umax if umax else 0.0,
                     abs(gmax / g - 1.0) if g else 0.0)
        over = change > 2.0 * _REL_CHANGE  # NaN falls through to the check
        if sized is not None:  # a stretch of the step as sized
            if over or not gmax >= stop:
                un, dt, gmax = sized
                ws.grad_max(un)  # the gradient of the values handed on
                break
            sized = None
        elif over and hi is None:
            dt *= _REL_CHANGE / change
            continue
        if not land:
            break
        if gmax > top:
            hi = (dt, gmax)
        elif not gmax < stop:  # landed; NaN falls through to the check
            break
        elif hi is not None:
            lo = (dt, gmax)
        elif aim - g <= _DT_GROWTH * (gmax - g):  # else no sliver is left
            sized, lo = (un, dt, gmax), (dt, gmax)
            dt *= (aim - g) / (gmax - g)
            continue
        else:
            break
        dt = lo[0] + (hi[0] - lo[0]) * (aim - lo[1]) / (hi[1] - lo[1])
    t = state.t + dt
    if state.t < cfg.t_max < t:  # the same step, shortened to land on t_max
        dt, t = cfg.t_max - state.t, cfg.t_max
        un = ws.advanced(u, _solve(ws, src, dt))
        gmax = ws.grad_max(un)
    return un, t, dt, gmax


def step(state: SimulationState, cfg: SolverConfig) -> SimulationState:
    """Advance one linearly implicit step, adaptive in an unforced run and
    of fixed size in a forced one, which needs a 2D grid; raises
    DtUnderflow below the dt floor."""
    g = state.field.grid
    if cfg.n_steps and g.is_column:
        raise ConfigurationError("a column runs unforced only: its side "
                                 "walls are the whole column")
    ws = state.work
    if ws is None or ws.grid is not g:  # a run of its own from this state
        ws = _Work(g, _mirrors(state.field.values, g, cfg))
    # an overflow or NaN reaches gmax and is reported below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        un, t, dt, gmax = _step_implicit(state, cfg, ws)
    if not np.isfinite(gmax):
        bad = np.argwhere(~np.isfinite(un))
        where = f"node (i={bad[0][1]}, j={bad[0][0]})" if len(bad) else "gradient"
        raise NumericError(f"non-finite update at step {state.step + 1}: {where}")
    return SimulationState(field=ScalarField(g, un), t=t,
                           step=state.step + 1, grad_max=gmax,
                           uy_origin=ws.uy_origin(), dt_last=dt,
                           grad_prev=state.grad_max, work=ws)


# the columns of series.csv, a row per step from step 0
SERIES = ("t", "grad_max", "uy_origin", "dt")


def write_series(series: dict, path) -> str:
    """Write series.csv; returns the sha256 hex digest of its bytes."""
    return write_rows(path, SERIES, zip(*(series[c] for c in SERIES)))


def load_series(path, sha256: Optional[str] = None) -> dict:
    """The columns of a series.csv; SnapshotError if it is malformed or, with
    sha256 set, if its digest differs from the one meta.json recorded."""
    text = read_verified(path, sha256).decode("latin-1")
    try:
        raw = np.loadtxt(text.splitlines(), delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise SnapshotError(f"cannot read {path}: {exc}")
    if raw.shape[1] != len(SERIES):
        raise SnapshotError(f"{path}: wrong number of columns")
    return {c: raw[:, i] for i, c in enumerate(SERIES)}


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
    state = make_state(u0.copy(), cfg)
    snaps = _SnapshotWriter(run_dir, cfg.snapshot_stride, state.grad_max)
    snaps.maybe(state, force=True)
    return _advance(state, cfg,
                    [(state.t, state.grad_max, state.uy_origin, 0.0)],
                    snaps, run_dir, config_echo)


def _advance(state: SimulationState, cfg: SolverConfig, rows: list,
             snaps: _SnapshotWriter, run_dir, config_echo) -> RunOutcome:
    """The loop of `run` and `resume` from a state whose series row, a
    tuple of the SERIES columns, ends rows."""
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
        rows.append((state.t, state.grad_max, state.uy_origin, state.dt_last))
        snaps.maybe(state)

    snaps.maybe(state, force=True)
    # the run's buffers go before the fits are computed
    outcome = RunOutcome(reason=reason, t_stop=state.t,
                         series=dict(zip(SERIES, np.array(rows).T)),
                         snapshots=snaps.refs,
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
                   if k not in ("forced", "n_steps")},
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
    """(meta, a SnapshotRef per snapshot, the series.csv columns) of a run
    directory.  SnapshotError if meta.json is unreadable or lacks `config`
    (null is allowed), `outcome.reason`, `outcome.series_sha256`, a
    snapshot, or a snapshot's integer `step`, `t`, `path` or `sha256`; if
    series.csv is malformed or its sha256 is not `outcome.series_sha256`;
    or if the last snapshot's step is not a row of series.csv."""
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
    series = load_series(os.path.join(run_dir, "series.csv"),
                         outcome["series_sha256"])
    step = entries[-1]["step"]
    if not 0 <= step < len(series["t"]):
        raise SnapshotError(f"{run_dir}: snapshot step {step} is not a "
                            f"row of series.csv ({len(series['t'])} rows)")
    return meta, [SnapshotRef(s["step"], s["t"],
                              os.path.join(run_dir, s["path"]), s["sha256"])
                  for s in entries], series


def resume(run_dir, cfg: SolverConfig) -> RunOutcome:
    """Restart a persisted run from its last snapshot, deterministically."""
    meta, refs, old = open_run(run_dir)
    last = refs[-1]
    fld, t_snap = read_snapshot(last.path, last.sha256)
    st = make_state(fld, cfg)
    st.t, st.step = t_snap, last.step
    # the implicit step sizes dt from the last step's dt and grad_max change
    st.dt_last = float(old["dt"][last.step])
    if last.step > 0:
        st.grad_prev = float(old["grad_max"][last.step - 1])
    rows = list(zip(*(old[c][:last.step + 1] for c in SERIES)))
    snaps = _SnapshotWriter(run_dir, cfg.snapshot_stride,
                            float(old["grad_max"][0]))
    snaps.refs = refs
    # the cascade doubled its level past every grad_max so far; doubling is
    # exact, so doubling past the largest restores the level bit for bit
    snaps.crossed(float(np.max(old["grad_max"][:last.step + 1])))
    return _advance(st, cfg, rows, snaps, run_dir, meta["config"])
