"""Runtime monitors for the maximum-principle bounds, the Bernstein gradient
bound, the J-function sign, the xi/Theta normalized profiles and the
quasi-stationary modulation height h(t, x).

All monitors are pure functions of persisted snapshots, so re-running them
offline is bit-reproducible.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DomainError, FitError
from .grid import ScalarField, gradient, write_json, write_rows
from .profile_fit import powerlaw_fit
from .profile_math import JParams, ProfileConstants, j_model, j_params

__all__ = [
    "MonitorEnvelope",
    "monitor_bounds",
    "bernstein_monitor",
    "j_monitor",
    "j_k_ladder",
    "xi_theta_fields",
    "xi_theta_ranges",
    "boundary_normal_series",
    "modulation_h",
    "default_probe_box",
    "build_report",
    "write_report",
]


@dataclass(frozen=True)
class MonitorEnvelope:
    name: str
    worst_value: float
    worst_location: tuple  # (x, y, t)
    envelope_constant: float


XI_THETA_FLOOR = 1e-8  # xi divides by u: smaller u is left out


def default_probe_box(g) -> tuple:
    """(x1, y1) of the probe box (0, x1] x (0, y1]."""
    return (min(0.1, g.Lx / 4.0), min(0.1, g.Ly / 4.0))


def _omega_prime(g):
    """Node mask of the half-size rectangle |x| <= Lx/2, y <= Ly/2."""
    X, Y = g.meshgrid()
    return (np.abs(X) <= g.Lx / 2.0) & (Y <= g.Ly / 2.0), X, Y


def _env(name, values, X, Y, t, lower=0.0):
    i = int(np.argmax(values))
    worst = float(values.flat[i] if hasattr(values, "flat") else values[i])
    loc = (float(X.flat[i]), float(Y.flat[i]), float(t))
    return MonitorEnvelope(name=name, worst_value=worst, worst_location=loc,
                           envelope_constant=max(worst, lower))


def monitor_bounds(snapshot: ScalarField, t: float, prev: ScalarField = None,
                   prev_t: float = None):
    """Envelope constants over the half-size box for the one-sided bounds
    |u_t| <= C, u_y >= -C, u_xx >= -C, |u_x| <= C|x|, and sup u.

    u_t uses a backward difference between consecutive snapshots; with a
    single snapshot that monitor is skipped.
    """
    g = snapshot.grid
    u = snapshot.values
    mask, X, Y = _omega_prime(g)
    fx, fy = gradient(snapshot)
    out = []

    if prev is not None:
        dt = t - prev_t
        if not dt > 0:
            raise DomainError("monitor_bounds: snapshots must advance in time")
        ut = np.abs(u - prev.values) / dt
        out.append(_env("ut_bound", ut[mask], X[mask], Y[mask], t))

    out.append(_env("uy_lower", -fy.values[mask], X[mask], Y[mask], t))

    uxx = np.zeros_like(u)
    uxx[:, 1:-1] = _kernels.u_xx(u, g)
    inner = mask.copy()
    inner[:, 0] = inner[:, -1] = False
    out.append(_env("uxx_lower", -uxx[inner], X[inner], Y[inner], t))

    offaxis = mask & (np.abs(X) > g.x[g.ix0 + 1] / 2.0)  # every column but x = 0
    ratio = np.abs(fx.values[offaxis]) / np.abs(X[offaxis])
    out.append(_env("ux_linear", ratio, X[offaxis], Y[offaxis], t))

    out.append(_env("max_principle_sup", u[mask], X[mask], Y[mask], t))
    return out


def bernstein_monitor(snapshot: ScalarField, t: float,
                      pc: ProfileConstants) -> MonitorEnvelope:
    """sup over interior nodes of |grad u| * dist^beta with dist the distance
    to the boundary of the rectangle."""
    g = snapshot.grid
    fx, fy = gradient(snapshot)
    X, Y = g.meshgrid()
    dist = np.minimum(np.minimum(g.Lx - np.abs(X), Y), g.Ly - Y)
    interior = dist > 0
    vals = np.sqrt(fx.values**2 + fy.values**2)[interior] \
        * dist[interior] ** pc.beta
    return _env("bernstein", vals, X[interior], Y[interior], t)


def j_monitor(snapshot: ScalarField, jp: JParams,
              pc: ProfileConstants) -> float:
    """Maximum of J = u_x + k x y^-gamma (1+y) u^q over probe-box nodes.

    Nodes at y = 0 are excluded (the weight is singular there).
    """
    g = snapshot.grid
    x1, y1 = default_probe_box(g)
    X, Y = g.meshgrid()
    mask = (X > 0) & (X <= x1) & (Y > 0) & (Y <= y1)
    if not np.any(mask):
        raise DomainError(f"probe box (0, {x1}] x (0, {y1}] contains no nodes")
    fx, _ = gradient(snapshot)
    u = np.clip(snapshot.values[mask], 0.0, None)
    return float(np.max(j_model(jp, pc, u, fx.values[mask], X[mask], Y[mask])))


def j_k_ladder(snapshots, pc: ProfileConstants, q: float = None):
    """Largest k = 2^-n, n = 1..20, with max J <= 0 on every snapshot.

    Returns (k, table) with k = 0.0 if no rung passes; table maps each tried
    k to its worst max-J over the window.
    """
    table = {}
    best = 0.0
    for k in (2.0**-n for n in range(1, 21)):
        jp = j_params(pc, k, q)
        worst = max(j_monitor(s, jp, pc) for s in snapshots)
        table[k] = worst
        if worst <= 0.0:
            best = k
            break
    return best, table


def xi_theta_fields(snapshot: ScalarField, pc: ProfileConstants):
    """Node-wise xi = y u_y / u and Theta = y (u_y)^(p-1).

    Defined on {y > 0, u > XI_THETA_FLOOR}; NaN marks absent nodes.
    """
    g = snapshot.grid
    _, fy = gradient(snapshot)
    _, Y = g.meshgrid()
    u = snapshot.values
    ok = (Y > 0) & (u > XI_THETA_FLOOR)
    xi = np.full_like(u, np.nan)
    theta = np.full_like(u, np.nan)
    xi[ok] = Y[ok] * fy.values[ok] / u[ok]
    uy = fy.values[ok]
    theta[ok] = Y[ok] * np.sign(uy) * np.abs(uy) ** (pc.p - 1.0)
    return ScalarField(g, xi), ScalarField(g, theta)


def xi_theta_ranges(snapshot: ScalarField, pc: ProfileConstants):
    """(min, max) of xi and Theta over the probe box."""
    g = snapshot.grid
    x1, y1 = default_probe_box(g)
    xi, theta = xi_theta_fields(snapshot, pc)
    X, Y = g.meshgrid()
    mask = (np.abs(X) <= x1) & (Y > 0) & (Y <= y1) & np.isfinite(xi.values)
    if not np.any(mask):
        raise DomainError("xi/theta probe box contains no usable nodes")
    return ((float(np.min(xi.values[mask])), float(np.max(xi.values[mask]))),
            (float(np.min(theta.values[mask])), float(np.max(theta.values[mask]))))


def boundary_normal_series(snapshots):
    """(t, x, u_y(x, 0, t)) from a list of (t, ScalarField) pairs."""
    ts = []
    rows = []
    xs = None
    for t, f in snapshots:
        if xs is None:
            xs = f.grid.x
        ts.append(t)
        rows.append(_kernels.uy_wall(f.values, f.grid))
    return np.asarray(ts), xs, np.asarray(rows)


def modulation_h(ts, xs, uy_rows, pc: ProfileConstants, T_hat=None):
    """Quasi-stationary height h = (u_y(x, 0, t) / d_p)^(-1/beta).

    Returns a dict with the h table, the count of excluded (nonpositive u_y)
    samples, a log-log fit of h(t_last, x) vs x (expected slope 2/(1-beta))
    and, when T_hat is given, of h(t, 0) vs T_hat - t (expected slope
    1/(1-beta)).
    """
    uy_rows = np.asarray(uy_rows, dtype=float)
    pos = uy_rows > 0
    h = np.full_like(uy_rows, np.nan)
    h[pos] = (uy_rows[pos] / pc.d_p) ** (-1.0 / pc.beta)
    out = {
        "t": np.asarray(ts, dtype=float),
        "x": np.asarray(xs, dtype=float),
        "h": h,
        "n_excluded": int(uy_rows.size - np.count_nonzero(pos)),
        "fit_space": None,
        "fit_time": None,
    }
    xs = np.asarray(xs)
    right = xs > 0
    last = h[-1, :]
    ok = right & np.isfinite(last)
    if np.count_nonzero(ok) >= 5:
        try:
            out["fit_space"] = powerlaw_fit(
                xs[ok], last[ok], (float(np.min(xs[ok])), float(np.max(xs[ok]))))
        except FitError:
            pass
    if T_hat is not None:
        i0 = int(np.argmin(np.abs(xs)))
        col = h[:, i0]
        dt = T_hat - np.asarray(ts, dtype=float)
        ok = (dt > 0) & np.isfinite(col) & (col > 0)
        if np.count_nonzero(ok) >= 5:
            try:
                out["fit_time"] = powerlaw_fit(
                    dt[ok], col[ok], (float(np.min(dt[ok])), float(np.max(dt[ok]))))
            except FitError:
                pass
    return out


def build_report(snapshots, pc: ProfileConstants, q: float = None) -> dict:
    """Full diagnostic pass over a list of (t, ScalarField) snapshot pairs:
    the mapping report.json holds, plus the (t, x, h) table of h_table.csv
    under `h_table`.  A monitor whose probe box holds no usable node records
    {"error": ...} under the keys it fills, as a failed fit does in
    fits.json."""
    envelopes = []
    prev = prev_t = None
    for t, f in snapshots:
        envelopes.extend(monitor_bounds(f, t, prev, prev_t))
        envelopes.append(bernstein_monitor(f, t, pc))
        prev, prev_t = f, t
    out = {"envelopes": envelopes}

    def attempt(keys, fn):
        try:
            out.update(zip(keys, fn()))
        except DomainError as exc:
            out.update(dict.fromkeys(keys, {"error": str(exc)}))

    def ladder():
        # j_k: the largest passing rung (0 if none); j_max: (t, max J) per
        # snapshot at that rung, or at k = 1/2 if none passed
        k, _ = j_k_ladder([f for _, f in snapshots[len(snapshots) * 3 // 4:]],
                          pc, q)
        jp = j_params(pc, k if k > 0 else 0.5, q)
        return k, [(t, j_monitor(f, jp, pc)) for t, f in snapshots]

    attempt(("j_k", "j_max"), ladder)
    attempt(("xi_range", "theta_range"),
            lambda: xi_theta_ranges(snapshots[-1][1], pc))
    h = modulation_h(*boundary_normal_series(snapshots), pc)
    out.update(h_excluded=h["n_excluded"], h_fit_space=h["fit_space"],
               h_fit_time=h["fit_time"], h_table=(h["t"], h["x"], h["h"]))
    return out


def write_report(report: dict, run_dir):
    """Emit report.json and h_table.csv into the run directory."""
    ts, xs, h = report["h_table"]
    write_json(os.path.join(run_dir, "report.json"),
               {k: v for k, v in report.items() if k != "h_table"})
    write_rows(os.path.join(run_dir, "h_table.csv"),
               ["t", *(repr(float(x)) for x in xs)],
               ([t, *row] for t, row in zip(ts, h)))
