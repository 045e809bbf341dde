"""Runtime monitors for the maximum-principle bounds, the Bernstein gradient
bound, the J-function sign, the xi/Theta normalized profiles and the
quasi-stationary modulation height h(t, x).

All monitors are pure functions of persisted snapshots, so re-running them
offline is bit-reproducible.  They take the snapshot's gradient (`grad`, as
`grid.gradient` returns it) and the grid's arrays (`Geometry`) from their
caller: `build_report` computes the gradient once per snapshot and the
arrays once per report.
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
    "Geometry",
    "monitor_bounds",
    "bernstein_monitor",
    "j_monitor",
    "j_k_ladder",
    "xi_theta_fields",
    "xi_theta_ranges",
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


class Geometry:
    """The masks and arrays of grid g that the monitors of every snapshot
    share; `build_report` makes one per report.  Of full-size float arrays
    it keeps only dist^beta: keeping the x and y of every mask's nodes as
    well raised the peak RSS of `gbulab run p3-blowup` by 3.6 MB (8%)."""

    def __init__(self, g, pc: ProfileConstants):
        self.X, self.Y = X, Y = g.meshgrid()  # views, of no size
        self.omega = (np.abs(X) <= g.Lx / 2.0) & (Y <= g.Ly / 2.0)  # Omega'
        self.inner = self.omega.copy()  # without the side columns, for u_xx
        self.inner[:, 0] = self.inner[:, -1] = False
        # Omega' without the x = 0 column, for u_x / x
        self.offaxis = self.omega & (np.abs(X) > g.x[g.ix0 + 1] / 2.0)
        dist = np.minimum(np.minimum(g.Lx - np.abs(X), Y), g.Ly - Y)
        self.interior = dist > 0
        self.dist_beta = dist[self.interior] ** pc.beta
        self.probe_box = x1, y1 = default_probe_box(g)
        self.probe = (X > 0) & (X <= x1) & (Y > 0) & (Y <= y1)  # J
        self.probe_xy = X[self.probe], Y[self.probe]
        self.xi_box = (np.abs(X) <= x1) & (Y > 0) & (Y <= y1)


def _env(name, values, mask, geo: Geometry, t, lower=0.0):
    i = int(np.argmax(values))
    node = np.flatnonzero(mask)[i]  # values[i] is at the i-th node of mask
    worst = float(values[i])
    loc = (float(geo.X.flat[node]), float(geo.Y.flat[node]), float(t))
    return MonitorEnvelope(name=name, worst_value=worst, worst_location=loc,
                           envelope_constant=max(worst, lower))


def monitor_bounds(snapshot: ScalarField, t: float, grad, geo: Geometry,
                   prev: ScalarField = None, prev_t: float = None):
    """Envelope constants over the half-size box for the one-sided bounds
    |u_t| <= C, u_y >= -C, u_xx >= -C, |u_x| <= C|x|, and sup u.

    u_t uses a backward difference between consecutive snapshots; with a
    single snapshot that monitor is skipped.
    """
    u = snapshot.values
    fx, fy = grad
    omega, inner, offaxis = geo.omega, geo.inner, geo.offaxis
    out = []

    if prev is not None:
        dt = t - prev_t
        if not dt > 0:
            raise DomainError("monitor_bounds: snapshots must advance in time")
        ut = np.abs(u - prev.values) / dt
        out.append(_env("ut_bound", ut[omega], omega, geo, t))

    out.append(_env("uy_lower", -fy.values[omega], omega, geo, t))

    uxx = _kernels.u_xx(u, snapshot.grid)  # on the interior columns
    out.append(_env("uxx_lower", -uxx[inner[:, 1:-1]], inner, geo, t))

    ratio = np.abs(fx.values[offaxis]) / np.abs(geo.X[offaxis])
    out.append(_env("ux_linear", ratio, offaxis, geo, t))

    out.append(_env("max_principle_sup", u[omega], omega, geo, t))
    return out


def bernstein_monitor(grad, geo: Geometry, t: float) -> MonitorEnvelope:
    """sup over interior nodes of |grad u| * dist^beta with dist the distance
    to the boundary of the rectangle."""
    fx, fy = (f.values[geo.interior] for f in grad)
    vals = np.sqrt(fx**2 + fy**2) * geo.dist_beta
    return _env("bernstein", vals, geo.interior, geo, t)


def j_monitor(probe, geo: Geometry, jp: JParams, pc: ProfileConstants) -> float:
    """Maximum of J = u_x + k x y^-gamma (1+y) u^q over probe-box nodes,
    given probe, a snapshot and its u_x on the probe box (`Geometry.probe`).

    Nodes at y = 0 are excluded (the weight is singular there).
    """
    snapshot, ux = probe
    if not ux.size:
        x1, y1 = geo.probe_box
        raise DomainError(f"probe box (0, {x1}] x (0, {y1}] contains no nodes")
    u = np.clip(snapshot.values[geo.probe], 0.0, None)
    return float(np.max(j_model(jp, pc, u, ux, *geo.probe_xy)))


def j_k_ladder(probes, geo: Geometry, pc: ProfileConstants, q: float = None):
    """Largest k = 2^-n, n = 1..20, with max J <= 0 on every snapshot, given
    each with its u_x on the probe box.

    Returns (k, table) with k = 0.0 if no rung passes; table maps each tried
    k to its worst max-J over the window.
    """
    table = {}
    for k in (2.0**-n for n in range(1, 21)):
        jp = j_params(pc, k, q)
        table[k] = max(j_monitor(p, geo, jp, pc) for p in probes)
        if table[k] <= 0.0:
            return k, table
    return 0.0, table


def xi_theta_fields(snapshot: ScalarField, grad, geo: Geometry,
                    pc: ProfileConstants):
    """Node-wise xi = y u_y / u and Theta = y (u_y)^(p-1).

    Defined on {y > 0, u > XI_THETA_FLOOR}; NaN marks absent nodes.
    """
    fy, Y, u = grad[1].values, geo.Y, snapshot.values
    ok = (Y > 0) & (u > XI_THETA_FLOOR)
    xi = np.full_like(u, np.nan)
    theta = np.full_like(u, np.nan)
    xi[ok] = Y[ok] * fy[ok] / u[ok]
    uy = fy[ok]
    theta[ok] = Y[ok] * np.sign(uy) * np.abs(uy) ** (pc.p - 1.0)
    return ScalarField(snapshot.grid, xi), ScalarField(snapshot.grid, theta)


def xi_theta_ranges(snapshot: ScalarField, grad, geo: Geometry,
                    pc: ProfileConstants):
    """(min, max) of xi and Theta over the probe box."""
    xi, theta = xi_theta_fields(snapshot, grad, geo, pc)
    mask = geo.xi_box & np.isfinite(xi.values)
    if not np.any(mask):
        raise DomainError("xi/theta probe box contains no usable nodes")
    return ((float(np.min(xi.values[mask])), float(np.max(xi.values[mask]))),
            (float(np.min(theta.values[mask])), float(np.max(theta.values[mask]))))


def modulation_h(xs, uy_rows, pc: ProfileConstants):
    """Quasi-stationary height h = (u_y(x, 0, t) / d_p)^(-1/beta), given
    u_y on the wall nodes xs, one row per time.

    Returns a dict with the h table, the count of excluded (nonpositive u_y)
    samples and a log-log fit of h(t_last, x) vs x (expected slope
    2/(1-beta)).
    """
    uy_rows = np.asarray(uy_rows, dtype=float)
    pos = uy_rows > 0
    h = np.full_like(uy_rows, np.nan)
    h[pos] = (uy_rows[pos] / pc.d_p) ** (-1.0 / pc.beta)
    xs, last = np.asarray(xs, dtype=float), h[-1, :]
    return {
        "h": h,
        "n_excluded": int(uy_rows.size - np.count_nonzero(pos)),
        "fit_space": _powerlaw_or_none(xs, last,
                                       (xs > 0) & np.isfinite(last)),
    }


def _powerlaw_or_none(x, y, ok):
    """powerlaw_fit of y against x over the nodes ok and their range; None
    with fewer than 5 nodes or no fit."""
    if np.count_nonzero(ok) < 5:
        return None
    try:
        return powerlaw_fit(x[ok], y[ok])
    except FitError:
        return None


def build_report(snapshots, pc: ProfileConstants, q: float = None) -> dict:
    """Full diagnostic pass over a list of (t, ScalarField) snapshot pairs:
    the mapping report.json holds, plus the (t, x, h) table of h_table.csv
    under `h_table`.  Each snapshot's gradient is computed once, and of it
    only u_x on the J probe box and u_y on the wall y = 0 are kept past its
    own monitors.  A monitor whose probe box holds no usable node records
    {"error": ...} under the keys it fills, as a failed fit does in
    fits.json."""
    geo = Geometry(snapshots[0][1].grid, pc)
    envelopes, probes = [], []
    walls = np.empty((len(snapshots), geo.X.shape[1]))  # u_y(x, 0), for h
    prev = prev_t = None
    for (t, f), wall in zip(snapshots, walls):
        grad = gradient(f)
        envelopes.extend(monitor_bounds(f, t, grad, geo, prev, prev_t))
        envelopes.append(bernstein_monitor(grad, geo, t))
        probes.append((f, grad[0].values[geo.probe]))
        wall[:] = grad[1].values[0]
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
        k, _ = j_k_ladder(probes[len(probes) * 3 // 4:], geo, pc, q)
        jp = j_params(pc, k if k > 0 else 0.5, q)
        return k, [(t, j_monitor(p, geo, jp, pc))
                   for (t, _), p in zip(snapshots, probes)]

    attempt(("j_k", "j_max"), ladder)
    probes.clear()  # used up: freed before the xi/Theta fields, the peak
    attempt(("xi_range", "theta_range"),  # f and grad of the last snapshot
            lambda: xi_theta_ranges(f, grad, geo, pc))
    h = modulation_h(f.grid.x, walls, pc)
    out.update(h_excluded=h["n_excluded"], h_fit_space=h["fit_space"],
               h_table=([t for t, _ in snapshots], f.grid.x, h["h"]))
    return out


def write_report(report: dict, run_dir):
    """Emit report.json and h_table.csv into the run directory."""
    ts, xs, h = report["h_table"]
    write_json(os.path.join(run_dir, "report.json"),
               {k: v for k, v in report.items() if k != "h_table"})
    write_rows(os.path.join(run_dir, "h_table.csv"),
               ["t", *(repr(float(x)) for x in xs)],
               ([t, *row] for t, row in zip(ts, h)))
