"""Log-log power-law regression and the headline exponent extractions:
normal decay of u_y(0, y), tangential decay of u_y(x, 0), the 1D time rate,
the two-parameter anisotropic profile fit, and level-set curve shapes.

The 2D fits read the final snapshot's u_y as a ScalarField, derived once by
`diagnostics.build_report` and handed to each of them.

Fit windows exclude the innermost grid cells and the resolution crossover —
the scale below which the grid saturates and measured slopes bias toward 0.
Window edges are stated in node coordinates, so they hold on graded grids.
The near-wall y windows start at the floor that `wall_floor` gives, which
their caller (`cli.compute_fits`) forms once and passes to each; the
tangential window starts at the larger of the third node beside x = 0 and
its own crossover.  EXTENT is the top of the tangential window and the side
of the anisotropic and level-set boxes; the normal window stays [wall
floor, `_normal_top`], whose top is min(0.1, Ly).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitError
from .grid import ScalarField
from .profile_math import ProfileConstants, final_profile_model

__all__ = [
    "PowerLawFit",
    "AnisoFit",
    "powerlaw_fit",
    "wall_floor",
    "fit_normal",
    "fit_tangential",
    "resolution_crossover",
    "fit_time_rate",
    "fit_aniso",
    "level_set_curve",
    "level_set_shape",
]

EXTENT = 0.1


def _normal_top(g) -> float:
    """Top of the normal window on grid g, min(0.1, Ly): the upper edge of
    the u_y(0, y) fit and of its resolution crossover's search."""
    return min(0.1, g.Ly)


@dataclass(frozen=True)
class PowerLawFit:
    exponent: float
    amplitude: float
    r_squared: float
    window: tuple
    n_points: int


@dataclass(frozen=True)
class AnisoFit:
    C1_hat: float
    residual_rel: float


def _line_fit(x, y):
    """(slope, intercept, r_squared) of the least-squares line y ~ x."""
    A = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return slope, intercept, r2


def powerlaw_fit(s, v, window=None) -> PowerLawFit:
    """OLS fit of log v against log s over s in [window[0], window[1]],
    by default the samples' own range.

    Nonpositive samples inside the window are excluded; fewer than 5 usable
    samples is an error.
    """
    s = np.asarray(s, dtype=float)
    v = np.asarray(v, dtype=float)
    if window is None:
        window = (float(np.min(s)), float(np.max(s)))
    lo, hi = window
    mask = (s >= lo) & (s <= hi) & (s > 0) & (v > 0)
    n = int(np.count_nonzero(mask))
    if n < 5:
        raise FitError(f"powerlaw_fit: {n} usable samples in window "
                       f"[{lo:.4g}, {hi:.4g}], need >= 5")
    slope, intercept, r2 = _line_fit(np.log(s[mask]), np.log(v[mask]))
    return PowerLawFit(exponent=float(slope), amplitude=float(np.exp(intercept)),
                       r_squared=min(max(r2, 0.0), 1.0),
                       window=(float(lo), float(hi)), n_points=n)


def wall_floor(uy: ScalarField, pc: ProfileConstants, layer: bool) -> float:
    """Lower edge of the near-wall y windows (normal fit, anisotropic fit,
    level-set selection).

    It is the third node above the wall, y[3]: the centered stencil on the
    layer profile is ~40% off at the first interior row and second-order
    accurate from the third on.  With `layer` set (a run that blew up) it is
    raised to the resolution crossover of u_y(0, y) when that lies higher:
    below the crossover the grid saturates the layer d_p y^(-beta), which on
    a graded grid spans many rows.  A run that decayed has no layer to
    saturate, so only the node floor applies.
    """
    g = uy.grid
    floor = float(g.y[3])
    if layer:
        floor = max(floor, resolution_crossover(g.y, uy.values[:, g.ix0],
                                                -pc.beta, _normal_top(g)))
    return floor


def fit_normal(uy: ScalarField, floor: float) -> PowerLawFit:
    """Fit u_y(0, y) vs y over [floor, `_normal_top`], floor as `wall_floor`
    gives it; the expected slope is -beta with amplitude d_p."""
    g = uy.grid
    return powerlaw_fit(g.y, uy.values[:, g.ix0], (floor, _normal_top(g)))


def resolution_crossover(s, v, target_exponent, hi):
    """Smallest scale above which the measured local log-slope keeps at least
    half the target steepness: the smallest s if no node is too flat.
    FitError if the outermost node is too flat, or if fewer than 5 samples
    have s in (0, hi] and v > 0.

    The local slope is a centered difference of log v over log s.
    """
    s = np.asarray(s, dtype=float)
    v = np.asarray(v, dtype=float)
    mask = (s > 0) & (v > 0) & (s <= hi)
    s, v = s[mask], v[mask]
    order = np.argsort(s)
    s, v = s[order], v[order]
    if s.size < 5:
        raise FitError("resolution_crossover: not enough positive samples")
    ls, lv = np.log(s), np.log(v)
    slope = np.gradient(lv, ls)
    steep = np.abs(slope) >= 0.5 * abs(target_exponent)
    # walk outward: crossover is past the last inner node that is too flat
    flat = np.nonzero(~steep)[0]
    if flat.size == 0:
        return float(s[0])
    if flat[-1] == s.size - 1:
        raise FitError("insufficient resolution: no steep outer window")
    return float(s[flat[-1] + 1])


def fit_tangential(uy: ScalarField, pc: ProfileConstants) -> PowerLawFit:
    """Fit one-sided u_y(x, 0) vs x > 0 up to EXTENT; the expected slope is
    -2/(p-2).

    The window's lower edge is the resolution crossover (the discrete profile
    plateaus below it); an outer decade that never steepens is an error.
    """
    g = uy.grid
    wall = uy.values[0, g.ix0 + 1:]
    xs = g.x[g.ix0 + 1:]
    lo = resolution_crossover(xs, wall, -pc.tangential_exp, EXTENT)
    lo = max(lo, float(xs[2]))  # the third node beside x = 0
    if EXTENT / lo < 2.0:
        raise FitError(f"insufficient resolution: tangential window "
                       f"[{lo:.4g}, {EXTENT:.4g}] narrower than a factor 2")
    return powerlaw_fit(xs, wall, (lo, EXTENT))


def _last_growth_decade(series: dict):
    """(t, grad_max) of the series over its monotone tail where grad_max >=
    its last value / 10."""
    t = np.asarray(series["t"], dtype=float)
    gmax = np.asarray(series["grad_max"], dtype=float)
    i0 = np.nonzero(gmax >= gmax[-1] / 10.0)[0][0]
    # trim any non-monotone stretch at the front of the decade
    tail = gmax[i0:]
    drops = np.nonzero(np.diff(tail) < 0)[0]
    if drops.size:
        i0 += drops[-1] + 1
    if len(t) - i0 < 5:
        raise FitError("time-rate fit: fewer than 5 samples in the last "
                       "growth decade")
    return t[i0:], gmax[i0:]


def fit_time_rate(series: dict, pc: ProfileConstants):
    """(power-law fit of grad_max vs T_hat - t, T_hat, r_squared) on the
    last growth decade; expected slope -1/(p-2).  T_hat is the zero crossing
    of the linear fit of grad_max^-(p-2) against t, r_squared that fit's."""
    t, g = _last_growth_decade(series)
    slope, intercept, r2 = _line_fit(t, g ** (-(pc.p - 2.0)))
    if not slope < 0:
        raise FitError("time-rate fit: grad_max^-(p-2) is not decreasing")
    T_hat = float(-intercept / slope)
    dt = T_hat - t
    keep = dt > 0
    return powerlaw_fit(dt[keep], g[keep]), T_hat, float(r2)


def _aniso_region(uy: ScalarField, floor: float):
    """(x, y, measured u_y) over [0, EXTENT]^2 from y = floor up."""
    X, Y = uy.grid.meshgrid()
    v = uy.values
    mask = (X >= 0) & (X <= EXTENT) & (Y >= floor) & (Y <= EXTENT) & (v > 0)
    if np.count_nonzero(mask) < 5:
        raise FitError("fit_aniso: fewer than 5 usable nodes in the region")
    return X[mask], Y[mask], v[mask]


def fit_aniso(uy: ScalarField, pc: ProfileConstants,
              floor: float) -> AnisoFit:
    """Golden-section search on C1 minimizing the max relative deviation of
    measured u_y from d_p [y + C1 |x|^(2(p-1)/(p-2))]^(-beta) over
    [0, EXTENT] x [floor, EXTENT], floor as `wall_floor` gives it."""
    xs, ys, v = _aniso_region(uy, floor)

    def cost(logc):
        model = final_profile_model(pc, float(np.exp(logc)), xs, ys)
        return float(np.max(np.abs(v - model) / model))

    lo, hi = np.log(1e-3), np.log(1e3)
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = cost(c), cost(d)
    for _ in range(80):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = cost(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = cost(d)
    logc = (a + b) / 2.0
    return AnisoFit(C1_hat=float(np.exp(logc)), residual_rel=cost(logc))


def _crossings(v, ys, level):
    """(the columns of v that cross the level downward as ys rises, the
    height of each one's first such crossing, linearly interpolated)."""
    down = (v[:-1] >= level) & (v[1:] < level)
    cols = np.nonzero(down.any(axis=0))[0]
    j = np.argmax(down[:, cols], axis=0)
    hi, lo = v[j, cols], v[j + 1, cols]
    return cols, ys[j] + (hi - level) / (hi - lo) * (ys[j + 1] - ys[j])


def level_set_curve(uy: ScalarField, level: float):
    """Per-column crossing heights of u_y = level for 0 < x <= EXTENT.

    Each column is scanned upward; the first downward crossing is located by
    linear interpolation.  Returns (x, y) arrays of the crossings found.
    """
    g = uy.grid
    xs = g.x[g.ix0 + 1:]
    xs = xs[xs <= EXTENT]  # the nodes rise, so these are the first columns
    cols, ys = _crossings(uy.values[:, g.ix0 + 1:g.ix0 + 1 + xs.size], g.y,
                          level)
    if cols.size < 5:
        raise FitError(f"level {level:.4g} crossed in only {cols.size} "
                       "columns, need >= 5")
    return xs[cols], ys


def level_set_shape(uy: ScalarField, level: float) -> PowerLawFit:
    """Fit the sag of the level-set curve of u_y below its apex at x = 0.

    On the layer-profile model u_y = d_p [y + C1 |x|^a]^(-beta) the crossing
    height is y(x) = y(0) - C1 |x|^a, so y(0) - y(x) is a pure power law with
    the anisotropy exponent a = 2(p-1)/(p-2).  Columns whose sag is below a
    tenth of the largest one are dropped: there the sag is sub-resolution and
    the interpolated heights are noise-dominated.

    The model holds only for crossings far above the saturation scale
    y_sat = (grad_max/d_p)^(-(p-1)), where the grid and the quasi-stationary
    layer flatten u_y.  With the level a fraction f of u_y at the window
    floor (~ y_sat) and u_y ~ y^(-beta), the apex sits at y_sat f^(-(p-1))
    or higher; keeping it >= 1e3 y_sat gives f <= 10^(-3 beta), 0.03 for
    p = 3.
    """
    g = uy.grid
    apex, y0 = _crossings(uy.values[:, g.ix0:g.ix0 + 1], g.y, level)
    if not apex.size:
        raise FitError(f"level {level:.4g} not crossed on the x = 0 column")
    xs, ys = level_set_curve(uy, level)
    sag = y0[0] - ys
    keep = sag >= max(float(np.max(sag)), 0.0) / 10.0
    if np.count_nonzero(keep) < 5:
        raise FitError("level-set sag resolved in fewer than 5 columns")
    return powerlaw_fit(xs[keep], sag[keep])

