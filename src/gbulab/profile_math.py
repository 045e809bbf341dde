"""Closed-form layer: constants, 1D steady states, the anisotropic profile model,
the comparison barrier, manufactured solutions and the J auxiliary function.

Everything here is evaluated analytically (hand-derived derivatives), so the
residual and sign checks built on top of this module carry no discretization
error.  All functions accept scalars or numpy arrays and are pure.

For a solver run, `manufactured_callbacks` binds the manufactured solution to
a grid's nodes once and returns the two callbacks `SolverConfig` takes, each
called with the time alone: forcing(t), the interior forcing, and
boundary(t), the four edges.  They compute the factors of x alone once per
run and give the values of `manufactured_solution` bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularityError

__all__ = [
    "ProfileConstants",
    "BarrierParams",
    "JParams",
    "ManufacturedParams",
    "profile_constants",
    "steady_state",
    "final_profile_model",
    "barrier_params",
    "barrier_eval",
    "calibrate_barrier_c0",
    "manufactured_params",
    "manufactured_solution",
    "BoundManufactured",
    "manufactured_callbacks",
    "j_params",
    "j_model",
]


@dataclass(frozen=True)
class ProfileConstants:
    """Derived constants of the singular layer for a given exponent p > 2.

    beta           normal singularity exponent, 1/(p-1)
    d_p            amplitude of the normal-derivative profile, beta**beta
    c_p            amplitude of the 1D steady state, d_p/(1-beta)
    k_id           concentration exponent of the bump family, (p-2)/(p-1)
    tangential_exp boundary decay exponent, 2/(p-2)
    anisotropy_exp level-set curve exponent, 2(p-1)/(p-2)
    time_rate_exp  gradient growth-in-time exponent, 1/(p-2)
    """

    p: float
    beta: float
    d_p: float
    c_p: float
    k_id: float
    tangential_exp: float
    anisotropy_exp: float
    time_rate_exp: float


def profile_constants(p: float) -> ProfileConstants:
    if not p > 2:
        raise DomainError(f"supercritical exponent required: p > 2, got p={p}")
    beta = 1.0 / (p - 1.0)
    d_p = beta**beta
    return ProfileConstants(
        p=float(p),
        beta=beta,
        d_p=d_p,
        c_p=d_p / (1.0 - beta),
        k_id=(p - 2.0) / (p - 1.0),
        tangential_exp=2.0 / (p - 2.0),
        anisotropy_exp=2.0 * (p - 1.0) / (p - 2.0),
        time_rate_exp=1.0 / (p - 2.0),
    )


def steady_state(a, y, pc: ProfileConstants):
    """Shifted 1D steady state V_a(y) = V(y+a) - V(a) with V(y) = c_p y^(1-beta).

    Returns (value, first derivative, second derivative).  The family satisfies
    -V_a'' = (V_a')**p identically, which the tests assert to near machine
    precision.
    """
    a = np.asarray(a, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(a < 0) or np.any(y < 0):
        raise DomainError("steady_state requires a >= 0 and y >= 0")
    w = a + y
    if np.any(w == 0):
        raise SingularityError("steady_state derivatives undefined at a = y = 0")
    b = pc.beta
    value = pc.c_p * (w ** (1.0 - b) - a ** (1.0 - b))
    d1 = pc.d_p * w ** (-b)
    d2 = -pc.d_p * b * w ** (-b - 1.0)
    if value.ndim == 0:
        return float(value), float(d1), float(d2)
    return value, d1, d2


def final_profile_model(pc: ProfileConstants, C1: float, x, y):
    """Anisotropic final-profile model d_p [y + C1 |x|^(2(p-1)/(p-2))]^(-beta).

    Restricted to x = 0 this is d_p y^(-beta); restricted to y = 0 it decays
    like |x|^(-2/(p-2)).
    """
    if not C1 > 0:
        raise DomainError(f"C1 must be positive, got {C1}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    arg = y + C1 * np.abs(x) ** pc.anisotropy_exp
    if np.any(arg <= 0):
        raise SingularityError("final_profile_model undefined at (0, 0)")
    out = pc.d_p * arg ** (-pc.beta)
    return float(out) if out.ndim == 0 else out


# --------------------------------------------------------------------------
# Comparison barrier
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BarrierParams:
    """Geometry and modulation of the comparison barrier.

    The box is [x0-r, x0+r] x [0, d] over [t0, T); kappa is the quadratic
    correction C0 * eta^(1-beta) * (r^2 + T - t0), with C0 calibrated
    empirically (see calibrate_barrier_c0).
    """

    x0: float
    r: float
    d: float
    t0: float
    T: float
    eta: float
    kappa: float

    def __post_init__(self):
        if not (0 < self.r < 1 and 0 < self.d < 1):
            raise DomainError("barrier requires r, d in (0, 1)")
        if not 0 < self.eta < 1:
            raise DomainError("barrier requires eta in (0, 1)")
        if not self.t0 < self.T:
            raise DomainError("barrier requires t0 < T")
        if not self.kappa > 0:
            raise DomainError("barrier requires kappa > 0")


def barrier_params(pc: ProfileConstants, x0: float, r: float, d: float,
                   t0: float, T: float, eta: float, C0: float) -> BarrierParams:
    kappa = C0 * eta ** (1.0 - pc.beta) * (r * r + T - t0)
    return BarrierParams(x0=x0, r=r, d=d, t0=t0, T=T, eta=eta, kappa=kappa)


def barrier_eval(bp: BarrierParams, pc: ProfileConstants, x, y, t):
    """Evaluate the barrier z, its gradient and the supersolution residual.

    z = c_p [(y + phi)^(1-beta) - phi^(1-beta)] - kappa y^2 / 2 with the
    modulation phi(x,t) = eta (t-t0)^(1/(1-beta)) ((r^2-(x-x0)^2)/r)^(2/(1-beta)).

    Returns (z, (z_x, z_y), residual) with residual = z_t - Lap z - |grad z|^p.
    Products of the form phi^(-beta) * (phi derivatives) are expanded in closed
    form so the evaluation stays finite on the phi = 0 faces (t = t0 and the
    lateral edges).  The residual itself is singular on {y = 0, phi = 0} and
    should be sampled at interior points.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(x - bp.x0) > bp.r + 1e-15) or np.any(y < 0) or np.any(y > bp.d):
        raise DomainError("barrier_eval: point outside the barrier box")
    if np.any(t < bp.t0) or np.any(t >= bp.T):
        raise DomainError("barrier_eval: time outside [t0, T)")

    b = pc.beta
    m = 2.0 / (1.0 - b)  # >= 4 for p <= 3
    eta, r, kappa = bp.eta, bp.r, bp.kappa
    tau = t - bp.t0
    g = (r * r - (x - bp.x0) ** 2) / r
    gp = -2.0 * (x - bp.x0) / r
    gpp = -2.0 / r

    phi = eta * tau ** (m / 2.0) * g**m
    phi_t = eta * (m / 2.0) * _pow0(tau, m / 2.0 - 1.0) * g**m
    phi_x = eta * tau ** (m / 2.0) * m * _pow0(g, m - 1.0) * gp
    phi_xx = eta * tau ** (m / 2.0) * m * (
        (m - 1.0) * _pow0(g, m - 2.0) * gp * gp + _pow0(g, m - 1.0) * gpp
    )

    # phi^(-beta)- and phi^(-beta-1)-weighted combinations, expanded so that the
    # tau and g powers cancel exactly (they are smooth up to phi = 0):
    e = eta ** (1.0 - b)
    Pt = e * (m / 2.0) * g * g                             # phi^-b * phi_t
    Pxx = e * tau * m * ((m - 1.0) * gp * gp + g * gpp)    # phi^-b * phi_xx
    Px2 = e * tau * m * m * gp * gp                        # phi^-(b+1) * phi_x^2
    Px = e * tau * m * g * gp                              # phi^-b * phi_x

    w = y + phi
    wmb = w ** (-b)
    wmb1 = w ** (-b - 1.0)

    z = pc.c_p * (w ** (1.0 - b) - phi ** (1.0 - b)) - kappa * y * y / 2.0
    z_x = pc.d_p * (wmb * phi_x - Px)
    z_y = pc.d_p * wmb - kappa * y
    z_t = pc.d_p * (wmb * phi_t - Pt)
    z_xx = pc.d_p * (wmb * phi_xx - Pxx) - pc.d_p * b * (wmb1 * phi_x * phi_x - Px2)
    z_yy = -pc.d_p * b * wmb1 - kappa

    grad_p = (z_x * z_x + z_y * z_y) ** (pc.p / 2.0)
    residual = z_t - z_xx - z_yy - grad_p

    if z.ndim == 0:
        return float(z), (float(z_x), float(z_y)), float(residual)
    return z, (z_x, z_y), residual


def _pow0(base, expo):
    """base**expo with the 0**0-adjacent corner pinned to 0 for base == 0.

    Used for powers that always appear multiplied by a vanishing factor.
    """
    base = np.asarray(base, dtype=float)
    out = np.where(base > 0, np.power(np.where(base > 0, base, 1.0), expo), 0.0)
    return out


def calibrate_barrier_c0(pc: ProfileConstants, x0: float, r: float, d: float,
                         t0: float, T: float, eta: float,
                         lattice=(20, 20, 10)):
    """Find the smallest C0 = 2^k, k = -10..10, whose kappa makes the sampled
    barrier residual nonnegative on an interior lattice.

    Returns (C0, BarrierParams, min_residual).  Raises DomainError if no ladder
    entry works.
    """
    nx, ny, nt = lattice
    xs = x0 + np.linspace(-r, r, nx + 2)[1:-1]
    ys = np.linspace(0.0, d, ny + 1)[1:]
    ts = t0 + (T - t0) * np.linspace(0.0, 1.0, nt + 1)[:-1]
    X, Y, Tm = np.meshgrid(xs, ys, ts, indexing="ij")
    for C0 in (2.0**k for k in range(-10, 11)):
        bp = barrier_params(pc, x0, r, d, t0, T, eta, C0)
        _, _, res = barrier_eval(bp, pc, X, Y, Tm)
        rmin = float(np.min(res))
        if rmin >= 0:
            return C0, bp, rmin
    raise DomainError("no C0 in the ladder yields a nonnegative barrier residual")


# --------------------------------------------------------------------------
# Manufactured solutions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ManufacturedParams:
    """Modulated quasi-stationary family with bounded forcing.

    alpha >= (p-1)/(p-2) controls how fast the modulation collapses; T is the
    (exact) blow-up time.
    """

    alpha: float
    T: float


def manufactured_params(pc: ProfileConstants, alpha: float, T: float) -> ManufacturedParams:
    min_alpha = (pc.p - 1.0) / (pc.p - 2.0)
    if alpha < min_alpha - 1e-12:
        raise DomainError(
            f"alpha must be >= (p-1)/(p-2) = {min_alpha}, got {alpha}")
    return ManufacturedParams(alpha=float(alpha), T=float(T))


def _x_factors(mp: ManufacturedParams, x):
    """The factors that depend on x alone: (|x|^(2 alpha), s_x, s_xx)."""
    al = mp.alpha
    ax = np.abs(x)
    return (ax ** (2.0 * al),
            2.0 * al * np.sign(x) * _pow0(ax, 2.0 * al - 1.0),
            2.0 * al * (2.0 * al - 1.0) * _pow0(ax, 2.0 * al - 2.0))


def _t_factors(mp: ManufacturedParams, t):
    """The factors that depend on t alone: ((T-t)^alpha, s_t)."""
    t = np.asarray(t, dtype=float)
    if np.any(t > mp.T):
        raise DomainError("manufactured_solution requires t <= T")
    return (_pow0(mp.T - t, mp.alpha),
            -mp.alpha * _pow0(mp.T - t, mp.alpha - 1.0))


def _s_of(x2a, tpow, y):
    """s = |x|^(2 alpha) + (T-t)^alpha, refusing the corner s = y = 0."""
    s = x2a + tpow
    if np.any(s == 0) and np.any((s == 0) & (y == 0)):
        raise SingularityError("manufactured_solution singular at (0, 0, T)")
    return s


def _u(pc: ProfileConstants, s, w):
    return pc.c_p * (w ** (1.0 - pc.beta) - s ** (1.0 - pc.beta))


def _derivatives(pc: ProfileConstants, s, w, s_x, s_xx, s_t, work):
    """(u_x, u_y, u_t, laplacian, forcing) at w = s + y, written into the
    first five of the seven arrays `work`, of w's shape; the last two are
    scratch.

    Each product keeps the order of the closed form.  Writing into `work`
    rather than into fresh temporaries spares a caller that repeats the call
    the page faults of allocating them anew: glibc hands a freed heap top of
    over 128 KiB back to the system, and one 127^2 array is 126 KiB.
    """
    b = pc.beta
    u_x, u_y, u_t, lap, forcing, tmp, tmp2 = work
    # s = 0 only at the singular corner (excluded by _s_of); elsewhere the
    # s^(-b)-weighted terms are finite because s_x and s_t vanish with s.
    with np.errstate(divide="ignore"):
        smb = _pow0(s, -b)
        smb1 = _pow0(s, -b - 1.0)
    np.power(w, -b, out=u_y)
    np.power(w, -b - 1.0, out=lap)
    np.subtract(u_y, smb, out=forcing)
    forcing *= pc.d_p                       # d_p (w^-b - s^-b)
    np.multiply(forcing, s_x, out=u_x)
    np.multiply(forcing, s_t, out=u_t)
    u_y *= pc.d_p
    forcing *= s_xx
    np.subtract(lap, smb1, out=tmp)
    tmp *= pc.d_p * b
    tmp *= s_x
    tmp *= s_x
    forcing -= tmp                          # u_xx
    lap *= -pc.d_p * b                      # u_yy
    np.add(forcing, lap, out=lap)
    np.subtract(u_t, lap, out=forcing)
    np.multiply(u_x, u_x, out=tmp)
    np.multiply(u_y, u_y, out=tmp2)
    tmp += tmp2
    np.power(tmp, pc.p / 2.0, out=tmp)
    forcing -= tmp
    return u_x, u_y, u_t, lap, forcing


def _work(shape) -> tuple:
    """The arrays `_derivatives` writes into."""
    return tuple(np.empty(shape) for _ in range(7))


def manufactured_solution(mp: ManufacturedParams, pc: ProfileConstants, x, y, t):
    """Closed-form u with an isolated boundary gradient singularity at (0,0,T).

        u = c_p [ (s + y)^(1-beta) - s^(1-beta) ],   s = |x|^(2 alpha) + (T-t)^alpha

    Returns (u, u_x, u_y, u_t, laplacian, forcing) where
    forcing = u_t - Lap u - |grad u|^p, bounded away from (0, 0, T).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    tpow, s_t = _t_factors(mp, t)
    x2a, s_x, s_xx = _x_factors(mp, x)
    s = _s_of(x2a, tpow, y)
    w = s + y
    u = _u(pc, s, w)
    u_x, u_y, u_t, lap, forcing = _derivatives(pc, s, w, s_x, s_xx, s_t,
                                               _work(w.shape))
    if u.ndim == 0:
        return (float(u), float(u_x), float(u_y), float(u_t),
                float(lap), float(forcing))
    return u, u_x, u_y, u_t, lap, forcing


class BoundManufactured:
    """The manufactured solution on fixed nodes (x, y), called with the time
    alone.

    x and y broadcast against each other: a row of x against a column of y
    spans a tensor grid.  The factors of x alone are computed once, and s,
    which depends on x and t only, is computed on x's shape; only w = s + y
    and what follows take the full shape.  The arithmetic is that of
    `manufactured_solution`, so the values equal its values on the same
    nodes bit for bit.

    `forcing` writes into arrays the evaluator owns, so an evaluator serves
    one run at a time, and the next call overwrites the array it returned.
    """

    def __init__(self, mp: ManufacturedParams, pc: ProfileConstants, x, y):
        self.mp, self.pc = mp, pc
        self.x2a, self.s_x, self.s_xx = _x_factors(
            mp, np.asarray(x, dtype=float))
        self.y = np.asarray(y, dtype=float)
        shape = np.broadcast_shapes(self.x2a.shape, self.y.shape)
        self._w = np.empty(shape)
        self._work = _work(shape)

    def u(self, t):
        """The exact values at time t."""
        tpow, _ = _t_factors(self.mp, t)
        s = _s_of(self.x2a, tpow, self.y)
        return _u(self.pc, s, s + self.y)

    def forcing(self, t):
        """u_t - Lap u - |grad u|^p at time t."""
        tpow, s_t = _t_factors(self.mp, t)
        s = _s_of(self.x2a, tpow, self.y)
        w = np.add(s, self.y, out=self._w)
        return _derivatives(self.pc, s, w, self.s_x, self.s_xx, s_t,
                            self._work)[-1]


def manufactured_callbacks(mp: ManufacturedParams, pc: ProfileConstants,
                           x, y):
    """The solver callbacks of the manufactured solution on the tensor grid
    of the node coordinates x (nx) and y (ny).

    Returns (forcing, boundary): forcing(t) is the forcing on the interior
    nodes, a (ny-2, nx-2) array that the next call overwrites, and
    boundary(t) the exact values on the edges (bottom, top, left, right).
    One evaluator serves the four edges, laid end to end.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    nx, ny = x.size, y.size
    interior = BoundManufactured(mp, pc, x[1:-1], y[1:-1, None])
    edges = BoundManufactured(
        mp, pc, np.concatenate([x, x, 0.0 * y + x[0], 0.0 * y + x[-1]]),
        np.concatenate([0.0 * x, 0.0 * x + y[-1], y, y]))

    def boundary(t):
        u = edges.u(t)
        return (u[:nx], u[nx:2 * nx], u[2 * nx:2 * nx + ny],
                u[2 * nx + ny:])

    return interior.forcing, boundary


# --------------------------------------------------------------------------
# J auxiliary function
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class JParams:
    """Parameters of J = u_x + k x y^(-gamma) (1+y) u^q, gamma = q(1-beta)."""

    k: float
    q: float
    gamma: float


def j_params(pc: ProfileConstants, k: float, q: float | None = None) -> JParams:
    if q is None:
        q = pc.p  # satisfies q > p-1 with margin 1
    if not q > pc.p - 1.0:
        raise DomainError(f"J requires q > p-1 = {pc.p - 1.0}, got q={q}")
    if not 0 < k < 1:
        raise DomainError(f"J requires k in (0, 1), got k={k}")
    return JParams(k=float(k), q=float(q), gamma=float(q) * (1.0 - pc.beta))


def j_model(jp: JParams, pc: ProfileConstants, u, u_x, x, y):
    """Pointwise J value; nonpositivity near the singularity encodes tangential
    decay of the profile."""
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0):
        raise SingularityError("j_model weight diverges at y = 0")
    u = np.asarray(u, dtype=float)
    if np.any(u < 0):
        raise DomainError("j_model requires u >= 0")
    out = (np.asarray(u_x, dtype=float)
           + jp.k * np.asarray(x, dtype=float) * y ** (-jp.gamma)
           * (1.0 + y) * u**jp.q)
    return float(out) if out.ndim == 0 else out
