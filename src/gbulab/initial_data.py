"""Initial-data constructors: the concentrated bump family and a generic
symmetric monotone cap for control runs.

Both produce fields that are even in x, vanish on the boundary, are
nonnegative and satisfy the discrete monotonicity x * u_x <= 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .grid import Grid2D, ScalarField

__all__ = ["BumpParams", "concentrated_bump", "symmetric_cap"]


@dataclass(frozen=True)
class BumpParams:
    C_amp: float
    epsilon: float
    p: float

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ConfigurationError("bump requires epsilon > 0")
        if not self.C_amp > 0:
            raise ConfigurationError("bump requires C_amp > 0")


def _cutoff(s: np.ndarray) -> np.ndarray:
    """Quintic cutoff: 1 for s <= 1/4, 0 for s >= 1/2, C^2 smoothstep between,
    in the factored form that cannot round below 0 near tau = 1."""
    tau = np.clip((s - 0.25) / 0.25, 0.0, 1.0)
    return (1.0 - tau) ** 3 * (6.0 * tau**2 + 3.0 * tau + 1.0)


def concentrated_bump(bp: BumpParams, g: Grid2D) -> ScalarField:
    """C eps^k * cutoff(eps^-1 sqrt(x^2 + (y-eps)^2)) with k = (p-2)/(p-1).

    The support {x^2 + (y-eps)^2 <= (eps/2)^2} must fit inside the rectangle
    and be resolved by the grid (every spacing hx, hy <= eps/8).
    """
    eps = bp.epsilon
    hx, hy = (float(np.max(np.diff(c))) for c in (g.x, g.y))  # the largest
    if hx > eps / 8 or hy > eps / 8:
        raise ConfigurationError(
            f"grid does not resolve epsilon={eps}: need hx, hy <= {eps / 8}, "
            f"got hx={hx:.3g}, hy={hy:.3g}")
    if eps / 2 > g.Lx or 1.5 * eps > g.Ly:
        raise ConfigurationError(
            f"bump support (|x| <= {eps / 2}, y <= {1.5 * eps}) exceeds the "
            f"rectangle [{-g.Lx}, {g.Lx}] x [0, {g.Ly}]")
    k = (bp.p - 2.0) / (bp.p - 1.0)
    X, Y = g.meshgrid()
    s = np.sqrt(X**2 + (Y - eps) ** 2) / eps
    return ScalarField(g, bp.C_amp * eps**k * _cutoff(s))


def symmetric_cap(amplitude: float, width: float, g: Grid2D) -> ScalarField:
    """amplitude * cos^2(pi x / (2 width)) * sin(pi y / Ly), zero for |x| >= width."""
    if not 0 < width <= g.Lx:
        raise ConfigurationError(f"cap width {width} is not in (0, Lx={g.Lx}]")
    X, Y = g.meshgrid()
    vals = amplitude * np.cos(np.pi * X / (2.0 * width)) ** 2 * np.sin(np.pi * Y / g.Ly)
    vals[np.abs(X) >= width] = 0.0
    vals[0, :] = 0.0
    vals[-1, :] = 0.0
    return ScalarField(g, vals)
