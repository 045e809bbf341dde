"""Initial data of a 2D run: the symmetric monotone cap.

Its field is even in x, vanishes on the boundary, is nonnegative and
satisfies the discrete monotonicity x * u_x <= 0.  The sine arch of a 1D run
is built by `cli.RunConfig.make_initial`.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .grid import Grid2D, ScalarField

__all__ = ["symmetric_cap"]


def symmetric_cap(amplitude: float, width: float, g: Grid2D) -> ScalarField:
    """amplitude * cos^2(pi x / (2 width)) * sin(pi y / Ly), zero for
    |x| >= width and on the walls y = 0 and y = Ly.

    On x nodes that are mirror images about x = 0 the values are even in x
    bit for bit, as cos is, so an unforced run of them steps x >= 0 alone
    (`solver`).
    """
    if not 0 < width <= g.Lx:
        raise ConfigurationError(f"cap width {width} is not in (0, Lx={g.Lx}]")
    X, Y = g.meshgrid()
    vals = amplitude * np.cos(np.pi * X / (2.0 * width)) ** 2 * np.sin(np.pi * Y / g.Ly)
    vals[np.abs(X) >= width] = 0.0
    vals[0, :] = 0.0
    vals[-1, :] = 0.0
    return ScalarField(g, vals)
