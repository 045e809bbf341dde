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
    bit for bit, as cos is.  On y nodes that are mirror images about Ly/2
    bit for bit (`Grid2D.mirror_nodes`), as every graded grid and every
    shipped grid has, the rows above Ly/2 are copies of the rows below, so
    the values are even about Ly/2 bit for bit too: sin(pi y / Ly) rounds
    differently at y and at Ly - y.  An unforced run of them then steps
    x >= 0, y <= Ly/2 alone (`solver`).
    """
    if not 0 < width <= g.Lx:
        raise ConfigurationError(f"cap width {width} is not in (0, Lx={g.Lx}]")
    X, Y = g.meshgrid()
    vals = amplitude * np.cos(np.pi * X / (2.0 * width)) ** 2 * np.sin(np.pi * Y / g.Ly)
    vals[np.abs(X) >= width] = 0.0
    vals[0, :] = 0.0
    if g.mirror_nodes[1]:
        m = (g.ny + 1) // 2  # the rows y <= Ly/2
        vals[m:] = vals[g.ny - 1 - m::-1]
    vals[-1, :] = 0.0
    return ScalarField(g, vals)
