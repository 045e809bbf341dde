"""Initial-data tests: amplitude, support, symmetry and the monotonicity
x * u_x <= 0 that the comparison arguments rely on."""

import numpy as np
import pytest

from gbulab import ConfigurationError, Grid2D, symmetric_cap


# --------------------------------------------------------------------------
# Symmetric cap
# --------------------------------------------------------------------------


def test_cap_shape():
    g = Grid2D(Lx=0.25, Ly=0.08, nx=129, ny=129)
    u0 = symmetric_cap(0.3, 0.18, g)
    v = u0.values
    # peak at (x, y) = (0, Ly/2), a node for odd nx and odd ny
    assert v.max() == pytest.approx(0.3, rel=1e-12)
    assert v[(g.ny - 1) // 2, g.ix0] == v.max()
    assert np.all(v >= 0.0)
    assert np.array_equal(v, v[:, ::-1])
    X, _ = g.meshgrid()
    assert np.all(v[np.abs(X) >= 0.18] == 0.0)
    assert np.all(v[0, :] == 0.0) and np.all(v[-1, :] == 0.0)
    assert np.all(np.diff(v[:, g.ix0:], axis=1) <= 1e-14)


def test_cap_boundary_slope():
    """u_y(x=0, y=0) = pi * A / Ly for the sine profile."""
    g = Grid2D(Lx=0.25, Ly=0.08, nx=65, ny=513)
    u0 = symmetric_cap(0.3, 0.18, g)
    slope = (-3 * u0.values[0, g.ix0] + 4 * u0.values[1, g.ix0]
             - u0.values[2, g.ix0]) / (2 * g.hy)
    assert slope == pytest.approx(np.pi * 0.3 / 0.08, rel=1e-4)


def test_cap_width_guard():
    g = Grid2D(Lx=0.25, Ly=0.08, nx=65, ny=65)
    with pytest.raises(ConfigurationError):
        symmetric_cap(0.3, 0.3, g)
