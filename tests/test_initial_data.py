"""Initial-data family tests: amplitude scaling, support, symmetry and the
monotonicity x * u_x <= 0 that the comparison arguments rely on."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gbulab import (BumpParams, ConfigurationError, Grid2D, concentrated_bump,
                    symmetric_cap)


def bump_grid():
    # hy = 0.25/128 ~ 0.002 resolves epsilon = 0.06 (needs h <= 0.0075).
    return Grid2D(Lx=0.25, Ly=0.25, nx=129, ny=129)


# --------------------------------------------------------------------------
# Concentrated bump
# --------------------------------------------------------------------------


def test_bump_amplitude_scaling():
    """sup u0 = C_amp * epsilon^((p-2)/(p-1)) on the plateau."""
    g = bump_grid()
    for p, C, eps in [(3.0, 2.0, 0.06), (2.5, 1.3, 0.08)]:
        u0 = concentrated_bump(BumpParams(C_amp=C, epsilon=eps, p=p), g)
        k = (p - 2.0) / (p - 1.0)
        assert u0.values.max() == pytest.approx(C * eps**k, rel=1e-12)


def test_bump_support_and_sign():
    g = bump_grid()
    eps = 0.06
    u0 = concentrated_bump(BumpParams(C_amp=1.0, epsilon=eps, p=3.0), g)
    X, Y = g.meshgrid()
    r = np.sqrt(X**2 + (Y - eps) ** 2)
    assert np.all(u0.values >= 0.0)
    assert np.all(u0.values[r >= eps / 2] == 0.0)
    assert np.all(u0.values[r <= eps / 4] == u0.values.max())
    # zero on all four sides of the rectangle
    assert np.all(u0.values[0, :] == 0.0) and np.all(u0.values[-1, :] == 0.0)
    assert np.all(u0.values[:, 0] == 0.0) and np.all(u0.values[:, -1] == 0.0)


def test_bump_even_and_monotone_in_x():
    g = bump_grid()
    u0 = concentrated_bump(BumpParams(C_amp=1.5, epsilon=0.06, p=3.0), g)
    v = u0.values
    assert np.array_equal(v, v[:, ::-1])
    right = v[:, g.ix0:]
    assert np.all(np.diff(right, axis=1) <= 1e-14)


def test_bump_resolution_guard():
    g = Grid2D(Lx=0.25, Ly=0.25, nx=17, ny=17)  # hy = 0.0156 > eps/8
    with pytest.raises(ConfigurationError):
        concentrated_bump(BumpParams(C_amp=1.0, epsilon=0.06, p=3.0), g)


def test_bump_support_guard():
    g = Grid2D(Lx=0.25, Ly=0.05, nx=257, ny=257)  # 1.5 eps > Ly
    with pytest.raises(ConfigurationError):
        concentrated_bump(BumpParams(C_amp=1.0, epsilon=0.04, p=3.0), g)


def test_bump_param_validation():
    with pytest.raises(ConfigurationError):
        BumpParams(C_amp=0.0, epsilon=0.05, p=3.0)
    with pytest.raises(ConfigurationError):
        BumpParams(C_amp=1.0, epsilon=-0.05, p=3.0)


@settings(max_examples=25, deadline=None)
@given(C=st.floats(0.1, 5.0), eps=st.floats(0.05, 0.15))
@example(C=1.0, eps=0.09074542704119135)  # the expanded cutoff gave -5e-16
def test_bump_invariants_random(C, eps):
    g = bump_grid()
    u0 = concentrated_bump(BumpParams(C_amp=C, epsilon=eps, p=3.0), g)
    assert np.all(u0.values >= 0.0)
    assert u0.values.max() <= C * eps**0.5 * (1 + 1e-12)
    assert np.array_equal(u0.values, u0.values[:, ::-1])


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
