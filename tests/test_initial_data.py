"""Initial-data tests: amplitude, support, symmetry and the monotonicity
x * u_x <= 0 that the comparison arguments rely on."""

import os

import numpy as np
import pytest

from gbulab import (ConfigurationError, Grid2D, ScalarField, SolverConfig,
                    cli, solver, symmetric_cap)


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


def test_cap_is_even_about_mid_height_on_every_shipped_grid():
    """On the grid of every shipped 2D preset the cap is even in x and about
    Ly/2, bit for bit: its rows above Ly/2 are copies of those below."""
    checked = 0
    for name in sorted(os.listdir(cli._PRESET_DIR)):
        if name.startswith("mms"):  # an mms config, not a run config
            continue
        rc = cli.load_config(os.path.join(cli._PRESET_DIR, name))
        if rc.initial_data["family"] != "cap":
            continue
        g = rc.make_grid()
        v = rc.make_initial(g).values
        assert np.array_equal(v, v[::-1]), name
        assert np.array_equal(v, v[:, ::-1]), name
        checked += 1
    assert checked == 3


def test_cap_on_y_nodes_that_are_not_mirror_images():
    """On y nodes graded toward y = 0 alone the cap is the sine at every
    row, not a copy of the rows below Ly/2."""
    y = 0.08 * np.linspace(0.0, 1.0, 33) ** 2
    g = Grid2D(Lx=0.25, Ly=0.08, nx=33, ny=33,
               coords=(np.linspace(-0.25, 0.25, 33), y))
    v = symmetric_cap(0.3, 0.18, g).values
    want = 0.3 * np.sin(np.pi * y / 0.08)
    want[-1] = 0.0
    assert np.allclose(v[:, g.ix0], want, rtol=0.0, atol=1e-15)


def test_cap_copies_its_rows_where_the_solver_steps_the_y_half():
    """The cap copies its rows below Ly/2 into those above exactly where an
    unforced run of it steps y <= Ly/2 alone, by the one rule of
    `Grid2D.mirror_nodes`: on a graded grid and a uniform one of dyadic
    spacing, whose y nodes are mirror images about Ly/2 bit for bit, and on
    neither a uniform grid whose nodes are mirror images only to rounding
    (Ly = 0.06) nor nodes graded toward y = 0 alone."""
    graded = Grid2D.graded(0.25, 0.06, y_first=1e-5, y_ratio=1.3,
                           y_max=0.004, x_first=2e-3, x_ratio=1.2, x_max=0.02)
    toward_0 = Grid2D(Lx=0.25, Ly=0.08, nx=33, ny=33,
                      coords=(np.linspace(-0.25, 0.25, 33),
                              0.08 * np.linspace(0.0, 1.0, 33) ** 2))
    cfg = SolverConfig(p=3.0)
    for g, mirrored in ((graded, True),
                        (Grid2D(Lx=0.25, Ly=0.0625, nx=65, ny=65), True),
                        (Grid2D(Lx=0.25, Ly=0.06, nx=257, ny=257), False),
                        (toward_0, False)):
        assert g.mirror_nodes == (True, mirrored)
        v = symmetric_cap(0.3, 0.18, g).values
        assert np.array_equal(v, v[::-1]) == mirrored
        st = solver.make_state(ScalarField(g, v), cfg)
        assert st.work.mirror == (True, mirrored)
