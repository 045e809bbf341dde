"""Fitting-layer tests against synthetic fields with known exponents.

powerlaw_fit on exact power laws must recover slope and amplitude to machine
precision; the field-level extractors are checked on fields constructed so the
discrete gradient reproduces a prescribed profile.  They are handed that
gradient's u_y, as `gbulab fit` hands them the final snapshot's."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbulab import FitError, Grid2D, ScalarField, profile_constants
from gbulab import grid, profile_fit

PC3 = profile_constants(3.0)


# --------------------------------------------------------------------------
# powerlaw_fit
# --------------------------------------------------------------------------


def test_powerlaw_exact():
    s = np.geomspace(1e-3, 1.0, 40)
    v = 2.5 * s**-0.75
    fit = profile_fit.powerlaw_fit(s, v, (1e-3, 1.0))
    assert fit.exponent == pytest.approx(-0.75, abs=1e-12)
    assert fit.amplitude == pytest.approx(2.5, rel=1e-12)
    assert fit.r_squared == 1.0
    assert fit.n_points == 40


def test_powerlaw_window_and_sign_filter():
    s = np.geomspace(1e-3, 1.0, 40)
    v = 2.5 * s**-0.75
    v[s < 1e-2] = -1.0  # corrupt samples outside the window
    fit = profile_fit.powerlaw_fit(s, v, (1e-2, 1.0))
    assert fit.exponent == pytest.approx(-0.75, abs=1e-12)
    with pytest.raises(FitError):
        profile_fit.powerlaw_fit(s, -v, (1e-2, 1.0))


def test_powerlaw_default_window_is_the_samples_range():
    """Without a window the fit runs over the samples' own range: the same
    fit, field for field, as with that range passed."""
    rng = np.random.default_rng(7)
    s = rng.uniform(1e-3, 1.0, 40)
    v = 2.5 * s**-0.75 * (1.0 + 0.01 * rng.normal(size=40))
    v[3] = -1.0  # a nonpositive sample is dropped either way
    assert profile_fit.powerlaw_fit(s, v) == profile_fit.powerlaw_fit(
        s, v, (s.min(), s.max()))


def test_powerlaw_too_few_points():
    s = np.geomspace(1e-3, 1.0, 4)
    with pytest.raises(FitError):
        profile_fit.powerlaw_fit(s, s, (1e-3, 1.0))


@settings(max_examples=40, deadline=None)
@given(e=st.floats(-3.0, -0.1), A=st.floats(1e-3, 1e3), lam=st.floats(0.1, 10))
def test_powerlaw_rescaling_equivariance(e, A, lam):
    s = np.geomspace(1e-2, 1.0, 30)
    fit = profile_fit.powerlaw_fit(s, A * s**e, (1e-2, 1.0))
    scaled = profile_fit.powerlaw_fit(s, lam * A * s**e, (1e-2, 1.0))
    assert fit.exponent == pytest.approx(e, abs=1e-9)
    assert scaled.exponent == pytest.approx(fit.exponent, abs=1e-9)
    assert scaled.amplitude == pytest.approx(lam * fit.amplitude, rel=1e-9)


# --------------------------------------------------------------------------
# fit_normal
# --------------------------------------------------------------------------


def v_profile_field(g):
    """x-independent field with u(y) = V(y): u_y = d_p y^(-1/2)."""
    _, Y = g.meshgrid()
    return ScalarField(g, PC3.c_p * np.sqrt(Y))


def test_fit_normal_on_steady_profile():
    g = Grid2D(Lx=0.25, Ly=0.25, nx=33, ny=513)
    uy = grid.gradient(v_profile_field(g))[1]
    fit = profile_fit.fit_normal(uy, profile_fit.wall_floor(uy, PC3, True))
    assert fit.exponent == pytest.approx(-0.5, abs=0.02)
    assert fit.amplitude == pytest.approx(PC3.d_p, rel=0.05)
    assert fit.r_squared > 0.999


def saturated_layer_field(g, h):
    """u_y(x, y) = d_p (y + h)^(-1/2): the layer saturated below y ~ h."""
    _, Y = g.meshgrid()
    return ScalarField(g, PC3.c_p * (np.sqrt(Y + h) - np.sqrt(h)))


def test_wall_floor_is_third_node_or_crossover():
    g = Grid2D.graded(0.25, 0.25, y_first=1e-9, y_ratio=1.2, y_max=0.01,
                      x_first=1e-3, x_ratio=1.2, x_max=0.02)
    uy = grid.gradient(saturated_layer_field(g, 1e-6))[1]
    # the crossover, where the local slope reaches -1/4, is y = h
    floor = profile_fit.wall_floor(uy, PC3, True)
    assert 1e-6 <= floor <= 1.5e-6
    assert profile_fit.wall_floor(uy, PC3, False) == g.y[3]
    fit = profile_fit.fit_normal(uy, floor)
    assert fit.window[0] == floor
    assert fit.exponent == pytest.approx(-0.5, abs=0.05)
    # an unsaturated layer leaves the floor at the third node
    g2 = Grid2D(Lx=0.25, Ly=0.25, nx=33, ny=513)
    uy2 = grid.gradient(v_profile_field(g2))[1]
    assert profile_fit.wall_floor(uy2, PC3, True) == g2.y[3] == 3.0 * g2.hy


# --------------------------------------------------------------------------
# fit_tangential and resolution_crossover
# --------------------------------------------------------------------------


def tangential_field(g, B, x0):
    """u = y * v(x) with v = B x^-2 above x0, saturated below: the one-sided
    u_y row at y = 0 reproduces v exactly."""
    X, Y = g.meshgrid()
    v = B * np.maximum(np.abs(X), x0) ** -2.0
    return ScalarField(g, Y * v)


def test_resolution_crossover():
    g = Grid2D(Lx=0.25, Ly=0.1, nx=513, ny=33)
    f = tangential_field(g, 1e-3, 0.01)
    uy = grid.gradient(f)[1].values[0, g.ix0 + 1:]
    xs = g.x[g.ix0 + 1:]
    lo = profile_fit.resolution_crossover(xs, uy, -2.0, 0.1)
    assert 0.008 <= lo <= 0.016


def test_fit_tangential_recovers_exponent():
    g = Grid2D(Lx=0.25, Ly=0.1, nx=513, ny=33)
    fit = profile_fit.fit_tangential(
        grid.gradient(tangential_field(g, 1e-3, 0.01))[1], PC3)
    assert fit.exponent == pytest.approx(-2.0, abs=0.05)
    assert fit.r_squared > 0.995


def test_fit_tangential_flat_profile_errors():
    g = Grid2D(Lx=0.25, Ly=0.1, nx=129, ny=33)
    X, Y = g.meshgrid()
    f = ScalarField(g, Y * 1.0)  # u_y(x, 0) constant: never steepens
    with pytest.raises(FitError, match="insufficient resolution"):
        profile_fit.fit_tangential(grid.gradient(f)[1], PC3)


# --------------------------------------------------------------------------
# time rate
# --------------------------------------------------------------------------


def synthetic_series(T=1.0, c=2.0, n=4000):
    t = np.linspace(0.0, T - 1e-3, n)
    g = c * (T - t) ** -1.0  # p = 3 rate
    return {"t": t, "grad_max": g}


def test_fit_time_rate_exponent():
    fit, T_hat, r2 = profile_fit.fit_time_rate(synthetic_series(), PC3)
    assert T_hat == pytest.approx(1.0, abs=1e-9)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    assert fit.exponent == pytest.approx(-1.0, abs=1e-6)
    assert fit.amplitude == pytest.approx(2.0, rel=1e-6)
    assert fit.r_squared > 0.999999


def test_time_rate_rejects_decay():
    t = np.linspace(0.0, 1.0, 100)
    series = {"t": t, "grad_max": 10.0 * np.exp(-t)}
    with pytest.raises(FitError):
        profile_fit.fit_time_rate(series, PC3)


# --------------------------------------------------------------------------
# anisotropic profile fit and level sets
# --------------------------------------------------------------------------


def aniso_field(g, C1):
    """u integrating the model profile: u_y = d_p [y + C1 x^4]^(-1/2)."""
    X, Y = g.meshgrid()
    q = C1 * np.abs(X) ** 4
    val = 2.0 * PC3.d_p * (np.sqrt(q + Y) - np.sqrt(q))
    return ScalarField(g, val)


def test_fit_aniso_pure_layer_residual_small():
    g = Grid2D(Lx=0.25, Ly=0.25, nx=257, ny=1025)
    uy = grid.gradient(aniso_field(g, 0.0))[1]
    fit = profile_fit.fit_aniso(uy, PC3, profile_fit.wall_floor(uy, PC3, True))
    assert fit.residual_rel < 0.05


def test_fit_aniso_recovers_C1():
    g = Grid2D(Lx=0.25, Ly=0.25, nx=513, ny=1025)
    for C1 in (30.0, 300.0):
        uy = grid.gradient(aniso_field(g, C1))[1]
        fit = profile_fit.fit_aniso(uy, PC3,
                                    profile_fit.wall_floor(uy, PC3, True))
        assert fit.residual_rel < 0.1
        assert 0.5 * C1 <= fit.C1_hat <= 2.0 * C1


def test_level_set_shape_quartic():
    g = Grid2D(Lx=0.25, Ly=0.25, nx=513, ny=1025)
    C1 = 300.0
    uy = grid.gradient(aniso_field(g, C1))[1]
    level = PC3.d_p / np.sqrt(0.01)  # crossing heights ~ 0.01 - C1 x^4
    xs, ys = profile_fit.level_set_curve(uy, level)
    expect = 0.01 - C1 * xs**4
    keep = expect > 2e-3
    assert np.max(np.abs(ys[keep] - expect[keep])) < 5e-4


def test_level_set_shape_recovers_anisotropy_exponent():
    """On the exact model the sag of any level curve below its apex is
    C1 x^4 exactly, so the fitted exponent is the anisotropy power."""
    g = Grid2D(Lx=0.25, Ly=0.25, nx=513, ny=1025)
    uy = grid.gradient(aniso_field(g, 300.0))[1]
    for frac in (0.01, 0.005):
        level = PC3.d_p / np.sqrt(frac)
        fit = profile_fit.level_set_shape(uy, level)
        assert fit.exponent == pytest.approx(4.0, abs=0.1)
        assert fit.r_squared > 0.999


def test_level_set_too_few_crossings():
    g = Grid2D(Lx=0.25, Ly=0.25, nx=65, ny=65)
    f = ScalarField(g, np.zeros((65, 65)))
    with pytest.raises(FitError):
        profile_fit.level_set_curve(grid.gradient(f)[1], 1.0)


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------


def test_fits_to_json_deterministic():
    fit = profile_fit.powerlaw_fit(
        np.geomspace(0.01, 1, 20), np.geomspace(0.01, 1, 20) ** -0.5,
        (0.01, 1.0))
    d = {"normal": fit, "b": np.float64(2.0), "a": np.arange(3)}
    s1 = grid.to_json(d)
    s2 = grid.to_json({"a": np.arange(3), "b": np.float64(2.0),
                                   "normal": fit})
    assert s1 == s2
    assert s1.endswith("\n")
    import json
    parsed = json.loads(s1)
    assert parsed["normal"]["exponent"] == fit.exponent
