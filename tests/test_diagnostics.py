"""Monitor tests: exact oracles on fabricated fields (polynomials and the
steady layer profile) plus report assembly and serialization."""

import json
import weakref

import numpy as np
import pytest

from gbulab import (DomainError, Grid2D, ScalarField, gradient, j_params,
                    profile_constants, symmetric_cap)
from gbulab import _kernels
from gbulab import diagnostics as dg
from gbulab.grid import to_json

PC3 = profile_constants(3.0)


def field(g, fn):
    X, Y = g.meshgrid()
    return ScalarField(g, fn(X, Y))


def square_grid(n=129, L=0.25):
    return Grid2D(Lx=L, Ly=L, nx=n, ny=n)


def prepared(f):
    """f's gradient and its grid's monitor arrays, as build_report passes
    them to the monitors."""
    return gradient(f), dg.Geometry(f.grid, PC3)


def probe(f):
    """f's u and u_x on the J probe box, and the grid's monitor arrays."""
    grad, geo = prepared(f)
    return (f.values[geo.probe], grad[0].values[geo.probe]), geo


def j_max(f, jp):
    return dg.j_monitor(*probe(f), jp, PC3)


def ladder(f):
    values, geo = probe(f)
    return dg.j_k_ladder([values], geo, PC3)


# --------------------------------------------------------------------------
# monitor_bounds
# --------------------------------------------------------------------------


def test_ut_bound_backward_difference():
    g = square_grid(33)
    f1 = field(g, lambda X, Y: np.sin(X) * Y)
    f2 = ScalarField(g, f1.values + 0.02 * np.cos(3 * f1.values))
    envs = dg.monitor_bounds(f2, 0.3, *prepared(f2), prev=f1, prev_t=0.2)
    by = {e.name: e for e in envs}
    mask = dg.Geometry(g, PC3).omega
    expected = np.max(np.abs(f2.values - f1.values)[mask]) / 0.1
    assert by["ut_bound"].worst_value == pytest.approx(expected, rel=1e-12)


def test_monitor_bounds_polynomial_oracles():
    g = square_grid(65)
    # u = x^2 - y: u_y = -1, u_xx = 2, u_x = 2x
    f = field(g, lambda X, Y: X**2 - Y)
    envs = dg.monitor_bounds(f, 0.0, *prepared(f))
    by = {e.name: e for e in envs}
    assert by["uy_lower"].worst_value == pytest.approx(1.0, abs=1e-10)
    assert by["uxx_lower"].worst_value == pytest.approx(-2.0, abs=1e-10)
    assert by["ux_linear"].worst_value == pytest.approx(2.0, abs=1e-10)
    sup = by["max_principle_sup"]
    assert sup.worst_value == pytest.approx(g.Lx**2 / 4.0, rel=1e-12)
    assert "ut_bound" not in by  # single snapshot: no time difference


def test_monitor_bounds_polynomial_oracles_graded():
    """The same oracles hold on a graded grid: u_xx uses the non-uniform
    weights and the x = 0 column is the only one left out of u_x / x."""
    g = Grid2D.graded(0.25, 0.25, y_first=1e-4, y_ratio=1.3, y_max=0.02,
                      x_first=1e-3, x_ratio=1.25, x_max=0.02)
    f = field(g, lambda X, Y: X**2 - Y)
    by = {e.name: e for e in dg.monitor_bounds(f, 0.0, *prepared(f))}
    assert by["uy_lower"].worst_value == pytest.approx(1.0, abs=1e-8)
    assert by["uxx_lower"].worst_value == pytest.approx(-2.0, abs=1e-8)
    assert by["ux_linear"].worst_value == pytest.approx(2.0, abs=1e-8)


def test_monitor_bounds_rejects_bad_ordering():
    g = square_grid(33)
    f = field(g, lambda X, Y: X * 0.0)
    with pytest.raises(DomainError):
        dg.monitor_bounds(f, 0.1, *prepared(f), prev=f, prev_t=0.1)


# --------------------------------------------------------------------------
# Bernstein monitor
# --------------------------------------------------------------------------


def test_bernstein_on_steady_layer():
    """For u = V(y) = c_p sqrt(y): |grad u| dist^beta = d_p where dist = y.

    The worst node is the first interior row, where the centered stencil on
    sqrt(y) reads sqrt(2) d_p instead of d_p; away from it the monitor is d_p
    to second order.  Both values are pinned."""
    g = Grid2D(Lx=0.25, Ly=0.25, nx=65, ny=513)
    f = field(g, lambda X, Y: PC3.c_p * np.sqrt(Y))
    env = dg.bernstein_monitor(*prepared(f), 0.0)
    assert env.name == "bernstein"
    assert env.worst_value == pytest.approx(np.sqrt(2.0) * PC3.d_p, rel=1e-3)
    assert env.worst_location[1] == pytest.approx(g.hy)
    fx, fy = gradient(f)
    j = 256  # y = 0.125: dist = y there
    mono = np.hypot(fx.values[j, 32], fy.values[j, 32]) * g.y[j] ** PC3.beta
    assert mono == pytest.approx(PC3.d_p, rel=1e-4)


def test_bernstein_scales_with_amplitude():
    g = square_grid(65)
    f = field(g, lambda X, Y: np.sin(np.pi * Y / g.Ly) * np.cos(np.pi * X))
    e1 = dg.bernstein_monitor(*prepared(f), 0.0)
    e2 = dg.bernstein_monitor(*prepared(ScalarField(g, 3.0 * f.values)), 0.0)
    assert e2.worst_value == pytest.approx(3.0 * e1.worst_value, rel=1e-12)


# --------------------------------------------------------------------------
# J monitor and the k ladder
# --------------------------------------------------------------------------


def test_j_monitor_matches_direct_formula():
    g = square_grid(65)
    f = field(g, lambda X, Y: (1.0 - X**2) * Y * (g.Ly - Y))
    jp = j_params(PC3, 0.25)
    got = j_max(f, jp)
    # direct evaluation over the probe box
    fx, _ = gradient(f)
    X, Y = g.meshgrid()
    x1, y1 = dg.default_probe_box(g)
    m = (X > 0) & (X <= x1) & (Y > 0) & (Y <= y1)
    gamma = jp.q * (1.0 - PC3.beta)
    u = np.clip(f.values[m], 0.0, None)
    direct = fx.values[m] + jp.k * X[m] * Y[m] ** -gamma * (1 + Y[m]) * u**jp.q
    assert got == pytest.approx(float(np.max(direct)), rel=1e-12)


def test_j_monitor_sign_cases():
    g = square_grid(65)
    flat = field(g, lambda X, Y: Y * (g.Ly - Y))  # u_x = 0: J > 0 for x > 0
    assert j_max(flat, j_params(PC3, 0.5)) > 0.0
    steep = field(g, lambda X, Y: (1.0 - np.abs(X) / g.Lx) * Y)
    assert j_max(steep, j_params(PC3, 2.0**-20)) < 0.0


def test_j_k_ladder_returns_largest_passing_k():
    g = square_grid(65)
    steep = field(g, lambda X, Y: (1.0 - np.abs(X) / g.Lx) * Y)
    k, table = ladder(steep)
    assert k > 0.0
    assert table[k] <= 0.0
    # every larger rung tried must have failed
    for kk, worst in table.items():
        if kk > k:
            assert worst > 0.0
    # and the run's J at the returned k is indeed nonpositive
    assert j_max(steep, j_params(PC3, k)) <= 0.0


def test_j_k_ladder_no_passing_rung():
    g = square_grid(65)
    flat = field(g, lambda X, Y: Y * (g.Ly - Y))
    k, table = ladder(flat)
    assert k == 0.0
    assert all(w > 0.0 for w in table.values())


# --------------------------------------------------------------------------
# xi / Theta
# --------------------------------------------------------------------------


def test_xi_theta_on_steady_layer():
    """On u = V(y): xi -> 1 - beta and Theta -> beta, exactly in y away from
    the first rows where the centered stencil saturates."""
    g = Grid2D(Lx=0.25, Ly=0.25, nx=33, ny=513)
    f = field(g, lambda X, Y: PC3.c_p * np.sqrt(Y))
    xi, theta = dg.xi_theta_fields(f, *prepared(f), PC3)
    j = 256  # y = 0.125
    assert xi.values[j, 5] == pytest.approx(1.0 - PC3.beta, rel=1e-4)
    assert theta.values[j, 5] == pytest.approx(PC3.beta, rel=1e-4)
    (xi_lo, xi_hi), (th_lo, th_hi) = dg.xi_theta_ranges(f, *prepared(f), PC3)
    assert 0.45 <= xi_lo <= 0.51
    assert xi_hi <= 0.75  # inner-row stencil saturation bounds the overshoot
    assert 0.45 <= th_lo <= 0.51


def test_xi_theta_threshold_masks_tiny_values():
    g = square_grid(33)
    f = field(g, lambda X, Y: np.zeros_like(X))
    xi, theta = dg.xi_theta_fields(f, *prepared(f), PC3)
    assert np.all(np.isnan(xi.values))
    with pytest.raises(DomainError):
        dg.xi_theta_ranges(f, *prepared(f), PC3)


# --------------------------------------------------------------------------
# modulation height
# --------------------------------------------------------------------------


def test_modulation_h_recovers_scalings():
    xs = np.linspace(-0.2, 0.2, 81)
    ts = np.linspace(0.0, 0.999, 12)
    T = 1.0
    # h(t, x) = (T - t)^2 + 40 x^4, the quasi-stationary prediction
    H = (T - ts[:, None]) ** 2 + 40.0 * xs[None, :] ** 4
    rows = PC3.d_p * H ** -0.5
    out = dg.modulation_h(xs, rows, PC3)
    assert out["n_excluded"] == 0
    np.testing.assert_allclose(out["h"], H, rtol=1e-12)
    # at t_last the (T-t)^2 offset is ~1e-2; restrict to the x range where
    # the quartic term dominates enough for a clean slope
    assert out["fit_space"].exponent == pytest.approx(4.0, abs=0.5)


def test_modulation_h_excludes_nonpositive():
    xs = np.linspace(-0.1, 0.1, 11)
    rows = np.full((2, 11), -1.0)
    rows[0, :] = PC3.d_p
    out = dg.modulation_h(xs, rows, PC3)
    assert out["n_excluded"] == 11
    assert np.all(out["h"][0] == pytest.approx(1.0))
    assert np.all(np.isnan(out["h"][1]))


# --------------------------------------------------------------------------
# report assembly
# --------------------------------------------------------------------------


def test_build_and_write_report(tmp_path):
    g = Grid2D(Lx=0.25, Ly=0.1, nx=65, ny=65)
    snaps = []
    for i, t in enumerate(np.linspace(0.0, 0.03, 4)):
        cap = symmetric_cap(0.2 / (1.0 + 5 * t), 0.18, g)
        snaps.append((float(t), cap))
    report = dg.build_report(snaps, PC3, q=3.0)
    names = {e.name for e in report["envelopes"]}
    assert {"ut_bound", "uy_lower", "uxx_lower", "ux_linear",
            "max_principle_sup", "bernstein"} <= names
    assert len(report["j_max"]) == 4
    assert 0.0 <= report["j_k"] < 1.0
    dg.write_report(report, tmp_path)
    doc = json.loads((tmp_path / "report.json").read_text())
    assert set(doc) == set(report) - {"h_table", "final_uy"}
    assert doc["j_k"] == report["j_k"]
    assert len(doc["envelopes"]) == len(report["envelopes"])
    h_lines = (tmp_path / "h_table.csv").read_text().strip().split("\n")
    assert len(h_lines) == 1 + 4
    # the h table reads u_y on the wall, bit for bit the wall stencil's
    ts, xs, h = report["h_table"]
    wall = [_kernels.gradient(f.values, g)[1][0] for _, f in snaps]
    np.testing.assert_array_equal(h, dg.modulation_h(xs, wall, PC3)["h"])
    # the final u_y the fits read is the last snapshot's, bit for bit
    np.testing.assert_array_equal(report["final_uy"].values,
                                  _kernels.gradient(snaps[-1][1].values, g)[1])


def test_build_report_holds_two_snapshots_at_most():
    """build_report iterates its snapshots once and keeps each only until
    the next one's u_t: fed a one-shot generator, at most two of its fields
    are alive at each yield, and the report is bit for bit a list's."""
    g = Grid2D(Lx=0.25, Ly=0.1, nx=33, ny=33)
    ts = (0.0, 0.01, 0.02, 0.03, 0.04, 0.05)
    alive, counts = [], []

    def cap(t):
        return symmetric_cap(0.2 / (1.0 + 5 * t), 0.18, g)

    def stream():
        for t in ts:
            f = cap(t)
            alive.append(weakref.ref(f))
            counts.append(sum(r() is not None for r in alive))
            yield t, f

    streamed = dg.build_report(stream(), PC3, q=3.0)
    listed = dg.build_report([(t, cap(t)) for t in ts], PC3, q=3.0)
    assert len(counts) == len(ts) and max(counts) <= 2
    arrays = ("h_table", "final_uy")
    assert to_json({k: v for k, v in streamed.items() if k not in arrays}) \
        == to_json({k: v for k, v in listed.items() if k not in arrays})
    for a, b in zip(streamed["h_table"], listed["h_table"]):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(streamed["final_uy"].values,
                                  listed["final_uy"].values)


def test_build_report_takes_each_gradient_once(monkeypatch):
    """The monitors share one gradient per snapshot: build_report calls
    grid.gradient exactly once for each."""
    g = Grid2D(Lx=0.25, Ly=0.1, nx=33, ny=33)
    snaps = [(t, symmetric_cap(0.2 / (1.0 + 5 * t), 0.18, g))
             for t in (0.0, 0.01, 0.02, 0.03, 0.04)]
    calls = []

    def counted(f):
        calls.append(f)
        return gradient(f)

    monkeypatch.setattr(dg, "gradient", counted)
    dg.build_report(snaps, PC3, q=3.0)
    assert len(calls) == len(snaps)
    assert all(a is f for a, (_, f) in zip(calls, snaps))
