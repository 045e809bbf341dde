"""Grid, stencil and serialization tests.

Stencil oracles: the 5-point Laplacian and the 3-point gradient stencils are
exact on polynomials of degree <= 2, so quadratic fields give machine-accuracy
references; smooth fields give the second-order convergence check.
"""

import hashlib
import struct

import numpy as np
import pytest

from gbulab import (ConfigurationError, Grid2D, NumericError, ScalarField,
                    SnapshotError, gradient, laplacian, read_snapshot,
                    write_snapshot)
from gbulab import _kernels, grid
from gbulab.grid import Axis, graded_nodes


def make_field(g, fn):
    X, Y = g.meshgrid()
    return ScalarField(g, fn(X, Y))


# --------------------------------------------------------------------------
# Grid2D construction
# --------------------------------------------------------------------------


def test_grid_geometry():
    g = Grid2D(Lx=0.5, Ly=0.25, nx=9, ny=6)
    assert g.hx == pytest.approx(1.0 / 8.0)
    assert g.hy == pytest.approx(0.05)
    assert g.x[0] == -0.5 and g.x[-1] == 0.5
    assert g.y[0] == 0.0 and g.y[-1] == 0.25
    assert g.x[g.ix0] == 0.0


def test_uniform_coordinates_built_once_read_only():
    g = Grid2D(Lx=0.5, Ly=0.25, nx=9, ny=6)
    assert g.x is g.x and g.y is g.y
    assert np.array_equal(g.x, np.linspace(-0.5, 0.5, 9))
    assert np.array_equal(g.y, np.linspace(0.0, 0.25, 6))
    for c in (g.x, g.y):
        with pytest.raises(ValueError):
            c[1] = 0.0


def test_grid_rejects_even_nx():
    with pytest.raises(ConfigurationError):
        Grid2D(Lx=1.0, Ly=1.0, nx=8, ny=9)


def test_grid_rejects_tiny_and_degenerate():
    with pytest.raises(ConfigurationError):
        Grid2D(Lx=1.0, Ly=1.0, nx=3, ny=9)
    with pytest.raises(ConfigurationError):
        Grid2D(Lx=0.0, Ly=1.0, nx=9, ny=9)
    with pytest.raises(ConfigurationError):
        Grid2D(Lx=1.0, Ly=-1.0, nx=9, ny=9)


def test_field_shape_check():
    g = Grid2D(Lx=1.0, Ly=1.0, nx=9, ny=7)
    with pytest.raises(ConfigurationError):
        ScalarField(g, np.zeros((9, 7)))  # transposed


# --------------------------------------------------------------------------
# Stencils
# --------------------------------------------------------------------------


def test_laplacian_exact_on_quadratics():
    g = Grid2D(Lx=0.7, Ly=0.4, nx=31, ny=21)
    f = make_field(g, lambda X, Y: 2.0 * X**2 - 3.0 * Y**2 + X * Y + X - Y)
    lap = laplacian(f).values
    assert np.allclose(lap[1:-1, 1:-1], 2.0 * 2.0 - 2.0 * 3.0, atol=1e-10)
    assert np.all(lap[0, :] == 0.0) and np.all(lap[-1, :] == 0.0)
    assert np.all(lap[:, 0] == 0.0) and np.all(lap[:, -1] == 0.0)


def test_gradient_exact_on_quadratics():
    g = Grid2D(Lx=0.7, Ly=0.4, nx=31, ny=21)
    f = make_field(g, lambda X, Y: 2.0 * X**2 - 3.0 * Y**2 + X * Y + X - Y)
    fx, fy = gradient(f)
    X, Y = g.meshgrid()
    assert np.allclose(fx.values, 4.0 * X + Y + 1.0, atol=1e-10)
    assert np.allclose(fy.values, -6.0 * Y + X - 1.0, atol=1e-10)


def test_stencils_second_order_on_smooth_field():
    def err(n):
        g = Grid2D(Lx=0.5, Ly=0.5, nx=n, ny=n)
        f = make_field(g, lambda X, Y: np.sin(2 * X + 1) * np.cos(3 * Y))
        X, Y = g.meshgrid()
        lap = laplacian(f).values
        exact = -13.0 * np.sin(2 * X + 1) * np.cos(3 * Y)
        e_lap = np.max(np.abs(lap - exact)[1:-1, 1:-1])
        fx, _ = gradient(f)
        e_fx = np.max(np.abs(fx.values - 2 * np.cos(2 * X + 1) * np.cos(3 * Y)))
        return e_lap, e_fx

    coarse, fine = err(33), err(65)
    for c, f in zip(coarse, fine):
        order = np.log2(c / f)
        assert 1.8 < order < 2.2


def test_boundary_gradient_one_sided():
    """u_y at y = 0 uses only interior values: exact for quadratics in y."""
    g = Grid2D(Lx=0.5, Ly=0.5, nx=9, ny=17)
    f = make_field(g, lambda X, Y: 3.0 * Y - 5.0 * Y**2)
    _, fy = gradient(f)
    assert np.allclose(fy.values[0, :], 3.0, atol=1e-10)


def test_stencils_reject_non_finite():
    g = Grid2D(Lx=1.0, Ly=1.0, nx=9, ny=9)
    vals = np.zeros((9, 9))
    vals[4, 4] = np.nan
    f = ScalarField(g, vals)
    with pytest.raises(NumericError):
        laplacian(f)
    with pytest.raises(NumericError):
        gradient(f)


# --------------------------------------------------------------------------
# Graded grids
# --------------------------------------------------------------------------


def geometric_grid(n, ratio, Lx=0.5, Ly=0.4):
    """n geometric cells from y = 0 to Ly, and n on each side of x = 0."""
    k = np.arange(n + 1)
    z = (ratio**k - 1.0) / (ratio**n - 1.0)
    x = np.concatenate([-Lx * z[:0:-1], Lx * z])
    return Grid2D(Lx=Lx, Ly=Ly, nx=x.size, ny=n + 1, coords=(x, Ly * z))


def test_graded_grid_geometry():
    g = Grid2D.graded(2.0, 3.0, y_first=1e-6, y_ratio=1.3, y_max=0.2,
                      x_first=1e-3, x_ratio=1.1, x_max=0.1)
    assert not g.uniform
    x, y = g.x, g.y
    assert (x[0], x[g.ix0], x[-1]) == (-2.0, 0.0, 2.0)
    assert (y[0], y[-1]) == (0.0, 3.0)
    assert np.array_equal(x, -x[::-1])
    assert np.allclose(y, 3.0 - y[::-1], rtol=0, atol=1e-15)
    assert y[1] == 1e-6 and x[g.ix0 + 1] == 1e-3
    hy = np.diff(y)
    assert np.allclose(hy[1:5] / hy[:4], 1.3)
    assert hy.max() <= 0.2 and np.diff(x).max() <= 0.1
    assert g.hy == pytest.approx(1e-6) and g.hx == pytest.approx(1e-3)


def test_graded_grid_rejects_bad_grading():
    with pytest.raises(ConfigurationError):
        Grid2D.graded(2.0, 3.0, 1e-6, 1.0, 0.2, 1e-3, 1.1, 0.1)
    with pytest.raises(ConfigurationError):
        Grid2D.graded(2.0, 3.0, 0.0, 1.3, 0.2, 1e-3, 1.1, 0.1)
    x = np.linspace(-1.0, 1.0, 9)
    with pytest.raises(ConfigurationError):
        Grid2D(Lx=1.0, Ly=1.0, nx=9, ny=9, coords=(x, x))  # y from -1


def test_graded_axis_rejects_first_cell_below_100_ulp():
    """On Ly = 3, ulp(3) = 4.4e-16: the cells at y = 3 keep their ratio only
    if the first cell is many ulp wide."""
    for y_first in (1e-15, 1e-14):
        with pytest.raises(ConfigurationError, match="ulp"):
            Grid2D.graded(2.0, 3.0, y_first, 1.4, 0.2, 1e-3, 1.1, 0.1)
    g = Grid2D.graded(2.0, 3.0, 1e-13, 1.4, 0.2, 1e-3, 1.1, 0.1)
    top = np.diff(g.y)[::-1][:5]
    assert np.allclose(top[1:] / top[:-1], 1.4, rtol=0.02)


def test_column_grid():
    y = graded_nodes(1.0, 1e-4, 1.3, 0.05)
    assert y[0] == 0.0 and y[-1] == 1.0 and y[1] == 1e-4
    g = Grid2D.column(0.25, 1.0, y)
    assert g.is_column and g.nx == 1 and g.ix0 == 0 and g.x[0] == 0.0
    assert g.hy == pytest.approx(1e-4) and g.hx == np.inf
    with pytest.raises(ConfigurationError):
        Grid2D(Lx=1.0, Ly=1.0, nx=1, ny=9)  # a column needs its y nodes
    with pytest.raises(ConfigurationError):
        Grid2D(Lx=1.0, Ly=1.0, nx=1, ny=y.size, coords=((0.5,), y))


def test_column_kernels_exact_on_quadratics():
    """On a graded column, u = y^2 has u_yy = 2 and u_y = 2y exactly."""
    g = Grid2D.column(0.25, 1.0, graded_nodes(1.0, 1e-4, 1.3, 0.05))
    u = (g.y ** 2)[:, None]
    out = np.zeros_like(u)
    uy, _ = _kernels.rhs_interior_1d(u, g.ay, 3.0, out,
                                     _kernels.derivative(u, g.ay)[1:-1])
    y = g.y[1:-1, None]
    assert np.allclose(uy, 2.0 * y, rtol=1e-9, atol=1e-12)
    assert np.allclose(out[1:-1], 2.0 + (2.0 * y) ** 3, rtol=1e-9)
    assert out[0, 0] == 0.0 and out[-1, 0] == 0.0
    assert _kernels.grad_max_1d(u, g.ay) == pytest.approx(2.0, rel=1e-9)
    assert _kernels.derivative(u, g.ay)[0, 0] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("p", [3.0, 2.5])
@pytest.mark.parametrize("shape", ["uniform", "graded", "column"])
def test_rhs_source_is_g2_times_the_returned_power(shape, p):
    """The right-hand side writes the source as g2 k, g2 = |grad u|^2, and
    returns k = |grad u|^(p-2), from which the implicit step takes its speed."""
    def fn(X, Y):
        return np.sin(2 * X + 1) * np.cos(3 * Y) + 2.0 * Y
    if shape == "column":
        g = Grid2D.column(0.25, 1.0, graded_nodes(1.0, 1e-4, 1.3, 0.05))
        u = fn(0.0, g.y)[:, None]
        out = np.zeros_like(u)
        uy, k = _kernels.rhs_interior_1d(u, g.ay, p, out,
                                         _kernels.derivative(u, g.ay)[1:-1])
        g2, lap, interior = uy * uy, _kernels.d2(u, g.ay), out[1:-1]
    else:
        g = (Grid2D(Lx=0.7, Ly=0.4, nx=31, ny=21) if shape == "uniform"
             else geometric_grid(20, 1.2))
        u = make_field(g, fn).values
        out = np.zeros_like(u)
        fx, fy = _kernels.gradient(u, g)
        grad = tuple(v[1:-1, 1:-1] for v in (fx, fy, fx * fx + fy * fy))
        scratch = tuple(np.full((g.ny - 2, g.nx - 2), np.nan)
                        for _ in range(3))
        ux, uy, k = _kernels.rhs_interior(u, g, p, out, scratch, grad)
        g2, lap = ux * ux + uy * uy, _kernels.laplacian(u, g)
        interior = out[1:-1, 1:-1]
    assert np.min(g2) > 0.0
    expected = g2 * k
    expected += lap
    assert np.array_equal(interior, expected)
    assert np.allclose(k, np.sqrt(g2) ** (p - 2.0), rtol=1e-14, atol=0)


def oracle_rhs(u, g, p):
    """(Lap(u), u_x, u_y, |grad u|^2, |grad u|^(p-2)) on the interior of u,
    each intermediate a fresh array, in the kernels' order of operations:
    the reference for the kernels working on scratch."""
    c, e, w = u[1:-1, 1:-1], u[1:-1, 2:], u[1:-1, :-2]
    n, s = u[2:, 1:-1], u[:-2, 1:-1]
    # the x weights, one per column (floats on a uniform grid)
    xd1, xd2 = ([np.transpose(v) for v in wt] for wt in (g.ax.d1, g.ax.d2))
    lap = (xd2[0] * w + xd2[1] * c + xd2[2] * e) \
        + (g.ay.d2[0] * s + g.ay.d2[1] * c + g.ay.d2[2] * n)
    ux = xd1[0] * w + xd1[1] * c + xd1[2] * e
    uy = g.ay.d1[0] * s + g.ay.d1[1] * c + g.ay.d1[2] * n
    g2 = ux * ux + uy * uy
    k = np.sqrt(g2) if p == 3.0 else np.power(g2, p / 2.0 - 1.0)
    return lap, ux, uy, g2, k


@pytest.mark.parametrize("p", [3.0, 2.5])
@pytest.mark.parametrize("shape", ["uniform", "graded"])
def test_kernels_give_the_same_bits_on_scratch(shape, p):
    """`rhs_interior`, `laplacian` and `grad_norm_max` give the same bits on
    scratch (filled with NaN beforehand, so nothing is read before it is
    written) as the allocating kernels and the oracle, on a uniform grid and
    on a graded one."""
    g = geometric_grid(20, 1.2) if shape == "graded" \
        else Grid2D(Lx=0.7, Ly=0.4, nx=31, ny=21)
    u = make_field(g, lambda X, Y: np.sin(2 * X + 1) * np.cos(3 * Y)
                   + 2.0 * Y).values
    lap, ux, uy, g2, k = oracle_rhs(u, g, p)
    inner = np.s_[1:-1, 1:-1]

    def nans(n, size=lap.shape):
        return tuple(np.full(size, np.nan) for _ in range(n))

    out, (t1, t2) = nans(1)[0], nans(2)
    _kernels.laplacian(u, g, out, (t1, t2))
    assert np.array_equal(out, lap)
    assert np.array_equal(_kernels.laplacian(u, g), lap)

    grad, tmp = nans(3, u.shape), nans(1, u.shape)[0]
    gmax = _kernels.grad_norm_max(u, g, grad, tmp)
    assert gmax == _kernels.grad_norm_max(u, g)
    fx, fy = _kernels.gradient(u, g)
    for a, b in zip(grad, (fx, fy, fx * fx + fy * fy)):
        assert np.array_equal(a, b)
    for a, b in zip(grad, (ux, uy, g2)):
        assert np.array_equal(a[inner], b)

    expected = g2 * k
    expected += lap
    rhs = np.zeros_like(u)
    got = _kernels.rhs_interior(u, g, p, rhs, nans(3),
                                tuple(v[inner] for v in grad))
    assert np.array_equal(rhs[inner], expected)
    assert not rhs[0].any() and not rhs[:, 0].any()
    for a, b in zip(got, (ux, uy, k)):
        assert np.array_equal(a, b)


def test_graded_grid_equality():
    a = geometric_grid(20, 1.2)
    assert a == geometric_grid(20, 1.2)
    assert a != geometric_grid(20, 1.25)
    assert a != Grid2D(Lx=a.Lx, Ly=a.Ly, nx=a.nx, ny=a.ny)


def test_graded_stencils_exact_on_quadratics():
    g = geometric_grid(24, 1.25)
    f = make_field(g, lambda X, Y: 2.0 * X**2 - 3.0 * Y**2 + X * Y + X - Y)
    X, Y = g.meshgrid()
    lap = laplacian(f).values
    assert np.allclose(lap[1:-1, 1:-1], -2.0, rtol=0, atol=1e-8)
    assert np.all(lap[0, :] == 0.0) and np.all(lap[:, 0] == 0.0)
    fx, fy = gradient(f)
    assert np.allclose(fx.values, 4.0 * X + Y + 1.0, rtol=0, atol=1e-10)
    assert np.allclose(fy.values, -6.0 * Y + X - 1.0, rtol=0, atol=1e-10)


def test_graded_stencils_second_order_on_geometric_mesh():
    """Refining a geometric mesh (n -> 2n cells, ratio -> sqrt(ratio)) keeps
    the mesh map smooth, so the 3-point weights converge at second order."""
    def err(n, ratio):
        g = geometric_grid(n, ratio)
        f = make_field(g, lambda X, Y: np.sin(2 * X + 1) * np.cos(3 * Y))
        X, Y = g.meshgrid()
        lap = laplacian(f).values
        exact = -13.0 * np.sin(2 * X + 1) * np.cos(3 * Y)
        fx, fy = gradient(f)
        return (np.max(np.abs(lap - exact)[1:-1, 1:-1]),
                np.max(np.abs(fx.values - 2 * np.cos(2 * X + 1) * np.cos(3 * Y))),
                np.max(np.abs(fy.values + 3 * np.sin(2 * X + 1) * np.sin(3 * Y))))

    coarse, fine = err(32, 1.08), err(64, np.sqrt(1.08))
    for c, f in zip(coarse, fine):
        assert 1.8 < np.log2(c / f) < 2.3


def test_uniform_axes_hold_scalar_weights():
    """A uniform grid's axes hold one float per weight, equal to round-off
    to the weights `Axis` works out on the same nodes, and the stencils
    built on them match the constant-spacing formulas to round-off."""
    g = Grid2D(Lx=0.7, Ly=0.4, nx=31, ny=21)
    # the same nodes given as coords make the same uniform grid
    assert Grid2D(Lx=g.Lx, Ly=g.Ly, nx=g.nx, ny=g.ny,
                  coords=(g.x, g.y)).uniform
    for axis, z, h in ((g.ax, g.x, g.hx), (g.ay, g.y, g.hy)):
        nodes = Axis(z)
        for name, scale in (("d1", h), ("d2", h**2), ("lo", h), ("hi", h)):
            even, given = getattr(axis, name), getattr(nodes, name)
            assert all(type(v) is float for v in even)
            for a, b in zip(even, given):
                assert np.allclose(a * scale, np.asarray(b) * scale,
                                   rtol=0, atol=1e-12)

    f = make_field(g, lambda X, Y: np.sin(2 * X + 1) * np.cos(3 * Y))
    u = f.values
    lap = np.zeros_like(u)
    lap[1:-1, 1:-1] = (
        (u[1:-1, 2:] - 2.0 * u[1:-1, 1:-1] + u[1:-1, :-2]) / g.hx**2
        + (u[2:, 1:-1] - 2.0 * u[1:-1, 1:-1] + u[:-2, 1:-1]) / g.hy**2)

    def derivative(v, h):  # along axis 0
        d = np.empty_like(v)
        d[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
        d[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
        d[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
        return d
    fx, fy = derivative(u.T, g.hx).T, derivative(u, g.hy)
    for got, want in ((laplacian(f).values, lap), (gradient(f)[0].values, fx),
                      (gradient(f)[1].values, fy)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_mirror_nodes():
    """Graded grids and uniform grids of dyadic spacing have nodes that are
    mirror images about x = 0 and about Ly/2 bit for bit, the upper y half
    being Ly minus the lower; evenly spaced nodes that are mirror images
    only to rounding, and a grid graded toward y = 0 alone, have not."""
    graded = Grid2D.graded(2.0, 3.0, y_first=2e-12, y_ratio=1.4, y_max=0.25,
                           x_first=4e-4, x_ratio=1.045, x_max=0.15)
    # Ly - (Ly - y) does not round back to y on the 2e-12 cells
    assert not np.array_equal(graded.y[::-1], 3.0 - graded.y)
    even = Grid2D(Lx=0.25, Ly=0.06, nx=257, ny=257)
    assert np.allclose(even.y[::-1], 0.06 - even.y, rtol=0.0, atol=1e-17)
    for g, in_y in ((graded, True),
                    (Grid2D(Lx=0.25, Ly=0.0625, nx=65, ny=65), True),
                    (even, False), (geometric_grid(8, 1.2), False)):
        assert g.mirror_nodes == (True, in_y)


def test_window_weights_are_the_grids_own():
    """The weights of a window x[i0:] by y[:j1] are the grid's own at the
    window's inner nodes, bit for bit, graded or uniform."""
    graded = Grid2D.graded(0.25, 0.06, y_first=1e-5, y_ratio=1.3,
                           y_max=0.004, x_first=2e-3, x_ratio=1.2, x_max=0.02)
    for g in (graded, Grid2D(Lx=0.25, Ly=0.0625, nx=33, ny=33)):
        i0, j1 = g.ix0 - 1, g.ny // 2 + 2
        w = g.window(i0, j1)
        for name in ("d1", "d2"):
            for part, whole in zip(getattr(w.ax, name), getattr(g.ax, name)):
                assert np.array_equal(part, np.asarray(whole)[i0:]
                                      if np.ndim(whole) else whole)
            for part, whole in zip(getattr(w.ay, name), getattr(g.ay, name)):
                assert np.array_equal(part, np.asarray(whole)[:j1 - 2]
                                      if np.ndim(whole) else whole)
        assert w.ay.lo == g.ay.lo


def test_axis_one_sided_weights():
    z = np.array([0.0, 0.1, 0.35, 0.5, 0.9])
    ax = Axis(z)
    u = 3.0 * z - 5.0 * z**2
    assert np.dot(ax.lo, u[:3]) == pytest.approx(3.0, abs=1e-12)
    assert np.dot(ax.hi, u[-3:]) == pytest.approx(3.0 - 10.0 * 0.9, abs=1e-12)


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------


def test_snapshot_roundtrip(tmp_path):
    g = Grid2D(Lx=0.5, Ly=0.25, nx=9, ny=7)
    rng = np.random.default_rng(7)
    f = ScalarField(g, rng.normal(size=(7, 9)))
    path = tmp_path / "snap.bin"
    write_snapshot(f, path, time=0.125)
    f2, t2 = read_snapshot(path)
    assert t2 == 0.125
    assert f2.grid == g
    assert np.array_equal(f2.values, f.values)


def test_sha256_is_hashlib_sha256():
    """The sha256 that run directories record, the interpreter's own rather
    than OpenSSL's, gives hashlib.sha256's digest: empty, in one call and
    fed in chunks, as write_snapshot feeds it."""
    data = bytes(range(256)) * 1000
    assert grid._sha256().hexdigest() == hashlib.sha256().hexdigest()
    assert grid._sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()
    digest = grid._sha256()
    for i in range(0, len(data), 4099):
        digest.update(data[i:i + 4099])
    assert digest.hexdigest() == hashlib.sha256(data).hexdigest()


def test_snapshot_bytes_deterministic(tmp_path):
    g = Grid2D(Lx=0.5, Ly=0.25, nx=9, ny=7)
    f = ScalarField(g, np.arange(63, dtype=float).reshape(7, 9) / 7.0)
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    write_snapshot(f, a, time=0.5)
    write_snapshot(f.copy(), b, time=0.5)
    assert a.read_bytes() == b.read_bytes()


def test_snapshot_corruption_detected(tmp_path):
    g = Grid2D(Lx=0.5, Ly=0.25, nx=9, ny=7)
    f = ScalarField(g, np.zeros((7, 9)))
    path = tmp_path / "snap.bin"
    write_snapshot(f, path, time=0.0)
    raw = path.read_bytes()

    (tmp_path / "trunc.bin").write_bytes(raw[:40])
    with pytest.raises(ConfigurationError):
        read_snapshot(tmp_path / "trunc.bin")

    (tmp_path / "magic.bin").write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ConfigurationError):
        read_snapshot(tmp_path / "magic.bin")

    # a header that describes no grid (Lx < 0) is a corrupt snapshot too
    (tmp_path / "lx.bin").write_bytes(raw[:8] + struct.pack("<d", -0.5)
                                      + raw[16:])
    with pytest.raises(SnapshotError, match="Lx"):
        read_snapshot(tmp_path / "lx.bin")


def test_uniform_snapshot_layout(tmp_path):
    """A uniform grid writes the one layout, GBU2: 32-byte header, x, y, then
    the values; it reads back uniform and equal to the original grid."""
    g = Grid2D(Lx=0.06, Ly=0.25, nx=15, ny=9)
    assert g.x[g.ix0] == 0.0  # where linspace rounds it off 0
    f = ScalarField(g, np.arange(135, dtype=float).reshape(9, 15))
    path = tmp_path / "snap.bin"
    write_snapshot(f, path, time=0.5)
    raw = path.read_bytes()
    assert raw[:4] == b"GBU2" and len(raw) == 32 + (15 + 9 + 135) * 8
    assert raw[32:] == b"".join(a.astype("<f8").tobytes()
                                for a in (g.x, g.y, f.values))
    f2, _ = read_snapshot(path)
    assert f2.grid.uniform and f2.grid == g
    assert (f2.grid.hx, f2.grid.hy) == (g.hx, g.hy)


@pytest.mark.parametrize("Lx, nx", [(0.06, 15), (0.1, 23)])
def test_uniform_symmetry_node_is_exactly_0(Lx, nx):
    """linspace rounds the middle node of these axes off 0; the grid puts it
    at 0 and keeps every other node, and it is those nodes that are uniform.
    Nodes taken from linspace as they are do not make a grid."""
    raw = np.linspace(-Lx, Lx, nx)
    assert raw[nx // 2] != 0.0
    g = Grid2D(Lx=Lx, Ly=0.25, nx=nx, ny=9)
    assert g.uniform and g.x[g.ix0] == 0.0
    assert np.array_equal(np.delete(g.x, g.ix0), np.delete(raw, nx // 2))
    assert Grid2D(Lx=Lx, Ly=0.25, nx=nx, ny=9, coords=(g.x, g.y)).uniform
    with pytest.raises(ConfigurationError, match="through 0"):
        Grid2D(Lx=Lx, Ly=0.25, nx=nx, ny=9, coords=(raw, g.y))


def test_gbu1_snapshot_is_a_bad_magic(tmp_path):
    """The GBU1 layout of older releases (header, then the values alone) is
    no longer read."""
    raw = (struct.pack("<4sHHddd", b"GBU1", 9, 7, 0.5, 0.25, 0.0)
           + np.zeros(63).tobytes())
    (tmp_path / "old.bin").write_bytes(raw)
    with pytest.raises(SnapshotError, match="bad magic"):
        read_snapshot(tmp_path / "old.bin")


def test_only_linspace_nodes_are_uniform():
    """uniform is worked out from the nodes: graded grids and columns, a
    column on evenly spaced y nodes included, are never uniform."""
    assert Grid2D(Lx=0.5, Ly=0.25, nx=9, ny=7).uniform
    assert not geometric_grid(12, 1.3).uniform
    assert not Grid2D.graded(2.0, 3.0, 1e-6, 1.3, 0.2, 1e-3, 1.1, 0.1).uniform
    y = np.linspace(0.0, 1.0, 9)
    col = Grid2D.column(0.25, 1.0, y)
    assert not col.uniform and col.hx == np.inf
    assert not Grid2D.column(0.25, 1.0,
                             graded_nodes(1.0, 1e-4, 1.3, 0.05)).uniform
    # one node off linspace by an ulp makes a graded grid
    x = np.linspace(-0.5, 0.5, 9)
    x[2] = np.nextafter(x[2], 0.0)
    g = Grid2D(Lx=0.5, Ly=0.25, nx=9, ny=7,
               coords=(x, np.linspace(0.0, 0.25, 7)))
    assert not g.uniform and g != Grid2D(Lx=0.5, Ly=0.25, nx=9, ny=7)


def test_graded_snapshot_roundtrip(tmp_path):
    g = geometric_grid(12, 1.3)
    rng = np.random.default_rng(11)
    f = ScalarField(g, rng.normal(size=(g.ny, g.nx)))
    path = tmp_path / "snap.bin"
    write_snapshot(f, path, time=0.25)
    raw = path.read_bytes()
    assert raw[:4] == b"GBU2"
    assert len(raw) == 32 + (g.nx + g.ny + g.nx * g.ny) * 8
    f2, t2 = read_snapshot(path)
    assert t2 == 0.25
    assert f2.grid == g and not f2.grid.uniform
    assert np.array_equal(f2.grid.y, g.y)
    assert np.array_equal(f2.values, f.values)

    (tmp_path / "coords.bin").write_bytes(raw[:32 + 8 * (g.nx - 3)])
    with pytest.raises(ConfigurationError, match="coordinates"):
        read_snapshot(tmp_path / "coords.bin")
    (tmp_path / "payload.bin").write_bytes(raw[:-8])
    with pytest.raises(ConfigurationError, match="payload"):
        read_snapshot(tmp_path / "payload.bin")
