"""The finite-difference stencils of the lab, in numpy.

Each stencil is written once, along axis 0 of an array, for an axis given
either by its constant spacing h (a float) or by the three-point weights of a
graded `grid.Axis`; derivatives along x run on the transposed view.  The 2D
entry points take the grid and pick the axis themselves: constant-spacing
formulas on a uniform grid, non-uniform weights on a graded one.  A 1D column
(nx = 1) has no x axis: its right-hand side and gradient maximum are
`rhs_interior_1d` and `grad_max_1d`, given the column's y axis.

The stencils write every interior-size intermediate into arrays the caller
passes in, doing the same IEEE operations in the same order as when they
allocate them, so a step can run on its run's workspace without a per-call
temporary.  The 2D right-hand side `rhs_interior`, which only the solver
calls, requires these buffers; the library (`grid.laplacian`,
`grid.gradient`, diagnostics) lets the stencils allocate.  The gradient
maxima can leave the gradient they form in given arrays, and the right-hand
sides can take it in place of forming their own, with the same bits.
Kernels are serial, so repeated runs are bit-reproducible.
"""

from __future__ import annotations

import numpy as np

__all__ = ["d1", "d2", "one_sided", "derivative", "gradient",
           "grad_norm_max", "laplacian", "u_xx", "rhs_interior",
           "rhs_interior_1d", "grad_max_1d"]


def _weighted(w, a, b, c, out=None, tmp=None):
    """w[0] a + w[1] b + w[2] c, summed left to right (into out, with the
    products in tmp, if given)."""
    out = np.multiply(w[0], a, out=out)
    out += np.multiply(w[1], b, out=tmp)
    out += np.multiply(w[2], c, out=tmp)
    return out


def d1(u, h, out=None, tmp=None):
    """First derivative along axis 0 at the interior nodes u[1:-1] (into
    out, with tmp as scratch on a graded axis, if given)."""
    if isinstance(h, float):
        out = np.subtract(u[2:], u[:-2], out=out)
        out /= 2.0 * h
        return out
    return _weighted(h.d1, u[:-2], u[1:-1], u[2:], out, tmp)


def d2(u, h, out=None, tmp=None):
    """Second derivative along axis 0 at the interior nodes u[1:-1] (into
    out, with tmp as scratch on a graded axis, if given)."""
    if isinstance(h, float):
        out = np.multiply(2.0, u[1:-1], out=out)
        np.subtract(u[2:], out, out=out)
        out += u[:-2]
        out /= h**2
        return out
    return _weighted(h.d2, u[:-2], u[1:-1], u[2:], out, tmp)


def one_sided(u, h):
    """Second-order one-sided first derivatives along axis 0 at u[0] and at
    u[-1], each from the three nodes nearest its end."""
    if isinstance(h, float):
        return ((-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * h),
                (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * h))
    return (_weighted(h.lo, u[0], u[1], u[2]),
            _weighted(h.hi, u[-3], u[-2], u[-1]))


def _T(a):
    """The transpose of a, or None."""
    return None if a is None else a.T


def derivative(u, h, out=None, tmp=None):
    """First derivative along axis 0 at every node: central inside,
    one-sided at both ends (into out, with tmp of u's shape as scratch, if
    given)."""
    if out is None:
        out = np.empty_like(u)
    d1(u, h, out[1:-1], None if tmp is None else tmp[1:-1])
    out[0], out[-1] = one_sided(u, h)
    return out


def _axes(g):
    """(x, y) axes of grid g: spacings if it is uniform, else weights."""
    return (g.hx, g.hy) if g.uniform else (g.ax, g.ay)


def gradient(u, g, out=(None, None), tmp=None):
    """(u_x, u_y) at every node of grid g, into the pair out, with tmp of
    u's shape as scratch, if given."""
    hx, hy = _axes(g)
    fx, fy = out
    return (derivative(u.T, hx, _T(fx), _T(tmp)).T,
            derivative(u, hy, fy, tmp))


def grad_norm_max(u, g, out=None, tmp=None):
    """Largest |grad u| over every node of grid g.  With out = (u_x, u_y,
    |grad u|^2), three arrays of u's shape, the gradient is left there;
    tmp, one more, is scratch."""
    fx, fy = gradient(u, g, (None, None) if out is None else out[:2], tmp)
    g2 = np.multiply(fx, fx, out=None if out is None else out[2])
    g2 += np.multiply(fy, fy, out=tmp)
    return float(np.sqrt(np.max(g2)))


def laplacian(u, g, out=None, tmp=(None, None)):
    """Lap(u) at the interior nodes, shape (ny - 2, nx - 2); into out, with
    the pair tmp of that shape as scratch, if given."""
    hx, hy = _axes(g)
    t1, t2 = tmp
    out = d2(u[1:-1].T, hx, _T(out), _T(t1)).T
    out += d2(u[:, 1:-1], hy, t1, t2)
    return out


def u_xx(u, g):
    """u_xx at the interior columns, shape (ny, nx - 2)."""
    return d2(u.T, _axes(g)[0]).T


def _source(g2, p, out, k=None):
    """Write |grad u|^p = g2 k into out, for g2 = |grad u|^2, and
    k = |grad u|^(p-2) into k if given; return k, which the implicit step's
    advection speed p k grad u shares."""
    k = np.sqrt(g2, out=k) if p == 3.0 else np.power(g2, p / 2.0 - 1.0,
                                                      out=k)
    np.multiply(g2, k, out=out)
    return k


def rhs_interior(u, g, p, out, scratch, grad=None):
    """Write Lap(u) + |grad u|^p into the interior of out; return the
    interior (u_x, u_y, |grad u|^(p-2)).  scratch is six arrays of the
    interior's shape: (u_x, u_y, |grad u|^2) are formed in the first three
    unless grad gives them, as `grad_norm_max` left them for u, and the
    Laplacian and the rest in the last three; the k returned is the last."""
    hx, hy = _axes(g)
    lap, t1, t2 = scratch[3:]
    laplacian(u, g, lap, (t1, t2))
    if grad is None:
        grad = ux, uy, g2 = scratch[:3]
        d1(u[1:-1].T, hx, ux.T, t1.T)
        d1(u[:, 1:-1], hy, uy, t1)
        np.multiply(ux, ux, out=g2)
        g2 += np.multiply(uy, uy, out=t1)
    ux, uy, g2 = grad
    k = _source(g2, p, out[1:-1, 1:-1], t2)
    out[1:-1, 1:-1] += lap
    return ux, uy, k


def rhs_interior_1d(u, hy, p, out, uy=None):
    """Write u_yy + |u_y|^p into the interior rows of out, for u a 1D array
    or an (ny, 1) column; return the interior (u_y, |u_y|^(p-2)).  uy, if
    given, is the interior u_y of u, already formed by `grad_max_1d`."""
    if uy is None:
        uy = d1(u, hy)
    k = _source(uy * uy, p, out[1:-1])
    out[1:-1] += d2(u, hy)
    return uy, k


def grad_max_1d(u, hy, out=None):
    """Largest |u_y| over every node of a 1D array or an (ny, 1) column;
    u_y is left in out if given."""
    return float(np.max(np.abs(derivative(u, hy, out))))
