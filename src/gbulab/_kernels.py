"""The finite-difference stencils of the lab, in numpy.

Each stencil is written once, along axis 0 of an array, as a weighted sum of
three neighbours with the weights of a `grid.Axis`; derivatives along x run
on the transposed view.  The weights are floats on a uniform grid and
per-node columns on a graded one, and the arithmetic is the same either way.
The 2D entry points take the grid and read its axes `ax` and `ay`.  A 1D
column (nx = 1) has no x axis: its right-hand side and gradient maximum are
`rhs_interior_1d` and `grad_max_1d`, given the column's y axis.

The 2D stencils write every interior-size intermediate into arrays the
caller passes in, doing the same IEEE operations in the same order as when
they allocate them, so a 2D step can run on its run's workspace without a
per-call temporary.  The 2D right-hand side `rhs_interior`, which only the
solver calls, requires these buffers; the library (`grid.laplacian`,
`grid.gradient`, diagnostics) lets the stencils allocate, and so does the
column's `rhs_interior_1d` (u_y^2, its power and u_yy).  The gradient maxima
leave the gradient they form in given arrays, and both right-hand sides take
that gradient rather than form one, so `derivative` is the one stencil that
forms a gradient.  Kernels are serial, so repeated runs are bit-reproducible.
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


def d1(u, axis, out=None, tmp=None):
    """First derivative along axis 0 at the interior nodes u[1:-1] (into
    out, with tmp as scratch, if given)."""
    return _weighted(axis.d1, u[:-2], u[1:-1], u[2:], out, tmp)


def d2(u, axis, out=None, tmp=None):
    """Second derivative along axis 0 at the interior nodes u[1:-1] (into
    out, with tmp as scratch, if given)."""
    return _weighted(axis.d2, u[:-2], u[1:-1], u[2:], out, tmp)


def one_sided(u, axis):
    """Second-order one-sided first derivatives along axis 0 at u[0] and at
    u[-1], each from the three nodes nearest its end."""
    return (_weighted(axis.lo, u[0], u[1], u[2]),
            _weighted(axis.hi, u[-3], u[-2], u[-1]))


def _T(a):
    """The transpose of a, or None."""
    return None if a is None else a.T


def derivative(u, axis, out=None, tmp=None):
    """First derivative along axis 0 at every node: central inside,
    one-sided at both ends (into out, with tmp of u's shape as scratch, if
    given)."""
    if out is None:
        out = np.empty_like(u)
    d1(u, axis, out[1:-1], None if tmp is None else tmp[1:-1])
    out[0], out[-1] = one_sided(u, axis)
    return out


def gradient(u, g, out=(None, None), tmp=None):
    """(u_x, u_y) at every node of grid g, into the pair out, with tmp of
    u's shape as scratch, if given."""
    fx, fy = out
    return (derivative(u.T, g.ax, _T(fx), _T(tmp)).T,
            derivative(u, g.ay, fy, tmp))


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
    t1, t2 = tmp
    out = d2(u[1:-1].T, g.ax, _T(out), _T(t1)).T
    out += d2(u[:, 1:-1], g.ay, t1, t2)
    return out


def u_xx(u, g):
    """u_xx at the interior columns, shape (ny, nx - 2)."""
    return d2(u.T, g.ax).T


def _source(g2, p, out, k=None):
    """Write |grad u|^p = g2 k into out, for g2 = |grad u|^2, and
    k = |grad u|^(p-2) into k if given; return k, which the implicit step's
    advection speed p k grad u shares."""
    k = np.sqrt(g2, out=k) if p == 3.0 else np.power(g2, p / 2.0 - 1.0,
                                                      out=k)
    np.multiply(g2, k, out=out)
    return k


def rhs_interior(u, g, p, out, scratch, grad):
    """Write Lap(u) + |grad u|^p into the interior of out; return the
    interior (u_x, u_y, |grad u|^(p-2)).  grad is the interior (u_x, u_y,
    |grad u|^2) of u, as `grad_norm_max` left it; scratch is three arrays of
    the interior's shape, for the Laplacian and the rest; the k returned is
    the last."""
    lap, t1, t2 = scratch
    laplacian(u, g, lap, (t1, t2))
    ux, uy, g2 = grad
    k = _source(g2, p, out[1:-1, 1:-1], t2)
    out[1:-1, 1:-1] += lap
    return ux, uy, k


def rhs_interior_1d(u, ay, p, out, uy):
    """Write u_yy + |u_y|^p into the interior rows of out, for u a 1D array
    or an (ny, 1) column; return the interior (u_y, |u_y|^(p-2)).  uy is the
    interior u_y of u, as `grad_max_1d` left it."""
    k = _source(uy * uy, p, out[1:-1])
    out[1:-1] += d2(u, ay)
    return uy, k


def grad_max_1d(u, ay, out=None):
    """Largest |u_y| over every node of a 1D array or an (ny, 1) column;
    u_y is left in out if given."""
    return float(np.max(np.abs(derivative(u, ay, out))))
