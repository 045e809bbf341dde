"""The finite-difference stencils of the lab, in numpy.

Each stencil is written once, along axis 0 of an array, as a weighted sum of
three neighbours with the weights of a `grid.Axis`; derivatives along x run
on the transposed view.  The weights are floats on a uniform grid and
per-node columns on a graded one, and the arithmetic is the same either way.
The 2D entry points take the grid and read its axes `ax` and `ay`.  A 1D
column (nx = 1) has no x axis: its right-hand side and gradient maximum are
`rhs_interior_1d` and `grad_max_1d`, given the column's y axis.

The gradient maxima return the gradient they form, and both right-hand sides
take that gradient rather than form one, so `derivative` is the one stencil
that forms a gradient.  Kernels are serial, so repeated runs are
bit-reproducible.
"""

from __future__ import annotations

import numpy as np

__all__ = ["d1", "d2", "one_sided", "derivative", "gradient",
           "grad_norm_max", "laplacian", "u_xx", "rhs_interior",
           "rhs_interior_1d", "grad_max_1d"]


def _weighted(w, a, b, c):
    """w[0] a + w[1] b + w[2] c, summed left to right."""
    out = w[0] * a
    out += w[1] * b
    out += w[2] * c
    return out


def d1(u, axis):
    """First derivative along axis 0 at the interior nodes u[1:-1]."""
    return _weighted(axis.d1, u[:-2], u[1:-1], u[2:])


def d2(u, axis):
    """Second derivative along axis 0 at the interior nodes u[1:-1]."""
    return _weighted(axis.d2, u[:-2], u[1:-1], u[2:])


def one_sided(u, axis):
    """Second-order one-sided first derivatives along axis 0 at u[0] and at
    u[-1], each from the three nodes nearest its end."""
    return (_weighted(axis.lo, u[0], u[1], u[2]),
            _weighted(axis.hi, u[-3], u[-2], u[-1]))


def derivative(u, axis):
    """First derivative along axis 0 at every node: central inside,
    one-sided at both ends."""
    out = np.empty_like(u)
    out[1:-1] = d1(u, axis)
    out[0], out[-1] = one_sided(u, axis)
    return out


def gradient(u, g):
    """(u_x, u_y) at every node of grid g."""
    return derivative(u.T, g.ax).T, derivative(u, g.ay)


def grad_norm_max(u, g):
    """(largest |grad u| over every node of grid g, (u_x, u_y,
    |grad u|^2) at every node)."""
    fx, fy = gradient(u, g)
    g2 = fx * fx
    g2 += fy * fy
    return float(np.sqrt(np.max(g2))), (fx, fy, g2)


def laplacian(u, g):
    """Lap(u) at the interior nodes, shape (ny - 2, nx - 2)."""
    out = d2(u[1:-1].T, g.ax).T
    out += d2(u[:, 1:-1], g.ay)
    return out


def u_xx(u, g):
    """u_xx at the interior columns, shape (ny, nx - 2)."""
    return d2(u.T, g.ax).T


def _source(g2, p):
    """(|grad u|^p = g2 k, k = |grad u|^(p-2)) for g2 = |grad u|^2; the
    implicit step's advection speed p k grad u shares k."""
    k = np.sqrt(g2) if p == 3.0 else np.power(g2, p / 2.0 - 1.0)
    return g2 * k, k


def rhs_interior(u, g, p, grad):
    """(Lap(u) + |grad u|^p, |grad u|^(p-2)) at the interior nodes of u,
    for grad the interior (u_x, u_y, |grad u|^2) of u, as `grad_norm_max`
    returned it."""
    lap = laplacian(u, g)
    F, k = _source(grad[2], p)
    F += lap
    return F, k


def rhs_interior_1d(u, ay, p, uy):
    """(u_yy + |u_y|^p, |u_y|^(p-2)) at the interior rows of u, a 1D array
    or an (ny, 1) column, for uy its interior u_y, as `grad_max_1d`
    returned it."""
    F, k = _source(uy * uy, p)
    F += d2(u, ay)
    return F, k


def grad_max_1d(u, ay):
    """(largest |u_y| over every node of a 1D array or an (ny, 1) column,
    u_y at every node)."""
    uy = derivative(u, ay)
    return float(np.max(np.abs(uy))), uy
