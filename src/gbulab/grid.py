"""Tensor grid on [-Lx, Lx] x [0, Ly], nodal fields, second-order
finite-difference stencils and the run-directory file format.

Fields store values in a (ny, nx) array, row-major with y as the outer index.
nx is forced odd so the symmetry line x = 0 is a node.

Every grid carries its x and y nodes, evenly spaced unless given, with the
node of the symmetry line x = 0 exactly 0.  It is uniform when it is not a
column and its nodes are those evenly spaced ones bit for bit.  A graded grid
(`Grid2D.graded`) is geometric toward both walls y = 0 and y = Ly and toward
x = 0.  The 1D reduction runs on a column (`Grid2D.column`): nx = 1, the one
node x = 0, and y nodes of its own, uniform or graded toward both walls
(`graded_nodes`); it takes no x derivatives.

Every stencil takes its three-point weights from an `Axis` per direction,
`Grid2D.ax` and `Grid2D.ay`: floats from the spacing on a uniform grid,
per-node weights on any other.  This is the one place that tells the two
apart; the stencils themselves, in `_kernels`, do the same arithmetic on
either.  `Grid2D.mirror_nodes` tells whether the nodes are mirror images
about x = 0 and about Ly/2 bit for bit, for the initial cap and the solver
alike, and `Grid2D.window` gives the weights on the nodes x[i0:] and
y[:j1] of the grid, which the solver steps when a run is even in x and
about Ly/2 (`solver._mirrors`).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field, fields, is_dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from . import _kernels
from .errors import ConfigurationError, NumericError, SnapshotError

try:  # the interpreter's own sha256, as random.py takes its sha512: hashlib's
    # loads OpenSSL, which adds about 3.5 MB to the resident size of every
    # run, fit and check.  The digests are the same.
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:  # an interpreter built without it
        from hashlib import sha256 as _sha256

__all__ = [
    "Axis",
    "Grid2D",
    "Window",
    "ScalarField",
    "graded_nodes",
    "laplacian",
    "gradient",
    "write_snapshot",
    "read_snapshot",
    "read_verified",
    "to_json",
    "write_json",
    "write_rows",
    "SNAPSHOT_MAGIC",
]

SNAPSHOT_MAGIC = b"GBU2"  # header, x, y, then the values
_HEADER = struct.Struct("<4sHHddd")  # magic, nx, ny, Lx, Ly, time (32 bytes)


class Axis:
    """Three-point stencil weights on the nodes z of one axis.

    `d1` and `d2` hold the (left, centre, right) weights of the first and
    second derivative at the interior nodes z[1:-1]; `lo` and `hi` hold the
    one-sided first-derivative weights at z[0] (on z[0], z[1], z[2]) and at
    z[-1] (on z[-3], z[-2], z[-1]).  All are exact on quadratics.  On nodes
    given as z the interior weights are (n - 2, 1) columns, so they
    broadcast along axis 0 of a field: y of a (ny, nx) field, x of its
    transpose.  On an axis of constant spacing (`Axis.even`) every weight
    is one float, the same at every node.
    """

    @classmethod
    def even(cls, h) -> "Axis":
        """The weights of an axis of constant spacing h, as floats."""
        axis = cls.__new__(cls)
        axis.d1 = (-0.5 / h, 0.0, 0.5 / h)
        axis.d2 = (1.0 / h**2, -2.0 / h**2, 1.0 / h**2)
        axis.lo = (-1.5 / h, 2.0 / h, -0.5 / h)
        axis.hi = (0.5 / h, -2.0 / h, 1.5 / h)
        return axis

    def __init__(self, z):
        z = np.asarray(z, dtype=float)
        hm = z[1:-1] - z[:-2]
        hp = z[2:] - z[1:-1]
        s = hm + hp
        d1 = (-hp / (hm * s), (hp - hm) / (hm * hp), hm / (hp * s))
        d2 = (2.0 / (hm * s), -2.0 / (hm * hp), 2.0 / (hp * s))
        self.d1 = tuple(w.reshape(-1, 1) for w in d1)
        self.d2 = tuple(w.reshape(-1, 1) for w in d2)
        a, b = z[1] - z[0], z[2] - z[1]
        self.lo = (-(2.0 * a + b) / (a * (a + b)), (a + b) / (a * b),
                   -a / (b * (a + b)))
        a, b = z[-1] - z[-2], z[-2] - z[-3]
        self.hi = (a / (b * (a + b)), -(a + b) / (a * b),
                   (2.0 * a + b) / (a * (a + b)))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _geometric_cells(length, first, ratio, largest):
    """Cell sizes covering [0, length]: first * ratio^k while below `largest`,
    then equal cells no larger than `largest` for the rest."""
    if not (first > 0 and ratio > 1 and largest >= first and first < length):
        raise ConfigurationError(
            f"graded axis needs 0 < first < length, ratio > 1 and "
            f"largest >= first; got first={first}, ratio={ratio}, "
            f"largest={largest}, length={length}")
    cells = []
    h, total = first, 0.0
    while h < largest and total + h < length:
        cells.append(h)
        total += h
        h *= ratio
    rest = length - total
    if cells and rest < 0.5 * cells[-1]:
        cells[-1] += rest  # too short for a cell of its own
    else:
        n = int(np.ceil(rest / largest))
        cells.extend([rest / n] * n)
    return np.asarray(cells)


def graded_nodes(length, first, ratio, largest) -> np.ndarray:
    """Nodes of [0, length], symmetric about its middle, whose cells grow by
    `ratio` from `first` at each end up to `largest`.

    A first cell under 100 ulp of `length` is rejected: near the far end the
    cells would be whole multiples of that ulp, their ratios lost.
    """
    if not first >= 100.0 * np.spacing(float(length)):
        raise ConfigurationError(
            f"graded axis: first cell {first} is below 100 ulp of the axis "
            f"length {length}")
    half = np.concatenate(
        [[0.0], np.cumsum(_geometric_cells(length / 2.0, first, ratio,
                                           largest))])
    half[-1] = length / 2.0
    return np.concatenate([half, length - half[-2::-1]])


@dataclass(frozen=True, eq=False)
class Grid2D:
    """Tensor grid on [-Lx, Lx] x [0, Ly] whose `coords` hold its (x, y)
    nodes: evenly spaced when it is built without them, graded (see
    `graded`), or a 1D column (see `column`).  `uniform` is worked out from
    the nodes."""

    Lx: float
    Ly: float
    nx: int
    ny: int
    coords: Optional[tuple] = field(default=None, repr=False)
    uniform: bool = field(init=False, repr=False)

    def __post_init__(self):
        if self.nx % 2 == 0:
            raise ConfigurationError(f"nx must be odd (x = 0 must be a node), got {self.nx}")
        if self.ny < 5 or not (self.nx >= 5 or self.is_column and self.coords):
            raise ConfigurationError("grid requires nx, ny >= 5, or nx = 1 "
                                     "and y coordinates for a column")
        if not (self.Lx > 0 and self.Ly > 0):
            raise ConfigurationError("grid requires Lx, Ly > 0")
        even = (np.linspace(-self.Lx, self.Lx, self.nx),
                np.linspace(0.0, self.Ly, self.ny))
        even[0][self.ix0] = 0.0  # linspace can round it off 0 (Lx=0.06, nx=15)
        x, y = (np.array(c, dtype=float)
                for c in (even if self.coords is None else self.coords))
        object.__setattr__(self, "coords", (_read_only(x), _read_only(y)))
        # not a column, and both node arrays evenly spaced bit for bit
        object.__setattr__(self, "uniform", not self.is_column and all(
            map(np.array_equal, (x, y), even)))
        if x.shape != (self.nx,) or y.shape != (self.ny,):
            raise ConfigurationError(
                f"coordinate arrays of length {x.size}, {y.size} do not match "
                f"nx={self.nx}, ny={self.ny}")
        if not (np.all(np.diff(x) > 0) and np.all(np.diff(y) > 0)):
            raise ConfigurationError("grid coordinates must increase strictly")
        lx = 0.0 if self.is_column else self.Lx
        if (x[0], x[self.ix0], x[-1], y[0], y[-1]) != \
                (-lx, 0.0, lx, 0.0, self.Ly):
            raise ConfigurationError(
                "grid coordinates must run from -Lx through 0 to Lx (on a "
                "column: x = 0 alone) and from 0 to Ly")

    @classmethod
    def graded(cls, Lx, Ly, y_first, y_ratio, y_max, x_first, x_ratio,
               x_max) -> "Grid2D":
        """Geometric grid, symmetric about x = 0 and about y = Ly/2.

        From each wall y = 0 and y = Ly the cells grow by `y_ratio` from
        `y_first` up to `y_max`; from x = 0 they grow by `x_ratio` from
        `x_first` up to `x_max` on each side.  The middle of each axis is
        filled with equal cells no larger than the cap.
        """
        half = np.cumsum(_geometric_cells(Lx, x_first, x_ratio, x_max))
        half[-1] = Lx
        x = np.concatenate([-half[::-1], [0.0], half])
        y = graded_nodes(Ly, y_first, y_ratio, y_max)
        return cls(Lx=Lx, Ly=Ly, nx=x.size, ny=y.size, coords=(x, y))

    @classmethod
    def column(cls, Lx, Ly, y) -> "Grid2D":
        """The 1D reduction on the nodes y of [0, Ly]: one column at x = 0.
        Lx only bounds the x extent of initial data built on it."""
        return cls(Lx=Lx, Ly=Ly, nx=1, ny=len(y), coords=((0.0,), y))

    def __eq__(self, other):
        if not isinstance(other, Grid2D):
            return NotImplemented
        return ((self.Lx, self.Ly, self.nx, self.ny)
                == (other.Lx, other.Ly, other.nx, other.ny)
                and all(map(np.array_equal, self.coords, other.coords)))

    def __hash__(self):
        return hash((self.Lx, self.Ly, self.nx, self.ny))

    @property
    def is_column(self) -> bool:
        return self.nx == 1

    @property
    def hx(self) -> float:
        """x spacing; on a graded grid, the smallest one; on a column, which
        has none, inf."""
        if self.uniform:
            return 2.0 * self.Lx / (self.nx - 1)
        if self.is_column:
            return float("inf")
        return float(np.min(np.diff(self.x)))

    @property
    def hy(self) -> float:
        """y spacing; on a graded grid, the smallest one."""
        if self.uniform:
            return self.Ly / (self.ny - 1)
        return float(np.min(np.diff(self.y)))

    @property
    def x(self) -> np.ndarray:
        """x node coordinates (read-only)."""
        return self.coords[0]

    @property
    def y(self) -> np.ndarray:
        """y node coordinates (read-only)."""
        return self.coords[1]

    @cached_property
    def ax(self) -> Axis:
        """Stencil weights along x, for every stencil and the implicit
        step's line solves: floats from hx on a uniform grid, else the
        weights on the x nodes."""
        return Axis.even(self.hx) if self.uniform else Axis(self.x)

    @cached_property
    def ay(self) -> Axis:
        """Stencil weights along y, for every stencil and the implicit
        step's line solves: floats from hy on a uniform grid, else the
        weights on the y nodes."""
        return Axis.even(self.hy) if self.uniform else Axis(self.y)

    def meshgrid(self):
        """(X, Y) of shape (ny, nx), as read-only broadcast views of x and y
        that take no memory of their own."""
        return np.meshgrid(self.x, self.y, copy=False)

    @property
    def ix0(self) -> int:
        """Column index of the symmetry line x = 0."""
        return (self.nx - 1) // 2

    @cached_property
    def mirror_nodes(self) -> tuple:
        """(x, y): whether x[ix0 + k] == -x[ix0 - k] and y[ny - 1 - j] ==
        Ly - y[j], j < (ny + 1) / 2, bit for bit: the upper y half is built
        as Ly minus the lower, and Ly - (Ly - y) need not round back to y."""
        x, y, i, m = self.x, self.y, self.ix0, (self.ny + 1) // 2
        return (bool(np.array_equal(x[i:], -x[i::-1])),
                bool(np.array_equal(y[:-m - 1:-1], self.Ly - y[:m])))

    def window(self, i0: int, j1: int) -> "Window":
        """The stencil weights on the nodes x[i0:] and y[:j1], for stencils
        and line solves on that window of the grid: at the window's inner
        nodes they are the grid's own, bit for bit."""
        if self.uniform:  # one float per weight, the same at every node
            return Window(self.ax, self.ay)
        return Window(Axis(self.x[i0:]), Axis(self.y[:j1]))


class Window(NamedTuple):
    """What the 2D stencils read of a grid, `ax` and `ay`, for a window of
    it (`Grid2D.window`)."""

    ax: Axis
    ay: Axis


@dataclass
class ScalarField:
    grid: Grid2D
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.ny, self.grid.nx):
            raise ConfigurationError(
                f"field shape {self.values.shape} != grid shape "
                f"{(self.grid.ny, self.grid.nx)}")

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())


def _check_finite(f: ScalarField, what: str):
    if not np.all(np.isfinite(f.values)):
        j, i = np.argwhere(~np.isfinite(f.values))[0]
        raise NumericError(f"{what}: non-finite value at node (i={i}, j={j})")


def laplacian(f: ScalarField) -> ScalarField:
    """5-point Laplacian on interior nodes; boundary nodes are set to zero
    (never read under Dirichlet stepping)."""
    _check_finite(f, "laplacian")
    out = np.zeros_like(f.values)
    out[1:-1, 1:-1] = _kernels.laplacian(f.values, f.grid)
    return ScalarField(f.grid, out)


def gradient(f: ScalarField):
    """(f_x, f_y) with central differences inside and second-order one-sided
    3-point differences on the boundary (including u_y at y = 0)."""
    _check_finite(f, "gradient")
    fx, fy = _kernels.gradient(f.values, f.grid)
    return ScalarField(f.grid, fx), ScalarField(f.grid, fy)


# --------------------------------------------------------------------------
# Serialization: the run-directory format, which `check` replays byte for byte
# --------------------------------------------------------------------------


def _encode(obj):
    if is_dataclass(obj) and not isinstance(obj, type):
        # one level: the encoder comes back here for nested values, so
        # dataclasses.asdict's deep copy would only cost time
        return {f.name: getattr(obj, f.name) for f in fields(obj)}
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serializable: {type(obj)}")


def to_json(doc) -> str:
    """JSON text of doc with sorted keys, two-space indent and a final
    newline; dataclasses and numpy values are converted."""
    return json.dumps(doc, default=_encode, indent=2, sort_keys=True) + "\n"


def write_json(path, doc):
    """Write `to_json(doc)` to path."""
    with open(path, "w") as fh:
        fh.write(to_json(doc))


def write_rows(path, header, rows) -> str:
    """Write a CSV of the header names, then rows of floats as their repr.
    Returns the sha256 hex digest of the bytes written."""
    lines = [",".join(header)]
    lines.extend(",".join(repr(float(v)) for v in row) for row in rows)
    data = ("\n".join(lines) + "\n").encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return _sha256(data).hexdigest()


def write_snapshot(f: ScalarField, path, time: float) -> str:
    """Raw little-endian binary snapshot, one layout for every grid: a 32-byte
    header (magic GBU2, nx, ny, Lx, Ly, time), the x (nx) and y (ny) nodes,
    then the f64 values.  Returns the sha256 hex digest of the bytes written.
    """
    g = f.grid
    parts = [_HEADER.pack(SNAPSHOT_MAGIC, g.nx, g.ny, g.Lx, g.Ly, time)]
    parts += [np.ascontiguousarray(c, dtype="<f8").tobytes() for c in g.coords]
    parts.append(np.ascontiguousarray(f.values, dtype="<f8").tobytes())
    digest = _sha256()
    with open(path, "wb") as fh:
        for part in parts:
            fh.write(part)
            digest.update(part)
    return digest.hexdigest()


def read_verified(path, sha256: Optional[str] = None) -> bytes:
    """The bytes of a run-directory file; SnapshotError if it cannot be read
    or, with sha256 set, if their digest is not that one."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise SnapshotError(f"cannot read {path}: {exc}")
    if sha256 is not None and _sha256(raw).hexdigest() != sha256:
        raise SnapshotError(f"{path}: sha256 differs from the one recorded "
                            "when it was written")
    return raw


def read_snapshot(path, sha256: Optional[str] = None):
    """Inverse of write_snapshot; returns (ScalarField, time).  SnapshotError
    for a file that `read_verified` rejects, is truncated, has a bad magic or
    describes no valid grid."""
    raw = read_verified(path, sha256)
    if len(raw) < _HEADER.size:
        raise SnapshotError(f"snapshot {path}: truncated header")
    magic, nx, ny, Lx, Ly, time = _HEADER.unpack_from(raw)
    if magic != SNAPSHOT_MAGIC:
        raise SnapshotError(f"snapshot {path}: bad magic {magic!r}")
    size = len(raw) - _HEADER.size
    if size < (nx + ny) * 8:
        raise SnapshotError(f"snapshot {path}: truncated coordinates")
    if size != (nx + ny + nx * ny) * 8:
        raise SnapshotError(f"snapshot {path}: truncated payload")
    data = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    coords, values = (data[:nx], data[nx:nx + ny]), data[nx + ny:]
    try:
        grid = Grid2D(Lx=Lx, Ly=Ly, nx=nx, ny=ny, coords=coords)
    except ConfigurationError as exc:
        raise SnapshotError(f"snapshot {path}: {exc}")
    return ScalarField(grid, values.reshape(ny, nx).copy()), time
