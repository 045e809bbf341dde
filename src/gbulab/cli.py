"""Command-line front end: config parsing, run-directory lifecycle, preset
registry and post-hoc fit/diagnostic emission.

Subcommands: run, mms, check, barrier, fit, sweep.  Exit codes: 0 success,
1 `check` derived a file that differs from the run directory's copy, or
found a derived file that this run does not produce, 2 invalid config or
output path (`run -o` onto a file or a non-empty directory, `barrier --out`
onto a directory or into a missing one, a `sweep` whose configs share a file
stem or a taken run directory), 3 numeric failure or a run that
took 0 steps, 4 convergence failure, 5 corrupt or malformed run directory
(a snapshot or series.csv without its sha256 in meta.json included).  All
outputs are deterministic CSV/JSON files written by `grid`; plotting is
left to external tools.  A 1D run (family sine_1d) runs on a column at
x = 0 through the same run, snapshots, fit and check.
"""

from __future__ import annotations

import argparse
import filecmp
import functools
import math
import os
import shutil
import sys
import tempfile
from dataclasses import asdict, dataclass, field

import numpy as np
import yaml

from . import diagnostics as diag
from . import initial_data, profile_fit, solver
from .errors import (ConfigurationError, DomainError, FitError, GbulabError,
                     NumericError, SnapshotError)
from .grid import (Grid2D, ScalarField, graded_nodes, read_snapshot,
                   write_json, write_rows)
from .profile_math import (barrier_params, calibrate_barrier_c0,
                           manufactured_callbacks, manufactured_params,
                           manufactured_solution, j_params, profile_constants)

__all__ = ["RunConfig", "load_config", "load_mms", "preset_path", "main",
           "cmd_run", "cmd_mms", "cmd_check", "cmd_barrier", "cmd_fit",
           "cmd_sweep"]

_PRESET_DIR = os.path.join(os.path.dirname(__file__), "presets")

EXIT_OK = 0
EXIT_DIFFERS = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_CONVERGENCE = 4
EXIT_SNAPSHOT = 5


# --------------------------------------------------------------------------
# Configuration
# --------------------------------------------------------------------------


def _integer(v) -> int:
    n = int(v)
    if n != float(v):  # int() would truncate 64.5 silently
        raise ValueError(v)
    return n


def _integers(v) -> list:
    return [_integer(n) for n in v]


_GRADED_KEYS = ("y_first", "y_ratio", "y_max", "x_first", "x_ratio", "x_max")

# Every settable value of a run config but p, {section: {key: type}}.  The
# defaults stay where the values are read, so meta.json echoes only the YAML.
RUN_SCHEMA = {
    "domain": {"Lx": float, "Ly": float},
    "grid": {"nx": _integer, "ny": _integer,
             **dict.fromkeys(_GRADED_KEYS, float)},
    "initial_data": {"family": str, "amplitude": float, "width": float},
    "solver": {"dt_floor": float, "stop_grad_norm": float, "t_max": float,
               "snapshot_stride": _integer},
    "diagnostics": {"q": float},
    "fits": {"level_frac": float},
}
# fits.level_frac when a config sets none: the level-set level as a fraction
# of the largest u_y in its window
LEVEL_FRAC = 0.5
# the initial_data keys each family needs
_FAMILY_KEYS = {"cap": ("amplitude", "width"), "sine_1d": ("amplitude",)}
MMS_SCHEMA = {"p": float, "alpha": float, "T": float, "t_end": float,
              "Lx": float, "Ly": float, "grids": _integers}


def convert(prefix, raw, types) -> dict:
    """The mapping `raw` with each value converted to its type in `types`
    and null values dropped.  An unknown key, a value that does not convert
    or a float that is not finite raises a ConfigurationError naming
    prefix + key."""
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigurationError(
            f"{prefix.rstrip('.') or 'config root'}: must be a mapping")
    out = {}
    for k, v in raw.items():
        if k not in types:
            raise ConfigurationError(f"unknown config field: {prefix}{k}")
        if v is not None:
            try:
                out[k] = types[k](v)
                if types[k] is float and not np.isfinite(out[k]):
                    raise ValueError(v)  # YAML reads .nan and .inf as floats
            except (TypeError, ValueError, OverflowError):
                raise ConfigurationError(
                    f"{prefix}{k}: expected "
                    f"{types[k].__name__.lstrip('_')}, got {v!r}")
    return out


def _require(prefix, values, keys):
    missing = [prefix + k for k in keys if k not in values]
    if missing:
        raise ConfigurationError(f"missing config field: {', '.join(missing)}")


@dataclass
class RunConfig:
    """A run config, its values converted by RUN_SCHEMA."""
    p: float
    domain: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    initial_data: dict = field(default_factory=dict)
    solver: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
    fits: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        # the root holds p and the sections, each converted below
        top = convert("", d, {"p": float,
                              **dict.fromkeys(RUN_SCHEMA, lambda v: v)})
        _require("", top, ("p",))
        sec = {s: convert(s + ".", top.get(s), types)
               for s, types in RUN_SCHEMA.items()}
        cfg = cls(p=top["p"], **sec)
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        return asdict(self)

    def validate(self):
        if not self.p > 2:
            raise ConfigurationError(f"p: must be > 2, got {self.p}")
        fam = self.initial_data.get("family")
        if fam not in _FAMILY_KEYS:
            raise ConfigurationError(
                f"initial_data.family: must be one of {tuple(_FAMILY_KEYS)}, "
                f"got {fam!r}")
        _require("initial_data.", self.initial_data, _FAMILY_KEYS[fam])
        if self.is_1d and any(k in self.grid for k in _GRADED_KEYS[3:]):
            raise ConfigurationError("grid: a 1D run takes no x grading")
        if not 0 < (frac := self.fits.get("level_frac", LEVEL_FRAC)) <= 1:
            raise ConfigurationError(
                f"fits.level_frac: must be in (0, 1], got {frac}")
        # constructing these checks the ranges (j_params: diagnostics.q)
        self.make_grid()
        self.make_solver_config()
        j_params(profile_constants(self.p), 0.5, self.diagnostics.get("q"))

    def make_grid(self) -> Grid2D:
        Lx, Ly = self.domain.get("Lx", 0.25), self.domain.get("Ly", 0.25)
        nx, ny = self.grid.get("nx", 129), self.grid.get("ny", 129)
        try:
            if self.graded and ("nx" in self.grid or "ny" in self.grid):
                raise ConfigurationError(
                    "grid: nx/ny and a grading are exclusive")
            if self.is_1d:  # one column at x = 0; nx is not read
                if self.graded:
                    y = graded_nodes(Ly, *(self.grid[k]
                                           for k in _GRADED_KEYS[:3]))
                else:
                    y = np.linspace(0.0, Ly, ny)
                return Grid2D.column(Lx, Ly, y)
            if self.graded:
                return Grid2D.graded(Lx, Ly, **{
                    k: self.grid[k] for k in _GRADED_KEYS})
            return Grid2D(Lx=Lx, Ly=Ly, nx=nx, ny=ny)
        except KeyError as exc:
            raise ConfigurationError(f"missing grid field: {exc}")

    @property
    def graded(self) -> bool:
        return any(k in self.grid for k in _GRADED_KEYS)

    def make_solver_config(self) -> solver.SolverConfig:
        return solver.SolverConfig(p=self.p, **self.solver)

    def make_initial(self, g: Grid2D):
        d = self.initial_data
        if d["family"] == "cap":
            return initial_data.symmetric_cap(d["amplitude"], d["width"], g)
        # sine_1d: the arch amplitude sin(pi y / Ly) on the column of a 1D run
        return ScalarField(
            g, d["amplitude"] * np.sin(np.pi * g.y / g.Ly)[:, None])

    @property
    def is_1d(self) -> bool:
        return self.initial_data.get("family") == "sine_1d"


def _read_yaml(path):
    try:
        with open(path) as fh:
            return yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}")
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"cannot parse config {path}: {exc}")


def load_config(path) -> RunConfig:
    return RunConfig.from_dict(_read_yaml(path))


def load_mms(path) -> dict:
    """An mms config, its values converted by MMS_SCHEMA and its defaults
    filled in; each grid of its ladder (two or more, each halving the last
    one's h, as the orders it prints assume) is built, to check it."""
    m = {"Lx": 0.5, "Ly": 0.5, "grids": [33, 65, 129],
         **convert("", _read_yaml(path), MMS_SCHEMA)}
    _require("", m, ("p", "alpha", "T", "t_end"))
    grids = m["grids"]
    for n in grids:
        Grid2D(Lx=m["Lx"], Ly=m["Ly"], nx=n, ny=n)
    if len(grids) < 2 or any(n - 1 != 2 * (prev - 1)
                             for prev, n in zip(grids, grids[1:])):
        raise ConfigurationError("grids: need two or more, each n - 1 twice "
                                 f"the one before, got {grids}")
    return m


def preset_path(name: str) -> str:
    """Resolve a preset name (or passthrough an existing file path)."""
    if os.path.exists(name):
        return name
    cand = os.path.join(_PRESET_DIR, name + ".yaml")
    if os.path.exists(cand):
        return cand
    avail = sorted(f[:-5] for f in os.listdir(_PRESET_DIR)
                   if f.endswith(".yaml"))
    raise ConfigurationError(f"no such config or preset {name!r}; "
                             f"presets: {', '.join(avail)}")


# --------------------------------------------------------------------------
# Fits and diagnostics over a run directory
# --------------------------------------------------------------------------


class _Snapshots:
    """A run directory's (t, field) snapshots in order, each read and checked
    against its sha256 in meta.json when an iteration reaches it, so one is
    resident at a time; it has a length and can be iterated again."""

    def __init__(self, refs):
        self.refs = refs

    def __len__(self):
        return len(self.refs)

    def __iter__(self):
        for r in self.refs:
            f, t = read_snapshot(r.path, r.sha256)
            yield t, f


def _load_run(run_dir):
    """(meta, snapshots, series) of a run directory as `solver.open_run`
    reads it, the snapshots a `_Snapshots`; NumericError for 0 steps."""
    meta, refs, series = solver.open_run(run_dir)
    if meta["outcome"].get("steps") == 0:
        raise NumericError(f"{run_dir}: 0 steps ({meta['outcome']['reason']})")
    return meta, _Snapshots(refs), series


def compute_fits(meta, uy, series, cfg: RunConfig) -> dict:
    """The fits of a run: the time rate of its series.csv for a 1D run, the
    profiles of uy, its final snapshot's u_y, for a 2D one (uy is None for
    a 1D run).

    Individual fit failures are recorded as error strings, keeping the output
    deterministic for replay comparison.
    """
    pc = profile_constants(cfg.p)
    out = {"p": cfg.p, "reason": meta["outcome"]["reason"]}

    def attempt(name, fn):
        try:
            out[name] = fn()
        except (FitError, ConfigurationError) as exc:
            out[name] = {"error": str(exc)}

    if cfg.is_1d:
        def timerate():
            fitv, T_hat, r2 = profile_fit.fit_time_rate(series, pc)
            return {"fit": fitv, "T_hat": T_hat, "linear_r_squared": r2}

        attempt("time_rate", timerate)
        return out

    extent = profile_fit.EXTENT
    level_frac = cfg.fits.get("level_frac", LEVEL_FRAC)
    # the near-wall windows start at the layer's resolution crossover only
    # in a run that built a layer, i.e. blew up (profile_fit.wall_floor)
    blew_up = meta["outcome"]["reason"] == solver.BLOW_UP

    @functools.cache  # one wall_floor for the three near-wall fits
    def floor():
        return profile_fit.wall_floor(uy, pc, blew_up)

    attempt("normal", lambda: profile_fit.fit_normal(uy, floor()))
    attempt("tangential", lambda: profile_fit.fit_tangential(uy, pc))
    attempt("aniso", lambda: profile_fit.fit_aniso(uy, pc, floor()))

    def levelset():
        X, Y = uy.grid.meshgrid()
        sel = (np.abs(X) <= extent) & (Y >= floor()) & (Y <= extent)
        if not np.any(sel):
            raise FitError(f"level-set window (extent {extent}) has no nodes")
        level = level_frac * float(np.max(uy.values[sel]))
        fitv = profile_fit.level_set_shape(uy, level)
        return {"level": level, "fit": fitv}

    attempt("level_set", levelset)
    return out


# every file _write_fits can write; `check` flags any in a run directory
# that the rebuild did not write
DERIVED_FILES = ("fits.json", "profile_normal.csv", "profile_tangential.csv",
                 "profile_levelset.csv", "report.json", "h_table.csv")


def _write_fits(out_dir, meta, snaps, series, cfg: RunConfig):
    """Write every file derived from a run directory's meta.json, snapshots
    and series.csv into out_dir: fits.json, and for a 2D run its profile
    CSVs, report.json and h_table.csv.  Every snapshot is read, and so
    verified, before the first file is written."""
    if cfg.is_1d:
        for _ in snaps:  # verified, though no fit reads them
            pass
        write_json(os.path.join(out_dir, "fits.json"),
                   compute_fits(meta, None, series, cfg))
        return
    # the report first: it reads every snapshot, and it hands back the final
    # snapshot's u_y, the profile every fit reads.  It sets the peak RSS of
    # `fit` on p3-blowup: 31.3 MB before it, 35.9 MB after, 36.2 MB after
    # the fits.  In `run`, whose solver peaks at 34.8 MB on its quarter
    # window, it sets the peak too: 37.2 MB.
    report = diag.build_report(snaps, profile_constants(cfg.p),
                               q=cfg.diagnostics.get("q"))
    diag.write_report(report, out_dir)
    uy = report["final_uy"]
    fits = compute_fits(meta, uy, series, cfg)
    write_json(os.path.join(out_dir, "fits.json"), fits)
    _emit_profile_csvs(uy, out_dir, fits)


def _emit_profile_csvs(uy, out_dir, fits):
    g, v = uy.grid, uy.values
    write_rows(os.path.join(out_dir, "profile_normal.csv"), ("y", "uy"),
               zip(g.y, v[:, g.ix0]))
    write_rows(os.path.join(out_dir, "profile_tangential.csv"), ("x", "uy"),
               zip(g.x[g.ix0:], v[0, g.ix0:]))
    # a level in fits.json means level_set_shape found this curve
    if (level := fits["level_set"].get("level")) is not None:
        xs, ys = profile_fit.level_set_curve(uy, level)
        write_rows(os.path.join(out_dir, "profile_levelset.csv"), ("x", "y"),
                   zip(xs, ys))


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------


def _check_run_dir(out_dir):
    """ConfigurationError unless out_dir, which is to hold one run, is an
    empty directory or a new path with no file on it.  Writes nothing."""
    head = os.path.abspath(out_dir)
    while not os.path.lexists(head):
        head = os.path.dirname(head)
    if not os.path.isdir(head) or head == os.path.abspath(out_dir) \
            and os.listdir(head):
        raise ConfigurationError(f"run directory {out_dir}: {head} is a "
                                 "file or a directory that is not empty")


def _prepare(config_path):
    """(config, initial field, solver config) of a run config or preset;
    ConfigurationError for an invalid value, the initial data's included."""
    cfg = load_config(preset_path(config_path))
    return cfg, cfg.make_initial(cfg.make_grid()), cfg.make_solver_config()


def cmd_run(config_path, out_dir) -> int:
    cfg, u0, scfg = _prepare(config_path)  # validates before any mkdir
    _check_run_dir(out_dir)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"run directory {out_dir}: {exc.strerror}")
    try:
        outcome = solver.run(u0, scfg, run_dir=out_dir,
                             config_echo=cfg.to_dict())
    except NumericError as exc:
        dump = os.path.join(out_dir, "crash.json")
        write_json(dump, {"error": str(exc)})
        print(f"numeric failure: {exc}\nstate dump: {dump}", file=sys.stderr)
        return EXIT_NUMERIC
    try:
        _write_fits(out_dir, *_load_run(out_dir), cfg)
    except NumericError as exc:  # 0 steps: no crash.json; a sweep goes on
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    print(f"{out_dir}: {outcome.reason} at t={outcome.t_stop:.6g} "
          f"({outcome.final.step} steps, "
          f"grad_max={outcome.final.grad_max:.4g})")
    return EXIT_OK


def cmd_mms(config_path) -> int:
    m = load_mms(preset_path(config_path))
    p, t_end = m["p"], m["t_end"]
    pc = profile_constants(p)
    mp = manufactured_params(pc, m["alpha"], m["T"])
    if not 0 < t_end < mp.T:
        raise ConfigurationError(f"t_end: must be in (0, T={mp.T}), "
                                 f"got {t_end}")
    Lx, Ly, grids = m["Lx"], m["Ly"], m["grids"]

    def exact(x, y, t):
        return manufactured_solution(mp, pc, x, y, t)[0]

    errors, n_steps = [], None
    for n in grids:
        g = Grid2D(Lx=Lx, Ly=Ly, nx=n, ny=n)
        # the fewest equal steps with dt <= min(h)^2 on the coarsest grid,
        # then 4x the last grid's, so that dt / h^2 is the same on every grid
        n_steps = (math.ceil(t_end / min(g.hx, g.hy) ** 2) if n_steps is None
                   else 4 * n_steps)
        X, Y = g.meshgrid()
        u0 = ScalarField(g, exact(X, Y, 0.0))
        scfg = solver.SolverConfig(
            p=p, t_max=t_end, stop_grad_norm=1e30, n_steps=n_steps,
            forced=manufactured_callbacks(mp, pc, g.x, g.y))
        outcome = solver.run(u0, scfg)
        uex = exact(X, Y, t_end)  # where every grid's run ends
        err = float(np.max(np.abs(outcome.final.field.values - uex)))
        errors.append(err)
        print(f"n={n:4d}  h={g.hx:.5f}  max_err={err:.6e}")
    orders = [float(np.log2(errors[i] / errors[i + 1]))
              for i in range(len(errors) - 1)]
    for (na, nb), o in zip(zip(grids, grids[1:]), orders):
        print(f"order({na}->{nb}) = {o:.3f}")
    if orders and orders[-1] < 1.5:
        print("convergence failure: finest-pair order < 1.5", file=sys.stderr)
        return EXIT_CONVERGENCE
    return EXIT_OK


def cmd_fit(run_dir) -> int:
    meta, snaps, series = _load_run(run_dir)
    cfg = RunConfig.from_dict(meta["config"])
    _write_fits(run_dir, meta, snaps, series, cfg)
    print(f"{run_dir}: fits rewritten ({len(snaps)} snapshots)")
    return EXIT_OK


def cmd_check(run_dir) -> int:
    """Compare every file `fit` derives, written to a scratch directory, with
    the run directory's copy byte for byte; write any copy that is missing.
    A derived file the rebuild did not write fails the check."""
    meta, snaps, series = _load_run(run_dir)
    cfg = RunConfig.from_dict(meta["config"])
    with tempfile.TemporaryDirectory() as fresh:
        _write_fits(fresh, meta, snaps, series, cfg)
        written = sorted(os.listdir(fresh))
        same, differ, missing = filecmp.cmpfiles(fresh, run_dir, written,
                                                 shallow=False)
        stray = [n for n in DERIVED_FILES if n not in written
                 and os.path.exists(os.path.join(run_dir, n))]
        faults = ([f"{n} differs from the recomputed copy" for n in differ]
                  + [f"{n} is not derived from this run" for n in stray])
        if faults:
            print(f"check failed: {'; '.join(faults)}", file=sys.stderr)
            return EXIT_DIFFERS
        for name in missing:
            shutil.copy(os.path.join(fresh, name), run_dir)
    n = len(snaps)
    print(f"{run_dir}: {n} snapshots, {n} verified by sha256; "
          f"replayed byte-identically: {', '.join(same) or 'none'}"
          + (f"; regenerated: {', '.join(missing)}" if missing else ""))
    return EXIT_OK


def cmd_barrier(args) -> int:
    if min(args.lattice) < 1:
        raise ConfigurationError(f"--lattice: a count below 1 in {args.lattice}")
    if args.out and (os.path.isdir(args.out) or not os.path.isdir(
            os.path.dirname(args.out) or ".")):  # before any sampling
        raise ConfigurationError(f"--out {args.out}: cannot write a file")
    pc = profile_constants(args.p)
    etas = args.eta or [0.01]
    for eta in etas:  # the geometry, before any sampling
        barrier_params(pc, args.x0, args.r, args.d, args.t0, args.T, eta, 1.0)
    report = {"p": args.p, "etas": []}
    first_fail = None
    for eta in etas:
        try:
            C0, bp, rmin = calibrate_barrier_c0(
                pc, args.x0, args.r, args.d, args.t0, args.T, eta,
                lattice=tuple(args.lattice))
            report["etas"].append({"eta": eta, "C0": C0, "kappa": bp.kappa,
                                   "min_residual": rmin})
            print(f"eta={eta:g}: C0={C0:g} kappa={bp.kappa:.6g} "
                  f"min_residual={rmin:.6e}")
        except GbulabError as exc:
            report["etas"].append({"eta": eta, "error": str(exc)})
            if first_fail is None:
                first_fail = eta
            print(f"eta={eta:g}: FAILED ({exc})")
    if first_fail is not None:
        print(f"first failing eta: {first_fail:g}")
    if args.out:
        write_json(args.out, report)
    return EXIT_OK


def cmd_sweep(configs, out_root) -> int:
    """Run each config into out_root/<its file stem>, once every config has
    loaded and built its initial data, no two share a stem and every run
    directory can take its run."""
    paths = [preset_path(c) for c in configs]
    stems = [os.path.splitext(os.path.basename(p))[0] for p in paths]
    if len(set(stems)) < len(stems):
        raise ConfigurationError(f"sweep: config file stems repeat: {stems}")
    dirs = [os.path.join(out_root, s) for s in stems]
    for path, d in zip(paths, dirs):
        _prepare(path)  # its initial field is built again when it runs
        _check_run_dir(d)
    return max(map(cmd_run, paths, dirs), default=EXIT_OK)


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="gbulab",
        description="boundary gradient blow-up laboratory for "
                    "u_t - Lap u = |grad u|^p")
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("run", help="execute a run config or preset")
    sp.add_argument("config")
    sp.add_argument("-o", "--out", required=True, help="run directory")
    sp.set_defaults(fn=lambda a: cmd_run(a.config, a.out))

    sp = sub.add_parser("mms", help="manufactured-solution convergence study")
    sp.add_argument("config")
    sp.set_defaults(fn=lambda a: cmd_mms(a.config))

    sp = sub.add_parser("check", help="replay fits and diagnostics byte for byte")
    sp.add_argument("run_dir")
    sp.set_defaults(fn=lambda a: cmd_check(a.run_dir))

    sp = sub.add_parser("fit", help="re-fit an existing run directory")
    sp.add_argument("run_dir")
    sp.set_defaults(fn=lambda a: cmd_fit(a.run_dir))

    sp = sub.add_parser("barrier", help="sample the closed-form barrier residual")
    sp.add_argument("--p", type=float, default=3.0)
    sp.add_argument("--x0", type=float, default=0.1)
    sp.add_argument("--r", type=float, default=0.05)
    sp.add_argument("--d", type=float, default=0.02)
    sp.add_argument("--t0", type=float, default=0.0)
    sp.add_argument("--T", type=float, default=0.5)
    sp.add_argument("--eta", type=float, action="append", default=None,
                    help="repeatable; forms a ladder (default 0.01)")
    sp.add_argument("--lattice", type=int, nargs=3, default=[20, 20, 10],
                    metavar=("NX", "NY", "NT"))
    sp.add_argument("--out", default=None, help="write JSON report here")
    sp.set_defaults(fn=cmd_barrier)

    sp = sub.add_parser("sweep", help="run several configs into one root")
    sp.add_argument("configs", nargs="+")
    sp.add_argument("-o", "--out", required=True, help="sweep root directory")
    sp.set_defaults(fn=lambda a: cmd_sweep(a.configs, a.out))
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SnapshotError as exc:
        print(f"corrupt run directory: {exc}", file=sys.stderr)
        return EXIT_SNAPSHOT
    except (ConfigurationError, DomainError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
