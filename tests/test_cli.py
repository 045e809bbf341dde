"""End-to-end CLI tests: config validation, run-directory artifacts,
byte-identical replay, exit codes, and the MMS study."""

import dataclasses
import hashlib
import json
import os
import re
import shutil
import struct

import numpy as np
import pytest
import yaml

from gbulab import _kernels, cli, solver
from gbulab.errors import ConfigurationError, SnapshotError
from gbulab.grid import Grid2D, to_json


ABSENT = object()  # an override that deletes the key


def write_config(tmp_path, name="cfg.yaml", **over):
    cfg = {
        "p": 3.0,
        "domain": {"Lx": 0.25, "Ly": 0.06},
        "grid": {"nx": 65, "ny": 65},
        "initial_data": {"family": "cap", "amplitude": 0.4, "width": 0.18},
        "solver": {"stop_grad_norm": 200.0, "t_max": 0.05},
        "diagnostics": {"q": 3.0},
        "fits": {"level_frac": 0.5, "extent": 0.05},
    }
    for key, val in over.items():
        if isinstance(val, dict):
            sec = cfg.setdefault(key, {})
            sec.update(val)
            for k in [k for k, v in val.items() if v is ABSENT]:
                del sec[k]
        else:
            cfg[key] = val
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


# --------------------------------------------------------------------------
# Configuration
# --------------------------------------------------------------------------


def test_config_roundtrip(tmp_path):
    cfg = cli.load_config(write_config(tmp_path))
    again = cli.RunConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_config_unknown_field_has_path(tmp_path):
    path = write_config(tmp_path, solver={"dt": 1.0})
    with pytest.raises(ConfigurationError, match="solver.dt"):
        cli.load_config(path)


def test_every_solver_option_has_a_caller():
    """Each SolverConfig field is a key of a run config (p, or one under
    solver:) or one that `mms` passes (its forcing and boundary callbacks),
    so no solver option is out of every caller's reach."""
    fields = {f.name for f in dataclasses.fields(solver.SolverConfig)}
    assert fields == {"p", *cli.RUN_SCHEMA["solver"], "forcing", "boundary"}


def test_config_rejects_bad_family(tmp_path):
    path = write_config(tmp_path, initial_data={"family": "spike"})
    with pytest.raises(ConfigurationError, match="family"):
        cli.load_config(path)


def test_config_rejects_p_not_above_2(tmp_path):
    path = write_config(tmp_path, p=2.0)
    with pytest.raises(ConfigurationError, match="p"):
        cli.load_config(path)


def test_invalid_yaml_exit_code(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("p: [unclosed")
    assert cli.main(["run", str(bad), "-o", str(tmp_path / "r")]) \
        == cli.EXIT_CONFIG
    assert not (tmp_path / "r").exists()  # validated before mkdir


def bad(over, name, case):
    return pytest.param(over, cli.EXIT_CONFIG, name, id=case)


@pytest.mark.parametrize("over, code, name", [
    pytest.param({"solver": {"stop_grad_norm": "2.0e2"}}, cli.EXIT_OK, None,
                 id="2.0e2-0"),
    bad({"solver": {"stop_grad_norm": "abc"}}, "solver.stop_grad_norm",
        "abc-2"),
    pytest.param({"diagnostics": {"q": "3e0"}}, cli.EXIT_OK, None,
                 id="q-3e0-0"),
    bad({"fits": {"extent": "abc"}}, "fits.extent", "extent-abc-2"),
    bad({"grid": {"nx": "3.3e1"}}, "grid.nx", "nx-3.3e1-2"),
    bad({"grid": {"nx": 64.5}}, "grid.nx", "nx-64.5-2"),
    bad({"p": "abc"}, "p: expected float", "p-abc-2"),
    bad({"domain": {"Lx": "abc"}}, "domain.Lx", "Lx-abc-2"),
    bad({"initial_data": {"amplitude": "abc"}}, "initial_data.amplitude",
        "amplitude-abc-2"),
    bad({"initial_data": {"amplitude": ABSENT}}, "initial_data.amplitude",
        "cap-without-amplitude-2"),
    bad({"domain": {"Lx": float("inf")}}, "domain.Lx", "Lx-inf-2"),
    bad({"initial_data": {"amplitude": float("nan")}},
        "initial_data.amplitude", "amplitude-nan-2"),
    bad({"initial_data": {"width": -1.0}}, "cap width", "width-negative-2"),
    bad({"initial_data": {"width": 0.0}}, "cap width", "width-0-2"),
    bad({"diagnostics": {"q": 1.5}}, "q=1.5", "q-1.5-2"),
    bad({"diagnostics": {"threshold": 5.0}}, "diagnostics.threshold",
        "threshold-2"),
    bad({"diagnostics": {"probe_box": [0.1, 0.1]}}, "diagnostics.probe_box",
        "probe_box-2"),
    bad({"solver": {"symmetry_mode": "full"}}, "solver.symmetry_mode",
        "symmetry_mode-2"),
    bad({"solver": {"t_max": -1.0}}, "t_max", "t_max-negative-2"),
    bad({"solver": {"stop_grad_norm": -1.0}}, "stop_grad_norm",
        "stop_grad_norm-negative-2"),
    bad({"solver": {"snapshot_stride": -3}}, "snapshot_stride",
        "snapshot_stride-negative-2"),
    bad({"solver": {"cfl_safety": 0.4}}, "solver.cfl_safety", "cfl_safety-2"),
    bad({"fits": {"level_frac": -2.0}}, "fits.level_frac",
        "level_frac-negative-2"),
])
def test_solver_values_from_yaml_are_converted(tmp_path, capsys, over, code,
                                               name):
    """YAML reads 2.0e2 and 3e0 (no dot, or no sign in the exponent) as
    strings: every config value is converted to its type.  A value that does
    not convert, is not finite or is out of range, a missing or an unknown
    key exits 2, names the key and leaves no run directory."""
    path = write_config(tmp_path, **over)
    out = tmp_path / "r"
    assert cli.main(["run", path, "-o", str(out)]) == code
    assert out.exists() == (code == cli.EXIT_OK)
    if name:
        assert name in capsys.readouterr().err


def test_readme_config_keys_match_the_schema():
    """README's "Config keys" table lists p and every RUN_SCHEMA key, and
    its mms sentence every MMS_SCHEMA key, each once."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read()
    section = text.split("\n## Config keys\n")[1].split("\n## ")[0]
    table = [key for row in re.findall(r"^\| (`.*?) \|", section, re.MULTILINE)
             for key in re.findall(r"`([^`]+)`", row)]
    assert sorted(table) == sorted(
        ["p", *(f"{s}.{k}" for s, keys in cli.RUN_SCHEMA.items()
                for k in keys)])
    mms = section.split("one flat mapping:")[1].split("\n\n")[0]
    assert sorted(re.findall(r"`(\w+)`", mms)) == sorted(cli.MMS_SCHEMA)


GRADED = {"y_first": 1e-5, "y_ratio": 1.3, "y_max": 0.004,
          "x_first": 2e-3, "x_ratio": 1.2, "x_max": 0.02}


def rewrite(path, **sections):
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    raw.update(sections)
    with open(path, "w") as fh:
        yaml.safe_dump(raw, fh)
    return path


def write_graded_config(tmp_path, name="graded.yaml", **grid):
    return rewrite(write_config(tmp_path, name=name), grid={**GRADED, **grid})


def test_config_graded_grid(tmp_path):
    cfg = cli.load_config(write_graded_config(tmp_path))
    assert cfg.grid == GRADED
    g = cfg.make_grid()
    assert not g.uniform and g.y[1] == 1e-5
    assert cli.RunConfig.from_dict(cfg.to_dict()) == cfg


def test_config_graded_grid_rejects_node_counts_and_1d(tmp_path):
    with pytest.raises(ConfigurationError, match="exclusive"):
        cli.load_config(write_graded_config(tmp_path, nx=65))
    # a 1D run is a column at x = 0: it takes a y grading, but no x grading
    path = rewrite(write_graded_config(tmp_path, name="one.yaml"),
                   initial_data={"family": "sine_1d", "amplitude": 1.5})
    with pytest.raises(ConfigurationError, match="x grading"):
        cli.load_config(path)
    y_only = {k: v for k, v in GRADED.items() if k.startswith("y_")}
    path = rewrite(path, grid=y_only)
    g = cli.load_config(path).make_grid()
    assert g.is_column and g.y[1] == 1e-5
    path = write_config(tmp_path, name="half.yaml",
                        initial_data={"family": "sine_1d", "amplitude": 1.5},
                        solver={"symmetry_mode": "half"})
    with pytest.raises(ConfigurationError, match="symmetry_mode"):
        cli.load_config(path)


def test_graded_run_fit_and_check_replay(tmp_path):
    """fit and check rebuild a graded run on its own grid: fits.json replays
    byte for byte from the GBU2 snapshots."""
    out = tmp_path / "graded"
    cfg = write_graded_config(tmp_path)
    assert cli.main(["run", cfg, "-o", str(out)]) == cli.EXIT_OK
    snaps = sorted((out / "snapshots").iterdir())
    assert snaps[0].read_bytes()[:4] == b"GBU2"
    before = (out / "fits.json").read_bytes()
    assert cli.main(["check", str(out)]) == cli.EXIT_OK
    assert cli.main(["fit", str(out)]) == cli.EXIT_OK
    assert (out / "fits.json").read_bytes() == before


@pytest.mark.parametrize("name", ["p25-blowup", "p3-blowup", "p3-rate-1d",
                                  "small-data", "mms-p3"])
def test_preset_builds(name):
    """Every shipped preset parses.  A run preset round-trips through its
    config echo and builds its grid and initial data."""
    path = cli.preset_path(name)
    if name == "mms-p3":
        assert cli.load_mms(path) == {
            "p": 3.0, "alpha": 3.0, "T": 1.0, "t_end": 0.01, "Lx": 0.5,
            "Ly": 0.5, "grids": [33, 65, 129]}
        return
    cfg = cli.load_config(path)
    assert cli.RunConfig.from_dict(cfg.to_dict()) == cfg
    u0 = cfg.make_initial(cfg.make_grid())
    assert np.all(np.isfinite(u0.values)) and np.max(u0.values) > 0


def test_config_without_domain_and_grid(tmp_path):
    """A config that sets no domain and no grid runs on the 0.25 x 0.25
    domain and the 129 x 129 grid that make_grid reads by default; meta.json
    echoes no domain or grid values, and fit and check replay the run."""
    path = write_config(tmp_path, solver={"t_max": 1e-5})
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    del raw["domain"], raw["grid"]
    with open(path, "w") as fh:
        yaml.safe_dump(raw, fh)
    g = cli.load_config(path).make_grid()
    assert g == Grid2D(Lx=0.25, Ly=0.25, nx=129, ny=129)
    out = tmp_path / "r"
    assert cli.main(["run", path, "-o", str(out)]) == cli.EXIT_OK
    meta = json.loads((out / "meta.json").read_text())
    assert meta["config"]["domain"] == {} and meta["config"]["grid"] == {}
    assert meta["grid"] == {"Lx": 0.25, "Ly": 0.25, "nx": 129, "ny": 129}
    assert cli.main(["fit", str(out)]) == cli.EXIT_OK
    assert cli.main(["check", str(out)]) == cli.EXIT_OK


def test_preset_registry():
    path = cli.preset_path("p3-blowup")
    assert path.endswith("p3-blowup.yaml") and os.path.exists(path)
    with pytest.raises(ConfigurationError, match="presets:"):
        cli.preset_path("no-such-preset")


# --------------------------------------------------------------------------
# run / fit / check lifecycle
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    cfg = write_config(tmp)
    out = tmp / "run"
    assert cli.main(["run", cfg, "-o", str(out)]) == cli.EXIT_OK
    return out


def test_run_artifacts(run_dir):
    for name in ("series.csv", "meta.json", "fits.json", "report.json",
                 "h_table.csv", "profile_normal.csv", "profile_tangential.csv"):
        assert (run_dir / name).exists(), name
    assert any((run_dir / "snapshots").iterdir())
    meta = json.loads((run_dir / "meta.json").read_text())
    assert meta["outcome"]["reason"] == "blow_up_detected"
    fits = json.loads((run_dir / "fits.json").read_text())
    assert fits["p"] == 3.0 and "normal" in fits


def test_run_deterministic(run_dir, tmp_path):
    cfg = write_config(tmp_path)
    out2 = tmp_path / "run2"
    assert cli.main(["run", cfg, "-o", str(out2)]) == cli.EXIT_OK
    for name in ("series.csv", "fits.json", "report.json"):
        assert (run_dir / name).read_bytes() == (out2 / name).read_bytes(), name


def tree_bytes(path):
    """{relative path: bytes} of every file under path."""
    return {str(f.relative_to(path)): f.read_bytes()
            for f in sorted(path.rglob("*")) if f.is_file()}


@pytest.mark.parametrize("target, code", [
    ("used-dir", cli.EXIT_CONFIG), ("file", cli.EXIT_CONFIG),
    ("file/run", cli.EXIT_CONFIG), ("empty-dir", cli.EXIT_OK)])
def test_run_writes_only_into_a_new_or_empty_directory(run_dir, tmp_path,
                                                        capsys, target, code):
    """run -o onto a used run directory, a file or a path through a file
    exits 2 before any write, names the path and changes nothing; an empty
    directory, as a fresh mkdir leaves it, takes the run."""
    cfg = write_config(tmp_path, initial_data={"amplitude": 0.1},
                       solver={"t_max": 0.001})
    (tmp_path / "file").write_text("not a run directory\n")
    shutil.copytree(run_dir, tmp_path / "used-dir")
    (tmp_path / "empty-dir").mkdir()
    before = tree_bytes(tmp_path)
    capsys.readouterr()
    out = tmp_path / target
    assert cli.main(["run", cfg, "-o", str(out)]) == code
    if code == cli.EXIT_OK:
        assert (out / "meta.json").exists()
    else:
        assert tree_bytes(tmp_path) == before
        assert str(out) in capsys.readouterr().err


def derived_files(run_dir):
    """{name: bytes} of every file fit derives in a run directory."""
    return {f.name: f.read_bytes() for f in run_dir.iterdir()
            if f.is_file() and f.name not in ("meta.json", "series.csv")}


def test_fit_replay_identical(run_dir):
    before = derived_files(run_dir)
    assert {"fits.json", "report.json", "h_table.csv", "profile_normal.csv",
            "profile_tangential.csv"} <= set(before)
    assert cli.main(["fit", str(run_dir)]) == cli.EXIT_OK
    assert derived_files(run_dir) == before


def test_check_passes_then_catches_tampering(run_dir, tmp_path):
    assert cli.main(["check", str(run_dir)]) == cli.EXIT_OK

    clone = tmp_path / "clone"
    shutil.copytree(run_dir, clone)

    fits = clone / "fits.json"
    fits.write_bytes(fits.read_bytes().replace(b"3.0", b"3.1", 1))
    assert cli.main(["check", str(clone)]) == 1

    snaps = sorted((clone / "snapshots").iterdir())
    snaps[0].write_bytes(b"XXXX" + snaps[0].read_bytes()[4:])
    assert cli.main(["check", str(clone)]) == cli.EXIT_SNAPSHOT


def test_check_verifies_every_snapshot(run_dir, tmp_path):
    """A value changed in an early snapshot fails the sha256 its meta.json
    entry recorded."""
    clone = tmp_path / "clone3"
    shutil.copytree(run_dir, clone)
    meta = json.loads((clone / "meta.json").read_text())
    entries = meta["outcome"]["snapshots"]
    assert len(entries) >= 3 and all("sha256" in e for e in entries)

    snap = clone / "snapshots" / "0001.bin"
    raw = bytearray(snap.read_bytes())
    raw[32 + 8 * (len(raw) // 16)] ^= 1  # the last bit of one value
    snap.write_bytes(bytes(raw))
    assert cli.main(["check", str(clone)]) == cli.EXIT_SNAPSHOT
    assert cli.main(["fit", str(clone)]) == cli.EXIT_SNAPSHOT


@pytest.mark.parametrize("section, key, value", [
    ("fits", "extent", "abc"), ("initial_data", "amplitude", ABSENT)],
    ids=["extent-abc", "no-amplitude"])
def test_fit_and_check_reject_a_bad_config_echo(run_dir, tmp_path, section,
                                                key, value):
    """fit and check validate the config echoed in meta.json as run does."""
    clone = tmp_path / "clone4"
    shutil.copytree(run_dir, clone)
    meta = json.loads((clone / "meta.json").read_text())
    if value is ABSENT:
        del meta["config"][section][key]
    else:
        meta["config"][section][key] = value
    (clone / "meta.json").write_text(json.dumps(meta))
    assert cli.main(["check", str(clone)]) == cli.EXIT_CONFIG
    assert cli.main(["fit", str(clone)]) == cli.EXIT_CONFIG


def test_check_regenerates_missing_fits(run_dir, tmp_path):
    """A derived file missing from the run directory is written by check,
    byte for byte as fit writes it: fits.json and report.json here."""
    clone = tmp_path / "clone2"
    shutil.copytree(run_dir, clone)
    ref = derived_files(clone)
    (clone / "fits.json").unlink()
    (clone / "report.json").unlink()
    assert cli.main(["check", str(clone)]) == cli.EXIT_OK
    assert derived_files(clone) == ref


def edit_report_j_k(text):
    doc = json.loads(text)
    doc["j_k"] = 2.0 * doc["j_k"] + 1.0
    return to_json(doc)


def set_csv(line, col):
    """An edit setting the value at (line, col) of a CSV to 0.123."""
    def edit(text):
        rows = text.splitlines()
        cells = rows[line].split(",")
        cells[col] = "0.123"
        rows[line] = ",".join(cells)
        return "\n".join(rows) + "\n"
    return edit


@pytest.mark.parametrize("name, edit", [
    ("report.json", edit_report_j_k),
    ("h_table.csv", set_csv(2, 5)),
    ("profile_tangential.csv", set_csv(3, 1))],
    ids=["report-j_k", "h_table-value", "profile_tangential-row"])
def test_check_names_a_derived_file_that_differs(run_dir, tmp_path, capsys,
                                                 name, edit):
    """check rebuilds every derived file through fit's writer: an edit to
    any of them exits 1 and names the file."""
    clone = tmp_path / "clone5"
    shutil.copytree(run_dir, clone)
    path = clone / name
    path.write_text(edit(path.read_text()))
    assert path.read_bytes() != (run_dir / name).read_bytes()
    capsys.readouterr()
    assert cli.main(["check", str(clone)]) == cli.EXIT_DIFFERS
    err = capsys.readouterr().err
    assert f"{name} differs" in err


def test_check_flags_a_stray_derived_file(tmp_path, capsys):
    """A run whose level-set fit failed writes no profile_levelset.csv: a
    made-up one in its run directory fails check, which names it."""
    cfg = write_config(tmp_path, fits={"extent": -1.0},
                       initial_data={"amplitude": 0.1},
                       solver={"t_max": 0.001})
    out = tmp_path / "r"
    assert cli.main(["run", cfg, "-o", str(out)]) == cli.EXIT_OK
    stray = out / "profile_levelset.csv"
    assert not stray.exists()
    stray.write_text("x,y\n0.01,0.02\n")
    capsys.readouterr()
    assert cli.main(["check", str(out)]) == cli.EXIT_DIFFERS
    assert "profile_levelset.csv is not derived" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["run_dir", "run_dir_1d"])
def test_derived_files_names_every_file_fit_writes(request, tmp_path,
                                                   source):
    meta, snaps, series = cli._load_run(request.getfixturevalue(source))
    cfg = cli.RunConfig.from_dict(meta["config"])
    cli._write_fits(tmp_path, meta, snaps, series, cfg)
    written = set(os.listdir(tmp_path))
    assert written <= set(cli.DERIVED_FILES)
    if cfg.is_1d:
        assert written == {"fits.json"}
    else:  # all but the level-set curve, written only if its fit succeeds
        assert written >= set(cli.DERIVED_FILES) - {"profile_levelset.csv"}


def test_fit_takes_one_gradient_per_snapshot_and_one_profile(
        run_dir, tmp_path, monkeypatch):
    """fit derives the final snapshot's u_y once for every fit and profile
    CSV, and the report one gradient per snapshot: snapshots + 1 calls."""
    clone = tmp_path / "clone7"
    shutil.copytree(run_dir, clone)
    calls = []
    kernel = _kernels.gradient

    def counted(u, g):
        calls.append(u)
        return kernel(u, g)

    monkeypatch.setattr(_kernels, "gradient", counted)
    assert cli.cmd_fit(str(clone)) == cli.EXIT_OK
    n_snaps = len(json.loads((clone / "meta.json").read_text())
                  ["outcome"]["snapshots"])
    assert len(calls) == n_snaps + 1


def test_check_rejects_an_edited_series(run_dir, tmp_path):
    """meta.json records series.csv's sha256: a row appended to a 2D run's
    series.csv is a corrupt run directory for check, fit and resume."""
    clone = tmp_path / "clone6"
    shutil.copytree(run_dir, clone)
    meta = json.loads((clone / "meta.json").read_text())
    assert "series_sha256" in meta["outcome"]
    with open(clone / "series.csv", "a") as fh:
        fh.write("9,9,9,9\n")
    assert cli.main(["check", str(clone)]) == cli.EXIT_SNAPSHOT
    assert cli.main(["fit", str(clone)]) == cli.EXIT_SNAPSHOT
    with pytest.raises(SnapshotError, match="series.csv"):
        solver.resume(str(clone), solver.SolverConfig(p=3.0))


def test_dt_underflow_reported_as_outcome(tmp_path, capsys):
    """A run that takes 0 steps writes its run directory and fails with
    exit 3, as fit and check do on that directory."""
    cfg = write_config(tmp_path, solver={"dt_floor": 1.0})
    out = tmp_path / "r"
    assert cli.main(["run", cfg, "-o", str(out)]) == cli.EXIT_NUMERIC
    meta = json.loads((out / "meta.json").read_text())
    assert meta["outcome"]["reason"] == "dt_underflow"
    assert "0 steps" in capsys.readouterr().err
    assert cli.main(["fit", str(out)]) == cli.EXIT_NUMERIC
    assert cli.main(["check", str(out)]) == cli.EXIT_NUMERIC


def test_numeric_failure_writes_crash_json(tmp_path):
    """A cap of amplitude 1e150 overflows the source term on its first step:
    exit 3 and crash.json, in the run-directory JSON format.  The directory
    has no meta.json, so check reports it as malformed."""
    cfg = write_config(tmp_path, initial_data={"amplitude": 1e150},
                       solver={"stop_grad_norm": 1e300, "dt_floor": 1e-320})
    out = tmp_path / "r"
    assert cli.main(["run", cfg, "-o", str(out)]) == cli.EXIT_NUMERIC
    text = (out / "crash.json").read_text()
    assert "non-finite" in json.loads(text)["error"] and text.endswith("\n")
    assert cli.main(["check", str(out)]) == cli.EXIT_SNAPSHOT


def test_empty_level_set_window_is_a_fit_error(tmp_path):
    """fits.extent below the wall floor leaves the level-set window without
    nodes: fits.json records a FitError there, as for the other fits, and
    the run completes with its report."""
    cfg = write_config(tmp_path, fits={"extent": -1.0},
                       initial_data={"amplitude": 0.1},
                       solver={"t_max": 0.001})
    out = tmp_path / "r"
    assert cli.main(["run", cfg, "-o", str(out)]) == cli.EXIT_OK
    fits = json.loads((out / "fits.json").read_text())
    assert "error" in fits["level_set"]
    assert (out / "report.json").exists()


@pytest.mark.parametrize("over, failed", [
    ({"grid": {"nx": 5, "ny": 5}}, ("j_k", "j_max")),
    ({"grid": {"nx": 33, "ny": 33}, "initial_data": {"amplitude": 1e-9}},
     ("xi_range", "theta_range"))],
    ids=["5x5-grid", "amplitude-1e-9"])
def test_monitor_without_nodes_is_recorded(tmp_path, over, failed):
    """A grid with no node in the J probe box, or data below the xi/Theta
    floor everywhere, records the monitor's error in report.json, as a
    failed fit is recorded in fits.json: the run, fit and check exit 0."""
    cfg = write_config(tmp_path, solver={"t_max": 0.001},
                       **{"initial_data": {"amplitude": 0.1}, **over})
    out = tmp_path / "r"
    assert cli.main(["run", cfg, "-o", str(out)]) == cli.EXIT_OK
    report = json.loads((out / "report.json").read_text())
    for key in ("j_k", "j_max", "xi_range", "theta_range"):
        assert isinstance(report[key], dict) == (key in failed), key
    error = report[failed[0]]
    assert report[failed[1]] == error and "probe box" in error["error"]
    assert cli.main(["fit", str(out)]) == cli.EXIT_OK
    assert cli.main(["check", str(out)]) == cli.EXIT_OK


@pytest.fixture(scope="module")
def run_dir_1d(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli1d")
    cfg = write_config(tmp, domain={"Lx": 0.25, "Ly": 1.0}, grid={"ny": 65},
                       initial_data={"family": "sine_1d", "amplitude": 1.5},
                       solver={"stop_grad_norm": 100.0, "t_max": 0.01})
    out = tmp / "run"
    assert cli.main(["run", cfg, "-o", str(out)]) == cli.EXIT_OK
    return out


def edit_meta(edit):
    def damage(run_dir):
        meta = json.loads((run_dir / "meta.json").read_text())
        edit(meta)
        (run_dir / "meta.json").write_text(json.dumps(meta))
    return damage


def cut_series_row(run_dir):
    lines = (run_dir / "series.csv").read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0]
    (run_dir / "series.csv").write_text("\n".join(lines) + "\n")


def set_last_step(step):
    def edit(meta):
        meta["outcome"]["snapshots"][-1]["step"] = step
    return edit_meta(edit)


def last_snapshot_as_gbu1(run_dir):
    """Rewrite the last snapshot in the GBU1 layout of older releases (the
    header, then the values without the nodes) under its recorded sha256."""
    meta = json.loads((run_dir / "meta.json").read_text())
    entry = meta["outcome"]["snapshots"][-1]
    snap = run_dir / entry["path"]
    raw = snap.read_bytes()
    nx, ny = struct.unpack_from("<HH", raw, 4)
    old = b"GBU1" + raw[4:32] + raw[32 + 8 * (nx + ny):]
    snap.write_bytes(old)
    entry["sha256"] = hashlib.sha256(old).hexdigest()
    (run_dir / "meta.json").write_text(json.dumps(meta))


@pytest.mark.parametrize("source, damage, code", [
    ("run_dir", edit_meta(lambda m: m.pop("outcome")), cli.EXIT_SNAPSHOT),
    ("run_dir", edit_meta(lambda m: m["outcome"]["snapshots"].clear()),
     cli.EXIT_SNAPSHOT),
    ("run_dir", edit_meta(lambda m: m["outcome"]["snapshots"][0].pop("path")),
     cli.EXIT_SNAPSHOT),
    ("run_dir",
     edit_meta(lambda m: m["outcome"]["snapshots"][0].pop("sha256")),
     cli.EXIT_SNAPSHOT),
    ("run_dir", edit_meta(lambda m: m["outcome"].pop("series_sha256")),
     cli.EXIT_SNAPSHOT),
    ("run_dir_1d", cut_series_row, cli.EXIT_SNAPSHOT),
    ("run_dir", set_last_step("5"), cli.EXIT_SNAPSHOT),
    ("run_dir", set_last_step(1000000), cli.EXIT_OK),
    ("run_dir", lambda d: max((d / "snapshots").iterdir()).unlink(),
     cli.EXIT_SNAPSHOT),
    ("run_dir", last_snapshot_as_gbu1, cli.EXIT_SNAPSHOT)],
    ids=["no-outcome", "no-snapshots", "entry-without-path",
         "entry-without-sha256", "no-series-sha256", "1d-short-series-row",
         "string-step", "step-past-series", "missing-snapshot",
         "gbu1-snapshot"])
def test_malformed_run_directory_exits_5(request, tmp_path, source, damage,
                                         code):
    """fit, check and resume read a run directory through solver.open_run
    and solver.load_series: a malformed meta.json or series.csv is a
    SnapshotError, exit 5, not a traceback.  Only resume reads a snapshot's
    step against series.csv, so fit and check pass a step past its end."""
    clone = tmp_path / "clone"
    shutil.copytree(request.getfixturevalue(source), clone)
    damage(clone)
    assert cli.main(["fit", str(clone)]) == code
    assert cli.main(["check", str(clone)]) == code
    if source == "run_dir":
        with pytest.raises(SnapshotError):
            solver.resume(str(clone), solver.SolverConfig(p=3.0))


# --------------------------------------------------------------------------
# 1D and sweep
# --------------------------------------------------------------------------


def test_run_1d(tmp_path, capsys):
    path = write_config(
        tmp_path, name="oned.yaml",
        domain={"Lx": 0.25, "Ly": 1.0}, grid={"nx": 5, "ny": 257},
        initial_data={"family": "sine_1d", "amplitude": 1.5, "width": 0.0},
        solver={"stop_grad_norm": 400.0, "t_max": 2.0})
    out = tmp_path / "r1d"
    assert cli.main(["run", path, "-o", str(out)]) == cli.EXIT_OK
    fits = json.loads((out / "fits.json").read_text())
    assert fits["reason"] == "blow_up_detected"
    assert "fit" in fits["time_rate"]
    assert fits["time_rate"]["fit"]["exponent"] < 0
    # fit and check read the 1D run directory (time rate from series.csv)
    before = (out / "fits.json").read_bytes()
    assert cli.main(["fit", str(out)]) == cli.EXIT_OK
    assert (out / "fits.json").read_bytes() == before
    assert cli.main(["check", str(out)]) == cli.EXIT_OK
    # the run directory holds its snapshots, each checked by sha256
    n = len(list((out / "snapshots").iterdir()))
    assert n >= 2
    assert f"{n} snapshots, {n} verified by sha256" in capsys.readouterr().out


def test_sweep(tmp_path):
    c1 = write_config(tmp_path, name="a.yaml")
    c2 = write_config(tmp_path, name="b.yaml",
                      solver={"stop_grad_norm": 150.0, "t_max": 0.05})
    root = tmp_path / "sweep"
    assert cli.main(["sweep", c1, c2, "-o", str(root)]) == cli.EXIT_OK
    assert (root / "a" / "fits.json").exists()
    assert (root / "b" / "fits.json").exists()


def test_sweep_checks_every_config_before_the_first_run(tmp_path, capsys):
    """A config that does not resolve, or does not load, or whose run
    directory is taken exits 2 with nothing written under the sweep root,
    even when a good one comes first; so does a root that is a file."""
    good = write_config(tmp_path, name="good.yaml")
    bad = write_config(tmp_path, name="bad.yaml", p=1.5)
    root = tmp_path / "sweep"
    for configs in ([good, "no-such-preset"], [good, bad]):
        assert cli.main(["sweep", *configs, "-o", str(root)]) == cli.EXIT_CONFIG
        assert not root.exists()
    assert "no such config or preset 'no-such-preset'" in capsys.readouterr().err

    taken = write_config(tmp_path, name="taken.yaml")
    (root / "taken").mkdir(parents=True)
    (root / "taken" / "x").write_text("a file of an earlier run\n")
    assert cli.main(["sweep", good, taken, "-o", str(root)]) == cli.EXIT_CONFIG
    assert sorted(root.rglob("*")) == [root / "taken", root / "taken" / "x"]
    assert f"run directory {root / 'taken'}: " in capsys.readouterr().err

    afile = tmp_path / "afile"
    afile.write_text("not a sweep root\n")
    assert cli.main(["sweep", good, "-o", str(afile)]) == cli.EXIT_CONFIG
    assert afile.read_text() == "not a sweep root\n"


def test_sweep_builds_every_initial_field_before_the_first_run(tmp_path,
                                                               capsys):
    """A config that loads but whose initial data cannot be built (a cap of
    negative width) exits 2 with nothing under the sweep root, even when a
    good config comes first."""
    grid = {"nx": 17, "ny": 17}
    good = write_config(tmp_path, name="a.yaml", grid=grid)
    bad = write_config(tmp_path, name="b.yaml", grid=grid,
                       initial_data={"width": -1.0})
    root = tmp_path / "sweep"
    assert cli.main(["sweep", good, bad, "-o", str(root)]) == cli.EXIT_CONFIG
    assert not root.exists()
    assert "cap width -1.0" in capsys.readouterr().err


def test_sweep_rejects_configs_that_share_a_stem(tmp_path, capsys):
    """Two configs named x.yaml would share the run directory root/x: the
    sweep exits 2, naming the stem, before either runs."""
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
    c1 = write_config(tmp_path, name="a/x.yaml")
    c2 = write_config(tmp_path, name="b/x.yaml")
    root = tmp_path / "sweep"
    assert cli.main(["sweep", c1, c2, "-o", str(root)]) == cli.EXIT_CONFIG
    assert "stems repeat: ['x', 'x']" in capsys.readouterr().err
    assert not root.exists()


# --------------------------------------------------------------------------
# mms and barrier
# --------------------------------------------------------------------------


def test_mms_study(tmp_path, capsys):
    path = tmp_path / "mms.yaml"
    path.write_text(yaml.safe_dump({
        "p": 3.0, "alpha": 3.0, "T": 1.0, "t_end": 0.02,
        "Lx": 0.5, "Ly": 0.5, "grids": [33, 65]}))
    assert cli.main(["mms", str(path)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "order(33->65)" in out


@pytest.mark.parametrize("over", [
    {"alpha": ABSENT}, {"alpha": "abc"}, {"alpha": 1.0}, {"cfl_safety": 0.4},
    {"grids": []}, {"grids": [33]}, {"grids": [33, 64]},
    {"alpha": float("nan")}, {"t_end": float("inf")}, {"t_end": 0.0},
    {"t_end": -0.1}],
    ids=["no-alpha", "alpha-abc", "alpha-below-2", "cfl_safety",
         "no-grids", "one-grid", "even-grid", "alpha-nan", "t_end-inf",
         "t_end-zero", "t_end-negative"])
def test_mms_config_errors(tmp_path, capsys, over):
    """A missing, malformed, non-finite, out-of-range or unknown mms value
    exits 2 before any grid is run (alpha >= (p-1)/(p-2) = 2 at p = 3); so
    does a ladder of fewer than two grids or one with an even n.  A t_end
    outside (0, T) is named as t_end."""
    cfg = {"p": 3.0, "alpha": 3.0, "T": 1.0, "t_end": 0.02, **over}
    cfg = {k: v for k, v in cfg.items() if v is not ABSENT}
    path = tmp_path / "mms.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert cli.main(["mms", str(path)]) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert "n=" not in out
    if "t_end" in over:
        assert "t_end" in err


def test_barrier_report(tmp_path):
    out = tmp_path / "barrier.json"
    rc = cli.main(["barrier", "--eta", "0.01", "--eta", "0.02",
                   "--out", str(out)])
    assert rc == cli.EXIT_OK
    doc = json.loads(out.read_text())
    assert len(doc["etas"]) == 2
    assert all("C0" in e for e in doc["etas"])


@pytest.mark.parametrize("lattice", [("0", "5", "5"), ("-1", "5", "5"),
                                     ("5", "5", "0")])
def test_barrier_lattice_below_1_exits_2(tmp_path, capsys, lattice):
    """A lattice count below 1 exits 2, naming --lattice, before any eta is
    sampled or --out written."""
    out = tmp_path / "barrier.json"
    rc = cli.main(["barrier", "--lattice", *lattice, "--out", str(out)])
    assert rc == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "--lattice" in captured.err and "eta=" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("args, fault", [
    (["--r", "2"], "r, d in (0, 1)"),
    (["--d", "0"], "r, d in (0, 1)"),
    (["--t0", "1", "--T", "0.5"], "t0 < T"),
    (["--eta", "0.01", "--eta", "2"], "eta in (0, 1)"),
])
def test_barrier_invalid_geometry_exits_2(tmp_path, capsys, args, fault):
    """A box or an eta outside the barrier's range exits 2, naming the
    fault, before any eta is sampled or --out written."""
    out = tmp_path / "barrier.json"
    rc = cli.main(["barrier", *args, "--out", str(out)])
    assert rc == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert fault in captured.err and "eta=" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("target", ["reports", "missing/barrier.json"])
def test_barrier_out_where_no_file_can_be_written_exits_2(tmp_path, capsys,
                                                          target):
    """barrier --out onto a directory, or into one that does not exist,
    exits 2, naming the path, before any eta is sampled."""
    (tmp_path / "reports").mkdir()
    out = tmp_path / target
    assert cli.main(["barrier", "--out", str(out)]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert str(out) in captured.err and "eta=" not in captured.out
    assert [p.name for p in tmp_path.iterdir()] == ["reports"]
    assert not any((tmp_path / "reports").iterdir())
