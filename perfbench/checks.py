"""Output checks: each returns the operation's `fit_err` or raises CheckFailed.

The tolerances are the release gates of tests/test_acceptance.py (gate 4 for
the 2D normal profile, gate 7 for the 1D time rate, gate 2 for the MMS
order).  The continuum targets are computed here from p, independently of
the program: beta = 1/(p-1), d_p = beta**beta, u_y(0, y) ~ d_p y**(-beta) and
max|grad u| ~ (T - t)**(-1/(p-2)).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import struct

BLOW_UP = "blow_up_detected"


class CheckFailed(Exception):
    pass


def _expect(ok, msg):
    if not ok:
        raise CheckFailed(msg)


def _beta(p):
    return 1.0 / (p - 1.0)


def _fits(run_dir):
    path = os.path.join(run_dir, "fits.json")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckFailed(f"cannot read {path}: {exc}")


def _fit(fits, name):
    fit = fits.get(name)
    _expect(isinstance(fit, dict) and "error" not in fit,
            f"{name} fit missing or failed: {fit}")
    return fit


def blowup_2d(run_dir):
    """Gate 4: u_y(0, y) exponent -beta +- 0.05, amplitude d_p +- 15%."""
    fits = _fits(run_dir)
    _expect(fits.get("reason") == BLOW_UP, f"reason {fits.get('reason')!r}")
    fit = _fit(fits, "normal")
    beta = _beta(fits["p"])
    err = abs(fit["exponent"] + beta)
    _expect(err <= 0.05, f"normal exponent {fit['exponent']:+.4f} off "
            f"-{beta:.4f} by more than 0.05")
    rel = abs(fit["amplitude"] / beta ** beta - 1.0)
    _expect(rel <= 0.15, f"normal amplitude off d_p by {rel:.1%} (> 15%)")
    return err


def rate_1d(run_dir):
    """Gate 7: time-rate exponent -1/(p-2) +- 0.15 with linear r^2 >= 0.99."""
    fits = _fits(run_dir)
    _expect(fits.get("reason") == BLOW_UP, f"reason {fits.get('reason')!r}")
    tr = _fit(fits, "time_rate")
    target = -1.0 / (fits["p"] - 2.0)
    err = abs(tr["fit"]["exponent"] - target)
    _expect(err <= 0.15, f"time-rate exponent {tr['fit']['exponent']:+.4f} "
            f"off {target:+.4f} by more than 0.15")
    _expect(tr["linear_r_squared"] >= 0.99,
            f"linear r^2 {tr['linear_r_squared']:.5f} < 0.99")
    return err


_MMS_ROW = re.compile(r"^n=\s*(\d+)\s+h=\S+\s+max_err=(\S+)$", re.MULTILINE)
_MMS_ORDER = re.compile(r"^order\(\d+->\d+\) = (\S+)$", re.MULTILINE)


def mms_ladder(stdout):
    """Gate 2: every printed order in [1.7, 2.3]; fit_err is |finest - 2|.

    The finest-pair order is recomputed from the printed errors (7 digits),
    which resolves it far better than the 3-decimal order line.
    """
    errs = [float(e) for _, e in _MMS_ROW.findall(stdout)]
    orders = [float(o) for o in _MMS_ORDER.findall(stdout)]
    _expect(len(errs) >= 3 and len(orders) == len(errs) - 1,
            f"expected a ladder of >= 3 grids, got {len(errs)} error rows and "
            f"{len(orders)} orders")
    _expect(all(1.7 <= o <= 2.3 for o in orders),
            f"orders {orders} not all in [1.7, 2.3]")
    return abs(math.log2(errs[-2] / errs[-1]) - 2.0)


def snapshot_manifest(run_dir):
    """sha256 of every file under snapshots/, keyed by file name."""
    snap_dir = os.path.join(run_dir, "snapshots")
    out = {}
    for name in sorted(os.listdir(snap_dir)):
        with open(os.path.join(snap_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


class ReplayReference:
    """What set-up wrote into the replay run directory, kept in memory."""

    FILES = ("fits.json", "report.json")

    def __init__(self, run_dir):
        fits = _fits(run_dir)
        _expect(fits.get("reason") == BLOW_UP,
                f"set-up run ended with {fits.get('reason')!r}")
        self.blobs = {}
        for name in self.FILES:
            with open(os.path.join(run_dir, name), "rb") as fh:
                self.blobs[name] = fh.read()
        self.manifest = snapshot_manifest(run_dir)
        _expect(len(self.manifest) >= 2, "set-up wrote fewer than 2 snapshots")

    def check(self, run_dir):
        """Byte-identical fits.json and report.json, untouched snapshots.

        `gbulab check` re-fits only the final snapshot, so the snapshots are
        compared against set-up's hashes here as well.
        """
        for name, blob in self.blobs.items():
            with open(os.path.join(run_dir, name), "rb") as fh:
                _expect(fh.read() == blob, f"{name} differs from set-up's copy")
        now = snapshot_manifest(run_dir)
        bad = sorted(k for k in now.keys() | self.manifest.keys()
                     if now.get(k) != self.manifest.get(k))
        _expect(not bad, f"snapshots differ from set-up's: {bad}")
        fits = _fits(run_dir)
        return abs(_fit(fits, "normal")["exponent"] + _beta(fits["p"]))


def tamper_snapshot(run_dir, delta=0.5):
    """Add `delta` to the centre value of an early (not the last) snapshot."""
    names = sorted(os.listdir(os.path.join(run_dir, "snapshots")))
    path = os.path.join(run_dir, "snapshots", names[len(names) // 3])
    with open(path, "r+b") as fh:
        raw = bytearray(fh.read())
        # grid.write_snapshot: 32-byte header, then little-endian f64 values
        off = 32 + 8 * ((len(raw) - 32) // 16)
        (value,) = struct.unpack_from("<d", raw, off)
        struct.pack_into("<d", raw, off, value + delta)
        fh.seek(0)
        fh.write(raw)
    return os.path.relpath(path, run_dir)
