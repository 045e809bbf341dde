"""Seeded workload generator.

Each workload is derived from a shipped preset by editing `key: value` lines
of the preset text, so comments survive and an unedited preset comes out byte
for byte.  A seed only adds a small upward jitter to one amplitude-like value
(`amplitude`, or `alpha` for the MMS study); seed 0 adds none.  The program
only ever sees the generated YAML.

Three workloads run at benchmark scale instead of the shipped preset, because
the benchmark's whole budget (92 runs in under an hour) cannot hold a 60 s
set-up or a 65 s operation.  Their edits are the `scale` and `insert` fields
below; README.md gives the reasons.
"""

from __future__ import annotations

import os
import random
import re
from dataclasses import dataclass, field

PRESET_DIR = os.path.join("src", "gbulab", "presets")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "run", "mms" or "replay"
    preset: str          # shipped preset the input is derived from
    jitter_key: str      # value the seed nudges upward
    jitter: float        # largest relative nudge
    scale: dict = field(default_factory=dict)  # preset key -> new value
    insert: dict = field(default_factory=dict)  # section -> extra line


WORKLOADS = {w.name: w for w in (
    Workload("blowup-2d", "run", "p3-blowup", "amplitude", 2e-4),
    Workload("mms-ladder", "mms", "mms-p3", "alpha", 1e-3,
             scale={"t_end": "0.001"}),
    Workload("rate-1d", "run", "p3-rate-1d", "amplitude", 2e-4),
    Workload("replay", "replay", "p25-blowup", "amplitude", 2e-4,
             scale={"domain": "{Lx: 1.0, Ly: 1.5}",
                    "grid": "{nx: 129, ny: 129}", "amplitude": "2.25",
                    "width": "0.95", "t_max": "0.05"},
             insert={"solver": "snapshot_stride: 50"}),
)}


def preset_text(root, preset):
    with open(os.path.join(root, PRESET_DIR, preset + ".yaml")) as fh:
        return fh.read()


def _match(text, key):
    # `key: value   # comment`: group 2 is the value, group 3 the comment
    m = re.search(rf"^([ \t]*{re.escape(key)}:[ \t]*)([^#\n]*?)[ \t]*(#[^\n]*)?$",
                  text, re.MULTILINE)
    if m is None:
        raise KeyError(f"preset has no line for {key!r}")
    return m


def _set(text, key, value):
    m = _match(text, key)
    if m.group(3):  # keep the comment in its column
        width = m.start(3) - m.start(2)
        value += " " * max(1, width - len(value)) + m.group(3)
    return text[:m.start()] + m.group(1) + value + text[m.end():]


def seed_jitter(workload: Workload, seed: int) -> float:
    """Relative upward nudge in [0, workload.jitter); exactly 0 for seed 0."""
    if seed == 0:
        return 0.0
    return workload.jitter * random.Random(f"{workload.name}:{seed}").random()


def generate(root, workload: Workload, seed: int) -> str:
    """YAML text of the workload's input for this seed."""
    text = preset_text(root, workload.preset)
    for key, value in workload.scale.items():
        text = _set(text, key, value)
    for section, line in workload.insert.items():
        m = re.search(rf"^{re.escape(section)}:\n", text, re.MULTILINE)
        if m is None:
            raise KeyError(f"preset has no section {section!r}")
        text = text[:m.end()] + "  " + line + "\n" + text[m.end():]
    if workload.scale or workload.insert:
        edits = ", ".join([f"{k}={v}" for k, v in workload.scale.items()]
                          + list(workload.insert.values()))
        text = (f"# perfbench {workload.name}: {workload.preset} at benchmark "
                f"scale ({edits})\n") + text
    j = seed_jitter(workload, seed)
    if j:
        base = float(_match(text, workload.jitter_key).group(2))
        text = _set(text, workload.jitter_key, repr(round(base * (1.0 + j), 9)))
    return text
