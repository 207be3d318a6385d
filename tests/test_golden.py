"""Golden CLI outputs: fixed requests whose stdout must not change.

Each case runs ``clusterxy.cli.main`` in-process and compares its stdout with
``tests/golden/<name>.out`` byte for byte.  The thermo cases are the one
exception: their float cells are compared to ``THERMO_ATOL`` absolute.  A
thermo density is -1/(pi ln 2) times an integral of log|factor|, whose
integrand is of order one while the density can be 0.01, so a last-place
change in the integrand moves the density by about one ulp of 1, not of the
density.  Re-record with

    PYTHONPATH=src python tests/test_golden.py --record [case ...]

only when an output change is intended, and say why in CHANGES.md.
"""

from __future__ import annotations

import csv
import io
import os
import sys
from pathlib import Path

import pytest

from clusterxy.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
THERMO_ATOL = 1e-15
ENT = ["--quantities", "ent_site,ent_af,ent_block,gap,derivative"]

CASES = {
    "presets": ["presets"],
    "spectrum_xzy": ["spectrum", "--model", "xzy", "--r", "0.5", "--sites", "8",
                     "--sweep", "h:-0.5:0.5:0.25", "--levels", "3"],
    "gap_halfway_xy": ["gap-scan", "--model", "halfway-xy", "--r", "0.7", "--sites", "40",
                       "--sweep", "h:0.6:0.8:0.02"],
    "ent_xzy": ["ent-scan", "--model", "xzy", "--r", "0.5", "--sites", "64,66",
                "--sweep", "h:0.8:1.2:0.1", *ENT],
    "ent_spt_afm": ["ent-scan", "--model", "spt-afm", "--sites", "64,66",
                    "--sweep", "lambda:0.8:1.6:0.2", *ENT],
    "ent_halfway_xy": ["ent-scan", "--model", "halfway-xy", "--r", "0.7", "--sites", "64,66",
                       "--sweep", "h:0.6:1.0:0.1", *ENT],
    "ent_ghz_json": ["ent-scan", "--model", "ghz-cluster", "--sites", "66",
                     "--sweep", "g:-0.6:0.6:0.3", "--format", "json", *ENT],
    "thermo_xy": ["thermo", "--model", "xy", "--r", "1", "--sweep", "h:1.5:2:0.25"],
    "thermo_spt_afm": ["thermo", "--model", "spt-afm", "--sweep", "lambda:0.2:0.6:0.2"],
    "check": ["check", "--presets", "xzy,xn2y,spt-afm-halfway", "--sites", "8",
              "--points", "3"],
    "check_json": ["check", "--presets", "xzy,xn2y,spt-afm-halfway", "--sites", "8",
                   "--points", "3", "--format", "json"],
    "gap_model_file": ["gap-scan", "--model-file", "model.json", "--sweep", "h:0:2:0.25"],
}


def run_case(name: str) -> str:
    """Stdout of one case, run from the golden directory so the model-file
    path echoed into the request is the same everywhere."""
    out = io.StringIO()
    saved_stdout, saved_cwd = sys.stdout, os.getcwd()
    sys.stdout = out
    try:
        os.chdir(GOLDEN)
        code = main(CASES[name])
    finally:
        sys.stdout = saved_stdout
        os.chdir(saved_cwd)
    assert code == 0, f"{name} exited {code}"
    return out.getvalue()


def _cells_match(got: str, want: str, atol: float) -> bool:
    if got == want:
        return True
    try:
        return abs(float(got) - float(want)) <= atol
    except ValueError:
        return False


def first_difference(got: str, want: str, atol: float = 0.0) -> str | None:
    """The first differing line (1-based) of two outputs, or None.  With
    ``atol`` > 0, data lines are compared cell by cell, floats to ``atol``."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for i, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
        if g == w:
            continue
        if atol > 0.0 and not g.startswith("#"):
            g_cells = next(csv.reader([g]))
            w_cells = next(csv.reader([w]))
            if len(g_cells) == len(w_cells) and all(
                _cells_match(a, b, atol) for a, b in zip(g_cells, w_cells)
            ):
                continue
        return f"line {i}:\n  got:  {g}\n  want: {w}"
    if len(got_lines) != len(want_lines):
        return f"line count {len(got_lines)} != golden {len(want_lines)}"
    if atol == 0.0 and got != want:
        return "line endings or trailing newline differ"
    return None


@pytest.mark.parametrize("name", list(CASES))
def test_golden_output(name):
    want = (GOLDEN / f"{name}.out").read_bytes().decode("utf-8")
    atol = THERMO_ATOL if CASES[name][0] == "thermo" else 0.0
    diff = first_difference(run_case(name), want, atol)
    assert diff is None, f"{name} differs from its golden at {diff}"


if __name__ == "__main__":
    names = sys.argv[2:] or list(CASES)
    if sys.argv[1:2] != ["--record"] or set(names) - set(CASES):
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record [case ...]")
    for case in names:
        (GOLDEN / f"{case}.out").write_bytes(run_case(case).encode("utf-8"))
        print(f"recorded {case}")
