"""Golden CLI outputs: fixed requests whose stdout must not change.

Each case runs ``clusterxy.cli.main`` in-process and compares its stdout with
``tests/golden/<name>.out`` byte for byte.  The thermo cases are the one
exception: their float cells are compared to ``THERMO_ATOL`` absolute.  A
thermo density is -1/(pi ln 2) times an integral of log|factor|, whose
integrand is of order one while the density can be 0.01, so a last-place
change in the integrand moves the density by about one ulp of 1, not of the
density.  Re-record with

    PYTHONPATH=src python tests/test_golden.py --record [case ...]

only when an output change is intended, and say why in CHANGES.md.  To see
how far each column of a case moved against its stored golden, without
writing anything, run

    PYTHONPATH=src python tests/test_golden.py --compare [case ...]

A thermo case whose cells all moved within ``THERMO_ATOL`` is reported as
passing as recorded: it needs no re-recording.
"""

from __future__ import annotations

import csv
import io
import json
import math
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


def _table(text: str) -> tuple[list, list[list]] | None:
    """(columns, rows) of a CSV or JSON table output; None for other text."""
    if text.startswith("{"):
        payload = json.loads(text)
        return payload["columns"], payload["rows"]
    if not text.startswith("#"):
        return None
    rows = list(csv.reader(ln for ln in text.splitlines() if not ln.startswith("#")))
    return rows[0], rows[1:]


def _number(cell) -> float | None:
    if isinstance(cell, bool) or cell is None:
        return None
    try:
        return float(cell)
    except ValueError:
        return None


def compare(name: str) -> list[str]:
    """Report lines on how the output of case ``name`` moved against its
    golden: per column, the count of moved cells and the largest absolute
    and relative move of the numeric ones."""
    got = run_case(name)
    want = (GOLDEN / f"{name}.out").read_bytes().decode("utf-8")
    if got == want:
        return [f"{name}: byte-identical"]
    got_table, want_table = _table(got), _table(want)
    if got_table is None or want_table is None:
        return [f"{name}: differs, not a table: {first_difference(got, want)}"]
    (got_cols, got_rows), (want_cols, want_rows) = got_table, want_table
    if got_cols != want_cols or len(got_rows) != len(want_rows):
        return [f"{name}: columns or row count differ: {first_difference(got, want)}"]
    lines = []
    for j, column in enumerate(want_cols):
        moved = [(g[j], w[j]) for g, w in zip(got_rows, want_rows) if g[j] != w[j]]
        if not moved:
            continue
        pairs = [(_number(g), _number(w)) for g, w in moved]
        deltas = [(abs(g - w), abs(g - w) / abs(w) if w else math.inf)
                  for g, w in pairs if g is not None and w is not None]
        line = f"{name}: {column}: {len(moved)} of {len(want_rows)} cells moved"
        if deltas:
            line += (f", max abs {max(d[0] for d in deltas):.2e}"
                     f", max rel {max(d[1] for d in deltas):.2e}")
        if len(deltas) < len(moved):
            line += f", {len(moved) - len(deltas)} non-numeric"
        lines.append(line)
    if CASES[name][0] == "thermo" and first_difference(got, want, THERMO_ATOL) is None:
        lines.append(f"{name}: every move within THERMO_ATOL = {THERMO_ATOL:g}, passes as recorded")
    return lines or [f"{name}: cells equal, formatting differs: {first_difference(got, want)}"]


if __name__ == "__main__":
    mode, names = sys.argv[1:2], sys.argv[2:] or list(CASES)
    if mode not in (["--record"], ["--compare"]) or set(names) - set(CASES):
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record|--compare [case ...]")
    for case in names:
        if mode == ["--compare"]:
            print("\n".join(compare(case)))
        else:
            (GOLDEN / f"{case}.out").write_bytes(run_case(case).encode("utf-8"))
            print(f"recorded {case}")
