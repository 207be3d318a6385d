"""Output checks applied to every benchmark request, plus the comparison
against the values recorded for the default seed.

``check_output`` works from the request and the captured stdout alone, so it
holds for any seed: exit code, row count against the sweep grid, finite
numbers, non-negative gaps, the ansatz nesting ent_block <= ent_af <=
ent_site (criterion 11's ordering, in density units), empty cells on rows
flagged as not the even-sector vacuum, zero failed oracle checks and thermo
densities inside [0, 1].
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

#: ent_block <= ent_af <= ent_site must hold to NESTING_TOL / N (density units)
NESTING_TOL = 1e-8
#: thermo densities may leave [0, 1] by this much (rounding at product points,
#: where the exact density is 0)
DENSITY_TOL = 1e-12
#: sweep values must match the expected grid to this
GRID_TOL = 1e-9
#: default-seed reference: |value - recorded| <= REF_ATOL + REF_RTOL * |recorded|.
#: Densities may move by ~1e-10 / N when the maximizers change (log Lambda to
#: 1e-10), and their finite-difference derivatives by 1/step times that.
REF_ATOL = 1e-9
REF_RTOL = 1e-9
#: at most this many rows of each request are kept in the reference
REF_ROWS = 32

_CHECK_SUMMARY = re.compile(r"^checks: (\d+) passed, (\d+) failed$")
_ENT_KINDS = ("ent_site", "ent_af", "ent_block")


def parse_table(text: str) -> tuple[list[str], list[list[str]]]:
    """CSV table below the ``#`` comment block of a CLI output."""
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    reader = csv.reader(io.StringIO("\n".join(lines)))
    table = list(reader)
    if not table:
        raise ValueError("no table in output")
    return table[0], table[1:]


def _float(cell: str, what: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise ValueError(f"{what}: not a number: {cell!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{what}: not finite: {cell!r}")
    return value


def _bool(cell: str, what: str) -> bool:
    if cell not in ("true", "false"):
        raise ValueError(f"{what}: not a boolean: {cell!r}")
    return cell == "true"


def _check_grid(req, rows, column: int, repeat: int = 1) -> None:
    expected = len(req.grid) * repeat
    if len(rows) != expected:
        raise ValueError(f"{len(rows)} rows, expected {expected} (sweep grid)")
    for i, row in enumerate(rows):
        value = _float(row[column], "sweep_value")
        if abs(value - req.grid[i // repeat]) > GRID_TOL:
            raise ValueError(f"row {i}: sweep value {value} is off the grid")


def _check_model_cell(cell: str, sites: int) -> None:
    if json.loads(cell).get("sites") != sites:
        raise ValueError("model column has the wrong size")


def _check_ent(req, columns, rows) -> None:
    expected = ["sweep_value", "sites", "even_vacuum", "degenerate", *_ENT_KINDS, "gap",
                *(f"d_{k}" for k in _ENT_KINDS), "model"]
    if columns != expected:
        raise ValueError(f"unexpected columns {columns}")
    _check_grid(req, rows, 0)
    col = {name: i for i, name in enumerate(columns)}
    tol = NESTING_TOL / req.sites
    any_flagged = False
    for i, row in enumerate(rows):
        if int(row[col["sites"]]) != req.sites:
            raise ValueError(f"row {i}: wrong size")
        even = _bool(row[col["even_vacuum"]], "even_vacuum")
        _bool(row[col["degenerate"]], "degenerate")
        gap = _float(row[col["gap"]], "gap")
        if gap < 0.0:
            raise ValueError(f"row {i}: negative gap {gap}")
        if not even:
            any_flagged = True
            if any(row[col[k]] != "" for k in _ENT_KINDS):
                raise ValueError(f"row {i}: flagged non-even-vacuum row carries values")
            continue
        site, af, block = (_float(row[col[k]], k) for k in _ENT_KINDS)
        if not (block <= af + tol and af <= site + tol):
            raise ValueError(
                f"row {i}: nesting violated: ent_block={block!r} ent_af={af!r} ent_site={site!r}"
            )
        _check_model_cell(row[col["model"]], req.sites)
    for i, row in enumerate(rows):
        cells = [row[col[f"d_{k}"]] for k in _ENT_KINDS]
        if any_flagged:
            if any(c != "" for c in cells):
                raise ValueError(f"row {i}: derivative across flagged points")
        else:
            for k, c in zip(_ENT_KINDS, cells):
                _float(c, f"d_{k}")


def _check_gap(req, columns, rows) -> None:
    if columns != ["sweep_value", "sites", "gap", "model"]:
        raise ValueError(f"unexpected columns {columns}")
    _check_grid(req, rows, 0)
    for i, row in enumerate(rows):
        if int(row[1]) != req.sites:
            raise ValueError(f"row {i}: wrong size")
        if _float(row[2], "gap") < 0.0:
            raise ValueError(f"row {i}: negative gap")
        _check_model_cell(row[3], req.sites)


def _check_spectrum(req, columns, rows) -> None:
    if columns != ["sweep_value", "sites", "sector", "level", "energy", "occupation_size", "model"]:
        raise ValueError(f"unexpected columns {columns}")
    per_point = 2 * req.levels
    _check_grid(req, rows, 0, repeat=per_point)
    for i, row in enumerate(rows):
        sector = ("odd", "even")[(i % per_point) // req.levels]
        level = i % req.levels
        if row[2] != sector or int(row[3]) != level or int(row[1]) != req.sites:
            raise ValueError(f"row {i}: unexpected sector/level/size {row[1:4]}")
        energy = _float(row[4], "energy")
        if int(row[5]) % 2 != (1 if sector == "odd" else 0):
            raise ValueError(f"row {i}: occupation parity does not match the {sector} sector")
        if level and energy < previous - 1e-9 * max(1.0, abs(energy)):
            raise ValueError(f"row {i}: levels not ascending")
        previous = energy
        if level == 0:
            _check_model_cell(row[6], req.sites)


def _check_thermo(req, columns, rows) -> None:
    if columns != ["sweep_value", "thermo_block_density", "model"]:
        raise ValueError(f"unexpected columns {columns}")
    _check_grid(req, rows, 0)
    for i, row in enumerate(rows):
        density = _float(row[1], "thermo_block_density")
        if not -DENSITY_TOL <= density <= 1.0 + DENSITY_TOL:
            raise ValueError(f"row {i}: density {density!r} outside [0, 1]")


def _check_summary(req, text: str) -> tuple[int, int]:
    lines = text.splitlines()
    match = _CHECK_SUMMARY.match(lines[0]) if lines else None
    if match is None:
        raise ValueError("no check summary line")
    passed, failed = int(match.group(1)), int(match.group(2))
    # every point yields energy and gap rows, and eligible points three more
    if not 2 * req.points <= passed + failed <= 5 * req.points:
        raise ValueError(f"{passed + failed} check rows for {req.points} points")
    return passed, failed


def check_output(req, exit_code, text: str) -> str | None:
    """None when the output passes every check, else the first problem."""
    try:
        if req.verb == "check":
            # the summary is checked before the exit code so a failing run
            # reports its failed-row count
            passed, failed = _check_summary(req, text)
            if failed:
                return f"check reports {failed} failed rows ({passed} passed)"
        if exit_code != 0:
            return f"exit code {exit_code}"
        if req.verb == "check":
            return None
        columns, rows = parse_table(text)
        {
            "ent-scan": _check_ent,
            "gap-scan": _check_gap,
            "spectrum": _check_spectrum,
            "thermo": _check_thermo,
        }[req.verb](req, columns, rows)
    except (ValueError, IndexError, KeyError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


# --- default-seed reference ---------------------------------------------------

def _sample_rows(rows: list) -> list:
    if len(rows) <= REF_ROWS:
        return rows
    step = (len(rows) - 1) / (REF_ROWS - 1)
    return [rows[round(i * step)] for i in range(REF_ROWS)]


def fingerprint(req, text: str) -> dict:
    """The values of one output that the reference keeps: every numeric,
    boolean and empty cell of up to REF_ROWS evenly spaced rows (the model
    column is left out), or the pass count of a check request."""
    if req.verb == "check":
        passed, failed = _check_summary(req, text)
        return {"argv": list(req.argv), "passed": passed, "failed": failed}
    columns, rows = parse_table(text)
    keep = [i for i, name in enumerate(columns) if name not in ("model", "sector")]
    sampled = []
    for row in _sample_rows(rows):
        cells = []
        for i in keep:
            cell = row[i]
            if cell in ("", "true", "false"):
                cells.append(None if cell == "" else cell == "true")
            else:
                cells.append(float(cell))
        sampled.append(cells)
    return {"argv": list(req.argv), "columns": [columns[i] for i in keep],
            "rows": len(rows), "values": sampled}


def compare_reference(req, text: str, recorded: dict) -> str | None:
    """None when the output matches the recorded fingerprint within
    REF_ATOL + REF_RTOL * |recorded|, else the first difference."""
    if list(req.argv) != recorded["argv"]:
        return "request differs from the recorded one"
    try:
        got = fingerprint(req, text)
    except (ValueError, IndexError) as exc:
        return f"cannot fingerprint output: {exc}"
    if req.verb == "check":
        if (got["passed"], got["failed"]) != (recorded["passed"], recorded["failed"]):
            return f"check counts {got['passed']}/{got['failed']} differ from the reference"
        return None
    if got["columns"] != recorded["columns"] or got["rows"] != recorded["rows"]:
        return "table shape differs from the reference"
    for r, (row, ref_row) in enumerate(zip(got["values"], recorded["values"])):
        for name, value, ref in zip(got["columns"], row, ref_row):
            if isinstance(ref, float) and isinstance(value, float):
                if abs(value - ref) > REF_ATOL + REF_RTOL * abs(ref):
                    return f"sampled row {r}: {name}={value!r}, reference {ref!r}"
            elif value != ref:
                return f"sampled row {r}: {name}={value!r}, reference {ref!r}"
    return None
