"""Command-line front end: spectrum dumps, gap scans, entanglement scans,
thermodynamic-limit densities, and oracle cross-checks, emitted as CSV or
JSON tables.

The sweep verbs share one resolved ``Scan``.  Each model has one spelling,
a preset name (the halfway models are the presets ``halfway-xy`` and
``spt-afm-halfway``) or a model file, which is a preset whose one parameter
is the field ``h``; a sweep names a parameter of that preset.  ``thermo``
runs at the nominal size, so takes no ``--sites``.

Every emitted row carries the fully resolved model (as compact JSON), sweep
endpoints are inclusive, floats are printed with 17 significant digits, and
identical requests produce byte-identical output.

Exit codes: 0 success, 2 validation error, 3 numerical failure,
4 oracle-check failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from . import model as mdl
from .freefermion import Sector, ground_and_gap, sector_states
from .entanglement import (
    AnalysisBatch,
    EvenVacuumAnalysis,
    QuadratureError,
    maximize_block,
    maximize_site,
    maximize_site_af,
    scan_derivative,
    thermo_block_density,
)
from .crosscheck import CHECK_PRESETS, run_checks

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_CHECK_FAILED = 4

#: the most points a sweep may have; a longer one is refused before its grid
#: is built
MAX_SWEEP_POINTS = 100_000

#: the preset options and the value each takes when not given
PARAMETER_DEFAULTS = {"r": 1.0, "h": 0.0, "g": 0.0, "lambda": 0.0, "n": 0, "m": None}

_ENT_FUNCS = {
    "ent_site": maximize_site,
    "ent_block": maximize_block,
    "ent_af": maximize_site_af,
}


# --- sweep handling -----------------------------------------------------------

def parse_sweep(text: str) -> tuple[str, float, float, float]:
    parts = text.split(":")
    if len(parts) != 4:
        raise ValueError(f"sweep must be param:start:stop:step, got {text!r}")
    param = parts[0]
    try:
        start, stop, step = (float(x) for x in parts[1:])
    except ValueError as exc:
        raise ValueError(f"malformed sweep {text!r}: {exc}") from exc
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise ValueError(f"sweep start, stop and step must be finite, got {text!r}")
    if step <= 0.0:
        raise ValueError("sweep step must be > 0")
    if not start < stop:
        raise ValueError("sweep start must be < stop")
    steps = (stop - start) / step
    if not steps + 1.0 < MAX_SWEEP_POINTS + 0.5:  # steps + 1 points; an infinite count fails too
        raise ValueError(f"sweep {text!r} has more than {MAX_SWEEP_POINTS} points")
    if not (round(steps) >= 1 and abs(steps - round(steps)) <= 1e-9):
        raise ValueError(f"sweep range {stop - start:g} is not a whole number of steps {step:g}")
    return param, start, stop, step


def sweep_points(start: float, stop: float, step: float) -> list[float]:
    """Inclusive sweep grid start + i*step ending exactly at ``stop``; the
    range is a whole number of steps (``parse_sweep`` checks it)."""
    return [start + i * step for i in range(round((stop - start) / step))] + [stop]


def _parse_sites(text: str) -> tuple[int, ...]:
    try:
        sites = tuple(int(tok) for tok in text.split(",") if tok)
    except ValueError as exc:
        raise ValueError(f"malformed --sites {text!r}") from exc
    if not sites or any(n < 2 for n in sites):
        raise ValueError("--sites needs a comma-separated list of integers >= 2")
    if len(set(sites)) != len(sites):
        raise ValueError(f"--sites lists a size more than once: {text!r}")
    return sites


# --- the resolved request -------------------------------------------------------

class Scan:
    """A sweep request resolved once: the model family with its parameters,
    the sizes, the sweep values, and the request echo written above the
    table.  A model file is one more preset, whose only parameter is the
    field ``h`` (the file's field unless swept) and whose size is the file's."""

    def __init__(self, args):
        if (args.model is None) == (args.model_file is None):
            raise ValueError("exactly one of --model or --model-file is required")
        given = [key for key in PARAMETER_DEFAULTS if vars(args)[key] is not None]
        if args.model_file is not None:
            base = mdl.load_model(args.model_file)
            self.preset = mdl.Preset(
                ("h",), "model file", lambda p, n: mdl.make_model(n, p["h"], base.blocks)
            )
            self.params = {"h": base.field}
            model = {"file": str(args.model_file), "definition": mdl.model_to_dict(base)}
            nominal = base.sites
            source, reads = "a model file, whose field is the file's or the sweep's", ()
        elif args.model in mdl.PRESETS:
            self.preset = mdl.PRESETS[args.model]
            # every preset option, named as the parameter it sets
            self.params = {**PARAMETER_DEFAULTS, **{key: vars(args)[key] for key in given}}
            shown = {key: self.params[key] for key in self.preset.parameters}
            model = {"preset": args.model, "parameters": shown}
            nominal = 8
            source, reads = f"preset {args.model!r}", self.preset.parameters
        else:
            raise ValueError(f"unknown preset {args.model!r}; see `clusterxy presets`")
        unread = [f"--{key}" for key in given if key not in reads]
        if unread:
            raise ValueError(f"{', '.join(unread)} not read by {source}")

        param, start, stop, step = parse_sweep(args.sweep)
        sites = getattr(args, "sites", None)
        self.sites = _parse_sites(sites) if sites is not None else (nominal,)
        valid = self.preset.parameters
        if param not in valid:
            raise ValueError(
                f"cannot sweep {param!r} for this model; valid parameters: {', '.join(valid)}"
            )
        if param in given:
            raise ValueError(f"--{param} sets the swept parameter; drop it")
        self.param = param
        self.values = sweep_points(start, stop, step)
        self.echo = {
            "command": args.command,
            "model": model,
            "sites": list(self.sites),
            "format": args.format,
            "sweep": {"parameter": param, "start": start, "stop": stop, "step": step},
        }

    def model(self, sites: int, value: float) -> mdl.ModelSpec:
        return self.preset.build({**self.params, self.param: value}, sites)

    def points(self):
        """(sweep value, model) at every point, sizes outermost."""
        for n in self.sites:
            for value in self.values:
                yield value, self.model(n, value)


# --- output -------------------------------------------------------------------

def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_output(echo: dict, path: str | None, columns: list[str], rows: list[list]) -> None:
    """Write the table to ``path`` (stdout if None) as JSON or as CSV under
    a ``#`` comment block that echoes the request."""
    if echo["format"] == "json":
        payload = {"request": echo, "columns": columns, "rows": rows}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        buf.write(f"# clusterxy {echo['command']}\n")
        buf.write("# request: " + json.dumps(echo, sort_keys=True) + "\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt_cell(cell) for cell in row])
        text = buf.getvalue()
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _model_json(spec: mdl.ModelSpec) -> str:
    return json.dumps(mdl.model_to_dict(spec), sort_keys=True, separators=(",", ":"))


# --- verbs --------------------------------------------------------------------

def cmd_spectrum(args, scan: Scan) -> tuple[list[str], list[list]]:
    if args.levels < 1:
        raise ValueError("--levels must be >= 1")
    scan.echo["levels"] = args.levels
    rows = []
    for value, spec in scan.points():
        for sector in (Sector.ODD, Sector.EVEN):
            for level, (energy, occ) in enumerate(sector_states(spec, sector, args.levels)):
                rows.append([value, spec.sites, sector.value, level, energy, len(occ), _model_json(spec)])
    return ["sweep_value", "sites", "sector", "level", "energy", "occupation_size", "model"], rows


def cmd_gap_scan(args, scan: Scan) -> tuple[list[str], list[list]]:
    rows = [
        [value, spec.sites, ground_and_gap(spec).gap, _model_json(spec)]
        for value, spec in scan.points()
    ]
    return ["sweep_value", "sites", "gap", "model"], rows


def cmd_ent_scan(args, scan: Scan) -> tuple[list[str], list[list]]:
    quantities = [q for q in args.quantities.split(",") if q]
    allowed = {*_ENT_FUNCS, "gap", "derivative"}
    unknown = set(quantities) - allowed
    if unknown:
        raise ValueError(f"unknown quantities {sorted(unknown)}; allowed: {sorted(allowed)}")
    if len(set(quantities)) != len(quantities):
        raise ValueError(f"--quantities lists an entry more than once: {args.quantities!r}")
    kinds = [q for q in quantities if q in _ENT_FUNCS]
    if not kinds:
        raise ValueError("ent-scan needs at least one of ent_site, ent_block, ent_af")
    if any(n % 2 for n in scan.sites):
        raise ValueError("entanglement scans require even system sizes")
    scan.echo["quantities"] = quantities
    want_gap = "gap" in quantities
    want_derivative = "derivative" in quantities

    columns = ["sweep_value", "sites", "even_vacuum", "degenerate", *kinds]
    if want_gap:
        columns.append("gap")
    if want_derivative:
        columns += [f"d_{kind}" for kind in kinds]
    columns.append("model")

    points = [(value, EvenVacuumAnalysis(spec)) for value, spec in scan.points()]
    for n in scan.sites:
        # the even-vacuum points of one size are solved as one batch
        AnalysisBatch([a for _, a in points if a.sites == n and a.report.even_vacuum])
    rows = []
    for value, analysis in points:
        vacuum = analysis.report.even_vacuum
        # points whose ground state is not the even vacuum are flagged
        # and carry no densities
        row = [value, analysis.sites, vacuum, vacuum and analysis.report.degenerate]
        row += [_ENT_FUNCS[kind](analysis).density if vacuum else None for kind in kinds]
        if want_gap:
            row.append(analysis.report.gap)
        rows.append(row + [_model_json(analysis.spec)])
    if want_derivative:
        # one series per size and kind, written before the model cell; a
        # series of fewer than 3 points or with a flagged point has none
        count = len(scan.values)
        for first in range(0, len(rows), count):
            chunk = rows[first:first + count]
            for j in range(len(kinds)):
                series = [row[4 + j] for row in chunk]
                whole = count >= 3 and None not in series
                cells = scan_derivative(scan.values, series) if whole else [None] * count
                for row, cell in zip(chunk, cells):
                    row.insert(-1, cell)
    return columns, rows


def cmd_thermo(args, scan: Scan) -> tuple[list[str], list[list]]:
    rows = []
    for value, spec in scan.points():
        if spec.blocks != scan.model(spec.sites + 2, value).blocks:
            raise ValueError(
                "the interactions change with the system size (halfway spans), so "
                "the model has no fixed thermodynamic-limit angle"
            )
        try:
            density = thermo_block_density(spec)
        except QuadratureError as exc:
            raise QuadratureError(f"at {scan.param}={value}: {exc}") from exc
        rows.append([value, density, _model_json(spec)])
    return ["sweep_value", "thermo_block_density", "model"], rows


#: the sweep verbs: command -> (help, verb)
SCAN_VERBS = {
    "spectrum": ("lowest levels per sector along a sweep", cmd_spectrum),
    "gap-scan": ("ground-state gap along a sweep", cmd_gap_scan),
    "ent-scan": ("entanglement densities along a sweep", cmd_ent_scan),
    "thermo": ("thermodynamic-limit block density", cmd_thermo),
}


def cmd_check(args) -> int:
    presets = args.presets.split(",") if args.presets else None
    rows = run_checks(
        sites=(args.sites,),
        presets=presets,
        points=args.points,
        flip_theta_sign=args.corrupt_theta_sign,
    )
    table = [
        [r.preset, r.sites, r.parameter, r.check, r.error, r.tolerance, "pass" if r.passed else "FAIL"]
        for r in rows
    ]
    columns = ["preset", "sites", "parameter", "check", "error", "tolerance", "status"]
    failures = sum(1 for r in rows if not r.passed)
    if args.out is not None or args.format == "json":
        echo = {
            "command": "check",
            "model": {"presets": presets or sorted(CHECK_PRESETS)},
            "sites": [args.sites],
            "format": args.format,
            "points": args.points,
        }
        write_output(echo, args.out, columns, table)
    if args.out is not None or args.format != "json":
        sys.stdout.write(f"checks: {len(rows) - failures} passed, {failures} failed\n")
        for r in rows:
            if not r.passed:
                sys.stdout.write(
                    f"FAIL {r.preset} sites={r.sites} {r.check} at parameter="
                    f"{format(r.parameter, '.17g')}: error {r.error:.3e} > {r.tolerance:.1e}\n"
                )
    return EXIT_CHECK_FAILED if failures else EXIT_OK


def cmd_presets() -> int:
    sys.stdout.write("available presets:\n")
    for name, preset in mdl.PRESETS.items():
        flags = ", ".join(f"--{p}" for p in preset.parameters)
        sys.stdout.write(f"  {name:16s} {preset.description} ({flags})\n")
    sys.stdout.write("model files: JSON with fields sites, field, blocks[kind,strength,mediators]\n")
    return EXIT_OK


# --- argument parsing -----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clusterxy",
        description="exact spectra, gaps, and geometric entanglement of cluster-XY chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scans = {}
    for name, (text, _) in SCAN_VERBS.items():
        scans[name] = p_scan = sub.add_parser(name, help=text)
        p_scan.add_argument("--model", help="preset name (see `clusterxy presets`)")
        p_scan.add_argument("--model-file", help="path to a JSON model definition")
        p_scan.add_argument("--r", type=float, help="anisotropy (XY-family presets; default 1)")
        p_scan.add_argument("--h", type=float, help="transverse field (default 0)")
        p_scan.add_argument("--g", type=float, help="GHZ-cluster parameter (default 0)")
        p_scan.add_argument("--lambda", type=float, help="AFM coupling (default 0)")
        p_scan.add_argument("--n", type=int, help="X-block mediator count (xny; default 0)")
        p_scan.add_argument("--m", type=int, help="Y-block mediator count (xny; defaults to n)")
        p_scan.add_argument("--sweep", required=True, help="param:start:stop:step")
        p_scan.add_argument("--out", default=None, help="output path (default: stdout)")
        p_scan.add_argument("--format", choices=("csv", "json"), default="csv")
    # thermo evaluates the model at its nominal size
    for name in ("spectrum", "gap-scan", "ent-scan"):
        scans[name].add_argument("--sites", default=None, help="comma-separated system sizes")
    scans["spectrum"].add_argument("--levels", type=int, default=2, help="levels per sector")
    scans["ent-scan"].add_argument(
        "--quantities",
        default="ent_site",
        help="comma list from ent_site,ent_block,ent_af,gap,derivative",
    )

    p_check = sub.add_parser("check", help="oracle-equivalence suite")
    p_check.add_argument("--sites", type=int, default=8)
    p_check.add_argument("--points", type=int, default=11)
    p_check.add_argument("--presets", default=None, help="comma list (default: all)")
    p_check.add_argument("--out", default=None)
    p_check.add_argument("--format", choices=("csv", "json"), default="csv")
    p_check.add_argument("--corrupt-theta-sign", action="store_true", help=argparse.SUPPRESS)

    sub.add_parser("presets", help="list preset families")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "presets":
            return cmd_presets()
        if args.command == "check":
            return cmd_check(args)
        scan = Scan(args)
        _, verb = SCAN_VERBS[args.command]
        columns, rows = verb(args, scan)
        write_output(scan.echo, args.out, columns, rows)
        return EXIT_OK
    except QuadratureError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
