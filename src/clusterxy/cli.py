"""Command-line front end: spectrum dumps, gap scans, entanglement scans,
thermodynamic-limit densities, and oracle cross-checks, emitted as CSV or
JSON tables.

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
from dataclasses import dataclass, field

from . import model as mdl
from .freefermion import Sector, ground_and_gap, sector_states
from .entanglement import (
    EvenVacuumAnalysis,
    QuadratureError,
    maximize_block,
    maximize_site,
    maximize_site_af,
    scan_derivative,
    theta_function,
    thermo_block_density,
)
from .crosscheck import CHECK_PRESETS, run_checks

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_CHECK_FAILED = 4

ENT_KINDS = ("ent_site", "ent_block", "ent_af")
_ENT_FUNCS = {
    "ent_site": maximize_site,
    "ent_block": maximize_block,
    "ent_af": maximize_site_af,
}


@dataclass(frozen=True)
class ScanRequest:
    """A fully resolved CLI request (echoed into every output file)."""

    command: str
    model: dict
    sites: tuple[int, ...]
    sweep: tuple[str, float, float, float] | None
    quantities: tuple[str, ...] = ()
    levels: int = 2
    fmt: str = "csv"
    output: str | None = None
    extras: dict = field(default_factory=dict)

    def echo(self) -> dict:
        data = {
            "command": self.command,
            "model": self.model,
            "sites": list(self.sites),
            "format": self.fmt,
        }
        if self.sweep is not None:
            param, start, stop, step = self.sweep
            data["sweep"] = {"parameter": param, "start": start, "stop": stop, "step": step}
        if self.quantities:
            data["quantities"] = list(self.quantities)
        if self.command == "spectrum":
            data["levels"] = self.levels
        data.update(self.extras)
        return data


# --- model resolution ---------------------------------------------------------

class ModelSource:
    """Builds ModelSpecs for sweep points, either from a preset plus its
    parameters or from a model-definition file."""

    def __init__(self, args):
        self.preset = args.model
        self.path = args.model_file
        if (self.preset is None) == (self.path is None):
            raise ValueError("exactly one of --model or --model-file is required")
        self.params = {
            "r": args.r,
            "h": args.h,
            "g": args.g,
            "lambda": args.lambda_,
            "n": args.n,
            "m": args.m,
            "halfway": args.halfway,
        }
        if self.path is not None:
            self.base = mdl.load_model(self.path)
        else:
            if self.preset not in mdl.PRESETS:
                raise ValueError(f"unknown preset {self.preset!r}; see `clusterxy presets`")
            self.base = None

    def describe(self) -> dict:
        if self.path is not None:
            return {"file": str(self.path), "definition": mdl.model_to_dict(self.base)}
        used = mdl.PRESETS[self.preset].parameters
        return {
            "preset": self.preset,
            "parameters": {key: self.params[key] for key in used},
        }

    def default_sites(self) -> int | None:
        return self.base.sites if self.base is not None else None

    def sweepable(self) -> tuple[str, ...]:
        if self.path is not None:
            return ("h", "field")
        used = mdl.PRESETS[self.preset].parameters
        return tuple(p for p in used if p != "halfway") + (("field",) if "h" in used else ())

    def check_sweep(self, param: str) -> None:
        """Raise ValueError unless ``param`` can be swept for this model."""
        valid = self.sweepable()
        if param in valid and param in ("n", "m") and self.params["halfway"]:
            raise ValueError(f"cannot sweep {param!r} with --halfway, which sets the spans to sites/2 - 1")
        if param not in valid:
            raise ValueError(
                f"cannot sweep {param!r} for this model; valid parameters: {', '.join(valid)}"
            )

    def build(self, sites: int, override: tuple[str, float] | None = None) -> mdl.ModelSpec:
        if self.path is not None:
            field_value = self.base.field
            if override is not None:
                field_value = override[1]
            return mdl.make_model(sites, field_value, self.base.blocks)
        params = dict(self.params)
        if override is not None:
            key = "h" if override[0] == "field" else override[0]
            params[key] = override[1]
        return mdl.PRESETS[self.preset].build(params, sites)


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
    if not (math.isfinite(steps) and round(steps) >= 1 and abs(steps - round(steps)) <= 1e-9):
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
    return sites


# --- output -------------------------------------------------------------------

def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def render_table(request: ScanRequest, columns: list[str], rows: list[list]) -> str:
    if request.fmt == "json":
        payload = {"request": request.echo(), "columns": columns, "rows": rows}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    buf = io.StringIO()
    buf.write(f"# clusterxy {request.command}\n")
    buf.write("# request: " + json.dumps(request.echo(), sort_keys=True) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt_cell(cell) for cell in row])
    return buf.getvalue()


def write_output(request: ScanRequest, columns: list[str], rows: list[list]) -> None:
    text = render_table(request, columns, rows)
    if request.output is None:
        sys.stdout.write(text)
    else:
        with open(request.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _model_json(spec: mdl.ModelSpec) -> str:
    return json.dumps(mdl.model_to_dict(spec), sort_keys=True, separators=(",", ":"))


# --- verbs --------------------------------------------------------------------

def cmd_spectrum(source: ModelSource, request: ScanRequest) -> tuple[list[str], list[list]]:
    param = request.sweep[0]
    points = sweep_points(*request.sweep[1:])
    rows = []
    for n in request.sites:
        for value in points:
            spec = source.build(n, (param, value))
            for sector in (Sector.ODD, Sector.EVEN):
                for level, (energy, occ) in enumerate(sector_states(spec, sector, request.levels)):
                    rows.append([value, n, sector.value, level, energy, len(occ), _model_json(spec)])
    columns = ["sweep_value", "sites", "sector", "level", "energy", "occupation_size", "model"]
    return columns, rows


def cmd_gap_scan(source: ModelSource, request: ScanRequest) -> tuple[list[str], list[list]]:
    param = request.sweep[0]
    points = sweep_points(*request.sweep[1:])
    rows = []
    for n in request.sites:
        for value in points:
            spec = source.build(n, (param, value))
            rows.append([value, n, ground_and_gap(spec).gap, _model_json(spec)])
    return ["sweep_value", "sites", "gap", "model"], rows


def _derivative(points: list[float], series: list) -> list:
    if len(series) >= 3 and all(v is not None for v in series):
        return list(scan_derivative(points, series))
    return [None] * len(series)


def cmd_ent_scan(source: ModelSource, request: ScanRequest) -> tuple[list[str], list[list]]:
    param = request.sweep[0]
    points = sweep_points(*request.sweep[1:])
    kinds = [q for q in request.quantities if q in ENT_KINDS]
    want_derivative = "derivative" in request.quantities
    want_gap = "gap" in request.quantities

    columns = ["sweep_value", "sites", "even_vacuum", "degenerate", *kinds]
    if want_gap:
        columns.append("gap")
    if want_derivative:
        columns += [f"d_{kind}" for kind in kinds]
    columns.append("model")

    rows = []
    for n in request.sites:
        chunk, models = [], []
        for value in points:
            spec = source.build(n, (param, value))
            analysis = EvenVacuumAnalysis(spec)
            vacuum = analysis.report.even_vacuum
            # points whose ground state is not the even vacuum are flagged
            # and carry no densities
            row = [value, n, vacuum, vacuum and analysis.report.degenerate]
            row += [_ENT_FUNCS[kind](analysis).density if vacuum else None for kind in kinds]
            if want_gap:
                row.append(analysis.report.gap)
            chunk.append(row)
            models.append(_model_json(spec))
        if want_derivative:
            derivs = [_derivative(points, [row[4 + j] for row in chunk]) for j in range(len(kinds))]
            for i, row in enumerate(chunk):
                row += [d[i] for d in derivs]
        rows += [row + [model] for row, model in zip(chunk, models)]
    return columns, rows


def cmd_thermo(source: ModelSource, request: ScanRequest) -> tuple[list[str], list[list]]:
    param = request.sweep[0]
    nominal_sites = request.sites[0]
    rows = []
    for value in sweep_points(*request.sweep[1:]):
        spec = source.build(nominal_sites, (param, value))
        if spec.blocks != source.build(nominal_sites + 2, (param, value)).blocks:
            raise ValueError(
                "the interactions change with the system size (halfway spans), so "
                "the model has no fixed thermodynamic-limit angle"
            )
        try:
            density = thermo_block_density(theta_function(spec))
        except QuadratureError as exc:
            raise QuadratureError(f"at {param}={value}: {exc}") from exc
        rows.append([value, density, _model_json(spec)])
    return ["sweep_value", "thermo_block_density", "model"], rows


def cmd_check(request: ScanRequest, sites: int, points: int, presets, flip_theta_sign: bool):
    rows = run_checks(
        sites=(sites,),
        presets=presets,
        points=points,
        flip_theta_sign=flip_theta_sign,
    )
    table = [
        [r.preset, r.sites, r.parameter, r.check, r.error, r.tolerance, "pass" if r.passed else "FAIL"]
        for r in rows
    ]
    columns = ["preset", "sites", "parameter", "check", "error", "tolerance", "status"]
    failures = sum(1 for r in rows if not r.passed)
    if request.output is not None or request.fmt == "json":
        write_output(request, columns, table)
    if request.output is not None or request.fmt != "json":
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

def _add_model_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", help="preset name (see `clusterxy presets`)")
    parser.add_argument("--model-file", help="path to a JSON model definition")
    parser.add_argument("--r", type=float, default=1.0, help="anisotropy (XY-family presets)")
    parser.add_argument("--h", type=float, default=0.0, help="transverse field")
    parser.add_argument("--g", type=float, default=0.0, help="GHZ-cluster parameter")
    parser.add_argument("--lambda", dest="lambda_", type=float, default=0.0, help="AFM coupling")
    parser.add_argument("--n", type=int, default=0, help="X-block mediator count (xny)")
    parser.add_argument("--m", type=int, default=None, help="Y-block mediator count (xny; defaults to n)")
    parser.add_argument("--halfway", action="store_true", help="use half-ring interaction spans")
    parser.add_argument("--sites", default=None, help="comma-separated system sizes")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clusterxy",
        description="exact spectra, gaps, and geometric entanglement of cluster-XY chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectrum", help="lowest levels per sector along a sweep")
    _add_model_args(p_spec)
    p_spec.add_argument("--sweep", required=True, help="param:start:stop:step")
    p_spec.add_argument("--levels", type=int, default=2, help="levels per sector")

    p_gap = sub.add_parser("gap-scan", help="ground-state gap along a sweep")
    _add_model_args(p_gap)
    p_gap.add_argument("--sweep", required=True, help="param:start:stop:step")

    p_ent = sub.add_parser("ent-scan", help="entanglement densities along a sweep")
    _add_model_args(p_ent)
    p_ent.add_argument("--sweep", required=True, help="param:start:stop:step")
    p_ent.add_argument(
        "--quantities",
        default="ent_site",
        help="comma list from ent_site,ent_block,ent_af,gap,derivative",
    )

    p_thermo = sub.add_parser("thermo", help="thermodynamic-limit block density")
    _add_model_args(p_thermo)
    p_thermo.add_argument("--sweep", required=True, help="param:start:stop:step")

    p_check = sub.add_parser("check", help="oracle-equivalence suite")
    p_check.add_argument("--sites", type=int, default=8)
    p_check.add_argument("--points", type=int, default=11)
    p_check.add_argument("--presets", default=None, help="comma list (default: all)")
    p_check.add_argument("--out", default=None)
    p_check.add_argument("--format", choices=("csv", "json"), default="csv")
    p_check.add_argument("--corrupt-theta-sign", action="store_true", help=argparse.SUPPRESS)

    sub.add_parser("presets", help="list preset families")
    return parser


def _scan_request(args, source: ModelSource, quantities=(), extras=None) -> ScanRequest:
    sweep = parse_sweep(args.sweep)
    if args.sites is not None:
        sites = _parse_sites(args.sites)
    elif source.default_sites() is not None:
        sites = (source.default_sites(),)
    else:
        sites = (8,)
    source.check_sweep(sweep[0])
    return ScanRequest(
        command=args.command,
        model=source.describe(),
        sites=sites,
        sweep=sweep,
        quantities=tuple(quantities),
        levels=getattr(args, "levels", 2),
        fmt=args.format,
        output=args.out,
        extras=extras or {},
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "presets":
            return cmd_presets()
        if args.command == "check":
            presets = args.presets.split(",") if args.presets else None
            request = ScanRequest(
                command="check",
                model={"presets": presets or sorted(CHECK_PRESETS)},
                sites=(args.sites,),
                sweep=None,
                fmt=args.format,
                output=args.out,
                extras={"points": args.points},
            )
            return cmd_check(request, args.sites, args.points, presets, args.corrupt_theta_sign)

        source = ModelSource(args)
        if args.command == "spectrum":
            if args.levels < 1:
                raise ValueError("--levels must be >= 1")
            request = _scan_request(args, source)
            columns, rows = cmd_spectrum(source, request)
        elif args.command == "gap-scan":
            request = _scan_request(args, source)
            columns, rows = cmd_gap_scan(source, request)
        elif args.command == "ent-scan":
            quantities = tuple(q for q in args.quantities.split(",") if q)
            allowed = set(ENT_KINDS) | {"gap", "derivative"}
            unknown = set(quantities) - allowed
            if unknown:
                raise ValueError(f"unknown quantities {sorted(unknown)}; allowed: {sorted(allowed)}")
            if not any(q in ENT_KINDS for q in quantities):
                raise ValueError("ent-scan needs at least one of ent_site, ent_block, ent_af")
            request = _scan_request(args, source, quantities=quantities)
            if any(n % 2 for n in request.sites):
                raise ValueError("entanglement scans require even system sizes")
            columns, rows = cmd_ent_scan(source, request)
        elif args.command == "thermo":
            request = _scan_request(args, source)
            if len(request.sites) != 1:
                raise ValueError("thermo takes a single --sites value")
            columns, rows = cmd_thermo(source, request)
        else:  # pragma: no cover - argparse enforces the choices
            raise ValueError(f"unknown command {args.command!r}")
        write_output(request, columns, rows)
        return EXIT_OK
    except QuadratureError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
