"""Seeded request streams for the four benchmark workloads.

A workload is an endless sequence of rounds.  Every round holds each preset
family once, so whole rounds have the same family mix whatever the seed; the
seed picks where a rotation of system sizes (and point counts) over the
families starts, the order inside a round, the parameter windows and the
sweep steps.  Point counts grow as the per-point cost falls (21 points at
N=64, 16 at N=256, 11 at N=1024), so ent-scan requests take about the same
time at every size.  That keeps runs with different seeds comparable while
their inputs differ.

Sweep grids are built so that ``(stop - start) / step`` is an integer, which
makes the expected row count of every request exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("ent_scan", "gap_scan", "thermo_scan", "oracle_check")

ENT_QUANTITIES = "ent_site,ent_af,ent_block,gap,derivative"
#: (sites, sweep points) of ent-scan requests
ENT_SHAPES = ((64, 21), (256, 16), (1024, 11))
GAP_SITES = 4096
GAP_POINTS = 41
SPECTRUM_LEVELS = 16
THERMO_POINTS = 5
THERMO_STEP = 0.1
#: (sites, points) of check requests, rotated over the presets: the N=10
#: requests are the majority, so the median and the tail both fall among them
#: rather than on the boundary between the two sizes
CHECK_SHAPES = ((8, 5), (10, 3), (10, 3), (10, 5))
#: ``clusterxy check --presets`` names of the scan families, whose N=10
#: checks cost about the same (within 20%)
CHECK_PRESETS = ("xzy", "spt-afm", "ghz-cluster", "halfway-xy")
SWEEP_STEPS = (0.01, 0.0125, 0.015, 0.0175, 0.02)


@dataclass(frozen=True)
class Family:
    """A preset with fixed flags, its swept parameter and the centre of the
    window the sweeps straddle."""

    label: str
    flags: tuple[str, ...]
    parameter: str
    centre: float


# Critical windows: XzY closes its gap at |h| = 1, SPT-AFM at lambda = 1 and
# GHZ-cluster at g = 0; halfway-XY (r = 0.7) has its first-order jump near
# h = 0.714, below which the ground state is not the even-sector vacuum, so
# those windows always hold flagged points.
SCAN_FAMILIES = (
    Family("xzy-r0.5", ("--model", "xzy", "--r", "0.5"), "h", 1.0),
    Family("xzy-r1", ("--model", "xzy", "--r", "1"), "h", 1.0),
    Family("spt-afm", ("--model", "spt-afm"), "lambda", 1.0),
    Family("ghz-cluster", ("--model", "ghz-cluster"), "g", 0.0),
    Family("halfway-xy", ("--model", "halfway-xy", "--r", "0.7"), "h", 0.714),
)

# Thermodynamic-limit windows.  The thermo verb exits 3 (quadrature
# failure) for spt-afm at |lambda| >= 1 and for XzY at h in [-0.9, -0.3], so
# the spt-afm windows stay below lambda = 0.9.
THERMO_FAMILIES = (
    Family("xy-r0.5", ("--model", "xy", "--r", "0.5"), "h", 1.0),
    Family("xy-r1", ("--model", "xy", "--r", "1"), "h", 1.0),
    Family("xzy-r0.5", ("--model", "xzy", "--r", "0.5"), "h", 1.0),
    Family("xzy-r1", ("--model", "xzy", "--r", "1"), "h", 1.0),
    Family("ghz-cluster", ("--model", "ghz-cluster"), "g", 0.0),
    Family("spt-afm", ("--model", "spt-afm"), "lambda", 0.65),
)


@dataclass(frozen=True)
class Request:
    """One CLI invocation and what its output must look like."""

    workload: str
    family: str
    argv: tuple[str, ...]
    sites: int
    points: int
    grid: tuple[float, ...] = ()
    levels: int = 0

    @property
    def verb(self) -> str:
        return self.argv[0]


def _num(x: float) -> str:
    return format(x, ".12g")


def _window(rng: random.Random, fam: Family, step: float, points: int, quantum: float):
    """A sweep of ``points`` points and spacing ``step`` whose window holds
    the family's centre at a seeded fraction of its length."""
    length = (points - 1) * step
    start = round((fam.centre - rng.uniform(0.3, 0.7) * length) / quantum) * quantum
    start = round(start, 6)
    stop = round(start + length, 6)
    grid = tuple(round(start + i * step, 12) for i in range(points - 1)) + (stop,)
    sweep = f"{fam.parameter}:{_num(start)}:{_num(stop)}:{_num(step)}"
    return sweep, grid


def _ent_round(rng: random.Random, index: int, offset: int) -> list[Request]:
    out = []
    for f, fam in enumerate(SCAN_FAMILIES):
        n, points = ENT_SHAPES[(f + index + offset) % len(ENT_SHAPES)]
        sweep, grid = _window(rng, fam, rng.choice(SWEEP_STEPS), points, 0.0005)
        argv = ("ent-scan", *fam.flags, "--sites", str(n), "--sweep", sweep,
                "--quantities", ENT_QUANTITIES)
        out.append(Request("ent_scan", fam.label, argv, n, points, grid))
    rng.shuffle(out)
    return out


def _gap_round(rng: random.Random, index: int, offset: int) -> list[Request]:
    """Five groups, one per preset family, of three gap scans followed by a
    16-level spectrum over the third scan's sweep: every fourth request is a
    spectrum."""
    families = list(SCAN_FAMILIES)
    rng.shuffle(families)
    out = []
    for fam in families:
        for _ in range(3):
            sweep, grid = _window(rng, fam, rng.choice(SWEEP_STEPS), GAP_POINTS, 0.0005)
            argv = ("gap-scan", *fam.flags, "--sites", str(GAP_SITES), "--sweep", sweep)
            out.append(Request("gap_scan", fam.label, argv, GAP_SITES, GAP_POINTS, grid))
        argv = ("spectrum", *fam.flags, "--sites", str(GAP_SITES), "--sweep", sweep,
                "--levels", str(SPECTRUM_LEVELS))
        out.append(Request("gap_scan", fam.label, argv, GAP_SITES, GAP_POINTS, grid,
                           levels=SPECTRUM_LEVELS))
    return out


def _thermo_round(rng: random.Random, index: int, offset: int) -> list[Request]:
    out = []
    for fam in THERMO_FAMILIES:
        sweep, grid = _window(rng, fam, THERMO_STEP, THERMO_POINTS, 0.01)
        # thermo has no system size; the CLI evaluates the model at its
        # default nominal size of 8 sites
        argv = ("thermo", *fam.flags, "--sweep", sweep)
        out.append(Request("thermo_scan", fam.label, argv, 8, THERMO_POINTS, grid))
    rng.shuffle(out)
    return out


def _check_round(rng: random.Random, index: int, offset: int) -> list[Request]:
    out = []
    for p, preset in enumerate(CHECK_PRESETS):
        n, points = CHECK_SHAPES[(p + index + offset) % len(CHECK_SHAPES)]
        argv = ("check", "--presets", preset, "--sites", str(n), "--points", str(points))
        out.append(Request("oracle_check", preset, argv, n, points))
    rng.shuffle(out)
    return out


_ROUNDS = {
    "ent_scan": _ent_round,
    "gap_scan": _gap_round,
    "thermo_scan": _thermo_round,
    "oracle_check": _check_round,
}


def rounds(workload: str, seed: int):
    """Endless iterator over the rounds (lists of Requests) of a workload;
    the same seed gives the same rounds."""
    make = _ROUNDS[workload]
    rng = random.Random(f"{workload}/{seed}")
    offset = rng.randrange(len(SCAN_FAMILIES) * len(CHECK_SHAPES))
    index = 0
    while True:
        yield make(rng, index, offset)
        index += 1


def warmup_requests(workload: str) -> list[Request]:
    """Small untimed requests that touch the verbs a workload uses, so that
    first-call costs inside the process are paid before timing starts."""
    fam = SCAN_FAMILIES[0]
    rng = random.Random("warmup")
    if workload == "ent_scan":
        sweep, grid = _window(rng, fam, 0.02, 3, 0.0005)
        argv = ("ent-scan", *fam.flags, "--sites", "16", "--sweep", sweep,
                "--quantities", ENT_QUANTITIES)
        return [Request(workload, fam.label, argv, 16, 3, grid)]
    if workload == "gap_scan":
        sweep, grid = _window(rng, fam, 0.02, 3, 0.0005)
        return [
            Request(workload, fam.label, ("gap-scan", *fam.flags, "--sites", "64", "--sweep", sweep),
                    64, 3, grid),
            Request(workload, fam.label,
                    ("spectrum", *fam.flags, "--sites", "64", "--sweep", sweep,
                     "--levels", str(SPECTRUM_LEVELS)),
                    64, 3, grid, levels=SPECTRUM_LEVELS),
        ]
    if workload == "thermo_scan":
        fam = THERMO_FAMILIES[0]
        sweep, grid = _window(rng, fam, THERMO_STEP, 2, 0.01)
        return [Request(workload, fam.label, ("thermo", *fam.flags, "--sweep", sweep), 8, 2, grid)]
    return [Request(workload, "xzy", ("check", "--presets", "xzy", "--sites", "6", "--points", "2"),
                    6, 2)]
