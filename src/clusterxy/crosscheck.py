"""Oracle-equivalence suite: runs the analytic solver and the dense
brute-force solver side by side on every preset family and reports
per-point pass/fail rows for energies and gaps, and, wherever the ground
state is the non-degenerate even vacuum, for the state fidelity and the
overlaps: exp of ``entanglement.log_overlaps``, the log-overlap evaluator the
maximizers run on the ring's forms, against ``oracle.direct_overlap`` at
random site and block states."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import model as mdl
from .freefermion import ground_and_gap, even_vacuum_angles
from .entanglement import _product_vectors, log_overlaps
from .oracle import (
    MAX_DENSE_SITES,
    direct_overlap,
    exact_ground_state,
    exact_spectrum,
    model_hamiltonian,
    reconstruct_even_vacuum,
)

ENERGY_TOL = 1e-9
FIDELITY_TOL = 1e-9
OVERLAP_TOL = 1e-9

#: random ansatz states per closed-form overlap check
OVERLAP_SAMPLES = 20

#: parameter range every preset grid of ``run_checks`` spans
SPAN = (-2.0, 2.0)

#: check name -> (preset in ``model.PRESETS``, swept parameter, fixed parameters)
CHECK_PRESETS: dict[str, tuple[str, str, dict]] = {
    "xy": ("xy", "h", {"r": 0.5}),
    "xzy": ("xzy", "h", {"r": 0.5}),
    "xn2y": ("xny", "h", {"n": 2, "r": 0.5}),
    "halfway-xy": ("halfway-xy", "h", {"r": 0.5}),
    "ghz-cluster": ("ghz-cluster", "g", {}),
    "spt-afm": ("spt-afm", "lambda", {}),
    "spt-afm-halfway": ("spt-afm-halfway", "lambda", {}),
}


@dataclass(frozen=True)
class CheckRow:
    preset: str
    sites: int
    parameter: float
    check: str
    error: float
    tolerance: float
    passed: bool


def check_model(
    name: str,
    spec: mdl.ModelSpec,
    parameter: float,
    *,
    flip_theta_sign: bool = False,
    rng: np.random.Generator | None = None,
) -> list[CheckRow]:
    """Compare the analytic solution of one model against dense exact
    diagonalization; returns one row per comparison: the energy and the
    gap, then, when the ground state is the non-degenerate even vacuum of
    an even ring, the state fidelity and the overlaps at OVERLAP_SAMPLES
    site states s (as the blocks s x s) and as many block states."""
    rows: list[CheckRow] = []
    report = ground_and_gap(spec)
    ham = model_hamiltonian(spec)
    exact = exact_spectrum(ham, 2)

    energy_err = abs(report.ground_energy - exact[0])
    gap_err = abs(report.gap - (exact[1] - exact[0]))
    rows.append(CheckRow(name, spec.sites, parameter, "energy", energy_err, ENERGY_TOL, energy_err <= ENERGY_TOL))
    rows.append(CheckRow(name, spec.sites, parameter, "gap", gap_err, ENERGY_TOL, gap_err <= ENERGY_TOL))

    if spec.sites % 2 or not report.even_vacuum or report.degenerate:
        return rows

    ground = exact_ground_state(ham)
    angles = (-1.0 if flip_theta_sign else 1.0) * even_vacuum_angles(spec)

    fid = abs(np.vdot(ground, reconstruct_even_vacuum(angles)))
    rows.append(
        CheckRow(name, spec.sites, parameter, "state_fidelity", 1.0 - fid, FIDELITY_TOL, 1.0 - fid <= FIDELITY_TOL)
    )

    rng = rng or np.random.default_rng(1234)
    xis = rng.uniform(0.0, np.pi, size=OVERLAP_SAMPLES)
    blocks = rng.normal(size=(OVERLAP_SAMPLES, 4))
    blocks /= np.linalg.norm(blocks, axis=1, keepdims=True)
    site_states = [np.array([np.cos(xi / 2.0), np.sin(xi / 2.0)]) for xi in xis]
    for check, v, states in (("overlap_site", _product_vectors(0.5 * xis, 0.5 * xis), site_states),
                             ("overlap_block", blocks, blocks)):
        closed = np.exp(log_overlaps(angles, v, spec.sites))
        err = float(np.max(np.abs(closed - [direct_overlap(ground, state) for state in states])))
        rows.append(CheckRow(name, spec.sites, parameter, check, err, OVERLAP_TOL, err <= OVERLAP_TOL))
    return rows


def run_checks(
    sites: Iterable[int] = (8,),
    presets: Iterable[str] | None = None,
    points: int = 11,
    *,
    flip_theta_sign: bool = False,
) -> list[CheckRow]:
    """Run the equivalence suite over preset grids.

    ``flip_theta_sign`` deliberately corrupts the Bogoliubov angle sign in
    the fidelity and overlap legs; it exists as a negative control for the
    check harness itself.
    """
    names = list(presets) if presets is not None else list(CHECK_PRESETS)
    sites = list(sites)
    if points < 1:
        raise ValueError(f"points must be >= 1, got {points}")
    for n in sites:
        if n > MAX_DENSE_SITES:
            raise ValueError(
                f"oracle checks are capped at {MAX_DENSE_SITES} sites, got {n}"
            )
    grid = np.linspace(SPAN[0], SPAN[1], points)
    unknown = [name for name in names if name not in CHECK_PRESETS]
    if unknown:
        raise ValueError(f"unknown preset {unknown[0]!r}; choose from {sorted(CHECK_PRESETS)}")
    if len(set(names)) != len(names):
        raise ValueError(f"the presets list a name more than once: {names}")
    # every model is built, and so validated, before the first dense build
    cases = []
    for name in names:
        preset, parameter, fixed = CHECK_PRESETS[name]
        build = mdl.PRESETS[preset].build
        cases += [(name, build({**fixed, parameter: float(p)}, int(n)), float(p)) for n in sites for p in grid]
    rng = np.random.default_rng(97531)
    rows: list[CheckRow] = []
    for name, spec, p in cases:
        rows.extend(check_model(name, spec, p, flip_theta_sign=flip_theta_sign, rng=rng))
    return rows
