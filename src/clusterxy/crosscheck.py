"""Oracle-equivalence suite: runs the analytic solver and the dense
brute-force solver side by side on every preset family and reports
per-point pass/fail rows for energies, gaps, state fidelity, and the
closed-form overlap formulas."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import model as mdl
from .freefermion import ground_and_gap, even_vacuum_angles
from .entanglement import overlap_site, overlap_block
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
    include_state: bool = True,
    flip_theta_sign: bool = False,
    rng: np.random.Generator | None = None,
) -> list[CheckRow]:
    """Compare the analytic solution of one model against dense exact
    diagonalization; returns one row per comparison.  ``include_state``
    adds the state fidelity and the closed-form overlap rows to the energy
    and gap rows."""
    rows: list[CheckRow] = []
    report = ground_and_gap(spec)
    ham = model_hamiltonian(spec)
    exact = exact_spectrum(ham, 2)

    energy_err = abs(report.ground_energy - exact[0])
    gap_err = abs(report.gap - (exact[1] - exact[0]))
    rows.append(CheckRow(name, spec.sites, parameter, "energy", energy_err, ENERGY_TOL, energy_err <= ENERGY_TOL))
    rows.append(CheckRow(name, spec.sites, parameter, "gap", gap_err, ENERGY_TOL, gap_err <= ENERGY_TOL))

    eligible = (
        include_state
        and spec.sites % 2 == 0
        and report.even_vacuum
        and not report.degenerate
    )
    if not eligible:
        return rows

    ground = exact_ground_state(ham)
    sign = -1.0 if flip_theta_sign else 1.0

    recon = reconstruct_even_vacuum(spec, angle_sign=sign)
    fid = abs(np.vdot(ground, recon))
    rows.append(
        CheckRow(name, spec.sites, parameter, "state_fidelity", 1.0 - fid, FIDELITY_TOL, 1.0 - fid <= FIDELITY_TOL)
    )

    rng = rng or np.random.default_rng(1234)
    angles = sign * even_vacuum_angles(spec)
    err_site = 0.0
    for xi in rng.uniform(0.0, np.pi, size=OVERLAP_SAMPLES):
        closed = abs(overlap_site(angles, float(xi), spec.sites))
        amp = np.array([np.cos(xi / 2.0), np.sin(xi / 2.0)])
        err_site = max(err_site, abs(closed - direct_overlap(ground, amp)))
    rows.append(
        CheckRow(name, spec.sites, parameter, "overlap_site", err_site, OVERLAP_TOL, err_site <= OVERLAP_TOL)
    )
    err_block = 0.0
    blocks = rng.normal(size=(OVERLAP_SAMPLES, 4))
    for amps in blocks / np.linalg.norm(blocks, axis=1, keepdims=True):
        closed = abs(overlap_block(angles, amps, spec.sites))
        err_block = max(err_block, abs(closed - direct_overlap(ground, amps)))
    rows.append(
        CheckRow(name, spec.sites, parameter, "overlap_block", err_block, OVERLAP_TOL, err_block <= OVERLAP_TOL)
    )
    return rows


def run_checks(
    sites: Iterable[int] = (8,),
    presets: Iterable[str] | None = None,
    points: int = 11,
    *,
    include_state: bool = True,
    flip_theta_sign: bool = False,
) -> list[CheckRow]:
    """Run the equivalence suite over preset grids.

    ``flip_theta_sign`` deliberately corrupts the Bogoliubov angle sign in
    the fidelity and overlap legs; it exists as a negative control for the
    check harness itself.
    """
    names = list(presets) if presets is not None else list(CHECK_PRESETS)
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
    # every model is built, and so validated, before the first dense build
    cases = []
    for name in names:
        preset, parameter, fixed = CHECK_PRESETS[name]
        build = mdl.PRESETS[preset].build
        cases += [(name, build({**fixed, parameter: float(p)}, int(n)), float(p)) for n in sites for p in grid]
    rng = np.random.default_rng(97531)
    rows: list[CheckRow] = []
    for name, spec, p in cases:
        rows.extend(
            check_model(
                name, spec, p, include_state=include_state, flip_theta_sign=flip_theta_sign, rng=rng
            )
        )
    return rows
