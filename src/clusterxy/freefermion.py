"""Free-fermion diagonalization of cluster-XY models.

The Jordan-Wigner image of a cluster-XY ring splits into two fermion-parity
sectors: b = 0 (periodic fermions, odd occupation) and b = 1/2 (antiperiodic
fermions, even occupation).  Within a sector every momentum k in 0..N-1
carries

    theta_arg = 2*pi*(k + b)*(1 + mediators)/N           per block
    beta_k    = sum_X J sin(theta_arg) - sum_Y J sin(theta_arg)
    alpha_k   = h - sum_blocks J cos(theta_arg)

and a quasiparticle energy eps_k = 2*sqrt(alpha^2 + beta^2).  Momentum k
pairs with N - k - 2b; a self-paired "special" momentum (k = 0 and, for
even N, k = N/2 in the odd sector; k = (N-1)/2 in the even sector for odd
N) is already diagonal, with eps_k = 2*alpha_k, which may be negative.  A
many-body level of the sector is the half-filled zero-point energy
-sum(eps)/2 plus eps_k for every occupied mode, subject to the sector's
occupation parity.

This module finds each sector's lowest levels with one heap over mode
flips, which reads only the energies eps_k and is the only place that
applies the parity rule: starting from every negative mode occupied, each
flip costs |eps_k| and the sector's parity fixes the size parity of the
flip set.  It reports the global ground energy, the gap, and the
Bogoliubov angles of the even-sector vacuum (the state whose
product-ansatz overlaps have closed forms), read from the dispersion.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import ModelSpec

#: Two sector levels are treated as degenerate when they differ by less than
#: this relative tolerance (scaled by max(1, |energy|)).
DEGENERACY_RTOL = 1e-10


class Sector(Enum):
    """Fermion-parity sector label."""

    ODD = "odd"    # b = 0: periodic fermions, odd occupation number
    EVEN = "even"  # b = 1/2: antiperiodic fermions, even occupation number

    @property
    def b(self) -> float:
        return 0.0 if self is Sector.ODD else 0.5

    @property
    def parity(self) -> str:
        """Required parity of the fermion occupation count."""
        return self.value


@dataclass(frozen=True)
class GroundReport:
    """Global ground energy, first excited energy, and their difference."""

    ground_energy: float
    first_excited: float
    gap: float
    ground_sector: Sector
    even_vacuum: bool

    @property
    def degenerate(self) -> bool:
        """True when the first excited level lies within the degeneracy
        tolerance of the ground level."""
        return self.gap < DEGENERACY_RTOL * max(1.0, abs(self.ground_energy))


def dispersion(spec: ModelSpec, mu) -> tuple[np.ndarray, np.ndarray]:
    """alpha(mu) = h - sum_blocks J cos((1 + m) mu) and beta(mu) = sum_X
    J sin((1 + m) mu) - sum_Y J sin((1 + m) mu) at momenta ``mu``,
    accumulated block by block."""
    mu = np.asarray(mu, dtype=float)
    alpha = np.full(mu.shape, spec.field)
    beta = np.zeros(mu.shape)
    for blk in spec.blocks:
        arg = mu * (1 + blk.mediators)
        alpha -= blk.strength * np.cos(arg)
        beta += (blk.strength if blk.kind.value == "x" else -blk.strength) * np.sin(arg)
    return alpha, beta


def _mode_energies(spec: ModelSpec, sector: Sector) -> np.ndarray:
    """Quasiparticle energies eps_k of one sector, k = 0 .. N-1.  They are
    evaluated on the canonical half (k <= partner) and copied to each
    partner, so paired modes are exactly equal; a special mode (its own
    partner) has eps = 2*alpha."""
    n = spec.sites
    ks = np.arange(n)
    partner = (n - ks - int(round(2 * sector.b))) % n
    canon = ks <= partner
    alpha, beta = dispersion(spec, (2.0 * np.pi / n) * (ks[canon] + sector.b))
    epsilon = np.empty(n)
    epsilon[canon] = np.where(
        partner[canon] == ks[canon], 2.0 * alpha, 2.0 * np.sqrt(alpha * alpha + beta * beta)
    )
    epsilon[~canon] = epsilon[partner[~canon]]
    return epsilon


def bogoliubov_angle(alpha, beta) -> np.ndarray:
    """Bogoliubov angle theta = atan2(beta, alpha)/2 of modes with
    coefficients (alpha, beta), in (-pi/2, pi/2]: sin(theta) carries
    sgn(beta) with sgn(0) = +1, and theta = 0 at alpha = beta = 0 (adding
    0.0 first turns a signed zero into +0.0).  It is accurate to an ulp
    also as beta -> 0, where theta -> 0 or +-pi/2 and gaps close."""
    return 0.5 * np.arctan2(np.asarray(beta) + 0.0, np.asarray(alpha) + 0.0)


def _sector_states_from_eps(
    epsilon: np.ndarray, parity: str, count: int
) -> list[tuple[float, np.ndarray]]:
    """The ``count`` lowest levels (with multiplicity) of one sector.

    Every level is reached from the unconstrained minimum (every negative
    mode occupied) by a set of mode flips, each costing |eps|; the sector's
    parity fixes the size parity of that set.  So the search enumerates
    subsets of non-negative costs in ascending sum order with a subset-size
    parity constraint, done here with the standard extend/replace heap.

    Only the ``count + 1`` cheapest flips (in stable cost order) enter the
    heap, so it does O(count) work however flat the band is.  This is exact.
    The first ``count`` flips already hold ``count`` subsets of the needed
    size parity: the ``count`` singletons when it is odd; the empty set and
    the ``count - 1`` pairs that contain flip 0 when it is even.  A subset
    holding a later flip costs at least as much as each of them, and on an
    equal sum the heap's ``(sum, last position, ...)`` order pops the smaller
    last position first.  An ancestor in the heap tree has a sum no larger
    and a strictly smaller last position, so it pops first too.  Every
    ancestor of a subset of the kept flips is itself such a subset, since a
    step only extends or moves the last position up.  So the truncated heap
    pops the same subsets as a heap over all N flips, in the same order and
    with sums formed by the same additions, until it holds ``count`` levels.
    """
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    if count < 1:
        raise ValueError("count must be >= 1")
    n = epsilon.size
    if count > 2 ** (n - 1):
        raise ValueError(f"count={count} exceeds the sector dimension 2^{n - 1}")

    occ0 = epsilon < 0.0
    base = -0.5 * float(epsilon.sum()) + float(epsilon[occ0].sum())
    # 1 when the negative modes alone have the wrong count parity
    need_parity = int(int(occ0.sum()) % 2 != (parity == "odd"))

    costs = np.abs(epsilon)
    # the stable cost order of the flips at or below the (count + 1)-th
    # smallest cost, ties included, begins with the count + 1 cheapest
    kth = min(count, n - 1)
    cheap = np.flatnonzero(costs <= np.partition(costs, kth)[kth])
    order = cheap[np.argsort(costs[cheap], kind="stable")][: count + 1]
    c = costs[order]

    out: list[tuple[float, np.ndarray]] = []

    def emit(total: float, positions: tuple[int, ...]) -> None:
        occ = occ0.copy()
        flips = order[list(positions)]
        occ[flips] = ~occ[flips]
        out.append((total, occ))

    # heap entries: (partial sum, last position, subset size parity, positions)
    if need_parity == 0:
        emit(base, ())
    heap: list[tuple[float, int, int, tuple[int, ...]]] = [(float(c[0]), 0, 1, (0,))]
    while len(out) < count:
        s, i, p, positions = heapq.heappop(heap)
        if p == need_parity:
            emit(base + s, positions)
        if i + 1 < c.size:
            heapq.heappush(heap, (s + float(c[i + 1]), i + 1, p ^ 1, positions + (i + 1,)))
            heapq.heappush(
                heap,
                (s - float(c[i]) + float(c[i + 1]), i + 1, p, positions[:-1] + (i + 1,)),
            )
    return out


def sector_states(
    spec: ModelSpec, sector: Sector, count: int
) -> list[tuple[float, frozenset[int]]]:
    """The ``count`` lowest many-body levels of a sector, ascending, each
    with its occupied momentum set."""
    states = _sector_states_from_eps(_mode_energies(spec, sector), sector.parity, count)
    return [
        (energy, frozenset(int(k) for k in np.flatnonzero(occ))) for energy, occ in states
    ]


def sector_levels(spec: ModelSpec, sector: Sector, count: int) -> list[float]:
    """The ``count`` lowest many-body energies of a sector, ascending."""
    return [energy for energy, _ in sector_states(spec, sector, count)]


def ground_and_gap(spec: ModelSpec) -> GroundReport:
    """Global ground energy, first excited energy, and gap.

    Merges the two lowest levels of each sector; the first excited state is
    always among those four.  ``even_vacuum`` is true when the even-sector
    vacuum attains the ground energy (within the degeneracy tolerance), the
    case in which the closed-form entanglement overlaps apply.
    """
    odd = sector_states(spec, Sector.ODD, 2)
    even = sector_states(spec, Sector.EVEN, 2)
    merged = sorted(
        [(e, Sector.ODD) for e, _ in odd] + [(e, Sector.EVEN) for e, _ in even],
        key=lambda item: item[0],
    )
    ground = merged[0][0]
    first_excited = merged[1][0]
    tol = DEGENERACY_RTOL * max(1.0, abs(ground))
    even_e, even_occ = even[0]
    return GroundReport(
        ground_energy=ground,
        first_excited=first_excited,
        gap=first_excited - ground,
        ground_sector=Sector.EVEN if even_e <= odd[0][0] else Sector.ODD,
        even_vacuum=(len(even_occ) == 0 and even_e <= ground + tol),
    )


def even_vacuum_angles(spec: ModelSpec) -> np.ndarray:
    """Bogoliubov angles theta_k = theta(2 pi (k + 1/2)/N), k = 0 .. N/2 - 1,
    of the even-sector vacuum (the lower half of each (k, N-k-1) pair), read
    from the dispersion; requires even N."""
    n = spec.sites
    if n % 2 != 0:
        raise ValueError("even-sector vacuum angles require an even number of sites")
    return bogoliubov_angle(*dispersion(spec, (2.0 * np.pi / n) * (np.arange(n // 2) + 0.5)))
