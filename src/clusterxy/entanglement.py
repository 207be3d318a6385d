"""Geometric entanglement of the even-sector vacuum.

The vacuum of the antiperiodic (even) sector is a paired state
prod_k [cos(theta_k) + i sin(theta_k) c+_k c+_{N-k-1}] |0>.  Its overlap
with a uniform two-site-block product state v = (a, b, c, d) is a product
of quadratic forms v.M_k.v over momentum pairs, times a linear factor q.v
when N/2 is odd.  One evaluator on these block forms serves three nested
translation-invariant ansatze, site <= period-2 <= block:

* one single-site state s on every site: v = s x s, s = (cos xi/2, sin xi/2);
* a period-2 product, independent states on the two sites of each block
  (appropriate for antiferromagnetic order): v = a x b;
* one two-site state on every block of two: any unit v.

Maximizing the squared overlap gives the geometric entanglement
E = -log2(Lambda_max^2) and its per-site density E/N.  The site search is
a dense xi grid plus golden-section refinement; the period-2 and block
searches are multi-start gradient ascents.  A thermodynamic-limit version
of the per-block density is evaluated by quadrature over the continuous
Bogoliubov angle.

The three finite-N maximizers accept a model or its ``EvenVacuumAnalysis``;
passing one analysis to several of them solves the ground state and the
vacuum angles once and reuses the site and period-2 optima that seed the
block search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize

from .model import ModelSpec
from .freefermion import bogoliubov_angle, dispersion, even_vacuum_angles, ground_and_gap

_LN2 = math.log(2.0)
_TINY = 1e-280
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: Site-angle optimization: dense-grid resolution and refinement tolerance.
SITE_GRID_POINTS = 257
SITE_XI_TOL = 1e-10

#: Sphere optimization: number of multi-start seeds for the block problem.
BLOCK_STARTS = 32

#: Period-2 optimization: coarse (t1, t2) grid size and the number of its
#: best cells refined by gradient ascent.
AF_GRID_POINTS = 48
AF_GRID_STARTS = 8

_LBFGS_OPTIONS = {"maxiter": 500, "ftol": 1e-15, "gtol": 1e-12}

#: Fixed-order quadrature nodes used inside the thermodynamic maximization;
#: the value at the optimum is re-evaluated with adaptive quadrature.
THERMO_NODES = 400
THERMO_QUAD_TOL = 1e-9


class EvenVacuumError(ValueError):
    """The global ground state is not the even-sector vacuum, so the
    closed-form overlaps do not describe it."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge to the requested tolerance."""


@dataclass(frozen=True)
class SiteAnsatz:
    """Single-site state cos(xi/2)|up> + sin(xi/2)|down>, identical on
    every site."""

    xi: float

    def __post_init__(self):
        if not 0.0 <= self.xi <= math.pi:
            raise ValueError(f"xi must lie in [0, pi], got {self.xi}")

    @property
    def amplitudes(self) -> np.ndarray:
        return np.array([math.cos(self.xi / 2.0), math.sin(self.xi / 2.0)])


@dataclass(frozen=True)
class BlockAnsatz:
    """Normalized two-site state a|uu> + b|ud> + c|du> + d|dd>, identical
    on every block of two sites."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        norm2 = self.a**2 + self.b**2 + self.c**2 + self.d**2
        if abs(norm2 - 1.0) > 1e-12:
            raise ValueError(f"block amplitudes must be normalized, |v|^2 = {norm2}")

    @property
    def amplitudes(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c, self.d])


@dataclass(frozen=True)
class EntanglementResult:
    """Maximal overlap, total entanglement, per-site density, and the
    maximizing ansatz; ``ground_degenerate`` marks results computed for a
    degenerate ground level's even-vacuum representative."""

    lambda_max: float
    eg_total: float
    density: float
    optimum: object
    mode: str
    ground_degenerate: bool = False


# --- overlaps on the block forms ---------------------------------------------

def pair_forms(t1, t2, mu) -> np.ndarray:
    """Overlap factors of the two-site-block ansatz as quadratic forms.

    Entry k is the 4x4 form M_k whose value v.M_k.v, for the amplitude
    vector v = (a, b, c, d), is the overlap factor of the momentum pair
    (mu_k, pi - mu_k) with Bogoliubov angles t1 = theta(mu_k) and
    t2 = theta(pi - mu_k).
    """
    # sin(t1 -+ t2) expanded: the unexpanded form rounds differently and
    # moves the last digits of the finite-N maximizers' results
    a_cross = np.sin(t1) * np.cos(t2)
    b_cross = np.cos(t1) * np.sin(t2)
    cot = 1.0 / np.tan(mu)

    m = np.zeros((mu.size, 4, 4))
    m[:, 0, 0] = np.cos(t1) * np.cos(t2)
    m[:, 3, 3] = np.sin(t1) * np.sin(t2)
    m[:, 1, 1] = m[:, 2, 2] = 0.5 * (a_cross - b_cross) * cot
    m[:, 1, 2] = m[:, 2, 1] = 0.5 * (a_cross + b_cross) * cot * np.cos(mu)
    m[:, 0, 3] = m[:, 3, 0] = 0.5 * (a_cross + b_cross) * np.sin(mu)
    return m


def _block_forms(angles, sites: int) -> tuple[np.ndarray, np.ndarray | None]:
    """The pair forms of an N-site ring, sampled at mu_k = 2 pi (k + 1/2)/N.

    Returns (M, q): factor k of the overlap is v.M[k].v, and the leftover
    unpaired factor (present when N/2 is odd) is q.v.
    """
    if sites % 2 != 0:
        raise ValueError("block overlap requires an even number of sites")
    half = sites // 2
    angles = np.asarray(angles, dtype=float)
    if angles.shape[0] < half:
        raise ValueError(f"need {half} vacuum angles, got {angles.shape[0]}")
    n_pair = sites // 4 if sites % 4 == 0 else (sites - 2) // 4

    ks = np.arange(n_pair)
    m = pair_forms(angles[ks], angles[half - 1 - ks], 2.0 * np.pi * (ks + 0.5) / sites)

    q = None
    if sites % 4 != 0:
        mid = (half - 1) // 2
        q = np.array([math.cos(angles[mid]), 0.0, 0.0, math.sin(angles[mid])])
    return m, q


def _block_amplitudes(ansatz) -> np.ndarray:
    amps = getattr(ansatz, "amplitudes", None)
    amps = np.asarray(amps if amps is not None else ansatz, dtype=float)
    if amps.shape != (4,):
        raise ValueError("block ansatz needs 4 real amplitudes")
    return amps


def overlap_block(angles, ansatz, sites: int) -> float:
    """Overlap of the even vacuum with the uniform two-site-block product
    state, evaluated factor by factor (times the unpaired factor when N/2
    is odd)."""
    v = _block_amplitudes(ansatz)
    m, q = _block_forms(angles, sites)
    factors = np.einsum("kij,i,j->k", m, v, v)
    total = float(np.prod(factors)) if factors.size else 1.0
    if q is not None:
        total *= float(q @ v)
    return total


def overlap_site(angles, xi: float, sites: int) -> float:
    """Overlap of the even vacuum with the uniform single-site product state
    (cos(xi/2), sin(xi/2)) on every site: the block overlap at s x s."""
    return overlap_block(angles, _product_vectors(0.5 * xi, 0.5 * xi), sites)


def _product_vectors(t1, t2) -> np.ndarray:
    """(cos t1, sin t1) x (cos t2, sin t2) as block amplitudes (a, b, c, d),
    with the shape of t1 and t2 plus a trailing axis of 4."""
    a = np.array([np.cos(t1), np.sin(t1)])
    b = np.array([np.cos(t2), np.sin(t2)])
    return np.einsum("i...,j...->...ij", a, b).reshape(a.shape[1:] + (4,))


def _log_overlaps(vecs, m, q, weights) -> np.ndarray:
    """sum_k w_k log|v.M_k.v| (+ log|q.v|) for every v along the last axis
    of ``vecs``; a factor below _TINY in magnitude counts as _TINY, the rule
    ``_forms_value_grad`` applies too."""
    factors = np.einsum("...ij,kij->...k", np.einsum("...i,...j->...ij", vecs, vecs), m)
    vals = np.sum(weights * np.log(np.maximum(np.abs(factors), _TINY)), axis=-1)
    if q is not None:
        vals = vals + np.log(np.maximum(np.abs(vecs @ q), _TINY))
    return vals


# --- generic sphere maximization over products of quadratic forms ------------

def _forms_value_grad(v, m, q, weights):
    """log of the weighted product of |u.M_k.u| factors at u = v/|v|, with
    the gradient mapped back to v; the optional linear factor q.u enters
    with unit weight.  The objective is scale-invariant, so the gradient is
    purely tangential."""
    norm = np.linalg.norm(v)
    if not np.isfinite(norm) or norm < 1e-150:
        return -1e100, np.zeros_like(v)
    u = v / norm
    mu = m @ u
    d = np.einsum("ki,i->k", mu, u)
    safe = np.where(np.abs(d) < _TINY, np.where(d >= 0.0, _TINY, -_TINY), d)
    val = float(np.sum(weights * np.log(np.abs(safe))))
    grad_u = 2.0 * (weights[:, None] * mu / safe[:, None]).sum(axis=0)
    if q is not None:
        qu = float(q @ u)
        safe_qu = qu if abs(qu) > _TINY else _TINY
        val += math.log(abs(safe_qu))
        grad_u = grad_u + q / safe_qu
    grad_v = (grad_u - float(grad_u @ u) * u) / norm
    return val, grad_v


def _maximize_on_sphere(m, q, weights, starts):
    """Multi-start gradient ascent of the log-product objective over the
    amplitude sphere; returns (best log value, best unit vector)."""

    def negative(v):
        val, grad = _forms_value_grad(v, m, q, weights)
        return -val, -grad

    def clamped(x):
        factors = np.einsum("kij,i,j->k", m, x, x)
        if np.any(np.abs(factors) < 1e-100):
            return True
        return q is not None and abs(float(q @ x)) < 1e-100

    best_val, best_v = -np.inf, None
    for x0 in starts:
        x0 = np.asarray(x0, dtype=float)
        x0 = x0 / np.linalg.norm(x0)
        if clamped(x0):
            # a vanishing factor kills the clamped gradient; nudge off it
            x0 = x0 + 0.05
            x0 = x0 / np.linalg.norm(x0)
        res = minimize(negative, x0, jac=True, method="L-BFGS-B", options=_LBFGS_OPTIONS)
        if -res.fun > best_val:
            best_val, best_v = -res.fun, res.x
    return best_val, _canonical_sign(best_v / np.linalg.norm(best_v))


def _canonical_sign(v: np.ndarray) -> np.ndarray:
    """``v`` or ``-v``, whichever has its first non-negligible entry positive."""
    for comp in v:
        if abs(comp) > 1e-12:
            return -v if comp < 0.0 else v
    return v


def _block_starts(embedded: list[np.ndarray]) -> list[np.ndarray]:
    eye = np.eye(4)
    starts = [eye[i] for i in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            starts.append((eye[i] + eye[j]) / math.sqrt(2.0))
            starts.append((eye[i] - eye[j]) / math.sqrt(2.0))
    starts.extend(embedded)
    rng = np.random.default_rng(174613)
    while len(starts) < BLOCK_STARTS:
        starts.append(rng.normal(size=4))
    return starts


# --- site-angle and period-2 maximization ---------------------------------------

def _golden_max(fun, lo, hi, tol):
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = fun(c), fun(d)
    while (hi - lo) > tol:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = fun(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = fun(d)
    mid = 0.5 * (lo + hi)
    return mid, fun(mid)


def _af_grid_starts(m, q, weights) -> list[np.ndarray]:
    """The AF_GRID_STARTS best cells of a coarse, vectorized (t1, t2) scan
    of the period-2 objective, best first."""
    grid = np.linspace(0.0, math.pi, AF_GRID_POINTS, endpoint=False)
    tt1, tt2 = np.meshgrid(grid, grid, indexing="ij")
    vals = _log_overlaps(_product_vectors(tt1, tt2), m, q, weights).ravel()
    order = np.argsort(vals)[::-1][:AF_GRID_STARTS]
    return [np.array([tt1.ravel()[i], tt2.ravel()[i]]) for i in order]


def _af_value_grad(t, m, q, weights):
    """The period-2 objective at t = (t1, t2), the log-overlap at the block
    v = a x b with a = (cos t1, sin t1) and b = (cos t2, sin t2), and its
    gradient in t.  With G the 2x2 reshape of the gradient in v, the chain
    rule through the tensor product gives d/da = G b and d/db = G^T a."""
    a = np.array([math.cos(t[0]), math.sin(t[0])])
    b = np.array([math.cos(t[1]), math.sin(t[1])])
    val, grad_v = _forms_value_grad(_product_vectors(t[0], t[1]), m, q, weights)
    g = grad_v.reshape(2, 2)
    grad_a, grad_b = g @ b, a @ g
    # da/dt1 = (-sin t1, cos t1) = (-a[1], a[0]), and likewise for b
    return val, np.array([a[0] * grad_a[1] - a[1] * grad_a[0], b[0] * grad_b[1] - b[1] * grad_b[0]])


def _maximize_af(m, q, weights, starts, best_val=-np.inf, best_t=None):
    """Gradient ascent of the period-2 objective from each start.  Returns
    the best (log value, t), which stays (best_val, best_t) unless a start
    beats it strictly."""

    def negative(t):
        val, grad = _af_value_grad(t, m, q, weights)
        return -val, -grad

    for t0 in starts:
        res = minimize(negative, t0, jac=True, method="L-BFGS-B", options=_LBFGS_OPTIONS)
        if -res.fun > best_val:
            best_val, best_t = -res.fun, res.x
    return best_val, best_t


# --- one analysis per model ---------------------------------------------------

class EvenVacuumAnalysis:
    """What the finite-N maximizers share for one model: the ground report,
    and, on first use, the even-vacuum angles, the block forms, the site
    optimum and the period-2 optimum over the grid starts.

    Construction solves the ground state and raises ValueError for an odd
    number of sites; reading anything built on the vacuum angles raises
    EvenVacuumError when the ground state is not the even-sector vacuum.
    """

    def __init__(self, spec: ModelSpec):
        if spec.sites % 2 != 0:
            raise ValueError("entanglement formulas require an even number of sites")
        self.spec = spec
        self.sites = spec.sites
        self.report = ground_and_gap(spec)

    @cached_property
    def angles(self) -> np.ndarray:
        """Bogoliubov angles of the even-sector vacuum."""
        if not self.report.even_vacuum:
            raise EvenVacuumError(
                "ground state is not the even-sector vacuum "
                f"(ground sector {self.report.ground_sector.value}); the closed-form "
                "overlaps do not apply"
            )
        return even_vacuum_angles(self.spec)

    @cached_property
    def forms(self) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
        """(M, q, weights): the block overlap as quadratic forms (see
        ``_block_forms``) with unit weights."""
        m, q = _block_forms(self.angles, self.sites)
        return m, q, np.ones(m.shape[0])

    @cached_property
    def site_optimum(self) -> tuple[float, float, float, float]:
        """(xi, log Lambda) after golden-section refinement around the best
        cell of a dense xi grid, followed by (xi, log Lambda) of that cell."""
        m, q, weights = self.forms

        def logf(xi):
            return _log_overlaps(_product_vectors(0.5 * xi, 0.5 * xi), m, q, weights)

        grid = np.linspace(0.0, math.pi, SITE_GRID_POINTS)
        values = logf(grid)
        best = int(np.argmax(values))
        xi, log_lambda = _golden_max(
            lambda x: float(logf(x)),
            grid[max(best - 1, 0)],
            grid[min(best + 1, SITE_GRID_POINTS - 1)],
            SITE_XI_TOL,
        )
        return xi, log_lambda, grid[best], float(values[best])

    @cached_property
    def af_optimum(self) -> tuple[float, np.ndarray]:
        """(log Lambda, (t1, t2)) of the period-2 family, ascended from the
        grid starts only."""
        m, q, weights = self.forms
        return _maximize_af(m, q, weights, _af_grid_starts(m, q, weights))

    def result(self, log_lambda: float, optimum, mode: str) -> EntanglementResult:
        eg_total = -2.0 * log_lambda / _LN2
        if abs(eg_total) < 1e-14:
            eg_total = abs(eg_total)
        return EntanglementResult(
            lambda_max=math.exp(log_lambda),
            eg_total=eg_total,
            density=eg_total / self.sites,
            optimum=optimum,
            mode=mode,
            ground_degenerate=self.report.degenerate,
        )


def _analysis(target) -> EvenVacuumAnalysis:
    return target if isinstance(target, EvenVacuumAnalysis) else EvenVacuumAnalysis(target)


def maximize_site(spec: ModelSpec | EvenVacuumAnalysis) -> EntanglementResult:
    """Geometric entanglement against uniform single-site product states:
    dense xi grid followed by golden-section refinement."""
    analysis = _analysis(spec)
    xi, log_lambda, grid_xi, grid_log_lambda = analysis.site_optimum
    if grid_log_lambda > log_lambda:
        xi, log_lambda = grid_xi, grid_log_lambda
    return analysis.result(log_lambda, SiteAnsatz(float(xi)), "per_site")


def maximize_block(spec: ModelSpec | EvenVacuumAnalysis) -> EntanglementResult:
    """Geometric entanglement against uniform two-site-block product states:
    multi-start ascent over the amplitude 3-sphere, seeded with coordinate
    vertices, random points, and the embedded single-site and period-2
    optima."""
    analysis = _analysis(spec)
    m, q, weights = analysis.forms
    xi = analysis.site_optimum[0]
    af_t = analysis.af_optimum[1]
    starts = _block_starts([_product_vectors(0.5 * xi, 0.5 * xi), _product_vectors(*af_t)])
    log_lambda, v = _maximize_on_sphere(m, q, weights, starts)
    return analysis.result(log_lambda, BlockAnsatz(*(float(x) for x in v)), "per_block")


def maximize_site_af(spec: ModelSpec | EvenVacuumAnalysis) -> EntanglementResult:
    """Per-site geometric entanglement against period-2 product states
    (independent states on the two sites of each block), the family that
    stays faithful for antiferromagnetic order.  The grid-start optimum is
    compared with one more ascent from the embedded site optimum."""
    analysis = _analysis(spec)
    m, q, weights = analysis.forms
    xi = analysis.site_optimum[0]
    log_lambda, t = _maximize_af(
        m, q, weights, [np.array([xi / 2.0, xi / 2.0])], *analysis.af_optimum
    )
    v = _canonical_sign(_product_vectors(*t))
    return analysis.result(log_lambda, BlockAnsatz(*(float(x) for x in v)), "per_site_af")


# --- thermodynamic limit ------------------------------------------------------

def theta_function(spec: ModelSpec):
    """Continuous-momentum Bogoliubov angle mu -> theta(mu) of a model,
    defined by its blocks and field (system size drops out)."""
    def theta(mu):
        out = bogoliubov_angle(*dispersion(spec, mu))
        return out if out.shape else float(out)

    return theta


def _thermo_integrand(theta_of_mu, v):
    def integrand(mu):
        mu_arr = np.atleast_1d(np.asarray(mu, dtype=float))
        m = pair_forms(theta_of_mu(mu_arr), theta_of_mu(np.pi - mu_arr), mu_arr)
        vals = np.einsum("kij,i,j->k", m, v, v)
        out = np.log(np.maximum(np.abs(vals), _TINY))
        return float(out[0]) if np.isscalar(mu) or np.asarray(mu).shape == () else out

    return integrand


@cache
def _thermo_rule() -> tuple[np.ndarray, np.ndarray]:
    """The THERMO_NODES-point Gauss-Legendre rule on (0, pi/2) after the
    substitution mu = (pi/2) u^2, as read-only (nodes, weights); built once
    per process, on first use."""
    nodes, gl_weights = np.polynomial.legendre.leggauss(THERMO_NODES)
    u = 0.5 * (nodes + 1.0)
    du = 0.5 * gl_weights
    mu = 0.5 * math.pi * u * u
    weights = du * math.pi * u  # d(mu) = pi * u * du
    mu.flags.writeable = False
    weights.flags.writeable = False
    return mu, weights


def thermo_block_density(theta_of_mu, quad_tol: float = THERMO_QUAD_TOL) -> float:
    """Thermodynamic-limit per-site density of the two-site-block
    entanglement: -1/pi times the integral of log2 of the overlap factor
    over mu in (0, pi/2), maximized over the block amplitudes.

    The maximization runs on fixed high-order quadrature nodes (with a
    square-root substitution absorbing the logarithmic endpoint
    singularity); the integral at the optimum is then re-evaluated by
    adaptive quadrature to ``quad_tol`` and a QuadratureError is raised if
    that fails to converge.
    """
    mu, weights = _thermo_rule()
    m = pair_forms(theta_of_mu(mu), theta_of_mu(np.pi - mu), mu)
    log_integral, v = _maximize_on_sphere(m, None, weights, _block_starts([]))

    integrand = _thermo_integrand(theta_of_mu, v)
    value, abserr, info = quad(
        integrand, 0.0, 0.5 * math.pi, epsabs=quad_tol, epsrel=0.0, limit=400, full_output=True
    )[:3]
    if abserr > 100.0 * max(quad_tol, abs(value) * 1e-12):
        raise QuadratureError(
            f"integral did not converge (estimate {value}, error {abserr})"
        )
    # sanity guard: the adaptive value must agree with the node sum used
    # during optimization
    if abs(value - log_integral) > 1e-6 * max(1.0, abs(value)):
        raise QuadratureError(
            "fixed-node and adaptive quadrature disagree "
            f"({log_integral} vs {value}); integrand may be singular"
        )
    return -value / (math.pi * _LN2)


# --- scan utilities -----------------------------------------------------------

def scan_derivative(xs, ys) -> np.ndarray:
    """Finite-difference derivative on a uniform grid of at least 3 strictly
    increasing points: central differences in the interior, one-sided at
    the ends."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape:
        raise ValueError("xs and ys must be 1-D arrays of equal length")
    if xs.size < 3:
        raise ValueError("need at least 3 points")
    steps = np.diff(xs)
    if np.any(steps <= 0.0):
        raise ValueError("xs must be strictly increasing")
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12 * max(1.0, abs(xs[-1] - xs[0]))):
        raise ValueError("non-uniform grid")
    return np.gradient(ys, steps[0])
