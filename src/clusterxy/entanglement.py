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
E = -log2(Lambda_max^2) and its per-site density E/N.  One evaluator,
``_log_overlaps``, gives the log-overlap with its gradient and Hessian.
The site search is a dense xi grid plus golden-section refinement; the
period-2 and block searches run through one ascent, ``_ascend``: a
trust-region Newton ascent of all starts as one array, then one L-BFGS-B
polish of the winner.  The thermodynamic-limit per-block density
integrates the same evaluator over the continuous Bogoliubov angle, and
maximizes it with the block search.

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
_TINY = 1e-120
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

#: Batched Newton ascent (``_ascend``): the first and the largest trust
#: radius, and the iteration cap.
NEWTON_RADIUS, NEWTON_MAX_RADIUS, NEWTON_MAXITER = 0.5, 1.0, 200

#: The one L-BFGS-B polish from the winning start.
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


def _log_overlaps(v, m, q, weights, order=0):
    """sum_k w_k log|f_k| (+ log|q.v|), f_k = v.M_k.v, for every v along the
    last axis of ``v``; a factor below _TINY in magnitude counts as _TINY.
    With ``order`` 1 or 2 (and ``v`` of shape (S, 4)) returns (value,
    gradient, Hessian or None): g = 2 sum_k w_k M_k v / f_k (+ q / q.v) and
    H = 2 sum_k w_k [M_k / f_k - 2 (M_k v)(M_k v)^T / f_k^2] (- q q^T / (q.v)^2)."""
    rows = v.reshape(-1, 4)
    f = (rows[:, :, None] * rows[:, None, :]).reshape(-1, 16) @ m.reshape(-1, 16).T
    f = np.where(np.abs(f) < _TINY, _TINY, f)
    val = np.log(np.abs(f)) @ weights
    if q is not None:
        qv = rows @ q
        qv = np.where(np.abs(qv) < _TINY, _TINY, qv)
        val = val + np.log(np.abs(qv))
    if order == 0:
        return val.reshape(v.shape[:-1])
    mv = (v @ m.reshape(-1, 4).T).reshape(len(v), -1, 4)
    c = weights / f
    grad, hess = 2.0 * (c[:, None, :] @ mv)[:, 0], None
    if order == 2:
        hess = 2.0 * (c @ m.reshape(-1, 16)).reshape(-1, 4, 4)
        hess -= 4.0 * (mv * (c / f)[..., None]).swapaxes(1, 2) @ mv
    if q is not None:
        grad = grad + q / qv[:, None]
        if order == 2:
            hess -= np.outer(q, q) / (qv * qv)[:, None, None]
    return val, grad, hess


# --- one batched ascent over products of quadratic forms ----------------------

def _sphere(m, q, weights):
    """(derivs, retract) over the amplitude sphere: ``derivs(x, order)``
    gives, at u = x/|x|, the value, the Riemannian gradient P g / |x| (a
    polish from an unnormalized x sees the scale-invariant gradient) and, at
    order 2, the Riemannian Hessian P H P - (u.g) P, with P = I - u u^T."""

    def derivs(x, order):
        norm = np.linalg.norm(x, axis=1, keepdims=True)
        u = x / norm
        val, g, h = _log_overlaps(u, m, q, weights, order)
        ug = np.sum(u * g, axis=1)[:, None]
        p = np.eye(4) - u[:, :, None] * u[:, None, :]
        return val, (g - ug * u) / norm, None if order == 1 else p @ h @ p - ug[..., None] * p

    return derivs, lambda x, step: (x + step) / np.linalg.norm(x + step, axis=1, keepdims=True)


def _torus(m, q, weights):
    """(derivs, retract) of the period-2 objective in t = (t1, t2), the
    log-overlap at v = a x b with a = (cos t1, sin t1), b = (cos t2, sin t2).
    With J = [a' x b, a x b'] the gradient is J^T g; the Hessian is J^T H J
    plus -g.v on the diagonal (a'' = -a, b'' = -b) and g.(a' x b') off it."""

    def derivs(t, order):
        a, b = (np.stack([np.cos(t[:, i]), np.sin(t[:, i])], axis=1) for i in (0, 1))
        da, db = a[:, ::-1] * (-1.0, 1.0), b[:, ::-1] * (-1.0, 1.0)
        v, v_a, v_b, v_ab = (_kron(x, y) for x, y in ((a, b), (da, b), (a, db), (da, db)))
        val, g, h = _log_overlaps(v, m, q, weights, order)
        jac = np.stack([v_a, v_b], axis=2)
        hess = None
        if order == 2:
            hess = jac.swapaxes(1, 2) @ h @ jac - np.sum(g * v, axis=1)[:, None, None] * np.eye(2)
            hess += np.sum(g * v_ab, axis=1)[:, None, None] * (1.0 - np.eye(2))
        return val, (g[:, None, :] @ jac)[:, 0], hess

    return derivs, lambda t, step: t + step


def _kron(x, y):
    return (x[:, :, None] * y[:, None, :]).reshape(-1, 4)


def _ascend(problem, starts, best_val=-np.inf, best_x=None):
    """Trust-region Newton ascent of ``problem`` = (derivs, retract) from
    every row of ``starts`` at once, then one L-BFGS-B polish from the best
    row.  Steps are saddle-free (the gradient over |eigenvalue| of the
    Hessian, floored at 1e-12 of the largest) and cut to each start's trust
    radius; a step that lowers the value is refused.  A start retires when
    its gradient is below 1e-8 max(1, |value|), a kept step gains at most
    1e-15 relative, or its radius falls below 1e-12.  Returns the best
    (value, x), which stays (best_val, best_x) unless the ascent beats it
    strictly."""
    derivs, retract = problem
    x = np.array(starts, dtype=float)
    val, grad, hess = derivs(x, 2)
    radius = np.full(len(x), NEWTON_RADIUS)
    active = np.ones(len(x), dtype=bool)
    for _ in range(NEWTON_MAXITER):
        active &= np.linalg.norm(grad, axis=1) > 1e-8 * np.maximum(1.0, np.abs(val))
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        lam, vec = np.linalg.eigh(hess[rows])
        mag = np.abs(lam)
        mag = np.maximum(mag, 1e-12 * mag.max(axis=1, keepdims=True) + _TINY)
        steps = (vec @ ((grad[rows, None, :] @ vec) / mag[:, None, :]).swapaxes(1, 2))[..., 0]
        lengths = np.linalg.norm(steps, axis=1)
        cut = np.minimum(1.0, radius[rows] / np.maximum(lengths, _TINY))
        trial = retract(x[rows], steps * cut[:, None])
        t_val, t_grad, t_hess = derivs(trial, 2)
        gain = t_val - val[rows]
        kept = gain >= 0.0
        up = rows[kept]
        x[up], val[up], grad[up], hess[up] = trial[kept], t_val[kept], t_grad[kept], t_hess[kept]
        grown = np.where(cut < 1.0, np.minimum(2.0 * radius[rows], NEWTON_MAX_RADIUS), radius[rows])
        radius[rows] = np.where(kept, grown, 0.25 * lengths * cut)
        active[rows] = ~(kept & (gain <= 1e-15 * np.maximum(1.0, np.abs(val[rows]))))
        active[rows] &= radius[rows] >= 1e-12

    best = int(np.argmax(val))
    res = minimize(lambda z: tuple(-y[0] for y in derivs(z[None], 1)[:2]), x[best], jac=True,
                   method="L-BFGS-B", options=_LBFGS_OPTIONS)
    value, point = (-res.fun, res.x) if -res.fun > val[best] else (val[best], x[best])
    return (float(value), point) if value > best_val else (best_val, best_x)


def _maximize_on_sphere(m, q, weights, starts):
    """Ascent of the log-product objective over the amplitude sphere from
    the starts; returns (best log value, best unit vector)."""
    x = np.array(starts, dtype=float)
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    # a vanishing factor kills the clamped gradient; nudge off it
    clamped = np.any(np.abs(np.einsum("kij,si,sj->sk", m, x, x)) < 1e-100, axis=1)
    if q is not None:
        clamped |= np.abs(x @ q) < 1e-100
    x[clamped] += 0.05
    x[clamped] /= np.linalg.norm(x[clamped], axis=1, keepdims=True)
    best_val, best_v = _ascend(_sphere(m, q, weights), x)
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
        return _ascend(_torus(m, q, weights), _af_grid_starts(m, q, weights))

    def result(self, log_lambda: float, optimum, mode: str) -> EntanglementResult:
        eg_total = _unsigned_zero(-2.0 * log_lambda / _LN2)
        return EntanglementResult(
            lambda_max=math.exp(log_lambda),
            eg_total=eg_total,
            density=eg_total / self.sites,
            optimum=optimum,
            mode=mode,
            ground_degenerate=self.report.degenerate,
        )


def _unsigned_zero(value: float) -> float:
    """``value``, or its magnitude when that is below 1e-14: a vanishing
    entanglement is 0, never -0 or a negative rounding residue."""
    return abs(value) if abs(value) < 1e-14 else value


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
    log_lambda, t = _ascend(_torus(m, q, weights), [[xi / 2.0, xi / 2.0]], *analysis.af_optimum)
    v = _canonical_sign(_product_vectors(*t))
    return analysis.result(log_lambda, BlockAnsatz(*(float(x) for x in v)), "per_site_af")


# --- thermodynamic limit ------------------------------------------------------

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


def thermo_block_density(spec: ModelSpec) -> float:
    """Thermodynamic-limit per-site density of the two-site-block
    entanglement: -1/pi times the integral of log2 of the overlap factor
    over mu in (0, pi/2), maximized over the block amplitudes.  The pair
    forms take the continuous Bogoliubov angle theta(mu) of the model's
    blocks and field; its system size drops out.

    The maximization runs on fixed high-order quadrature nodes (with a
    square-root substitution absorbing the logarithmic endpoint
    singularity); the integral at the optimum is then re-evaluated by
    adaptive quadrature to THERMO_QUAD_TOL and a QuadratureError is raised
    if that fails to converge.
    """

    def forms(mu):
        theta = bogoliubov_angle(*dispersion(spec, mu))
        theta_reflected = bogoliubov_angle(*dispersion(spec, np.pi - mu))
        return pair_forms(theta, theta_reflected, mu)

    mu, weights = _thermo_rule()
    log_integral, v = _maximize_on_sphere(forms(mu), None, weights, _block_starts([]))

    value, abserr = quad(
        lambda x: float(_log_overlaps(v, forms(np.array([x])), None, np.ones(1))),
        0.0, 0.5 * math.pi, epsabs=THERMO_QUAD_TOL, epsrel=0.0, limit=400, full_output=True,
    )[:2]
    if abserr > 100.0 * max(THERMO_QUAD_TOL, abs(value) * 1e-12):
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
    return _unsigned_zero(-value / (math.pi * _LN2))


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
