"""Geometric entanglement of the even-sector vacuum.

The vacuum of the antiperiodic (even) sector is a paired state
prod_k [cos(theta_k) + i sin(theta_k) c+_k c+_{N-k-1}] |0>.  Its overlap
with a uniform two-site-block product state v = (a, b, c, d) is a product
of quadratic forms in v over momentum pairs, times a linear factor q.v when
N/2 is odd, which enters as one more form, (q.v)^2 at weight 1/2.  Each
form couples a with d and b with c only, so it is five coefficients
(``pair_forms``); ``_block_forms`` builds a ring's forms, in one place.  One
evaluator on them serves three nested translation-invariant ansatze,
site <= period-2 <= block:

* one single-site state s on every site: v = s x s, s = (cos xi/2, sin xi/2);
* a period-2 product, independent states on the two sites of each block
  (appropriate for antiferromagnetic order): v = a x b;
* one two-site state on every block of two: any unit v.

Maximizing the squared overlap gives the geometric entanglement
E = -log2(Lambda_max^2) and its per-site density E/N.  One evaluator,
``_log_overlaps``, gives the log-overlap with its gradient and Hessian from
the coefficients; ``log_overlaps`` is its value on a ring's forms, which
``clusterxy check`` compares with the dense oracle.  Every family runs one
trust-region Newton ascent of all its starts as one array, ``_newton``: the
site angle from the best cell of a dense xi grid, the period-2 and block
families from starts that hold the embedded optima of the smaller families.
The period-2 and block searches (``_ascend``) end with one L-BFGS-B polish
of each point's winner.

The three finite-N maximizers accept a model or its ``EvenVacuumAnalysis``,
which solves the ground state and the vacuum angles once.  An
``AnalysisBatch`` of analyses of one size runs each search once for all of
them, every point keeping its own starts, retirement, winner and polish; a
lone analysis is a batch of one, and so is the thermodynamic-limit density,
which integrates the same evaluator over the continuous Bogoliubov angle.
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

#: Site-angle optimization: dense-grid resolution.
SITE_GRID_POINTS = 257

#: Sphere optimization: number of multi-start seeds for the block problem.
BLOCK_STARTS = 32

#: Period-2 optimization: coarse (t1, t2) grid size and the number of its
#: best cells refined by gradient ascent.
AF_GRID_POINTS = 48
AF_GRID_STARTS = 8

#: Batched Newton ascent (``_newton``): the first and the largest trust
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
        if not abs(norm2 - 1.0) <= 1e-12:  # NaN included
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


def entanglement_result(log_lambda: float, sites: int, optimum, mode: str,
                        ground_degenerate: bool = False) -> EntanglementResult:
    """The result of a maximal overlap Lambda = exp(``log_lambda``) on
    ``sites`` sites: E = -2 log2 Lambda in total and E/N per site."""
    eg_total = _unsigned_zero(-2.0 * log_lambda / _LN2)
    return EntanglementResult(
        lambda_max=math.exp(log_lambda),
        eg_total=eg_total,
        density=eg_total / sites,
        optimum=optimum,
        mode=mode,
        ground_degenerate=ground_degenerate,
    )


# --- overlaps on the block forms ---------------------------------------------

def pair_forms(t1, t2, mu) -> np.ndarray:
    """Overlap factors of the two-site-block ansatz as five coefficients:
    row k, C_k = (cos t1 cos t2, (A + B) sin mu, sin t1 sin t2, D + O, D - O)
    with A = sin t1 cos t2, B = cos t1 sin t2, D = (A - B) cot(mu)/2 and
    O = (A + B) cot(mu) cos(mu)/2, gives the overlap factor of the momentum
    pair (mu_k, pi - mu_k), with Bogoliubov angles t1 = theta(mu_k) and
    t2 = theta(pi - mu_k), as f_k = C_k . (a^2, ad, d^2, p^2, m^2) at the
    block amplitudes v = (a, b, c, d), p, m = (b +- c)/sqrt2.
    """
    # sin(t1 -+ t2) expanded: the unexpanded form rounds differently and
    # moves the last digits of the finite-N maximizers' results
    a_cross = np.sin(t1) * np.cos(t2)
    b_cross = np.cos(t1) * np.sin(t2)
    cot = 1.0 / np.tan(mu)
    diag = 0.5 * (a_cross - b_cross) * cot
    off = 0.5 * (a_cross + b_cross) * cot * np.cos(mu)
    return np.stack([np.cos(t1) * np.cos(t2), (a_cross + b_cross) * np.sin(mu),
                     np.sin(t1) * np.sin(t2), diag + off, diag - off], axis=-1)


def _block_forms(angles, sites: int) -> tuple[np.ndarray, np.ndarray]:
    """(C, weights): the overlap forms of an N-site ring, the one place they
    are built.  The pair forms (``pair_forms``) sampled at
    mu_k = 2 pi (k + 1/2)/N enter at unit weight; when N/2 is odd, the
    unpaired factor q.v, q = (cos t, 0, 0, sin t) at the middle angle t,
    enters as the row (q_a^2, 2 q_a q_d, q_d^2, 0, 0) of (q.v)^2 at weight
    1/2: log|q.v| = 1/2 log (q.v)^2.
    """
    if sites % 2 != 0:
        raise ValueError("block overlap requires an even number of sites")
    half = sites // 2
    angles = np.asarray(angles, dtype=float)
    if angles.shape != (half,):
        raise ValueError(f"need {half} vacuum angles, got {angles.size}")
    ks = np.arange(half // 2)
    coef = pair_forms(angles[ks], angles[half - 1 - ks], 2.0 * np.pi * (ks + 0.5) / sites)
    weights = np.ones(coef.shape[0])
    if half % 2:
        qa, qd = math.cos(angles[half // 2]), math.sin(angles[half // 2])
        coef = np.vstack([coef, [qa * qa, 2.0 * qa * qd, qd * qd, 0.0, 0.0]])
        weights = np.append(weights, 0.5)
    return coef, weights


def log_overlaps(angles, v, sites: int) -> np.ndarray:
    """log|<v^(x N/2)|vacuum>| of the even vacuum with ``angles`` on an
    N-site ring, at every block amplitude vector v = (a, b, c, d) along the
    last axis of ``v``: the evaluator of the maximizers on the ring's forms.
    A site state s is the block s x s (``_product_vectors``)."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (4,):
        raise ValueError("block amplitudes need a last axis of 4")
    return _log_overlaps(v, *_block_forms(angles, sites))


def _product_vectors(t1, t2) -> np.ndarray:
    """(cos t1, sin t1) x (cos t2, sin t2) as block amplitudes (a, b, c, d),
    with the shape of t1 and t2 plus a trailing axis of 4."""
    a = np.array([np.cos(t1), np.sin(t1)])
    b = np.array([np.cos(t2), np.sin(t2)])
    return np.einsum("i...,j...->...ij", a, b).reshape(a.shape[1:] + (4,))


# --- the evaluator on five coefficients per pair form --------------------------
#
# f_k = C_k . (a^2, ad, d^2, p^2, m^2) with p, m = (b +- c)/sqrt2.  Monomial j is
# v.S_j.v: (v x v) @ _QUAD gives them, v @ _JACOBIAN, shaped (4, 5), their
# gradients 2 S_j v, and G @ _CURVATURE, shaped (4, 4), sum_j G_j 2 S_j.
_MONOMIALS = np.zeros((5, 4, 4))
_MONOMIALS[0, 0, 0] = _MONOMIALS[2, 3, 3] = 1.0
_MONOMIALS[1, 0, 3] = _MONOMIALS[1, 3, 0] = 0.5
_MONOMIALS[3, 1:3, 1:3], _MONOMIALS[4, 1:3, 1:3] = 0.5, [[0.5, -0.5], [-0.5, 0.5]]
_QUAD, _CURVATURE = _MONOMIALS.reshape(5, 16).T, 2.0 * _MONOMIALS.reshape(5, 16)
_JACOBIAN = 2.0 * _MONOMIALS.transpose(2, 1, 0).reshape(4, 20)
#: pairs[..., i] = C_{_PAIR_I[i]} C_{_PAIR_J[i]}; _SYMMETRIC spreads them over 5 x 5
_PAIR_I, _PAIR_J = np.triu_indices(5)
_SYMMETRIC = np.zeros((5, 5), dtype=int)
_SYMMETRIC[_PAIR_I, _PAIR_J] = _SYMMETRIC[_PAIR_J, _PAIR_I] = np.arange(_PAIR_I.size)


def _factors(v, coef) -> np.ndarray:
    """f_k at every v: (..., S, 4) against C (..., K, 5) gives (..., S, K)."""
    outer = (v[..., :, None] * v[..., None, :]).reshape(v.shape[:-1] + (16,))
    return (outer @ _QUAD) @ np.swapaxes(coef, -1, -2)


def _log_overlaps(v, coef, weights, order=0, pairs=None):
    """sum_k w_k log|f_k| at every v = (a, b, c, d) along the last axis; a
    factor below _TINY in magnitude counts as _TINY.  The leading axes of
    ``coef`` are batch axes of ``v``'s leading axes, so each point of a batch
    is its own matrix product.

    With ``order`` 1 or 2 returns (value, gradient, Hessian or None): with
    c = w/f and B the Jacobian of the monomials, the gradient is B (c @ C)
    and the Hessian sum_j (c @ C)_j 2 S_j, a 2x2 block on (a, d) and a
    diagonal one on (p, m), minus B Q B^T, Q = c/f @ C_i C_j (``pairs``)."""
    f = _factors(v, coef)
    mag = np.abs(f) if order else np.abs(f, out=f)
    if order:
        f = np.where(mag < _TINY, _TINY, f)
    val = np.log(np.maximum(mag, _TINY, out=mag), out=mag) @ weights
    if order == 0:
        return val
    c = weights / f
    gc = c @ coef
    jac = (v @ _JACOBIAN).reshape(v.shape + (5,))
    grad = (jac @ gc[..., :, None])[..., 0]
    hess = None
    if order == 2:
        hess = (gc @ _CURVATURE).reshape(v.shape + (4,))
        hess -= jac @ ((c / f) @ pairs)[..., _SYMMETRIC] @ np.swapaxes(jac, -1, -2)
    return val, grad, hess


# --- one batched ascent over products of quadratic forms ----------------------

def _evaluator(coef, weights):
    """``_log_overlaps`` on coefficients ``coef`` (P, K, 5), or (K, 5) for one
    point: evaluate(v, order, points) takes v (len(points), S, 4)."""
    pairs = coef[..., _PAIR_I] * coef[..., _PAIR_J]

    def evaluate(v, order, points):
        return _log_overlaps(v, coef[points], weights, order, pairs[points] if order == 2 else None)

    return evaluate


def _sphere(coef, weights):
    """(derivs, retract) over the amplitude sphere: ``derivs(x, order)``
    gives, at u = x/|x|, the value, the Riemannian gradient P g / |x| (a
    polish from an unnormalized x sees the scale-invariant gradient) and, at
    order 2, the Riemannian Hessian P H P - (u.g) P, with P = I - u u^T."""
    evaluate = _evaluator(coef, weights)

    def derivs(x, order, points=slice(None)):
        norm = np.linalg.norm(x, axis=-1, keepdims=True)
        u = x / norm
        val, g, h = evaluate(u, order, points)
        ug = np.sum(u * g, axis=-1)[..., None]
        if order == 1:
            return val, (g - ug * u) / norm, None
        p = np.eye(4) - u[..., :, None] * u[..., None, :]
        return val, (g - ug * u) / norm, p @ h @ p - ug[..., None] * p

    return derivs, lambda x, step: (x + step) / np.linalg.norm(x + step, axis=-1, keepdims=True)


#: with v = a x b, a = (cos t1, sin t1), b = (cos t2, sin t2): v @ _TANGENTS,
#: shaped (2, 4), is (a' x b, a x b'), and v @ _MIXED is a' x b'
_TURN = np.array([[0.0, -1.0], [1.0, 0.0]])
_TANGENTS = np.hstack([np.kron(_TURN, np.eye(2)).T, np.kron(np.eye(2), _TURN).T])
_MIXED = np.kron(_TURN, _TURN).T


def _torus(coef, weights):
    """(derivs, retract) of the period-2 objective in t = (t1, t2), the
    log-overlap at v = a x b.  With J = [a' x b, a x b'] the gradient is
    J^T g; the Hessian is J^T H J plus -g.v on the diagonal (a'' = -a,
    b'' = -b) and g.(a' x b') off it."""
    evaluate = _evaluator(coef, weights)

    def derivs(t, order, points=slice(None)):
        v = _product_vectors(t[..., 0], t[..., 1])
        val, g, h = evaluate(v, order, points)
        tangents = (v @ _TANGENTS).reshape(v.shape[:-1] + (2, 4))
        hess = None
        if order == 2:
            hess = tangents @ h @ np.swapaxes(tangents, -1, -2)
            hess -= np.sum(g * v, axis=-1)[..., None, None] * np.eye(2)
            hess += np.sum(g * (v @ _MIXED), axis=-1)[..., None, None] * (1.0 - np.eye(2))
        return val, (tangents @ g[..., :, None])[..., 0], hess

    return derivs, lambda t, step: t + step


def _diagonal(coef, weights):
    """(derivs, retract) of the site objective in t = xi/2, shaped (..., 1):
    the period-2 objective (``_torus``) at t1 = t2 = t, so its gradient is
    g1 + g2 and its Hessian the sum of the torus Hessian's entries."""
    torus, _ = _torus(coef, weights)

    def derivs(t, order, points=slice(None)):
        val, g, h = torus(np.concatenate([t, t], axis=-1), order, points)
        if h is not None:
            h = h.sum(axis=(-2, -1))[..., None, None]
        return val, g.sum(axis=-1, keepdims=True), h

    return derivs, lambda t, step: t + step


def _newton(problem, starts):
    """Trust-region Newton ascent of ``problem`` = (derivs, retract) from
    ``starts`` (P, S, dim), S starts for each of P points, as one array.
    Steps are saddle-free (the gradient over |eigenvalue| of the Hessian,
    floored at 1e-12 of the largest), cut to each start's trust radius, and
    refused if they lower the value, so no start ends below where it began.
    A start retires when its gradient is below 1e-8 max(1, |value|), a kept
    step gains at most 1e-15 relative, or its radius falls below 1e-12.
    Every row of a point with an active start is evaluated, so no point's
    arithmetic depends on the others.  Returns every start's (values (P, S),
    x (P, S, dim))."""
    derivs, retract = problem
    x = np.array(starts, dtype=float)
    val, grad, hess = derivs(x, 2)
    radius = np.full(val.shape, NEWTON_RADIUS)
    active = np.ones(val.shape, dtype=bool)
    for _ in range(NEWTON_MAXITER):
        active &= np.linalg.norm(grad, axis=-1) > 1e-8 * np.maximum(1.0, np.abs(val))
        live = np.flatnonzero(active.any(axis=1))
        if live.size == 0:
            break
        rows = np.nonzero(active)
        at = np.searchsorted(live, rows[0]), rows[1]
        lam, vec = np.linalg.eigh(hess[rows])
        mag = np.abs(lam)
        mag = np.maximum(mag, 1e-12 * mag.max(axis=1, keepdims=True) + _TINY)
        steps = (vec @ ((grad[rows][:, None, :] @ vec) / mag[:, None, :]).swapaxes(1, 2))[..., 0]
        lengths = np.linalg.norm(steps, axis=1)
        cut = np.minimum(1.0, radius[rows] / np.maximum(lengths, _TINY))
        trial = x[live]
        trial[at] = retract(x[rows], steps * cut[:, None])
        t_val, t_grad, t_hess = (y[at] for y in derivs(trial, 2, live))
        gain = t_val - val[rows]
        kept = gain >= 0.0
        up = rows[0][kept], rows[1][kept]
        x[up], val[up], grad[up], hess[up] = trial[at][kept], t_val[kept], t_grad[kept], t_hess[kept]
        grown = np.where(cut < 1.0, np.minimum(2.0 * radius[rows], NEWTON_MAX_RADIUS), radius[rows])
        radius[rows] = np.where(kept, grown, 0.25 * lengths * cut)
        active[rows] = ~(kept & (gain <= 1e-15 * np.maximum(1.0, np.abs(val[rows]))))
        active[rows] &= radius[rows] >= 1e-12
    return val, x


def _ascend(problem, starts):
    """``_newton`` from ``starts`` (P, S, dim), then one L-BFGS-B polish of
    each point's best row.  Returns each point's best (values (P,), x (P,
    dim)): the polish's end, or its start when the polish does not climb
    above it."""
    derivs = problem[0]
    val, x = _newton(problem, starts)
    best_val, best_x = np.empty(len(x)), np.empty(x[:, 0].shape)
    for point, row in enumerate(np.argmax(val, axis=1)):
        one = slice(point, point + 1)
        res = minimize(lambda z: tuple(-y[0, 0] for y in derivs(z[None, None], 1, one)[:2]),
                       x[point, row], jac=True, method="L-BFGS-B", options=_LBFGS_OPTIONS)
        best_val[point], best_x[point] = ((-res.fun, res.x) if -res.fun > val[point, row]
                                          else (val[point, row], x[point, row]))
    return best_val, best_x


def _maximize_on_sphere(coef, weights, starts):
    """Ascent over the amplitude sphere from the starts (P, S, 4) of each
    point's coefficients ``coef``; returns the best log values and unit vectors."""
    x = np.array(starts, dtype=float)
    x /= np.linalg.norm(x, axis=-1, keepdims=True)
    # a Newton step only doubles a vanishing factor, so a start on one stays
    # active for every iteration; nudge off it
    clamped = np.any(np.abs(_factors(x, coef)) < 1e-100, axis=-1)
    x[clamped] += 0.05
    x[clamped] /= np.linalg.norm(x[clamped], axis=-1, keepdims=True)
    best_val, best_v = _ascend(_sphere(coef, weights), x)
    best_v /= np.linalg.norm(best_v, axis=-1, keepdims=True)
    return best_val, np.array([_canonical_sign(v) for v in best_v])


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


# --- period-2 grid starts ---------------------------------------------------

def _af_grid_starts(coef, weights) -> list[np.ndarray]:
    """The AF_GRID_STARTS best cells of a coarse (t1, t2) scan of one
    point's period-2 objective, best first.  f(a x b) = f(b x a), so the
    cells with t1 <= t2 are evaluated and mirrored."""
    grid = np.linspace(0.0, math.pi, AF_GRID_POINTS, endpoint=False)
    upper = np.triu_indices(AF_GRID_POINTS)
    vals = np.empty((AF_GRID_POINTS, AF_GRID_POINTS))
    vals[upper] = vals[upper[::-1]] = _log_overlaps(
        _product_vectors(grid[upper[0]], grid[upper[1]]), coef, weights)
    order = np.argsort(vals.ravel())[::-1][:AF_GRID_STARTS]
    return [np.array([grid[i // AF_GRID_POINTS], grid[i % AF_GRID_POINTS]]) for i in order]


# --- one analysis per model, one batch per size -------------------------------

class EvenVacuumAnalysis:
    """What the finite-N maximizers share for one model: the ground report,
    and, on first use, the even-vacuum angles and the block forms.  Its
    searches run in its ``AnalysisBatch``, a batch of one unless it joined
    a larger one.

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
        self.batch, self.slot = None, 0

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
    def forms(self) -> tuple[np.ndarray, np.ndarray]:
        """(C, weights) of the ring (``_block_forms``)."""
        return _block_forms(self.angles, self.sites)

    def solved(self, search: str) -> tuple:
        """This point's entry of each array of its batch's ``search``."""
        batch = self.batch or AnalysisBatch([self])
        return tuple(x[self.slot] for x in getattr(batch, search))


class AnalysisBatch:
    """Even-vacuum analyses of one size whose searches each advance all
    points' starts as one array; construction makes each analysis solve in
    this batch, and no point's results depend on the other points."""

    def __init__(self, analyses):
        self.analyses = list(analyses)
        if len({analysis.sites for analysis in self.analyses}) > 1:
            raise ValueError("a batch holds analyses of one system size")
        if not all(analysis.report.even_vacuum for analysis in self.analyses):
            raise EvenVacuumError("a batch holds even-vacuum analyses only")
        for slot, analysis in enumerate(self.analyses):
            analysis.batch, analysis.slot = self, slot

    @cached_property
    def forms(self) -> tuple[np.ndarray, np.ndarray]:
        """The forms stacked: C (P, K, 5) and the points' common weights."""
        coef, weights = zip(*(analysis.forms for analysis in self.analyses))
        return np.stack(coef), weights[0]

    @cached_property
    def site_optima(self) -> tuple[np.ndarray, np.ndarray]:
        """(xi in [0, pi], log Lambda) of the site family at every point: a
        dense grid of t = xi/2 for all points in one evaluation, then one
        Newton ascent from each point's best cell.  f(s x s) is even in t
        with period pi, so t folds into [0, pi/2]."""
        coef, weights = self.forms
        grid = np.linspace(0.0, 0.5 * math.pi, SITE_GRID_POINTS)
        values = _log_overlaps(_product_vectors(grid, grid), coef, weights)
        log_lambda, t = _newton(_diagonal(coef, weights), grid[np.argmax(values, axis=1), None, None])
        t = np.remainder(t[:, 0, 0], math.pi)
        return 2.0 * np.minimum(t, math.pi - t), log_lambda[:, 0]

    @cached_property
    def af_optima(self) -> tuple[np.ndarray, np.ndarray]:
        """(log Lambda, (t1, t2)) of the period-2 family: one ascent from each
        point's grid starts plus the embedded site optimum (xi/2, xi/2)."""
        starts = [_af_grid_starts(*analysis.forms) + [np.array([0.5 * xi, 0.5 * xi])]
                  for analysis, xi in zip(self.analyses, self.site_optima[0])]
        return _ascend(_torus(*self.forms), starts)

    @cached_property
    def block_results(self) -> tuple[np.ndarray, np.ndarray]:
        starts = [_block_starts([_product_vectors(0.5 * xi, 0.5 * xi), _product_vectors(*t)])
                  for xi, t in zip(self.site_optima[0], self.af_optima[1])]
        return _maximize_on_sphere(*self.forms, starts)


def _unsigned_zero(value: float) -> float:
    """``value``, or its magnitude when that is below 1e-14: a vanishing
    entanglement is 0, never -0 or a negative rounding residue."""
    return abs(value) if abs(value) < 1e-14 else value


def _analysis(target) -> EvenVacuumAnalysis:
    return target if isinstance(target, EvenVacuumAnalysis) else EvenVacuumAnalysis(target)


def maximize_site(spec: ModelSpec | EvenVacuumAnalysis) -> EntanglementResult:
    """Geometric entanglement against uniform single-site product states:
    one Newton ascent in xi from the best cell of a dense xi grid."""
    analysis = _analysis(spec)
    xi, log_lambda = analysis.solved("site_optima")
    return entanglement_result(float(log_lambda), analysis.sites, SiteAnsatz(float(xi)), "per_site",
                               analysis.report.degenerate)


def maximize_block(spec: ModelSpec | EvenVacuumAnalysis) -> EntanglementResult:
    """Geometric entanglement against uniform two-site-block product states:
    multi-start ascent over the amplitude 3-sphere, seeded with coordinate
    vertices, random points, and the embedded single-site and period-2
    optima."""
    analysis = _analysis(spec)
    log_lambda, v = analysis.solved("block_results")
    return entanglement_result(float(log_lambda), analysis.sites, BlockAnsatz(*(float(x) for x in v)),
                               "per_block", analysis.report.degenerate)


def maximize_site_af(spec: ModelSpec | EvenVacuumAnalysis) -> EntanglementResult:
    """Per-site geometric entanglement against period-2 product states
    (independent states on the two sites of each block), the family that
    stays faithful for antiferromagnetic order: one ascent from the best
    cells of a coarse (t1, t2) grid and the embedded site optimum."""
    analysis = _analysis(spec)
    log_lambda, t = analysis.solved("af_optima")
    v = _canonical_sign(_product_vectors(*t))
    return entanglement_result(float(log_lambda), analysis.sites, BlockAnsatz(*(float(x) for x in v)),
                               "per_site_af", analysis.report.degenerate)


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
        theta = bogoliubov_angle(*dispersion(spec, np.concatenate([mu, np.pi - mu])))
        return pair_forms(theta[:mu.size], theta[mu.size:], mu)

    mu, weights = _thermo_rule()
    (log_integral,), (v,) = _maximize_on_sphere(forms(mu)[None], weights, [_block_starts([])])

    value, abserr = quad(
        lambda x: float(_log_overlaps(v, forms(np.array([x])), np.ones(1))),
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
