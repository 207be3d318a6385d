import contextlib
import io
import math

import numpy as np
import pytest
from scipy.optimize import minimize

import clusterxy as cx
from clusterxy import cli, entanglement
from clusterxy.crosscheck import CHECK_PRESETS
from clusterxy.freefermion import dispersion
from clusterxy.model import PRESETS
from clusterxy.entanglement import (
    AF_GRID_POINTS,
    SITE_GRID_POINTS,
    THERMO_NODES,
    AnalysisBatch,
    EvenVacuumAnalysis,
    EvenVacuumError,
    _af_grid_starts,
    _block_forms,
    _block_starts,
    _factors,
    _log_overlaps,
    _product_vectors,
    _sphere,
    _torus,
    _thermo_rule,
)


def site_overlap(angles, xi, sites):
    """|overlap| with the site state (cos xi/2, sin xi/2) on every site, from
    ``log_overlaps`` at the block s x s."""
    return float(np.exp(cx.log_overlaps(angles, _product_vectors(xi / 2, xi / 2), sites)))


def test_overlap_site_vacuum_limits():
    angles = np.zeros(4)
    assert site_overlap(angles, 0.0, 8) == pytest.approx(1.0)
    assert site_overlap(angles, math.pi, 8) == pytest.approx(0.0, abs=1e-15)


def test_overlap_site_odd_sites_rejected():
    with pytest.raises(ValueError, match="even"):
        site_overlap(np.zeros(3), 0.5, 7)


def test_overlap_block_trivial():
    angles = np.zeros(4)
    assert math.exp(cx.log_overlaps(angles, cx.BlockAnsatz(1.0, 0.0, 0.0, 0.0).amplitudes, 8)) \
        == pytest.approx(1.0)


def test_block_ansatz_rejects_unnormalized_and_nan():
    # a NaN norm fails every comparison, so |norm2 - 1| > tol let it through
    for amps in ([math.nan, 0.0, 0.0, 0.0], [1.0, math.nan, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]):
        with pytest.raises(ValueError, match="normalized"):
            cx.BlockAnsatz(*amps)


def test_overlaps_reject_wrong_angle_count():
    # an N-site ring has N/2 vacuum angles: a longer array belongs to another
    # ring, and truncating it gave an overlap of the wrong state
    angles = cx.even_vacuum_angles(cx.preset_xny(1, 0.5, 0.8, 16))
    for wrong in (angles, angles[:3]):
        with pytest.raises(ValueError, match="need 4 vacuum angles, got"):
            site_overlap(wrong, 0.7, 8)
        with pytest.raises(ValueError, match="need 4 vacuum angles, got"):
            cx.log_overlaps(wrong, cx.BlockAnsatz(1.0, 0.0, 0.0, 0.0).amplitudes, 8)


def test_overlap_bound_random_angles():
    # both closed forms are inner products of normalized states, so they are
    # bounded by one for any angle configuration and normalized ansatz
    rng = np.random.default_rng(21)
    for sites in (6, 8, 10, 12):
        angles = rng.uniform(-math.pi / 2, math.pi / 2, sites // 2)
        for _ in range(20):
            xi = rng.uniform(0, math.pi)
            assert site_overlap(angles, xi, sites) <= 1 + 1e-12
            v = rng.normal(size=4)
            v /= np.linalg.norm(v)
            assert math.exp(cx.log_overlaps(angles, v, sites)) <= 1 + 1e-12


def test_block_reduces_to_site():
    # the site overlap is the block overlap at s x s; compare it with the
    # single-site product prod_k [cos(theta_k) cos^2(xi/2)
    # + sin(theta_k) sin^2(xi/2) cot(pi(k+1/2)/N)], including the unpaired
    # factor of N/2 odd
    rng = np.random.default_rng(8)
    for sites in (6, 8, 10, 12):
        angles = rng.uniform(-math.pi / 2, math.pi / 2, sites // 2)
        cot = 1.0 / np.tan(np.pi * (np.arange(sites // 2) + 0.5) / sites)
        for _ in range(10):
            xi = rng.uniform(0, math.pi)
            closed = np.prod(
                np.cos(angles) * math.cos(xi / 2) ** 2
                + np.sin(angles) * math.sin(xi / 2) ** 2 * cot
            )
            assert site_overlap(angles, xi, sites) == pytest.approx(abs(closed), abs=1e-12)


@pytest.mark.parametrize(
    "spec",
    [cx.preset_spt_afm(0.8, 66), cx.preset_xny(1, 0.5, 0.8, 64)],
    ids=["spt_afm_unpaired_q", "xzy"],
)
def test_af_gradient_matches_central_differences(spec):
    # the ascent's gradients and Hessians against central differences: in t
    # on the period-2 torus, and along tangent geodesics of the sphere
    coef, weights = EvenVacuumAnalysis(spec).forms
    assert (weights[-1] == 0.5) == (spec.sites % 4 != 0)
    rng = np.random.default_rng(61)
    step = 1e-6
    derivs, _ = _torus(coef, weights)
    for t in rng.uniform(0.0, math.pi, size=(3, 2)):
        _, grad, hess = derivs(t[None], 2)
        for e, g_i, h_i in zip(np.eye(2), grad[0], hess[0]):
            val, g, _ = derivs(np.array([t + step * e, t - step * e]), 1)
            assert abs((val[0] - val[1]) / (2 * step) - g_i) <= 1e-7 * np.linalg.norm(grad)
            assert np.linalg.norm((g[0] - g[1]) / (2 * step) - h_i) <= 1e-6 * np.linalg.norm(hess)

    derivs, _ = _sphere(coef, weights)
    s = 1e-4
    for u, e in rng.normal(size=(3, 2, 4)):
        u /= np.linalg.norm(u)
        e -= (e @ u) * u
        e /= np.linalg.norm(e)
        val, grad, hess = derivs(u[None], 2)
        ends = derivs(np.array([math.cos(s) * u + math.sin(s) * e,
                                math.cos(s) * u - math.sin(s) * e]), 1)[0]
        assert abs((ends[0] - ends[1]) / (2 * s) - e @ grad[0]) <= 1e-6 * np.linalg.norm(grad)
        curvature = (ends[0] - 2 * val[0] + ends[1]) / s**2
        assert abs(curvature - e @ hess[0] @ e) <= 1e-5 * np.linalg.norm(hess)


def reference_matrices(angles, sites):
    """(M, q): the pair forms as 4x4 matrices, v.M[k].v the overlap factor of
    the momentum pair (mu_k, pi - mu_k), mu_k = 2 pi (k + 1/2)/N, at the block
    amplitudes v = (a, b, c, d), and the unpaired factor q.v of N/2 odd (else
    None); built entry by entry, independently of ``pair_forms``."""
    half = sites // 2
    ks = np.arange(sites // 4)
    t1, t2, mu = angles[ks], angles[half - 1 - ks], 2.0 * np.pi * (ks + 0.5) / sites
    a_cross, b_cross, cot = np.sin(t1) * np.cos(t2), np.cos(t1) * np.sin(t2), 1.0 / np.tan(mu)
    m = np.zeros((ks.size, 4, 4))
    m[:, 0, 0] = np.cos(t1) * np.cos(t2)
    m[:, 3, 3] = np.sin(t1) * np.sin(t2)
    m[:, 1, 1] = m[:, 2, 2] = 0.5 * (a_cross - b_cross) * cot
    m[:, 1, 2] = m[:, 2, 1] = 0.5 * (a_cross + b_cross) * cot * np.cos(mu)
    m[:, 0, 3] = m[:, 3, 0] = 0.5 * (a_cross + b_cross) * np.sin(mu)
    mid = angles[(half - 1) // 2]
    return m, None if half % 2 == 0 else np.array([math.cos(mid), 0.0, 0.0, math.sin(mid)])


@pytest.mark.parametrize("sites", [64, 66])
def test_pair_coefficients_match_quadratic_forms(sites):
    # the five coefficients evaluate the 4x4 forms: each factor to 1e-13 of
    # |v|.|M_k|.|v|, the scale of its terms, and the overlap's magnitude is
    # their product to the relative errors of its factors summed
    rng = np.random.default_rng(sites)
    angles = rng.uniform(-math.pi / 2, math.pi / 2, sites // 2)
    m, q = reference_matrices(angles, sites)
    coef, weights = _block_forms(angles, sites)
    pairs = sites // 4
    assert coef.shape == (pairs + (q is not None), 5)
    assert np.array_equal(weights[:pairs], np.ones(pairs))
    if q is not None:  # the unpaired factor q.v enters as the row of (q.v)^2 at weight 1/2
        assert weights[pairs] == 0.5
        assert np.array_equal(coef[pairs], [q[0] * q[0], 2.0 * q[0] * q[3], q[3] * q[3], 0.0, 0.0])
    v = rng.normal(size=(200, 4))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    want = np.einsum("kij,ni,nj->nk", m, v, v)
    scale = np.einsum("kij,ni,nj->nk", np.abs(m), np.abs(v), np.abs(v))
    assert np.all(np.abs(_factors(v, coef[:pairs]) - want) <= 1e-13 * scale)
    for row, factors, terms in zip(v, want, scale):
        total = abs(np.prod(factors) * (1.0 if q is None else q @ row))
        rel = 1e-13 * (1.0 + np.sum(terms / np.abs(factors)))
        assert abs(math.exp(cx.log_overlaps(angles, row, sites)) - total) <= rel * total


def test_unpaired_factor_only_when_half_is_odd():
    # N/2 odd adds the row of (q.v)^2, q = (cos t, 0, 0, sin t) at the middle
    # angle, at weight 1/2; N/2 even adds none
    angles = np.linspace(0.1, 0.7, 6)
    coef8, w8 = _block_forms(angles[:4], 8)
    coef10, w10 = _block_forms(angles[:5], 10)
    assert coef8.shape == (2, 5) and np.all(w8 == 1.0)
    assert coef10.shape == (3, 5) and np.all(w10[:2] == 1.0) and w10[2] == 0.5
    qa, qd = math.cos(angles[2]), math.sin(angles[2])
    assert coef10[2] == pytest.approx([qa * qa, 2.0 * qa * qd, qd * qd, 0.0, 0.0])


def test_maximize_site_ghz_point():
    res = cx.maximize_site(cx.preset_ghz_cluster(0.0, 128))
    assert res.eg_total == pytest.approx(1.0, abs=1e-6)
    assert res.lambda_max == pytest.approx(1 / math.sqrt(2), abs=1e-6)
    assert res.ground_degenerate  # the GHZ point is a level crossing


def test_maximize_site_free_spins():
    res = cx.maximize_site(cx.preset_free(1.0, 32))
    assert res.eg_total == pytest.approx(0.0, abs=1e-12)
    assert res.optimum.xi == pytest.approx(0.0, abs=1e-8)


def test_factorization_circle_cat_structure():
    # on r^2 + h^2 = 1 the ground level is two exactly degenerate product
    # states; the even-vacuum representative is their cat, so the total
    # entanglement saturates at one bit and the density falls off as 1/N
    res = cx.maximize_site(cx.preset_xny(0, 0.6, 0.8, 64))
    assert res.eg_total == pytest.approx(1.0, abs=2e-6)
    assert res.density == pytest.approx(1.0 / 64, abs=1e-6)
    assert res.ground_degenerate


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(fun, lo, hi, tol=1e-10):
    """Golden-section maximum of ``fun`` on [lo, hi], narrowed until the
    bracket is below ``tol``: (argument, value) at its midpoint."""
    c, d = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    fc, fd = fun(c), fun(d)
    while hi - lo > tol:
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


def reference_site(analysis):
    """log Lambda of the site family by a dense xi grid and a golden section
    between the neighbours of its best cell, or that cell when it is higher
    (an optimum at an endpoint of [0, pi])."""
    coef, weights = analysis.forms

    def values(xis):
        return _log_overlaps(_product_vectors(xis / 2, xis / 2), coef, weights)

    grid = np.linspace(0.0, math.pi, SITE_GRID_POINTS)
    on_grid = values(grid)
    best = int(np.argmax(on_grid))
    _, log_lambda = _golden_max(lambda x: float(values(np.array([x]))[0]),
                                grid[max(best - 1, 0)], grid[min(best + 1, grid.size - 1)])
    return max(on_grid[best], log_lambda)


SITE_CASES = {
    **{f"xzy_h{h}_{n}": cx.preset_xny(1, 0.5, h, n) for n in (64, 66, 1024) for h in (-1.2, 0.3, 0.95, 3.0)},
    "spt_afm_0.5_256": cx.preset_spt_afm(0.5, 256),
    "spt_afm_1.2_256": cx.preset_spt_afm(1.2, 256),
    "ghz_-0.6": cx.preset_ghz_cluster(-0.6, 64),
    "ghz_0.3": cx.preset_ghz_cluster(0.3, 64),
    "halfway_0.75": cx.preset_halfway_xy(0.7, 0.75, 256),
    "free_xi0": cx.preset_free(1.0, 64),
    "free_xi_pi": cx.preset_free(-1.0, 64),
    "spt_afm_flat_4": cx.preset_spt_afm(0.0, 4),
}


@pytest.mark.parametrize("spec", SITE_CASES.values(), ids=SITE_CASES.keys())
def test_maximize_site_matches_golden_section(spec):
    # the Newton ascent from the best grid cell reaches the golden section's
    # optimum, at the endpoints xi = 0 and pi (free spins) and on a flat
    # landscape (spt-afm at lambda = 0, N = 4) too
    analysis = EvenVacuumAnalysis(spec)
    want = reference_site(analysis)
    res = cx.maximize_site(analysis)
    log_lambda = math.log(res.lambda_max)
    assert abs(log_lambda - want) <= 1e-12 * max(1.0, abs(want))
    xi = res.optimum.xi
    assert 0.0 <= xi <= math.pi
    overlap = site_overlap(analysis.angles, xi, spec.sites)
    assert overlap == pytest.approx(res.lambda_max, rel=1e-12)


def test_site_grid_is_one_evaluation_per_batch(monkeypatch):
    # the site grid of a 21-point batch is one order-0 evaluation, and the
    # refinement is the Newton loop's (order 2); a grid per point and a
    # golden section made 21 + 44 order-0 calls
    orders = []

    def counting(*args, **kwargs):
        orders.append(kwargs.get("order", args[3] if len(args) > 3 else 0))
        return _log_overlaps(*args, **kwargs)

    monkeypatch.setattr(entanglement, "_log_overlaps", counting)
    batch = AnalysisBatch([EvenVacuumAnalysis(cx.preset_xny(1, 0.5, float(h), 64))
                           for h in np.linspace(0.9, 1.1, 21)])
    batch.site_optima
    assert orders == [0] + [2] * (len(orders) - 1)


def test_maximize_site_matches_oracle():
    spec = cx.preset_xny(1, 1.0, 0.5, 8)
    vec = cx.exact_ground_state(cx.model_hamiltonian(spec))
    brute = cx.brute_max_overlap(vec, "site")
    assert cx.maximize_site(spec).lambda_max == pytest.approx(brute.lambda_max, abs=1e-7)


def test_maximize_block_free_spins():
    res = cx.maximize_block(cx.preset_free(1.0, 32))
    assert res.eg_total == pytest.approx(0.0, abs=1e-10)
    amps = res.optimum.amplitudes
    assert abs(amps[0]) == pytest.approx(1.0, abs=1e-6)


def test_maximize_block_matches_oracle():
    spec = cx.preset_spt_afm(0.5, 8)
    vec = cx.exact_ground_state(cx.model_hamiltonian(spec))
    brute = cx.brute_max_overlap(vec, "block", complex_amplitudes=False)
    assert cx.maximize_block(spec).lambda_max == pytest.approx(brute.lambda_max, abs=1e-6)


def test_block_strictly_beats_site_at_cluster_point():
    # the cluster state is invisible to single-site products but partially
    # captured by two-site blocks: strictly lower per-site density
    spec = cx.preset_ghz_cluster(-1.0, 128)
    site = cx.maximize_site(spec)
    block = cx.maximize_block(spec)
    assert block.density < site.density - 1e-3
    assert block.density == pytest.approx(0.5, abs=1e-9)
    spec8 = cx.preset_ghz_cluster(-1.0, 8)
    vec = cx.exact_ground_state(cx.model_hamiltonian(spec8))
    brute_block = cx.brute_max_overlap(vec, "block", complex_amplitudes=False)
    assert cx.maximize_block(spec8).lambda_max == pytest.approx(brute_block.lambda_max, abs=1e-6)


def test_af_equals_site_for_uniform_optimum():
    for spec in [cx.preset_xny(0, 0.5, 0.7, 32), cx.preset_ghz_cluster(0.5, 32)]:
        res_site = cx.maximize_site(spec)
        res_af = cx.maximize_site_af(spec)
        assert res_af.eg_total == pytest.approx(res_site.eg_total, abs=1e-8)


def test_af_beats_site_on_sublattice_structure():
    # the XZX term couples next-nearest neighbors, so at r = 1 the chain has
    # two interleaved sublattices and a period-2 ansatz genuinely improves
    # on the uniform one; the gain is confirmed by the brute-force oracle
    spec8 = cx.preset_xny(1, 1.0, 0.5, 8)
    vec = cx.exact_ground_state(cx.model_hamiltonian(spec8))
    brute = cx.brute_max_overlap(vec, "af_site", complex_amplitudes=False)
    analytic = cx.maximize_site_af(spec8)
    assert analytic.lambda_max == pytest.approx(brute.lambda_max, abs=1e-7)
    site = cx.maximize_site(spec8)
    assert analytic.lambda_max > site.lambda_max + 1e-3


def test_af_in_afm_phase():
    spec = cx.preset_spt_afm(2.0, 200)
    af = cx.maximize_site_af(spec)
    block = cx.maximize_block(spec)
    assert af.eg_total > 0.0
    assert block.lambda_max >= af.lambda_max - 1e-10


def test_nesting_over_ghz_sweep():
    for g in np.linspace(-2.0, 2.0, 9):
        spec = cx.preset_ghz_cluster(float(g), 64)
        site = cx.maximize_site(spec)
        af = cx.maximize_site_af(spec)
        block = cx.maximize_block(spec)
        assert block.lambda_max >= af.lambda_max - 1e-10
        assert af.lambda_max >= site.lambda_max - 1e-10


def test_optimizer_never_beaten_by_random_probe():
    rng = np.random.default_rng(99)
    for spec in [cx.preset_xny(1, 0.5, 0.9, 16), cx.preset_spt_afm(1.5, 16)]:
        res = cx.maximize_block(spec)
        angles = cx.even_vacuum_angles(spec)
        probes = rng.normal(size=(10_000, 4))
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)
        m, q = reference_matrices(angles, spec.sites)
        factors = np.einsum("kij,ni,nj->nk", m, probes, probes)
        values = np.abs(np.prod(factors, axis=1))
        if q is not None:
            values *= np.abs(probes @ q)
        assert values.max() <= res.lambda_max + 1e-8


# --- the batched ascent against one L-BFGS-B ascent per start -------------------


def reference_value_grad(v, m, q, weights):
    """The log-product at u = v/|v| and its tangential gradient in v, on the
    4x4 forms ``m`` of ``reference_matrices``, as the per-start L-BFGS-B
    searches evaluated them."""
    norm = np.linalg.norm(v)
    u = v / norm
    mu = m @ u
    d = mu @ u
    d = np.copysign(np.maximum(np.abs(d), 1e-120), d)
    val = float(weights @ np.log(np.abs(d)))
    grad = 2.0 * (weights / d) @ mu
    if q is not None:
        val += math.log(abs(q @ u))
        grad = grad + q / (q @ u)
    return val, (grad - (grad @ u) * u) / norm


def reference_af_value_grad(t, m, q, weights):
    a = np.array([math.cos(t[0]), math.sin(t[0])])
    b = np.array([math.cos(t[1]), math.sin(t[1])])
    val, grad = reference_value_grad(np.outer(a, b).ravel(), m, q, weights)
    ga, gb = grad.reshape(2, 2) @ b, a @ grad.reshape(2, 2)
    return val, np.array([a[0] * ga[1] - a[1] * ga[0], b[0] * gb[1] - b[1] * gb[0]])


def reference_ascent(value_grad, starts):
    best = (-np.inf, None)
    for x0 in starts:
        res = minimize(lambda x: tuple(-y for y in value_grad(x)), x0, jac=True,
                       method="L-BFGS-B", options={"maxiter": 500, "ftol": 1e-15, "gtol": 1e-12})
        if -res.fun > best[0]:
            best = (-res.fun, res.x)
    return best


def reference_maxima(analysis):
    """log Lambda of the period-2 and block families, from the starts the
    maximizers use, by one L-BFGS-B ascent per start on the 4x4 forms: the
    period-2 grid cells plus the embedded site optimum, then the block starts
    seeded with the site optimum and that period-2 optimum, each start on a
    vanishing factor nudged off it."""
    coef, weights = analysis.forms
    m, q = reference_matrices(analysis.angles, analysis.sites)
    unit = np.ones(m.shape[0])
    xi = float(analysis.solved("site_optima")[0])
    af = lambda t: reference_af_value_grad(t, m, q, unit)  # noqa: E731
    af_log, t = reference_ascent(af, _af_grid_starts(coef, weights) + [np.array([xi / 2, xi / 2])])
    starts = []
    for x in _block_starts([_product_vectors(xi / 2, xi / 2), _product_vectors(*t)]):
        x = x / np.linalg.norm(x)
        if np.min(np.abs(np.einsum("kij,i,j->k", m, x, x))) < 1e-100 or (
            q is not None and abs(q @ x) < 1e-100
        ):
            x = (x + 0.05) / np.linalg.norm(x + 0.05)
        starts.append(x)
    block_log = reference_ascent(lambda v: reference_value_grad(v, m, q, unit), starts)[0]
    return af_log, block_log


def reference_cases():
    for name, (preset, param, fixed) in CHECK_PRESETS.items():
        for sites in (8, 16, 64, 66):
            for value in (-1.3, 0.4, 1.1):
                yield name, PRESETS[preset].build({**fixed, param: value}, sites)
    for value in (0.9, 1.0, 1.1):
        yield "xzy", cx.preset_xny(1, 0.5, value, 256)
    for value in (-0.5, 0.0, 0.5):
        yield "ghz-cluster", cx.preset_ghz_cluster(value, 256)
    for value in (0.75, 0.9):
        yield "halfway-xy", cx.preset_halfway_xy(0.7, value, 256)


@pytest.mark.parametrize(
    "spec",
    [cx.preset_spt_afm(0.3, 10), cx.preset_ghz_cluster(0.3, 66), cx.preset_xny(2, 0.5, 0.4, 258)],
    ids=["spt_afm_10", "ghz_66", "x2y_258"],
)
def test_unpaired_factor_is_a_half_weight_row(spec):
    # at N = 2 mod 4 the searches see the unpaired factor q.v as the row of
    # (q.v)^2 at weight 1/2: on the sphere it adds to the value and gradient
    # what the explicit log|q.v| adds on the 4x4 forms, and exp(value) is
    # |overlap|.  Comparing what the row adds leaves out the rounding by which
    # the five coefficients and the 4x4 forms differ near a vanishing factor
    analysis = EvenVacuumAnalysis(spec)
    coef, weights = analysis.forms
    m, q = reference_matrices(analysis.angles, spec.sites)
    assert coef.shape[0] == m.shape[0] + 1 and weights[-1] == 0.5
    # a and d both matter, so a row without the 2 on ad is seen
    assert abs(q[0] * q[3]) > 1e-3
    full, paired = _sphere(coef, weights)[0], _sphere(coef[:-1], weights[:-1])[0]
    unit = np.ones(m.shape[0])
    rng = np.random.default_rng(spec.sites)
    for u in rng.normal(size=(20, 4)):
        u /= np.linalg.norm(u)
        (val,), (grad,), _ = full(u[None, None], 1)
        (val0,), (grad0,), _ = paired(u[None, None], 1)
        (with_q, with_q_grad), (without_q, without_q_grad) = (
            reference_value_grad(u, m, factor, unit) for factor in (q, None))
        want, want_grad = with_q - without_q, with_q_grad - without_q_grad
        assert val[0] - val0[0] == pytest.approx(want, abs=1e-12)
        assert np.linalg.norm(grad[0] - grad0[0] - want_grad) <= 1e-12 * max(1.0, np.linalg.norm(grad))
        overlap = abs(np.prod(np.einsum("kij,i,j->k", m, u, u)) * (q @ u))
        assert math.exp(val[0]) == pytest.approx(overlap, rel=1e-12)


def test_batched_ascent_matches_per_start_lbfgsb():
    checked = 0
    for name, spec in reference_cases():
        analysis = EvenVacuumAnalysis(spec)
        if not analysis.report.even_vacuum:
            continue
        af_log, block_log = reference_maxima(analysis)
        for res, want in ((cx.maximize_site_af(analysis), af_log),
                          (cx.maximize_block(analysis), block_log)):
            log_lambda = -0.5 * math.log(2.0) * res.eg_total
            assert log_lambda == pytest.approx(want, abs=1e-10), (name, spec, res.mode)
            # the reported optimum attains the reported overlap
            overlap = math.exp(cx.log_overlaps(analysis.angles, res.optimum.amplitudes, spec.sites))
            assert overlap == pytest.approx(res.lambda_max, rel=1e-12), (name, spec, res.mode)
        checked += 1
    assert checked >= 80


def test_one_polish_per_search(monkeypatch):
    # the period-2 and the block search each end with one L-BFGS-B polish of
    # each point's winner, two per point; one ascent per start made 41 calls
    # per point here
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return minimize(*args, **kwargs)

    monkeypatch.setattr(entanglement, "minimize", counting)
    analysis = EvenVacuumAnalysis(cx.preset_xny(1, 0.5, 0.8, 64))
    cx.maximize_site(analysis)
    cx.maximize_site_af(analysis)
    cx.maximize_block(analysis)
    assert len(calls) <= 2

    calls.clear()
    analyses = [EvenVacuumAnalysis(cx.preset_xny(1, 0.5, h, 64)) for h in (0.8, 0.9, 1.0, 1.1, 1.2)]
    AnalysisBatch(analyses)
    for analysis in analyses:
        cx.maximize_site(analysis)
        cx.maximize_site_af(analysis)
        cx.maximize_block(analysis)
    assert len(calls) <= 2 * len(analyses)


def _log_lambdas(analysis):
    return [-0.5 * math.log(2.0) * f(analysis).eg_total
            for f in (cx.maximize_site, cx.maximize_site_af, cx.maximize_block)]


@pytest.mark.parametrize(
    "build, values, sites",
    [
        (lambda x, n: cx.preset_xny(1, 0.5, x, n), np.linspace(0.9, 1.1, 5), 64),
        (cx.preset_spt_afm, np.linspace(1.0, 1.3, 7), 256),
        (cx.preset_ghz_cluster, np.linspace(-0.6, 0.6, 5), 64),
        (lambda x, n: cx.preset_halfway_xy(0.7, x, n), np.linspace(0.6, 0.8, 9), 64),
        (cx.preset_spt_afm, np.linspace(0.8, 1.6, 5), 66),
    ],
    ids=["xzy", "spt_afm", "ghz", "halfway_jump", "unpaired_q"],
)
def test_batch_matches_batch_of_one(build, values, sites):
    # each point of a size batch keeps its own starts, retirement, winner
    # and polish, so its log Lambda is the one it has alone, whatever other
    # points share the batch; points that are not the even vacuum stay out
    analyses = [EvenVacuumAnalysis(build(float(x), sites)) for x in values]
    members = [analysis for analysis in analyses if analysis.report.even_vacuum]
    assert 2 <= len(members)
    if len(members) < len(analyses):
        with pytest.raises(EvenVacuumError):
            AnalysisBatch(analyses)
    with pytest.raises(ValueError, match="one system size"):
        AnalysisBatch(members + [EvenVacuumAnalysis(build(float(values[-1]), sites + 2))])
    AnalysisBatch(members)
    batched = [_log_lambdas(analysis) for analysis in members]
    shuffled = [EvenVacuumAnalysis(analysis.spec) for analysis in members[::-2]]
    AnalysisBatch(shuffled)
    for analysis, want in zip(shuffled, batched[::-2]):
        assert _log_lambdas(analysis) == pytest.approx(want, rel=1e-12, abs=1e-12)
    for analysis, got in zip(members, batched):
        alone = _log_lambdas(EvenVacuumAnalysis(analysis.spec))
        assert got == pytest.approx(alone, rel=1e-12, abs=1e-12), analysis.spec


def test_size_batch_call_counts(monkeypatch):
    # a 21-point ent-scan at one size solves its points as one batch: one
    # maximizer call per point, at most 2 polishes per point, and outside the
    # polishes at most 3x the evaluator calls of one point (one search per
    # point made 21x); each polish still evaluates its own point
    counts = {"polish": 0, "eval": 0, "polish_eval": 0}
    in_polish = []

    def counting_minimize(*args, **kwargs):
        counts["polish"] += 1
        in_polish.append(True)
        try:
            return minimize(*args, **kwargs)
        finally:
            in_polish.pop()

    def counting_eval(*args, **kwargs):
        counts["polish_eval" if in_polish else "eval"] += 1
        return _log_overlaps(*args, **kwargs)

    monkeypatch.setattr(entanglement, "minimize", counting_minimize)
    monkeypatch.setattr(entanglement, "_log_overlaps", counting_eval)
    analysis = EvenVacuumAnalysis(cx.preset_xny(1, 0.5, 0.95, 64))
    _log_lambdas(analysis)
    one_point = dict(counts)

    calls = {kind: 0 for kind in cli._ENT_FUNCS}
    for kind, func in list(cli._ENT_FUNCS.items()):
        def wrapped(target, kind=kind, func=func):
            calls[kind] += 1
            return func(target)
        monkeypatch.setitem(cli._ENT_FUNCS, kind, wrapped)
    for key in counts:
        counts[key] = 0
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["ent-scan", "--model", "xzy", "--r", "0.5", "--sites", "64",
                         "--sweep", "h:0.9:1.1:0.01",
                         "--quantities", "ent_site,ent_af,ent_block"]) == 0
    print(f"one point {one_point}, 21 points {counts}")
    assert calls == {kind: 21 for kind in cli._ENT_FUNCS}
    assert counts["polish"] <= 2 * 21
    assert counts["eval"] <= 3 * one_point["eval"]


@pytest.mark.parametrize(
    "spec",
    [cx.preset_xny(1, 0.5, 0.9, 64), cx.preset_xny(1, 1.0, 1.1, 1024), cx.preset_spt_afm(1.2, 256),
     cx.preset_spt_afm(0.7, 66), cx.preset_ghz_cluster(0.3, 64), cx.preset_halfway_xy(0.7, 0.75, 256)],
    ids=["xzy", "xzy_1024", "spt_afm", "spt_afm_unpaired_q", "ghz", "halfway"],
)
def test_af_half_grid_matches_full_grid(spec):
    # f(a x b) = f(b x a): the grid is evaluated on t1 <= t2 and mirrored
    coef, weights = EvenVacuumAnalysis(spec).forms
    grid = np.linspace(0.0, math.pi, AF_GRID_POINTS, endpoint=False)
    tt1, tt2 = np.meshgrid(grid, grid, indexing="ij")
    full = _log_overlaps(_product_vectors(tt1, tt2), coef, weights).max()
    best = _log_overlaps(_product_vectors(*_af_grid_starts(coef, weights)[0]), coef, weights)
    assert best == pytest.approx(full, rel=1e-12, abs=1e-12)


def test_halfway_ising_density_field_symmetric():
    for h in (0.2, 0.5, 0.9):
        lo = cx.maximize_site(cx.preset_halfway_xy(1.0, -h, 64))
        hi = cx.maximize_site(cx.preset_halfway_xy(1.0, +h, 64))
        assert lo.density == pytest.approx(hi.density, abs=1e-9)


def test_even_vacuum_precondition_enforced():
    with pytest.raises(EvenVacuumError):
        cx.maximize_site(cx.preset_halfway_xy(0.5, 0.0, 8))
    with pytest.raises(ValueError, match="even"):
        cx.maximize_site(cx.preset_xny(0, 1.0, 0.5, 7))


# --- thermodynamic limit -------------------------------------------------------


def test_thermo_flat_angle_gives_zero():
    # free spins at h=1 have theta(mu) = 0 at every momentum
    spec = cx.preset_free(1.0, 16)
    assert np.all(cx.bogoliubov_angle(*dispersion(spec, np.linspace(0.1, 3.0, 7))) == 0.0)
    density = cx.thermo_block_density(spec)
    assert density == pytest.approx(0.0, abs=1e-12)
    # a vanishing density is +0, not -0
    assert math.copysign(1.0, density) == 1.0


def test_thermo_matches_large_finite_xy():
    spec = cx.preset_xny(0, 1.0, 2.0, 16)
    density = cx.thermo_block_density(spec)
    finite = cx.maximize_block(cx.preset_xny(0, 1.0, 2.0, 1024))
    assert density == pytest.approx(finite.density, abs=1e-4)


def test_thermo_matches_large_finite_ghz():
    density = cx.thermo_block_density(cx.preset_ghz_cluster(0.5, 16))
    finite = cx.maximize_block(cx.preset_ghz_cluster(0.5, 512))
    assert density == pytest.approx(finite.density, abs=1e-3)


def test_thermo_rule_built_once(monkeypatch):
    legendre = np.polynomial.legendre
    leggauss = legendre.leggauss
    calls = []

    def counting(deg):
        calls.append(deg)
        return leggauss(deg)

    monkeypatch.setattr(legendre, "leggauss", counting)
    _thermo_rule.cache_clear()
    spec = cx.preset_xny(1, 0.5, 0.8, 16)
    first = cx.thermo_block_density(spec)
    assert cx.thermo_block_density(spec) == first
    assert calls == [THERMO_NODES]
    mu, weights = _thermo_rule()
    for arr in (mu, weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_theta_function_matches_finite_grid():
    # the thermodynamic path's theta(mu) sampled at the ring's momenta is
    # the finite ring's vacuum angles
    spec = cx.preset_xny(1, 0.6, 0.8, 64)
    angles = cx.even_vacuum_angles(spec)
    mus = 2 * np.pi * (np.arange(32) + 0.5) / 64
    assert np.allclose(cx.bogoliubov_angle(*dispersion(spec, mus)), angles, atol=1e-12)


# --- scan derivative -----------------------------------------------------------


def test_scan_derivative_constant_and_linear():
    xs = np.linspace(0.0, 1.0, 11)
    assert cx.scan_derivative(xs, np.full(11, 3.0)) == pytest.approx([0.0] * 11)
    assert cx.scan_derivative(xs, xs) == pytest.approx([1.0] * 11)


def test_scan_derivative_quadratic_interior():
    xs = np.linspace(0.0, 1.0, 21)
    deriv = cx.scan_derivative(xs, xs**2)
    assert deriv[1:-1] == pytest.approx(2 * xs[1:-1], abs=1e-12)


def test_scan_derivative_rejects_bad_grids():
    with pytest.raises(ValueError, match="non-uniform"):
        cx.scan_derivative([0.0, 0.1, 0.3], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="increasing"):
        cx.scan_derivative([0.0, -0.1, -0.2], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="3 points"):
        cx.scan_derivative([0.0, 0.1], [1.0, 2.0])
