import math

import numpy as np
import pytest
from scipy.optimize import minimize

import clusterxy as cx
from clusterxy import entanglement
from clusterxy.crosscheck import CHECK_PRESETS
from clusterxy.freefermion import dispersion
from clusterxy.model import PRESETS
from clusterxy.entanglement import (
    THERMO_NODES,
    EvenVacuumAnalysis,
    EvenVacuumError,
    _af_grid_starts,
    _block_forms,
    _block_starts,
    _product_vectors,
    _sphere,
    _torus,
    _thermo_rule,
)


def test_overlap_site_vacuum_limits():
    angles = np.zeros(4)
    assert cx.overlap_site(angles, 0.0, 8) == pytest.approx(1.0)
    assert cx.overlap_site(angles, math.pi, 8) == pytest.approx(0.0, abs=1e-15)


def test_overlap_site_odd_sites_rejected():
    with pytest.raises(ValueError, match="even"):
        cx.overlap_site(np.zeros(3), 0.5, 7)


def test_overlap_block_trivial():
    angles = np.zeros(4)
    assert cx.overlap_block(angles, cx.BlockAnsatz(1.0, 0.0, 0.0, 0.0), 8) == pytest.approx(1.0)


def test_overlap_bound_random_angles():
    # both closed forms are inner products of normalized states, so they are
    # bounded by one for any angle configuration and normalized ansatz
    rng = np.random.default_rng(21)
    for sites in (6, 8, 10, 12):
        angles = rng.uniform(-math.pi / 2, math.pi / 2, sites // 2)
        for _ in range(20):
            xi = rng.uniform(0, math.pi)
            assert abs(cx.overlap_site(angles, xi, sites)) <= 1 + 1e-12
            v = rng.normal(size=4)
            v /= np.linalg.norm(v)
            assert abs(cx.overlap_block(angles, v, sites)) <= 1 + 1e-12


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
            assert cx.overlap_site(angles, xi, sites) == pytest.approx(closed, abs=1e-12)


@pytest.mark.parametrize(
    "spec",
    [cx.preset_spt_afm(0.8, 66), cx.preset_xny(1, 0.5, 0.8, 64)],
    ids=["spt_afm_unpaired_q", "xzy"],
)
def test_af_gradient_matches_central_differences(spec):
    # the ascent's gradients and Hessians against central differences: in t
    # on the period-2 torus, and along tangent geodesics of the sphere
    m, q, weights = EvenVacuumAnalysis(spec).forms
    assert (q is not None) == (spec.sites % 4 != 0)
    rng = np.random.default_rng(61)
    step = 1e-6
    derivs, _ = _torus(m, q, weights)
    for t in rng.uniform(0.0, math.pi, size=(3, 2)):
        _, grad, hess = derivs(t[None], 2)
        for e, g_i, h_i in zip(np.eye(2), grad[0], hess[0]):
            val, g, _ = derivs(np.array([t + step * e, t - step * e]), 1)
            assert abs((val[0] - val[1]) / (2 * step) - g_i) <= 1e-7 * np.linalg.norm(grad)
            assert np.linalg.norm((g[0] - g[1]) / (2 * step) - h_i) <= 1e-6 * np.linalg.norm(hess)

    derivs, _ = _sphere(m, q, weights)
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


def test_unpaired_factor_only_when_half_is_odd():
    angles = np.linspace(0.1, 0.7, 6)
    _, q8 = _block_forms(angles[:4], 8)
    _, q10 = _block_forms(angles[:5], 10)
    assert q8 is None
    assert q10 is not None
    assert q10[0] == pytest.approx(math.cos(angles[2]))
    assert q10[3] == pytest.approx(math.sin(angles[2]))


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
        m, q = _block_forms(angles, spec.sites)
        factors = np.einsum("kij,ni,nj->nk", m, probes, probes)
        values = np.abs(np.prod(factors, axis=1))
        if q is not None:
            values *= np.abs(probes @ q)
        assert values.max() <= res.lambda_max + 1e-8


# --- the batched ascent against one L-BFGS-B ascent per start -------------------


def reference_value_grad(v, m, q, weights):
    """The log-product at u = v/|v| and its tangential gradient in v, as the
    per-start L-BFGS-B searches evaluated them."""
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


def reference_ascent(value_grad, starts, best=(-np.inf, None)):
    for x0 in starts:
        res = minimize(lambda x: tuple(-y for y in value_grad(x)), x0, jac=True,
                       method="L-BFGS-B", options={"maxiter": 500, "ftol": 1e-15, "gtol": 1e-12})
        if -res.fun > best[0]:
            best = (-res.fun, res.x)
    return best


def reference_maxima(analysis):
    """log Lambda of the period-2 and block families, from the starts the
    maximizers use, by one L-BFGS-B ascent per start."""
    m, q, weights = analysis.forms
    xi = analysis.site_optimum[0]
    af = lambda t: reference_af_value_grad(t, m, q, weights)  # noqa: E731
    grid = reference_ascent(af, _af_grid_starts(m, q, weights))
    af_log = reference_ascent(af, [np.array([xi / 2, xi / 2])], grid)[0]
    starts = []
    for x in _block_starts([_product_vectors(xi / 2, xi / 2), _product_vectors(*grid[1])]):
        x = x / np.linalg.norm(x)
        if np.min(np.abs(np.einsum("kij,i,j->k", m, x, x))) < 1e-100 or (
            q is not None and abs(q @ x) < 1e-100
        ):
            x = (x + 0.05) / np.linalg.norm(x + 0.05)
        starts.append(x)
    block_log = reference_ascent(lambda v: reference_value_grad(v, m, q, weights), starts)[0]
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
            overlap = abs(cx.overlap_block(analysis.angles, res.optimum, spec.sites))
            assert overlap == pytest.approx(res.lambda_max, rel=1e-12), (name, spec, res.mode)
        checked += 1
    assert checked >= 80


def test_one_polish_per_search(monkeypatch):
    # each period-2 and block search ends with one L-BFGS-B polish of its
    # winner; one ascent per start made 41 calls here
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return minimize(*args, **kwargs)

    monkeypatch.setattr(entanglement, "minimize", counting)
    analysis = EvenVacuumAnalysis(cx.preset_xny(1, 0.5, 0.8, 64))
    cx.maximize_site(analysis)
    cx.maximize_site_af(analysis)
    cx.maximize_block(analysis)
    assert len(calls) <= 3


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
