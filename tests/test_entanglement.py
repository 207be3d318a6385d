import math

import numpy as np
import pytest

import clusterxy as cx
from clusterxy.entanglement import (
    THERMO_NODES,
    EvenVacuumAnalysis,
    EvenVacuumError,
    _af_value_grad,
    _block_forms,
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
    m, q, weights = EvenVacuumAnalysis(spec).forms
    assert (q is not None) == (spec.sites % 4 != 0)
    rng = np.random.default_rng(61)
    step = 1e-6
    for t in rng.uniform(0.0, math.pi, size=(3, 2)):
        _, grad = _af_value_grad(t, m, q, weights)
        fd = [
            (_af_value_grad(t + step * e, m, q, weights)[0]
             - _af_value_grad(t - step * e, m, q, weights)[0]) / (2 * step)
            for e in np.eye(2)
        ]
        assert np.linalg.norm(fd - grad) <= 1e-7 * np.linalg.norm(grad)


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
    assert cx.thermo_block_density(lambda mu: np.zeros_like(np.asarray(mu))) == pytest.approx(
        0.0, abs=1e-12
    )


def test_thermo_matches_large_finite_xy():
    spec = cx.preset_xny(0, 1.0, 2.0, 16)
    density = cx.thermo_block_density(cx.theta_function(spec))
    finite = cx.maximize_block(cx.preset_xny(0, 1.0, 2.0, 1024))
    assert density == pytest.approx(finite.density, abs=1e-4)


def test_thermo_matches_large_finite_ghz():
    density = cx.thermo_block_density(cx.theta_function(cx.preset_ghz_cluster(0.5, 16)))
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
    theta = cx.theta_function(cx.preset_xny(1, 0.5, 0.8, 16))
    first = cx.thermo_block_density(theta)
    assert cx.thermo_block_density(theta) == first
    assert calls == [THERMO_NODES]
    mu, weights = _thermo_rule()
    for arr in (mu, weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_theta_function_matches_finite_grid():
    spec = cx.preset_xny(1, 0.6, 0.8, 64)
    theta = cx.theta_function(spec)
    angles = cx.even_vacuum_angles(spec)
    mus = 2 * np.pi * (np.arange(32) + 0.5) / 64
    assert np.allclose(theta(mus), angles, atol=1e-12)


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
