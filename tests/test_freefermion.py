import heapq
import math
import types

import numpy as np
import pytest

import clusterxy as cx
from clusterxy import freefermion
from clusterxy.entanglement import _thermo_rule
from clusterxy.freefermion import (
    DEGENERACY_RTOL,
    Sector,
    _mode_energies,
    _sector_states_from_eps,
)

from test_model import random_spec


def brute_sector_levels(epsilon, parity, count):
    """Enumerate all occupations of the required parity (exhaustive oracle)."""
    epsilon = np.asarray(epsilon)
    n = epsilon.size
    masks = np.arange(2**n, dtype=np.uint64)
    occ = ((masks[:, None] >> np.arange(n, dtype=np.uint64)) & np.uint64(1)).astype(bool)
    sizes = occ.sum(axis=1)
    keep = (sizes % 2 == 0) if parity == "even" else (sizes % 2 == 1)
    energies = -0.5 * epsilon.sum() + occ[keep] @ epsilon
    return np.sort(energies)[:count]


# --- mode data ---------------------------------------------------------------


def test_mode_data_xzy_special_mode():
    # k = 0 and k = N/2 are their own partners: eps = 2*alpha, negative here
    spec = cx.preset_xny(1, 1.0, 0.7, 8)
    eps = _mode_energies(spec, Sector.ODD)
    assert eps[0] == pytest.approx(2 * (0.7 - 1.0), abs=1e-15)
    assert eps[4] == pytest.approx(2 * (0.7 - 1.0), abs=1e-15)


def test_mode_data_free_spins():
    spec = cx.preset_free(0.8, 6)
    for sector in (Sector.ODD, Sector.EVEN):
        eps = _mode_energies(spec, sector)
        for k in range(6):
            expected = 2 * 0.8  # special modes coincide: 2*alpha == 2*sqrt(alpha^2)
            assert eps[k] == pytest.approx(expected)


def test_mode_data_halfway_even_sector():
    spec = cx.preset_halfway_xy(0.5, 0.3, 8)
    eps = _mode_energies(spec, Sector.EVEN)
    assert (eps > 0.0).all()  # no special mode, so none at 2*alpha < 0
    assert eps[0] == pytest.approx(2 * math.sqrt(0.09 + 0.25), abs=1e-14)


def test_mode_invariants_random_specs():
    rng = np.random.default_rng(7)
    for _ in range(20):
        sites = int(rng.integers(2, 12))
        spec = random_spec(rng, sites)
        for sector in (Sector.ODD, Sector.EVEN):
            eps = _mode_energies(spec, sector)
            ks = np.arange(sites)
            alpha, beta = freefermion.dispersion(spec, (2.0 * np.pi / sites) * (ks + sector.b))
            for k in range(sites):
                partner = (sites - k - int(2 * sector.b)) % sites
                if partner == k:
                    assert eps[k] == pytest.approx(2 * alpha[k], abs=1e-15)
                else:
                    assert eps[k] >= 0.0
                    assert eps[k] == pytest.approx(2 * math.hypot(alpha[k], beta[k]), abs=1e-13)
                    # pairing symmetry holds exactly, not just approximately
                    assert eps[k] == eps[partner]


def test_theta_branch_convention():
    # sin(theta) carries the sign of beta; alpha < 0 with beta = 0 gives pi/2
    spec = cx.make_model(4, -1.0, [])
    assert cx.even_vacuum_angles(spec) == pytest.approx([math.pi / 2] * 2)


def _ulps_from_atan2(alpha, beta):
    """|bogoliubov_angle - atan2(beta, alpha)/2| in ulps of the reference,
    elementwise."""
    alpha, beta = np.broadcast_arrays(np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float))
    got = cx.bogoliubov_angle(alpha, beta)
    ref = np.array([0.5 * math.atan2(b, a) for a, b in zip(alpha.ravel(), beta.ravel())])
    return np.abs(got.ravel() - ref) / np.spacing(np.abs(ref))


def test_bogoliubov_angle_exact_to_an_ulp():
    # theta -> 0 or +-pi/2 where beta -> 0, where the gap closes; the angle
    # keeps every digit there
    rng = np.random.default_rng(23)
    alpha = rng.normal(size=10_000)
    beta = alpha * rng.choice([-1.0, 1.0], 10_000) * 10.0 ** rng.uniform(-12.0, 2.0, 10_000)
    mu, _ = _thermo_rule()
    nodes = np.concatenate([mu, np.pi - mu])
    node_alpha, node_beta = freefermion.dispersion(cx.preset_xny(0, 0.5, 1.2, 64), nodes)
    for name, a, b in [("alpha=1, beta=1e-9", 1.0, 1e-9),
                       ("alpha=-1, beta=+-1e-9", -1.0, [1e-9, -1e-9]),
                       ("random, |beta/alpha| >= 1e-12", alpha, beta),
                       ("xy r=0.5 h=1.2 at the thermo nodes", node_alpha, node_beta)]:
        assert np.max(_ulps_from_atan2(a, b)) <= 1.0, name
    # sgn(0) = +1: alpha < 0 with a zero beta of either sign gives +pi/2
    negative = cx.bogoliubov_angle(np.array([-1.0, -1.0, -1e-300]), np.array([0.0, -0.0, -0.0]))
    assert np.all(negative == 0.5 * math.pi)
    assert np.all(cx.bogoliubov_angle(np.array([0.0, -0.0, -0.0]), np.array([0.0, 0.0, -0.0])) == 0.0)


# --- parity-constrained minimum ----------------------------------------------


def test_three_fermion_regime():
    spec = cx.preset_xny(1, 1.0, -0.5, 8)
    energy, occ = cx.sector_states(spec, Sector.ODD, 1)[0]
    assert len(occ) == 3
    assert {0, 4} <= occ
    eps = _mode_energies(spec, Sector.ODD)
    assert energy == pytest.approx(brute_sector_levels(eps, "odd", 1)[0], abs=1e-12)


def test_vacuum_even_when_all_positive():
    spec = cx.preset_free(1.0, 6)
    energy, occ = cx.sector_states(spec, Sector.EVEN, 1)[0]
    assert occ == frozenset()
    assert energy == pytest.approx(-0.5 * _mode_energies(spec, Sector.EVEN).sum())


def test_halfway_degenerate_minimum():
    # one- and three-fermion patterns tie at the odd-sector minimum
    spec = cx.preset_halfway_xy(0.5, 0.5, 8)
    eps = _mode_energies(spec, Sector.ODD)
    levels = brute_sector_levels(eps, "odd", 4)
    energy, _ = cx.sector_states(spec, Sector.ODD, 1)[0]
    assert energy == pytest.approx(levels[0], abs=1e-12)
    assert levels[1] == pytest.approx(levels[0], abs=1e-12)  # degenerate
    sizes = set()
    for mask in range(2**8):
        occ = [k for k in range(8) if (mask >> k) & 1]
        if len(occ) % 2 == 1:
            value = -0.5 * eps.sum() + sum(eps[k] for k in occ)
            if abs(value - levels[0]) < 1e-12:
                sizes.add(len(occ))
    assert sizes == {1, 3}


def test_constrained_minimum_matches_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(30):
        sites = int(rng.integers(2, 11))
        spec = random_spec(rng, sites)
        for sector in (Sector.ODD, Sector.EVEN):
            eps = _mode_energies(spec, sector)
            energy, occ = cx.sector_states(spec, sector, 1)[0]
            want_odd = sector.parity == "odd"
            assert (len(occ) % 2 == 1) == want_odd
            assert energy == pytest.approx(
                brute_sector_levels(eps, sector.parity, 1)[0], abs=1e-12
            )


# --- sector levels -----------------------------------------------------------


def test_sector_levels_free_spins():
    spec = cx.preset_free(1.0, 4)
    assert cx.sector_levels(spec, Sector.EVEN, 2) == pytest.approx([-4.0, 0.0])


def test_sector_levels_against_enumeration():
    spec = cx.preset_xny(1, 0.5, 0.2, 8)
    eps = _mode_energies(spec, Sector.ODD)
    expected = brute_sector_levels(eps, "odd", 3)
    assert cx.sector_levels(spec, Sector.ODD, 3) == pytest.approx(list(expected), abs=1e-12)


def test_sector_levels_random_specs():
    rng = np.random.default_rng(13)
    for _ in range(15):
        sites = int(rng.integers(2, 10))
        spec = random_spec(rng, sites)
        for sector in (Sector.ODD, Sector.EVEN):
            eps = _mode_energies(spec, sector)
            count = min(6, 2 ** (sites - 1))
            expected = brute_sector_levels(eps, sector.parity, count)
            got = cx.sector_levels(spec, sector, count)
            assert got == pytest.approx(list(expected), abs=1e-11)
            assert got == sorted(got)


def test_sector_states_energy_consistency():
    specs = [
        cx.preset_ghz_cluster(0.3, 8),
        # odd special modes at eps = 2(h - 1) = 0 exactly: zero-cost flips
        cx.preset_xny(1, 0.5, 1.0, 8),
        # every mode at eps = 0: all levels tie
        cx.preset_free(0.0, 6),
        # the odd sector's parity fix vacates the negative mode at eps = -0.2
        cx.preset_xny(0, 1.0, -1.1, 8),
    ]
    for spec in specs:
        for sector in (Sector.ODD, Sector.EVEN):
            eps = _mode_energies(spec, sector)
            for energy, occ in cx.sector_states(spec, sector, 5):
                direct = -0.5 * eps.sum() + sum(eps[k] for k in occ)
                assert energy == pytest.approx(direct, abs=1e-12)
                assert (len(occ) % 2 == 1) == (sector is Sector.ODD)
            for count in range(1, 7):
                got = cx.sector_levels(spec, sector, count)
                want = brute_sector_levels(eps, sector.parity, count)
                assert got == pytest.approx(list(want), abs=1e-12)


def test_sector_levels_count_guard():
    spec = cx.preset_free(1.0, 3)
    with pytest.raises(ValueError, match="dimension"):
        cx.sector_levels(spec, Sector.EVEN, 5)


def test_ghz_sector_minima_difference():
    spec = cx.preset_ghz_cluster(0.5, 8)
    odd = cx.sector_levels(spec, Sector.ODD, 1)[0]
    even = cx.sector_levels(spec, Sector.EVEN, 1)[0]
    assert odd - even == pytest.approx(8 * 0.5**2, abs=1e-12)


def test_sector_states_degenerate_second_level():
    def degenerate(spec, sector):
        (e0, _), (e1, _) = cx.sector_states(spec, sector, 2)
        assert e1 >= e0
        return (e1 - e0) < DEGENERACY_RTOL * max(1.0, abs(e0))

    assert degenerate(cx.preset_halfway_xy(0.5, 0.5, 8), Sector.ODD)
    assert not degenerate(cx.preset_xny(1, 0.5, 0.5, 8), Sector.EVEN)


# --- bounded level search ------------------------------------------------------


def full_heap_states(epsilon, parity, count):
    """Reference level search: the extend/replace heap over all N sorted
    flip costs, as it was before the search was bounded."""
    n = epsilon.size
    occ0 = epsilon < 0.0
    base = -0.5 * float(epsilon.sum()) + float(epsilon[occ0].sum())
    need_parity = int(int(occ0.sum()) % 2 != (parity == "odd"))
    costs = np.abs(epsilon)
    order = np.argsort(costs, kind="stable")
    c = costs[order]
    out = []

    def emit(total, positions):
        occ = occ0.copy()
        for p in positions:
            occ[order[p]] = ~occ[order[p]]
        out.append((total, occ))

    if need_parity == 0:
        emit(base, ())
    heap = [(float(c[0]), 0, 1, (0,))]
    while heap and len(out) < count:
        s, i, p, positions = heapq.heappop(heap)
        if p == need_parity:
            emit(base + s, positions)
        if i + 1 < n:
            heapq.heappush(heap, (s + float(c[i + 1]), i + 1, p ^ 1, positions + (i + 1,)))
            heapq.heappush(
                heap,
                (s - float(c[i]) + float(c[i + 1]), i + 1, p, positions[:-1] + (i + 1,)),
            )
    return out[:count]


# (preset, centre) of the N=4096 gap-scan families, each sampled at its
# centre and 0.1 to either side
GAP_SCAN_FAMILIES = (
    (lambda h: cx.preset_xny(1, 0.5, h, 4096), 1.0),
    (lambda h: cx.preset_xny(1, 1.0, h, 4096), 1.0),
    (lambda lam: cx.preset_spt_afm(lam, 4096), 1.0),
    (lambda g: cx.preset_ghz_cluster(g, 4096), 0.0),
    (lambda h: cx.preset_halfway_xy(0.7, h, 4096), 0.714),
)


def bounded_search_cases():
    rng = np.random.default_rng(23)
    for f, (build, centre) in enumerate(GAP_SCAN_FAMILIES):
        for x in (centre - 0.1, centre, centre + 0.1):
            for sector in (Sector.ODD, Sector.EVEN):
                yield f"family {f} at {x} {sector.value}", _mode_energies(build(x), sector)
    halfway = cx.preset_halfway_xy(0.7, 0.5, 4096)
    for sector in (Sector.ODD, Sector.EVEN):
        yield f"halfway h=0.5 {sector.value}", _mode_energies(halfway, sector)
    yield "all equal", np.full(40, 0.75)
    yield "all zero", np.zeros(12)
    yield "zeros and ties", np.array([0.0, 0.5, 0.0, 0.5, 0.5, 1.0, 0.0, 1.0, 0.5, 0.0])
    yield "one negative", np.array([0.4, -0.3, 0.4, 0.9, 0.1, 0.4, 2.0, 0.1])
    yield "one negative, flat", np.concatenate([[-1e-3], np.full(30, 2.0)])
    for trial in range(20):
        eps = np.abs(rng.normal(size=int(rng.integers(6, 60))))
        if trial % 2:
            eps[int(rng.integers(eps.size))] *= -1.0
        yield f"random {trial}", eps


def test_bounded_search_matches_full_heap():
    for label, eps in bounded_search_cases():
        for parity in ("odd", "even"):
            for count in (1, 2, 16):
                want = full_heap_states(eps, parity, count)
                got = _sector_states_from_eps(eps, parity, count)
                assert len(got) == len(want) == count, label
                for (e_got, occ_got), (e_want, occ_want) in zip(got, want):
                    assert e_got == e_want, (label, parity, count)
                    assert np.array_equal(occ_got, occ_want), (label, parity, count)


def test_halfway_ground_and_gap_pops_few(monkeypatch):
    pops = []

    def heappop(heap):
        pops.append(1)
        return heapq.heappop(heap)

    counting = types.SimpleNamespace(heappush=heapq.heappush, heappop=heappop)
    monkeypatch.setattr(freefermion, "heapq", counting)
    cx.ground_and_gap(cx.preset_halfway_xy(0.7, 0.8, 4096))
    assert len(pops) <= 16


def test_angles_computed_only_where_read(monkeypatch):
    calls = []
    angle = freefermion.bogoliubov_angle

    def counting(alpha, beta):
        calls.append(1)
        return angle(alpha, beta)

    monkeypatch.setattr(freefermion, "bogoliubov_angle", counting)
    specs = [
        cx.preset_xny(1, 0.5, 0.9, 64),
        cx.preset_halfway_xy(0.7, 0.8, 64),
        cx.preset_spt_afm(0.5, 32),
        cx.preset_ghz_cluster(0.3, 16),
    ]
    for spec in specs:
        cx.ground_and_gap(spec)
    assert calls == []
    for spec in specs:
        n = spec.sites
        reference = angle(*freefermion.dispersion(spec, (2.0 * np.pi / n) * (np.arange(n // 2) + 0.5)))
        assert np.array_equal(cx.even_vacuum_angles(spec), reference)
    assert len(calls) == len(specs)


# --- ground state and gap ----------------------------------------------------


def test_gap_spt_afm_large_n():
    report = cx.ground_and_gap(cx.preset_spt_afm(0.4, 512))
    assert report.gap == pytest.approx(2 * (1 - 0.4), abs=1e-9)
    assert report.even_vacuum


def test_gap_xzy_large_n():
    report = cx.ground_and_gap(cx.preset_xny(1, 1.0, 2.0, 1024))
    assert report.gap == pytest.approx(2.0, abs=1e-9)


def test_gap_ghz_outside_unit_interval():
    report = cx.ground_and_gap(cx.preset_ghz_cluster(1.5, 8))
    assert report.gap == pytest.approx(8.0, abs=1e-12)


def test_gap_nonnegative_and_ground_is_min():
    rng = np.random.default_rng(5)
    for _ in range(20):
        spec = random_spec(rng, int(rng.integers(2, 12)))
        report = cx.ground_and_gap(spec)
        assert report.gap >= 0.0
        sector_minima = [
            cx.sector_levels(spec, s, 1)[0] for s in (Sector.ODD, Sector.EVEN)
        ]
        assert report.ground_energy == pytest.approx(min(sector_minima), abs=1e-12)


def test_even_vacuum_flag():
    # XzY stays in the even sector across the field range
    for h in np.linspace(-2, 2, 9):
        assert cx.ground_and_gap(cx.preset_xny(1, 0.5, float(h), 8)).even_vacuum
    # the halfway model at small fields is odd-sector dominated
    report = cx.ground_and_gap(cx.preset_halfway_xy(0.5, 0.0, 8))
    assert not report.even_vacuum
    assert report.ground_sector is Sector.ODD


def test_ghz_first_excited_is_odd_one_fermion():
    for g in (-0.8, -0.4, 0.2, 0.6, 0.9):
        spec = cx.preset_ghz_cluster(g, 8)
        report = cx.ground_and_gap(spec)
        assert report.even_vacuum
        odd_energy, odd_occ = cx.sector_states(spec, Sector.ODD, 1)[0]
        assert len(odd_occ) == 1
        assert odd_energy == pytest.approx(report.first_excited, abs=1e-12)


def test_xzy_gap_minimum_deepens_with_size():
    hs = np.linspace(0.8, 1.2, 41)
    minima = []
    for n in (8, 16, 32, 64):
        minima.append(
            min(cx.ground_and_gap(cx.preset_xny(1, 0.5, float(h), n)).gap for h in hs)
        )
    assert all(b < a for a, b in zip(minima, minima[1:]))


def test_gap_differs_from_sector_minima_difference():
    # the first excited state can live in the same sector as the ground state
    spec = cx.preset_halfway_xy(0.5, 0.3, 8)
    report = cx.ground_and_gap(spec)
    odd = cx.sector_levels(spec, Sector.ODD, 1)[0]
    even = cx.sector_levels(spec, Sector.EVEN, 1)[0]
    assert abs(report.gap - abs(odd - even)) > 1e-6
    exact = cx.exact_spectrum(cx.model_hamiltonian(spec), 2)
    assert report.gap == pytest.approx(exact[1] - exact[0], abs=1e-10)


# --- even-vacuum angles --------------------------------------------------------


def test_even_vacuum_angles_free_spins():
    assert cx.even_vacuum_angles(cx.preset_free(1.0, 8)) == pytest.approx([0.0] * 4)


def test_even_vacuum_angles_ising_tangent():
    spec = cx.preset_xny(0, 1.0, 0.0, 8)
    angles = cx.even_vacuum_angles(spec)
    for k, theta in enumerate(angles):
        phi = 2 * math.pi * (k + 0.5) / 8
        assert math.tan(2 * theta) == pytest.approx(-math.tan(phi), abs=1e-12)


def test_even_vacuum_angles_odd_sites_rejected():
    with pytest.raises(ValueError, match="even"):
        cx.even_vacuum_angles(cx.preset_free(1.0, 7))


def test_odd_site_counts_against_oracle():
    for sites in (5, 7):
        spec = cx.preset_xny(0, 0.7, 0.4, sites)
        report = cx.ground_and_gap(spec)
        exact = cx.exact_spectrum(cx.model_hamiltonian(spec), 2)
        assert report.ground_energy == pytest.approx(exact[0], abs=1e-10)
        assert report.gap == pytest.approx(exact[1] - exact[0], abs=1e-10)
