import inspect
import sys
import time
import tracemalloc
from functools import reduce

import numpy as np
import pytest

import clusterxy as cx
from clusterxy.crosscheck import check_model, run_checks
from clusterxy.model import PauliString
from clusterxy.oracle import parity_sectors

from test_model import random_spec


def full_matrix(op) -> np.ndarray:
    """The 2^N x 2^N matrix of an oracle operator, assembled from its even
    and odd parity blocks."""
    h = np.zeros((op.dimension, op.dimension), dtype=np.result_type(*op.blocks))
    for idx, block in zip(parity_sectors(op.dimension.bit_length() - 1), op.blocks):
        h[np.ix_(idx, idx)] = block
    return h


def test_dense_single_z():
    op = cx.dense_hamiltonian([PauliString(1.0, "Z")])
    assert np.allclose(full_matrix(op), np.diag([1.0, -1.0]))


def test_dense_xx_antidiagonal():
    op = cx.dense_hamiltonian([PauliString(-1.0, "XX")])
    expected = np.zeros((4, 4))
    expected[0, 3] = expected[3, 0] = -1.0  # |uu> <-> |dd>
    expected[1, 2] = expected[2, 1] = -1.0  # |ud> <-> |du>
    assert np.allclose(full_matrix(op), expected)


_KRON_PAULI = {
    "I": np.eye(2),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]]),
}


def _kron_reference(strings):
    """Sum of the strings as Kronecker products of 2x2 Pauli matrices, site
    0 the leftmost factor."""
    n = len(strings[0].letters)
    h = np.zeros((2**n, 2**n), dtype=complex)
    for ps in strings:
        h += ps.coefficient * reduce(np.kron, [_KRON_PAULI[ch] for ch in ps.letters])
    return h


def test_dense_matches_kronecker_reference():
    rng = np.random.default_rng(5)
    cases = [[PauliString(0.7, "XY")], [PauliString(-1.3, "Y")],
             [PauliString(0.4, "YZY"), PauliString(1.1, "XIY"), PauliString(-0.2, "ZZI")]]
    for _ in range(60):
        n = int(rng.integers(1, 7))
        cases.append([
            PauliString(float(rng.normal()), "".join(rng.choice(list("IXYZ"), size=n)))
            for _ in range(int(rng.integers(1, 6)))
        ])
    built = rejected = 0
    for strings in cases:
        letters = [ps.letters for ps in strings]
        if any((ps.letters.count("X") + ps.letters.count("Y")) % 2 for ps in strings):
            with pytest.raises(ValueError, match="odd number"):
                cx.dense_hamiltonian(strings)
            rejected += 1
            continue
        op = cx.dense_hamiltonian(strings)
        reference = _kron_reference(strings)
        even, odd = parity_sectors(len(letters[0]))
        assert not np.any(reference[np.ix_(even, odd)]), letters
        assert not np.any(reference[np.ix_(odd, even)]), letters
        for idx, block in zip((even, odd), op.blocks):
            assert np.array_equal(block, reference[np.ix_(idx, idx)]), letters
        odd_y = any(ps.letters.count("Y") % 2 for ps in strings)
        assert all(np.iscomplexobj(block) == odd_y for block in op.blocks)
        built += 1
    assert built >= 10 and rejected >= 10


def test_parity_blocks_match_full_spectrum():
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(12):
        spec = random_spec(rng, int(rng.integers(2, 9)))
        if not spec.blocks and spec.field == 0.0:
            continue
        op = cx.model_hamiltonian(spec)
        full = np.linalg.eigh(_kron_reference(cx.to_pauli_strings(spec)))[0]
        blocked = np.array(cx.exact_spectrum(op, op.dimension))
        assert np.max(np.abs(blocked - full)) <= 1e-12
        checked += 1
    assert checked >= 8


def test_check_point_diagonalizes_once(monkeypatch):
    calls = []
    eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh

    def counting(name, func):
        def wrapper(a, *args, **kwargs):
            calls.append((name, a.shape[0]))
            return func(a, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(cx.oracle.np.linalg, "eigh", counting("eigh", eigh))
    monkeypatch.setattr(cx.oracle.np.linalg, "eigvalsh", counting("eigvalsh", eigvalsh))
    rows = check_model("spt-afm", cx.preset_spt_afm(0.5, 8), 0.5)
    assert [row.check for row in rows] == [
        "energy", "gap", "state_fidelity", "overlap_site", "overlap_block"]
    assert all(row.passed for row in rows)
    # the even and the odd parity block, 2^7 each, and no full 2^8 call
    assert calls == [("eigh", 128), ("eigh", 128)]


def test_check_reads_the_maximizers_evaluator(monkeypatch):
    # check compares the dense overlaps with the log-overlap evaluator the
    # maximizers run, so a 1e-6 shift of its values fails both overlap rows;
    # N = 10 has the unpaired half-weight row
    spec = cx.preset_spt_afm(0.5, 10)
    assert all(row.passed for row in check_model("spt-afm", spec, 0.5))
    log_overlaps = cx.entanglement._log_overlaps
    monkeypatch.setattr(cx.entanglement, "_log_overlaps",
                        lambda *args, **kwargs: log_overlaps(*args, **kwargs) + 1e-6)
    failed = [row.check for row in check_model("spt-afm", spec, 0.5) if not row.passed]
    assert failed == ["overlap_site", "overlap_block"]


def test_run_checks_reads_sites_once():
    # a generator of sizes is consumed once, so it gives the rows of a tuple
    rows = run_checks(sites=(n for n in [8]), presets=["xy"], points=2)
    assert len(rows) == 10
    assert rows == run_checks(sites=(8,), presets=["xy"], points=2)


def test_dense_operator_rejects_non_hermitian():
    def operator(block):
        # the block under test is the odd one; the even one is Hermitian
        return cx.DenseOperator(4, (np.eye(2), block))

    with pytest.raises(ValueError, match="Hermitian"):
        operator(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="Hermitian"):
        operator(np.array([[0.0, 1.0j], [1.0j, 0.0]]))
    with pytest.raises(ValueError, match="Hermitian"):
        operator(np.array([[1.0, 2e-12], [0.0, 1.0]]))
    # the tolerance is absolute: a 1e-6 asymmetry next to entries of order
    # one is rejected, and one below 1e-12 is accepted
    with pytest.raises(ValueError, match="Hermitian"):
        operator(np.array([[1.0, 1.0], [1.0 + 1e-6, 1.0]]))
    assert operator(np.array([[1.0, 1.0], [1.0 + 5e-13, 1.0]])).dimension == 4


def test_dense_rejects_odd_flip_strings():
    # a string flipping an odd number of sites changes the fermion parity,
    # so it has no place in the two parity blocks
    for letters in ("X", "Y", "XZ", "YZZ"):
        with pytest.raises(ValueError, match=f"'{letters}' flips an odd number"):
            cx.dense_hamiltonian([PauliString(1.0, letters)])
    with pytest.raises(ValueError, match="odd number"):
        cx.dense_hamiltonian([PauliString(1.0, "XX"), PauliString(0.5, "IY")])


def test_dense_operator_rejects_wrong_block_shapes():
    for dimension, blocks in [
        (4, (np.eye(2), np.eye(3))),
        (4, (np.eye(4), np.eye(4))),
        (6, (np.eye(3), np.eye(3))),
        (1, (np.zeros((0, 0)), np.zeros((0, 0)))),
        (4, (np.eye(2),)),
    ]:
        with pytest.raises(ValueError, match="parity blocks"):
            cx.DenseOperator(dimension, blocks)


def test_model_hamiltonian_peak_memory():
    # the two real parity blocks take 2 * 4^(N-1) * 8 bytes, half of one
    # full 2^N x 2^N matrix; the build and its Hermiticity guard may add at
    # most one block-sized buffer on top
    n = 10
    spec = cx.preset_spt_afm(0.5, n)
    tracemalloc.start()
    try:
        cx.model_hamiltonian(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.8 * 8 * 4**n, f"peak {peak} bytes"


def test_dense_size_guard():
    strings = [PauliString(1.0, "Z" * 15)]
    with pytest.raises(ValueError, match="capped"):
        cx.dense_hamiltonian(strings)


def test_dense_hermitian_random_specs():
    rng = np.random.default_rng(3)
    for _ in range(8):
        spec = random_spec(rng, int(rng.integers(2, 7)))
        if not spec.blocks and spec.field == 0.0:
            continue
        op = cx.model_hamiltonian(spec)
        for block in op.blocks:
            assert np.allclose(block, block.conj().T, atol=1e-12)


def test_exact_spectrum_diag():
    op = cx.dense_hamiltonian([PauliString(1.0, "Z")])
    assert cx.exact_spectrum(op, 2) == pytest.approx([-1.0, 1.0])


def test_xzy_oracle_matches_freefermion():
    spec = cx.preset_xny(1, 0.5, 1.0, 8)
    lowest = cx.exact_spectrum(cx.model_hamiltonian(spec), 1)[0]
    assert lowest == pytest.approx(cx.ground_and_gap(spec).ground_energy, abs=1e-9)


def _sector_ground_energies(spec) -> tuple[float, float]:
    """Lowest dense eigenvalue in the even and in the odd fermion-parity
    block of H."""
    even, odd = cx.model_hamiltonian(spec).eigensystem
    return float(even[0][0]), float(odd[0][0])


def test_halfway_level_crossing_location():
    # the lowest levels of the two parity sectors cross near the top of the
    # finite-size Barouch-McCoy window, where |E_odd - E_even| dips to zero.
    # Below the crossing the odd-sector ground level is itself exactly
    # doubly degenerate, so the gap of the full spectrum is rounding noise
    # there; the dense levels are therefore resolved by parity.
    hs = np.linspace(0.6, 1.0, 41)
    dense = []
    analytic = []
    for h in hs:
        spec = cx.preset_halfway_xy(0.5, float(h), 8)
        dense_even, dense_odd = _sector_ground_energies(spec)
        dense.append(dense_odd - dense_even)
        odd = cx.sector_levels(spec, cx.Sector.ODD, 1)[0]
        even = cx.sector_levels(spec, cx.Sector.EVEN, 1)[0]
        analytic.append(odd - even)
    dense = np.array(dense)
    analytic = np.array(analytic)
    mismatch = float(np.max(np.abs(dense - analytic)))
    assert mismatch <= 1e-9
    assert analytic[0] < 0 < analytic[-1]
    changes = np.flatnonzero(np.diff(np.sign(analytic)))
    assert np.array_equal(np.flatnonzero(np.diff(np.sign(dense))), changes)
    crossing = hs[changes[0]]
    dip = hs[int(np.argmin(np.abs(dense)))]
    print(
        f"sector crossing in ({crossing:.2f}, {hs[changes[0] + 1]:.2f}), "
        f"|E_odd - E_even| dips to {np.min(np.abs(dense)):.4f} at h={dip:.2f}, "
        f"dense vs free-fermion {mismatch:.1e}"
    )
    assert 0.75 < crossing < 0.9
    assert abs(dip - crossing) <= 0.02
    assert np.min(np.abs(dense)) < 0.05


def test_ghz_gap_from_spectrum():
    spec = cx.preset_ghz_cluster(0.3, 8)
    vals = cx.exact_spectrum(cx.model_hamiltonian(spec), 2)
    assert vals[1] - vals[0] == pytest.approx(8 * 0.3**2, abs=1e-9)


def test_ground_state_field_only():
    spec = cx.preset_free(1.0, 4)
    vec = cx.exact_ground_state(cx.model_hamiltonian(spec))
    expected = np.zeros(16)
    expected[0] = 1.0
    assert np.allclose(vec, expected, atol=1e-12)


def test_ground_state_reconstruction_fidelity():
    for spec in [
        cx.preset_xny(0, 1.0, 0.2, 8),
        cx.preset_xny(1, 0.5, 0.7, 8),
        cx.preset_ghz_cluster(0.5, 6),
        cx.preset_spt_afm(0.5, 10),
    ]:
        ground = cx.exact_ground_state(cx.model_hamiltonian(spec))
        recon = cx.reconstruct_even_vacuum(cx.even_vacuum_angles(spec))
        assert np.linalg.norm(recon) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.vdot(ground, recon)) > 1 - 1e-9


def test_corrupted_angle_sign_breaks_fidelity():
    spec = cx.preset_xny(0, 1.0, 0.2, 8)
    ground = cx.exact_ground_state(cx.model_hamiltonian(spec))
    corrupted = cx.reconstruct_even_vacuum(-cx.even_vacuum_angles(spec))
    assert abs(np.vdot(ground, corrupted)) < 1 - 1e-6


def test_cluster_state_stabilizers():
    # lambda = 0 leaves the pure cluster Hamiltonian; its ground state obeys
    # every X Z X stabilizer with eigenvalue +1
    spec = cx.preset_spt_afm(0.0, 8)
    vec = cx.exact_ground_state(cx.model_hamiltonian(spec))
    for j in range(8):
        letters = ["I"] * 8
        letters[(j - 1) % 8] = "X"
        letters[j] = "Z"
        letters[(j + 1) % 8] = "X"
        stab = cx.dense_hamiltonian([PauliString(1.0, "".join(letters))])
        expectation = np.vdot(vec, full_matrix(stab) @ vec).real
        assert expectation == pytest.approx(1.0, abs=1e-10)


def test_ground_state_parity_tiebreak():
    # on the factorization circle the ground level is exactly degenerate;
    # the returned representative must have even fermion parity, taken from
    # the even parity block
    spec = cx.preset_xny(0, 0.6, 0.8, 8)
    op = cx.model_hamiltonian(spec)
    vals = cx.exact_spectrum(op, 2)
    assert vals[1] - vals[0] == pytest.approx(0.0, abs=1e-10)
    vec = cx.exact_ground_state(op)
    even = vec[parity_sectors(8)[0]]
    assert np.vdot(even, even).real == pytest.approx(1.0, abs=1e-9)


def test_direct_overlap_trivial():
    state = np.zeros(2**8)
    state[0] = 1.0
    assert cx.direct_overlap(state, cx.SiteAnsatz(0.0)) == pytest.approx(1.0)
    half = cx.direct_overlap(state, cx.SiteAnsatz(np.pi / 2))
    assert half == pytest.approx((1 / np.sqrt(2)) ** 8, abs=1e-12)


def test_direct_overlap_ghz_best_site():
    # at the GHZ point the best product overlap squared is 1/2, i.e. the
    # overlap itself is 1/sqrt(2)
    spec = cx.preset_ghz_cluster(0.0, 8)
    vec = cx.exact_ground_state(cx.model_hamiltonian(spec))
    result = cx.brute_max_overlap(vec, "site")
    assert result.lambda_max == pytest.approx(1 / np.sqrt(2), abs=1e-7)
    assert result.eg_total == pytest.approx(1.0, abs=1e-6)


def test_direct_overlap_dimension_mismatch():
    with pytest.raises(ValueError):
        cx.direct_overlap(np.ones(3) / np.sqrt(3), cx.SiteAnsatz(0.0))
    odd = np.ones(2**5) / np.sqrt(2**5)
    for amps, message in [([1.0, 0.0, 0.0], "2 or 4 amplitudes"), ([1.0, 0.0, 0.0, 0.0], "even sites"),
                          ([0.0, 0.0], "all zero")]:
        with pytest.raises(ValueError, match=message):
            cx.direct_overlap(odd, amps)


def test_oracle_reads_no_free_fermion_code(monkeypatch):
    # the oracle checks the free-fermion solver, so it binds none of its
    # names and runs with the solver's mode energies and dispersion unavailable
    for name, value in vars(cx.oracle).items():
        origin = value.__name__ if inspect.ismodule(value) else getattr(value, "__module__", None)
        assert origin != "clusterxy.freefermion", name
    spec = cx.preset_xny(1, 0.5, 0.7, 8)
    angles = cx.even_vacuum_angles(spec)
    analytic = cx.maximize_site(spec)

    def unavailable(*args):
        raise AssertionError("free-fermion mode energies or dispersion read")

    solver = (cx.freefermion._mode_energies, cx.freefermion.dispersion)
    for module in [m for name, m in sys.modules.items() if name.startswith("clusterxy")]:
        for name, value in list(vars(module).items()):
            if any(value is f for f in solver):
                monkeypatch.setattr(module, name, unavailable)
    with pytest.raises(AssertionError, match="mode energies"):
        cx.even_vacuum_angles(spec)
    ground = cx.exact_ground_state(cx.model_hamiltonian(spec))
    assert abs(np.vdot(ground, cx.reconstruct_even_vacuum(angles))) > 1 - 1e-9
    brute = cx.brute_max_overlap(ground, "site")
    assert brute.lambda_max == pytest.approx(analytic.lambda_max, abs=1e-6)
    assert cx.direct_overlap(ground, analytic.optimum) == pytest.approx(analytic.lambda_max, abs=1e-9)


def test_product_states_match_kronecker_reference():
    # direct_overlap expands v^{tensor L} itself; the same products as
    # np.kron, so the overlap is the reference's bit for bit
    rng = np.random.default_rng(17)
    for n in range(2, 11):
        state = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        for width in (2, 4):
            if width == 4 and n % 2:
                continue
            v = rng.normal(size=width) + 1j * rng.normal(size=width)
            legs = n if width == 2 else n // 2
            reference = abs(np.vdot(reduce(np.kron, [v] * legs), state)) / np.linalg.norm(v) ** legs
            assert cx.direct_overlap(state, v) == reference, (n, width)


def test_brute_product_state_has_zero_entanglement():
    state = reduce(np.kron, [np.array([0.6, 0.8])] * 6)
    for kind in ("site", "block", "af_site"):
        res = cx.brute_max_overlap(state, kind)
        assert res.eg_total == pytest.approx(0.0, abs=1e-9)
        assert res.eg_total >= 0.0


def test_brute_site_matches_analytic():
    spec = cx.preset_xny(1, 1.0, 0.5, 8)
    vec = cx.exact_ground_state(cx.model_hamiltonian(spec))
    brute = cx.brute_max_overlap(vec, "site")
    analytic = cx.maximize_site(spec)
    assert brute.lambda_max == pytest.approx(analytic.lambda_max, abs=1e-6)


def test_brute_af_matches_analytic_real_family():
    spec = cx.preset_spt_afm(2.0, 8)
    vec = cx.exact_ground_state(cx.model_hamiltonian(spec))
    brute = cx.brute_max_overlap(vec, "af_site", complex_amplitudes=False)
    analytic = cx.maximize_site_af(spec)
    assert brute.lambda_max == pytest.approx(analytic.lambda_max, abs=1e-6)


def test_brute_rejects_unknown_kind(monkeypatch):
    def no_overlaps(*args):
        raise AssertionError("direct_overlap called for an unknown kind")

    monkeypatch.setattr(cx.oracle, "direct_overlap", no_overlaps)
    state = reduce(np.kron, [np.array([0.6, 0.8])] * 4)
    with pytest.raises(ValueError, match="'site', 'block' or 'af_site'"):
        cx.brute_max_overlap(state, "pair")


def test_brute_validates_before_searching(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        raise AssertionError("minimize called on an invalid request")

    monkeypatch.setattr(cx.oracle, "minimize", counted)
    odd = reduce(np.kron, [np.array([0.6, 0.8])] * 5)
    for state, kind, message in [
        (odd, "pair", "'site', 'block' or 'af_site'"),
        (np.ones(12) / np.sqrt(12), "site", "power of two"),
        (odd, "block", "even sites"),
        (odd, "af_site", "even sites"),
    ]:
        with pytest.raises(ValueError, match=message):
            cx.brute_max_overlap(state, kind)
    assert calls == []


def test_product_contraction_matches_kronecker_reference():
    # the value is the overlap with the unnormalized product state, and G
    # its derivative in conj(v): d/dRe v = G and d/dIm v = -i G
    rng = np.random.default_rng(29)
    step = 1e-6
    for width in (2, 4):
        for n in range(2, 13):
            if width == 4 and n % 2:
                continue
            state = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            v = rng.normal(size=width) + 1j * rng.normal(size=width)
            legs = n if width == 2 else n // 2
            value, grad = cx.oracle._product_contraction(state, v)
            reference = cx.direct_overlap(state, v) * np.linalg.norm(v) ** legs
            assert abs(value) == pytest.approx(reference, rel=1e-12)
            for shift, slope in [(1.0, grad), (1j, -1j * grad)]:
                central = np.array([
                    cx.oracle._product_contraction(state, v + step * shift * e)[0]
                    - cx.oracle._product_contraction(state, v - step * shift * e)[0]
                    for e in np.eye(width)
                ]) / (2 * step)
                np.testing.assert_allclose(central, slope, rtol=1e-6, atol=1e-8 * abs(grad).max())


def test_brute_matches_analytic_maximizers_at_12_sites():
    # no size cap: at N=12 the real brute force reproduces the site,
    # period-2 and block maximizers within a CPU-time budget
    spec = cx.preset_spt_afm(0.5, 12)
    vec = cx.exact_ground_state(cx.model_hamiltonian(spec))
    start = time.process_time()
    brute = {kind: cx.brute_max_overlap(vec, kind, complex_amplitudes=False)
             for kind in ("site", "af_site", "block")}
    cpu = time.process_time() - start
    for kind, maximize in [("site", cx.maximize_site), ("af_site", cx.maximize_site_af),
                           ("block", cx.maximize_block)]:
        assert brute[kind].lambda_max == pytest.approx(maximize(spec).lambda_max, abs=1e-10)
    assert cpu <= 3.0


def test_brute_starts_all_alive_at_8_sites(monkeypatch):
    # every start of every family sees a nonzero overlap at N=8; the af_site
    # unit-vector starts used to leave a zero part, a (x) 0, and score inf
    results = []

    def recording(*args, **kwargs):
        results.append(minimize(*args, **kwargs))
        return results[-1]

    minimize = cx.oracle.minimize
    monkeypatch.setattr(cx.oracle, "minimize", recording)
    for spec in (cx.preset_spt_afm(2.0, 8), cx.preset_xny(1, 1.0, 0.5, 8)):
        vec = cx.exact_ground_state(cx.model_hamiltonian(spec))
        for kind in ("site", "af_site", "block"):
            for complex_amplitudes in (False, True):
                results.clear()
                cx.brute_max_overlap(vec, kind, complex_amplitudes=complex_amplitudes)
                dead = sum(not np.isfinite(res.fun) for res in results)
                assert results and dead == 0, (spec, kind, complex_amplitudes, dead)


def test_real_amplitudes_optimal_for_xz_ordered_models():
    # complex product amplitudes give no advantage for models ordering in
    # the x/z plane (the pairing structure is real there)
    for spec in [
        cx.preset_xny(0, 0.5, 0.7, 8),
        cx.preset_xny(1, 1.0, 0.5, 8),
        cx.preset_halfway_xy(1.0, 0.3, 8),
        cx.preset_ghz_cluster(0.5, 8),
        cx.preset_spt_afm(0.5, 8),
    ]:
        vec = cx.exact_ground_state(cx.model_hamiltonian(spec))
        for kind in ("site", "block"):
            real = cx.brute_max_overlap(vec, kind, complex_amplitudes=False)
            cplx = cx.brute_max_overlap(vec, kind, complex_amplitudes=True)
            assert cplx.lambda_max - real.lambda_max < 1e-8


def test_complex_amplitudes_win_in_afm_phase():
    # in the antiferromagnetic phase the staggered order points along y, so
    # the closest product states need complex amplitudes; the real-amplitude
    # restriction is a genuine (documented) limitation there
    spec = cx.preset_spt_afm(2.0, 8)
    vec = cx.exact_ground_state(cx.model_hamiltonian(spec))
    real = cx.brute_max_overlap(vec, "block", complex_amplitudes=False)
    cplx = cx.brute_max_overlap(vec, "block", complex_amplitudes=True)
    assert cplx.lambda_max > real.lambda_max + 0.1
