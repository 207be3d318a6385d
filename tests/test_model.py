import json
from collections import Counter

import numpy as np
import pytest

import clusterxy as cx
from clusterxy.freefermion import _mode_energies
from clusterxy.model import BlockKind, BlockSpec


def string_multiset(strings):
    return Counter((round(s.coefficient, 12), s.letters) for s in strings)


def random_spec(rng, sites):
    blocks = []
    for _ in range(int(rng.integers(0, 4))):
        kind = "x" if rng.random() < 0.5 else "y"
        blocks.append((kind, float(rng.normal()), int(rng.integers(0, sites - 1))))
    return cx.make_model(sites, float(rng.normal()), blocks)


def test_make_model_xzy_example():
    spec = cx.make_model(8, 1.0, [("x", 0.75, 1), ("y", 0.25, 1)])
    assert spec.sites == 8
    assert spec.field == 1.0
    assert spec.blocks[0] == BlockSpec(BlockKind.X, 0.75, 1)
    assert spec.blocks[1] == BlockSpec(BlockKind.Y, 0.25, 1)


def test_make_model_free_spin():
    spec = cx.make_model(4, 0.0, [])
    assert spec.blocks == ()
    assert cx.to_pauli_strings(spec) == []


def test_make_model_block_too_long():
    with pytest.raises(ValueError, match="fit"):
        cx.make_model(4, 1.0, [("x", 1.0, 3)])


def test_make_model_invalid_size():
    with pytest.raises(ValueError, match="sites"):
        cx.make_model(1, 0.0, [])


def test_make_model_non_finite():
    with pytest.raises(ValueError):
        cx.make_model(4, float("nan"), [])
    with pytest.raises(ValueError):
        cx.make_model(4, 0.0, [("x", float("inf"), 0)])
    with pytest.raises(ValueError):
        cx.make_model(4, 0.0, [("x", 1.0, -1)])


def test_zero_couplings_are_unsigned():
    # a coupling or field computed as -0.0 is stored as 0.0, so the model
    # echo of the CLI never prints "-0.0"
    spec = cx.make_model(8, -0.0, [("y", -0.0, 0)])
    assert str(spec.field) == str(spec.blocks[0].strength) == "0.0"
    for spec in (cx.preset_spt_afm(0.0, 8), cx.preset_ghz_cluster(1.0, 8), cx.preset_ghz_cluster(-1.0, 8)):
        assert "-0.0" not in json.dumps(cx.model_to_dict(spec))


def test_preset_xnmy_ising_limit():
    # n = m = 0, r = 1 is the transverse-field Ising chain
    spec = cx.preset_xnmy(0, 0, 1.0, 0.5, 8)
    assert spec.blocks[0] == BlockSpec(BlockKind.X, 1.0, 0)
    assert spec.blocks[1] == BlockSpec(BlockKind.Y, 0.0, 0)
    assert spec.field == 0.5


def test_preset_xnmy_xzy():
    spec = cx.preset_xnmy(1, 1, 0.5, 1.0, 8)
    assert spec.blocks[0] == BlockSpec(BlockKind.X, 0.75, 1)
    assert spec.blocks[1] == BlockSpec(BlockKind.Y, 0.25, 1)


def test_preset_xnmy_halfway():
    spec = cx.preset_xnmy(3, 3, 0.5, 0.0, 8)
    assert all(blk.mediators == 3 for blk in spec.blocks)
    assert cx.preset_halfway_xy(0.5, 0.0, 8) == spec


def test_preset_ghz_cluster_values():
    spec = cx.preset_ghz_cluster(0.0, 8)
    assert spec.field == 1.0
    assert [blk.strength for blk in spec.blocks] == [2.0, -1.0]
    assert [blk.mediators for blk in spec.blocks] == [0, 1]

    pure_para = cx.preset_ghz_cluster(1.0, 8)
    assert pure_para.field == 4.0
    assert all(blk.strength == 0.0 for blk in pure_para.blocks)

    pure_cluster = cx.preset_ghz_cluster(-1.0, 8)
    assert pure_cluster.field == 0.0
    assert [blk.strength for blk in pure_cluster.blocks] == [0.0, -4.0]


def test_preset_spt_afm_values():
    spec = cx.preset_spt_afm(1.0, 8)
    assert spec.field == 0.0
    assert spec.blocks[0] == BlockSpec(BlockKind.X, 1.0, 1)
    assert spec.blocks[1] == BlockSpec(BlockKind.Y, -1.0, 0)

    no_y = cx.preset_spt_afm(0.0, 8)
    assert no_y.blocks[1].strength == 0.0

    halfway = cx.preset_spt_afm(1.0, 8, halfway=True)
    assert halfway.blocks[0].mediators == 3


def test_presets_pass_validation():
    # every preset output is itself a valid input to make_model
    for spec in [
        cx.preset_xnmy(0, 0, 1.0, 0.5, 8),
        cx.preset_xny(2, 0.5, -1.0, 10),
        cx.preset_halfway_xy(0.7, 0.3, 12),
        cx.preset_ghz_cluster(-1.5, 6),
        cx.preset_spt_afm(2.0, 8, halfway=True),
        cx.preset_free(1.0, 4),
    ]:
        rebuilt = cx.make_model(spec.sites, spec.field, spec.blocks)
        assert rebuilt == spec


def test_to_pauli_strings_two_site_ising():
    spec = cx.make_model(2, 0.0, [("x", 1.0, 0)])
    assert string_multiset(cx.to_pauli_strings(spec)) == Counter({(-1.0, "XX"): 2})


def test_to_pauli_strings_xzy_wrapped():
    spec = cx.make_model(4, 0.3, [("x", 1.0, 1)])
    expected = Counter(
        {
            (-1.0, "XZXI"): 1,
            (-1.0, "IXZX"): 1,
            (-1.0, "XIXZ"): 1,
            (-1.0, "ZXIX"): 1,
            (-0.3, "ZIII"): 1,
            (-0.3, "IZII"): 1,
            (-0.3, "IIZI"): 1,
            (-0.3, "IIIZ"): 1,
        }
    )
    assert string_multiset(cx.to_pauli_strings(spec)) == expected


def test_to_pauli_strings_ghz_cluster():
    strings = cx.to_pauli_strings(cx.preset_ghz_cluster(0.0, 4))
    counts = string_multiset(strings)
    assert len(strings) == 12
    assert sum(n for (coef, s), n in counts.items() if coef == -2.0 and s.count("X") == 2 and "Z" not in s) == 4
    assert sum(n for (coef, s), n in counts.items() if coef == 1.0 and s.count("X") == 2 and s.count("Z") == 1) == 4
    assert sum(n for (coef, s), n in counts.items() if coef == -1.0 and s.count("Z") == 1 and s.count("I") == 3) == 4


def test_to_pauli_strings_count_and_zero_blocks():
    # zero-strength blocks are kept, so the count stays N * (#blocks + 1)
    spec = cx.preset_xnmy(1, 1, 1.0, 0.3, 6)
    assert spec.blocks[1].strength == 0.0
    strings = cx.to_pauli_strings(spec)
    assert len(strings) == 6 * 3
    no_field = cx.make_model(6, 0.0, spec.blocks)
    assert len(cx.to_pauli_strings(no_field)) == 6 * 2


def test_translation_covariance():
    rng = np.random.default_rng(42)
    for _ in range(10):
        sites = int(rng.integers(3, 9))
        spec = random_spec(rng, sites)
        strings = cx.to_pauli_strings(spec)
        shifted = Counter(
            (round(s.coefficient, 12), s.letters[-1] + s.letters[:-1]) for s in strings
        )
        assert shifted == string_multiset(strings)


def test_duplicate_blocks_allowed():
    spec = cx.make_model(6, 0.0, [("x", 0.5, 1), ("x", 0.25, 1)])
    assert len(spec.blocks) == 2
    # strengths add linearly in the spectrum: compare against the merged block
    merged = cx.make_model(6, 0.0, [("x", 0.75, 1)])
    for sector in (cx.Sector.ODD, cx.Sector.EVEN):
        eps_a = list(_mode_energies(spec, sector))
        eps_b = list(_mode_energies(merged, sector))
        assert eps_a == pytest.approx(eps_b, abs=1e-14)


def test_model_file_roundtrip(tmp_path):
    spec = cx.preset_ghz_cluster(0.25, 10)
    path = tmp_path / "model.json"
    cx.save_model(spec, path)
    data = json.loads(path.read_text())
    assert set(data) == {"sites", "field", "blocks"}
    assert data["blocks"][0]["kind"] == "x"
    assert cx.load_model(path) == spec


def test_model_file_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"sites": 8, "blocks": [{}]}))
    with pytest.raises(ValueError, match="malformed"):
        cx.load_model(path)
