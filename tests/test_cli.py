import argparse
import csv
import importlib.util
import io
import json
from pathlib import Path

import pytest

import clusterxy as cx
from clusterxy import cli, crosscheck
from clusterxy.model import PRESETS
from clusterxy.oracle import model_hamiltonian
from clusterxy.cli import main, parse_sweep, sweep_points


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    reader = csv.reader(io.StringIO("\n".join(lines)))
    rows = list(reader)
    return rows[0], rows[1:]


def test_sweep_points_inclusive_endpoints():
    pts = sweep_points(0.0, 1.0, 0.25)
    assert pts == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_parse_sweep_rejects_partial_step():
    # no grid of these ends at stop without moving a point (0:1:0.3 would
    # need 0.9 moved to 1.0) or dropping the start (0:1:10 would give [1.0])
    for text in ("h:0:1:0.3", "h:0:1:10", "h:0:1:2.5", "h:0:1e-12:1"):
        with pytest.raises(ValueError, match="whole number of steps"):
            parse_sweep(text)
    pts = sweep_points(*parse_sweep("h:0:1:0.1")[1:])
    assert len(pts) == 11 and pts[-1] == 1.0


def test_parse_sweep_rejects_non_finite():
    # an infinite or NaN bound or step used to make sweep_points append
    # points until memory ran out
    for text in (
        "h:nan:1:0.1",
        "h:-inf:1:0.1",
        "h:0:nan:0.1",
        "h:0:inf:0.1",
        "h:0:1:nan",
        "h:0:1:inf",
    ):
        with pytest.raises(ValueError, match="finite"):
            parse_sweep(text)


def test_parse_sweep_rejects_too_many_points():
    # 10^12 steps passed every check, and sweep_points then built the list
    # until memory ran out; MAX_SWEEP_POINTS points are still accepted
    for text in ("h:0:1:1e-12", "h:0:1:1e-5", "h:-1e308:1e308:1e-300"):
        with pytest.raises(ValueError, match=f"more than {cli.MAX_SWEEP_POINTS} points"):
            parse_sweep(text)
    last = (cli.MAX_SWEEP_POINTS - 1) * 1e-5
    assert len(sweep_points(*parse_sweep(f"h:0:{last!r}:1e-5")[1:])) == cli.MAX_SWEEP_POINTS


def test_ent_scan_rejects_partial_step_sweep_before_solving(monkeypatch, capsys):
    # a range that is not a whole number of steps exits 2 before any point
    # is solved, with or without the derivative; so does a quantity listed
    # twice, which used to print its columns twice and solve it twice
    built = []

    class Counting(cli.EvenVacuumAnalysis):
        def __init__(self, spec):
            built.append(spec)
            super().__init__(spec)

    monkeypatch.setattr(cli, "EvenVacuumAnalysis", Counting)
    base = ["ent-scan", "--model", "xzy", "--r", "0.5", "--sites", "16"]
    for sweep in ("h:0:1:0.3", "h:0:1:10"):
        for quantities in ("ent_site", "ent_site,derivative"):
            code, out, err = run_cli(base + ["--sweep", sweep, "--quantities", quantities], capsys)
            assert code == 2
            assert "whole number of steps" in err and out == ""
    code, out, err = run_cli(
        base + ["--sweep", "h:0.5:1:0.5", "--quantities", "ent_site,ent_site,derivative"], capsys
    )
    assert code == 2
    assert "more than once" in err and out == ""
    assert built == []


def test_repeated_size_exits_2_before_solving(monkeypatch, capsys):
    # a size listed twice used to batch and solve every point twice and
    # print each row twice
    solved = []

    class Counting(cli.EvenVacuumAnalysis):
        def __init__(self, spec):
            solved.append(spec)
            super().__init__(spec)

    monkeypatch.setattr(cli, "EvenVacuumAnalysis", Counting)
    monkeypatch.setattr(cli, "ground_and_gap", lambda spec: solved.append(spec))
    sweep = ["--model", "xzy", "--r", "0.5", "--sites", "16,64,16", "--sweep", "h:0.8:1.2:0.1"]
    for argv in (["ent-scan", *sweep, "--quantities", "ent_site"], ["gap-scan", *sweep]):
        code, out, err = run_cli(argv, capsys)
        assert code == 2, argv
        assert "more than once" in err and out == "", argv
    assert solved == []


def test_unread_or_swept_options_exit_2_before_solving(monkeypatch, tmp_path, capsys):
    # an option the model never reads, or one that sets the swept parameter,
    # used to be dropped without a word while the echo showed its value
    built = []
    monkeypatch.setattr(cli.Scan, "model", lambda self, sites, value: built.append(value))
    path = tmp_path / "model.json"
    cx.save_model(cx.preset_xny(1, 0.5, 0.3, 8), path)
    cases = [
        ("--g", ["gap-scan", "--model", "xzy", "--r", "0.5", "--g", "0.7", "--h", "0.3",
                 "--sites", "8", "--sweep", "r:0:1:0.5"]),
        ("--h", ["gap-scan", "--model", "xzy", "--r", "0.5", "--h", "0.3", "--sites", "8",
                 "--sweep", "h:0:1:0.5"]),
        ("--r", ["ent-scan", "--model", "xzy", "--r", "0.5", "--sites", "8",
                 "--sweep", "r:0:1:0.5"]),
        ("--lambda", ["thermo", "--model", "xy", "--lambda", "1", "--sweep", "h:1.5:2:0.5"]),
        ("--m", ["gap-scan", "--model", "xny", "--m", "1", "--sites", "8", "--sweep", "m:0:2:1"]),
        ("--h", ["gap-scan", "--model-file", str(path), "--h", "0.5", "--sweep", "h:0:1:0.5"]),
    ]
    for option, argv in cases:
        code, out, err = run_cli(argv, capsys)
        assert code == 2, argv
        assert option in err and out == "", argv
    assert built == []


def test_thermo_rejects_sites(capsys):
    # the density does not depend on a system size, so thermo takes none
    with pytest.raises(SystemExit) as exc:
        main(["thermo", "--model", "xy", "--r", "1", "--sweep", "h:1.5:2:0.5", "--sites", "8"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_presets_listing(capsys):
    code, out, _ = run_cli(["presets"], capsys)
    assert code == 0
    for name in ("xy", "xzy", "halfway-xy", "ghz-cluster", "spt-afm"):
        assert name in out


def test_gap_scan_ghz_values(capsys):
    code, out, _ = run_cli(
        ["gap-scan", "--model", "ghz-cluster", "--sweep", "g:-1.5:1.5:0.5", "--sites", "8"],
        capsys,
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["sweep_value", "sites", "gap", "model"]
    gaps = {float(r[0]): float(r[2]) for r in rows}
    for g, gap in gaps.items():
        expected = 8 * g * g if abs(g) < 1 else 8.0
        assert gap == pytest.approx(expected, abs=1e-9)


def test_output_deterministic(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    argv = [
        "ent-scan", "--model", "xzy", "--r", "1", "--sweep", "h:0.5:1.5:0.25",
        "--sites", "16", "--quantities", "ent_site,ent_block,derivative",
    ]
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    capsys.readouterr()
    text_a = out_a.read_bytes()
    text_b = out_b.read_bytes()
    assert text_a == text_b


def test_ent_scan_flags_non_even_vacuum_points(capsys):
    code, out, _ = run_cli(
        [
            "ent-scan", "--model", "halfway-xy", "--r", "0.5",
            "--sweep", "h:0.5:1.1:0.1", "--sites", "8", "--quantities", "ent_site",
        ],
        capsys,
    )
    assert code == 0
    header, rows = parse_csv(out)
    flag_col = header.index("even_vacuum")
    value_col = header.index("ent_site")
    flagged = [r for r in rows if r[flag_col] == "false"]
    clean = [r for r in rows if r[flag_col] == "true"]
    assert flagged and clean
    assert all(r[value_col] == "" for r in flagged)
    assert all(r[value_col] != "" for r in clean)


def test_spectrum_columns_and_parity(capsys):
    code, out, _ = run_cli(
        ["spectrum", "--model", "xzy", "--r", "0.5", "--sweep", "h:0:0.4:0.2",
         "--sites", "8", "--levels", "3"],
        capsys,
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header[:6] == ["sweep_value", "sites", "sector", "level", "energy", "occupation_size"]
    assert len(rows) == 3 * 2 * 3  # points x sectors x levels
    for r in rows:
        occ = int(r[5])
        assert occ % 2 == (1 if r[2] == "odd" else 0)


def test_model_file_equivalent_to_preset(tmp_path, capsys):
    spec = cx.preset_xny(1, 0.5, 0.0, 8)
    path = tmp_path / "model.json"
    cx.save_model(spec, path)
    code_file, out_file, _ = run_cli(
        ["gap-scan", "--model-file", str(path), "--sweep", "h:0:1:0.5"], capsys
    )
    code_preset, out_preset, _ = run_cli(
        ["gap-scan", "--model", "xzy", "--r", "0.5", "--sweep", "h:0:1:0.5", "--sites", "8"],
        capsys,
    )
    assert code_file == code_preset == 0
    _, rows_file = parse_csv(out_file)
    _, rows_preset = parse_csv(out_preset)
    assert [r[:3] for r in rows_file] == [r[:3] for r in rows_preset]
    assert [r[3] for r in rows_file] == [r[3] for r in rows_preset]
    # the field is the one parameter of a model file
    code, out, err = run_cli(["gap-scan", "--model-file", str(path), "--sweep", "r:0:1:0.5"], capsys)
    assert code == 2
    assert "cannot sweep 'r'" in err and out == ""


def test_json_format(capsys):
    code, out, _ = run_cli(
        ["gap-scan", "--model", "free", "--sweep", "h:0.5:1:0.5",
         "--sites", "4", "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["request"]["command"] == "gap-scan"
    assert payload["columns"][:3] == ["sweep_value", "sites", "gap"]
    for row in payload["rows"]:
        assert row[2] == pytest.approx(2.0 * row[0])  # free spins: gap = 2h


def test_thermo_verb(capsys):
    code, out, _ = run_cli(["thermo", "--model", "xy", "--r", "1", "--sweep", "h:1.5:2:0.5"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header[:2] == ["sweep_value", "thermo_block_density"]
    assert all(float(r[1]) >= 0 for r in rows)


def test_thermo_prints_unsigned_zero(capsys):
    # free spins have a flat angle at h=0.5 and h=1: the density is 0, not -0
    code, out, _ = run_cli(["thermo", "--model", "free", "--sweep", "h:0.5:1:0.5"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert [r[1] for r in rows] == ["0", "0"]


def test_thermo_rejects_halfway(capsys):
    cases = [
        ["--model", "halfway-xy", "--sweep", "h:0:1:0.5"],
        ["--model", "spt-afm-halfway", "--sweep", "lambda:0.2:0.6:0.2"],
    ]
    for argv in cases:
        code, _, err = run_cli(["thermo", *argv], capsys)
        assert code == 2, argv
        assert "halfway" in err, argv


def test_integer_parameter_sweep(capsys):
    base = ["gap-scan", "--model", "xny", "--r", "0.5", "--h", "0.5", "--sites", "8"]
    code, out, err = run_cli(base + ["--sweep", "n:0:1:0.5"], capsys)
    assert code == 2
    assert "integer" in err and out == ""
    code, _, err = run_cli(base + ["--sweep", "m:0:1:0.5"], capsys)
    assert code == 2
    assert "integer" in err
    code, out, _ = run_cli(base + ["--sweep", "n:0:2:1"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert [json.loads(r[3])["blocks"][0]["mediators"] for r in rows] == [0, 1, 2]


def test_model_file_rejects_fractional_sizes(tmp_path, capsys):
    # sites 8.7 or mediators 1.5 used to run as 8 sites and 1 mediator
    block = {"kind": "x", "strength": 0.75, "mediators": 1}
    good = {"sites": 8, "field": 0.5, "blocks": [block]}
    cases = {
        "sites": dict(good, sites=8.7),
        "mediators": dict(good, blocks=[dict(block, mediators=1.5)]),
        "whole": dict(good, sites=8.0),  # integral floats still load
    }
    for key, data in cases.items():
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(
            ["gap-scan", "--model-file", str(path), "--sweep", "h:0.5:0.6:0.1"], capsys
        )
        if key == "whole":
            assert code == 0
        else:
            assert code == 2, key
            assert f"{key} must be an integer" in err and out == ""


def test_removed_spellings_exit_2(monkeypatch, tmp_path, capsys):
    # each model and parameter has one spelling: `xny --halfway` is the
    # preset halfway-xy, `spt-afm --halfway` is spt-afm-halfway, and the
    # field is swept as h, also for a model file
    built = []
    monkeypatch.setattr(cli.Scan, "model", lambda self, sites, value: built.append(value))
    path = tmp_path / "model.json"
    cx.save_model(cx.preset_xny(1, 0.5, 0.3, 8), path)
    halfway = [
        ["--model", "xny", "--halfway", "--r", "0.5", "--sweep", "h:0:1:0.5"],
        ["--model", "spt-afm", "--halfway", "--sweep", "lambda:0.2:0.6:0.2"],
    ]
    field = [
        ["--model", "xzy", "--r", "0.5", "--sweep", "field:0:1:0.5"],
        ["--model-file", str(path), "--sweep", "field:0:1:0.5"],
    ]
    for verb in cli.SCAN_VERBS:
        for argv in halfway:
            with pytest.raises(SystemExit) as exc:
                main([verb, *argv])
            assert exc.value.code == 2, (verb, argv)
            captured = capsys.readouterr()
            assert "--halfway" in captured.err and captured.out == "", (verb, argv)
        for argv in field:
            code, out, err = run_cli([verb, *argv], capsys)
            assert code == 2, (verb, argv)
            assert "cannot sweep 'field'" in err and out == "", (verb, argv)
    assert built == []


def test_scan_options_are_the_preset_parameters():
    # a preset-parameter option that no preset reads cannot come back: the
    # scan parsers offer exactly the parameters of the preset registry
    parameters = {p for preset in PRESETS.values() for p in preset.parameters}
    assert set(cli.PARAMETER_DEFAULTS) == parameters
    general = {"help", "model", "model_file", "sweep", "out", "format", "sites", "levels", "quantities"}
    parser = cli.build_parser()
    verbs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    for verb in cli.SCAN_VERBS:
        assert {a.dest for a in verbs[verb]._actions} - general == parameters, verb


def test_validation_errors_exit_2(capsys):
    cases = [
        ["gap-scan", "--model", "nosuch", "--sweep", "h:0:1:0.5"],
        ["gap-scan", "--model", "xy", "--sweep", "h:1:0:0.5"],
        ["gap-scan", "--model", "xy", "--sweep", "h:0:1:-0.5"],
        ["gap-scan", "--model", "xy", "--sweep", "g:0:1:0.5"],
        ["gap-scan", "--sweep", "h:0:1:0.5"],
        ["ent-scan", "--model", "xy", "--sweep", "h:0:1:0.5", "--sites", "7",
         "--quantities", "ent_site"],
        ["ent-scan", "--model", "xy", "--sweep", "h:0:1:0.5", "--quantities", "bogus"],
    ]
    for argv in cases:
        code, _, err = run_cli(argv, capsys)
        assert code == 2, argv
        assert err


def test_check_passes_on_healthy_build(capsys):
    code, out, _ = run_cli(
        ["check", "--sites", "6", "--points", "3", "--presets", "xzy,ghz-cluster"],
        capsys,
    )
    assert code == 0
    assert "0 failed" in out


def test_check_negative_control(capsys):
    code, out, _ = run_cli(
        ["check", "--sites", "6", "--points", "3", "--presets", "xzy",
         "--corrupt-theta-sign"],
        capsys,
    )
    assert code == 4
    assert "state_fidelity" in out


def test_check_rejects_no_points(capsys):
    for points in ("0", "-1"):
        code, out, err = run_cli(["check", "--sites", "6", "--points", points], capsys)
        assert code == 2
        assert "points" in err and out == ""


def test_check_size_guard(capsys):
    # the guard is the dense oracle's own limit (14 sites); it rejects the
    # size before any matrix is built
    code, _, err = run_cli(["check", "--sites", "16"], capsys)
    assert code == 2
    assert "capped" in err


def test_check_validates_every_model_before_any_dense_build(monkeypatch, capsys):
    built = []

    def counting(spec):
        built.append(spec)
        return model_hamiltonian(spec)

    monkeypatch.setattr(crosscheck, "model_hamiltonian", counting)
    # halfway-xy rejects the odd size only after xy, xzy and xn2y in order;
    # bogus comes after xy; a preset listed twice used to run twice and
    # report every row twice
    for argv, message in (
        (["--sites", "11", "--points", "2"], "even number of sites"),
        (["--sites", "6", "--points", "2", "--presets", "xy,bogus"], "unknown preset"),
        (["--sites", "4", "--points", "1", "--presets", "xy,xy"], "more than once"),
    ):
        code, out, err = run_cli(["check", *argv], capsys)
        assert code == 2, argv
        assert message in err and out == ""
    assert built == []


def test_check_runs_at_twelve_sites(capsys):
    code, out, _ = run_cli(
        ["check", "--presets", "xzy", "--sites", "12", "--points", "1", "--format", "json"],
        capsys,
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows
    assert all(row[1] == 12 and row[-1] == "pass" for row in rows)


def test_tracer_binds_every_target():
    # the benchmark's per-layer metrics come from wrapping package functions
    # by name; a target that is renamed or unbound drops its metrics
    # silently, so every target must still be bound
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.absent == []
        assert tracer.missing_layers == set()
    finally:
        tracer.uninstall()
