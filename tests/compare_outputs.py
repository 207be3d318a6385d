"""Dump and compare every cell of a fixed set of ``ent-scan``, ``thermo``
and ``check`` outputs, to show how far a change to the maximizers or the
oracle moves their values.

The set is the ent and thermo golden requests and ``check_json`` of
``test_golden.py``, then the ``ent_scan``, ``thermo_scan`` and
``oracle_check`` requests of the benchmark's default-seed reference
(``perfbench/reference.json``, read only).  The check requests run with
``--format json``, which prints every error cell; their plain output is a
pass count.  Dump it once per tree, then compare the two dumps:

    PYTHONPATH=<old tree>/src python tests/compare_outputs.py --dump old.json
    PYTHONPATH=src python tests/compare_outputs.py --dump new.json
    PYTHONPATH=src python tests/compare_outputs.py --compare old.json new.json

``--compare`` prints, per request and column, the cells that moved, the
largest absolute and relative move, and how many moved outside the
benchmark's reference tolerance REF_ATOL + REF_RTOL * |old|, read from
``perfbench/checks.py``; then the same per verb and column over all requests,
and a one-line verdict.  It exits 1 when a request of the old dump is missing
from the new one or changed its columns or row count, or when a cell moved
outside that tolerance (a moved non-numeric cell counts as outside); else 0.
pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import math
import sys
from pathlib import Path

from test_golden import CASES, _number, _table, run_case

ROOT = Path(__file__).resolve().parents[1]


def _checks():
    path = ROOT / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return checks


GOLDEN_CASES = [name for name, argv in CASES.items()
                if argv[0] in ("ent-scan", "thermo")] + ["check_json"]
REFERENCE_WORKLOADS = ("ent_scan", "thermo_scan", "oracle_check")


def requests() -> dict[str, list[str]]:
    """Request name -> argv: the ent and thermo goldens and ``check_json``,
    then the reference's ent_scan, thermo_scan and oracle_check requests in
    their recorded order, the check requests as JSON tables."""
    named = {name: CASES[name] for name in GOLDEN_CASES}
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    for workload in REFERENCE_WORKLOADS:
        for i, entry in enumerate(reference["workloads"][workload]):
            argv = entry["argv"]
            named[f"{workload}[{i}]"] = argv + ["--format", "json"] if argv[0] == "check" else argv
    return named


def dump(path: str) -> None:
    from clusterxy.cli import main

    tables = {}
    for name, argv in requests().items():
        if name in CASES:
            text = run_case(name)
        else:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(list(argv))
            if code != 0:
                sys.exit(f"{name} {argv} exited {code}")
            text = out.getvalue()
        columns, rows = _table(text)
        tables[name] = {"argv": argv, "columns": columns, "rows": rows}
    Path(path).write_text(json.dumps(tables) + "\n")
    print(f"wrote {len(tables)} requests to {path}")


class Moves:
    """Moved cells of one column: count, largest moves, count outside the
    reference tolerance."""

    def __init__(self):
        self.cells = self.moved = self.outside = self.non_numeric = 0
        self.max_abs = self.max_rel = 0.0

    def add(self, old, new, atol: float, rtol: float) -> None:
        self.cells += 1
        if old == new:
            return
        self.moved += 1
        a, b = _number(old), _number(new)
        if a is None or b is None:
            self.non_numeric += 1
            return
        delta = abs(b - a)
        self.max_abs = max(self.max_abs, delta)
        self.max_rel = max(self.max_rel, delta / abs(a) if a else math.inf)
        self.outside += delta > atol + rtol * abs(a)

    def line(self, label: str) -> str:
        text = f"{label}: {self.moved} of {self.cells} cells moved"
        if self.moved > self.non_numeric:
            text += (f", max abs {self.max_abs:.2e}, max rel {self.max_rel:.2e}"
                     f", {self.outside} outside the reference tolerance")
        if self.non_numeric:
            text += f", {self.non_numeric} non-numeric"
        return text


def compare(old_path: str, new_path: str) -> bool:
    """Print the moves of every request and column; True when every request
    is present with its shape and no cell moved outside the tolerance."""
    checks = _checks()
    old, new = (json.loads(Path(p).read_text()) for p in (old_path, new_path))
    totals: dict[str, Moves] = {}
    broken = 0
    for name, want in old.items():
        got = new.get(name)
        if got is None or got["argv"] != want["argv"]:
            print(f"{name}: missing from {new_path} or a different request")
            broken += 1
            continue
        if got["columns"] != want["columns"] or len(got["rows"]) != len(want["rows"]):
            print(f"{name}: columns or row count differ")
            broken += 1
            continue
        lines = []
        for j, column in enumerate(want["columns"]):
            moves = Moves()
            total = totals.setdefault(f"{want['argv'][0]} {column}", Moves())
            for g, w in zip(got["rows"], want["rows"]):
                moves.add(w[j], g[j], checks.REF_ATOL, checks.REF_RTOL)
                total.add(w[j], g[j], checks.REF_ATOL, checks.REF_RTOL)
            if moves.moved:
                lines.append(moves.line(f"{name}: {column}"))
        print("\n".join(lines) or f"{name}: identical")
    print(f"all {len(old)} requests, per verb and column "
          f"(reference tolerance {checks.REF_ATOL:g} + {checks.REF_RTOL:g} |old|):")
    for column, total in totals.items():
        print("  " + total.line(column))
    outside = sum(total.outside + total.non_numeric for total in totals.values())
    passed = broken == 0 and outside == 0
    print(f"{'PASS' if passed else 'FAIL'}: {len(old) - broken} of {len(old)} requests compared, "
          f"{broken} missing or reshaped, {outside} cells outside the reference tolerance")
    return passed


if __name__ == "__main__":
    args = sys.argv[1:]
    if len(args) == 2 and args[0] == "--dump":
        dump(args[1])
    elif len(args) == 3 and args[0] == "--compare":
        sys.exit(0 if compare(args[1], args[2]) else 1)
    else:
        sys.exit("usage: PYTHONPATH=src python tests/compare_outputs.py --dump PATH | --compare OLD NEW")
