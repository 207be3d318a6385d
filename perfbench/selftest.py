"""Negative controls for the benchmark's output checks: they show that a
wrong answer counts as a failed request, so ``failed_share`` can leave 0.

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import csv
import io
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.cap_blas_threads()
sys.path.insert(0, str(run.SRC))

import checks  # noqa: E402
import clusterxy.cli as cli  # noqa: E402
import workloads  # noqa: E402


def _client():
    return run.Client(cli, checks, None)


def _first(workload, verb):
    for req in next(workloads.rounds(workload, 0)):
        if req.verb == verb:
            return req
    raise AssertionError(f"no {verb} request in the first {workload} round")


def _small_ent_request():
    """An N=64 XzY (r=0.5) ent_scan request, where ent_block lies clearly
    below ent_site, so swapping the two breaks the nesting.  Sizes rotate
    over the families, so three rounds hold every size of every family."""
    stream = workloads.rounds("ent_scan", 0)
    for _ in range(len(workloads.ENT_SHAPES)):
        for req in next(stream):
            if req.sites == 64 and req.family == "xzy-r0.5":
                return req
    raise AssertionError("no N=64 XzY request in the first ent_scan rounds")


def _swap_columns(text: str, first: str, second: str) -> str:
    comments = [line for line in text.splitlines(keepends=True) if line.startswith("#")]
    columns, rows = checks.parse_table(text)
    i, j = columns.index(first), columns.index(second)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        row[i], row[j] = row[j], row[i]
        writer.writerow(row)
    return "".join(comments) + buf.getvalue()


def test_corrupted_oracle_check_counts_as_failed():
    req = _first("oracle_check", "check")
    healthy = _client().capture(0, req)[1]
    assert healthy is None, healthy
    corrupt = replace(req, argv=req.argv + ("--corrupt-theta-sign",))
    _, problem, _ = _client().capture(0, corrupt)
    assert problem is not None and "failed rows" in problem, problem


def test_swapped_entanglement_columns_fail_nesting():
    req = _small_ent_request()
    text, problem, _ = _client().capture(0, req)
    assert problem is None, problem
    swapped = _swap_columns(text, "ent_site", "ent_block")
    problem = checks.check_output(req, 0, swapped)
    assert problem is not None and "nesting violated" in problem, problem


def test_nonzero_exit_fails():
    req = _first("thermo_scan", "thermo")
    bad = replace(req, argv=req.argv + ("--sites", "x"))
    _, problem, _ = _client().capture(0, bad)
    assert problem is not None and "exit code 2" in problem, problem


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    sys.exit(1 if failed else 0)
