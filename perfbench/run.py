"""clusterxy benchmark.

Drives the public CLI entry point ``clusterxy.cli.main(argv)`` in-process,
with stdout captured, as one client in a closed loop: each request is sent
only after the previous one returns.  The workload seed generates the
requests (see ``workloads.py``); every output is checked (see ``checks.py``).

    python3 perfbench/run.py --workload ent_scan --seed 0 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median time for a
fresh interpreter to import ``clusterxy.cli`` and build its parser),
``points_per_s``, ``request_p50_s``, ``request_tail_s`` and ``peak_rss_mb``.
``--trace 1`` sends every request twice, once untraced and once with every
layer wrapped (see ``tracing.py``), alternating which goes first, and reports
the per-layer metrics of the traced sends and ``trace.overhead_share``.

The last stdout line is the result object; the line before it is a record
with the environment, the tail percentile and its sample count, failure
reasons and, for traced runs, per-size medians.  Both are also written to
``perfbench/out/``, with the spans of traced runs.  The program is imported
from ``src/`` next to this directory; without it the benchmark exits 2.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

#: the seed whose outputs are also compared with ``reference.json``
DEFAULT_SEED = 0
#: fresh interpreter starts per run for ``setup_s`` (their median is reported)
SETUP_STARTS = 3
SETUP_TIMEOUT_S = 60
#: request_tail_s is the latency with this many samples beyond it, or the
#: median when that lies lower (runs of fewer than 21 requests)
TAIL_BEYOND = 10
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import clusterxy.cli as cli; "
    "cli.build_parser(); sys.stdout.write(cli.__file__)"
)


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cap_blas_threads() -> int:
    """Hold BLAS threads at or below nproc for this process and the fresh
    starts it spawns; must run before numpy is imported."""
    cap = nproc()
    for var in BLAS_THREAD_VARS:
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = 0
        if not 1 <= current <= cap:
            os.environ[var] = str(cap)
    return cap


# --- environment record --------------------------------------------------------------

def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import ctypes

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "clusterxy").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(blas_cap: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "blas_threads_cap": blas_cap,
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


# --- measurement ----------------------------------------------------------------------

def measure_setup() -> list[float]:
    """Wall times of fresh interpreters that import clusterxy.cli from src/
    and build its parser, from spawn to exit."""
    samples = []
    for _ in range(SETUP_STARTS):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        samples.append(time.perf_counter() - start)
        if done.returncode != 0 or not Path(done.stdout).resolve().is_relative_to(SRC):
            raise RuntimeError(f"fresh start failed: {done.stderr.strip()[-500:]}")
    return samples


class Client:
    """Sends requests to ``cli.main`` one at a time and checks each output."""

    def __init__(self, cli, checks, reference: list | None):
        self.cli = cli
        self.checks = checks
        self.reference = reference
        self.tracer = None

    def capture(self, index: int, req) -> tuple[str, str | None, float]:
        """Captured stdout, first problem or None, and latency in seconds of
        request ``index``."""
        out, err = io.StringIO(), io.StringIO()
        root = contextlib.nullcontext()
        if self.tracer is not None:
            self.tracer.stdout_probe = out.tell
            root = self.tracer.request(index, req.sites)
        code, crash = None, None
        start = time.perf_counter()
        try:
            with root, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(req.argv))
        except SystemExit as exc:  # argparse rejects a request by exiting
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - a crash is a failed request
            crash = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        text = out.getvalue()
        problem = crash or self.checks.check_output(req, code, text)
        if problem is None and self.reference is not None and index < len(self.reference):
            problem = self.checks.compare_reference(req, text, self.reference[index])
            if problem is not None:
                problem = "reference: " + problem
        if problem is not None and err.getvalue():
            problem += " | stderr: " + err.getvalue().strip()[-300:]
        return text, problem, latency

    def send(self, index: int, req) -> tuple[float, str | None]:
        """(latency in seconds, first problem or None) of request ``index``."""
        _, problem, latency = self.capture(index, req)
        return latency, problem


def run_rounds(send, stream, seconds: float):
    """Whole rounds, stopping at the round boundary nearest to ``seconds``
    (at least one round); returns the requests sent and what
    ``send(index, request)`` returned for each."""
    sent, outcomes = [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for req in next(stream):
            outcomes.append(send(len(sent), req))
            sent.append(req)
        now = time.perf_counter()
        if now - start + (now - round_start) / 2.0 >= seconds:
            return sent, outcomes


def paired_sender(client, tracer):
    """Sends each request once untraced and once traced, alternating which
    goes first, so drift during the run does not bias the tracing overhead."""

    def traced(index, req):
        tracer.install()
        client.tracer = tracer
        try:
            return client.send(index, req)
        finally:
            client.tracer = None
            tracer.uninstall()

    def send(index, req):
        if index % 2:
            second = traced(index, req)
            return client.send(index, req), second
        first = client.send(index, req)
        return first, traced(index, req)

    return send


def summarize(sent, outcomes) -> dict:
    latencies = [lat for lat, _ in outcomes]
    n = len(latencies)
    ok_points = sum(req.points for req, (_, problem) in zip(sent, outcomes) if problem is None)
    ordered = sorted(latencies)
    p50 = statistics.median(latencies)
    if n > 2 * TAIL_BEYOND:
        tail = ordered[n - TAIL_BEYOND - 1]
        percentile = 100.0 * (n - TAIL_BEYOND) / n
    else:  # the percentile with ten samples beyond it is not above the median
        tail, percentile = p50, 50.0
    failures = [(i, problem) for i, (_, problem) in enumerate(outcomes) if problem is not None]
    return {
        "attempted": n,
        "failed": len(failures),
        "failed_share": len(failures) / n,
        "points_ok": ok_points,
        "points_per_s": ok_points / sum(latencies),
        "request_p50_s": p50,
        "request_tail_s": tail,
        "tail": {"percentile": percentile, "samples": n,
                 "beyond": sum(1 for lat in latencies if lat > tail)},
        "failures": [{"request": i, "argv": list(sent[i].argv), "problem": p}
                     for i, p in failures[:5]],
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "clusterxy" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no clusterxy sources under {SRC}\n")
        return 2
    blas_cap = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import clusterxy.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        sys.stderr.write(f"perfbench: clusterxy imported from {cli.__file__}, not {SRC}\n")
        return 2

    import checks
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}\n")
        return 2
    if args.seconds <= 0:
        sys.stderr.write("perfbench: --seconds must be > 0\n")
        return 2

    reference = None
    if args.seed == DEFAULT_SEED:
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)["workloads"][args.workload]

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(blas_cap)}
    warm = Client(cli, checks, None)
    warm_problems = [p for req in workloads.warmup_requests(args.workload)
                     for _, p in [warm.send(0, req)] if p is not None]
    record["warmup_problems"] = warm_problems
    client = Client(cli, checks, reference)
    stream = workloads.rounds(args.workload, args.seed)

    if args.trace == 0:
        setup = measure_setup()
        sent, outcomes = run_rounds(client.send, stream, args.seconds)
        summary = summarize(sent, outcomes)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": _metric(statistics.median(setup), "s"),
            "points_per_s": _metric(summary["points_per_s"], "1/s"),
            "request_p50_s": _metric(summary["request_p50_s"], "s"),
            "request_tail_s": _metric(summary["request_tail_s"], "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
        record.update(summary, setup_samples_s=setup)
        if reference is not None:
            record["reference_compared"] = min(len(sent), len(reference))
    else:
        import tracing

        tracer = tracing.Tracer()
        sent, pairs = run_rounds(paired_sender(client, tracer), stream, args.seconds)
        untraced = summarize(sent, [u for u, _ in pairs])
        traced = summarize(sent, [t for _, t in pairs])
        points = sum(req.points for req in sent)
        layers, by_size = tracing.layer_metrics(tracer.spans, points, tracer.missing_layers)
        overhead = (traced["points_per_s"] - untraced["points_per_s"]) / untraced["points_per_s"]
        layers["trace.overhead_share"] = (overhead, "ratio")
        metrics = {name: _metric(value, unit) for name, (value, unit) in layers.items()}
        summary = {
            "attempted": untraced["attempted"] + traced["attempted"],
            "failed": untraced["failed"] + traced["failed"],
        }
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracing.dump_spans(tracer.spans, spans_path)
        record.update(untraced=untraced, traced=traced, by_size=by_size,
                      absent=tracer.absent, bindings=tracer.bindings,
                      spans_file=str(spans_path.relative_to(ROOT)), spans=len(tracer.spans))

    result = {
        "correct": summary["failed"] == 0 and not warm_problems,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }
    record["result"] = result
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({k: v for k, v in record.items() if k != "result"}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
