"""Per-layer tracing from outside the package.

The tracer replaces selected public functions of the ``clusterxy`` modules
(plus ``scipy.optimize.minimize`` and ``scipy.integrate.quad`` as
``clusterxy.entanglement`` binds them, and ``numpy``'s ``leggauss``) with
wrappers that record one span per call: layer name, start, end, parent span
and request id.  Every namespace that binds a target function object --
module globals and dictionaries held in module globals, such as the CLI's
verb table -- gets the same wrapper, so a call is recorded once whichever
name it goes through.  A target that no longer exists is reported as absent.
The source under ``src/`` is not modified; ``uninstall`` restores every
binding.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import sys
import time
from collections import defaultdict

#: (module, public function, layer): the CLI entry point and the functions
#: the per-layer metrics name.  Preset functions and ``make_model`` share the
#: ``model.build`` layer; nested calls within one layer (a preset calling
#: ``make_model``) are folded into the outermost span.  Time in functions not
#: listed counts as self time of the nearest listed caller.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "write_output", "cli.write_output"),
    ("model", "make_model", "model.build"),
    ("model", "preset_free", "model.build"),
    ("model", "preset_xnmy", "model.build"),
    ("model", "preset_xny", "model.build"),
    ("model", "preset_halfway_xy", "model.build"),
    ("model", "preset_ghz_cluster", "model.build"),
    ("model", "preset_spt_afm", "model.build"),
    ("model", "to_pauli_strings", "model.to_pauli_strings"),
    ("freefermion", "sector_states", "freefermion.sector_states"),
    ("freefermion", "ground_and_gap", "freefermion.ground_and_gap"),
    ("freefermion", "even_vacuum_angles", "freefermion.even_vacuum_angles"),
    ("entanglement", "maximize_site", "entanglement.maximize_site"),
    ("entanglement", "maximize_site_af", "entanglement.maximize_site_af"),
    ("entanglement", "maximize_block", "entanglement.maximize_block"),
    ("entanglement", "thermo_block_density", "entanglement.thermo_block_density"),
    ("oracle", "model_hamiltonian", "oracle.model_hamiltonian"),
    ("oracle", "exact_spectrum", "oracle.exact_spectrum"),
    ("oracle", "exact_ground_state", "oracle.exact_ground_state"),
    ("oracle", "reconstruct_even_vacuum", "oracle.reconstruct_even_vacuum"),
    ("oracle", "direct_overlap", "oracle.direct_overlap"),
    ("crosscheck", "check_model", "crosscheck.check_model"),
)

#: third-party functions: (clusterxy module that binds them, name in it,
#: layer).  ``minimize`` and ``quad`` are wrapped where that module binds
#: them; ``leggauss`` is reached as ``np.polynomial.legendre.leggauss``, so it
#: is wrapped on ``numpy.polynomial.legendre`` too.
EXTERNAL_TARGETS = (
    ("entanglement", "minimize", "entanglement.optimizer"),
    ("entanglement", "quad", "entanglement.quad"),
    ("entanglement", "leggauss", "entanglement.quad_nodes"),
)

MODULES = ("cli", "model", "freefermion", "entanglement", "oracle", "crosscheck")

#: maximizer layers; optimizer starts are grouped by the nearest one above them
MAXIMIZERS = (
    "entanglement.maximize_site",
    "entanglement.maximize_site_af",
    "entanglement.maximize_block",
    "entanglement.thermo_block_density",
)
#: a start is useful when it ends within this of its group's best value
USEFUL_TOL = 1e-10

#: layers whose per-call medians are reported by system size
BY_SIZE = (
    "freefermion.ground_and_gap",
    "entanglement.maximize_site",
    "entanglement.maximize_site_af",
    "entanglement.maximize_block",
    "entanglement.thermo_block_density",
    "oracle.model_hamiltonian",
    "oracle.exact_spectrum",
)

REQUEST = "request"

# span record fields
LAYER, START, END, PARENT, REQ, SITES, EXTRA = range(7)


def _sites_of(args, default):
    if args:
        first = args[0]
        sites = getattr(first, "sites", None)
        if isinstance(sites, int):
            return sites
        dim = getattr(first, "dimension", None)
        if isinstance(dim, int) and dim > 0:
            return int(round(math.log2(dim)))
    return default


def _extra(layer, args, result, exc):
    """Counters taken at the span's boundary."""
    if exc is not None:
        return {"error": type(exc).__name__}
    if layer == "entanglement.optimizer":
        return {"fun": float(result.fun), "nit": int(result.nit), "nfev": int(result.nfev)}
    if layer == "entanglement.quad":
        info = result[2] if isinstance(result, tuple) and len(result) > 2 else None
        return {"neval": int(info["neval"])} if isinstance(info, dict) and "neval" in info else None
    if layer == "oracle.model_hamiltonian":
        sites = getattr(args[0], "sites", None) if args else None
        # a complex128 2^N x 2^N matrix, as the oracle builds it
        return {"bytes_computed": 16 * 4**sites} if isinstance(sites, int) else None
    if layer == "crosscheck.check_model":
        return {"rows_failed": sum(1 for row in result if not row.passed)}
    return None


class Tracer:
    """Span recorder and the wrappers that feed it."""

    def __init__(self):
        # short name -> imported package module; "clusterxy" is the package
        self.modules = {name: sys.modules[f"clusterxy.{name}"] for name in MODULES
                        if f"clusterxy.{name}" in sys.modules}
        self.modules["clusterxy"] = sys.modules["clusterxy"]
        self.stdout_probe = None                # () -> chars written so far
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._request = None
        self._sites = None
        self._patches: list[tuple] = []         # (container, key, original)
        self.bindings: dict[str, list[str]] = {}
        self.absent: list[str] = []
        self.missing_layers: set[str] = set()
        self._wrappers: set = set()

    # --- recording -------------------------------------------------------------

    def _call(self, layer, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        if parent is not None and self.spans[parent][LAYER] == layer:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        span = [layer, 0.0, 0.0, parent, self._request, _sites_of(args, self._sites), None]
        self.spans.append(span)
        self._stack.append(idx)
        probe = self.stdout_probe if layer == "cli.write_output" else None
        written = probe() if probe else 0
        result = exc = None
        span[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as err:
            exc = err
            raise
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()
            span[EXTRA] = _extra(layer, args, result, exc)
            if probe and exc is None:
                span[EXTRA] = {"bytes": probe() - written}

    @contextlib.contextmanager
    def request(self, request_id, sites):
        """Root span of one request; spans opened inside carry its id."""
        self._request, self._sites = request_id, sites
        span = [REQUEST, 0.0, 0.0, None, request_id, sites, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        try:
            yield
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()
            self._request = self._sites = None

    # --- installation ------------------------------------------------------------

    def _wrapper(self, layer, fn):
        tracer = self

        def traced(*args, **kwargs):
            return tracer._call(layer, fn, args, kwargs)

        traced.__name__ = getattr(fn, "__name__", layer)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        self._wrappers.add(traced)
        return traced

    def _patch(self, container, key, wrapper):
        original = container[key] if isinstance(container, dict) else getattr(container, key)
        self._patches.append((container, key, original))
        _assign(container, key, wrapper)

    def _bind_everywhere(self, original, wrapper):
        """Replace ``original`` by ``wrapper`` in every package namespace and
        in every dict those namespaces hold; returns the binding names."""
        names = []
        for short, module in self.modules.items():
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, key, wrapper)
                    names.append(f"{short}.{key}")
                elif type(value) is dict:
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            self._patch(value, dkey, wrapper)
                            names.append(f"{short}.{key}[{dkey!r}]")
        return names

    def install(self):
        """Wrap every target; targets that do not exist are listed in
        ``absent`` and their layers in ``missing_layers``."""
        self.bindings, self.absent, self._wrappers, found = {}, [], set(), set()
        for module_name, name, layer in TARGETS:
            module = self.modules.get(module_name)
            original = getattr(module, name, None) if module is not None else None
            if not callable(original):
                self.absent.append(f"{module_name}.{name}")
                continue
            found.add(layer)
            if original in self._wrappers:  # an alias of a target already wrapped
                continue
            self.bindings[f"{module_name}.{name}"] = self._bind_everywhere(
                original, self._wrapper(layer, original)
            )
        import numpy.polynomial.legendre as legendre

        for module_name, name, layer in EXTERNAL_TARGETS:
            module = self.modules.get(module_name)
            namespace = vars(module) if module is not None else {}
            if callable(namespace.get(name)):
                self._patch(module, name, self._wrapper(layer, namespace[name]))
                self.bindings[f"{module_name}.{name}"] = [f"{module_name}.{name}"]
            elif name == "leggauss" and namespace.get("np") is sys.modules.get("numpy"):
                self._patch(legendre, name, self._wrapper(layer, legendre.leggauss))
                self.bindings[f"{module_name}.{name}"] = ["numpy.polynomial.legendre.leggauss"]
            else:
                self.absent.append(f"{module_name}.{name}")
                continue
            found.add(layer)
        self.missing_layers = {layer for _, _, layer in TARGETS + EXTERNAL_TARGETS} - found

    def uninstall(self):
        while self._patches:
            _assign(*self._patches.pop())


def _assign(container, key, value):
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


# --- reduction to per-layer metrics ----------------------------------------------

def self_times(spans):
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            child[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - child[i] for i, span in enumerate(spans)]


def _maximizer_of(spans, idx):
    parent = spans[idx][PARENT]
    while parent is not None:
        if spans[parent][LAYER] in MAXIMIZERS:
            return parent
        parent = spans[parent][PARENT]
    return None


def layer_metrics(spans, points: int, missing_layers) -> tuple[dict, dict]:
    """Per-layer metrics (name -> (value, unit)) and the per-size table
    (layer -> N -> {calls, p50_s}) from the spans of a traced run."""
    own = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    sums = defaultdict(int)
    by_size = defaultdict(lambda: defaultdict(list))
    groups = defaultdict(list)
    for i, span in enumerate(spans):
        layer = span[LAYER]
        calls[layer] += 1
        self_s[layer] += own[i]
        extra = span[EXTRA] or {}
        for key in ("nit", "nfev", "neval", "bytes", "bytes_computed", "rows_failed"):
            if key in extra:
                sums[f"{layer}.{key}"] += extra[key]
        if layer in BY_SIZE:
            by_size[layer][span[SITES]].append(span[END] - span[START])
        if layer == "entanglement.optimizer" and "fun" in extra:
            groups[_maximizer_of(spans, i)].append(extra["fun"])

    useful = sum(
        sum(1 for f in funs if f <= min(funs) + USEFUL_TOL) for funs in groups.values()
    )
    starts = calls["entanglement.optimizer"]

    m = {}

    def put(name, value, unit, layer=None):
        if layer not in missing_layers:
            m[name] = (value, unit)

    put("cli.write_output.self_s", self_s["cli.write_output"], "s", "cli.write_output")
    put("cli.write_output.bytes", sums["cli.write_output.bytes"], "bytes", "cli.write_output")
    put("model.build.calls", calls["model.build"], "count", "model.build")
    put("model.build.self_s", self_s["model.build"], "s", "model.build")
    put("model.to_pauli_strings.self_s", self_s["model.to_pauli_strings"], "s",
        "model.to_pauli_strings")
    for layer in ("freefermion.sector_states", "freefermion.ground_and_gap",
                  "freefermion.even_vacuum_angles", "entanglement.maximize_site",
                  "entanglement.maximize_site_af", "entanglement.maximize_block",
                  "entanglement.thermo_block_density", "oracle.model_hamiltonian",
                  "oracle.direct_overlap", "crosscheck.check_model", "entanglement.quad"):
        put(f"{layer}.calls", calls[layer], "count", layer)
        put(f"{layer}.self_s", self_s[layer], "s", layer)
    put("freefermion.ground_and_gap.calls_per_point",
        calls["freefermion.ground_and_gap"] / points if points else 0.0, "calls/point",
        "freefermion.ground_and_gap")
    for layer in ("oracle.exact_spectrum", "oracle.exact_ground_state",
                  "oracle.reconstruct_even_vacuum", "entanglement.quad_nodes"):
        put(f"{layer}.self_s", self_s[layer], "s", layer)
    put("entanglement.quad.neval", sums["entanglement.quad.neval"], "count", "entanglement.quad")
    opt = "entanglement.optimizer"
    put(f"{opt}.starts", starts, "count", "entanglement.optimizer")
    put(f"{opt}.nit", sums[f"{opt}.nit"], "count", "entanglement.optimizer")
    put(f"{opt}.nfev", sums[f"{opt}.nfev"], "count", "entanglement.optimizer")
    put(f"{opt}.self_s", self_s[opt], "s", "entanglement.optimizer")
    put(f"{opt}.useful_ratio", useful / starts if starts else 0.0, "ratio",
        "entanglement.optimizer")
    put("oracle.model_hamiltonian.bytes_computed",
        sums["oracle.model_hamiltonian.bytes_computed"], "bytes", "oracle.model_hamiltonian")
    put("crosscheck.rows_failed", sums["crosscheck.check_model.rows_failed"], "count",
        "crosscheck.check_model")
    for module in MODULES:
        put(f"{module}.self_s",
            sum(v for layer, v in self_s.items() if layer.startswith(module + ".")), "s")

    table = {
        layer: {
            str(n): {"calls": len(durations), "p50_s": statistics.median(durations)}
            for n, durations in sorted(sizes.items())
        }
        for layer, sizes in by_size.items()
    }
    return m, table


def dump_spans(spans, path) -> None:
    """Write the spans as JSON lines: name, start, end, parent, request id,
    system size and counters."""
    import json

    with open(path, "w", encoding="utf-8") as fh:
        for i, span in enumerate(spans):
            fh.write(json.dumps({
                "id": i, "name": span[LAYER], "start": span[START], "end": span[END],
                "parent": span[PARENT], "request": span[REQ], "sites": span[SITES],
                **(span[EXTRA] or {}),
            }) + "\n")
