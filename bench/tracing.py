"""Span recorder that wraps fracred's public functions from outside the package.

A traced pass swaps every module binding of each listed function for a
wrapper that records a span (id, parent id, name, start, end).  The modules
import names by value (``from .calculus import apply_power``), so patching
only the defining module would miss most calls: ``install`` replaces the
function object wherever any ``fracred`` module binds it, and ``uninstall``
puts the originals back, so untraced passes run the unmodified program.

Self time of a span is its duration minus the durations of its direct
children.  Spans nest strictly (one thread), so children never overlap.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict

import numpy as np
import scipy.linalg

#: layer name -> (module, public functions traced in that module)
LAYERS = {
    "mesh": ("fracred.mesh", ("label_regions", "dump_json")),
    "operators": ("fracred.operators", ("assemble",)),
    "calculus": (
        "fracred.calculus",
        ("power_matrix", "fractional_stiffness", "apply_power", "apply_inverse",
         "calibration_rows"),
    ),
    "dirichlet": (
        "fracred.dirichlet",
        ("solve_exterior_value", "stability_constant", "cauchy_pair"),
    ),
    "reduction": ("fracred.reduction", ("lift", "boundary_cauchy", "theorem1_probe")),
    "gauge": ("fracred.gauge", ("pushforward_operator", "gauge_invariance_check")),
    "diagnostics": (
        "fracred.diagnostics",
        ("runge_rank", "ucp_quotient", "heat_bound_check", "heatflow_rigidity_probe"),
    ),
}

#: key families of DiscreteOperator.cached reported one by one
CACHE_FAMILIES = (
    "power_matrix",
    "fractional_stiffness",
    "gii_cholesky",
    "stiffness_cholesky",
    "mass_sphere_whitener",
    "omega_stiffness",
)

#: computed (not measured) flop model of the dense generalized eigh with
#: vectors: 9 n^3 for symmetric QR with eigenvectors (Golub & Van Loan,
#: Matrix Computations, 4th ed., sec. 8.3), n^3/3 for the Cholesky of M,
#: n^3 for the reduction to standard form and n^3 for back-transforming
#: the vectors
EIGH_FLOPS_PER_N3 = 9.0 + 1.0 / 3.0 + 1.0 + 1.0

def _nbytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (tuple, list)):
        return sum(_nbytes(v) for v in value)
    return 0


class Tracer:
    """In-memory spans and counters of the traced passes of one run."""

    def __init__(self):
        self.spans = []  # (id, parent id, name, start, end)
        self._stack = []
        self._next_id = 0
        self.counts = defaultdict(int)
        self.miss_bytes = 0
        self._unique = defaultdict(set)
        self._keep = []  # operators seen this pass, so their ids stay unique
        self._undo = []

    # -- spans -----------------------------------------------------------
    def call(self, name, fn, *args, **kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, t0, t1))

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    # -- counters --------------------------------------------------------
    def _note_unique(self, name, op, a, vector):
        self._keep.append(op)
        self.counts[f"{name}.calls"] += 1
        self._unique[name].add((id(op), a, vector.tobytes()))

    def _cached(self, orig):
        def cached(op, key, compute):
            family = key[0] if isinstance(key, tuple) else key
            outcome = "hits" if key in op._cache else "misses"
            self.counts[f"cache.{family}.{outcome}"] += 1
            value = orig(op, key, compute)
            if outcome == "misses":
                self.miss_bytes += _nbytes(value)
            return value

        return cached

    # -- patching --------------------------------------------------------
    def _rebind(self, orig, replacement):
        """Replace ``orig`` in every fracred module namespace."""
        for modname, module in list(sys.modules.items()):
            if modname != "fracred" and not modname.startswith("fracred."):
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, orig))

    def install(self):
        """Wrap every traced function, the suite table, eigh and the cache."""
        for layer, (modname, names) in LAYERS.items():
            module = sys.modules[modname]
            for fname in names:
                orig = getattr(module, fname)
                self._rebind(orig, self.wrap(f"{layer}.{fname}", orig))

        solve = sys.modules["fracred.dirichlet"].solve_exterior_value
        lift = sys.modules["fracred.reduction"].lift

        def counted_solve(op, a, f):
            self._note_unique("solve", op, a, f.values)
            return solve(op, a, f)

        def counted_lift(op, a, sol):
            self._note_unique("lift", op, a, sol.u)
            return lift(op, a, sol)

        self._rebind(solve, counted_solve)
        self._rebind(lift, counted_lift)

        runner = sys.modules["fracred.runner"]
        table = runner._SUITE_FNS
        for suite, fn in list(table.items()):
            table[suite] = self.wrap(f"runner.{suite}", fn)
            self._undo.append((table, suite, fn))

        # artifact writes: run_suites writes through runner.Path
        tracer = self
        path_cls = runner.Path

        class TracedPath(type(path_cls())):
            def write_text(self, *args, **kwargs):
                return tracer.call("runner.write", super().write_text, *args, **kwargs)

        runner.Path = TracedPath
        self._undo.append((runner, "Path", path_cls))

        # scipy.linalg.eigh is reached only from operators.assemble
        eigh = scipy.linalg.eigh

        def traced_eigh(A, *args, **kwargs):
            n = A.shape[0]
            self.counts["eigh.flop"] += EIGH_FLOPS_PER_N3 * n**3
            return self.call("operators.eigh", eigh, A, *args, **kwargs)

        scipy.linalg.eigh = traced_eigh
        self._undo.append((scipy.linalg, "eigh", eigh))

        ops_cls = sys.modules["fracred.operators"].DiscreteOperator
        orig_cached = ops_cls.cached
        ops_cls.cached = self._cached(orig_cached)
        self._undo.append((ops_cls, "cached", orig_cached))

    def uninstall(self):
        for target, attr, orig in reversed(self._undo):
            if isinstance(target, dict):
                target[attr] = orig
            else:
                setattr(target, attr, orig)
        self._undo.clear()

    def end_pass(self):
        """Fold this pass's distinct-input sets into counts and drop them."""
        for name, keys in self._unique.items():
            self.counts[f"{name}.distinct"] += len(keys)
        self._unique.clear()
        self._keep.clear()

    # -- aggregation -----------------------------------------------------
    def pass_totals(self):
        """{name: [calls, self_s, total_s]} for each traced pass, in order.

        Each pass is one root span named "pass"; it groups the spans it
        caused.
        """
        child_time = defaultdict(float)
        parent_of = {}
        for sid, parent, _, t0, t1 in self.spans:
            parent_of[sid] = parent
            if parent >= 0:
                child_time[parent] += t1 - t0

        def root(sid):
            while parent_of[sid] >= 0:
                sid = parent_of[sid]
            return sid

        per_root = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        for sid, _, name, t0, t1 in self.spans:
            entry = per_root[root(sid)][name]
            entry[0] += 1
            entry[1] += (t1 - t0) - child_time[sid]
            entry[2] += t1 - t0
        roots = [sid for sid, parent, name, _, _ in self.spans
                 if parent < 0 and name == "pass"]
        return [dict(per_root[r]) for r in sorted(roots)]

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            base = min((s[3] for s in self.spans), default=0.0)
            for sid, parent, name, t0, t1 in sorted(self.spans):
                fh.write(f"{sid},{parent},{name},{t0 - base:.9f},{t1 - base:.9f}\n")


def layer_metrics(tracer, wall_untraced, wall_traced):
    """Per-layer metrics: per-pass counts and median per-pass times.

    ``wall_untraced`` and ``wall_traced`` are the pass times of the
    alternating untraced and traced passes, in order.
    """
    passes = len(wall_traced)
    per_pass = tracer.pass_totals()
    if len(per_pass) != passes:
        raise RuntimeError(f"expected {passes} traced passes, found {len(per_pass)}")

    def median_of(name, field):
        return statistics.median(p.get(name, (0, 0.0, 0.0))[field] for p in per_pass)

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for suite in sys.modules["fracred.config"].SUITE_NAMES:
        put(f"runner.{suite}.wall_s", median_of(f"runner.{suite}", 2), "s")
    put("runner.write_s", median_of("runner.write", 2), "s")

    # configs are loaded once per run, before any pass
    loads = [t1 - t0 for _, _, name, t0, t1 in tracer.spans if name == "config.load_config"]
    put("config.load_config.calls", len(loads), "count")
    put("config.load_config.self_s", sum(loads), "s")

    traced = [f"{layer}.{fname}" for layer, (_, names) in LAYERS.items() for fname in names]
    traced.insert(traced.index("operators.assemble") + 1, "operators.eigh")
    for name in traced:
        put(f"{name}.calls", round(median_of(name, 0)), "count")
        put(f"{name}.self_s", median_of(name, 1), "s")
        if name == "operators.eigh":
            put("operators.eigh.gflop", tracer.counts["eigh.flop"] / passes / 1e9,
                "Gflop_computed")
        if name == "dirichlet.solve_exterior_value":
            put(f"{name}.unique_ratio", _ratio(tracer.counts, "solve"), "ratio")
        if name == "reduction.lift":
            put(f"{name}.unique_ratio", _ratio(tracer.counts, "lift"), "ratio")

    c = tracer.counts
    hits = sum(v for k, v in c.items() if k.startswith("cache.") and k.endswith(".hits"))
    misses = sum(v for k, v in c.items() if k.startswith("cache.") and k.endswith(".misses"))
    put("operators.cache.hits", hits // passes, "count")
    put("operators.cache.misses", misses // passes, "count")
    put("operators.cache.hit_ratio", hits / (hits + misses) if hits + misses else 0.0,
        "ratio")
    put("operators.cache.miss_mb", tracer.miss_bytes / passes / 2**20, "MB")
    for family in CACHE_FAMILIES:
        for outcome in ("hits", "misses"):
            put(f"operators.cache.{family}.{outcome}",
                c[f"cache.{family}.{outcome}"] // passes, "count")

    # passes alternate, so pairing each traced pass with the untraced pass
    # before it cancels slow drift in machine speed
    untraced = statistics.median(wall_untraced)
    overhead = statistics.median(t - u for u, t in zip(wall_untraced, wall_traced))
    put("trace.overhead_s", overhead, "s")
    put("trace.overhead_ratio", overhead / untraced, "ratio")
    return out


def _ratio(counts, name):
    calls = counts[f"{name}.calls"]
    return counts[f"{name}.distinct"] / calls if calls else 0.0
