"""fracred benchmark: run_suites end to end, plus a traced run for layer times.

Run from the repository root:

    python3 bench/run.py --workload probes-2d --seed 1 --seconds 20 --trace 0

The benchmark drives the public API the way ``fracred run`` does: one
client in a closed loop, one ``run_suites`` call at a time, in this
process, artifacts written.  ``--seed`` is passed to ``run_suites``.
With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and prints per-layer metrics from the
traced ones (see tracing.py), plus the tracing overhead.  Every pass's
artifacts are checked (see checks.py).  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import os

#: fixed BLAS thread count, pinned through the environment before numpy is
#: first imported.  One thread, not two: on a 2-CPU VM shared with other
#: tenants, two OpenBLAS threads spread bundled-small passes over 1.23-1.76 s
#: against 0.89-1.24 s with one, and stall the first dense call of a process;
#: the dense workloads took about as long either way
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
PACKAGE_CONFIGS = SRC / "fracred" / "configs"

#: workload -> configs run back to back in one pass; the reasons for each
#: choice and for the configs left out are in README.md
WORKLOADS = {
    "probes-2d": [BENCH_DIR / "configs" / "probes-2d.json"],
    "spectral-2d": [BENCH_DIR / "configs" / "spectral-2d.json"],
    "bundled-small": [
        PACKAGE_CONFIGS / f"{name}.json"
        for name in ("baseline-1d", "perturbed-1d", "baseline-2d")
    ],
    # small workload for selfcheck.py; not part of BENCHMARK.json
    "smoke": [PACKAGE_CONFIGS / "perturbed-1d.json"],
}

#: fresh interpreters timed for setup_s; one more runs first, untimed, so
#: that byte-compiling the package is not counted
SETUP_REPEATS = 5
#: fewest timed passes of each kind in a run, however short --seconds is
MIN_PASSES = 3

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import fracred
if not fracred.__file__.startswith(sys.argv[1]):
    sys.exit("fracred imported from " + fracred.__file__)
for path in sys.argv[2:]:
    fracred.load_config(path)
print(time.perf_counter() - t0)
"""


def fail(message: str):
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import fracred from this checkout's src/, or exit with code 2."""
    if not (SRC / "fracred" / "__init__.py").is_file():
        fail(f"no program at {SRC / 'fracred'}")
    sys.path.insert(0, str(SRC))
    import fracred

    if not Path(fracred.__file__).resolve().is_relative_to(SRC):
        fail(f"fracred imported from {fracred.__file__}, not {SRC}")
    return fracred


def measure_setup(configs) -> list:
    """Seconds from a fresh interpreter's first statement to configs loaded."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), *map(str, configs)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            fail(f"setup probe failed: {proc.stderr.strip()}")
        if i:
            times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def blas_record() -> list:
    """Version and runtime thread count of every OpenBLAS loaded."""
    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path.lower() and ".so" in path:
                libs.add(path)
    out = []
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype = ctypes.c_char_p
                    threads.restype = ctypes.c_int
                    entry["config"] = config().decode()
                    entry["threads"] = threads()
        out.append(entry)
    return out


def environment_record(fracred, workload, configs) -> dict:
    scenarios = {}
    for path, cfg in configs:
        mesh = cfg.build_mesh()
        labels = cfg.build_labels(mesh)
        free = np.setdiff1d(np.arange(mesh.node_count), mesh.boundary_nodes())

        def free_count(nodes):
            return int(np.isin(nodes, free).sum())

        scenarios[path.stem] = {
            "n_dofs": int(free.size),
            "W": free_count(labels.w_nodes),
            "WTILDE": free_count(labels.wtilde_nodes),
            "E": free_count(labels.e_nodes),
            "omega_interior_dofs": free_count(labels.omega_interior_nodes),
            "exponents": list(cfg.exponents),
            "operators": len(cfg.operator_specs),
            "suites": list(cfg.suites),
        }
    return {
        "workload": workload,
        "scenarios": scenarios,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "fracred": fracred.__version__,
        "blas_threads_pinned": BLAS_THREADS,
        "blas": blas_record(),
    }


class Tally:
    """Operations attempted and failed across every pass of the run."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def check_pass(self, out_dirs):
        for out_dir in out_dirs:
            attempted, failures = checks.check(out_dir, self.reference[out_dir.name])
            self.attempted += attempted
            self.failed += len(failures)
            for message in failures:
                print(f"check failed [{out_dir.name}]: {message}", file=sys.stderr)


def timed_pass(fracred, configs, seed, out_root, tracer=None) -> float:
    """Wall seconds of one pass: run_suites over every config, in order."""
    shutil.rmtree(out_root, ignore_errors=True)

    def one_pass():
        for path, cfg in configs:
            fracred.run_suites(cfg, out_dir=out_root / path.stem, seed=seed)

    if tracer is None:
        start = time.perf_counter()
        one_pass()
        return time.perf_counter() - start
    tracer.install()
    try:
        start = time.perf_counter()
        tracer.call("pass", one_pass)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    tracer.end_pass()
    return wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    fracred = import_program()
    paths = WORKLOADS[args.workload]
    setup = measure_setup(paths)

    tracer = tracing.Tracer() if args.trace else None
    configs = []
    for path in paths:
        if tracer is None:
            cfg = fracred.load_config(path)
        else:
            cfg = tracer.call("config.load_config", fracred.load_config, path)
        configs.append((path, cfg))
    env = environment_record(fracred, args.workload, configs)
    tally = Tally(checks.load_reference())
    out_root = OUT_DIR / args.workload / "artifacts"
    out_dirs = [out_root / path.stem for path in paths]

    # The first pass in a process pays one-off costs (lazy imports inside
    # scipy, first use of BLAS buffers and, with two BLAS threads, a stall of
    # up to ~1 s at the first dense call).  It is run and checked but not
    # timed into run_s; its wall time is reported in the environment record.
    warmup = timed_pass(fracred, configs, args.seed, out_root)
    tally.check_pass(out_dirs)

    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        untraced.append(timed_pass(fracred, configs, args.seed, out_root))
        tally.check_pass(out_dirs)
        if tracer is not None:
            traced.append(timed_pass(fracred, configs, args.seed, out_root, tracer))
            tally.check_pass(out_dirs)
        per_round = statistics.median(untraced) + (statistics.median(traced) if traced else 0)
        if len(untraced) >= MIN_PASSES and time.perf_counter() - start + per_round > args.seconds:
            break

    def metric(value, unit):
        return {"value": value, "unit": unit}

    if tracer is None:
        metrics = {
            "setup_s": metric(statistics.median(setup), "s"),
            "run_s": metric(statistics.median(untraced), "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
            ),
        }
    else:
        metrics = tracing.layer_metrics(tracer, untraced, traced)
        tracer.write_spans(OUT_DIR / args.workload / "spans.csv")

    env.update(
        {
            "seed": args.seed,
            "trace": args.trace,
            "warmup_pass_s": warmup,
            "setup_samples_s": setup,
            "run_samples_s": untraced,
            "traced_samples_s": traced,
            "failed_share": tally.failed / tally.attempted,
        }
    )
    (OUT_DIR / args.workload / f"result-trace{args.trace}.json").write_text(
        json.dumps({"environment": env, "metrics": metrics}, indent=1) + "\n"
    )
    print("environment " + json.dumps(env))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(
        f"run_s is the median of {len(untraced)} passes; failed_share = "
        f"{tally.failed}/{tally.attempted}"
    )
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
