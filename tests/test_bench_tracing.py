"""The benchmark tracer's function table names functions that exist and run.

bench/tracing.py wraps fracred functions by name; a renamed or deleted
function would only surface as a crash of ``bench/run.py --trace 1``, and
one the runner stopped calling would read 0 in every per-layer metric.  The
tracer is loaded by path and left as it is.
"""

import importlib
import importlib.util
from pathlib import Path

from conftest import bundled_config

from fracred.config import load_config
from fracred.runner import run_suites

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    layers = load_tracing().LAYERS
    assert layers
    missing = [
        f"{modname}.{fname}"
        for modname, fnames in layers.values()
        for fname in fnames
        if not callable(getattr(importlib.import_module(modname), fname, None))
    ]
    assert missing == []


def test_every_traced_function_is_called_by_the_bundled_configs(tmp_path):
    tracing = load_tracing()
    names = ("baseline-1d.json", "perturbed-1d.json", "baseline-2d.json")
    configs = [load_config(bundled_config(name)) for name in names]
    for modname, _ in tracing.LAYERS.values():
        importlib.import_module(modname)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for i, cfg in enumerate(configs):
            run_suites(cfg, out_dir=tmp_path / str(i))
    finally:
        tracer.uninstall()
    called = {name for _, _, name, _, _ in tracer.spans}
    uncalled = [
        f"{layer}.{fname}"
        for layer, (_, fnames) in tracing.LAYERS.items()
        for fname in fnames
        if f"{layer}.{fname}" not in called
    ]
    assert uncalled == []
