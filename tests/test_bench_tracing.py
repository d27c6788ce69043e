"""The benchmark tracer's function table names functions that still exist.

bench/tracing.py wraps fracred functions by name; a renamed or deleted
function would only surface as a crash of ``bench/run.py --trace 1``.  The
tracer is loaded by path and left as it is.
"""

import importlib
import importlib.util
from pathlib import Path

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
