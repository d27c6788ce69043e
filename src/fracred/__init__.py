"""Fractional powers of elliptic operators: assembly, nonlocal problems, reduction.

The modules are the interface (``from fracred.operators import assemble``);
the package binds only the run entry points.
"""

# runner first, so numpy and scipy load before config's jsonschema: in
# alternating fresh interpreters the other order started about 0.02 s slower
from .runner import run_suites
from .config import load_config

__version__ = "0.1.0"
