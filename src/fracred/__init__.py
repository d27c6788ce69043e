"""Fractional powers of elliptic operators: assembly, nonlocal problems, reduction.

The modules are the interface (``from fracred.operators import assemble``);
the package binds only the run entry points.
"""

from .runner import run_suites
from .config import load_config

__version__ = "0.1.0"
