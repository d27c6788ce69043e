"""The README's module table and package bindings match the package."""

import importlib
import re
import types
from pathlib import Path

import fracred

README = Path(__file__).resolve().parent.parent / "README.md"


def section(title: str) -> str:
    """The README text under the ``## title`` heading, up to the next one."""
    text = README.read_text()
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def test_every_module_in_the_table_imports():
    inside = section("What is inside")
    # first cells of the module table, as in | `fracred.config` / `fracred.cli` |
    cells = re.findall(r"^\| (`fracred\.[^|]*)\|", inside, flags=re.MULTILINE)
    modules = [name for cell in cells for name in re.findall(r"`(fracred\.\w+)`", cell)]
    assert len(modules) >= 9
    for name in modules:
        assert isinstance(importlib.import_module(name), types.ModuleType), name


def test_package_binds_what_the_readme_says():
    inside = section("What is inside")
    line = next(s for s in inside.splitlines() if s.startswith("`import fracred` binds only"))
    stated = set(re.findall(r"`(\w+)`", line))
    assert stated == {"load_config", "run_suites", "__version__"}
    public = {
        name for name, value in vars(fracred).items()
        if not isinstance(value, types.ModuleType) and not name.startswith("_")
    }
    assert public == stated - {"__version__"}
    assert isinstance(fracred.__version__, str)
