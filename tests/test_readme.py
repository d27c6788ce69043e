"""The README's claims table, module table and package bindings match the
package."""

import importlib
import json
import re
import types
from pathlib import Path

from conftest import bundled_config

import fracred
from fracred.config import load_config
from fracred.runner import run_suites

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


NUMBER = r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?"


def claims_rows() -> list:
    """(config, artifact file, key paths, value text) of each claims row.

    The value cell reads "<values and words> (<config>, <notes>)", with one
    value per key path, in order; a value written "< x" is an upper bound.
    """
    rows = []
    for line in section("What the artifacts show of the paper").splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) != 5 or not cells[2].startswith("`"):
            continue  # prose, the header and the rule
        artifact, *keys = re.findall(r"`([^`]+)`", cells[2])
        text, config = re.fullmatch(r"(.*) \(([\w-]+)[^)]*\)", cells[3]).groups()
        rows.append((config, artifact, keys, text))
    return rows


def read(doc: dict, path: str):
    """The artifact value at a key path such as ``runge.smin`` or
    ``ucp[-1].smin``, at a = 0.5: under ``per_a["0.5"]`` when the key is
    there, and the "0.5" entry of a per-exponent dict."""
    parts = re.findall(r"\w+|\[-?\d+\]", path)
    node = doc.get("per_a", {}).get("0.5", {})
    node = node if parts[0] in node else doc
    for part in parts:
        node = node[int(part[1:-1])] if part.startswith("[") else node[part]
    return node["0.5"] if isinstance(node, dict) and "0.5" in node else node


def agrees(printed: str, bound: bool, value) -> bool:
    """``value`` equals ``printed`` at its significant digits, or lies below
    it when it is a bound; true and false name a boolean."""
    if printed in ("true", "false"):
        return value is (printed == "true")
    if bound:
        return value < float(printed)
    digits = len(printed.split("e")[0].lstrip("-").replace(".", "").lstrip("0"))
    return float(f"{value:.{digits - 1}e}") == float(printed)


def test_claims_table_values_match_the_bundled_runs(tmp_path):
    rows = claims_rows()
    assert len(rows) == 8
    runs = {}
    stale = []
    for config, artifact, keys, text in rows:
        if config not in runs:
            result = run_suites(load_config(bundled_config(f"{config}.json")), out_dir=tmp_path / config)
            assert result.ok, result.failures
            runs[config] = result.out_dir
        doc = json.loads((runs[config] / artifact).read_text())
        values = re.findall(rf"(<\s*)?\b({NUMBER}|true|false)\b", text)
        assert len(values) == len(keys), (config, artifact, text)
        for key, (bound, printed) in zip(keys, values):
            value = read(doc, key)
            if not agrees(printed, bool(bound), value):
                stale.append(f"{config} {artifact} {key}: README {bound}{printed}, run {value!r}")
    assert not stale, stale
