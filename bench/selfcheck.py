"""Fast self-check of the benchmark.  Run from the repository root:

    python3 bench/selfcheck.py

It runs the small ``smoke`` workload (the packaged perturbed-1d config)
untraced and traced, and requires that every metric BENCHMARK.json names is
printed, by name and with its unit, and that the output check passes.  It
then copies only BENCHMARK.json and bench/ into a scratch directory and
requires the benchmark to refuse to run there: exit code other than 0 and no
result line.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def require(ok: bool, message: str) -> None:
    if not ok:
        sys.exit(f"selfcheck failed: {message}")


def run_smoke(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "smoke", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_smoke(ROOT, trace)
        require(proc.returncode == 0, f"trace {trace} exited {proc.returncode}: {proc.stderr}")
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        require(set(result) == {"correct", "attempted", "failed", "metrics"},
                f"result keys {sorted(result)}")
        require(result["correct"] is True and result["failed"] == 0,
                f"output check failed: {proc.stderr}")
        require(result["attempted"] >= 1, "nothing attempted")
        expected = {m["name"]: m["unit"] for m in spec[group]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        require(printed == expected,
                f"trace {trace} metrics differ from {group}: "
                f"{sorted(set(printed) ^ set(expected))}")
        for name, m in result["metrics"].items():
            require(isinstance(m["value"], (int, float)), f"{name} is not a number")
            require(any(line.startswith(f"{name} = ") and line.endswith(f" {m['unit']}")
                        for line in lines),
                    f"{name} not printed with its unit")

    bare = ROOT / ".bench_out" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_smoke(bare, 0)
        require(proc.returncode != 0, "benchmark ran without the program")
        require(not proc.stdout.strip(), "benchmark printed output without the program")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("selfcheck ok")


if __name__ == "__main__":
    main()
