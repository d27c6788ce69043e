"""Output check for benchmark passes.

Every pass's artifacts are read back and checked two ways:

* mathematical outputs (spectrum ends, stability constants, calibration
  errors, singular values above a noise floor, heat-kernel ratios, pair and
  rigidity gaps, the gauge coefficient change) against reference values
  stored in ``reference.json``, at relative tolerance ``RTOL``;
* roundoff residuals (linearity, lift, self-gaps, gauge deviation) only
  against the contract bounds the program states, never against reference
  values, since their digits are roundoff and change with BLAS threading.

Regenerate the references (only when the program's mathematics changes on
purpose) with ``python3 bench/checks.py``.
"""

from __future__ import annotations

import csv
import json
from collections import defaultdict
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: relative tolerance for reference values; the largest change seen between
#: 1 and 2 BLAS threads was 1.1e-8 (rigidity probe, rect 40x40, a = 0.75)
RTOL = 1e-6
#: singular values below this fraction of their report's largest value are
#: roundoff (the program's rank threshold diagnostics.RANK_TOL) and are not
#: compared
SV_FLOOR = 1e-10
#: absolute slack for singular values, as a fraction of the largest one
SV_ATOL = 1e-13
#: absolute slack for calibration errors, which are relative errors of
#: O(1) quantities and so carry roundoff of a few 1e-16
CALIB_ATOL = 1e-13

#: contract bounds on roundoff residuals, as the program asserts them:
#: runner._suite_direct / _suite_reduce / _suite_gauge, reduction.LIFT_TOL_*,
#: calculus.CALIBRATION_TOL
BOUNDS = {
    "linearity_residual": 1e-12,
    "lift_residuals/phi": 1e-10,
    "lift_residuals/psi": 1e-9,
    "lift_residuals/interior": 1e-9,
    "self_exterior_gap": 1e-10,
    "self_boundary_gap": 1e-10,
    "matrix_deviation": 1e-12,
    "cauchy_deviation_per_a": 1e-10,
    "worst_rel_error": 1e-8,
}


def _load(out_dir: Path, name: str):
    path = out_dir / name
    return json.loads(path.read_text()) if path.exists() else None


def extract(out_dir: Path):
    """Reference-comparable values, bounded residuals and the manifest."""
    values = {}
    bounded = []  # (key, value, bound)

    doc = _load(out_dir, "assemble.json")
    if doc:
        for op in doc["operators"]:
            for field in ("n_dofs", "lambda_min", "lambda_max"):
                values[f"assemble/{op['operator']}/{field}"] = op[field]

    doc = _load(out_dir, "calibration.json")
    if doc:
        for a, err in doc["worst_rel_error"].items():
            values[f"calibration/worst_rel_error/{a}"] = err
            bounded.append((f"calibration/worst_rel_error/{a}", err,
                            BOUNDS["worst_rel_error"]))

    doc = _load(out_dir, "direct.json")
    if doc:
        for a, entry in doc["per_a"].items():
            values[f"direct/{a}/stability_constant"] = entry["stability_constant"]
            bounded.append((f"direct/{a}/linearity_residual",
                            entry["linearity_residual"], BOUNDS["linearity_residual"]))

    doc = _load(out_dir, "cauchy_gap.json")
    if doc:
        for a, entry in doc["per_a"].items():
            for res, value in entry["lift_residuals"].items():
                key = f"lift_residuals/{res}"
                bounded.append((f"reduce/{a}/{key}", value, BOUNDS[key]))
            for key in ("self_exterior_gap", "self_boundary_gap"):
                bounded.append((f"reduce/{a}/{key}", entry[key], BOUNDS[key]))
            for key in ("pair_exterior_gap", "pair_boundary_gap"):
                if key in entry:
                    values[f"reduce/{a}/{key}"] = entry[key]

    doc = _load(out_dir, "gauge_check.json")
    if doc and "skipped" not in doc:
        values["gauge/coefficient_difference"] = doc["coefficient_difference"]
        bounded.append(("gauge/matrix_deviation", doc["matrix_deviation"],
                        BOUNDS["matrix_deviation"]))
        for a, dev in doc["cauchy_deviation_per_a"].items():
            bounded.append((f"gauge/{a}/cauchy_deviation", dev,
                            BOUNDS["cauchy_deviation_per_a"]))

    doc = _load(out_dir, "diagnostics.json")
    if doc:
        for i, ratio in enumerate(doc.get("heat_ratios", {}).get("ratios", [])):
            values[f"diagnostics/heat_ratio/{i}"] = ratio
        for a, gap in doc.get("rigidity_probe", {}).items():
            values[f"diagnostics/rigidity_probe/{a}"] = gap

    path = out_dir / "svals.csv"
    if path.exists():
        reports = defaultdict(list)
        with path.open() as fh:
            for row in csv.DictReader(fh):
                reports[row["report"]].append(float(row["value"]))
        for tag, svals in reports.items():
            for i, sv in enumerate(svals):
                if sv >= SV_FLOOR * svals[0]:
                    values[f"svals/{tag}/{i}"] = sv

    manifest = _load(out_dir, "manifest.json") or {}
    return values, bounded, manifest


def _tolerance(key: str, ref: dict) -> float:
    value = ref[key]
    if key.startswith("svals/"):
        tag = key.rsplit("/", 1)[0]
        return RTOL * abs(value) + SV_ATOL * ref[f"{tag}/0"]
    if key.startswith("calibration/"):
        return RTOL * abs(value) + CALIB_ATOL
    return RTOL * abs(value)


def check(out_dir: Path, reference: dict):
    """Check one config's artifacts after a run_suites call.

    Returns (attempted, failures): attempted counts the suites the manifest
    says were attempted plus the checks made here; failures lists the
    manifest's suite failures and every failed check.
    """
    values, bounded, manifest = extract(out_dir)
    ref = reference["values"]
    attempted = len(manifest.get("suites_run", [])) + len(manifest.get("suites_skipped", []))
    failures = [f"suite {f['suite']}: {f['message']}" for f in manifest.get("failures", [])]

    def expect(ok: bool, message: str):
        nonlocal attempted
        attempted += 1
        if not ok:
            failures.append(message)

    for field in ("suites_run", "outputs"):
        expect(manifest.get(field) == reference[field],
               f"manifest {field} {manifest.get(field)} != {reference[field]}")
    for key in sorted(ref):
        if key not in values:
            expect(False, f"{key}: missing")
            continue
        err = abs(values[key] - ref[key])
        expect(err <= _tolerance(key, ref),
               f"{key}: {values[key]!r} vs reference {ref[key]!r}")
    for key, value, bound in bounded:
        expect(0 <= value <= bound, f"{key}: {value!r} exceeds contract bound {bound}")
    return attempted, failures


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def capture() -> None:
    """Run every benchmark config once and store its reference values."""
    import run  # pins BLAS threads before numpy loads

    fracred = run.import_program()
    configs = {}
    for workload in ("probes-2d", "spectral-2d", "bundled-small"):
        for path in run.WORKLOADS[workload]:
            out_dir = run.OUT_DIR / "reference" / path.stem
            fracred.run_suites(fracred.load_config(path), out_dir=out_dir, seed=0)
            values, _, manifest = extract(out_dir)
            configs[path.stem] = {
                "suites_run": manifest["suites_run"],
                "outputs": manifest["outputs"],
                "values": values,
            }
    REFERENCE.write_text(json.dumps(configs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    capture()
