"""Suite runner: build a scenario from a config, run suites, write results.

Suites execute in the declared order

    calibrate -> assemble -> direct -> reduce -> gauge -> diagnostics

each appending rows to the output set.  Contract violations inside a suite
are collected as failures (the run continues with the remaining suites where
that makes sense); a scenario whose operator cannot be assembled at all
aborts the remaining suites, which are then reported as skipped.  All output
files are written with full-precision floats and no timestamps, so reruns
with the same config and seed are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from pathlib import Path

import numpy as np

from .calculus import apply_power, calibration_rows
from .config import SUITE_NAMES, ConfigError, ExperimentConfig
from .diagnostics import heat_bound_check, heatflow_rigidity_probe, is_plain_laplacian, runge_rank, ucp_quotient
from .dirichlet import ExteriorData, solve_exterior_value, stability_constant
from .gauge import gauge_invariance_check, pushforward_operator
from .mesh import dump_json
from .operators import AssemblyError, PositivityError, assemble, check
from .reduction import theorem1_probe


SUITE_DESCRIPTIONS = {
    "calibrate": "scalar quadrature calibration across the operator spectrum",
    "assemble": "operator assembly report: spectrum range, ellipticity, sizes",
    "direct": "exterior-value solves: linearity, stability constant",
    "reduce": "lifted-pair residuals and exterior/boundary Cauchy gaps",
    "gauge": "invariance of exterior data under the configured deformation",
    "diagnostics": "singular-value reports, heat-kernel ratios, rigidity probe",
}


class ContractError(RuntimeError):
    """A suite-level asserted contract failed."""


@dataclass
class RunResult:
    ok: bool
    failures: list
    outputs: list
    out_dir: Path


class RunContext:
    """Scenario state shared by the suites of one run."""

    def __init__(self, cfg: ExperimentConfig, seed: int):
        self.cfg = cfg
        self.seed = seed
        self.mesh = cfg.build_mesh()
        self.labels = cfg.build_labels(self.mesh)
        self.fields = cfg.build_fields(self.mesh, self.labels)
        self.quad = cfg.quad
        self.diffeo = cfg.build_diffeo(self.mesh)
        self.rng = np.random.default_rng(seed)
        self.outputs: dict[str, str] = {}
        self._ops: dict[int, object] = {}

    def operator(self, i: int = 0):
        if i not in self._ops:
            self._ops[i] = assemble(self.mesh, self.fields[i])
        return self._ops[i]


def _csv(rows: list, header: str) -> str:
    def cell(v):
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        if isinstance(v, str):
            return v
        return format(float(v), ".17g")

    lines = [header] + [",".join(cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _suite_calibrate(ctx: RunContext) -> None:
    op = ctx.operator(0)
    lam_min, lam_max = float(op.eigenvalues[0]), float(op.eigenvalues[-1])
    lambdas = np.unique(
        np.concatenate([np.geomspace(lam_min, lam_max, 9), [1.0, 10.0]])
    )
    rows = []
    worst = {}
    for a in ctx.cfg.exponents:
        for lam, exact, approx, rel in calibration_rows(ctx.quad, lambdas, a):
            rows.append((a, lam, exact, approx, rel))
        worst[a] = ctx.quad.ensure_calibrated(lam_min, lam_max, a)
    ctx.outputs["calibration.csv"] = _csv(
        rows, "a,lambda,exact,quadrature,rel_error"
    )
    ctx.outputs["calibration.json"] = dump_json(
        {
            "s_max": ctx.quad.s_max,
            "n": ctx.quad.n,
            "spectrum": [lam_min, lam_max],
            "worst_rel_error": {str(a): worst[a] for a in ctx.cfg.exponents},
        }
    ) + "\n"


def _suite_assemble(ctx: RunContext) -> None:
    report = []
    for i in range(len(ctx.fields)):
        op = ctx.operator(i)
        report.append(
            {
                "operator": i,
                "n_dofs": op.n_dofs,
                "lambda_min": float(op.eigenvalues[0]),
                "lambda_max": float(op.eigenvalues[-1]),
                "ellipticity_bound": float(op.coeffs.bound),
                "complex": not op.is_real,
                "eigen_residual": op.eigen_residual,
                "spectral_condition": op.lambda_max / op.lambda_min,
            }
        )
    ctx.outputs["assemble.json"] = dump_json({"operators": report}) + "\n"


def _suite_direct(ctx: RunContext) -> None:
    op = ctx.operator(0)
    w_nodes = op.free_nodes[op.region_dofs("W")]
    per_a = {}
    for a in ctx.cfg.exponents:
        f = ctx.rng.standard_normal(w_nodes.size)
        g = ctx.rng.standard_normal(w_nodes.size)
        alpha, beta = 0.7, -1.3
        c_stab = stability_constant(op, a)
        # one block solve, columns: f, g, alpha f + beta g
        block = np.column_stack([f, g, alpha * f + beta * g])
        sol = solve_exterior_value(op, a, ExteriorData.from_node_values(op, w_nodes, block))
        U = sol.u

        u_f, u_combo = U[:, 0], U[:, 2]
        u_sep = alpha * u_f + beta * U[:, 1]
        lin = float(
            np.linalg.norm(u_combo - u_sep) / max(np.linalg.norm(u_combo), 1e-300)
        )
        check("linearity residual", lin, ContractError, a)

        interior = op.omega_interior_dofs()
        res = float(np.abs((op.M @ apply_power(op, a, u_f))[interior]).max())
        per_a[str(a)] = {
            "linearity_residual": lin,
            "stability_constant": c_stab,
            "interior_weak_residual": res,
            "solve_residual": sol.residual,
        }
    ctx.outputs["direct.json"] = dump_json({"per_a": per_a}) + "\n"


def _suite_reduce(ctx: RunContext) -> None:
    op = ctx.operator(0)
    labels = ctx.labels
    probes = [ExteriorData.w_hats(op)]
    doc = {"per_a": {}}
    for a in ctx.cfg.exponents:
        self_probe = theorem1_probe(op, op, a, probes, labels)
        check("self exterior gap", self_probe["exterior_gap"], ContractError, a)
        check("self boundary gap", self_probe["boundary_gap"], ContractError, a)
        entry = {
            "lift_residuals": self_probe["lift_residuals"],
            "self_exterior_gap": self_probe["exterior_gap"],
            "self_boundary_gap": self_probe["boundary_gap"],
        }
        if len(ctx.fields) == 2:
            other = ctx.operator(1)
            pair_probe = theorem1_probe(op, other, a, probes, labels)
            entry["pair_exterior_gap"] = pair_probe["exterior_gap"]
            entry["pair_boundary_gap"] = pair_probe["boundary_gap"]
        doc["per_a"][str(a)] = entry
    ctx.outputs["cauchy_gap.json"] = dump_json(doc) + "\n"


def _suite_gauge(ctx: RunContext) -> None:
    if ctx.diffeo is None:
        ctx.outputs["gauge_check.json"] = dump_json(
            {"skipped": "no deformation configured"}
        ) + "\n"
        return
    op = ctx.operator(0)
    moved = pushforward_operator(op, ctx.diffeo)
    km_dev = max(float(abs(op.K - moved.K).max()), float(abs(op.M - moved.M).max()))
    check("transport deviation", km_dev, ContractError)
    coeff_diff = float(np.abs(op.coeffs.A - moved.coeffs.A).max())
    probes = [ExteriorData.w_hats(op)]
    per_a = {}
    for a in ctx.cfg.exponents:
        dev = gauge_invariance_check(op, moved, a, ctx.labels, probes)
        per_a[str(a)] = check("gauge deviation", dev, ContractError, a)
    ctx.outputs["gauge_check.json"] = dump_json(
        {
            "rho": ctx.cfg.diffeo_spec["rho"],
            "factor": ctx.cfg.diffeo_spec["factor"],
            "matrix_deviation": km_dev,
            "coefficient_difference": coeff_diff,
            "cauchy_deviation_per_a": per_a,
        }
    ) + "\n"


def _heat_pairs(op) -> list:
    # pairs straddling the origin, comfortably away from the box edge
    targets = [0.0, 0.1, 0.2]
    nodes = []
    free = op.free_nodes
    pts = op.mesh.nodes[free]
    for x in targets:
        probe = np.full(op.mesh.dim, 0.0)
        probe[0] = x
        nodes.append(int(free[np.argmin(np.linalg.norm(pts - probe, axis=1))]))
    return [(nodes[0], n) for n in nodes]


def _suite_diagnostics(ctx: RunContext) -> None:
    op = ctx.operator(0)
    doc = {"per_a": {}}
    sval_rows = []

    wt = op.free_nodes[op.region_dofs("WTILDE")]
    chain = [wt[: max(1, wt.size // 3)], wt[: max(2, (2 * wt.size) // 3)], wt]
    for a in ctx.cfg.exponents:
        entry = {}
        rr = runge_rank(op, a, ctx.labels)
        entry["runge"] = {
            "shape": list(rr.shape),
            "smin": rr.smallest,
            "smax": rr.largest,
            "full_row_rank": rr.full_row_rank,
        }
        if rr.shape[0] <= rr.shape[1]:
            check("Runge row condition", rr.row_condition, ContractError, a)
        for idx, sv in enumerate(rr.singular_values):
            sval_rows.append((rr.tag, idx, sv))

        reports = [ucp_quotient(op, a, sigma) for sigma in chain]
        for rep in reports:
            if not rep.smallest > 0:
                raise ContractError(f"vanishing data quotient at a={a} ({rep.tag})")
            for idx, sv in enumerate(rep.singular_values):
                sval_rows.append((rep.tag, idx, sv))
        for small, big in zip(reports, reports[1:]):
            if not big.dominates(small):
                raise ContractError(
                    f"data quotient not monotone under enlargement at a={a}"
                )
        entry["ucp"] = [
            {"sigma_size": int(len(sigma)), "smin": rep.smallest}
            for sigma, rep in zip(chain, reports)
        ]
        doc["per_a"][str(a)] = entry

    if is_plain_laplacian(op):
        h = float(np.sqrt(2.0 * op.mesh.element_measures().min())
                  if op.mesh.dim == 2 else op.mesh.element_measures().min())
        span = float(np.min(op.mesh.box[:, 1] - op.mesh.box[:, 0]))
        # heat_bound_check's window is [4 d^2, (span/4)^2], d the smallest element
        # diameter: t is its geometric mean in 1-D (d = h) and 1/sqrt(2) of that
        # mean in 2-D, where h is the triangle leg and d the hypotenuse
        t = h * span / 2.0
        report = heat_bound_check(op, t, _heat_pairs(op))
        doc["heat_ratios"] = {
            "t": report.t,
            "t_in_window": report.t_in_window,
            "separations": report.separations,
            "ratios": report.ratios,
        }

    if len(ctx.fields) == 2:
        other = ctx.operator(1)
        hat = op.free_nodes[op.region_dofs("W")[0]]
        f = ExteriorData.hat(op, hat)
        # WTILDE may coincide with W, so keep Sigma off the hat's closure
        mesh = op.mesh
        sigma = wt[~np.isin(wt, mesh.elements[mesh.elements_touching(hat)])][:5]
        if sigma.size == 0:
            raise ValueError("every WTILDE node lies in the closure of the rigidity datum")
        per_a = {}
        for a in ctx.cfg.exponents:
            per_a[str(a)] = heatflow_rigidity_probe(
                op, other, a, f, ctx.quad, sigma
            )
        doc["rigidity_probe"] = per_a

    ctx.outputs["diagnostics.json"] = dump_json(doc) + "\n"
    ctx.outputs["svals.csv"] = _csv(sval_rows, "report,index,value")


_SUITE_FNS = {
    "calibrate": _suite_calibrate,
    "assemble": _suite_assemble,
    "direct": _suite_direct,
    "reduce": _suite_reduce,
    "gauge": _suite_gauge,
    "diagnostics": _suite_diagnostics,
}


def _failure(suite: str, exc: Exception) -> dict:
    """Manifest entry of a failed suite; a broken contract adds its record,
    with a non-finite value written as text (JSON has no NaN)."""
    record = dict(getattr(exc, "contract", {}))
    if "value" in record and not np.isfinite(record["value"]):
        record["value"] = str(record["value"])
    return {"suite": suite, "kind": type(exc).__name__, "message": str(exc), **record}


def list_suites() -> str:
    """One line per suite, in execution order."""
    return "\n".join(f"{name}: {SUITE_DESCRIPTIONS[name]}" for name in SUITE_NAMES)


def run_suites(
    cfg: ExperimentConfig,
    out_dir=None,
    suites=None,
    seed=None,
) -> RunResult:
    """Run the selected suites and write results under out_dir.

    Raises ConfigError for invalid suite selections, a seed override that
    is not a non-negative integer, and scenario construction failures;
    numeric contract violations are collected into the failure manifest
    instead.
    """
    selected = tuple(suites) if suites is not None else cfg.suites
    unknown = [s for s in selected if s not in SUITE_NAMES]
    if unknown:
        raise ConfigError(f"unknown suites: {', '.join(unknown)}")
    ordered = [s for s in SUITE_NAMES if s in selected]
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, Integral) or seed < 0):
        raise ConfigError(f"seed override must be a non-negative integer, got {seed!r}")

    ctx = RunContext(cfg, cfg.seed if seed is None else int(seed))
    failures = []
    skipped = []
    abort = False
    for name in ordered:
        if abort:
            skipped.append(name)
            continue
        try:
            _SUITE_FNS[name](ctx)
        except (PositivityError, AssemblyError) as exc:
            failures.append(_failure(name, exc))
            abort = True
        except (ContractError, ArithmeticError, ValueError, RuntimeError) as exc:
            failures.append(_failure(name, exc))

    target = Path(out_dir if out_dir is not None else cfg.out_dir)
    target.mkdir(parents=True, exist_ok=True)
    written = []
    for fname in sorted(ctx.outputs):
        (target / fname).write_text(ctx.outputs[fname])
        written.append(fname)
    manifest = {
        "ok": not failures,
        "seed": ctx.seed,
        "suites_run": [s for s in ordered if s not in skipped],
        "suites_skipped": skipped,
        "failures": failures,
        "outputs": written,
    }
    (target / "manifest.json").write_text(dump_json(manifest) + "\n")
    written.append("manifest.json")
    return RunResult(ok=not failures, failures=failures, outputs=written, out_dir=target)
