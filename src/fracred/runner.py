"""Suite runner: build a scenario from a config, run suites, write results.

Suites execute in the declared order

    calibrate -> assemble -> direct -> reduce -> gauge -> diagnostics

A suite reads the scenario through ``RunContext`` and returns its artifacts,
{file name: document} with a dict written as JSON and a str as CSV text,
which ``run_suites`` writes, so a failing suite writes none by construction.
Contract violations inside a suite are collected as failures (the run
continues with the remaining suites where that makes sense); a scenario
whose operator cannot be assembled at all aborts the remaining suites,
which are then reported as skipped.  Every float in an output file, JSON or
CSV, is written as ``json.dumps`` writes it, the shortest text that reads
back to the same double, and no file holds a timestamp, so reruns with the
same config and seed are byte-identical.

A second operator is evaluated first: before any suite runs, operator 1 is
assembled, the products the selected suites read of it are kept (see
``_read_second``) and the operator is dropped, so operator 0's eigensolve
runs with no other n x n eigenbasis resident.  Both sides of a comparison
are read by one function, ``_product``.  An exception raised while
operator 1 is read is raised where a suite reads that product, so a failing
run fails in the same suite, with the same record, as one that held both.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .calculus import apply_power, calibration_rows
from .config import SUITE_NAMES, ConfigError, ExperimentConfig, check_key
from .diagnostics import heat_bound_check, heatflow_rigidity_probe, heatflow_rows, runge_rank, ucp_quotient
from .dirichlet import ExteriorData, solve_exterior_value, stability_constant
from .gauge import gauge_invariance_check, pushforward_operator
from .mesh import dump_json
from .operators import AssemblyError, PositivityError, assemble, check
from .reduction import theorem1_gaps, theorem1_probe, theorem1_readings


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
    """Scenario state shared by the suites of one run.

    ``operator()`` is operator 0, assembled at first use and held for the
    run; ``product(i, suite, a)`` is what a comparison reads of operator i.
    ``rigidity`` is the datum node and Sigma of the two-operator rigidity
    probe, or None when ``diagnostics`` does not run one.
    """

    def __init__(self, cfg: ExperimentConfig, seed: int, suites):
        self.cfg = cfg
        self.seed = seed
        self.mesh = cfg.build_mesh()
        self.labels = cfg.build_labels(self.mesh)
        self.fields = cfg.build_fields(self.mesh, self.labels)
        self.quad = cfg.quad
        self.diffeo = cfg.build_diffeo(self.mesh, self.labels)
        runs_rigidity_probe = len(self.fields) == 2 and "diagnostics" in suites
        self.rigidity = _rigidity_nodes(self.mesh, self.labels) if runs_rigidity_probe else None
        self._second = _read_second(self, suites)
        self._op = None

    def operator(self):
        if self._op is None:
            self._op = assemble(self.mesh, self.fields[0])
        return self._op

    def product(self, i: int, suite: str, a=None):
        """Operator i's ``_product`` for ``suite`` at exponent a: operator 0's
        is read now, operator 1's from the store, raising a kept exception."""
        if i == 0:
            return _product(self, self.operator(), 0, suite, a)
        value = self._second[suite, a]
        if isinstance(value, Exception):
            raise value
        return value


def _product(ctx: RunContext, op, i: int, suite: str, a=None):
    """What a comparison of ``suite`` reads of operator i (op): its
    ``assemble.json`` row, or at exponent a its Theorem-1 readings of the
    W-hat block (``reduce``) or its heat-flow rows at Sigma of the rigidity
    node's hat (``diagnostics``)."""
    if suite == "assemble":
        return {
            "operator": i,
            "n_dofs": op.n_dofs,
            "lambda_min": op.lambda_min,
            "lambda_max": op.lambda_max,
            "ellipticity_bound": float(op.coeffs.bound),
            "complex": not op.is_real,
            "eigen_residual": op.eigen_residual,
            "spectral_condition": op.lambda_max / op.lambda_min,
        }
    if suite == "reduce":
        return theorem1_readings(op, a, ExteriorData.w_hats(op))
    hat, sigma = ctx.rigidity
    return heatflow_rows(op, a, ExteriorData.hat(op, hat), ctx.quad, sigma)


def _rigidity_nodes(mesh, labels):
    """The rigidity probe's datum node, the first W node off the box boundary,
    and its Sigma: up to five such WTILDE nodes off the hat's closure (WTILDE
    may coincide with W).  A scenario with no Sigma is a ConfigError."""
    boundary = mesh.boundary_nodes()
    hat = labels.w_nodes[~np.isin(labels.w_nodes, boundary)][0]
    wt = labels.wtilde_nodes[~np.isin(labels.wtilde_nodes, boundary)]
    sigma = wt[~np.isin(wt, mesh.elements[mesh.elements_touching(hat)])][:5]
    if sigma.size == 0:
        raise ConfigError(
            "no rigidity Sigma: every WTILDE node off the box boundary lies in "
            "the closure of the hat at the first W node"
        )
    return hat, sigma


def _read_second(ctx: RunContext, suites) -> dict:
    """Operator 1's ``_product`` for each selected suite that reads one,
    keyed (suite, a): the assemble row (a None) and, per exponent, the
    readings for ``reduce`` and the heat-flow rows for ``diagnostics``.

    Empty without a second operator or a suite that reads it.  The row is
    always taken, so that reading it raises an assembly failure, which
    stands in for every product.  A suite's exponents are read up to the
    first failure, where the suite itself stops.  A kept exception loses
    its traceback, whose frames would keep operator 1 alive.
    """
    keys = [(s, a) for s in ("reduce", "diagnostics") if s in suites for a in ctx.cfg.exponents]
    if len(ctx.fields) < 2 or not (keys or "assemble" in suites):
        return {}
    keys.insert(0, ("assemble", None))
    try:
        op = assemble(ctx.mesh, ctx.fields[1])
    except Exception as exc:
        return dict.fromkeys(keys, exc.with_traceback(None))
    second, failed = {}, set()
    for suite, a in keys:
        if suite not in failed:
            try:
                second[suite, a] = _product(ctx, op, 1, suite, a)
            except Exception as exc:
                second[suite, a] = exc.with_traceback(None)
                failed.add(suite)
    return second


def _csv(rows: list, header: str) -> str:
    def cell(v):
        return str(v) if isinstance(v, (str, int, np.integer)) else repr(float(v))

    lines = [header] + [",".join(cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _suite_calibrate(ctx: RunContext) -> dict:
    op = ctx.operator()
    lam_min, lam_max = op.lambda_min, op.lambda_max
    lambdas = np.unique(
        np.concatenate([np.geomspace(lam_min, lam_max, 9), [1.0, 10.0]])
    )
    rows = []
    worst = {}
    for a in ctx.cfg.exponents:
        for lam, exact, approx, rel in calibration_rows(ctx.quad, lambdas, a):
            rows.append((a, lam, exact, approx, rel))
        worst[a] = ctx.quad.ensure_calibrated(lam_min, lam_max, a)
    return {
        "calibration.csv": _csv(rows, "a,lambda,exact,quadrature,rel_error"),
        "calibration.json": {
            "s_max": ctx.quad.s_max,
            "n": ctx.quad.n,
            "spectrum": [lam_min, lam_max],
            "worst_rel_error": {str(a): worst[a] for a in ctx.cfg.exponents},
        },
    }


def _suite_assemble(ctx: RunContext) -> dict:
    report = [ctx.product(i, "assemble") for i in range(len(ctx.fields))]
    return {"assemble.json": {"operators": report}}


def _suite_direct(ctx: RunContext) -> dict:
    op = ctx.operator()
    w_nodes = op.free_nodes[op.region_dofs("W")]
    rng = np.random.default_rng(ctx.seed)
    per_a = {}
    for a in ctx.cfg.exponents:
        f = rng.standard_normal(w_nodes.size)
        g = rng.standard_normal(w_nodes.size)
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
    return {"direct.json": {"per_a": per_a}}


def _suite_reduce(ctx: RunContext) -> dict:
    op = ctx.operator()
    f = ExteriorData.w_hats(op)
    per_a = {}
    for a in ctx.cfg.exponents:
        # operator 0 against itself: its gaps are 0.0 by construction, reported but not checked
        self_probe = theorem1_probe(op, op, a, [f], ctx.labels)
        entry = {
            "lift_residuals": self_probe["lift_residuals"],
            "self_exterior_gap": self_probe["exterior_gap"],
            "self_boundary_gap": self_probe["boundary_gap"],
        }
        if len(ctx.fields) == 2:
            pair_probe = theorem1_gaps(ctx.product(0, "reduce", a), ctx.product(1, "reduce", a))
            entry["pair_exterior_gap"] = pair_probe["exterior_gap"]
            entry["pair_boundary_gap"] = pair_probe["boundary_gap"]
        per_a[str(a)] = entry
    return {"cauchy_gap.json": {"per_a": per_a}}


def _suite_gauge(ctx: RunContext) -> dict:
    if ctx.diffeo is None:
        return {"gauge_check.json": {"skipped": "no deformation configured"}}
    op = ctx.operator()
    moved = pushforward_operator(op, ctx.diffeo)
    km_dev = max(float(abs(op.K - moved.K).max()), float(abs(op.M - moved.M).max()))
    check("transport deviation", km_dev, ContractError)
    coeff_diff = float(np.abs(op.coeffs.A - moved.coeffs.A).max())
    probes = [ExteriorData.w_hats(op)]
    per_a = {}
    for a in ctx.cfg.exponents:
        dev = gauge_invariance_check(op, moved, a, ctx.labels, probes)
        per_a[str(a)] = check("gauge deviation", dev, ContractError, a)
    return {
        "gauge_check.json": {
            "rho": ctx.cfg.diffeo_spec["rho"],
            "factor": ctx.cfg.diffeo_spec["factor"],
            "matrix_deviation": km_dev,
            "coefficient_difference": coeff_diff,
            "cauchy_deviation_per_a": per_a,
        }
    }


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


def _suite_diagnostics(ctx: RunContext) -> dict:
    op = ctx.operator()
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

    if op.coeffs.plain():
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
        ctx.product(1, "assemble")  # operator 1's assembly failure comes before operator 0's rows
        doc["rigidity_probe"] = {
            str(a): heatflow_rigidity_probe(
                ctx.product(0, "diagnostics", a), ctx.product(1, "diagnostics", a)
            )
            for a in ctx.cfg.exponents
        }

    return {"diagnostics.json": doc, "svals.csv": _csv(sval_rows, "report,index,value")}


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

    Raises ConfigError for an override that breaks the schema rule of the
    config key it replaces and for scenario construction failures; numeric
    contract violations, and a non-finite float in a suite's document, are
    collected into the failure manifest instead.
    """
    for key, override in (("suites", suites), ("seed", seed), ("out_dir", out_dir)):
        if override is not None:
            check_key(key, override)
    ordered = [s for s in SUITE_NAMES if s in (cfg.suites if suites is None else suites)]

    ctx = RunContext(cfg, cfg.seed if seed is None else int(seed), ordered)
    failures = []
    skipped = []
    texts = {}
    abort = False
    for name in ordered:
        if abort:
            skipped.append(name)
            continue
        try:
            texts.update({
                fname: doc if isinstance(doc, str) else dump_json(doc) + "\n"
                for fname, doc in _SUITE_FNS[name](ctx).items()
            })
        except (PositivityError, AssemblyError) as exc:
            failures.append(_failure(name, exc))
            abort = True
        except (ContractError, ArithmeticError, ValueError, RuntimeError) as exc:
            failures.append(_failure(name, exc))

    target = Path(out_dir if out_dir is not None else cfg.out_dir)
    target.mkdir(parents=True, exist_ok=True)
    written = sorted(texts)
    texts["manifest.json"] = dump_json({
        "ok": not failures,
        "seed": ctx.seed,
        "suites_run": [s for s in ordered if s not in skipped],
        "suites_skipped": skipped,
        "failures": failures,
        "outputs": written,
    }) + "\n"
    written.append("manifest.json")
    for fname in written:
        (target / fname).write_text(texts[fname])
    return RunResult(ok=not failures, failures=failures, outputs=written, out_dir=target)
