"""Injectivity, density, and heat-kernel diagnostics."""

import dataclasses
import json
import logging
import tracemalloc

import numpy as np
import pytest

from conftest import bundled_config, hat_probes

from fracred.config import ConfigError, parse_config
from fracred.dirichlet import ExteriorData
from fracred.diagnostics import (
    HeatRatioReport,
    SingularValueReport,
    heat_bound_check,
    heatflow_rigidity_probe,
    heatflow_rows,
    runge_rank,
    ucp_quotient,
)
from fracred.operators import CoefficientField, assemble
from fracred.runner import run_suites


def rigidity(op1, op2, a, f, quad, sigma):
    """The rigidity probe of two operators: the comparison of their heat-flow rows."""
    return heatflow_rigidity_probe(*(heatflow_rows(op, a, f, quad, sigma) for op in (op1, op2)))


def report(values, shape=(2, 4), tag="test"):
    return SingularValueReport(
        singular_values=np.asarray(values, dtype=float), shape=shape, tag=tag
    )


class TestSingularValueReport:
    def test_requires_descending_nonnegative(self):
        with pytest.raises(ValueError):
            report([1.0, 2.0])
        with pytest.raises(ValueError):
            report([1.0, -0.5])

    def test_extremes(self):
        r = report([3.0, 2.0, 0.5])
        assert r.largest == 3.0
        assert r.smallest == 0.5

    def test_full_row_rank_thresholds(self):
        assert report([3.0, 2.0], shape=(2, 5)).full_row_rank
        assert not report([3.0, 1e-12], shape=(2, 5)).full_row_rank
        # fewer singular values than rows can never certify the rank
        assert not report([3.0], shape=(2, 5)).full_row_rank

    def test_dominates_compares_matched_indices(self):
        big = report([3.0, 2.0, 1.0], shape=(3, 5))
        small = report([2.5, 1.5], shape=(2, 5))
        assert big.dominates(small)
        assert not small.dominates(big)

    def test_dominates_tolerates_roundoff_ties(self):
        a = report([3.0, 2.0], shape=(2, 5))
        b = report([3.0, 2.0 * (1 + 1e-15)], shape=(2, 5))
        assert a.dominates(b) and b.dominates(a)


class TestUcpQuotient:
    def sigma_chain(self, scn):
        wt = scn.labels.node_set("WTILDE")
        free = wt[scn.op.node_to_dof[wt] >= 0]
        return [free[: free.size // 3], free[: 2 * free.size // 3], free]

    def test_positive_on_exterior_sets(self, base1d):
        for a in (0.25, 0.5, 0.75):
            for sigma in self.sigma_chain(base1d):
                assert ucp_quotient(base1d.op, a, sigma).smallest > 0

    def test_monotone_under_enlargement(self, base1d):
        # adding rows raises every matched singular value
        for a in (0.25, 0.5, 0.75):
            reports = [ucp_quotient(base1d.op, a, s) for s in self.sigma_chain(base1d)]
            assert reports[1].dominates(reports[0])
            assert reports[2].dominates(reports[1])

    def test_full_restriction_floor(self, base1d):
        # with Sigma = all free nodes the value rows are all of Phi,
        # so smin is at least min(1, lambda_min^a); measured ~5.7 here
        rep = ucp_quotient(base1d.op, 0.5, base1d.op.free_nodes)
        assert rep.smallest >= min(1.0, base1d.op.lambda_min**0.5)

    def test_empty_sigma_rejected(self, base1d):
        with pytest.raises(ValueError):
            ucp_quotient(base1d.op, 0.5, [])

    def test_omega_overlap_logs_a_warning(self, base1d, caplog):
        omega_node = int(base1d.labels.node_set("OMEGA")[5])
        with caplog.at_level(logging.WARNING, logger="fracred.diagnostics"):
            rep = ucp_quotient(base1d.op, 0.5, [omega_node])
        assert rep.smallest > 0
        assert any("Sigma meets OMEGA" in r.message for r in caplog.records)

    def test_constrained_node_rejected(self, base1d):
        boundary_node = int(np.flatnonzero(base1d.op.node_to_dof < 0)[0])
        with pytest.raises(ValueError):
            ucp_quotient(base1d.op, 0.5, [boundary_node])

    def test_repeated_sigma_node_rejected(self, base1d):
        # a repeated row is a rank drop, not a unique-continuation failure:
        # [w0, w0, w1] gave smin ~1e-16, which still passed smin > 0
        w0, w1 = self.sigma_chain(base1d)[-1][:2]
        with pytest.raises(ValueError, match="Sigma nodes must be distinct"):
            ucp_quotient(base1d.op, 0.5, [w0, w0, w1])

    def test_holds_no_n_by_n_array(self, base2d):
        # the quotient reads |Sigma| eigenbasis rows and caches nothing
        op = assemble(base2d.mesh, base2d.op.coeffs)
        sigma = self.sigma_chain(base2d)[-1]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for a in (0.25, 0.5, 0.75):
                ucp_quotient(op, a, sigma)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held <= 0.05 * 8.0 * op.n_dofs**2


class TestRungeRank:
    def test_baseline_certifies_full_row_rank(self, base1d):
        frozen = {0.25: 5.692765789368956e-3, 0.5: 3.992963125255031e-3, 0.75: 1.7274426503956829e-3}
        for a, want in frozen.items():
            rep = runge_rank(base1d.op, a, base1d.labels)
            assert rep.full_row_rank
            assert rep.smallest / rep.largest == pytest.approx(want, rel=1e-9)
            assert rep.smallest / rep.largest > 1e-10

    def test_wide_e_reports_without_rank(self, base2d):
        # |E| > |W| on the 2d baseline: the spectrum is still returned
        rep = runge_rank(base2d.op, 0.5, base2d.labels)
        assert rep.shape[0] > rep.shape[1]
        assert not rep.full_row_rank
        assert rep.largest > 0

    @staticmethod
    def carrying(scn, labels):
        # the operator owns its labels, so doctored ones must be assembled in
        return assemble(scn.mesh, CoefficientField.build(scn.mesh, labels=labels))

    def test_overlapping_windows_rejected(self, base1d):
        bad = dataclasses.replace(base1d.labels, e_nodes=base1d.labels.w_nodes)
        with pytest.raises(ValueError, match="overlap"):
            runge_rank(self.carrying(base1d, bad), 0.5, bad)

    def test_empty_window_rejected(self, base1d):
        empty = dataclasses.replace(base1d.labels, e_nodes=np.array([], dtype=int))
        with pytest.raises(ValueError, match="empty"):
            runge_rank(self.carrying(base1d, empty), 0.5, empty)


class TestHeatBound:
    def center_pairs(self, scn):
        nodes = scn.mesh.nodes.ravel()
        picks = [np.argmin(np.abs(nodes - x)) for x in (0.0, 0.1, 0.2)]
        return [(picks[0], picks[1]), (picks[0], picks[2]), (picks[1], picks[2])]

    def test_ratios_near_one_in_window(self, heat1d):
        rep = heat_bound_check(heat1d.op, 0.01, self.center_pairs(heat1d))
        assert rep.t_in_window
        assert np.all(rep.ratios > 0.9) and np.all(rep.ratios < 1.1)
        assert np.all(rep.edge_distances >= 0.5)

    def test_kernel_is_symmetric_in_the_pair(self, heat1d):
        (i, j), *_ = self.center_pairs(heat1d)
        r1 = heat_bound_check(heat1d.op, 0.01, [(i, j)])
        r2 = heat_bound_check(heat1d.op, 0.01, [(j, i)])
        assert r1.ratios[0] == pytest.approx(r2.ratios[0], rel=1e-12)
        assert r1.separations[0] == r2.separations[0]

    def test_window_flag_reflects_time_scale(self, heat1d):
        # h = 0.005 puts the window at [1e-4, 1]
        pairs = self.center_pairs(heat1d)
        assert not heat_bound_check(heat1d.op, 2e-5, pairs).t_in_window
        assert not heat_bound_check(heat1d.op, 10.0, pairs).t_in_window

    def test_rejects_decorated_operators(self, perturbed1d, heat1d):
        pairs = self.center_pairs(heat1d)[:1]
        with pytest.raises(ValueError, match="plain"):
            heat_bound_check(perturbed1d.op2, 0.01, pairs)

    def test_rejects_weighted_mass(self, heat1d):
        field = CoefficientField.build(heat1d.mesh)
        weighted = assemble(
            heat1d.mesh, dataclasses.replace(field, w=np.full(heat1d.mesh.element_count, 2.0))
        )
        with pytest.raises(ValueError, match="plain"):
            heat_bound_check(weighted, 0.01, self.center_pairs(heat1d)[:1])

    def test_rejects_nonpositive_time(self, heat1d):
        with pytest.raises(ValueError):
            heat_bound_check(heat1d.op, 0.0, self.center_pairs(heat1d)[:1])

    def test_rejects_nan_time(self, heat1d):
        # NaN fails no `<= 0` test; the ratios came back NaN
        with pytest.raises(ValueError, match="time must be positive"):
            heat_bound_check(heat1d.op, float("nan"), self.center_pairs(heat1d)[:1])


class TestRigidityProbe:
    def sigma(self, scn):
        wt = scn.labels.node_set("WTILDE")
        free = wt[scn.op.node_to_dof[wt] >= 0]
        return free[:5]

    def test_identical_operators_give_zero(self, base1d, quad):
        f = hat_probes(base1d)[0]
        value = rigidity(
            base1d.op, base1d.op, 0.5, f, quad, self.sigma(base1d)
        )
        assert value == 0.0

    def test_zeroth_order_perturbation_regression(self, perturbed1d, base1d, quad):
        # frozen from the first verified run on the baseline geometry
        f = hat_probes(base1d)[0]
        value = rigidity(
            perturbed1d.op1, perturbed1d.op2, 0.5, f, quad, self.sigma(base1d)
        )
        assert value == pytest.approx(1.4668820662714728e-3, rel=1e-9)
        assert value > 1e-6

    def test_scales_linearly_in_the_datum(self, perturbed1d, base1d, quad):
        f = hat_probes(base1d)[0]
        doubled = ExteriorData(2.0 * f.values, f.w_dofs)
        v1 = rigidity(
            perturbed1d.op1, perturbed1d.op2, 0.5, f, quad, self.sigma(base1d)
        )
        v2 = rigidity(
            perturbed1d.op1, perturbed1d.op2, 0.5, doubled, quad, self.sigma(base1d)
        )
        assert v2 == pytest.approx(2.0 * v1, rel=1e-12)

    def test_block_datum_is_the_worst_column(self, perturbed1d, base1d, quad):
        probes = hat_probes(base1d)[:3]
        sigma = self.sigma(base1d)
        ops = (perturbed1d.op1, perturbed1d.op2)
        block = rigidity(*ops, 0.5, ExteriorData.stack(probes), quad, sigma)
        singles = [rigidity(*ops, 0.5, f, quad, sigma) for f in probes]
        assert block == pytest.approx(max(singles), rel=1e-12)

    def test_sigma_near_support_rejected(self, perturbed1d, base1d, quad):
        f = hat_probes(base1d)[0]
        w_nodes = base1d.labels.node_set("W")
        with pytest.raises(ValueError, match="support"):
            rigidity(
                perturbed1d.op1, perturbed1d.op2, 0.5, f, quad, w_nodes[:2]
            )

    def test_requires_labeled_operators(self, base1d, quad):
        # rows of an unlabelled operator can be taken (on the datum's mesh),
        # but not compared: it has no OMEGA to tell its exterior by
        plain = assemble(base1d.mesh, CoefficientField.build(base1d.mesh))
        f = hat_probes(base1d)[0]
        with pytest.raises(ValueError, match="labels"):
            rigidity(
                plain, plain, 0.5, f, quad, self.sigma(base1d)
            )

    @pytest.mark.parametrize("name", ["A", "b", "c", "w"])
    def test_rejects_partner_with_other_exterior_weight(self, base1d, quad, name):
        # an unlabelled partner escapes the support rule, so only the
        # shared-exterior check can see any one of its coefficients differ
        # off OMEGA
        outside = np.setdiff1d(np.arange(base1d.mesh.element_count), base1d.labels.omega_elements)
        field = CoefficientField.build(base1d.mesh)
        changed = getattr(field, name).copy()
        changed[outside[:5]] = 3.0
        partner = assemble(base1d.mesh, dataclasses.replace(field, **{name: changed}))
        f = hat_probes(base1d)[0]
        with pytest.raises(ValueError, match="exterior coefficient mismatch"):
            rigidity(base1d.op, partner, 0.5, f, quad, self.sigma(base1d))

    def test_rows_at_another_exponent_or_sigma_rejected(self, base1d, quad):
        f = hat_probes(base1d)[0]
        sigma = self.sigma(base1d)
        rows = heatflow_rows(base1d.op, 0.5, f, quad, sigma)
        for other in (
            heatflow_rows(base1d.op, 0.25, f, quad, sigma),
            heatflow_rows(base1d.op, 0.5, f, quad, sigma[:3]),
        ):
            with pytest.raises(ValueError, match="different exponents or Sigma"):
                heatflow_rigidity_probe(rows, other)

    def test_runner_keeps_sigma_off_the_datum_when_windows_coincide(self, tmp_path):
        with open(bundled_config("perturbed-1d.json")) as fh:
            raw = json.load(fh)
        raw["regions"]["wtilde"] = [1.05, 1.8]
        result = run_suites(parse_config(raw), out_dir=tmp_path / "same", suites=["diagnostics"])
        assert result.failures == []
        # WTILDE nodes 61 and 62 both touch the hat at node 61: no Sigma, an invalid scenario
        raw["regions"]["wtilde"] = [1.05, 1.1]
        with pytest.raises(ConfigError, match="no rigidity Sigma"):
            run_suites(parse_config(raw), out_dir=tmp_path / "none", suites=["diagnostics"])
        assert not (tmp_path / "none").exists()
