"""Fixed point, slow-manifold geometry, fold verification and parameter scans."""
import dataclasses
import json
import math

import numpy as np
import pytest

from phoscil.errors import (
    DomainError,
    FoldSingularityError,
    NoPositiveEquilibriumError,
    PreconditionError,
)
from phoscil.gspt import (
    DEFAULT_EPS_A,
    DEFAULT_EPS_B,
    export_fold_report,
    fixed_point,
    fold_location_A,
    fold_location_B,
    fold_passage_offset,
    invariant_region_check,
    layer_A,
    layer_B,
    manifold_A,
    manifold_A_stability,
    manifold_B,
    manifold_B_stability,
    nullclines,
    return_map_contraction,
    slow_flow_A,
    slow_flow_B,
    stability_scan,
    verify_generic_fold,
)
from phoscil.model import rate_r, rhs, rhs_chart_B, to_log
from phoscil.params import derive_dimensionless

# Chart-A fold-passage offsets for eps in (1e-6, 1e-5, 1e-4), measured once
# at rtol 1e-10; the slope is the log-log fit through the three points.
QUICK_EPS_A = (1e-6, 1e-5, 1e-4)
QUICK_SLOPE_A = 0.61130810056059381
QUICK_OFFSETS_A = (1.8096720553994452e-06, 7.5252353178757335e-06, 3.0214546577191987e-05)


# --- fixed point ------------------------------------------------------------------

def test_fixed_point_frozen_values(dp):
    fp = fixed_point(dp)
    assert math.isclose(fp.s_star, 0.076184035356110749, rel_tol=1e-13)
    assert math.isclose(fp.h_star, 0.090598290598290498, rel_tol=1e-13)
    assert math.isclose(fp.trace, 0.5816270425029797, rel_tol=1e-12)
    assert math.isclose(fp.det, 0.043359026760164787, rel_tol=1e-12)
    assert fp.classification == "repelling node"


def test_fixed_point_closed_form(dp):
    fp = fixed_point(dp)
    h_star = 1.0 - dp.K_s / (dp.alpha * dp.K_h)
    assert fp.h_star == h_star
    assert fp.s_star == dp.K_s / rate_r(h_star, dp)


def test_fixed_point_kills_the_field(dp):
    fp = fixed_point(dp)
    f, g = rhs((fp.s_star, fp.h_star), dp)
    assert abs(f) <= 1e-9 and abs(g) <= 1e-9


def test_fixed_point_log_coordinates(dp, phys):
    fp = fixed_point(dp)
    log = to_log((fp.s_star, fp.h_star), phys)
    assert math.isclose(log.pS, 4.538352430510139, rel_tol=1e-13)
    assert math.isclose(log.pH, 4.928936644174555, rel_tol=1e-13)


def test_fixed_point_requires_admissibility(dp):
    bad = dataclasses.replace(dp, alpha=dp.K_s / dp.K_h)  # alpha*K_h == K_s
    with pytest.raises(NoPositiveEquilibriumError):
        fixed_point(bad)


def test_fixed_point_classification_switches_with_transport(dp):
    # weak acid transport stabilizes the equilibrium
    calm = dataclasses.replace(dp, K_h=1.322 * dp.K_s, alpha=1.0)
    assert fixed_point(calm).classification.startswith("attracting")


# --- nullclines -------------------------------------------------------------------

def test_nullclines_zero_their_components(dp):
    h = np.linspace(0.02, 0.98, 25)
    n_s, n_h = nullclines(dp, h)
    for hi, si in zip(h, n_s):
        assert abs(rhs((float(si), float(hi)), dp)[0]) <= 1e-12
    for hi, si in zip(h, n_h):
        assert abs(rhs((float(si), float(hi)), dp)[1]) <= 1e-10


def test_nullclines_meet_at_the_fixed_point(dp):
    fp = fixed_point(dp)
    n_s, n_h = nullclines(dp, fp.h_star)
    assert math.isclose(float(n_s), fp.s_star, rel_tol=1e-12)
    assert math.isclose(float(n_h), fp.s_star, rel_tol=1e-9)


def test_h_nullcline_vanishes_at_unit_h(dp):
    _, n_h = nullclines(dp, 1.0)
    assert float(n_h) == 0.0


# --- critical manifolds and folds ------------------------------------------------

def test_fold_locations_frozen(dp, es):
    sigma_A, h_A = fold_location_A(es, dp)
    assert math.isclose(sigma_A, 0.00016226884779516358, rel_tol=1e-13)
    assert h_A == 0.5
    s_B, eta_B = fold_location_B(es, dp)
    assert math.isclose(s_B, 0.025963015647226171, rel_tol=1e-13)
    assert eta_B == es.C


def test_fold_locations_closed_forms(dp, es):
    sigma_A, _ = fold_location_A(es, dp)
    assert sigma_A == dp.alpha * dp.beta * dp.K_h / (4.0 * es.C)
    s_B, _ = fold_location_B(es, dp)
    assert s_B == dp.alpha * (2.0 * dp.beta + 1.0) * dp.K_h


def test_manifolds_zero_the_layer_fields(dp, es):
    for h in np.linspace(0.03, 0.97, 21):
        sigma = manifold_A(float(h), es, dp)
        assert abs(layer_A(sigma, float(h), es, dp)[1]) <= 1e-12
    for eta in np.linspace(0.05, 3.0, 21):
        s = manifold_B(float(eta), es, dp)
        assert abs(layer_B(s, float(eta), es, dp)[1]) <= 1e-12


def test_layer_B_is_the_chart_B_field_at_eps_zero(dp, es):
    s, eta = np.meshgrid(np.linspace(0.0, 2.0, 41), np.linspace(0.0, 3.0, 61))
    assert np.any(eta == 0.0)
    np.testing.assert_array_equal(layer_B(s, eta, es, dp)[1],
                                  rhs_chart_B((s, eta), es.at_eps(0.0), dp)[1])


def test_manifold_peaks_sit_at_the_folds(dp, es):
    sigma_A, h_A = fold_location_A(es, dp)
    assert math.isclose(manifold_A(h_A, es, dp), sigma_A, rel_tol=1e-13)
    s_B, eta_B = fold_location_B(es, dp)
    assert math.isclose(manifold_B(eta_B, es, dp), s_B, rel_tol=1e-13)
    # extremality: neighbours on both sides are interior
    for shift in (0.99, 1.01):
        assert manifold_A(h_A * shift, es, dp) < sigma_A
        assert manifold_B(eta_B * shift, es, dp) > s_B


def test_manifold_stability_flips_exactly_at_the_folds(dp, es):
    assert manifold_A_stability(0.5, es, dp) == 0.0
    assert manifold_A_stability(0.6, es, dp) < 0.0  # attracting above the fold
    assert manifold_A_stability(0.4, es, dp) > 0.0
    assert manifold_B_stability(es.C, es, dp) == 0.0
    assert manifold_B_stability(0.5 * es.C, es, dp) < 0.0  # attracting below
    assert manifold_B_stability(2.0 * es.C, es, dp) > 0.0


def test_manifold_domain_guards(dp, es):
    with pytest.raises(DomainError):
        manifold_A(0.0, es, dp)
    with pytest.raises(DomainError):
        manifold_A(1.0, es, dp)
    with pytest.raises(DomainError):
        manifold_B(0.0, es, dp)
    with pytest.raises(DomainError):
        manifold_A_stability(1.5, es, dp)


def test_slow_flows_run_toward_the_folds(dp, es):
    # chart A: h decreases toward h_A = 1/2 on the attracting branch
    for h in (0.6, 0.75, 0.9):
        assert slow_flow_A(h, es, dp) < 0.0
    # chart B: eta increases toward eta_B = C on its attracting branch
    for eta in (0.2 * es.C, 0.5 * es.C, 0.9 * es.C):
        assert slow_flow_B(eta, es, dp) > 0.0


def test_slow_flows_blow_up_at_the_folds(dp, es):
    with pytest.raises(FoldSingularityError):
        slow_flow_A(0.5, es, dp)
    with pytest.raises(FoldSingularityError):
        slow_flow_B(es.C, es, dp)


# --- generic-fold verification ----------------------------------------------------

def test_fold_report_chart_a(dp, es):
    rep = verify_generic_fold("A", es, dp)
    assert rep.chart == "A"
    assert rep.is_generic
    assert abs(rep.g0_value) <= 1e-9
    assert abs(rep.dg0_fast) <= 1e-9
    # closed forms of the nondegeneracy quantities
    assert math.isclose(rep.d2g0_fast, -4.0 * dp.K_h, rel_tol=1e-9)
    assert math.isclose(rep.dg0_slow, -2.0 * es.C / (dp.alpha * dp.beta), rel_tol=1e-9)
    h_star = 1.0 - dp.K_s / (dp.alpha * dp.K_h)
    assert math.isclose(rep.f0_value, dp.alpha * dp.K_h * (0.5 - h_star), rel_tol=1e-9)
    assert math.isclose(rep.d2g0_fast, -0.58378378378378382, rel_tol=1e-12)
    assert math.isclose(rep.dg0_slow, -449.70414201183439, rel_tol=1e-12)
    assert math.isclose(rep.f0_value, 0.010220483641536274, rel_tol=1e-12)


def test_fold_report_chart_b(dp, es):
    rep = verify_generic_fold("B", es, dp)
    assert rep.chart == "B"
    assert rep.is_generic
    assert abs(rep.g0_value) <= 1e-9
    assert abs(rep.dg0_fast) <= 1e-9
    assert rep.d2g0_fast > 0.0
    h_star = 1.0 - dp.K_s / (dp.alpha * dp.K_h)
    assert math.isclose(rep.f0_value, -dp.alpha * dp.K_h * h_star, rel_tol=1e-9)
    assert math.isclose(rep.d2g0_fast, 0.00019909834536556331, rel_tol=1e-10)
    assert math.isclose(rep.dg0_slow, -0.11797749185926321, rel_tol=1e-10)
    assert math.isclose(rep.f0_value, -0.0022617354196301544, rel_tol=1e-12)


def test_fold_report_locations_match(dp, es):
    rep_a = verify_generic_fold("A", es, dp)
    assert rep_a.fold_location == fold_location_A(es, dp)
    rep_b = verify_generic_fold("B", es, dp)
    assert rep_b.fold_location == fold_location_B(es, dp)


def test_fold_report_rejects_unknown_chart(dp, es):
    with pytest.raises(DomainError):
        verify_generic_fold("C", es, dp)


def test_degenerate_fold_is_flagged(dp, es):
    # alpha*K_h = 2*K_s puts h_* exactly at the fold height 1/2, so the
    # slow flow vanishes there: f0 == 0 and the fold is not generic
    degenerate = dataclasses.replace(dp, alpha=0.5, K_h=4.0 * dp.K_s)
    rep = verify_generic_fold("A", es, degenerate)
    assert rep.f0_value == 0.0
    assert not rep.is_generic


def test_fold_report_export_roundtrip(dp, es, tmp_path):
    rep = verify_generic_fold("A", es, dp)
    path = tmp_path / "fold.json"
    export_fold_report(rep, path, provenance=["probe"])
    payload = json.loads(path.read_text())
    assert payload["provenance"] == ["probe"]
    body = payload["report"] if "report" in payload else payload
    assert body["chart"] == "A"
    assert body["is_generic"] is True
    assert math.isclose(body["d2g0_fast"], rep.d2g0_fast, rel_tol=0.0)


# --- stability scan ----------------------------------------------------------------

def test_scan_flags_follow_the_jacobian(dp):
    sm = stability_scan(dp, (2.0, 10.0), (1.5, 8.0), (12, 10))
    assert sm.trace.shape == (12, 10)
    for i, x in enumerate(sm.kh_over_ks):
        for j, y in enumerate(sm.inv_alpha):
            assert sm.admissible[i, j] == (x > y)
            if sm.admissible[i, j]:
                cell = dataclasses.replace(dp, K_h=float(x) * dp.K_s, alpha=1.0 / float(y))
                fp = fixed_point(cell)
                assert math.isclose(sm.trace[i, j], fp.trace, rel_tol=1e-9)
                assert math.isclose(sm.det[i, j], fp.det, rel_tol=1e-9)
                assert sm.oscillates[i, j] == (fp.trace > 0.0 and fp.det > 0.0)
            else:
                assert math.isnan(sm.trace[i, j])
                assert not sm.oscillates[i, j]


def test_scan_is_worker_invariant(dp):
    a = stability_scan(dp, (2.0, 10.0), (1.5, 8.0), (16, 12))
    b = stability_scan(dp, (2.0, 10.0), (1.5, 8.0), (16, 12))
    np.testing.assert_array_equal(a.trace, b.trace)
    np.testing.assert_array_equal(a.det, b.det)
    np.testing.assert_array_equal(a.oscillates, b.oscillates)
    assert a.hopf == b.hopf


def test_scan_hopf_points_sit_on_the_trace_zero_curve(dp):
    sm = stability_scan(dp, (2.0, 10.0), (1.5, 8.0), (24, 20))
    assert sm.hopf, "expected at least one refined boundary point"
    for x, y in sm.hopf:
        cell = dataclasses.replace(dp, K_h=x * dp.K_s, alpha=1.0 / y)
        # bisection leaves ~1e-8 of parameter slack; trace slope is O(1)
        assert abs(fixed_point(cell).trace) <= 1e-6


def test_scan_boundary_cells_bracket_the_hopf_curve(dp):
    sm = stability_scan(dp, (2.0, 10.0), (1.5, 8.0), (24, 20))
    assert sm.boundary.any()
    # boundary cells are admissible by construction
    assert not (sm.boundary & ~sm.admissible).any()


def test_scan_reference_cell_oscillates(dp):
    sm = stability_scan(dp, (2.0, 10.0), (1.5, 8.0), (33, 27))
    x0 = dp.K_h / dp.K_s
    y0 = 1.0 / dp.alpha
    i = int(np.argmin(np.abs(sm.kh_over_ks - x0)))
    j = int(np.argmin(np.abs(sm.inv_alpha - y0)))
    assert sm.oscillates[i, j]


def test_scan_rejects_degenerate_grids(dp):
    with pytest.raises(DomainError):
        stability_scan(dp, (2.0, 10.0), (1.5, 8.0), (1, 10))
    with pytest.raises(DomainError):
        stability_scan(dp, (0.0, 10.0), (1.5, 8.0), (4, 4))


def test_scan_csv_export(dp, tmp_path):
    sm = stability_scan(dp, (2.0, 10.0), (1.5, 8.0), (4, 3))
    path = tmp_path / "scan.csv"
    sm.to_csv(path, provenance=["probe"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# probe"
    assert lines[1] == "kh_over_ks,inv_alpha,trace,det,oscillates"
    assert len(lines) == 2 + 4 * 3


# --- invariant region -------------------------------------------------------------------

def test_region_check_passes_for_reference_parameters(dp):
    rep = invariant_region_check(dp)
    assert rep.ok
    assert rep.violations == ()
    assert math.isclose(rep.h_nul, 3.5006709691844144e-08, rel_tol=1e-9)
    # the corner height really solves n_s(h) = s_nul
    assert math.isclose(dp.K_s / rate_r(rep.h_nul, dp), rep.s_nul, rel_tol=1e-9)


def test_region_check_preconditions(dp):
    with pytest.raises(PreconditionError):
        invariant_region_check(dp, h_top=0.9)
    with pytest.raises(PreconditionError):
        invariant_region_check(dp, s_nul=0.01)
    with pytest.raises(PreconditionError):
        invariant_region_check(dp, samples=1)


# --- fold-passage scaling ------------------------------------------------------------------

def test_default_eps_windows():
    assert len(DEFAULT_EPS_A) == 5 and len(DEFAULT_EPS_B) == 5
    assert DEFAULT_EPS_A[0] == pytest.approx(1e-6) and DEFAULT_EPS_A[-1] == pytest.approx(1e-4)
    assert DEFAULT_EPS_B[0] == pytest.approx(1e-7) and DEFAULT_EPS_B[-1] == pytest.approx(1e-5)


def test_quick_chart_a_scaling_frozen(dp, es):
    fs = fold_passage_offset("A", QUICK_EPS_A, es, dp)
    assert fs.chart == "A"
    assert math.isclose(fs.slope, QUICK_SLOPE_A, rel_tol=1e-9)
    for (eps, offset), expect in zip(fs.entries, QUICK_OFFSETS_A):
        assert math.isclose(offset, expect, rel_tol=1e-9)
    # offsets grow with eps
    offsets = [o for _, o in fs.entries]
    assert offsets == sorted(offsets)


def test_scaling_preconditions(dp, es):
    with pytest.raises(PreconditionError):
        fold_passage_offset("A", (1e-5,), es, dp)
    with pytest.raises(PreconditionError):
        fold_passage_offset("A", (1e-5, 1e-4), es, dp)  # one decade only
    with pytest.raises(DomainError):
        fold_passage_offset("Z", QUICK_EPS_A, es, dp)


# --- return map -------------------------------------------------------------------------------

def test_return_map_contracts_strongly(dp, es):
    ratio = return_map_contraction(dp, es)
    assert 0.0 <= ratio < 1e-6
