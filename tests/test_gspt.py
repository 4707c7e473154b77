"""Fixed point, slow-manifold geometry, fold verification and parameter scans."""
import dataclasses
import json
import math
import multiprocessing
import random
import tracemalloc

import numpy as np
import pytest

from phoscil import gspt, integrator
from phoscil._fmt import fmt17, write_csv, write_json
from phoscil.errors import (
    DomainError,
    FoldSingularityError,
    NoPositiveEquilibriumError,
    PreconditionError,
    SectionNoHitError,
)
from phoscil.gspt import (
    DEFAULT_EPS_A,
    DEFAULT_EPS_B,
    FoldReport,
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
    slow_flow_A,
    slow_flow_B,
    stability_scan,
    verify_generic_fold,
)
from phoscil.integrator import SolverStats, integrate_until_event
from phoscil.model import rate_r, rhs, rhs_chart_A, rhs_chart_B, rhs_jacobian, to_log
from phoscil.params import UREASE_VESICLE, derive_dimensionless, derive_eps_split

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
    pS, pH = to_log((fp.s_star, fp.h_star), phys)
    assert math.isclose(pS, 4.538352430510139, rel_tol=1e-13)
    assert math.isclose(pH, 4.928936644174555, rel_tol=1e-13)


def _assert_jacobian_trace_det(fp, dp, trace, det):
    """trace and det agree with the analytic Jacobian at fp, an independent evaluation
    that solves the quadratic for q (measured gaps: 1.4e-12 in trace, 7.8e-14 in det)."""
    J = rhs_jacobian((fp.s_star, fp.h_star), dp)
    assert math.isclose(trace, J[0, 0] + J[1, 1], rel_tol=1e-11)
    assert math.isclose(det, J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0], rel_tol=1e-11)


def test_fixed_point_takes_trace_and_det_from_the_scan_kernel(dp):
    """fixed_point and every scan cell share one formula, so they agree to the bit
    (rhs_jacobian's quadratic solve differed in 1,206 of these 2,558 sets), and that
    formula agrees with rhs_jacobian to rounding."""
    rng = random.Random(1)
    sets = [dataclasses.replace(dp, **{name: getattr(dp, name) * 10.0 ** rng.uniform(-2.0, 2.0)
                                       for name in ("K_h", "alpha", "K")}) for _ in range(5000)]
    sets = [p for p in sets if p.admissible]
    assert len(sets) == 2558
    for p in sets:
        fp = fixed_point(p)
        assert (fp.trace, fp.det) == tuple(map(float, gspt._trace_det_grid(p, p.K_h, p.alpha)))
        _assert_jacobian_trace_det(fp, p, fp.trace, fp.det)


def test_fixed_point_requires_admissibility(dp):
    bad = dataclasses.replace(dp, alpha=dp.K_s / dp.K_h)  # alpha*K_h == K_s
    with pytest.raises(NoPositiveEquilibriumError):
        fixed_point(bad)


def test_fixed_point_classification_switches_with_transport(dp):
    # weak acid transport stabilizes the equilibrium
    calm = dataclasses.replace(dp, K_h=1.322 * dp.K_s, alpha=1.0)
    assert fixed_point(calm).classification.startswith("attracting")


@pytest.mark.parametrize("trace, det, kind", [
    (0.5, -1.0, "saddle"), (0.0, -1.0, "saddle"), (0.5, 0.0, "marginal"), (0.0, 1.0, "marginal"),
    (1.0, 0.25, "repelling node"), (1.0, 1.0, "repelling focus"),
    (-1.0, 0.25, "attracting node"), (-1.0, 1.0, "attracting focus"),
])
def test_each_jacobian_class_is_named(trace, det, kind):
    assert gspt._classify(trace, det) == kind


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
    # and chart A's likewise: each layer problem is its chart's field at eps = 0
    s, eta = np.meshgrid(np.linspace(0.0, 2.0, 41), np.linspace(0.0, 3.0, 61))
    assert np.any(eta == 0.0)
    np.testing.assert_array_equal(layer_B(s, eta, es, dp)[1],
                                  rhs_chart_B((s, eta), es.at_eps(0.0), dp)[1])
    sigma, h = np.meshgrid(np.linspace(0.0, 4e-4, 41), np.linspace(0.01, 1.2, 61))
    np.testing.assert_array_equal(layer_A(sigma, h, es, dp)[1],
                                  rhs_chart_A((sigma, h), es.at_eps(0.0), dp)[1])


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


def test_fold_report_export_roundtrip(dp, es, tmp_path):
    # the fold-check JSON envelope: provenance first, then the report fields
    rep = verify_generic_fold("A", es, dp)
    path = tmp_path / "fold.json"
    write_json(path, {"provenance": ["probe"], **rep.to_json_dict()})
    payload = json.loads(path.read_text())
    assert next(iter(payload)) == "provenance"
    assert payload["provenance"] == ["probe"]
    body = payload["report"] if "report" in payload else payload
    assert body["chart"] == "A"
    assert body["is_generic"] is True
    assert math.isclose(body["d2g0_fast"], rep.d2g0_fast, rel_tol=0.0)


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


def _admissible_sample(n, seed=1, decades=2.0):
    """The first n admissible sets drawn with every reference constant scaled
    by 10^U(-decades, decades)."""
    rng = random.Random(seed)
    names = [f.name for f in dataclasses.fields(UREASE_VESICLE)]
    sets = []
    while len(sets) < n:
        phys = dataclasses.replace(UREASE_VESICLE, **{
            name: getattr(UREASE_VESICLE, name) * 10.0 ** rng.uniform(-decades, decades)
            for name in names})
        sample = derive_dimensionless(phys)
        if sample.admissible:
            sets.append(sample)
    return sets


def test_fold_derivatives_match_sympy(dp, chart_b_edge_params):
    """g0 and its three derivatives at both folds against sympy's derivatives
    of the layer problems, evaluated at 40 digits at the reported fold point."""
    sp = pytest.importorskip("sympy")
    mpmath = pytest.importorskip("mpmath")
    symbols = sp.symbols("fast slow alpha beta K_h K C A", positive=True)
    fast, slow, alpha, beta, K_h, K, C, A = symbols
    v = alpha * A * K * fast**2 - K_h
    w = A * K * slow * fast**3 / (beta * C + fast + beta / C * fast**2)
    layers = {
        "A": K_h * (1 - fast) - C * slow / (alpha * beta * fast),  # (slow, fast) = (sigma, h)
        "B": K_h - (sp.sqrt(v * v + 4 * w) - v) / 2,  # (slow, fast) = (s, eta)
    }
    exact = {chart: sp.lambdify(symbols, [g, sp.diff(g, fast), sp.diff(g, fast, 2), sp.diff(g, slow)],
                                modules="mpmath")
             for chart, g in layers.items()}
    sets = [dp, *map(derive_dimensionless, chart_b_edge_params.values()), *_admissible_sample(200)]
    for d in sets:
        es = derive_eps_split(d)
        for chart, derivatives in exact.items():
            rep = verify_generic_fold(chart, es, d)
            s_fold, f_fold = rep.fold_location
            # mpf arguments: plain floats would run the generated arithmetic in double precision
            with mpmath.workdps(40):
                g0, dg_fast, d2g_fast, dg_slow = map(float, derivatives(*map(
                    mpmath.mpf, (f_fold, s_fold, d.alpha, d.beta, d.K_h, d.K, es.C, es.A))))
            # g0 and dg0_fast are zero at the fold: differences of terms of
            # size K_h and K_h/fast, so their error is absolute on that scale
            assert abs(rep.g0_value - g0) <= 1e-12 * d.K_h, (chart, d)
            assert abs(rep.dg0_fast - dg_fast) <= 1e-12 * d.K_h / f_fold, (chart, d)
            assert math.isclose(rep.d2g0_fast, d2g_fast, rel_tol=1e-10), (chart, d)
            assert math.isclose(rep.dg0_slow, dg_slow, rel_tol=1e-10), (chart, d)


def test_generic_folds_stay_generic_at_any_scale():
    # the admissible sets of 6,000 draws over eight decades: g0 and dg0_fast
    # round to at most 1.3e-15 of K_h and K_h/fast, which an absolute
    # tolerance misread as degenerate for large K_h or a small fold coordinate
    for d in _admissible_sample(3_048, seed=7, decades=4.0):
        es = derive_eps_split(d)
        for chart in "AB":
            rep = verify_generic_fold(chart, es, d)
            assert rep.is_generic, (chart, d)


def test_verify_generic_fold_is_total_on_admissible_sets():
    for d in _admissible_sample(200):
        es = derive_eps_split(d)
        for chart in "AB":
            assert isinstance(verify_generic_fold(chart, es, d), FoldReport)


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
                _assert_jacobian_trace_det(fp, cell, sm.trace[i, j], sm.det[i, j])
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


def test_hopf_points_and_region_root_match_scipys_brentq(monkeypatch, dp):
    from scipy.optimize import brentq

    own_hopf = stability_scan(dp, (1.0, 20.0), (1.0, 12.0), (40, 30)).hopf  # refined on read
    own_region = invariant_region_check(dp)
    monkeypatch.setattr(gspt, "_brentq", lambda f, a, b, xtol, rtol=4 * np.finfo(float).eps:
                        (brentq(f, a, b, xtol=xtol, rtol=rtol), None))
    stock_scan = stability_scan(dp, (1.0, 20.0), (1.0, 12.0), (40, 30))
    assert len(own_hopf) > 10 and own_hopf == stock_scan.hopf
    assert own_region.h_nul == invariant_region_check(dp).h_nul


def test_scan_reference_cell_oscillates(dp):
    sm = stability_scan(dp, (2.0, 10.0), (1.5, 8.0), (33, 27))
    x0 = dp.K_h / dp.K_s
    y0 = 1.0 / dp.alpha
    i = int(np.argmin(np.abs(sm.kh_over_ks - x0)))
    j = int(np.argmin(np.abs(sm.inv_alpha - y0)))
    assert sm.oscillates[i, j]


@pytest.mark.parametrize("block_rows", [None, 4], ids=["default-block", "4-row-block"])
@pytest.mark.parametrize("shape", [(3, 2), (37, 23), (200, 200)])
def test_blocked_scan_matches_one_full_grid_call(dp, monkeypatch, shape, block_rows):
    if block_rows is not None:
        monkeypatch.setattr(gspt, "_SCAN_BLOCK", block_rows * shape[1])
    nx, ny = shape
    sm = stability_scan(dp, (1.0, 20.0), (1.0, 12.0), shape)
    xs, ys = np.linspace(1.0, 20.0, nx), np.linspace(1.0, 12.0, ny)
    trace, det = gspt._trace_det_grid(dp, (xs * dp.K_s)[:, None], (1.0 / ys)[None, :])
    trace[~sm.admissible] = np.nan
    det[~sm.admissible] = np.nan
    assert np.array_equal(sm.trace, trace, equal_nan=True)
    assert np.array_equal(sm.det, det, equal_nan=True)


def test_a_scan_computes_no_inadmissible_cell(dp):
    # these cells have no equilibrium; evaluated, they overflow in the kernel
    # (a RuntimeWarning, an error under this suite's filterwarnings)
    sm = stability_scan(dp, (1e-300, 1e-299), (1.0, 12.0), (2, 2))
    assert not sm.admissible.any() and np.isnan(sm.trace).all() and np.isnan(sm.det).all()


def test_scan_and_its_csv_run_in_bounded_memory(dp, tmp_path):
    # the 200x200 grid's own arrays take 0.8 MB; one full-grid kernel call
    # and a CSV built in one string peak near 5.5 and 12.6 MB
    tracemalloc.start()
    try:
        stability_scan(dp, (1.0, 20.0), (1.0, 12.0), (200, 200)).to_csv(tmp_path / "scan.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_scan_finds_sign_changes_without_overflow(dp):
    # traces near 1e306: their product overflows, and warnings are errors here
    sm = stability_scan(dp, (1.0, 1e308), (1.0, 12.0), (3, 3))
    assert np.nanmax(np.abs(sm.trace)) > 1e306
    assert not sm.boundary.any() and sm.hopf == ()
    # and small ones: their product underflows to zero
    flips = gspt._opposite(np.array([1e-200, -1e-200, 0.0]), np.array([-1e-200, 1e-200, 1.0]))
    assert flips.tolist() == [True, True, False]


def test_scan_rejects_degenerate_grids(dp):
    with pytest.raises(DomainError):
        stability_scan(dp, (2.0, 10.0), (1.5, 8.0), (1, 10))
    with pytest.raises(DomainError):
        stability_scan(dp, (0.0, 10.0), (1.5, 8.0), (4, 4))
    with pytest.raises(DomainError, match="^stability_scan requires finite kh_over_ks > 0, got inf$"):
        stability_scan(dp, (1.0, 10 ** 400), (1.5, 8.0), (4, 4))  # an integer beyond float range


def test_scan_csv_export(dp, tmp_path):
    sm = stability_scan(dp, (2.0, 10.0), (1.5, 8.0), (4, 3))
    path = tmp_path / "scan.csv"
    sm.to_csv(path, provenance=["probe"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# probe"
    assert lines[1] == "kh_over_ks,inv_alpha,trace,det,oscillates"
    assert len(lines) == 2 + 4 * 3


def _per_cell_scan_csv(sm, path, provenance):
    """The cell-by-cell writer that the column-wise ``to_csv`` replaced."""
    rows = []
    for i, x in enumerate(sm.kh_over_ks):
        for j, y in enumerate(sm.inv_alpha):
            rows.append([fmt17(x), fmt17(y), fmt17(sm.trace[i, j]), fmt17(sm.det[i, j]),
                         "1" if sm.oscillates[i, j] else "0"])
    write_csv(path, ["kh_over_ks", "inv_alpha", "trace", "det", "oscillates"],
              "%s,%s,%s,%s,%s", rows, provenance=list(provenance))


def test_scan_csv_bytes_match_the_per_cell_writer(dp, tmp_path):
    sm = stability_scan(dp, (1.0, 20.0), (1.0, 12.0), (7, 5))
    assert not sm.admissible.all() and sm.oscillates.any()
    sm.to_csv(tmp_path / "columns.csv", provenance=["probe"])
    _per_cell_scan_csv(sm, tmp_path / "cells.csv", ["probe"])
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()


def test_scan_csv_formats_each_coordinate_once(dp, tmp_path, monkeypatch):
    calls = []

    def counting_fmt17(x):
        calls.append(x)
        return fmt17(x)

    monkeypatch.setattr(gspt, "fmt17", counting_fmt17)
    nx, ny = 7, 5
    stability_scan(dp, (1.0, 20.0), (1.0, 12.0), (nx, ny)).to_csv(tmp_path / "scan.csv")
    # trace and det go to the writer's %.17g, not through fmt17
    assert len(calls) == nx + ny


# --- invariant region -------------------------------------------------------------------

def test_region_check_passes_for_reference_parameters(dp):
    rep = invariant_region_check(dp)
    assert rep.ok
    assert rep.violations == ()
    assert math.isclose(rep.h_nul, 3.5006709691844144e-08, rel_tol=1e-9)
    # the corner height really solves n_s(h) = s_nul
    assert math.isclose(dp.K_s / rate_r(rep.h_nul, dp), rep.s_nul, rel_tol=1e-9)


def test_region_check_reports_every_outward_sample_as_a_scalar_loop_would(monkeypatch, dp):
    # the reversed field points outward on every side; each side's one array call of rhs
    # must report exactly the samples and values of a loop of scalar calls
    def reversed_rhs(state, dp):
        return tuple(-np.asarray(v) for v in rhs(state, dp))

    monkeypatch.setattr(gspt, "rhs", reversed_rhs)
    rep = invariant_region_check(dp)
    h_nul, h_top, s_nul = rep.h_nul, rep.h_top, rep.s_nul
    expected = [("s=0", 0.0, h, -rhs((0.0, h), dp)[0])
                for h in np.linspace(h_nul, h_top, 200).tolist()]
    expected += [("s=s_nul", s_nul, h, -rhs((s_nul, h), dp)[0])
                 for h in np.linspace(h_nul, h_top, 201)[1:].tolist()]
    expected += [("h=h_top", s, h_top, -rhs((s, h_top), dp)[1])
                 for s in np.linspace(0.0, s_nul, 200).tolist()]
    assert not rep.ok and rep.violations == tuple(expected)


def test_region_check_preconditions(dp):
    # K_s and K_h 100 times larger put the fixed point at s_* = 7.6 and the
    # s-nullcline at h_top at s = 73, right of the region's side s = 10
    with pytest.raises(PreconditionError, match="s_nul must exceed 73.1"):
        invariant_region_check(dataclasses.replace(dp, K_s=100 * dp.K_s, K_h=100 * dp.K_h))


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


def test_fold_b_passages_count_their_work(fold_scaling_b):
    """The seed-0 ``fold-B`` benchmark job's counters, one SolverStats per eps."""
    stats = fold_scaling_b.stats
    assert len(stats) == len(fold_scaling_b.entries) == 5
    assert fold_scaling_b.entries[0][0] == DEFAULT_EPS_B[0] == pytest.approx(1e-7)
    assert dataclasses.astuple(stats[0]) == dataclasses.astuple(SolverStats(
        steps=1_246, nfev=11_274, njev=418, nlu=1_220, rejected=6,
        event_polishes=1, polish_evals=5, floor_accepts=442, newton_iters=3_342,
        fresh_jac_failures=127, stale_jac_failures=19, slow_failures=77))
    assert (stats[0].newton_failures, stats[0].diverged_failures) == (146, 69)
    total = sum(stats, SolverStats())
    assert ((total.steps, total.nfev, total.njev, total.nlu, total.floor_accepts)
            == (5_280, 42_031, 944, 2_586, 910))
    assert ((total.newton_iters, total.fresh_jac_failures, total.stale_jac_failures,
             total.diverged_failures, total.slow_failures) == (12_247, 171, 22, 104, 89))
    assert all(s.event_polishes == 1 for s in stats)


def test_fold_b_offsets_stay_on_golden(fold_scaling_b):
    """The zero-restart path's own gate: seed-0 ``fold-B`` offsets and slope
    within 1e-9 relative of the benchmark's golden values."""
    golden = (3.169945155157006e-05, 6.481300029626338e-05, 0.00013142188638163438,
              0.0002650512203864787, 0.0005308805190068315)
    assert tuple(eps for eps, _ in fold_scaling_b.entries) == DEFAULT_EPS_B
    for (eps, offset), want in zip(fold_scaling_b.entries, golden):
        assert math.isclose(offset, want, rel_tol=1e-9, abs_tol=0.0), eps
    assert math.isclose(fold_scaling_b.slope, 0.6119115526596465, rel_tol=1e-9, abs_tol=0.0)


def test_default_path_keeps_the_chart_b_passage_work(dp, es, scipy_newton):
    # scipy's step (kappa = 0): the counters and offset bits of the
    # eps = 1e-5 passage before the zero restart and the floor stop existed
    field, x0, event, t_max, _ = gspt._fold_passage("B", es.at_eps(DEFAULT_EPS_B[-1]), dp)
    traj = integrate_until_event(field, x0, event, t_max=t_max, keep_dense=False)
    stats = traj.stats
    assert stats == SolverStats(steps=900, nfev=6_482, njev=11, nlu=86, rejected=18,
                                event_polishes=1, polish_evals=6, newton_iters=1860,
                                fresh_jac_failures=1, stale_jac_failures=4, slow_failures=5)
    assert (stats.newton_failures, stats.diverged_failures) == (5, 0)
    s_B, _ = fold_location_B(es.at_eps(DEFAULT_EPS_B[-1]), dp)
    assert abs(float(traj.events[-1].state[0]) - s_B) == 0.0005308805190087744


@pytest.mark.parametrize("kappa", [0.1, 0.0])
def test_the_floor_stop_leaves_chart_a_passages_alone(dp, es, monkeypatch, kappa):
    # no chart-A solve reaches the floor, so with the stop and without it
    # (scipy's step) the passages give fold-scaling --chart A's bits
    monkeypatch.setattr(integrator, "NEWTON_FLOOR", kappa)
    fs = fold_passage_offset("A", DEFAULT_EPS_A, es, dp)
    assert [s.floor_accepts for s in fs.stats] == [0] * 5
    assert [offset for _, offset in fs.entries] == [
        1.809672055399364e-06, 3.707419527082653e-06, 7.5252353178754895e-06,
        1.514530773877277e-05, 3.021454657719169e-05]
    assert fs.slope == 0.6112877542842619


def test_scaling_preconditions(dp, es):
    with pytest.raises(PreconditionError):
        fold_passage_offset("A", (1e-5,), es, dp)
    with pytest.raises(PreconditionError):
        fold_passage_offset("A", (1e-5, 1e-4), es, dp)  # one decade only
    with pytest.raises(DomainError):
        fold_passage_offset("Z", QUICK_EPS_A, es, dp)
    for eps_list in ([0.0, 1e-6, 1e-4], [-1e-6, 1e-4], [math.nan, 1e-4], [1e-6, math.inf],
                     [1e-6, 10 ** 400]):
        with pytest.raises(DomainError, match="positive and finite"):
            fold_passage_offset("A", eps_list, es, dp)


def test_a_passage_that_misses_its_section_is_a_section_no_hit_error(dp, es):
    # eps = 0.5 lies far outside chart A's scaling regime: by t_max = 0.05/eps + 50
    # the run has not fallen to the section h = h_A/2
    with pytest.raises(SectionNoHitError,
                       match=r"^chart A, eps = 0\.5: no section hit within t = 50\.1$"):
        fold_passage_offset("A", (1e-3, 0.5), es, dp)


@pytest.mark.parametrize("chart, eps_list", [("A", DEFAULT_EPS_A), ("B", DEFAULT_EPS_B)])
def test_forked_passages_equal_the_serial_loop(dp, es, cpus, chart, eps_list):
    runs = []
    for ids in ({0, 1}, {0}):
        cpus(ids)
        runs.append(fold_passage_offset(chart, eps_list, es, dp))
        assert multiprocessing.active_children() == []
    forked, serial = runs
    assert forked.entries == serial.entries and forked.slope == serial.slope
    assert forked.stats == serial.stats


def test_a_section_no_hit_in_a_child_reaches_the_caller(dp, es, cpus, monkeypatch):
    # every passage gets t_max = 1, and the fork inherits the patch; the
    # error is the first eps's, as in the serial loop
    real = gspt._fold_passage

    def short(chart, es, dp):
        field, x0, event, _, fold_slow = real(chart, es, dp)
        return field, x0, event, 1.0, fold_slow

    monkeypatch.setattr(gspt, "_fold_passage", short)
    cpus({0, 1})
    with pytest.raises(SectionNoHitError,
                       match=r"^chart B, eps = 1e-07: no section hit within t = 1\.0$"):
        fold_passage_offset("B", DEFAULT_EPS_B, es, dp)
    assert multiprocessing.active_children() == []


def test_scan_refines_the_hopf_curve_only_when_it_is_read(monkeypatch, dp, tmp_path):
    calls = []
    real = gspt._brentq

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(gspt, "_brentq", counting)
    sm = stability_scan(dp, (1.0, 20.0), (1.0, 12.0), (40, 30))
    sm.to_csv(tmp_path / "scan.csv", provenance=["probe"])
    assert calls == []
    payload = sm.to_json_dict()
    assert list(payload) == ["kh_over_ks", "inv_alpha", "trace", "det", "admissible",
                             "oscillates", "boundary", "hopf"]
    # the eager refinement it replaces: every column's sign changes, in grid order
    eager = []
    for i, x in enumerate(sm.kh_over_ks.tolist()):
        for j in range(sm.inv_alpha.size - 1):
            t0, t1 = sm.trace[i, j], sm.trace[i, j + 1]
            if t0 * t1 < 0.0 and sm.admissible[i, j] and sm.admissible[i, j + 1]:
                def trace_at(y, K_h=sm.kh_over_ks[i] * dp.K_s):
                    return float(gspt._trace_det_grid(dp, K_h, 1.0 / y)[0])
                eager.append([x, real(trace_at, sm.inv_alpha[j], sm.inv_alpha[j + 1], xtol=1e-6)[0]])
    assert len(calls) == len(eager) > 10 and payload["hopf"] == eager
    assert sm.to_json_dict()["hopf"] == eager and len(calls) == len(eager)  # refined once
