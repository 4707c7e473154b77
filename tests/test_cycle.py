"""Limit-cycle detection, segment timing and analytic-timescale accounting."""
import dataclasses
import json
import math

import numpy as np
import pytest

from phoscil.cycle import (
    CompareRow,
    CompareTable,
    analytic_timescales,
    compare,
    find_limit_cycle,
    oscillation_condition,
    physical_timescales,
    segment_times,
    winding_number,
)
from phoscil.errors import (
    DomainError,
    MalformedCycleError,
    PreconditionError,
)
from phoscil.gspt import fixed_point
from phoscil.integrator import EventSpec, IntegratorConfig, Trajectory, integrate
from phoscil.model import make_field, rhs
from phoscil.params import (
    PhysicalParams,
    UREASE_VESICLE,
    derive_dimensionless,
    derive_eps_split,
    split_dimless,
)

# One recorded period at eps = 1e-3, rtol 1e-10, s-max anchor (frozen run).
PERIOD_1E3 = 90.238189256981258
TAU_B_TO_A_1E3 = 23.03503846678791
TAU_A_TO_B_1E3 = 67.203150790193348
S_MAX_POINT_1E3 = (0.21966859164088623, 0.3336858590860875)
S_MIN_POINT_1E3 = (0.02364874937862019, 0.001026030893672078)

# Closed-form values at eps = 1e-3 for the reference parameter set.
T_ACID_1E3 = 9.0095491234207525
T_BASIC_1E3 = 71.745283018867994
T_TOTAL_1E3 = 80.754832142288748
RATIO_ANALYTIC = 7.9632489968185771
W_OF_H_STAR = 0.34652112013156744


def equilibrium_variant(dp):
    """Parameters whose positive equilibrium attracts (no cycle)."""
    return dataclasses.replace(dp, K_h=1.322 * dp.K_s, alpha=1.0)


# --- analytic timescales -----------------------------------------------------

def test_analytic_timescales_frozen(dp, es):
    ts = analytic_timescales(dp, es)
    assert math.isclose(ts.T_acid, T_ACID_1E3, rel_tol=1e-13)
    assert math.isclose(ts.T_basic, T_BASIC_1E3, rel_tol=1e-13)
    assert math.isclose(ts.T_total, T_TOTAL_1E3, rel_tol=1e-13)
    assert math.isclose(ts.ratio, RATIO_ANALYTIC, rel_tol=1e-13)


def test_analytic_timescales_closed_forms(dp, es):
    ts = analytic_timescales(dp, es)
    h_star = 1.0 - dp.K_s / (dp.alpha * dp.K_h)
    w = 1.0 - (1.0 - 2.0 * h_star) * math.log((2.0 - 2.0 * h_star) / (1.0 - 2.0 * h_star))
    assert math.isclose(w, W_OF_H_STAR, rel_tol=1e-13)
    assert math.isclose(ts.T_acid, dp.beta / (es.eps * es.C) * w, rel_tol=1e-15)
    assert math.isclose(ts.T_basic, dp.beta / (4.0 * es.eps * es.C * h_star), rel_tol=1e-15)
    assert math.isclose(ts.ratio, 1.0 / (4.0 * h_star * w), rel_tol=1e-15)


def test_analytic_total_scales_inversely_with_eps(dp, es):
    ts3 = analytic_timescales(dp, es.at_eps(1e-3))
    ts4 = analytic_timescales(dp, es.at_eps(1e-4))
    assert ts4.T_total / ts3.T_total == 10.0
    assert ts4.ratio == ts3.ratio  # the ratio is eps-free


def test_analytic_timescales_domain(dp, es):
    # h_* above 1/2 breaks the logarithm's argument
    high = dataclasses.replace(dp, alpha=3.0 * dp.alpha)
    assert 1.0 - high.K_s / (high.alpha * high.K_h) > 0.5
    with pytest.raises(DomainError):
        analytic_timescales(high, es)
    inadmissible = dataclasses.replace(dp, alpha=dp.K_s / dp.K_h)
    with pytest.raises(DomainError):
        analytic_timescales(inadmissible, es)


def test_analytic_timescales_domain_error_shows_a_plain_float(dp, es):
    # a numpy scalar parameter is stored as a float, so its repr stays plain
    hot = dataclasses.replace(dp, K_h=np.float64(3.0) * dp.K_h)
    with pytest.raises(DomainError, match=r"got h_\* = 0\.69") as info:
        analytic_timescales(hot, es)
    assert "np.float64" not in str(info.value)


def test_physical_timescales_frozen(dp, es, phys):
    t_acid_s, t_basic_s = physical_timescales(dp, es, phys)
    assert math.isclose(t_acid_s, 146.1007965960122, rel_tol=1e-13)
    assert math.isclose(t_basic_s, 1163.4370219275893, rel_tol=1e-13)
    assert math.isclose(t_acid_s, T_ACID_1E3 / phys.k_max, rel_tol=1e-15)


def test_physical_timescales_reject_mismatched_pair(dp, es, phys):
    with pytest.raises(PreconditionError):
        physical_timescales(dataclasses.replace(dp, K_h=2.0 * dp.K_h), es, phys)


# --- oscillation condition ------------------------------------------------------

def test_oscillation_condition_reference_values(phys):
    verdict = oscillation_condition(phys)
    assert verdict.oscillatory
    assert math.isclose(verdict.margin, 1.0599999999999971e-07, rel_tol=1e-9)
    assert verdict.margin == phys.k_H * phys.H_ext - 2.0 * phys.k_S * phys.S_ext


def test_oscillation_condition_flips_with_slow_acid_transport(phys):
    calm = dataclasses.replace(phys, k_H=1e-4)
    verdict = oscillation_condition(calm)
    assert not verdict.oscillatory and verdict.margin < 0.0


def test_oscillation_condition_boundary_is_not_oscillatory():
    # powers of two make both sides exactly 2^-10
    probe = dataclasses.replace(
        UREASE_VESICLE, k_S=2.0 ** -9, S_ext=2.0 ** -2, H_ext=2.0 ** -1, k_H=2.0 ** -9)
    verdict = oscillation_condition(probe)
    assert verdict.margin == 0.0
    assert not verdict.oscillatory


# --- limit-cycle detection --------------------------------------------------------

def test_cycle_report_frozen_values(cycle_1e3):
    rep = cycle_1e3
    assert rep.terminus == "limit_cycle" and rep.converged
    assert rep.eps == 1e-3
    assert math.isclose(rep.period, PERIOD_1E3, rel_tol=1e-12)
    assert math.isclose(rep.tau_B_to_A, TAU_B_TO_A_1E3, rel_tol=1e-10)
    assert math.isclose(rep.tau_A_to_B, TAU_A_TO_B_1E3, rel_tol=1e-10)
    assert rep.n_transient_periods == 2
    assert rep.trajectory is not None


def test_cycle_segments_sum_to_the_period_exactly(cycle_1e3):
    assert cycle_1e3.period == cycle_1e3.tau_B_to_A + cycle_1e3.tau_A_to_B


def test_cycle_turning_points_frozen(cycle_1e3):
    (s_max, h_at_max), (s_min, h_at_min) = cycle_1e3.turning_points
    assert math.isclose(s_max, S_MAX_POINT_1E3[0], rel_tol=1e-9)
    assert math.isclose(h_at_max, S_MAX_POINT_1E3[1], rel_tol=1e-9)
    assert math.isclose(s_min, S_MIN_POINT_1E3[0], rel_tol=1e-9)
    assert math.isclose(h_at_min, S_MIN_POINT_1E3[1], rel_tol=1e-6)
    assert s_max > s_min


def test_cycle_basic_branch_dominates_residence(cycle_1e3):
    assert cycle_1e3.tau_A_to_B > cycle_1e3.tau_B_to_A


def test_cycle_measured_period_near_analytic_total(cycle_1e3):
    assert abs(cycle_1e3.period - cycle_1e3.analytic.T_total) / cycle_1e3.analytic.T_total < 0.15


def test_free_run_meets_the_s_minimum_once_per_period(dp, es, cycle_1e3):
    # the report times its period on the s-maximum section; a free run from
    # the recorded s-maximum, watched on the s-minimum section, must agree
    dpe = split_dimless(dp, es.at_eps(1e-3))
    s_min = EventSpec(func=lambda t, y: rhs((y[0], y[1]), dpe)[0], direction="rising")
    traj = integrate(make_field(dpe), cycle_1e3.turning_points[0], (0.0, 2.2 * PERIOD_1E3),
                     events=[s_min], keep_dense=False)
    assert len(traj.events) == 2
    first, second = (hit.t for hit in traj.events)
    assert math.isclose(second - first, PERIOD_1E3, rel_tol=1e-9)
    assert math.isclose(first, TAU_A_TO_B_1E3, rel_tol=1e-6)


def test_cycle_segment_times_recompute_from_the_trajectory(cycle_1e3):
    tau_b, tau_a = segment_times(cycle_1e3.trajectory)
    assert tau_b == cycle_1e3.tau_B_to_A
    assert tau_a == cycle_1e3.tau_A_to_B


def test_cycle_tolerance_refinement_converges(dp, es):
    """Periods at decreasing rtol settle toward the tight-tolerance value."""
    es3 = es.at_eps(1e-3)
    p6 = find_limit_cycle(dp, es3, cfg=IntegratorConfig(rtol=1e-6, atol=1e-9)).period
    p8 = find_limit_cycle(dp, es3, cfg=IntegratorConfig(rtol=1e-8, atol=1e-11)).period
    assert abs(p8 - PERIOD_1E3) < abs(p6 - PERIOD_1E3)
    assert abs(p6 - PERIOD_1E3) < 1e-3
    assert abs(p8 - PERIOD_1E3) < 1e-5


def test_cycle_positive_quadrant_invariance(cycle_1e3):
    t = np.linspace(cycle_1e3.trajectory.t[0], cycle_1e3.trajectory.t[-1], 4096)
    assert np.all(cycle_1e3.trajectory(t) >= 0.0)
    assert np.all(cycle_1e3.trajectory.states >= 0.0)


def test_cycle_equilibrium_terminus(dp, es):
    rep = find_limit_cycle(equilibrium_variant(dp), es.at_eps(1e-3))
    assert rep.terminus == "equilibrium"
    assert not rep.converged
    assert math.isnan(rep.period)
    assert rep.turning_points is None and rep.trajectory is None
    assert rep.n_transient_periods == 4


def test_cycle_is_total_where_the_analytic_formulas_fail(phys):
    # faster acid transport puts h_* above 1/2, outside the domain of the
    # analytic timescales; the fixed point attracts and is reported as such
    dp_hi = derive_dimensionless(dataclasses.replace(phys, k_H=1.8e-2))
    assert 0.5 < dp_hi.h_star < 1.0
    rep = find_limit_cycle(dp_hi, derive_eps_split(dp_hi))
    assert rep.terminus == "equilibrium"
    assert all(math.isnan(v) for v in rep.analytic)


def test_cycle_report_json_dict(cycle_1e3):
    payload = cycle_1e3.to_json_dict()
    assert payload["terminus"] == "limit_cycle"
    assert payload["period"] == cycle_1e3.period
    assert payload["turning_points"]["s_max"] == list(cycle_1e3.turning_points[0])
    assert payload["analytic"]["ratio"] == cycle_1e3.analytic.ratio
    assert "trajectory" not in payload
    json.dumps(payload)  # serializable as-is


# --- winding number -----------------------------------------------------------------

def circle_trajectory(turns, t_points=2000):
    traj = integrate(lambda t, y: np.array([-y[1], y[0]]), (1.0, 0.0),
                     (0.0, turns * 2.0 * math.pi))
    return traj


def test_winding_counts_revolutions_of_a_circle():
    assert winding_number(circle_trajectory(1), (0.0, 0.0)) == 1
    assert winding_number(circle_trajectory(3), (0.0, 0.0)) == 3


def test_winding_is_zero_for_an_outside_center():
    assert winding_number(circle_trajectory(1), (5.0, 0.0)) == 0


def test_winding_of_the_cycle_around_the_equilibrium(dp, es, cycle_1e3):
    dpe = split_dimless(dp, es.at_eps(1e-3))
    fp = fixed_point(dpe)
    assert winding_number(cycle_1e3.trajectory, (fp.s_star, fp.h_star)) == 1


def test_winding_rejects_degenerate_orbits():
    flat = Trajectory.single(0.0, np.array([1.0, 2.0]), ("s", "h"))
    with pytest.raises((MalformedCycleError, DomainError)):
        winding_number(flat, (0.0, 0.0))


def test_segment_times_need_exactly_one_hit_per_section():
    traj = integrate(lambda t, y: np.array([-y[1], y[0]]), (1.0, 0.0), (0.0, 1.0))
    with pytest.raises(MalformedCycleError):
        segment_times(traj)


# --- comparison table -----------------------------------------------------------------

def test_compare_single_row_matches_the_cycle_report(dp, es, cycle_1e3):
    table = compare(dp, [es.at_eps(1e-3)])
    assert len(table.rows) == 1
    row = table.rows[0]
    assert row.error is None
    assert math.isclose(row.period, cycle_1e3.period, rel_tol=1e-12)
    assert math.isclose(row.ratio_measured, 2.9174316720628597, rel_tol=1e-9)
    assert math.isclose(row.ratio_analytic, RATIO_ANALYTIC, rel_tol=1e-13)
    assert row.tau_A_to_B > row.tau_B_to_A


def test_compare_isolates_failed_rows(dp, es):
    table = compare(equilibrium_variant(dp), [es.at_eps(1e-3)])
    row = table.rows[0]
    assert row.error == "no limit cycle: equilibrium"
    assert math.isnan(row.period) and math.isnan(row.ratio_measured)
    assert math.isclose(row.T_acid, 11.575499301287192, rel_tol=1e-6)


def test_compare_is_worker_invariant_and_deterministic(dp, es, tmp_path):
    es_list = [es.at_eps(1e-3), es.at_eps(2e-3)]
    one = compare(dp, es_list)
    two = compare(dp, es_list)
    p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
    one.to_csv(p1, provenance=["probe"])
    two.to_csv(p2, provenance=["probe"])
    assert p1.read_bytes() == p2.read_bytes()
    assert [r.eps for r in two.rows] == [1e-3, 2e-3]


def test_compare_rejects_empty_input(dp):
    with pytest.raises(DomainError):
        compare(dp, [])


def test_compare_table_exports(dp, es, tmp_path):
    table = compare(dp, [es.at_eps(1e-3)])
    csv_path = tmp_path / "table.csv"
    json_path = tmp_path / "table.json"
    table.to_csv(csv_path, provenance=["probe"])
    table.to_json(json_path, provenance=["probe"])
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "# probe"
    assert lines[1].split(",")[0] == "eps"
    assert len(lines) == 3
    payload = json.loads(json_path.read_text())
    assert payload["provenance"] == ["probe"]
    assert payload["rows"][0]["eps"] == 1e-3
    text = table.format_text()
    assert "ratio_measured" in text.splitlines()[0]
    assert len(text.splitlines()) == 2


def test_compare_text_marks_failed_rows(dp, es):
    table = compare(equilibrium_variant(dp), [es.at_eps(1e-3)])
    assert "! no limit cycle: equilibrium" in table.format_text()
