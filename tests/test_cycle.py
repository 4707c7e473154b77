"""Limit-cycle detection, segment timing and analytic-timescale accounting."""
import dataclasses
import json
import math
import multiprocessing
import os
import re

import numpy as np
import pytest

from phoscil import integrator
from phoscil.cycle import (
    TRANSIENT_BUDGET,
    TRANSIENT_TOL,
    CompareRow,
    CompareTable,
    _GL5_NODES,
    _GL5_WEIGHTS,
    _event_pair,
    _merge_halves,
    _section_returns,
    analytic_timescales,
    compare,
    find_limit_cycle,
    floquet_exponent,
    oscillation_condition,
    physical_timescales,
    segment_times,
    winding_number,
)
from phoscil.errors import DomainError, MalformedCycleError
from phoscil.gspt import fixed_point
from phoscil.integrator import (
    EventHit,
    EventSpec,
    IntegratorConfig,
    SolverStats,
    Trajectory,
    integrate,
    integrate_until_event,
)
from phoscil.model import make_field, rate_r, rhs
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
    t_acid_s, t_basic_s = physical_timescales(phys, es)
    assert math.isclose(t_acid_s, 146.1007965960122, rel_tol=1e-13)
    assert math.isclose(t_basic_s, 1163.4370219275893, rel_tol=1e-13)
    assert math.isclose(t_acid_s, T_ACID_1E3 / phys.k_max, rel_tol=1e-15)


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


def test_cycle_solver_stats_frozen(cycle_1e3):
    # the recorded period's two half-legs, summed
    stats = cycle_1e3.trajectory.stats
    assert stats == SolverStats(steps=2251, nfev=16808, njev=62, nlu=358, rejected=39,
                                event_polishes=2, polish_evals=11, newton_iters=4851,
                                stale_jac_failures=21, slow_failures=21)
    assert stats.newton_failures == 21
    assert stats.steps == len(cycle_1e3.trajectory.t) - 1


def test_rtol_refinement_spreads_the_eps_1e3_period_past_its_pin(dp, es):
    """The eps = 1e-3 period at rtol 1e-11 and 1e-12 (atol = rtol/100).

    Refining rtol moves the period by up to 7.15e-11 relative, so the
    period is defined only to about that; ``PERIOD_1E3``'s pin (1e-12,
    in ``test_cycle_report_frozen_values``) is tighter than this spread.
    The offsets and step counts are recorded to three digits and exactly.
    """
    offsets, steps = [], []
    for rtol in (1e-11, 1e-12):
        rep = find_limit_cycle(dp, es, cfg=IntegratorConfig(rtol=rtol, atol=rtol / 100))
        assert rep.terminus == "limit_cycle"
        offsets.append((rep.period - PERIOD_1E3) / PERIOD_1E3)
        steps.append(rep.trajectory.stats.steps)
    assert math.isclose(offsets[0], -3.08e-12, rel_tol=2e-3)
    assert math.isclose(offsets[1], -7.15e-11, rel_tol=2e-3)
    assert steps == [3942, 6951]
    assert max(map(abs, offsets)) > 50 * 1e-12


def test_the_eps_1e3_cycle_lies_within_2e_10_of_a_tight_scipy_reference(cycle_1e3, dp, es):
    """A yardstick that holds whatever bits the step has: scipy's Radau at rtol 1e-12,
    atol 1e-14 from the recorded period's first state (its s-maximum), to the next
    s-maximum.  Measured: period -7.0e-11, tau_A_to_B -9.3e-11 and tau_B_to_A -2.8e-12
    relative, in 6,960 steps; the README's rtol spread at this eps is 7.2e-11."""
    from scipy.integrate import solve_ivp

    dp_eps = split_dimless(dp, es.at_eps(1e-3))
    field = make_field(dp_eps)
    s_max, s_min = (lambda t, y, ev=ev: ev.func(t, y) for ev in _event_pair(dp_eps))
    s_max.terminal, s_max.direction, s_min.direction = True, -1, 1
    ref = solve_ivp(field, (0.0, 2.0 * PERIOD_1E3), cycle_1e3.trajectory.states[0],
                    method="Radau", rtol=1e-12, atol=1e-14, jac=field.jac, events=[s_max, s_min])
    assert ref.status == 1 and [len(t) for t in ref.t_events] == [1, 1]
    period, tau_A_to_B = ref.t_events[0][0], ref.t_events[1][0]
    for ours, theirs in ((cycle_1e3.period, period), (cycle_1e3.tau_A_to_B, tau_A_to_B),
                         (cycle_1e3.tau_B_to_A, period - tau_A_to_B)):
        assert math.isclose(ours, theirs, rel_tol=2e-10)


def test_cycle_counts_where_the_newton_work_goes(cycle_1e3):
    # every one of the 21 failures came with a stale Jacobian and was predicted too slow
    stats = cycle_1e3.trajectory.stats
    assert dataclasses.astuple(stats) == dataclasses.astuple(SolverStats(
        steps=2251, nfev=16808, njev=62, nlu=358, rejected=39, event_polishes=2,
        polish_evals=11, newton_iters=4851, stale_jac_failures=21, slow_failures=21))
    assert (stats.newton_failures, stats.diverged_failures) == (21, 0)


def test_cycle_counts_the_transients_work(cycle_1e3, cycle_1e4):
    # the approach leg and the 2 transient periods: 5 half-legs, one hit each
    transient = cycle_1e3.transient_stats
    assert dataclasses.astuple(transient) == dataclasses.astuple(SolverStats(
        steps=4706, nfev=34974, njev=122, nlu=714, rejected=78, event_polishes=5,
        polish_evals=29, newton_iters=10086, stale_jac_failures=34, slow_failures=34))
    assert (transient.newton_failures, transient.diverged_failures) == (34, 0)
    # the seed-0 timescales job's rows: the traced benchmark counts 17,955
    # accepted steps and 140,299 field calls over every integration
    reports = (cycle_1e3, cycle_1e4)
    total = sum((r.transient_stats + r.trajectory.stats for r in reports), SolverStats())
    assert (total.steps, total.nfev, total.njev) == (17_955, 140_299, 1_959)
    # the split of the 698 Newton failures, by Jacobian and by cause, and
    # the 398 solves stopped at the rounding floor, all at eps = 1e-4
    assert (total.fresh_jac_failures, total.stale_jac_failures) == (278, 420)
    assert (total.diverged_failures, total.slow_failures) == (42, 656)
    assert total.floor_accepts == 398


@pytest.mark.parametrize("name, distances", [
    ("cycle_1e3", (0.0326, 8.2e-15)),
    ("cycle_1e4", (8.74e-5, 3.89e-16)),
])
def test_cycle_keeps_the_return_distances_that_ended_the_transient(request, name, distances):
    rep = request.getfixturevalue(name)
    assert len(rep.return_distances) == rep.n_transient_periods
    # the transient ends at the first return closer than TRANSIENT_TOL
    assert all(d >= TRANSIENT_TOL for d in rep.return_distances[:-1])
    assert rep.return_distances[-1] < TRANSIENT_TOL
    for got, want in zip(rep.return_distances, distances, strict=True):
        assert math.isclose(got, want, rel_tol=0.01)
    assert "return_distances" not in rep.to_json_dict()


def test_the_floor_stop_keeps_the_eps_1e3_bits_and_the_eps_1e4_period(
        monkeypatch, dp, es, cycle_1e3, cycle_1e4):
    # no eps = 1e-3 solve reaches the rounding floor, so PERIOD_1E3 is scipy's
    assert cycle_1e3.transient_stats.floor_accepts == 0
    assert cycle_1e3.trajectory.stats.floor_accepts == 0
    # at eps = 1e-4 the stop moves the period by 7.6e-10 relative
    assert cycle_1e4.trajectory.stats.floor_accepts > 0
    with monkeypatch.context() as m:
        m.setattr(integrator, "NEWTON_FLOOR", 0.0)
        scipy_period = find_limit_cycle(dp, es.at_eps(1e-4)).period
    assert scipy_period == 944.6513606737672
    assert math.isclose(cycle_1e4.period, scipy_period, rel_tol=1e-9, abs_tol=0.0)


def rotation(t, y):
    return -y[1], y[0]


rotation.jac = lambda t, y: np.array([[0.0, -1.0], [1.0, 0.0]])


def test_merged_period_sums_the_stats_of_its_halves():
    first = integrate_until_event(rotation, (1.0, 0.0),
                                  EventSpec(func=lambda t, y: y[1], direction="falling"),
                                  t_max=10.0)
    second = integrate_until_event(rotation, first.events[-1].state,
                                   EventSpec(func=lambda t, y: y[1], direction="rising"),
                                   t_max=20.0, t0=first.events[-1].t)
    merged = _merge_halves(first, second)
    assert merged.stats == first.stats + second.stats
    assert merged.stats.steps == len(merged.t) - 1



# the section-return loop on planar fields other than the model: sections
# at y1 = 0, out through the falling crossing and back through the rising one
Y1_SECTIONS = (EventSpec(func=lambda t, y: y[1], direction="falling"),
               EventSpec(func=lambda t, y: y[1], direction="rising"))


def damped_spiral(damping):
    """y' = (-d y0 - y1, y0 - d y1): a focus that contracts by exp(-2 pi d) per turn."""
    def field(t, y):
        return -damping * y[0] - y[1], y[0] - damping * y[1]
    field.jac = lambda t, y: np.array([[-damping, -1.0], [1.0, -damping]])
    return field


def test_section_loop_times_the_period_of_a_rotation():
    terminus, distances, recorded, transient = _section_returns(
        rotation, (0.0, 1.0), Y1_SECTIONS, 10.0, 1.0)
    assert terminus == "limit_cycle"
    # one transient period, whose return already agrees with the approach's
    assert len(distances) == 1 and distances[0] < TRANSIENT_TOL
    # the approach leg and one transient period, but not the recorded one
    assert transient.event_polishes == 3
    tau_back, tau_out = segment_times(recorded)
    assert abs(tau_out + tau_back - 2.0 * math.pi) < 1e-9
    assert abs(tau_out - math.pi) < 1e-9 and abs(tau_back - math.pi) < 1e-9
    out, back = recorded.events
    np.testing.assert_allclose(out.state, [-1.0, 0.0], atol=1e-9)
    np.testing.assert_allclose(back.state, [1.0, 0.0], atol=1e-9)


def test_section_loop_classifies_a_strongly_damped_spiral_as_equilibrium():
    terminus, distances, recorded, transient = _section_returns(
        damped_spiral(1.0), (0.0, 1.0), Y1_SECTIONS, 10.0, 1.0)
    assert (terminus, len(distances), recorded) == ("equilibrium", 4, None)
    # without a recorded period every half-leg is transient work
    assert transient.event_polishes == 10


def test_section_loop_gives_up_on_a_weakly_damped_spiral():
    terminus, distances, recorded, transient = _section_returns(
        damped_spiral(0.1), (0.0, 1.0), Y1_SECTIONS, 10.0, 1.0)
    assert (terminus, len(distances), recorded) == ("no_convergence", TRANSIENT_BUDGET, None)
    # each return is closer than the one before, but none within TRANSIENT_TOL
    assert all(a > b >= TRANSIENT_TOL for a, b in zip(distances, distances[1:]))
    assert transient.event_polishes == 1 + 2 * TRANSIENT_BUDGET

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


def test_turning_point_events_equal_the_checked_rate_bit_for_bit(dp, es):
    dpe = split_dimless(dp, es.at_eps(1e-3))
    s_max_ev, s_min_ev = _event_pair(dpe)
    rng = np.random.default_rng(7)
    for s, h in zip(rng.uniform(0.0, 50.0, 500), np.exp(rng.uniform(-20.0, 0.5, 500))):
        y = np.array([s, h])
        expected = dpe.K_s - rate_r(y[1], dpe) * y[0]
        assert s_max_ev.func(0.0, y) == expected == s_min_ev.func(0.0, y)
    # at and below h = 0 the events read the h -> 0 limit r = 0
    assert s_max_ev.func(0.0, np.array([1.0, 0.0])) == dpe.K_s
    assert s_max_ev.func(0.0, np.array([1.0, -1e-3])) == dpe.K_s


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
    assert all(math.isnan(v) for v in dataclasses.astuple(rep.analytic))


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
    traj = integrate(rotation, (1.0, 0.0), (0.0, turns * 2.0 * math.pi))
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


@pytest.mark.parametrize("center, shown", [
    ((10 ** 400, 0.1), "(inf, 0.1)"), ((0.0, -10 ** 400), "(0.0, -inf)"),
    ((math.nan, 0.1), "(nan, 0.1)"),
])
def test_winding_needs_a_finite_center(cycle_1e3, center, shown):
    with pytest.raises(DomainError, match=f"^winding_number needs a finite center, got "
                                          f"{re.escape(shown)}$"):
        winding_number(cycle_1e3.trajectory, center)


def test_winding_rejects_degenerate_orbits():
    flat = Trajectory.single(0.0, np.array([1.0, 2.0]), ("s", "h"))
    with pytest.raises((MalformedCycleError, DomainError)):
        winding_number(flat, (0.0, 0.0))


def test_segment_times_need_exactly_one_hit_per_section():
    traj = integrate(rotation, (1.0, 0.0), (0.0, 1.0))
    with pytest.raises(MalformedCycleError):
        segment_times(traj)


def _turning_trajectory(t):
    """Samples at times ``t`` from t[0] on an s-minimum; s-maximum hit at 1.5, s-minimum at 4."""
    hits = [EventHit(t=1.5, state=np.array([2.0, 0.1]), index=0),
            EventHit(t=4.0, state=np.array([1.0, 0.9]), index=1)]
    return Trajectory(np.array(t), np.zeros((len(t), 2)), [], hits, ("s", "h"))


def test_segment_times_of_a_period_that_starts_on_the_s_minimum():
    # (tau_B_to_A, tau_A_to_B) = (t_max - t0, t_min - t_max)
    assert segment_times(_turning_trajectory([0.5, 1.5, 4.0])) == (1.0, 2.5)


def test_segment_times_need_the_last_hit_at_the_trajectory_end():
    with pytest.raises(MalformedCycleError, match="does not end on its terminal turning point"):
        segment_times(_turning_trajectory([0.5, 1.5, 4.0, 5.0]))


# --- Floquet exponent ---------------------------------------------------------------

def radial(t, y):
    """r' = r(1 - r^2), theta' = 1 in Cartesian form: the unit circle attracts."""
    x, v = y[0], y[1]
    shrink = 1.0 - x * x - v * v
    return x * shrink - v, v * shrink + x


radial.jac = lambda t, y: np.array([[1.0 - 3.0 * y[0] ** 2 - y[1] ** 2, -2.0 * y[0] * y[1] - 1.0],
                                    [1.0 - 2.0 * y[0] * y[1], 1.0 - y[0] ** 2 - 3.0 * y[1] ** 2]])


def _gauss_legendre_sum(traj, field, n):
    """The divergence integral with numpy's n-point Gauss-Legendre rule on every step."""
    x, w = np.polynomial.legendre.leggauss(n)
    total = 0.0
    for seg, t0, t1 in zip(traj.segments, traj.t[:-1], traj.t[1:]):
        ts = t0 + (t1 - t0) * 0.5 * (1.0 + x)
        traces = [np.trace(field.jac(tk, y)) for tk, y in zip(ts, seg(ts).T)]
        total += 0.5 * (t1 - t0) * float(np.dot(w, traces))
    return total


def test_floquet_exponent_of_the_unit_circle_is_minus_four_pi():
    # trace J = 2 - 4 r^2 is -2 on r = 1, so one turn gives -4 pi exactly
    traj = integrate(radial, (1.0, 0.0), (0.0, 2.0 * math.pi))
    assert math.isclose(floquet_exponent(traj, radial), -4.0 * math.pi, rel_tol=1e-10)


def test_floquet_rule_is_gauss_legendre_on_the_unit_interval():
    x, w = np.polynomial.legendre.leggauss(5)
    np.testing.assert_allclose(_GL5_NODES, 0.5 * (1.0 + x), rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(_GL5_WEIGHTS, 0.5 * w, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("eps, fixture, expect", [
    (1e-3, "cycle_1e3", -54.1074240761), (1e-4, "cycle_1e4", -157.001433093)])
def test_floquet_exponent_of_the_cycle_matches_other_gauss_rules(request, dp, es, eps, fixture,
                                                                 expect):
    # the multiplier exp(-54.1) = 3e-24 at eps = 1e-3: the cycle attracts strongly
    traj = request.getfixturevalue(fixture).trajectory
    field = make_field(split_dimless(dp, es.at_eps(eps)))
    exponent = floquet_exponent(traj, field)
    assert math.isclose(exponent, expect, rel_tol=1e-10)
    for n in (3, 7):
        assert math.isclose(_gauss_legendre_sum(traj, field, n), exponent, rel_tol=1e-12), n


def test_floquet_exponent_needs_dense_output():
    traj = integrate(radial, (1.0, 0.0), (0.0, 2.0 * math.pi), keep_dense=False)
    with pytest.raises(DomainError, match="dense output"):
        floquet_exponent(traj, radial)


# --- comparison table -----------------------------------------------------------------

def test_compare_single_row_matches_the_cycle_report(dp, es, cycle_1e3):
    table = compare(dp, [es.at_eps(1e-3)])
    assert len(table.rows) == 1
    row = table.rows[0]
    assert row.error is None
    # bit for bit: the row takes its segment times from the report
    assert (row.period, row.tau_B_to_A, row.tau_A_to_B) == (
        cycle_1e3.period, cycle_1e3.tau_B_to_A, cycle_1e3.tau_A_to_B)
    assert math.isclose(row.ratio_measured, 2.9174316720628597, rel_tol=1e-9)
    assert math.isclose(row.ratio_analytic, RATIO_ANALYTIC, rel_tol=1e-13)
    assert row.tau_A_to_B > row.tau_B_to_A


@pytest.fixture(scope="module")
def forked_rows(dp, es):
    """compare's rows at eps = 1e-3 and 1e-4 (the seed-0 timescales job), run on
    the two-process pool whatever the machine's CPU count, and the child
    processes still alive after the call."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        rows = compare(dp, [es.at_eps(1e-3), es.at_eps(1e-4)]).rows
    return rows, multiprocessing.active_children()


def test_forked_rows_are_the_cycle_reports_bit_for_bit(forked_rows, cycle_1e3, cycle_1e4):
    rows, children = forked_rows
    assert children == []
    for row, rep in zip(rows, (cycle_1e3, cycle_1e4), strict=True):
        assert row.error is None and row.eps == rep.eps
        assert (row.period, row.tau_B_to_A, row.tau_A_to_B) == (
            rep.period, rep.tau_B_to_A, rep.tau_A_to_B)


def test_each_row_carries_its_work(forked_rows, cycle_1e3, cycle_1e4):
    rows, _ = forked_rows
    for row, rep in zip(rows, (cycle_1e3, cycle_1e4), strict=True):
        assert row.stats == rep.transient_stats + rep.trajectory.stats
    # test_cycle_counts_the_transients_work's totals, back from the children
    total = sum((row.stats for row in rows), SolverStats())
    assert (total.steps, total.nfev, total.njev) == (17_955, 140_299, 1_959)


def test_compare_isolates_failed_rows(dp, es):
    table = compare(equilibrium_variant(dp), [es.at_eps(1e-3)])
    row = table.rows[0]
    assert row.error == "no limit cycle: equilibrium"
    assert math.isnan(row.period) and math.isnan(row.ratio_measured)
    assert math.isclose(row.T_acid, 11.575499301287192, rel_tol=1e-6)
    # without a recorded period the row carries the work of its transient
    rep = find_limit_cycle(equilibrium_variant(dp), es.at_eps(1e-3))
    assert rep.trajectory is None and row.stats == rep.transient_stats and row.stats.steps > 0


def test_compare_reports_a_raised_cycle_detection_as_an_all_nan_row(phys, es):
    # k_H = 1e-3 gives alpha*K_h <= K_s: no positive equilibrium and no analytic formulas;
    # the message is fixed_point's, whose existence test is the only one
    calm = derive_dimensionless(dataclasses.replace(phys, k_H=1e-3))
    row = compare(calm, [es.at_eps(1e-3)]).rows[0]
    assert row.error == (f"NoPositiveEquilibriumError: alpha*K_h = {calm.alpha * calm.K_h!r}"
                         f" does not exceed K_s = {calm.K_s!r}")
    assert row.eps == 1e-3
    numeric = [getattr(row, f.name) for f in dataclasses.fields(CompareRow)
               if f.name not in ("eps", "stats", "error")]
    assert len(numeric) == 8 and all(math.isnan(v) for v in numeric)
    assert row.stats == SolverStats()


def test_compare_is_deterministic(dp, es, tmp_path):
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
    # the row's work counts stay out of every output
    assert table.rows[0].stats.steps > 0
    assert "stats" not in lines[1] and "stats" not in payload["rows"][0] and "stats" not in text


def test_compare_text_marks_failed_rows(dp, es):
    table = compare(equilibrium_variant(dp), [es.at_eps(1e-3)])
    assert "! no limit cycle: equilibrium" in table.format_text()
