"""Solver correctness against closed-form problems, plus event machinery."""
import dataclasses
import json
import math

import numpy as np
import pytest
import scipy.integrate._ivp.radau as scipy_radau
from hypothesis import given, strategies as st
from scipy.integrate import OdeSolution
from scipy.integrate._ivp.common import norm as scipy_norm, select_initial_step
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve
from scipy.optimize import brentq
from scipy.sparse import csc_matrix

from phoscil import integrator
from phoscil._fmt import fmt17, write_csv
from phoscil.cycle import _event_pair
from phoscil.errors import BudgetError, DomainError
from phoscil.gspt import _eta_start_B, fold_location_B, manifold_B
from phoscil.integrator import (
    EventSpec,
    IntegratorConfig,
    SolverStats,
    Trajectory,
    export_trajectory,
    integrate,
    integrate_until_event,
)
from phoscil.model import make_field, make_field_chart_B, make_field_reference
from phoscil.params import split_dimless


def decay(t, y):
    return -y


def rotation(t, y):
    return np.array([-y[1], y[0]])


# --- config validation ---------------------------------------------------------

def test_config_defaults_are_tight():
    cfg = IntegratorConfig()
    assert cfg.rtol == 1e-10 and cfg.atol == 1e-12
    assert cfg.max_steps == 10_000_000


@pytest.mark.parametrize("kwargs", [
    {"rtol": 0.0}, {"rtol": 1e-2}, {"rtol": -1e-10},
    {"atol": -1.0}, {"max_steps": 0}, {"rtol": 1e-20},
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(DomainError):
        IntegratorConfig(**kwargs)


# --- accuracy oracles -----------------------------------------------------------

def test_exponential_decay_matches_closed_form():
    traj = integrate(decay, (1.0,), (0.0, 5.0))
    t = np.linspace(0.0, 5.0, 37)
    np.testing.assert_allclose(traj(t)[:, 0], np.exp(-t), rtol=1e-8, atol=1e-12)
    # endpoint sample as recorded, not just via dense output
    assert math.isclose(traj.states[-1, 0], math.exp(-5.0), rel_tol=1e-8)


@given(rate=st.floats(min_value=-2.0, max_value=0.5),
       t_end=st.floats(min_value=0.1, max_value=3.0))
def test_linear_problem_family(rate, t_end):
    traj = integrate(lambda t, y: rate * y, (1.0,), (0.0, t_end))
    assert math.isclose(traj.states[-1, 0], math.exp(rate * t_end), rel_tol=1e-7,
                        abs_tol=1e-12)


def test_rotation_preserves_radius():
    traj = integrate(rotation, (1.0, 0.0), (0.0, 4.0 * math.pi))
    radii = np.hypot(traj.states[:, 0], traj.states[:, 1])
    np.testing.assert_allclose(radii, 1.0, rtol=1e-8)


# --- event location ---------------------------------------------------------------

def test_event_hits_quarter_turn_to_high_precision():
    # y2 rises through zero at t = 2*pi exactly
    ev = EventSpec(func=lambda t, y: y[1], direction="rising")
    traj = integrate(rotation, (1.0, 0.0), (0.0, 7.0), events=[ev])
    hits = [h for h in traj.events if h.index == 0]
    assert len(hits) == 1
    assert abs(hits[0].t - 2.0 * math.pi) < 1e-9
    np.testing.assert_allclose(hits[0].state, [1.0, 0.0], atol=1e-9)


def test_event_direction_falling_picks_the_other_crossing():
    ev = EventSpec(func=lambda t, y: y[1], direction="falling")
    traj = integrate(rotation, (1.0, 0.0), (0.0, 7.0), events=[ev])
    assert len(traj.events) == 1
    assert abs(traj.events[0].t - math.pi) < 1e-9


def test_event_direction_both_sees_every_crossing():
    ev = EventSpec(func=lambda t, y: y[1], direction="both")
    traj = integrate(rotation, (1.0, 0.0), (0.0, 6.0 * math.pi + 1.0), events=[ev])
    expect = [math.pi, 2 * math.pi, 3 * math.pi, 4 * math.pi, 5 * math.pi, 6 * math.pi]
    assert len(traj.events) == len(expect)
    for hit, t_true in zip(traj.events, expect):
        assert abs(hit.t - t_true) < 1e-9


def test_terminal_event_truncates_the_run():
    ev = EventSpec(func=lambda t, y: y[1], direction="rising", terminal=True)
    traj = integrate(rotation, (1.0, 0.0), (0.0, 100.0), events=[ev])
    assert abs(traj.t[-1] - 2.0 * math.pi) < 1e-9
    assert traj.events[-1].t == traj.t[-1]


def test_event_indices_follow_spec_order():
    rising = EventSpec(func=lambda t, y: y[1], direction="rising")
    falling = EventSpec(func=lambda t, y: y[1], direction="falling")
    traj = integrate(rotation, (1.0, 0.0), (0.0, 7.0), events=[falling, rising])
    by_index = {h.index for h in traj.events}
    assert by_index == {0, 1}
    first = min(traj.events, key=lambda h: h.t)
    assert first.index == 0  # the falling crossing at pi comes first


def test_until_event_returns_first_hit():
    ev = EventSpec(func=lambda t, y: y[1], direction="rising")
    res = integrate_until_event(rotation, (1.0, 0.0), ev, t_max=50.0)
    assert res.hit and abs(res.t_hit - 2.0 * math.pi) < 1e-9
    assert res.trajectory.t[-1] == res.t_hit


def test_until_event_no_hit_is_a_result_not_an_error():
    ev = EventSpec(func=lambda t, y: y[0], direction="rising")  # y0 stays positive
    res = integrate_until_event(decay, (1.0,), ev, t_max=1.0)
    assert not res.hit and res.t_hit is None and res.state_hit is None
    assert math.isclose(res.trajectory.t[-1], 1.0, rel_tol=1e-12)


def test_until_event_requires_finite_horizon():
    ev = EventSpec(func=lambda t, y: y[0], direction="rising")
    with pytest.raises(DomainError):
        integrate_until_event(decay, (1.0,), ev, t_max=math.inf)


def test_event_spec_rejects_unknown_direction():
    with pytest.raises(DomainError):
        EventSpec(func=lambda t, y: y[0], direction="upward")


# --- trajectory container ----------------------------------------------------------

def test_dense_output_is_bounded_by_span():
    traj = integrate(decay, (1.0,), (0.0, 2.0))
    with pytest.raises(DomainError):
        traj(-0.1)
    with pytest.raises(DomainError):
        traj(2.0 + 1e-9)


@pytest.mark.parametrize("keep_dense", [True, False])
def test_nan_time_is_outside_the_span(keep_dense):
    traj = integrate(rotation, (1.0, 0.0), (0.0, 3.0), keep_dense=keep_dense)
    with pytest.raises(DomainError, match="outside the integrated span"):
        traj(math.nan)
    with pytest.raises(DomainError, match="outside the integrated span"):
        traj(np.array([traj.t[1], math.nan]))


def test_scalar_and_array_dense_evaluation_agree():
    traj = integrate(rotation, (1.0, 0.0), (0.0, 3.0))
    single = traj(1.5)
    batch = traj(np.array([1.5]))
    assert single.shape == (2,)
    np.testing.assert_array_equal(batch[0], single)


def test_keep_dense_false_drops_interpolants_not_events():
    ev = EventSpec(func=lambda t, y: y[1], direction="rising")
    traj = integrate(rotation, (1.0, 0.0), (0.0, 7.0), events=[ev], keep_dense=False)
    assert len(traj.events) == 1 and abs(traj.events[0].t - 2.0 * math.pi) < 1e-9
    with pytest.raises(DomainError, match="kept no dense output"):
        traj(1.0)


def test_trajectory_without_dense_output_answers_at_its_samples():
    traj = integrate(rotation, (1.0, 0.0), (0.0, 7.0), keep_dense=False)
    np.testing.assert_array_equal(traj(traj.t[-1]), traj.states[-1])
    np.testing.assert_array_equal(traj(traj.t[[1, 3]]), traj.states[[1, 3]])
    with pytest.raises(DomainError, match="kept no dense output"):
        traj(0.5 * (traj.t[1] + traj.t[2]))


def test_single_sample_trajectory():
    traj = Trajectory.single(2.0, np.array([0.3, 0.4]), ("s", "h"))
    assert traj.t.shape == (1,) and traj.states.shape == (1, 2)
    np.testing.assert_array_equal(traj(2.0), [0.3, 0.4])
    with pytest.raises(DomainError):
        traj(2.5)


def test_single_sample_trajectory_did_no_work():
    traj = Trajectory.single(2.0, np.array([0.3, 0.4]), ("s", "h"))
    assert traj.stats == SolverStats(steps=0, nfev=0, njev=0, nlu=0,
                                     rejected=0, newton_failures=0,
                                     event_polishes=0, polish_evals=0)


def test_stats_count_accepted_steps_and_radau_work():
    traj = integrate(rotation, (1.0, 0.0), (0.0, 7.0))
    assert traj.stats.steps == len(traj.t) - 1
    assert traj.stats.nfev > traj.stats.steps and traj.stats.njev >= 1
    assert traj.stats.nlu >= 2 * traj.stats.njev


def test_stats_count_rejections_and_newton_failures(dp, es):
    traj = integrate(make_field(split_dimless(dp, es.at_eps(1e-4))), (0.5, 0.9), (0.0, 400.0))
    stats = traj.stats
    assert stats.rejected > 0 and stats.newton_failures > 0
    # every rejection and every unconverged solve discards both factorizations
    assert stats.nlu >= 2 * (1 + stats.rejected + stats.newton_failures)


def test_stats_add_fieldwise():
    total = SolverStats(1, 2, 3, 4, 5, 6, 7, 8) + SolverStats(10, 20, 30, 40, 50, 60, 70, 80)
    assert total == SolverStats(steps=11, nfev=22, njev=33, nlu=44,
                                rejected=55, newton_failures=66,
                                event_polishes=77, polish_evals=88)


def test_t_span_must_increase():
    with pytest.raises(DomainError):
        integrate(decay, (1.0,), (1.0, 1.0))
    with pytest.raises(DomainError):
        integrate(decay, (1.0,), (2.0, 1.0))
    with pytest.raises(DomainError):
        integrate(decay, (1.0,), (0.0, math.nan))


def test_step_budget_is_enforced():
    with pytest.raises(BudgetError):
        integrate(rotation, (1.0, 0.0), (0.0, 1000.0),
                  IntegratorConfig(max_steps=5))


def test_a_field_that_turns_nan_raises_a_domain_error():
    # y' = -sqrt(y) reaches 0 at t = 2 and is NaN below it: the Jacobian
    # turns non-finite and LAPACK's finite check fails inside the step
    with np.errstate(invalid="ignore"), pytest.raises(DomainError, match="at t = ") as info:
        integrate(lambda t, y: -np.sqrt(y), (1.0,), (0.0, 2.5))
    assert isinstance(info.value.__cause__, ValueError)
    assert not isinstance(info.value.__cause__, DomainError)


def test_a_field_domain_error_passes_through_unwrapped():
    def guarded(t, y):
        if y[0] < 0.5:
            raise DomainError("guarded field left its domain")
        return -y

    with pytest.raises(DomainError, match="guarded field") as info:
        integrate(guarded, (1.0,), (0.0, 2.0))
    assert info.value.__cause__ is None


@pytest.mark.parametrize("J", [np.eye(3), csc_matrix(np.eye(2))], ids=["3x3", "csc"])
def test_a_jacobian_that_is_not_a_dense_n_by_n_array_is_a_domain_error(J):
    def field(t, y):
        return rotation(t, y)

    field.jac = lambda t, y: J
    with pytest.raises(DomainError, match=r"shape \(2, 2\)"):
        integrate(field, (1.0, 0.0), (0.0, 1.0))


# --- stiff model runs ----------------------------------------------------------------

def test_stiff_relaxation_run_completes_and_stays_positive(dp, es):
    dpe = split_dimless(dp, es.at_eps(1e-4))
    field = make_field(dpe)
    traj = integrate(field, (0.5, 0.9), (0.0, 400.0))
    assert traj.t[-1] == 400.0
    assert np.all(traj.states >= 0.0)
    # the fast variable must have jumped at least once in this window
    assert traj.states[:, 1].max() > 0.5 and traj.states[:, 1].min() < 0.01


# --- the owned Radau step against scipy's ---------------------------------------------

class _StockRadau(scipy_radau.Radau):
    """scipy's own Radau, built the way ``integrate`` builds its solver."""

    def __init__(self, field, t0, y0, t_bound, rtol, atol, jac):
        super().__init__(field, t0, y0, t_bound, rtol=rtol, atol=atol, jac=jac)
        self.rejected = self.newton_failures = 0


def _scipy_brentq(f, a, b, xtol, rtol):
    root, info = brentq(f, a, b, xtol=xtol, rtol=rtol, full_output=True)
    return root, info.function_calls


def _stock_and_direct(monkeypatch, *args, **kwargs):
    """integrate(*args) with scipy's own solver and event polish, then as shipped.

    The stock run builds scipy's ``Radau`` (its constructor, initial step,
    ``step()``, ``lu_factor``/``lu_solve`` closures and
    ``RadauDenseOutput``) and polishes events with scipy's ``brentq``.
    scipy's step does not count rejections and Newton failures, so
    wrappers count them: one ``predict_factor`` call per rejection and per
    accepted step, and the collocation solves that return unconverged.
    """
    calls = {"lu": 0, "predict": 0, "failed": 0}

    def counting(name, func, count=lambda result: 1):
        def wrapper(*a, **kw):
            result = func(*a, **kw)
            calls[name] += count(result)
            return result
        return wrapper

    with monkeypatch.context() as m:
        m.setattr(integrator, "_Radau", _StockRadau)
        m.setattr(integrator, "_brentq", _scipy_brentq)
        m.setattr(scipy_radau, "lu_factor", counting("lu", lu_factor))
        m.setattr(scipy_radau, "predict_factor", counting("predict", scipy_radau.predict_factor))
        m.setattr(scipy_radau, "solve_collocation_system",
                  counting("failed", scipy_radau.solve_collocation_system,
                           lambda result: not result[0]))
        stock = integrate(*args, **kwargs)
    assert calls["lu"] == stock.stats.nlu > 0
    assert calls["predict"] >= stock.stats.steps > 0
    assert stock.stats.rejected == stock.stats.newton_failures == 0
    assert all(isinstance(seg, scipy_radau.RadauDenseOutput) for seg in stock.segments)
    stock.stats = dataclasses.replace(stock.stats, rejected=calls["predict"] - stock.stats.steps,
                                      newton_failures=calls["failed"])
    return stock, integrate(*args, **kwargs)


def _assert_bit_identical(stock, direct):
    assert np.array_equal(direct.t, stock.t)
    assert np.array_equal(direct.states, stock.states)
    assert [h.index for h in direct.events] == [h.index for h in stock.events]
    assert np.array_equal([h.t for h in direct.events], [h.t for h in stock.events])
    assert np.array_equal([h.state for h in direct.events], [h.state for h in stock.events])
    assert direct.stats == stock.stats


def test_direct_lapack_is_bit_identical_on_the_eps_1e3_cycle(monkeypatch, dp, es, cycle_1e3):
    dpe = split_dimless(dp, es.at_eps(1e-3))
    stock, direct = _stock_and_direct(
        monkeypatch, make_field(dpe), cycle_1e3.turning_points[0],
        (0.0, 1.05 * cycle_1e3.period), events=list(_event_pair(dpe)))
    assert {h.index for h in direct.events} == {0, 1}
    assert direct.stats.rejected > 0 and direct.stats.newton_failures > 0
    _assert_bit_identical(stock, direct)


def test_direct_lapack_is_bit_identical_on_a_chart_B_passage(monkeypatch, dp, es):
    es_b = es.at_eps(1e-5)
    eta_B = fold_location_B(es_b, dp)[1]
    eta_start = _eta_start_B(es_b, dp)
    exit_section = EventSpec(func=lambda t, y: y[1] - 2.0 * eta_B, direction="rising",
                             terminal=True)
    stock, direct = _stock_and_direct(
        monkeypatch, make_field_chart_B(es_b, dp), (manifold_B(eta_start, es_b, dp), eta_start),
        (0.0, 50.0 / 1e-5 + 1000.0), events=[exit_section], keep_dense=False)
    assert len(direct.events) == 1 and direct.segments == []
    _assert_bit_identical(stock, direct)


def test_direct_lapack_is_bit_identical_on_the_difference_jacobian_path(monkeypatch, phys):
    field = make_field_reference(phys)
    assert getattr(field, "jac", None) is None
    s_rate = EventSpec(func=lambda t, y: field(t, y)[0], direction="falling")
    stock, direct = _stock_and_direct(monkeypatch, field, (0.9, 0.5), (0.0, 2000.0),
                                      events=[s_rate])
    assert len(direct.events) == 1 and direct.stats.njev > 0
    _assert_bit_identical(stock, direct)


def test_owned_step_is_bit_identical_on_a_1d_field(monkeypatch):
    half = EventSpec(func=lambda t, y: y[0] - 0.5, direction="falling")
    stock, direct = _stock_and_direct(monkeypatch, decay, (1.0,), (0.0, 5.0), events=[half])
    assert len(direct.events) == 1 and direct.states.shape[1] == 1
    _assert_bit_identical(stock, direct)


def test_owned_step_is_bit_identical_on_a_zero_field(monkeypatch):
    # every error estimate is exactly 0, so each step grows by MAX_FACTOR
    stock, direct = _stock_and_direct(monkeypatch, lambda t, y: np.zeros_like(y),
                                      (1.0, 2.0), (0.0, 10.0))
    assert np.array_equal(direct.states, np.tile([1.0, 2.0], (len(direct.t), 1)))
    _assert_bit_identical(stock, direct)


def test_owned_step_is_bit_identical_when_newton_meets_nan(monkeypatch):
    # y' = -sqrt(y) reaches 0 at t = 2; Newton iterates below 0 give NaN
    def root_decay(t, y):
        return np.where(y > 0.0, -np.sqrt(np.abs(y)), np.nan)

    checks = []
    finite = integrator._finite

    def recording_finite(x):
        checks.append(finite(x))
        return checks[-1]

    monkeypatch.setattr(integrator, "_finite", recording_finite)
    stock, direct = _stock_and_direct(monkeypatch, root_decay, (1.0,), (0.0, 1.99999))
    assert not all(checks) and direct.stats.newton_failures > 0
    _assert_bit_identical(stock, direct)


@pytest.mark.parametrize("dtype", [float, complex])
def test_lu_helpers_match_scipy_bit_for_bit(dtype):
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.standard_normal((2, 2)).astype(dtype)
        b = rng.standard_normal(2).astype(dtype)
        if dtype is complex:
            a += 1j * rng.standard_normal((2, 2))
            b += 1j * rng.standard_normal(2)
        expect = lu_factor(a.copy(), overwrite_a=True)
        got = integrator._lu_factor(a.copy())
        assert np.array_equal(got[0], expect[0]) and np.array_equal(got[1], expect[1])
        assert np.array_equal(integrator._lu_solve(got, b.copy()),
                              lu_solve(expect, b.copy(), overwrite_b=True))


def test_lu_helpers_reject_non_finite_input_like_scipy():
    a = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ValueError):
        lu_factor(a.copy())
    with pytest.raises(ValueError, match="infs or NaNs"):
        integrator._lu_factor(a.copy())
    lu_piv = lu_factor(np.eye(2))
    b = np.array([np.inf, 0.0])
    with pytest.raises(ValueError):
        lu_solve(lu_piv, b.copy())
    with pytest.raises(ValueError, match="infs or NaNs"):
        integrator._lu_solve(lu_piv, b.copy())


def test_lu_factor_warns_on_an_exactly_singular_matrix_like_scipy():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.warns(LinAlgWarning, match="Diagonal number 2 is exactly zero"):
        expect = lu_factor(a.copy(), overwrite_a=True)
    with pytest.warns(LinAlgWarning, match="Diagonal number 2 is exactly zero"):
        got = integrator._lu_factor(a.copy())
    assert np.array_equal(got[0], expect[0]) and np.array_equal(got[1], expect[1])


def _random_interpolants(rng, n):
    """The same random step as scipy's and as phoscil's interpolant."""
    t_old, t = sorted(rng.uniform(-10.0, 10.0, 2))
    y_old, Q = rng.standard_normal(n), rng.standard_normal((n, 3))
    return (scipy_radau.RadauDenseOutput(t_old, t, y_old, Q),
            integrator._RadauDense(t_old, t, y_old.copy(), Q.copy()))


def test_predictor_matches_the_interpolant_bit_for_bit():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        for _ in range(200):
            stock, own = _random_interpolants(rng, n)
            h = rng.uniform(0.1, 2.0) * (stock.t - stock.t_old)
            y = rng.standard_normal(n)
            assert np.array_equal(own(stock.t + h * integrator.C).T - y,
                                  stock(stock.t + h * scipy_radau.C).T - y)


def test_interpolant_matches_scipys_on_scalar_and_array_times():
    rng = np.random.default_rng(17)
    for n in (1, 2, 3):
        for _ in range(200):
            stock, own = _random_interpolants(rng, n)
            times = rng.uniform(stock.t_old, stock.t, rng.integers(1, 9))
            assert np.array_equal(own(times), stock(times)) and own(times).shape == (n, times.size)
            for t in (times[0], float(times[0]), np.asarray(times[0]), stock.t_old, stock.t):
                assert np.array_equal(own(t), stock(t)) and own(t).shape == (n,)


def test_tableau_constants_match_scipys_bitwise():
    for name in ("C", "E", "T", "TI", "TI_REAL", "TI_COMPLEX", "P"):
        own, stock = getattr(integrator, name), getattr(scipy_radau, name)
        assert own.dtype == stock.dtype and np.array_equal(own, stock), name
    for name in ("MU_REAL", "MU_COMPLEX", "NEWTON_MAXITER", "MIN_FACTOR", "MAX_FACTOR"):
        assert getattr(integrator, name) == getattr(scipy_radau, name), name


def test_initial_step_matches_scipys():
    rng = np.random.default_rng(3)
    fields = [decay, rotation, lambda t, y: np.zeros_like(y), lambda t, y: -1e6 * y + np.sin(t)]
    for field in fields:
        for _ in range(50):
            y0 = rng.standard_normal(2) * 10.0 ** rng.uniform(-14, 3)
            t0 = rng.uniform(-5.0, 5.0)
            t_bound = t0 + 10.0 ** rng.uniform(-9, 4)
            rtol, atol = 10.0 ** rng.uniform(-13, -3), 10.0 ** rng.uniform(-14, -3)
            f0 = np.asarray(field(t0, y0), dtype=float)
            own = integrator._select_initial_step(field, t0, y0, t_bound, f0, rtol, atol)
            stock = select_initial_step(field, t0, y0, t_bound, np.inf, f0, 1, 3, rtol, atol)
            assert own == stock


def test_step_factor_matches_scipys_including_a_zero_error():
    rng = np.random.default_rng(13)
    cases = [(1.0, None, 0.5, None), (1.0, 0.5, 0.0, 0.3), (1.0, None, 0.0, None),
             (2.0, 1.0, 4.0, None), (2.0, None, 4.0, 1.0)]
    cases += [tuple(10.0 ** rng.uniform(-6, 2, 4)) for _ in range(500)]
    for h_abs, h_abs_old, error_norm, error_norm_old in cases:
        own = integrator._predict_factor(h_abs, h_abs_old, error_norm, error_norm_old)
        with np.errstate(divide="ignore"):
            stock = scipy_radau.predict_factor(h_abs, h_abs_old, np.float64(error_norm),
                                               error_norm_old)
        assert own == stock
    assert integrator._predict_factor(1.0, 0.5, 0.0, 0.3) == math.inf


def _brent_problems(rng):
    """Random (f, a, b, xtol, rtol) with a sign change on [a, b]."""
    while True:
        kind = rng.integers(4)
        c = rng.standard_normal(4)
        if kind == 0:
            def f(x, c=c):
                return ((c[0] * x + c[1]) * x + c[2]) * x + c[3]
        elif kind == 1:
            def f(x, c=c):
                return math.sin(3.0 * c[0] * x + c[1]) + 0.5 * c[2]
        elif kind == 2:
            def f(x, c=c):
                return math.exp(c[0] * x) - 1.0 - c[1] ** 2
        else:
            def f(x, c=c):
                return math.copysign(abs(x - c[0]) ** 0.3, x - c[0])
        a, b = sorted(rng.uniform(-5.0, 5.0, 2))
        if f(a) * f(b) < 0.0:
            # coarse xtol too, where delta decides between step and bisection
            yield f, a, b, 10.0 ** rng.uniform(-14, 0), 4 * np.finfo(float).eps * rng.uniform(1, 1e4)


def test_brentq_matches_scipys_on_random_brackets():
    rng = np.random.default_rng(23)
    problems = _brent_problems(rng)
    for _ in range(3000):
        f, a, b, xtol, rtol = next(problems)
        assert integrator._brentq(f, a, b, xtol, rtol) == _scipy_brentq(f, a, b, xtol, rtol)
    # an exact zero at either end, and the loop landing on an exact zero
    assert integrator._brentq(lambda x: x, 0.0, 1.0, 1e-12) == _scipy_brentq(
        lambda x: x, 0.0, 1.0, 1e-12, 4 * np.finfo(float).eps)
    assert integrator._brentq(lambda x: x - 1.0, 0.0, 1.0, 1e-12) == (1.0, 2)
    assert integrator._brentq(lambda x: x - 0.5, 0.0, 1.0, 1e-12) == _scipy_brentq(
        lambda x: x - 0.5, 0.0, 1.0, 1e-12, 4 * np.finfo(float).eps)


@pytest.mark.parametrize("f, a, b, kwargs", [
    (lambda x: x, -1.0, 1.0, {"xtol": 0.0}),
    (lambda x: x, -1.0, 1.0, {"xtol": 1e-12, "rtol": 1e-16}),
    (lambda x: x * x + 1.0, -1.0, 1.0, {"xtol": 1e-12}),
    (lambda x: math.nan, -1.0, 1.0, {"xtol": 1e-12}),
    (lambda x: x if x < 0.25 else math.nan, -1.0, 1.0, {"xtol": 1e-12}),
], ids=["xtol", "rtol", "no-sign-change", "nan-at-a", "nan-inside"])
def test_brentq_errors_match_scipys(f, a, b, kwargs):
    with pytest.raises(ValueError) as stock:
        brentq(f, a, b, **kwargs)
    with pytest.raises(ValueError) as own:
        integrator._brentq(f, a, b, **kwargs)
    assert str(own.value) == str(stock.value)


def test_brentq_reports_non_convergence_like_scipy():
    with pytest.raises(RuntimeError) as stock:
        brentq(math.atan, -1.0, 3.0, xtol=1e-15, maxiter=3)
    with pytest.raises(RuntimeError) as own:
        integrator._brentq(math.atan, -1.0, 3.0, xtol=1e-15, maxiter=3)
    assert str(own.value) == str(stock.value)


def test_segments_are_evaluated_as_scipys_ode_solution(dp, es):
    traj = integrate(make_field(split_dimless(dp, es.at_eps(1e-3))), (0.5, 0.9), (0.0, 60.0))
    calls = []

    def recording(i, segment):
        def call(t):
            calls.append((i, np.asarray(t).tolist()))
            return segment(t)
        return call

    segments = [recording(i, seg) for i, seg in enumerate(traj.segments)]
    own = Trajectory(traj.t, traj.states, segments, [], traj.names)
    stock = OdeSolution(traj.t, segments, alt_segment=True)
    rng = np.random.default_rng(29)
    # step boundaries (the step that starts there answers), shuffled, with repeats
    # and interior times, and the two ends of the span
    times = np.concatenate([traj.t, traj.t[::7], rng.uniform(0.0, 60.0, 500)])
    rng.shuffle(times)
    for batch in (times, times[:1], *np.array_split(times, 7)):
        expect = stock(batch).T
        stock_calls, calls[:] = calls[:], []
        assert np.array_equal(own(batch), expect)
        # the same segments, called with the same sorted groups of times
        assert calls == stock_calls
        calls.clear()
    for t in [*traj.t[:20], traj.t[-1], *rng.uniform(0.0, 60.0, 20)]:
        assert np.array_equal(own(t), stock(t)) and calls[0] == calls[1]
        calls.clear()


@pytest.mark.parametrize("keep_dense", [True, False])
def test_empty_and_2d_times_answer_alike_for_both_kinds(keep_dense):
    traj = integrate(rotation, (1.0, 0.0), (0.0, 3.0), keep_dense=keep_dense)
    assert traj(np.array([])).shape == (0, 2)
    assert traj([]).shape == (0, 2)
    with pytest.raises(DomainError, match="1-D"):
        traj(np.array([[traj.t[1], traj.t[2]], [traj.t[3], traj.t[4]]]))


@pytest.mark.parametrize("x0", [(), ((1.0, 2.0),), (math.nan, 1.0)], ids=["empty", "2d", "nan"])
def test_a_bad_initial_state_is_a_domain_error(x0):
    with pytest.raises(DomainError):
        integrate(rotation, x0, (0.0, 1.0))


def test_event_polish_counts_its_brackets_and_calls():
    ev = EventSpec(func=lambda t, y: y[1], direction="both")
    traj = integrate(rotation, (1.0, 0.0), (0.0, 6.0 * math.pi + 1.0), events=[ev])
    stats = traj.stats
    assert stats.event_polishes == len(traj.events) == 6
    assert stats.polish_evals >= 2 * stats.event_polishes
    assert integrate(rotation, (1.0, 0.0), (0.0, 7.0)).stats.event_polishes == 0


def test_rms_and_finite_helpers_match_numpy():
    rng = np.random.default_rng(11)
    for shape in [(1,), (2,), (3, 1), (3, 2), (3, 5)]:
        x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-12, 3)
        assert integrator._rms(x) == scipy_norm(x)
    for x in [np.array([1.0, -2.0]), np.array([np.inf, 0.0]), np.array([[0.0, np.nan]]),
              np.array([1.0 + 2.0j, 3.0j]), np.array([complex(0.0, np.inf), 1.0]),
              np.array([[1e308, 1e308], [1e308, 1e308]])]:
        assert integrator._finite(x) == np.isfinite(x).all()


# --- exports -------------------------------------------------------------------------

def test_export_writes_header_samples_and_events(tmp_path):
    ev = EventSpec(func=lambda t, y: y[1], direction="rising")
    traj = integrate(rotation, (1.0, 0.0), (0.0, 7.0), events=[ev])
    csv = tmp_path / "run.csv"
    sidecar = tmp_path / "run_events.json"
    export_trajectory(traj, csv, events_path=sidecar, names=("x", "y"),
                      provenance=["probe run"])
    lines = csv.read_text().splitlines()
    assert lines[0] == "# probe run"
    assert lines[1] == "t,x,y"
    assert len(lines) == 2 + len(traj.t)
    payload = json.loads(sidecar.read_text())
    assert payload["provenance"] == ["probe run"]
    assert len(payload["events"]) == 1
    assert abs(payload["events"][0]["t"] - 2.0 * math.pi) < 1e-9


def test_export_transform_changes_coordinates(tmp_path):
    traj = integrate(decay, (1.0,), (0.0, 1.0))
    csv = tmp_path / "log.csv"
    export_trajectory(traj, csv, names=("logy",),
                      transform=lambda y: (math.log(y[0]),))
    rows = [line for line in csv.read_text().splitlines() if not line.startswith("#")]
    t_last, log_last = rows[-1].split(",")
    assert math.isclose(float(log_last), -float(t_last), rel_tol=0.0, abs_tol=1e-8)


def _per_row_export_csv(traj, path, names, transform=None):
    """The row-by-row writer that the column-wise export replaced."""
    rows = []
    for ti, yi in zip(traj.t, traj.states):
        out = transform(yi) if transform is not None else yi
        rows.append([fmt17(ti)] + [fmt17(v) for v in out])
    write_csv(path, ["t", *names], rows, provenance=["probe"])


@pytest.mark.parametrize("transform", [None, lambda y: (math.hypot(*y), float(np.arctan2(y[1], y[0])))])
def test_export_bytes_match_the_per_row_writer(tmp_path, transform):
    traj = integrate(rotation, (1.0, 0.0), (0.0, 7.0))
    export_trajectory(traj, tmp_path / "columns.csv", names=("a", "b"), transform=transform,
                      provenance=["probe"])
    _per_row_export_csv(traj, tmp_path / "rows.csv", ("a", "b"), transform)
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_export_floats_roundtrip_exactly(tmp_path):
    traj = integrate(decay, (1.0,), (0.0, 1.0))
    csv = tmp_path / "run.csv"
    export_trajectory(traj, csv)
    rows = [line for line in csv.read_text().splitlines()][1:]
    values = np.array([[float(v) for v in row.split(",")] for row in rows])
    np.testing.assert_array_equal(values[:, 0], traj.t)
    np.testing.assert_array_equal(values[:, 1], traj.states[:, 0])
