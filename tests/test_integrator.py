"""Solver correctness against closed-form problems, event machinery, and the
scalar Radau step against scipy's Radau and the numpy/LAPACK operations it restates."""
import ctypes
import ctypes.util
import dataclasses
import functools
import json
import math
import multiprocessing
import os
import re
import time
import warnings

import numpy as np
import pytest
import scipy.integrate._ivp.radau as scipy_radau
from hypothesis import given, strategies as st
from scipy.integrate import OdeSolution
from scipy.integrate._ivp.common import norm as scipy_norm, select_initial_step
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve
from scipy.linalg.lapack import dgetrf, dgetrs, zgetrf, zgetrs
from scipy.optimize import brentq
from scipy.sparse import csc_matrix

from phoscil import integrator
from phoscil._fmt import fmt17, write_csv
from phoscil.cycle import _event_pair
from phoscil.errors import BudgetError, DomainError, EventBracketError, StiffnessError, WorkerError
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
from test_cli import _fresh_python
from test_cli_sweep import budget


def _with_jac(J):
    """Decorator: give a field the constant Jacobian J (or J(t, y) if callable)."""
    def attach(field):
        field.jac = J if callable(J) else (lambda t, y: np.array(J, dtype=float))
        return field
    return attach


@_with_jac([[-1.0, 0.0], [0.0, -2.0]])
def decay(t, y):
    return -y[0], -2.0 * y[1]


@_with_jac([[0.0, -1.0], [1.0, 0.0]])
def rotation(t, y):
    return -y[1], y[0]


def linear(A, b=(0.0, 0.0)):
    """y' = A y + b with its Jacobian."""
    @_with_jac(A)
    def field(t, y):
        return A[0][0] * y[0] + A[0][1] * y[1] + b[0], A[1][0] * y[0] + A[1][1] * y[1] + b[1]
    return field


def _same(a, b) -> bool:
    """Equal shapes and bits, the sign of zero included; any NaN equals any NaN."""
    a, b = (np.atleast_1d(np.asarray(v, dtype=complex)).view(float) if np.iscomplexobj(v)
            else np.asarray(v, dtype=float) for v in (a, b))
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a) | np.isnan(a), np.signbit(b) | np.isnan(b)))


def _rand(rng, *shape, zeros=0.1):
    """Random floats over six decades, with a share of +0 and -0."""
    x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)
    mask = rng.random(shape) < zeros
    x[mask] = rng.choice([0.0, -0.0], int(mask.sum()))
    return x


def _crand(rng, *shape, zeros=0.1):
    """Complex :func:`_rand`, with signed zeros in either part."""
    z = np.empty(shape, dtype=complex)
    z.real, z.imag = _rand(rng, *shape, zeros=zeros), _rand(rng, *shape, zeros=zeros)
    return z


# --- config validation ---------------------------------------------------------

def test_config_defaults_are_tight():
    cfg = IntegratorConfig()
    assert cfg.rtol == 1e-10 and cfg.atol == 1e-12
    assert integrator.MAX_STEPS == 10_000_000


@pytest.mark.parametrize("kwargs", [
    {"rtol": 0.0}, {"rtol": 1e-2}, {"rtol": -1e-10},
    {"atol": -1.0}, {"rtol": 1e-20}, {"atol": math.inf}, {"atol": math.nan}, {"atol": 1e300},
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(DomainError):
        IntegratorConfig(**kwargs)


@pytest.mark.parametrize("name, message", [
    ("rtol", "rtol must lie in [2.220446049250313e-14, 1e-3], got inf"),
    ("atol", "atol must lie in (0, 1e-3], got inf"),
])
def test_config_reads_an_integer_beyond_float_range_as_inf(name, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        IntegratorConfig(**{name: 10 ** 400})


def test_config_stores_plain_floats():
    cfg = IntegratorConfig(rtol=np.float64(1e-8), atol=1e-11)
    assert type(cfg.rtol) is float and cfg == IntegratorConfig(rtol=1e-8, atol=1e-11)


# --- forked map -----------------------------------------------------------------

def _pid_and_square(x):
    return os.getpid(), x * x


@pytest.mark.parametrize("ids, n_items, forks", [
    ({0}, 5, False), ({0, 1}, 1, False), ({0, 1}, 5, True), ({0, 1, 2}, 5, True),
])
def test_fork_map_keeps_input_order_and_forks_for_two_items_and_two_cpus(cpus, ids, n_items,
                                                                          forks):
    cpus(ids)
    out = integrator._fork_map(_pid_and_square, range(n_items))
    assert [sq for _, sq in out] == [x * x for x in range(n_items)]
    pids = {pid for pid, _ in out}
    assert (os.getpid() not in pids) == forks
    assert len(pids) <= min(len(ids), n_items)
    assert multiprocessing.active_children() == []


def test_fork_map_runs_serially_without_sched_getaffinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert integrator._fork_map(_pid_and_square, range(3)) == [(os.getpid(), x * x)
                                                               for x in range(3)]


def _item_3_fails_first(x):
    # in the pool, item 3 raises while item 0 is still running
    if x == 0:
        time.sleep(0.2)
        raise ValueError("item 0")
    if x == 3:
        raise KeyError("item 3")
    return x


@pytest.mark.parametrize("ids", [{0}, {0, 1}], ids=["loop", "pool"])
def test_fork_map_raises_the_first_failing_item_in_input_order(cpus, ids):
    cpus(ids)
    with pytest.raises(ValueError, match="^item 0$"):
        integrator._fork_map(_item_3_fails_first, range(6))


def _exit_on_item_1(x):
    if x == 1:
        os._exit(1)  # as an out-of-memory kill ends a worker
    return x


def test_a_worker_that_dies_raises_worker_error(cpus):
    cpus({0, 1})
    with budget("_fork_map"), pytest.raises(
            WorkerError, match=r"^a worker process died, and items\[1\] = 1 is the first item "
                               r"left without a result$"):
        integrator._fork_map(_exit_on_item_1, [0, 1])
    assert multiprocessing.active_children() == []


def _one_second_then_mark(marks, x):
    if x == 0:
        raise ValueError("item 0")
    time.sleep(1.0)
    if x == 3:
        raise KeyError("item 3")
    (marks / str(x)).touch()
    return x


def test_a_failing_item_stops_the_workers_at_once(cpus, tmp_path):
    # the items queued behind item 0 are not waited for: none of them finishes,
    # and with no worker left alive none can finish later
    cpus({0, 1})
    with pytest.raises(ValueError, match="^item 0$"):
        integrator._fork_map(functools.partial(_one_second_then_mark, tmp_path), range(6))
    assert multiprocessing.active_children() == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("failing_call", [1, 2], ids=["first-fork", "second-fork"])
def test_a_failed_fork_runs_the_serial_loop(failing_call):
    # in a new interpreter, which must exit: a worker left running would keep it alive
    code = f"""
import json, math, multiprocessing, os
from phoscil import integrator
os.sched_getaffinity = lambda pid: {{0, 1}}
fork, calls = os.fork, []
def failing_fork():
    calls.append(1)
    if len(calls) == {failing_call}:
        raise BlockingIOError(11, "Resource temporarily unavailable")
    return fork()
os.fork = failing_fork
out = integrator._fork_map(math.sqrt, [2.0, 3.0, 5.0])
print(json.dumps([[x.hex() for x in out], len(calls), len(multiprocessing.active_children())]))
"""
    done = _fresh_python("-c", code)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[math.sqrt(x).hex() for x in (2.0, 3.0, 5.0)],
                                       failing_call, 0]


# --- accuracy oracles -----------------------------------------------------------

def test_exponential_decay_matches_closed_form():
    traj = integrate(decay, (1.0, 1.0), (0.0, 5.0))
    t = np.linspace(0.0, 5.0, 37)
    np.testing.assert_allclose(traj(t), np.exp(np.outer(t, [-1.0, -2.0])), rtol=1e-8, atol=1e-12)
    # endpoint sample as recorded, not just via dense output
    assert math.isclose(traj.states[-1, 0], math.exp(-5.0), rel_tol=1e-8)
    assert math.isclose(traj.states[-1, 1], math.exp(-10.0), rel_tol=1e-8)


@given(rate=st.floats(min_value=-2.0, max_value=0.5),
       t_end=st.floats(min_value=0.1, max_value=3.0))
def test_linear_problem_family(rate, t_end):
    traj = integrate(linear([[rate, 0.0], [0.0, rate]]), (1.0, -2.0), (0.0, t_end))
    expect = math.exp(rate * t_end)
    assert math.isclose(traj.states[-1, 0], expect, rel_tol=1e-7, abs_tol=1e-12)
    assert math.isclose(traj.states[-1, 1], -2.0 * expect, rel_tol=1e-7, abs_tol=1e-12)


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


def test_terminal_event_truncates_the_run():
    ev = EventSpec(func=lambda t, y: y[1], direction="rising", terminal=True)
    traj = integrate(rotation, (1.0, 0.0), (0.0, 100.0), events=[ev])
    assert abs(traj.t[-1] - 2.0 * math.pi) < 1e-9
    assert traj.events[-1].t == traj.t[-1]
    assert np.array_equal(traj.states[-1], traj.events[-1].state)


@pytest.mark.parametrize("later", [0.5, 0.25], ids=["later", "same-time"])
def test_the_first_terminal_hit_of_a_step_ends_the_run(later):
    # both events cross inside the eleventh step: the terminal one at a quarter of it
    # and the other at ``later``; only hits up to the terminal one are kept
    lo, hi = integrate(rotation, (1.0, 0.0), (0.0, 7.0)).t[10:12].tolist()
    other = EventSpec(func=lambda t, y: t - (lo + later * (hi - lo)), direction="rising")
    first = EventSpec(func=lambda t, y: t - (lo + 0.25 * (hi - lo)), direction="rising",
                      terminal=True)
    traj = integrate(rotation, (1.0, 0.0), (0.0, 7.0), events=[first, other])
    assert [hit.index for hit in traj.events] == [0]
    assert traj.stats.event_polishes == 2 and len(traj.t) == 12
    assert traj.t[-1] == traj.events[0].t > lo
    assert np.array_equal(traj.states[-1], traj.events[0].state)


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
    traj = integrate_until_event(rotation, (1.0, 0.0), ev, t_max=50.0)
    [hit] = traj.events
    assert abs(hit.t - 2.0 * math.pi) < 1e-9
    assert traj.t[-1] == hit.t


def test_until_event_no_hit_is_a_result_not_an_error():
    ev = EventSpec(func=lambda t, y: y[0], direction="rising")  # y0 stays positive
    traj = integrate_until_event(decay, (1.0, 1.0), ev, t_max=1.0)
    assert traj.events == []
    assert math.isclose(traj.t[-1], 1.0, rel_tol=1e-12)


def test_until_event_requires_finite_horizon():
    ev = EventSpec(func=lambda t, y: y[0], direction="rising")
    with pytest.raises(DomainError):
        integrate_until_event(decay, (1.0, 1.0), ev, t_max=math.inf)


def test_event_spec_rejects_unknown_direction():
    for direction in ("upward", "both"):
        with pytest.raises(DomainError):
            EventSpec(func=lambda t, y: y[0], direction=direction)


def test_event_spec_needs_a_direction():
    with pytest.raises(TypeError):
        EventSpec(func=lambda t, y: y[0])


# --- trajectory container ----------------------------------------------------------

def test_dense_output_is_bounded_by_span():
    traj = integrate(decay, (1.0, 1.0), (0.0, 2.0))
    with pytest.raises(DomainError):
        traj(-0.1)
    with pytest.raises(DomainError):
        traj(2.0 + 1e-9)
    with pytest.raises(DomainError, match="outside the integrated span"):
        traj(10 ** 400)  # an integer beyond float range


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
    assert traj.stats == SolverStats(steps=0, nfev=0, njev=0, nlu=0, rejected=0,
                                     event_polishes=0, polish_evals=0)
    assert traj.stats.newton_failures == traj.stats.diverged_failures == 0


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
    total = (SolverStats(1, 2, 3, 4, 5, 7, 8, fresh_jac_failures=4, stale_jac_failures=2)
             + SolverStats(10, 20, 30, 40, 50, 70, 80, fresh_jac_failures=40,
                           stale_jac_failures=20))
    assert total == SolverStats(steps=11, nfev=22, njev=33, nlu=44, rejected=55,
                                event_polishes=77, polish_evals=88,
                                fresh_jac_failures=44, stale_jac_failures=22)
    assert total.newton_failures == 66


def test_t_span_must_increase():
    with pytest.raises(DomainError):
        integrate(decay, (1.0, 1.0), (1.0, 1.0))
    with pytest.raises(DomainError):
        integrate(decay, (1.0, 1.0), (2.0, 1.0))
    with pytest.raises(DomainError):
        integrate(decay, (1.0, 1.0), (0.0, math.nan))
    with pytest.raises(DomainError, match=r"^t_span must be finite with t1 > t0, got \(0\.0, inf\)$"):
        integrate(decay, (1.0, 1.0), (0.0, 10 ** 400))  # an integer beyond float range


def test_step_budget_is_enforced(monkeypatch):
    monkeypatch.setattr(integrator, "MAX_STEPS", 5)
    with pytest.raises(BudgetError, match="MAX_STEPS = 5 exhausted"):
        integrate(rotation, (1.0, 0.0), (0.0, 1000.0))


@_with_jac(lambda t, y: np.array([[-0.5 / np.sqrt(y[0]), 0.0], [0.0, -1.0]]))
def root_decay(t, y):
    """y0' = -sqrt(y0) reaches 0 at t = 2 and is NaN below it."""
    return -np.sqrt(y[0]), -y[1]


def test_a_field_that_turns_nan_raises_a_domain_error():
    # the Jacobian turns non-finite and the LU factor's finite check fails
    with np.errstate(invalid="ignore", divide="ignore"), \
            pytest.raises(DomainError, match="at t = ") as info:
        integrate(root_decay, (1.0, 1.0), (0.0, 2.5))
    assert isinstance(info.value.__cause__, ValueError)
    assert not isinstance(info.value.__cause__, DomainError)


def test_a_field_domain_error_passes_through_unwrapped():
    @_with_jac(decay.jac)
    def guarded(t, y):
        if y[0] < 0.5:
            raise DomainError("guarded field left its domain")
        return decay(t, y)

    with pytest.raises(DomainError, match="guarded field") as info:
        integrate(guarded, (1.0, 1.0), (0.0, 2.0))
    assert info.value.__cause__ is None


@pytest.mark.parametrize("J", [np.eye(3), csc_matrix(np.eye(2))], ids=["3x3", "csc"])
def test_a_jacobian_that_is_not_a_dense_n_by_n_array_is_a_domain_error(J):
    @_with_jac(lambda t, y: J)
    def field(t, y):
        return rotation(t, y)

    with pytest.raises(DomainError, match=r"shape \(2, 2\)"):
        integrate(field, (1.0, 0.0), (0.0, 1.0))


def test_a_field_without_a_jacobian_is_a_domain_error():
    with pytest.raises(DomainError, match="analytic Jacobian"):
        integrate(lambda t, y: (-y[0], -y[1]), (1.0, 0.0), (0.0, 1.0))


@_with_jac(decay.jac)
def nan_past_one(t, y):
    """decay until t = 1 and NaN after it; its Jacobian stays finite."""
    return (math.nan, math.nan) if t > 1.0 else decay(t, y)


@_with_jac(lambda t, y: np.array([[2.0 * y[0], 0.0], [0.0, 0.0]]))
def square_blowup(t, y):
    """y0' = y0^2 from y0(0) = 1: y0 = 1/(1 - t) blows up at t = 1."""
    return y[0] * y[0], 0.0


@pytest.mark.parametrize("field", [nan_past_one, square_blowup], ids=["nan", "blowup"])
def test_a_step_size_that_underflows_near_t_1_is_a_stiffness_error(field):
    # every step past t = 1 (or into the pole) is rejected until the step is below
    # ten ulps of t
    with pytest.raises(StiffnessError, match="^step size underflow at t = ") as info:
        integrate(field, (1.0, 1.0), (0.0, 2.0))
    t_fail = float(re.match(r"step size underflow at t = (\S+):", str(info.value)).group(1))
    assert abs(t_fail - 1.0) < 1e-12


def test_a_step_that_cannot_continue_raises_and_keeps_its_last_state():
    solver = integrator._PlanarRadau(nan_past_one, 0.0, (1.0, 1.0), 2.0, 1e-10, 1e-12)
    with pytest.raises(StiffnessError, match=r"^step size underflow at t = \S+: Required step"
                                             r" size is less than spacing between numbers\.$"):
        for _ in range(1000):
            t, y = solver.t, solver.y
            solver.step()
    assert solver.t == t and solver.y == y and abs(t - 1.0) < 1e-12


def test_an_event_function_that_is_nan_inside_a_step_is_a_bracket_error():
    # finite at every step end, so the crossing is seen, and NaN wherever Brent probes
    ends = set(integrate(decay, (1.0, 1.0), (0.0, 5.0)).t.tolist())
    assert 2.5 not in ends
    ev = EventSpec(func=lambda t, y: t - 2.5 if t in ends else math.nan, direction="rising")
    with pytest.raises(EventBracketError, match=r"^bracketing failed on \[.*\]: .* is NaN"):
        integrate(decay, (1.0, 1.0), (0.0, 5.0), events=[ev])


def test_an_event_that_is_exactly_zero_at_a_step_end_needs_no_polish():
    # the last step ends at t = 1.0, where t - 1 is exactly 0: a rising hit there
    traj = integrate(decay, (1.0, 1.0), (0.0, 1.0),
                     events=[EventSpec(func=lambda t, y: t - 1.0, direction="rising")])
    assert [hit.t for hit in traj.events] == [1.0]
    assert traj.stats.event_polishes == 1 and traj.stats.polish_evals == 0


# --- stiff model runs ----------------------------------------------------------------

def test_stiff_relaxation_run_completes_and_stays_positive(dp, es):
    dpe = split_dimless(dp, es.at_eps(1e-4))
    field = make_field(dpe)
    traj = integrate(field, (0.5, 0.9), (0.0, 400.0))
    assert traj.t[-1] == 400.0
    assert np.all(traj.states >= 0.0)
    # the fast variable must have jumped at least once in this window
    assert traj.states[:, 1].max() > 0.5 and traj.states[:, 1].min() < 0.01


# --- the scalar Radau step against scipy's ---------------------------------------------

class _StockRadau(scipy_radau.Radau):
    """scipy's own Radau, built the way ``integrate`` builds its solver; each
    Jacobian call after the first appends "jac" to ``log``."""

    log: list

    def __init__(self, field, t0, y0, t_bound, rtol, atol):
        super().__init__(field, t0, y0, t_bound, rtol=rtol, atol=atol, jac=field.jac)
        self.rejected = self.floor_accepts = self.newton_iters = self.slow_failures = 0
        self.fresh_jac_failures = self.stale_jac_failures = 0
        jac = self.jac

        def logged(*args):
            self.log.append("jac")
            return jac(*args)

        self.jac = logged


def _scipy_brentq(f, a, b, xtol, rtol):
    root, info = brentq(f, a, b, xtol=xtol, rtol=rtol, full_output=True)
    return root, info.function_calls


def _stock_and_direct(monkeypatch, *args, **kwargs):
    """integrate(*args) with scipy's own solver and event polish, then as shipped.

    The stock run builds scipy's ``Radau`` (its constructor, initial step,
    ``step()``, ``lu_factor``/``lu_solve`` closures and
    ``RadauDenseOutput``) and polishes events with scipy's ``brentq``.
    scipy's step does not count rejections or its Newton work, so
    wrappers count them: one ``predict_factor`` call per rejection and per
    accepted step, and each collocation solve's iterations and outcome.
    A failed solve had a stale Jacobian when scipy refreshes J right after
    it, and diverged when its last stages were not finite or its last
    rate was >= 1; it was predicted too slow otherwise.
    """
    calls = {"lu": 0, "predict": 0}
    log = []  # (converged, iterations, diverged) per solve, and "jac" per Jacobian refresh

    def counting(name, func):
        def wrapper(*a, **kw):
            calls[name] += 1
            return func(*a, **kw)
        return wrapper

    def solve(fun, *a, stock_solve=scipy_radau.solve_collocation_system):
        finite = []

        def checked(t, y):
            f = fun(t, y)
            finite.append(np.isfinite(f).all())
            return f

        result = converged, n_iter, _, rate = stock_solve(checked, *a)
        log.append((converged, n_iter, not converged and (not all(finite[-3:]) or rate >= 1)))
        return result

    with monkeypatch.context() as m:
        m.setattr(integrator, "_PlanarRadau", _StockRadau)
        m.setattr(integrator, "_brentq", _scipy_brentq)
        m.setattr(_StockRadau, "log", log, raising=False)
        m.setattr(scipy_radau, "lu_factor", counting("lu", lu_factor))
        m.setattr(scipy_radau, "predict_factor", counting("predict", scipy_radau.predict_factor))
        m.setattr(scipy_radau, "solve_collocation_system", solve)
        stock = integrate(*args, **kwargs)
    assert calls["lu"] == stock.stats.nlu > 0
    assert calls["predict"] >= stock.stats.steps > 0
    assert stock.stats.rejected == stock.stats.newton_failures == stock.stats.newton_iters == 0
    assert all(isinstance(seg, scipy_radau.RadauDenseOutput) for seg in stock.segments)
    failed = [i for i, e in enumerate(log) if e != "jac" and not e[0]]
    stale = sum(log[i + 1:i + 2] == ["jac"] for i in failed)
    diverged = sum(e[2] for e in log if e != "jac")
    stock.stats = dataclasses.replace(
        stock.stats, rejected=calls["predict"] - stock.stats.steps,
        newton_iters=sum(e[1] for e in log if e != "jac"), fresh_jac_failures=len(failed) - stale,
        stale_jac_failures=stale, slow_failures=len(failed) - diverged)
    return stock, integrate(*args, **kwargs)


def _assert_bit_identical(stock, direct):
    assert np.array_equal(direct.t, stock.t)
    assert np.array_equal(direct.states, stock.states)
    assert [h.index for h in direct.events] == [h.index for h in stock.events]
    assert np.array_equal([h.t for h in direct.events], [h.t for h in stock.events])
    assert np.array_equal([h.state for h in direct.events], [h.state for h in stock.events])
    assert dataclasses.astuple(direct.stats) == dataclasses.astuple(stock.stats)


def test_direct_lapack_is_bit_identical_on_the_eps_1e3_cycle(monkeypatch, dp, es, cycle_1e3):
    dpe = split_dimless(dp, es.at_eps(1e-3))
    stock, direct = _stock_and_direct(
        monkeypatch, make_field(dpe), cycle_1e3.turning_points[0],
        (0.0, 1.05 * cycle_1e3.period), events=list(_event_pair(dpe)))
    assert {h.index for h in direct.events} == {0, 1}
    assert direct.stats.rejected > 0 and direct.stats.newton_failures > 0
    _assert_bit_identical(stock, direct)


def test_direct_lapack_is_bit_identical_on_a_chart_B_passage(monkeypatch, dp, es, scipy_newton):
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


@pytest.mark.parametrize("leg", ["drift", "jump"])
def test_owned_step_is_bit_identical_in_the_fold_B_regime(monkeypatch, dp, es, leg, scipy_newton):
    """The stiffest passage, chart B at eps = 1e-7, in two cuts of about 2,400
    steps together: its first 4e6 time units from the manifold start, where
    most collocation solves fail Newton and refresh the Jacobian, and the
    jump from near the fold to the exit section, where steps are rejected."""
    es_b = es.at_eps(1e-7)
    eta_B = fold_location_B(es_b, dp)[1]
    eta_start = _eta_start_B(es_b, dp)
    if leg == "drift":
        x0, t_end = (manifold_B(eta_start, es_b, dp), eta_start), 4e6
        section = EventSpec(func=lambda t, y: y[1] - 1.05 * eta_start, direction="rising")
    else:
        x0, t_end = (0.0261, 0.5), 1e6
        section = EventSpec(func=lambda t, y: y[1] - 2.0 * eta_B, direction="rising",
                            terminal=True)
    stock, direct = _stock_and_direct(monkeypatch, make_field_chart_B(es_b, dp), x0,
                                      (0.0, t_end), events=[section], keep_dense=False)
    assert len(direct.events) == 1
    if leg == "drift":
        assert direct.stats.newton_failures > direct.stats.steps > 1500
        assert direct.stats.njev > 1000
    else:
        assert direct.stats.rejected > 5 and direct.stats.newton_failures > 0
    _assert_bit_identical(stock, direct)


def test_owned_step_is_bit_identical_on_the_reference_field(monkeypatch, phys):
    field = make_field_reference(phys)
    s_rate = EventSpec(func=lambda t, y: field(t, y)[0], direction="falling")
    stock, direct = _stock_and_direct(monkeypatch, field, (0.9, 0.5), (0.0, 2000.0),
                                      events=[s_rate])
    assert len(direct.events) == 1 and direct.stats.njev > 1
    _assert_bit_identical(stock, direct)


def test_owned_step_is_bit_identical_on_a_planar_decay(monkeypatch):
    half = EventSpec(func=lambda t, y: y[0] - 0.5, direction="falling")
    stock, direct = _stock_and_direct(monkeypatch, decay, (1.0, -3.0), (0.0, 5.0), events=[half])
    assert len(direct.events) == 1
    _assert_bit_identical(stock, direct)


def test_owned_step_is_bit_identical_on_a_zero_field(monkeypatch):
    # every error estimate is exactly 0, so each step grows by MAX_FACTOR
    stock, direct = _stock_and_direct(monkeypatch, linear([[0.0, 0.0], [0.0, 0.0]]),
                                      (1.0, 2.0), (0.0, 10.0))
    assert np.array_equal(direct.states, np.tile([1.0, 2.0], (len(direct.t), 1)))
    _assert_bit_identical(stock, direct)


@pytest.mark.filterwarnings("ignore:divide by zero encountered in scalar divide:RuntimeWarning")
def test_owned_step_is_bit_identical_after_a_zero_step_size(monkeypatch):
    # The field is 0 up to t = 3, so those steps have error 0.  The first step
    # past t = 3 then predicts the factor 0 and, as it refreshes the Jacobian,
    # keeps it: the next step starts from min_step and stores h_abs_old = 0.
    @_with_jac(lambda t, y: np.array([[-0.2 * max(t - 3.0, 0.0) * y[0], 0.0],
                                      [0.0, -0.1 * max(t - 3.0, 0.0)]]))
    def switched(t, y):
        c = 0.1 * (t - 3.0) if t >= 3.0 else 0.0
        return -c * y[0] ** 2, -c * y[1]

    seen = []
    predict = integrator._predict_factor
    monkeypatch.setattr(integrator, "_predict_factor", lambda *a: seen.append(a) or predict(*a))
    stock, direct = _stock_and_direct(monkeypatch, switched, (1.0, 1.0), (0.0, 10.0),
                                      IntegratorConfig(rtol=1e-3, atol=1e-3))
    assert any(error_norm == 0.0 for _, _, error_norm, _ in seen)
    assert any(h_abs_old == 0.0 for _, h_abs_old, _, _ in seen)
    _assert_bit_identical(stock, direct)


def test_owned_step_is_bit_identical_when_newton_meets_nan(monkeypatch, scipy_newton):
    nans = []

    # y0' = -sqrt(y0) reaches 0 at t = 2; Newton iterates below 0 give NaN
    @_with_jac(lambda t, y: np.array([[-0.5 / np.sqrt(y[0]), 0.0], [0.0, 0.0]]))
    def recording(t, y):
        nans.append(not y[0] > 0.0)
        return (-math.sqrt(y[0]) if y[0] > 0.0 else math.nan), 0.0

    with np.errstate(invalid="ignore"):
        stock, direct = _stock_and_direct(monkeypatch, recording, (1.0, 1.0), (0.0, 1.99999))
    assert any(nans) and direct.stats.newton_failures > 0
    _assert_bit_identical(stock, direct)


# --- a Newton solve stops at its rounding floor ------------------------------------

@pytest.fixture(scope="module")
def chart_b_step(dp, es):
    """The 100th step of the eps = 1e-7 chart-B passage, as a solve to repeat:
    (solver, t, y, h, converged stages, error scale, both LUs)."""
    es_b = es.at_eps(1e-7)
    eta_start = _eta_start_B(es_b, dp)
    solver = integrator._PlanarRadau(make_field_chart_B(es_b, dp), 0.0,
                                     (manifold_B(eta_start, es_b, dp), eta_start),
                                     50.0 / 1e-7 + 1000.0, 1e-10, 1e-12)
    for _ in range(100):
        t, y = solver.t, solver.y
        solver.step()
    h = solver.sol.h
    scale = (solver.atol + abs(y[0]) * solver.rtol, solver.atol + abs(y[1]) * solver.rtol)
    return (solver, t, y, h, solver.sol.guess(t, h, y), scale,
            solver._factor(h, solver.jac(t, y)))


def _floor_solve(monkeypatch, chart_b_step, kappa, Z0=None, stall=None):
    """One collocation solve of ``chart_b_step`` with NEWTON_FLOOR = ``kappa``:
    (converged, stages, update norms, floor accepts, diverged, too slow).
    ``stall`` shrinks the error scale so that the last update's norm comes
    out at that value."""
    solver, t, y, h, Z, scale, lus = chart_b_step
    norms = []

    def recording(*x, rms=integrator._rms):
        norms.append(rms(*x))
        return norms[-1]

    if stall is not None:
        floor = _floor_solve(monkeypatch, chart_b_step, kappa)[2][-1]
        scale = tuple(s * floor / stall for s in scale)
    accepts, slow = solver.floor_accepts, solver.slow_failures
    with monkeypatch.context() as m:
        m.setattr(integrator, "_rms", recording)
        m.setattr(integrator, "NEWTON_FLOOR", kappa)
        converged, _, Z, _ = solver._collocate(t, y, h, Z if Z0 is None else Z0, scale, *lus)
    accepts, slow = solver.floor_accepts - accepts, solver.slow_failures - slow
    return converged, Z, norms, accepts, int(not converged) - slow, slow


def test_a_chart_b_solve_from_converged_stages_stalls_at_its_floor(monkeypatch, chart_b_step):
    on = _floor_solve(monkeypatch, chart_b_step, 0.1)
    off = _floor_solve(monkeypatch, chart_b_step, 0.0)
    # the updates stall at about 1000 newton_tol, far below kappa
    assert on[2] == off[2] and len(on[2]) == 2
    assert 1000 * chart_b_step[0].newton_tol < on[2][-1] < 0.05
    assert on[0] and on[3:] == (1, 0, 0)
    assert not off[0] and off[3:] == (0, 0, 1)
    # the stages are the iterate held before the update that failed the test
    assert np.array_equal(on[1], off[1])
    # just below kappa = 0.1 the rule still accepts
    on = _floor_solve(monkeypatch, chart_b_step, 0.1, stall=0.095)
    assert on[0] and on[3:] == (1, 0, 0)
    assert math.isclose(on[2][-1], 0.095, rel_tol=1e-12)
    assert not _floor_solve(monkeypatch, chart_b_step, 0.0, stall=0.095)[0]


@pytest.mark.parametrize("kappa", [0.1, 0.0])
def test_a_chart_b_solve_that_stalls_above_kappa_fails(monkeypatch, chart_b_step, kappa):
    # just above kappa = 0.1
    out = _floor_solve(monkeypatch, chart_b_step, kappa, stall=0.105)
    assert math.isclose(out[2][-1], 0.105, rel_tol=1e-12)
    assert not out[0] and out[3:] == (0, 0, 1)


@pytest.mark.parametrize("kappa", [0.1, 0.0])
def test_a_chart_b_solve_from_a_far_start_diverges(monkeypatch, chart_b_step, kappa):
    _, _, y, _, Z, _, _ = chart_b_step
    # each stage's fast coordinate 1000 eta too far out
    out = _floor_solve(monkeypatch, chart_b_step, kappa,
                       Z0=Z + np.array([0.0, 1000.0 * y[1]]))
    assert out[2][-1] > out[2][0] > 1e12
    assert not out[0] and out[3:] == (0, 1, 0)


# --- each restated operation against numpy and LAPACK -------------------------------

def _libm_fma():
    name = ctypes.util.find_library("m")
    if name is None:
        pytest.skip("no C math library to compare with")
    fma = ctypes.CDLL(name).fma
    fma.argtypes = (ctypes.c_double,) * 3
    fma.restype = ctypes.c_double
    return fma


def test_fma_matches_the_c_library_fma():
    """Random operands, then the range guard's edges: products near 1e-150 and
    1e150 and beyond, splits above 1e300, subnormal results, signed zeros,
    inf and NaN."""
    fma = _libm_fma()
    rng = np.random.default_rng(31)
    cases = [tuple(v) for v in _rand(rng, 20000, 3).tolist()]
    scales = 10.0 ** rng.uniform(-160, 160, (4000, 2))
    cases += [(a * sa, b * sb, c) for (a, b, c), (sa, sb) in zip(_rand(rng, 4000, 3).tolist(),
                                                                 scales.tolist())]
    cases += [(a * 1e-160, b * 1e-160, c * 1e-320) for a, b, c in _rand(rng, 500, 3).tolist()]
    cases += [(a * 1e305, b * 1e-10, c * 1e295) for a, b, c in _rand(rng, 500, 3).tolist()]
    cases += [(a * 1e200, b * 1e108, -a * b * 1e308) for a, b in rng.uniform(1, 1.7, (500, 2)).tolist()]
    special = [0.0, -0.0, 1.5, -2.5, 1e-310, math.inf, -math.inf, math.nan, 1.7e308]
    cases += [(a, b, c) for a in special for b in special for c in special]
    cases += [(0.1, 10.0, -1.0), (1.0 + 2.0 ** -30, 1.0 - 2.0 ** -30, -1.0)]
    for a, b, c in cases:
        assert _same(integrator._fmak(integrator._split(a), b, c), fma(a, b, c)), (a, b, c)


@pytest.mark.parametrize("dtype", [float, complex])
def test_lu_helpers_match_scipy_bit_for_bit(dtype):
    """dgetrf/dgetrs or zgetrf/zgetrs on random 2x2 systems with signed zeros,
    and on exactly singular ones, where LAPACK divides on into inf and NaN."""
    rng = np.random.default_rng(7)
    singular = [np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([[0.0, 1.0], [0.0, 2.0]]),
                np.array([[0.0, 0.0], [0.0, 3.0]]), np.zeros((2, 2))]
    cases = [_rand(rng, 2, 2, zeros=0.2) for _ in range(5000)] + singular
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        for a in cases:
            b = _rand(rng, 2)
            if dtype is float:
                lu, piv, _ = dgetrf(a.copy())
                swap, u11, nu12, nl, u22 = own = integrator._getrf(*a.ravel().tolist())
                assert swap == (piv[0] == 1)
                assert _same([[u11, -nu12[0]], [-nl[0], u22]], lu)
                assert _same(integrator._getrs(own, *b.tolist()), dgetrs(lu, piv, b.copy())[0])
                continue
            c = _crand(rng, 2, 2, zeros=0.2)
            if rng.random() < 0.1:  # real pivots, where zscal scales by one part
                c.imag[:, 0] = 0.0
            bc = _crand(rng, 2)
            lu, piv, _ = zgetrf(c.copy())
            own = integrator._zgetrf(*[(v.real, v.imag) for v in c.ravel().tolist()])
            assert own[0] == (piv[0] == 1)
            assert _same([complex(own[2][0], own[3][0]), complex(own[4][0], own[5][0])],
                         [lu[0, 1], lu[1, 0]])
            assert _same(complex(*own[6]), complex(*integrator._recip(lu[1, 1].real, lu[1, 1].imag)))
            (x1r, x1i), (x2r, x2i) = integrator._zgetrs(
                own, *[p for v in bc.tolist() for p in (v.real, v.imag)])
            assert _same([complex(x1r, x1i), complex(x2r, x2i)], zgetrs(lu, piv, bc.copy())[0])


def test_lu_helpers_reject_non_finite_input_like_scipy():
    with pytest.raises(ValueError):
        lu_factor(np.array([[1.0, np.nan], [0.0, 1.0]]))
    solver = type("Stub", (), {"nlu": 0})()
    with pytest.raises(ValueError, match="infs or NaNs"):
        integrator._PlanarRadau._factor(solver, 0.1, (1.0, math.nan, 0.0, 1.0))
    lu, lu_c = integrator._PlanarRadau._factor(solver, 0.1, (1.0, 0.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        lu_solve(lu_factor(np.eye(2)), np.array([np.inf, 0.0]))
    with pytest.raises(ValueError, match="infs or NaNs"):
        integrator._getrs(lu, math.inf, 0.0)
    with pytest.raises(ValueError, match="infs or NaNs"):
        integrator._zgetrs(lu_c, 0.0, math.nan, 1.0, 1.0)


def test_lu_factor_warns_on_an_exactly_singular_matrix_like_scipy():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.warns(LinAlgWarning, match="Diagonal number 2 is exactly zero"):
        expect = lu_factor(a.copy(), overwrite_a=True)
    with pytest.warns(RuntimeWarning, match="Diagonal number 2 is exactly zero"):
        swap, u11, nu12, nl, u22 = integrator._getrf(*a.ravel().tolist())
    assert _same([[u11, -nu12[0]], [-nl[0], u22]], expect[0])
    with pytest.warns(RuntimeWarning, match="Diagonal number 1 is exactly zero"):
        integrator._zgetrf((0.0, 0.0), (1.0, 0.0), (0.0, 0.0), (2.0, 1.0))


def test_iteration_matrices_match_numpy():
    """MU_REAL/h I - J and MU_COMPLEX/h I - J as numpy forms them, through their
    LU solves, against scipy's lu_factor/lu_solve."""
    rng = np.random.default_rng(41)
    solver = type("Stub", (), {"nlu": 0})()
    for _ in range(2000):
        J, h = _rand(rng, 2, 2, zeros=0.2), 10.0 ** rng.uniform(-8, 2)
        b = _crand(rng, 2)
        lu, lu_c = integrator._PlanarRadau._factor(solver, h, tuple(J.ravel().tolist()))
        expect = lu_solve(lu_factor(integrator.MU_REAL / h * np.identity(2) - J), b.real)
        assert _same(integrator._getrs(lu, *b.real.tolist()), expect)
        expect = lu_solve(lu_factor(integrator.MU_COMPLEX / h * np.identity(2) - J), b)
        (x1r, x1i), (x2r, x2i) = integrator._zgetrs(lu_c, b[0].real, b[0].imag,
                                                    b[1].real, b[1].imag)
        assert _same([complex(x1r, x1i), complex(x2r, x2i)], expect)


def test_collocation_matches_scipys_solve_collocation_system():
    """The Newton iteration (TI.dot(Z0), F.T.dot(TI_REAL), the complex dot and
    product, both solves, the norm and T.dot(W)) on random affine fields and
    stages, zero stages and stages laid out as the predictor's included,
    against scipy's ``solve_collocation_system``."""
    rng = np.random.default_rng(43)
    for i in range(900):
        # the last third has subnormal field values
        tiny = 1e-320 if i >= 600 else 1.0
        A, bias = (_rand(rng, 2, 2) * tiny).tolist(), (_rand(rng, 2) * tiny).tolist()
        field = linear(A, bias)
        y, h = _rand(rng, 2, zeros=0.0), 10.0 ** rng.uniform(-6, 0)
        Z0 = np.zeros((3, 2)) if i % 5 == 0 else _rand(rng, 3, 2) * 1e-3
        if i % 5 == 1:
            Z0 = np.asfortranarray(Z0)
        scale = 1e-12 + np.abs(y) * 1e-10 * rng.uniform(1, 1e6)
        J = np.array(A)
        lu_r = lu_factor(integrator.MU_REAL / h * np.identity(2) - J)
        lu_c = lu_factor(integrator.MU_COMPLEX / h * np.identity(2) - J)
        solver = integrator._PlanarRadau(field, 0.5, tuple(y.tolist()), 1.0, 1e-6, 1e-9)
        solver.newton_tol = 10.0 ** rng.uniform(-5, -1)
        stock = scipy_radau.solve_collocation_system(
            lambda t, y: np.asarray(field(t, y)), 0.5, y, h, Z0, scale, solver.newton_tol,
            lu_r, lu_c, lu_solve)
        own = solver._collocate(0.5, tuple(y.tolist()), h, Z0, tuple(scale.tolist()),
                                *solver._factor(h, tuple(J.ravel().tolist())))
        assert own[:2] == stock[:2] and own[3] == stock[3]
        assert _same(own[2], stock[2])


def test_predictor_matches_the_interpolant_bit_for_bit():
    rng = np.random.default_rng(5)
    for i in range(1500):
        stock, own = _random_interpolants(rng, tiny=i >= 1000)
        h = rng.uniform(0.1, 2.0) * (stock.t - stock.t_old)
        y = _rand(rng, 2)
        times = stock.t + h * np.array(integrator.C)
        expect = stock(times).T - y
        guess = own.guess(float(stock.t), float(h), tuple(y.tolist()))
        assert _same(guess, expect) and guess.flags.f_contiguous == expect.flags.f_contiguous


def _random_interpolants(rng, tiny=False):
    """The same random step as scipy's and as phoscil's interpolant."""
    t_old, t = sorted(rng.uniform(-10.0, 10.0, 2))
    y_old, Q = _rand(rng, 2), _rand(rng, 2, 3)
    if tiny:  # coefficients whose products underflow, to zero too
        y_old, Q = y_old * 0.0, rng.choice([5e-324, -5e-324, 1e-323, -1e-323, 0.0, -0.0], (2, 3))
    return (scipy_radau.RadauDenseOutput(t_old, t, y_old, Q),
            integrator._RadauDense(t_old, t, tuple(y_old.tolist()), Q))


def test_interpolant_matches_scipys_on_scalar_and_array_times():
    rng = np.random.default_rng(17)
    for i in range(1500):
        stock, own = _random_interpolants(rng, tiny=i >= 1000)
        times = rng.uniform(stock.t_old, stock.t, rng.integers(1, 9))
        assert _same(own(times), stock(times)) and own(times).shape == (2, times.size)
        for t in (times[0], float(times[0]), np.asarray(times[0]), stock.t_old, stock.t):
            assert _same(own(t), stock(t)) and own(t).shape == (2,)


def test_tableau_constants_match_scipys_bitwise():
    for name in ("C", "E", "T", "TI", "P"):
        assert _same(getattr(integrator, name), getattr(scipy_radau, name)), name
    assert _same(integrator.TI[0], scipy_radau.TI_REAL)
    assert _same(np.array(integrator.TI[1]) + 1j * np.array(integrator.TI[2]),
                 scipy_radau.TI_COMPLEX)
    for name in ("MU_REAL", "MU_COMPLEX", "NEWTON_MAXITER", "MIN_FACTOR", "MAX_FACTOR"):
        assert getattr(integrator, name) == getattr(scipy_radau, name), name


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_initial_step_matches_scipys(dp, es):
    rng = np.random.default_rng(3)
    stiff = linear([[-1e6, 0.0], [3.0, -1e6]], (1.0, -2.0))
    for field in (decay, rotation, linear([[0.0, 0.0], [0.0, 0.0]]), stiff):
        for _ in range(50):
            y0 = rng.standard_normal(2) * 10.0 ** rng.uniform(-14, 3)
            t0 = rng.uniform(-5.0, 5.0)
            t_bound = t0 + 10.0 ** rng.uniform(-9, 4)
            rtol, atol = 10.0 ** rng.uniform(-13, -3), 10.0 ** rng.uniform(-14, -3)
            f0 = np.asarray(field(t0, y0), dtype=float)
            own = integrator._select_initial_step(field, t0, tuple(y0.tolist()), t_bound,
                                                  tuple(f0.tolist()), rtol, atol)

            def fun(t, y):
                return np.asarray(field(t, y), dtype=float)
            stock = select_initial_step(fun, t0, y0, t_bound, np.inf, f0, 1, 3, rtol, atol)
            assert own == stock
    # the model field from simulate's starts; at s = 1e300 the norm of f0
    # overflows to inf, so h0 = 0 and float64 gives the step 0 as well
    field = make_field(split_dimless(dp, es))
    steps = []
    for y0 in ((1e300, 0.5), (1e-300, 1e-300), (0.5, 0.5)):
        f0 = tuple(field(0.0, np.array(y0)))
        own = integrator._select_initial_step(field, 0.0, y0, 1.0, f0, 1e-10, 1e-12)
        with np.errstate(invalid="ignore"):  # scipy's d2 = 0/0
            stock = select_initial_step(lambda t, y: np.asarray(field(t, y), dtype=float), 0.0,
                                        np.array(y0), 1.0, np.inf, np.array(f0), 1, 3,
                                        1e-10, 1e-12)
        assert own == stock
        steps.append(own)
    assert steps[0] == 0.0


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
    # a zero h_abs_old: float64 divides to inf (or to nan with a zero
    # error_norm_old), and min(1, .) gives the multiplier 1 either way
    for error_norm_old in (0.3, 0.0):
        with np.errstate(divide="ignore", invalid="ignore"):
            stock = scipy_radau.predict_factor(1.0, np.float64(0.0), 0.5, error_norm_old)
        assert integrator._predict_factor(1.0, 0.0, 0.5, error_norm_old) == stock == 0.5 ** -0.25


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


@pytest.mark.parametrize("x0", [(), ((1.0, 2.0),), (math.nan, 1.0), (10 ** 400, 1.0), (1.0,),
                                (1.0, 2.0, 3.0)],
                         ids=["empty", "2d", "nan", "int", "1-entry", "3-entry"])
def test_a_bad_initial_state_is_a_domain_error(x0):
    with pytest.raises(DomainError):
        integrate(rotation, x0, (0.0, 1.0))


def test_event_polish_counts_its_brackets_and_calls():
    events = [EventSpec(func=lambda t, y: y[1], direction="rising"),
              EventSpec(func=lambda t, y: y[1], direction="falling")]
    traj = integrate(rotation, (1.0, 0.0), (0.0, 6.0 * math.pi + 1.0), events=events)
    stats = traj.stats
    assert stats.event_polishes == len(traj.events) == 6
    assert stats.polish_evals >= 2 * stats.event_polishes
    assert integrate(rotation, (1.0, 0.0), (0.0, 7.0)).stats.event_polishes == 0


def test_rms_and_finite_helpers_match_numpy():
    """The RMS norm against scipy's ``norm`` at the step's lengths, signed zeros
    and magnitudes past the range guard included; non-finite right-hand sides
    fail the solves' finite checks as ``np.isfinite`` says."""
    rng = np.random.default_rng(11)
    for n in (2, 6):
        for _ in range(3000):
            x = _rand(rng, n, zeros=0.2) * 10.0 ** rng.choice([-160, -3, 0, 3, 160])
            with np.errstate(over="ignore"):  # numpy's x.x overflows to inf as the chain does
                assert _same(integrator._rms(*x.tolist()), scipy_norm(x))
    lu, lu_c = integrator._PlanarRadau._factor(type("Stub", (), {"nlu": 0})(), 0.1,
                                               (1.0, 0.0, 0.0, 1.0))
    for b in [(1.0, -2.0), (math.inf, 0.0), (0.0, math.nan), (1e308, 1e308), (-math.inf, 1.0)]:
        finite = bool(np.isfinite(b).all())
        for solve, args in ((integrator._getrs, (lu, *b)), (integrator._zgetrs, (lu_c, *b, *b))):
            if finite:
                solve(*args)
            else:
                with pytest.raises(ValueError, match="infs or NaNs"):
                    solve(*args)


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
    traj = integrate(decay, (1.0, 1.0), (0.0, 1.0))
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
    write_csv(path, ["t", *names], ",".join(["%s"] * (1 + len(names))), rows,
              provenance=["probe"])


@pytest.mark.parametrize("transform", [None, lambda y: (math.hypot(*y), float(np.arctan2(y[1], y[0])))])
def test_export_bytes_match_the_per_row_writer(tmp_path, transform):
    traj = integrate(rotation, (1.0, 0.0), (0.0, 7.0))
    export_trajectory(traj, tmp_path / "columns.csv", names=("a", "b"), transform=transform,
                      provenance=["probe"])
    _per_row_export_csv(traj, tmp_path / "rows.csv", ("a", "b"), transform)
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_export_floats_roundtrip_exactly(tmp_path):
    traj = integrate(decay, (1.0, 1.0), (0.0, 1.0))
    csv = tmp_path / "run.csv"
    export_trajectory(traj, csv)
    rows = [line for line in csv.read_text().splitlines()][1:]
    values = np.array([[float(v) for v in row.split(",")] for row in rows])
    np.testing.assert_array_equal(values[:, 0], traj.t)
    np.testing.assert_array_equal(values[:, 1:], traj.states)

