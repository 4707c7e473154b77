"""Solver correctness against closed-form problems, plus event machinery."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from phoscil.errors import BudgetError, DomainError
from phoscil.integrator import (
    EventSpec,
    IntegratorConfig,
    Trajectory,
    export_trajectory,
    integrate,
    integrate_until_event,
)
from phoscil.model import make_field
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
    {"atol": -1.0}, {"max_steps": 0},
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


# --- stiff model runs ----------------------------------------------------------------

def test_stiff_relaxation_run_completes_and_stays_positive(dp, es):
    dpe = split_dimless(dp, es.at_eps(1e-4))
    field = make_field(dpe)
    traj = integrate(field, (0.5, 0.9), (0.0, 400.0))
    assert traj.t[-1] == 400.0
    assert np.all(traj.states >= 0.0)
    # the fast variable must have jumped at least once in this window
    assert traj.states[:, 1].max() > 0.5 and traj.states[:, 1].min() < 0.01


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


def test_export_floats_roundtrip_exactly(tmp_path):
    traj = integrate(decay, (1.0,), (0.0, 1.0))
    csv = tmp_path / "run.csv"
    export_trajectory(traj, csv)
    rows = [line for line in csv.read_text().splitlines()][1:]
    values = np.array([[float(v) for v in row.split(",")] for row in rows])
    np.testing.assert_array_equal(values[:, 0], traj.t)
    np.testing.assert_array_equal(values[:, 1], traj.states[:, 0])
