"""Rate laws, the reduced vector field, chart forms and the reference kinetics."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from phoscil.errors import DomainError
from phoscil.model import (
    from_chart_A,
    from_chart_B,
    from_log,
    h_plus_eps,
    make_field,
    make_field_chart_A,
    make_field_chart_B,
    make_field_reference,
    q_func,
    q_tilde_eps,
    rate_r,
    rate_r_hat,
    rate_r_prime,
    rhs,
    rhs_chart_A,
    rhs_chart_B,
    rhs_jacobian,
    rhs_reference,
    to_chart_A,
    to_chart_B,
    to_log,
)
from phoscil.params import UREASE_VESICLE, derive_dimensionless, derive_eps_split, split_dimless

positive_h = st.floats(min_value=1e-6, max_value=1.2)
nonneg_s = st.floats(min_value=0.0, max_value=5.0)

# Dense-output period of the full reference kinetics, measured once with
# rtol 1e-10 from (s, h) = (0.9, 0.5) over 2e4 s; successive substrate
# maxima agree to nine decimals.  Regression anchor in seconds.
REFERENCE_PERIOD_S = 1055.4768394012717


# --- enzymatic rate -----------------------------------------------------------

def test_rate_peak_location_and_height(dp):
    # r is maximal exactly at h = eps1 with value 1/(2*beta + 1)
    peak = rate_r(dp.eps1, dp)
    assert math.isclose(peak, 1.0 / (2.0 * dp.beta + 1.0), rel_tol=1e-15)
    assert math.isclose(peak, 0.96153846153846145, rel_tol=1e-15)
    for h in (dp.eps1 * 0.5, dp.eps1 * 0.9, dp.eps1 * 1.1, dp.eps1 * 2.0):
        assert rate_r(h, dp) < peak


@given(h=positive_h)
def test_rate_bounded_by_peak(dp, h):
    assert 0.0 < rate_r(h, dp) <= 1.0 / (2.0 * dp.beta + 1.0) + 1e-15


def test_rate_vanishes_toward_extremes(dp):
    assert rate_r(1e-12, dp) < 1e-6
    assert rate_r(1e9, dp) < 1e-6


@given(h=st.floats(min_value=1e-4, max_value=1.0))
def test_rate_derivative_matches_finite_differences(dp, h):
    step = 1e-6 * h
    fd = (rate_r(h + step, dp) - rate_r(h - step, dp)) / (2.0 * step)
    assert math.isclose(rate_r_prime(h, dp), fd, rel_tol=1e-6, abs_tol=1e-12)


def test_rate_requires_positive_h(dp):
    with pytest.raises(DomainError):
        rate_r(0.0, dp)
    with pytest.raises(DomainError):
        rate_r_prime(-0.5, dp)


def test_chart_b_rate_peaks_at_eta_c(dp, es):
    peak = rate_r_hat(es.C, es, dp)
    assert math.isclose(peak, 1.0 / (2.0 * dp.beta + 1.0), rel_tol=1e-15)
    # eps-free: same value whatever eps the split is evaluated at
    assert rate_r_hat(es.C, es.at_eps(1e-7), dp) == peak


# --- proton consumption term q -------------------------------------------------

def _quadratic_residual(s, h, dp):
    """|q^2 + v q - w| scaled by max(1, q^2), from independently built v, w."""
    v = dp.alpha * dp.K / dp.eps2 * h * h - dp.K_h * (1.0 - h)
    w = dp.K / dp.eps2 * rate_r(h, dp) * h * h * s
    q = q_func(s, h, dp)
    return abs(q * q + v * q - w) / max(1.0, q * q)


@given(s=nonneg_s, h=positive_h)
def test_q_solves_its_quadratic(dp, s, h):
    assert _quadratic_residual(s, h, dp) <= 1e-10


def test_q_fixed_point_balance(dp):
    # at the equilibrium the h-equation balances: q = K_h*(1 - h)
    h_star = 1.0 - dp.K_s / (dp.alpha * dp.K_h)
    s_star = dp.K_s / rate_r(h_star, dp)
    q = q_func(s_star, h_star, dp)
    assert math.isclose(q, dp.K_h * (1.0 - h_star), rel_tol=1e-12)
    assert math.isclose(q, 0.13272349272349274, rel_tol=1e-13)
    # the two-figure display arithmetic (0.15 * 0.9094) puts the same
    # balance at 0.1364; the exact value sits within that rounding slack
    assert math.isclose(q, 0.1364, rel_tol=0.03)


def test_q_zero_substrate_is_zero(dp):
    assert q_func(0.0, 0.3, dp) == 0.0


def test_q_rejects_out_of_domain(dp):
    with pytest.raises(DomainError):
        q_func(-1e-9, 0.3, dp)
    with pytest.raises(DomainError):
        q_func(0.5, 0.0, dp)


def test_q_accepts_arrays(dp):
    s = np.array([0.0, 0.1, 1.0])
    h = np.array([0.2, 0.5, 0.9])
    out = q_func(s, h, dp)
    assert out.shape == (3,)
    assert out[0] == 0.0 and np.all(out[1:] > 0.0)


# --- reduced vector field ------------------------------------------------------

def test_rhs_vanishes_at_equilibrium(dp):
    h_star = 1.0 - dp.K_s / (dp.alpha * dp.K_h)
    s_star = dp.K_s / rate_r(h_star, dp)
    f, g = rhs((s_star, h_star), dp)
    assert abs(f) <= 1e-9 and abs(g) <= 1e-9


@pytest.mark.parametrize("state", [
    (0.05, 0.1), (0.5, 0.3), (1.0, 0.9), (0.076, 0.0906), (2.0, 0.05),
])
def test_jacobian_matches_finite_differences(dp, state):
    s, h = state
    J = rhs_jacobian(state, dp)
    step_s = 1e-7 * max(1.0, abs(s))
    step_h = 1e-7 * max(1.0, abs(h))
    col_s = (np.array(rhs((s + step_s, h), dp)) - np.array(rhs((s - step_s, h), dp))) / (2 * step_s)
    col_h = (np.array(rhs((s, h + step_h), dp)) - np.array(rhs((s, h - step_h), dp))) / (2 * step_h)
    fd = np.column_stack([col_s, col_h])
    np.testing.assert_allclose(J, fd, rtol=1e-5, atol=1e-8)


def test_field_object_agrees_with_rhs(dp):
    field = make_field(dp)
    for s, h in [(0.05, 0.1), (0.7, 0.6), (1.5, 0.02)]:
        np.testing.assert_allclose(field(0.0, np.array([s, h])), rhs((s, h), dp),
                                   rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(field.jac(0.0, np.array([s, h])),
                                   rhs_jacobian((s, h), dp), rtol=1e-12, atol=0.0)
    assert field.names == ("s", "h")


def test_field_object_stops_at_the_rational_pole(dp):
    # h = -2 beta eps1 makes beta eps1 + h + beta h^2/eps1 = beta eps1 (4 beta^2 - 1) < 0
    # (beta = 0.02): stage probes may cross h = 0, but not the pole of r(h)
    field, y = make_field(dp), np.array([0.5, -2.0 * dp.beta * dp.eps1])
    with pytest.raises(DomainError, match="^field evaluated beyond its rational pole"):
        field(0.0, y)
    with pytest.raises(DomainError, match="^Jacobian evaluated beyond its rational pole"):
        field.jac(0.0, y)


def test_supply_dominates_at_zero_substrate(dp):
    f, _ = rhs((0.0, 0.4), dp)
    assert f == dp.K_s


# --- chart forms ---------------------------------------------------------------

def test_chart_transforms_roundtrip(dp, es):
    x = (0.37, 0.21)
    sigma, h = to_chart_A(x, es)
    assert sigma == es.eps * 0.37 and h == 0.21
    s, h = from_chart_A((sigma, h), es)
    assert math.isclose(s, 0.37, rel_tol=1e-15) and h == 0.21
    s, eta = to_chart_B(x, es)
    assert s == 0.37 and eta == 0.21 / es.eps
    s, h = from_chart_B((s, eta), es)
    assert s == 0.37 and math.isclose(h, 0.21, rel_tol=1e-15)


@pytest.mark.parametrize("state", [(0.05, 0.2), (0.5, 0.7), (1.2, 0.05)])
def test_chart_fields_are_pushforwards(dp, es, state):
    """Both chart forms reproduce diag-rescaled copies of the split field."""
    s, h = state
    dpe = split_dimless(dp, es)
    f, g = rhs((s, h), dpe)
    fa = rhs_chart_A((es.eps * s, h), es, dp)
    np.testing.assert_allclose(fa, (es.eps * f, g), rtol=1e-12)
    fb = rhs_chart_B((s, h / es.eps), es, dp)
    np.testing.assert_allclose(fb, (es.eps * f, g), rtol=1e-12)


@pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-7])
def test_chart_field_objects_match_evaluators_and_jacobian(dp, es, eps):
    """Integrator-facing chart fields against rhs_chart_A/B and their own
    central differences, at chart points off the critical manifolds."""
    es = es.at_eps(eps)
    for make, evaluate, points in (
        (make_field_chart_A, rhs_chart_A, [(1e-4, 0.3), (3e-4, 0.6), (5e-4, 0.8)]),
        (make_field_chart_B, rhs_chart_B, [(0.01, 0.3), (0.05, 1.2), (0.5, 2.0)]),
    ):
        field = make(es, dp)
        for point in points:
            y = np.array(point)
            np.testing.assert_allclose(field(0.0, y), evaluate(point, es, dp),
                                       rtol=1e-12, atol=0.0)
            J = field.jac(0.0, y)
            fd = np.empty((2, 2))
            for j in range(2):
                step = np.zeros(2)
                step[j] = 1e-6 * y[j]
                fd[:, j] = np.subtract(field(0.0, y + step), field(0.0, y - step)) / (2.0 * step[j])
            # entrywise, so the eps-scaled off-diagonal entries are checked too
            np.testing.assert_allclose(J, fd, rtol=1e-5, atol=1e-12 * np.max(np.abs(J)))


def test_branch_seam_value_frozen(dp, es):
    assert math.isclose(h_plus_eps(es, dp), 0.0052399697974479399, rel_tol=1e-13)


def test_branch_forms_agree_at_the_seam(dp, es):
    """The three evaluation branches coincide where the switch happens."""
    hp = h_plus_eps(es, dp)
    for sigma in (1e-5, 1e-4, 5e-4):
        vals = [q_tilde_eps(sigma, hp, es, dp, branch=b) for b in ("low", "seam", "high")]
        scale = max(abs(v) for v in vals)
        for v in vals[1:]:
            assert abs(v - vals[0]) <= 1e-8 * scale
        picked = q_tilde_eps(sigma, hp, es, dp)
        assert abs(picked - vals[1]) <= 1e-8 * scale


def test_branch_selector_rejects_unknown(dp, es):
    with pytest.raises(DomainError):
        q_tilde_eps(1e-4, 0.3, es, dp, branch="sideways")


def test_chart_b_field_extends_to_the_axis(dp, es):
    # eta = 0 is the s-axis branch of the critical manifold: the enzymatic
    # rate is off (f reduces to the supply) and proton consumption exactly
    # balances the inflow (g extends continuously to 0)
    f, g = rhs_chart_B((0.4, 0.0), es, dp)
    assert math.isclose(f, es.eps * dp.K_s, rel_tol=1e-15)
    assert g == 0.0
    # just off the axis the balance tips with the eps correction only
    _, g_near = rhs_chart_B((0.4, 1e-9), es, dp)
    assert abs(g_near) < 1e-6


# --- log coordinates ------------------------------------------------------------

def test_log_coordinates_roundtrip(phys):
    pS, pH = to_log((0.076, 0.0906), phys)
    assert pS > 0 and pH > 0
    s, h = from_log((pS, pH), phys)
    assert math.isclose(s, 0.076, rel_tol=1e-12)
    assert math.isclose(h, 0.0906, rel_tol=1e-12)


def test_log_coordinates_need_positive_state(phys):
    with pytest.raises(DomainError):
        to_log((0.0, 0.5), phys)


# --- coordinate checks ----------------------------------------------------------

def test_states_reject_negative_coordinates(es):
    with pytest.raises(DomainError, match="^s must be finite and non-negative"):
        from_chart_B((-0.1, 0.5 / es.eps), es)
    with pytest.raises(DomainError, match="^h must be finite and non-negative"):
        to_chart_A((0.1 / es.eps, -0.5), es)
    with pytest.raises(DomainError, match="^s must be finite and non-negative"):
        to_chart_B((-1.0, 0.5 * es.eps), es)
    with pytest.raises(DomainError, match="^eta must be finite and non-negative"):
        to_chart_B((1.0, -0.5 * es.eps), es)


# --- reference kinetics -----------------------------------------------------------

def test_reference_consumes_substrate_without_supply(phys):
    ds, _ = rhs_reference((1.0, 0.5), phys)
    assert ds < 0.0


def test_reference_balances_toward_exterior(phys):
    # at s = 0 only the inflow term remains
    ds, _ = rhs_reference((0.0, 0.5), phys)
    assert ds == phys.k_S
    # at h = 1 acid inflow is off, consumption drives h down
    _, dh = rhs_reference((0.5, 1.0), phys)
    assert dh < 0.0


def test_reference_catalysis_peaks_at_protonation_window(phys):
    """Substrate drain is strongest where the enzyme window 1/(1+x/k1+k2/x) peaks."""
    h_peak = math.sqrt(phys.k_E1 * phys.k_E2) / phys.H_ext
    h_grid = np.linspace(0.2, 5.0, 241) * h_peak
    drains = [-rhs_reference((0.5, float(h)), phys)[0] for h in h_grid]
    assert np.argmax(drains) == int(np.argmin(np.abs(h_grid - h_peak)))


def test_reference_domain_guards(phys):
    with pytest.raises(DomainError):
        rhs_reference((1.5, 0.5), phys)
    with pytest.raises(DomainError):
        rhs_reference((-0.1, 0.5), phys)
    with pytest.raises(DomainError):
        rhs_reference((0.5, 0.0), phys)
    with pytest.raises(DomainError):
        rhs_reference((0.5, 1.1), phys)


def test_reference_period_regression(reference_period):
    assert math.isclose(reference_period, REFERENCE_PERIOD_S, rel_tol=2e-4)


def test_reference_field_object_wraps_kinetics(phys):
    field = make_field_reference(phys)
    y = np.array([0.5, 0.5])
    np.testing.assert_allclose(field(0.0, y), rhs_reference((0.5, 0.5), phys),
                               rtol=1e-15)


def test_reference_jacobian_matches_sympy(phys):
    """The reference field's analytic Jacobian against sympy's derivatives of
    rhs_reference, evaluated at 30 digits, over the state domain."""
    sp = pytest.importorskip("sympy")
    s, h = sp.symbols("s h", positive=True)
    c = {name: sp.Float(getattr(phys, name), 30) for name in
         ("S_ext", "H_ext", "v_max", "k_M", "k_E1", "k_E2", "k_prime", "k_H", "k_S", "k")}
    x = h * c["H_ext"]
    k_cat = c["v_max"] / (c["k_M"] + s * c["S_ext"]) / (1 + x / c["k_E1"] + c["k_E2"] / x)
    b = 1 + c["k_prime"] * c["H_ext"] * h + (1 - 1 / h) * c["k_H"] / c["k"]
    p = (sp.sqrt(b * b + 8 * k_cat * c["k_prime"] * c["S_ext"] * s / c["k"]) - b) / 2
    rhs = sp.Matrix([-k_cat * s + c["k_S"] * (1 - s), -c["k"] * p * h + c["k_H"] * (1 - h)])
    jac = sp.lambdify((s, h), rhs.jacobian([s, h]), modules="mpmath")
    field = make_field_reference(phys)
    for point in [(0.9, 0.5), (0.5, 0.02), (0.05, 0.9), (1.0, 1.0), (0.3, 1e-4), (0.0, 0.3)]:
        expect = np.array(jac(*point).tolist(), dtype=float)
        np.testing.assert_allclose(field.jac(0.0, point), expect, rtol=1e-9,
                                   atol=1e-12 * np.max(np.abs(expect)))
    with pytest.raises(DomainError):
        field.jac(0.0, (0.5, 0.0))
