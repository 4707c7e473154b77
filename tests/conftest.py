"""Shared fixtures: the reference parameter set and derived objects."""
import hypothesis
import pytest

from phoscil.params import UREASE_VESICLE, derive_dimensionless, derive_eps_split

hypothesis.settings.register_profile(
    "phoscil", deadline=None, max_examples=60,
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)
hypothesis.settings.load_profile("phoscil")


@pytest.fixture(scope="session")
def phys():
    return UREASE_VESICLE


@pytest.fixture(scope="session")
def dp(phys):
    return derive_dimensionless(phys)


@pytest.fixture(scope="session")
def es(dp):
    """Eps split calibrated so eps = 1e-3 reproduces the physical eps1, eps2."""
    return derive_eps_split(dp)


@pytest.fixture(scope="session")
def cycle_1e3(dp, es):
    """The converged eps = 1e-3 limit-cycle report (reused, 0.6-0.7 s to build).

    ``find_limit_cycle`` relaxes on the s-maximum section until two
    returns agree (2 transient periods), then records one period.  Times
    are single runs on a 2-core VM.
    """
    from phoscil.cycle import find_limit_cycle
    return find_limit_cycle(dp, es.at_eps(1e-3))


@pytest.fixture(scope="session")
def reference_period(phys):
    """Period of the full reference kinetics in seconds (0.7-0.8 s to measure).

    Measured by the section-return loop of ``find_limit_cycle`` on the
    reference field: from (0.9, 0.5), returns on the substrate maxima
    (ds/dt = 0 falling) and out to the minima (rising), half-legs of at
    most 2e4 s, and the return test on unscaled (s, h); it needs 1
    transient period.  Times are single runs on a 2-core VM.
    """
    from phoscil.cycle import _section_returns
    from phoscil.integrator import EventSpec
    from phoscil.model import make_field_reference, rhs_reference

    def s_rate(t, y):
        return rhs_reference((y[0], y[1]), phys)[0]

    terminus, _, recorded = _section_returns(
        make_field_reference(phys), (0.9, 0.5),
        (EventSpec(func=s_rate, direction="rising"), EventSpec(func=s_rate, direction="falling")),
        2.0e4, 1.0)
    assert terminus == "limit_cycle", f"reference run ended in {terminus}"
    tau_out, tau_back, _, _ = recorded
    return tau_back + tau_out


@pytest.fixture(scope="session")
def fold_scaling_b(dp, es):
    """The default chart-B fold-passage scaling, DEFAULT_EPS_B (5.7-6.4 s to build).

    Acceptance 5 and the counter pin in ``test_gspt`` share it.  Times are
    single runs on a 2-core VM.
    """
    from phoscil.gspt import DEFAULT_EPS_B, fold_passage_offset
    return fold_passage_offset("B", DEFAULT_EPS_B, es, dp)
