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
    """The converged eps = 1e-3 limit-cycle report (reused, 1.3 s to build)."""
    from phoscil.cycle import find_limit_cycle
    return find_limit_cycle(dp, es.at_eps(1e-3))


@pytest.fixture(scope="session")
def reference_period(phys):
    """Period of the full reference kinetics in seconds (5.4 s to measure).

    Measured as the spacing of the last two substrate maxima of a 2e4 s
    run from (0.9, 0.5).  All 17 spacings lie within 7.8e-12 relative of
    the last, so transients are long gone.  Times are single runs on a
    2-core VM.
    """
    import numpy as np
    from phoscil.integrator import EventSpec, IntegratorConfig, integrate
    from phoscil.model import make_field_reference, rhs_reference

    field = make_field_reference(phys)
    s_rate = EventSpec(func=lambda t, y: rhs_reference((y[0], y[1]), phys)[0],
                       direction="falling")
    traj = integrate(field, (0.9, 0.5), (0.0, 2.0e4), IntegratorConfig(),
                     events=[s_rate], keep_dense=False)
    hits = np.array([h.t for h in traj.events])
    assert hits.size >= 4, "reference run produced too few substrate maxima"
    gaps = np.diff(hits)
    assert abs(gaps[-1] - gaps[-2]) < 1e-6 * gaps[-1], "reference run not converged"
    return float(gaps[-1])
