"""Shared fixtures: the reference parameter set and derived objects."""
import os
import sys

import hypothesis
import pytest

from phoscil.params import PhysicalParams, UREASE_VESICLE, derive_dimensionless, derive_eps_split

hypothesis.settings.register_profile(
    "phoscil", deadline=None, max_examples=60,
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)
hypothesis.settings.load_profile("phoscil")


@pytest.fixture(autouse=True)
def no_child_outlives_a_test():
    """Fail a test after which a ``multiprocessing`` child is still alive, and end it."""
    yield
    mp = sys.modules.get("multiprocessing")  # not imported: no child can exist
    children = mp.active_children() if mp is not None else []
    for child in children:
        child.terminate()
        child.join()
    if children:
        pytest.fail(f"child processes outlived the test: {children}", pytrace=False)


@pytest.fixture
def scipy_newton(monkeypatch):
    """Newton solves without the rounding-floor stop (kappa = 0): scipy's Radau step."""
    from phoscil import integrator
    monkeypatch.setattr(integrator, "NEWTON_FLOOR", 0.0)


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPUs ``integrator._fork_map`` sees: ``cpus({0, 1})`` runs its
    pool on any machine, ``cpus({0})`` its serial loop."""
    def pin(ids):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(ids), raising=False)
    return pin


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
def chart_b_edge_params():
    """Two admissible sets whose chart-B folds a fixed-step difference misreads.

    ``coarse`` has eta_B = C = 0.024, so a stencil of step 1e-3 misses
    d2(g0)/deta2 in the fourth digit; ``narrow`` has eta_B = C = 3.8e-4,
    so the same stencil steps to eta < 0, outside the layer problem.
    """
    return {
        "coarse": PhysicalParams(
            S_ext=1.3099073320748745e-05, H_ext=0.0031891746259544163,
            v_max=0.0021002461840514946, k_M=0.0003143383416793114,
            k_E1=4.7941360305785184e-06, k_E2=1.256013348075435e-09,
            k2=173716210305.364, k2r=342.8503887623763, k_H=0.00021363915745302195,
            k_S=1.8176821474354743e-05, k=0.030845261137761426, k_plus=0.0007536961681638977),
        "narrow": PhysicalParams(
            S_ext=3.9898792922662896e-05, H_ext=0.0030263745866544677,
            v_max=0.000911225427599082, k_M=6.457401733238539e-05,
            k_E1=5.830858801602233e-08, k_E2=2.2870196462931896e-11,
            k2=452705276656.7606, k2r=2.3902765142611444, k_H=0.00024671583150264766,
            k_S=0.004419125875456378, k=0.00033405616577254603, k_plus=2.655764429523276e-05),
    }


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
def cycle_1e4(dp, es):
    """The converged eps = 1e-4 limit-cycle report (reused, about 1.5 s to build)."""
    from phoscil.cycle import find_limit_cycle
    return find_limit_cycle(dp, es.at_eps(1e-4))


@pytest.fixture(scope="session")
def reference_period(phys):
    """Period of the full reference kinetics in seconds (0.7-0.8 s to measure).

    Measured by the section-return loop of ``find_limit_cycle`` on the
    reference field: from (0.9, 0.5), returns on the substrate maxima
    (ds/dt = 0 falling) and out to the minima (rising), half-legs of at
    most 2e4 s, and the return test on unscaled (s, h); it needs 1
    transient period.  Times are single runs on a 2-core VM.
    """
    from phoscil.cycle import _section_returns, segment_times
    from phoscil.integrator import EventSpec
    from phoscil.model import make_field_reference, rhs_reference

    def s_rate(t, y):
        return rhs_reference((y[0], y[1]), phys)[0]

    terminus, _, recorded, _ = _section_returns(
        make_field_reference(phys), (0.9, 0.5),
        (EventSpec(func=s_rate, direction="rising"), EventSpec(func=s_rate, direction="falling")),
        2.0e4, 1.0)
    assert terminus == "limit_cycle", f"reference run ended in {terminus}"
    tau_back, tau_out = segment_times(recorded)
    return tau_back + tau_out


@pytest.fixture(scope="session")
def fold_scaling_b(dp, es):
    """The default chart-B fold-passage scaling, DEFAULT_EPS_B (1.1-1.3 s to build).

    Acceptance 5 and the counter pin in ``test_gspt`` share it.  Times are
    single runs on a 2-core VM.
    """
    from phoscil.gspt import DEFAULT_EPS_B, fold_passage_offset
    return fold_passage_offset("B", DEFAULT_EPS_B, es, dp)
