"""One domain rule for every public evaluator of coordinates.

Each evaluator checks its arguments once, at entry: an entry that is NaN,
infinite or outside the bound the evaluator states raises DomainError,
naming the function (or, for the chart fields and layer problems, the
chart), and numpy warns about nothing on the way (the suite turns warnings
into errors).
"""
import math
import types

import numpy as np
import pytest

from phoscil import gspt, model
from phoscil.errors import DomainError

#: name -> (call on (args, m), valid args, argument names, one out-of-range
#: value per argument (None where finiteness is the only bound), the name its errors give)
DOMAINS = {
    "rate_r": (lambda a, m: model.rate_r(*a, m.dp), (0.5,), ("h",), (0.0,), "rate_r"),
    "rate_r_prime": (lambda a, m: model.rate_r_prime(*a, m.dp), (0.5,), ("h",), (-0.5,),
                     "rate_r_prime"),
    "rate_r_hat": (lambda a, m: model.rate_r_hat(*a, m.es, m.dp), (0.01,), ("eta",), (0.0,),
                   "rate_r_hat"),
    "q_func": (lambda a, m: model.q_func(*a, m.dp), (0.5, 0.5), ("s", "h"), (-1e-9, 0.0),
               "q_func"),
    "rhs": (lambda a, m: model.rhs(a, m.dp), (0.5, 0.5), ("s", "h"), (-1.0, 0.0), "rhs"),
    "rhs_jacobian": (lambda a, m: model.rhs_jacobian(a, m.dp), (0.5, 0.5), ("s", "h"),
                     (-1.0, -0.5), "rhs_jacobian"),
    "q_tilde_eps": (lambda a, m: model.q_tilde_eps(*a, m.es, m.dp), (1e-4, 0.5),
                    ("sigma", "h"), (-1e-3, 0.0), "q_tilde_eps"),
    "rhs_chart_A": (lambda a, m: model.rhs_chart_A(a, m.es, m.dp), (1e-4, 0.5),
                    ("sigma", "h"), (-1e-3, 0.0), "chart A"),
    "rhs_chart_B": (lambda a, m: model.rhs_chart_B(a, m.es, m.dp), (0.5, 0.01),
                    ("s", "eta"), (-1.0, -1e-3), "chart B"),
    "rhs_reference": (lambda a, m: model.rhs_reference(a, m.phys), (0.5, 0.5),
                      ("s", "h"), (1.5, 0.0), "rhs_reference"),
    "nullclines": (lambda a, m: gspt.nullclines(m.dp, *a), (0.5,), ("h",), (0.0,),
                   "nullclines"),
    "manifold_A": (lambda a, m: gspt.manifold_A(*a, m.es, m.dp), (0.6,), ("h",), (1.0,),
                   "manifold_A"),
    "manifold_B": (lambda a, m: gspt.manifold_B(*a, m.es, m.dp), (0.01,), ("eta",), (0.0,),
                   "manifold_B"),
    "manifold_A_stability": (lambda a, m: gspt.manifold_A_stability(*a, m.es, m.dp), (0.6,),
                             ("h",), (0.0,), "manifold_A_stability"),
    "manifold_B_stability": (lambda a, m: gspt.manifold_B_stability(*a, m.es, m.dp), (0.01,),
                             ("eta",), (-1.0,), "manifold_B_stability"),
    "layer_A": (lambda a, m: gspt.layer_A(*a, m.es, m.dp), (1e-4, 0.5), ("sigma", "h"),
                (-1e-3, 0.0), "chart A"),
    "layer_B": (lambda a, m: gspt.layer_B(*a, m.es, m.dp), (0.5, 0.01), ("s", "eta"),
                (-1.0, -1e-3), "chart B"),
    "slow_flow_A": (lambda a, m: gspt.slow_flow_A(*a, m.es, m.dp), (0.6,), ("h",), (None,),
                    "slow_flow_A"),
    "slow_flow_B": (lambda a, m: gspt.slow_flow_B(*a, m.es, m.dp), (0.01,), ("eta",), (None,),
                    "slow_flow_B"),
}

#: public functions of coordinates outside the table: the coordinate maps check each
#: coordinate they return by name (test_model.py matches those messages)
COORDINATE_MAPS = ("to_chart_A", "from_chart_A", "to_chart_B", "from_chart_B", "to_log",
                   "from_log")


def _cases():
    for name, (_, valid, args, out_of_range, _) in DOMAINS.items():
        for i, arg in enumerate(args):
            for label, bad in (("nan", math.nan), ("inf", math.inf), ("out", out_of_range[i])):
                if bad is not None:
                    yield pytest.param(name, i, bad, id=f"{name}-{arg}-{label}")


@pytest.fixture
def m(dp, es, phys):
    """What the evaluators take besides their coordinates."""
    return types.SimpleNamespace(dp=dp, es=es, phys=phys)


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_each_evaluator_answers_inside_its_domain(name, m):
    call, valid, _, _, _ = DOMAINS[name]
    assert np.all(np.isfinite(call(valid, m)))


@pytest.mark.parametrize("name, i, bad", _cases())
def test_each_evaluator_rejects_a_bad_argument_by_name(name, i, bad, m):
    call, valid, args, _, where = DOMAINS[name]
    values = list(valid)
    values[i] = bad
    with pytest.raises(DomainError, match=f"^{where} requires .*{args[i]}"):
        call(tuple(values), m)
