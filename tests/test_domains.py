"""One domain rule for every public evaluator of coordinates.

Each evaluator checks its arguments once, at entry: an entry that is NaN,
infinite (an integer beyond float range counts as infinite) or outside the
bound the evaluator states raises DomainError,
naming the function (or, for the chart fields and layer problems, the
chart), and numpy warns about nothing on the way (the suite turns warnings
into errors): an argument inside the bound whose arithmetic overflows, or
divides by a product that underflowed to 0, raises DomainError naming the
function and the float range.  The coordinate maps name the coordinate
instead: each one a chart map takes or returns must be finite and >= 0,
one divided by eps = 0 counting as infinite, and each one a log map makes
finite and > 0.
"""
import dataclasses
import math
import re
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

#: finite arguments inside each bound whose arithmetic leaves the float range: name -> call on m
EXTREMES = {
    "rate_r": lambda m: model.rate_r(1e-320, m.dp),
    "rate_r_hat": lambda m: model.rate_r_hat(1e-320, m.es, m.dp),
    "nullclines": lambda m: gspt.nullclines(m.dp, 1e-320),
    "manifold_B": lambda m: gspt.manifold_B(1e-320, m.es, m.dp),
    "manifold_B_stability": lambda m: gspt.manifold_B_stability(1e-320, m.es, m.dp),
    "rate_r_prime": lambda m: model.rate_r_prime(1e-200, m.dp),  # h*h underflows to 0
    "rhs": lambda m: model.rhs((1e308, 0.5), m.dp),
    "q_func": lambda m: model.q_func(1e308, 0.5, m.dp),
    "rhs_jacobian": lambda m: model.rhs_jacobian((1e308, 0.5), m.dp),
    "slow_flow_B": lambda m: gspt.slow_flow_B(1e200, m.es, m.dp),
}

#: public functions of coordinates outside the table, the coordinate maps: name -> (call
#: on (x, m), the coordinate each entry of x is named by when it is NaN or infinite)
COORDINATE_MAPS = {
    "to_chart_A": (lambda x, m: model.to_chart_A(x, m.es), ("s", "h")),
    "from_chart_A": (lambda x, m: model.from_chart_A(x, m.es), ("s", "h")),
    "to_chart_B": (lambda x, m: model.to_chart_B(x, m.es), ("s", "eta")),
    "from_chart_B": (lambda x, m: model.from_chart_B(x, m.es), ("s", "eta")),
    "to_log": (lambda x, m: model.to_log(x, m.phys), ("s*S_ext", "h*H_ext")),
    "from_log": (lambda x, m: model.from_log(x, m.phys), ("s", "h")),
}


def _cases():
    for name, (_, valid, args, out_of_range, _) in DOMAINS.items():
        for i, arg in enumerate(args):
            for label, bad in (("nan", math.nan), ("inf", math.inf), ("int", 10 ** 400),
                               ("out", out_of_range[i])):
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


@pytest.mark.parametrize("name", EXTREMES)
def test_an_argument_whose_arithmetic_leaves_the_float_range_is_named(name, m):
    with pytest.raises(DomainError, match=rf"^{name} leaves the float range "
                                          rf"\|x\| <= 1\.7976931348623157e\+308: "):
        EXTREMES[name](m)


def _map_cases():
    for name, (_, coords) in COORDINATE_MAPS.items():
        for i, coord in enumerate(coords):
            for label, bad in (("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf),
                               ("int", 10 ** 400), ("-int", -10 ** 400)):
                x = [0.5, 0.5]
                x[i] = bad
                yield pytest.param(name, tuple(x), coord, id=f"{name}-{i}-{label}")


@pytest.mark.parametrize("name", sorted(COORDINATE_MAPS))
def test_each_coordinate_map_answers_inside_its_domain(name, m):
    assert all(math.isfinite(v) and v > 0.0 for v in COORDINATE_MAPS[name][0]((0.5, 0.5), m))


@pytest.mark.parametrize("name, x, coord", _map_cases())
def test_each_coordinate_map_names_a_non_finite_coordinate(name, x, coord, m):
    with pytest.raises(DomainError, match=f"^{re.escape(coord)} must be finite and "):
        COORDINATE_MAPS[name][0](x, m)


@pytest.mark.parametrize("name, x, eps, S_ext, message", [
    ("to_chart_A", (1e308, 0.5), 1e10, None, "sigma must be finite and non-negative, got inf"),
    ("from_chart_A", (1e308, 0.5), 1e-3, None, "s must be finite and non-negative, got inf"),
    ("to_chart_B", (0.5, 1e308), 1e-3, None, "eta must be finite and non-negative, got inf"),
    ("from_chart_B", (0.5, 1e308), 1e10, None, "h must be finite and non-negative, got inf"),
    ("to_log", (1e308, 0.5), 1e-3, 10.0, "s*S_ext must be finite and positive, got inf"),
    ("to_log", (5e-324, 0.5), 1e-3, None, "s*S_ext must be finite and positive, got 0.0"),
    ("from_log", (-400.0, 3.0), 1e-3, None,
     "s or h overflows a float at (pS, pH) = (-400.0, 3.0)"),
    ("from_log", (3.0, 400.0), 1e-3, None, "h must be finite and positive, got 0.0"),
    # at eps = 0, the layer limit, a coordinate divided by eps is infinite
    ("from_chart_A", (0.0, 0.5), 0.0, None, "s must be finite and non-negative, got inf"),
    ("to_chart_B", (0.5, 0.5), 0.0, None, "eta must be finite and non-negative, got inf"),
    ("to_chart_A", (-1.0, 0.5), 0.0, None, "s must be finite and non-negative, got -1.0"),
    ("from_chart_B", (0.5, -1.0), 0.0, None, "eta must be finite and non-negative, got -1.0"),
], ids=["to_chart_A", "from_chart_A", "to_chart_B", "from_chart_B", "to_log-over",
        "to_log-under", "from_log-over", "from_log-under", "from_chart_A-eps0",
        "to_chart_B-eps0", "to_chart_A-eps0", "from_chart_B-eps0"])
def test_a_coordinate_beyond_float_range_or_divided_by_eps_0_is_named(name, x, eps, S_ext,
                                                                       message, m):
    m = types.SimpleNamespace(dp=m.dp, es=m.es.at_eps(eps),
                              phys=dataclasses.replace(m.phys, S_ext=S_ext or m.phys.S_ext))
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        COORDINATE_MAPS[name][0](x, m)


def test_at_eps_0_the_maps_that_scale_by_eps_give_the_layer_limit(es):
    assert model.to_chart_A((0.5, 0.25), es.at_eps(0.0)) == (0.0, 0.25)
    assert model.from_chart_B((0.5, 0.25), es.at_eps(0.0)) == (0.5, 0.0)


def test_the_reference_kinetics_read_an_integer_beyond_float_range_as_inf(phys):
    with pytest.raises(DomainError, match=r"^rhs_reference requires 0 <= s <= 1, got s=inf$"):
        model.rhs_reference((10 ** 400, 0.5), phys)
