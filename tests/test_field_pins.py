"""Bit pins of the model's fields, Jacobians and chart forms.

``field_pins.json`` holds the ``float.hex`` of every value that
``_record`` computes: the integrator fields of ``make_field``,
``make_field_chart_A`` and ``make_field_chart_B`` (at eps = 1e-3 and
1e-5) and ``make_field_reference``, with their Jacobians, at fixed
points that include the h < 0 stage probes the stepper may make; the
array forms ``rhs_chart_A`` and ``rhs_chart_B``; and the rate and
Jacobian helpers.  Those must match bit for bit.  The layer problems are
pinned too, but only to 1e-13 absolute: their formulas may be rewritten
as long as they stay the charts' eps = 0 limits.

Regenerate the file only for a change that is meant to move field bits:

    PYTHONPATH=src python tests/test_field_pins.py > tests/field_pins.json
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from phoscil.gspt import layer_A, layer_B
from phoscil.model import (
    h_plus_eps,
    make_field,
    make_field_chart_A,
    make_field_chart_B,
    make_field_reference,
    rate_r_hat,
    rate_r_prime,
    rhs_chart_A,
    rhs_chart_B,
    rhs_jacobian,
)
from phoscil.params import UREASE_VESICLE, derive_dimensionless, derive_eps_split, split_dimless

PINS = Path(__file__).with_name("field_pins.json")
EPS_LIST = (1e-3, 1e-5)


def _hex(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(np.asarray(values, dtype=float))]


def _states(dp_eps) -> list[tuple[float, float]]:
    """(s, h) points of the base field: interior, edges, and stage probes past them."""
    be = dp_eps.beta * dp_eps.eps1
    return [(0.07618403535611075, 0.0905982905982905), (0.5, 0.9), (2.0, 0.3), (0.0, 0.5),
            (1.0, 1.2), (0.02596, 0.7 * dp_eps.eps1), (0.01, 1e-3 * dp_eps.eps1),
            (0.3, -0.5 * be), (0.05, -1e-3 * be), (-1e-3, 0.2)]


def _field_bits(field, points) -> list[list[str]]:
    return [_hex(field(0.0, np.array(y))) + _hex(field.jac(0.0, np.array(y))) for y in points]


def _record(phys) -> dict:
    dp = derive_dimensionless(phys)
    es0 = derive_eps_split(dp)
    out = {"make_field": _field_bits(make_field(dp), _states(dp))}
    for eps in EPS_LIST:
        es = es0.at_eps(eps)
        states = _states(split_dimless(dp, es))
        out[f"chart_A@{eps:g}"] = _field_bits(make_field_chart_A(es, dp),
                                              [(eps * s, h) for s, h in states])
        out[f"chart_B@{eps:g}"] = _field_bits(make_field_chart_B(es, dp),
                                              [(s, h / eps) for s, h in states])
        sigma, h = np.meshgrid(eps * np.linspace(0.0, 2.0, 5),
                               [1e-6, 1e-3, h_plus_eps(es, dp), 0.1, 0.5, 0.9, 1.1])
        out[f"rhs_chart_A@{eps:g}"] = [_hex(v) for v in rhs_chart_A((sigma, h), es, dp)]
        s, eta = np.meshgrid(np.linspace(0.0, 2.0, 5), [0.0, 1e-3, 0.5, es.C, 3.0, 50.0])
        out[f"rhs_chart_B@{eps:g}"] = [_hex(v) for v in rhs_chart_B((s, eta), es, dp)]
    out["reference"] = _field_bits(make_field_reference(phys),
                                   [(0.5, 0.5), (0.9, 0.1), (0.1, 1.0), (0.0, 0.3),
                                    (1.0, 0.01), (0.3, 1e-4)])
    h = np.array([1e-6, 1e-3, dp.eps1, 0.1, 0.5, 1.2])
    out["rate_r_prime"] = _hex(rate_r_prime(h, dp))
    out["rate_r_hat"] = _hex(rate_r_hat(h / dp.eps1 * es0.C, es0, dp))
    out["rhs_jacobian"] = [_hex(rhs_jacobian(y, dp)) for y in _states(dp)[:7]]
    sigma, h = np.meshgrid(np.linspace(0.0, 4e-4, 9), np.linspace(0.05, 1.2, 11))
    out["layer_A"] = [_hex(v) for v in layer_A(sigma, h, es0, dp)]
    s, eta = np.meshgrid(np.linspace(0.0, 2.0, 9), np.linspace(0.0, 3.0, 11))
    out["layer_B"] = [_hex(v) for v in layer_B(s, eta, es0, dp)]
    return out


@pytest.fixture(scope="module")
def bits(phys):
    return _record(phys), json.loads(PINS.read_text())


@pytest.mark.parametrize("key", ["make_field", "chart_A@0.001", "chart_A@1e-05",
                                 "chart_B@0.001", "chart_B@1e-05", "reference",
                                 "rhs_chart_A@0.001", "rhs_chart_A@1e-05",
                                 "rhs_chart_B@0.001", "rhs_chart_B@1e-05",
                                 "rate_r_prime", "rate_r_hat", "rhs_jacobian"])
def test_field_bits_are_pinned(bits, key):
    now, pinned = bits
    assert now[key] == pinned[key]


@pytest.mark.parametrize("key", ["layer_A", "layer_B"])
def test_layer_values_stay_within_1e_13_of_their_pins(bits, key):
    now, pinned = bits
    for component, pin in zip(now[key], pinned[key]):
        np.testing.assert_allclose([float.fromhex(v) for v in component],
                                   [float.fromhex(v) for v in pin], rtol=0.0, atol=1e-13)


if __name__ == "__main__":
    sys.stdout.write("{\n" + ",\n".join(f"{json.dumps(key)}: {json.dumps(value)}" for key, value
                                         in _record(UREASE_VESICLE).items()) + "\n}\n")
