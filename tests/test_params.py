"""Parameter containers, dimensionless reduction and file loading."""
import dataclasses
import json
import math
import re

import pytest
from hypothesis import given, strategies as st

from phoscil.errors import DomainError, ParameterFileError
from phoscil.params import (
    UREASE_VESICLE,
    EpsSplit,
    PhysicalParams,
    derive_dimensionless,
    derive_eps_split,
    load_physical,
    split_dimless,
)

# Laboratory values of the vesicle experiment (M and 1/s).
TABLE = {
    "S_ext": 3.8e-4, "H_ext": 1.3e-4, "v_max": 1.85e-4, "k_M": 3e-3,
    "k_E1": 5e-6, "k_E2": 2e-9, "k2": 4.3e10, "k2r": 2.4e1,
    "k_H": 9e-3, "k_S": 1.4e-3, "k": 1.4e-3, "k_plus": 1.4e-3,
}


def test_reference_set_matches_table():
    for name, value in TABLE.items():
        assert getattr(UREASE_VESICLE, name) == value


def test_lumped_rate_properties():
    # independent arithmetic from the table values
    assert UREASE_VESICLE.k_prime == 4.3e10 / (2.4e1 + 1.4e-3)
    assert UREASE_VESICLE.k_max == 1.85e-4 / 3e-3
    assert math.isclose(UREASE_VESICLE.k_prime, 1791562158.8740656, rel_tol=1e-15)
    assert math.isclose(UREASE_VESICLE.k_max, 0.061666666666666661, rel_tol=1e-15)


def test_dimensionless_groups_from_definitions():
    dp = derive_dimensionless(UREASE_VESICLE)
    k_max = 1.85e-4 / 3e-3
    assert math.isclose(dp.K_s, 1.4e-3 / k_max, rel_tol=1e-15)
    assert math.isclose(dp.K_h, 9e-3 / k_max, rel_tol=1e-15)
    assert math.isclose(dp.K, 1.4e-3 / k_max, rel_tol=1e-15)
    assert math.isclose(dp.alpha, 1.3e-4 / (2 * 3.8e-4), rel_tol=1e-15)
    assert math.isclose(dp.beta, math.sqrt(2e-9 / 5e-6), rel_tol=1e-15)
    assert math.isclose(dp.eps1, math.sqrt(5e-6 * 2e-9) / 1.3e-4, rel_tol=1e-15)
    assert math.isclose(dp.eps2, dp.alpha / (UREASE_VESICLE.k_prime * 1.3e-4),
                        rel_tol=1e-15)


def test_dimensionless_groups_frozen_values():
    dp = derive_dimensionless(UREASE_VESICLE)
    assert math.isclose(dp.K_s, 0.022702702702702703, rel_tol=1e-15)
    assert math.isclose(dp.K_h, 0.14594594594594595, rel_tol=1e-15)
    assert math.isclose(dp.K, 0.022702702702702703, rel_tol=1e-15)
    assert math.isclose(dp.alpha, 0.17105263157894735, rel_tol=1e-15)
    assert math.isclose(dp.beta, 0.02, rel_tol=1e-15)
    assert math.isclose(dp.eps1, 0.00076923076923076934, rel_tol=1e-15)
    assert math.isclose(dp.eps2, 7.3443696450428398e-07, rel_tol=1e-15)


def test_eps_split_reproduces_physical_smallness():
    dp = derive_dimensionless(UREASE_VESICLE)
    es = derive_eps_split(dp)
    assert es.eps == 1e-3
    assert es.eps1 == dp.eps1
    # eps2 round-trips through A = eps_ref^2/eps2, so allow one ulp
    assert math.isclose(es.eps2, dp.eps2, rel_tol=1e-15)
    assert math.isclose(es.C, 0.76923076923076927, rel_tol=1e-15)
    assert math.isclose(es.A, 1.3615872407442899, rel_tol=1e-15)


def test_at_eps_keeps_split_constants():
    dp = derive_dimensionless(UREASE_VESICLE)
    es = derive_eps_split(dp)
    moved = es.at_eps(1e-5)
    assert moved.C == es.C and moved.A == es.A and moved.eps == 1e-5
    assert math.isclose(moved.eps1, es.C * 1e-5, rel_tol=1e-15)
    assert math.isclose(moved.eps2, 1e-10 / es.A, rel_tol=1e-15)


@given(eps=st.floats(min_value=1e-12, max_value=1.0))
def test_eps_split_scaling_laws(eps):
    es = EpsSplit(eps=eps, C=0.7, A=1.3)
    assert math.isclose(es.eps1, 0.7 * eps, rel_tol=1e-15)
    assert math.isclose(es.eps2, eps * eps / 1.3, rel_tol=1e-15)


def test_split_dimless_replaces_only_smallness():
    dp = derive_dimensionless(UREASE_VESICLE)
    es = derive_eps_split(dp).at_eps(1e-4)
    out = split_dimless(dp, es)
    assert out.eps1 == es.eps1 and out.eps2 == es.eps2
    for name in ("K_s", "K_h", "K", "alpha", "beta"):
        assert getattr(out, name) == getattr(dp, name)


@given(alpha=st.floats(min_value=1e-3, max_value=10.0),
       K_h=st.floats(min_value=1e-3, max_value=10.0),
       K_s=st.floats(min_value=1e-3, max_value=10.0))
def test_admissibility_flag_is_the_product_inequality(alpha, K_h, K_s):
    dp = derive_dimensionless(UREASE_VESICLE)
    probe = dataclasses.replace(dp, alpha=alpha, K_h=K_h, K_s=K_s)
    assert probe.admissible == (alpha * K_h > K_s)


@pytest.mark.parametrize("name", sorted(TABLE))
def test_physical_params_reject_nonpositive(name):
    bad = dict(TABLE)
    bad[name] = 0.0
    with pytest.raises(DomainError):
        PhysicalParams(**bad)
    bad[name] = -1.0
    with pytest.raises(DomainError):
        PhysicalParams(**bad)


def test_physical_params_reject_nonfinite():
    bad = dict(TABLE)
    bad["k_M"] = math.inf
    with pytest.raises(DomainError):
        PhysicalParams(**bad)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_dimless_params_say_positive_and_finite(dp, bad):
    with pytest.raises(DomainError, match="eps2 must be positive and finite"):
        dataclasses.replace(dp, eps2=bad)


@pytest.mark.parametrize("eps, law", [(0.0, "eps1 = C*eps = 0.0"), (1e-300, "eps2 = eps^2/A = 0.0"),
                                      (1e300, "eps2 = eps^2/A = inf")])
def test_an_eps_that_leaves_float_range_is_named_in_the_split(dp, eps, law):
    with pytest.raises(DomainError, match=re.escape(f"eps = {eps!r} gives {law},")):
        split_dimless(dp, derive_eps_split(dp).at_eps(eps))


@pytest.mark.parametrize("make, message", [
    (lambda: dataclasses.replace(UREASE_VESICLE, k_S=10 ** 400),
     "physical parameter k_S must be positive and finite, got inf"),
    (lambda: EpsSplit(eps=10 ** 400, C=1.0, A=1.0), "eps must be non-negative and finite, got inf"),
], ids=["physical", "eps-split"])
def test_an_integer_beyond_float_range_is_an_infinite_parameter(make, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        make()


def test_a_parameter_record_reads_each_value_by_float_like_every_entry_point():
    # the one reading rule of params._as_float: a numeric string or bytes is its float
    assert dataclasses.replace(UREASE_VESICLE, k_S="1.4e-3").k_S == 1.4e-3
    assert EpsSplit(eps=b"1e-3", C="1", A=1).eps == 1e-3
    assert type(EpsSplit(eps=b"1e-3", C="1", A=1).C) is float
    with pytest.raises(DomainError, match="^eps must be non-negative and finite, got inf$"):
        EpsSplit(eps="inf", C=1.0, A=1.0)


def test_eps_split_rejects_bad_constants():
    with pytest.raises(DomainError):
        EpsSplit(eps=-1e-3, C=0.7, A=1.3)
    with pytest.raises(DomainError):
        EpsSplit(eps=1e-3, C=0.0, A=1.3)
    with pytest.raises(DomainError):
        EpsSplit(eps=1e-3, C=0.7, A=-2.0)


# --- parameter files ---------------------------------------------------------

def _write_text(path, mapping, mutate=None):
    lines = ["# probe parameter file"]
    lines += [f"{k} = {v!r}" for k, v in mapping.items()]
    if mutate:
        lines = mutate(lines)
    path.write_text("\n".join(lines) + "\n")


def test_load_text_roundtrip(tmp_path):
    path = tmp_path / "params.txt"
    _write_text(path, TABLE)
    assert load_physical(path) == UREASE_VESICLE


def test_load_json_roundtrip(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(TABLE))
    assert load_physical(path) == UREASE_VESICLE


def test_shipped_parameter_files_match_reference(request):
    root = request.config.rootpath
    assert load_physical(root / "params" / "urease_vesicle.txt") == UREASE_VESICLE
    assert load_physical(root / "params" / "urease_vesicle.json") == UREASE_VESICLE


def test_load_rejects_unknown_key(tmp_path):
    path = tmp_path / "params.txt"
    _write_text(path, {**TABLE, "k_banana": 1.0})
    with pytest.raises(ParameterFileError):
        load_physical(path)


def test_load_rejects_missing_key(tmp_path):
    path = tmp_path / "params.txt"
    short = {k: v for k, v in TABLE.items() if k != "k_H"}
    _write_text(path, short)
    with pytest.raises(ParameterFileError):
        load_physical(path)


def test_load_rejects_duplicate_key(tmp_path):
    path = tmp_path / "params.txt"
    _write_text(path, TABLE, mutate=lambda lines: lines + ["k_H = 1.0"])
    with pytest.raises(ParameterFileError):
        load_physical(path)


def test_load_rejects_non_numeric_value(tmp_path):
    path = tmp_path / "params.txt"
    _write_text(path, TABLE, mutate=lambda lines: lines[:-1] + ["k_plus = fast"])
    with pytest.raises(ParameterFileError):
        load_physical(path)


def test_load_rejects_line_without_separator(tmp_path):
    path = tmp_path / "params.txt"
    _write_text(path, TABLE, mutate=lambda lines: lines + ["just words"])
    with pytest.raises(ParameterFileError):
        load_physical(path)


def test_load_missing_file_is_io_error(tmp_path):
    with pytest.raises(OSError):
        load_physical(tmp_path / "absent.txt")
