"""Release gate: every check prints one ``ACCEPTANCE <n> <name>: PASS/FAIL`` line.

Run with ``pytest tests/test_acceptance.py -v -s`` so the verdict lines are
visible.  Each criterion asserts after printing, so a FAIL line always comes
with a failing test.  The whole module is deterministic; the slowest pieces
are the small-eps cycle run and the fold-passage scaling windows.
"""
import dataclasses
import math

import numpy as np
import pytest

from phoscil.cycle import analytic_timescales, find_limit_cycle, winding_number
from phoscil.gspt import (
    DEFAULT_EPS_A,
    fixed_point,
    fold_location_A,
    fold_location_B,
    fold_passage_offset,
    layer_A,
    layer_B,
    manifold_A,
    manifold_B,
    stability_scan,
    verify_generic_fold,
)
from phoscil.model import h_plus_eps, q_func, q_tilde_eps, rate_r
from phoscil.params import split_dimless


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _rel(x: float, ref: float) -> float:
    return abs(x - ref) / abs(ref)


@pytest.fixture(scope="module")
def cycle_1e5(dp, es):
    return find_limit_cycle(dp, es.at_eps(1e-5))


def test_acceptance_1_fixed_point(dp):
    fp = fixed_point(dp)
    ok = (abs(fp.s_star - 0.0762) <= 1e-3
          and abs(fp.h_star - 0.0906) <= 1e-3
          and fp.classification.startswith("repelling"))
    _verdict(1, "fixed-point", ok,
             f"(s*, h*) = ({fp.s_star:.4f}, {fp.h_star:.4f}), {fp.classification}")


def test_acceptance_2_period_table(cycle_1e3, cycle_1e4, cycle_1e5):
    targets = {
        1e-3: (cycle_1e3, 90.2, 23.0, 67.2),
        1e-4: (cycle_1e4, 945.0, 120.0, 825.0),
        1e-5: (cycle_1e5, 8.46e3, 975.0, 7.48e3),
    }
    checks = []
    details = []
    for eps, (rep, period, tau_b, tau_a) in targets.items():
        checks.append(rep.terminus == "limit_cycle")
        checks.append(_rel(rep.period, period) <= 0.02)
        checks.append(_rel(rep.tau_B_to_A, tau_b) <= 0.05)
        checks.append(_rel(rep.tau_A_to_B, tau_a) <= 0.05)
        details.append(f"eps={eps:g}: T={rep.period:.4g} "
                       f"({rep.tau_B_to_A:.4g}+{rep.tau_A_to_B:.4g})")
    _verdict(2, "period-table", all(checks), "; ".join(details))


def test_acceptance_3_analytic_timescales(dp, es):
    ts = analytic_timescales(dp, es.at_eps(1e-3))
    h_star = 1.0 - dp.K_s / (dp.alpha * dp.K_h)
    w = 1.0 - (1.0 - 2.0 * h_star) * math.log((2.0 - 2.0 * h_star) / (1.0 - 2.0 * h_star))
    ok = (_rel(ts.T_acid, 9.0095) <= 1e-4
          and _rel(ts.T_basic, 71.745) <= 1e-4
          and _rel(ts.ratio, 7.9632) <= 1e-4
          and round(w, 3) == 0.347)
    _verdict(3, "analytic-timescales", ok,
             f"T_acid={ts.T_acid:.5f}, T_basic={ts.T_basic:.4f}, "
             f"ratio={ts.ratio:.5f}, w={w:.5f}")


def test_acceptance_4_fold_genericity(dp, es):
    rep_a = verify_generic_fold("A", es, dp)
    rep_b = verify_generic_fold("B", es, dp)
    h_star = 1.0 - dp.K_s / (dp.alpha * dp.K_h)
    closed = (
        _rel(rep_a.d2g0_fast, -4.0 * dp.K_h) <= 1e-9
        and _rel(rep_a.dg0_slow, -2.0 * es.C / (dp.alpha * dp.beta)) <= 1e-9
        and _rel(rep_b.f0_value, -dp.alpha * dp.K_h * h_star) <= 1e-9
    )

    # independent central-difference second derivatives along the fast axes
    sigma_a, h_a = fold_location_A(es, dp)
    step = 1e-5
    d2_a = (layer_A(sigma_a, h_a + step, es, dp)[1]
            - 2.0 * layer_A(sigma_a, h_a, es, dp)[1]
            + layer_A(sigma_a, h_a - step, es, dp)[1]) / step**2
    s_b, eta_b = fold_location_B(es, dp)
    step = 1e-3
    d2_b = (layer_B(s_b, eta_b + step, es, dp)[1]
            - 2.0 * layer_B(s_b, eta_b, es, dp)[1]
            + layer_B(s_b, eta_b - step, es, dp)[1]) / step**2
    fd = (_rel(d2_a, rep_a.d2g0_fast) <= 1e-5 and _rel(d2_b, rep_b.d2g0_fast) <= 1e-5)

    ok = rep_a.is_generic and rep_b.is_generic and closed and fd
    _verdict(4, "fold-genericity", ok,
             f"A: d2={rep_a.d2g0_fast:.6g} slow={rep_a.dg0_slow:.6g}; "
             f"B: f0={rep_b.f0_value:.6g}; fd-agreement={fd}")


def test_acceptance_5_fold_scaling(dp, es, fold_scaling_b):
    fs_a = fold_passage_offset("A", DEFAULT_EPS_A, es, dp)
    fs_b = fold_scaling_b
    ok = 0.57 <= fs_a.slope <= 0.77 and 0.57 <= fs_b.slope <= 0.77
    _verdict(5, "fold-scaling", ok,
             f"slope A={fs_a.slope:.4f}, B={fs_b.slope:.4f}, band [0.57, 0.77]")


def test_acceptance_6_stability_scan(dp):
    sm = stability_scan(dp, (1.0, 16.0), (1.0, 16.0), (200, 200))
    x0 = dp.K_h / dp.K_s
    y0 = 1.0 / dp.alpha
    i = int(np.argmin(np.abs(sm.kh_over_ks - x0)))
    j = int(np.argmin(np.abs(sm.inv_alpha - y0)))
    cell_ok = bool(sm.oscillates[i, j])
    below = sm.kh_over_ks[:, None] < sm.inv_alpha[None, :]
    diagonal_ok = bool(np.all(~sm.admissible[below]))
    _verdict(6, "stability-scan", cell_ok and diagonal_ok,
             f"cell ({sm.kh_over_ks[i]:.2f}, {sm.inv_alpha[j]:.2f}) oscillates={cell_ok}, "
             f"below-diagonal inadmissible={diagonal_ok}")


def test_acceptance_7_property_suite(dp, es, cycle_1e3, cycle_1e4, cycle_1e5):
    failures = []

    # q solves its quadratic to 1e-10 on a deterministic grid
    for s in np.linspace(0.0, 3.0, 13):
        for h in np.geomspace(1e-5, 1.2, 13):
            v = dp.alpha * dp.K / dp.eps2 * h * h - dp.K_h * (1.0 - h)
            w = dp.K / dp.eps2 * rate_r(h, dp) * h * h * s
            q = q_func(float(s), float(h), dp)
            if abs(q * q + v * q - w) > 1e-10 * max(1.0, q * q):
                failures.append(f"q residual at ({s:.3g},{h:.3g})")

    # both critical manifolds zero their layer fields to 1e-12
    for h in np.linspace(0.03, 0.97, 25):
        sigma = manifold_A(float(h), es, dp)
        if abs(layer_A(sigma, float(h), es, dp)[1]) > 1e-12:
            failures.append(f"manifold A at h={h:.3g}")
    for eta in np.linspace(0.05, 3.0, 25):
        s = manifold_B(float(eta), es, dp)
        if abs(layer_B(s, float(eta), es, dp)[1]) > 1e-12:
            failures.append(f"manifold B at eta={eta:.3g}")

    # the case-split branches agree at the seam to 1e-8
    hp = h_plus_eps(es, dp)
    for sigma in (1e-5, 1e-4, 5e-4):
        vals = [q_tilde_eps(sigma, hp, es, dp, branch=b) for b in ("low", "seam", "high")]
        scale = max(abs(v) for v in vals)
        if max(abs(v - vals[0]) for v in vals) > 1e-8 * scale:
            failures.append(f"branch seam at sigma={sigma:g}")

    # positive-quadrant invariance along every recorded cycle
    for rep in (cycle_1e3, cycle_1e4, cycle_1e5):
        t = np.linspace(rep.trajectory.t[0], rep.trajectory.t[-1], 4096)
        if not (np.all(rep.trajectory(t) >= 0.0) and np.all(rep.trajectory.states >= 0.0)):
            failures.append(f"quadrant at eps={rep.eps:g}")

    # each cycle winds once around the split-system equilibrium
    for rep in (cycle_1e3, cycle_1e4, cycle_1e5):
        fp = fixed_point(split_dimless(dp, es.at_eps(rep.eps)))
        if winding_number(rep.trajectory, (fp.s_star, fp.h_star)) != 1:
            failures.append(f"winding at eps={rep.eps:g}")

    _verdict(7, "property-suite", not failures,
             "all invariants hold" if not failures else "; ".join(failures[:4]))


def test_acceptance_8_cross_model(phys, cycle_1e3, reference_period):
    reduced_s = cycle_1e3.period / phys.k_max
    gap = _rel(reduced_s, reference_period)
    _verdict(8, "cross-model", gap <= 0.10,
             f"reference {reference_period:.2f} s vs reduced {reduced_s:.2f} s, "
             f"gap {gap:.1%} (band 10%)")
