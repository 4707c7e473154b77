"""Limit-cycle detection and timescale accounting.

The relaxation cycle is measured on the eps-split system in (s, h) with
turning-point events: an s-maximum (ds/dt = 0, falling) marks the acidic
fold F_A, an s-minimum (rising) the basic fold F_B.  Segment times are
tau_B_to_A (s-minimum to the next s-maximum, the acidic excursion) and
tau_A_to_B (the complement); the period is their sum by construction.
The analytic side evaluates the asymptotic formulas
T_acid = (beta/(eps C)) w(h_*) with
w(h) = 1 - (1-2h) ln((2-2h)/(1-2h)) and T_basic = beta/(4 eps C h_*);
their ratio 1/(4 h_* w(h_*)) is eps-free.

How strongly the cycle attracts is, for a planar field, its nontrivial
Floquet multiplier exp(int_0^T div f dt) (Perko, *Differential Equations
and Dynamical Systems*, Sec. 3.4).  ``floquet_exponent`` integrates that
divergence on demand over a recorded period's dense output.
"""
from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from ._fmt import write_csv, write_json
from .errors import DomainError, MalformedCycleError, PhoscilError
from .gspt import fixed_point
from .integrator import (EventSpec, IntegratorConfig, SolverStats, Trajectory, _fork_map,
                         integrate_until_event)
from .model import _rate, make_field
from .params import (DimlessParams, EpsSplit, PhysicalParams, _as_float, derive_dimensionless,
                     split_dimless)

__all__ = [
    "AnalyticTimescales",
    "CycleReport",
    "CompareRow",
    "CompareTable",
    "OscillationVerdict",
    "find_limit_cycle",
    "segment_times",
    "analytic_timescales",
    "physical_timescales",
    "compare",
    "oscillation_condition",
    "winding_number",
    "floquet_exponent",
]

#: successive section returns closer than this (in (sigma, h) for the model) end the transient
TRANSIENT_TOL = 1e-8

#: s-amplitude below which a "cycle" is reclassified as equilibrium convergence
EQUILIBRIUM_AMPLITUDE = 1e-6

#: transient budget: returns inspected before giving up
TRANSIENT_BUDGET = 20

#: five-point Gauss-Legendre rule on [0, 1], exact to degree 9: the closed-form
#: nodes x and weights w of the rule on [-1, 1], mapped to (1 + x)/2 and w/2
_X1 = math.sqrt(5.0 - 2.0 * math.sqrt(10.0 / 7.0)) / 3.0
_X2 = math.sqrt(5.0 + 2.0 * math.sqrt(10.0 / 7.0)) / 3.0
_W1 = (322.0 + 13.0 * math.sqrt(70.0)) / 900.0
_W2 = (322.0 - 13.0 * math.sqrt(70.0)) / 900.0
_GL5_NODES = tuple(0.5 * (1.0 + x) for x in (-_X2, -_X1, 0.0, _X1, _X2))
_GL5_WEIGHTS = tuple(0.5 * w for w in (_W2, _W1, 128.0 / 225.0, _W1, _W2))


@dataclass(frozen=True)
class AnalyticTimescales:
    T_acid: float
    T_basic: float
    T_total: float
    ratio: float


@dataclass(frozen=True)
class CycleReport:
    """One measured period of the eps-split system plus analytic companions.

    ``terminus`` is "limit_cycle" for a converged oscillation,
    "equilibrium" when the orbit lands on the fixed point instead, and
    "no_convergence" when the transient budget runs out.  ``trajectory`` is
    the recorded period, timed by ``segment_times``: ``period`` is
    tau_B_to_A + tau_A_to_B, and all three are NaN without a trajectory.
    ``transient_stats`` counts the work of every half-leg outside ``trajectory``.
    ``return_distances`` holds, for each transient period, the largest
    coordinate gap between its back-section return and the one before:
    the test that ended the transient, so only the last may fall below
    TRANSIENT_TOL.  It stays out of the exported report.
    """

    eps: float
    period: float
    tau_B_to_A: float
    tau_A_to_B: float
    turning_points: tuple[tuple[float, float], tuple[float, float]] | None
    analytic: AnalyticTimescales
    converged: bool
    n_transient_periods: int
    terminus: str
    trajectory: Trajectory | None
    transient_stats: SolverStats
    return_distances: tuple[float, ...]

    def to_json_dict(self) -> dict:
        """JSON-ready summary (the trajectory itself is exported separately)."""
        tp = self.turning_points
        return {
            "eps": self.eps,
            "terminus": self.terminus,
            "converged": self.converged,
            "period": self.period,
            "tau_B_to_A": self.tau_B_to_A,
            "tau_A_to_B": self.tau_A_to_B,
            "turning_points": None if tp is None else {
                "s_max": list(tp[0]), "s_min": list(tp[1])},
            "n_transient_periods": self.n_transient_periods,
            "analytic": dataclasses.asdict(self.analytic),
        }


def _w_of_h(h_star: float) -> float:
    return 1.0 - (1.0 - 2.0 * h_star) * math.log((2.0 - 2.0 * h_star) / (1.0 - 2.0 * h_star))


def analytic_timescales(dp: DimlessParams, es: EpsSplit) -> AnalyticTimescales:
    """Closed-form segment times and their eps-free ratio.

    Requires 0 < h_* < 1/2 (the logarithm in w(h) and positivity of
    T_basic); the ratio is computed as 1/(4 h_* w(h_*)) so it carries no
    eps dependence at all.
    """
    h_star = dp.h_star
    if not 0.0 < h_star < 0.5:
        raise DomainError(
            f"analytic timescales need 0 < h_* < 1/2, got h_* = {h_star!r}")
    w = _w_of_h(h_star)
    T_acid = dp.beta / (es.eps * es.C) * w
    T_basic = dp.beta / (4.0 * es.eps * es.C * h_star)
    return AnalyticTimescales(T_acid=T_acid, T_basic=T_basic,
                              T_total=T_acid + T_basic,
                              ratio=1.0 / (4.0 * h_star * w))


def _analytic_or_nan(dp: DimlessParams, es: EpsSplit) -> AnalyticTimescales:
    """analytic_timescales where its formulas hold, all NaN elsewhere."""
    try:
        return analytic_timescales(dp, es)
    except DomainError:
        return AnalyticTimescales(math.nan, math.nan, math.nan, math.nan)


def physical_timescales(phys: PhysicalParams, es: EpsSplit) -> tuple[float, float]:
    """(T_acid, T_basic) in seconds: dimensionless times over k_max."""
    ts = analytic_timescales(derive_dimensionless(phys), es)
    return ts.T_acid / phys.k_max, ts.T_basic / phys.k_max


@dataclass(frozen=True)
class OscillationVerdict:
    oscillatory: bool
    margin: float


def oscillation_condition(phys: PhysicalParams) -> OscillationVerdict:
    """Transport-rate inequality k_H/k_S > 2 S_ext/H_ext, with its margin.

    Equivalent to alpha*K_h > K_s, i.e. to a positive equilibrium
    proton fraction.  The verdict is strict: a margin of exactly zero is
    not oscillatory.
    """
    lhs = phys.k_H * phys.H_ext
    rhs = 2.0 * phys.k_S * phys.S_ext
    return OscillationVerdict(oscillatory=lhs > rhs, margin=lhs - rhs)


def _start_point(dp_eps: DimlessParams) -> tuple[float, float]:
    """(s_*, 2 h_*) of the split system: ``fixed_point``'s equilibrium, displaced in h.
    Its existence test, the package's one, raises NoPositiveEquilibriumError."""
    fp = fixed_point(dp_eps)
    return fp.s_star, 2.0 * fp.h_star


def _event_pair(dp_eps: DimlessParams) -> tuple[EventSpec, EventSpec]:
    """(s-maximum, s-minimum) events: the zeros of ds/dt, falling and rising."""
    # runs on every accepted step: plain floats, no per-call domain check
    def f_value(t, y):
        s, h = y.tolist()
        return dp_eps.K_s - _rate(h, dp_eps) * s if h > 0.0 else dp_eps.K_s

    return (EventSpec(func=f_value, direction="falling"),
            EventSpec(func=f_value, direction="rising"))


def _merge_halves(first: Trajectory, second: Trajectory) -> Trajectory:
    """Glue the out and back halves of one period of the section loop.

    The halves share their junction sample and each ends on its one
    terminal hit; the merged trajectory labels these hits 1 and 0 (on the
    model the canonical s-minimum and s-maximum) and sums their stats.
    """
    return Trajectory(np.concatenate([first.t, second.t[1:]]),
                      np.vstack([first.states, second.states[1:]]),
                      first.segments + second.segments,
                      [dataclasses.replace(first.events[-1], index=1),
                       dataclasses.replace(second.events[-1], index=0)],
                      first.names, first.stats + second.stats)


def _section_returns(field, start, events: tuple[EventSpec, EventSpec],
                     leg_budget: float, scale: float, cfg: IntegratorConfig | None = None):
    """Relax a planar flow onto a cycle through two sections; record one period.

    ``events`` is the (out, back) pair of sections.  From ``start`` the
    orbit first runs to the back section; each period is then two
    half-legs, out and back again, so a run never starts with its own
    section detector armed on the section.  Every half-leg may take
    ``leg_budget`` time units.  The transient ends when two successive
    back-section returns agree to TRANSIENT_TOL in (scale*y0, y1); one
    further period is then recorded with dense output kept.  Returns
    (terminus, return_distances, recorded, transient_stats).
    ``return_distances`` holds max|this_return - prev_return| of each
    transient period, so its length is the number of transient periods.
    ``transient_stats`` sums the work of every half-leg outside
    ``recorded``.  For "limit_cycle", ``recorded`` is the period
    trajectory: the out and back half-legs merged, whose ``events`` are
    the out hit (index 1) and the back hit (index 0), so
    ``segment_times(recorded)`` gives (tau_back, tau_out).  It is None
    for "equilibrium" (the orbit stops returning at rest, or the recorded
    y0-amplitude falls below EQUILIBRIUM_AMPLITUDE) and for
    "no_convergence" (any other lost return, or TRANSIENT_BUDGET periods
    without agreement).
    """
    out_ev, back_ev = events
    work = SolverStats()
    distances = []

    def no_cycle(last_state=None):
        settled = (last_state is not None and
                   math.hypot(*field(0.0, np.asarray(last_state, dtype=float))) < 1e-8)
        return ("equilibrium" if settled else "no_convergence"), tuple(distances), None, work

    def half_leg(x, t_start: float, event: EventSpec, keep_dense: bool):
        nonlocal work
        leg = integrate_until_event(field, np.asarray(x, dtype=float), event, cfg,
                                    t_max=t_start + leg_budget, t0=t_start,
                                    keep_dense=keep_dense)
        work += leg.stats
        return (leg.events[-1] if leg.events else None), leg

    hit, leg = half_leg(start, 0.0, back_ev, False)
    if hit is None:
        return no_cycle(leg.states[-1])
    x, t_now = hit.state, float(hit.t)
    prev_return = np.array([scale * x[0], x[1]])

    recording = False
    while True:
        out, out_leg = half_leg(x, t_now, out_ev, recording)
        if out is None:
            return no_cycle(out_leg.states[-1])
        back, back_leg = half_leg(out.state, float(out.t), back_ev, recording)
        if back is None:
            return no_cycle(back_leg.states[-1])
        if recording:
            break
        x, t_now = back.state, float(back.t)
        this_return = np.array([scale * x[0], x[1]])
        distances.append(float(np.max(np.abs(this_return - prev_return))))
        recording = distances[-1] < TRANSIENT_TOL
        if not recording and len(distances) >= TRANSIENT_BUDGET:
            return no_cycle()
        prev_return, transient = this_return, work

    if abs(float(back.state[0]) - float(out.state[0])) < EQUILIBRIUM_AMPLITUDE:
        return no_cycle(back.state)
    return "limit_cycle", tuple(distances), _merge_halves(out_leg, back_leg), transient


def find_limit_cycle(dp: DimlessParams, es: EpsSplit,
                     cfg: IntegratorConfig | None = None) -> CycleReport:
    """Relax onto the cycle of the eps-split system and measure one period.

    The section-return loop starts at (s_*, 2 h_*) of the split system,
    returns on the s-maximum section and goes out to the s-minimum, so
    the transient ends when two returns agree in chart-A coordinates
    (sigma, h) = (eps*s, h), and ``segment_times`` times the recorded
    period.  Equilibrium and non-converged outcomes yield reports, never
    raise.  Parameters without a positive equilibrium raise
    NoPositiveEquilibriumError.  The analytic companions are NaN where
    their formulas do not hold (h_* >= 1/2).
    """
    dp_eps = split_dimless(dp, es)
    start = _start_point(dp_eps)
    analytic = _analytic_or_nan(dp, es)
    # a half-leg may take 6 T_total, or where T_total has no formula (h_* >= 1/2)
    # its bound 6 beta/(eps C) (1 + 1/(4 h_*)), finite for h_* > 0
    leg_budget = (6.0 * dp.beta / (es.eps * es.C) * (1.0 + 0.25 / dp.h_star)
                  if math.isnan(analytic.T_total) else 6.0 * analytic.T_total)
    s_max_ev, s_min_ev = _event_pair(dp_eps)
    terminus, distances, recorded, transient = _section_returns(
        make_field(dp_eps), start, (s_min_ev, s_max_ev), leg_budget, es.eps, cfg)
    tau_B_to_A, tau_A_to_B = (math.nan, math.nan) if recorded is None else segment_times(recorded)
    return CycleReport(
        eps=es.eps, period=tau_B_to_A + tau_A_to_B, tau_B_to_A=tau_B_to_A, tau_A_to_B=tau_A_to_B,
        # recorded.events is (s-min, s-max); the report lists s-max first
        turning_points=None if recorded is None else tuple(
            tuple(float(v) for v in hit.state) for hit in reversed(recorded.events)),
        analytic=analytic, converged=recorded is not None, n_transient_periods=len(distances),
        terminus=terminus, trajectory=recorded, transient_stats=transient,
        return_distances=distances)


def segment_times(traj: Trajectory) -> tuple[float, float]:
    """(tau_B_to_A, tau_A_to_B) from a recorded one-period trajectory.

    The trajectory must start on a turning-point section, contain exactly
    one interior hit of the other turning point (event index 0 =
    s-maximum, 1 = s-minimum) and end on a hit of the section it started
    on; anything else raises MalformedCycleError.  tau_B_to_A spans s-minimum
    to s-maximum; the two values share event times, so their sum
    reproduces the period exactly.
    """
    smax_t = [h.t for h in traj.events if h.index == 0]
    smin_t = [h.t for h in traj.events if h.index == 1]
    if len(smax_t) != 1 or len(smin_t) != 1:
        raise MalformedCycleError(
            f"need exactly one s-max and one s-min hit, got {len(smax_t)} and {len(smin_t)}")
    t0, t_end = float(traj.t[0]), float(traj.t[-1])
    last_hit = max(smax_t[0], smin_t[0])
    if not math.isclose(last_hit, t_end, rel_tol=0.0, abs_tol=1e-9 * max(1.0, abs(t_end))):
        raise MalformedCycleError("trajectory does not end on its terminal turning point")
    if smin_t[0] < smax_t[0]:
        # started on an s-maximum: descend to the s-minimum, then back up
        tau_A_to_B = smin_t[0] - t0
        tau_B_to_A = smax_t[0] - smin_t[0]
    else:
        tau_B_to_A = smax_t[0] - t0
        tau_A_to_B = smin_t[0] - smax_t[0]
    return tau_B_to_A, tau_A_to_B


def winding_number(traj: Trajectory, center: tuple[float, float]) -> int:
    """Number of revolutions a closed-orbit trajectory makes around ``center``.

    Coordinates are normalized by their observed spans before the angle
    sum so the thin-fast/wide-slow aspect of relaxation orbits cannot
    collapse the angle increments.  The count is the magnitude of the net
    swept angle over 2*pi: the circulation sense is fixed by the flow
    (clockwise in the (s, h) plane -- the fall off the acid branch happens
    at the substrate maximum) and carries no extra information, so a cycle
    that encloses ``center`` exactly once reports 1.  A ``center`` that
    is not finite raises DomainError.
    """
    cx, cy = map(_as_float, center)
    if not (math.isfinite(cx) and math.isfinite(cy)):
        raise DomainError(f"winding_number needs a finite center, got {(cx, cy)!r}")
    t = np.linspace(traj.t[0], traj.t[-1], 4096)
    pts = traj(t)
    span = pts.max(axis=0) - pts.min(axis=0)
    if np.any(span <= 0.0):
        raise MalformedCycleError("degenerate orbit: zero coordinate span")
    x = (pts[:, 0] - cx) / span[0]
    y = (pts[:, 1] - cy) / span[1]
    angles = np.unwrap(np.arctan2(y, x))
    return int(round(abs(angles[-1] - angles[0]) / (2.0 * math.pi)))


def floquet_exponent(traj: Trajectory, field) -> float:
    """int div f dt over ``traj``: the log of a recorded period's Floquet multiplier.

    Each step's collocation polynomial is sampled at the five
    Gauss-Legendre nodes of the step, and the trace of ``field.jac``
    there is summed with the rule's weights.  Over one period of a
    planar cycle the result is the exponent of its nontrivial multiplier:
    negative for an attracting cycle.  A trajectory without dense output
    raises DomainError.
    """
    if not traj.segments:
        raise DomainError("the Floquet exponent needs a trajectory with dense output")
    t, terms = traj.t.tolist(), []
    for seg, t0, t1 in zip(traj.segments, t, t[1:]):
        ts = [t0 + (t1 - t0) * x for x in _GL5_NODES]
        terms += [(t1 - t0) * w * float(np.trace(field.jac(tk, y)))
                  for w, tk, y in zip(_GL5_WEIGHTS, ts, seg(ts).T)]
    return math.fsum(terms)


# --- the comparison table -------------------------------------------------------

@dataclass(frozen=True)
class CompareRow:
    """One eps row: analytic and measured segment times side by side.

    measured_ratio is tau_A_to_B/tau_B_to_A (basic over acidic residence,
    the measured twin of the analytic T_basic/T_acid).  ``error`` carries
    a message when cycle detection failed; numeric fields are nan then.
    ``stats`` counts the row's integration work (zeros when detection
    raised); no output carries it.
    """

    eps: float
    T_acid: float
    tau_B_to_A: float
    T_basic: float
    tau_A_to_B: float
    T_analytic: float
    period: float
    ratio_analytic: float
    ratio_measured: float
    stats: SolverStats
    error: str | None = None

    def to_json_dict(self) -> dict:
        out = {c: getattr(self, c) for c in _COMPARE_COLUMNS}
        if self.error is not None:
            out["error"] = self.error
        return out


_COMPARE_COLUMNS = tuple(f.name for f in dataclasses.fields(CompareRow)
                         if f.name not in ("stats", "error"))


@dataclass(frozen=True)
class CompareTable:
    rows: tuple[CompareRow, ...]

    def to_csv(self, path, provenance=()) -> None:
        write_csv(path, list(_COMPARE_COLUMNS), ",".join(["%.17g"] * len(_COMPARE_COLUMNS)),
                  ([getattr(row, c) for c in _COMPARE_COLUMNS] for row in self.rows),
                  provenance=list(provenance))

    def to_json(self, path, provenance=()) -> None:
        write_json(path, {"provenance": list(provenance),
                          "rows": [r.to_json_dict() for r in self.rows]})

    def format_text(self) -> str:
        lines = ["  ".join(f"{c:>12s}" for c in _COMPARE_COLUMNS)]
        for row in self.rows:
            line = "  ".join(f"{getattr(row, c):>12.6g}" for c in _COMPARE_COLUMNS)
            if row.error is not None:
                line += f"  ! {row.error}"
            lines.append(line)
        return "\n".join(lines)


def _compare_row(dp: DimlessParams, cfg: IntegratorConfig | None, es: EpsSplit) -> CompareRow:
    """One row of :func:`compare`: the cycle at ``es``, or the error that stopped it."""
    try:
        rep = find_limit_cycle(dp, es, cfg=cfg)
    except PhoscilError as exc:
        ts, tau_b, tau_a = _analytic_or_nan(dp, es), math.nan, math.nan
        error, stats = f"{type(exc).__name__}: {exc}", SolverStats()
    else:
        ts, tau_b, tau_a = rep.analytic, rep.tau_B_to_A, rep.tau_A_to_B
        error = None if rep.converged else f"no limit cycle: {rep.terminus}"
        stats = (rep.transient_stats if rep.trajectory is None
                 else rep.transient_stats + rep.trajectory.stats)
    return CompareRow(eps=es.eps, T_acid=ts.T_acid, tau_B_to_A=tau_b, T_basic=ts.T_basic,
                      tau_A_to_B=tau_a, T_analytic=ts.T_total, period=tau_b + tau_a,
                      ratio_analytic=ts.ratio, ratio_measured=tau_a / tau_b, stats=stats,
                      error=error)


def compare(dp: DimlessParams, es_list, cfg: IntegratorConfig | None = None) -> CompareTable:
    """Analytic vs measured segment times, one row per eps-split entry.

    The rows are independent integrations, so they run on forked processes
    (``integrator._fork_map``) and come back in input order, each with the
    bits a serial run gives; a row whose cycle detection fails carries the
    error message without affecting its neighbours.  Where no process can
    be forked the rows run here, with the same bits; a worker process that
    dies raises WorkerError.
    """
    es_list = list(es_list)
    if not es_list:
        raise DomainError("es_list must not be empty")
    return CompareTable(rows=tuple(_fork_map(functools.partial(_compare_row, dp, cfg), es_list)))
