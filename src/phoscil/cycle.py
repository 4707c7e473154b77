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
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from ._fmt import fmt17, write_csv, write_json
from .errors import (
    DomainError,
    MalformedCycleError,
    NoPositiveEquilibriumError,
    PhoscilError,
    PreconditionError,
)
from .integrator import EventSpec, IntegratorConfig, Trajectory, integrate_until_event
from .model import make_field, rate_r
from .params import DimlessParams, EpsSplit, PhysicalParams, derive_dimensionless, split_dimless

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
]

#: successive s-maximum returns closer than this in (sigma, h) end the transient
TRANSIENT_TOL = 1e-8

#: s-amplitude below which a "cycle" is reclassified as equilibrium convergence
EQUILIBRIUM_AMPLITUDE = 1e-6

#: transient budget: returns inspected before giving up
TRANSIENT_BUDGET = 20


@dataclass(frozen=True)
class AnalyticTimescales:
    T_acid: float
    T_basic: float
    T_total: float
    ratio: float

    def __iter__(self):
        return iter((self.T_acid, self.T_basic, self.T_total, self.ratio))


@dataclass(frozen=True)
class CycleReport:
    """One measured period of the eps-split system plus analytic companions.

    ``terminus`` is "limit_cycle" for a converged oscillation,
    "equilibrium" when the orbit lands on the fixed point instead, and
    "no_convergence" when the transient budget runs out.  ``period`` is
    tau_B_to_A + tau_A_to_B exactly (same floats, same event hits).
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


def physical_timescales(dp: DimlessParams, es: EpsSplit,
                        phys: PhysicalParams) -> tuple[float, float]:
    """(T_acid, T_basic) in seconds: dimensionless times over k_max.

    The phys/dimless pair must be consistent (dp derived from phys);
    mismatched pairs raise PreconditionError.
    """
    derived = derive_dimensionless(phys)
    for name in ("K_s", "K_h", "K", "alpha", "beta"):
        a, b = getattr(derived, name), getattr(dp, name)
        if abs(a - b) > 1e-9 * max(abs(a), abs(b)):
            raise PreconditionError(
                f"dimensionless group {name} = {b!r} does not match {a!r} derived from phys")
    ts = analytic_timescales(dp, es)
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
    """(s_*, 2 h_*) of the split system: the equilibrium, displaced in h."""
    h_star = dp_eps.h_star
    if h_star <= 0.0:
        raise NoPositiveEquilibriumError(
            "cycle detection needs a positive equilibrium (alpha*K_h > K_s)")
    return (dp_eps.K_s / rate_r(h_star, dp_eps), 2.0 * h_star)


def _event_pair(dp_eps: DimlessParams) -> tuple[EventSpec, EventSpec]:
    """(s-maximum, s-minimum) events: the zeros of ds/dt, falling and rising."""
    def f_value(t, y):
        return dp_eps.K_s - rate_r(y[1], dp_eps) * y[0] if y[1] > 0.0 else dp_eps.K_s

    return (EventSpec(func=f_value, direction="falling"),
            EventSpec(func=f_value, direction="rising"))


def _merge_halves(first: Trajectory, second: Trajectory) -> Trajectory:
    """Glue the s-max -> s-min and s-min -> s-max halves of one period.

    The halves share their junction sample and each ends on its one
    terminal hit; the merged trajectory labels the hits with the canonical
    indices 0 = s-maximum, 1 = s-minimum.
    """
    return Trajectory(np.concatenate([first.t, second.t[1:]]),
                      np.vstack([first.states, second.states[1:]]),
                      first.segments + second.segments,
                      [dataclasses.replace(first.events[-1], index=1),
                       dataclasses.replace(second.events[-1], index=0)],
                      first.names)


def find_limit_cycle(dp: DimlessParams, es: EpsSplit,
                     x0: tuple[float, float] | None = None,
                     cfg: IntegratorConfig | None = None) -> CycleReport:
    """Relax onto the cycle of the eps-split system and measure one period.

    Starting from ``x0`` (default (s_*, 2 h_*) of the split system), the
    transient is discarded period by period on the s-maximum section
    until two successive returns agree to TRANSIENT_TOL in chart-A
    coordinates (sigma, h) = (eps*s, h); one further period is then
    recorded.  Each period runs as two half-legs (s-maximum to s-minimum,
    then back), so a run never starts with its own section detector armed
    on the section; the two hit times give the segment times.  Orbits that
    stop returning onto the sections, or whose recorded s-amplitude
    falls below EQUILIBRIUM_AMPLITUDE, yield an equilibrium report;
    exceeding TRANSIENT_BUDGET periods yields a non-converged report.
    Neither outcome raises.  Parameters without a positive equilibrium
    raise NoPositiveEquilibriumError.  The analytic companions are NaN
    where their formulas do not hold (h_* >= 1/2).
    """
    cfg = cfg if cfg is not None else IntegratorConfig()
    dp_eps = split_dimless(dp, es)
    start = _start_point(dp_eps)
    analytic = _analytic_or_nan(dp, es)
    field = make_field(dp_eps)
    s_max_ev, s_min_ev = _event_pair(dp_eps)
    if math.isnan(analytic.T_total):
        # beta/(eps C) (1 + 1/(4 h_*)) bounds T_total wherever it exists
        # (w(h_*) < 1) and stays finite for every h_* > 0
        leg_budget = 6.0 * dp.beta / (es.eps * es.C) * (1.0 + 0.25 / dp.h_star)
    else:
        leg_budget = 6.0 * analytic.T_total

    def no_cycle(n_seen: int, last_state=None) -> CycleReport:
        # "equilibrium" when the orbit stopped at rest, else "no_convergence"
        settled = (last_state is not None and
                   math.hypot(*field(0.0, np.asarray(last_state, dtype=float))) < 1e-8)
        return CycleReport(eps=es.eps, period=math.nan, tau_B_to_A=math.nan,
                           tau_A_to_B=math.nan, turning_points=None,
                           analytic=analytic, converged=False,
                           n_transient_periods=n_seen,
                           terminus="equilibrium" if settled else "no_convergence",
                           trajectory=None)

    def half_leg(x, t_start: float, event: EventSpec, keep_dense: bool):
        return integrate_until_event(field, x, event, cfg,
                                     t_max=t_start + leg_budget, t0=t_start,
                                     keep_dense=keep_dense)

    # reach the s-maximum section once (x0 is generically off-section)
    res = half_leg(np.asarray(tuple(start if x0 is None else x0), dtype=float),
                   0.0, s_max_ev, False)
    if not res.hit:
        return no_cycle(0, res.trajectory.states[-1])
    x = np.asarray(res.state_hit, dtype=float)
    t_now = float(res.t_hit)
    prev_return = np.array([es.eps * x[0], x[1]])

    # transient periods, then one recorded period with dense output kept
    n_periods = 0
    recording = False
    while True:
        mid = half_leg(x, t_now, s_min_ev, recording)
        if not mid.hit:
            return no_cycle(n_periods, mid.trajectory.states[-1])
        back = half_leg(np.asarray(mid.state_hit, dtype=float), float(mid.t_hit),
                        s_max_ev, recording)
        if not back.hit:
            return no_cycle(n_periods, back.trajectory.states[-1])
        if recording:
            break
        x = np.asarray(back.state_hit, dtype=float)
        t_now = float(back.t_hit)
        n_periods += 1
        this_return = np.array([es.eps * x[0], x[1]])
        recording = bool(np.max(np.abs(this_return - prev_return)) < TRANSIENT_TOL)
        if not recording and n_periods >= TRANSIENT_BUDGET:
            return no_cycle(n_periods)
        prev_return = this_return

    tau_A_to_B = mid.t_hit - t_now
    tau_B_to_A = back.t_hit - mid.t_hit
    smax_state, smin_state = back.state_hit, mid.state_hit
    if abs(float(smax_state[0]) - float(smin_state[0])) < EQUILIBRIUM_AMPLITUDE:
        return no_cycle(n_periods, smax_state)
    return CycleReport(eps=es.eps, period=tau_B_to_A + tau_A_to_B,
                       tau_B_to_A=tau_B_to_A, tau_A_to_B=tau_A_to_B,
                       turning_points=(tuple(float(v) for v in smax_state),
                                       tuple(float(v) for v in smin_state)),
                       analytic=analytic, converged=True,
                       n_transient_periods=n_periods, terminus="limit_cycle",
                       trajectory=_merge_halves(mid.trajectory, back.trajectory))


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


def winding_number(traj: Trajectory, center: tuple[float, float],
                   n_samples: int = 4096) -> int:
    """Number of revolutions a closed-orbit trajectory makes around ``center``.

    Coordinates are normalized by their observed spans before the angle
    sum so the thin-fast/wide-slow aspect of relaxation orbits cannot
    collapse the angle increments.  The count is the magnitude of the net
    swept angle over 2*pi: the circulation sense is fixed by the flow
    (clockwise in the (s, h) plane -- the fall off the acid branch happens
    at the substrate maximum) and carries no extra information, so a cycle
    that encloses ``center`` exactly once reports 1.
    """
    t = np.linspace(traj.t[0], traj.t[-1], n_samples)
    pts = traj(t)
    span = pts.max(axis=0) - pts.min(axis=0)
    if np.any(span <= 0.0):
        raise MalformedCycleError("degenerate orbit: zero coordinate span")
    x = (pts[:, 0] - center[0]) / span[0]
    y = (pts[:, 1] - center[1]) / span[1]
    angles = np.unwrap(np.arctan2(y, x))
    return int(round(abs(angles[-1] - angles[0]) / (2.0 * math.pi)))


# --- the comparison table -------------------------------------------------------

@dataclass(frozen=True)
class CompareRow:
    """One eps row: analytic and measured segment times side by side.

    measured_ratio is tau_A_to_B/tau_B_to_A (basic over acidic residence,
    the measured twin of the analytic T_basic/T_acid).  ``error`` carries
    a message when cycle detection failed; numeric fields are nan then.
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
    error: str | None = None

    def to_json_dict(self) -> dict:
        out = dataclasses.asdict(self)
        if self.error is None:
            del out["error"]
        return out


_COMPARE_COLUMNS = tuple(f.name for f in dataclasses.fields(CompareRow) if f.name != "error")


@dataclass(frozen=True)
class CompareTable:
    rows: tuple[CompareRow, ...]

    def to_csv(self, path, provenance=()) -> None:
        data = []
        for row in self.rows:
            data.append([fmt17(getattr(row, c)) for c in _COMPARE_COLUMNS])
        write_csv(path, list(_COMPARE_COLUMNS), data, provenance=list(provenance))

    def to_json(self, path, provenance=()) -> None:
        write_json(path, {"provenance": list(provenance),
                          "rows": [r.to_json_dict() for r in self.rows]})

    def format_text(self) -> str:
        headers = _COMPARE_COLUMNS
        lines = ["  ".join(f"{h:>12s}" for h in headers)]
        for row in self.rows:
            cells = []
            for c in headers:
                v = getattr(row, c)
                cells.append(f"{v:>12.6g}")
            line = "  ".join(cells)
            if row.error is not None:
                line += f"  ! {row.error}"
            lines.append(line)
        return "\n".join(lines)


def compare(dp: DimlessParams, es_list, cfg: IntegratorConfig | None = None) -> CompareTable:
    """Analytic vs measured segment times, one row per eps-split entry.

    Rows run one after another in input order; a row whose cycle detection
    fails carries the error message without affecting its neighbours.
    """
    es_list = list(es_list)
    if not es_list:
        raise DomainError("es_list must not be empty")

    def run_row(es: EpsSplit) -> CompareRow:
        ts = _analytic_or_nan(dp, es)
        fields = dict(eps=es.eps, T_acid=ts.T_acid, T_basic=ts.T_basic,
                      T_analytic=ts.T_total, ratio_analytic=ts.ratio,
                      tau_B_to_A=math.nan, tau_A_to_B=math.nan, period=math.nan,
                      ratio_measured=math.nan)
        try:
            rep = find_limit_cycle(dp, es, cfg=cfg)
        except PhoscilError as exc:
            return CompareRow(**fields, error=f"{type(exc).__name__}: {exc}")
        if rep.terminus != "limit_cycle":
            return CompareRow(**fields, error=f"no limit cycle: {rep.terminus}")
        fields.update(tau_B_to_A=rep.tau_B_to_A, tau_A_to_B=rep.tau_A_to_B,
                      period=rep.period, ratio_measured=rep.tau_A_to_B / rep.tau_B_to_A)
        return CompareRow(**fields)

    return CompareTable(rows=tuple(run_row(es) for es in es_list))
