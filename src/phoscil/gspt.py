"""Fast-slow geometry: equilibria, stability scan, manifolds, folds.

Chart A (sigma = eps*s) carries the acidic branch: its critical manifold
is the parabola sigma = phi(h) = (alpha*beta*K_h/C) h(1-h) with fold
F_A = (alpha*beta*K_h/(4C), 1/2).  Chart B (eta = h/eps) carries the
basic branch: s = psi(eta) = alpha*K_h/r_hat(eta), fold
F_B = (alpha*(2*beta+1)*K_h, C).  Both singular limits are eps-free once
C and A are fixed, so fold locations and layer problems do not move as
eps is varied; only the perturbed passage does, with the slow coordinate
overshooting the fold by O(eps^(2/3)).
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from ._fmt import fmt17, write_csv, write_json
from .cycle import analytic_timescales
from .errors import (
    DerivativeConsistencyError,
    DomainError,
    FoldSingularityError,
    NoPositiveEquilibriumError,
    PreconditionError,
    SectionNoHitError,
)
from .integrator import EventSpec, IntegratorConfig, integrate, integrate_until_event
from .model import (
    _monic_root,
    _q_hat,
    _root_slopes,
    make_field_chart_A,
    make_field_chart_B,
    rate_r,
    rate_r_hat,
    rate_r_prime,
    rhs,
    rhs_jacobian,
)
from .params import DimlessParams, EpsSplit

__all__ = [
    "FixedPoint",
    "FoldReport",
    "FoldScaling",
    "DEFAULT_EPS_A",
    "DEFAULT_EPS_B",
    "StabilityMap",
    "RegionReport",
    "fixed_point",
    "nullclines",
    "stability_scan",
    "manifold_A",
    "manifold_B",
    "manifold_A_stability",
    "manifold_B_stability",
    "fold_location_A",
    "fold_location_B",
    "layer_A",
    "layer_B",
    "slow_flow_A",
    "slow_flow_B",
    "verify_generic_fold",
    "export_fold_report",
    "fold_passage_offset",
    "invariant_region_check",
    "return_map_contraction",
]

#: absolute tolerance for the two zero conditions of a generic fold
FOLD_TOL = 1e-9


# --- fixed point and stability ------------------------------------------------

@dataclass(frozen=True)
class FixedPoint:
    s_star: float
    h_star: float
    trace: float
    det: float
    classification: str


def _classify(trace: float, det: float) -> str:
    if det < 0.0:
        return "saddle"
    if det == 0.0 or trace == 0.0:
        return "marginal"
    side = "repelling" if trace > 0.0 else "attracting"
    shape = "node" if trace * trace - 4.0 * det >= 0.0 else "focus"
    return f"{side} {shape}"


def fixed_point(dp: DimlessParams) -> FixedPoint:
    """Closed-form positive equilibrium with its Jacobian classification.

    h_star = 1 - K_s/(alpha*K_h) and s_star = K_s/r(h_star) exactly;
    requires alpha*K_h > K_s.
    """
    if not dp.admissible:
        raise NoPositiveEquilibriumError(
            f"alpha*K_h = {dp.alpha * dp.K_h!r} does not exceed K_s = {dp.K_s!r}")
    h_star = dp.h_star
    s_star = dp.K_s / rate_r(h_star, dp)
    J = rhs_jacobian((s_star, h_star), dp)
    trace = float(J[0, 0] + J[1, 1])
    det = float(J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0])
    return FixedPoint(s_star=s_star, h_star=h_star, trace=trace, det=det,
                      classification=_classify(trace, det))


def nullclines(dp: DimlessParams, h_grid) -> tuple[np.ndarray, np.ndarray]:
    """Samples of n_s(h) = K_s/r(h) and n_h(h) = alpha*K_h*(1-h)/r(h)."""
    h = np.asarray(h_grid, dtype=float)
    r = rate_r(h, dp)
    return dp.K_s / r, dp.alpha * dp.K_h * (1.0 - h) / r


def _trace_det_grid(dp: DimlessParams, K_h, alpha):
    """Vectorized trace/det of the Jacobian at the per-cell fixed point.

    At the equilibrium q = K_h(1-h*) and r(h*) s* = K_s, which removes
    every quadratic solve from the cell formulas.
    """
    K_h = np.asarray(K_h, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    h = 1.0 - dp.K_s / (alpha * K_h)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = 1.0 / (dp.beta * dp.eps1 / h + 1.0 + dp.beta * h / dp.eps1)
        rp = (dp.beta * dp.eps1 / (h * h) - dp.beta / dp.eps1) * r * r
        s = dp.K_s / r
        q = K_h * (1.0 - h)
        v = alpha * dp.K / dp.eps2 * h * h - q
        w_s = dp.K / dp.eps2 * r * h * h
        w_h = dp.K / dp.eps2 * s * (rp * h * h + 2.0 * r * h)
        v_h = 2.0 * alpha * dp.K / dp.eps2 * h + K_h
        q_s, q_h = _root_slopes(q, 2.0 * q + v, w_s, w_h, v_h)
        f_s = -r
        f_h = -rp * s
        g_s = -q_s
        g_h = -q_h - K_h
        trace = f_s + g_h
        det = f_s * g_h - f_h * g_s
    return trace, det


@dataclass(frozen=True)
class StabilityMap:
    """Grid of Jacobian data over (K_h/K_s, 1/alpha).

    ``hopf`` is the trace-zero boundary as (kh_over_ks, inv_alpha) points,
    one bisection-refined root per sign change along each grid column.
    """

    kh_over_ks: np.ndarray
    inv_alpha: np.ndarray
    trace: np.ndarray        # shape (n_kh, n_ia); nan on inadmissible cells
    det: np.ndarray
    admissible: np.ndarray   # bool
    oscillates: np.ndarray   # bool: trace>0, det>0 and admissible
    boundary: np.ndarray     # bool: cell adjacent to a trace sign change
    hopf: tuple[tuple[float, float], ...]

    def to_csv(self, path, provenance=()) -> None:
        rows = []
        for i, x in enumerate(self.kh_over_ks):
            for j, y in enumerate(self.inv_alpha):
                rows.append([
                    fmt17(x), fmt17(y),
                    fmt17(self.trace[i, j]), fmt17(self.det[i, j]),
                    "1" if self.oscillates[i, j] else "0",
                ])
        write_csv(path, ["kh_over_ks", "inv_alpha", "trace", "det", "oscillates"],
                  rows, provenance=list(provenance))

    def to_json_dict(self) -> dict:
        """Every field in declaration order, arrays as nested lists."""
        return {f.name: np.asarray(getattr(self, f.name)).tolist()
                for f in dataclasses.fields(self)}


def stability_scan(dp: DimlessParams,
                   kh_over_ks: tuple[float, float],
                   inv_alpha: tuple[float, float],
                   shape: tuple[int, int]) -> StabilityMap:
    """Trace/det of the per-cell fixed point over a parameter rectangle.

    Each cell keeps the base parameters except K_h = x*K_s and
    alpha = 1/y.  Cells with x <= y have no positive equilibrium and are
    marked inadmissible rather than errored.  The whole grid is evaluated
    in closed form by one vectorized call.
    """
    nx, ny = shape
    if nx < 2 or ny < 2:
        raise DomainError(f"grid shape must be at least 2x2, got {shape!r}")
    xs = np.linspace(kh_over_ks[0], kh_over_ks[1], nx)
    ys = np.linspace(inv_alpha[0], inv_alpha[1], ny)
    if np.any(xs <= 0.0) or np.any(ys <= 0.0):
        raise DomainError("scan ranges must be strictly positive")

    admissible = xs[:, None] > ys[None, :]
    trace, det = _trace_det_grid(dp, (xs * dp.K_s)[:, None], (1.0 / ys)[None, :])
    trace[~admissible] = np.nan
    det[~admissible] = np.nan
    oscillates = admissible & (trace > 0.0) & (det > 0.0)

    # cells adjacent to a trace sign change between admissible neighbours
    boundary = np.zeros((nx, ny), dtype=bool)
    sign_flip_x = (trace[:-1, :] * trace[1:, :] < 0.0) & admissible[:-1, :] & admissible[1:, :]
    sign_flip_y = (trace[:, :-1] * trace[:, 1:] < 0.0) & admissible[:, :-1] & admissible[:, 1:]
    boundary[:-1, :] |= sign_flip_x
    boundary[1:, :] |= sign_flip_x
    boundary[:, :-1] |= sign_flip_y
    boundary[:, 1:] |= sign_flip_y

    hopf: list[tuple[float, float]] = []
    for i in range(nx):
        K_h = xs[i] * dp.K_s

        def trace_at(y: float) -> float:
            t, _ = _trace_det_grid(dp, K_h, 1.0 / y)
            return float(t)

        for j in range(ny - 1):
            if sign_flip_y[i, j]:
                root = brentq(trace_at, ys[j], ys[j + 1], xtol=1e-6)
                hopf.append((float(xs[i]), float(root)))
    return StabilityMap(kh_over_ks=xs, inv_alpha=ys, trace=trace, det=det,
                        admissible=admissible, oscillates=oscillates,
                        boundary=boundary, hopf=tuple(hopf))


# --- critical manifolds, layer problems, slow flows ---------------------------

def fold_location_A(es: EpsSplit, dp: DimlessParams) -> tuple[float, float]:
    """(sigma_A, h_A) = (alpha*beta*K_h/(4C), 1/2)."""
    return (dp.alpha * dp.beta * dp.K_h / (4.0 * es.C), 0.5)


def fold_location_B(es: EpsSplit, dp: DimlessParams) -> tuple[float, float]:
    """(s_B, eta_B) = (alpha*(2*beta+1)*K_h, C)."""
    return (dp.alpha * (2.0 * dp.beta + 1.0) * dp.K_h, es.C)


def manifold_A(h, es: EpsSplit, dp: DimlessParams):
    """phi(h) = (alpha*beta*K_h/C) h(1-h), the chart-A critical manifold."""
    h_arr = np.asarray(h, dtype=float)
    if np.any(h_arr <= 0.0) or np.any(h_arr >= 1.0):
        raise DomainError("manifold_A requires h in (0, 1)")
    out = (dp.alpha * dp.beta * dp.K_h / es.C) * h_arr * (1.0 - h_arr)
    return float(out) if out.ndim == 0 else out


def manifold_B(eta, es: EpsSplit, dp: DimlessParams):
    """psi(eta) = alpha*K_h/r_hat(eta), the chart-B critical manifold."""
    eta_arr = np.asarray(eta, dtype=float)
    if np.any(eta_arr <= 0.0):
        raise DomainError("manifold_B requires eta > 0")
    out = dp.alpha * dp.K_h * (dp.beta * es.C / eta_arr + 1.0 + (dp.beta / es.C) * eta_arr)
    return float(out) if out.ndim == 0 else out


def manifold_A_stability(h, es: EpsSplit, dp: DimlessParams):
    """d(g0)/dh on the chart-A manifold: -2 K_h (h - 1/2)/h.

    Negative values mark the attracting branch (h > 1/2), positive the
    repelling one.
    """
    h_arr = np.asarray(h, dtype=float)
    if np.any(h_arr <= 0.0) or np.any(h_arr >= 1.0):
        raise DomainError("manifold_A_stability requires h in (0, 1)")
    out = -2.0 * dp.K_h * (h_arr - 0.5) / h_arr
    return float(out) if out.ndim == 0 else out


def manifold_B_stability(eta, es: EpsSplit, dp: DimlessParams):
    """d(g0)/deta on the chart-B manifold; negative (attracting) for eta < C."""
    eta_arr = np.asarray(eta, dtype=float)
    if np.any(eta_arr <= 0.0):
        raise DomainError("manifold_B_stability requires eta > 0")
    eta_B = es.C
    out = (dp.beta / es.C) * dp.K_h * rate_r_hat(eta_arr, es, dp) \
        * (eta_arr ** 2 - eta_B ** 2) / (eta_arr ** 2 + dp.K_h / (dp.alpha * es.A * dp.K))
    return float(out) if out.ndim == 0 else out


def layer_A(sigma, h, es: EpsSplit, dp: DimlessParams) -> tuple[float, float]:
    """Singular-limit chart-A pair (f0, g0) at (sigma, h).

    f0 = K_s - C*sigma/(beta*h); g0 = K_h(1-h) - C*sigma/(alpha*beta*h).
    """
    sigma_arr = np.asarray(sigma, dtype=float)
    h_arr = np.asarray(h, dtype=float)
    if np.any(h_arr <= 0.0):
        raise DomainError("layer_A requires h > 0")
    f0 = dp.K_s - es.C * sigma_arr / (dp.beta * h_arr)
    g0 = dp.K_h * (1.0 - h_arr) - es.C * sigma_arr / (dp.alpha * dp.beta * h_arr)
    if f0.ndim == 0:
        return float(f0), float(g0)
    return f0, g0


def layer_B(s, eta, es: EpsSplit, dp: DimlessParams) -> tuple[float, float]:
    """Singular-limit chart-B pair (f0, g0); g0 extends to 0 on the s-axis."""
    s_arr = np.asarray(s, dtype=float)
    eta_arr = np.asarray(eta, dtype=float)
    if np.any(s_arr < 0.0) or np.any(eta_arr < 0.0):
        raise DomainError("layer_B requires s >= 0 and eta >= 0")
    with np.errstate(divide="ignore"):
        r_hat = np.where(eta_arr > 0.0,
                         eta_arr / (dp.beta * es.C + eta_arr + (dp.beta / es.C) * eta_arr ** 2),
                         0.0)
    f0 = dp.K_s - r_hat * s_arr
    g0 = dp.K_h - _q_hat(s_arr, eta_arr, es.at_eps(0.0), dp)
    if f0.ndim == 0:
        return float(f0), float(g0)
    return f0, g0


def slow_flow_A(h, es: EpsSplit, dp: DimlessParams):
    """Reduced flow dh/dtau = -C h_A (h - h_star) / (beta (h - h_A))."""
    h_arr = np.asarray(h, dtype=float)
    if np.any(h_arr == 0.5):
        raise FoldSingularityError("slow_flow_A is singular at the fold h = 1/2")
    out = -es.C * 0.5 * (h_arr - dp.h_star) / (dp.beta * (h_arr - 0.5))
    return float(out) if out.ndim == 0 else out


def slow_flow_B(eta, es: EpsSplit, dp: DimlessParams):
    """Reduced flow deta/dt = (C h_star / beta) eta^2 / (eta_B^2 - eta^2)."""
    eta_arr = np.asarray(eta, dtype=float)
    eta_B = es.C
    if np.any(eta_arr == eta_B):
        raise FoldSingularityError("slow_flow_B is singular at the fold eta = C")
    out = (es.C * dp.h_star / dp.beta) * eta_arr ** 2 / (eta_B ** 2 - eta_arr ** 2)
    return float(out) if out.ndim == 0 else out


# --- generic-fold verification -------------------------------------------------

@dataclass(frozen=True)
class FoldReport:
    """The five fold-point quantities of one chart plus the genericity flag.

    is_generic requires |g0_value| <= tol, |dg0_fast| <= tol,
    d2g0_fast != 0, dg0_slow != 0 and f0_value != 0 (tol = FOLD_TOL).
    """

    chart: str
    fold_location: tuple[float, float]
    g0_value: float
    dg0_fast: float
    d2g0_fast: float
    dg0_slow: float
    f0_value: float
    is_generic: bool

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)


def _d1(f, x: float) -> float:
    step = 1e-6 * max(abs(x), 1.0)
    return (f(x + step) - f(x - step)) / (2.0 * step)


def _d2(f, x: float) -> float:
    step = 1e-3 * max(abs(x), 1.0)
    return (f(x + step) - 2.0 * f(x) + f(x - step)) / (step * step)


def _check_consistency(name: str, analytic: float, numeric: float, scale: float) -> None:
    # the absolute floor absorbs central-difference rounding noise when the
    # true value is zero (fold conditions); real algebra errors are O(1) relative
    diff = abs(analytic - numeric)
    if diff > 1e-8 * max(1.0, scale) and diff > 1e-5 * max(abs(analytic), abs(numeric)):
        raise DerivativeConsistencyError(
            f"{name}: analytic {analytic!r} vs central-difference {numeric!r}")


def _chart_A_derivatives(sigma: float, h: float, es: EpsSplit, dp: DimlessParams):
    c = es.C / (dp.alpha * dp.beta)
    g0 = dp.K_h * (1.0 - h) - c * sigma / h
    dg_h = c * sigma / (h * h) - dp.K_h
    d2g_h = -2.0 * c * sigma / h ** 3
    dg_sigma = -c / h
    return g0, dg_h, d2g_h, dg_sigma


def _chart_B_derivatives(s: float, eta: float, es: EpsSplit, dp: DimlessParams):
    aAK = dp.alpha * es.A * dp.K
    D = dp.beta * es.C + eta + (dp.beta / es.C) * eta * eta
    D1 = 1.0 + 2.0 * (dp.beta / es.C) * eta
    D2 = 2.0 * dp.beta / es.C
    u = eta ** 3 / D
    u1 = eta * eta * (3.0 * D - eta * D1) / (D * D)
    u2 = (6.0 * eta - 2.0 * u1 * D1 - u * D2) / D
    v = aAK * eta * eta - dp.K_h
    v1 = 2.0 * aAK * eta
    v2 = 2.0 * aAK
    w = es.A * dp.K * u * s
    w1 = es.A * dp.K * u1 * s
    w2 = es.A * dp.K * u2 * s
    q = _monic_root(v, w)
    denom = 2.0 * q + v  # equals sqrt(v^2 + 4w) > 0 away from (w, v) = (0, 0)
    q_s, q1 = _root_slopes(q, denom, es.A * dp.K * u, w1, v1)
    q2 = ((w2 - q1 * v1 - q * v2) * denom - (w1 - q * v1) * (2.0 * q1 + v1)) / (denom * denom)
    g0 = dp.K_h - q
    return g0, -q1, -q2, -q_s


def verify_generic_fold(chart: str, es: EpsSplit, dp: DimlessParams) -> FoldReport:
    """Evaluate the generic-fold conditions at a chart's fold point.

    The three derivatives are computed analytically and re-checked by
    central differences of the layer problem; disagreement beyond 1e-5
    relative raises DerivativeConsistencyError.  The genericity flag uses
    the analytic values with the FOLD_TOL zero tolerance.
    """
    if chart == "A":
        sigma_A, h_A = fold_location_A(es, dp)
        g0, dg_fast, d2g_fast, dg_slow = _chart_A_derivatives(sigma_A, h_A, es, dp)
        # f0 at the fold reduces to K_s - alpha*K_h/2; the closed form keeps
        # an exactly-degenerate input exactly degenerate.
        f0 = dp.K_s - 0.5 * dp.alpha * dp.K_h
        g_of_h = lambda h: layer_A(sigma_A, h, es, dp)[1]
        g_of_sigma = lambda sg: layer_A(sg, h_A, es, dp)[1]
        _check_consistency("chart A d(g0)/dh", dg_fast, _d1(g_of_h, h_A), dp.K_h)
        _check_consistency("chart A d2(g0)/dh2", d2g_fast, _d2(g_of_h, h_A), dp.K_h)
        _check_consistency("chart A d(g0)/dsigma", dg_slow, _d1(g_of_sigma, sigma_A), dp.K_h)
        location = (sigma_A, h_A)
    elif chart == "B":
        s_B, eta_B = fold_location_B(es, dp)
        g0, dg_fast, d2g_fast, dg_slow = _chart_B_derivatives(s_B, eta_B, es, dp)
        # r_hat(eta_B) * s_B = alpha*K_h identically, so f0 = K_s - alpha*K_h.
        f0 = dp.K_s - dp.alpha * dp.K_h
        g_of_eta = lambda eta: layer_B(s_B, eta, es, dp)[1]
        g_of_s = lambda s: layer_B(s, eta_B, es, dp)[1]
        _check_consistency("chart B d(g0)/deta", dg_fast, _d1(g_of_eta, eta_B), dp.K_h)
        _check_consistency("chart B d2(g0)/deta2", d2g_fast, _d2(g_of_eta, eta_B), dp.K_h)
        _check_consistency("chart B d(g0)/ds", dg_slow, _d1(g_of_s, s_B), dp.K_h)
        location = (s_B, eta_B)
    else:
        raise DomainError(f"chart must be 'A' or 'B', got {chart!r}")
    is_generic = (abs(g0) <= FOLD_TOL and abs(dg_fast) <= FOLD_TOL
                  and d2g_fast != 0.0 and dg_slow != 0.0 and f0 != 0.0)
    return FoldReport(chart=chart, fold_location=location, g0_value=float(g0),
                      dg0_fast=float(dg_fast), d2g0_fast=float(d2g_fast),
                      dg0_slow=float(dg_slow), f0_value=float(f0), is_generic=is_generic)


def export_fold_report(report: FoldReport, path, provenance=()) -> None:
    payload = {"provenance": list(provenance)}
    payload.update(report.to_json_dict())
    write_json(path, payload)


# --- fold passage scaling -------------------------------------------------------

@dataclass(frozen=True)
class FoldScaling:
    chart: str
    entries: tuple[tuple[float, float], ...]  # (eps, offset)
    slope: float


#: five log-spaced eps per chart, two decades each, inside the scaling regime
DEFAULT_EPS_A = tuple(float(e) for e in np.logspace(-6.0, -4.0, 5))
DEFAULT_EPS_B = tuple(float(e) for e in np.logspace(-7.0, -5.0, 5))


def _eta_start_B(es: EpsSplit, dp: DimlessParams) -> float:
    # smaller root of psi(eta) = 1.4 s_B: (beta/C) eta^2 - (1.4(2 beta+1) - 1) eta + beta C = 0
    a = dp.beta / es.C
    b = -(1.4 * (2.0 * dp.beta + 1.0) - 1.0)
    c = dp.beta * es.C
    disc = math.sqrt(b * b - 4.0 * a * c)
    return (-b - disc) / (2.0 * a)


def fold_passage_offset(chart: str, eps_list, es: EpsSplit, dp: DimlessParams,
                        cfg: IntegratorConfig | None = None) -> FoldScaling:
    """Slow-coordinate overshoot past the fold for each eps, with its slope.

    The start point sits on the attracting branch of the critical
    manifold with slow coordinate at 60% of the fold's (chart A) or 140%
    (chart B); the run ends on the downstream section h = h_A/2
    (falling), respectively eta = 2 eta_B (rising).  The offset is the
    distance of the slow coordinate from the fold's at the section, and
    the fitted log-log slope estimates the eps^(2/3) passage law.

    Every eps must be small enough for a well-defined passage, i.e. the
    layer attraction onto the manifold branch must stay fast against the
    slow drift.  Chart A is clean for eps <= 1e-4; chart B's branch is
    only weakly attracting (the layer rate is ~1e-4 for these
    parameters), so its asymptotic range starts around eps <= 1e-5.
    DEFAULT_EPS_A and DEFAULT_EPS_B hold ranges measured to sit inside
    the scaling regime.
    """
    eps_arr = sorted(float(e) for e in eps_list)
    if len(eps_arr) < 2:
        raise PreconditionError("eps_list needs at least two entries")
    span = math.log10(eps_arr[-1] / eps_arr[0])
    if span < 1.5:
        raise PreconditionError(f"eps_list must span >= 1.5 decades, got {span:.3f}")
    cfg = cfg if cfg is not None else IntegratorConfig()

    entries = []
    for eps in eps_arr:
        es_i = es.at_eps(eps)
        if chart == "A":
            sigma_A, h_A = fold_location_A(es_i, dp)
            h_start = 0.5 * (1.0 + math.sqrt(0.4))  # phi(h_start) = 0.6 sigma_A
            x0 = (manifold_A(h_start, es_i, dp), h_start)
            field = make_field_chart_A(es_i, dp)
            event = EventSpec(func=lambda t, y: y[1] - 0.5 * h_A, direction="falling")
            t_max = 0.05 / eps + 50.0
            fold_coord, coord_index = sigma_A, 0
        elif chart == "B":
            s_B, eta_B = fold_location_B(es_i, dp)
            eta_start = _eta_start_B(es_i, dp)
            x0 = (manifold_B(eta_start, es_i, dp), eta_start)
            field = make_field_chart_B(es_i, dp)
            event = EventSpec(func=lambda t, y: y[1] - 2.0 * eta_B, direction="rising")
            t_max = 50.0 / eps + 1000.0
            fold_coord, coord_index = s_B, 0
        else:
            raise DomainError(f"chart must be 'A' or 'B', got {chart!r}")
        res = integrate_until_event(field, x0, event, cfg, t_max=t_max, keep_dense=False)
        if not res.hit:
            raise SectionNoHitError(
                f"chart {chart}, eps = {eps}: no section hit within t = {t_max}")
        offset = abs(float(res.state_hit[coord_index]) - fold_coord)
        entries.append((eps, offset))

    logs = np.log(np.asarray(entries))
    slope = float(np.polyfit(logs[:, 0], logs[:, 1], 1)[0])
    return FoldScaling(chart=chart, entries=tuple(entries), slope=slope)


# --- invariant region -----------------------------------------------------------

@dataclass(frozen=True)
class RegionReport:
    ok: bool
    h_nul: float
    h_top: float
    s_nul: float
    violations: tuple[tuple[str, float, float, float], ...]  # (segment, s, h, value)


def invariant_region_check(dp: DimlessParams, samples: int = 200,
                           h_top: float = 1.2, s_nul: float = 10.0) -> RegionReport:
    """Check that the flow points inward on the trapping-region boundary.

    The region is bounded by s = 0, s = s_nul, h = h_top and the small-h
    root h_nul of n_s(h) = s_nul.  Inwardness means ds/dt > 0 on s = 0,
    ds/dt < 0 on s = s_nul, and dh/dt <= K_h(1-h_top) < 0 on h = h_top.
    The corner (s_nul, h_nul) itself lies on the s-nullcline, where the
    field is tangent to the boundary, so the s = s_nul segment is sampled
    on the half-open interval (h_nul, h_top].
    """
    if not h_top > 1.0:
        raise PreconditionError(f"h_top must exceed 1, got {h_top!r}")
    fp = fixed_point(dp)
    s_floor = max(dp.K_s / rate_r(h_top, dp), fp.s_star)
    if not s_nul > s_floor:
        raise PreconditionError(f"s_nul must exceed {s_floor!r}, got {s_nul!r}")
    if samples < 2:
        raise PreconditionError(f"samples must be >= 2, got {samples!r}")

    r_target = dp.K_s / s_nul
    h_nul = float(brentq(lambda h: rate_r(h, dp) - r_target, 1e-30, dp.eps1,
                         xtol=1e-30, rtol=8.0 * np.finfo(float).eps))

    violations: list[tuple[str, float, float, float]] = []
    h_line = np.linspace(h_nul, h_top, samples)
    for h in h_line:
        ds = rhs((0.0, float(h)), dp)[0]
        if not ds > 0.0:
            violations.append(("s=0", 0.0, float(h), float(ds)))
    for h in np.linspace(h_nul, h_top, samples + 1)[1:]:
        ds = rhs((s_nul, float(h)), dp)[0]
        if not ds < 0.0:
            violations.append(("s=s_nul", s_nul, float(h), float(ds)))
    cap = dp.K_h * (1.0 - h_top)
    for s in np.linspace(0.0, s_nul, samples):
        dh = rhs((float(s), h_top), dp)[1]
        if not (dh <= cap < 0.0):
            violations.append(("h=h_top", float(s), h_top, float(dh)))
    return RegionReport(ok=not violations, h_nul=h_nul, h_top=h_top, s_nul=s_nul,
                        violations=tuple(violations))


# --- return-map contraction ------------------------------------------------------

def return_map_contraction(dp: DimlessParams, es: EpsSplit,
                           cfg: IntegratorConfig | None = None) -> float:
    """Displacement ratio of two successive returns to a chart-A section.

    The section is sigma = 0.6 sigma_A, crossed rising.  An orbit is
    first relaxed onto the cycle, then restarted from the section with h
    displaced by 5% relative; the ratio |h2 - h1| / |h1 - h0| of
    successive return displacements measures the return-map contraction
    (values << 1 mean strong contraction).
    """
    cfg = cfg if cfg is not None else IntegratorConfig()
    sigma_A, _ = fold_location_A(es, dp)
    section = 0.6 * sigma_A
    field = make_field_chart_A(es, dp)
    event = EventSpec(func=lambda t, y: y[0] - section, direction="rising")
    period_guess = analytic_timescales(dp, es).T_total

    relax = integrate(field, (section, 0.95), (0.0, 3.0 * period_guess), cfg,
                      events=[event], keep_dense=False)
    crossings = [hit.state for hit in relax.events]
    if len(crossings) < 2:
        raise SectionNoHitError("orbit failed to return twice to the chart-A section")
    h_cycle = float(crossings[-1][1])

    h0 = h_cycle * 1.05
    run = integrate(field, (section, h0), (0.0, 3.0 * period_guess), cfg,
                    events=[event], keep_dense=False)
    returns = [float(hit.state[1]) for hit in run.events]
    if len(returns) < 2:
        raise SectionNoHitError("perturbed orbit failed to return twice to the section")
    d1 = abs(returns[0] - h0)
    d2 = abs(returns[1] - returns[0])
    if d1 < 1e-13:
        return 0.0
    return d2 / d1
