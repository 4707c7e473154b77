"""Fast-slow geometry: equilibria, stability scan, manifolds, folds.

Chart A (sigma = eps*s) carries the acidic branch: its critical manifold
is the parabola sigma = phi(h) = (alpha*beta*K_h/C) h(1-h) with fold
F_A = (alpha*beta*K_h/(4C), 1/2).  Chart B (eta = h/eps) carries the
basic branch: s = psi(eta) = alpha*K_h/r_hat(eta), fold
F_B = (alpha*(2*beta+1)*K_h, C).  Both singular limits are eps-free once
C and A are fixed, so fold locations and layer problems do not move as
eps is varied; only the perturbed passage does, with the slow coordinate
overshooting the fold by O(eps^(2/3)).  How strongly the cycle attracts
is read from its recorded period by ``cycle.floquet_exponent``.

Each public evaluator of a coordinate checks it once, at entry, by the
model's rule: finite and inside the bound it states, else a DomainError
naming the function or chart.  The slow flows also raise
FoldSingularityError at their fold.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._fmt import fmt17, write_csv
from .errors import (
    DomainError,
    FoldSingularityError,
    NoPositiveEquilibriumError,
    PreconditionError,
    SectionNoHitError,
)
from .integrator import (EventSpec, IntegratorConfig, SolverStats, _brentq, _fork_map,
                         integrate_until_event)
from .model import (
    _arg,
    _chart_A,
    _chart_B,
    _in_float_range,
    _jacobian_rows,
    _monic_root,
    _out,
    _rate,
    _rate_hat,
    _root_slopes,
    make_field_chart_A,
    make_field_chart_B,
    rate_r,
    rhs,
)
from .params import DimlessParams, EpsSplit, _as_float

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
    "fold_passage_offset",
    "invariant_region_check",
]

#: tolerance for the two zero conditions of a generic fold, relative to
#: the size of their terms: K_h for g0 and K_h/|fast| for dg0_fast
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

    The package's one existence test: alpha*K_h > K_s, else NoPositiveEquilibriumError.
    h_star = 1 - K_s/(alpha*K_h) and s_star = K_s/r(h_star) exactly; trace and det are
    ``_trace_det_grid``'s, the formula of every scan cell and Hopf refinement step.
    """
    if not dp.admissible:
        raise NoPositiveEquilibriumError(
            f"alpha*K_h = {dp.alpha * dp.K_h!r} does not exceed K_s = {dp.K_s!r}")
    h_star = dp.h_star
    s_star = dp.K_s / rate_r(h_star, dp)
    trace, det = map(float, _trace_det_grid(dp, dp.K_h, dp.alpha))
    return FixedPoint(s_star=s_star, h_star=h_star, trace=trace, det=det,
                      classification=_classify(trace, det))


@_in_float_range
def nullclines(dp: DimlessParams, h_grid) -> tuple[np.ndarray, np.ndarray]:
    """Samples of n_s(h) = K_s/r(h) and n_h(h) = alpha*K_h*(1-h)/r(h), for h > 0."""
    h = _arg("nullclines", h_grid, "h > 0")
    r = _rate(h, dp)
    return _out(dp.K_s / r, dp.alpha * dp.K_h * (1.0 - h) / r)


def _trace_det_grid(dp: DimlessParams, K_h, alpha):
    """Vectorized trace/det of the Jacobian at the per-cell fixed point.

    At the equilibrium q = K_h(1-h*) and r(h*) s* = K_s, which removes
    every quadratic solve from the cell formulas.
    """
    K_h = np.asarray(K_h, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    h = 1.0 - dp.K_s / (alpha * K_h)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = _rate(h, dp)
        q = K_h * (1.0 - h)
        f_s, f_h, g_s, g_h = _jacobian_rows(dp.K_s / r, h, r, q,
                                            alpha * dp.K / dp.eps2 * h * h - q, alpha, K_h, dp)
        trace = f_s + g_h
        det = f_s * g_h - f_h * g_s
    return trace, det


def _opposite(a, b):
    """Where a and b are nonzero with opposite signs; a*b < 0 would overflow or underflow."""
    return (a < 0.0) & (b > 0.0) | (a > 0.0) & (b < 0.0)


@dataclass(frozen=True)
class StabilityMap:
    """Grid of Jacobian data over (K_h/K_s, 1/alpha).

    ``hopf`` is the trace-zero boundary as (kh_over_ks, inv_alpha) points,
    one bisection-refined root per sign change along each grid column,
    refined on first read: the CSV never reads it.
    """

    kh_over_ks: np.ndarray
    inv_alpha: np.ndarray
    trace: np.ndarray        # shape (n_kh, n_ia); nan on inadmissible cells
    det: np.ndarray
    admissible: np.ndarray   # bool
    oscillates: np.ndarray   # bool: trace>0, det>0 and admissible
    boundary: np.ndarray     # bool: cell adjacent to a trace sign change
    _dp: DimlessParams = dataclasses.field(default=None, repr=False, compare=False)

    @functools.cached_property
    def hopf(self) -> tuple[tuple[float, float], ...]:
        flips = _opposite(self.trace[:, :-1], self.trace[:, 1:])  # NaN has no sign
        hopf = []
        for i, j in zip(*np.nonzero(flips)):
            K_h = self.kh_over_ks[i] * self._dp.K_s
            root, _ = _brentq(lambda y: float(_trace_det_grid(self._dp, K_h, 1.0 / y)[0]),
                              self.inv_alpha[j], self.inv_alpha[j + 1], xtol=1e-6)
            hopf.append((float(self.kh_over_ks[i]), root))
        return tuple(hopf)

    def to_csv(self, path, provenance=()) -> None:
        """One row per cell, kh_over_ks-major, streamed one kh row at a time.

        Each coordinate is formatted once with ``fmt17`` and repeated, so an
        nx x ny grid costs nx + ny ``fmt17`` calls; trace and det go to the
        writer's ``%.17g``.
        """
        ys = [fmt17(y) for y in self.inv_alpha.tolist()]

        def rows():
            for x, tr, det, osc in zip(self.kh_over_ks.tolist(), self.trace,
                                       self.det, self.oscillates):
                yield from zip(itertools.repeat(fmt17(x)), ys, tr.tolist(), det.tolist(),
                               osc.tolist())

        write_csv(path, ["kh_over_ks", "inv_alpha", "trace", "det", "oscillates"],
                  "%s,%s,%.17g,%.17g,%d", rows(), provenance=list(provenance))

    def to_json_dict(self) -> dict:
        """Every public field in declaration order, then ``hopf``; arrays as nested lists."""
        return {name: np.asarray(getattr(self, name)).tolist() for name in
                [f.name for f in dataclasses.fields(self) if f.name != "_dp"] + ["hopf"]}


#: cells per ``_trace_det_grid`` call in ``stability_scan``
_SCAN_BLOCK = 4096


def stability_scan(dp: DimlessParams,
                   kh_over_ks: tuple[float, float],
                   inv_alpha: tuple[float, float],
                   shape: tuple[int, int]) -> StabilityMap:
    """Trace/det of the per-cell fixed point over a parameter rectangle.

    Each cell keeps the base parameters except K_h = x*K_s and
    alpha = 1/y.  Cells with x <= y have no positive equilibrium and are
    marked inadmissible rather than errored.  The grid is evaluated in
    closed form, in blocks of about ``_SCAN_BLOCK`` cells, so the kernel's
    temporaries stay block-sized; it is elementwise, so blocking does not
    change a bit.
    """
    nx, ny = shape
    if nx < 2 or ny < 2:
        raise DomainError(f"grid shape must be at least 2x2, got {shape!r}")
    xs = np.linspace(*_arg("stability_scan", kh_over_ks, "kh_over_ks > 0"), nx)
    ys = np.linspace(*_arg("stability_scan", inv_alpha, "inv_alpha > 0"), ny)

    admissible = xs[:, None] > ys[None, :]
    K_h, alpha = (xs * dp.K_s)[:, None], (1.0 / ys)[None, :]
    trace, det = np.empty((nx, ny)), np.empty((nx, ny))
    step = max(1, _SCAN_BLOCK // ny)
    for i in range(0, nx, step):
        block_alpha = np.where(admissible[i:i + step], alpha, np.nan)  # NaN in, NaN out
        trace[i:i + step], det[i:i + step] = _trace_det_grid(dp, K_h[i:i + step], block_alpha)
    oscillates = (trace > 0.0) & (det > 0.0)

    # cells adjacent to a trace sign change between admissible neighbours (NaN has no sign)
    boundary = np.zeros((nx, ny), dtype=bool)
    sign_flip_x = _opposite(trace[:-1, :], trace[1:, :])
    sign_flip_y = _opposite(trace[:, :-1], trace[:, 1:])
    boundary[:-1, :] |= sign_flip_x
    boundary[1:, :] |= sign_flip_x
    boundary[:, :-1] |= sign_flip_y
    boundary[:, 1:] |= sign_flip_y

    return StabilityMap(kh_over_ks=xs, inv_alpha=ys, trace=trace, det=det,
                        admissible=admissible, oscillates=oscillates,
                        boundary=boundary, _dp=dp)


# --- critical manifolds, layer problems, slow flows ---------------------------

def fold_location_A(es: EpsSplit, dp: DimlessParams) -> tuple[float, float]:
    """(sigma_A, h_A) = (alpha*beta*K_h/(4C), 1/2)."""
    return (dp.alpha * dp.beta * dp.K_h / (4.0 * es.C), 0.5)


def fold_location_B(es: EpsSplit, dp: DimlessParams) -> tuple[float, float]:
    """(s_B, eta_B) = (alpha*(2*beta+1)*K_h, C)."""
    return (dp.alpha * (2.0 * dp.beta + 1.0) * dp.K_h, es.C)


@_in_float_range
def manifold_A(h, es: EpsSplit, dp: DimlessParams):
    """phi(h) = (alpha*beta*K_h/C) h(1-h), the chart-A critical manifold, for h in (0, 1)."""
    h = _arg("manifold_A", h, "h in (0, 1)")
    return _out((dp.alpha * dp.beta * dp.K_h / es.C) * h * (1.0 - h))


@_in_float_range
def manifold_B(eta, es: EpsSplit, dp: DimlessParams):
    """psi(eta) = alpha*K_h/r_hat(eta), the chart-B critical manifold, for eta > 0."""
    eta = _arg("manifold_B", eta, "eta > 0")
    return _out(dp.alpha * dp.K_h * (dp.beta * es.C / eta + 1.0 + (dp.beta / es.C) * eta))


@_in_float_range
def manifold_A_stability(h, es: EpsSplit, dp: DimlessParams):
    """d(g0)/dh on the chart-A manifold: -2 K_h (h - 1/2)/h.

    Negative values mark the attracting branch (h > 1/2), positive the
    repelling one.  h lies in (0, 1).
    """
    h = _arg("manifold_A_stability", h, "h in (0, 1)")
    return _out(-2.0 * dp.K_h * (h - 0.5) / h)


@_in_float_range
def manifold_B_stability(eta, es: EpsSplit, dp: DimlessParams):
    """d(g0)/deta on the chart-B manifold, eta > 0; negative (attracting) for eta < C."""
    eta = _arg("manifold_B_stability", eta, "eta > 0")
    eta_B = es.C
    return _out((dp.beta / es.C) * dp.K_h * _rate_hat(eta, es, dp)
                * (eta ** 2 - eta_B ** 2) / (eta ** 2 + dp.K_h / (dp.alpha * es.A * dp.K)))


@_in_float_range
def layer_A(sigma, h, es: EpsSplit, dp: DimlessParams) -> tuple[float, float]:
    """Layer problem of chart A, its (f_tilde, g_tilde) at eps = 0, for sigma >= 0 and h > 0.

    f0 = K_s - C*sigma/(beta*h); g0 = K_h(1-h) - C*sigma/(alpha*beta*h).
    """
    return _chart_A(sigma, h, es.at_eps(0.0), dp)


@_in_float_range
def layer_B(s, eta, es: EpsSplit, dp: DimlessParams) -> tuple[float, float]:
    """Layer problem of chart B: its (f_hat, g_hat) at eps = 0; g0 is 0 on the s-axis."""
    return _chart_B(s, eta, es.at_eps(0.0), dp)


@_in_float_range
def slow_flow_A(h, es: EpsSplit, dp: DimlessParams):
    """Reduced flow dh/dtau = -C h_A (h - h_star) / (beta (h - h_A)), for finite h."""
    h = _arg("slow_flow_A", h, "h")
    if np.any(h == 0.5):
        raise FoldSingularityError("slow_flow_A is singular at the fold h = 1/2")
    return _out(-es.C * 0.5 * (h - dp.h_star) / (dp.beta * (h - 0.5)))


@_in_float_range
def slow_flow_B(eta, es: EpsSplit, dp: DimlessParams):
    """Reduced flow deta/dt = (C h_star / beta) eta^2 / (eta_B^2 - eta^2), for finite eta."""
    eta = _arg("slow_flow_B", eta, "eta")
    eta_B = es.C
    if np.any(eta == eta_B):
        raise FoldSingularityError("slow_flow_B is singular at the fold eta = C")
    return _out((es.C * dp.h_star / dp.beta) * eta ** 2 / (eta_B ** 2 - eta ** 2))


# --- generic-fold verification -------------------------------------------------

@dataclass(frozen=True)
class FoldReport:
    """The five fold-point quantities of one chart plus the genericity flag.

    is_generic requires |g0_value| <= tol*K_h, |dg0_fast| <= tol*K_h/|fast|,
    d2g0_fast != 0, dg0_slow != 0 and f0_value != 0 (tol = FOLD_TOL, fast
    the fold's fast coordinate, h_A or eta_B).
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

    g0 and its derivatives in the fast and slow coordinates are closed
    forms of the layer problem, checked against sympy's exact derivatives
    in the test suite.  g0 and dg0_fast vanish at the fold as differences
    of terms of size K_h and K_h/|fast|, so the genericity flag tests them
    against FOLD_TOL relative to those sizes.
    """
    if chart == "A":
        sigma_A, h_A = fold_location_A(es, dp)
        g0, dg_fast, d2g_fast, dg_slow = _chart_A_derivatives(sigma_A, h_A, es, dp)
        # f0 at the fold reduces to K_s - alpha*K_h/2; the closed form keeps
        # an exactly-degenerate input exactly degenerate.
        f0 = dp.K_s - 0.5 * dp.alpha * dp.K_h
        location = (sigma_A, h_A)
    elif chart == "B":
        s_B, eta_B = fold_location_B(es, dp)
        g0, dg_fast, d2g_fast, dg_slow = _chart_B_derivatives(s_B, eta_B, es, dp)
        # r_hat(eta_B) * s_B = alpha*K_h identically, so f0 = K_s - alpha*K_h.
        f0 = dp.K_s - dp.alpha * dp.K_h
        location = (s_B, eta_B)
    else:
        raise DomainError(f"chart must be 'A' or 'B', got {chart!r}")
    tol = FOLD_TOL * dp.K_h
    is_generic = (abs(g0) <= tol and abs(dg_fast) * abs(location[1]) <= tol
                  and d2g_fast != 0.0 and dg_slow != 0.0 and f0 != 0.0)
    return FoldReport(chart=chart, fold_location=location, g0_value=float(g0),
                      dg0_fast=float(dg_fast), d2g0_fast=float(d2g_fast),
                      dg0_slow=float(dg_slow), f0_value=float(f0), is_generic=is_generic)


# --- fold passage scaling -------------------------------------------------------

@dataclass(frozen=True)
class FoldScaling:
    chart: str
    entries: tuple[tuple[float, float], ...]  # (eps, offset)
    slope: float
    stats: tuple[SolverStats, ...] = ()  # each passage's work, in the order of entries


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


def _fold_passage(chart: str, es: EpsSplit, dp: DimlessParams) -> tuple:
    """(field, start, section event, t_max, fold's slow coordinate) of one passage."""
    if chart == "A":
        sigma_A, h_A = fold_location_A(es, dp)
        h_start = 0.5 * (1.0 + math.sqrt(0.4))  # phi(h_start) = 0.6 sigma_A
        x0 = (manifold_A(h_start, es, dp), h_start)
        event = EventSpec(func=lambda t, y: y[1] - 0.5 * h_A, direction="falling")
        return make_field_chart_A(es, dp), x0, event, 0.05 / es.eps + 50.0, sigma_A
    if chart == "B":
        s_B, eta_B = fold_location_B(es, dp)
        eta_start = _eta_start_B(es, dp)
        x0 = (manifold_B(eta_start, es, dp), eta_start)
        event = EventSpec(func=lambda t, y: y[1] - 2.0 * eta_B, direction="rising")
        return make_field_chart_B(es, dp), x0, event, 50.0 / es.eps + 1000.0, s_B
    raise DomainError(f"chart must be 'A' or 'B', got {chart!r}")


def _passage(chart: str, es: EpsSplit, dp: DimlessParams, cfg: IntegratorConfig,
             eps: float) -> tuple[float, SolverStats]:
    """(offset, work) of one passage of :func:`fold_passage_offset` at ``eps``."""
    field, x0, event, t_max, fold_slow = _fold_passage(chart, es.at_eps(eps), dp)
    traj = integrate_until_event(field, x0, event, cfg, t_max=t_max, keep_dense=False)
    if not traj.events:
        raise SectionNoHitError(f"chart {chart}, eps = {eps}: no section hit within t = {t_max}")
    return abs(float(traj.events[-1].state[0]) - fold_slow), traj.stats


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
    the scaling regime.  ``stats`` holds each passage's work counts; no
    output file carries them.  Every Newton solve stops at its rounding
    floor (``integrator._PlanarRadau``), which cuts chart B's field calls
    about thirteenfold.  Chart A never reaches the floor, so its bits are
    scipy's, as every passage's are with ``integrator.NEWTON_FLOOR = 0``.
    The passages are independent: they run on forked processes
    (``integrator._fork_map``), smallest and slowest eps first, with the
    bits a serial run gives, or here when no process can be forked.  The
    first failing passage in eps order raises its error, and a worker
    process that dies raises WorkerError.
    """
    eps_arr = sorted(map(_as_float, eps_list))
    if not all(0.0 < e < math.inf for e in eps_arr):
        raise DomainError(f"every eps must be positive and finite, got {eps_arr!r}")
    if len(eps_arr) < 2:
        raise PreconditionError("eps_list needs at least two entries")
    span = math.log10(eps_arr[-1] / eps_arr[0])
    if span < 1.5:
        raise PreconditionError(f"eps_list must span >= 1.5 decades, got {span:.3f}")
    cfg = cfg if cfg is not None else IntegratorConfig()

    offsets, stats = zip(*_fork_map(functools.partial(_passage, chart, es, dp, cfg), eps_arr))
    entries = tuple(zip(eps_arr, offsets))
    logs = np.log(np.asarray(entries))
    slope = float(np.polyfit(logs[:, 0], logs[:, 1], 1)[0])
    return FoldScaling(chart=chart, entries=entries, slope=slope, stats=stats)


# --- invariant region -----------------------------------------------------------

@dataclass(frozen=True)
class RegionReport:
    ok: bool
    h_nul: float
    h_top: float
    s_nul: float
    violations: tuple[tuple[str, float, float, float], ...]  # (segment, s, h, value)


#: the trapping region's side s = s_nul, its top h = h_top > 1, and samples per side
REGION_S_NUL, REGION_H_TOP, REGION_SAMPLES = 10.0, 1.2, 200


def invariant_region_check(dp: DimlessParams) -> RegionReport:
    """Check that the flow points inward on the trapping-region boundary.

    The region is bounded by s = 0, s = s_nul, h = h_top and the small-h
    root h_nul of n_s(h) = s_nul.  Inwardness means ds/dt > 0 on s = 0,
    ds/dt < 0 on s = s_nul, and dh/dt <= K_h(1-h_top) < 0 on h = h_top.
    The corner (s_nul, h_nul) itself lies on the s-nullcline, where the
    field is tangent to the boundary, so the s = s_nul segment is sampled
    on the half-open interval (h_nul, h_top].
    """
    s_nul, h_top, samples = REGION_S_NUL, REGION_H_TOP, REGION_SAMPLES
    fp = fixed_point(dp)
    s_floor = max(dp.K_s / rate_r(h_top, dp), fp.s_star)
    if not s_nul > s_floor:
        raise PreconditionError(f"s_nul must exceed {s_floor!r}, got {s_nul!r}")

    r_target = dp.K_s / s_nul
    h_nul, _ = _brentq(lambda h: rate_r(h, dp) - r_target, 1e-30, dp.eps1,
                       xtol=1e-30, rtol=8.0 * np.finfo(float).eps)

    # one array call of rhs per side
    h_line = np.linspace(h_nul, h_top, samples)
    ds = rhs((0.0, h_line), dp)[0].tolist()
    violations = [("s=0", 0.0, h, v) for h, v in zip(h_line.tolist(), ds) if not v > 0.0]
    h_line = np.linspace(h_nul, h_top, samples + 1)[1:]
    ds = rhs((s_nul, h_line), dp)[0].tolist()
    violations += [("s=s_nul", s_nul, h, v) for h, v in zip(h_line.tolist(), ds) if not v < 0.0]
    cap = dp.K_h * (1.0 - h_top)
    s_line = np.linspace(0.0, s_nul, samples)
    dh = rhs((s_line, h_top), dp)[1].tolist()
    violations += [("h=h_top", s, h_top, v) for s, v in zip(s_line.tolist(), dh)
                   if not v <= cap < 0.0]
    return RegionReport(ok=not violations, h_nul=h_nul, h_top=h_top, s_nul=s_nul,
                        violations=tuple(violations))
