"""Adaptive implicit integration for stiff planar fields with events.

The solver is Radau IIA (order 5, L-stable) with adaptive step control;
the wrapper adds a hard accepted-step budget, per-step dense output and
event localization by bracketing plus Brent polishing on the dense output,
so event timing does not degrade when steps grow large on slow manifolds.
Each hit is kept once, in the trajectory's ``events``: the trajectory of
``integrate_until_event`` holds its one terminal hit, or none at t_max.
A trajectory's dense output is its per-step interpolants, evaluated as
scipy's ``OdeSolution(alt_segment=True)`` does; without them it answers
only at its recorded sample times.

Fields map (t, (y0, y1)) to two floats and carry an analytic Jacobian
``field.jac(t, y)``, a 2 x 2 array.  :class:`_PlanarRadau` steps them on
Python floats and restates scipy 1.17's ``Radau`` line for line (Hairer &
Wanner, *Solving ODEs II*, Sec. IV.8), as :func:`_brentq` restates its
``brentq``.  Each matrix product of a step is the numpy call scipy makes,
on arrays of the same shape and layout, so its bits are numpy's; the
elementwise arithmetic runs on floats, which round as numpy's do.  The
2x2 LAPACK getrf/getrs and zgetrf/zgetrs are restated with OpenBLAS's
bits, and the Newton right-hand side's complex product with numpy's, as
FMA chains built from an exact FMA, so that a run imports no scipy.
scipy stays the reference in the tests.  Every Newton solve stops at its
rounding floor (see :class:`_PlanarRadau`); where none reaches it, and
everywhere with ``NEWTON_FLOOR = 0``, the results are scipy's ``Radau``'s.
"""
from __future__ import annotations

import math
import os
import warnings
from dataclasses import astuple, dataclass, fields
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ._fmt import write_csv, write_json
from .errors import (BudgetError, DomainError, EventBracketError, PhoscilError, StiffnessError,
                     WorkerError)
from .params import _as_float, _as_floats

__all__ = [
    "IntegratorConfig",
    "EventSpec",
    "EventHit",
    "SolverStats",
    "Trajectory",
    "integrate",
    "integrate_until_event",
    "export_trajectory",
]

_MACH_EPS = float(np.finfo(float).eps)
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant

# Radau IIA tableau and step-size policy, as scipy 1.17 writes them
S6 = 6 ** 0.5
C = ((4 - S6) / 10, (4 + S6) / 10, 1.0)
E = np.array([-13 - 7 * S6, -13 + 7 * S6, -1]) / 3
# A = T diag(MU_REAL, MU_COMPLEX, conj(MU_COMPLEX)) T**-1
MU_REAL = 3 + 3 ** (2 / 3) - 3 ** (1 / 3)
MU_COMPLEX = (3 + 0.5 * (3 ** (1 / 3) - 3 ** (2 / 3))
              - 0.5j * (3 ** (5 / 6) + 3 ** (7 / 6)))
T = np.array([
    [0.09443876248897524, -0.14125529502095421, 0.03002919410514742],
    [0.25021312296533332, 0.20412935229379994, -0.38294211275726192],
    [1, 1, 0]])
TI = np.array([
    [4.17871859155190428, 0.32768282076106237, 0.52337644549944951],
    [-4.17871859155190428, -0.32768282076106237, 0.47662355450055044],
    [0.50287263494578682, -2.57192694985560522, 0.59603920482822492]])
TI_REAL = TI[0]
#: TI_COMPLEX = TI[1] + 1j * TI[2], by parts
_TI_COMPLEX = TI[1:].tolist()
#: interpolant coefficients: the collocation polynomial in powers of (t - t_old)/h
P = np.array([
    [13/3 + 7*S6/3, -23/3 - 22*S6/3, 10/3 + 5 * S6],
    [13/3 - 7*S6/3, -23/3 + 22*S6/3, 10/3 - 5 * S6],
    [1/3, -8/3, 10/3]])
NEWTON_MAXITER = 6
NEWTON_FLOOR = 0.1  # Hairer & Wanner's kappa, for every Newton solve; 0 gives scipy's step
MIN_FACTOR = 0.2
MAX_FACTOR = 10
MAX_STEPS = 10_000_000  # accepted steps per integrate call


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances; time units are those of the active chart."""

    rtol: float = 1e-10
    atol: float = 1e-12

    def __post_init__(self) -> None:
        # stored as the plain floats _as_float reads, as the parameter records store theirs
        rtol, atol = _as_float(self.rtol), _as_float(self.atol)
        # below 100 eps Radau's error test cannot hold (scipy clamps rtol there)
        if not (100.0 * _MACH_EPS <= rtol <= 1e-3):
            raise DomainError(f"rtol must lie in [{100.0 * _MACH_EPS!r}, 1e-3], got {rtol!r}")
        # a huge atol switches the error test off; rtol's cap bounds it too
        if not (0.0 < atol <= 1e-3):
            raise DomainError(f"atol must lie in (0, 1e-3], got {atol!r}")
        object.__setattr__(self, "rtol", rtol)
        object.__setattr__(self, "atol", atol)


@dataclass(frozen=True)
class EventSpec:
    """Scalar event function of (t, state), hit where it crosses zero in one
    direction: ``"rising"`` (from < 0 to >= 0) or ``"falling"`` (> 0 to <= 0)."""

    func: Callable[[float, np.ndarray], float]
    direction: str
    terminal: bool = False

    def __post_init__(self) -> None:
        if self.direction not in ("rising", "falling"):
            raise DomainError(f"direction must be rising or falling, got {self.direction!r}")


@dataclass(frozen=True)
class EventHit:
    t: float
    state: np.ndarray
    index: int


@dataclass(frozen=True)
class SolverStats:
    """Work counts of an integration: accepted steps, Radau's counters,
    error-test rejections, unconverged collocation solves, event brackets
    located and their polishing calls, solves accepted at the rounding
    floor, and the Newton split: iterations, and failures by fresh or
    stale Jacobian and by cause (a rate >= 1 or a non-finite stage, else
    predicted too slow).  The failure totals are derived, not stored."""

    steps: int = 0
    nfev: int = 0
    njev: int = 0
    nlu: int = 0
    rejected: int = 0
    event_polishes: int = 0
    polish_evals: int = 0
    floor_accepts: int = 0
    newton_iters: int = 0
    fresh_jac_failures: int = 0
    stale_jac_failures: int = 0
    slow_failures: int = 0

    @property
    def newton_failures(self) -> int:
        return self.fresh_jac_failures + self.stale_jac_failures

    @property
    def diverged_failures(self) -> int:
        return self.newton_failures - self.slow_failures

    def __add__(self, other: "SolverStats") -> "SolverStats":
        return SolverStats(*(a + b for a, b in zip(astuple(self), astuple(other))))


class Trajectory:
    """Time-ordered samples with piecewise dense output and event hits.

    ``segments`` holds one interpolant per step.  At a step boundary the
    step that starts there answers, and an array of times is evaluated in
    sorted order, one call per step: scipy's ``OdeSolution`` with
    ``alt_segment=True``.  Without segments the trajectory answers exactly
    at its sample times and raises DomainError anywhere else.  ``stats``
    counts the work that produced it (zeros when nothing was integrated).
    """

    def __init__(self, t: np.ndarray, states: np.ndarray, segments: list,
                 events: list[EventHit], names: tuple[str, ...],
                 stats: SolverStats = SolverStats()):
        self.t = t
        self.states = states
        self.segments = segments
        self.events = events
        self.names = names
        self.stats = stats

    @classmethod
    def single(cls, t0: float, y0: np.ndarray, names: tuple[str, ...]) -> "Trajectory":
        """Degenerate one-sample trajectory (no integration performed)."""
        return cls(np.array([float(t0)]), np.asarray(y0, dtype=float).reshape(1, -1),
                   [], [], names)

    def __call__(self, t):
        """Dense-output evaluation; scalar t -> (d,), array t -> (n, d)."""
        t = _as_floats(t)
        if t.ndim > 1:
            raise DomainError(f"times must be a scalar or a 1-D array, got shape {t.shape}")
        if not np.all((self.t[0] <= t) & (t <= self.t[-1])):
            raise DomainError("dense evaluation outside the integrated span")
        if self.segments:
            return self._dense(t)
        idx = np.searchsorted(self.t, t)
        if not np.array_equal(self.t[idx], t):
            raise DomainError("trajectory kept no dense output")
        return self.states.take(idx, axis=0)

    def _dense(self, t: np.ndarray) -> np.ndarray:
        last = len(self.segments) - 1
        if t.ndim == 0:
            step = min(max(int(np.searchsorted(self.t, t, side="right")) - 1, 0), last)
            return self.segments[step](t)
        out = np.empty((t.size, self.states.shape[1]))
        if t.size == 0:
            return out
        order = np.argsort(t)
        t_sorted = t[order]
        steps = np.clip(np.searchsorted(self.t, t_sorted, side="right") - 1, 0, last)
        bounds = [0, *(np.flatnonzero(np.diff(steps)) + 1).tolist(), t.size]
        out[order] = np.hstack([self.segments[steps[a]](t_sorted[a:b])
                                for a, b in zip(bounds, bounds[1:])]).T
        return out


def _crossed(g_old: float, g_new: float, direction: str) -> bool:
    if direction == "rising":
        return g_old < 0.0 <= g_new
    return g_old > 0.0 >= g_new


def _locate(ev: EventSpec, dense, t_lo: float, t_hi: float,
            g_hi: float, t_scale: float) -> tuple[float, int]:
    """(event time, event-function calls) on a step where :func:`_crossed` holds."""
    if g_hi == 0.0:
        return t_hi, 0
    try:
        return _brentq(lambda tt: ev.func(tt, dense(tt)), t_lo, t_hi,
                       xtol=1e-12 * t_scale, rtol=4.0 * _MACH_EPS)
    except ValueError as exc:
        raise EventBracketError(f"bracketing failed on [{t_lo}, {t_hi}]: {exc}") from exc


def _value(f, x: float) -> float:
    """f(x) as a float; NaN raises as in scipy's ``brentq`` wrapper."""
    fx = f(x)
    if math.isnan(fx):
        raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
    return float(fx)


def _brentq(f, a: float, b: float, xtol: float, rtol: float = 4.0 * _MACH_EPS,
            maxiter: int = 100) -> tuple[float, int]:
    """(root of ``f`` on [a, b], calls of ``f``): scipy's ``brentq``.

    Brent's method as scipy's ``brentq.c`` writes it, line for line, with
    the checks of its Python wrapper: xtol > 0, rtol >= 4 eps, f(a) and
    f(b) of opposite signs, and no NaN value.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < 4.0 * _MACH_EPS:
        raise ValueError(f"rtol too small ({rtol:g} < {4.0 * _MACH_EPS:g})")
    xpre, xcur = float(a), float(b)
    fpre = _value(f, xpre)
    fcur = _value(f, xcur)
    calls = 2
    if fpre == 0:
        return xpre, calls
    if fcur == 0:
        return xcur, calls
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur, calls

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _value(f, xcur)
        calls += 1
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def _split(a: float) -> tuple[float, float, float]:
    """(a, hi, lo): Veltkamp's split of a into halves of at most 26 bits."""
    s = a * _SPLIT
    hi = s - (s - a)
    return a, hi, a - hi


def _fma_exact(a: float, b: float, c: float) -> float:
    """a*b + c rounded once, in exact rational arithmetic; zeros, inf and NaN as IEEE."""
    if not (a and b and math.isfinite(a) and math.isfinite(b)):
        return a * b + c  # the product is exact: a zero, inf or NaN
    if not math.isfinite(c):
        return c
    exact = Fraction(a) * Fraction(b) + Fraction(c)
    try:
        return float(exact) if exact else 0.0  # an exact cancellation rounds to +0
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def _fmak(k: tuple, x: float, c: float) -> float:
    """a*x + c rounded once, as C's ``fma`` (Python 3.11 has no ``math.fma``), k = _split(a).

    With x split too, the four partial products of a*x are exact and
    ``math.fsum`` adds them to c with one rounding.  Where one might
    underflow or overflow (|result| outside (1e-150, 1e150)) the exact
    rational result is taken.
    """
    a, ah, al = k
    s = x * _SPLIT
    xh = s - (s - x)
    xl = x - xh
    try:
        r = math.fsum((ah * xh, ah * xl, al * xh, al * xl, c))
        if 1e-300 < r * r < 1e300:
            return r
    except (OverflowError, ValueError):  # an inf partial product
        pass
    return _fma_exact(a, x, c)


def _rms(*x: float) -> float:
    """scipy's RMS ``norm``: sqrt(x.dot(x)) / sqrt(n), the dot numpy's own."""
    v = np.array(x)
    return math.sqrt(v.dot(v)) / len(x) ** 0.5


def _singular(info: int) -> None:
    warnings.warn(f"Diagonal number {info} is exactly zero. Singular matrix.",
                  RuntimeWarning, stacklevel=4)


def _getrf(a11: float, a12: float, a21: float, a22: float) -> tuple:
    """LAPACK ``dgetrf`` of [[a11, a12], [a21, a22]] as (swapped, u11, -u12, -l, u22).

    Pivoting on |a|, l = a21 * (1/a11) (unscaled at a zero pivot) and
    u22 = a22 - (l*a12 + 0), a GEMM update from +0; -u12 and -l come split.
    """
    swap = abs(a21) > abs(a11)
    if swap:
        a11, a12, a21, a22 = a21, a22, a11, a12
    l = a21 * (1.0 / a11) if a11 else a21
    u22 = a22 - (l * a12 + 0.0)
    if not (a11 and u22):  # numpy scalars divide by zero into inf or NaN, as dgetrs does
        _singular(2 if a11 else 1)
        a11, u22 = np.float64(a11), np.float64(u22)
    return swap, a11, _split(-a12), _split(-l), u22


def _getrs(lu: tuple, b1: float, b2: float) -> tuple[float, float]:
    """LAPACK ``dgetrs`` with the factors of :func:`_getrf`."""
    swap, u11, nu12, nl, u22 = lu
    if not (math.isfinite(b1) and math.isfinite(b2)):
        raise ValueError("array must not contain infs or NaNs")
    if swap:
        b1, b2 = b2, b1
    x2 = _fmak(nl, b1, b2) / u22
    return _fmak(nu12, x2, b1) / u11, x2


def _recip(zr: float, zi: float) -> tuple[float, float]:
    """1/z as OpenBLAS's complex LU kernels take it (Smith's ratio form); NaN at 0."""
    if not (zr or zi):
        return math.nan, math.nan
    if abs(zr) >= abs(zi):
        ratio = zi / zr
        den = 1.0 / (zr * (1.0 + ratio * ratio))
        return den, -ratio * den
    ratio = zr / zi
    den = 1.0 / (zi * (1.0 + ratio * ratio))
    return ratio * den, -den


def _zgetrf(a11: tuple, a12: tuple, a21: tuple, a22: tuple) -> tuple:
    """LAPACK ``zgetrf`` of a 2x2 of (re, im) pairs, as :func:`_zgetrs` takes it.

    Pivoting on |re| + |im|; l = a21/a11 as OpenBLAS's ``zscal`` scales (by
    one part alone when the other is zero); u22 = a22 - a12*l as below.
    It keeps the pivots' reciprocals and the parts of u12 and l, split.
    """
    if abs(a21[0]) + abs(a21[1]) > abs(a11[0]) + abs(a11[1]):
        swap, a11, a12, a21, a22 = True, a21, a22, a11, a12
    else:
        swap = False
    (ar, ai), (xr, xi) = a21, a12
    r11 = rr, ri = _recip(*a11)
    if a11[0] or a11[1]:  # else l stays a21
        ar, ai = ((rr * ar, rr * ai) if not ri else (-ri * ai, ri * ar) if not rr
                  else (rr * ar - ri * ai, rr * ai + ri * ar))
    kl = _split(ar)
    # zgemv's y += alpha*(l*u12 + 0) with alpha = -1 + 0i, contracted
    pr, pi = 0.0 + _fmak(kl, xr, -(ai * xi)), 0.0 + _fmak(kl, xi, ai * xr)
    u22 = a22[0] + (-pr + -(0.0 * pi)), a22[1] + (-pi + 0.0 * pr)
    if not ((a11[0] or a11[1]) and (u22[0] or u22[1])):
        _singular(2 if a11[0] or a11[1] else 1)
    return swap, r11, _split(xr), _split(xi), kl, _split(ai), _recip(*u22)


def _zgetrs(lu: tuple, b1r: float, b1i: float, b2r: float, b2i: float) -> tuple:
    """LAPACK ``zgetrs`` with the factors of :func:`_zgetrf`: ((x1r, x1i), (x2r, x2i)).

    Each update is zaxpy's y += (-x_j) * a, contracted; the products with
    1/u22 and 1/u11 are plain.
    """
    swap, (r11r, r11i), ur, ui, lr, li, (r22r, r22i) = lu
    if not (math.isfinite(b1r + b1i + b2r + b2i)
            or all(map(math.isfinite, (b1r, b1i, b2r, b2i)))):
        raise ValueError("array must not contain infs or NaNs")
    if swap:
        b1r, b1i, b2r, b2i = b2r, b2i, b1r, b1i
    yr = b2r + _fmak(lr, -b1r, -(-b1i * li[0]))
    yi = b2i + _fmak(li, -b1r, -b1i * lr[0])
    x2r, x2i = yr * r22r - yi * r22i, yr * r22i + yi * r22r
    yr = b1r + _fmak(ur, -x2r, -(-x2i * ui[0]))
    yi = b1i + _fmak(ui, -x2r, -x2i * ur[0])
    return (yr * r11r - yi * r11i, yr * r11i + yi * r11r), (x2r, x2i)


def _select_initial_step(fun, t0: float, y0: tuple, t_bound: float, f0: tuple,
                         rtol: float, atol: float) -> float:
    """scipy's ``select_initial_step`` for Radau (error order 3), forward in time
    and without a step bound (Hairer, Norsett & Wanner, *Solving ODEs I*, Sec. II.4)."""
    interval_length = abs(t_bound - t0)
    s0, s1 = atol + abs(y0[0]) * rtol, atol + abs(y0[1]) * rtol
    # a norm may overflow to inf, as scipy's does; only numpy's warning is silenced
    with np.errstate(over="ignore"):
        d0 = _rms(y0[0] / s0, y0[1] / s1)
        d1 = _rms(f0[0] / s0, f0[1] / s1)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0, (y0[0] + h0 * f0[0], y0[1] + h0 * f0[1]))
    with np.errstate(over="ignore"):
        d2 = _rms((f1[0] - f0[0]) / s0, (f1[1] - f0[1]) / s1)
    # as in float64, x/0 is inf and 0/0 nan: h0 is 0 when d1 overflows to inf
    d2 = d2 / h0 if h0 else (math.inf if d2 > 0 else math.nan)

    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 4)

    return min(100 * h0, h1, interval_length)


def _predict_factor(h_abs, h_abs_old, error_norm, error_norm_old):
    """scipy's ``predict_factor``: by which factor to change the step.  As in
    float64, error_norm = 0 gives inf (0 ** -0.25) and h_abs_old = 0 a multiplier 1."""
    if error_norm_old is None or not h_abs_old or error_norm == 0:
        multiplier = 1
    else:
        multiplier = h_abs / h_abs_old * (error_norm_old / error_norm) ** 0.25
    if error_norm == 0:
        return math.inf
    return min(1, multiplier) * error_norm ** -0.25


class _RadauDense:
    """One step's collocation polynomial: scipy's ``RadauDenseOutput``.

    y(t) = y_old + Q.dot(p) with x = (t - t_old)/h and p = (x, x*x, (x*x)*x)
    by rows, ``Q`` a (2, 3) array.  A scalar t gives (2,) from a
    matrix-vector product; a 1-D t gives (2, len(t)) from a matrix product,
    or from a matrix-vector one when it holds a single time.
    """

    def __init__(self, t_old: float, t: float, y_old: tuple, Q: np.ndarray):
        self.t_old, self.h, self.y_old, self.Q = t_old, t - t_old, y_old, Q

    def __call__(self, t) -> np.ndarray:
        x = (np.asarray(t, dtype=float) - self.t_old) / self.h
        xx = x * x
        y = self.Q.dot(np.array((x, xx, xx * x)))
        y += np.reshape(self.y_old, (2,) + (1,) * x.ndim)
        return y

    def guess(self, t: float, h: float, y: tuple) -> np.ndarray:
        """The next step's stages ``self(t + h * C).T - y``, laid out as scipy's."""
        x = [(t + h * c - self.t_old) / self.h for c in C]
        p = np.array((x, [v * v for v in x], [v * v * v for v in x]))
        (a0, a1, a2), (b0, b1, b2) = self.Q.dot(p).tolist()
        (u0, u1), (v0, v1) = self.y_old, y
        return np.array((((a0 + u0) - v0, (a1 + u0) - v0, (a2 + u0) - v0),
                         ((b0 + u1) - v1, (b1 + u1) - v1, (b2 + u1) - v1))).T


class _PlanarRadau:
    """Radau IIA of order 5 for a planar field, on Python floats.

    It restates scipy 1.17's ``OdeSolver``/``Radau`` constructor, ``step``,
    ``solve_collocation_system`` and dense output line for line, forward
    in time and without a maximum step (``integrate`` asks for neither).
    The state is a pair of floats and the Jacobian its entries by rows.
    The stages are floats too, and (3, 2) arrays with scipy's layout where
    a matrix product takes them: Z0 as the predictor lays it out, and F
    and W C-contiguous, rewritten in place.  The LU helpers above restate
    LAPACK with OpenBLAS's bits, so the arithmetic is that of scipy's
    ``Radau``, which the tests keep as the reference.  It also counts
    error-test rejections, Newton iterations and unconverged collocation
    solves by Jacobian and by cause, as :class:`SolverStats` names them.

    Every solve stops at the rounding floor of its Newton updates, as
    Hairer & Wanner's test η‖ΔZ‖ <= κ·Tol does (κ from 1e-2 to 1e-1):
    when scipy's rate test fails (θ >= 1, or θ^(6-k)/(1-θ)·‖ΔW‖ >
    ``newton_tol``), the solve still converges if that update has
    ‖ΔW‖ <= NEWTON_FLOOR = 0.1 in the scaled RMS norm, where the error
    test's bound is 1.  The update is not applied, and the error test
    judges the step as before.  Every other solve takes scipy's path, so
    the bits are scipy's wherever no solve reaches the floor, and
    ``NEWTON_FLOOR = 0`` (the rule needs ‖ΔW‖ > 0) gives scipy's step.
    The floor lies far above ``newton_tol`` where the fast flux cancels:
    g = K_h(1-h) - q with q ≈ K_h(1-h) rounds to about ulp(K_h) = 2.8e-17.
    On the ε = 1e-7 chart-B passage (h ≈ 2e4-9e4, an atol-bound η scale
    of about 6e-12) the simplified Newton update maps that to
    h·ulp(K_h)/(|MU| + h·|λ|), about 0.02 in the scaled norm, 1000 times
    ``newton_tol`` (2.2e-5 at rtol = 1e-10), and scipy's test passes in
    only 40 of 866 solves started from the converged stages.  The
    ε = 1e-3 cycle and chart A's passages never reach the floor.
    """

    def __init__(self, field, t0: float, y0: tuple, t_bound: float, rtol: float, atol: float):
        self._field, self._jac = field, field.jac
        self.t, self.y, self.t_bound = t0, y0, t_bound
        self.nfev = self.njev = self.nlu = self.rejected = self.newton_iters = 0
        self.floor_accepts = self.slow_failures = 0
        self.fresh_jac_failures = self.stale_jac_failures = 0
        self.rtol, self.atol = rtol, atol
        self.f = self.fun(t0, y0)
        self.h_abs = _select_initial_step(self.fun, t0, y0, t_bound, self.f, rtol, atol)
        self.h_abs_old = self.error_norm_old = self.sol = None
        self.newton_tol = max(10 * _MACH_EPS / rtol, min(0.03, rtol ** 0.5))
        self.J = self.jac(t0, y0)
        self.current_jac = True
        self.LU_real = self.LU_complex = None
        # scipy's F and W: C-contiguous arrays that the Newton iteration rewrites
        # through flat views; a new (3, 2) array costs 1.18 us against 0.22 us
        # for the view writes, over the 40,772 Newton iterations of two rows
        self._arrays = np.empty((3, 2)), np.empty((3, 2))
        self._views = tuple(memoryview(a).cast("B").cast("d") for a in self._arrays)

    def fun(self, t: float, y: tuple) -> tuple:
        self.nfev += 1
        f0, f1 = self._field(t, y)
        return f0, f1

    def jac(self, t: float, y: tuple) -> tuple:
        self.njev += 1
        J = self._jac(t, y)
        # a matrix object numpy cannot read as an array has shape () here
        if np.asarray(J).shape != (2, 2):
            raise DomainError(f"field.jac must return a dense array of shape (2, 2),"
                              f" got {type(J).__name__} of shape {np.shape(J)}")
        return tuple(np.asarray(J, dtype=float).ravel().tolist())

    def _factor(self, h: float, J: tuple) -> tuple:
        """LU of MU_REAL/h I - J and MU_COMPLEX/h I - J, entries as numpy forms them."""
        j00, j01, j10, j11 = J
        m, mr, mi = MU_REAL / h, MU_COMPLEX.real / h, MU_COMPLEX.imag / h
        real = (m - j00, m * 0.0 - j01, m * 0.0 - j10, m - j11)
        cplx = (mr - j00, mi, mr * 0.0 - j01, 0.0, mr * 0.0 - j10, 0.0, mr - j11, mi)
        if not all(map(math.isfinite, real + cplx)):
            raise ValueError("array must not contain infs or NaNs")
        self.nlu += 2
        return _getrf(*real), _zgetrf(cplx[:2], cplx[2:4], cplx[4:6], cplx[6:])

    def _collocate(self, t, y, h, Z0, scale, LU_real, LU_complex):
        """scipy's ``solve_collocation_system(self.fun, ...)``; Z0 and Z are (3, 2) arrays."""
        field, tol = self._field, self.newton_tol
        (y0, y1), (s0, s1) = y, scale
        M_real = MU_REAL / h
        kr, mi = _split(MU_COMPLEX.real / h), MU_COMPLEX.imag / h
        (b0, b1, b2), (c0, c1, c2) = _TI_COMPLEX
        t0, t1, t2 = t + h * C[0], t + h * C[1], t + h * C[2]

        (F, W), (f, w) = self._arrays, self._views
        Z = Z0
        (z00, z01), (z10, z11), (z20, z21) = Z0.tolist()
        (w00, w01), (w10, w11), (w20, w21) = TI.dot(Z0).tolist()

        dW_norm_old = rate = None
        converged = False  # scipy's loop from here on
        for k in range(NEWTON_MAXITER):
            f00, f01 = field(t0, (y0 + z00, y1 + z01))
            f10, f11 = field(t1, (y0 + z10, y1 + z11))
            f20, f21 = field(t2, (y0 + z20, y1 + z21))
            self.nfev += 3
            # a sum of finite values may overflow, so a non-finite sum is checked
            if not (math.isfinite(f00 + f01 + f10 + f11 + f20 + f21)
                    or all(map(math.isfinite, (f00, f01, f10, f11, f20, f21)))):
                break

            f[0], f[1], f[2], f[3], f[4], f[5] = f00, f01, f10, f11, f20, f21
            fr0, fr1 = F.T.dot(TI_REAL).tolist()
            fr0, fr1 = fr0 - M_real * w00, fr1 - M_real * w01
            # F.T.dot(TI_COMPLEX) - M_complex * (W[1] + 1j * W[2]): the complex
            # dot is a plain sum from +0, the complex product is contracted
            wr, wi = w10 + 0.0 * w20, 0.0 + w20
            fcr0 = ((0.0 + f00 * b0) + f10 * b1) + f20 * b2 - _fmak(kr, wr, -(wi * mi))
            fci0 = ((0.0 + f00 * c0) + f10 * c1) + f20 * c2 - _fmak(kr, wi, wr * mi)
            wr, wi = w11 + 0.0 * w21, 0.0 + w21
            fcr1 = ((0.0 + f01 * b0) + f11 * b1) + f21 * b2 - _fmak(kr, wr, -(wi * mi))
            fci1 = ((0.0 + f01 * c0) + f11 * c1) + f21 * c2 - _fmak(kr, wi, wr * mi)

            dr0, dr1 = _getrs(LU_real, fr0, fr1)
            (dcr0, dci0), (dcr1, dci1) = _zgetrs(LU_complex, fcr0, fci0, fcr1, fci1)

            dW_norm = _rms(dr0 / s0, dr1 / s1, dcr0 / s0, dcr1 / s1, dci0 / s0, dci1 / s1)
            if dW_norm_old is not None:
                rate = dW_norm / dW_norm_old

            if (rate is not None and (rate >= 1 or
                    rate ** (NEWTON_MAXITER - k) / (1 - rate) * dW_norm > tol)):
                converged = dW_norm <= NEWTON_FLOOR
                self.floor_accepts += converged
                self.slow_failures += not converged and rate < 1
                break

            w00, w01, w10, w11 = w00 + dr0, w01 + dr1, w10 + dcr0, w11 + dcr1
            w20, w21 = w20 + dci0, w21 + dci1
            w[0], w[1], w[2], w[3], w[4], w[5] = w00, w01, w10, w11, w20, w21
            Z = T.dot(W)
            (z00, z01), (z10, z11), (z20, z21) = Z.tolist()

            if (dW_norm == 0 or
                    rate is not None and rate / (1 - rate) * dW_norm < tol):
                converged = True
                break

            dW_norm_old = dW_norm

        self.newton_iters += k + 1
        return converged, k + 1, Z, rate

    def step(self) -> None:
        """One accepted step (``OdeSolver.step`` around ``Radau._step_impl``) to at
        most t_bound; a step size below ten ulps of t raises StiffnessError."""
        t, y, (f0, f1) = self.t, self.y, self.f
        y0, y1 = y
        atol, rtol = self.atol, self.rtol

        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        if self.h_abs < min_step:
            h_abs, h_abs_old, error_norm_old = min_step, None, None
        else:
            h_abs, h_abs_old, error_norm_old = self.h_abs, self.h_abs_old, self.error_norm_old

        J, LU_real, LU_complex = self.J, self.LU_real, self.LU_complex
        current_jac = self.current_jac

        rejected = step_accepted = False
        while not step_accepted:
            if h_abs < min_step:
                raise StiffnessError(f"step size underflow at t = {t}: Required step size"
                                     " is less than spacing between numbers.")

            t_new = min(t + h_abs, self.t_bound)
            h = t_new - t
            h_abs = abs(h)

            Z0 = np.zeros((3, 2)) if self.sol is None else self.sol.guess(t, h, y)
            scale = (atol + abs(y0) * rtol, atol + abs(y1) * rtol)

            converged = False
            while not converged:
                if LU_real is None or LU_complex is None:
                    LU_real, LU_complex = self._factor(h, J)

                converged, n_iter, Z, rate = self._collocate(
                    t, y, h, Z0, scale, LU_real, LU_complex)

                if not converged:
                    if current_jac:
                        self.fresh_jac_failures += 1
                        break
                    self.stale_jac_failures += 1
                    J = self.jac(t, y)
                    current_jac = True
                    LU_real = LU_complex = None

            if not converged:
                h_abs *= 0.5
                LU_real = LU_complex = None
                continue

            z20, z21 = Z[2].tolist()
            y_new = (y0 + z20, y1 + z21)
            ze0, ze1 = Z.T.dot(E).tolist()
            ze0, ze1 = ze0 / h, ze1 / h
            e0, e1 = _getrs(LU_real, f0 + ze0, f1 + ze1)
            s0 = atol + max(abs(y0), abs(y_new[0])) * rtol
            s1 = atol + max(abs(y1), abs(y_new[1])) * rtol
            error_norm = _rms(e0 / s0, e1 / s1)
            safety = 0.9 * (2 * NEWTON_MAXITER + 1) / (2 * NEWTON_MAXITER + n_iter)

            if rejected and error_norm > 1:
                g0, g1 = self.fun(t, (y0 + e0, y1 + e1))
                e0, e1 = _getrs(LU_real, g0 + ze0, g1 + ze1)
                error_norm = _rms(e0 / s0, e1 / s1)

            if error_norm > 1:
                factor = _predict_factor(h_abs, h_abs_old, error_norm, error_norm_old)
                h_abs *= max(MIN_FACTOR, safety * factor)
                LU_real = LU_complex = None
                rejected = True
                self.rejected += 1
            else:
                step_accepted = True

        recompute_jac = n_iter > 2 and rate > 1e-3

        factor = min(MAX_FACTOR, safety * _predict_factor(h_abs, h_abs_old, error_norm,
                                                          error_norm_old))
        if not recompute_jac and factor < 1.2:
            factor = 1
        else:
            LU_real = LU_complex = None

        f_new = self.fun(t_new, y_new)
        if recompute_jac:
            J = self.jac(t_new, y_new)

        self.h_abs_old, self.error_norm_old = self.h_abs, error_norm
        self.h_abs = h_abs * factor
        self.t, self.y, self.f = t_new, y_new, f_new
        self.LU_real, self.LU_complex, self.J = LU_real, LU_complex, J
        self.current_jac = recompute_jac

        self.sol = _RadauDense(t, t_new, y, Z.T.dot(P))


def integrate(field, x0, t_span, cfg: IntegratorConfig | None = None,
              events: Sequence[EventSpec] = (), keep_dense: bool = True) -> Trajectory:
    """Integrate the planar ``field`` from ``x0`` over ``t_span``; return the Trajectory.

    The field maps (t, (y0, y1)) to its two components and needs an
    analytic Jacobian ``field.jac(t, y)``, a 2 x 2 array.  Local error per
    step is bounded by atol + rtol*|state| (Radau IIA, order 5).  Events
    are detected on accepted steps and polished on the step's dense
    output to |dt| <= 1e-12 * t_scale, where t_scale = max(1, |t0|, |t1|)
    is the horizon: a longer horizon can move an event time within that
    tolerance.  A run stops at t1, at the first terminal hit in (time,
    index) order, whose state is its last and after which no hit is kept,
    or by raising a PhoscilError.  ``keep_dense=False`` drops the per-step
    interpolants after event processing to bound memory on very long runs
    (the returned trajectory then answers only at its samples).
    """
    cfg = cfg if cfg is not None else IntegratorConfig()
    t0, t1 = _as_float(t_span[0]), _as_float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(t1) and t1 > t0):
        raise DomainError(f"t_span must be finite with t1 > t0, got {(t0, t1)!r}")
    y0 = _as_floats(tuple(x0))
    if y0.shape != (2,):
        raise DomainError(f"the state must be planar, 2 values, got shape {y0.shape}")
    if not np.isfinite(y0).all():
        raise DomainError(f"the initial state must be finite, got {y0.tolist()!r}")
    if not callable(getattr(field, "jac", None)):
        raise DomainError("the field needs an analytic Jacobian, field.jac(t, y)")
    events = list(events)
    t_scale = max(1.0, abs(t0), abs(t1))

    solver = _PlanarRadau(field, t0, tuple(y0.tolist()), t1, rtol=cfg.rtol, atol=cfg.atol)

    ts = [t0]
    ys = [y0.copy()]
    segments: list = []
    hits: list[EventHit] = []
    g_old = [float(ev.func(t0, y0)) for ev in events]
    polishes = polish_evals = 0
    terminal: EventHit | None = None

    while terminal is None and solver.t < t1:
        if len(ts) > MAX_STEPS:
            raise BudgetError(f"MAX_STEPS = {MAX_STEPS} exhausted at t = {solver.t}")
        try:
            solver.step()
        except PhoscilError:
            raise
        except ValueError as exc:
            # a non-finite Jacobian or stage (e.g. a field that is NaN past
            # its domain) fails the finite check of the LU factor or solve
            raise DomainError(f"step failed at t = {solver.t}: {exc}") from exc
        dense = solver.sol
        t_new = float(solver.t)
        y_new = np.array(solver.y, dtype=float)

        if events:
            g_new = [float(ev.func(t_new, y_new)) for ev in events]
            step_hits: list[tuple[float, int]] = []
            for i, ev in enumerate(events):
                if _crossed(g_old[i], g_new[i], ev.direction):
                    t_hit, n_evals = _locate(ev, dense, ts[-1], t_new, g_new[i], t_scale)
                    polishes += 1
                    polish_evals += n_evals
                    step_hits.append((t_hit, i))
            g_old = g_new
            for t_hit, i in sorted(step_hits):
                hits.append(EventHit(t=t_hit, state=np.asarray(dense(t_hit), dtype=float), index=i))
                if events[i].terminal:
                    terminal = hits[-1]
                    t_new = max(t_hit, np.nextafter(ts[-1], t_new))
                    y_new = terminal.state
                    break

        if keep_dense:
            segments.append(dense)
        ts.append(t_new)
        ys.append(y_new)

    counts = {"steps": len(ts) - 1, "event_polishes": polishes, "polish_evals": polish_evals}
    stats = SolverStats(**{f.name: counts[f.name] if f.name in counts else getattr(solver, f.name)
                           for f in fields(SolverStats)})
    return Trajectory(np.array(ts), np.vstack(ys), segments, hits,
                      tuple(getattr(field, "names", ("y0", "y1"))), stats)


def integrate_until_event(field, x0, event: EventSpec, cfg: IntegratorConfig | None = None, *,
                          t_max: float, t0: float = 0.0, keep_dense: bool = True) -> Trajectory:
    """Run until the first hit of ``event`` (made terminal), or to t_max.

    The trajectory's ``events`` holds that one hit, or is empty when the
    run reaches t_max: a no-hit is a result, not an exception.  The event
    must not already be zero at x0 in the requested direction.
    """
    terminal = EventSpec(func=event.func, direction=event.direction, terminal=True)
    return integrate(field, x0, (t0, t_max), cfg, events=[terminal], keep_dense=keep_dense)


def _fork_map(fn, items: Sequence) -> list:
    """``[fn(x) for x in items]``, in input order, on forked worker processes.

    At most one process per item and per CPU this process may run on; with
    fewer than two of either, or when the pool cannot start (an OSError,
    such as fork() failing at a process limit), the list is built here, in
    a loop, with the same bits.  ``fn``, the items and the results cross
    the process boundary pickled.  The first item in input order whose
    call raises re-raises its exception here, as the loop would; a worker
    that dies (an out-of-memory kill, say) raises WorkerError naming the
    first item left without a result.  On either failure the workers are
    stopped at once, and no child outlives the call.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    n = min(len(items), cpus)
    if n >= 2:
        import multiprocessing  # with the executor, 30-37 ms, paid only where a pool runs
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        before = set(multiprocessing.active_children())
        futures, out = [], []
        try:
            with ProcessPoolExecutor(n, mp_context=multiprocessing.get_context("fork")) as pool:
                try:
                    futures = [pool.submit(fn, x) for x in items]  # the first forks all n workers
                    for future in futures:
                        out.append(future.result())
                except BaseException:
                    # Leaving the block waits for every item already queued, so stop the
                    # workers first.  The executor has no public handle on them before
                    # Python 3.14's terminate_workers(): they are the children that were
                    # not there before it.
                    for child in set(multiprocessing.active_children()) - before:
                        child.terminate()
                        child.join()
                    raise
        except BrokenProcessPool as exc:
            i = len(out)
            raise WorkerError(f"a worker process died, and items[{i}] = {items[i]!r} is the "
                              "first item left without a result") from exc
        except OSError:
            if futures:  # raised by fn, not by the pool's start
                raise
        else:
            return out
    return [fn(x) for x in items]


def export_trajectory(traj: Trajectory, csv_path: str | Path,
                      events_path: str | Path | None = None,
                      names: Sequence[str] | None = None,
                      transform=None,
                      provenance: Sequence[str] = ()) -> None:
    """Write samples as CSV (`t,<c1>,<c2>`) plus a JSON events sidecar.

    ``transform`` optionally maps a state row to the exported coordinate
    pair (used for chart / log coordinate exports); floats carry 17
    significant digits.
    """
    names = tuple(names) if names is not None else traj.names
    if transform is None:
        rows = zip(traj.t.tolist(), *traj.states.T.tolist())
    else:
        rows = ((t, *transform(y)) for t, y in zip(traj.t.tolist(), traj.states))
    write_csv(csv_path, ["t", *names], ",".join(["%.17g"] * (1 + len(names))), rows,
              provenance=list(provenance))
    if events_path is not None:
        payload = {
            "provenance": list(provenance),
            "events": [
                {
                    "index": hit.index,
                    "t": hit.t,
                    "state": [float(v) for v in hit.state],
                }
                for hit in traj.events
            ],
        }
        write_json(events_path, payload)
