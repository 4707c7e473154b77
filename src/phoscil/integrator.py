"""Adaptive implicit integration for stiff planar fields with events.

The production path is Radau IIA (order 5, L-stable) with adaptive step
control; the wrapper adds a hard accepted-step budget, per-step dense
output retention, and event localization by bracketing plus
derivative-free root polishing on the dense output, so event timing does
not degrade when steps grow large on slow manifolds.  A trajectory's
dense output is its per-step interpolants, evaluated as scipy's
``OdeSolution(alt_segment=True)`` does; a trajectory without them answers
only at its recorded sample times.

Fields are callables ``field(t, y) -> dy``; when a field exposes an
analytic Jacobian as ``field.jac(t, y)`` (a dense n x n array) it is used
for the implicit stages, otherwise scipy's ``num_jac`` differences the
field itself.

phoscil owns the solver (:class:`_Radau`), its dense output and the event
polish (:func:`_brentq`).  They restate scipy 1.17's ``Radau``,
``RadauDenseOutput``, ``OdeSolution`` and ``brentq`` (Hairer & Wanner,
*Solving ODEs II*, Sec. IV.8; Brent's method) operation for operation, so
results are bit-identical to scipy's, which the tests keep as the
reference.  What goes is the per-call wrapping around each operation, and
the import: a run loads ``scipy.linalg`` only.  Factorizations and solves
go straight to LAPACK getrf/getrs with the arguments and checks of
``scipy.linalg.lu_factor``/``lu_solve``.  The one path that no CLI
subcommand takes, a field without ``.jac``, imports scipy's ``num_jac``
lazily.
"""
from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import LinAlgWarning
from scipy.linalg.lapack import dgetrf, dgetrs, zgetrf, zgetrs

from ._fmt import fmt17, write_csv, write_json
from .errors import BudgetError, DomainError, EventBracketError, PhoscilError, StiffnessError

__all__ = [
    "IntegratorConfig",
    "EventSpec",
    "EventHit",
    "EventHitResult",
    "SolverStats",
    "Trajectory",
    "integrate",
    "integrate_until_event",
    "export_trajectory",
]

_MACH_EPS = float(np.finfo(float).eps)
#: LAPACK routines by dtype character; Radau factorizes real and complex
#: double matrices and solves each with a right-hand side of its own type
_GETRF = {"d": dgetrf, "D": zgetrf}
_GETRS = {"d": dgetrs, "D": zgetrs}

# Radau IIA tableau and step-size policy, as scipy 1.17 writes them
S6 = 6 ** 0.5
C = np.array([(4 - S6) / 10, (4 + S6) / 10, 1])
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
TI_COMPLEX = TI[1] + 1j * TI[2]
#: interpolant coefficients: the collocation polynomial in powers of (t - t_old)/h
P = np.array([
    [13/3 + 7*S6/3, -23/3 - 22*S6/3, 10/3 + 5 * S6],
    [13/3 - 7*S6/3, -23/3 + 22*S6/3, 10/3 - 5 * S6],
    [1/3, -8/3, 10/3]])
NEWTON_MAXITER = 6
MIN_FACTOR = 0.2
MAX_FACTOR = 10


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and budgets; time units are those of the active chart."""

    rtol: float = 1e-10
    atol: float = 1e-12
    max_steps: int = 10_000_000

    def __post_init__(self) -> None:
        # below 100 eps Radau's error test cannot hold (scipy clamps rtol there)
        if not (100.0 * _MACH_EPS <= self.rtol <= 1e-3):
            raise DomainError(f"rtol must lie in [{100.0 * _MACH_EPS!r}, 1e-3], got {self.rtol!r}")
        if not (self.atol > 0.0):
            raise DomainError(f"atol must be positive, got {self.atol!r}")
        if not (self.max_steps > 0):
            raise DomainError(f"max_steps must be positive, got {self.max_steps!r}")


@dataclass(frozen=True)
class EventSpec:
    """Scalar event function of (t, state) with crossing semantics."""

    func: Callable[[float, np.ndarray], float]
    direction: str = "both"  # rising | falling | both
    terminal: bool = False

    def __post_init__(self) -> None:
        if self.direction not in ("rising", "falling", "both"):
            raise DomainError(f"direction must be rising/falling/both, got {self.direction!r}")


@dataclass(frozen=True)
class EventHit:
    t: float
    state: np.ndarray
    index: int


@dataclass(frozen=True)
class SolverStats:
    """Work counts of an integration: accepted steps, Radau's counters,
    error-test rejections, unconverged collocation solves, event brackets
    located and the event-function calls that polished them."""

    steps: int = 0
    nfev: int = 0
    njev: int = 0
    nlu: int = 0
    rejected: int = 0
    newton_failures: int = 0
    event_polishes: int = 0
    polish_evals: int = 0

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
        t = np.asarray(t, dtype=float)
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


@dataclass(frozen=True)
class EventHitResult:
    """First-hit outcome; ``t_hit is None`` reports a no-hit at t_max."""

    t_hit: float | None
    state_hit: np.ndarray | None
    trajectory: Trajectory

    @property
    def hit(self) -> bool:
        return self.t_hit is not None


def _crossed(g_old: float, g_new: float, direction: str) -> bool:
    if g_old == 0.0 or g_old * g_new > 0.0:
        return False
    rising = g_old < 0.0 <= g_new
    falling = g_old > 0.0 >= g_new
    if direction == "rising":
        return rising
    if direction == "falling":
        return falling
    return rising or falling


def _locate(ev: EventSpec, dense, t_lo: float, t_hi: float,
            g_lo: float, g_hi: float, t_scale: float) -> tuple[float, int]:
    """(event time, event-function calls) on one bracketing step."""
    if g_hi == 0.0:
        return t_hi, 0
    if g_lo * g_hi > 0.0:
        raise EventBracketError(
            f"sign change reported on [{t_lo}, {t_hi}] but endpoints do not bracket")
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


def _finite(x: np.ndarray) -> bool:
    """``np.isfinite(x).all()`` for the short arrays of a step, without a ufunc."""
    return all(map(cmath.isfinite, x.ravel().tolist()))


def _rms(x: np.ndarray) -> float:
    """scipy's RMS ``norm``: the arithmetic of ``np.linalg.norm``'s fast path."""
    x = x.ravel()
    return math.sqrt(x.dot(x)) / x.size ** 0.5


def _lu_factor(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``scipy.linalg.lu_factor(a, overwrite_a=True)`` without its wrapping."""
    if not _finite(a):
        raise ValueError("array must not contain infs or NaNs")
    lu, piv, info = _GETRF[a.dtype.char](a, overwrite_a=True)
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal getrf (lu_factor)")
    if info > 0:
        warnings.warn(f"Diagonal number {info} is exactly zero. Singular matrix.",
                      LinAlgWarning, stacklevel=2)
    return lu, piv


def _lu_solve(lu_piv: tuple[np.ndarray, np.ndarray], b: np.ndarray) -> np.ndarray:
    """``scipy.linalg.lu_solve(lu_piv, b, overwrite_b=True)`` without its wrapping."""
    lu, piv = lu_piv
    if not _finite(b):
        raise ValueError("array must not contain infs or NaNs")
    x, info = _GETRS[lu.dtype.char](lu, piv, b, trans=0, overwrite_b=True)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal getrs")
    return x


def _select_initial_step(fun, t0, y0: np.ndarray, t_bound, f0: np.ndarray,
                         rtol: float, atol: float) -> float:
    """scipy's ``select_initial_step`` for Radau (error order 3), forward in time
    and without a step bound (Hairer, Norsett & Wanner, *Solving ODEs I*, Sec. II.4)."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * f0
    f1 = fun(t0 + h0, y1)
    d2 = _rms((f1 - f0) / scale) / h0

    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 4)

    return min(100 * h0, h1, interval_length)


def _predict_factor(h_abs, h_abs_old, error_norm, error_norm_old):
    """scipy's ``predict_factor``: by which factor to change the step.
    An error norm of exactly 0 gives inf, as numpy's ``0.0 ** -0.25`` does."""
    if error_norm_old is None or h_abs_old is None or error_norm == 0:
        multiplier = 1
    else:
        multiplier = h_abs / h_abs_old * (error_norm_old / error_norm) ** 0.25
    if error_norm == 0:
        return math.inf
    return min(1, multiplier) * error_norm ** -0.25


class _RadauDense:
    """One step's collocation polynomial: scipy's ``RadauDenseOutput``.

    x, x*x, (x*x)*x are the powers that scipy's ``cumprod`` takes; scalar t
    gives (n,), 1-D t gives (n, len(t)).
    """

    def __init__(self, t_old, t, y_old: np.ndarray, Q: np.ndarray):
        self.t_old = t_old
        self.h = t - t_old
        self.Q = Q
        self.y_old = y_old

    def __call__(self, t) -> np.ndarray:
        x = (np.asarray(t) - self.t_old) / self.h
        xx = x * x
        y = np.dot(self.Q, np.array([x, xx, xx * x]))
        y += self.y_old if y.ndim == 1 else self.y_old[:, None]
        return y


class _Radau:
    """Radau IIA of order 5 with scipy 1.17's step-size and Newton policy.

    It restates scipy's ``OdeSolver``/``Radau`` constructor, ``step``,
    ``solve_collocation_system`` and dense output operation for operation,
    forward in time and without a maximum step (``integrate`` asks for
    neither).  scipy's ``Radau`` is the reference in the tests.  Only the
    per-call wrapping differs: the Newton loop calls the field directly and
    counts ``nfev`` itself, and factorizations and solves go to the LAPACK
    helpers above.  The Jacobian is always a dense float array: the
    field's ``jac`` or, without one, ``num_jac``'s differences.
    It also counts what only the step sees: error-test rejections
    (``rejected``) and unconverged collocation solves (``newton_failures``).
    ``_collocate`` and ``step`` keep scipy's layout, so they diff line by
    line against it.
    """

    TOO_SMALL_STEP = "Required step size is less than spacing between numbers."

    def __init__(self, field, t0, y0, t_bound, rtol, atol, jac):
        y0 = np.asarray(y0, dtype=float)
        if y0.ndim != 1 or y0.size == 0:
            raise DomainError(f"the state must be a non-empty 1-D array, got shape {y0.shape}")
        if not _finite(y0):
            raise DomainError(f"the initial state must be finite, got {y0.tolist()!r}")
        self._field = field
        self.t = t0
        self.y = y0
        self.t_bound = t_bound
        n = y0.size
        self.status = "running"
        self.nfev = self.njev = self.nlu = 0
        self.rejected = self.newton_failures = 0

        self.rtol, self.atol = rtol, atol
        self.f = self.fun(t0, y0)
        self.h_abs = _select_initial_step(self.fun, t0, y0, t_bound, self.f, rtol, atol)
        self.h_abs_old = None
        self.error_norm_old = None

        self.newton_tol = max(10 * _MACH_EPS / rtol, min(0.03, rtol ** 0.5))
        self.sol = None

        if jac is None:
            # the difference Jacobian is the one use of scipy.integrate
            from scipy.integrate._ivp.common import num_jac
            self.jac_factor = None

            def jac_wrapped(t, y, f):
                self.njev += 1
                J, self.jac_factor = num_jac(self._fun_vectorized, t, y, f,
                                             self.atol, self.jac_factor, None)
                return J
            J = jac_wrapped(t0, y0, self.f)
        else:
            J = jac(t0, y0)
            self.njev = 1
            # a matrix object numpy cannot read as an array has shape () here
            if np.asarray(J).shape != (n, n):
                raise DomainError(f"field.jac must return a dense array of shape {(n, n)},"
                                  f" got {type(J).__name__} of shape {np.shape(J)}")
            J = np.asarray(J, dtype=float)

            def jac_wrapped(t, y, _=None):
                self.njev += 1
                return np.asarray(jac(t, y), dtype=float)
        self.jac, self.J = jac_wrapped, J
        self.I = np.identity(n)

        self.current_jac = True
        self.LU_real = None
        self.LU_complex = None

    def fun(self, t, y) -> np.ndarray:
        self.nfev += 1
        return np.asarray(self._field(t, y), dtype=float)

    def _fun_vectorized(self, t, y: np.ndarray) -> np.ndarray:
        """The field on each column of y, uncounted (``num_jac``'s differences)."""
        f = np.empty_like(y)
        for i, yi in enumerate(y.T):
            f[:, i] = self._field(t, yi)
        return f

    def _factor(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        self.nlu += 1
        return _lu_factor(a)

    def dense_output(self) -> _RadauDense:
        """The interpolant of the last accepted step."""
        return self.sol

    def _collocate(self, t, y, h, Z0, scale, LU_real, LU_complex):
        """scipy's ``solve_collocation_system(self.fun, ...)``."""
        field, solve, tol = self._field, _lu_solve, self.newton_tol
        n = y.shape[0]
        M_real = MU_REAL / h
        M_complex = MU_COMPLEX / h

        W = TI.dot(Z0)
        Z = Z0

        F = np.empty((3, n))
        ch = h * C

        dW_norm_old = None
        dW = np.empty_like(W)
        converged = False
        rate = None
        for k in range(NEWTON_MAXITER):
            for i in range(3):
                F[i] = field(t + ch[i], y + Z[i])
            self.nfev += 3

            if not _finite(F):
                break

            f_real = F.T.dot(TI_REAL) - M_real * W[0]
            f_complex = F.T.dot(TI_COMPLEX) - M_complex * (W[1] + 1j * W[2])

            dW_real = solve(LU_real, f_real)
            dW_complex = solve(LU_complex, f_complex)

            dW[0] = dW_real
            dW[1] = dW_complex.real
            dW[2] = dW_complex.imag

            dW_norm = _rms(dW / scale)
            if dW_norm_old is not None:
                rate = dW_norm / dW_norm_old

            if (rate is not None and (rate >= 1 or
                    rate ** (NEWTON_MAXITER - k) / (1 - rate) * dW_norm > tol)):
                break

            W += dW
            Z = T.dot(W)

            if (dW_norm == 0 or
                    rate is not None and rate / (1 - rate) * dW_norm < tol):
                converged = True
                break

            dW_norm_old = dW_norm

        return converged, k + 1, Z, rate

    def step(self):
        """One accepted step (``OdeSolver.step`` around ``Radau._step_impl``);
        returns scipy's failure message, or None."""
        t = self.t
        y = self.y
        f = self.f

        atol = self.atol
        rtol = self.rtol

        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        if self.h_abs < min_step:
            h_abs = min_step
            h_abs_old = None
            error_norm_old = None
        else:
            h_abs = self.h_abs
            h_abs_old = self.h_abs_old
            error_norm_old = self.error_norm_old

        J = self.J
        LU_real = self.LU_real
        LU_complex = self.LU_complex

        current_jac = self.current_jac
        jac = self.jac

        rejected = False
        step_accepted = False
        while not step_accepted:
            if h_abs < min_step:
                self.status = "failed"
                return self.TOO_SMALL_STEP

            h = h_abs
            t_new = t + h

            if t_new > self.t_bound:
                t_new = self.t_bound

            h = t_new - t
            h_abs = abs(h)

            if self.sol is None:
                Z0 = np.zeros((3, y.shape[0]))
            else:
                Z0 = self.sol(t + h * C).T - y

            scale = atol + np.abs(y) * rtol

            converged = False
            while not converged:
                if LU_real is None or LU_complex is None:
                    LU_real = self._factor(MU_REAL / h * self.I - J)
                    LU_complex = self._factor(MU_COMPLEX / h * self.I - J)

                converged, n_iter, Z, rate = self._collocate(
                    t, y, h, Z0, scale, LU_real, LU_complex)

                if not converged:
                    self.newton_failures += 1
                    if current_jac:
                        break

                    J = self.jac(t, y, f)
                    current_jac = True
                    LU_real = None
                    LU_complex = None

            if not converged:
                h_abs *= 0.5
                LU_real = None
                LU_complex = None
                continue

            y_new = y + Z[-1]
            ZE = Z.T.dot(E) / h
            error = _lu_solve(LU_real, f + ZE)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _rms(error / scale)
            safety = 0.9 * (2 * NEWTON_MAXITER + 1) / (2 * NEWTON_MAXITER
                                                       + n_iter)

            if rejected and error_norm > 1:
                error = _lu_solve(LU_real, self.fun(t, y + error) + ZE)
                error_norm = _rms(error / scale)

            if error_norm > 1:
                factor = _predict_factor(h_abs, h_abs_old,
                                         error_norm, error_norm_old)
                h_abs *= max(MIN_FACTOR, safety * factor)

                LU_real = None
                LU_complex = None
                rejected = True
                self.rejected += 1
            else:
                step_accepted = True

        recompute_jac = n_iter > 2 and rate > 1e-3

        factor = _predict_factor(h_abs, h_abs_old, error_norm, error_norm_old)
        factor = min(MAX_FACTOR, safety * factor)

        if not recompute_jac and factor < 1.2:
            factor = 1
        else:
            LU_real = None
            LU_complex = None

        f_new = self.fun(t_new, y_new)
        if recompute_jac:
            J = jac(t_new, y_new, f_new)
            current_jac = True
        else:
            current_jac = False

        self.h_abs_old = self.h_abs
        self.error_norm_old = error_norm

        self.h_abs = h_abs * factor

        self.t = t_new
        self.y = y_new
        self.f = f_new

        self.LU_real = LU_real
        self.LU_complex = LU_complex
        self.current_jac = current_jac
        self.J = J

        self.sol = _RadauDense(t, t_new, y, np.dot(Z.T, P))
        if t_new >= self.t_bound:
            self.status = "finished"
        return None


def integrate(field, x0, t_span, cfg: IntegratorConfig | None = None,
              events: Sequence[EventSpec] = (), keep_dense: bool = True) -> Trajectory:
    """Integrate ``field`` over ``t_span`` and return the full Trajectory.

    Local error per step is bounded by atol + rtol*|state| (Radau IIA,
    order 5).  Events are detected on accepted steps and polished on the
    step's dense output to |dt| <= 1e-12 * t_scale; terminal events
    truncate the trajectory at the hit.  ``keep_dense=False`` drops the
    per-step interpolants after event processing to bound memory on very
    long runs (the returned trajectory then answers only at its samples).
    """
    cfg = cfg if cfg is not None else IntegratorConfig()
    t0, t1 = (float(t_span[0]), float(t_span[1]))
    if not (math.isfinite(t0) and math.isfinite(t1) and t1 > t0):
        raise DomainError(f"t_span must be finite with t1 > t0, got {(t0, t1)!r}")
    y0 = np.array(tuple(x0), dtype=float)
    events = list(events)
    t_scale = max(1.0, abs(t0), abs(t1))

    solver = _Radau(field, t0, y0, t1, rtol=cfg.rtol, atol=cfg.atol,
                    jac=getattr(field, "jac", None))

    ts = [t0]
    ys = [y0.copy()]
    segments: list = []
    hits: list[EventHit] = []
    g_old = [float(ev.func(t0, y0)) for ev in events]
    n_steps = polishes = polish_evals = 0

    while solver.status == "running":
        if n_steps >= cfg.max_steps:
            raise BudgetError(f"max_steps = {cfg.max_steps} exhausted at t = {solver.t}")
        try:
            message = solver.step()
        except PhoscilError:
            raise
        except ValueError as exc:
            # a non-finite Jacobian or stage (e.g. a field that is NaN past
            # its domain) fails the finite check of _lu_factor/_lu_solve
            raise DomainError(f"step failed at t = {solver.t}: {exc}") from exc
        n_steps += 1
        if solver.status == "failed":
            raise StiffnessError(f"step size underflow at t = {solver.t}: {message}")
        dense = solver.dense_output()
        t_new = float(solver.t)
        y_new = solver.y.copy()

        terminal_t: float | None = None
        if events:
            g_new = [float(ev.func(t_new, y_new)) for ev in events]
            step_hits: list[tuple[float, int]] = []
            for i, ev in enumerate(events):
                if _crossed(g_old[i], g_new[i], ev.direction):
                    t_hit, n_evals = _locate(ev, dense, ts[-1], t_new, g_old[i], g_new[i],
                                             t_scale)
                    polishes += 1
                    polish_evals += n_evals
                    step_hits.append((t_hit, i))
            step_hits.sort()
            for t_hit, i in step_hits:
                if terminal_t is not None and t_hit > terminal_t:
                    break
                hits.append(EventHit(t=t_hit, state=np.asarray(dense(t_hit), dtype=float), index=i))
                if events[i].terminal and terminal_t is None:
                    terminal_t = t_hit
            g_old = g_new

        if terminal_t is not None:
            t_new = max(terminal_t, np.nextafter(ts[-1], t_new))
            y_new = np.asarray(dense(terminal_t), dtype=float)
        if keep_dense:
            segments.append(dense)
        ts.append(t_new)
        ys.append(y_new)
        if terminal_t is not None:
            break

    stats = SolverStats(steps=n_steps, nfev=solver.nfev, njev=solver.njev, nlu=solver.nlu,
                        rejected=solver.rejected, newton_failures=solver.newton_failures,
                        event_polishes=polishes, polish_evals=polish_evals)
    return Trajectory(np.array(ts), np.vstack(ys), segments, hits,
                      tuple(getattr(field, "names", ("y0", "y1"))), stats)


def integrate_until_event(field, x0, event: EventSpec, cfg: IntegratorConfig | None = None,
                          t_max: float = math.inf, t0: float = 0.0,
                          keep_dense: bool = True) -> EventHitResult:
    """Run until the first hit of ``event`` (made terminal), or to t_max.

    A trajectory that reaches t_max without a hit yields a no-hit result,
    not an exception.  The event must not already be zero at x0 in the
    requested direction.
    """
    if not (math.isfinite(t_max) and t_max > t0):
        raise DomainError(f"t_max must be finite and exceed t0, got {t_max!r}")
    terminal = EventSpec(func=event.func, direction=event.direction, terminal=True)
    traj = integrate(field, x0, (t0, t_max), cfg, events=[terminal], keep_dense=keep_dense)
    if traj.events:
        last = traj.events[-1]
        return EventHitResult(t_hit=last.t, state_hit=last.state, trajectory=traj)
    return EventHitResult(t_hit=None, state_hit=None, trajectory=traj)


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
        states = traj.states.T.tolist()
    else:
        states = zip(*map(transform, traj.states))
    rows = zip(*(map(fmt17, col) for col in (traj.t.tolist(), *states)))
    write_csv(csv_path, ["t", *names], rows, provenance=list(provenance))
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
