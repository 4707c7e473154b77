"""Adaptive implicit integration for stiff planar fields with events.

The production path is Radau IIA (order 5, L-stable) with adaptive step
control; the wrapper adds a hard accepted-step budget, per-step dense
output retention, and event localization by bracketing plus
derivative-free root polishing on the dense output, so event timing does
not degrade when steps grow large on slow manifolds.  A trajectory's
dense output is one :class:`scipy.integrate.OdeSolution` over the kept
per-step interpolants; a trajectory without them answers only at its
recorded sample times.

Fields are callables ``field(t, y) -> dy``; when a field exposes an
analytic Jacobian as ``field.jac(t, y)`` it is used for the implicit
stages, otherwise scipy's Radau differences the field itself (its
``num_jac`` forward-difference Jacobian).

phoscil runs scipy's Radau step itself (:class:`_Radau`): scipy's step
and collocation Newton loop, operation for operation, with scipy's
tableau, step-size policy and interpolant.  The results are bit-identical
to scipy's step, which the tests keep as the reference; what goes is the
per-call wrapping around each operation.  Factorizations and solves go
straight to LAPACK getrf/getrs with the arguments and checks of
``scipy.linalg.lu_factor``/``lu_solve``.
"""
from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import OdeSolution, Radau
from scipy.integrate._ivp.radau import (
    C, E, MAX_FACTOR, MIN_FACTOR, MU_COMPLEX, MU_REAL, NEWTON_MAXITER, T, TI, TI_COMPLEX,
    TI_REAL, RadauDenseOutput, predict_factor,
)
from scipy.linalg import LinAlgWarning
from scipy.linalg.lapack import dgetrf, dgetrs, zgetrf, zgetrs
from scipy.optimize import brentq
from scipy.sparse import issparse

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


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and budgets; time units are those of the active chart."""

    rtol: float = 1e-10
    atol: float = 1e-12
    max_steps: int = 10_000_000

    def __post_init__(self) -> None:
        if not (0.0 < self.rtol <= 1e-3):
            raise DomainError(f"rtol must lie in (0, 1e-3], got {self.rtol!r}")
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
    error-test rejections and unconverged collocation solves."""

    steps: int = 0
    nfev: int = 0
    njev: int = 0
    nlu: int = 0
    rejected: int = 0
    newton_failures: int = 0

    def __add__(self, other: "SolverStats") -> "SolverStats":
        return SolverStats(*(a + b for a, b in zip(astuple(self), astuple(other))))


class Trajectory:
    """Time-ordered samples with piecewise dense output and event hits.

    ``segments`` holds one interpolant per step, evaluated together as one
    OdeSolution (at a step boundary the step that starts there answers).
    Without segments the trajectory answers exactly at its sample times
    and raises DomainError anywhere else.  ``stats`` counts the work that
    produced it (zeros when nothing was integrated).
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
        self._dense = OdeSolution(t, segments, alt_segment=True) if segments else None

    @classmethod
    def single(cls, t0: float, y0: np.ndarray, names: tuple[str, ...]) -> "Trajectory":
        """Degenerate one-sample trajectory (no integration performed)."""
        return cls(np.array([float(t0)]), np.asarray(y0, dtype=float).reshape(1, -1),
                   [], [], names)

    def __call__(self, t):
        """Dense-output evaluation; scalar t -> (d,), array t -> (n, d)."""
        t = np.asarray(t, dtype=float)
        if not np.all((self.t[0] <= t) & (t <= self.t[-1])):
            raise DomainError("dense evaluation outside the integrated span")
        if self._dense is not None:
            return self._dense(t).T
        idx = np.searchsorted(self.t, t)
        if not np.array_equal(self.t[idx], t):
            raise DomainError("trajectory kept no dense output")
        return self.states.take(idx, axis=0)


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
            g_lo: float, g_hi: float, t_scale: float) -> float:
    if g_hi == 0.0:
        return t_hi
    if g_lo * g_hi > 0.0:
        raise EventBracketError(
            f"sign change reported on [{t_lo}, {t_hi}] but endpoints do not bracket")
    try:
        return float(brentq(lambda tt: ev.func(tt, dense(tt)), t_lo, t_hi,
                            xtol=1e-12 * t_scale, rtol=4.0 * _MACH_EPS))
    except ValueError as exc:
        raise EventBracketError(f"bracketing failed on [{t_lo}, {t_hi}]: {exc}") from exc


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


def _predict(sol: RadauDenseOutput, t, h, y: np.ndarray) -> np.ndarray:
    """Radau's Newton predictor ``sol(t + h * C).T - y`` without
    ``DenseOutput.__call__``; x, x*x, (x*x)*x are the powers ``cumprod`` takes."""
    x = (t + h * C - sol.t_old) / sol.h
    xx = x * x
    y_pred = np.dot(sol.Q, np.array([x, xx, xx * x]))
    y_pred += sol.y_old[:, None]
    return y_pred.T - y


class _Radau(Radau):
    """scipy's Radau with the step run here: scipy 1.17's ``_step_impl`` and
    ``solve_collocation_system``, operation for operation.

    Only the per-call wrapping differs.  The Newton loop calls the field
    directly and counts ``nfev`` itself; the predictor is :func:`_predict`;
    a dense Jacobian's factorizations and solves go to the LAPACK helpers
    above, a sparse one keeps scipy's ``splu`` closures.
    It also counts what only the step sees: error-test rejections
    (``rejected``) and unconverged collocation solves (``newton_failures``).
    Both methods keep scipy's layout, so they diff line by line against it.
    """

    def __init__(self, field, t0, y0, t_bound, rtol, atol, jac):
        super().__init__(field, t0, y0, t_bound, rtol=rtol, atol=atol, jac=jac)
        self._field = field
        self.rejected = 0
        self.newton_failures = 0
        if issparse(self.J):
            self._factor, self._solve = self.lu, self.solve_lu
        else:
            self._factor, self._solve = self._lapack_factor, _lu_solve

    def _lapack_factor(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        self.nlu += 1
        return _lu_factor(a)

    def _collocate(self, t, y, h, Z0, scale, LU_real, LU_complex):
        """scipy's ``solve_collocation_system(self.fun, ...)``."""
        field, solve, tol = self._field, self._solve, self.newton_tol
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

    def _step_impl(self):
        t = self.t
        y = self.y
        f = self.f

        max_step = self.max_step
        atol = self.atol
        rtol = self.rtol

        min_step = 10 * np.abs(np.nextafter(t, self.direction * np.inf) - t)
        if self.h_abs > max_step:
            h_abs = max_step
            h_abs_old = None
            error_norm_old = None
        elif self.h_abs < min_step:
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
        message = None
        while not step_accepted:
            if h_abs < min_step:
                return False, self.TOO_SMALL_STEP

            h = h_abs * self.direction
            t_new = t + h

            if self.direction * (t_new - self.t_bound) > 0:
                t_new = self.t_bound

            h = t_new - t
            h_abs = np.abs(h)

            if self.sol is None:
                Z0 = np.zeros((3, y.shape[0]))
            else:
                Z0 = _predict(self.sol, t, h, y)

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
            error = self._solve(LU_real, f + ZE)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            # numpy's float keeps predict_factor's 0 ** -0.25 = inf
            error_norm = np.float64(_rms(error / scale))
            safety = 0.9 * (2 * NEWTON_MAXITER + 1) / (2 * NEWTON_MAXITER
                                                       + n_iter)

            if rejected and error_norm > 1:
                error = self._solve(LU_real, self.fun(t, y + error) + ZE)
                error_norm = np.float64(_rms(error / scale))

            if error_norm > 1:
                factor = predict_factor(h_abs, h_abs_old,
                                        error_norm, error_norm_old)
                h_abs *= max(MIN_FACTOR, safety * factor)

                LU_real = None
                LU_complex = None
                rejected = True
                self.rejected += 1
            else:
                step_accepted = True

        recompute_jac = jac is not None and n_iter > 2 and rate > 1e-3

        factor = predict_factor(h_abs, h_abs_old, error_norm, error_norm_old)
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
        elif jac is not None:
            current_jac = False

        self.h_abs_old = self.h_abs
        self.error_norm_old = error_norm

        self.h_abs = h_abs * factor

        self.y_old = y

        self.t = t_new
        self.y = y_new
        self.f = f_new

        self.Z = Z

        self.LU_real = LU_real
        self.LU_complex = LU_complex
        self.current_jac = current_jac
        self.J = J

        self.t_old = t
        self.sol = self._compute_dense_output()

        return step_accepted, message


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
    n_steps = 0

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
                    t_hit = _locate(ev, dense, ts[-1], t_new, g_old[i], g_new[i], t_scale)
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
                        rejected=solver.rejected, newton_failures=solver.newton_failures)
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
