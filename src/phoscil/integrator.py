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
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import OdeSolution, Radau
from scipy.optimize import brentq

from ._fmt import fmt17, write_csv, write_json
from .errors import BudgetError, DomainError, EventBracketError, StiffnessError

__all__ = [
    "IntegratorConfig",
    "EventSpec",
    "EventHit",
    "EventHitResult",
    "Trajectory",
    "integrate",
    "integrate_until_event",
    "export_trajectory",
]

_MACH_EPS = float(np.finfo(float).eps)


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


class Trajectory:
    """Time-ordered samples with piecewise dense output and event hits.

    ``segments`` holds one interpolant per step, evaluated together as one
    OdeSolution (at a step boundary the step that starts there answers).
    Without segments the trajectory answers exactly at its sample times
    and raises DomainError anywhere else.
    """

    def __init__(self, t: np.ndarray, states: np.ndarray, segments: list,
                 events: list[EventHit], names: tuple[str, ...]):
        self.t = t
        self.states = states
        self.segments = segments
        self.events = events
        self.names = names
        self._dense = OdeSolution(t, segments, alt_segment=True) if segments else None

    @classmethod
    def single(cls, t0: float, y0: np.ndarray, names: tuple[str, ...]) -> "Trajectory":
        """Degenerate one-sample trajectory (no integration performed)."""
        return cls(np.array([float(t0)]), np.asarray(y0, dtype=float).reshape(1, -1),
                   [], [], names)

    def __call__(self, t):
        """Dense-output evaluation; scalar t -> (d,), array t -> (n, d)."""
        t = np.asarray(t, dtype=float)
        if np.any(t < self.t[0]) or np.any(t > self.t[-1]):
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

    solver = Radau(field, t0, y0, t1, rtol=cfg.rtol, atol=cfg.atol,
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
        message = solver.step()
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

    return Trajectory(np.array(ts), np.vstack(ys), segments,
                      hits, tuple(getattr(field, "names", ("y0", "y1"))))


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
    rows = []
    for ti, yi in zip(traj.t, traj.states):
        out = transform(yi) if transform is not None else yi
        rows.append([fmt17(ti)] + [fmt17(v) for v in out])
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
