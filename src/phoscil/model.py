"""Vector fields and coordinate charts of the two-variable pH oscillator.

The reduced model tracks the dimensionless substrate s and acid h inside
the vesicle:

    ds/dt = f(s,h) = -r(h) s + K_s
    dh/dt = g(s,h) = -q(s,h) + K_h (1 - h)

with the bell-shaped enzymatic rate r(h) = 1/(beta*eps1/h + 1 + beta*h/eps1)
and q(s,h) the non-negative root of q^2 + v q - w = 0, where

    v(h) = alpha*K/eps2 * h^2 - K_h (1 - h),   w(s,h) = K/eps2 * r(h) h^2 s.

Two rescaled charts cover the fast-slow structure under the split
eps1 = C*eps, eps2 = eps^2/A: chart A uses sigma = eps*s (acidic branch,
original time), chart B uses eta = h/eps and time t' = t/eps (basic
branch).  The full reference kinetics in physical time is kept alongside
for cross-validation of the reduction.

All evaluators are pure and accept scalars or numpy arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DomainError
from .params import DimlessParams, EpsSplit, PhysicalParams, split_dimless

__all__ = [
    "State",
    "ChartAState",
    "ChartBState",
    "LogState",
    "rate_r",
    "rate_r_prime",
    "rate_r_hat",
    "q_func",
    "q_tilde_eps",
    "h_plus_eps",
    "rhs",
    "rhs_jacobian",
    "rhs_chart_A",
    "rhs_chart_B",
    "rhs_reference",
    "to_chart_A",
    "from_chart_A",
    "to_chart_B",
    "from_chart_B",
    "to_log",
    "from_log",
    "make_field",
    "make_field_chart_A",
    "make_field_chart_B",
    "make_field_reference",
]


def _check_coord(name: str, value: float) -> float:
    value = float(value)
    if not (math.isfinite(value) and value >= 0.0):
        raise DomainError(f"{name} must be finite and non-negative, got {value!r}")
    return value


@dataclass(frozen=True)
class State:
    """Dimensionless substrate and acid concentrations, both >= 0."""

    s: float
    h: float

    def __post_init__(self) -> None:
        _check_coord("s", self.s)
        _check_coord("h", self.h)

    def __iter__(self) -> Iterator[float]:
        yield self.s
        yield self.h


@dataclass(frozen=True)
class ChartAState:
    """Chart-A coordinates (sigma, h) with sigma = eps*s."""

    sigma: float
    h: float

    def __post_init__(self) -> None:
        _check_coord("sigma", self.sigma)
        _check_coord("h", self.h)

    def __iter__(self) -> Iterator[float]:
        yield self.sigma
        yield self.h


@dataclass(frozen=True)
class ChartBState:
    """Chart-B coordinates (s, eta) with eta = h/eps."""

    s: float
    eta: float

    def __post_init__(self) -> None:
        _check_coord("s", self.s)
        _check_coord("eta", self.eta)

    def __iter__(self) -> Iterator[float]:
        yield self.s
        yield self.eta


@dataclass(frozen=True)
class LogState:
    """Negative base-10 logarithms (pS, pH) of the molar concentrations."""

    pS: float
    pH: float

    def __iter__(self) -> Iterator[float]:
        yield self.pS
        yield self.pH


# --- rate functions ---------------------------------------------------------

def rate_r(h, dp: DimlessParams):
    """Bell-shaped enzymatic rate r(h); maximal at h = eps1.

    h = 0 is a domain error: the factor beta*eps1/h is singular there and
    the h -> 0 limit (zero) is the caller's business.
    """
    h = np.asarray(h, dtype=float)
    if np.any(h <= 0.0):
        raise DomainError("rate_r requires h > 0")
    out = 1.0 / (dp.beta * dp.eps1 / h + 1.0 + dp.beta * h / dp.eps1)
    return float(out) if out.ndim == 0 else out


def rate_r_prime(h, dp: DimlessParams):
    """dr/dh, from r' = (beta*eps1/h^2 - beta/eps1) r^2."""
    h = np.asarray(h, dtype=float)
    if np.any(h <= 0.0):
        raise DomainError("rate_r_prime requires h > 0")
    r = 1.0 / (dp.beta * dp.eps1 / h + 1.0 + dp.beta * h / dp.eps1)
    out = (dp.beta * dp.eps1 / (h * h) - dp.beta / dp.eps1) * r * r
    return float(out) if out.ndim == 0 else out


def rate_r_hat(eta, es: EpsSplit, dp: DimlessParams):
    """Chart-B rate r_hat(eta) = 1/(beta*C/eta + 1 + (beta/C)*eta); eps-free."""
    eta = np.asarray(eta, dtype=float)
    if np.any(eta <= 0.0):
        raise DomainError("rate_r_hat requires eta > 0")
    out = 1.0 / (dp.beta * es.C / eta + 1.0 + (dp.beta / es.C) * eta)
    return float(out) if out.ndim == 0 else out


def _monic_root(v: float, w: float) -> float:
    """Non-negative root of q^2 + v q - w = 0 for w >= 0, cancellation-free.

    The explicit root (sqrt(v^2+4w) - v)/2 when v <= 0, the conjugate
    2w/(v + sqrt(v^2+4w)) when v > 0.
    """
    disc = math.hypot(v, 2.0 * math.sqrt(w))
    return 0.5 * (disc - v) if v <= 0.0 else 2.0 * w / (v + disc)


def _monic_root_array(v, w):
    """Elementwise :func:`_monic_root` over numpy arrays (or 0-d arrays)."""
    disc = np.hypot(v, 2.0 * np.sqrt(w))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(v <= 0.0, 0.5 * (disc - v), 2.0 * w / (v + disc))


def _v_of(h, dp: DimlessParams):
    return dp.alpha * dp.K / dp.eps2 * h * h - dp.K_h * (1.0 - h)


def _w_of(s, h, dp: DimlessParams):
    # r(h)*h^2 written as h^3/(beta*eps1 + h + beta*h^2/eps1): finite as h -> 0.
    rh2 = h ** 3 / (dp.beta * dp.eps1 + h + dp.beta * h * h / dp.eps1)
    return dp.K / dp.eps2 * rh2 * s


def q_func(s, h, dp: DimlessParams):
    """Non-negative root q of q^2 + v(h) q - w(s,h) = 0.

    Evaluated in the cancellation-free branch form: the explicit root
    (sqrt(v^2+4w) - v)/2 when v <= 0, the conjugate 2w/(v + sqrt(v^2+4w))
    when v > 0.  Relative residual of the quadratic stays below 1e-10.
    """
    s = np.asarray(s, dtype=float)
    h = np.asarray(h, dtype=float)
    if np.any(s < 0.0):
        raise DomainError("q_func requires s >= 0")
    if np.any(h <= 0.0):
        raise DomainError("q_func requires h > 0")
    out = _monic_root_array(_v_of(h, dp), _w_of(s, h, dp))
    return float(out) if out.ndim == 0 else out


def rhs(state, dp: DimlessParams):
    """(ds/dt, dh/dt) of the reduced model."""
    s, h = state
    f = -rate_r(h, dp) * s + dp.K_s
    g = -q_func(s, h, dp) + dp.K_h * (1.0 - h)
    return (f, g)


def _root_slopes(q, denom, w_s, w_h, v_h):
    """(dq/ds, dq/dh) of the root q of q^2 + v(h) q - w(s,h) = 0.

    Implicit differentiation gives (2q + v) dq = dw - q dv; ``denom`` is
    2q + v, which equals sqrt(v^2 + 4w).
    """
    return w_s / denom, (w_h - q * v_h) / denom


def rhs_jacobian(state, dp: DimlessParams):
    """Analytic Jacobian of ``rhs`` with respect to (s, h).

    q's partials follow by implicit differentiation of its quadratic.
    """
    s, h = state
    r = rate_r(h, dp)
    rp = rate_r_prime(h, dp)
    v = _v_of(h, dp)
    w_s = dp.K / dp.eps2 * r * h * h
    q = _monic_root_array(v, w_s * s)
    w_h = dp.K / dp.eps2 * s * (rp * h * h + 2.0 * r * h)
    v_h = 2.0 * dp.alpha * dp.K / dp.eps2 * h + dp.K_h
    q_s, q_h = _root_slopes(q, 2.0 * q + v, w_s, w_h, v_h)
    return np.array([
        [-r, -rp * s],
        [-q_s, -q_h - dp.K_h],
    ])


# --- chart A ----------------------------------------------------------------

def h_plus_eps(es: EpsSplit, dp: DimlessParams) -> float:
    """Positive root h_eps^+ of v_tilde(h) = alpha*A*K h^2 - eps^2 K_h (1-h)."""
    aAK = dp.alpha * es.A * dp.K
    e = es.eps
    return e * (-e * dp.K_h + math.sqrt((e * dp.K_h) ** 2 + 4.0 * aAK * dp.K_h)) / (2.0 * aAK)


def _r_tilde(h, es: EpsSplit, dp: DimlessParams):
    e = es.eps
    return 1.0 / (e * e * dp.beta * es.C / h + e + (dp.beta / es.C) * h)


def q_tilde_eps(sigma, h, es: EpsSplit, dp: DimlessParams, branch: str | None = None):
    """Chart-A q evaluated through the three-branch case split.

    The branch key is h versus the seam h_eps^+ where v_tilde vanishes:
    below the seam the explicit root, at the seam sqrt(w_tilde)/eps, above
    it the conjugate form.  ``branch`` forces one of {"low", "seam",
    "high"} for seam-consistency checks; the default picks by key.
    """
    sigma = np.asarray(sigma, dtype=float)
    h = np.asarray(h, dtype=float)
    if np.any(sigma < 0.0):
        raise DomainError("q_tilde_eps requires sigma >= 0")
    if np.any(h <= 0.0):
        raise DomainError("q_tilde_eps requires h > 0")
    e = es.eps
    aAK = dp.alpha * es.A * dp.K
    v = aAK * h * h - e * e * dp.K_h * (1.0 - h)
    # r_tilde*h^2, grouped to stay finite for small h
    rh2 = h ** 3 / (e * e * dp.beta * es.C + e * h + (dp.beta / es.C) * h * h)
    w = es.A * dp.K * rh2 * sigma
    disc = np.hypot(v, 2.0 * e * np.sqrt(w))
    with np.errstate(divide="ignore", invalid="ignore"):
        low = (disc - v) / (2.0 * e * e) if e > 0.0 else np.full_like(v, np.inf)
        seam = np.sqrt(w) / e if e > 0.0 else np.full_like(v, np.inf)
        high = 2.0 * w / (v + disc)
    if branch == "low":
        out = low
    elif branch == "seam":
        out = seam
    elif branch == "high":
        out = high
    elif branch is None:
        if e > 0.0:
            hp = h_plus_eps(es, dp)
            out = np.where(h < hp, low, np.where(h > hp, high, seam))
        else:
            out = high
    else:
        raise DomainError(f"unknown branch {branch!r}")
    return float(out) if out.ndim == 0 else out


def rhs_chart_A(x, es: EpsSplit, dp: DimlessParams):
    """(dsigma/dt, dh/dt) = (eps*f_tilde, g_tilde) in chart A, original time.

    At eps = 0 the second component is the layer problem g_tilde_0(sigma,h)
    = -C*sigma/(alpha*beta*h) + K_h(1-h) and the first vanishes.
    """
    sigma, h = x
    h_arr = np.asarray(h, dtype=float)
    if np.any(h_arr <= 0.0):
        raise DomainError("rhs_chart_A requires h > 0")
    e = es.eps
    f_tilde = -_r_tilde(h, es, dp) * sigma + dp.K_s
    g_tilde = -q_tilde_eps(sigma, h, es, dp) + dp.K_h * (1.0 - np.asarray(h, dtype=float))
    g_tilde = float(g_tilde) if np.ndim(g_tilde) == 0 else g_tilde
    return (e * f_tilde, g_tilde)


# --- chart B ----------------------------------------------------------------

def _q_hat(s, eta, es: EpsSplit, dp: DimlessParams):
    e = es.eps
    v = dp.alpha * es.A * dp.K * eta * eta - dp.K_h * (1.0 - e * eta)
    # r_hat*eta^2 = eta^3/(beta*C + eta + (beta/C) eta^2): finite at eta = 0
    rh2 = eta ** 3 / (dp.beta * es.C + eta + (dp.beta / es.C) * eta * eta)
    return _monic_root_array(v, es.A * dp.K * rh2 * s)


def rhs_chart_B(x, es: EpsSplit, dp: DimlessParams):
    """(ds/dt', deta/dt') = (eps*f_hat, g_hat) in chart B, time t' = t/eps.

    g_hat extends continuously to eta = 0 (the s-axis branch of the
    critical manifold) with value 0 at eps = 0.
    """
    s, eta = x
    s_arr = np.asarray(s, dtype=float)
    eta_arr = np.asarray(eta, dtype=float)
    if np.any(s_arr < 0.0) or np.any(eta_arr < 0.0):
        raise DomainError("rhs_chart_B requires s >= 0 and eta >= 0")
    e = es.eps
    with np.errstate(divide="ignore"):
        r_hat = np.where(eta_arr > 0.0,
                         1.0 / (dp.beta * es.C / np.where(eta_arr > 0.0, eta_arr, 1.0)
                                + 1.0 + (dp.beta / es.C) * eta_arr),
                         0.0)
    f_hat = -r_hat * s_arr + dp.K_s
    g_hat = -_q_hat(s_arr, eta_arr, es, dp) + dp.K_h * (1.0 - e * eta_arr)
    if np.ndim(f_hat) == 0:
        return (e * float(f_hat), float(g_hat))
    return (e * f_hat, g_hat)


# --- reference kinetics (physical time) --------------------------------------

def rhs_reference(state, phys: PhysicalParams):
    """Full reduced kinetics in physical time (1/s), for cross-validation.

    State is (s, h) as fractions of the external concentrations,
    0 <= s <= 1 and 0 < h <= 1:

        ds/dt = -k_cat(s,h) s + k_S (1 - s)
        dh/dt = -k p(s,h) h + k_H (1 - h)

    with k_cat = v_max/(k_M + s*S_ext) * f_H(h*H_ext), the protonation
    window f_H(x) = 1/(1 + x/k_E1 + k_E2/x), and p the non-negative root
    of p^2 + b p - c = 0 for b = 1 + k'*H_ext*h + (1 - 1/h) k_H/k and
    c = 2 k_cat k' S_ext s / k (same conjugate-form evaluation as q).
    """
    s, h = state
    if not (0.0 <= s <= 1.0):
        raise DomainError(f"rhs_reference requires 0 <= s <= 1, got s={s!r}")
    if not (0.0 < h <= 1.0):
        raise DomainError(f"rhs_reference requires 0 < h <= 1, got h={h!r}")
    x = h * phys.H_ext
    f_H = 1.0 / (1.0 + x / phys.k_E1 + phys.k_E2 / x)
    k_cat = phys.v_max / (phys.k_M + s * phys.S_ext) * f_H
    b = 1.0 + phys.k_prime * phys.H_ext * h + (1.0 - 1.0 / h) * phys.k_H / phys.k
    c = 2.0 * k_cat * phys.k_prime * phys.S_ext * s / phys.k
    p = _monic_root(b, c)
    ds = -k_cat * s + phys.k_S * (1.0 - s)
    dh = -phys.k * p * h + phys.k_H * (1.0 - h)
    return (ds, dh)


# --- coordinate maps ----------------------------------------------------------

def to_chart_A(state, es: EpsSplit) -> ChartAState:
    s, h = state
    return ChartAState(sigma=es.eps * s, h=h)


def from_chart_A(x, es: EpsSplit) -> State:
    sigma, h = x
    return State(s=sigma / es.eps, h=h)


def to_chart_B(state, es: EpsSplit) -> ChartBState:
    s, h = state
    return ChartBState(s=s, eta=h / es.eps)


def from_chart_B(x, es: EpsSplit) -> State:
    s, eta = x
    return State(s=s, h=es.eps * eta)


def to_log(state, phys: PhysicalParams) -> LogState:
    """(pS, pH) of the molar concentrations s*S_ext and h*H_ext."""
    s, h = state
    if not (s > 0.0 and h > 0.0):
        raise DomainError("log coordinates require s > 0 and h > 0")
    return LogState(pS=-math.log10(s * phys.S_ext), pH=-math.log10(h * phys.H_ext))


def from_log(x, phys: PhysicalParams) -> State:
    pS, pH = x
    return State(s=10.0 ** (-pS) / phys.S_ext, h=10.0 ** (-pH) / phys.H_ext)


# --- integrator-facing field objects -----------------------------------------
#
# The adapters below use plain scalar arithmetic (no array dispatch) because
# they sit in the integrator's hot loop, and they continue the rational
# expressions smoothly across the h = 0 axis: implicit stages may probe
# slightly outside the positive quadrant even when the accepted solution
# stays inside, and a hard domain error there would abort a valid run.
# The public evaluators above keep their strict domain contracts.


def _rhs_scalar(s: float, h: float, dp: DimlessParams) -> tuple[float, float]:
    den = dp.beta * dp.eps1 + h + dp.beta * h * h / dp.eps1
    if den <= 0.0:
        raise DomainError(f"field evaluated beyond its rational pole, h = {h!r}")
    r = h / den
    v = dp.alpha * dp.K / dp.eps2 * h * h - dp.K_h * (1.0 - h)
    w = dp.K / dp.eps2 * (h * h * h / den) * s
    if w < 0.0:
        w = 0.0
    return (dp.K_s - r * s, dp.K_h * (1.0 - h) - _monic_root(v, w))


def _jac_scalar(s: float, h: float, dp: DimlessParams) -> tuple[float, float, float, float]:
    """(f_s, f_h, g_s, g_h): the Jacobian of :func:`_rhs_scalar` by rows."""
    den = dp.beta * dp.eps1 + h + dp.beta * h * h / dp.eps1
    if den <= 0.0:
        raise DomainError(f"Jacobian evaluated beyond its rational pole, h = {h!r}")
    den_h = 1.0 + 2.0 * dp.beta * h / dp.eps1
    r = h / den
    r_h = (den - h * den_h) / (den * den)
    rh2 = h * h * h / den
    rh2_h = h * h * (3.0 * den - h * den_h) / (den * den)
    v = dp.alpha * dp.K / dp.eps2 * h * h - dp.K_h * (1.0 - h)
    v_h = 2.0 * dp.alpha * dp.K / dp.eps2 * h + dp.K_h
    w = dp.K / dp.eps2 * rh2 * s
    if w < 0.0:
        w = 0.0
    q = _monic_root(v, w)
    w_s = dp.K / dp.eps2 * rh2
    w_h = dp.K / dp.eps2 * rh2_h * s
    q_s, q_h = _root_slopes(q, max(2.0 * q + v, 1e-300), w_s, w_h, v_h)
    return (-r, -r_h * s, -q_s, -q_h - dp.K_h)


class Field:
    """Planar vector field y' = F(t, y) with an optional analytic Jacobian."""

    names = ("s", "h")

    def __call__(self, t: float, y: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    jac = None  # subclasses may override with jac(t, y) -> 2x2 array


class _ScaledField(Field):
    """The base field (f, g) of ``dp`` in coordinates y = (cs*s, h/ch).

    The field is y' = (eps*f, g) at (s, h) = (y0/cs, ch*y1); its Jacobian
    follows by the chain rule, diag(eps, 1) J diag(1/cs, ch).
    make_field: (eps, cs, ch) = (1, 1, 1), which is the base field itself.
    Chart A (sigma = eps*s, original time): (cs, ch) = (eps, 1).
    Chart B (eta = h/eps, time t' = t/eps): (cs, ch) = (1, eps).
    """

    def __init__(self, names: tuple[str, str], eps: float, cs: float, ch: float,
                 dp: DimlessParams):
        self.names = names
        self._eps = eps
        self._cs = cs
        self._ch = ch
        self._dp = dp

    def __call__(self, t: float, y: np.ndarray) -> np.ndarray:
        f, g = _rhs_scalar(float(y[0]) / self._cs, self._ch * float(y[1]), self._dp)
        return np.array([self._eps * f, g])

    def jac(self, t: float, y: np.ndarray) -> np.ndarray:
        e, cs, ch = self._eps, self._cs, self._ch
        f_s, f_h, g_s, g_h = _jac_scalar(float(y[0]) / cs, ch * float(y[1]), self._dp)
        return np.array([[e / cs * f_s, e * ch * f_h], [g_s / cs, ch * g_h]])


class _ReferenceField(Field):
    def __init__(self, phys: PhysicalParams):
        self.phys = phys

    def __call__(self, t: float, y: np.ndarray) -> np.ndarray:
        return np.asarray(rhs_reference((y[0], y[1]), self.phys), dtype=float)


def make_field(dp: DimlessParams) -> Field:
    """Integrator-ready reduced-model field with analytic Jacobian."""
    return _ScaledField(("s", "h"), 1.0, 1.0, 1.0, dp)


def make_field_chart_A(es: EpsSplit, dp: DimlessParams) -> Field:
    """Chart-A field in (sigma, h), original time, with analytic Jacobian."""
    return _ScaledField(("sigma", "h"), es.eps, es.eps, 1.0, split_dimless(dp, es))


def make_field_chart_B(es: EpsSplit, dp: DimlessParams) -> Field:
    """Chart-B field in (s, eta), time t' = t/eps, with analytic Jacobian."""
    return _ScaledField(("s", "eta"), es.eps, 1.0, es.eps, split_dimless(dp, es))


def make_field_reference(phys: PhysicalParams) -> Field:
    """Reference kinetics field; the integrator differences it for a Jacobian."""
    return _ReferenceField(phys)
