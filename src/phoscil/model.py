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
branch).  Each chart's field (f_tilde, g_tilde) or (f_hat, g_hat) is
written once, in one kernel that stays regular as eps -> 0; its value at
eps = 0 is the chart's layer problem (gspt.layer_A, gspt.layer_B), and
rhs_chart_A and rhs_chart_B return (eps*f, g) from the same kernels.
The full reference kinetics in physical time is kept alongside for
cross-validation of the reduction.

The coordinate maps (to_/from_chart_A, to_/from_chart_B, to_/from_log)
return plain (float, float) pairs.  Each coordinate a chart map takes or
returns must be finite and >= 0, where one divided by eps = 0 (the layer
limit) is infinite; the log maps need s*S_ext, h*H_ext and s, h finite
and > 0.  A DomainError names the coordinate that fails.

All evaluators are pure and accept scalars or numpy arrays.  Each public
one checks its arguments once, at entry: every entry must be finite and
inside the bound it states (h > 0, s >= 0, ...), or a DomainError names
the function, or the chart for the chart fields.  Past that check only
unchecked kernels run, with numpy's float errors raised (_in_float_range):
an argument whose arithmetic overflows is a DomainError naming the
function and the float range, not a warning.  A 0-d result comes back as
a float.
"""
from __future__ import annotations

import functools
import math
import sys

import numpy as np

from .errors import DomainError
from .params import DimlessParams, EpsSplit, PhysicalParams, _as_float, _as_floats, split_dimless

__all__ = [
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


#: the bounds an argument may state, by their text
_BOUNDS = {"": lambda x: True, "> 0": lambda x: x > 0.0, ">= 0": lambda x: x >= 0.0,
           "in (0, 1)": lambda x: (x > 0.0) & (x < 1.0)}


def _arg(where: str, value, spec: str) -> np.ndarray:
    """``value`` as a float array whose entries are finite and inside the bound ``spec``
    states ("h > 0", "s >= 0", "h in (0, 1)" or a bare name), else a DomainError that
    names ``where``, the function or chart the caller asked for."""
    x = _as_floats(value)
    ok = np.isfinite(x) & _BOUNDS[spec.partition(" ")[2]](x)
    if not ok.all():
        raise DomainError(f"{where} requires finite {spec}, got {float(x[~ok][0])!r}")
    return x


def _in_float_range(fn):
    """Run the public evaluator ``fn`` with numpy's float errors raised: where its
    arithmetic overflows, or divides by a product that underflowed to 0, a DomainError
    names ``fn`` and the float range instead of a warning and an inf or nan answer."""
    @functools.wraps(fn)
    def evaluate(*args, **kwargs):
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                return fn(*args, **kwargs)
        except FloatingPointError as exc:
            raise DomainError(f"{fn.__name__} leaves the float range |x| <= "
                              f"{sys.float_info.max!r}: {exc}") from None
    return evaluate


def _out(*values):
    """Each 0-d result as a float, arrays as they are; one result alone, several as a tuple."""
    out = tuple(float(v) if np.ndim(v) == 0 else v for v in values)
    return out if len(out) > 1 else out[0]


def _check_coord(name: str, value: float, floor: str = "non-negative") -> float:
    if not (math.isfinite(value) and (value > 0.0 if floor == "positive" else value >= 0.0)):
        raise DomainError(f"{name} must be finite and {floor}, got {value!r}")
    return value


# --- rate functions ---------------------------------------------------------

def _rate(h, dp: DimlessParams):
    """r(h) on a float or an array, unchecked: h > 0 is the caller's."""
    return 1.0 / (dp.beta * dp.eps1 / h + 1.0 + dp.beta * h / dp.eps1)


@_in_float_range
def rate_r(h, dp: DimlessParams):
    """Bell-shaped enzymatic rate r(h); maximal at h = eps1.

    h = 0 is a domain error: the factor beta*eps1/h is singular there and
    the h -> 0 limit (zero) is the caller's business.
    """
    return _out(_rate(_arg("rate_r", h, "h > 0"), dp))


def _rate_slope(h, r, dp: DimlessParams):
    """r'(h) = (beta*eps1/h^2 - beta/eps1) r^2, given r = r(h); unchecked."""
    return (dp.beta * dp.eps1 / (h * h) - dp.beta / dp.eps1) * r * r


@_in_float_range
def rate_r_prime(h, dp: DimlessParams):
    """dr/dh, from r' = (beta*eps1/h^2 - beta/eps1) r^2."""
    h = _arg("rate_r_prime", h, "h > 0")
    return _out(_rate_slope(h, _rate(h, dp), dp))


def _rate_hat(eta, es: EpsSplit, dp: DimlessParams):
    """r_hat(eta) on an array, unchecked; its eta -> 0 limit 0 at eta = 0."""
    with np.errstate(divide="ignore"):
        return 1.0 / (dp.beta * es.C / eta + 1.0 + (dp.beta / es.C) * eta)


@_in_float_range
def rate_r_hat(eta, es: EpsSplit, dp: DimlessParams):
    """Chart-B rate r_hat(eta) = 1/(beta*C/eta + 1 + (beta/C)*eta); eps-free."""
    return _out(_rate_hat(_arg("rate_r_hat", eta, "eta > 0"), es, dp))


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


@_in_float_range
def q_func(s, h, dp: DimlessParams):
    """Non-negative root q of q^2 + v(h) q - w(s,h) = 0.

    Evaluated in the cancellation-free branch form: the explicit root
    (sqrt(v^2+4w) - v)/2 when v <= 0, the conjugate 2w/(v + sqrt(v^2+4w))
    when v > 0.  Relative residual of the quadratic stays below 1e-10.
    """
    s, h = _arg("q_func", s, "s >= 0"), _arg("q_func", h, "h > 0")
    return _out(_monic_root_array(_v_of(h, dp), _w_of(s, h, dp)))


@_in_float_range
def rhs(state, dp: DimlessParams):
    """(ds/dt, dh/dt) of the reduced model, for s >= 0 and h > 0."""
    s, h = state
    s, h = _arg("rhs", s, "s >= 0"), _arg("rhs", h, "h > 0")
    return _out(-_rate(h, dp) * s + dp.K_s,
                -_monic_root_array(_v_of(h, dp), _w_of(s, h, dp)) + dp.K_h * (1.0 - h))


def _root_slopes(q, denom, w_s, w_h, v_h):
    """(dq/ds, dq/dh) of the root q of q^2 + v(h) q - w(s,h) = 0.

    Implicit differentiation gives (2q + v) dq = dw - q dv; ``denom`` is
    2q + v, which equals sqrt(v^2 + 4w).
    """
    return w_s / denom, (w_h - q * v_h) / denom


def _jacobian_rows(s, h, r, q, v, alpha, K_h, dp: DimlessParams):
    """(f_s, f_h, g_s, g_h) at (s, h) from r = r(h) and the root q of q^2 + v q - w.

    alpha and K_h may be arrays over a parameter grid; the other groups come from ``dp``.
    """
    rp = _rate_slope(h, r, dp)
    w_s = dp.K / dp.eps2 * r * h * h
    w_h = dp.K / dp.eps2 * s * (rp * h * h + 2.0 * r * h)
    q_s, q_h = _root_slopes(q, 2.0 * q + v, w_s, w_h, 2.0 * alpha * dp.K / dp.eps2 * h + K_h)
    return -r, -rp * s, -q_s, -q_h - K_h


@_in_float_range
def rhs_jacobian(state, dp: DimlessParams):
    """Analytic Jacobian of ``rhs`` with respect to (s, h), on rhs's domain."""
    s, h = state
    s, h = _arg("rhs_jacobian", s, "s >= 0"), _arg("rhs_jacobian", h, "h > 0")
    r = _rate(h, dp)
    v = _v_of(h, dp)
    q = _monic_root_array(v, dp.K / dp.eps2 * r * h * h * s)
    f_s, f_h, g_s, g_h = _jacobian_rows(s, h, r, q, v, dp.alpha, dp.K_h, dp)
    return np.array([[f_s, f_h], [g_s, g_h]])


# --- chart A ----------------------------------------------------------------

def h_plus_eps(es: EpsSplit, dp: DimlessParams) -> float:
    """Positive root h_eps^+ of v_tilde(h) = alpha*A*K h^2 - eps^2 K_h (1-h)."""
    aAK = dp.alpha * es.A * dp.K
    e = es.eps
    return e * (-e * dp.K_h + math.sqrt((e * dp.K_h) ** 2 + 4.0 * aAK * dp.K_h)) / (2.0 * aAK)


@_in_float_range
def q_tilde_eps(sigma, h, es: EpsSplit, dp: DimlessParams, branch: str | None = None):
    """Chart-A q evaluated through the three-branch case split.

    The branch key is h versus the seam h_eps^+ where v_tilde vanishes:
    below the seam the explicit root, at the seam sqrt(w_tilde)/eps, above
    it the conjugate form.  ``branch`` forces one of {"low", "seam",
    "high"} for seam-consistency checks; the default picks by key.
    """
    sigma, h = _arg("q_tilde_eps", sigma, "sigma >= 0"), _arg("q_tilde_eps", h, "h > 0")
    return _out(_q_tilde(sigma, h, es, dp, branch))


def _q_tilde(sigma, h, es: EpsSplit, dp: DimlessParams, branch: str | None = None):
    """:func:`q_tilde_eps` on arrays, unchecked."""
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
    return out


def _chart_A(sigma, h, es: EpsSplit, dp: DimlessParams):
    """(f_tilde, g_tilde) at sigma >= 0, h > 0: finite at eps = 0, where it is the layer problem."""
    sigma, h = _arg("chart A", sigma, "sigma >= 0"), _arg("chart A", h, "h > 0")
    e = es.eps
    r_tilde = 1.0 / (e * e * dp.beta * es.C / h + e + (dp.beta / es.C) * h)
    f_tilde = -r_tilde * sigma + dp.K_s
    g_tilde = -_q_tilde(sigma, h, es, dp) + dp.K_h * (1.0 - h)
    return _out(f_tilde, g_tilde)


@_in_float_range
def rhs_chart_A(x, es: EpsSplit, dp: DimlessParams):
    """(dsigma/dt, dh/dt) = (eps*f_tilde, g_tilde) in chart A, original time.

    At eps = 0 the first component vanishes and the second is the layer problem's g0.
    """
    f_tilde, g_tilde = _chart_A(*x, es, dp)
    return es.eps * f_tilde, g_tilde


# --- chart B ----------------------------------------------------------------

def _chart_B(s, eta, es: EpsSplit, dp: DimlessParams):
    """(f_hat, g_hat) at (s, eta), s, eta >= 0: finite at eps = 0, where it is the layer problem."""
    s, eta = _arg("chart B", s, "s >= 0"), _arg("chart B", eta, "eta >= 0")
    inflow = dp.K_h * (1.0 - es.eps * eta)
    v = dp.alpha * es.A * dp.K * eta * eta - inflow
    # r_hat*eta^2 = eta^3/(beta*C + eta + (beta/C) eta^2): finite at eta = 0
    rh2 = eta ** 3 / (dp.beta * es.C + eta + (dp.beta / es.C) * eta * eta)
    f_hat = -_rate_hat(eta, es, dp) * s + dp.K_s
    g_hat = -_monic_root_array(v, es.A * dp.K * rh2 * s) + inflow
    return _out(f_hat, g_hat)


@_in_float_range
def rhs_chart_B(x, es: EpsSplit, dp: DimlessParams):
    """(ds/dt', deta/dt') = (eps*f_hat, g_hat) in chart B, time t' = t/eps.

    g_hat extends continuously to eta = 0 (the s-axis branch of the
    critical manifold) with value 0 at eps = 0.
    """
    f_hat, g_hat = _chart_B(*x, es, dp)
    return es.eps * f_hat, g_hat


# --- reference kinetics (physical time) --------------------------------------

def _reference_terms(s, h, phys: PhysicalParams) -> tuple[float, float, float]:
    """(f_H, k_cat, b) of :func:`rhs_reference` at (s, h), after its domain check."""
    if not (0.0 <= s <= 1.0):
        raise DomainError(f"rhs_reference requires 0 <= s <= 1, got s={s!r}")
    if not (0.0 < h <= 1.0):
        raise DomainError(f"rhs_reference requires 0 < h <= 1, got h={h!r}")
    x = h * phys.H_ext
    f_H = 1.0 / (1.0 + x / phys.k_E1 + phys.k_E2 / x)
    k_cat = phys.v_max / (phys.k_M + s * phys.S_ext) * f_H
    b = 1.0 + phys.k_prime * phys.H_ext * h + (1.0 - 1.0 / h) * phys.k_H / phys.k
    return f_H, k_cat, b


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
    s, h = map(_as_float, state)
    _, k_cat, b = _reference_terms(s, h, phys)
    c = 2.0 * k_cat * phys.k_prime * phys.S_ext * s / phys.k
    p = _monic_root(b, c)
    ds = -k_cat * s + phys.k_S * (1.0 - s)
    dh = -phys.k * p * h + phys.k_H * (1.0 - h)
    return (ds, dh)


# --- coordinate maps ----------------------------------------------------------

def to_chart_A(state, es: EpsSplit) -> tuple[float, float]:
    """(sigma, h) with sigma = eps*s."""
    s, h = map(_as_float, state)
    return _check_coord("sigma", es.eps * _check_coord("s", s)), _check_coord("h", h)


def from_chart_A(x, es: EpsSplit) -> tuple[float, float]:
    sigma, h = map(_as_float, x)
    return _check_coord("s", sigma / es.eps if es.eps else math.inf), _check_coord("h", h)


def to_chart_B(state, es: EpsSplit) -> tuple[float, float]:
    """(s, eta) with eta = h/eps."""
    s, h = map(_as_float, state)
    return _check_coord("s", s), _check_coord("eta", h / es.eps if es.eps else math.inf)


def from_chart_B(x, es: EpsSplit) -> tuple[float, float]:
    s, eta = map(_as_float, x)
    return _check_coord("s", s), _check_coord("h", es.eps * _check_coord("eta", eta))


def to_log(state, phys: PhysicalParams) -> tuple[float, float]:
    """(pS, pH): negative base-10 logarithms of the molar s*S_ext and h*H_ext."""
    s, h = map(_as_float, state)
    return (-math.log10(_check_coord("s*S_ext", s * phys.S_ext, "positive")),
            -math.log10(_check_coord("h*H_ext", h * phys.H_ext, "positive")))


def from_log(x, phys: PhysicalParams) -> tuple[float, float]:
    pS, pH = map(_as_float, x)
    try:
        return (_check_coord("s", 10.0 ** (-pS) / phys.S_ext, "positive"),
                _check_coord("h", 10.0 ** (-pH) / phys.H_ext, "positive"))
    except OverflowError:  # 10**(-pS) or 10**(-pH) beyond float range
        raise DomainError(f"s or h overflows a float at (pS, pH) = {(pS, pH)!r}") from None


# --- integrator-facing field objects -----------------------------------------
#
# The adapters below use plain scalar arithmetic (no array dispatch) because
# they sit in the integrator's hot loop, and they continue the rational
# expressions smoothly across the h = 0 axis: implicit stages may probe
# slightly outside the positive quadrant even when the accepted solution
# stays inside, and a hard domain error there would abort a valid run.
# The public evaluators above keep their strict domain contracts.


def _rhs_constants(dp: DimlessParams) -> tuple[float, ...]:
    """The parameter products of :func:`_rhs_scalar`, in its order of evaluation."""
    return (dp.beta * dp.eps1, dp.beta, dp.eps1, dp.alpha * dp.K / dp.eps2, dp.K / dp.eps2,
            dp.K_h, dp.K_s)


def _rhs_scalar(s: float, h: float, c: tuple[float, ...]) -> tuple[float, float]:
    be, beta, eps1, v_hh, w_r, K_h, K_s = c
    den = be + h + beta * h * h / eps1
    if den <= 0.0:
        raise DomainError(f"field evaluated beyond its rational pole, h = {h!r}")
    r = h / den
    inflow = K_h * (1.0 - h)
    w = w_r * (h * h * h / den) * s
    if w < 0.0:
        w = 0.0
    return K_s - r * s, inflow - _monic_root(v_hh * h * h - inflow, w)


def _jac_scalar(s: float, h: float, c: tuple[float, ...]) -> tuple[float, float, float, float]:
    """(f_s, f_h, g_s, g_h): the Jacobian of :func:`_rhs_scalar` by rows."""
    be, beta, eps1, v_hh, w_r, K_h, _ = c
    den = be + h + beta * h * h / eps1
    if den <= 0.0:
        raise DomainError(f"Jacobian evaluated beyond its rational pole, h = {h!r}")
    den_h = 1.0 + 2.0 * beta * h / eps1
    r = h / den
    r_h = (den - h * den_h) / (den * den)
    rh2 = h * h * h / den
    rh2_h = h * h * (3.0 * den - h * den_h) / (den * den)
    v = v_hh * h * h - K_h * (1.0 - h)
    w = w_r * rh2 * s
    if w < 0.0:
        w = 0.0
    q = _monic_root(v, w)
    # 2.0 * v_hh is 2*alpha*K/eps2 to the bit: doubling commutes with rounding
    q_s, q_h = _root_slopes(q, max(2.0 * q + v, 1e-300), w_r * rh2, w_r * rh2_h * s,
                            2.0 * v_hh * h + K_h)
    return (-r, -r_h * s, -q_s, -q_h - K_h)


class _ScaledField:
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
        self._c = _rhs_constants(dp)

    def __call__(self, t: float, y) -> tuple[float, float]:
        f, g = _rhs_scalar(float(y[0]) / self._cs, self._ch * float(y[1]), self._c)
        return self._eps * f, g

    def jac(self, t: float, y) -> np.ndarray:
        e, cs, ch = self._eps, self._cs, self._ch
        f_s, f_h, g_s, g_h = _jac_scalar(float(y[0]) / cs, ch * float(y[1]), self._c)
        return np.array([[e / cs * f_s, e * ch * f_h], [g_s / cs, ch * g_h]])


class _ReferenceField:
    """Reference kinetics in (s, h) with the Jacobian of :func:`rhs_reference`."""

    names = ("s", "h")

    def __init__(self, phys: PhysicalParams):
        self.phys = phys

    def __call__(self, t: float, y) -> tuple[float, float]:
        return rhs_reference((y[0], y[1]), self.phys)

    def jac(self, t: float, y) -> np.ndarray:
        """d(ds/dt, dh/dt)/d(s, h); p's partials through :func:`_root_slopes`."""
        ph, s, h = self.phys, float(y[0]), float(y[1])
        f_H, k_cat, b = _reference_terms(s, h, ph)
        x = h * ph.H_ext
        k_cat_s = -k_cat * ph.S_ext / (ph.k_M + s * ph.S_ext)
        k_cat_h = -k_cat * f_H * ph.H_ext * (1.0 / ph.k_E1 - ph.k_E2 / (x * x))
        g = 2.0 * ph.k_prime * ph.S_ext / ph.k  # c = g k_cat s
        p = _monic_root(b, g * k_cat * s)
        p_s, p_h = _root_slopes(p, 2.0 * p + b, g * (k_cat + s * k_cat_s), g * s * k_cat_h,
                                ph.k_prime * ph.H_ext + ph.k_H / (ph.k * h * h))
        return np.array([[-(k_cat + s * k_cat_s) - ph.k_S, -s * k_cat_h],
                         [-ph.k * h * p_s, -ph.k * (p + h * p_h) - ph.k_H]])


def make_field(dp: DimlessParams) -> _ScaledField:
    """Integrator-ready reduced-model field with analytic Jacobian."""
    return _ScaledField(("s", "h"), 1.0, 1.0, 1.0, dp)


def make_field_chart_A(es: EpsSplit, dp: DimlessParams) -> _ScaledField:
    """Chart-A field in (sigma, h), original time, with analytic Jacobian."""
    return _ScaledField(("sigma", "h"), es.eps, es.eps, 1.0, split_dimless(dp, es))


def make_field_chart_B(es: EpsSplit, dp: DimlessParams) -> _ScaledField:
    """Chart-B field in (s, eta), time t' = t/eps, with analytic Jacobian."""
    return _ScaledField(("s", "eta"), es.eps, 1.0, es.eps, split_dimless(dp, es))


def make_field_reference(phys: PhysicalParams) -> _ReferenceField:
    """Reference kinetics field with analytic Jacobian."""
    return _ReferenceField(phys)
