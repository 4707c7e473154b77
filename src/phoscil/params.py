"""Parameter sets for the urea-urease pH oscillator in a lipid vesicle.

Physical parameters are laboratory rate constants and external
concentrations (SI units: M and 1/s).  The dimensionless reduction uses
k_max = v_max/k_M as the unit of rate, giving the seven groups

    K_s = k_S/k_max,  K_h = k_H/k_max,  K = k/k_max,
    alpha = H_ext/(2 S_ext),  beta = sqrt(k_E2/k_E1),
    eps1 = sqrt(k_E1 k_E2)/H_ext,  eps2 = alpha/(k' H_ext),

with k' = k2/(k2r + k_plus).  The two small parameters are tied to a
single one by eps1 = C*eps and eps2 = eps^2/A, where C and A are fixed
by matching a reference eps (1e-3 by default).
"""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import DomainError, ParameterFileError

__all__ = [
    "PhysicalParams",
    "DimlessParams",
    "EpsSplit",
    "UREASE_VESICLE",
    "derive_dimensionless",
    "derive_eps_split",
    "split_dimless",
    "load_physical",
]


@dataclass(frozen=True)
class PhysicalParams:
    """Rate constants and concentrations of the vesicle system (M, 1/s)."""

    S_ext: float   # external urea concentration (M)
    H_ext: float   # external acid concentration (M)
    v_max: float   # maximal enzymatic rate (M/s)
    k_M: float     # Michaelis constant (M)
    k_E1: float    # first protonation constant of the enzyme (M)
    k_E2: float    # second protonation constant of the enzyme (M)
    k2: float      # ammonia protonation rate (1/(M s))
    k2r: float     # reverse rate of the above (1/s)
    k_H: float     # acid transport rate through the membrane (1/s)
    k_S: float     # urea transport rate (1/s)
    k: float       # effective proton-consumption rate (1/s)
    k_plus: float  # ammonium loss rate (1/s)

    def __post_init__(self) -> None:
        for name, value in dataclasses.asdict(self).items():
            if not (value > 0.0 and math.isfinite(value)):
                raise DomainError(f"physical parameter {name} must be positive, got {value!r}")

    @property
    def k_prime(self) -> float:
        """Lumped protonation constant k2/(k2r + k_plus) (1/M)."""
        return self.k2 / (self.k2r + self.k_plus)

    @property
    def k_max(self) -> float:
        """Rate unit v_max/k_M of the dimensionless reduction (1/s)."""
        return self.v_max / self.k_M


@dataclass(frozen=True)
class DimlessParams:
    """The seven dimensionless groups of the reduced two-variable model."""

    K_s: float
    K_h: float
    K: float
    alpha: float
    beta: float
    eps1: float
    eps2: float

    def __post_init__(self) -> None:
        # stored as plain floats (same bits), so numpy scalars cannot leak into messages
        for name, value in dataclasses.asdict(self).items():
            if not (value > 0.0 and math.isfinite(value)):
                raise DomainError(f"dimensionless parameter {name} must be positive, got {value!r}")
            object.__setattr__(self, name, float(value))

    @property
    def admissible(self) -> bool:
        """True when alpha*K_h > K_s, i.e. a positive fixed point exists."""
        return self.alpha * self.K_h > self.K_s

    @property
    def h_star(self) -> float:
        """Equilibrium acid fraction h_* = 1 - K_s/(alpha*K_h); eps-free."""
        return 1.0 - self.K_s / (self.alpha * self.K_h)


@dataclass(frozen=True)
class EpsSplit:
    """Single small parameter eps with eps1 = C*eps and eps2 = eps^2/A."""

    eps: float
    C: float
    A: float

    def __post_init__(self) -> None:
        if not (self.eps >= 0.0 and math.isfinite(self.eps)):
            raise DomainError(f"eps must be non-negative, got {self.eps!r}")
        for name in ("C", "A"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise DomainError(f"split constant {name} must be positive, got {value!r}")

    @property
    def eps1(self) -> float:
        return self.C * self.eps

    @property
    def eps2(self) -> float:
        return self.eps * self.eps / self.A

    def at_eps(self, eps: float) -> "EpsSplit":
        """Same C and A, evaluated at a different eps."""
        return dataclasses.replace(self, eps=eps)


#: Reference parameter set of the experimental urea-urease vesicle system.
UREASE_VESICLE = PhysicalParams(
    S_ext=3.8e-4,
    H_ext=1.3e-4,
    v_max=1.85e-4,
    k_M=3e-3,
    k_E1=5e-6,
    k_E2=2e-9,
    k2=4.3e10,
    k2r=2.4e1,
    k_H=9e-3,
    k_S=1.4e-3,
    k=1.4e-3,
    k_plus=1.4e-3,
)


def _round_sig(x: float, n: int) -> float:
    if x == 0.0:
        return 0.0
    return round(x, -int(math.floor(math.log10(abs(x)))) + (n - 1))


def derive_dimensionless(phys: PhysicalParams, *, rounded: bool = False) -> DimlessParams:
    """Reduce physical parameters to the seven dimensionless groups.

    All groups are computed from the unrounded physical values.  The
    two-significant-figure set quoted in summaries is available behind
    the explicit ``rounded`` flag and should not be used for numerics:
    downstream fixed-point and timescale values match the unrounded
    derivation, not the rounded one.
    """
    k_max = phys.k_max
    dp = DimlessParams(
        K_s=phys.k_S / k_max,
        K_h=phys.k_H / k_max,
        K=phys.k / k_max,
        alpha=phys.H_ext / (2.0 * phys.S_ext),
        beta=math.sqrt(phys.k_E2 / phys.k_E1),
        eps1=math.sqrt(phys.k_E1 * phys.k_E2) / phys.H_ext,
        eps2=(phys.H_ext / (2.0 * phys.S_ext)) / (phys.k_prime * phys.H_ext),
    )
    if rounded:
        dp = DimlessParams(**{k: _round_sig(v, 2) for k, v in dataclasses.asdict(dp).items()})
    return dp


def derive_eps_split(dp: DimlessParams, eps_ref: float = 1e-3) -> EpsSplit:
    """Fix C = eps1/eps_ref and A = eps_ref^2/eps2 at a reference eps."""
    if not (eps_ref > 0.0 and math.isfinite(eps_ref)):
        raise DomainError(f"eps_ref must be positive, got {eps_ref!r}")
    return EpsSplit(eps=eps_ref, C=dp.eps1 / eps_ref, A=eps_ref * eps_ref / dp.eps2)


def split_dimless(dp: DimlessParams, es: EpsSplit) -> DimlessParams:
    """Dimensionless parameters with eps1, eps2 replaced by the split values.

    The result drives the same vector field as ``dp`` when ``es.eps``
    equals the reference eps used in :func:`derive_eps_split`, and the
    eps-perturbed family otherwise.
    """
    return dataclasses.replace(dp, eps1=es.eps1, eps2=es.eps2)


_FIELD_NAMES = tuple(f.name for f in dataclasses.fields(PhysicalParams))


def _build_physical(values: dict[str, float], source: str) -> PhysicalParams:
    unknown = sorted(set(values) - set(_FIELD_NAMES))
    if unknown:
        raise ParameterFileError(f"{source}: unknown parameter keys {unknown}")
    missing = sorted(set(_FIELD_NAMES) - set(values))
    if missing:
        raise ParameterFileError(f"{source}: missing parameter keys {missing}")
    try:
        return PhysicalParams(**values)
    except DomainError as exc:
        raise ParameterFileError(f"{source}: {exc}") from exc


def _load_text(path: Path) -> PhysicalParams:
    values: dict[str, float] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterFileError(f"{path}:{lineno}: expected 'name = value', got {raw!r}")
        name, _, text = line.partition("=")
        name = name.strip()
        try:
            value = float(text.strip())
        except ValueError as exc:
            raise ParameterFileError(f"{path}:{lineno}: non-numeric value {text.strip()!r}") from exc
        if name in values:
            raise ParameterFileError(f"{path}:{lineno}: duplicate key {name!r}")
        values[name] = value
    return _build_physical(values, str(path))


def _load_json(path: Path) -> PhysicalParams:
    try:
        obj = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ParameterFileError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParameterFileError(f"{path}: expected a JSON object of name/value pairs")
    values: dict[str, float] = {}
    for name, value in obj.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ParameterFileError(f"{path}: value for {name!r} is not a number")
        values[name] = float(value)
    return _build_physical(values, str(path))


def load_physical(path: str | Path) -> PhysicalParams:
    """Load physical parameters from a key-value text or JSON file.

    Text files hold one ``name = value`` assignment per line, with
    ``#`` comments; JSON files hold one flat object.  Both forms use the
    SI units documented on :class:`PhysicalParams` and reject unknown,
    missing and duplicate keys.
    """
    path = Path(path)
    if path.suffix.lower() == ".json":
        return _load_json(path)
    return _load_text(path)
