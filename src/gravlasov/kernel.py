"""Model parameters, convex Casimir weights, and the relativistic kinetic weight.

Everything in this module is pure and immutable after construction; the other
modules only ever read from these objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import InvalidCasimirError, PreconditionError

__all__ = [
    "ModelParams",
    "CasimirSpec",
    "FunctionalReport",
    "CasimirCheck",
    "kinetic_weight",
    "kinetic_weight_inverse",
    "check_casimir",
    "make_polytrope",
]


@dataclass(frozen=True)
class ModelParams:
    """Kinetic model selector: finite light speed, or ``math.inf`` for the
    classical (Newtonian) model."""

    c: float = math.inf

    def __post_init__(self):
        if not self.c > 0:
            raise PreconditionError("light speed c must be positive (use math.inf for classical)")

    @property
    def is_classical(self) -> bool:
        return math.isinf(self.c)


@dataclass(frozen=True)
class CasimirSpec:
    """A strictly convex weight j with j(0) = j'(0) = 0.

    ``g_inv`` must be the inverse of ``j_prime`` on the nonnegative axis; it is
    supplied explicitly (not inverted numerically) because its accuracy
    dominates the steady-state solver. ``p`` is the power-growth exponent,
    ``p1 <= t j'(t)/j(t) <= p2`` the claimed ratio bounds; all three must
    exceed 3/2. Claims are checked by :func:`check_casimir`, not trusted.
    """

    j: Callable
    j_prime: Callable
    g_inv: Callable
    p: float
    p1: float
    p2: float
    name: str = "custom"

    def __post_init__(self):
        for label, value in (("p", self.p), ("p1", self.p1), ("p2", self.p2)):
            if not value > 1.5:
                raise InvalidCasimirError(f"{label} must exceed 3/2, got {value}")


@dataclass(frozen=True)
class FunctionalReport:
    """Scalar functionals of a phase-space density.

    hc = ekin - epot and ej_norm = m1 + mj + ekin by construction.
    """

    m1: float
    mj: float
    ekin: float
    epot: float
    hc: float
    ej_norm: float

    @classmethod
    def from_parts(cls, m1: float, mj: float, ekin: float, epot: float) -> "FunctionalReport":
        return cls(m1=m1, mj=mj, ekin=ekin, epot=epot,
                   hc=ekin - epot, ej_norm=m1 + mj + ekin)


def _check_nonnegative(name: str, values: np.ndarray) -> None:
    """PreconditionError naming the first value that is negative or nan."""
    if not np.all(values >= 0):
        bad = values[~(values >= 0)].flat[0]
        raise PreconditionError(f"{name} must be nonnegative, got {bad}")


def kinetic_weight(params: ModelParams, speed):
    """Kinetic energy per unit mass at |v| = speed.

    Classical: u**2/2. Finite c: c**2*(sqrt(1+u**2/c**2)-1), evaluated in the
    cancellation-free form u**2/(sqrt(1+u**2/c**2)+1), or as u*c/(sqrt(1+y**2)+y),
    y = c/u, where a square overflows (+inf at u = inf); no overflow warns.
    """
    u = np.asarray(speed, dtype=float)
    _check_nonnegative("speed", u)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if params.is_classical:
            out = 0.5 * u * u
        else:
            c = params.c
            out = u * u / (np.sqrt(1.0 + (u / c) ** 2) + 1.0)
            if not np.max(u, initial=0.0) <= 1e154 * min(c, 1.0):  # a square may overflow
                big = np.isinf((u / c) ** 2) | np.isinf(out)
                y = c / u
                out = np.where(big, u * (c / (np.hypot(1.0, y) + y)), out)
    return out if out.ndim else float(out)


def kinetic_weight_inverse(params: ModelParams, energy):
    """Speed u with kinetic_weight(u) = energy (exact algebraic inversion)."""
    e = np.asarray(energy, dtype=float)
    _check_nonnegative("energy", e)
    if params.is_classical:
        out = np.sqrt(2.0 * e)
    else:
        out = np.sqrt(2.0 * e + (e / params.c) ** 2)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class CasimirCheck:
    """Outcome of the admissibility checks on a CasimirSpec."""

    origin_ok: bool          # j(0) = 0 and j'(0) = 0
    convex_ok: bool          # j' strictly increasing on the sample grid
    growth_ok: bool          # j(t) >= C t^p with some C > 0 on the grid
    growth_constant: float   # empirical C = min j(t)/t^p (reported, not assumed)
    ratio_min: float         # min of t j'(t)/j(t)
    ratio_max: float         # max of t j'(t)/j(t)
    ratio_ok: bool           # ratio within [p1, p2] everywhere
    dichotomy_ok: bool       # b^p1 j(t) <= j(bt) <= b^p2 j(t) on sampled pairs
    inverse_ok: bool         # g_inv(j'(t)) = t on the grid

    @property
    def passed(self) -> bool:
        return (self.origin_ok and self.convex_ok and self.growth_ok
                and self.ratio_ok and self.dichotomy_ok and self.inverse_ok)


def check_casimir(spec: CasimirSpec) -> CasimirCheck:
    """Check admissibility of ``spec`` on a log grid of 200 points spanning
    [1e-8, 1e8], narrowed to [2^(-1000/q), 2^(1000/q)] where q, the largest
    claimed power, exceeds 37.6: every t^q and b^q stays a normal double.

    Raises InvalidCasimirError if j is not positive away from the origin;
    all other defects are reported as failed flags with worst-case ratios.
    """
    decades = min(8.0, 1000.0 * math.log10(2.0) / max(spec.p, spec.p1, spec.p2))
    t = np.logspace(-decades, decades, 200)
    jt = np.asarray(spec.j(t), dtype=float)
    if np.any(jt <= 0):
        raise InvalidCasimirError("j(t) must be positive for t > 0")

    jp = np.asarray(spec.j_prime(t), dtype=float)
    origin_ok = abs(float(spec.j(0.0))) < 1e-300 and abs(float(spec.j_prime(0.0))) < 1e-300
    convex_ok = bool(np.all(np.diff(jp) > 0))

    growth_constant = float(np.min(jt / t ** spec.p))
    growth_ok = bool(growth_constant > 0 and math.isfinite(growth_constant))

    ratio = t * jp / jt
    ratio_min, ratio_max = float(np.min(ratio)), float(np.max(ratio))
    rtol = 1e-9
    ratio_ok = ratio_min >= spec.p1 * (1 - rtol) and ratio_max <= spec.p2 * (1 + rtol)

    # equivalent dichotomy form, on sampled (b, t) pairs with b >= 1 and
    # b t inside the t grid
    b = np.logspace(0, decades / 4, 9)[:, None]
    tt = np.logspace(-0.75 * decades, 0.75 * decades, 25)[None, :]
    jbt = np.asarray(spec.j(b * tt), dtype=float)
    jt2 = np.asarray(spec.j(np.broadcast_to(tt, jbt.shape)), dtype=float)
    lower = b ** spec.p1 * jt2
    upper = b ** spec.p2 * jt2
    dichotomy_ok = bool(np.all(jbt >= lower * (1 - 1e-9)) and np.all(jbt <= upper * (1 + 1e-9)))

    ginv_err = np.max(np.abs(np.asarray(spec.g_inv(jp), dtype=float) - t) / t)
    inverse_ok = bool(ginv_err < 1e-9)

    return CasimirCheck(origin_ok=origin_ok, convex_ok=convex_ok,
                        growth_ok=growth_ok, growth_constant=growth_constant,
                        ratio_min=ratio_min, ratio_max=ratio_max, ratio_ok=ratio_ok,
                        dichotomy_ok=dichotomy_ok, inverse_ok=inverse_ok)


@lru_cache(maxsize=None, typed=True)
def make_polytrope(p: float) -> CasimirSpec:
    """Polytropic weight j(t) = t**p with exact derivative inverse; one spec per
    p, so ``spec is make_polytrope(spec.p)`` marks a pure power."""
    if not p > 1.5:
        raise InvalidCasimirError(f"polytropic exponent must exceed 3/2, got {p}")
    expo = 1.0 / (p - 1.0)

    def j(t):
        return np.maximum(np.asarray(t, dtype=float), 0.0) ** p

    def j_prime(t):
        return p * np.maximum(np.asarray(t, dtype=float), 0.0) ** (p - 1.0)

    def g_inv(s):
        return (np.maximum(np.asarray(s, dtype=float), 0.0) / p) ** expo

    return CasimirSpec(j=j, j_prime=j_prime, g_inv=g_inv,
                       p=p, p1=p, p2=p, name=f"polytrope-{p:g}")
