"""Construction of self-gravitating kinetic steady states.

A steady profile is determined by two negative multipliers (lambda, mu) and
takes the form Q(r, u) = G(((kinetic(u) + phi(r) - lambda)/mu)_+), where G is
the inverse derivative of the convex Casimir weight and phi is the profile's
own gravitational potential. Writing psi = phi - lambda turns the
self-consistency problem into an autonomous radial ODE,

    (r^2 psi')' = r^2 h(psi),    psi(0) = psi0 < 0, psi'(0) = 0,

where h(psi) is the velocity-space moment of G at local depth -psi. The
profile's support ends where psi crosses zero; matching the exterior vacuum
solution A - B/r there and requiring phi -> 0 at infinity *emits* lambda = -A.
Two independent solvers are provided (outward shooting, and a Newton-Krylov
solve of the phi self-consistency equation) so each can serve as the other's
oracle.

Velocity moments use the scaled-energy variable q = kinetic(u)/|mu| with
A = (lambda - phi)/|mu|, under which u^2 du = w(q) dq with

    w(q) = |mu| c (1 + |mu| q/c^2) sqrt((1 + |mu| q/c^2)^2 - 1)   (finite c)
    w(q) = sqrt(2) |mu|^(3/2) sqrt(q)                             (classical)

For a pure power G(s) = k s^m, m = 1/(p-1), each moment kind of _TOTALS (rho,
kin, cas, jpq, ineg) obeys one similarity: with beta = |mu| A / c^2,

    moment_k(A; mu) = C_k |mu|^(x_k) A^(e_k) g_k(beta),   x_kin = x_ineg = 5/2, else 3/2,
                                                         e_rho = m + 3/2, else m + 5/2,

where g_k depends on beta alone, not on c, and g_k = 1 classically (C_k is a
Beta function). So every shot, state, fixed point, scalar density and F value
of one p reads one spline of g_k per kind, a classical one needs no quadrature,
and _moment_profile (adaptive Gauss-Kronrod in theta after q = A sin^2 theta,
s = A cos^2 theta, which smooths both the sqrt(q) endpoint of w and the s^m
endpoint of G) only builds the tables, for other weights one per call.
"""

from __future__ import annotations

import json
import math
import os
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, NamedTuple

import numpy as np
from scipy.integrate import quad_vec, simpson
from scipy.interpolate import CubicSpline, PPoly
from scipy.optimize import NoConvergence, brentq, newton_krylov

from .errors import (
    FixedPointDivergenceError,
    GravlasovError,
    GridMismatchError,
    NonNegativeLambdaError,
    NumericsError,
    PreconditionError,
    ResolutionError,
    SupportExceedsGridError,
    TargetsUnreachableError,
)
from .kernel import (
    CasimirSpec,
    ModelParams,
    kinetic_weight,
    kinetic_weight_inverse,
    make_polytrope,
)
from . import radial
from .radial import (
    PhaseDensity,
    RadialField,
    RadialGrid,
    SpeedGrid,
    enclosed_mass,
    field_energy,
    poisson_operator,
    radius_text,
    read_radial_field,
    write_json,
    write_radial_field,
)

write_phase_density = radial.write_phase_density  # bench/tracing.py times it

__all__ = [
    "GroundState",
    "SolveTargets",
    "IdentityReport",
    "SupportReport",
    "density_from_potential",
    "integrate_state",
    "fixed_point_solve",
    "solve_targets",
    "virial_residual",
    "multiplier_identities",
    "support_check",
    "state_to_dir",
    "state_from_dir",
]

_TINY = 1e-300
_FIXED_POINT_MAX_ITER = 60
_NEWTON_MAX_ITER = 40


# --- velocity-space moments -------------------------------------------------

# moment kind -> the GroundState field holding its radial total
_TOTALS = {"rho": "m1", "kin": "ekin", "cas": "mj", "jpq": "jpq", "ineg": "ineg"}


def _q_weight(params: ModelParams, mu_abs: float, q):
    """Jacobian u^2 du/dq of the scaled-energy substitution."""
    if params.is_classical:
        return math.sqrt(2.0) * mu_abs ** 1.5 * np.sqrt(np.maximum(q, 0.0))
    c = params.c
    x = mu_abs * q / c ** 2
    return mu_abs * c * (1.0 + x) * np.sqrt(x * (2.0 + x))


def _moment_integrand(spec: CasimirSpec, params: ModelParams, mu_abs: float,
                      a_depth, theta):
    """Integrands in theta of the kernels K(q, s) G(s) of every kind, in
    _TOTALS order: rho (G), kin (kinetic weight), cas (j(Q)), jpq (j'(Q) Q,
    using j'(G(s)) = s) and ineg (c^2 (1 - 1/sqrt(1+u^2/c^2))), at depth A
    after the substitution q = A sin^2 theta, s = A - q = A cos^2 theta: with
    its Jacobian 2 A sin cos the sqrt(q) endpoint of w becomes sin^2 and the
    s^m endpoint of G cos^(2m+1)."""
    sin, cos = math.sin(theta), math.cos(theta)
    q, s = a_depth * (sin * sin), a_depth * (cos * cos)
    g_s = np.asarray(spec.g_inv(s), dtype=float)
    weight = _q_weight(params, mu_abs, q) * (2.0 * sin * cos) * a_depth
    kin = mu_abs * q * g_s
    if params.is_classical:
        ineg = kin
    else:
        c = params.c
        x = mu_abs * q / c ** 2
        ineg = c ** 2 * x / (1.0 + x) * g_s
    return np.stack([g_s * weight, kin * weight,
                     np.asarray(spec.j(g_s), dtype=float) * weight,
                     s * g_s * weight, ineg * weight])


def _moment_profile(spec: CasimirSpec, params: ModelParams, mu: float,
                    a_values: np.ndarray) -> np.ndarray:
    """Moments of every kind at many depths A_i, shape (len(_TOTALS), len(A)).

    Substituting q = A sin^2 theta maps every depth to the common interval
    theta in [0, pi/2], so one quad_vec call integrates every kind and depth on
    one subdivision.
    """
    a = np.asarray(a_values, dtype=float)
    out = np.zeros((len(_TOTALS), a.size))
    mask = a > 0
    if not np.any(mask):
        return out
    am = a[mask]
    mu_abs = abs(mu)
    val, _ = quad_vec(partial(_moment_integrand, spec, params, mu_abs, am),
                      0.0, 0.5 * math.pi, epsabs=1e-14, epsrel=1e-11, norm="max")
    out[:, mask] = 4.0 * np.pi * np.maximum(val, 0.0)
    return out


_POW = np.frompyfunc(pow, 2, 1)  # Python's float pow per element, as a float stage has it
# buckets past 253 (beta > 2^512) overflow in x (2 + x); measured at p = 1.5001 to 3
_BETA_LIMIT = 2.0 ** 512


@lru_cache(maxsize=None)
def _similarity_table(p: float, classical: bool, bucket: int):
    """(nodes, splines, spline rows, {kind: (C_k, x_k, e_k)}) of the shared g_k of
    j = t^p on 2049 nodes of sqrt(beta) = 2^bucket s, s in [0, 8], built at mu = -1,
    c = 2^-bucket, A = s^2: moments grow like 8^bucket, not beta^(m+4) as at c = 1."""
    m = 1.0 / (p - 1.0)
    base = 4.0 * math.pi * math.sqrt(2.0) * math.gamma(1.5) / p ** m
    powers = {"rho": (base * math.gamma(m + 1.0) / math.gamma(m + 2.5), 1.5, m + 1.5),
              "kin": (base * 1.5 * math.gamma(m + 1.0) / math.gamma(m + 3.5), 2.5, m + 2.5),
              "cas": (base / p * math.gamma(m + 2.0) / math.gamma(m + 3.5), 1.5, m + 2.5),
              "jpq": (base * math.gamma(m + 2.0) / math.gamma(m + 3.5), 1.5, m + 2.5)}
    powers["ineg"] = powers["kin"]   # _TOTALS order, as _moment_profile's rows
    zeta, g = np.array([0.0, 1.0]), np.ones((len(powers), 2))
    if not classical:
        s = np.linspace(0.0, 8.0, 2049)
        zeta, g = s * 2.0 ** bucket, np.ones((len(powers), s.size))
        prof = _moment_profile(make_polytrope(p), ModelParams(c=0.5 ** bucket), -1.0,
                               s[1:] ** 2)
        for row, vals, (coef, _, expo) in zip(g, prof, powers.values()):
            row[1:] = vals / (coef * _POW(s[1:], 2.0 * expo).astype(float))
    splines = {kind: CubicSpline(zeta, row) for kind, row in zip(powers, g)}
    return (zeta.tolist(), splines,
            {kind: spl.c.T.tolist() for kind, spl in splines.items()}, powers)


class _MomentTable:
    """Moment profiles scale_k A^(e_k) g_k(sqrt(v A)) of every kind in _TOTALS,
    for A up to a_max: a pure power (made by make_polytrope) reads the shared
    g_k of p (module docstring), other weights tabulate the moment itself on
    1025 nodes of sqrt(A) (scale 1, e_k = 0, v = 1). The square root makes the
    A^(3/2 + 1/(p-1)) onset C^3 or better."""

    def __init__(self, spec, params, mu, a_max):
        self.a_max = float(a_max) * (1.0 + 1e-9) + _TINY
        self._a_limit = self.a_max * (1.0 + 1e-8)
        self._lookups = {}
        mu_abs = abs(float(mu))
        if spec is make_polytrope(spec.p):
            try:  # float ** raises OverflowError: c^2, |mu|^x_k, and a lookup's A^e_k
                self._var = mu_abs / params.c ** 2
                beta = self._var * self.a_max
                if not beta < _BETA_LIMIT:
                    raise NumericsError(f"similarity beta = {beta:g} exceeds {_BETA_LIMIT:g}")
                # the smallest bucket with 64 4^bucket >= beta
                bucket = max(0, (math.frexp(beta / 64.0)[1] + 1) // 2)
                self._nodes, self._splines, self._rows, powers = _similarity_table(
                    float(spec.p), params.is_classical, bucket)
                self._power = {kind: (coef * mu_abs ** x, expo)
                               for kind, (coef, x, expo) in powers.items()}
                self.a_max ** powers["kin"][2]
            except OverflowError:
                raise NumericsError(f"moment scales overflow at mu = {mu:g}, "
                                    f"c = {params.c:g}, A = {a_max:g}") from None
            return
        zeta = np.linspace(0.0, math.sqrt(self.a_max), 1025)
        self._nodes, self._var = zeta.tolist(), 1.0
        self._splines = {kind: CubicSpline(zeta, vals) for kind, vals in zip(
            _TOTALS, _moment_profile(spec, params, mu, zeta * zeta))}
        self._rows = {kind: spl.c.T.tolist() for kind, spl in self._splines.items()}
        self._power = dict.fromkeys(_TOTALS, (1.0, 0.0))

    def lookup(self, kind: str = "rho") -> Callable[[float], float]:
        """The float lookup of one kind, built on first use: a closure over the
        kind's knots, coefficient rows and scale, so a shooting stage makes one
        call and reads no attribute. It finds scipy's interval [x_k, x_k+1) (the
        last one closed) and scipy's sum c3 + c2 d + c1 d^2 + c0 d^3 (Horner's
        order rounds otherwise), so it agrees with the array lookup bit for bit."""
        lookup = self._lookups.get(kind)
        if lookup is not None:
            return lookup
        knots, rows, (scale, expo) = self._nodes, self._rows[kind], self._power[kind]
        var, a_max, a_limit = self._var, self.a_max, self._a_limit
        last, sqrt = len(knots) - 1, math.sqrt

        def lookup(a_depth):
            if a_depth > a_limit:
                raise PreconditionError("depth outside tabulated range")
            a = 0.0 if a_depth < 0.0 else a_max if a_depth > a_max else a_depth
            zeta = sqrt(var * a)
            k = bisect_right(knots, zeta, 0, last) - 1
            c0, c1, c2, c3 = rows[k]
            d = zeta - knots[k]
            value = (c3 + c2 * d + c1 * (d * d) + c0 * ((d * d) * d)) * (scale * a ** expo)
            return 0.0 if value <= 0.0 else value

        self._lookups[kind] = lookup
        return lookup

    def __call__(self, a_depth, kind: str = "rho"):
        """max(scale A^e g(sqrt(v A)), 0) at A clipped to [0, a_max] and +0.0 at
        A <= 0, g as scipy gives it and A^e by Python's pow. An array goes through
        scipy at its positive depths only; a float goes through lookup(kind) and
        stays a Python float."""
        if not isinstance(a_depth, np.ndarray):
            return self.lookup(kind)(a_depth)
        if np.any(a_depth > self._a_limit):
            raise PreconditionError("depth outside tabulated range")
        scale, expo = self._power[kind]
        a = np.minimum(a_depth, self.a_max)
        out, pos = np.zeros(a.shape), ~(a <= 0.0)  # a nan depth stays nan
        a = a[pos]
        out[pos] = np.maximum(self._splines[kind](np.sqrt(self._var * a))
                              * (scale * _POW(a, expo).astype(float)), 0.0)
        return out


# --- public pointwise operations --------------------------------------------

def density_from_potential(spec: CasimirSpec, params: ModelParams, lam: float,
                           mu: float, phi_val: float) -> float:
    """Spatial density of the steady profile at local potential value phi_val."""
    if not (lam < 0 and mu < 0):
        raise PreconditionError("multipliers lambda and mu must be negative")
    if phi_val >= lam:
        return 0.0
    return _MomentTable(spec, params, mu, (phi_val - lam) / mu)((phi_val - lam) / mu)


# --- the solved-state container ----------------------------------------------

@dataclass(frozen=True)
class GroundState:
    """A solved steady state with its profiles and scalar functionals."""

    params: ModelParams
    spec: CasimirSpec
    lam: float
    mu: float
    psi0: float
    a: float
    phi: RadialField
    rho: RadialField
    r_support: float
    m1: float
    mj: float
    ekin: float
    epot: float
    hc: float
    profile: Callable = field(repr=False, compare=False)  # f(r, u); tabulate(m) tables it
    u_bound: float
    # auxiliary moments used by the identity verifiers
    jpq: float              # int j'(Q) Q
    ineg: float             # int c^2 (1 - 1/sqrt(1+u^2/c^2)) Q
    phi_q: float            # int phi Q dx dv = int phi rho dx

    def speed_grid(self, m: int) -> SpeedGrid:
        """m speed nodes to 1.2 u_bound, past the support box."""
        return SpeedGrid(1.2 * self.u_bound, m)

    def tabulate(self, m: int) -> PhaseDensity:
        """f from the profile on the radial grid and speed_grid(m)."""
        return PhaseDensity.from_callable(self.phi.grid, self.speed_grid(m), self.profile)

    @property
    def vir_kin(self) -> float:
        """int u^2/sqrt(1+u^2/c^2) Q (u^2 Q classically), as ekin + ineg by the
        kernel identity u^2/gamma = c^2 (gamma - 1) + c^2 (1 - 1/gamma)."""
        return self.ekin + self.ineg


@dataclass(frozen=True)
class SolveTargets:
    """Masses (m1, mj) for solve_targets, and tol, the largest relative mass error
    its Newton-Krylov polish accepts."""

    m1_target: float
    mj_target: float
    tol: float = 1e-6

    def __post_init__(self):
        if not (self.m1_target > 0 and self.mj_target > 0 and self.tol > 0):
            raise PreconditionError("targets and tolerance must be positive")


def _edge_exponent(spec: CasimirSpec) -> float:
    """Vanishing rate of rho at the support edge, rho ~ depth^(1/(p-1)+3/2)."""
    return 1.0 / (spec.p - 1.0) + 1.5


def _radial_total(r: np.ndarray, dens: np.ndarray, k: int, r_supp: float,
                  beta: float) -> float:
    """4 pi int_0^R r^2 dens dr: composite Simpson to node k plus edge sliver."""
    core = simpson(r[: k + 1] ** 2 * dens[: k + 1], x=r[: k + 1])
    sliver = r[k] ** 2 * dens[k] * (r_supp - r[k]) / (beta + 1.0)
    return float(4.0 * np.pi * (core + sliver))


def _moment_totals(spec, table: _MomentTable, r: np.ndarray, psi: np.ndarray,
                   mu: float, r_supp: float, kinds):
    """(k, {kind: moment at nodes 0..k}, {kind: radial total}), read from the
    table at depths -psi/|mu|; k is the last node strictly inside the support."""
    k = int(np.searchsorted(r, r_supp) - 1)
    if k < 2:
        raise ResolutionError("support spans fewer than three radial nodes")
    a_depth = -psi[: k + 1] / abs(mu)
    prof = {kind: table(a_depth, kind) for kind in kinds}
    beta = _edge_exponent(spec)
    return k, prof, {kind: _radial_total(r, prof[kind], k, r_supp, beta) for kind in kinds}


def _finalize_state(spec, params, table: _MomentTable, lam, mu, grid: RadialGrid,
                    psi: np.ndarray, w: np.ndarray, r_supp: float | None) -> GroundState:
    """Tabulate profiles and functionals for a solved (psi, w) pair from the table."""
    r = grid.nodes
    psi_spline = CubicSpline(r, psi)
    r_supp = _spline_crossing(psi_spline, psi, 0.0) if r_supp is None else r_supp
    k, prof, totals = _moment_totals(spec, table, r, psi, mu, r_supp, _TOTALS)
    rho = np.zeros_like(r)
    rho[: k + 1] = prof["rho"]
    phi = psi + lam
    phi_q = _radial_total(r, phi * rho, k, r_supp, _edge_exponent(spec))

    w_r = float(w[-1])  # exterior enclosed mass is constant
    epot = field_energy(grid, w)
    hc = totals["kin"] - epot

    psi0 = float(psi[0])
    u_bound = float(kinetic_weight_inverse(params, -psi0))

    def profile(rr, uu):
        rr = np.asarray(rr, dtype=float)
        psi_r = np.where(rr < r_supp, psi_spline(np.minimum(rr, r_supp)),
                         -lam - w_r / np.maximum(rr, r_supp))
        arg = (-psi_r - kinetic_weight(params, uu)) / abs(mu)
        return np.asarray(spec.g_inv(np.maximum(arg, 0.0)), dtype=float)

    return GroundState(
        params=params, spec=spec, lam=float(lam), mu=float(mu), psi0=psi0,
        a=psi0 / mu, phi=RadialField(grid=grid, values=phi),
        rho=RadialField(grid=grid, values=rho), r_support=float(r_supp),
        epot=epot, hc=hc, profile=profile, u_bound=u_bound, phi_q=phi_q,
        **{name: totals[kind] for kind, name in _TOTALS.items()},
    )


# --- shooting solver ----------------------------------------------------------

class _FastMasses(NamedTuple):
    """Cheap (m1, mj) of a shot for the target solve, and finalize(), its state."""

    m1: float
    mj: float
    lam: float
    r_support: float
    finalize: Callable[[], GroundState]


def _shoot(psi0, mu, grid: RadialGrid, table: _MomentTable):
    """Integrate the radial system outward; return (psi, w, R, w_R, lambda).

    Works in the regularized variable z = r psi, whose equation
    z'' = r h(z/r) has a smooth vector field at the origin (a fixed-step
    Runge-Kutta on the raw (psi, r^2 psi') system loses two orders to the
    coordinate singularity). The stages step (z, v = z') as Python floats.
    """
    r = grid.nodes
    nodes = r.tolist()
    h = grid.h
    mu_abs = abs(mu)
    rho = table.lookup("rho")

    if rho(-psi0 / mu_abs) <= 0.0:
        raise NumericsError("central density vanished for negative psi0")

    def accel(rr, z):
        p = z / rr if rr > 0.0 else psi0
        return rr * rho(-p / mu_abs) if p < 0.0 else 0.0

    def rk4(rr, z, v, step):
        k1z, k1v = v, accel(rr, z)
        k2z, k2v = v + 0.5 * step * k1v, accel(rr + 0.5 * step, z + 0.5 * step * k1z)
        k3z, k3v = v + 0.5 * step * k2v, accel(rr + 0.5 * step, z + 0.5 * step * k2z)
        k4z, k4v = v + step * k3v, accel(rr + step, z + step * k3z)
        return (z + (step / 6.0) * (k1z + 2 * k2z + 2 * k3z + k4z),
                v + (step / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v))

    # rk4(rr, z, v, h) inline, which takes a solve's shots about 10% less time
    # than calling it, with its products: 0.5 * h * k is half * k, and only the
    # first node has rr = 0
    half, sixth, isfinite = 0.5 * h, h / 6.0, math.isfinite
    zs, vs = [0.0], [psi0]
    z, v = 0.0, psi0
    for i in range(grid.n - 1):
        rr = nodes[i]
        p = z / rr if rr > 0.0 else psi0
        k1v = rr * rho(-p / mu_abs) if p < 0.0 else 0.0
        r2 = rr + half
        p = (z + half * v) / r2
        k2v = r2 * rho(-p / mu_abs) if p < 0.0 else 0.0
        k2z = v + half * k1v
        p = (z + half * k2z) / r2
        k3v = r2 * rho(-p / mu_abs) if p < 0.0 else 0.0
        k3z = v + half * k2v
        r4 = rr + h
        p = (z + h * k3z) / r4
        k4v = r4 * rho(-p / mu_abs) if p < 0.0 else 0.0
        k4z = v + h * k3v
        z, v = (z + sixth * (v + 2 * k2z + 2 * k3z + k4z),
                v + sixth * (k1v + 2 * k2v + 2 * k3v + k4v))
        if not (isfinite(z) and isfinite(v)):
            raise NumericsError("shooting integration produced non-finite values")
        if z >= 0.0:
            break
        zs.append(z)
        vs.append(v)
    else:
        raise SupportExceedsGridError(
            "psi never crossed zero inside the grid; enlarge r_max")
    if i < 2:
        raise ResolutionError("support ends within the first two radial cells")

    # the crossing radius inside the bracketing step; brentq's wrapper is a
    # reference cycle that keeps the root function until the next garbage
    # collection, so the function closes over scalars, not the node lists
    r_i, z_i, v_i = nodes[i], zs[i], vs[i]
    tau = brentq(lambda step: rk4(r_i, z_i, v_i, step)[0], 0.0, h,
                 xtol=1e-12 * grid.r_max)
    r_supp = r_i + tau
    z_end, v_end = rk4(r_i, z_i, v_i, tau)
    w_r = r_supp * v_end - z_end  # w = r z' - z

    lam = -w_r / r_supp
    if not lam < 0.0:
        raise NonNegativeLambdaError("exterior match produced lambda >= 0")

    z, v = np.array(zs), np.array(vs)
    psi = np.empty_like(r)
    w = np.empty_like(r)
    psi[0], w[0] = psi0, 0.0
    inner = slice(1, i + 1)
    psi[inner] = z[inner] / r[inner]
    w[inner] = r[inner] * v[inner] - z[inner]
    outer = r >= r_supp
    psi[outer] = -lam - w_r / r[outer]
    w[outer] = w_r
    return psi, w, r_supp, w_r, lam


def integrate_state(spec: CasimirSpec, params: ModelParams, psi0: float,
                    mu: float, grid: RadialGrid, fast: bool = False):
    """Shoot the radial system outward from depth psi0 < 0 at multiplier mu < 0.

    Returns a GroundState (when fast=True, the shot's masses and its finaliser). The
    emitted lambda equals -w(R)/R from the exterior vacuum match; the support
    radius must satisfy R <= r_max/4 so the vacuum tail is well separated.
    """
    if not mu < 0:
        raise PreconditionError("mu must be negative")
    if not psi0 < 0:
        raise PreconditionError(f"psi0 must be negative, got {psi0}")

    table = _MomentTable(spec, params, mu, -psi0 / abs(mu))
    psi, w, r_supp, w_r, lam = _shoot(psi0, mu, grid, table)

    if r_supp > grid.r_max / 4.0:
        raise SupportExceedsGridError(
            f"support radius {r_supp:.3g} exceeds r_max/4 = {grid.r_max / 4:.3g}; "
            "enlarge the grid")

    finalize = partial(_finalize_state, spec, params, table, lam, mu, grid, psi, w, r_supp)
    if fast:
        _, _, totals = _moment_totals(spec, table, grid.nodes, psi, mu, r_supp, ("rho", "cas"))
        return _FastMasses(totals["rho"], totals["cas"], lam, r_supp, finalize)
    return finalize()


# --- fixed-point solver (independent oracle) ----------------------------------

def fixed_point_solve(spec: CasimirSpec, params: ModelParams, lam: float,
                      mu: float, grid: RadialGrid, tol: float = 1e-10) -> GroundState:
    """Solve the self-consistency equation phi = poisson(rho(phi)) at fixed
    (lambda, mu), independently of the shooting integration.

    The nontrivial profile is an *unstable* fixed point of the plain sweep
    phi <- poisson(rho(phi)): the linearized map has a real spectral radius
    of about 4.5 for polytropic states, so no amount of plain damping
    converges (it is the separatrix between decay to vacuum and mass
    runaway). Each seed is therefore driven to a root of the Picard residual
    phi - poisson(rho(phi)) by scipy's matrix-free Newton-Krylov method:
    finite-difference Jacobian-vector products of the same residual, each
    Newton step solved by GMRES, and an Armijo line search.
    tol bounds the final sup-norm Picard residual |phi - poisson(rho(phi))|.
    """
    if not (lam < 0 and mu < 0):
        raise PreconditionError("multipliers lambda and mu must be negative")
    r = grid.nodes
    n = grid.n
    mu_abs = abs(mu)
    table = _MomentTable(spec, params, mu, 8.0 * abs(lam) / mu_abs)

    def picard_residual(phi_vec):
        nonlocal table
        a_depth = np.maximum(lam - phi_vec, 0.0) / mu_abs
        if np.max(a_depth) > table.a_max:
            table = _MomentTable(spec, params, mu, 2.0 * np.max(a_depth))
        rho = table(a_depth, "rho")
        if rho[n // 2] > 0:
            raise SupportExceedsGridError(
                "iterated density reached r_max/2; enlarge the grid")
        resid = phi_vec - poisson_operator(grid, rho)
        if not np.all(np.isfinite(resid)):
            raise NumericsError("fixed-point iteration produced non-finite values")
        return resid

    # seed ladder: Gaussian wells of varying depth and width; the shallow ones
    # fall into the trivial root's basin, so start from the moderate-depth seeds
    phi = None
    last_exc = None
    for index, (kappa, sig_frac) in enumerate(((3.0, 1 / 8), (4.0, 1 / 12), (3.0, 1 / 6),
                                               (4.0, 1 / 8), (2.0, 1 / 6), (6.0, 1 / 12))):
        seed = kappa * lam * np.exp(-((r / (grid.r_max * sig_frac)) ** 2))
        try:
            cand = newton_krylov(picard_residual, seed, f_tol=tol,
                                 maxiter=_FIXED_POINT_MAX_ITER, method="gmres")
        except NoConvergence as exc:  # it holds the last iterate
            resid = float(np.max(np.abs(picard_residual(exc.args[0]))))
            last_exc = FixedPointDivergenceError(
                f"no convergence after {_FIXED_POINT_MAX_ITER} iterations from seed "
                f"{index}: sup-norm Picard residual {resid:.3e}")
            continue
        except SupportExceedsGridError as exc:
            last_exc = exc
            continue
        if cand[0] - lam < 0.0:  # nontrivial well
            phi = cand
            break
        last_exc = FixedPointDivergenceError(
            "iteration collapsed to the trivial zero state")
    if phi is None:
        raise FixedPointDivergenceError(
            f"all seeds failed to reach a nontrivial state ({last_exc})")

    psi = phi - lam
    rho = table(-psi / mu_abs, "rho")
    w = enclosed_mass(grid, rho)

    if not np.any(psi >= 0.0):
        raise SupportExceedsGridError("converged support exceeds the grid")
    return _finalize_state(spec, params, table, lam, mu, grid, psi, w, None)


def _spline_crossing(spline: CubicSpline, y: np.ndarray, level: float) -> float:
    """First root of spline = level, solved on the piece that ends at the first
    node value y >= level (y[0] < level) alone: spline.solve pays one cubic solve
    per piece, and brentq's cyclic wrapper would leave the spline to the collector."""
    k = int(np.argmax(y >= level)) - 1
    piece = PPoly(spline.c[:, k:k + 1], spline.x[k:k + 2])
    return float(piece.solve(level, extrapolate=False)[0])


# --- target solver -------------------------------------------------------------

def _monomial_exponents(p: float) -> tuple:
    """Exponents (e1, ej) of the threshold monomial S = m1^e1 mj^ej."""
    return (2 * p - 3) / (3 * (p - 1)), 1 / (3 * (p - 1))


def solve_targets(spec: CasimirSpec, params: ModelParams, targets: SolveTargets,
                  grid: RadialGrid) -> GroundState:
    """Find (psi0, mu) so the state carries the requested (m1, mj) masses.

    Start: for a pure-power weight mu only rescales r. At fixed psi0, m1 and
    the support radius R grow like |mu|^(1/(2(p-1))) while the threshold
    monomial S stays fixed, so log S depends on x = log|psi0| alone. Stepping
    x up from -3.5 brackets its first root (the shallow branch, where S turns
    over at finite c), brentq refines it, and y = log|mu| follows from the m1
    law. These shots use a grid of at most 513 nodes and y = y0 + (p+1)/2 x,
    along which the classical psi0 scaling keeps R fixed; the first shot sets
    y0 so that R = r_max/8, and a support too large or too small is retried
    with R halved or doubled.

    Polish: scipy's Newton-Krylov on (x, y), with the relative mass errors
    (m1/m1_target - 1, mj/mj_target - 1) as residual, removes the start's
    discretisation error on the requested grid and stops when both are
    within targets.tol; for weights that are not a pure power (p1 < p2) the
    law is approximate and Newton-Krylov does the rest. A polish shot that
    fails ends the solve.
    """
    e1, ej = _monomial_exponents(spec.p)
    rate, slope = 0.5 / (spec.p - 1.0), 0.5 * (spec.p + 1.0)  # dlog R/dy, dy/dx
    scan_grid = RadialGrid(r_max=grid.r_max, n=min(grid.n, 513))
    log_s_target = e1 * math.log(targets.m1_target) + ej * math.log(targets.mj_target)
    shots = {}  # memoized, so that log S is a pure function of x
    y0 = 0.0

    def log_s(x):
        if x not in shots:
            y = y0 + slope * x
            for _ in range(6):
                try:
                    shots[x] = y, integrate_state(spec, params, -math.exp(x),
                                                  -math.exp(y), scan_grid, fast=True)
                    break
                except SupportExceedsGridError:
                    y -= math.log(2.0) / rate
                except ResolutionError:
                    y += math.log(2.0) / rate
            else:
                raise TargetsUnreachableError(
                    f"no shot at psi0 = {-math.exp(x):.6g} fits the grid")
        shot = shots[x][1]
        return e1 * math.log(shot.m1) + ej * math.log(shot.mj) - log_s_target

    xs = np.linspace(-3.5, 3.5, 11)
    log_s(xs[0])
    y, shot = shots[xs[0]]
    y0 = y - slope * xs[0] + math.log(grid.r_max / 8.0 / shot.r_support) / rate
    for x_lo, x_hi in zip(xs, xs[1:]):
        if log_s(x_lo) * log_s(x_hi) <= 0.0:
            break
    else:
        s_scan = [shot.m1 ** e1 * shot.mj ** ej for _, shot in shots.values()]
        side = "below" if log_s(xs[0]) > 0.0 else "above"
        raise TargetsUnreachableError(
            f"the targets' threshold monomial S = {math.exp(log_s_target):.6g} "
            f"is not reached for log|psi0| in [-3.5, 3.5]; it lies {side} "
            f"every S on the scan, which runs from {min(s_scan):.6g} (smallest) "
            f"to {max(s_scan):.6g} (largest)")
    x = brentq(log_s, x_lo, x_hi, xtol=1e-6)  # Newton polishes the rest
    y, shot = shots[x]  # brentq returns a point it evaluated
    z = np.array([x, y + (math.log(targets.m1_target) - math.log(shot.m1)) / rate])
    shots.clear()  # brentq's reference cycle holds log_s, and with it every scan shot

    @lru_cache(maxsize=1)  # newton_krylov shoots its start again; its last point is the state
    def polish_shot(x, y):
        try:
            return integrate_state(spec, params, -math.exp(x), -math.exp(y), grid, fast=True)
        except GravlasovError as exc:
            raise TargetsUnreachableError(
                f"shot at psi0 = {-math.exp(x):.6g}, mu = {-math.exp(y):.6g} failed: "
                f"{type(exc).__name__}: {exc}") from exc

    def mass_errors(v):
        shot = polish_shot(*v.tolist())
        return np.array([shot.m1 / targets.m1_target - 1.0, shot.mj / targets.mj_target - 1.0])

    # newton_krylov's first stop test reads inf/inf when the start already passes
    if max(map(abs, mass_errors(z))) > targets.tol:
        try:
            z = newton_krylov(mass_errors, z, f_tol=targets.tol, maxiter=_NEWTON_MAX_ITER)
        except NoConvergence as exc:  # its last iterate is shot but not tested
            z = exc.args[0]
            if (error := max(map(abs, mass_errors(z)))) > targets.tol:
                raise TargetsUnreachableError(
                    f"target solve did not converge within {_NEWTON_MAX_ITER} iterations: "
                    f"at psi0 = {-math.exp(z[0]):.6g}, mu = {-math.exp(z[1]):.6g} the "
                    f"sup-norm relative mass error is {error:.3e}") from None
    state = polish_shot(*z.tolist()).finalize()  # a miss shoots z
    polish_shot.cache_clear()  # newton_krylov's reference cycles hold this cache and its shot
    return state


# --- identity verifiers --------------------------------------------------------

def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), _TINY)


def virial_residual(state: GroundState) -> float:
    """Relative defect of the kinetic/potential balance of a steady state.

    Compares int u^2/sqrt(1+u^2/c^2) Q against -(1/2) int phi rho dx computed
    from the tabulated profiles.
    """
    lhs = state.vir_kin
    rhs = -0.5 * state.phi_q
    return (lhs - rhs) / max(abs(lhs), abs(rhs), _TINY)


@dataclass(frozen=True)
class IdentityReport:
    """Relative residuals of the stationary-state identities plus sign checks."""

    residuals: dict
    mu_negative: bool
    lambda_negative: bool
    convexity_gap_positive: bool  # int (j'(Q) Q - j(Q)) > 0

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())


def multiplier_identities(state: GroundState) -> IdentityReport:
    """Check the integral identities tying (lambda, mu) to the functionals.

    All quantities are recomputed from the tabulated state; hc stands in for
    the constrained infimum attained by the profile.
    """
    ekin, hc, m1, mj = state.ekin, state.hc, state.m1, state.mj
    jpq, lam, mu = state.jpq, state.lam, state.mu
    res = {
        "virial": abs(virial_residual(state)),
        "el_integrated": _rel(ekin + state.phi_q, lam * m1 + mu * jpq),
        "multiplier_energy": _rel(-ekin + 2.0 * hc, lam * m1 + mu * jpq),
        "multiplier_masses": _rel(-(2.0 / 3.0) * ekin + (5.0 / 3.0) * hc,
                                  lam * m1 + mu * mj),
        "mu_identity": _rel(3.0 * mu * (jpq - mj), hc - ekin),
        "lambda_identity": _rel(3.0 * lam * m1 * (jpq - mj),
                                -ekin * (2.0 * jpq - 3.0 * mj)
                                + hc * (5.0 * jpq - 6.0 * mj)),
        "virial_energy": _rel(state.vir_kin, ekin - hc),
        "hamiltonian_form": _rel(hc, -state.ineg),
    }
    return IdentityReport(residuals=res, mu_negative=mu < 0,
                          lambda_negative=lam < 0,
                          convexity_gap_positive=(jpq - mj) > 0)


@dataclass(frozen=True)
class SupportReport:
    r_support: float
    u_bound: float
    ok: bool
    max_off_support: float      # largest |Q| found outside the support box
    phi_below_lambda: bool      # phi <= lambda wherever rho > 0


def support_check(state: GroundState, m: int = 257) -> SupportReport:
    """Verify compact support: Q = 0 outside {r <= R} x {kinetic <= -psi0}. Q falls with u,
    so on the m nodes of state.speed_grid(m) each radius's first off-box node holds its
    largest off-box Q: u_0 beyond R, else the first node past the box."""
    r, u = state.phi.grid.nodes, state.speed_grid(m).nodes
    off = kinetic_weight(state.params, u) > state.lam - state.phi.values[0]
    u_off = np.where(r > state.r_support, u[0], u[np.argmax(off)])
    max_off = float(np.max(state.profile(r, u_off), initial=0.0))
    on_supp = state.rho.values > 0
    phi_ok = bool(np.all(state.phi.values[on_supp] <= state.lam + 1e-12 * abs(state.lam)))
    return SupportReport(r_support=state.r_support, u_bound=state.u_bound,
                         ok=(max_off == 0.0) and phi_ok,
                         max_off_support=max_off, phi_below_lambda=phi_ok)


# --- serialization ---------------------------------------------------------------

def state_to_dir(state: GroundState, outdir) -> dict:
    """Write state.json plus CSV profiles (phi, rho) under outdir.

    Returns the state's scalars and identity residuals; state.json holds them
    with the model and the profile paths. f is not written: state_from_dir
    rebuilds it from these.
    """
    r_text = radius_text(state.phi.grid)   # phi and rho share the grid
    write_radial_field(os.path.join(outdir, "profiles", "phi.csv"), state.phi, r_text)
    write_radial_field(os.path.join(outdir, "profiles", "rho.csv"), state.rho, r_text)
    results = {
        "lambda": state.lam,
        "mu": state.mu,
        "psi0": state.psi0,
        "a": state.a,
        "r_support": state.r_support,
        "m1": state.m1,
        "mj": state.mj,
        "ekin": state.ekin,
        "epot": state.epot,
        "hc": state.hc,
        "residuals": multiplier_identities(state).residuals,
    }
    doc = results | {
        "c": state.params.c,
        "casimir": state.spec.name,
        "p": state.spec.p,
        "profiles": {"phi": "profiles/phi.csv", "rho": "profiles/rho.csv"},
    }
    write_json(os.path.join(outdir, "state.json"), doc)
    return results


def state_from_dir(indir) -> GroundState:
    """Rebuild a GroundState from a polytrope solve's output directory.

    Profiles are re-derived from (lambda, mu, phi) so the identity verifiers
    run on a faithful state, not on stale numbers.
    """
    try:
        with open(os.path.join(indir, "state.json")) as fh:
            doc = json.load(fh)
        if not str(doc["casimir"]).startswith("polytrope"):
            raise PreconditionError("only a polytrope state can be rebuilt")
        spec = make_polytrope(float(doc["p"]))
        params = ModelParams(c=float(doc["c"]))
        phi = read_radial_field(os.path.join(indir, doc["profiles"]["phi"]))
        rho = read_radial_field(os.path.join(indir, doc["profiles"]["rho"]))
        lam, mu = float(doc["lambda"]), float(doc["mu"])
        r_supp = float(doc["r_support"])
    except (OSError, ValueError, KeyError, IndexError, TypeError, GravlasovError) as exc:
        raise PreconditionError(f"cannot rebuild a state from {indir}: "
                                f"{type(exc).__name__}: {exc}") from exc
    grid = phi.grid
    if grid != rho.grid:
        raise GridMismatchError(f"cannot rebuild a state from {indir}: "
                                "phi and rho are tabulated on different nodes")
    if not lam < 0:
        raise NonNegativeLambdaError(f"lambda must be negative, got {lam}")
    if not mu < 0:
        raise PreconditionError(f"mu must be negative, got {mu}")
    psi = phi.values - lam
    w = enclosed_mass(grid, rho.values)
    table = _MomentTable(spec, params, mu, float(np.max(-psi)) / -mu)
    return _finalize_state(spec, params, table, lam, mu, grid, psi, w, r_supp)
