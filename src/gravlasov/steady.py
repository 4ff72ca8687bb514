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
Two independent solvers are provided (outward shooting, and a damped
Newton-Kantorovich iteration on the phi self-consistency equation) so each
can serve as the other's oracle.

Velocity moments use the scaled-energy variable q = kinetic(u)/|mu| with
A = (lambda - phi)/|mu|, under which u^2 du = w(q) dq with

    w(q) = |mu| c (1 + |mu| q/c^2) sqrt((1 + |mu| q/c^2)^2 - 1)   (finite c)
    w(q) = sqrt(2) |mu|^(3/2) sqrt(q)                             (classical)

The sqrt(q) endpoint behaviour is absorbed by the substitution q = A t^2
before adaptive Gauss-Kronrod integration.
"""

from __future__ import annotations

import json
import math
import os
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.integrate import cumulative_simpson, quad, quad_vec, simpson
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

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
    poisson_operator,
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
    "ode_rhs",
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

def _kind_factor(spec: CasimirSpec, params: ModelParams, mu_abs: float,
                 q, s, g_s, kind: str):
    """Kernel K(q, s) G(s) for the supported moment kinds.

    kinds: "rho" (plain density), "kin" (kinetic weight), "cas" (j(Q)),
    "jpq" (j'(Q) Q, using j'(G(s)) = s), "ineg" (c^2 (1 - 1/sqrt(1+u^2/c^2))).
    """
    if kind == "rho":
        return g_s
    if kind == "cas":
        return np.asarray(spec.j(g_s), dtype=float)
    if kind == "jpq":
        return s * g_s
    if kind == "kin" or (kind == "ineg" and params.is_classical):
        return mu_abs * q * g_s
    if kind == "ineg":
        c = params.c
        x = mu_abs * q / c ** 2
        return c ** 2 * x / (1.0 + x) * g_s
    raise PreconditionError(f"unknown moment kind {kind!r}")


def _q_weight(params: ModelParams, mu_abs: float, q):
    """Jacobian u^2 du/dq of the scaled-energy substitution."""
    if params.is_classical:
        return math.sqrt(2.0) * mu_abs ** 1.5 * np.sqrt(np.maximum(q, 0.0))
    c = params.c
    x = mu_abs * q / c ** 2
    return mu_abs * c * (1.0 + x) * np.sqrt(x * (2.0 + x))


def _moment_integrand(spec: CasimirSpec, params: ModelParams, mu_abs: float,
                      a_depth, t, kinds):
    """Integrands in t, one per kind, at depth A after the substitution q = A t^2."""
    q = a_depth * t * t
    s = a_depth - q
    g_s = np.asarray(spec.g_inv(np.maximum(s, 0.0)), dtype=float)
    weight = _q_weight(params, mu_abs, q)
    rows = []  # a loop: a comprehension's closure costs the scalar quad ~1 us a point
    for kind in kinds:
        rows.append(_kind_factor(spec, params, mu_abs, q, s, g_s, kind)
                    * weight * 2.0 * a_depth * t)
    return rows


def _velocity_moment(spec: CasimirSpec, params: ModelParams, mu: float,
                     a_depth: float) -> float:
    """Density moment 4 pi int_0^A G(A-q) w(q) dq by scalar adaptive quadrature."""
    if a_depth <= 0.0:
        return 0.0
    mu_abs = abs(mu)
    val, _ = quad(
        lambda t: float(_moment_integrand(spec, params, mu_abs, a_depth, t, ("rho",))[0]),
        0.0, 1.0, epsabs=1e-14, epsrel=1e-11, limit=200)
    return 4.0 * np.pi * val


def _moment_profile(spec: CasimirSpec, params: ModelParams, mu: float,
                    a_values: np.ndarray, kinds) -> np.ndarray:
    """Moments of every kind at many depths A_i, shape (len(kinds), len(A)).

    Substituting q = A t^2 maps every depth to the common interval t in [0, 1],
    so one quad_vec call integrates every kind and depth on one subdivision.
    """
    a = np.asarray(a_values, dtype=float)
    out = np.zeros((len(kinds), a.size))
    mask = a > 0
    if not np.any(mask):
        return out
    am = a[mask]
    mu_abs = abs(mu)
    val, _ = quad_vec(
        lambda t: np.stack(_moment_integrand(spec, params, mu_abs, am, t, kinds)),
        0.0, 1.0, epsabs=1e-14, epsrel=1e-11, norm="max")
    out[:, mask] = 4.0 * np.pi * np.maximum(val, 0.0)
    return out


class _MomentTable:
    """Cubic-spline tables of moment profiles in the variable sqrt(A).

    The moments behave like A^(3/2 + 1/(p-1)) near A = 0, which the sqrt
    substitution turns into a C^3-or-better function for every p > 3/2.
    """

    def __init__(self, spec, params, mu, a_max, kinds=("rho",), n_tab=1025):
        self.a_max = float(a_max) * (1.0 + 1e-9) + _TINY
        self._a_limit = self.a_max * (1.0 + 1e-8)
        zeta = np.linspace(0.0, math.sqrt(self.a_max), n_tab)
        a_nodes = zeta * zeta
        self._zeta, self._nodes = zeta, zeta.tolist()
        self._splines = {kind: CubicSpline(zeta, vals) for kind, vals in
                         zip(kinds, _moment_profile(spec, params, mu, a_nodes, kinds))}
        self._rows = {kind: spl.c.T.tolist() for kind, spl in self._splines.items()}

    def __call__(self, a_depth, kind: str = "rho"):
        """max(spline(sqrt(clip(A, 0, a_max))), 0) for a float or an array A,
        bit for bit as scipy gives it: the same interval [x_k, x_k+1) (the
        last one closed) and scipy's sum c3 + c2 d + c1 d^2 + c0 d^3 (Horner's
        order rounds otherwise). A float stays a Python float, so a shooting
        stage pays no numpy call. Node 0 sits at A = 0, where moments are 0.
        """
        array, top = isinstance(a_depth, np.ndarray), len(self._nodes) - 1
        if np.any(a_depth > self._a_limit) if array else a_depth > self._a_limit:
            raise PreconditionError("depth outside tabulated range")
        if array:
            zeta = np.sqrt(np.clip(a_depth, 0.0, self.a_max))
            k = np.minimum(np.searchsorted(self._zeta, zeta, side="right"), top) - 1
            c0, c1, c2, c3 = self._splines[kind].c[:, k]
            d = zeta - self._zeta[k]
        else:
            a_max = self.a_max
            zeta = math.sqrt(0.0 if a_depth < 0.0 else a_max if a_depth > a_max else a_depth)
            k = min(bisect_right(self._nodes, zeta), top) - 1
            c0, c1, c2, c3 = self._rows[kind][k]
            d = zeta - self._nodes[k]
        value = c3 + c2 * d + c1 * (d * d) + c0 * ((d * d) * d)
        if array:
            return np.maximum(value, 0.0)
        return 0.0 if value <= 0.0 else value

    def derivative(self, a_depth):
        """d(density)/dA, finite where the profile is (zero outside support)."""
        zeta = np.sqrt(np.clip(a_depth, 0.0, self.a_max))
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(zeta > 0, self._splines["rho"](zeta, 1) / (2.0 * zeta), 0.0)


# --- public pointwise operations --------------------------------------------

def density_from_potential(spec: CasimirSpec, params: ModelParams, lam: float,
                           mu: float, phi_val: float) -> float:
    """Spatial density of the steady profile at local potential value phi_val."""
    if not (lam < 0 and mu < 0):
        raise PreconditionError("multipliers lambda and mu must be negative")
    if phi_val >= lam:
        return 0.0
    return _velocity_moment(spec, params, mu, (phi_val - lam) / mu)


def ode_rhs(spec: CasimirSpec, params: ModelParams, mu: float, psi_val: float) -> float:
    """Right-hand side h(psi) of the radial ODE; zero for psi >= 0."""
    if not mu < 0:
        raise PreconditionError("mu must be negative")
    if psi_val >= 0.0:
        return 0.0
    return _velocity_moment(spec, params, mu, -psi_val / abs(mu))


# --- the solved-state container ----------------------------------------------

@dataclass
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
    f: PhaseDensity
    u_bound: float
    trivial: bool = False
    # auxiliary moments used by the identity verifiers
    jpq: float = 0.0        # int j'(Q) Q
    ineg: float = 0.0       # int c^2 (1 - 1/sqrt(1+u^2/c^2)) Q
    phi_q: float = 0.0      # int phi Q dx dv = int phi rho dx

    @property
    def vir_kin(self) -> float:
        """int u^2/sqrt(1+u^2/c^2) Q (u^2 Q classically), as ekin + ineg by the
        kernel identity u^2/gamma = c^2 (gamma - 1) + c^2 (1 - 1/gamma)."""
        return self.ekin + self.ineg


@dataclass(frozen=True)
class SolveTargets:
    """Masses (m1, mj) and relative tol for solve_targets (scaling start, Newton polish)."""

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


# moment kind -> the GroundState field holding its radial total
_TOTALS = {"rho": "m1", "kin": "ekin", "cas": "mj", "jpq": "jpq", "ineg": "ineg"}


def _finalize_state(spec, params, lam, mu, grid: RadialGrid, psi: np.ndarray,
                    w: np.ndarray, r_supp: float, m_speed: int) -> GroundState:
    """Tabulate profiles and functionals for a solved (psi, w) pair."""
    if not lam < 0:
        raise NonNegativeLambdaError(f"lambda must be negative, got {lam}")
    if not mu < 0:
        raise PreconditionError(f"mu must be negative, got {mu}")
    r = grid.nodes
    mu_abs = abs(mu)
    k = int(np.searchsorted(r, r_supp) - 1)  # last node strictly inside support
    if k < 2:
        raise ResolutionError("support spans fewer than three radial nodes")

    a_depth = np.zeros_like(r)
    a_depth[: k + 1] = np.maximum(-psi[: k + 1], 0.0) / mu_abs

    prof = dict(zip(_TOTALS, _moment_profile(spec, params, mu, a_depth[: k + 1],
                                             tuple(_TOTALS))))
    rho = np.zeros_like(r)
    rho[: k + 1] = prof["rho"]

    beta = _edge_exponent(spec)
    totals = {name: _radial_total(r, prof[kd], k, r_supp, beta)
              for kd, name in _TOTALS.items()}
    phi = psi + lam
    phi_q = _radial_total(r, phi * rho, k, r_supp, beta)

    w_r = float(w[-1])  # exterior enclosed mass is constant
    # field energy: 2 pi ( int_0^R (w/r)^2 / ... dr + exact vacuum tail w_R^2/R )
    integ = np.zeros(k + 1)
    integ[1:] = (w[1 : k + 1] / r[1 : k + 1]) ** 2
    core = simpson(integ, x=r[: k + 1])
    sliver = (r_supp - r[k]) * 0.5 * ((w[k] / r[k]) ** 2 + (w_r / r_supp) ** 2)
    epot = float(2.0 * np.pi * (core + sliver + w_r ** 2 / r_supp))
    hc = totals["ekin"] - epot

    psi0 = float(psi[0])
    u_bound = float(kinetic_weight_inverse(params, -psi0))
    grid_u = SpeedGrid(u_max=1.2 * u_bound, m=m_speed)

    psi_spline = CubicSpline(r, psi)

    def profile(rr, uu):
        rr = np.asarray(rr, dtype=float)
        uu = np.asarray(uu, dtype=float)
        psi_r = np.where(rr < r_supp, psi_spline(np.minimum(rr, r_supp)),
                         -lam - w_r / np.maximum(rr, r_supp))
        arg = (-psi_r - kinetic_weight(params, uu)) / mu_abs
        return np.asarray(spec.g_inv(np.maximum(arg, 0.0)), dtype=float)

    f = PhaseDensity.from_callable(grid, grid_u, profile)

    return GroundState(
        params=params, spec=spec, lam=float(lam), mu=float(mu), psi0=psi0,
        a=psi0 / mu, phi=RadialField(grid=grid, values=phi),
        rho=RadialField(grid=grid, values=rho), r_support=float(r_supp),
        epot=epot, hc=hc, f=f, u_bound=u_bound, phi_q=phi_q, **totals,
    )


def _trivial_state(spec, params, grid: RadialGrid, mu: float, m_speed: int) -> GroundState:
    zeros = np.zeros(grid.n)
    f = PhaseDensity(grid_r=grid, grid_u=SpeedGrid(u_max=1.0, m=m_speed),
                     values=np.zeros((grid.n, m_speed)))
    return GroundState(params=params, spec=spec, lam=0.0, mu=mu, psi0=0.0, a=0.0,
                       phi=RadialField(grid=grid, values=zeros),
                       rho=RadialField(grid=grid, values=zeros.copy()),
                       r_support=0.0, m1=0.0, mj=0.0, ekin=0.0, epot=0.0, hc=0.0,
                       f=f, u_bound=0.0, trivial=True)


# --- shooting solver ----------------------------------------------------------

class _FastMasses(NamedTuple):
    """Cheap (m1, mj) of a shot, used inside the target root find."""

    m1: float
    mj: float
    lam: float
    r_support: float


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

    if table(-psi0 / mu_abs) <= 0.0:
        raise NumericsError("central density vanished for negative psi0")

    def accel(rr, z):
        p = z / rr if rr > 0.0 else psi0
        return rr * table(-p / mu_abs) if p < 0.0 else 0.0

    def rk4(rr, z, v, step):
        k1z, k1v = v, accel(rr, z)
        k2z, k2v = v + 0.5 * step * k1v, accel(rr + 0.5 * step, z + 0.5 * step * k1z)
        k3z, k3v = v + 0.5 * step * k2v, accel(rr + 0.5 * step, z + 0.5 * step * k2z)
        k4z, k4v = v + step * k3v, accel(rr + step, z + step * k3z)
        return (z + (step / 6.0) * (k1z + 2 * k2z + 2 * k3z + k4z),
                v + (step / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v))

    zs, vs = [0.0], [psi0]
    for i in range(grid.n - 1):
        z, v = rk4(nodes[i], zs[i], vs[i], h)
        if not (math.isfinite(z) and math.isfinite(v)):
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

    # bisect the crossing radius inside the bracketing step
    lo, hi = 0.0, h
    tol = 1e-12 * grid.r_max
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if rk4(nodes[i], zs[i], vs[i], mid)[0] >= 0.0:
            hi = mid
        else:
            lo = mid
    tau = 0.5 * (lo + hi)
    r_supp = nodes[i] + tau
    z_end, v_end = rk4(nodes[i], zs[i], vs[i], tau)
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
                    mu: float, grid: RadialGrid, m_speed: int = 257,
                    fast: bool = False):
    """Shoot the radial system outward from depth psi0 < 0 at multiplier mu < 0.

    Returns a GroundState (or a cheap mass summary when fast=True). The
    emitted lambda equals -w(R)/R from the exterior vacuum match; the support
    radius must satisfy R <= r_max/4 so the vacuum tail is well separated.
    """
    if not mu < 0:
        raise PreconditionError("mu must be negative")
    if psi0 == 0.0:
        return _trivial_state(spec, params, grid, mu, m_speed)
    if not psi0 < 0:
        raise PreconditionError("psi0 must be negative (0 gives the trivial state)")

    table = _MomentTable(spec, params, mu, -psi0 / abs(mu),
                         kinds=("rho", "cas") if fast else ("rho",),
                         n_tab=513 if fast else 1025)
    psi, w, r_supp, w_r, lam = _shoot(psi0, mu, grid, table)

    if r_supp > grid.r_max / 4.0:
        raise SupportExceedsGridError(
            f"support radius {r_supp:.3g} exceeds r_max/4 = {grid.r_max / 4:.3g}; "
            "enlarge the grid")

    if fast:
        k = int(np.searchsorted(grid.nodes, r_supp) - 1)
        a_depth = -psi[: k + 1] / abs(mu)
        m1, mj = (_radial_total(grid.nodes, table(a_depth, kind), k, r_supp,
                                _edge_exponent(spec)) for kind in ("rho", "cas"))
        return _FastMasses(m1=m1, mj=mj, lam=lam, r_support=r_supp)

    return _finalize_state(spec, params, lam, mu, grid, psi, w, r_supp, m_speed)


# --- fixed-point solver (independent oracle) ----------------------------------

def fixed_point_solve(spec: CasimirSpec, params: ModelParams, lam: float,
                      mu: float, grid: RadialGrid, tol: float = 1e-10,
                      m_speed: int = 257) -> GroundState:
    """Solve the self-consistency equation phi = poisson(rho(phi)) at fixed
    (lambda, mu), independently of the shooting integration.

    The nontrivial profile is an *unstable* fixed point of the plain sweep
    phi <- poisson(rho(phi)): the linearized map has a real spectral radius
    of about 4.5 for polytropic states, so no amount of plain damping
    converges (it is the separatrix between decay to vacuum and mass
    runaway). The update therefore solves the linearized self-consistency
    equation (I - K rho'(phi)) delta = -(phi - K rho(phi)) by GMRES on the
    same discrete Poisson operator K, with step halving on the residual norm.
    tol bounds the final sup-norm Picard residual |phi - poisson(rho(phi))|.
    """
    from scipy.sparse.linalg import LinearOperator, gmres

    if not (lam < 0 and mu < 0):
        raise PreconditionError("multipliers lambda and mu must be negative")
    r = grid.nodes
    n = grid.n
    mu_abs = abs(mu)
    table = _MomentTable(spec, params, mu, 8.0 * abs(lam) / mu_abs,
                         kinds=("rho",), n_tab=769)

    def picard_residual(phi_vec):
        nonlocal table
        a_depth = np.maximum(lam - phi_vec, 0.0) / mu_abs
        if np.max(a_depth) > table.a_max:
            table = _MomentTable(spec, params, mu, 2.0 * np.max(a_depth),
                                 kinds=("rho",), n_tab=769)
        rho = table(a_depth, "rho")
        if rho[n // 2] > 0:
            raise SupportExceedsGridError(
                "iterated density reached r_max/2; enlarge the grid")
        return phi_vec - poisson_operator(grid, rho), a_depth

    def newton(phi):
        resid_vec, a_depth = picard_residual(phi)
        resid = float(np.max(np.abs(resid_vec)))
        for _ in range(_FIXED_POINT_MAX_ITER):
            if resid < tol:
                return phi
            drho_dphi = -table.derivative(a_depth) / mu_abs  # <= 0

            def matvec(v):
                return v - poisson_operator(grid, drho_dphi * v)

            op = LinearOperator((n, n), matvec=matvec)
            delta, info = gmres(op, -resid_vec, rtol=1e-12, atol=0.0, maxiter=400)
            if info != 0:
                raise FixedPointDivergenceError(
                    f"linear correction solve failed (gmres info {info})")
            alpha, accepted = 1.0, None
            for _ in range(12):
                try:
                    rv_try, ad_try = picard_residual(phi + alpha * delta)
                except SupportExceedsGridError:
                    alpha *= 0.5
                    continue
                if not np.all(np.isfinite(rv_try)):
                    raise NumericsError(
                        "fixed-point iteration produced non-finite values")
                if float(np.max(np.abs(rv_try))) < resid:
                    accepted = (phi + alpha * delta, rv_try, ad_try)
                    break
                alpha *= 0.5
            if accepted is None:
                raise FixedPointDivergenceError(
                    f"no descent step found (residual stuck at {resid:.3e})")
            phi, resid_vec, a_depth = accepted
            resid = float(np.max(np.abs(resid_vec)))
        raise FixedPointDivergenceError(
            f"no convergence after {_FIXED_POINT_MAX_ITER} iterations (residual {resid:.3e})")

    # seed ladder: Gaussian wells of varying depth and width; the shallow ones
    # fall into the trivial root's basin, so start from the moderate-depth seeds
    phi = None
    last_exc = None
    for kappa, sig_frac in ((3.0, 1 / 8), (4.0, 1 / 12), (3.0, 1 / 6),
                            (4.0, 1 / 8), (2.0, 1 / 6), (6.0, 1 / 12)):
        seed = kappa * lam * np.exp(-((r / (grid.r_max * sig_frac)) ** 2))
        try:
            cand = newton(seed)
        except (FixedPointDivergenceError, SupportExceedsGridError) as exc:
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
    w = cumulative_simpson(r * r * rho, x=r, initial=0.0)

    sign_change = np.nonzero(psi >= 0.0)[0]
    if len(sign_change) == 0:
        raise SupportExceedsGridError("converged support exceeds the grid")
    i_cross = int(sign_change[0])
    psi_spl = CubicSpline(r, psi)
    r_supp = float(brentq(psi_spl, r[i_cross - 1], r[i_cross], xtol=1e-14))
    return _finalize_state(spec, params, lam, mu, grid, psi, w, r_supp, m_speed)


# --- target solver -------------------------------------------------------------

def _monomial_exponents(p: float) -> tuple:
    """Exponents (e1, ej) of the threshold monomial S = m1^e1 mj^ej."""
    return (2 * p - 3) / (3 * (p - 1)), 1 / (3 * (p - 1))


def solve_targets(spec: CasimirSpec, params: ModelParams, targets: SolveTargets,
                  grid: RadialGrid, m_speed: int = 257) -> GroundState:
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

    Polish: a damped Newton on (x, y) with a finite-difference Jacobian on
    the requested grid removes the start's discretisation error; for weights
    that are not a pure power (p1 < p2) the law is approximate and Newton
    does the rest.
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

    log_targets = np.log([targets.m1_target, targets.mj_target])

    def residual(z):
        shot = integrate_state(spec, params, -math.exp(z[0]), -math.exp(z[1]),
                               grid, fast=True)
        return np.log([shot.m1, shot.mj]) - log_targets

    try:
        f_val = residual(z)
    except GravlasovError as exc:
        raise TargetsUnreachableError(f"shooting failed at the scaling start: {exc}")
    for _ in range(_NEWTON_MAX_ITER):
        if float(np.max(np.abs(np.exp(f_val) - 1.0))) < targets.tol:
            break
        try:
            jac = np.column_stack([(residual(z + dz) - f_val) / 1e-6
                                   for dz in np.eye(2) * 1e-6])
            step = np.linalg.solve(jac, -f_val)
        except (GravlasovError, np.linalg.LinAlgError) as exc:
            raise TargetsUnreachableError(f"Jacobian evaluation failed: {exc}")
        for alpha in 0.5 ** np.arange(10):
            try:
                f_try = residual(z + alpha * step)
            except GravlasovError:
                continue
            if np.linalg.norm(f_try) < np.linalg.norm(f_val):
                break
        else:
            raise TargetsUnreachableError(
                "target solve stalled (no descent step fits the grid)")
        z, f_val = z + alpha * step, f_try
    else:
        raise TargetsUnreachableError(
            f"target solve did not converge within {_NEWTON_MAX_ITER} iterations")
    return integrate_state(spec, params, -math.exp(z[0]), -math.exp(z[1]), grid,
                           m_speed=m_speed)


# --- identity verifiers --------------------------------------------------------

def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), _TINY)


def virial_residual(state: GroundState) -> float:
    """Relative defect of the kinetic/potential balance of a steady state.

    Compares int u^2/sqrt(1+u^2/c^2) Q against -(1/2) int phi rho dx computed
    from the tabulated profiles; zero for the trivial state.
    """
    if state.trivial or state.m1 == 0.0:
        return 0.0
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


def support_check(state: GroundState) -> SupportReport:
    """Verify compact support: Q = 0 outside {r <= R} x {kinetic <= -psi0}."""
    r = state.f.grid_r.nodes
    u = state.f.grid_u.nodes
    gam = kinetic_weight(state.params, u)
    outside = (r[:, None] > state.r_support) | (gam[None, :] > (state.lam - state.phi.values[0]))
    max_off = float(np.max(np.abs(state.f.values[outside]), initial=0.0))
    on_supp = state.rho.values > 0
    phi_ok = bool(np.all(state.phi.values[on_supp] <= state.lam + 1e-12 * abs(state.lam)))
    return SupportReport(r_support=state.r_support, u_bound=state.u_bound,
                         ok=(max_off == 0.0) and phi_ok,
                         max_off_support=max_off, phi_below_lambda=phi_ok)


# --- serialization ---------------------------------------------------------------

def state_to_dir(state: GroundState, outdir) -> dict:
    """Write state.json plus CSV profiles (phi, rho) under outdir.

    Returns the state's scalars and identity residuals (none for the trivial
    state); state.json holds them with the model, the trivial flag and the
    profile paths. f is not written: state_from_dir rebuilds it from these.
    """
    write_radial_field(os.path.join(outdir, "profiles", "phi.csv"), state.phi)
    write_radial_field(os.path.join(outdir, "profiles", "rho.csv"), state.rho)
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
        "residuals": {} if state.trivial else multiplier_identities(state).residuals,
    }
    doc = results | {
        "c": state.params.c,
        "casimir": state.spec.name,
        "p": state.spec.p,
        "trivial": state.trivial,
        "profiles": {"phi": "profiles/phi.csv", "rho": "profiles/rho.csv"},
    }
    write_json(os.path.join(outdir, "state.json"), doc)
    return results


def state_from_dir(indir, m_speed: int = 257) -> GroundState:
    """Rebuild a GroundState from a polytrope solve's output directory.

    Profiles are re-derived from (lambda, mu, phi) so the identity verifiers
    run on a faithful state, not on stale numbers.
    """
    try:
        with open(os.path.join(indir, "state.json")) as fh:
            doc = json.load(fh)
        if not str(doc["casimir"]).startswith("polytrope"):
            raise PreconditionError(f"cannot rebuild a state from {indir}: "
                                    "only a polytrope state can be rebuilt")
        spec = make_polytrope(float(doc["p"]))
        params = ModelParams(c=float(doc["c"]))
        phi = read_radial_field(os.path.join(indir, doc["profiles"]["phi"]))
        rho = read_radial_field(os.path.join(indir, doc["profiles"]["rho"]))
        lam, mu = float(doc["lambda"]), float(doc["mu"])
        r_supp = float(doc["r_support"])
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        raise PreconditionError(f"cannot rebuild a state from {indir}: "
                                f"{type(exc).__name__}: {exc}") from exc
    grid = phi.grid
    if not np.array_equal(grid.nodes, rho.grid.nodes):
        raise GridMismatchError(f"cannot rebuild a state from {indir}: "
                                "phi and rho are tabulated on different nodes")
    psi = phi.values - lam
    w = cumulative_simpson(grid.nodes ** 2 * rho.values, x=grid.nodes, initial=0.0)
    return _finalize_state(spec, params, lam, mu, grid, psi, w, r_supp, m_speed)
