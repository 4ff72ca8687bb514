"""Scaling transforms, threshold estimates, and rigidity diagnostics.

Groups four kinds of machinery around the steady states:

* phase-space rescalings with their exact functional predictions
  (dilate_transform, alpha_rescale),
* the interpolation quotient whose infimum controls the subcritical mass
  threshold (interpolation_quotient, estimate_kj, threshold_check,
  monotonicity_check),
* the strictly convex multiplier function F and its root structure, plus the
  cubic level-set asymptotic and equimeasurability comparison that pin down
  isolatedness of steady profiles,
* the integrability bootstrap recursion for the density exponents.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np
from scipy.integrate import simpson
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from .errors import (GravlasovError, NumericsError, ResolutionError,
                     SupportExceedsGridError)
from .kernel import (
    CasimirSpec,
    FunctionalReport,
    ModelParams,
    kinetic_weight_inverse,
)
from .radial import (PhaseDensity, RadialGrid, SpeedGrid, bump_density,
                     distribution_function, functionals, _phase_integral)
from .steady import (GroundState, SolveTargets, _monomial_exponents,
                     _velocity_moment, integrate_state, solve_targets)

__all__ = [
    "ScalingReport",
    "KjEstimate",
    "ThresholdVerdict",
    "MonotonicityReport",
    "EquimeasureReport",
    "LevelAsymptoticFit",
    "BootstrapResult",
    "interpolation_quotient",
    "estimate_kj",
    "threshold_check",
    "dilate_transform",
    "alpha_rescale",
    "monotonicity_check",
    "f_function",
    "f_roots",
    "equimeasure_compare",
    "level_asymptotic",
    "bootstrap_exponents",
]

_TINY = 1e-300
_ROOT_WINDOW = (1e-4, 1e4)   # f_roots searches |mu0| times this range
_ROOT_SCAN = 64              # geometric scan points that bracket the roots
_LEVEL_QUAD_NODES = 2000
_BOOTSTRAP_MAX_ITER = 10_000

THRESHOLD_CAVEAT = (
    "estimate is an upper bound for the interpolation constant: "
    "S < 2c*estimate does not certify subcriticality, and S >= 2c*estimate "
    "does not certify supercriticality relative to the true constant"
)


# --- interpolation quotient and threshold -------------------------------------

def interpolation_quotient(f: PhaseDensity, spec: CasimirSpec,
                           params: ModelParams, form: str = "momentum") -> float:
    """Quotient bounding |grad phi|^2 by moments of f.

    form="momentum" (the relativistic shape, valid for all c):
        (int |v| f) m1^((2p-3)/(3(p-1))) mj^(1/(3(p-1))) / |grad phi|^2
    form="energy" (the classical variant):
        (int |v|^2 f)^(1/2) m1^((7p-9)/(6(p-1))) mj^(1/(3(p-1))) / |grad phi|^2

    Invariant under the dilation f(x/l, l v) and, for polytropes, under
    amplitude rescaling.
    """
    rep = functionals(f, spec, params)
    if rep.m1 <= 0:
        raise ValueError("quotient undefined for the zero density")
    u = f.grid_u.nodes
    p = spec.p
    e1, ej = _monomial_exponents(p)
    grad_sq = 2.0 * rep.epot
    if form == "momentum":
        mom = _phase_integral(f, f.values * u[None, :])
        return (mom * rep.m1 ** e1 * rep.mj ** ej) / grad_sq
    if form == "energy":
        mom2 = _phase_integral(f, f.values * (u * u)[None, :])
        return (math.sqrt(mom2) * rep.m1 ** ((7 * p - 9) / (6 * (p - 1)))
                * rep.mj ** ej) / grad_sq
    raise ValueError(f"unknown quotient form {form!r}")


@dataclass(frozen=True)
class KjEstimate:
    """Best (smallest) quotient found so far; an upper bound for the infimum."""

    p: float
    best_quotient: float
    trial_count: int
    witness: str


def _gaussian_trial() -> PhaseDensity:
    """Unit isotropic Gaussian bump, tabulated out to 8 on 257 x 257 nodes."""
    return bump_density(RadialGrid(r_max=8.0, n=257), SpeedGrid(u_max=8.0, m=257),
                        r_scale=1.0, u_scale=1.0)


def _box_trial() -> PhaseDensity:
    """Indicator of r < 1, u < 1, tabulated out to 2 on 257 x 257 nodes."""
    return PhaseDensity.from_callable(
        RadialGrid(r_max=2.0, n=257), SpeedGrid(u_max=2.0, m=257),
        lambda r, u: ((r < 1.0) & (u < 1.0)).astype(float))


def _ground_trial(spec: CasimirSpec, params: ModelParams, psi0: float,
                  mu: float) -> PhaseDensity:
    return integrate_state(spec, params, psi0, mu, RadialGrid(r_max=24.0, n=513),
                           m_speed=257).f


def estimate_kj(spec: CasimirSpec, params: ModelParams,
                trial_family: str = "default", budget: int = 60) -> KjEstimate:
    """Smallest interpolation quotient over a fixed, ordered list of trials.

    The trials are the unit Gaussian ("gaussian"), the unit box ("box") and
    the solved profiles at (psi0, mu) = (-1, -1) and (-0.5, -0.35)
    ("ground"), which sit lowest; "default" takes all four in that order,
    a named family only its own. The quotient is invariant under dilation
    and, for a pure-power Casimir, under amplitude, so there one point covers
    its whole family exactly. For any other weight one point is a single
    trial, and its quotient is still a valid upper bound. At most budget
    quotients are evaluated; a trial whose solve raises a GravlasovError is
    skipped and does not count.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if trial_family not in ("default", "gaussian", "box", "ground"):
        raise ValueError(f"unknown trial family {trial_family!r}")
    trials = [("gaussian", "gaussian", _gaussian_trial), ("box", "box", _box_trial)]
    trials += [("ground", f"ground(psi0={psi0},mu={mu})",
                partial(_ground_trial, spec, params, psi0, mu))
               for psi0, mu in ((-1.0, -1.0), (-0.5, -0.35))]
    evals = 0
    best = (math.inf, "none")
    for family, label, make in trials:
        if evals >= budget:
            break
        if trial_family not in ("default", family):
            continue
        try:
            f = make()
        except GravlasovError:
            continue
        evals += 1
        q = interpolation_quotient(f, spec, params)
        if q < best[0]:
            best = (q, label)

    if not math.isfinite(best[0]):
        raise NumericsError("no trial produced a finite quotient")
    return KjEstimate(p=spec.p, best_quotient=best[0], trial_count=evals,
                      witness=best[1])


@dataclass(frozen=True)
class ThresholdVerdict:
    s_value: float
    bound: float              # 2c * estimated constant (inf when classical)
    subcritical_wrt_estimate: bool
    verdict: str
    caveat: str = THRESHOLD_CAVEAT


def threshold_check(m1: float, mj: float, spec: CasimirSpec,
                    params: ModelParams, kj: Optional[KjEstimate] = None) -> ThresholdVerdict:
    """Compare the mass monomial S = m1^((2p-3)/(3(p-1))) mj^(1/(3(p-1)))
    with 2c times the estimated interpolation constant."""
    e1, ej = _monomial_exponents(spec.p)
    s_val = m1 ** e1 * mj ** ej
    if params.is_classical:
        return ThresholdVerdict(s_value=s_val, bound=math.inf,
                                subcritical_wrt_estimate=True,
                                verdict="classical: no threshold")
    if kj is None:
        raise ValueError("finite-c threshold check needs a constant estimate")
    bound = 2.0 * params.c * kj.best_quotient
    sub = s_val < bound
    return ThresholdVerdict(s_value=s_val, bound=bound,
                            subcritical_wrt_estimate=sub,
                            verdict="subcritical w.r.t. estimate" if sub
                                    else "supercritical w.r.t. estimate")


# --- scaling transforms ---------------------------------------------------------

@dataclass(frozen=True)
class ScalingReport:
    kind: str                 # "dilate" or "amplitude"
    parameter: float
    before: FunctionalReport
    after: FunctionalReport
    predicted_after: FunctionalReport
    h_alpha: Optional[float] = None   # |j(alpha f)| / (alpha |j(f)|), amplitude only

    @property
    def max_rel_dev(self) -> float:
        pairs = [(self.after.m1, self.predicted_after.m1),
                 (self.after.mj, self.predicted_after.mj),
                 (self.after.ekin, self.predicted_after.ekin),
                 (self.after.epot, self.predicted_after.epot)]
        return max(abs(a - b) / max(abs(a), abs(b), _TINY) for a, b in pairs)


def _resample(f: PhaseDensity, map_r: float, map_u: float, amp: float,
              grids=None) -> PhaseDensity:
    """Tabulate f_new(r, u) = amp * f(r/map_r, u/map_u) on the given grids."""
    grid_r, grid_u = grids if grids is not None else (f.grid_r, f.grid_u)
    support = f.support_nodes()
    if support is not None and (f.grid_r.nodes[support[0]] * map_r >= grid_r.r_max
                                or f.grid_u.nodes[support[1]] * map_u >= grid_u.u_max):
        raise SupportExceedsGridError("rescaled support escapes the grids")
    return PhaseDensity.from_callable(
        grid_r, grid_u, lambda r, u: amp * f.profile(r / map_r, u / map_u))


def dilate_transform(f: PhaseDensity, lam: float, spec: CasimirSpec,
                     params: ModelParams, grids=None) -> ScalingReport:
    """Apply f_new(x, v) = f(x/lam, lam v) and compare with the exact laws.

    Masses and every level-set volume are invariant; the field energy scales
    as 1/lam; the kinetic term contracts to (1/lam) int c^2 (sqrt(lam^2 +
    u^2/c^2) - lam) f for finite c and to ekin/lam^2 classically.
    """
    if not lam > 0:
        raise ValueError("dilation parameter must be positive")
    before = functionals(f, spec, params)
    f_new = _resample(f, map_r=lam, map_u=1.0 / lam, amp=1.0, grids=grids)
    after = functionals(f_new, spec, params)
    u = f.grid_u.nodes
    if params.is_classical:
        ekin_pred = before.ekin / lam ** 2
    else:
        c = params.c
        weight = c ** 2 * (np.sqrt(lam ** 2 + (u / c) ** 2) - lam) / lam
        ekin_pred = _phase_integral(f, f.values * weight[None, :])
    predicted = FunctionalReport.from_parts(m1=before.m1, mj=before.mj,
                                            ekin=ekin_pred,
                                            epot=before.epot / lam)
    return ScalingReport(kind="dilate", parameter=lam, before=before,
                         after=after, predicted_after=predicted)


def alpha_rescale(f: PhaseDensity, alpha: float, spec: CasimirSpec,
                  params: ModelParams, k: float = 1.0, grids=None) -> ScalingReport:
    """Apply f_new(x, v) = alpha f((alpha k)^(1/3) x, v).

    With k = 1 this preserves m1 and multiplies the Casimir mass by
    h(alpha, f) = |j(alpha f)| / (alpha |j(f)|); the generalized k mode is the
    combined mass-and-amplitude rescale with m1 -> m1/k. The convexity
    dichotomy pins alpha^(p1-1) <= h <= alpha^(p2-1) for alpha >= 1 (reversed
    below 1).
    """
    if not (alpha > 0 and k > 0):
        raise ValueError("alpha and k must be positive")
    before = functionals(f, spec, params)
    scale = (alpha * k) ** (1.0 / 3.0)
    f_new = _resample(f, map_r=1.0 / scale, map_u=1.0, amp=alpha, grids=grids)
    after = functionals(f_new, spec, params)
    j_alpha = _phase_integral(f, np.asarray(spec.j(alpha * f.values), dtype=float))
    h_alpha = j_alpha / (alpha * before.mj)
    predicted = FunctionalReport.from_parts(
        m1=before.m1 / k,
        mj=h_alpha * before.mj / k,
        ekin=before.ekin / k,
        epot=before.epot * alpha ** (1.0 / 3.0) * k ** (-5.0 / 3.0))
    return ScalingReport(kind="amplitude", parameter=alpha, before=before,
                         after=after, predicted_after=predicted, h_alpha=h_alpha)


# --- infimum monotonicity --------------------------------------------------------

@dataclass(frozen=True)
class MonotonicityReport:
    k: float
    hc_reference: float
    hc_scaled_mj: float       # state at (m1, k mj)
    hc_scaled_m1: float       # state at (k m1, mj)
    margin_mj: float          # hc(m1, k mj) - k^(1/(3(p2-1))) hc(m1, mj) >= 0
    margin_m1: float          # hc(k m1, mj) - k^((5p1-6)/(3(p1-1))) hc(m1, mj) >= 0


def monotonicity_check(state: GroundState, k_grid: Sequence[float],
                       grid: Optional[RadialGrid] = None,
                       tol: float = 1e-7) -> list:
    """Solve rescaled-target states and check the infimum monotonicity bounds."""
    spec, params = state.spec, state.params
    use_grid = grid if grid is not None else state.phi.grid
    e_mj = 1.0 / (3.0 * (spec.p2 - 1.0))
    e_m1 = (5.0 * spec.p1 - 6.0) / (3.0 * (spec.p1 - 1.0))
    rows = []
    for k in k_grid:
        if not 0 < k <= 1:
            raise ValueError("k must lie in (0, 1]")
        st_mj = solve_targets(spec, params,
                              SolveTargets(state.m1, k * state.mj, tol), use_grid)
        st_m1 = solve_targets(spec, params,
                              SolveTargets(k * state.m1, state.mj, tol), use_grid)
        rows.append(MonotonicityReport(
            k=k, hc_reference=state.hc,
            hc_scaled_mj=st_mj.hc, hc_scaled_m1=st_m1.hc,
            margin_mj=st_mj.hc - k ** e_mj * state.hc,
            margin_m1=st_m1.hc - k ** e_m1 * state.hc))
    return rows


# --- the strictly convex multiplier function -------------------------------------

def f_function(params: ModelParams, a: float, spec: CasimirSpec, s: float) -> float:
    """F(s) = c int_0^a (1/s)(1 + sq/c^2) sqrt((1 + sq/c^2)^2 - 1) G(a-q) dq.

    Strictly convex in s; behaves like (2/s)^(1/2) int sqrt(q) G(a-q) dq for
    sq/c^2 << 1, which is the exact classical limit.
    """
    if params.is_classical:
        raise ValueError("the multiplier function is defined for finite c; "
                         "probe the classical limit with large c instead")
    if not (a > 0 and s > 0):
        raise ValueError("a and s must be positive")
    s = float(s)   # a numpy scalar would warn where a float overflows quietly
    # the density moment at depth a with |mu| = s carries the factor 4 pi s^2;
    # a subnormal factor has lost digits, and F with it
    scale = 4.0 * math.pi * s * s
    if sys.float_info.min <= scale < math.inf:
        # overflow inside the moment shows up as a non-finite value
        with np.errstate(over="ignore", invalid="ignore"):
            value = _velocity_moment(spec, params, -s, a) / scale
        if math.isfinite(value):
            return value
    raise NumericsError(f"F(s) is out of double range at s = {s:g}")


def f_roots(params: ModelParams, a: float, spec: CasimirSpec, mu0: float) -> list:
    """All solutions s of F(s) = F(|mu0|) with s/|mu0| in [1e-4, 1e4].

    F is strictly convex with a single interior minimum, so there are at most
    two roots; |mu0| itself is always one of them. In the near-classical
    regime the minimum moves beyond any physical window and the second root
    disappears, leaving |mu0| alone. Only the part of the window where F is
    a normal double is searched; F(|mu0|) itself must be one.
    """
    mu0_abs = abs(mu0)
    target = f_function(params, a, spec, mu0_abs)
    s_grid = np.geomspace(mu0_abs * _ROOT_WINDOW[0], mu0_abs * _ROOT_WINDOW[1],
                          _ROOT_SCAN)

    def f_or_nan(s):  # nan brackets no root
        try:
            return f_function(params, a, spec, s)
        except NumericsError:
            return math.nan

    vals = np.array([f_or_nan(s) for s in s_grid])

    roots = [mu0_abs]
    diff = vals - target
    for i in range(len(s_grid) - 1):
        if diff[i] == 0.0 and not math.isclose(s_grid[i], mu0_abs, rel_tol=1e-6):
            roots.append(float(s_grid[i]))
        if diff[i] * diff[i + 1] < 0.0:
            root = brentq(lambda s: f_function(params, a, spec, s) - target,
                          s_grid[i], s_grid[i + 1], xtol=1e-14 * mu0_abs,
                          rtol=1e-12)
            if not math.isclose(root, mu0_abs, rel_tol=1e-8):
                roots.append(float(root))
    # 12 significant digits: what brentq's rtol=1e-12 determines
    roots = sorted(set(float(f"{r:.12g}") for r in roots))
    # collapse near-duplicates; convexity should leave at most two
    merged = []
    for root in roots:
        if not merged or abs(root - merged[-1]) > 1e-8 * max(root, merged[-1]):
            merged.append(root)
    return merged


# --- equimeasurability and the level-set asymptotic -------------------------------

@dataclass(frozen=True)
class EquimeasureReport:
    max_discrepancy: float    # max over levels of |dist_f - dist_g|
    sup_norm_gap: float       # | max f - max g |
    levels: np.ndarray
    dist_f: np.ndarray
    dist_g: np.ndarray


def equimeasure_compare(f: PhaseDensity, g: PhaseDensity, levels) -> EquimeasureReport:
    """Compare super-level-set volumes of two densities on a shared level grid."""
    levels = np.asarray(levels, dtype=float)
    dist_f = distribution_function(f, levels)
    dist_g = distribution_function(g, levels)
    return EquimeasureReport(
        max_discrepancy=float(np.max(np.abs(dist_f - dist_g))),
        sup_norm_gap=abs(float(np.max(f.values)) - float(np.max(g.values))),
        levels=levels, dist_f=dist_f, dist_g=dist_g)


@dataclass(frozen=True)
class LevelAsymptoticFit:
    exponent: float
    coefficient: float
    predicted_coefficient: float
    phi2_center: float        # phi''(0) from the potential profile
    phi2_from_rho: float      # rho(0)/3, the radial expansion value

    @property
    def coefficient_rel_err(self) -> float:
        return abs(self.coefficient - self.predicted_coefficient) / self.predicted_coefficient


LEVEL_VOLUME_CONSTANT = 4.0 * math.pi ** 3 / 3.0
# phase-space volume of {u^2/2 + b r^2/2 < s} is (4 pi^3/3) s^3 b^(-3/2)


def level_asymptotic(state: GroundState, tau_fracs=None) -> LevelAsymptoticFit:
    """Fit the cubic shrinkage law of near-peak level sets.

    Measures vol{ kinetic(u) + phi(r) - phi(0) < |mu| (a - tau) } for tau
    near a, fits C (a - tau)^q in log-log, and compares C against
    (4 pi^3/3) (|mu| / sqrt(phi''(0)))^3.
    """
    if state.trivial:
        raise ValueError("level asymptotics need a nontrivial state")
    grid = state.phi.grid
    r = grid.nodes
    h = grid.h
    phi = state.phi.values
    mu_abs = abs(state.mu)
    a = state.a

    # phi''(0) from a least-squares even-polynomial fit over an inner window;
    # differencing only the first nodes would amplify the integrator's local
    # error, since phi(h) - phi(0) is itself O(h^2)
    width = max(0.1 * state.r_support, 10.0 * h)
    window = r <= width
    x = r[window] / width
    design = np.stack([x ** (2 * k) for k in range(5)], axis=1)
    coefs, *_ = np.linalg.lstsq(design, phi[window], rcond=None)
    phi2 = 2.0 * coefs[1] / width ** 2
    phi2_rho = state.rho.values[0] / 3.0

    if tau_fracs is None:
        tau_fracs = np.geomspace(1e-3, 1e-1, 25)
    eps_values = mu_abs * a * np.asarray(tau_fracs)

    dphi_spline = CubicSpline(r, phi - phi[0])
    params = state.params
    vols = np.empty_like(eps_values)
    for idx, eps in enumerate(eps_values):
        r_edge = brentq(lambda rr: dphi_spline(rr) - eps, 0.0, state.r_support,
                        xtol=1e-15)
        if r_edge < 3.0 * h:
            raise ResolutionError(
                "level set spans fewer than three radial cells; refine the grid")
        rr = np.linspace(0.0, r_edge, _LEVEL_QUAD_NODES)
        depth = np.maximum(eps - dphi_spline(rr), 0.0)
        u_edge = kinetic_weight_inverse(params, depth)
        vols[idx] = 16.0 * math.pi ** 2 * simpson(rr * rr * u_edge ** 3 / 3.0, x=rr)

    x = np.log(eps_values / mu_abs)   # = log(a - tau)
    y = np.log(vols)
    slope, _ = np.polyfit(x, y, 1)
    # the coefficient comes from the pinned-cubic fit V = C (a - tau)^3;
    # leaving the exponent free lets higher-order corrections leak into C
    coeff = float(math.exp(np.mean(y - 3.0 * x)))
    predicted = LEVEL_VOLUME_CONSTANT * (mu_abs / math.sqrt(phi2)) ** 3
    return LevelAsymptoticFit(exponent=float(slope),
                              coefficient=coeff,
                              predicted_coefficient=float(predicted),
                              phi2_center=float(phi2),
                              phi2_from_rho=float(phi2_rho))


# --- bootstrap recursion -----------------------------------------------------------

@dataclass(frozen=True)
class BootstrapResult:
    p: float
    q0: float
    sequence: tuple
    success_index: Optional[int]   # first k with q_k >= 3/2, None if never reached
    boundary_hit: bool             # some q_k equals 3/2 exactly

    @property
    def succeeded(self) -> bool:
        return self.success_index is not None


def bootstrap_exponents(p: float, q0: float = 1.2) -> BootstrapResult:
    """Iterate q_{k+1} = 3(p-1) q_k / ((3p-2)(3 - 2 q_k)) until q_k >= 3/2.

    The recursion's fixed point q* = 3(2p-1)/(2(3p-2)) is repelling upward,
    so any q0 above it escapes past 3/2 in finitely many steps; reaching 3/2
    exactly (as happens at p = 2 from q0 = 6/5) is reported as a boundary hit.
    """
    if not p > 1.5:
        raise ValueError("p must exceed 3/2")
    if not 1.0 < q0 < 1.5:
        raise ValueError("q0 must lie in (1, 3/2)")
    seq = [q0]
    success = None
    boundary = False
    for k in range(_BOOTSTRAP_MAX_ITER):
        q = seq[-1]
        if q >= 1.5 - 1e-9:   # tolerance absorbs roundoff in exact-boundary cases
            success = k
            boundary = math.isclose(q, 1.5, rel_tol=0.0, abs_tol=1e-9)
            break
        q_next = 3.0 * (p - 1.0) * q / ((3.0 * p - 2.0) * (3.0 - 2.0 * q))
        if q_next <= q:
            break  # nonincreasing: the iteration can never reach 3/2
        seq.append(q_next)
    return BootstrapResult(p=p, q0=q0, sequence=tuple(seq),
                           success_index=success, boundary_hit=boundary)
