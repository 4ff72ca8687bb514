"""Radial particle simulator for the self-gravitating kinetic flow.

Characteristics of the transport equation are advanced with a kick-drift-kick
leapfrog; the radial force field comes from sorting particles by radius and
accumulating enclosed mass (half of a particle's own weight counts at its own
radius). Velocities are momentum-like: positions drift with
v/sqrt(1 + |v|^2/c^2), so particle speeds never exceed c in the relativistic
model. Weights and per-particle phase-density values are never modified, which
makes the total mass and every Casimir estimate conserved exactly by
construction; only the energy balance carries integrator error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NumericsError, PreconditionError
from .kernel import CasimirSpec, ModelParams, kinetic_weight
from .radial import (PhaseDensity, RadialField, RadialGrid, _phase_integral,
                     functionals, read_csv, write_float_table)
from .steady import GroundState

__all__ = [
    "ParticleEnsemble",
    "FieldTable",
    "DiagnosticsRecord",
    "StabilityReport",
    "BlowupReport",
    "sample_state",
    "sample_density",
    "field_from_particles",
    "push",
    "evolve",
    "stability_experiment",
    "blowup_experiment",
    "central_mass_accel",
    "dynamical_time",
    "ensemble_to_csv",
    "ensemble_from_csv",
]


@dataclass
class ParticleEnsemble:
    """Weighted characteristics: positions, momentum-like velocities, constant
    weights summing to the represented mass, and frozen phase-density values."""

    positions: np.ndarray     # (n, 3)
    velocities: np.ndarray    # (n, 3)
    weights: np.ndarray       # (n,)
    f_values: np.ndarray      # (n,)
    params: ModelParams
    eps_soft: float = 0.0

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    def radii(self) -> np.ndarray:
        return np.linalg.norm(self.positions, axis=1)

    def speeds(self) -> np.ndarray:
        return np.linalg.norm(self.velocities, axis=1)

    def copy(self) -> "ParticleEnsemble":
        return ParticleEnsemble(positions=self.positions.copy(),
                                velocities=self.velocities.copy(),
                                weights=self.weights.copy(),
                                f_values=self.f_values.copy(),
                                params=self.params, eps_soft=self.eps_soft)


@dataclass(frozen=True)
class FieldTable:
    """Snapshot of the radial field: grid tables plus per-particle pull."""

    phi: RadialField
    dphi: RadialField
    accelerations: np.ndarray


def _rng(seed: int) -> np.random.Generator:
    # counter-based generator: reproducible across platforms and restarts
    return np.random.Generator(np.random.Philox(key=seed))


def _isotropic_directions(rng: np.random.Generator, n: int) -> np.ndarray:
    vec = rng.standard_normal((n, 3))
    norms = np.linalg.norm(vec, axis=1, keepdims=True)
    small = norms[:, 0] < 1e-12
    if np.any(small):
        vec[small] = np.array([1.0, 0.0, 0.0])
        norms[small] = 1.0
    return vec / norms


def _rejection_sample(rng, density_fn, r_hi, u_hi, n, envelope_grid=256):
    """Sample (r, u) pairs from the weight r^2 u^2 density_fn(r, u)."""
    rr = np.linspace(0.0, r_hi, envelope_grid)[:, None]
    uu = np.linspace(0.0, u_hi, envelope_grid)[None, :]
    target = rr ** 2 * uu ** 2 * density_fn(rr, uu)
    bound = 1.2 * float(np.max(target))
    if bound <= 0:
        raise PreconditionError("cannot sample from an identically zero density")
    out_r = np.empty(n)
    out_u = np.empty(n)
    filled = 0
    while filled < n:
        batch = max(4 * (n - filled), 1024)
        cand_r = rng.uniform(0.0, r_hi, batch)
        cand_u = rng.uniform(0.0, u_hi, batch)
        accept = rng.uniform(0.0, bound, batch) < (
            cand_r ** 2 * cand_u ** 2 * density_fn(cand_r, cand_u))
        take = min(int(np.sum(accept)), n - filled)
        out_r[filled:filled + take] = cand_r[accept][:take]
        out_u[filled:filled + take] = cand_u[accept][:take]
        filled += take
    return out_r, out_u


def sample_state(state: GroundState, n: int, seed: int) -> ParticleEnsemble:
    """Monte Carlo representation of a solved steady profile.

    Rejection-samples (r, u) from the phase-space weight r^2 u^2 Q(r, u),
    assigns isotropic directions, equal weights m1/n, and freezes the profile
    value at each sample point.
    """
    if state.trivial or state.m1 <= 0:
        raise PreconditionError("cannot sample the trivial state")
    if n < 1000:
        raise ValueError("need at least 1000 particles")
    rng = _rng(seed)
    profile = state.f.profile
    r_smp, u_smp = _rejection_sample(rng, profile, state.r_support,
                                     state.u_bound, n)
    positions = r_smp[:, None] * _isotropic_directions(rng, n)
    velocities = u_smp[:, None] * _isotropic_directions(rng, n)
    f_vals = np.asarray(profile(r_smp, u_smp), dtype=float)
    weights = np.full(n, state.m1 / n)
    return ParticleEnsemble(positions=positions, velocities=velocities,
                            weights=weights, f_values=f_vals,
                            params=state.params,
                            eps_soft=state.r_support / math.sqrt(n))


def sample_density(f: PhaseDensity, params: ModelParams, n: int,
                   seed: int) -> ParticleEnsemble:
    """Monte Carlo representation of a generic tabulated phase density."""
    if n < 1000:
        raise ValueError("need at least 1000 particles")
    rng = _rng(seed)
    if f.profile is not None:
        density_fn = f.profile
    else:
        from scipy.interpolate import RegularGridInterpolator
        interp = RegularGridInterpolator((f.grid_r.nodes, f.grid_u.nodes),
                                         f.values, bounds_error=False,
                                         fill_value=0.0)
        density_fn = lambda r, u: np.maximum(
            interp(np.stack(np.broadcast_arrays(r, u), axis=-1)), 0.0)
    nz = np.nonzero(f.values > 0)
    r_hi = float(f.grid_r.nodes[min(int(nz[0].max()) + 1, f.grid_r.n - 1)])
    u_hi = float(f.grid_u.nodes[min(int(nz[1].max()) + 1, f.grid_u.m - 1)])
    r_smp, u_smp = _rejection_sample(rng, density_fn, r_hi, u_hi, n)
    m1 = _phase_integral(f, f.values)
    positions = r_smp[:, None] * _isotropic_directions(rng, n)
    velocities = u_smp[:, None] * _isotropic_directions(rng, n)
    f_vals = np.asarray(density_fn(r_smp, u_smp), dtype=float)
    return ParticleEnsemble(positions=positions, velocities=velocities,
                            weights=np.full(n, m1 / n), f_values=f_vals,
                            params=params, eps_soft=r_hi / math.sqrt(n))


def _sorted_shell_data(ens: ParticleEnsemble, r: Optional[np.ndarray] = None):
    """Radii sorted ascending (tied radii keep index order), matching weights,
    and half-self enclosed mass."""
    if r is None:
        r = ens.radii()
    order = np.argsort(r)
    r_sorted = r[order]
    if np.any(r_sorted[1:] == r_sorted[:-1]):
        # the default sort may reorder exact ties; the stable one keeps them
        # in index order, so the result is the same permutation on any input
        order = np.argsort(r, kind="stable")
        r_sorted = r[order]
    w_sorted = ens.weights[order]
    cumw = np.cumsum(w_sorted)
    m_half = cumw - 0.5 * w_sorted   # mass strictly below + half own weight
    return order, r_sorted, w_sorted, cumw, m_half


def _shell_accelerations(ens: ParticleEnsemble, order: np.ndarray,
                         r_sorted: np.ndarray, m_half: np.ndarray) -> np.ndarray:
    """Per-particle shell pull m_half / (4 pi (r^2 + eps_soft^2)^1.5), scattered
    back to particle order and applied along each position."""
    soft_r3 = (r_sorted ** 2 + ens.eps_soft ** 2) ** 1.5
    with np.errstate(divide="ignore", invalid="ignore"):
        pull = np.where(soft_r3 > 0, m_half / (4.0 * np.pi * soft_r3), 0.0)
    pull_p = np.empty_like(pull)
    pull_p[order] = pull
    return -pull_p[:, None] * ens.positions


def field_from_particles(ens: ParticleEnsemble, grid: RadialGrid) -> FieldTable:
    """Radial field of the ensemble: grid tables of phi, phi', and exact
    per-particle shell accelerations.

    phi'(r) = M(<r)/(4 pi r^2) with M the enclosed particle mass; the force on
    each particle uses its half-self-weight enclosed mass and the softened
    radius sqrt(r^2 + eps_soft^2). Tied radii keep index order: of two
    particles at exactly the same radius, the lower index counts the other as
    outside and the higher index counts it as enclosed. Particles beyond
    r_max feel the full point-mass pull, so escapers stay part of the mass
    budget.
    """
    order, r_sorted, w_sorted, cumw, m_half = _sorted_shell_data(ens)
    accel = _shell_accelerations(ens, order, r_sorted, m_half)

    nodes = grid.nodes
    idx = np.searchsorted(r_sorted, nodes, side="right")
    m_at = np.concatenate(([0.0], cumw))[idx]
    dphi = np.zeros_like(nodes)
    dphi[1:] = m_at[1:] / (4.0 * np.pi * nodes[1:] ** 2)

    # vacuum-matched boundary value plus the exact pull of exterior shells
    m_inside = m_at[-1]
    outside = r_sorted > grid.r_max
    exterior = float(np.sum(w_sorted[outside] / r_sorted[outside])) if np.any(outside) else 0.0
    phi_rmax = -(m_inside / grid.r_max + exterior) / (4.0 * np.pi)
    phi = np.empty_like(nodes)
    phi[-1] = phi_rmax
    steps = 0.5 * np.diff(nodes) * (dphi[1:] + dphi[:-1])
    phi[:-1] = phi_rmax - np.cumsum(steps[::-1])[::-1]

    return FieldTable(phi=RadialField(grid=grid, values=phi),
                      dphi=RadialField(grid=grid, values=dphi),
                      accelerations=accel)


def _shell_potential_energy(ens: ParticleEnsemble, r: np.ndarray) -> float:
    """Exact field energy (1/2) int |grad phi|^2 of the unsoftened shell system:
    (1/(4 pi)) sum_i w_i M_half(<r_i) / r_i, given the radii r."""
    _, r_sorted, w_sorted, _, m_half = _sorted_shell_data(ens, r)
    good = r_sorted > 0
    return float(np.sum(w_sorted[good] * m_half[good] / r_sorted[good]) / (4.0 * np.pi))


def _drift_velocity(ens: ParticleEnsemble, velocities: np.ndarray) -> np.ndarray:
    if ens.params.is_classical:
        return velocities
    c = ens.params.c
    v2 = np.sum(velocities * velocities, axis=1, keepdims=True)
    return velocities / np.sqrt(1.0 + v2 / c ** 2)


def push(ens: ParticleEnsemble, dt: float,
         accel: Optional[np.ndarray] = None,
         external: Optional[Callable] = None):
    """One kick-drift-kick step; returns (ensemble, post-step accelerations).

    With ``external`` set (a positions -> accelerations callable) the field is
    frozen to that rule and the step is exactly time-reversible; otherwise the
    self-consistent shell field is recomputed after the drift.
    """
    if dt == 0.0:
        raise ValueError("dt must be nonzero")

    def shell_force(pos):
        moved = replace(ens, positions=pos)
        order, r_sorted, _, _, m_half = _sorted_shell_data(moved)
        return _shell_accelerations(moved, order, r_sorted, m_half)

    force = external if external is not None else shell_force
    if accel is None:
        accel = force(ens.positions)

    v_half = ens.velocities + 0.5 * dt * accel
    x_new = ens.positions + dt * _drift_velocity(ens, v_half)
    accel_new = force(x_new)
    v_new = v_half + 0.5 * dt * accel_new

    if not (np.all(np.isfinite(x_new)) and np.all(np.isfinite(v_new))):
        bad = int(np.sum(~np.isfinite(x_new))) + int(np.sum(~np.isfinite(v_new)))
        raise NumericsError(
            f"non-finite state after push (dt={dt}, {bad} bad components; "
            f"max|x|={np.nanmax(np.abs(x_new)):.3e}, "
            f"max|v|={np.nanmax(np.abs(v_new)):.3e})")
    if not ens.params.is_classical:
        # |dx/dt| = |v|/sqrt(1+|v|^2/c^2) < c in exact arithmetic and rises
        # with |v|, so the fastest particle decides whether rounding broke it
        c = ens.params.c
        u2 = float(np.max(np.sum(v_new * v_new, axis=1), initial=0.0))
        drift = math.sqrt(u2 / (1.0 + u2 / c ** 2))
        if not drift < c:
            raise NumericsError(
                f"drift speed reached c={c} after push (dt={dt}, "
                f"max|v|={math.sqrt(u2):.3e})")
    return replace(ens, positions=x_new, velocities=v_new), accel_new


_ENSEMBLE_HEADER = ["x", "y", "z", "vx", "vy", "vz", "w", "f"]


def ensemble_to_csv(path, ens: ParticleEnsemble) -> None:
    """Snapshot the ensemble as plain CSV: x,y,z,vx,vy,vz,w,f per particle."""
    table = np.column_stack((ens.positions, ens.velocities, ens.weights,
                             ens.f_values))
    write_float_table(path, _ENSEMBLE_HEADER, table)


def ensemble_from_csv(path, params: ModelParams,
                      eps_soft: float = 0.0) -> ParticleEnsemble:
    """Load a snapshot written by ensemble_to_csv."""
    data = read_csv(path, _ENSEMBLE_HEADER)
    return ParticleEnsemble(positions=data[:, 0:3].copy(),
                            velocities=data[:, 3:6].copy(),
                            weights=data[:, 6].copy(),
                            f_values=data[:, 7].copy(),
                            params=params, eps_soft=eps_soft)


def central_mass_accel(mass: float) -> Callable:
    """Force rule of a fixed point mass at the origin (test mode):
    a = -M x / (4 pi |x|^3)."""
    def accel(positions):
        r2 = np.sum(positions * positions, axis=1, keepdims=True)
        return -mass * positions / (4.0 * np.pi * r2 ** 1.5)
    return accel


def dynamical_time(rho_center: float) -> float:
    if not rho_center > 0:
        raise PreconditionError(
            f"the dynamical time needs a positive central density, got {rho_center:g}")
    return 1.0 / math.sqrt(rho_center)


@dataclass(frozen=True)
class DiagnosticsRecord:
    t: float
    hc: float
    m1: float
    mj_estimate: float
    ekin: float
    epot: float
    virial: float
    rho_center: float
    ej_dist_to_ref: Optional[float] = None
    lq_norms: tuple = ()


def _binned_shell_masses(ens: ParticleEnsemble, edges: np.ndarray,
                         r: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(edges, r, side="right") - 1
    idx = np.clip(idx, 0, len(edges) - 2)
    return np.bincount(idx, weights=ens.weights, minlength=len(edges) - 1)


def _reference_shell_masses(state: GroundState, n_bins: int = 24):
    """Equal-mass radial bins of the reference profile (last bin reaches
    infinity so escapers count as mass out of place)."""
    grid = state.rho.grid
    r_fine = np.linspace(0.0, grid.r_max, 8 * grid.n)
    rho_fine = np.interp(r_fine, grid.nodes, state.rho.values)
    cum = np.concatenate(([0.0], np.cumsum(
        0.5 * np.diff(r_fine) * (r_fine[1:] ** 2 * rho_fine[1:]
                                 + r_fine[:-1] ** 2 * rho_fine[:-1]))))
    cum *= 4.0 * np.pi
    total = cum[-1]
    quantiles = np.linspace(0.0, total, n_bins)
    inner = np.interp(quantiles[1:-1], cum, r_fine)
    edges = np.concatenate(([0.0], inner, [np.inf]))
    masses = np.diff(np.interp(np.minimum(edges, r_fine[-1]), r_fine, cum))
    return edges, masses


def _diagnostics(ens: ParticleEnsemble, t: float, center_bin: float,
                 lq: Sequence[float],
                 spec: Optional[CasimirSpec] = None,
                 ref_masses: Optional[np.ndarray] = None,
                 ref_edges: Optional[np.ndarray] = None) -> DiagnosticsRecord:
    r = ens.radii()
    speeds = ens.speeds()
    gam = kinetic_weight(ens.params, speeds)
    ekin = float(np.sum(ens.weights * gam))
    epot = _shell_potential_energy(ens, r)
    hc = ekin - epot
    u2 = speeds ** 2
    if ens.params.is_classical:
        vir_lhs = float(np.sum(ens.weights * u2))
    else:
        vir_lhs = float(np.sum(ens.weights * u2 / np.sqrt(1.0 + u2 / ens.params.c ** 2)))
    virial = (vir_lhs - epot) / max(abs(vir_lhs), abs(epot), 1e-300)

    inside = r < center_bin
    rho_center = float(np.sum(ens.weights[inside])) / (4.0 * math.pi / 3.0 * center_bin ** 3)

    # Monte Carlo functionals of the frozen phase-density values: the phase
    # volume each particle represents is weight/f, so int theta(f) becomes
    # sum (w/f) theta(f). Exactly conserved; approximate as continuum values.
    pos = ens.f_values > 0
    mj_est = 0.0
    if spec is not None and np.any(pos):
        mj_est = float(np.sum((ens.weights[pos] / ens.f_values[pos])
                              * np.asarray(spec.j(ens.f_values[pos]), dtype=float)))
    lq_vals = tuple(float(np.sum(ens.weights[pos] * ens.f_values[pos] ** (q - 1.0))
                          ** (1.0 / q)) for q in lq)

    dist = None
    if ref_masses is not None and ref_edges is not None:
        dist = float(np.sum(np.abs(_binned_shell_masses(ens, ref_edges, r) - ref_masses)))
    return DiagnosticsRecord(t=t, hc=hc, m1=ens.total_mass, mj_estimate=mj_est,
                             ekin=ekin, epot=epot, virial=virial,
                             rho_center=rho_center, ej_dist_to_ref=dist,
                             lq_norms=lq_vals)


def evolve(ens: ParticleEnsemble, t_end: float, dt: float, diag_every: int = 10,
           spec: Optional[CasimirSpec] = None,
           reference: Optional[GroundState] = None,
           center_bin: Optional[float] = None,
           lq: Sequence[float] = (2.0,),
           stop_condition: Optional[Callable] = None):
    """Run the leapfrog loop, collecting diagnostics every ``diag_every`` steps.

    The Casimir estimate and L^q norms are Monte Carlo functionals of the
    frozen per-particle values (exactly conserved by construction, approximate
    as estimates of the continuum integrals). Returns (records, ensemble).
    """
    if dt <= 0 or t_end <= 0:
        raise ValueError("dt and t_end must be positive")
    if center_bin is None:
        center_bin = (reference.r_support / 20.0 if reference is not None
                      else float(np.percentile(ens.radii(), 50)) / 10.0)
    ref_masses = ref_edges = None
    if reference is not None:
        ref_edges, ref_masses = _reference_shell_masses(reference)

    records = [_diagnostics(ens, 0.0, center_bin, lq, spec, ref_masses, ref_edges)]
    steps = int(round(t_end / dt))
    accel = None
    for k in range(1, steps + 1):
        ens, accel = push(ens, dt, accel=accel)
        if k % diag_every == 0 or k == steps:
            rec = _diagnostics(ens, k * dt, center_bin, lq, spec,
                               ref_masses, ref_edges)
            records.append(rec)
            if stop_condition is not None and stop_condition(rec, ens):
                break
    return records, ens


# --- experiments -----------------------------------------------------------------

@dataclass(frozen=True)
class StabilityReport:
    mode: str
    deltas: tuple
    max_dist_rho: tuple       # max over time of the binned-rho L1 distance
    final_dist_rho: tuple
    max_hc_dev: tuple         # max |hc(t) - hc(reference)|
    noise_floor: float        # the delta = 0 baseline max distance
    stable: bool
    distance_proxy: str = ("binned-rho L1 distance, energy deviation and "
                           "virial residual; these stand in for the energy-"
                           "space metric, which particles cannot evaluate")


def _perturb(ens: ParticleEnsemble, delta: float, mode: str) -> ParticleEnsemble:
    out = ens.copy()
    if delta == 0.0:
        return out
    if mode == "amplitude":
        out.weights = out.weights * (1.0 + delta)
        out.f_values = out.f_values * (1.0 + delta)
    elif mode == "dilation":
        out.positions = out.positions * (1.0 + delta)
        out.velocities = out.velocities / (1.0 + delta)
    elif mode == "kick":
        out.velocities = out.velocities * (1.0 + delta)
        out.f_values = out.f_values / (1.0 + delta) ** 3
    else:
        raise ValueError(f"unknown perturbation mode {mode!r}")
    return out


def stability_experiment(state: GroundState, deltas: Sequence[float], mode: str,
                         n: int, t_end: float, dt: Optional[float] = None,
                         seed: int = 2024, diag_every: int = 10):
    """Evolve a ladder of perturbed samples of a steady state and record how
    far each run strays from the reference profile.

    A delta = 0 baseline sets the Monte Carlo noise floor. The verdict is
    "stable" when the maximal distances are monotone in delta (within a noise
    allowance) and the baseline stays at the floor.
    """
    deltas = tuple(sorted(float(d) for d in deltas))
    if not deltas or deltas[0] < 0 or deltas[-1] <= 0:
        raise ValueError("perturbation sizes must be nonnegative, "
                         "at least one positive")
    if dt is None:
        dt = 0.01 * dynamical_time(state.rho.values[0])
    base = sample_state(state, n, seed)
    runs = {}
    for d in (0.0,) + deltas:
        if d in runs:
            continue
        ens = _perturb(base, d, mode)
        records, _ = evolve(ens, t_end, dt, diag_every=diag_every,
                            spec=state.spec, reference=state)
        runs[d] = records

    def series(d, attr):
        return [getattr(rec, attr) for rec in runs[d]]

    noise_floor = max(series(0.0, "ej_dist_to_ref"))
    max_d = tuple(max(series(d, "ej_dist_to_ref")) for d in deltas)
    fin_d = tuple(series(d, "ej_dist_to_ref")[-1] for d in deltas)
    max_h = tuple(max(abs(h - state.hc) for h in series(d, "hc")) for d in deltas)
    monotone = all(max_d[i] <= max_d[i + 1] * 1.25 for i in range(len(max_d) - 1))
    stable = monotone and noise_floor <= max_d[0]
    return StabilityReport(mode=mode, deltas=deltas, max_dist_rho=max_d,
                           final_dist_rho=fin_d, max_hc_dev=max_h,
                           noise_floor=noise_floor, stable=stable), runs


@dataclass(frozen=True)
class BlowupReport:
    verdict: str              # "concentrating" | "no-concentration" | "resolution-halt"
    concentration_time: Optional[float]
    rho_center_initial: float
    rho_center_peak: float
    growth_factor: float
    halted_at: Optional[float]
    hc_initial: float
    records: tuple


def blowup_experiment(spec: CasimirSpec, params: ModelParams,
                      initial: PhaseDensity, n: int, t_end: float,
                      dt: Optional[float] = None, seed: int = 7,
                      growth_threshold: float = 100.0,
                      diag_every: int = 3) -> BlowupReport:
    """Evolve negative-energy data and watch for central concentration.

    Requires hc < 0 for the given model. The verdict is "concentrating" once
    the binned central density exceeds ``growth_threshold`` times its initial
    value; the run halts at a resolution guard (1% of the mass inside two
    softening lengths) instead of claiming a singularity.
    """
    rep = functionals(initial, spec, params)
    if not rep.hc < 0:
        raise PreconditionError(
            f"blow-up experiment needs negative energy, got hc = {rep.hc:.6g}")
    ens = sample_density(initial, params, n, seed)
    ens.eps_soft *= 0.5   # concentration runs need extra force resolution
    # the central bin starts with ~0.2% of the mass so a 100x density growth
    # has headroom; a quarter-mass bin would saturate long before that
    radii = ens.radii()
    radii_sorted = np.sort(radii)
    center_bin = float(radii_sorted[max(int(0.002 * n), 50)])
    rho0 = float(np.sum(ens.weights[radii < center_bin])) \
        / (4.0 * math.pi / 3.0 * center_bin ** 3)
    if dt is None:
        bulk = float(np.sum(ens.weights[radii < radii_sorted[n // 2]])) \
            / (4.0 * math.pi / 3.0 * radii_sorted[n // 2] ** 3)
        dt = 0.01 * dynamical_time(max(bulk, 1e-12))

    state_flags = {"halted": None}

    def guard(rec, ens_now):
        if rec.rho_center >= growth_threshold * max(rho0, 1e-300):
            return True
        r = ens_now.radii()
        k = max(int(0.01 * len(r)) - 1, 0)
        r_one_percent = np.partition(r, k)[k]
        if r_one_percent < 1.5 * ens_now.eps_soft:
            state_flags["halted"] = rec.t
            return True
        return False

    records, _ = evolve(ens, t_end, dt, diag_every=diag_every, spec=spec,
                        center_bin=center_bin, stop_condition=guard)
    rho_series = [rec.rho_center for rec in records]
    peak = max(rho_series)
    conc_time = None
    for rec in records:
        if rec.rho_center >= growth_threshold * max(rho0, 1e-300):
            conc_time = rec.t
            break
    if conc_time is not None:
        verdict = "concentrating"
    elif state_flags["halted"] is not None:
        verdict = "resolution-halt"
    else:
        verdict = "no-concentration"
    return BlowupReport(verdict=verdict, concentration_time=conc_time,
                        rho_center_initial=rho0, rho_center_peak=peak,
                        growth_factor=peak / max(rho0, 1e-300),
                        halted_at=state_flags["halted"],
                        hc_initial=rep.hc, records=tuple(records))
