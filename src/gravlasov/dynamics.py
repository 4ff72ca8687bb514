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
import os
import threading
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import NumericsError, PreconditionError
from .kernel import CasimirSpec, ModelParams, kinetic_weight
from .radial import (PhaseDensity, _phase_integral, enclosed_mass, functionals,
                     read_csv, write_csv)
from .steady import GroundState

__all__ = [
    "ParticleEnsemble",
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


class _Shells(NamedTuple):
    """One sort of a run's radii: the radii in particle order, the
    sorting permutation, the sorted radii and weights, and the half-self
    enclosed mass at each sorted radius."""

    r: np.ndarray
    order: np.ndarray
    r_sorted: np.ndarray
    w_sorted: np.ndarray
    m_half: np.ndarray


@dataclass(frozen=True)
class ParticleEnsemble:
    """Weighted characteristics: positions, momentum-like velocities, constant
    weights summing to the represented mass, and frozen phase-density values.

    Positions and velocities are stored column-major, so a per-particle
    operation runs along the particles. An ensemble is plain frozen data: it
    holds no sort and no buffer, and no function of this module writes its
    arrays. A flow steps a run of its own (see _Run), which starts from
    copies of the ensemble's arrays.
    """

    positions: np.ndarray     # (n, 3)
    velocities: np.ndarray    # (n, 3)
    weights: np.ndarray       # (n,)
    f_values: np.ndarray      # (n,)
    params: ModelParams
    eps_soft: float = 0.0

    def __post_init__(self):
        n = len(self.weights)
        for name, shape in (("weights", (n,)), ("f_values", (n,)),
                            ("positions", (n, 3)), ("velocities", (n, 3))):
            if np.shape(getattr(self, name)) != shape:
                raise PreconditionError(
                    f"{name} must have shape {shape} for {n} weights, "
                    f"got {np.shape(getattr(self, name))}")
        for name in ("positions", "velocities"):
            object.__setattr__(self, name,
                               np.asfortranarray(getattr(self, name), dtype=float))

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    def radii(self) -> np.ndarray:
        return np.sqrt(_row_norm2(self.positions))

    def speeds(self) -> np.ndarray:
        return np.sqrt(_row_norm2(self.velocities))


def _row_norm2(a: np.ndarray, out: Optional[np.ndarray] = None,
               tmp: Optional[np.ndarray] = None) -> np.ndarray:
    """Squared length of each row of an (n, 3) array, into out with tmp as
    scratch when they are given. numpy's row sum adds the three squares left
    to right too, so the bits are those of np.sum(a * a, axis=1), at a third
    of its cost."""
    out = np.multiply(a[:, 0], a[:, 0], out=out)
    out += np.multiply(a[:, 1], a[:, 1], out=tmp)
    out += np.multiply(a[:, 2], a[:, 2], out=tmp)
    return out


class _Run:
    """One run of steps from an ensemble, which owns its state: copies of the
    positions and velocities, the accelerations, one (n, 3) scratch array,
    the sort's n-vectors and the current sort (None once the positions move).
    Each step updates them in place, so it allocates nothing of the
    ensemble's size. push, field_from_particles and evolve work in place on
    a run they are given, and on a fresh one when given an ensemble.
    """

    def __init__(self, ens: ParticleEnsemble):
        self.ens = ens   # weights, f values, model and softening: never written
        self.n = n = ens.n
        self.positions = np.array(ens.positions, order="F")
        self.velocities = np.array(ens.velocities, order="F")
        self.accel = np.empty((n, 3), order="F")
        self.scratch = np.empty((n, 3), order="F")
        self.keys = np.empty(n, dtype=np.uint64)
        self.index = np.arange(n, dtype=np.uint64)   # the packed sort's index keys
        self.r = np.empty(n)
        self.r_sorted = np.empty(n)
        self.shells: Optional[_Shells] = None

    @cached_property
    def m_half(self) -> Optional[np.ndarray]:
        """The half-self enclosed masses of equal weights (every sampler's),
        else None; found once per run. Any permutation of bitwise equal
        weights is the weights array itself."""
        w = self.ens.weights
        if not (self.n and w.dtype == np.float64):
            return None
        bits = w.view(np.uint64)
        if not np.all(bits == bits[0]):
            return None
        return np.cumsum(w) - 0.5 * w

    def sort(self) -> _Shells:
        """The sort of the current positions by radius, made on first use."""
        if self.shells is None:
            r = np.sqrt(_row_norm2(self.positions, out=self.r, tmp=self.r_sorted),
                        out=self.r)
            self.shells = _Shells(r, *_sorted_shell_data(r, self))
        return self.shells

    def ensemble(self) -> ParticleEnsemble:
        """The run's state as an ensemble that shares no array with the one
        the run started from."""
        return replace(self.ens, positions=self.positions,
                       velocities=self.velocities,
                       weights=self.ens.weights.copy(),
                       f_values=self.ens.f_values.copy())


def _rng(seed: int) -> np.random.Generator:
    # counter-based generator: reproducible across platforms and restarts
    return np.random.Generator(np.random.Philox(key=seed))


def _isotropic_directions(rng: np.random.Generator, n: int) -> np.ndarray:
    vec = rng.standard_normal((n, 3))
    norms = np.sqrt(_row_norm2(vec))[:, None]
    small = norms[:, 0] < 1e-12
    if np.any(small):
        vec[small] = np.array([1.0, 0.0, 0.0])
        norms[small] = 1.0
    return vec / norms


_ENVELOPE_NODES = 256      # per axis of the rejection envelope's grid
_WEIGH_CHUNK = 1 << 15     # candidates weighed at a time by the sampler
_REFERENCE_EDGES = 24      # edges of the reference profile's 23 equal-mass bins
_STABILITY_DIAG_EVERY = 10
_BLOWUP_DIAG_EVERY = 3
_GROWTH_THRESHOLD = 100.0  # central-density growth that counts as concentration


def _rejection_sample(rng, density_fn, r_hi, u_hi, n):
    """Sample (r, u) pairs from the weight r^2 u^2 density_fn(r, u).

    density_fn acts elementwise, so a batch's candidates are weighed
    _WEIGH_CHUNK at a time, with the bits of one call on the whole batch and
    a fraction of its temporaries."""
    rr = np.linspace(0.0, r_hi, _ENVELOPE_NODES)[:, None]
    uu = np.linspace(0.0, u_hi, _ENVELOPE_NODES)[None, :]
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
        draw = rng.uniform(0.0, bound, batch)
        accept = np.concatenate([
            draw[s] < cand_r[s] ** 2 * cand_u[s] ** 2 * density_fn(cand_r[s], cand_u[s])
            for s in (slice(lo, lo + _WEIGH_CHUNK)
                      for lo in range(0, batch, _WEIGH_CHUNK))])
        take = min(int(np.sum(accept)), n - filled)
        out_r[filled:filled + take] = cand_r[accept][:take]
        out_u[filled:filled + take] = cand_u[accept][:take]
        filled += take
    return out_r, out_u


def _sample(density_fn, r_hi: float, u_hi: float, mass: float,
            params: ModelParams, n: int, seed: int) -> ParticleEnsemble:
    """Rejection-sample (r, u) from the phase-space weight r^2 u^2 density_fn,
    assign isotropic directions and equal weights mass/n, and freeze the
    density value at each sample point."""
    if n < 1000:
        raise PreconditionError("need at least 1000 particles")
    if not 0 <= seed < 2 ** 128:  # Philox's key
        raise PreconditionError(f"seed must lie in [0, 2**128), got {seed}")
    rng = _rng(seed)
    r_smp, u_smp = _rejection_sample(rng, density_fn, r_hi, u_hi, n)
    positions = r_smp[:, None] * _isotropic_directions(rng, n)
    velocities = u_smp[:, None] * _isotropic_directions(rng, n)
    return ParticleEnsemble(
        positions=positions, velocities=velocities,
        weights=np.full(n, mass / n),
        f_values=np.asarray(density_fn(r_smp, u_smp), dtype=float),
        params=params, eps_soft=r_hi / math.sqrt(n))


def sample_state(state: GroundState, n: int, seed: int) -> ParticleEnsemble:
    """Monte Carlo representation of a solved steady profile Q(r, u)."""
    if state.trivial or state.m1 <= 0:
        raise PreconditionError("cannot sample the trivial state")
    return _sample(state.profile, state.r_support, state.u_bound, state.m1,
                   state.params, n, seed)


def sample_density(f: PhaseDensity, params: ModelParams, n: int,
                   seed: int) -> ParticleEnsemble:
    """Monte Carlo representation of a generic tabulated phase density."""
    support = f.support_nodes()
    if support is None:
        raise PreconditionError("cannot sample from an identically zero density")
    # one node past the last positive one: f's profile may be positive up to it
    r_hi = float(f.grid_r.nodes[min(support[0] + 1, f.grid_r.n - 1)])
    u_hi = float(f.grid_u.nodes[min(support[1] + 1, f.grid_u.m - 1)])
    return _sample(f.profile, r_hi, u_hi, _phase_integral(f, f.values),
                   params, n, seed)


def _sorted_shell_data(r: np.ndarray, run: _Run):
    """Radii sorted ascending (tied radii keep index order), the run's
    weights in their order, and half-self enclosed mass, in the run's sort
    arrays.

    Nonnegative doubles order like their bit patterns, so one value sort of
    uint64 keys, each a radius's bits with the low bits replaced by the
    particle's index, yields a permutation. When it sorts the radii strictly
    increasing, it is the only permutation that does. Otherwise, on
    nonnegative nan-free radii, only the runs of radii that agree in their
    kept bits (ties among them) are out of place: each run sits where it
    belongs, in index order, so a stable sort of the runs by radius repairs
    the order. On -0.0, negative values or nan the stable argsort gives it:
    the same permutation on any nan-free input."""
    n = len(r)
    keys, r_sorted = run.keys, run.r_sorted
    low = np.uint64((1 << max((n - 1).bit_length(), 1)) - 1)
    np.bitwise_and(r.view(np.uint64), ~low, out=keys)
    keys |= run.index
    keys.sort()
    keys &= low
    order = keys.view(np.int64)
    # the indices are in range; "clip" lets take write straight into out
    np.take(r, order, out=r_sorted, mode="clip")
    if not np.all(r_sorted[1:] > r_sorted[:-1]):
        # keys order +0.0 < ... < inf < nan < -0.0 < negatives, so the last
        # sorted radius tells whether any is -0.0, negative or nan
        if math.isnan(r_sorted[-1]) or math.copysign(1.0, r_sorted[-1]) < 0:
            order = np.argsort(r, kind="stable")
        else:
            high = r_sorted.view(np.uint64) & ~low
            same = high[1:] == high[:-1]
            in_run = np.zeros(n, dtype=bool)
            in_run[1:] = same
            in_run[:-1] |= same
            runs = np.flatnonzero(in_run)
            sub = order[runs]
            order[runs] = sub[np.argsort(r[sub], kind="stable")]
        np.take(r, order, out=r_sorted, mode="clip")
    if run.m_half is not None:
        return order, r_sorted, run.ens.weights, run.m_half
    w_sorted = run.ens.weights[order]
    m_half = np.cumsum(w_sorted) - 0.5 * w_sorted   # mass below + half own
    return order, r_sorted, w_sorted, m_half


def field_from_particles(ens: ParticleEnsemble) -> np.ndarray:
    """Self-consistent shell accelerations of the ensemble, shape (n, 3).

    Each particle is pulled toward the origin by m_half / (4 pi (r^2 +
    eps_soft^2)^1.5) times its position, where m_half is the mass at smaller
    radii plus half its own weight. Without softening, a zero-weight particle
    at radius r > 0 thus feels exactly M(<r)/(4 pi r^2). Tied radii keep
    index order: of two particles at exactly the same radius, the lower index
    counts the other as outside and the higher index counts it as enclosed.
    No radius is cut off, so escapers stay part of the mass budget.

    Given a run (evolve's and push's), the result is made in its
    accelerations, from the sort of its current positions.
    """
    run = ens if isinstance(ens, _Run) else _Run(ens)
    shells = run.sort()
    out = run.accel
    # the pull is built in the result's columns: sorted in the second,
    # in particle order in the first
    pull, pull_p = out[:, 1], out[:, 0]
    np.multiply(shells.r_sorted, shells.r_sorted, out=pull)
    pull += run.ens.eps_soft ** 2
    np.power(pull, 1.5, out=pull)   # the softened r^3, ascending, nan last
    if run.n and pull[0] > 0 and not math.isnan(pull[-1]):
        pull *= 4.0 * np.pi
        np.divide(shells.m_half, pull, out=pull)
    else:   # a zero or nan soft radius pulls with 0
        with np.errstate(divide="ignore", invalid="ignore"):
            pull[:] = np.where(pull > 0, shells.m_half / (4.0 * np.pi * pull), 0.0)
    pull_p[shells.order] = pull
    np.negative(pull_p, out=pull_p)
    for axis in (1, 2, 0):   # the first column last: it holds the pull
        np.multiply(pull_p, run.positions[:, axis], out=out[:, axis])
    return out


def push(ens: ParticleEnsemble, dt: float,
         accel: Optional[np.ndarray] = None,
         external: Optional[Callable] = None):
    """One kick-drift-kick step; returns (ensemble, post-step accelerations).

    ``accel`` is the acceleration at the starting positions, computed when
    not given. With ``external`` set (a positions -> accelerations callable)
    the field is frozen to that rule and the step is exactly time-reversible;
    otherwise field_from_particles is recomputed on the drifted positions.

    The step runs on a fresh run of the ensemble (see _Run), so no caller's
    array is written or shared by what is returned. Given a run, the step
    updates it in place and returns it.
    """
    if dt == 0.0 or not math.isfinite(dt):
        raise PreconditionError(f"dt must be nonzero and finite, got {dt}")
    run = ens if isinstance(ens, _Run) else _Run(ens)
    x, v, a, s = run.positions, run.velocities, run.accel, run.scratch
    params = run.ens.params

    def force():
        if external is None:
            return field_from_particles(run)
        a[...] = external(x)
        return a

    # In the operation order of ens.velocities + 0.5 * dt * accel and its
    # like, so the bits are the expressions'. A non-finite state makes
    # invalid values in the force and the drift; the check below names it.
    with np.errstate(invalid="ignore"):
        if accel is None:
            accel = force()
        v += np.multiply(accel, 0.5 * dt, out=s)
        if params.is_classical:
            np.multiply(v, dt, out=s)
        else:   # |v|^2 in the columns of a, which the kick has spent
            v2 = _row_norm2(v, a[:, 0], a[:, 1])
            v2 /= params.c ** 2
            v2 += 1.0
            np.divide(v, np.sqrt(v2, out=v2)[:, None], out=s)
            s *= dt
        x += s
        run.shells = None
        force()
    v += np.multiply(a, 0.5 * dt, out=s)
    _check_state(run, dt)
    return (run if run is ens else run.ensemble()), a


def _check_state(run: _Run, dt: float) -> None:
    """NumericsError unless the pushed state is finite and, at finite c,
    drifts slower than c.

    Finite radii imply finite positions, and at finite c a finite largest
    |v|^2 implies finite velocities; the (n, 3) scans run only when one of
    them is not finite."""
    x_new, v_new, params = run.positions, run.velocities, run.ens.params
    u2 = None
    if not params.is_classical:
        u2 = float(np.max(_row_norm2(v_new, run.scratch[:, 0], run.scratch[:, 1]),
                          initial=0.0))
    shells = run.shells   # None under an external force
    x_finite = (shells is not None
                and (not run.n or math.isfinite(shells.r_sorted[-1]))
                or np.all(np.isfinite(x_new)))
    v_finite = u2 is not None and math.isfinite(u2) or np.all(np.isfinite(v_new))
    if not (x_finite and v_finite):
        bad = int(np.sum(~np.isfinite(x_new))) + int(np.sum(~np.isfinite(v_new)))
        raise NumericsError(
            f"non-finite state after push (dt={dt}, {bad} bad components; "
            f"max|x|={np.nanmax(np.abs(x_new)):.3e}, "
            f"max|v|={np.nanmax(np.abs(v_new)):.3e})")
    if u2 is not None:
        # |dx/dt| = |v|/sqrt(1+|v|^2/c^2) < c in exact arithmetic and rises
        # with |v|, so the fastest particle decides whether rounding broke it
        c = params.c
        drift = math.sqrt(u2 / (1.0 + u2 / c ** 2))
        if not drift < c:
            raise NumericsError(
                f"drift speed reached c={c} after push (dt={dt}, "
                f"max|v|={math.sqrt(u2):.3e})")


_ENSEMBLE_HEADER = ["x", "y", "z", "vx", "vy", "vz", "w", "f"]


def ensemble_to_csv(path, ens: ParticleEnsemble) -> None:
    """Snapshot the ensemble as plain CSV: x,y,z,vx,vy,vz,w,f per particle."""
    table = np.column_stack((ens.positions, ens.velocities, ens.weights,
                             ens.f_values))
    write_csv(path, _ENSEMBLE_HEADER, table)


def ensemble_from_csv(path, params: ModelParams) -> ParticleEnsemble:
    """Load a snapshot written by ensemble_to_csv (unsoftened)."""
    data = read_csv(path, _ENSEMBLE_HEADER)
    return ParticleEnsemble(positions=data[:, 0:3], velocities=data[:, 3:6],
                            weights=data[:, 6].copy(),
                            f_values=data[:, 7].copy(),
                            params=params)


def central_mass_accel(mass: float) -> Callable:
    """Force rule of a fixed point mass at the origin (test mode):
    a = -M x / (4 pi |x|^3)."""
    def accel(positions):
        r2 = _row_norm2(positions)[:, None]
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
    ekin: float
    epot: float
    virial: float
    rho_center: float
    dist_rho: float = math.nan   # binned-rho L1 distance to the reference, if any


def _ball_density(weights: np.ndarray, r: np.ndarray, radius: float) -> float:
    """Summed weight at radii below radius over the volume of that ball."""
    return float(np.sum(weights[r < radius])) / (4.0 * math.pi / 3.0 * radius ** 3)


def _binned_shell_masses(weights: np.ndarray, edges: np.ndarray,
                         order: np.ndarray, r_sorted: np.ndarray) -> np.ndarray:
    """Summed weight per bin of edges, from _sorted_shell_data's order and
    sorted radii. Bins are found on the sorted radii, which is cheaper, but
    the weights are summed in index order."""
    found = np.searchsorted(edges, r_sorted, side="right")
    found -= 1
    idx = np.empty(len(order), dtype=np.intp)
    idx[order] = found
    del found
    np.clip(idx, 0, len(edges) - 2, out=idx)
    return np.bincount(idx, weights=weights, minlength=len(edges) - 1)


def _reference_shell_masses(state: GroundState):
    """Equal-mass radial bins of the reference profile (last bin reaches
    infinity so escapers count as mass out of place). The edges are quantiles
    of the enclosed mass on the state's nodes; the running maximum irons out
    the rounding just past the support edge."""
    grid = state.rho.grid
    cum = np.maximum.accumulate(4.0 * np.pi * enclosed_mass(grid, state.rho.values))
    quantiles = np.linspace(0.0, cum[-1], _REFERENCE_EDGES)
    inner = np.interp(quantiles[1:-1], cum, grid.nodes)
    return np.concatenate(([0.0], inner, [np.inf])), np.diff(quantiles)


def _diagnostics(run: _Run, shells: _Shells, t: float, center_bin: float,
                 ref_masses: Optional[np.ndarray] = None,
                 ref_edges: Optional[np.ndarray] = None) -> DiagnosticsRecord:
    """The record at time t of the run's state, from shells, the sort of its
    positions. Its per-particle temporaries go into the run's scratch."""
    r, order, r_sorted, w_sorted, m_half = shells
    weights, params = run.ens.weights, run.ens.params
    cols = run.scratch[:, 0], run.scratch[:, 1], run.scratch[:, 2]
    # exact field energy (1/2) int |grad phi|^2 of the unsoftened shell
    # system: (1/(4 pi)) sum_i w_i M_half(<r_i) / r_i over r_i > 0, one
    # slice of the sorted radii (zeros first, nan last)
    lo, hi = np.searchsorted(r_sorted, (0.0, math.inf), side="right")
    shell = np.multiply(w_sorted[lo:hi], m_half[lo:hi], out=cols[0][:hi - lo])
    shell /= r_sorted[lo:hi]
    epot = float(np.sum(shell) / (4.0 * np.pi))
    speeds = _row_norm2(run.velocities, cols[0], cols[1])
    np.sqrt(speeds, out=speeds)
    kinetic = kinetic_weight(params, speeds)
    kinetic *= weights
    ekin = float(np.sum(kinetic))
    del kinetic
    hc = ekin - epot
    u2 = np.multiply(speeds, speeds, out=cols[1])
    if params.is_classical:
        u2 *= weights
    else:
        den = np.divide(u2, params.c ** 2, out=cols[2])
        den += 1.0
        u2 *= weights
        u2 /= np.sqrt(den, out=den)
    vir_lhs = float(np.sum(u2))
    virial = (vir_lhs - epot) / max(abs(vir_lhs), abs(epot), 1e-300)

    rho_center = _ball_density(weights, r, center_bin)

    dist = math.nan
    if ref_masses is not None and ref_edges is not None:
        masses = _binned_shell_masses(weights, ref_edges, order, r_sorted)
        dist = float(np.sum(np.abs(masses - ref_masses)))
    return DiagnosticsRecord(t=t, hc=hc, m1=run.ens.total_mass, ekin=ekin,
                             epot=epot, virial=virial, rho_center=rho_center,
                             dist_rho=dist)


def _check_input(run: _Run) -> None:
    """PreconditionError naming the first particle whose position or velocity
    is not finite, or whose weight is not finite and nonnegative."""
    w = run.ens.weights
    for name, values, ok in (
            ("positions", run.positions, np.isfinite(run.positions).all(axis=1)),
            ("velocities", run.velocities, np.isfinite(run.velocities).all(axis=1)),
            ("weights", w, np.isfinite(w) & (w >= 0))):
        if not ok.all():
            i = int(np.argmin(ok))
            need = "finite and nonnegative" if values is w else "finite"
            raise PreconditionError(f"{name} must be {need}, got {values[i]} at particle {i}")


def evolve(ens: ParticleEnsemble, t_end: float, dt: float, diag_every: int = 10,
           reference: Optional[GroundState] = None,
           center_bin: Optional[float] = None,
           stop_condition: Optional[Callable] = None):
    """Run the leapfrog loop, collecting diagnostics every ``diag_every`` steps.

    Weights and f values ride along unchanged, so the Monte Carlo estimate of
    every Casimir functional is conserved exactly and is not recorded.
    ``stop_condition(record, sorted_radii)`` returns True to end the run;
    the sorted radii are valid only during the call.
    Returns (records, ensemble); the ensemble shares no array with ``ens``.

    The flow steps a _Run of ``ens`` in place. Each force call sorts once,
    a record reads the sort of its step's force call, and the first sort
    serves the first record and the first force.
    """
    if not (0 < dt < math.inf and 0 < t_end < math.inf):
        raise PreconditionError("dt and t_end must be positive and finite, "
                                f"got t_end={t_end:g}, dt={dt:g}")
    steps = int(round(t_end / dt))
    if steps < 1:
        raise PreconditionError(
            f"t_end/dt must round to at least one step, got t_end={t_end:g}, dt={dt:g}")
    run = ens if isinstance(ens, _Run) else _Run(ens)
    _check_input(run)
    shells = run.sort()
    if center_bin is None:
        center_bin = (reference.r_support / 20.0 if reference is not None
                      else float(np.percentile(shells.r, 50)) / 10.0)
    ref_masses = ref_edges = None
    if reference is not None:
        ref_edges, ref_masses = _reference_shell_masses(reference)

    records = [_diagnostics(run, shells, 0.0, center_bin, ref_masses, ref_edges)]
    field_from_particles(run)
    for k in range(1, steps + 1):
        push(run, dt, accel=run.accel)
        if k % diag_every == 0 or k == steps:
            records.append(_diagnostics(run, run.shells, k * dt, center_bin,
                                        ref_masses, ref_edges))
            if (stop_condition is not None
                    and stop_condition(records[-1], run.shells.r_sorted)):
                break
    return records, run.ensemble()


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
    if delta == 0.0:
        return ens
    if mode == "amplitude":
        return replace(ens, weights=ens.weights * (1.0 + delta),
                       f_values=ens.f_values * (1.0 + delta))
    if mode == "dilation":
        return replace(ens, positions=ens.positions * (1.0 + delta),
                       velocities=ens.velocities / (1.0 + delta))
    if mode == "kick":
        return replace(ens, velocities=ens.velocities * (1.0 + delta),
                       f_values=ens.f_values / (1.0 + delta) ** 3)
    raise PreconditionError(f"unknown perturbation mode {mode!r}")


def _map_on_cores(fn: Callable, items: Sequence) -> list:
    """[fn(item) for item in items], on the calling thread plus one worker
    thread per further usable core.

    Items start in order. Once one raises, no further item starts, and the
    error of the earliest failing item is raised: the one the serial loop
    raises, when each fn(item) is deterministic. No worker outlives the call.
    (Not a concurrent.futures pool, for memory: a pool runs every item on a
    worker and leaves the calling thread idle, and a ladder of 100k-particle
    runs on such a pool peaked 8-9 MiB higher.)
    """
    results = [None] * len(items)
    errors = [None] * len(items)
    pending = iter(range(len(items)))
    lock = threading.Lock()
    halt = threading.Event()

    def work():
        while True:
            with lock:
                i = None if halt.is_set() else next(pending, None)
            if i is None:
                return
            try:
                results[i] = fn(items[i])
            except Exception as exc:
                errors[i] = exc
                with lock:   # no item starts once a failure is recorded
                    halt.set()

    affinity = getattr(os, "sched_getaffinity", None)  # not on macOS or Windows
    cores = len(affinity(0)) if affinity else os.cpu_count() or 1
    threads = min(cores, len(items))
    workers = [threading.Thread(target=work) for _ in range(threads - 1)]
    for worker in workers:
        worker.start()
    try:
        work()
    finally:
        halt.set()
        for worker in workers:
            worker.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


def stability_experiment(state: GroundState, deltas: Sequence[float], mode: str,
                         n: int, t_end: float, dt: Optional[float] = None,
                         seed: int = 2024):
    """Evolve a ladder of perturbed samples of a steady state and record how
    far each run strays from the reference profile.

    A delta = 0 baseline sets the Monte Carlo noise floor. The verdict is
    "stable" when the maximal distances are monotone in delta (within a noise
    allowance) and the baseline stays at the floor. The runs share the
    usable cores (see _map_on_cores); ``runs`` lists them in ladder order,
    0 first, with the records a serial ladder makes.
    """
    deltas = tuple(sorted(float(d) for d in deltas))
    if not deltas or deltas[0] < 0 or deltas[-1] <= 0:
        raise PreconditionError("perturbation sizes must be nonnegative, "
                                "at least one positive")
    if dt is None:
        dt = 0.01 * dynamical_time(state.rho.values[0])
    base = sample_state(state, n, seed)

    def run(d):
        records, _ = evolve(_perturb(base, d, mode), t_end, dt,
                            diag_every=_STABILITY_DIAG_EVERY, reference=state)
        return records

    ladder = tuple(dict.fromkeys((0.0,) + deltas))
    runs = dict(zip(ladder, _map_on_cores(run, ladder)))

    def series(d, attr):
        return [getattr(rec, attr) for rec in runs[d]]

    noise_floor = max(series(0.0, "dist_rho"))
    max_d = tuple(max(series(d, "dist_rho")) for d in deltas)
    fin_d = tuple(series(d, "dist_rho")[-1] for d in deltas)
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


def _one_percent_radius(r_sorted: np.ndarray) -> float:
    """The radius inside which 1% of the particles lie, from sorted radii."""
    return r_sorted[max(int(0.01 * len(r_sorted)) - 1, 0)]


def blowup_experiment(spec: CasimirSpec, params: ModelParams,
                      initial: PhaseDensity, n: int, t_end: float,
                      dt: Optional[float] = None,
                      seed: int = 7) -> BlowupReport:
    """Evolve negative-energy data and watch for central concentration.

    Requires hc < 0 for the given model. The verdict is "concentrating" once
    the binned central density reaches 100 times its initial value, which
    stops the run; the run also halts at a resolution guard (1% of the mass inside two
    softening lengths) instead of claiming a singularity.
    """
    rep = functionals(initial, spec, params)
    if not rep.hc < 0:
        raise PreconditionError(
            f"blow-up experiment needs negative energy, got hc = {rep.hc:.6g}")
    ens = sample_density(initial, params, n, seed)
    # concentration needs finer forces
    run = _Run(replace(ens, eps_soft=0.5 * ens.eps_soft))
    # the central bin starts with ~0.2% of the mass so a 100x density growth
    # has headroom; a quarter-mass bin would saturate long before that. The
    # run's sort serves the set-up and then its first record and force.
    shells = run.sort()
    center_bin = float(shells.r_sorted[max(int(0.002 * n), 50)])
    rho0 = _ball_density(run.ens.weights, shells.r, center_bin)
    if dt is None:
        bulk = _ball_density(run.ens.weights, shells.r, shells.r_sorted[n // 2])
        dt = 0.01 * dynamical_time(max(bulk, 1e-12))

    threshold = _GROWTH_THRESHOLD * max(rho0, 1e-300)
    halted_at = None

    def guard(rec, r_sorted):
        nonlocal halted_at
        if rec.rho_center >= threshold:
            return True
        if _one_percent_radius(r_sorted) < 1.5 * run.ens.eps_soft:
            halted_at = rec.t
            return True
        return False

    records, _ = evolve(run, t_end, dt, diag_every=_BLOWUP_DIAG_EVERY,
                        center_bin=center_bin, stop_condition=guard)
    peak = max(rec.rho_center for rec in records)
    # a crossing stops the run, so only the last record can cross
    conc_time = records[-1].t if records[-1].rho_center >= threshold else None
    if conc_time is not None:
        verdict = "concentrating"
    elif halted_at is not None:
        verdict = "resolution-halt"
    else:
        verdict = "no-concentration"
    return BlowupReport(verdict=verdict, concentration_time=conc_time,
                        rho_center_initial=rho0, rho_center_peak=peak,
                        growth_factor=peak / max(rho0, 1e-300),
                        halted_at=halted_at, hc_initial=rep.hc,
                        records=tuple(records))
