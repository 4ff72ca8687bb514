import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gravlasov.errors import NumericsError, PreconditionError
from gravlasov.kernel import ModelParams, kinetic_weight
from gravlasov.radial import RadialGrid, SpeedGrid, bump_density, functionals
from gravlasov.dynamics import (ParticleEnsemble, blowup_experiment,
                                central_mass_accel, dynamical_time, evolve,
                                field_from_particles, push, sample_state,
                                stability_experiment)

CL = ModelParams()
REL = ModelParams(c=1.0)


def single_particle(weight=1.0, radius=1.0, params=CL):
    return ParticleEnsemble(positions=np.array([[radius, 0.0, 0.0]]),
                            velocities=np.zeros((1, 3)),
                            weights=np.array([weight]),
                            f_values=np.array([1.0]),
                            params=params)


# --- sampling --------------------------------------------------------------------

def test_sample_state_mass_exact(state_p2_rel):
    ens = sample_state(state_p2_rel, 5000, seed=1)
    assert ens.total_mass == pytest.approx(state_p2_rel.m1, rel=1e-14)
    assert ens.n == 5000
    assert np.all(ens.f_values >= 0)
    assert np.max(ens.radii()) <= state_p2_rel.r_support


def test_sample_state_moments_within_monte_carlo_error(state_p2_rel):
    st = state_p2_rel
    n = 200_000
    ens = sample_state(st, n, seed=7)
    # central density within 3 sigma
    r_bin = st.r_support / 20.0
    m_bin = float(np.sum(ens.weights[ens.radii() < r_bin]))
    r = st.rho.grid.nodes
    sel = r <= r_bin
    m_exact = 4.0 * math.pi * np.trapezoid(
        r[sel] ** 2 * st.rho.values[sel], r[sel])
    sigma = math.sqrt(m_exact * st.m1 / n)
    assert abs(m_bin - m_exact) < 3.0 * sigma
    # kinetic energy within 3 sigma
    per = ens.weights * kinetic_weight(st.params, ens.speeds())
    est = float(np.sum(per))
    sem = float(np.std(per)) * math.sqrt(n)
    assert abs(est - st.ekin) < 3.0 * sem


def test_sample_state_rejects_trivial(spec_p2, grid_20):
    from gravlasov.steady import integrate_state
    trivial = integrate_state(spec_p2, CL, 0.0, -1.0, grid_20)
    with pytest.raises(PreconditionError):
        sample_state(trivial, 5000, seed=1)


def test_sample_density_reproducible(state_p2_rel):
    a = sample_state(state_p2_rel, 2000, seed=9)
    b = sample_state(state_p2_rel, 2000, seed=9)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.velocities, b.velocities)
    c = sample_state(state_p2_rel, 2000, seed=10)
    assert not np.array_equal(a.positions, c.positions)


# --- shell field ---------------------------------------------------------------

def with_probes(ens, radii):
    """The ensemble plus zero-weight probes on the z axis: a probe at radius
    r feels exactly the enclosed mass M(<r)/(4 pi r^2) and moves no mass."""
    k = len(radii)
    probes = np.zeros((k, 3))
    probes[:, 2] = radii
    return ParticleEnsemble(positions=np.vstack([ens.positions, probes]),
                            velocities=np.zeros((ens.n + k, 3)),
                            weights=np.concatenate([ens.weights, np.zeros(k)]),
                            f_values=np.concatenate([ens.f_values, np.zeros(k)]),
                            params=ens.params)


def probe_pull(ens, radii):
    """Radial pull toward the origin felt by probes at the given radii."""
    accel = field_from_particles(with_probes(ens, radii))
    return -accel[ens.n:, 2]


def test_field_single_particle():
    ens = single_particle(weight=2.0, radius=1.0)
    r = RadialGrid(r_max=8.0, n=257).nodes[1:]
    outside, inside = r[r > 1.0], r[r < 1.0]
    assert_allclose(probe_pull(ens, outside),
                    2.0 / (4.0 * math.pi * outside ** 2), rtol=1e-12)
    assert np.all(probe_pull(ens, inside) == 0.0)
    # the particle itself feels half its own weight
    accel = field_from_particles(ens)
    assert accel.shape == (1, 3)
    assert_allclose(accel[0], [-1.0 / (4.0 * math.pi), 0.0, 0.0], rtol=1e-12)


def test_field_two_shells():
    ens = ParticleEnsemble(positions=np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]]),
                           velocities=np.zeros((2, 3)),
                           weights=np.array([3.0, 5.0]),
                           f_values=np.ones(2), params=CL)
    r = RadialGrid(r_max=8.0, n=513).nodes[1:]
    between = r[(r > 1.0) & (r < 2.0)]
    assert_allclose(probe_pull(ens, between), 3.0 / (4 * math.pi * between ** 2),
                    rtol=1e-12)
    beyond = r[r > 2.0]
    assert_allclose(probe_pull(ens, beyond), 8.0 / (4 * math.pi * beyond ** 2),
                    rtol=1e-12)
    assert np.all(probe_pull(ens, r[r < 1.0]) == 0.0)
    # inner particle feels half its own weight only, the outer one the inner
    # shell plus half its own
    a0, a1 = np.linalg.norm(field_from_particles(ens), axis=1)
    assert a0 == pytest.approx(1.5 / (4 * math.pi), rel=1e-12)
    assert a1 == pytest.approx(5.5 / (4 * math.pi * 4.0), rel=1e-12)


def stable_sort_accelerations(ens):
    """The shell force written out with a stable sort: tied radii in index order."""
    r = np.linalg.norm(ens.positions, axis=1)
    order = np.argsort(r, kind="stable")
    w = ens.weights[order]
    m_half = np.cumsum(w) - 0.5 * w
    soft_r3 = (r[order] ** 2 + ens.eps_soft ** 2) ** 1.5
    pull = np.where(soft_r3 > 0, m_half / (4.0 * np.pi * soft_r3), 0.0)
    accel = np.empty((ens.n, 3))
    accel[order] = -pull[:, None] * ens.positions[order]
    return accel


def test_tied_radii_keep_index_order():
    rng = np.random.default_rng(11)
    axes = np.vstack([np.eye(3), -np.eye(3)])
    random = rng.normal(size=(200, 3))
    positions = np.vstack([axes, random, np.repeat(random[:3], 4, axis=0)])
    n = len(positions)
    perm = rng.permutation(n)
    ens = ParticleEnsemble(positions=positions[perm], velocities=np.zeros((n, 3)),
                           weights=rng.uniform(0.5, 1.5, n), f_values=np.ones(n),
                           params=REL, eps_soft=0.05)
    r = ens.radii()
    assert len(np.unique(r)) < n - 10    # ties at radius 1 and at 3 random radii
    expected = stable_sort_accelerations(ens)
    assert np.array_equal(field_from_particles(ens), expected)
    # a step too short to move anything: push's force acts on the tied radii
    out, accel = push(ens, 1e-300)
    assert np.array_equal(out.positions, ens.positions)
    assert np.array_equal(accel, expected)


def test_push_force_matches_stable_sort_reference(state_p2_rel):
    ens = sample_state(state_p2_rel, 5000, seed=3)
    out, accel = push(ens, 0.01)
    assert not np.array_equal(out.positions, ens.positions)
    assert np.array_equal(accel, stable_sort_accelerations(out))
    # the kick before the drift used the field of the starting positions
    v_half = ens.velocities + 0.005 * stable_sort_accelerations(ens)
    assert np.array_equal(out.velocities, v_half + 0.005 * accel)


def test_field_no_particles():
    ens = ParticleEnsemble(positions=np.zeros((0, 3)), velocities=np.zeros((0, 3)),
                           weights=np.zeros(0), f_values=np.zeros(0), params=CL)
    assert field_from_particles(ens).shape == (0, 3)
    r = RadialGrid(r_max=4.0, n=65).nodes
    assert np.all(probe_pull(ens, r) == 0.0)


def test_evolve_makes_one_force_call_per_step(state_p2_rel, monkeypatch):
    import gravlasov.dynamics as dynamics
    calls = []
    exact = dynamics.field_from_particles

    def counted(ens):
        calls.append(ens.n)
        return exact(ens)

    monkeypatch.setattr(dynamics, "field_from_particles", counted)
    ens = sample_state(state_p2_rel, 1500, seed=6)
    steps = 7
    records, _ = evolve(ens, steps * 0.01, 0.01, diag_every=3)
    assert len(records) == 1 + 3    # t = 0, steps 3 and 6, and the last step
    assert len(calls) == steps + 1  # one before the first kick, one per drift


# --- pushes ----------------------------------------------------------------------

def test_free_streaming_exact():
    params = ModelParams(c=2.0)
    v = np.array([[0.3, -0.1, 1.4]])
    x0 = np.array([[0.5, 0.2, -0.3]])
    ens = ParticleEnsemble(positions=x0.copy(), velocities=v.copy(),
                           weights=np.array([1.0]), f_values=np.array([1.0]),
                           params=params)
    zero_force = lambda pos: np.zeros_like(pos)
    dt = 0.05
    for _ in range(200):
        ens, _ = push(ens, dt, external=zero_force)
    speed = np.linalg.norm(v)
    drift = v / math.sqrt(1.0 + speed ** 2 / 4.0)
    assert_allclose(ens.positions, x0 + 200 * dt * drift, rtol=1e-13)
    assert np.array_equal(ens.velocities, v)


def test_kepler_energy_drift():
    mass = 4.0 * math.pi  # effective GM = 1
    ens = ParticleEnsemble(positions=np.array([[1.0, 0.0, 0.0]]),
                           velocities=np.array([[0.0, 1.0, 0.0]]),
                           weights=np.array([1.0]), f_values=np.array([1.0]),
                           params=CL)
    force = central_mass_accel(mass)
    period = 2.0 * math.pi
    dt = period / 1000.0
    e0 = 0.5 - 1.0
    worst = 0.0
    accel = None
    for step in range(100 * 1000):
        ens, accel = push(ens, dt, accel=accel, external=force)
        if step % 250 == 0:
            r = float(np.linalg.norm(ens.positions))
            s = float(np.linalg.norm(ens.velocities))
            energy = 0.5 * s * s - 1.0 / r
            worst = max(worst, abs(energy - e0) / abs(e0))
    assert worst < 1e-6


def test_reversibility_frozen_field():
    rng = np.random.default_rng(3)
    n = 500
    ens = ParticleEnsemble(positions=rng.normal(size=(n, 3)),
                           velocities=0.3 * rng.normal(size=(n, 3)),
                           weights=np.full(n, 1.0 / n),
                           f_values=np.ones(n), params=REL)
    force = central_mass_accel(2.0)
    x0, v0 = ens.positions.copy(), ens.velocities.copy()
    state = ens
    accel = None
    for _ in range(100):
        state, accel = push(state, 0.01, accel=accel, external=force)
    accel = None
    for _ in range(100):
        state, accel = push(state, -0.01, accel=accel, external=force)
    assert np.max(np.abs(state.positions - x0)) < 1e-8
    assert np.max(np.abs(state.velocities - v0)) < 1e-8


def test_push_relativistic_speed_bound(state_p2_rel):
    ens = sample_state(state_p2_rel, 2000, seed=5)
    for _ in range(5):
        ens, _ = push(ens, 0.01)
        drift = ens.velocities / np.sqrt(
            1.0 + np.sum(ens.velocities ** 2, axis=1, keepdims=True))
        assert np.max(np.linalg.norm(drift, axis=1)) < 1.0


def test_push_speed_bound_is_numerics_error():
    # at |v| = 1e9 c the drift speed |v| / sqrt(1 + |v|^2/c^2) rounds to c
    ens = ParticleEnsemble(positions=np.array([[1.0, 0.0, 0.0]]),
                           velocities=np.array([[0.0, 1e9, 0.0]]),
                           weights=np.array([1.0]), f_values=np.array([1.0]),
                           params=REL)
    with pytest.raises(NumericsError, match=r"dt=0\.01.*max\|v\|=1\.000e\+09"):
        push(ens, 0.01, external=lambda pos: np.zeros_like(pos))


def test_push_rejects_zero_dt(state_p2_rel):
    ens = sample_state(state_p2_rel, 1500, seed=5)
    with pytest.raises(ValueError):
        push(ens, 0.0)


# --- evolve ----------------------------------------------------------------------

def test_evolve_conservation_short(state_p2_rel, spec_p2):
    st = state_p2_rel
    td = dynamical_time(st.rho.values[0])
    ens = sample_state(st, 20_000, seed=21)
    f0 = ens.f_values.copy()
    w0 = ens.weights.copy()
    records, final = evolve(ens, 2.0 * td, 0.05 * td, diag_every=5,
                            spec=spec_p2, reference=st)
    assert np.array_equal(final.f_values, f0)     # bit-identical transport values
    assert np.array_equal(final.weights, w0)
    m1s = [rec.m1 for rec in records]
    assert max(m1s) == min(m1s) == pytest.approx(st.m1, rel=1e-14)
    mjs = [rec.mj_estimate for rec in records]
    assert max(mjs) == min(mjs)                   # Casimir estimate frozen
    lqs = [rec.lq_norms[0] for rec in records]
    assert max(lqs) == min(lqs)
    hc0 = records[0].hc
    assert max(abs(r.hc - hc0) / abs(hc0) for r in records) < 1e-3


def test_evolve_virial_stays_near_monte_carlo_level(state_p2_rel, spec_p2):
    st = state_p2_rel
    td = dynamical_time(st.rho.values[0])
    ens = sample_state(st, 50_000, seed=33)
    records, _ = evolve(ens, 10.0 * td, 0.1 * td, diag_every=10, spec=spec_p2)
    v0 = abs(records[0].virial)
    scale = max(v0, 3.0 / math.sqrt(ens.n))  # MC floor when v0 is tiny
    assert max(abs(r.virial) for r in records) < 3.0 * scale


# --- experiments --------------------------------------------------------------------

def test_stability_modes_bookkeeping(state_p2_rel):
    from gravlasov.dynamics import _perturb
    base = sample_state(state_p2_rel, 2000, seed=2)
    amp = _perturb(base, 0.02, "amplitude")
    assert amp.total_mass == pytest.approx(1.02 * base.total_mass, rel=1e-14)
    dil = _perturb(base, 0.02, "dilation")
    assert dil.total_mass == base.total_mass
    assert_allclose(dil.radii(), 1.02 * base.radii(), rtol=1e-14)
    kick = _perturb(base, 0.02, "kick")
    assert_allclose(kick.speeds(), 1.02 * base.speeds(), rtol=1e-14)
    with pytest.raises(ValueError):
        _perturb(base, 0.02, "nope")


def test_stability_experiment_smoke(state_p2_rel):
    td = dynamical_time(state_p2_rel.rho.values[0])
    report, runs = stability_experiment(state_p2_rel, [0.05], "amplitude",
                                        n=10_000, t_end=1.0 * td, dt=0.1 * td,
                                        seed=4)
    assert report.noise_floor >= 0
    assert len(report.max_dist_rho) == 1
    assert set(runs) == {0.0, 0.05}
    assert report.max_dist_rho[0] > report.noise_floor  # 5% is far above floor


@pytest.mark.parametrize("deltas", [[], [0.0], [0.02, -0.01]])
def test_stability_experiment_needs_a_positive_size(state_p2_rel, deltas):
    # a ladder without a positive size would compare the baseline to itself
    with pytest.raises(ValueError, match="at least one positive"):
        stability_experiment(state_p2_rel, deltas, "amplitude", n=2000, t_end=1.0)


def test_ensemble_csv_roundtrip(tmp_path, state_p2_rel):
    from gravlasov.dynamics import ensemble_from_csv, ensemble_to_csv
    ens = sample_state(state_p2_rel, 1500, seed=8)
    path = tmp_path / "ens.csv"
    ensemble_to_csv(path, ens)
    header = open(path).readline().strip()
    assert header == "x,y,z,vx,vy,vz,w,f"
    back = ensemble_from_csv(path, ens.params)
    assert_allclose(back.positions, ens.positions, rtol=0, atol=0)
    assert_allclose(back.velocities, ens.velocities, rtol=0, atol=0)
    assert_allclose(back.weights, ens.weights, rtol=0, atol=0)
    assert_allclose(back.f_values, ens.f_values, rtol=0, atol=0)


def test_blowup_requires_negative_energy(spec_p2):
    gr = RadialGrid(r_max=10.0, n=257)
    gu = SpeedGrid(u_max=10.0, m=257)
    thin = bump_density(gr, gu, 1.0, 1.5, amplitude=1e-3)  # hc > 0
    rep = functionals(thin, spec_p2, REL)
    assert rep.hc > 0
    with pytest.raises(PreconditionError):
        blowup_experiment(spec_p2, REL, thin, n=2000, t_end=0.5)


def test_blowup_smoke_concentrating(spec_p2):
    gr = RadialGrid(r_max=10.0, n=257)
    gu = SpeedGrid(u_max=10.0, m=257)
    deep = bump_density(gr, gu, 1.0, 1.5, amplitude=1.0159)
    report = blowup_experiment(spec_p2, REL, deep, n=20_000, t_end=3.0, seed=9)
    assert report.hc_initial < 0
    assert report.verdict in ("concentrating", "resolution-halt")
    assert report.growth_factor > 10.0
