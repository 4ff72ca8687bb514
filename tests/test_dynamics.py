import hashlib
import math
import os
import re
import sys
import threading
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from gravlasov.errors import NumericsError, PreconditionError
from gravlasov.kernel import ModelParams, kinetic_weight, make_polytrope
from gravlasov.radial import (PhaseDensity, RadialGrid, SpeedGrid,
                              bump_density, functionals)
from gravlasov import dynamics
from gravlasov.dynamics import (ParticleEnsemble, blowup_experiment,
                                central_mass_accel, dynamical_time, evolve,
                                field_from_particles, push, sample_density,
                                sample_state, stability_experiment)

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


@pytest.mark.parametrize("call, message", [
    (lambda ens, st: evolve(ens, math.nan, 0.01),
     "dt and t_end must be positive and finite, got t_end=nan, dt=0.01"),
    (lambda ens, st: evolve(ens, 1.0, math.inf),
     "dt and t_end must be positive and finite, got t_end=1, dt=inf"),
    (lambda ens, st: push(ens, math.nan), "dt must be nonzero and finite, got nan"),
    (lambda ens, st: sample_state(st, 1000, seed=-1),
     re.escape("seed must lie in [0, 2**128), got -1")),
    (lambda ens, st: sample_state(st, 1000, seed=2 ** 128),
     re.escape(f"seed must lie in [0, 2**128), got {2 ** 128}")),
    (lambda ens, st: sample_density(st.tabulate(257), st.params, 1000, seed=-1),
     re.escape("seed must lie in [0, 2**128), got -1")),
], ids=["evolve-t_end-nan", "evolve-dt-inf", "push-dt-nan", "sample_state-seed-negative",
        "sample_state-seed-2**128", "sample_density-seed-negative"])
def test_flow_entry_points_name_bad_values(state_p2_rel, call, message):
    ens = sample_state(state_p2_rel, 1000, seed=1)
    with pytest.raises(PreconditionError, match=message):
        call(ens, state_p2_rel)


def test_sample_state_rejects_trivial(spec_p2, grid_20):
    from gravlasov.steady import integrate_state
    trivial = integrate_state(spec_p2, CL, 0.0, -1.0, grid_20)
    with pytest.raises(PreconditionError):
        sample_state(trivial, 5000, seed=1)


def test_sample_state_reproducible(state_p2_rel):
    a = sample_state(state_p2_rel, 2000, seed=9)
    b = sample_state(state_p2_rel, 2000, seed=9)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.velocities, b.velocities)
    c = sample_state(state_p2_rel, 2000, seed=10)
    assert not np.array_equal(a.positions, c.positions)


def test_sampler_weighs_in_chunks_with_the_bits_of_one_call(state_p2_rel,
                                                            monkeypatch):
    # 20k particles draw batches of 80k candidates, weighed in 3 chunks
    chunked = sample_state(state_p2_rel, 20_000, seed=6)
    monkeypatch.setattr(dynamics, "_WEIGH_CHUNK", 1 << 30)
    whole = sample_state(state_p2_rel, 20_000, seed=6)
    for name in ("positions", "velocities", "weights", "f_values"):
        assert np.array_equal(getattr(chunked, name).view(np.uint64),
                              getattr(whole, name).view(np.uint64))


def test_sample_density_reproducible(bump_and_table):
    # the profiled bump, and its table, which samples through its interpolant
    for f in bump_and_table:
        a = sample_density(f, REL, 2000, seed=9)
        b = sample_density(f, REL, 2000, seed=9)
        for name in ("positions", "velocities", "weights", "f_values"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        c = sample_density(f, REL, 2000, seed=10)
        assert not np.array_equal(a.positions, c.positions)
        assert np.all(a.f_values > 0)
        assert a.total_mass == pytest.approx(functionals(f, make_polytrope(2.0),
                                                         REL).m1, rel=1e-12)


def test_sample_density_rejects_zero_density():
    grid_r, grid_u = RadialGrid(r_max=4.0, n=65), SpeedGrid(u_max=3.0, m=49)
    zero = PhaseDensity(grid_r=grid_r, grid_u=grid_u, values=np.zeros((65, 49)))
    with pytest.raises(PreconditionError, match="zero density"):
        sample_density(zero, REL, 2000, seed=1)


def assert_column_major(ens, n):
    for name in ("positions", "velocities"):
        a = getattr(ens, name)
        assert a.shape == (n, 3) and a.dtype == np.float64
        assert a.flags.f_contiguous and not a.flags.c_contiguous, name
    assert ens.weights.shape == ens.f_values.shape == (n,)


def test_every_constructor_stores_column_major(state_p2_rel, bump_and_table,
                                              tmp_path):
    from gravlasov.dynamics import _perturb, ensemble_from_csv, ensemble_to_csv
    ens = sample_state(state_p2_rel, 1200, seed=8)
    assert_column_major(ens, 1200)
    assert_column_major(sample_density(bump_and_table[0], REL, 1100, seed=2), 1100)
    path = tmp_path / "ens.csv"
    ensemble_to_csv(path, ens)
    assert_column_major(ensemble_from_csv(path, REL), 1200)
    for mode in ("amplitude", "dilation", "kick"):
        assert_column_major(_perturb(ens, 0.02, mode), 1200)
    out, accel = push(ens, 0.01)
    assert_column_major(out, 1200)
    assert accel.flags.f_contiguous
    out, _ = push(ens, 0.01, external=central_mass_accel(1.0))
    assert_column_major(out, 1200)
    rng = np.random.default_rng(0)
    x, v = rng.normal(size=(7, 3)), rng.normal(size=(7, 3))
    assert x.flags.c_contiguous
    direct = ParticleEnsemble(positions=x, velocities=v, weights=np.ones(7),
                              f_values=np.ones(7), params=CL)
    assert_column_major(direct, 7)
    assert np.array_equal(direct.positions, x)
    assert np.array_equal(direct.velocities, v)


@pytest.mark.parametrize("name, bad", [
    ("positions", np.zeros((5, 2))), ("positions", np.zeros(15)),
    ("velocities", np.zeros((6, 3))), ("weights", np.ones((5, 1))),
    ("f_values", np.ones(4))])
def test_ensemble_shapes_checked_where_built(name, bad):
    arrays_ok = dict(positions=np.zeros((5, 3)), velocities=np.zeros((5, 3)),
                     weights=np.ones(5), f_values=np.ones(5))
    arrays_ok[name] = bad
    with pytest.raises(PreconditionError,
                       match=rf"^{name} must have shape .*got {re.escape(str(bad.shape))}$"):
        ParticleEnsemble(params=CL, **arrays_ok)


_ENSEMBLE_FIELDS = {"positions", "velocities", "weights", "f_values", "params",
                    "eps_soft"}


def test_ensemble_fields_are_frozen():
    # a field assigned past construction would skip the shape check; a new
    # ensemble comes from replace instead, and an ensemble is its fields alone:
    # no sort or buffer rides along into the one replace builds
    ens = single_particle()
    for name in ("positions", "velocities", "weights", "f_values", "eps_soft"):
        with pytest.raises(FrozenInstanceError):
            setattr(ens, name, getattr(ens, name))
    field_from_particles(ens)
    push(ens, 0.01)
    assert set(vars(ens)) == set(vars(replace(ens, eps_soft=0.5))) == _ENSEMBLE_FIELDS


# --- row norms -----------------------------------------------------------------

_EXTREMES = strategies.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-160, 1e155, -1e200, 1.7e308,
     math.inf, -math.inf, math.nan])


@settings(max_examples=300, deadline=None)
@given(a=arrays(np.float64, strategies.tuples(strategies.integers(0, 12),
                                              strategies.just(3)),
                elements=strategies.one_of(_EXTREMES, strategies.floats(),
                                           strategies.floats(-1e3, 1e3))),
       fortran=strategies.booleans())
def test_row_norm2_has_the_bits_of_numpy_row_reductions(a, fortran):
    if fortran:
        a = np.asfortranarray(a)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        n2 = dynamics._row_norm2(a)
        assert np.array_equal(n2, np.sum(a * a, axis=1), equal_nan=True)
        assert np.array_equal(np.sqrt(n2), np.linalg.norm(a, axis=1),
                              equal_nan=True)


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
    v2 = np.sum(v_half * v_half, axis=1, keepdims=True)
    drift = v_half / np.sqrt(1.0 + v2 / ens.params.c ** 2)
    assert np.array_equal(out.positions, ens.positions + 0.01 * drift)


def test_field_no_particles():
    ens = ParticleEnsemble(positions=np.zeros((0, 3)), velocities=np.zeros((0, 3)),
                           weights=np.zeros(0), f_values=np.zeros(0), params=CL)
    assert field_from_particles(ens).shape == (0, 3)
    r = RadialGrid(r_max=4.0, n=65).nodes
    assert np.all(probe_pull(ens, r) == 0.0)


def test_evolve_makes_one_force_call_per_step(state_p2_rel, monkeypatch):
    calls = []
    exact = dynamics.field_from_particles

    def counted(ens, **kwargs):
        calls.append(ens.n)
        return exact(ens, **kwargs)

    monkeypatch.setattr(dynamics, "field_from_particles", counted)
    ens = sample_state(state_p2_rel, 1500, seed=6)
    steps = 7
    records, _ = evolve(ens, steps * 0.01, 0.01, diag_every=3)
    assert len(records) == 1 + 3    # t = 0, steps 3 and 6, and the last step
    assert len(calls) == steps + 1  # one before the first kick, one per drift


def test_evolve_sorts_once_per_force_call_and_record(state_p2_rel, monkeypatch):
    sorts = []
    exact = dynamics._sorted_shell_data

    def counted(r, run):
        sorts.append(len(r))
        return exact(r, run)

    monkeypatch.setattr(dynamics, "_sorted_shell_data", counted)
    ens = sample_state(state_p2_rel, 1500, seed=6)
    steps = 7
    records, final = evolve(ens, steps * 0.01, 0.01, diag_every=3,
                            reference=state_p2_rel)
    assert len(records) == 4
    # one sort per force evaluation: the first record and the first force
    # share the start's sort, and each later record reads its push's sort
    assert len(sorts) == steps + 1
    assert set(vars(ens)) == set(vars(final)) == _ENSEMBLE_FIELDS   # no sort outlives its run


def test_blowup_sorts_once_per_force_call(spec_p2, monkeypatch):
    # the set-up reads the first record's sort instead of sorting on its own
    deep = bump_density(RadialGrid(r_max=10.0, n=257), SpeedGrid(u_max=10.0, m=257),
                        1.0, 1.5, amplitude=1.0159)
    sorts, pushes = [], []
    exact_sort, exact_push = dynamics._sorted_shell_data, dynamics.push

    def counted_sort(r, run):
        sorts.append(len(r))
        return exact_sort(r, run)

    def counted_push(*args, **kwargs):
        pushes.append(1)
        return exact_push(*args, **kwargs)

    monkeypatch.setattr(dynamics, "_sorted_shell_data", counted_sort)
    monkeypatch.setattr(dynamics, "push", counted_push)
    report = blowup_experiment(spec_p2, REL, deep, n=2000, t_end=0.2, seed=9)
    assert len(report.records) >= 2
    assert len(sorts) == len(pushes) + 1


def record(ens, *args):
    """The t = 0 record of a run of ens, from the run's own sort."""
    run = dynamics._Run(ens)
    return dynamics._diagnostics(run, run.sort(), 0.0, *args)


def test_record_after_replace_matches_fresh_ensemble(state_p2_rel):
    # an ensemble built by replace records like a fresh copy of its arrays:
    # nothing of the force call on the ensemble it came from rides along
    from gravlasov.dynamics import _perturb
    ens = sample_state(state_p2_rel, 2000, seed=4)
    edges, ref_masses = dynamics._reference_shell_masses(state_p2_rel)
    field_from_particles(ens)
    rng = np.random.default_rng(3)
    variants = [replace(ens, weights=rng.uniform(0.5, 1.5, ens.n) * ens.weights),
                _perturb(ens, 0.03, "amplitude"),
                replace(ens, positions=1.05 * ens.positions)]
    for variant in variants:
        fresh = ParticleEnsemble(
            positions=variant.positions.copy(), velocities=variant.velocities.copy(),
            weights=variant.weights.copy(), f_values=variant.f_values.copy(),
            params=variant.params, eps_soft=variant.eps_soft)
        got = record(variant, 0.1, ref_masses, edges)
        want = record(fresh, 0.1, ref_masses, edges)
        assert repr(got) == repr(want)
        assert got != record(ens, 0.1, ref_masses, edges)
        assert np.array_equal(field_from_particles(variant),
                              field_from_particles(fresh))


def packed_shell_data(weights, r):
    """_sorted_shell_data of radii r, in the sort arrays of a run of an
    ensemble with these weights."""
    n = len(r)
    run = dynamics._Run(ParticleEnsemble(
        positions=np.zeros((n, 3)), velocities=np.zeros((n, 3)), weights=weights,
        f_values=np.zeros(n), params=CL))
    return dynamics._sorted_shell_data(r, run)


def stable_shell_data(weights, r):
    """_sorted_shell_data written with the stable argsort alone."""
    order = np.argsort(r, kind="stable")
    w_sorted = weights[order]
    return order, r[order], w_sorted, np.cumsum(w_sorted) - 0.5 * w_sorted


# n at the widths of the packed index field: 0, 1, 2 and 2^k +- 1
_SORT_SIZES = [0, 1, 2] + [2 ** k + d for k in range(2, 11) for d in (-1, 1)]
_SORT_SPECIALS = [0.0, math.inf, 5e-324, 1e-310, 2.2250738585072014e-308]


@strategies.composite
def shell_radii(draw):
    n = draw(strategies.sampled_from(_SORT_SIZES))
    r = draw(arrays(np.float64, n, elements=strategies.one_of(
        strategies.sampled_from(_SORT_SPECIALS),
        strategies.floats(0.0, 10.0), strategies.floats(0.0, 1e300))))
    if n >= 2:
        low = (1 << max((n - 1).bit_length(), 1)) - 1
        for _ in range(draw(strategies.integers(0, 3))):
            # a chain of nextafter steps down from x that agree in the kept
            # high bits, planted in reverse index order
            where = sorted(draw(strategies.sets(strategies.integers(0, n - 1),
                                                min_size=2, max_size=min(n, 6))))
            x = draw(strategies.floats(1e-300, 1e300))
            top = (int(np.float64(x).view(np.uint64)) & ~low) | low
            chain = np.arange(top, top - len(where), -1, dtype=np.uint64)
            r[where] = chain.view(np.float64)
        for _ in range(draw(strategies.integers(0, 3))):
            i, j = draw(strategies.integers(0, n - 1)), draw(strategies.integers(0, n - 1))
            r[i] = r[j]                                        # an exact tie
    if draw(strategies.booleans()) and n:
        # values a radius never takes: the fallback keeps the reference order
        i = draw(strategies.integers(0, n - 1))
        r[i] = draw(strategies.sampled_from([-0.0, -1.0, math.nan]))
    return r


@settings(max_examples=300, deadline=None)
@given(r=shell_radii(), seed=strategies.integers(0, 2 ** 16))
@example(r=np.array([-0.0, 0.0, 0.0]), seed=0)   # -0.0 == 0.0, with other bits
@example(r=np.array([2.0, np.nextafter(2.0, 0.0)]), seed=0)
def test_packed_sort_is_the_stable_argsort(r, seed):
    weights = np.random.default_rng(seed).uniform(0.5, 1.5, len(r))
    got = packed_shell_data(weights, r)
    for a, b in zip(got, stable_shell_data(weights, r)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("odd", [None, -0.0, -1.0, math.nan])
def test_packed_sort_repairs_its_runs_locally(monkeypatch, odd):
    # nonnegative nan-free radii that agree in their kept high bits are
    # re-sorted alone; -0.0, a negative value or nan takes the full argsort
    n = 100_000
    r = np.random.default_rng(2).uniform(0.0, 3.0, n)
    low = (1 << (n - 1).bit_length()) - 1
    top = (int(r[10].view(np.uint64)) & ~low) | low
    r[[10, 500, 9000]] = np.arange(top, top - 3, -1, dtype=np.uint64).view(np.float64)
    r[20] = r[30]                                               # an exact tie
    if odd is not None:
        r[40] = odd
    weights = np.random.default_rng(3).uniform(0.5, 1.5, n)
    sizes = []
    argsort = np.argsort

    def counted(a, *args, **kwargs):
        sizes.append(len(a))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", counted)
    got = packed_shell_data(weights, r)
    monkeypatch.undo()
    for a, b in zip(got, stable_shell_data(weights, r)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    if odd is None:
        assert len(sizes) == 1 and 5 <= sizes[0] < 100
    else:
        assert sizes == [n]


def two_pass_record(ens, edges, ref_masses):
    """epot and the binned distance of a record written out with two passes:
    a stable sort for the shell energy, and bins of the unsorted radii."""
    r = np.linalg.norm(ens.positions, axis=1)
    order = np.argsort(r, kind="stable")
    r_sorted, w_sorted = r[order], ens.weights[order]
    m_half = np.cumsum(w_sorted) - 0.5 * w_sorted
    good = r_sorted > 0
    epot = float(np.sum(w_sorted[good] * m_half[good] / r_sorted[good])
                 / (4.0 * np.pi))
    idx = np.clip(np.searchsorted(edges, r, side="right") - 1, 0, len(edges) - 2)
    masses = np.bincount(idx, weights=ens.weights, minlength=len(edges) - 1)
    return epot, float(np.sum(np.abs(masses - ref_masses)))


def test_record_matches_two_pass_reference(state_p2_rel):
    base = sample_state(state_p2_rel, 3000, seed=12)
    edges, ref_masses = dynamics._reference_shell_masses(state_p2_rel)
    far = 2.0 * edges[-2]                 # beyond the last finite edge
    axes = np.vstack([np.eye(3), -np.eye(3)])
    planted = np.vstack([np.zeros((1, 3)), axes, far * axes,
                         np.repeat(base.positions[:4], 3, axis=0)])
    positions = np.vstack([base.positions, planted])
    n = len(positions)
    rng = np.random.default_rng(5)
    perm = rng.permutation(n)
    ens = ParticleEnsemble(positions=positions[perm], velocities=np.zeros((n, 3)),
                           weights=rng.uniform(0.2, 2.0, n) / n,
                           f_values=np.ones(n), params=REL)
    assert len(np.unique(ens.radii())) < n - 10     # exact ties
    # the sampled edges end at infinity; finite ones clip into the last bin
    finite = np.array([0.0, 0.5 * edges[1], edges[-2]])
    for edges_k, masses_k in ((edges, ref_masses), (finite, np.array([0.1, 0.2]))):
        run = dynamics._Run(ens)
        shells = run.sort()
        rec = dynamics._diagnostics(run, shells, 0.0, 0.1, masses_k, edges_k)
        assert shells.r_sorted.tobytes() == np.sort(ens.radii()).tobytes()
        assert (rec.epot, rec.dist_rho) == two_pass_record(ens, edges_k, masses_k)


@pytest.mark.parametrize("state_name", ["state_p2_rel", "state_p2_cl"])
def test_reference_bins_split_the_state_mass_equally(request, state_name):
    # the bins are quantiles of the state's own enclosed mass, so they hold
    # its m1 to the accuracy of the integral, with no interpolation offset
    state = request.getfixturevalue(state_name)
    edges, masses = dynamics._reference_shell_masses(state)
    assert len(edges) == 24 and (edges[0], edges[-1]) == (0.0, np.inf)
    assert np.all(np.diff(edges) > 0)
    assert masses.shape == (23,)
    assert_allclose(masses, masses[0], rtol=1e-13)
    assert masses.sum() == pytest.approx(state.m1, rel=1e-8)


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


_REL_MAX = "max|x|=2.582e+00, max|v|=1.474e+00"
_CL_MAX = "max|x|=2.929e+00, max|v|=1.147e+00"


_NON_FINITE = [
    ("state_p2_rel", "positions", math.nan, f"6 bad components; {_REL_MAX}"),
    ("state_p2_rel", "positions", math.inf, f"6 bad components; {_REL_MAX}"),
    ("state_p2_rel", "positions", -math.inf, f"6 bad components; {_REL_MAX}"),
    ("state_p2_rel", "velocities", math.nan, f"6 bad components; {_REL_MAX}"),
    ("state_p2_rel", "velocities", math.inf, f"2 bad components; {_REL_MAX}"),
    ("state_p2_rel", "velocities", -math.inf, f"2 bad components; {_REL_MAX}"),
    ("state_p2_cl", "positions", math.nan, f"2 bad components; {_CL_MAX}"),
    ("state_p2_cl", "positions", math.inf, f"2 bad components; {_CL_MAX}"),
    ("state_p2_cl", "positions", -math.inf, f"2 bad components; {_CL_MAX}"),
    ("state_p2_cl", "velocities", math.nan, f"2 bad components; {_CL_MAX}"),
    ("state_p2_cl", "velocities", math.inf,
     "2 bad components; max|x|=inf, max|v|=1.147e+00"),
    ("state_p2_cl", "velocities", -math.inf,
     "2 bad components; max|x|=inf, max|v|=1.147e+00"),
]


@pytest.mark.parametrize("state_name, where, bad, message", _NON_FINITE,
                         ids=[f"{s[9:]}-{w}-{b}" for s, w, b, _ in _NON_FINITE])
def test_push_names_a_non_finite_state(request, state_name, where, bad, message):
    # one bad component of one particle; the counts and maxima are those of
    # the scans over the pushed positions and velocities
    ens = sample_state(request.getfixturevalue(state_name), 2000, seed=5)
    values = getattr(ens, where).copy()
    values[7, 1] = bad
    ens = replace(ens, **{where: values})
    with pytest.raises(NumericsError) as info:   # and no warning before it
        push(ens, 0.01)
    assert str(info.value) == f"non-finite state after push (dt=0.01, {message})"


@pytest.mark.parametrize("state_name, digest", [
    ("state_p2_rel", "2d5db3040976005631acb1ddc121c18a131687d6f8c19f195ffdd66dabf4db7e"),
    ("state_p2_cl", "7e64bc739c96907f2bfba6771bc67ace44fb6f5f3ca321881712047c32d6699d"),
], ids=["rel", "cl"])
def test_push_of_a_finite_state_whose_radii_overflow(request, state_name, digest):
    # r^2 overflows at |x| ~ 1e200, so the radii are inf and the positions
    # finite: the finiteness scans decide, and the step goes on
    ens = sample_state(request.getfixturevalue(state_name), 2000, seed=5)
    positions = ens.positions.copy()
    positions[[3, 9, 400]] *= 1e200
    ens = replace(ens, positions=positions)
    with np.errstate(over="ignore"):
        out, accel = push(ens, 0.01)
        assert np.isinf(np.max(out.radii()))
    h = hashlib.sha256(out.positions.tobytes())
    h.update(out.velocities.tobytes())
    h.update(accel.tobytes())
    assert h.hexdigest() == digest


def test_push_rejects_zero_dt(state_p2_rel):
    ens = sample_state(state_p2_rel, 1500, seed=5)
    with pytest.raises(PreconditionError):
        push(ens, 0.0)


def test_evolve_rejects_a_run_of_no_steps(state_p2_rel):
    ens = sample_state(state_p2_rel, 1500, seed=5)
    with pytest.raises(PreconditionError, match=r"got t_end=1e-09, dt=1$"):
        evolve(ens, 1e-9, 1.0)


@pytest.mark.parametrize("where, bad, message", [
    ("velocities", math.nan, r"velocities must be finite, got \[.*nan.*\]"),
    ("positions", math.inf, r"positions must be finite, got \[.*inf.*\]"),
    ("weights", -1e-3, r"weights must be finite and nonnegative, got -0\.001"),
    ("weights", math.nan, r"weights must be finite and nonnegative, got nan"),
])
def test_evolve_names_a_bad_input(state_p2_rel, where, bad, message):
    # checked once, before the first record: the first bad particle is named,
    # and no warning comes before the error
    ens = sample_state(state_p2_rel, 1500, seed=5)
    values = getattr(ens, where).copy()
    values[[7, 40]] = bad
    ens = replace(ens, **{where: values})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError, match=rf"^{message} at particle 7$"):
            evolve(ens, 0.02, 0.01)


@pytest.mark.parametrize("call", ["push", "push-accel", "field", "evolve"])
@pytest.mark.parametrize("state_name", ["state_p2_rel", "state_p2_cl"])
def test_no_callers_array_is_written_or_aliased(request, state_name, call):
    # each call steps a run of its own: the inputs keep their bits, and what
    # comes back shares no memory with them
    ens = sample_state(request.getfixturevalue(state_name), 2000, seed=5)
    accel = field_from_particles(ens)
    inputs = (ens.positions, ens.velocities, ens.weights, ens.f_values, accel)
    before = [a.copy() for a in inputs]
    if call == "field":
        returned = [field_from_particles(ens)]
    elif call == "evolve":
        _, out = evolve(ens, 0.03, 0.01, diag_every=2)
        returned = [out.positions, out.velocities, out.weights, out.f_values]
    else:
        out, accel_new = push(ens, 0.01, accel=accel if call == "push-accel" else None)
        returned = [out.positions, out.velocities, out.weights, out.f_values, accel_new]
    for a, b in zip(inputs, before):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
    assert not any(np.shares_memory(got, a) for got in returned for a in inputs)


@pytest.mark.parametrize("external", [None, central_mass_accel(1.0)],
                         ids=["self-consistent", "external"])
@pytest.mark.parametrize("state_name", ["state_p2_rel", "state_p2_cl"])
def test_push_leaves_the_callers_state_unchanged(request, state_name, external):
    # push builds its temporaries in place, but only on arrays it allocated:
    # a caller that keeps ens and accel finds them bit for bit as they were,
    # and the step has the bits of the kick-drift-kick expressions
    ens = sample_state(request.getfixturevalue(state_name), 2000, seed=5)
    force = (field_from_particles if external is None
             else lambda state: external(state.positions))
    accel = force(ens)
    kept = (ens.positions, ens.velocities, ens.weights, ens.f_values, accel)
    before = [a.copy() for a in kept]
    dt = 0.01
    out, accel_new = push(ens, dt, accel=accel, external=external)
    assert all(np.array_equal(a.view(np.uint64), b.view(np.uint64))
               for a, b in zip(kept, before))
    v_half = ens.velocities + 0.5 * dt * accel
    drift = v_half / np.sqrt(1.0 + np.sum(v_half * v_half, axis=1, keepdims=True)
                             / ens.params.c ** 2)
    x_new = ens.positions + dt * drift
    want_accel = force(replace(ens, positions=x_new))
    v_new = v_half + 0.5 * dt * want_accel
    for got, want in ((out.positions, x_new), (out.velocities, v_new),
                      (accel_new, want_accel)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# --- evolve ----------------------------------------------------------------------

def casimir_estimates(ens, spec):
    """Monte Carlo Casimir functional and L^2 norm of the frozen f values: a
    particle stands for phase volume w/f, so int j(f) becomes sum (w/f) j(f)."""
    pos = ens.f_values > 0
    w, f = ens.weights[pos], ens.f_values[pos]
    return float(np.sum((w / f) * spec.j(f))), float(np.sum(w * f) ** 0.5)


def test_evolve_conservation_short(state_p2_rel, spec_p2):
    st = state_p2_rel
    td = dynamical_time(st.rho.values[0])
    ens = sample_state(st, 20_000, seed=21)
    f0 = ens.f_values.copy()
    w0 = ens.weights.copy()
    x0, v0 = ens.positions.copy(), ens.velocities.copy()
    estimates = casimir_estimates(ens, spec_p2)
    records, final = evolve(ens, 2.0 * td, 0.05 * td, diag_every=5, reference=st)
    assert np.array_equal(final.f_values, f0)     # bit-identical transport values
    assert np.array_equal(final.weights, w0)
    # the run's workspace never writes into the caller's arrays
    assert np.array_equal(ens.positions, x0) and np.array_equal(ens.velocities, v0)
    m1s = [rec.m1 for rec in records]
    assert max(m1s) == min(m1s) == pytest.approx(st.m1, rel=1e-14)
    assert casimir_estimates(final, spec_p2) == estimates   # Casimirs frozen
    hc0 = records[0].hc
    assert max(abs(r.hc - hc0) / abs(hc0) for r in records) < 1e-3


@pytest.mark.parametrize("state_name", ["state_p2_rel", "state_p2_cl"])
def test_evolve_holds_about_one_state(request, state_name):
    # evolve hands each push the only references to the last step's state,
    # which push frees before its force call: a run peaks below seven (n, 3)
    # arrays, where keeping the old state through the force call took nine
    state = request.getfixturevalue(state_name)
    n = 20_000
    ens = sample_state(state, n, seed=3)
    dt = 0.01 * dynamical_time(state.rho.values[0])
    tracemalloc.start()
    try:
        records, _ = evolve(ens, 20 * dt, dt, diag_every=10, reference=state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == 3
    assert peak <= 7 * 24 * n


def test_evolve_virial_stays_near_monte_carlo_level(state_p2_rel):
    st = state_p2_rel
    td = dynamical_time(st.rho.values[0])
    ens = sample_state(st, 50_000, seed=33)
    records, _ = evolve(ens, 10.0 * td, 0.1 * td, diag_every=10)
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
    with pytest.raises(PreconditionError):
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
    with pytest.raises(PreconditionError, match="at least one positive"):
        stability_experiment(state_p2_rel, deltas, "amplitude", n=2000, t_end=1.0)


def serial_ladder(state, deltas, mode, n, t_end, dt, seed):
    """The records of each ladder run, evolved one after another."""
    base = sample_state(state, n, seed)
    return {d: evolve(dynamics._perturb(base, d, mode), t_end, dt,
                      diag_every=dynamics._STABILITY_DIAG_EVERY,
                      reference=state)[0]
            for d in (0.0,) + tuple(sorted(deltas))}


@pytest.mark.parametrize("mode", ["amplitude", "kick"])
@pytest.mark.parametrize("state_name", ["state_p2_rel", "state_p2_cl"])
def test_ladder_on_the_cores_matches_the_serial_ladder(request, monkeypatch,
                                                       state_name, mode):
    state = request.getfixturevalue(state_name)
    td = dynamical_time(state.rho.values[0])
    args = (state, [0.04, 0.02], mode)
    kwargs = dict(n=2000, t_end=2.0 * td, dt=0.1 * td, seed=8)
    want = repr(serial_ladder(*args, **kwargs))
    _, runs = stability_experiment(*args, **kwargs)
    assert list(runs) == [0.0, 0.02, 0.04]
    assert repr(runs) == want          # every record field, bit for bit
    for cores in ({0}, {0, 1, 2, 3}):  # serial, and a worker per run
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)
        assert repr(stability_experiment(*args, **kwargs)[1]) == want
    monkeypatch.delattr(os, "sched_getaffinity")  # as on macOS and Windows
    assert repr(stability_experiment(*args, **kwargs)[1]) == want


def test_ladder_raises_the_earliest_failure_in_ladder_order(state_p2_rel,
                                                            monkeypatch):
    # 0.01 fails first in time, the baseline after it: the baseline's error
    # is raised, the one the serial ladder raises, and 0.02 never starts
    started = []
    later_failed = threading.Event()

    def failing(ens, delta, mode):
        started.append(delta)
        if delta == 0.0:
            assert later_failed.wait(timeout=60)
            raise NumericsError("the baseline failed")
        later_failed.set()
        raise NumericsError(f"delta {delta} failed")

    monkeypatch.setattr(dynamics, "_perturb", failing)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    threads = threading.active_count()
    with pytest.raises(NumericsError, match="the baseline failed"):
        stability_experiment(state_p2_rel, [0.01, 0.02], "amplitude",
                             n=1000, t_end=1.0)
    assert sorted(started) == [0.0, 0.01]
    assert threading.active_count() == threads


@pytest.mark.parametrize("cores", [{0}, {0, 1}])
def test_ladder_cancels_the_runs_after_a_failure(state_p2_rel, monkeypatch,
                                                 cores):
    started = []
    exact = dynamics._perturb

    def failing(ens, delta, mode):
        started.append(delta)
        if delta > 0:
            raise NumericsError(f"delta {delta} failed")
        return exact(ens, delta, mode)

    monkeypatch.setattr(dynamics, "_perturb", failing)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)
    threads = threading.active_count()
    with pytest.raises(NumericsError, match="delta 0.01 failed"):
        stability_experiment(state_p2_rel, [0.02, 0.01, 0.04], "amplitude",
                             n=1000, t_end=0.05, dt=0.01)
    assert sorted(started) == [0.0, 0.01]
    assert threading.active_count() == threads


def test_map_on_cores_runs_each_item_once(monkeypatch):
    # eight threads on a short switch interval: two threads taking the same
    # item would show up as a repeated call
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    calls = []

    def square(i):
        calls.append(i)
        return i * i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = dynamics._map_on_cores(square, range(2000))
    finally:
        sys.setswitchinterval(interval)
    assert got == [i * i for i in range(2000)]
    assert sorted(calls) == list(range(2000))


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


@settings(max_examples=30)
@given(n=strategies.integers(1, 400), distinct=strategies.integers(1, 20),
       seed=strategies.integers(0, 2 ** 16))
def test_one_percent_radius_is_the_partition_statistic(n, distinct, seed):
    # blowup_experiment's guard reads the record's sort, not a partition of
    # its own; few distinct radii among many particles make exact ties
    rng = np.random.default_rng(seed)
    r = rng.choice(rng.uniform(0.0, 2.0, distinct), size=n)
    k = max(int(0.01 * n) - 1, 0)
    _, r_sorted, _, _ = packed_shell_data(np.ones(n), r)
    assert dynamics._one_percent_radius(r_sorted) == np.partition(r, k)[k]
