"""The flow's shortcuts keep the bits of the longer code they replace.

Each shortcut skips work that cannot change a result: the sampler's
prefilter rejects, unweighed, candidates that the full test would reject;
a step kicks with the half kick its predecessor left in the scratch; the
step's check takes two reductions before the exact scans; equal weights bin
by counts. Each test here holds one against a reference: a copy of the code
it replaced, or fresh pushes.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies
from hypothesis.extra.numpy import arrays

from gravlasov import dynamics
from gravlasov.dynamics import (ParticleEnsemble, central_mass_accel,
                                field_from_particles, push, sample_state)
from gravlasov.errors import GravlasovError, NumericsError
from gravlasov.kernel import ModelParams, make_polytrope
from gravlasov.radial import RadialGrid
from gravlasov.steady import integrate_state


# --- the sampler's prefilter ---------------------------------------------------

def unfiltered_rejection_sample(rng, density_fn, r_hi, u_hi, n):
    """The sampler as it was before its prefilter: every candidate weighed."""
    rr = np.linspace(0.0, r_hi, dynamics._ENVELOPE_NODES)[:, None]
    uu = np.linspace(0.0, u_hi, dynamics._ENVELOPE_NODES)[None, :]
    target = rr ** 2 * uu ** 2 * density_fn(rr, uu)
    bound = 1.2 * float(np.max(target))
    out_r = np.empty(n)
    out_u = np.empty(n)
    filled = 0
    while filled < n:
        batch = max(4 * (n - filled), 1024)
        cand_r = rng.uniform(0.0, r_hi, batch)
        cand_u = rng.uniform(0.0, u_hi, batch)
        draw = rng.uniform(0.0, bound, batch)
        accept = draw < cand_r ** 2 * cand_u ** 2 * density_fn(cand_r, cand_u)
        take = min(int(np.sum(accept)), n - filled)
        out_r[filled:filled + take] = cand_r[accept][:take]
        out_u[filled:filled + take] = cand_u[accept][:take]
        filled += take
    return out_r, out_u


def unfiltered(rng, density_fn, r_hi, u_hi, n, decreasing):
    # and the f values as the sampler took them: one call at the samples
    r, u = unfiltered_rejection_sample(rng, density_fn, r_hi, u_hi, n)
    return r, u, np.asarray(density_fn(r, u), dtype=float)


@pytest.fixture(scope="module")
def state_p4_half():
    # the steepest edge drawn below: p = 4 at c = 1/2
    return integrate_state(make_polytrope(4.0), ModelParams(c=0.5), -1.0, -1.0,
                           RadialGrid(r_max=20.0, n=1025))


@pytest.mark.parametrize("state_name, n, seed", [
    ("state_p2_rel", 20_000, 1), ("state_p2_rel", 3000, 2),
    ("state_p2_cl", 20_000, 3), ("state_p4_half", 20_000, 4)],
    ids=["p2-rel-20k", "p2-rel-3k", "p2-cl-20k", "p4-c0.5-20k"])
def test_sample_state_keeps_the_ensembles_of_the_unfiltered_sampler(
        request, monkeypatch, state_name, n, seed):
    state = request.getfixturevalue(state_name)
    got = sample_state(state, n, seed)
    monkeypatch.setattr(dynamics, "_rejection_sample", unfiltered)
    want = sample_state(state, n, seed)
    for name in ("positions", "velocities", "weights", "f_values"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def envelope(state):
    nodes_r = np.linspace(0.0, state.r_support, dynamics._ENVELOPE_NODES)
    nodes_u = np.linspace(0.0, state.u_bound, dynamics._ENVELOPE_NODES)
    rr, uu = nodes_r[:, None], nodes_u[None, :]
    return nodes_r, nodes_u, dynamics._cell_bounds(rr, uu, state.profile(rr, uu))


def hardest_points(nodes):
    """Each cell's lower node and the doubles just above it and just below
    its upper node, where the index may fall short and the bound is tight."""
    return np.concatenate([nodes[:-1], np.nextafter(nodes[:-1], np.inf),
                           np.nextafter(nodes[1:], 0.0)])


@settings(max_examples=25)
@given(p=strategies.floats(1.5, 4.0, exclude_min=True),
       c=strategies.sampled_from([0.5, 1.0, math.inf]),
       psi0=strategies.floats(-2.0, -0.3), mu=strategies.floats(-3.0, -0.3),
       seed=strategies.integers(0, 2 ** 16))
def test_prefilter_never_rejects_a_candidate_the_full_test_accepts(p, c, psi0, mu,
                                                                  seed):
    # a candidate is rejected unweighed only when its draw reaches its
    # cell's bound; the full test accepts it only when its draw is below its
    # target. So no bound may lie below a target in its cell: checked at
    # random candidates, and at the edges of every cell on each axis
    try:
        state = integrate_state(make_polytrope(p), ModelParams(c=c), psi0, mu,
                                RadialGrid(r_max=60.0, n=513))
    except GravlasovError:
        assume(False)
    nodes_r, nodes_u, cells = envelope(state)
    rng = np.random.default_rng(seed)
    edges_r, edges_u = hardest_points(nodes_r), hardest_points(nodes_u)
    r = np.concatenate([rng.uniform(0.0, state.r_support, 60_000),
                        edges_r, rng.choice(edges_r, 20_000)])
    u = np.concatenate([rng.uniform(0.0, state.u_bound, 60_000),
                        rng.choice(edges_u, len(edges_r)), edges_u[rng.integers(
                            0, len(edges_u), 20_000)]])
    i = dynamics._cell_index(r, state.r_support)
    j = dynamics._cell_index(u, state.u_bound)
    for x, k, nodes in ((r, i, nodes_r), (u, j, nodes_u)):
        assert np.all(nodes[k] <= x)                   # never past its cell
        assert np.all(np.searchsorted(nodes, x, side="right") - 1 - k <= 1)
    target = r ** 2 * u ** 2 * state.profile(r, u)
    assert np.all(target <= cells[i, j])


@given(hi=strategies.floats(1e-200, 1e200))
@example(hi=1.0)
@example(hi=3.0)
def test_cell_index_never_passes_its_cell(hi):
    # it falls one cell short only within 2^-39 of the upper node it reports
    nodes = np.linspace(0.0, hi, dynamics._ENVELOPE_NODES)
    x = hardest_points(nodes)
    k = dynamics._cell_index(x, hi)
    true = np.searchsorted(nodes, x, side="right") - 1
    assert np.all(k >= 0) and np.all(k <= true)
    short = k < true
    assert np.all(k[short] == true[short] - 1)
    assert np.all(nodes[k[short] + 1] >= x[short] * (1.0 - 2.0 ** -38))


# --- the carried half kick ------------------------------------------------------

def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def assert_kick_intact(run):
    # a kick_dt is held only while the scratch holds that kick
    if run.kick_dt is not None:
        assert_same_bits(run.scratch, np.multiply(run.accel, 0.5 * run.kick_dt))


_BETWEEN = ["none", "record", "dt", "negative-dt", "external", "external-recomputed",
            "recomputed", "other-accel", "field", "fast-particle"]


@pytest.mark.parametrize("between", _BETWEEN, ids=_BETWEEN)
@pytest.mark.parametrize("state_name", ["state_p2_rel", "state_p2_cl"],
                         ids=["state_p2_rel", "state_p2_cl"])
def test_pushes_of_a_run_have_the_bits_of_fresh_pushes(request, state_name, between):
    # a run's steps kick with the kick the last one left where they may; a
    # fresh push of each step's ensemble computes every kick
    state = request.getfixturevalue(state_name)
    ens = sample_state(state, 2000, seed=5)
    if between == "fast-particle":   # every step runs the exact check
        velocities = ens.velocities.copy()
        velocities[3] = [0.0, 1e7 if state.params.c == 1.0 else 1e160, 0.0]
        ens = replace(ens, velocities=velocities)
    run = dynamics._Run(ens)

    def step(dt, external=None, given="own"):
        # given: "own" for the step's own accelerations, None to compute
        # them afresh, or another array
        nonlocal fresh, accel
        own = isinstance(given, str)
        fresh, accel = push(fresh, dt, accel=accel if own else given,
                            external=external)
        push(run, dt, accel=run.accel if own else given, external=external)
        assert_same_bits(run.positions, fresh.positions)
        assert_same_bits(run.velocities, fresh.velocities)
        assert_same_bits(run.accel, accel)
        assert_kick_intact(run)

    dt = 0.01
    with np.errstate(over="ignore"):
        fresh, accel = ens, field_from_particles(ens)
        field_from_particles(run)
        step(dt)
        step(dt)
        assert run.kick_dt == (None if between == "fast-particle" else dt)
        if between == "record":
            ref = dynamics._reference_shell_masses(state)
            dynamics._diagnostics(run, run.sort(), 0.02, 0.1, ref)
            assert run.kick_dt is None
        elif between == "dt":
            dt = 0.015
        elif between == "negative-dt":
            dt = -dt
        elif between == "external":
            step(dt, external=central_mass_accel(1.0))
        elif between == "external-recomputed":
            step(dt, external=central_mass_accel(1.0), given=None)
        elif between == "recomputed":
            step(dt, given=None)
        elif between == "other-accel":
            step(dt, given=np.asfortranarray(0.5 * run.accel))
        elif between == "field":
            field_from_particles(run)
            assert run.kick_dt is None
        step(dt)
        step(dt)


@pytest.mark.parametrize("state_name", ["state_p2_rel", "state_p2_cl"],
                         ids=["state_p2_rel", "state_p2_cl"])
def test_evolve_carries_the_kick_between_records(request, monkeypatch, state_name):
    # of the 7 steps, the first and those after the records at steps 3 and 6
    # kick afresh; the other 4 kick with the kick carried in the scratch
    kicks = []
    exact = np.multiply

    def counted(a, b, *args, **kwargs):
        if isinstance(b, float) and kwargs.get("out") is not None:
            kicks.append(b)
        return exact(a, b, *args, **kwargs)

    ens = sample_state(request.getfixturevalue(state_name), 1500, seed=6)
    monkeypatch.setattr(np, "multiply", counted)
    dynamics.evolve(ens, 7 * 0.01, 0.01, diag_every=3)
    monkeypatch.undo()
    assert kicks.count(0.005) == 7 + 3


# --- the step's check --------------------------------------------------------------

def exact_check_state(run, dt):
    """The step's check as it was before its two reductions."""
    x_new, v_new, params = run.positions, run.velocities, run.ens.params
    u2 = None
    if not params.is_classical:
        u2 = float(np.max(dynamics._row_norm2(v_new, run.scratch[:, 0],
                                              run.scratch[:, 1]), initial=0.0))
    shells = run.shells
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
        c = params.c
        drift = math.sqrt(u2 / (1.0 + u2 / c ** 2))
        if not drift < c:
            raise NumericsError(
                f"drift speed reached c={c} after push (dt={dt}, "
                f"max|v|={math.sqrt(u2):.3e})")


def threshold_component(c, above):
    """The component v at which 3 v^2 first reaches 2^46 c^2, or the double
    just below it."""
    v = math.sqrt(2.0 ** 46 * c * c / 3.0)
    while 3.0 * v * v < 2.0 ** 46 * c * c:
        v = math.nextafter(v, math.inf)
    while not 3.0 * v * v < 2.0 ** 46 * c * c:
        v = math.nextafter(v, 0.0)
    return math.nextafter(v, math.inf) if above else v


def outcome(check, run):
    try:   # a square that overflows raises where the check scans
        with np.errstate(over="raise"):
            check(run, 0.01)
    except (NumericsError, FloatingPointError) as exc:
        return type(exc), str(exc)
    return None


_COMPONENTS = ["below", "above", "-above", "nan", "inf", "-inf", "drift", "1e300"]


@pytest.mark.parametrize("component", _COMPONENTS, ids=_COMPONENTS)
@pytest.mark.parametrize("c", [0.5, 1.0, math.inf], ids=["0.5", "1.0", "inf"])
def test_check_state_agrees_with_the_exact_check(c, component):
    rng = np.random.default_rng(4)
    n = 500
    velocities = rng.normal(size=(n, 3))
    if component in ("below", "above", "-above"):
        value = (threshold_component(c, component != "below") if c < math.inf
                 else 1e155)   # 3 v^2 overflows: the exact scans decide
        velocities[7, 1] = -value if component == "-above" else value
    else:
        velocities[7, 1] = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf,
                            "drift": 1e9 * min(c, 1.0), "1e300": 1e300}[component]
    ens = ParticleEnsemble(positions=rng.normal(size=(n, 3)), velocities=velocities,
                           weights=np.full(n, 1.0 / n), f_values=np.ones(n),
                           params=ModelParams(c=c))
    got_run, want_run = dynamics._Run(ens), dynamics._Run(ens)
    got_run.sort()
    want_run.sort()
    got_run.scratch[...] = 2.0
    got_run.kick_dt = 4.0
    got = outcome(dynamics._check_state, got_run)
    assert got == outcome(exact_check_state, want_run)
    # the two reductions settle a state whose components stay below
    # 2^23 c / sqrt(3), and write nothing; any other goes to the exact check
    fast = component == ("below" if c < math.inf else "drift")
    assert (got_run.kick_dt == 4.0) == fast
    if fast:
        assert np.all(got_run.scratch == 2.0)


# --- bins by counts ------------------------------------------------------------------

# the reference's form: 23 bins from 0, the last one reaching infinity
_EDGES = np.concatenate(([0.0], np.linspace(0.25, 6.0, 22) ** 1.5, [math.inf]))
_BIN_SPECIALS = [0.0, math.inf, math.nan, 5e-324, *_EDGES[1:-1], 0.5 * _EDGES[1]]


@settings(max_examples=200)
@given(r=arrays(np.float64, strategies.integers(1, 300), elements=strategies.one_of(
           strategies.sampled_from(_BIN_SPECIALS), strategies.floats(0.0, 10.0))),
       weight=strategies.sampled_from([1.0 / 3.0, 0.1, 1e-5 / 7.0, 0.0]),
       finite=strategies.booleans())
@example(r=np.array([0.0, _EDGES[3], _EDGES[3], math.inf, math.nan]), weight=0.1,
         finite=False)
def test_counted_bins_are_the_bincount_bins(r, weight, finite):
    # radii at 0, on edges, inf and nan; finite edges clip into the end
    # bins. Equal weights need a particle (a run of none has no m_half)
    edges = np.array([0.0, 0.5 * _EDGES[1], _EDGES[5], _EDGES[-2]]) if finite else _EDGES
    weights = np.full(len(r), weight)
    order = np.argsort(r, kind="stable")
    want = dynamics._binned_shell_masses(weights, edges, order, r[order])
    got = dynamics._counted_shell_masses(weights, edges, r[order])
    assert_same_bits(got, want)
