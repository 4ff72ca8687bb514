import copy
import gc
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq
from scipy.special import beta as beta_function

from gravlasov import steady
from gravlasov.errors import (BoundaryConditionError, FixedPointDivergenceError,
                             GravlasovError, NonNegativeLambdaError, NumericsError,
                             PreconditionError, ResolutionError,
                             SupportExceedsGridError, TargetsUnreachableError)
from gravlasov.kernel import ModelParams, kinetic_weight, make_polytrope
from gravlasov.radial import RadialGrid
from gravlasov.rigidity import f_roots, level_asymptotic
from gravlasov.steady import (SolveTargets, density_from_potential,
                              fixed_point_solve, integrate_state,
                              multiplier_identities, solve_targets,
                              state_from_dir, state_to_dir, support_check,
                              virial_residual)

CL = ModelParams()
REL = ModelParams(c=1.0)


def test_density_negative_multipliers_required(spec_p2):
    with pytest.raises(PreconditionError):
        density_from_potential(spec_p2, CL, 0.5, -1.0, -1.0)
    with pytest.raises(PreconditionError):
        density_from_potential(spec_p2, CL, -0.5, 1.0, -1.0)


def test_density_empty_support(spec_p2):
    assert density_from_potential(spec_p2, CL, -1.0, -1.0, -0.5) == 0.0
    assert density_from_potential(spec_p2, REL, -1.0, -2.0, -1.0) == 0.0


def test_density_classical_closed_form(spec_p2):
    # polytrope p=2, classical: rho = (8 sqrt(2) pi / 15) (lam-phi)^{5/2} / |mu|
    lam, mu, phi = -1.0, -0.7, -3.0
    expected = 8.0 * math.sqrt(2.0) * math.pi / 15.0 * (lam - phi) ** 2.5 / abs(mu)
    assert density_from_potential(spec_p2, CL, lam, mu, phi) == pytest.approx(
        expected, rel=1e-10)
    # any p: rho = 4 pi sqrt(2) k B(3/2, m+1) |mu|^(3/2) A^(m+3/2) at depth
    # A = (lam - phi)/|mu|, with G(s) = k s^m, k = p^(-m); a shallow depth,
    # where rho is near 1e-9, is as accurate
    for p, depth in ((2.0, 2.0), (1.6, 1e-3)):
        m = 1.0 / (p - 1.0)
        closed = (4.0 * math.pi * math.sqrt(2.0) * p ** -m * beta_function(1.5, m + 1.0)
                  * abs(mu) ** 1.5 * (depth / abs(mu)) ** (m + 1.5))
        assert density_from_potential(make_polytrope(p), CL, lam, mu, lam - depth) \
            == pytest.approx(closed, rel=1e-12, abs=0)


def test_density_relativistic_monte_carlo_oracle(spec_p2):
    # direct 3-D velocity-space average over the support ball
    lam, mu, phi = -1.0, -0.8, -3.5
    params = ModelParams(c=1.3)
    val = density_from_potential(spec_p2, params, lam, mu, phi)
    rng = np.random.default_rng(123)
    n = 400_000
    e_max = lam - phi
    u_max = float(np.sqrt(2 * e_max + (e_max / params.c) ** 2))
    pts = rng.uniform(-u_max, u_max, size=(n, 3))
    speed = np.linalg.norm(pts, axis=1)
    arg = (kinetic_weight(params, speed) + phi - lam) / mu
    samples = spec_p2.g_inv(np.maximum(arg, 0.0))
    vol = (2 * u_max) ** 3
    est = vol * float(np.mean(samples))
    sem = vol * float(np.std(samples)) / math.sqrt(n)
    assert abs(est - val) < 3.0 * sem


def test_ode_rhs_monotone(spec_p2):
    psi = -np.linspace(0.1, 2.0, 15)
    # h(psi) is the density at phi = psi + lambda
    vals = [density_from_potential(spec_p2, REL, -1.0, -1.0, -1.0 + p) for p in psi]
    assert np.all(np.diff(vals) > 0)  # deeper well, larger density


def test_integrate_state_basic(state_p2_cl):
    st = state_p2_cl
    assert st.lam < 0 and st.mu < 0
    assert 0 < st.r_support < st.phi.grid.r_max / 4
    assert st.hc < 0
    assert st.a == pytest.approx(1.0)  # psi0/mu = (-1)/(-1)
    # density vanishes beyond the support
    beyond = st.rho.grid.nodes > st.r_support
    assert np.all(st.rho.values[beyond] == 0.0)
    assert np.all(st.tabulate(257).values[beyond, :] == 0.0)
    # phi strictly increasing inside the support
    inside = st.phi.grid.nodes < st.r_support
    assert np.all(np.diff(st.phi.values[inside]) > 0)


def test_integrate_state_pointwise_form(state_p2_rel):
    st = state_p2_rel
    f = st.tabulate(257)
    r = f.grid_r.nodes
    u = f.grid_u.nodes
    gam = kinetic_weight(st.params, u)
    arg = (gam[None, :] + (st.phi.values[:, None] - st.lam)) / st.mu
    expected = st.spec.g_inv(np.maximum(arg, 0.0))
    rows = r <= st.r_support
    assert_allclose(f.values[rows, :], expected[rows, :], rtol=1e-6, atol=1e-9)


def test_integrate_state_trivial_flag(spec_p2, grid_20):
    st = integrate_state(spec_p2, CL, 0.0, -1.0, grid_20)
    assert st.trivial
    assert st.m1 == 0.0


def test_integrate_state_support_errors(spec_p2):
    small = RadialGrid(r_max=6.0, n=257)
    with pytest.raises(SupportExceedsGridError):
        integrate_state(spec_p2, CL, -1.0, -1.0, small)  # R = 3.48 > 6/4


def test_integrate_state_refinement_order(spec_p2):
    vals = {}
    for n in (257, 513, 4097):
        st = integrate_state(spec_p2, CL, -1.0, -1.0,
                             RadialGrid(r_max=20.0, n=n), fast=True)
        vals[n] = np.array([st.lam, st.m1, st.mj])
    err_c = np.abs(vals[257] - vals[4097])
    err_f = np.abs(vals[513] - vals[4097])
    order = np.log2(err_c / np.maximum(err_f, 1e-300))
    assert np.all(order >= 1.8)


def test_monotone_mass_in_depth(spec_p2, grid_20):
    # deeper central wells carry more mass (supports shrink, so all fit)
    m1s = [integrate_state(spec_p2, CL, psi0, -1.0, grid_20, fast=True).m1
           for psi0 in (-1.0, -1.3, -1.6, -2.0)]
    assert np.all(np.diff(m1s) > 0)


GRID_LAW = RadialGrid(r_max=40.0, n=4097)


@lru_cache(maxsize=None)
def _mu_invariants(p, c, mu):
    """Quantities the exact mu scaling leaves fixed, for a shot at psi0 = -1.

    With K = |mu|^(-1/(p-1)): m1 ~ K^(-1/2), mj ~ |mu|^(-p/(p-1)) K^(-3/2),
    R ~ K^(-1/2), and lambda does not change.
    """
    shot = integrate_state(make_polytrope(p), ModelParams(c=c), -1.0, mu,
                           GRID_LAW, fast=True)
    k = abs(mu) ** (-1.0 / (p - 1.0))
    return np.array([shot.lam, shot.m1 * k ** 0.5,
                     shot.mj * abs(mu) ** (p / (p - 1.0)) * k ** 1.5,
                     shot.r_support * k ** 0.5])


@settings(max_examples=12, deadline=None)
@given(p=strategies.sampled_from([2.0, 3.0]),
       c=strategies.sampled_from([1.0, math.inf]),
       mu=strategies.floats(min_value=-2.0, max_value=-0.5))
def test_mu_scaling_law(p, c, mu):
    assert_allclose(_mu_invariants(p, c, mu), _mu_invariants(p, c, -1.0),
                    rtol=1e-6)


def test_virial_and_multipliers(state_p2_cl, state_p2_rel):
    for st in (state_p2_cl, state_p2_rel):
        assert abs(virial_residual(st)) < 5e-6
        rep = multiplier_identities(st)
        assert rep.max_residual < 5e-6
        assert rep.mu_negative and rep.lambda_negative
        assert rep.convexity_gap_positive


def test_hamiltonian_form_value(state_p2_rel):
    # hc agrees with the kinetic-form expression and is strictly negative
    st = state_p2_rel
    assert st.hc < 0
    assert st.hc == pytest.approx(-st.ineg, rel=1e-5)


def test_support_check(state_p2_rel):
    st = state_p2_rel
    rep = support_check(st)
    assert rep.ok
    from gravlasov.kernel import kinetic_weight_inverse
    assert rep.u_bound == pytest.approx(
        kinetic_weight_inverse(st.params, st.lam - st.phi.values[0]), rel=1e-12)
    # profile vanishes just outside the support radius
    assert st.profile(st.r_support * 1.01, 0.0) == 0.0


def test_support_check_reports_a_profile_that_outruns_the_speed_grid(state_p2_rel):
    # Q at half the speed is positive at u_max near the centre: the table
    # refuses to build, the check reports the mass off the box
    st = replace(state_p2_rel, profile=lambda r, u: state_p2_rel.profile(r, 0.5 * u))
    rep = support_check(st)
    assert not rep.ok and rep.phi_below_lambda
    u = st.speed_grid(257).nodes
    u_first = u[u > st.u_bound][0]
    assert rep.max_off_support == float(state_p2_rel.profile(0.0, 0.5 * u_first)) > 0.0
    with pytest.raises(BoundaryConditionError, match="does not vanish"):
        st.tabulate(257)


def test_fixed_point_agrees_with_shooting(spec_p2, state_p2_cl, grid_20):
    st = state_p2_cl
    fp = fixed_point_solve(spec_p2, CL, st.lam, st.mu, grid_20,
                           tol=1e-9 * abs(st.phi.values[0]))
    dev = np.max(np.abs(fp.phi.values - st.phi.values)) / abs(st.phi.values[0])
    assert dev < 1e-4
    assert fp.m1 == pytest.approx(st.m1, rel=1e-4)
    assert fp.hc == pytest.approx(st.hc, rel=1e-4)


def test_fixed_point_small_mass_state(spec_p2, grid_20):
    st = integrate_state(spec_p2, CL, -0.25, -0.125, grid_20)
    fp = fixed_point_solve(spec_p2, CL, st.lam, st.mu, grid_20,
                           tol=1e-9 * abs(st.phi.values[0]))
    assert np.max(np.abs(fp.phi.values - st.phi.values)) < 1e-4 * abs(st.phi.values[0])


@pytest.mark.parametrize("c", [1.0, math.inf])
def test_fixed_point_agrees_with_shooting_custom_weight(spec_cubic, grid_20, c):
    # j = t^3 + t^2 is not a pure power: both solvers read a per-model table
    params = ModelParams(c=c)
    st = integrate_state(spec_cubic, params, -1.0, -1.0, grid_20)
    fp = fixed_point_solve(spec_cubic, params, st.lam, st.mu, grid_20,
                           tol=1e-9 * abs(st.phi.values[0]))
    assert np.max(np.abs(fp.phi.values - st.phi.values)) < 1e-5 * abs(st.phi.values[0])


@pytest.mark.parametrize("name, value, error, message", [
    ("_FIXED_POINT_MAX_ITER", 1, FixedPointDivergenceError,
     r"all seeds failed.*no convergence after 1 iterations from seed 5: "
     r"sup-norm Picard residual \d\.\d{3}e[+-]\d+\)$"),
    ("poisson_operator", lambda grid, rho: np.full_like(rho, np.nan), NumericsError,
     "non-finite"),
])
def test_fixed_point_failures_are_named(spec_p2, state_p2_cl, grid_20, monkeypatch,
                                        name, value, error, message):
    monkeypatch.setattr(steady, name, value)
    with pytest.raises(error, match=message):
        fixed_point_solve(spec_p2, CL, state_p2_cl.lam, state_p2_cl.mu, grid_20)


def test_fixed_point_collapse_is_named(spec_p2, state_p2_cl):
    # the state's support (r = 3.48) passes r_max/2 of this grid, so no seed
    # reaches the nontrivial well and the last one falls to the zero state
    with pytest.raises(FixedPointDivergenceError,
                       match="collapsed to the trivial zero state"):
        fixed_point_solve(spec_p2, CL, state_p2_cl.lam, state_p2_cl.mu,
                          RadialGrid(r_max=5.0, n=257))


def _live_splines_and_shots():
    objects = gc.get_objects()
    return [sum(isinstance(obj, cls) for obj in objects)
            for cls in (CubicSpline, steady._FastMasses)]


@pytest.mark.parametrize("call", [
    lambda st: fixed_point_solve(st.spec, st.params, st.lam, st.mu, st.phi.grid),
    lambda st: level_asymptotic(st, tau_fracs=np.geomspace(1e-2, 1e-1, 5)),
    lambda st: solve_targets(st.spec, st.params, SolveTargets(st.m1, st.mj, 1e-8),
                             st.phi.grid),
], ids=["fixed_point_solve", "level_asymptotic", "solve_targets"])
def test_spline_roots_leave_nothing_to_the_collector(state_p2_rel, call):
    # brentq wraps the function it is given in a reference cycle, which would
    # keep a spline handed to it alive until the next collection; in the target
    # solve, brentq's cycle holds the scan shots and newton_krylov's the polish shot
    call(state_p2_rel)
    gc.collect()
    gc.disable()
    try:
        before = _live_splines_and_shots()
        call(state_p2_rel)
        after = _live_splines_and_shots()
    finally:
        gc.enable()
    assert after == before


def test_fixed_point_rejects_bad_multipliers(spec_p2, grid_20):
    with pytest.raises(PreconditionError):
        fixed_point_solve(spec_p2, CL, 0.1, -1.0, grid_20)


def _count_shots(monkeypatch, fail_at=None):
    """Record (psi0, mu, grid n, fast) of every shot; the polish shot number
    fail_at (counted from 1 on grids of more than 513 nodes) raises."""
    shots = []
    shoot = steady.integrate_state

    def counted(*args, **kwargs):
        shots.append((*args[2:4], args[4].n, kwargs.get("fast", False)))
        if fail_at == sum(n > 513 for _, _, n, _ in shots):
            raise SupportExceedsGridError("support too wide")
        return shoot(*args, **kwargs)

    monkeypatch.setattr("gravlasov.steady.integrate_state", counted)
    return shots


def test_solve_targets_postconditions(spec_p2, grid_20, monkeypatch):
    shots = _count_shots(monkeypatch)
    targets = SolveTargets(m1_target=12.5, mj_target=1.9, tol=1e-8)
    st = solve_targets(spec_p2, REL, targets, grid_20)
    assert abs(st.m1 - 12.5) / 12.5 < 1e-7
    assert abs(st.mj - 1.9) / 1.9 < 1e-7
    assert st.hc < 0
    assert st.lam < 0 and st.mu < 0
    # energy identity consistency
    assert st.hc == pytest.approx(-st.ineg, rel=1e-5)
    # the shallow c=1 branch, as found by the former 11 x 11 scan plus Newton
    assert st.psi0 == pytest.approx(-0.8140462439272623, rel=1e-6)
    assert st.mu == pytest.approx(-0.8291610681544004, rel=1e-6)
    # the scaling start replaces the scan's 121 shots
    assert len(shots) <= 45
    # the polish shoots its start once, and its last shot becomes the state:
    # no shot on the requested grid is a full one
    polish = [fast for _, _, n, fast in shots if n == grid_20.n]
    assert all(polish) and len(polish) <= 4


def test_solve_targets_start_inside_the_tolerance(spec_p2, grid_20, monkeypatch):
    # no Newton-Krylov call, whose first stop test would warn on inf/inf
    shots = _count_shots(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        st = solve_targets(spec_p2, REL, SolveTargets(12.5, 1.9, tol=1e-2), grid_20)
    assert [fast for _, _, n, fast in shots if n == grid_20.n] == [True]
    assert abs(st.m1 / 12.5 - 1.0) < 1e-2 and abs(st.mj / 1.9 - 1.0) < 1e-2


def test_solve_targets_names_a_failing_polish_shot(spec_p2, grid_20, monkeypatch):
    shots = _count_shots(monkeypatch, fail_at=2)
    with pytest.raises(TargetsUnreachableError) as err:
        solve_targets(spec_p2, REL, SolveTargets(12.5, 1.9, 1e-8), grid_20)
    psi0, mu, n, fast = shots[-1]
    assert (n, fast) == (grid_20.n, True)
    assert str(err.value) == (f"shot at psi0 = {psi0:.6g}, mu = {mu:.6g} failed: "
                              "SupportExceedsGridError: support too wide")


def test_solve_targets_names_its_last_iterate(spec_p2, grid_20, monkeypatch):
    monkeypatch.setattr(steady, "_NEWTON_MAX_ITER", 0)
    with pytest.raises(TargetsUnreachableError,
                       match=r"within 0 iterations: at psi0 = -0\.814\d*, mu = -0\.829\d* "
                             r"the sup-norm relative mass error is \d\.\d{3}e[+-]\d+$"):
        solve_targets(spec_p2, REL, SolveTargets(12.5, 1.9, 1e-8), grid_20)


def test_solve_targets_accepts_a_last_iterate_within_tol(spec_p2, grid_20, monkeypatch):
    # newton_krylov shoots the iterate of its last allowed step but does not
    # test it; one that meets tol is the solution, at no extra shot
    targets = SolveTargets(12.5, 1.9, 1e-8)
    shots = _count_shots(monkeypatch)
    solve_targets(spec_p2, REL, targets, grid_20)
    unbounded = list(shots)
    shots.clear()
    monkeypatch.setattr(steady, "_NEWTON_MAX_ITER", 1)
    st = solve_targets(spec_p2, REL, targets, grid_20)
    assert shots == unbounded
    assert abs(st.m1 / 12.5 - 1.0) <= 1e-8 and abs(st.mj / 1.9 - 1.0) <= 1e-8


@pytest.mark.parametrize("c", [1.0, math.inf])
def test_solve_targets_custom_weight(spec_cubic, c):
    # j = t^3 + t^2 is not a pure power: the mu law only starts the solve
    params = ModelParams(c=c)
    grid = RadialGrid(r_max=20.0, n=513)
    shot = integrate_state(spec_cubic, params, -0.8, -0.8, grid, fast=True)
    st = solve_targets(spec_cubic, params, SolveTargets(shot.m1, shot.mj, 1e-7), grid)
    assert abs(st.m1 / shot.m1 - 1.0) < 1e-7
    assert abs(st.mj / shot.mj - 1.0) < 1e-7
    assert st.psi0 == pytest.approx(-0.8, rel=1e-5)
    assert st.mu == pytest.approx(-0.8, rel=1e-5)


def test_solve_targets_unreachable(spec_p2):
    tiny = RadialGrid(r_max=20.0, n=257)
    with pytest.raises(TargetsUnreachableError):
        # masses needing a support far beyond r_max/4
        solve_targets(spec_p2, CL, SolveTargets(1.0, 0.2, 1e-6), tiny)


def test_solve_targets_unreachable_reports_largest_monomial(spec_p2, grid_20):
    # S = (m1 mj)^(1/3) for p = 2; the c=1 family peaks near S = 4.9
    def reported(m1, mj, grid):
        with pytest.raises(TargetsUnreachableError) as err:
            solve_targets(spec_p2, REL, SolveTargets(m1, mj, 1e-6), grid)
        found = re.search(r"S = ([0-9.e+-]+) is not reached.*lies (above|below) "
                          r"every S on the scan, which runs from ([0-9.e+-]+) "
                          r"\(smallest\) to ([0-9.e+-]+) \(largest\)",
                          str(err.value))
        assert found is not None
        s_target, side, s_min, s_max = found.groups()
        return float(s_target), side, float(s_min), float(s_max)

    s_target, side, s_min, s_max = reported(100.0, 100.0, grid_20)
    assert s_target == pytest.approx(10000.0 ** (1.0 / 3.0), rel=1e-5)
    assert side == "above"
    assert s_min < 2.87 < s_max < s_target  # around the reachable (12.5, 1.9) target

    s_target, side, s_min, s_max = reported(1e-9, 1e-9, RadialGrid(r_max=20.0, n=257))
    assert s_target == pytest.approx(1e-6, rel=1e-5)
    assert side == "below"
    assert s_target < s_min < 2.87 < s_max


def test_solve_targets_propagates_defects(spec_p2, grid_20, monkeypatch):
    # only library failures count as unreachable shots; a defect surfaces
    def broken(*args, **kwargs):
        raise TypeError("defect")

    monkeypatch.setattr("gravlasov.steady.integrate_state", broken)
    with pytest.raises(TypeError):
        solve_targets(spec_p2, REL, SolveTargets(12.5, 1.9, 1e-6), grid_20)


def test_state_serialization_roundtrip(tmp_path, state_p2_rel, state_p2_cl):
    st = state_p2_rel
    outdir = tmp_path / "state"
    state_to_dir(st, outdir)
    doc = json.loads((outdir / "state.json").read_text())
    assert doc["lambda"] == st.lam
    assert doc["c"] == 1.0
    back = state_from_dir(outdir)
    assert back.lam == pytest.approx(st.lam, rel=1e-12)
    assert back.m1 == pytest.approx(st.m1, rel=1e-8)
    assert back.hc == pytest.approx(st.hc, rel=1e-6)
    rep = multiplier_identities(back)
    assert rep.max_residual < 1e-4
    # the bytes: indent 2, sorted keys, a final newline, c = inf as a string
    state_to_dir(state_p2_cl, tmp_path / "cl")
    for state_dir, c_line in ((outdir, b'\n  "c": 1.0,\n'),
                              (tmp_path / "cl", b'\n  "c": "inf",\n')):
        raw = (state_dir / "state.json").read_bytes()
        assert c_line in raw
        assert raw == (json.dumps(json.loads(raw), indent=2, sort_keys=True)
                       + "\n").encode()
    assert math.isinf(state_from_dir(tmp_path / "cl").params.c)


def _counted_quadratures(monkeypatch):
    """Record every _moment_profile call (its kinds: a table build) and every shot."""
    calls = []
    profile, shoot = steady._moment_profile, steady._shoot

    def counted_profile(spec, params, mu, a_values, kinds):
        calls.append(tuple(kinds))
        return profile(spec, params, mu, a_values, kinds)

    def counted_shoot(*args):
        calls.append("shoot")
        return shoot(*args)

    monkeypatch.setattr(steady, "_moment_profile", counted_profile)
    monkeypatch.setattr(steady, "_shoot", counted_shoot)
    steady._similarity_table.cache_clear()
    return calls


def test_full_shot_builds_at_most_one_table(spec_p2, spec_cubic, grid_20, monkeypatch):
    # a full shot reads every total from the table its shot read, which holds
    # every kind: any other weight builds one per shot, a pure power reads the
    # shared one of p
    calls = _counted_quadratures(monkeypatch)
    build = tuple(steady._TOTALS)
    for spec, c, fast_calls, full_calls in (
            (spec_cubic, 1.0, [build, "shoot"], [build, "shoot"]),
            # the first table of p builds the shared spline, the next reads it;
            # a classical one runs no quadrature at all
            (spec_p2, 1.0, [build, "shoot"], ["shoot"]),
            (spec_p2, math.inf, ["shoot"], ["shoot"])):
        for fast, expected in ((True, fast_calls), (False, full_calls)):
            calls.clear()
            integrate_state(spec, ModelParams(c=c), -1.0, -1.0, grid_20, fast=fast)
            assert calls == expected


@pytest.mark.parametrize("c, builds", [(1.0, 1), (math.inf, 0)])
def test_solve_targets_builds_at_most_two_tables(spec_p2, grid_20, monkeypatch, tmp_path,
                                                 c, builds):
    calls = _counted_quadratures(monkeypatch)
    params = ModelParams(c=c)
    targets = (12.5, 1.9) if c == 1.0 else (16.0, 2.6)
    st = solve_targets(spec_p2, params, SolveTargets(*targets, 1e-8), grid_20)
    assert [kinds for kinds in calls if kinds != "shoot"] == [tuple(steady._TOTALS)] * builds
    f_roots(REL, 1.0, spec_p2, -0.5)
    # once the buckets they read exist, nothing integrates a moment again
    calls.clear()
    solve_targets(spec_p2, params, SolveTargets(*targets, 1e-8), grid_20)
    state_to_dir(st, tmp_path)
    state_from_dir(tmp_path)
    fixed_point_solve(spec_p2, params, st.lam, st.mu, grid_20)
    f_roots(REL, 1.0, spec_p2, -0.5)
    assert [kinds for kinds in calls if kinds != "shoot"] == []


@pytest.mark.parametrize("c", [1.0, math.inf])
def test_solved_masses_are_the_fast_masses_to_the_bit(spec_p2, monkeypatch, c):
    # a full state sums the same table lookups as the fast masses that
    # solve_targets converged on; the criterion-1 solves
    params, grid = ModelParams(c=c), RadialGrid(r_max=20.0, n=4096)
    targets = (12.5, 1.9) if c == 1.0 else (16.0, 2.6)
    shots = _count_shots(monkeypatch)
    st = solve_targets(spec_p2, params, SolveTargets(*targets, 1e-8), grid)
    # the state is the last polish shot, finalised: no shot is a full one
    assert len(shots) == (14 if c == 1.0 else 12) and all(fast for *_, fast in shots)
    fast = integrate_state(spec_p2, params, st.psi0, st.mu, grid, fast=True)
    assert [st.m1.hex(), st.mj.hex()] == [fast.m1.hex(), fast.mj.hex()]


@pytest.mark.parametrize("c", [1.0, math.inf])
def test_solved_state_is_the_full_shot_to_the_bit(spec_p2, grid_20, c):
    params = ModelParams(c=c)
    targets = (12.5, 1.9) if c == 1.0 else (16.0, 2.6)
    st = solve_targets(spec_p2, params, SolveTargets(*targets, 1e-8), grid_20)
    full = integrate_state(spec_p2, params, st.psi0, st.mu, grid_20)
    for name, value in vars(st).items():
        if isinstance(value, float):
            assert value.hex() == getattr(full, name).hex(), name
    for name in ("phi", "rho"):
        assert getattr(st, name).values.tobytes() == getattr(full, name).values.tobytes()
    assert st.tabulate(257).values.tobytes() == full.tabulate(257).values.tobytes()


@pytest.mark.parametrize("c", [1.0, math.inf])
def test_stacked_rows_equal_rows_integrated_alone(spec_p2, c):
    params, kinds = ModelParams(c=c), tuple(steady._TOTALS)
    zeta = np.linspace(0.0, math.sqrt(0.814 / 0.829), 513)
    stacked = steady._moment_profile(spec_p2, params, -0.829, zeta * zeta, kinds)
    assert stacked.shape == (len(kinds), len(zeta))
    for kind, row in zip(kinds, stacked):
        alone = steady._moment_profile(spec_p2, params, -0.829, zeta * zeta, (kind,))
        assert row.tobytes() == alone[0].tobytes(), kind


def test_stacked_rows_share_the_density_subdivision():
    # at depth 1e-6 the Casimir moments are about 2e-14, below epsabs: each
    # kind integrated alone stops early, stacked they ride on rho's accuracy
    spec, params, mu_abs = make_polytrope(3.0), ModelParams(c=0.5), 1e3
    zeta = np.linspace(0.0, math.sqrt(1e-3 / mu_abs), 65)[1:]
    a_depth, kinds = zeta * zeta, tuple(steady._TOTALS)
    stacked = steady._moment_profile(spec, params, -mu_abs, a_depth, kinds)
    for kind, row in zip(kinds, stacked):
        # scalar quad per depth; 1.2e-14 is its smallest epsrel with epsabs=0
        ref = [quad(lambda theta: float(steady._moment_integrand(
            spec, params, mu_abs, a, theta, (kind,))[0]),
            0.0, 0.5 * math.pi, epsabs=0.0, epsrel=1.2e-14)[0] for a in a_depth]
        assert_allclose(row, 4.0 * np.pi * np.array(ref), rtol=1e-10, atol=0,
                        err_msg=kind)


@settings(max_examples=200)
# q = 0 or q >= 1e-200, so x = |mu| q / c^2 is 0 or a normal double: a
# subnormal x keeps only a few significant bits, and no relative bound holds
@given(q=strategies.one_of(strategies.just(0.0), strategies.floats(1e-200, 1e6)),
       mu_abs=strategies.floats(1e-3, 1e3),
       c=strategies.one_of(strategies.floats(0.1, 1e4), strategies.just(math.inf)),
       g_s=strategies.floats(1e-3, 1e3))
def test_kinetic_and_binding_moments_sum_to_the_virial_kernel(q, mu_abs, c, g_s):
    # u^2/gamma = c^2 (gamma - 1) + c^2 (1 - 1/gamma), with gamma = 1 + x
    params = ModelParams(c=c)
    kin, ineg = (steady._kind_factor(None, params, mu_abs, q, 0.0, g_s, kind)
                 for kind in ("kin", "ineg"))
    if params.is_classical:
        assert kin + ineg == 2.0 * mu_abs * q * g_s
    else:
        x = mu_abs * q / c ** 2
        assert_allclose(kin + ineg, c ** 2 * x * (2.0 + x) / (1.0 + x) * g_s,
                        rtol=1e-14, atol=0)


def test_virial_moment_is_kinetic_plus_binding(state_p2_cl, state_p2_rel):
    for st in (state_p2_cl, state_p2_rel):
        assert st.vir_kin == st.ekin + st.ineg
    with pytest.raises(PreconditionError, match="unknown moment kind"):
        steady._kind_factor(state_p2_rel.spec, REL, 1.0, 1.0, 0.0, 1.0, "vir")


# --- the float shooting stage against the array stage it replaced -------------

def _scipy_lookup(table, a, kind):
    """scale A^e g(sqrt(v A)) at A clipped to [0, a_max], g as scipy
    evaluates it and A^e by Python's pow."""
    scale, expo = table._power[kind]
    a = np.clip(a, 0.0, table.a_max)
    power = np.array([x ** expo for x in a.tolist()])
    return table._splines[kind](np.sqrt(table._var * a)) * (scale * power)


def _reference_lookup(table, a_depth, kind="rho"):
    """The masked moment lookup: 0 for A <= 0, the clamped view above."""
    a = np.atleast_1d(np.asarray(a_depth, dtype=float))
    if np.any(a > table.a_max * (1.0 + 1e-8)):
        raise ValueError("depth outside tabulated range")
    out = np.zeros_like(a)
    mask = a > 0
    out[mask] = np.maximum(_scipy_lookup(table, a[mask], kind), 0.0)
    return out


def _reference_shoot(psi0, mu, grid, table):
    """RK4 on the array y = (z, v) through the masked lookup."""
    r, h, mu_abs = grid.nodes, grid.h, abs(mu)

    def deriv(rr, y):
        p = y[0] / rr if rr > 0.0 else psi0
        rhs = 0.0 if p >= 0.0 else float(_reference_lookup(table, -p / mu_abs)[0])
        return np.array([y[1], rr * rhs])

    def rk4(rr, y, step):
        k1 = deriv(rr, y)
        k2 = deriv(rr + 0.5 * step, y + 0.5 * step * k1)
        k3 = deriv(rr + 0.5 * step, y + 0.5 * step * k2)
        k4 = deriv(rr + step, y + step * k3)
        return y + (step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    ys = [np.array([0.0, psi0])]
    y = rk4(r[0], ys[0], h)
    while y[0] < 0.0:
        ys.append(y)
        y = rk4(r[len(ys) - 1], y, h)
    i = len(ys) - 1
    tau = brentq(lambda step: rk4(r[i], ys[i], step)[0], 0.0, h,
                 xtol=1e-12 * grid.r_max)
    r_supp = r[i] + tau
    y_end = rk4(r[i], ys[i], tau)
    w_r = float(r_supp * y_end[1] - y_end[0])
    lam = -w_r / r_supp
    z, v = np.array(ys).T
    psi = np.empty_like(r)
    w = np.empty_like(r)
    psi[0], w[0] = psi0, 0.0
    psi[1 : i + 1] = z[1:] / r[1 : i + 1]
    w[1 : i + 1] = r[1 : i + 1] * v[1:] - z[1:]
    outer = r >= r_supp
    psi[outer] = -lam - w_r / r[outer]
    w[outer] = w_r
    return psi, w, float(r_supp), w_r, lam


def _shot_table(spec, params, psi0, mu):
    return steady._MomentTable(spec, params, mu, -psi0 / abs(mu))


@pytest.mark.parametrize("c", [1.0, math.inf])
@pytest.mark.parametrize("n", [513, 4096])
@pytest.mark.parametrize("psi0, mu", [(-0.814, -0.829), (-0.3, -2.0)])
def test_shoot_matches_array_stage_bit_for_bit(spec_p2, c, n, psi0, mu):
    params, grid = ModelParams(c=c), RadialGrid(r_max=20.0, n=n)
    table = _shot_table(spec_p2, params, psi0, mu)
    psi, w, r_supp, w_r, lam = steady._shoot(psi0, mu, grid, table)
    ref_psi, ref_w, ref_r, ref_w_r, ref_lam = _reference_shoot(psi0, mu, grid, table)
    assert psi.tobytes() == ref_psi.tobytes()
    assert w.tobytes() == ref_w.tobytes()
    assert [float(x).hex() for x in (r_supp, w_r, lam)] == \
        [float(x).hex() for x in (ref_r, ref_w_r, ref_lam)]


def test_shoot_errors(spec_p2):
    table = _shot_table(spec_p2, CL, -1.0, -1.0)  # R = 3.48
    with pytest.raises(SupportExceedsGridError, match="never crossed zero"):
        steady._shoot(-1.0, -1.0, RadialGrid(r_max=3.0, n=257), table)
    with pytest.raises(ResolutionError, match="first two radial cells"):
        steady._shoot(-1.0, -1.0, RadialGrid(r_max=20.0, n=9), table)


def _stepwise_shoot(psi0, mu, grid, table):
    """_shoot as a call of rk4() per node, each stage a table(x) float lookup:
    the reference of the inline stages."""
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

    r_i, z_i, v_i = nodes[i], zs[i], vs[i]
    tau = brentq(lambda step: rk4(r_i, z_i, v_i, step)[0], 0.0, h,
                 xtol=1e-12 * grid.r_max)
    r_supp = r_i + tau
    z_end, v_end = rk4(r_i, z_i, v_i, tau)
    w_r = r_supp * v_end - z_end

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


def _shot_outcome(shoot, psi0, mu, grid, table):
    """A shot's profiles as bytes and scalars by float.hex, or its error."""
    try:
        psi, w, r_supp, w_r, lam = shoot(psi0, mu, grid, table)
    except GravlasovError as exc:
        return type(exc), str(exc)
    return psi.tobytes(), w.tobytes(), [float(x).hex() for x in (r_supp, w_r, lam)]


# (-1, -1) and the polish shots on 4096 nodes of the criterion-1 solves, at
# c = 1 to (12.5, 1.9) and at c = inf to (16.0, 2.6); the last of each is the state
SHOT_POINTS = [(-1.0, -1.0)] + [(float.fromhex(x), float.fromhex(y)) for x, y in (
    ("-0x1.a0c9c342b09f5p-1", "-0x1.a886d53dd6dd4p-1"),
    ("-0x1.a0c9c2f321107p-1", "-0x1.a886d4f94e689p-1"),
    ("-0x1.a0c9c385f9443p-1", "-0x1.a886d4eccd23ap-1"),
    ("-0x1.a0caae9d95184p-1", "-0x1.a887cfe3fbf18p-1"),
    ("-0x1.b8c17972de5e1p-1", "-0x1.bb1c08278403fp-1"),
    ("-0x1.b8c1791e3a3a4p-1", "-0x1.bb1c07e09673fp-1"),
    ("-0x1.b8c179b96b7acp-1", "-0x1.bb1c07d26c29ap-1"),
    ("-0x1.b8c1c68c3a03cp-1", "-0x1.bb1c603894306p-1"))]


@pytest.mark.parametrize("weight, c", [("spec_p2", 1.0), ("spec_p2", 0.5),
                                       ("spec_p2", math.inf), ("spec_cubic", 1.0)])
def test_inline_stages_are_the_stepwise_shot_to_the_bit(request, weight, c):
    # spec_cubic is not a pure power: it builds a table per shot
    spec, params = request.getfixturevalue(weight), ModelParams(c=c)
    for psi0, mu in SHOT_POINTS:
        table = _shot_table(spec, params, psi0, mu)
        for n in (257, 513, 4096):
            grid = RadialGrid(r_max=20.0, n=n)
            outcome = _shot_outcome(steady._shoot, psi0, mu, grid, table)
            assert isinstance(outcome[0], bytes), (psi0, mu, n, outcome)
            assert outcome == _shot_outcome(_stepwise_shoot, psi0, mu, grid, table)


def _planted_table(spec, params, psi0, mu, g):
    """A shot's table whose every kind reads the constant g."""
    table = _shot_table(spec, params, psi0, mu)
    table._rows = {kind: [[0.0, 0.0, 0.0, g]] * len(rows)
                   for kind, rows in table._rows.items()}
    return table


def test_inline_stages_fail_as_the_stepwise_shot(spec_p2):
    cases = [
        (NumericsError, "central density vanished", -1.0, RadialGrid(r_max=20.0, n=513),
         _planted_table(spec_p2, REL, -1.0, -1.0, -0.0)),
        (ResolutionError, "first two radial cells", -1.0, RadialGrid(r_max=20.0, n=9),
         _shot_table(spec_p2, CL, -1.0, -1.0)),
        (SupportExceedsGridError, "never crossed zero", -1.0, RadialGrid(r_max=3.0, n=257),
         _shot_table(spec_p2, CL, -1.0, -1.0)),
        (NumericsError, "non-finite values", math.nan, RadialGrid(r_max=20.0, n=513),
         _shot_table(spec_p2, REL, -1.0, -1.0)),
        (NumericsError, "non-finite values", -1.0, RadialGrid(r_max=20.0, n=513),
         _planted_table(spec_p2, REL, -1.0, -1.0, 1e308)),
    ]
    for error, match, psi0, grid, table in cases:
        outcome = _shot_outcome(steady._shoot, psi0, -1.0, grid, table)
        assert outcome[0] is error and match in outcome[1], outcome
        assert outcome == _shot_outcome(_stepwise_shoot, psi0, -1.0, grid, table)


def _breakpoints(table):
    """The depths of the spline's nodes and of their midpoints, up to a_max."""
    zeta = table._splines["rho"].x
    a = np.concatenate([zeta * zeta, (0.5 * (zeta[1:] + zeta[:-1])) ** 2])
    a = a / table._var if table._var > 0 else a[:0]   # a classical g is constant
    return a[a <= table.a_max]


@pytest.mark.parametrize("c", [1.0, math.inf])
def test_moment_table_lookup_matches_masked_lookup(spec_p2, spec_cubic, c):
    params = ModelParams(c=c)
    for spec in (spec_p2, spec_cubic):
        table = _shot_table(spec, params, -0.814, -0.829)
        if spec is spec_cubic:  # not a pure power: a table per shot, on its own nodes
            assert (table._var, table._power) == (
                1.0, dict.fromkeys(steady._TOTALS, (1.0, 0.0)))
            assert table._splines["rho"].x.tobytes() == np.linspace(
                0.0, math.sqrt(table.a_max), 1025).tobytes()
        else:
            assert table._var == 0.829 / c ** 2
            assert table._splines["rho"].x.size == (2 if params.is_classical else 2049)
        a = np.concatenate([[-1.0, -0.0, 0.0, 5e-324, 1e-310], _breakpoints(table),
                            np.linspace(0.0, table.a_max, 257),
                            [table.a_max, table.a_max * (1.0 + 5e-9)]])
        for kind in steady._TOTALS:
            ref = _reference_lookup(table, a, kind)
            assert table(a, kind).tobytes() == ref.tobytes()
            scalars = np.array([table(float(x), kind) for x in a])
            assert scalars.tobytes() == ref.tobytes()
            # the float lookup a shot binds, built once per table and kind
            lookup = table.lookup(kind)
            assert table.lookup(kind) is lookup
            assert np.array([lookup(x) for x in a.tolist()]).tobytes() == ref.tobytes()
            assert math.isnan(lookup(math.nan))
            assert math.isnan(table(np.array([math.nan]), kind)[0])
            with pytest.raises(PreconditionError, match="outside tabulated range"):
                lookup(table.a_max * (1.0 + 2e-8))
        with pytest.raises(PreconditionError, match="outside tabulated range"):
            table(table.a_max * (1.0 + 2e-8))
        with pytest.raises(PreconditionError, match="outside tabulated range"):
            table(np.array([0.0, table.a_max * (1.0 + 2e-8)]))


@lru_cache(maxsize=None)
def _lookup_table(c, planted, pure_power):
    spec = make_polytrope(2.0)
    table = _shot_table(spec if pure_power else replace(spec), ModelParams(c=c),
                        -0.814, -0.829)
    if planted:
        # no built table sums a piece to -0.0 (the first piece holds +0.0 or
        # +1.0), so plant one in a private copy of the spline: np.maximum(-0.0,
        # 0.0) is +0.0, where max(-0.0, 0.0) would keep -0.0
        table._splines = copy.deepcopy(table._splines)
        table._rows = copy.deepcopy(table._rows)
        for kind in steady._TOTALS:
            table._splines[kind].c[:, 0] = -0.0
            table._rows[kind][0] = [-0.0] * 4
    return table


@settings(max_examples=40, deadline=None)
@given(c=strategies.sampled_from([1.0, math.inf]), planted=strategies.booleans(),
       pure_power=strategies.booleans(), kind=strategies.sampled_from(list(steady._TOTALS)),
       fractions=strategies.lists(strategies.floats(-0.5, 1.0 + 1e-8), max_size=64))
def test_power_sum_lookup_is_scipy_to_the_bit(c, planted, pure_power, kind, fractions):
    table = _lookup_table(c, planted, pure_power)
    a_max, breakpoints = table.a_max, _breakpoints(table)
    a = np.concatenate([
        [-1.0, -0.0, 0.0, 5e-324, 1e-310, 2.2250738585072014e-308],
        breakpoints, np.nextafter(breakpoints, -1.0), np.nextafter(breakpoints, 2.0 * a_max),
        [a_max, a_max * (1.0 + 5e-9), np.nextafter(a_max * (1.0 + 1e-8), 0.0)],
        np.asarray(fractions, dtype=float) * a_max])
    ref = np.maximum(_scipy_lookup(table, a, kind), 0.0)
    assert table(a, kind).tobytes() == ref.tobytes()
    assert np.array([table(x, kind) for x in a.tolist()]).tobytes() == ref.tobytes()
    shared = steady._similarity_table(2.0, math.isinf(c), 0)[1]["rho"]
    assert shared.c[:, 0].tobytes() != np.full(4, -0.0).tobytes()  # the plant stayed private


@pytest.mark.parametrize("fixture", ["state_p2_cl", "state_p2_rel"])
def test_state_from_dir_rebuilds_f(tmp_path, request, fixture):
    st = request.getfixturevalue(fixture)
    state_to_dir(st, tmp_path)
    assert sorted(p.name for p in (tmp_path / "profiles").iterdir()) == ["phi.csv", "rho.csv"]
    back, f = state_from_dir(tmp_path).tabulate(257), st.tabulate(257)
    assert back.grid_r == f.grid_r and back.grid_u == f.grid_u
    assert back.grid_r.nodes.tobytes() == f.grid_r.nodes.tobytes()
    assert back.grid_u.nodes.tobytes() == f.grid_u.nodes.tobytes()
    # phi.csv holds phi to the bit, but psi = phi - lambda and w are re-derived
    assert_allclose(back.values, f.values, rtol=0, atol=1e-14 * f.values.max())


# --- the shared similarity table of a pure-power weight ---------------------------

@settings(max_examples=60, deadline=None)
@given(classical=strategies.booleans(),
       p=strategies.sampled_from([1.6, 2.0, 3.0]),
       log_a=strategies.floats(math.log(1e-3), math.log(200.0)),
       log_mu=strategies.floats(math.log(0.05), math.log(3.0)),
       log_beta=strategies.floats(math.log(1e-4), math.log(2e5)))
def test_similarity_view_matches_a_direct_quadrature(classical, p, log_a, log_mu, log_beta):
    # moment_k(A; mu) = C_k |mu|^(x_k) A^(e_k) g_k(|mu| A / c^2) for every kind,
    # g_k = 1 classically; beta runs to 2e5, criterion 6's highest bucket (6).
    # The reference is scalar quad at epsabs=0: _moment_profile's epsabs=1e-14
    # alone bounds a moment near 1e-8 to 1e-6 relative
    a, mu = math.exp(log_a), -math.exp(log_mu)
    c = math.inf if classical else math.sqrt(-mu * a / math.exp(log_beta))
    spec, params = make_polytrope(p), ModelParams(c=c)
    table = steady._MomentTable(spec, params, mu, a)
    for kind in steady._TOTALS:
        direct = 4.0 * math.pi * quad(lambda theta: float(steady._moment_integrand(
            spec, params, -mu, a, theta, (kind,))[0]), 0.0, 0.5 * math.pi, epsabs=0.0,
            epsrel=1e-13, limit=200)[0]
        assert_allclose(table(a, kind), direct, atol=0,
                        rtol=1e-14 if classical else 1e-10, err_msg=kind)


def test_similarity_buckets_end_where_their_build_would_overflow(spec_p2):
    # as p -> 3/2 the last bucket, 253, still builds finite and the next one
    # overflows; a depth past it is a named error before any numpy warning,
    # and nothing is cached for it
    a = np.linspace(0.0, 8.0, 2049)[1:] ** 2
    spec, kinds = make_polytrope(1.5001), tuple(steady._TOTALS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        last = steady._similarity_table(1.5001, False, 253)[1]
        assert all(np.all(np.isfinite(spl.c)) for spl in last.values())
        with pytest.raises(RuntimeWarning, match="overflow"):
            steady._moment_profile(spec, ModelParams(c=0.5 ** 254), -1.0, a, kinds)
        cached = steady._similarity_table.cache_info().currsize
        for weight, mu, c, a_max in ((spec, -1.0, 1.0, steady._BETA_LIMIT),
                                     (spec_p2, -1e60, 1e-50, 1e60),
                                     (spec_p2, -1.0, 1.0, math.inf)):
            with pytest.raises(NumericsError, match="beta = "):
                steady._MomentTable(weight, ModelParams(c=c), mu, a_max)
        assert steady._similarity_table.cache_info().currsize == cached


def _table_error(table, truth, a, kinds):
    return max(float(np.max(np.abs(table(a, kind) - row)) / np.max(row))
               for kind, row in zip(kinds, truth))


def _table_per_shot(spec, params, mu, a_max, kinds, n_tab):
    """The lookup of a table built for one shot: the moment itself on n_tab
    nodes of sqrt(A), A clipped to [0, a_max]."""
    zeta = np.linspace(0.0, math.sqrt(a_max), n_tab)
    splines = dict(zip(kinds, (CubicSpline(zeta, row) for row in
                               steady._moment_profile(spec, params, mu, zeta * zeta, kinds))))
    return lambda a, kind: np.maximum(splines[kind](np.sqrt(np.clip(a, 0.0, a_max))), 0.0)


@pytest.mark.parametrize("c", [1.0, math.inf])
def test_similarity_view_is_no_less_accurate_than_a_table_per_shot(spec_p2, c):
    # the per-shot tables a shot once built: a fast shot's (513 nodes), a full
    # shot's (1025) and the fixed point's (769 nodes over 8 times the depth),
    # each against the shared view
    params = ModelParams(c=c)
    for psi0 in (math.exp(-3.5), 0.3, 1.0, 3.0, 10.0):
        for mu_abs in (0.05, 0.7, 3.0):
            for widen, kinds, n_tab in ((1.0, ("rho", "cas"), 513), (1.0, ("rho",), 1025),
                                        (8.0, ("rho",), 769)):
                a_max = widen * psi0 / mu_abs
                a = np.linspace(0.0, math.sqrt(a_max), 1537) ** 2
                truth = steady._moment_profile(spec_p2, params, -mu_abs, a, kinds)
                view = steady._MomentTable(spec_p2, params, -mu_abs, a_max)
                per_shot = _table_per_shot(spec_p2, params, -mu_abs, a_max, kinds, n_tab)
                assert (_table_error(view, truth, a, kinds)
                        <= _table_error(per_shot, truth, a, kinds)), (psi0, mu_abs, n_tab)


def test_solve_writes_the_same_bytes_after_other_solves(tmp_path):
    # the shared tables are cached per process, keyed so that a solve in a
    # fresh process and one after solves to other targets agree to the byte
    from gravlasov import cli
    argv = ["solve", "--c", "1", "--p", "2", "--n", "1025", "--r-max", "20",
            "--m1", "12.5", "--mj", "1.9", "--out"]
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    subprocess.run([sys.executable, "-m", "gravlasov.cli", *argv, str(tmp_path / "fresh")],
                   check=True, env=os.environ | {"PYTHONPATH": src})
    for c, m1, mj in (("1", "10", "1.2"), ("0.5", "8", "1"), ("1", "14", "2.4")):
        assert cli.main(["solve", "--c", c, "--p", "2", "--n", "513", "--r-max", "20",
                         "--m1", m1, "--mj", mj, "--out", str(tmp_path / f"o{c}{m1}")]) == 0
    assert cli.main(argv + [str(tmp_path / "after")]) == 0
    assert ((tmp_path / "fresh" / "state.json").read_bytes()
            == (tmp_path / "after" / "state.json").read_bytes())
