import json
import math
import re
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies
from numpy.testing import assert_allclose
from scipy.integrate import quad

from gravlasov import steady
from gravlasov.errors import (PreconditionError, ResolutionError,
                             SupportExceedsGridError, TargetsUnreachableError)
from gravlasov.kernel import ModelParams, kinetic_weight, make_polytrope
from gravlasov.radial import RadialGrid
from gravlasov.steady import (SolveTargets, density_from_potential,
                              fixed_point_solve, integrate_state,
                              multiplier_identities, ode_rhs, solve_targets,
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


def test_ode_rhs_matches_density(spec_p2):
    assert ode_rhs(spec_p2, CL, -1.0, 0.0) == 0.0
    assert ode_rhs(spec_p2, CL, -1.0, 0.3) == 0.0
    for lam in (-0.5, -2.0):
        direct = density_from_potential(spec_p2, REL, lam, -0.9, lam - 1.2)
        via_psi = ode_rhs(spec_p2, REL, -0.9, -1.2)
        assert direct == pytest.approx(via_psi, rel=1e-12)


def test_ode_rhs_monotone(spec_p2):
    psi = -np.linspace(0.1, 2.0, 15)
    vals = [ode_rhs(spec_p2, REL, -1.0, p) for p in psi]
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
    assert np.all(st.f.values[beyond, :] == 0.0)
    # phi strictly increasing inside the support
    inside = st.phi.grid.nodes < st.r_support
    assert np.all(np.diff(st.phi.values[inside]) > 0)


def test_integrate_state_pointwise_form(state_p2_rel):
    st = state_p2_rel
    r = st.f.grid_r.nodes
    u = st.f.grid_u.nodes
    gam = kinetic_weight(st.params, u)
    arg = (gam[None, :] + (st.phi.values[:, None] - st.lam)) / st.mu
    expected = st.spec.g_inv(np.maximum(arg, 0.0))
    rows = r <= st.r_support
    assert_allclose(st.f.values[rows, :], expected[rows, :], rtol=1e-6, atol=1e-9)


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
    assert st.f.profile(st.r_support * 1.01, 0.0) == 0.0


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


def test_fixed_point_rejects_bad_multipliers(spec_p2, grid_20):
    with pytest.raises(PreconditionError):
        fixed_point_solve(spec_p2, CL, 0.1, -1.0, grid_20)


def test_solve_targets_postconditions(spec_p2, grid_20, monkeypatch):
    shots = []
    shoot = steady.integrate_state

    def counted(*args, **kwargs):
        shots.append(args[2:4])
        return shoot(*args, **kwargs)

    monkeypatch.setattr("gravlasov.steady.integrate_state", counted)
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


def test_full_shot_tabulates_rho_only(spec_p2, grid_20, monkeypatch):
    # one quadrature per table and per state: the table is built before the
    # shot, and only a fast shot's masses read the Casimir moment from it; a
    # full shot integrates every total in one call after the shot
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
    for fast, expected in ((True, [("rho", "cas"), "shoot"]),
                           (False, [("rho",), "shoot", tuple(steady._TOTALS)])):
        calls.clear()
        integrate_state(spec_p2, REL, -1.0, -1.0, grid_20, fast=fast)
        assert calls == expected


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
        ref = [quad(lambda t: float(steady._moment_integrand(
            spec, params, mu_abs, a, t, (kind,))[0]),
            0.0, 1.0, epsabs=0.0, epsrel=1.2e-14)[0] for a in a_depth]
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

def _reference_lookup(table, a_depth, kind="rho"):
    """The masked moment lookup: 0 for A <= 0, the clamped spline above."""
    a = np.atleast_1d(np.asarray(a_depth, dtype=float))
    if np.any(a > table.a_max * (1.0 + 1e-8)):
        raise ValueError("depth outside tabulated range")
    out = np.zeros_like(a)
    mask = a > 0
    out[mask] = np.maximum(
        table._splines[kind](np.sqrt(np.minimum(a[mask], table.a_max))), 0.0)
    return out


def _reference_derivative(table, a_depth):
    a = np.atleast_1d(np.asarray(a_depth, dtype=float))
    out = np.zeros_like(a)
    mask = a > 0
    zeta = np.sqrt(np.minimum(a[mask], table.a_max))
    out[mask] = table._splines["rho"](zeta, 1) / (2.0 * zeta)
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
    lo, hi = 0.0, h
    while hi - lo > 1e-12 * grid.r_max:
        mid = 0.5 * (lo + hi)
        if rk4(r[i], ys[i], mid)[0] >= 0.0:
            hi = mid
        else:
            lo = mid
    tau = 0.5 * (lo + hi)
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
    return steady._MomentTable(spec, params, mu, -psi0 / abs(mu), kinds=("rho", "cas"))


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


@pytest.mark.parametrize("c", [1.0, math.inf])
def test_moment_table_lookup_matches_masked_lookup(spec_p2, c):
    table = _shot_table(spec_p2, ModelParams(c=c), -0.814, -0.829)
    zeta = table._splines["rho"].x
    a = np.concatenate([[-1.0, -0.0, 0.0, 5e-324, 1e-310], zeta * zeta,
                        (0.5 * (zeta[1:] + zeta[:-1])) ** 2,
                        [table.a_max, table.a_max * (1.0 + 5e-9)]])
    for kind in ("rho", "cas"):
        ref = _reference_lookup(table, a, kind)
        assert table(a, kind).tobytes() == ref.tobytes()
        scalars = np.array([table(float(x), kind) for x in a])
        assert scalars.tobytes() == ref.tobytes()
    assert table.derivative(a).tobytes() == _reference_derivative(table, a).tobytes()
    assert np.all(table.derivative(a)[a <= 0.0] == 0.0)
    with pytest.raises(PreconditionError, match="outside tabulated range"):
        table(table.a_max * (1.0 + 2e-8))
    with pytest.raises(PreconditionError, match="outside tabulated range"):
        table(np.array([0.0, table.a_max * (1.0 + 2e-8)]))


@lru_cache(maxsize=None)
def _lookup_table(c, planted):
    table = _shot_table(make_polytrope(2.0), ModelParams(c=c), -0.814, -0.829)
    if planted:
        # no built table sums a piece to -0.0 (node 0 holds +0.0), so plant one:
        # np.maximum(-0.0, 0.0) is +0.0, where max(-0.0, 0.0) would keep -0.0
        for kind in ("rho", "cas"):
            table._splines[kind].c[:, 0] = -0.0
            table._rows[kind][0] = [-0.0] * 4
    return table


@settings(max_examples=40, deadline=None)
@given(c=strategies.sampled_from([1.0, math.inf]), planted=strategies.booleans(),
       kind=strategies.sampled_from(["rho", "cas"]),
       fractions=strategies.lists(strategies.floats(-0.5, 1.0 + 1e-8), max_size=64))
def test_power_sum_lookup_is_scipy_to_the_bit(c, planted, kind, fractions):
    table = _lookup_table(c, planted)
    a_max, zeta = table.a_max, table._splines[kind].x
    breakpoints = zeta * zeta                  # sqrt gives each node back exactly
    a = np.concatenate([
        [-1.0, -0.0, 0.0, 5e-324, 1e-310, 2.2250738585072014e-308],
        breakpoints, np.nextafter(breakpoints, -1.0), np.nextafter(breakpoints, 2.0 * a_max),
        [a_max, a_max * (1.0 + 5e-9), np.nextafter(a_max * (1.0 + 1e-8), 0.0)],
        np.asarray(fractions, dtype=float) * a_max])
    ref = np.maximum(table._splines[kind](np.sqrt(np.clip(a, 0.0, a_max))), 0.0)
    assert table(a, kind).tobytes() == ref.tobytes()
    assert np.array([table(x, kind) for x in a.tolist()]).tobytes() == ref.tobytes()


@pytest.mark.parametrize("fixture", ["state_p2_cl", "state_p2_rel"])
def test_state_from_dir_rebuilds_f(tmp_path, request, fixture):
    st = request.getfixturevalue(fixture)
    state_to_dir(st, tmp_path)
    assert sorted(p.name for p in (tmp_path / "profiles").iterdir()) == ["phi.csv", "rho.csv"]
    back = state_from_dir(tmp_path)
    assert back.f.grid_r.nodes.tobytes() == st.f.grid_r.nodes.tobytes()
    assert back.f.grid_u.nodes.tobytes() == st.f.grid_u.nodes.tobytes()
    # phi.csv holds phi to the bit, but psi = phi - lambda and w are re-derived
    assert_allclose(back.f.values, st.f.values, rtol=0, atol=1e-14 * st.f.values.max())
