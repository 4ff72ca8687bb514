import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies
from scipy.interpolate import RegularGridInterpolator

from gravlasov.errors import (NumericsError, PreconditionError,
                             SupportExceedsGridError)
from gravlasov.kernel import ModelParams, make_polytrope
from gravlasov.radial import PhaseDensity, RadialGrid, SpeedGrid, bump_density
from gravlasov.rigidity import (alpha_rescale, bootstrap_exponents,
                                dilate_transform, equimeasure_compare,
                                estimate_kj, f_function, f_roots,
                                interpolation_quotient, level_asymptotic,
                                threshold_check, _box_trial, _gaussian_trial,
                                _resample)

CL = ModelParams()
REL = ModelParams(c=1.0)


@pytest.fixture(scope="module")
def bump():
    return bump_density(RadialGrid(r_max=10.0, n=385),
                        SpeedGrid(u_max=10.0, m=385), 1.0, 1.2)


# --- interpolation quotient ------------------------------------------------------

def test_quotient_positive(bump, spec_p2):
    assert interpolation_quotient(bump, spec_p2, REL) > 0
    assert interpolation_quotient(bump, spec_p2, CL) > 0


def test_quotient_rejects_zero_density(spec_p2):
    from gravlasov.radial import PhaseDensity
    gr, gu = RadialGrid(r_max=2.0, n=33), SpeedGrid(u_max=2.0, m=33)
    zero = PhaseDensity(grid_r=gr, grid_u=gu, values=np.zeros((33, 33)))
    with pytest.raises(PreconditionError):
        interpolation_quotient(zero, spec_p2, REL)


def test_quotient_dilation_invariance(bump, spec_p2):
    # grids scale with the dilation so the resampled density keeps the same
    # resolution per feature (otherwise quadrature error masks the invariance)
    q0 = interpolation_quotient(bump, spec_p2, REL)
    for lam in (0.25, 0.5, 2.0, 4.0):
        grids = (RadialGrid(r_max=10.0 * lam, n=385),
                 SpeedGrid(u_max=10.0 / lam, m=385))
        f_dil = _resample(bump, lam, 1.0 / lam, 1.0, grids=grids)
        q = interpolation_quotient(f_dil, spec_p2, REL)
        assert q == pytest.approx(q0, rel=1e-6)


def test_quotient_amplitude_invariance_for_polytrope(bump, spec_p2):
    q0 = interpolation_quotient(bump, spec_p2, REL)
    f_amp = _resample(bump, 1.0, 1.0, 3.0)
    assert interpolation_quotient(f_amp, spec_p2, REL) == pytest.approx(q0, rel=1e-10)


def test_estimate_kj_upper_bound_property(bump, spec_p2):
    est = estimate_kj(spec_p2, REL, budget=30)
    assert est.best_quotient > 0
    assert est.trial_count <= 30
    # a minimum over a trial family sits below any single hand-picked trial
    assert est.best_quotient <= interpolation_quotient(bump, spec_p2, REL) + 1e-12


def test_estimate_kj_stable_under_rescaled_copies(spec_p2):
    # adding dilated/amplified copies of existing trials cannot move the
    # estimate (scale invariance of the quotient)
    est1 = estimate_kj(spec_p2, REL, trial_family="gaussian", budget=25)
    q_scaled = interpolation_quotient(
        _resample(bump_density(RadialGrid(r_max=10.0, n=257),
                               SpeedGrid(u_max=10.0, m=257), 1.0, 1.0),
                  2.0, 0.5, 5.0,
                  grids=(RadialGrid(r_max=20.0, n=257),
                         SpeedGrid(u_max=10.0, m=257))),
        spec_p2, REL)
    assert min(est1.best_quotient, q_scaled) >= est1.best_quotient * (1 - 1e-4)


@settings(max_examples=25, deadline=None)
@given(log_s=strategies.floats(-2.0, 2.0), p=strategies.floats(1.6, 3.0))
def test_trial_quotients_do_not_depend_on_the_shape(log_s, p):
    # shape s = sigma_r sigma_u, grids scaled with the trial: the quotient's
    # exponents cancel exactly, so one point stands for each family
    side = math.sqrt(10.0 ** log_s)
    gaussian = bump_density(RadialGrid(r_max=8.0 * side, n=257),
                            SpeedGrid(u_max=8.0 * side, m=257), side, side)
    box = PhaseDensity.from_callable(
        RadialGrid(r_max=2.0 * side, n=257), SpeedGrid(u_max=2.0 * side, m=257),
        lambda r, u: ((r < side) & (u < side)).astype(float))
    spec = make_polytrope(p)
    for trial, unit in ((gaussian, _gaussian_trial()), (box, _box_trial())):
        assert interpolation_quotient(trial, spec, REL) == pytest.approx(
            interpolation_quotient(unit, spec, REL), rel=1e-12, abs=0)


def test_estimate_kj_evaluates_each_trial_once(spec_p2):
    est = estimate_kj(spec_p2, REL)
    assert est.trial_count == 4
    assert est.best_quotient == 2.4697343970507992
    assert est.witness == "ground(psi0=-1.0,mu=-1.0)"
    first = estimate_kj(spec_p2, REL, budget=1)
    assert (first.trial_count, first.witness) == (1, "gaussian")


def test_ground_state_trials_beat_boxes(spec_p2):
    est_ground = estimate_kj(spec_p2, CL, trial_family="ground", budget=10)
    est_box = estimate_kj(spec_p2, CL, trial_family="box", budget=20)
    assert est_ground.best_quotient < est_box.best_quotient


# --- threshold -------------------------------------------------------------------

def test_threshold_classical_no_threshold(spec_p2):
    verdict = threshold_check(5.0, 3.0, spec_p2, CL)
    assert verdict.verdict == "classical: no threshold"
    assert verdict.subcritical_wrt_estimate
    assert math.isinf(verdict.bound)


def test_threshold_monotone_in_masses(spec_p2):
    est = estimate_kj(spec_p2, REL, trial_family="gaussian", budget=15)
    m1s = np.geomspace(0.1, 100.0, 12)
    flips = []
    for m1 in m1s:
        flips.append(threshold_check(m1, 1.0, spec_p2, REL, est).subcritical_wrt_estimate)
    # once supercritical, larger m1 never flips back
    assert sorted(flips, reverse=True) == flips
    # m1 -> 0 keeps S -> 0: subcritical
    assert threshold_check(1e-9, 1.0, spec_p2, REL, est).subcritical_wrt_estimate


def test_threshold_of_solved_state_is_subcritical(state_p2_rel, spec_p2):
    own = interpolation_quotient(state_p2_rel.tabulate(257), spec_p2, REL)
    from gravlasov.rigidity import KjEstimate
    est = KjEstimate(p=2.0, best_quotient=own, trial_count=1, witness="self")
    verdict = threshold_check(state_p2_rel.m1, state_p2_rel.mj, spec_p2, REL, est)
    assert verdict.subcritical_wrt_estimate


# --- scaling transforms ------------------------------------------------------------

def test_dilate_identity(bump, spec_p2):
    rep = dilate_transform(bump, 1.0, spec_p2, REL)
    assert rep.max_rel_dev < 1e-12


def test_dilate_predictions(bump, spec_p2):
    for lam, params in ((2.0, REL), (0.5, CL), (4.0, REL)):
        grids = (RadialGrid(r_max=10.0 * max(lam, 1.0), n=385),
                 SpeedGrid(u_max=10.0 * max(1.0 / lam, 1.0), m=385))
        rep = dilate_transform(bump, lam, spec_p2, params, grids=grids)
        assert rep.max_rel_dev < 1e-5
        assert rep.after.m1 == pytest.approx(rep.before.m1, rel=1e-8)
        assert rep.after.epot == pytest.approx(rep.before.epot / lam, rel=1e-6)


def test_dilate_support_escape(bump, spec_p2):
    with pytest.raises(SupportExceedsGridError):
        dilate_transform(bump, 8.0, spec_p2, REL)  # same grids cannot hold it


def test_dilate_drives_energy_negative(bump, spec_p2):
    # some dilation makes the total energy negative for any nonzero density
    found = False
    for lam in (2.0, 4.0, 8.0, 16.0):
        grids = (RadialGrid(r_max=10.0 * lam, n=385),
                 SpeedGrid(u_max=10.0, m=385))
        rep = dilate_transform(bump, lam, spec_p2, REL, grids=grids)
        if rep.after.hc < 0:
            found = True
            break
    assert found


def test_alpha_rescale_identity_and_polytrope_h(bump, spec_p2):
    rep1 = alpha_rescale(bump, 1.0, spec_p2, CL)
    assert rep1.h_alpha == pytest.approx(1.0, rel=1e-12)
    rep = alpha_rescale(bump, 1.7, spec_p2, CL)
    assert rep.h_alpha == pytest.approx(1.7 ** (spec_p2.p - 1.0), rel=1e-10)
    assert rep.max_rel_dev < 1e-5


def test_alpha_rescale_h_monotone(bump, spec_p2):
    alphas = np.linspace(0.25, 3.0, 10)
    hs = []
    for a in alphas:
        stretch = max(1.0, float(a) ** (-1.0 / 3.0)) * 1.1
        grids = (RadialGrid(r_max=10.0 * stretch, n=385),
                 SpeedGrid(u_max=10.0, m=385))
        hs.append(alpha_rescale(bump, float(a), spec_p2, CL, grids=grids).h_alpha)
    assert np.all(np.diff(hs) > 0)
    assert hs[0] < 1.0  # h(0+) = 0 side


def test_alpha_rescale_dichotomy_bounds(spec_p2, bump):
    for alpha in (1.5, 3.0):
        h = alpha_rescale(bump, alpha, spec_p2, CL).h_alpha
        assert alpha ** (spec_p2.p1 - 1.0) * (1 - 1e-9) <= h
        assert h <= alpha ** (spec_p2.p2 - 1.0) * (1 + 1e-9)


def test_alpha_rescale_k_mode(bump, spec_p2):
    rep = alpha_rescale(bump, 1.3, spec_p2, CL, k=0.5)
    assert rep.after.m1 == pytest.approx(rep.before.m1 / 0.5, rel=1e-6)
    assert rep.max_rel_dev < 1e-5


def test_nondichotomy_arithmetic():
    # alpha = beta = 1/2 with p1 = p2 = 2: the split exponent sum is 2^(-2/3) < 1
    val = 0.5 ** (4.0 / 3.0) * 0.5 ** (1.0 / 3.0) * 2.0
    assert val == pytest.approx(2.0 ** (-2.0 / 3.0), rel=1e-12)
    assert val < 1.0


# --- the multiplier function F ------------------------------------------------------

def test_f_function_positive_and_convex(spec_p2):
    for a, c in ((0.5, 1.0), (1.3, 1.0), (1.0, 10.0)):
        params = ModelParams(c=c)
        s = np.geomspace(0.05, 50.0, 64)
        vals = np.array([f_function(params, a, spec_p2, x) for x in s])
        assert np.all(vals > 0)
        second = [((vals[i + 1] - vals[i]) / (s[i + 1] - s[i])
                   - (vals[i] - vals[i - 1]) / (s[i] - s[i - 1]))
                  for i in range(1, len(s) - 1)]
        assert min(second) > 0


def test_f_function_classical_inverse_sqrt(spec_p2):
    params = ModelParams(c=1e4)
    s = np.geomspace(0.1, 10.0, 16)
    scaled = np.array([f_function(params, 1.3, spec_p2, x) * math.sqrt(x)
                       for x in s])
    assert (scaled.max() - scaled.min()) / scaled.mean() < 0.01


def test_f_function_rejects_classical(spec_p2):
    with pytest.raises(PreconditionError):
        f_function(CL, 1.0, spec_p2, 1.0)


def test_f_roots_contains_mu0(spec_p2):
    roots = f_roots(REL, 1.0, spec_p2, -0.5)
    assert any(math.isclose(r, 0.5, rel_tol=1e-10) for r in roots)
    assert len(roots) <= 2


def test_f_roots_scan_at_most_two(spec_p2):
    for a in (0.5, 1.5):
        for mu0 in (-0.3, -1.0):
            for c in (0.5, 2.0):
                roots = f_roots(ModelParams(c=c), a, spec_p2, mu0)
                assert 1 <= len(roots) <= 2


def test_f_roots_classical_limit_single(spec_p2):
    roots = f_roots(ModelParams(c=1e6), 1.0, spec_p2, -0.5)
    assert roots == [pytest.approx(0.5, rel=1e-10)]


@pytest.mark.parametrize("mu0", [1e-10, 1e-150], ids=["1e-10", "1e-150"])
def test_f_roots_single_root_for_small_mu0(spec_p2, mu0):
    # F is strictly decreasing on the whole window, so |mu0| is the only
    # root; the bracketed copy of it merges only if brentq's tolerance
    # scales with |mu0|
    s = mu0 * np.geomspace(1e-4, 1e4, 9)
    vals = [f_function(ModelParams(c=0.5), 1.0, spec_p2, x) for x in s]
    assert all(v > w for v, w in zip(vals, vals[1:]))
    assert f_roots(ModelParams(c=0.5), 1.0, spec_p2, mu0) == [mu0]


@pytest.mark.parametrize("s", [1e140, 1e160], ids=["1e+140", "1e+160"])
def test_f_function_outside_double_range_is_numerics_error(spec_p2, s):
    # 1e140: 4 pi s^2 is finite but the moment overflows; 1e160: 4 pi s^2
    # itself overflows
    with pytest.raises(NumericsError, match=re.escape(f"s = {s:g}")):
        f_function(ModelParams(c=0.5), 1.0, spec_p2, s)


@pytest.mark.parametrize("c, a, s", [(1e200, 1.0, 1e130), (1.0, 1e100, 1e-100),
                                     (1e-80, 1.0, 1.0)],
                         ids=["1e+200-1.0-1e+130", "1.0-1e+100-1e-100", "1e-80-1.0-1.0"])
def test_f_function_moments_out_of_range_are_numerics_errors(spec_p2, c, a, s):
    # |mu|^(5/2) overflows, A^(m+5/2) overflows, beta is past the last table:
    # F's own error, before any numpy warning and with no OverflowError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError, match=re.escape(f"s = {s:g}")):
            f_function(ModelParams(c=c), a, spec_p2, s)


def test_f_roots_ignore_ulp_changes_in_f(spec_p2, monkeypatch):
    from gravlasov import rigidity
    from gravlasov.kernel import make_polytrope
    spec_p3 = make_polytrope(3.0)
    cases = [(REL, 1.0, spec_p2), (ModelParams(c=3.0), 2.0, spec_p3),
             (ModelParams(c=3.0), 0.5, spec_p3)]
    before = [f_roots(params, a, spec, -0.5) for params, a, spec in cases]
    exact = rigidity.f_function
    monkeypatch.setattr(rigidity, "f_function",
                        lambda *args: exact(*args) * (1.0 + 4e-16))
    after = [f_roots(params, a, spec, -0.5) for params, a, spec in cases]
    assert after == before
    assert all(len(roots) == 2 for roots in before)


# --- equimeasurability ---------------------------------------------------------------

def test_equimeasure_self(bump):
    levels = np.geomspace(1e-3, 0.9, 20)
    rep = equimeasure_compare(bump, bump, levels)
    assert rep.max_discrepancy == 0.0
    assert rep.sup_norm_gap == 0.0


def test_equimeasure_dilate(bump):
    lam = 2.0
    grids = (RadialGrid(r_max=10.0 * lam, n=385), SpeedGrid(u_max=10.0, m=385))
    dil = _resample(bump, lam, 1.0 / lam, 1.0, grids=grids)
    levels = np.geomspace(1e-2, 0.9, 15)
    rep = equimeasure_compare(bump, dil, levels)
    scale = float(rep.dist_f[0])
    assert rep.max_discrepancy / scale < 0.02  # binning tolerance


def resample_table_reference(f, map_r, map_u, amp, grids):
    """The table-only resampling _resample once ran in a branch of its own:
    the table's interpolant on the meshgrid of the mapped nodes, clamped at
    0, with the grid edges zeroed."""
    grid_r, grid_u = grids
    interp = RegularGridInterpolator((f.grid_r.nodes, f.grid_u.nodes), f.values,
                                     bounds_error=False, fill_value=0.0)
    rr, uu = np.meshgrid(grid_r.nodes / map_r, grid_u.nodes / map_u, indexing="ij")
    vals = np.maximum(amp * interp(np.stack([rr, uu], axis=-1)), 0.0)
    vals[-1, :] = 0.0
    vals[:, -1] = 0.0
    return vals


def test_resample_of_a_table_matches_its_interpolant(bump_and_table):
    table = bump_and_table[1]
    for lam, amp, n in itertools.product([0.5, 1.0, 1.7, 2.0], [1.0, 2.0], [65, 81]):
        grids = (RadialGrid(r_max=4.0 * max(lam, 1.0) * 1.05, n=n),
                 SpeedGrid(u_max=3.0 * max(1.0 / lam, 1.0) * 1.05, m=49))
        got = _resample(table, lam, 1.0 / lam, amp, grids=grids).values
        want = resample_table_reference(table, lam, 1.0 / lam, amp, grids)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    # a table reaching past the rescaled grids fails like a profiled density
    with pytest.raises(SupportExceedsGridError):
        _resample(table, 2.0, 0.5, 1.0)


def test_equimeasure_doubled_amplitude(bump):
    doubled = _resample(bump, 1.0, 1.0, 2.0)
    peak = float(np.max(bump.values))
    levels = np.array([1.2 * peak, 1.5 * peak])  # between the two sup norms
    rep = equimeasure_compare(bump, doubled, levels)
    assert rep.max_discrepancy > 0.0
    assert np.all(rep.dist_f == 0.0)
    assert np.all(rep.dist_g > 0.0)
    assert rep.sup_norm_gap == pytest.approx(peak, rel=1e-12)


# --- level-set asymptotics --------------------------------------------------------------

def test_level_asymptotic(spec_p2):
    from gravlasov.steady import integrate_state
    # the smallest level sets need a few radial cells: resolve with n = 2049
    st = integrate_state(spec_p2, REL, -1.0, -1.0, RadialGrid(r_max=20.0, n=2049))
    fit = level_asymptotic(st)
    assert 2.9 <= fit.exponent <= 3.1
    assert fit.phi2_center == pytest.approx(fit.phi2_from_rho, rel=1e-6)
    assert fit.coefficient_rel_err < 0.05


def test_level_asymptotic_resolution_guard(state_p2_rel):
    # at n = 1025 the smallest level sets span fewer than three cells
    from gravlasov.errors import ResolutionError
    with pytest.raises(ResolutionError):
        level_asymptotic(state_p2_rel)


def test_level_volume_constant():
    # vol{u^2/2 + b r^2/2 < s} = (4 pi^3 / 3) s^3 b^{-3/2} in the
    # 16 pi^2 r^2 u^2 measure; quadrature cross-check
    from gravlasov.rigidity import LEVEL_VOLUME_CONSTANT
    b, s = 1.3, 0.8
    r = np.linspace(0.0, math.sqrt(2 * s / b), 20001)
    u_edge = np.sqrt(np.maximum(2 * s - b * r * r, 0.0))
    vol = 16 * math.pi ** 2 * np.trapezoid(r * r * u_edge ** 3 / 3.0, r)
    assert vol == pytest.approx(LEVEL_VOLUME_CONSTANT * s ** 3 * b ** -1.5,
                                rel=1e-6)


# --- bootstrap recursion ------------------------------------------------------------------

def test_bootstrap_examples():
    res3 = bootstrap_exponents(3.0)
    assert res3.sequence[1] == pytest.approx(12.0 / 7.0, rel=1e-12)
    assert res3.success_index == 1
    res2 = bootstrap_exponents(2.0)
    assert res2.success_index == 1
    assert res2.boundary_hit   # q1 = 3/2 exactly
    assert res2.sequence[1] == pytest.approx(1.5, abs=1e-9)


def test_bootstrap_terminates_on_p_grid():
    for p in np.linspace(1.55, 10.0, 18):
        res = bootstrap_exponents(float(p))
        assert res.succeeded
        assert res.success_index <= 50


def test_bootstrap_fixed_point_repelling():
    p = 2.5
    q_star = 3.0 * (2 * p - 1) / (2.0 * (3 * p - 2))
    # starting just above the fixed point escapes upward; just below decays
    up = bootstrap_exponents(p, q0=q_star + 1e-3)
    assert up.succeeded
    down = bootstrap_exponents(p, q0=q_star - 1e-3)
    assert not down.succeeded


def test_bootstrap_validation():
    with pytest.raises(PreconditionError):
        bootstrap_exponents(1.2)
    with pytest.raises(PreconditionError):
        bootstrap_exponents(2.0, q0=1.6)
