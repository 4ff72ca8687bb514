"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from gravlasov.kernel import ModelParams, make_polytrope
from gravlasov.radial import RadialGrid, SpeedGrid, bump_density, functionals
from gravlasov.rigidity import (bootstrap_exponents, dilate_transform,
                                equimeasure_compare, estimate_kj, f_function,
                                f_roots, level_asymptotic, monotonicity_check,
                                threshold_check, _resample)
from gravlasov.steady import (SolveTargets, fixed_point_solve, integrate_state,
                              multiplier_identities, solve_targets,
                              support_check, virial_residual)
from gravlasov.dynamics import (blowup_experiment, dynamical_time, evolve,
                                sample_state, stability_experiment)

CL = ModelParams()
REL = ModelParams(c=1.0)
N_FULL = 4096

# targets sized so each solution sits well inside its grid (support < r_max/4)
TARGET_TABLE = {
    (1.6, 1.0): dict(m1=15.0, mj=3.3, r_max=32.0),
    (1.6, math.inf): dict(m1=18.0, mj=4.3, r_max=32.0),
    (2.0, 1.0): dict(m1=12.5, mj=1.9, r_max=20.0),
    (2.0, math.inf): dict(m1=16.0, mj=2.6, r_max=20.0),
    (3.0, 1.0): dict(m1=10.0, mj=0.85, r_max=20.0),
    (3.0, math.inf): dict(m1=13.5, mj=1.25, r_max=20.0),
}


def report(num, ok, detail):
    print(f"\nCRITERION {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def solved_states():
    """Criterion-1 states, reused by the identity and level-set criteria."""
    states = {}
    timings = {}
    for (p, c), cfg in TARGET_TABLE.items():
        spec = make_polytrope(p)
        params = ModelParams(c=c)
        grid = RadialGrid(r_max=cfg["r_max"], n=N_FULL)
        t0 = time.time()
        states[(p, c)] = solve_targets(
            spec, params, SolveTargets(cfg["m1"], cfg["mj"], tol=1e-8), grid)
        timings[(p, c)] = time.time() - t0
    return states, timings


@pytest.fixture(scope="module")
def rel_state_1025():
    return integrate_state(make_polytrope(2.0), REL, -1.0, -1.0,
                           RadialGrid(r_max=20.0, n=1025))


def test_criterion_01_ground_states(solved_states):
    states, timings = solved_states
    lines = []
    ok = True
    for (p, c), st in states.items():
        cfg = TARGET_TABLE[(p, c)]
        sup = support_check(st)
        good = (st.lam < 0 and st.mu < 0 and st.hc < 0 and sup.ok
                and abs(st.m1 - cfg["m1"]) / cfg["m1"] < 1e-7
                and abs(st.mj - cfg["mj"]) / cfg["mj"] < 1e-7
                and timings[(p, c)] < 60.0)
        ok = ok and good
        lines.append(f"p={p} c={c}: lam={st.lam:.4f} mu={st.mu:.4f} "
                     f"hc={st.hc:.4f} R={st.r_support:.2f} "
                     f"t={timings[(p, c)]:.1f}s")
    report(1, ok, "; ".join(lines))


def test_criterion_02_identity_suite(solved_states):
    states, _ = solved_states
    worst = 0.0
    for key in ((2.0, 1.0), (2.0, math.inf), (3.0, 1.0), (1.6, math.inf)):
        rep = multiplier_identities(states[key])
        worst = max(worst, rep.max_residual, abs(virial_residual(states[key])))
    below_tol = worst < 1e-4

    # refinement order of the worst residual, measured where it is above
    # the roundoff floor
    res = {}
    for n in (257, 513, 1025):
        st = integrate_state(make_polytrope(2.0), REL, -1.0, -1.0,
                             RadialGrid(r_max=20.0, n=n))
        res[n] = max(multiplier_identities(st).max_residual, 1e-300)
    measurable = [n for n in res if res[n] > 1e-11]
    if len(measurable) >= 2:
        hs = np.log([20.0 / (n - 1) for n in sorted(measurable)])
        es = np.log([res[n] for n in sorted(measurable)])
        order = float(np.polyfit(hs, es, 1)[0])
        order_ok = order >= 1.8
        order_note = f"order={order:.2f}"
    else:
        order_ok = True
        order_note = "residuals at roundoff floor at all n"
    report(2, below_tol and order_ok,
           f"max residual {worst:.2e} < 1e-4; {order_note} "
           f"(res: {', '.join(f'n={n}:{res[n]:.1e}' for n in sorted(res))})")


def test_criterion_03_cross_solver_oracle():
    spec = make_polytrope(2.0)
    lines = []
    ok = True
    for params, label in ((CL, "classical"), (REL, "c=1")):
        grid = RadialGrid(r_max=20.0, n=N_FULL)
        st = integrate_state(spec, params, -1.0, -1.0, grid)
        fp = fixed_point_solve(spec, params, st.lam, st.mu, grid,
                               tol=1e-9 * abs(st.phi.values[0]))
        dev = float(np.max(np.abs(fp.phi.values - st.phi.values))
                    / abs(st.phi.values[0]))
        ok = ok and dev < 1e-4
        lines.append(f"{label}: |dphi|/|phi0| = {dev:.2e}")
    report(3, ok, "; ".join(lines))


def test_criterion_04_scaling_laws():
    spec = make_polytrope(2.0)
    base = bump_density(RadialGrid(r_max=10.0, n=385),
                        SpeedGrid(u_max=10.0, m=385), 1.0, 1.2)
    worst = 0.0
    for lam in (0.5, 2.0, 4.0):
        grids = (RadialGrid(r_max=10.0 * lam, n=385),
                 SpeedGrid(u_max=10.0 / lam, m=385))
        rep = dilate_transform(base, lam, spec, REL, grids=grids)
        worst = max(worst, rep.max_rel_dev)
    match_ok = worst < 1e-5

    # residual lam*hc(f_lam) + epot(f) decays like 1/lam
    epot0 = functionals(base, spec, REL).epot
    lams = np.array([4.0, 8.0, 16.0, 32.0])
    resid = []
    for lam in lams:
        grids = (RadialGrid(r_max=10.0 * lam, n=385),
                 SpeedGrid(u_max=10.0 / lam, m=385))
        rep = dilate_transform(base, float(lam), spec, REL, grids=grids)
        resid.append(abs(lam * rep.after.hc + epot0))
    slope = float(np.polyfit(np.log(lams), np.log(resid), 1)[0])
    slope_ok = abs(slope - (-1.0)) < 0.1
    report(4, match_ok and slope_ok,
           f"max prediction dev {worst:.2e} < 1e-5; residual slope "
           f"{slope:.3f} within -1 +/- 0.1")


def test_criterion_05_monotonicity():
    spec = make_polytrope(2.0)
    grid = RadialGrid(r_max=40.0, n=1025)
    base = solve_targets(spec, REL, SolveTargets(12.5, 1.9, tol=1e-7), grid)
    rows = monotonicity_check(base, [0.25, 0.5, 0.75], grid=grid, tol=1e-7)
    allowance = 2.0 * 1e-4 * abs(base.hc)   # twice the solver tolerance scale
    ok = all(row.margin_mj > -allowance and row.margin_m1 > -allowance
             for row in rows)
    detail = "; ".join(f"k={row.k}: margins ({row.margin_mj:+.4f}, "
                       f"{row.margin_m1:+.4f})" for row in rows)
    report(5, ok, detail)


def test_criterion_06_f_function():
    spec = make_polytrope(2.0)
    convex_ok = True
    for a in (0.5, 1.0, 2.0):
        for c in (0.7, 1.0, 3.0):
            params = ModelParams(c=c)
            s = np.geomspace(0.05, 50.0, 64)
            vals = np.array([f_function(params, a, spec, x) for x in s])
            slopes = np.diff(vals) / np.diff(s)
            if not np.all(np.diff(slopes) > 0):
                convex_ok = False

    count_ok = True
    for a in np.linspace(0.3, 2.5, 10):
        for mu0 in -np.geomspace(0.2, 2.0, 10):
            for c in (0.5, 1.0, 2.0):
                roots = f_roots(ModelParams(c=c), float(a), spec, float(mu0))
                if not 1 <= len(roots) <= 2:
                    count_ok = False

    big = ModelParams(c=1e4)
    s = np.geomspace(0.1, 10.0, 24)
    scaled = np.array([f_function(big, 1.0, spec, x) * math.sqrt(x) for x in s])
    spread = float((scaled.max() - scaled.min()) / scaled.mean())
    classical_ok = spread < 0.01
    report(6, convex_ok and count_ok and classical_ok,
           f"second differences positive on 9 (a, c) pairs: {convex_ok}; "
           f"root count in [1,2] over 10x10x3 scan: {count_ok}; "
           f"F*sqrt(s) spread at c=1e4: {spread:.2e} < 1%")


def test_criterion_07_level_asymptotic():
    spec = make_polytrope(2.0)
    lines = []
    ok = True
    for params, label in ((REL, "c=1"), (CL, "classical")):
        st = integrate_state(spec, params, -1.0, -1.0,
                             RadialGrid(r_max=20.0, n=N_FULL))
        fit = level_asymptotic(st)
        good = (2.9 <= fit.exponent <= 3.1
                and fit.coefficient_rel_err < 0.05
                and abs(fit.phi2_center - fit.phi2_from_rho)
                / fit.phi2_from_rho < 1e-6)
        ok = ok and good
        lines.append(f"{label}: exponent={fit.exponent:.3f}, coeff err "
                     f"{fit.coefficient_rel_err:.3f}")
    report(7, ok, "; ".join(lines))


def test_criterion_08_bootstrap():
    lines = []
    ok = True
    for p in (1.6, 2.0, 3.0, 5.0):
        res = bootstrap_exponents(p)
        good = res.succeeded and res.success_index <= 50
        if p == 2.0:
            good = good and res.boundary_hit
        ok = ok and good
        lines.append(f"p={p}: k={res.success_index}"
                     + (" (boundary)" if res.boundary_hit else ""))
    report(8, ok, "; ".join(lines))


def test_criterion_09_conservation(rel_state_1025):
    st = rel_state_1025
    td = dynamical_time(st.rho.values[0])
    t_start = time.time()

    n = 100_000
    ens = sample_state(st, n, seed=42)
    f0 = ens.f_values.copy()
    records, final = evolve(ens, 10.0 * td, 0.1 * td, diag_every=10)
    hc0 = records[0].hc
    drift = max(abs(r.hc - hc0) / abs(hc0) for r in records)
    m1_drift = max(abs(r.m1 - records[0].m1) for r in records)
    bits_ok = np.array_equal(final.f_values, f0)

    # dt-halving order measured where the integrator error dominates the
    # shell-crossing Monte Carlo floor
    drifts = {}
    for frac in (0.64, 0.32):
        ens2 = sample_state(st, n, seed=42)
        recs, _ = evolve(ens2, 10.0 * td, frac * td, diag_every=1)
        drifts[frac] = max(abs(r.hc - recs[0].hc) / abs(recs[0].hc)
                           for r in recs)
    order = math.log2(drifts[0.64] / drifts[0.32])
    elapsed = time.time() - t_start
    ok = (drift < 1e-3 and m1_drift == 0.0 and bits_ok and order >= 1.8
          and elapsed < 600.0 and drifts[0.64] < 1e-3)
    report(9, ok,
           f"hc drift {drift:.2e} < 1e-3; m1 drift {m1_drift}; f bit-identical "
           f"{bits_ok}; halving order {order:.2f} "
           f"({drifts[0.64]:.2e} -> {drifts[0.32]:.2e}); runtime {elapsed:.0f}s")


def test_criterion_10_stability(rel_state_1025):
    st = rel_state_1025
    est = estimate_kj(st.spec, st.params, budget=25)
    verdict = threshold_check(st.m1, st.mj, st.spec, st.params, est)
    td = dynamical_time(st.rho.values[0])
    rep, _ = stability_experiment(st, [0.01, 0.02, 0.04], "amplitude",
                                  n=100_000, t_end=10.0 * td, dt=0.1 * td,
                                  seed=5)
    monotone = all(rep.max_dist_rho[i] <= rep.max_dist_rho[i + 1]
                   for i in range(len(rep.max_dist_rho) - 1))
    baseline_ok = rep.noise_floor <= rep.max_dist_rho[0]
    bounded = rep.max_dist_rho[-1] < 0.5 * st.m1
    ok = (verdict.subcritical_wrt_estimate and monotone and baseline_ok
          and bounded and rep.stable)
    report(10, ok,
           f"subcritical: {verdict.subcritical_wrt_estimate}; noise floor "
           f"{rep.noise_floor:.3f}; distances "
           f"{[f'{d:.3f}' for d in rep.max_dist_rho]} monotone={monotone}, "
           f"bounded={bounded}")


def test_criterion_11_concentration():
    spec = make_polytrope(2.0)
    gr = RadialGrid(r_max=10.0, n=513)
    gu = SpeedGrid(u_max=10.0, m=513)
    datum = bump_density(gr, gu, r_scale=1.0, u_scale=1.5, amplitude=1.0159)
    rep_rel = functionals(datum, spec, REL)
    est = estimate_kj(spec, REL, budget=25)
    verdict = threshold_check(rep_rel.m1, rep_rel.mj, spec, REL, est)

    rel_run = blowup_experiment(spec, REL, datum, n=50_000, t_end=3.0, seed=9)
    cl_run = blowup_experiment(spec, CL, datum, n=50_000, t_end=3.0, seed=9)
    ok = (rep_rel.hc < 0 and not verdict.subcritical_wrt_estimate
          and rel_run.verdict == "concentrating"
          and cl_run.verdict != "concentrating")
    report(11, ok,
           f"hc={rep_rel.hc:.1f} < 0, threshold-violating: "
           f"{not verdict.subcritical_wrt_estimate}; c=1 verdict "
           f"{rel_run.verdict} (x{rel_run.growth_factor:.0f} at "
           f"t={rel_run.concentration_time}); classical verdict "
           f"{cl_run.verdict} (x{cl_run.growth_factor:.1f})")


def test_criterion_12_equimeasurability(rel_state_1025):
    st = rel_state_1025
    f = st.tabulate(257)
    peak = float(np.max(f.values))
    levels = np.geomspace(1e-3 * peak, 0.98 * peak, 31)
    lam = 2.0
    grids = (RadialGrid(r_max=f.grid_r.r_max * lam, n=f.grid_r.n),
             SpeedGrid(u_max=f.grid_u.u_max, m=f.grid_u.m))
    dil = _resample(f, lam, 1.0 / lam, 1.0, grids=grids)
    rep_dil = equimeasure_compare(f, dil, levels)
    scale = float(rep_dil.dist_f[0])
    dil_ok = rep_dil.max_discrepancy / scale < 0.02

    doubled = _resample(f, 1.0, 1.0, 2.0)
    mid_levels = np.array([1.2 * peak, 1.6 * peak])
    rep_two = equimeasure_compare(f, doubled, mid_levels)
    two_ok = rep_two.max_discrepancy > 0 and np.all(rep_two.dist_g > 0)
    report(12, dil_ok and two_ok,
           f"dilate discrepancy {rep_dil.max_discrepancy / scale:.2%} of scale "
           f"< 2%; doubled-amplitude discrepancy at intermediate levels "
           f"{rep_two.max_discrepancy:.3f} > 0")
