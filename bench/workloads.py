"""The benchmark's workloads: what each one runs and how its outputs are checked.

Every workload is a closed loop with one caller. A pass is a fixed list of
operations, each one gravlasov CLI command run in-process through
``gravlasov.cli.main(argv)`` or one cross-check, and each operation checks its
own outputs. The tolerances are the acceptance-suite ones
(tests/test_acceptance.py), reused as they are.

Import this module only after ``src/`` is on ``sys.path``.
"""

from __future__ import annotations

import csv
import glob
import json
import math
import os
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from gravlasov import cli, dynamics, steady
from gravlasov.kernel import ModelParams, make_polytrope
from gravlasov.radial import (RadialGrid, SpeedGrid, bump_density,
                              density_moment, functionals, read_radial_field)

MASS_TOL = 1e-7        # criterion 1: masses relative to the targets
RESIDUAL_TOL = 1e-4    # criterion 2: identity residuals
ORACLE_TOL = 1e-4      # criterion 3: |phi_fp - phi| / |phi(0)|


class CheckFailed(Exception):
    """An operation ran, but its output failed a correctness check."""


@dataclass(frozen=True)
class Op:
    """One operation of a pass. ``run`` gets the pass directory and returns
    facts the runner aggregates (``particle_steps`` for flow commands)."""

    kind: str
    run: Callable[[str], dict]


@dataclass(frozen=True)
class Workload:
    """A workload's main command shares its name; ``command_s`` times it."""

    name: str
    build: Callable[[int], dict]       # seed -> inputs; timed as set-up
    ops: Callable[[dict], list]        # inputs -> the ops of one pass


def program_seed(workload: str, seed: int) -> int:
    """The seed the program sees, derived from the benchmark's seed."""
    return random.Random(f"{workload}:{seed}").randrange(1, 2 ** 31)


def _cli(argv) -> None:
    rc = cli.main(argv)
    if rc != 0:
        raise CheckFailed(f"`gravlasov {' '.join(argv)}` exited {rc}")


def _results(outdir: str) -> dict:
    with open(os.path.join(outdir, "summary.json")) as fh:
        return json.load(fh)["results"]


def _diagnostics(path: str, diag_every: int) -> int:
    """Check that m1 is constant in a diagnostics CSV; return its KDK steps."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) < 2:
        raise CheckFailed(f"{path}: fewer than two diagnostics records")
    if len({row["m1"] for row in rows}) != 1:
        raise CheckFailed(f"{path}: m1 is not constant")
    # records sit at t = k dt for k = 0, diag_every, 2 diag_every, ...
    dt = float(rows[1]["t"]) / diag_every
    return round(float(rows[-1]["t"]) / dt)


# --- solve: criterion-1 target solves, identities, fixed-point oracle, kj ------

SOLVE_N, SOLVE_R_MAX = 4096, 20.0
SOLVE_TARGETS = (("c1", "1", 12.5, 1.9), ("cinf", "inf", 16.0, 2.6))


def _solve(c, m1, mj, sub, passdir):
    outdir = os.path.join(passdir, sub)
    _cli(["solve", "--c", c, "--p", "2", "--n", str(SOLVE_N),
          "--r-max", repr(SOLVE_R_MAX), "--m1", repr(m1), "--mj", repr(mj),
          "--out", outdir])
    res = _results(outdir)
    for key, target in (("m1", m1), ("mj", mj)):
        if not abs(res[key] - target) / target < MASS_TOL:
            raise CheckFailed(f"{outdir}: {key} = {res[key]!r}, target {target}")
    return {}


def _verify(sub, passdir):
    outdir = os.path.join(passdir, sub)
    _cli(["verify", "--out", outdir])
    worst = _results(outdir)["max_residual"]
    if not worst < RESIDUAL_TOL:
        raise CheckFailed(f"{outdir}: max identity residual {worst:.3e}")
    return {}


def _fixed_point(c, sub, passdir):
    outdir = os.path.join(passdir, sub)
    with open(os.path.join(outdir, "state.json")) as fh:
        doc = json.load(fh)
    phi = read_radial_field(os.path.join(outdir, "profiles", "phi.csv")).values
    params = ModelParams(c=math.inf if c == "inf" else float(c))
    phi0 = abs(phi[0])
    fp = steady.fixed_point_solve(make_polytrope(2.0), params, doc["lambda"],
                                  doc["mu"], RadialGrid(r_max=SOLVE_R_MAX, n=SOLVE_N),
                                  tol=1e-9 * phi0)
    dev = float(np.max(np.abs(fp.phi.values - phi))) / phi0
    if not dev < ORACLE_TOL:
        raise CheckFailed(f"{outdir}: fixed point |dphi|/|phi0| = {dev:.3e}")
    return {}


def _kj(passdir):
    outdir = os.path.join(passdir, "kj")
    _cli(["kj", "--c", "1", "--p", "2", "--budget", "60", "--m1", "12.5",
          "--mj", "1.9", "--out", outdir])
    if not _results(outdir)["threshold"]["subcritical_wrt_estimate"]:
        raise CheckFailed(f"{outdir}: (12.5, 1.9) not subcritical w.r.t. the estimate")
    return {}


def _solve_ops(inputs):
    ops = []
    for label, c, m1, mj in SOLVE_TARGETS:
        sub = f"solve_{label}"
        ops += [Op("solve", partial(_solve, c, m1, mj, sub)),
                Op("verify", partial(_verify, sub)),
                Op("fixed_point", partial(_fixed_point, c, sub))]
    return ops + [Op("kj", _kj)]


# --- stability: the criterion-10 ladder ------------------------------------------

STABILITY_PARTICLES = 100_000


def _stability_inputs(seed):
    state = steady.integrate_state(make_polytrope(2.0), ModelParams(c=1.0),
                                   -1.0, -1.0, RadialGrid(r_max=20.0, n=1025))
    td = dynamics.dynamical_time(state.rho.values[0])
    return {"dt": 0.1 * td, "t_end": 10.0 * td,
            "seed": program_seed("stability", seed)}


def _stability(inputs, passdir):
    outdir = os.path.join(passdir, "stability")
    _cli(["stability", "--c", "1", "--p", "2", "--psi0", "-1", "--mu", "-1",
          "--n", "1025", "--n-particles", str(STABILITY_PARTICLES),
          "--delta", "0.01,0.02,0.04", "--mode", "amplitude",
          "--seed", str(inputs["seed"]), "--dt", repr(inputs["dt"]),
          "--t-end", repr(inputs["t_end"]), "--out", outdir])
    res = _results(outdir)
    dist, floor = res["max_dist_rho"], res["noise_floor"]
    if not res["stable"]:
        raise CheckFailed(f"{outdir}: ladder not stable (floor {floor:.3f}, {dist})")
    if not (all(a <= b for a, b in zip(dist, dist[1:])) and floor <= dist[0]):
        raise CheckFailed(f"{outdir}: distances {dist} not monotone above {floor:.3f}")
    paths = sorted(glob.glob(os.path.join(outdir, "diagnostics_delta_*.csv")))
    if len(paths) != 4:
        raise CheckFailed(f"{outdir}: expected 4 diagnostics files, found {len(paths)}")
    steps = sum(_diagnostics(path, diag_every=10) for path in paths)
    return {"particle_steps": STABILITY_PARTICLES * steps}


# --- blowup: the criterion-11 concentration dichotomy -----------------------------

BLOWUP_PARTICLES = 30_000


def _blowup_inputs(seed):
    spec, params = make_polytrope(2.0), ModelParams(c=1.0)
    datum = bump_density(RadialGrid(r_max=10.0, n=513), SpeedGrid(u_max=10.0, m=513),
                         1.0, 1.5, 1.0159)
    hc = functionals(datum, spec, params).hc
    if not hc < 0:
        raise RuntimeError(f"blowup datum has hc = {hc} >= 0")
    # the step blowup_experiment would derive from its sample, 0.01 td of the
    # density inside the half-mass radius, taken from the datum instead so the
    # step count does not vary with the seed
    rho = density_moment(datum)
    r = rho.grid.nodes
    shell = 4.0 * math.pi * r * r * rho.values
    mass = np.concatenate(([0.0], np.cumsum(0.5 * np.diff(r) * (shell[1:] + shell[:-1]))))
    r_half = float(np.interp(0.5 * mass[-1], mass, r))
    bulk = 0.5 * mass[-1] / (4.0 * math.pi / 3.0 * r_half ** 3)
    return {"dt": 0.01 * dynamics.dynamical_time(bulk),
            "seed": program_seed("blowup", seed)}


def _blowup(inputs, c, passdir):
    outdir = os.path.join(passdir, f"blowup_c{c}")
    _cli(["blowup", "--c", c, "--p", "2", "--amplitude", "1.0159",
          "--u-scale", "1.5", "--r-max", "10", "--n", "513", "--m", "513",
          "--u-max", "10", "--n-particles", str(BLOWUP_PARTICLES),
          "--t-end", "1.5", "--dt", repr(inputs["dt"]),
          "--seed", str(inputs["seed"]), "--out", outdir])
    verdict = _results(outdir)["verdict"]
    if (verdict == "concentrating") != (c == "1"):
        raise CheckFailed(f"{outdir}: c={c} verdict {verdict!r}")
    steps = _diagnostics(os.path.join(outdir, "diagnostics.csv"), diag_every=3)
    return {"particle_steps": BLOWUP_PARTICLES * steps}


WORKLOADS = {
    "solve": Workload("solve", build=lambda seed: {}, ops=_solve_ops),
    "stability": Workload(
        "stability", build=_stability_inputs,
        ops=lambda inputs: [Op("stability", partial(_stability, inputs))]),
    "blowup": Workload(
        "blowup", build=_blowup_inputs,
        ops=lambda inputs: [Op("blowup", partial(_blowup, inputs, c))
                            for c in ("1", "inf")]),
}
