"""Command-line entry point: config parsing, dispatch, and report emission.

Configuration is a flat key=value text file with dotted section prefixes
(model.c, casimir.p, grid.n, ...); command-line flags override file values and
unknown keys are rejected. Each key has one row in _KEYS, and every row's range
check runs when the config is built, whatever the command. Every run writes summary.json embedding the fully
resolved configuration and seed; numeric tables go to CSV with 17 significant
digits. Outputs contain no timestamps, so identical config and seed reproduce
identical bytes. Exit codes: 0 success, 1 numerical failure, 2 config error.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from dataclasses import asdict, astuple, fields
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import dynamics, rigidity, steady
from .errors import ConfigError, GravlasovError, NumericsError, PreconditionError
from .kernel import ModelParams, check_casimir, make_polytrope
from .radial import RadialGrid, SpeedGrid, bump_density, write_csv, write_json
from .steady import SolveTargets

def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _float_or_inf(raw: str) -> float:  # nan and -inf fail the range check
    return float("inf" if raw.strip().lower() == "infinite" else raw)


def _finite_list(raw: str) -> tuple:
    return tuple(_finite(tok) for tok in raw.replace(",", " ").split())


def _at_least(low):
    return lambda v: v >= low, f"must be at least {low}"


def _one_of(*choices):
    return lambda v: v in choices, f"must be one of {', '.join(choices)}"


_POSITIVE = (lambda v: v > 0, "must be positive")
_EXPONENT = (lambda v: v > 1.5, "must exceed 3/2")
_LADDER = (lambda v: all(d >= 0 for d in v) and any(d > 0 for d in v),
           "must be nonnegative sizes, at least one positive")


class _Key(NamedTuple):
    """One config key: parser, default (None: unset), CLI flag and range
    check (test, requirement), applied for every command."""

    parse: Callable[[str], object]
    default: object
    flag: str
    check: Optional[tuple] = None

    def validate(self, name: str, value) -> None:
        if self.check is not None and not self.check[0](value):
            raise ConfigError(f"{name} {self.check[1]}, got {value!r}")


_KEYS = {
    "model.c": _Key(_float_or_inf, math.inf, "c",
                    (lambda v: v > 0, "must be positive or inf")),
    "casimir.p": _Key(_finite, 2.0, "p", _EXPONENT),
    "grid.r_max": _Key(_finite, 20.0, "r_max", _POSITIVE),
    "grid.n": _Key(int, 1025, "n", _at_least(2)),
    "grid.u_max": _Key(_finite, None, "u_max", _POSITIVE),
    "grid.m": _Key(int, 257, "m", _at_least(2)),
    "targets.m1": _Key(_finite, None, "m1", _POSITIVE),
    "targets.mj": _Key(_finite, None, "mj", _POSITIVE),
    "targets.tol": _Key(_finite, 1e-8, "tol", _POSITIVE),
    "solve.psi0": _Key(_finite, None, "psi0", (lambda v: v <= 0, "must be <= 0")),
    "solve.mu": _Key(_finite, None, "mu", (lambda v: v < 0, "must be negative")),
    "dynamics.n_particles": _Key(int, 50_000, "n_particles", _at_least(1000)),
    "dynamics.dt": _Key(_finite, None, "dt", _POSITIVE),
    "dynamics.t_end": _Key(_finite, None, "t_end", _POSITIVE),
    "dynamics.seed": _Key(int, 1, "seed", (lambda v: 0 <= v < 2 ** 128,
                                           "must lie in [0, 2**128)")),
    "dynamics.delta": _Key(_finite_list, (0.01, 0.02, 0.04), "delta", _LADDER),
    "dynamics.mode": _Key(str.strip, "amplitude", "mode",
                          _one_of("amplitude", "dilation", "kick")),
    "dynamics.snapshot": _Key(int, 0, "snapshot", (lambda v: v in (0, 1), "must be 0 or 1")),
    "scan.param": _Key(str.strip, None, "param", _one_of("mu", "psi0")),
    "scan.from": _Key(_finite, None, "from"),
    "scan.to": _Key(_finite, None, "to"),
    "scan.steps": _Key(int, None, "steps", _at_least(1)),
    "kj.budget": _Key(int, 60, "budget", _at_least(1)),
    "kj.family": _Key(str.strip, "default", "family",
                      _one_of("default", "gaussian", "box", "ground")),
    "froots.a": _Key(_finite, None, "a", _POSITIVE),
    "froots.mu0": _Key(_finite, None, "mu0", (lambda v: v != 0, "must be nonzero")),
    "equimeasure.lam": _Key(_finite, 2.0, "lam", _POSITIVE),
    "bootstrap.q0": _Key(_finite, 1.2, "q0",
                         (lambda v: 1.0 < v < 1.5, "must lie in (1, 3/2)")),
    "blowup.r_scale": _Key(_finite, 1.0, "r_scale", _POSITIVE),
    "blowup.u_scale": _Key(_finite, 1.5, "u_scale", _POSITIVE),
    "blowup.amplitude": _Key(_finite, 1.0, "amplitude"),
    "output.directory": _Key(str.strip, "out", "out"),
}

_FLAG_TO_KEY = {row.flag: key for key, row in _KEYS.items()}


def _parse_value(key: str, raw: str):
    try:
        return _KEYS[key].parse(raw)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {key} = {raw!r}: {exc}")


class RunConfig:
    """Resolved configuration: defaults < file < flags, with validation."""

    def __init__(self, command: str, values: dict):
        self.command = command
        self.values = values
        for key, row in _KEYS.items():
            if key in values:
                row.validate(key, values[key])

    def __getitem__(self, key):
        return self.values[key]

    def get(self, key, default=None):
        return self.values.get(key, default)

    def require(self, *keys):
        missing = [k for k in keys if k not in self.values]
        if missing:
            raise ConfigError(
                f"command {self.command!r} needs config keys: {', '.join(missing)}")

    def params(self) -> ModelParams:
        return ModelParams(c=self.values["model.c"])

    def casimir(self):
        return make_polytrope(self.values["casimir.p"])

    def grid(self) -> RadialGrid:
        return RadialGrid(r_max=self.values["grid.r_max"], n=self.values["grid.n"])


def parse_config(command: str, path=None, overrides=None) -> RunConfig:
    """Merge defaults, an optional key=value file, and flag overrides."""
    values = {key: row.default for key, row in _KEYS.items()
              if row.default is not None}
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path) as fh:
            for line_no, line in enumerate(fh, 1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    raise ConfigError(f"{path}:{line_no}: expected key = value")
                key, _, raw = stripped.partition("=")
                key = key.strip()
                if key not in _KEYS:
                    raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
                values[key] = _parse_value(key, raw.strip())
    for key, raw in (overrides or {}).items():
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = _parse_value(key, raw)
    return RunConfig(command, values)


# --- output helpers -------------------------------------------------------------

def _write_summary(outdir, config: RunConfig, payload: dict) -> None:
    write_json(os.path.join(outdir, "summary.json"),
               {"config": config.values | {"command": config.command},
                "results": payload})


def _write_diagnostics(path, records) -> None:
    write_csv(path, [f.name for f in fields(dynamics.DiagnosticsRecord)],
              (astuple(rec) for rec in records))


# --- command implementations -------------------------------------------------------

def _solve_state(config: RunConfig):
    spec = config.casimir()
    params = config.params()
    grid = config.grid()
    if "solve.psi0" in config.values and "solve.mu" in config.values:
        return steady.integrate_state(spec, params, config["solve.psi0"],
                                      config["solve.mu"], grid)
    config.require("targets.m1", "targets.mj")
    targets = SolveTargets(m1_target=config["targets.m1"],
                           mj_target=config["targets.mj"],
                           tol=config["targets.tol"])
    return steady.solve_targets(spec, params, targets, grid)


def _cmd_check_casimir(config: RunConfig, outdir: str) -> dict:
    report = check_casimir(config.casimir())
    return asdict(report) | {"passed": report.passed}


def _cmd_solve(config: RunConfig, outdir: str) -> dict:
    return steady.state_to_dir(_solve_state(config), outdir)


def _cmd_verify(config: RunConfig, outdir: str) -> dict:
    indir = config["output.directory"]
    if not os.path.exists(os.path.join(indir, "state.json")):
        raise ConfigError("output.directory must hold a solve (state.json), "
                          f"got {indir!r}")
    state = steady.state_from_dir(indir)
    report = steady.multiplier_identities(state)
    support = asdict(steady.support_check(state, config["grid.m"]))
    support["support_ok"] = support.pop("ok")
    return asdict(report) | {"max_residual": report.max_residual} | support


def _cmd_kj(config: RunConfig, outdir: str) -> dict:
    est = rigidity.estimate_kj(config.casimir(), config.params(),
                               trial_family=config["kj.family"],
                               budget=config["kj.budget"])
    payload = asdict(est)
    if "targets.m1" in config.values and "targets.mj" in config.values:
        verdict = rigidity.threshold_check(config["targets.m1"],
                                           config["targets.mj"],
                                           config.casimir(), config.params(), est)
        payload["threshold"] = asdict(verdict)
    return payload


def _cmd_scan(config: RunConfig, outdir: str) -> dict:
    config.require("scan.param", "scan.from", "scan.to", "scan.steps")
    param = config["scan.param"]
    for key in ("scan.from", "scan.to"):  # linspace stays between the two
        _KEYS[f"solve.{param}"].validate(f"{key} ({param})", config[key])
    fixed_psi0 = config.get("solve.psi0", -1.0)
    fixed_mu = config.get("solve.mu", -1.0)
    values = np.linspace(config["scan.from"], config["scan.to"],
                         config["scan.steps"])
    shots = [(val if param == "psi0" else fixed_psi0,
              val if param == "mu" else fixed_mu) for val in values]
    spec, params, grid = config.casimir(), config.params(), config.grid()
    rows = []
    for val, (psi0, mu) in zip(values, shots):
        try:
            shot = steady.integrate_state(spec, params, psi0, mu, grid, fast=True)
            rows.append((float(val), shot.lam, shot.m1, shot.mj, shot.r_support, ""))
        except GravlasovError as exc:
            rows.append((float(val), math.nan, math.nan, math.nan, math.nan,
                         type(exc).__name__))
    write_csv(os.path.join(outdir, "scan.csv"),
              [param, "lambda", "m1", "mj", "r_support", "error"], rows)
    return {"rows": len(rows), "param": param,
            "failures": sum(1 for r in rows if r[-1])}


def _cmd_equimeasure(config: RunConfig, outdir: str) -> dict:
    state = _solve_state(config)
    if state.trivial:
        raise PreconditionError("equimeasure needs a nontrivial state, got psi0 = 0")
    lam = config["equimeasure.lam"]
    f = state.tabulate(config["grid.m"])
    peak = float(np.max(f.values))
    levels = np.geomspace(1e-4 * peak, 0.999 * peak, 41)
    grids = (RadialGrid(r_max=f.grid_r.r_max * max(lam, 1.0) * 1.05, n=f.grid_r.n),
             SpeedGrid(u_max=f.grid_u.u_max * max(1.0 / lam, 1.0) * 1.05,
                       m=f.grid_u.m))
    dilated = rigidity._resample(f, lam, 1.0 / lam, 1.0, grids=grids)
    doubled = rigidity._resample(f, 1.0, 1.0, 2.0)
    rep_d = rigidity.equimeasure_compare(f, dilated, levels)
    rep_2 = rigidity.equimeasure_compare(f, doubled, levels)
    write_csv(os.path.join(outdir, "equimeasure.csv"),
              ["level", "dist_state", "dist_dilated", "dist_doubled"],
              zip(levels, rep_d.dist_f, rep_d.dist_g, rep_2.dist_g))
    scale = float(rep_d.dist_f[0])
    return {"dilate_discrepancy": rep_d.max_discrepancy,
            "dilate_rel_discrepancy": rep_d.max_discrepancy / scale,
            "double_discrepancy": rep_2.max_discrepancy,
            "sup_norm_gap_dilate": rep_d.sup_norm_gap,
            "volume_scale": scale}


def _cmd_froots(config: RunConfig, outdir: str) -> dict:
    config.require("froots.a", "froots.mu0")
    params = config.params()
    if params.is_classical:
        raise ConfigError("froots needs a finite model.c")
    roots = rigidity.f_roots(params, config["froots.a"], config.casimir(),
                             config["froots.mu0"])
    return {"roots": roots, "count": len(roots)}


def _cmd_bootstrap(config: RunConfig, outdir: str) -> dict:
    res = rigidity.bootstrap_exponents(config["casimir.p"], config["bootstrap.q0"])
    write_csv(os.path.join(outdir, "bootstrap.csv"), ["k", "q_k"],
              enumerate(res.sequence))
    return asdict(res)


def _cmd_evolve(config: RunConfig, outdir: str) -> dict:
    state = _solve_state(config)
    n = config["dynamics.n_particles"]
    seed = config["dynamics.seed"]
    td = dynamics.dynamical_time(state.rho.values[0])
    dt = config.get("dynamics.dt", 0.01 * td)
    t_end = config.get("dynamics.t_end", 10.0 * td)
    ens = dynamics.sample_state(state, n, seed)
    records, final = dynamics.evolve(ens, t_end, dt, reference=state)
    _write_diagnostics(os.path.join(outdir, "diagnostics.csv"), records)
    if config["dynamics.snapshot"]:
        dynamics.ensemble_to_csv(os.path.join(outdir, "ensemble.csv"), final)
    hc0 = records[0].hc
    return {"seed": seed, "n_particles": n, "dt": dt, "t_end": t_end,
            "dynamical_time": td,
            "hc_initial": hc0,
            "hc_drift": max(abs(r.hc - hc0) / abs(hc0) for r in records),
            "m1_drift": max(abs(r.m1 - records[0].m1) for r in records),
            "records": len(records)}


def _cmd_stability(config: RunConfig, outdir: str) -> dict:
    state = _solve_state(config)
    td = dynamics.dynamical_time(state.rho.values[0])
    report, runs = dynamics.stability_experiment(
        state, config["dynamics.delta"], config["dynamics.mode"],
        n=config["dynamics.n_particles"],
        t_end=config.get("dynamics.t_end", 10.0 * td),
        dt=config.get("dynamics.dt"),
        seed=config["dynamics.seed"])
    for delta, records in runs.items():
        _write_diagnostics(os.path.join(outdir, f"diagnostics_delta_{delta:g}.csv"),
                           records)
    return asdict(report) | {"seed": config["dynamics.seed"]}


def _cmd_blowup(config: RunConfig, outdir: str) -> dict:
    spec, params = config.casimir(), config.params()
    grid_r = RadialGrid(r_max=config["grid.r_max"],
                        n=min(config["grid.n"], 513))
    u_max = config.get("grid.u_max", 8.0 * config["blowup.u_scale"])
    grid_u = SpeedGrid(u_max=u_max, m=config["grid.m"])
    amplitude = config["blowup.amplitude"]
    initial = bump_density(grid_r, grid_u, config["blowup.r_scale"],
                           config["blowup.u_scale"], amplitude)
    try:
        # an overflow leaves the energies and the flow meaningless: the
        # first one ends the run
        with np.errstate(over="raise"):
            report = dynamics.blowup_experiment(
                spec, params, initial,
                n=config["dynamics.n_particles"],
                t_end=config.get("dynamics.t_end", 5.0),
                dt=config.get("dynamics.dt"),
                seed=config["dynamics.seed"])
    except FloatingPointError as exc:
        raise NumericsError(f"the blow-up run at amplitude {amplitude:g} "
                            f"leaves double range ({exc})") from None
    _write_diagnostics(os.path.join(outdir, "diagnostics.csv"), report.records)
    return {key: value for key, value in asdict(report).items()
            if key != "records"} | {"seed": config["dynamics.seed"]}


_HANDLERS = {
    "check-casimir": _cmd_check_casimir,
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "kj": _cmd_kj,
    "scan": _cmd_scan,
    "equimeasure": _cmd_equimeasure,
    "froots": _cmd_froots,
    "bootstrap": _cmd_bootstrap,
    "evolve": _cmd_evolve,
    "stability": _cmd_stability,
    "blowup": _cmd_blowup,
}

COMMANDS = tuple(_HANDLERS)


def dispatch(config: RunConfig) -> int:
    """Run one command; returns the exit status (artifacts land on disk)."""
    outdir = config["output.directory"]
    try:
        payload = _HANDLERS[config.command](config, outdir)
    except ConfigError:
        raise
    except GravlasovError as exc:
        _write_summary(outdir, config,
                       {"error": type(exc).__name__, "message": str(exc)})
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write_summary(outdir, config, payload)
    return 0


# argparse takes only "-1" and "-.5" shapes for negative numbers and reads any
# other token that starts with "-" as an option; this shape also admits
# exponents ("-5e-1", "-1E0"), so every numeric flag takes them as values
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gravlasov",
        description="Steady states and stability experiments for the "
                    "self-gravitating kinetic equation")
    parser._negative_number_matcher = _NEGATIVE_NUMBER
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", default=None, help="key=value config file")
    for flag in _FLAG_TO_KEY:
        parser.add_argument(f"--{flag.replace('_', '-')}", dest=flag, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {key: getattr(args, flag) for flag, key in _FLAG_TO_KEY.items()
                 if getattr(args, flag) is not None}
    try:
        config = parse_config(args.command, path=args.config,
                              overrides=overrides)
        return dispatch(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
