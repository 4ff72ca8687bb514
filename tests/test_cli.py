import contextlib
import io
import itertools
import json
import math
import os
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravlasov import dynamics
from gravlasov.cli import (COMMANDS, _FLAG_TO_KEY, _KEYS, build_parser, main,
                           parse_config)
from gravlasov.errors import ConfigError, NumericsError
from gravlasov.kernel import kinetic_weight
from gravlasov.steady import state_from_dir, support_check


def run(args):
    return main(args)


def read_summary(outdir):
    with open(os.path.join(outdir, "summary.json")) as fh:
        return json.load(fh)


def test_parse_config_defaults_and_types():
    cfg = parse_config("solve", overrides={"model.c": "inf", "casimir.p": "2.5"})
    assert math.isinf(cfg["model.c"])
    assert cfg["casimir.p"] == 2.5
    assert cfg.params().is_classical


def test_parse_config_file_and_flag_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\ncasimir.p = 2\nmodel.c = 1.5\n")
    cfg = parse_config("solve", path=path, overrides={"casimir.p": "3"})
    assert cfg["casimir.p"] == 3.0   # flag wins
    assert cfg["model.c"] == 1.5


def test_parse_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("casimir.q = 2\n")
    with pytest.raises(ConfigError):
        parse_config("solve", path=path)
    with pytest.raises(ConfigError):
        parse_config("solve", overrides={"nope.key": "1"})


def test_parse_config_missing_file():
    with pytest.raises(ConfigError):
        parse_config("solve", path="/nonexistent/run.cfg")


def test_cli_rejects_small_exponent(tmp_path, capsys):
    code = run(["solve", "--p", "1.2", "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "3/2" in err


def test_bootstrap_command_and_reproducibility(tmp_path):
    out = str(tmp_path / "bs")
    assert run(["bootstrap", "--p", "2", "--out", out]) == 0
    first = open(os.path.join(out, "summary.json"), "rb").read()
    first_csv = open(os.path.join(out, "bootstrap.csv"), "rb").read()
    assert run(["bootstrap", "--p", "2", "--out", out]) == 0
    assert open(os.path.join(out, "summary.json"), "rb").read() == first
    assert open(os.path.join(out, "bootstrap.csv"), "rb").read() == first_csv
    doc = read_summary(out)
    assert doc["results"]["boundary_hit"] is True
    assert doc["config"]["casimir.p"] == 2.0


def test_check_casimir_command(tmp_path):
    out = str(tmp_path / "cc")
    assert run(["check-casimir", "--p", "2", "--out", out]) == 0
    doc = read_summary(out)
    assert doc["results"]["passed"] is True
    assert doc["results"]["ratio_min"] == pytest.approx(2.0)


def test_scan_row_count(tmp_path):
    out = str(tmp_path / "scan")
    code = run(["scan", "--param", "mu", "--from", "-2", "--to", "-0.5",
                "--steps", "16", "--psi0", "-1", "--n", "257", "--out", out])
    assert code == 0
    rows = open(os.path.join(out, "scan.csv")).read().strip().splitlines()
    assert len(rows) == 17  # header + 16 rows
    assert read_summary(out)["results"]["rows"] == 16


def test_solve_verify_pipeline(tmp_path):
    out = str(tmp_path / "solve")
    code = run(["solve", "--c", "inf", "--p", "2",
                "--psi0", "-1", "--mu", "-1", "--n", "513", "--out", out])
    assert code == 0
    state_doc = json.loads(open(os.path.join(out, "state.json")).read())
    assert state_doc["lambda"] < 0
    assert state_doc["mu"] == -1.0
    assert os.path.exists(os.path.join(out, "profiles", "phi.csv"))
    assert os.path.exists(os.path.join(out, "profiles", "rho.csv"))
    assert not os.path.exists(os.path.join(out, "profiles", "f.csv"))
    assert state_doc["profiles"] == {"phi": "profiles/phi.csv", "rho": "profiles/rho.csv"}
    # the summary reports the record state.json holds, minus model and paths
    model_keys = ("c", "casimir", "p", "trivial", "profiles")
    assert read_summary(out)["results"] == {
        key: value for key, value in state_doc.items() if key not in model_keys}
    assert len(state_doc["residuals"]) == 8

    code = run(["verify", "--out", out, "--n", "513"])
    assert code == 0
    doc = read_summary(out)
    assert doc["results"]["max_residual"] < 1e-4
    assert doc["results"]["support_ok"] is True
    assert doc["results"]["mu_negative"] is True
    support = support_check(state_from_dir(out))
    assert {key: doc["results"][key] for key in
            ("support_ok", "r_support", "u_bound", "max_off_support",
             "phi_below_lambda")} == {
        "support_ok": support.ok, "r_support": support.r_support,
        "u_bound": support.u_bound, "max_off_support": support.max_off_support,
        "phi_below_lambda": support.phi_below_lambda}


def test_trivial_solve_reports_no_residuals(tmp_path):
    out = str(tmp_path / "trivial")
    assert run(["solve", "--psi0", "0", "--mu", "-1", "--n", "129",
                "--out", out]) == 0
    state_doc = json.loads(open(os.path.join(out, "state.json")).read())
    assert state_doc["trivial"] is True
    assert state_doc["residuals"] == {}
    assert read_summary(out)["results"]["residuals"] == {}


def test_solve_with_targets(tmp_path):
    out = str(tmp_path / "tsolve")
    code = run(["solve", "--c", "1", "--p", "2", "--m1", "12.5", "--mj", "1.9",
                "--n", "513", "--tol", "1e-7", "--out", out])
    assert code == 0
    doc = read_summary(out)
    assert doc["results"]["m1"] == pytest.approx(12.5, rel=1e-6)
    assert doc["results"]["hc"] < 0


def test_solve_numerical_failure_exit_code(tmp_path):
    out = str(tmp_path / "fail")
    # support cannot fit: r_max/4 < support radius
    code = run(["solve", "--c", "inf", "--p", "2", "--psi0", "-1", "--mu", "-1",
                "--n", "257", "--r-max", "6", "--out", out])
    assert code == 1
    doc = read_summary(out)
    assert "error" in doc["results"]


def test_stability_run_failure_exit_code(tmp_path, capsys, monkeypatch):
    # a failing ladder run ends the command with its error named, as when
    # the runs went one after another
    exact = dynamics._perturb

    def failing(ens, delta, mode):
        if delta == 0.02:
            raise NumericsError("the 0.02 run failed")
        return exact(ens, delta, mode)

    monkeypatch.setattr(dynamics, "_perturb", failing)
    out = str(tmp_path / "st")
    assert run(["stability", "--psi0", "-1", "--mu", "-1", "--n", "257",
                "--n-particles", "1000", "--t-end", "0.05", "--dt", "0.01",
                "--out", out]) == 1
    doc = read_summary(out)["results"]
    assert doc == {"error": "NumericsError", "message": "the 0.02 run failed"}
    assert capsys.readouterr().err == "error: the 0.02 run failed\n"


def test_stability_of_no_steps_exit_code(tmp_path):
    # t_end/dt rounds to 0: no run may report a verdict from t = 0 alone
    out = str(tmp_path / "st")
    assert run(["stability", "--c", "1", "--psi0", "-1", "--mu", "-1", "--n", "257",
                "--n-particles", "1000", "--t-end", "1e-9", "--dt", "1",
                "--out", out]) == 1
    assert read_summary(out)["results"] == {
        "error": "PreconditionError",
        "message": "t_end/dt must round to at least one step, got t_end=1e-09, dt=1"}
    assert not [name for name in os.listdir(out) if name.startswith("diagnostics")]


def test_froots_command(tmp_path):
    out = str(tmp_path / "fr")
    assert run(["froots", "--c", "1", "--a", "1.0", "--mu0", "-0.5",
                "--out", out]) == 0
    doc = read_summary(out)
    assert 1 <= doc["results"]["count"] <= 2
    assert any(abs(r - 0.5) < 1e-9 for r in doc["results"]["roots"])


def test_froots_rejects_classical(tmp_path, capsys):
    code = run(["froots", "--c", "inf", "--a", "1.0", "--mu0", "-0.5",
                "--out", str(tmp_path / "frc")])
    assert code == 2


def test_parser_covers_all_commands():
    parser = build_parser()
    for command in ("check-casimir", "solve", "verify", "kj", "scan",
                    "equimeasure", "froots", "bootstrap", "evolve",
                    "stability", "blowup"):
        args = parser.parse_args([command])
        assert args.command == command


def test_dispatch_summary_embeds_config(tmp_path):
    out = str(tmp_path / "emb")
    run(["bootstrap", "--p", "3", "--q0", "1.3", "--out", out])
    doc = read_summary(out)
    assert doc["config"]["command"] == "bootstrap"
    assert doc["config"]["bootstrap.q0"] == 1.3
    assert doc["config"]["model.c"] == "inf"


def test_negative_targets_rejected(tmp_path):
    code = run(["solve", "--c", "1", "--p", "2", "--m1", "-1", "--mj", "1",
                "--n", "257", "--out", str(tmp_path / "neg")])
    assert code == 2


@pytest.mark.parametrize("args", [
    ["solve", "--psi0", "0.5", "--mu", "-1"],
    ["scan", "--param", "psi0", "--from", "-1", "--to", "0.5", "--steps", "4",
     "--mu", "-1"],
])
def test_out_of_range_psi0_is_config_error(tmp_path, capsys, args):
    assert run(args + ["--n", "257", "--out", str(tmp_path / "o")]) == 2
    assert "psi0" in capsys.readouterr().err


def _output_bytes(outdir):
    files = {}
    for root, _, names in os.walk(outdir):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, outdir)] = fh.read()
    return files


@pytest.mark.parametrize("args", [
    ["solve", "--psi0", "-1", "--mu", "-1", "--n", "257"],
    ["evolve", "--psi0", "-1", "--mu", "-1", "--n", "257",
     "--n-particles", "2000", "--t-end", "0.2", "--dt", "0.02",
     "--snapshot", "1"],
])
def test_outputs_repeat_byte_for_byte(tmp_path, args):
    out = str(tmp_path / "rep")
    assert run(args + ["--out", out]) == 0
    first = _output_bytes(out)
    shutil.rmtree(out)
    assert run(args + ["--out", out]) == 0
    assert _output_bytes(out) == first
    assert "summary.json" in first and len(first) > 1


_BLOWUP_ARGS = ["--p", "2", "--amplitude", "1.0159", "--u-scale", "1.5",
                "--r-max", "10", "--n", "129", "--m", "129", "--u-max", "10",
                "--n-particles", "2000", "--t-end", "0.3"]
_BLOWUP_KEYS = {"concentration_time", "growth_factor", "halted_at", "hc_initial",
                "rho_center_initial", "rho_center_peak", "seed", "verdict"}
_DIAG_HEADER = "t,hc,m1,ekin,epot,virial,rho_center,dist_rho"


@pytest.mark.parametrize("args, csv_name, header, keys", [
    (["equimeasure", "--c", "1", "--p", "2", "--psi0", "-1", "--mu", "-1",
      "--n", "257", "--m", "65"], "equimeasure.csv",
     "level,dist_state,dist_dilated,dist_doubled",
     {"dilate_discrepancy", "dilate_rel_discrepancy", "double_discrepancy",
      "sup_norm_gap_dilate", "volume_scale"}),
    (["blowup", "--c", "1"] + _BLOWUP_ARGS, "diagnostics.csv", _DIAG_HEADER, _BLOWUP_KEYS),
    (["blowup", "--c", "inf"] + _BLOWUP_ARGS, "diagnostics.csv", _DIAG_HEADER, _BLOWUP_KEYS),
])
def test_command_success_outputs(tmp_path, args, csv_name, header, keys):
    # the success paths of equimeasure and blowup: files, summary keys, CSV
    # header, and the same bytes from a second run
    out = str(tmp_path / "ok")
    assert run(args + ["--out", out]) == 0
    first = _output_bytes(out)
    assert set(first) == {"summary.json", csv_name}
    assert set(read_summary(out)["results"]) == keys
    assert first[csv_name].split(b"\r\n", 1)[0].decode() == header
    shutil.rmtree(out)
    assert run(args + ["--out", out]) == 0
    assert _output_bytes(out) == first


@pytest.mark.parametrize("args, key", [
    (["solve", "--m", "1"], "grid.m"),
    (["kj", "--budget", "0"], "kj.budget"),
    (["kj", "--family", "gauss"], "kj.family"),
    (["froots", "--c", "1", "--a", "-1", "--mu0", "-0.5"], "froots.a"),
    (["bootstrap", "--p", "1.2"], "casimir.p"),
    (["bootstrap", "--q0", "2"], "bootstrap.q0"),
    (["stability", "--psi0", "-1", "--mu", "-1", "--mode", "foo"], "dynamics.mode"),
    (["equimeasure", "--psi0", "-1", "--mu", "-1", "--lam", "-1"], "equimeasure.lam"),
])
def test_invalid_value_is_config_error(tmp_path, capsys, args, key):
    # rejected before any work: no solve runs and no traceback escapes
    out = tmp_path / "o"
    assert run(args + ["--n", "257", "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_exponent_negative_values_parse(tmp_path):
    # argparse alone reads "-5e-1" as an option and exits 2
    parser = build_parser()
    for flag in _FLAG_TO_KEY:
        args = parser.parse_args(["solve", f"--{flag.replace('_', '-')}", "-5e-1"])
        assert getattr(args, flag) == "-5e-1"
    out = str(tmp_path / "o")
    assert run(["solve", "--psi0", "-5e-1", "--mu", "-1e0", "--r-max", "40",
                "--n", "257", "--out", out]) == 0
    config = read_summary(out)["config"]
    assert (config["solve.psi0"], config["solve.mu"]) == (-0.5, -1.0)


def test_flags_may_precede_the_command():
    parser = build_parser()
    assert parser.parse_args(["--psi0", "-5e-1", "--c", "1", "solve", "--mu", "-1"]) \
        == parser.parse_args(["solve", "--mu", "-1", "--c", "1", "--psi0", "-5e-1"])


# one out-of-range value per range-checked key, and a command that reads the key
_OUT_OF_RANGE = {
    "model.c": ("0", "solve"),
    "casimir.p": ("1.5", "check-casimir"),
    "grid.r_max": ("-1", "solve"),
    "grid.n": ("1", "solve"),
    "grid.u_max": ("0", "blowup"),
    "grid.m": ("1", "verify"),
    "targets.m1": ("-1", "solve"),
    "targets.mj": ("0", "kj"),
    "targets.tol": ("0", "solve"),
    "solve.psi0": ("0.5", "equimeasure"),
    "solve.mu": ("0", "solve"),
    "dynamics.n_particles": ("999", "evolve"),
    "dynamics.dt": ("0", "evolve"),
    "dynamics.t_end": ("-1", "blowup"),
    "dynamics.seed": ("-1", "evolve"),
    "dynamics.delta": ("0", "stability"),
    "dynamics.mode": ("foo", "stability"),
    "dynamics.snapshot": ("7", "evolve"),
    "scan.param": ("lam", "scan"),
    "scan.steps": ("0", "scan"),
    "kj.budget": ("0", "kj"),
    "kj.family": ("gauss", "kj"),
    "froots.a": ("0", "froots"),
    "froots.mu0": ("0", "froots"),
    "equimeasure.lam": ("0", "equimeasure"),
    "bootstrap.q0": ("1.5", "bootstrap"),
    "blowup.r_scale": ("0", "blowup"),
    "blowup.u_scale": ("-1", "blowup"),
}


def _command_not_reading(key):
    reads = key == "casimir.p" or key.startswith("bootstrap.")
    return "verify" if reads else "bootstrap"


def test_out_of_range_table_covers_every_checked_key():
    assert set(_OUT_OF_RANGE) == {key for key, row in _KEYS.items() if row.check}
    assert all(_out_of_range(key) for key in _OUT_OF_RANGE)   # the fuzz test's pool


@pytest.mark.parametrize("key, reads", [(key, reads) for key in _OUT_OF_RANGE
                                        for reads in (True, False)])
def test_out_of_range_value_exits_2_for_every_command(tmp_path, capsys, key, reads):
    raw, command = _OUT_OF_RANGE[key]
    if not reads:
        command = _command_not_reading(key)
    path = tmp_path / "run.cfg"
    path.write_text(f"{key} = {raw}\n")
    out = tmp_path / "o"
    assert run([command, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: {key} must " in err and ", got " in err
    assert not out.exists()


def test_verify_without_a_solve_is_config_error(tmp_path, capsys):
    assert run(["verify", "--out", str(tmp_path)]) == 2
    assert "state.json" in capsys.readouterr().err


@pytest.fixture(scope="module")
def solve_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("verify") / "solve")
    assert run(["solve", "--c", "inf", "--p", "2", "--psi0", "-1", "--mu", "-1",
                "--n", "257", "--out", out]) == 0
    return out


def _set_casimir_custom(out):
    path = os.path.join(out, "state.json")
    doc = json.loads(open(path).read())
    with open(path, "w") as fh:
        json.dump(doc | {"casimir": "custom"}, fh)


def _rename_phi_header(out):
    path = os.path.join(out, "profiles", "phi.csv")
    lines = open(path).read().splitlines(keepends=True)
    with open(path, "w") as fh:
        fh.writelines(["x,y\n"] + lines[1:])


def _truncate_state(out):
    path = os.path.join(out, "state.json")
    text = open(path).read()
    with open(path, "w") as fh:
        fh.write(text[: len(text) // 2])


def _remove_rho(out):
    os.remove(os.path.join(out, "profiles", "rho.csv"))


def _empty_phi(out):
    with open(os.path.join(out, "profiles", "phi.csv"), "w") as fh:
        fh.write("r,value\n")


def _set_state_value(key, value):
    def damage(out):
        path = os.path.join(out, "state.json")
        doc = json.loads(open(path).read())
        with open(path, "w") as fh:
            json.dump(doc | {key: value}, fh)
    return damage


@pytest.mark.parametrize("damage, cause", [
    (_set_casimir_custom, "polytrope"),
    (_set_state_value("p", 1.2), "InvalidCasimirError"),    # kernel's own checks
    (_set_state_value("c", -1.0), "PreconditionError"),
    (_rename_phi_header, "PreconditionError"),
    (_truncate_state, "JSONDecodeError"),
    (_remove_rho, "FileNotFoundError"),
    # numpy warns on a table without rows before the guard names the error
    pytest.param(_empty_phi, "IndexError", marks=pytest.mark.filterwarnings(
        "ignore:loadtxt. input contained no data:UserWarning")),
])
def test_verify_on_a_damaged_solve_is_a_named_error(tmp_path, capsys, solve_dir,
                                                    damage, cause):
    out = str(tmp_path / "damaged")
    shutil.copytree(solve_dir, out)
    os.remove(os.path.join(out, "summary.json"))
    damage(out)
    assert run(["verify", "--out", out, "--n", "257"]) == 1
    doc = read_summary(out)["results"]
    assert doc["error"] == "PreconditionError"
    assert out in doc["message"] and cause in doc["message"]
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_verify_reports_mass_beyond_a_lowered_support(tmp_path, solve_dir):
    # f is positive between the lowered r_support and the true edge; verify
    # reads it from the profile at one speed node per radius
    out = str(tmp_path / "lowered")
    shutil.copytree(solve_dir, out)
    r_support = json.loads(open(os.path.join(out, "state.json")).read())["r_support"]
    _set_state_value("r_support", 0.8 * r_support)(out)
    assert run(["verify", "--out", out, "--n", "257"]) == 0
    doc = read_summary(out)["results"]
    # the reference: the largest value of the tabulated f outside the support box
    st = state_from_dir(out)
    f = st.tabulate(257)  # verify's default grid.m
    r, u = f.grid_r.nodes, f.grid_u.nodes
    outside = ((r[:, None] > st.r_support)
               | (kinetic_weight(st.params, u)[None, :] > st.lam - st.phi.values[0]))
    reference = float(np.max(np.abs(f.values[outside]), initial=0.0))
    assert reference > 0.0
    assert doc["support_ok"] is False and doc["phi_below_lambda"] is True
    assert doc["max_off_support"] == pytest.approx(reference, rel=1e-15, abs=0.0)


def _cut_phi_to_two_rows(out):
    path = os.path.join(out, "profiles", "phi.csv")
    lines = open(path).read().splitlines(keepends=True)
    with open(path, "w") as fh:
        fh.writelines(lines[:3])


@pytest.mark.parametrize("damage, error", [
    (_set_state_value("lambda", 0.5), "NonNegativeLambdaError"),
    (_set_state_value("mu", 1.0), "PreconditionError"),
    (_cut_phi_to_two_rows, "GridMismatchError"),
])
def test_verify_on_an_inconsistent_solve_is_a_named_error(tmp_path, capsys,
                                                         solve_dir, damage, error):
    # each read succeeds; the rebuilt state itself is impossible
    out = str(tmp_path / "inconsistent")
    shutil.copytree(solve_dir, out)
    os.remove(os.path.join(out, "summary.json"))
    damage(out)
    assert run(["verify", "--out", out, "--n", "257"]) == 1
    assert read_summary(out)["results"]["error"] == error
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("args, error", [
    (["evolve", "--psi0", "0", "--mu", "-1", "--n", "65", "--n-particles", "1000",
      "--t-end", "0.1", "--dt", "0.1"], "PreconditionError"),    # trivial state
    (["equimeasure", "--psi0", "0", "--mu", "-1", "--n", "65"], "PreconditionError"),
    (["froots", "--c", "1", "--a", "1", "--mu0", "-1e-320"], "NumericsError"),
    # 4 pi mu0^2 is subnormal: F(|mu0|) has lost digits
    (["froots", "--c", "0.5", "--a", "1", "--mu0", "1e-155"], "NumericsError"),
    (["kj", "--c", "0.001", "--budget", "1", "--family", "ground"], "NumericsError"),
])
def test_in_range_breakdown_is_named_failure(tmp_path, args, error):
    # in-range configs that once ended in a traceback
    out = str(tmp_path / "o")
    assert run(args + ["--out", out]) == 1
    assert read_summary(out)["results"]["error"] == error


@pytest.mark.parametrize("mu0", ["1e103", "1e140"])
def test_froots_overflow_is_numerics_error_without_warnings(tmp_path, capsys, mu0):
    # F(|mu0|) itself overflows
    out = str(tmp_path / "o")
    assert run(["froots", "--c", "0.5", "--a", "1", "--mu0", mu0,
                "--out", out]) == 1
    assert read_summary(out)["results"]["error"] == "NumericsError"
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("c", ["1", "inf"])
def test_blowup_overflow_is_numerics_error_without_warnings(tmp_path, capsys, c):
    # the bump's Casimir mass f^2 overflows first; the run once went on to
    # a verdict on -inf energy (c=inf) or a drift-speed error (c=1)
    out = str(tmp_path / "o")
    assert run(["blowup", "--c", c, "--amplitude", "1e300", "--n", "129",
                "--m", "129", "--n-particles", "1000", "--out", out]) == 1
    results = read_summary(out)["results"]
    assert results["error"] == "NumericsError"
    assert "amplitude 1e+300" in results["message"]
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("mu0", ["3e98", "1e100", "2e102"])
def test_froots_skips_scan_points_outside_double_range(tmp_path, capsys, mu0):
    # F overflows at the top of the scan but not at |mu0|: those points
    # bracket no root, and |mu0| is the one root
    out = str(tmp_path / "o")
    assert run(["froots", "--c", "0.5", "--a", "1", "--mu0", mu0,
                "--out", out]) == 0
    assert read_summary(out)["results"] == {"count": 1, "roots": [float(mu0)]}
    assert capsys.readouterr().err == ""


# --- fuzzing the CLI from the key table ------------------------------------------

def _floats(lo, hi):
    return st.floats(lo, hi).map(repr)


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


def _draw_config(draw, command):
    """Small in-range values for the keys `command` reads: n <= 129, at most
    2000 particles, at most 10 flow steps, a kj budget of at most 3."""
    cfg = {"casimir.p": draw(_floats(1.6, 4.0))}
    finite_c = command == "froots"
    cfg["model.c"] = draw(st.sampled_from(["0.5", "1", "3"] + ([] if finite_c
                                                               else ["inf"])))
    if command not in ("check-casimir", "kj", "froots", "bootstrap"):
        cfg["grid.r_max"] = draw(_floats(4.0, 40.0))
        cfg["grid.n"] = draw(_ints(2, 129))
        cfg["grid.m"] = draw(_ints(2, 65))
    if command in ("solve", "verify", "equimeasure", "evolve", "stability"):
        if draw(st.booleans()):
            cfg["solve.psi0"] = draw(_floats(-3.0, 0.0))
            cfg["solve.mu"] = draw(_floats(-3.0, -0.05))
        else:
            cfg["targets.m1"] = draw(_floats(0.1, 50.0))
            cfg["targets.mj"] = draw(_floats(0.05, 10.0))
            cfg["targets.tol"] = draw(st.sampled_from(["1e-8", "1e-5"]))
    if command in ("evolve", "stability", "blowup"):
        dt = draw(st.floats(0.01, 0.5))
        cfg["dynamics.n_particles"] = draw(_ints(1000, 2000))
        cfg["dynamics.dt"] = repr(dt)
        cfg["dynamics.t_end"] = repr(dt * draw(st.integers(1, 10)))
        cfg["dynamics.seed"] = draw(_ints(0, 2 ** 128 - 1))
    if command == "evolve":
        cfg["dynamics.snapshot"] = draw(_ints(0, 1))
    if command == "stability":
        sizes = draw(st.lists(st.floats(0.0, 0.1), min_size=1, max_size=3))
        sizes.append(draw(st.floats(1e-3, 0.1)))   # at least one positive size
        cfg["dynamics.delta"] = ",".join(map(repr, sizes))
        cfg["dynamics.mode"] = draw(st.sampled_from(["amplitude", "dilation", "kick"]))
    if command == "blowup":
        cfg["blowup.r_scale"] = draw(_floats(0.3, 3.0))
        cfg["blowup.u_scale"] = draw(_floats(0.3, 3.0))
        cfg["blowup.amplitude"] = draw(_floats(-1.0, 3.0))
        if draw(st.booleans()):
            cfg["grid.u_max"] = draw(_floats(0.5, 20.0))
    if command == "kj":
        cfg["kj.budget"] = draw(_ints(1, 3))
        cfg["kj.family"] = draw(st.sampled_from(["default", "gaussian", "box",
                                                 "ground"]))
        if draw(st.booleans()):
            cfg["targets.m1"] = draw(_floats(0.1, 50.0))
            cfg["targets.mj"] = draw(_floats(0.05, 10.0))
    if command == "scan":
        param = draw(st.sampled_from(["mu", "psi0"]))
        hi = 0.0 if param == "psi0" else -0.05
        cfg["scan.param"] = param
        cfg["scan.from"] = draw(_floats(-3.0, hi))
        cfg["scan.to"] = draw(_floats(-3.0, hi))
        cfg["scan.steps"] = draw(_ints(1, 4))
    if command == "froots":
        cfg["froots.a"] = draw(_floats(0.05, 5.0))
        cfg["froots.mu0"] = draw(_floats(-3.0, 3.0).filter(lambda v: float(v) != 0))
    if command == "equimeasure":
        cfg["equimeasure.lam"] = draw(_floats(0.25, 4.0))
    if command == "bootstrap":
        cfg["bootstrap.q0"] = draw(_floats(1.01, 1.49))
    for key, raw in cfg.items():   # the draws above stay inside the table's ranges
        row = _KEYS[key]
        assert row.check is None or row.check[0](row.parse(raw)), (key, raw)
    return cfg


_BAD_POOL = ["-1", "0", "0.5", "1", "1.5", "2", "999", str(2 ** 128), "nan", "foo", ""]


def _out_of_range(key):
    row, bad = _KEYS[key], []
    for raw in _BAD_POOL:
        try:
            value = row.parse(raw)
        except ValueError:
            continue
        if not row.check[0](value):
            bad.append(raw)
    return bad


_CHECKED = sorted(key for key, row in _KEYS.items() if row.check)
_FUZZ_DIRS = itertools.count()


def _main(command, cfg, outdir):
    """Run `cli.main` with cfg as flags."""
    argv = [command, "--out", outdir]
    for key, raw in cfg.items():
        argv += [f"--{_KEYS[key].flag.replace('_', '-')}", raw]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=3)
@given(data=st.data())
def test_cli_fuzz_from_key_table(tmp_path_factory, command, data):
    root = str(tmp_path_factory.getbasetemp() / f"fuzz{next(_FUZZ_DIRS)}")
    cfg = _draw_config(data.draw, command)

    # one value out of its range: exit 2 before any work, the key named
    key = data.draw(st.sampled_from(_CHECKED), label="bad key")
    raw = data.draw(st.sampled_from(_out_of_range(key)), label="bad value")
    code, err = _main(command, cfg | {key: raw}, root + "_bad")
    assert code == 2 and f"config error: {key} must " in err
    assert not os.path.exists(root + "_bad")

    if command == "verify":   # verify reads a solve directory
        solved, _ = _main("solve", cfg, root)
        assert solved in (0, 1)
        if solved == 1:   # no state.json
            assert _main(command, cfg, root)[0] == 2
            return
    code, err = _main(command, cfg, root)
    assert code in (0, 1), err
    assert os.path.exists(os.path.join(root, "summary.json"))
