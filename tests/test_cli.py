import json
import math
import os
import shutil

import pytest

from gravlasov.cli import _FLAG_TO_KEY, build_parser, main, parse_config
from gravlasov.errors import ConfigError


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
    code = run(["solve", "--c", "inf", "--casimir", "polytrope", "--p", "2",
                "--psi0", "-1", "--mu", "-1", "--n", "513", "--out", out])
    assert code == 0
    state_doc = json.loads(open(os.path.join(out, "state.json")).read())
    assert state_doc["lambda"] < 0
    assert state_doc["mu"] == -1.0
    assert os.path.exists(os.path.join(out, "profiles", "phi.csv"))
    assert os.path.exists(os.path.join(out, "profiles", "rho.csv"))
    assert os.path.exists(os.path.join(out, "profiles", "f.csv"))

    code = run(["verify", "--out", out, "--n", "513"])
    assert code == 0
    doc = read_summary(out)
    assert doc["results"]["max_residual"] < 1e-4
    assert doc["results"]["support_ok"] is True
    assert doc["results"]["mu_negative"] is True


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
