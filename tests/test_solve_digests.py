"""Golden digests of the criterion-1 solves: the bits of their files.

A change to how a shot or a profile file is computed must leave every byte of
`solve --p 2 --n 4096 --r-max 20` where it was, at c = 1 to (12.5, 1.9) and
at c = inf to (16.0, 2.6), and the results `verify` reports on the c = 1
solve. The rest of summary.json is left out: it records the output
directory. Where numpy reports AVX-512 kernels, the solves and `verify` rerun
in one child pytest (the `golden_without_avx512` fixture) with them disabled,
and give the same bytes.
"""

import hashlib
import json

import pytest

from gravlasov import cli

FILES = ("profiles/phi.csv", "profiles/rho.csv", "state.json")
SOLVES = {"1": ("12.5", "1.9"), "inf": ("16.0", "2.6")}
GOLDEN = {
    "1": ("251d8c068caae104cde3de7134e755f3256e74222c60f97dfae51802b9049973",
          "237e986e3035639b6b640b90e31abc97f1bb22bd16393810b6833947900956d1",
          "92be877e180fd2e06373191f20f45d2a17fb1a312a664bc16d1d4a2cc7cda964"),
    "inf": ("8e45fe513cc72fd4419b99fa71732169473d951a63767fdb84f42b2d1d219a70",
            "1c57a7a16dbe2102ab0a0b92aa53727ef245d54ad4775330c594e5dfdc3e2891",
            "f4b213a8b55e89bc6e23bef43c4749fdbe524946cd60978211d8f28ba20d5d27"),
}
VERIFIED = "76664ff592e9d01a754ba60b40f0d156d2f0dcf204619b39e4318c6299475c71"  # c = 1


def _argv(c, out):
    m1, mj = SOLVES[c]
    return ["solve", "--c", c, "--p", "2", "--n", "4096", "--r-max", "20",
            "--m1", m1, "--mj", mj, "--out", str(out)]


def _digests(out):
    return tuple(hashlib.sha256((out / name).read_bytes()).hexdigest() for name in FILES)


def _verified(out):
    results = json.loads((out / "summary.json").read_text())["results"]
    return hashlib.sha256(json.dumps(results).encode()).hexdigest()


@pytest.mark.parametrize("c", SOLVES, ids=["1", "inf"])
def test_criterion_one_solve_digests(tmp_path, c):
    assert cli.main(_argv(c, tmp_path)) == 0
    assert _digests(tmp_path) == GOLDEN[c]


def test_verify_results_digest(tmp_path):
    assert cli.main(_argv("1", tmp_path)) == 0
    assert cli.main(["verify", "--out", str(tmp_path)]) == 0
    assert _verified(tmp_path) == VERIFIED


def test_criterion_one_solve_digests_without_avx512(golden_without_avx512):
    passed, stdout = golden_without_avx512
    # the 2 solves and `verify` on the c = 1 solve
    assert len([t for t in passed
                if t.startswith("tests/test_solve_digests.py::")]) == 3, stdout
