"""Golden digests of the criterion-1 solves: the bits of their files.

A change to how a shot or a profile file is computed must leave every byte of
`solve --p 2 --n 4096 --r-max 20` where it was, at c = 1 to (12.5, 1.9) and
at c = inf to (16.0, 2.6). summary.json is left out: it records the output
directory. Where numpy reports AVX-512 kernels, the solves rerun in a process
with them disabled, and give the same bytes.
"""

import hashlib
import os
import subprocess
import sys

import pytest

from gravlasov import cli

FILES = ("profiles/phi.csv", "profiles/rho.csv", "state.json")
SOLVES = {"1": ("12.5", "1.9"), "inf": ("16.0", "2.6")}
GOLDEN = {
    "1": ("251d8c068caae104cde3de7134e755f3256e74222c60f97dfae51802b9049973",
          "237e986e3035639b6b640b90e31abc97f1bb22bd16393810b6833947900956d1",
          "19ac4d32849f38392ed229599943697f14d2b449d68b98046d856b338efec447"),
    "inf": ("8e45fe513cc72fd4419b99fa71732169473d951a63767fdb84f42b2d1d219a70",
            "1c57a7a16dbe2102ab0a0b92aa53727ef245d54ad4775330c594e5dfdc3e2891",
            "7b587861694f1de53ce0fc22ec8a631669bc2d3f5261b7afda076b2f34fca3a6"),
}


def _argv(c, out):
    m1, mj = SOLVES[c]
    return ["solve", "--c", c, "--p", "2", "--n", "4096", "--r-max", "20",
            "--m1", m1, "--mj", mj, "--out", str(out)]


def _digests(out):
    return tuple(hashlib.sha256((out / name).read_bytes()).hexdigest() for name in FILES)


def _avx512_groups():
    """numpy's dispatch targets that need AVX-512 and that this CPU has, or
    None where numpy's private dispatch info cannot be read."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        return None
    return [name for name in __cpu_dispatch__ if __cpu_features__.get(name)
            and (name.startswith("AVX512") or name == "X86_V4")]


@pytest.mark.parametrize("c", SOLVES)
def test_criterion_one_solve_digests(tmp_path, c):
    assert cli.main(_argv(c, tmp_path)) == 0
    assert _digests(tmp_path) == GOLDEN[c]


def test_criterion_one_solve_digests_without_avx512(tmp_path):
    groups = _avx512_groups()
    if groups is None:
        pytest.skip("numpy dispatch info unavailable")
    if not groups:
        pytest.skip("numpy reports no AVX-512 kernels")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = os.environ | {"PYTHONPATH": src, "NPY_DISABLE_CPU_FEATURES": " ".join(groups)}
    # the child's numpy runs without them
    probe = subprocess.run(
        [sys.executable, "-c", "from numpy._core._multiarray_umath import "
         "__cpu_features__ as f; print(*[name for name in f if f[name]])"],
        check=True, env=env, capture_output=True, text=True)
    assert not set(groups) & set(probe.stdout.split())
    for c in SOLVES:
        subprocess.run([sys.executable, "-m", "gravlasov.cli", *_argv(c, tmp_path / c)],
                       check=True, env=env, stdout=subprocess.DEVNULL)
        assert _digests(tmp_path / c) == GOLDEN[c], c
