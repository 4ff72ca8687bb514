import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import settings

from gravlasov.kernel import CasimirSpec, ModelParams, make_polytrope
from gravlasov.radial import PhaseDensity, RadialGrid, SpeedGrid, bump_density
from gravlasov.steady import integrate_state

# the same draws on every run: a failure repeats, and no run depends on an
# example database; property tests that solve a state may take seconds
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


def _avx512_groups():
    """numpy's dispatch targets that need AVX-512 and that this CPU has, or
    None where numpy's private dispatch info cannot be read."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        return None
    return [name for name in __cpu_dispatch__ if __cpu_features__.get(name)
            and (name.startswith("AVX512") or name == "X86_V4")]


@pytest.fixture(scope="session")
def no_avx512_env():
    """The environment of a child process whose numpy runs without the AVX-512
    kernels it reports, with the package on its path; skips where it reports
    none or its dispatch info cannot be read."""
    groups = _avx512_groups()
    if groups is None:
        pytest.skip("numpy dispatch info unavailable")
    if not groups:
        pytest.skip("numpy reports no AVX-512 kernels")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = os.environ | {"PYTHONPATH": src,
                        "NPY_DISABLE_CPU_FEATURES": " ".join(groups)}
    # the child's numpy runs without them
    probe = subprocess.run(
        [sys.executable, "-c", "from numpy._core._multiarray_umath import "
         "__cpu_features__ as f; print(*[name for name in f if f[name]])"],
        check=True, env=env, capture_output=True, text=True)
    assert not set(groups) & set(probe.stdout.split())
    return env


# the golden tests that rerun with AVX-512 off, in one child pytest
GOLDEN = ("tests/test_flow_digests.py", "tests/test_solve_digests.py",
          "tests/test_dynamics.py::test_push_of_a_finite_state_whose_radii_overflow")


@pytest.fixture(scope="session")
def golden_without_avx512(no_avx512_env, tmp_path_factory):
    """The ids (`file::name`) of the golden tests that passed in one child
    pytest whose numpy runs without AVX-512, and the child's output. The reruns
    themselves (named `..._without_avx512`) are left out of the child; each
    counts its own cases, so a failure in one golden file fails its rerun only."""
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
         "--basetemp", str(tmp_path_factory.mktemp("golden") / "child"),
         "-k", "not without_avx512", *GOLDEN],
        cwd=os.path.join(os.path.dirname(__file__), os.pardir), env=no_avx512_env,
        capture_output=True, text=True)
    return {line.split()[1] for line in child.stdout.splitlines()
            if line.startswith("PASSED ")}, child.stdout


@pytest.fixture(scope="session")
def spec_p2():
    return make_polytrope(2.0)


@pytest.fixture(scope="session")
def spec_cubic():
    # j = t^3 + t^2: ratio (3t+2)/(t+1) runs over (2, 3), so not a pure power;
    # g_inv written in the rationalized form to stay accurate near zero
    return CasimirSpec(j=lambda t: np.asarray(t) ** 3 + np.asarray(t) ** 2,
                       j_prime=lambda t: 3.0 * np.asarray(t) ** 2 + 2.0 * np.asarray(t),
                       g_inv=lambda s: np.asarray(s) / (1.0 + np.sqrt(1.0 + 3.0 * np.asarray(s))),
                       p=2.0, p1=2.0, p2=3.0)


@pytest.fixture(scope="session")
def classical():
    return ModelParams(c=math.inf)


@pytest.fixture(scope="session")
def relativistic():
    return ModelParams(c=1.0)


@pytest.fixture(scope="session")
def grid_20():
    return RadialGrid(r_max=20.0, n=1025)


@pytest.fixture(scope="session")
def bump_and_table():
    """A bump density and a density of its table alone, which evaluates off
    its grids by linear interpolation."""
    f = bump_density(RadialGrid(r_max=4.0, n=65), SpeedGrid(u_max=3.0, m=49),
                     0.7, 0.5)
    return f, PhaseDensity(grid_r=f.grid_r, grid_u=f.grid_u, values=f.values.copy())


@pytest.fixture(scope="session")
def state_p2_cl(spec_p2, classical, grid_20):
    return integrate_state(spec_p2, classical, -1.0, -1.0, grid_20)


@pytest.fixture(scope="session")
def state_p2_rel(spec_p2, relativistic, grid_20):
    return integrate_state(spec_p2, relativistic, -1.0, -1.0, grid_20)
