import math

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
