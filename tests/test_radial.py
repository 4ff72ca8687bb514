import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose
from scipy.integrate import simpson
from scipy.interpolate import RegularGridInterpolator

from gravlasov import radial
from gravlasov.dynamics import ParticleEnsemble, ensemble_to_csv
from gravlasov.errors import (BoundaryConditionError, GridMismatchError,
                              NumericsError, PreconditionError)
from gravlasov.kernel import ModelParams, make_polytrope
from gravlasov.radial import (PhaseDensity, RadialField, RadialGrid, SpeedGrid,
                              bump_density, density_moment,
                              distribution_function, ej_distance,
                              enclosed_mass, functionals, gradient_energy,
                              poisson_solve, read_csv, read_radial_field, write_csv,
                              write_phase_density, write_radial_field)
from gravlasov.rigidity import equimeasure_compare


def box_density(grid_r, grid_u, r_edge=1.0, u_edge=1.0, amp=1.0):
    rr, uu = np.meshgrid(grid_r.nodes, grid_u.nodes, indexing="ij")
    vals = amp * ((rr <= r_edge) & (uu <= u_edge)).astype(float)
    vals[-1, :] = 0.0
    vals[:, -1] = 0.0
    return PhaseDensity(grid_r=grid_r, grid_u=grid_u, values=vals)


@pytest.fixture(scope="module")
def grids():
    return RadialGrid(r_max=4.0, n=513), SpeedGrid(u_max=4.0, m=513)


def test_grid_invariants():
    g = RadialGrid(r_max=2.0, n=5)
    assert g.nodes[0] == 0.0
    assert g.nodes[-1] == 2.0
    assert np.all(np.diff(g.nodes) > 0)


@pytest.mark.parametrize("grid", [RadialGrid, SpeedGrid], ids=["RadialGrid", "SpeedGrid"])
def test_grid_node_checks(grid):
    for top, count in [(-1.0, 5), (0.0, 5), (math.nan, 5), (math.inf, 5), (2.0, 1)]:
        with pytest.raises(PreconditionError, match="2 or more nodes"):
            grid(top, count)
    with pytest.raises(TypeError):   # a grid is its maximum and node count
        grid(2.0, 5, nodes=np.linspace(0.0, 2.0, 5))
    assert np.array_equal(grid(2.0, 5).nodes, np.linspace(0.0, 2.0, 5))
    # grids compare and hash by value, whatever holds the numbers
    assert grid(2.0, 5) == grid(np.float64(2.0), np.int64(5))
    assert hash(grid(2.0, 5)) == hash(grid(np.float64(2.0), np.int64(5)))
    assert len({grid(2.0, 5), grid(2.0, 5), grid(2.0, 6), grid(2.5, 5)}) == 3


@pytest.mark.parametrize("column, match", [
    (2.0 * np.linspace(0.0, 1.0, 5) ** 2, "uniform nodes"),                    # not uniform
    ([0.0, 1.0, 0.5, 1.5, 2.0], "uniform nodes"),                              # not increasing
    ([0.0, 5.0, 1.0], "uniform nodes"),                                        # decreases
    ([2.0, 1.0, 0.0], "2 or more nodes"),                                      # ends at 0
    (np.linspace(0.1, 2.0, 5), "uniform nodes"),                               # starts past 0
    ([0.0, math.nan, 2.0], "uniform nodes"),
    ([0.0, 1.0, math.nan], "2 or more nodes"),
    ([0.0], "2 or more nodes"),
    ([0.0, 0.5, 1.0, 1.5, 2.1], "uniform nodes"),                              # last step long
    (np.linspace(0.0, 2.0, 5) + [0.0, 0.0, 1e-7, 0.0, 0.0], "uniform nodes"),  # off by 2e-7 h
], ids=["column0-uniform nodes", "column1-uniform nodes",
        "column2-uniform nodes", "column3-2 or more nodes",
        "column4-uniform nodes", "column5-uniform nodes",
        "column6-2 or more nodes", "column7-2 or more nodes",
        "column8-uniform nodes", "column9-uniform nodes"])
def test_read_radial_field_checks_its_r_column(tmp_path, column, match):
    path = tmp_path / "field.csv"
    write_csv(path, ["r", "value"], np.column_stack((column, np.zeros(len(column)))))
    with pytest.raises(PreconditionError, match=match):
        read_radial_field(path)


def test_radial_field_round_trip_gives_an_equal_grid(tmp_path):
    # 17 significant digits give every node back, so the grid read is equal
    grid = RadialGrid(r_max=20.0, n=4096)
    path = tmp_path / "field.csv"
    write_radial_field(path, RadialField(grid=grid, values=np.sin(grid.nodes)))
    back = read_radial_field(path)
    assert back.grid == grid and hash(back.grid) == hash(grid)
    assert back.grid.nodes.tobytes() == grid.nodes.tobytes()
    assert back.values.tobytes() == np.sin(grid.nodes).tobytes()
    # a column within 1e-8 h of the nodes reads as the same grid
    near = grid.nodes + 0.5e-8 * grid.h * np.sin(np.arange(grid.n))
    near[-1] = grid.r_max
    write_csv(path, ["r", "value"], np.column_stack((near, np.zeros(grid.n))))
    assert read_radial_field(path).grid == grid


@pytest.mark.parametrize("grid", [RadialGrid(r_max=1.0, n=2), RadialGrid(r_max=0.7, n=1000),
                                  RadialGrid(r_max=20.0, n=4096)], ids=lambda g: str(g.n))
def test_radial_field_writes_the_bytes_of_a_float_table(tmp_path, grid):
    # each file is the one the (r, value) float table gives, whatever the
    # values' dtype, with its radii formatted afresh or shared from radius_text
    n = grid.n
    fields = {
        "signed": np.where(np.arange(n) % 3 == 1, -0.0, np.sin(grid.nodes)),
        "special": np.resize([math.nan, -0.0, 5e-324, 1e-310, -math.inf, 3.0], n),
        "subnormal": 5e-324 * np.arange(n),
        "integer": np.arange(n) - n // 2,
        "float32": np.cos(grid.nodes).astype(np.float32),
    }
    r_text = radial.radius_text(grid)
    for name, values in fields.items():
        field_ = RadialField(grid=grid, values=values)
        write_radial_field(tmp_path / f"{name}.csv", field_)
        write_radial_field(tmp_path / f"{name}_shared.csv", field_, r_text)
        write_csv(tmp_path / f"{name}_table.csv", ["r", "value"],
                  np.column_stack((grid.nodes, values)))
        table = (tmp_path / f"{name}_table.csv").read_bytes()
        assert (tmp_path / f"{name}.csv").read_bytes() == table, name
        assert (tmp_path / f"{name}_shared.csv").read_bytes() == table, name


def test_phase_density_validation(grids):
    grid_r, grid_u = grids
    bad = np.ones((grid_r.n, grid_u.m))
    with pytest.raises(BoundaryConditionError, match="vanish"):
        PhaseDensity(grid_r=grid_r, grid_u=grid_u, values=bad)  # boundary not 0
    bad2 = np.zeros((grid_r.n, grid_u.m))
    bad2[3, 3] = -1.0
    with pytest.raises(PreconditionError, match="nonnegative"):
        PhaseDensity(grid_r=grid_r, grid_u=grid_u, values=bad2)
    for value in (math.nan, math.inf):   # an interior nan or inf, missed by v < 0
        bad3 = np.zeros((grid_r.n, grid_u.m))
        bad3[3, 3] = value
        with pytest.raises(PreconditionError, match=f"nonnegative, got values from .* to {value}"):
            PhaseDensity(grid_r=grid_r, grid_u=grid_u, values=bad3)


@pytest.mark.parametrize("name", ["r_scale", "u_scale"], ids=["r_scale", "u_scale"])
@pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf],
                         ids=["0.0", "-1.0", "nan", "inf"])
def test_bump_density_names_a_bad_scale(grids, name, scale):
    scales = {"r_scale": 0.5, "u_scale": 0.6} | {name: scale}
    with pytest.raises(PreconditionError, match=f"{name} must be positive and finite, "
                                                f"got {scale}"):
        bump_density(*grids, **scales)


@pytest.mark.parametrize("amplitude", [-1.0, math.nan], ids=["-1.0", "nan"])
def test_bump_density_names_a_bad_amplitude(grids, amplitude):
    with pytest.raises(PreconditionError, match="amplitude must be nonnegative and "
                                                f"finite, got {amplitude}"):
        bump_density(*grids, 0.5, 0.6, amplitude)


def test_from_callable_matches_meshgrid_bit_for_bit(state_p2_rel):
    # from_callable passes broadcast axes; the values must be those of the
    # full meshgrid, also for callables whose result does not span both axes
    grid_r, grid_u = state_p2_rel.phi.grid, state_p2_rel.speed_grid(257)
    r_edge, u_edge = 0.5 * grid_r.r_max, 0.5 * grid_u.u_max
    callables = [
        state_p2_rel.profile,
        lambda r, u: np.exp(-r * r - u * u) * (r < r_edge) * (u < u_edge),
        lambda r, u: np.maximum(1.0 - r / r_edge, 0.0) * (u < u_edge),
        lambda r, u: 0.0 * r,   # ignores u
        lambda r, u: 0.0,
    ]
    rr, uu = np.meshgrid(grid_r.nodes, grid_u.nodes, indexing="ij")
    for fn in callables:
        ref = np.zeros(rr.shape)
        ref[:] = np.maximum(np.asarray(fn(rr, uu), dtype=float), 0.0)
        ref[-1, :] = 0.0
        ref[:, -1] = 0.0
        got = PhaseDensity.from_callable(grid_r, grid_u, fn).values
        assert got.shape == ref.shape
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
    with pytest.raises(BoundaryConditionError, match="vanish"):   # nonzero at u_max
        PhaseDensity.from_callable(grid_r, grid_u,
                                   lambda r, u: np.maximum(1.0 - r / r_edge, 0.0))


def test_table_profile_is_linear_interpolation(bump_and_table):
    # a density read from its table alone evaluates off its grids by linear
    # interpolation, zero outside them and never negative
    f, table = bump_and_table
    assert np.array_equal(table.values, f.values)
    ref = RegularGridInterpolator((table.grid_r.nodes, table.grid_u.nodes),
                                  table.values, bounds_error=False,
                                  fill_value=0.0)
    r_nodes, u_nodes = table.grid_r.nodes, table.grid_u.nodes
    r_mid = 0.5 * (r_nodes[1:] + r_nodes[:-1])
    u_mid = 0.3 * u_nodes[1:] + 0.7 * u_nodes[:-1]
    probes = [(r_nodes[:, None], u_nodes[None, :]),           # at nodes
              (r_mid[:, None], u_mid[None, :]),               # between nodes
              (np.array([-0.1, 4.0, 4.5, 1e3]), 0.2),         # outside in r
              (0.1, np.array([-0.5, 3.0, 3.5])),              # outside in u
              (1.3, 0.4)]
    for r, u in probes:
        got = np.asarray(table.profile(r, u))
        want = np.maximum(ref(np.stack(np.broadcast_arrays(r, u), axis=-1)), 0.0)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.all(table.profile(np.array([4.5, 1e3]), 0.2) == 0.0)
    assert np.array_equal(table.profile(r_nodes[:, None], u_nodes[None, :]),
                          table.values)


def test_support_nodes(grids):
    grid_r, grid_u = grids
    zero = PhaseDensity(grid_r=grid_r, grid_u=grid_u,
                        values=np.zeros((grid_r.n, grid_u.m)))
    assert zero.support_nodes() is None
    f = box_density(grid_r, grid_u, r_edge=1.0, u_edge=2.0)
    i, j = f.support_nodes()
    assert grid_r.nodes[i] <= 1.0 < grid_r.nodes[i + 1]
    assert grid_u.nodes[j] <= 2.0 < grid_u.nodes[j + 1]


def test_density_moment_zero(grids):
    grid_r, grid_u = grids
    f = PhaseDensity(grid_r=grid_r, grid_u=grid_u,
                     values=np.zeros((grid_r.n, grid_u.m)))
    assert np.all(density_moment(f).values == 0.0)


def test_density_moment_box(grids):
    grid_r, grid_u = grids
    f = box_density(*grids)
    rho = density_moment(f)
    h = grid_u.h
    inside = grid_r.nodes < 1.0
    # indicator integrand: the jump cell carries an O(h) binning error
    assert_allclose(rho.values[inside], 4.0 * math.pi / 3.0, rtol=4.0 * h)
    assert np.all(rho.values[grid_r.nodes > 1.0 + 2 * grid_r.h] == 0.0)


def test_poisson_uniform_ball():
    grid = RadialGrid(r_max=8.0, n=2049)
    rho_vals = np.where(grid.nodes < 1.0, 1.0, 0.0)
    phi = poisson_solve(RadialField(grid=grid, values=rho_vals))
    h = grid.h
    assert phi.values[0] == pytest.approx(-0.5, rel=4 * h)
    outside = grid.nodes > 1.5
    assert_allclose(phi.values[outside],
                    -1.0 / (3.0 * grid.nodes[outside]), rtol=4 * h)


def test_poisson_zero_and_shape_checks():
    grid = RadialGrid(r_max=2.0, n=65)
    phi = poisson_solve(RadialField(grid=grid, values=np.zeros(65)))
    assert np.all(phi.values == 0.0)
    touching = np.ones(65)
    negative = np.zeros(65)
    negative[3] = -1.0
    for solve in (poisson_solve, gradient_energy):  # one check of the source
        with pytest.raises(BoundaryConditionError):
            solve(RadialField(grid=grid, values=touching))
        with pytest.raises(PreconditionError, match="nonnegative"):
            solve(RadialField(grid=grid, values=negative))


@pytest.mark.parametrize("potential", [lambda r: -1.0 / (1.0 + r) - 0.5 * r,
                                       lambda r: 1.0 / (1.0 + r)],
                         ids=["<lambda>0", "<lambda>1"])
def test_poisson_breakdown_is_numerics_error(monkeypatch, potential):
    # a decreasing or a positive potential is a numerical breakdown, which
    # the CLI reports as a named failure
    grid = RadialGrid(r_max=2.0, n=65)
    monkeypatch.setattr(radial, "poisson_operator",
                        lambda grid_, source: potential(grid_.nodes))
    with pytest.raises(NumericsError, match="potential"):
        poisson_solve(RadialField(grid=grid, values=np.zeros(65)))


def test_poisson_enclosed_mass_identity(grids):
    # m(r_max) is the full integral of s^2 rho, and phi(r_max) the vacuum
    # potential -m(r_max)/r_max of that mass
    grid_r, grid_u = grids
    f = bump_density(grid_r, grid_u, r_scale=0.4, u_scale=0.5)
    rho = density_moment(f)
    m = enclosed_mass(grid_r, rho.values)
    assert m[0] == 0.0
    assert m[-1] == pytest.approx(simpson(grid_r.nodes ** 2 * rho.values, x=grid_r.nodes),
                                  rel=1e-12)
    assert poisson_solve(rho).values[-1] == pytest.approx(-m[-1] / grid_r.r_max, rel=1e-12)


def test_poisson_operator_is_one_cumulative_pass(monkeypatch):
    # phi(r) = -m(r)/r - int_r^r_max s rho ds: one cumulative Simpson call gives
    # m, bit for bit the enclosed mass, and the outer moment; checked against
    # the exact potential of rho = (1 - r^2)_+^2
    results = []
    cumulative = radial.cumulative_simpson

    def recorded(*args, **kwargs):
        results.append(cumulative(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(radial, "cumulative_simpson", recorded)
    grid = RadialGrid(r_max=4.0, n=1025)
    r = grid.nodes
    rho = np.clip(1.0 - r * r, 0.0, None) ** 2
    phi = radial.poisson_operator(grid, rho)
    assert len(results) == 1
    assert np.array_equal(results[0][0], enclosed_mass(grid, rho))
    inside = -(r ** 2 / 3 - 2 * r ** 4 / 5 + r ** 6 / 7) - (1 - r * r) ** 3 / 6
    exact = np.where(r < 1.0, inside, -(8 / 105) / np.maximum(r, 1.0))
    assert np.max(np.abs(phi - exact)) < 8e-10


def test_poisson_output_monotone_nonpositive(grids):
    grid_r, grid_u = grids
    f = bump_density(grid_r, grid_u, r_scale=0.4, u_scale=0.5)
    phi = poisson_solve(density_moment(f))
    assert np.all(np.diff(phi.values) >= -1e-15)
    assert np.all(phi.values <= 1e-15)


def test_gradient_energy_ball_and_identity():
    grid = RadialGrid(r_max=8.0, n=2049)
    rho_vals = np.where(grid.nodes < 1.0, 1.0, 0.0)
    # closed form for the unit ball: 4 pi / 15
    assert gradient_energy(RadialField(grid=grid, values=rho_vals)) == pytest.approx(
        4.0 * math.pi / 15.0, rel=4 * grid.h)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(width=strategies.floats(0.3, 1.2))
def test_gradient_energy_two_routes_agree(width):
    # (1/2) int |grad phi|^2 = -(1/2) int phi rho by parts, phi from the
    # Poisson solve: the enclosed-mass route and the virial route agree
    grid = RadialGrid(r_max=10.0, n=2049)
    r = grid.nodes
    rho_vals = np.exp(-((r / width) ** 2))
    rho_vals[r > 6.5 * width] = 0.0   # tail below 1e-18 there; support clear of r_max
    rho = RadialField(grid=grid, values=rho_vals)
    e_virial = -0.5 * 4.0 * math.pi * np.trapezoid(r * r * poisson_solve(rho).values
                                                    * rho_vals, r)
    assert gradient_energy(rho) == pytest.approx(e_virial, rel=1e-8)


def test_functionals_box(grids):
    grid_r, grid_u = grids
    spec = make_polytrope(2.0)
    f = box_density(*grids)
    rep = functionals(f, spec, ModelParams())
    h = max(grid_r.h, grid_u.h)
    assert rep.m1 == pytest.approx(16.0 * math.pi ** 2 / 9.0, rel=6 * h)
    assert rep.mj == pytest.approx(rep.m1, rel=1e-12)  # j(1) = 1
    assert rep.ekin == pytest.approx(16.0 * math.pi ** 2 / 30.0, rel=6 * h)
    assert rep.hc == rep.ekin - rep.epot
    assert rep.ej_norm == rep.m1 + rep.mj + rep.ekin


def test_functionals_zero(grids):
    grid_r, grid_u = grids
    spec = make_polytrope(2.0)
    f = PhaseDensity(grid_r=grid_r, grid_u=grid_u,
                     values=np.zeros((grid_r.n, grid_u.m)))
    rep = functionals(f, spec, ModelParams(c=2.0))
    assert rep.m1 == rep.mj == rep.ekin == rep.epot == 0.0


def test_refinement_order_on_smooth_density():
    # coarse grids keep the discretization error above roundoff
    spec = make_polytrope(2.0)
    params = ModelParams()
    values = {}
    for n in (17, 33, 1025):
        gr = RadialGrid(r_max=6.0, n=n)
        gu = SpeedGrid(u_max=6.0, m=n)
        rep = functionals(bump_density(gr, gu, 0.7, 0.7), spec, params)
        values[n] = np.array([rep.m1, rep.mj, rep.ekin, rep.epot])
    err_c = np.abs(values[17] - values[1025])
    err_f = np.abs(values[33] - values[1025])
    order = np.log2(err_c / np.maximum(err_f, 1e-300))
    assert np.all(order >= 1.8)


def test_distribution_function_examples(grids):
    grid_r, grid_u = grids
    f0 = PhaseDensity(grid_r=grid_r, grid_u=grid_u,
                      values=np.zeros((grid_r.n, grid_u.m)))
    assert np.all(distribution_function(f0, [0.5, 1.0]) == 0.0)
    f = box_density(grid_r, grid_u, amp=2.0)
    vol = distribution_function(f, [1.0])[0]
    h = max(grid_r.h, grid_u.h)
    assert vol == pytest.approx(16.0 * math.pi ** 2 / 9.0, rel=5 * h)


def test_distribution_function_monotone(grids):
    grid_r, grid_u = grids
    f = bump_density(grid_r, grid_u, 0.6, 0.8, amplitude=3.0)
    levels = np.geomspace(1e-3, 3.0, 40)
    dist = distribution_function(f, levels)
    assert np.all(np.diff(dist) <= 0.0)
    # right continuity: nudging the level up by epsilon cannot raise the volume
    nudged = distribution_function(f, levels * (1 + 1e-12))
    assert np.all(nudged <= dist + 1e-15)


def test_distribution_function_validates_levels(grids):
    f = bump_density(*grids, 0.6, 0.8)
    with pytest.raises(PreconditionError, match="positive"):
        distribution_function(f, [-1.0, 1.0])
    with pytest.raises(PreconditionError, match="sorted"):
        distribution_function(f, [2.0, 1.0])
    for levels in ([], [0.5, math.nan], [0.5, math.inf]):
        with pytest.raises(PreconditionError, match="nonempty and finite"):
            distribution_function(f, levels)
        with pytest.raises(PreconditionError, match="nonempty and finite"):
            equimeasure_compare(f, f, levels)


def test_ej_distance_properties(grids):
    grid_r, grid_u = grids
    spec = make_polytrope(2.0)
    params = ModelParams(c=1.0)
    f = bump_density(grid_r, grid_u, 0.5, 0.6)
    g = bump_density(grid_r, grid_u, 0.7, 0.4)
    zero = PhaseDensity(grid_r=grid_r, grid_u=grid_u,
                        values=np.zeros((grid_r.n, grid_u.m)))
    assert ej_distance(f, f, spec, params) == 0.0
    assert ej_distance(f, g, spec, params) == pytest.approx(
        ej_distance(g, f, spec, params), rel=1e-14)
    rep = functionals(f, spec, params)
    assert ej_distance(f, zero, spec, params) == pytest.approx(rep.ej_norm,
                                                               rel=1e-10)
    other = bump_density(RadialGrid(r_max=4.0, n=129),
                         SpeedGrid(u_max=4.0, m=129), 0.5, 0.6)
    with pytest.raises(GridMismatchError):
        ej_distance(f, other, spec, params)


def test_csv_roundtrip(tmp_path, grids):
    grid_r, grid_u = grids
    f = bump_density(grid_r, grid_u, 0.5, 0.6)
    rho = density_moment(f)
    path = tmp_path / "rho.csv"
    write_radial_field(path, rho)
    back = read_radial_field(path)
    assert_allclose(back.values, rho.values, rtol=0, atol=0)
    assert_allclose(back.grid.nodes, rho.grid.nodes)

    small = PhaseDensity.from_callable(RadialGrid(r_max=3.0, n=33),
                                       SpeedGrid(u_max=2.0, m=17),
                                       lambda r, u: np.maximum(
                                           (1 - r / 3.0) * (1 - u / 2.0)
                                           * (r < 2.5) * (u < 1.5), 0.0))
    fpath = tmp_path / "f.csv"
    write_phase_density(fpath, small)
    back_f = read_csv(fpath, ["r", "u", "f"])[:, 2].reshape(small.values.shape)
    assert_allclose(back_f, small.values, rtol=0, atol=0)


def reference_csv(path, header, rows):
    """The plain CSV writer the fast writers must match byte for byte:
    csv.writer with floats formatted one at a time as .17g."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([f"{v:.17g}" if isinstance(v, float) else v
                          for v in row] for row in rows)


def assert_phase_density_bytes(f, directory):
    fast, ref = directory / "f.csv", directory / "ref.csv"
    write_phase_density(fast, f)
    u_nodes = f.grid_u.nodes.tolist()
    reference_csv(ref, ["r", "u", "f"],
                  ((r, u, v) for r, row in zip(f.grid_r.nodes.tolist(), f.values)
                   for u, v in zip(u_nodes, row.tolist())))
    assert fast.read_bytes() == ref.read_bytes()


def test_phase_density_bytes_match_reference(tmp_path):
    # nodes that need 17 digits (0.7/8 prints 0.087499999999999994)
    grid_r, grid_u = RadialGrid(r_max=0.7, n=9), SpeedGrid(u_max=1.3, m=7)
    vals = np.zeros((9, 7))          # rows 0, 4 and 7 stay all zero
    vals[1] = [1.0, 0.0, 0.1, 0.0, 1.0 / 3.0, 2.0 ** -0.5, 0.0]
    vals[2, :3] = [5e-324, 2.2250738585072009e-308, 1e300]   # subnormals
    vals[3, 2:5] = [-0.0, 123456789.12345679, -0.0]
    vals[5, 0] = 0.30000000000000004
    vals[6, 3] = math.pi
    vals[8, 1] = -0.0                # admitted on the vanishing edge too
    f = PhaseDensity(grid_r=grid_r, grid_u=grid_u, values=vals)
    assert_phase_density_bytes(f, tmp_path)
    text = (tmp_path / "f.csv").read_bytes().decode()
    assert ",-0\r\n" in text and ",1\r\n" in text and ",4.9406564584124654e-324" in text


_entries = strategies.one_of(
    strategies.just(0.0), strategies.just(-0.0), strategies.just(1.0),
    strategies.floats(min_value=0.0, max_value=1e300, allow_subnormal=True),
    strategies.floats(min_value=0.0, max_value=1e-300, allow_subnormal=True))


@settings(max_examples=60, deadline=None)
@given(shape=strategies.tuples(strategies.integers(2, 9), strategies.integers(2, 9)),
       r_max=strategies.floats(1e-3, 1e3), u_max=strategies.floats(1e-3, 1e3),
       data=strategies.data())
def test_phase_density_bytes_match_reference_random(tmp_path_factory, shape, r_max,
                                                    u_max, data):
    vals = data.draw(arrays(np.float64, shape, elements=_entries))
    vals[-1, :] = 0.0
    vals[:, -1] = 0.0
    f = PhaseDensity(grid_r=RadialGrid(r_max=r_max, n=shape[0]),
                     grid_u=SpeedGrid(u_max=u_max, m=shape[1]), values=vals)
    assert_phase_density_bytes(f, tmp_path_factory.mktemp("f"))


def test_float_tables_match_reference(tmp_path):
    rng = np.random.default_rng(3)
    grid = RadialGrid(r_max=0.7, n=1000)   # more rows than one write chunk
    values = rng.standard_normal(1000) * 10.0 ** rng.integers(-320, 300, 1000)
    values[::7] = 0.0
    values[1::7] = -0.0
    write_radial_field(tmp_path / "phi.csv", RadialField(grid=grid, values=values))
    reference_csv(tmp_path / "phi_ref.csv", ["r", "value"],
                  zip(grid.nodes.tolist(), values.tolist()))
    assert (tmp_path / "phi.csv").read_bytes() == (tmp_path / "phi_ref.csv").read_bytes()

    ens = ParticleEnsemble(positions=rng.standard_normal((300, 3)),
                           velocities=rng.standard_normal((300, 3)) / 3.0,
                           weights=rng.random(300), f_values=rng.random(300),
                           params=ModelParams(c=1.0))
    ensemble_to_csv(tmp_path / "ens.csv", ens)
    table = np.column_stack((ens.positions, ens.velocities, ens.weights, ens.f_values))
    reference_csv(tmp_path / "ens_ref.csv", ["x", "y", "z", "vx", "vy", "vz", "w", "f"],
                  table.tolist())
    assert (tmp_path / "ens.csv").read_bytes() == (tmp_path / "ens_ref.csv").read_bytes()

    # rows of mixed types, shaped as scan writes them, across a chunk boundary
    def scan_rows():
        for k in range(600):
            error = "" if k % 3 else "SupportExceedsGridError"
            yield (0.1 * k, math.nan, -0.0, np.float64(values[k]), error)

    # and as bootstrap writes them; an empty table is its header alone
    for name, header, rows in (
            ("scan", ["psi0", "lambda", "m1", "mj", "error"], scan_rows),
            ("boot", ["k", "q_k"], lambda: enumerate(values[:40].tolist())),
            ("empty", ["a", "b"], lambda: iter(()))):
        write_csv(tmp_path / f"{name}.csv", header, rows())
        reference_csv(tmp_path / f"{name}_ref.csv", header, rows())
        assert (tmp_path / f"{name}.csv").read_bytes() == \
            (tmp_path / f"{name}_ref.csv").read_bytes()
    assert (tmp_path / "empty.csv").read_bytes() == b"a,b\r\n"
    assert b",nan,-0," in (tmp_path / "scan.csv").read_bytes()
