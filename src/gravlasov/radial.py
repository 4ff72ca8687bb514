"""Radial grids, phase-space densities, the radial Poisson solver, and moments.

Phase densities are radial in space and isotropic in velocity: f = f(r, u)
with r = |x|, u = |v|. Integrals over the full six-dimensional phase space use
the weight 16 pi^2 r^2 u^2 dr du; space-only integrals use 4 pi r^2 dr. The
Poisson convention is Laplacian(phi) = rho with phi -> 0 at infinity, i.e.
phi = -(1/(4 pi |x|)) * rho in convolution form.

One Poisson operator: phi' = m/r^2 with m(r) = int_0^r s^2 rho ds (enclosed_mass)
gives, by parts, poisson_operator's phi(r) = -m(r)/r - int_r^r_max s rho ds, and
field_energy's (1/2) int |grad phi|^2 dx = 2 pi int m^2/r^2 dr.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import cumulative_simpson, simpson
from scipy.interpolate import RegularGridInterpolator

from .errors import (BoundaryConditionError, GridMismatchError, NumericsError,
                     PreconditionError)
from .kernel import CasimirSpec, FunctionalReport, ModelParams, kinetic_weight

__all__ = [
    "RadialGrid",
    "SpeedGrid",
    "RadialField",
    "PhaseDensity",
    "density_moment",
    "enclosed_mass",
    "field_energy",
    "poisson_operator",
    "poisson_solve",
    "gradient_energy",
    "functionals",
    "distribution_function",
    "ej_distance",
    "bump_density",
    "write_csv",
    "write_json",
    "read_csv",
    "radius_text",
    "write_radial_field",
    "read_radial_field",
    "write_phase_density",
]


def _uniform_nodes(top: float, count: int) -> np.ndarray:
    """linspace(0, top, count) for a positive finite maximum and 2 or more nodes."""
    if not (0 < top < math.inf and count >= 2):
        raise PreconditionError(
            f"need a positive finite maximum and 2 or more nodes, got {top}, {count}")
    return np.linspace(0.0, top, count)


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid on [0, r_max] with n nodes, equal and hashed by (r_max, n)."""

    r_max: float
    n: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "nodes", _uniform_nodes(self.r_max, self.n))

    @property
    def h(self) -> float:
        return self.r_max / (self.n - 1)


@dataclass(frozen=True)
class SpeedGrid:
    """Uniform speed grid on [0, u_max] with m nodes, equal and hashed by (u_max, m)."""

    u_max: float
    m: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "nodes", _uniform_nodes(self.u_max, self.m))

    @property
    def h(self) -> float:
        return self.u_max / (self.m - 1)


@dataclass(frozen=True)
class RadialField:
    """Values of a scalar radial function on a RadialGrid."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        if len(self.values) != self.grid.n:
            raise GridMismatchError("field length does not match grid")


@dataclass(frozen=True)
class PhaseDensity:
    """Tabulated finite f(r, u) >= 0 with compact support strictly inside the grids.

    ``profile`` evaluates f at any (r, u): the analytic map the table was
    built from, which spares transforms the resampling error, or else the
    table's linear interpolation, zero outside the grids and clamped at 0.
    """

    grid_r: RadialGrid
    grid_u: SpeedGrid
    values: np.ndarray
    profile: Optional[Callable] = None

    def __post_init__(self):
        v = self.values
        if v.shape != (self.grid_r.n, self.grid_u.m):
            raise GridMismatchError("values shape does not match grids")
        lo, hi = np.min(v), np.max(v)  # nan if any value is nan
        if not (lo >= 0 and hi < math.inf):
            raise PreconditionError("phase density must be finite and nonnegative, "
                                    f"got values from {lo} to {hi}")
        if np.any(v[-1, :] != 0) or np.any(v[:, -1] != 0):
            raise BoundaryConditionError("phase density must vanish at r_max and u_max")
        if self.profile is None:
            interp = RegularGridInterpolator((self.grid_r.nodes, self.grid_u.nodes),
                                             v, bounds_error=False, fill_value=0.0)
            object.__setattr__(self, "profile", lambda r, u: np.maximum(
                interp(np.stack(np.broadcast_arrays(r, u), axis=-1)), 0.0))

    def support_nodes(self) -> Optional[tuple]:
        """Indices of the last radius node and of the last speed node where
        f > 0; None when f vanishes everywhere."""
        i, j = np.nonzero(self.values > 0)
        return (int(i.max()), int(j.max())) if len(i) else None

    @classmethod
    def from_callable(cls, grid_r: RadialGrid, grid_u: SpeedGrid,
                      fn: Callable) -> "PhaseDensity":
        # broadcast axes: fn evaluates what depends on r alone once per radius
        v = np.asarray(fn(grid_r.nodes[:, None], grid_u.nodes[None, :]), dtype=float)
        v = np.maximum(np.broadcast_to(v, (grid_r.n, grid_u.m)), 0.0)
        edge = max(float(np.max(v[-1, :], initial=0.0)), float(np.max(v[:, -1], initial=0.0)))
        if edge > 1e-10 * max(float(np.max(v)), 1e-300):
            raise BoundaryConditionError("callable does not vanish at the grid boundary")
        v[-1, :] = 0.0
        v[:, -1] = 0.0
        return cls(grid_r=grid_r, grid_u=grid_u, values=v, profile=fn)


def density_moment(f: PhaseDensity) -> RadialField:
    """Spatial density rho(r) = 4 pi int u^2 f(r, u) du."""
    u = f.grid_u.nodes
    rho = 4.0 * np.pi * simpson(f.values * u * u, x=u, axis=1)
    rho = np.maximum(rho, 0.0)
    return RadialField(grid=f.grid_r, values=rho)


def enclosed_mass(grid: RadialGrid, source: np.ndarray) -> np.ndarray:
    """Enclosed-mass integral m(r) = int_0^r s^2 source(s) ds at every node,
    by scipy's cumulative Simpson rule for equal intervals."""
    r = grid.nodes
    return cumulative_simpson(r * r * source, dx=grid.h, initial=0.0)


def field_energy(grid: RadialGrid, m: np.ndarray) -> float:
    """Field energy (1/2) int |grad phi|^2 dx = 2 pi int m^2/r^2 dr of phi' = m/r^2:
    Simpson's rule to r_max plus the exact vacuum tail 2 pi m(r_max)^2/r_max."""
    r = grid.nodes
    m_r = np.divide(m, r, out=np.zeros_like(m), where=r > 0)  # m ~ r^3 at the centre
    return float(2.0 * np.pi * (simpson(m_r * m_r, dx=grid.h) + m[-1] ** 2 / r[-1]))


def poisson_operator(grid: RadialGrid, source: np.ndarray) -> np.ndarray:
    """Potential of an arbitrary (possibly signed) radial source, unchecked.

    phi' = m/r^2 by parts: phi(r) = -m(r)/r - int_r^r_max s source(s) ds, with
    m (the enclosed_mass integral) and the outer moment from one cumulative Simpson
    pass; phi(r_max) = -m(r_max)/r_max matches the vacuum -m/r of a compact source.
    """
    r = grid.nodes
    m, outer = cumulative_simpson(np.stack((r * r * source, r * source)),
                                  dx=grid.h, initial=0.0)
    m_r = np.divide(m, r, out=np.zeros_like(m), where=r > 0)
    return -m_r - (outer[-1] - outer)


def _checked_source(rho: RadialField) -> np.ndarray:
    """rho's values, checked to be nonnegative and zero at the last two nodes."""
    vals = np.asarray(rho.values, dtype=float)
    if np.any(vals < 0):
        raise PreconditionError("density must be nonnegative")
    if vals[-1] != 0.0 or vals[-2] != 0.0:
        raise BoundaryConditionError("density support touches r_max; enlarge the grid")
    return vals


def poisson_solve(rho: RadialField) -> RadialField:
    """Solve (r^2 phi')' = r^2 rho with phi -> 0 at infinity.

    Applies poisson_operator to a nonnegative density whose support stays
    inside the grid, and checks that the potential is negative and increasing.
    """
    phi = poisson_operator(rho.grid, _checked_source(rho))
    if np.any(np.diff(phi) < -1e-12 * max(abs(phi[0]), 1.0)):
        raise NumericsError("poisson_solve produced a decreasing potential")
    if np.any(phi > 1e-12 * max(abs(phi[0]), 1.0)):
        raise NumericsError("poisson_solve produced a positive potential")
    return RadialField(grid=rho.grid, values=phi)


def gradient_energy(rho: RadialField) -> float:
    """Field energy (1/2) int |grad phi|^2 dx of a density's potential, read from
    its enclosed mass after poisson_solve's source checks; phi is not formed."""
    return field_energy(rho.grid, enclosed_mass(rho.grid, _checked_source(rho)))


def _phase_integral(f: PhaseDensity, integrand: np.ndarray) -> float:
    """16 pi^2 double Simpson of integrand(r, u) * r^2 u^2 over the grids."""
    r = f.grid_r.nodes
    u = f.grid_u.nodes
    inner = simpson(integrand * (u * u)[None, :], x=u, axis=1)
    return float(16.0 * np.pi ** 2 * simpson(inner * r * r, x=r))


def functionals(f: PhaseDensity, spec: CasimirSpec, params: ModelParams) -> FunctionalReport:
    """Mass, Casimir mass, kinetic and field energies of a tabulated density."""
    gam = kinetic_weight(params, f.grid_u.nodes)
    m1 = _phase_integral(f, f.values)
    mj = _phase_integral(f, np.asarray(spec.j(f.values), dtype=float))
    ekin = _phase_integral(f, f.values * gam[None, :])
    epot = gradient_energy(density_moment(f))
    return FunctionalReport.from_parts(m1=m1, mj=mj, ekin=ekin, epot=epot)


def _cell_volumes(grid_r: RadialGrid, grid_u: SpeedGrid) -> np.ndarray:
    """Phase-space volume assigned to each node (midpoint cell convention)."""
    def radial_cells(nodes):
        edges = np.concatenate(([nodes[0]], 0.5 * (nodes[1:] + nodes[:-1]), [nodes[-1]]))
        return (edges[1:] ** 3 - edges[:-1] ** 3) / 3.0

    vr = radial_cells(grid_r.nodes)
    vu = radial_cells(grid_u.nodes)
    return 16.0 * np.pi ** 2 * np.outer(vr, vu)


def distribution_function(f: PhaseDensity, levels) -> np.ndarray:
    """Phase-space volume of the super-level sets {f > t} for each level t.

    Nonincreasing and right-continuous in t by construction (finite table).
    """
    levels = np.asarray(levels, dtype=float)
    if levels.size == 0 or not np.all(np.isfinite(levels)):
        raise PreconditionError(f"levels must be nonempty and finite, got {levels.tolist()}")
    if np.any(levels <= 0):
        raise PreconditionError("levels must be positive")
    if np.any(np.diff(levels) < 0):
        raise PreconditionError("levels must be sorted increasing")
    vols = _cell_volumes(f.grid_r, f.grid_u).ravel()
    vals = f.values.ravel()
    order = np.argsort(vals)[::-1]
    sorted_vals = vals[order]
    cum = np.concatenate(([0.0], np.cumsum(vols[order])))
    # number of entries with value > t
    counts = np.searchsorted(-sorted_vals, -levels, side="left")
    return cum[counts]


def ej_distance(f: PhaseDensity, g: PhaseDensity, spec: CasimirSpec,
                params: ModelParams) -> float:
    """Energy-space distance |f-g|_1 + |j(|f-g|)|_1 + |gamma_c (f-g)|_1."""
    if (f.grid_r, f.grid_u) != (g.grid_r, g.grid_u):
        raise GridMismatchError("phase densities live on different grids")
    d = np.abs(f.values - g.values)
    gam = kinetic_weight(params, f.grid_u.nodes)
    return (_phase_integral(f, d)
            + _phase_integral(f, np.asarray(spec.j(d), dtype=float))
            + _phase_integral(f, d * gam[None, :]))


def bump_density(grid_r: RadialGrid, grid_u: SpeedGrid, r_scale: float,
                 u_scale: float, amplitude: float = 1.0) -> PhaseDensity:
    """Smooth compactly supported test bump.

    f = A (exp(-s) - exp(-s_cut))_+ with s = (r/r_scale)^2 + (u/u_scale)^2 and
    the cut placed at 90% of the grid box, so f vanishes strictly inside the
    boundary. For grids with r_max >= 6 r_scale the kink at the cut is below
    double precision and the bump is effectively smooth.
    """
    for name, scale in (("r_scale", r_scale), ("u_scale", u_scale)):
        if not 0 < scale < math.inf:
            raise PreconditionError(f"{name} must be positive and finite, got {scale}")
    s_cut = min((0.9 * grid_r.r_max / r_scale) ** 2,
                (0.9 * grid_u.u_max / u_scale) ** 2)
    floor = np.exp(-s_cut)

    def fn(r, u):
        s = (r / r_scale) ** 2 + (u / u_scale) ** 2
        return amplitude * np.maximum(np.exp(-s) - floor, 0.0)

    return PhaseDensity.from_callable(grid_r, grid_u, fn)


# --- CSV and JSON serialization (17 significant digits, plot-ready) ---

# The one dialect of every table: csv.writer's default separator and line end,
# floats with 17 significant digits.
_SEP, _EOL, _FLOAT = ",", "\r\n", "{:.17g}"
_CHUNK_ROWS = 256  # rows per write; larger chunks raise peak RSS


def _new_file(path):
    """Open a new text file at path, creating its parent directory."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return open(path, "w", newline="")


def write_csv(path, header, rows) -> None:
    """Write a header line and then one line per row.

    Floats get 17 significant digits, anything else its str(); the line
    template is built from the first row's types, so each column keeps one
    type. rows is any iterable of rows or a 2-D float array; either is
    formatted a chunk of rows at a time, so a large table streams.
    """
    if isinstance(rows, np.ndarray):
        chunks = (rows[i:i + _CHUNK_ROWS].tolist()
                  for i in range(0, len(rows), _CHUNK_ROWS))
    else:
        rows = iter(rows)
        chunks = iter(lambda: list(itertools.islice(rows, _CHUNK_ROWS)), [])
    with _new_file(path) as fh:
        fh.write(_SEP.join(header) + _EOL)
        line = None
        for chunk in chunks:
            if line is None:
                line = _SEP.join([_FLOAT if isinstance(v, float) else "{}"
                                  for v in chunk[0]]) + _EOL
            fh.write("".join([line.format(*row) for row in chunk]))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


def write_json(path, doc) -> None:
    """Write doc as indented JSON with sorted keys and a final newline.

    numpy scalars and arrays become plain numbers and lists, and an infinite
    float becomes the string "inf" or "-inf", which float() reads back.
    """
    with _new_file(path) as fh:
        json.dump(_jsonable(doc), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_csv(path, header) -> np.ndarray:
    """Numeric table of a CSV with the given header, one row per line."""
    with open(path, newline="") as fh:
        found = next(csv.reader(fh), None)
        if found != list(header):
            raise PreconditionError(f"unexpected header in {path}: {found}")
        return np.loadtxt(fh, delimiter=",", ndmin=2).reshape(-1, len(header))


def radius_text(grid: RadialGrid) -> list:
    """The grid's nodes as write_csv writes a float."""
    return list(map(_FLOAT.format, grid.nodes.tolist()))


def write_radial_field(path, field_: RadialField, r_text=None) -> None:
    """Write (r, value) rows; r_text, the grid's radius_text, lets fields on
    one grid format their radii once."""
    if r_text is None:
        r_text = radius_text(field_.grid)
    values = np.asarray(field_.values, dtype=float).tolist()
    write_csv(path, ["r", "value"], zip(r_text, values))


def read_radial_field(path) -> RadialField:
    """A write_radial_field file, whose r column is its grid's nodes to 1e-8 h."""
    data = read_csv(path, ["r", "value"])
    grid = RadialGrid(r_max=float(data[-1, 0]), n=len(data))
    if not np.all(np.abs(data[:, 0] - grid.nodes) <= 1e-8 * grid.h):
        raise PreconditionError(f"{path}: r is not {grid.n} uniform nodes to {grid.r_max}")
    return RadialField(grid=grid, values=data[:, 1])


def write_phase_density(path, f: PhaseDensity) -> None:
    """Write one r,u,f line per grid node, r slowest."""
    r, u = np.meshgrid(f.grid_r.nodes, f.grid_u.nodes, indexing="ij")
    write_csv(path, ["r", "u", "f"],
              np.column_stack((r.ravel(), u.ravel(), f.values.ravel())))
