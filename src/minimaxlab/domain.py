"""Problem specification, grid construction, quadrature, and potential evaluation.

The continuum problem lives on R^N; we truncate to the box [-L, L]^N with
zero Dirichlet boundary. All states of interest decay exponentially, so the
truncation error is exponentially small in L and can be probed by doubling L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

W_FAMILIES = ("zero", "exponential", "bump", "table")

# Refuse grids that would not fit comfortably in memory (float64 nodes).
MAX_GRID_NODES = 80_000_000


class DomainError(ValueError):
    """Invalid problem specification or grid request."""


@dataclass(frozen=True)
class WSpec:
    """Descriptor of the potential perturbation W, with V = Vinf - W.

    Families:
      zero         -- W = 0 (autonomous problem)
      exponential  -- W = c * exp(-a |x|)
      bump         -- compact bump W = c * (1 - (|x|/a)^2)^2 for |x| < a
      table        -- tabulated on the grid, loaded from `table_path`; the
                      table's grid must be the run's grid
    """

    family: str = "zero"
    c: float = 0.0
    a: float = 1.0
    table_path: str | None = None

    def __post_init__(self):
        if self.family not in W_FAMILIES:
            raise DomainError(f"unknown W family {self.family!r}, expected one of {W_FAMILIES}")
        if self.family == "table" and not self.table_path:
            raise DomainError("table W family requires table_path")
        if not (math.isfinite(self.c) and math.isfinite(self.a)):
            raise DomainError(f"W parameters must be finite, got c={self.c}, a={self.a}")
        if self.a <= 0:  # the decay rate or the bump radius
            raise DomainError(f"W parameter a must be positive, got {self.a}")


@dataclass(frozen=True)
class ProblemSpec:
    """Parameters of -Delta u + V(x) u = lambda |u|^(p-2) u on the unit L^p sphere.

    Derived exponents: q = p/(p-2) (dual exponent of the level algebra) and
    sigma = (p-2)/p = 1/q, so that 2^sigma scales the second level.
    """

    N: int = 2
    p: float = 4.0
    Vinf: float = 1.0
    W: WSpec = field(default_factory=WSpec)
    L: float = 16.0
    h: float = 0.125

    def __post_init__(self):
        if self.N < 2:
            raise DomainError("spatial dimension must be at least 2")
        if self.N not in (2, 3):
            raise DomainError("only N = 2 or 3 supported")
        for name, value in (("p", self.p), ("Vinf", self.Vinf), ("L", self.L), ("h", self.h)):
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
        if not self.p > 2:
            raise DomainError("exponent p must exceed 2")
        if self.N >= 3 and self.p >= 2 * self.N / (self.N - 2):
            raise DomainError("p must lie below the critical exponent 2N/(N-2)")
        if not self.Vinf > 0:
            raise DomainError("Vinf must be positive")
        if self.L <= 0 or self.h <= 0:
            raise DomainError("L and h must be positive")
        ratio = self.L / self.h
        if abs(ratio - round(ratio)) > 1e-9 * ratio:
            raise DomainError("L/h must be an integer")

    @property
    def q(self) -> float:
        return self.p / (self.p - 2)

    @property
    def sigma(self) -> float:
        return (self.p - 2) / self.p


class Grid:
    """Uniform Cartesian grid on [-L, L]^N, symmetric about the origin.

    Boundary nodes carry Dirichlet zeros; the quadrature weight is h^N per
    node (boundary values vanish, so including them is harmless).
    """

    def __init__(self, N: int, L: float, h: float):
        m = round(L / h)
        self.N = N
        self.L = float(L)
        self.h = float(h)
        self.axis = h * np.arange(-m, m + 1)  # exactly odd, so radial data is exactly even
        self.shape = (2 * m + 1,) * N
        self.origin_index = (m,) * N
        self.weight = h ** N

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    def coords(self):
        """Meshgrid of node coordinates, one array per axis (ij indexing)."""
        return np.meshgrid(*([self.axis] * self.N), indexing="ij")

    def radius(self) -> np.ndarray:
        """Distance from the origin at every node, summed over the open mesh
        so that no full coordinate array is built."""
        return np.sqrt(sum(x * x for x in np.ix_(*[self.axis] * self.N)))

    def lattice_vector(self, y) -> tuple[int, ...]:
        """Round a spatial displacement to whole grid steps per axis."""
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if y.shape != (self.N,):
            raise DomainError(f"displacement must have {self.N} components")
        return tuple(int(round(v / self.h)) for v in y)


def zero_boundary(v: np.ndarray, ends=(0, -1)) -> np.ndarray:
    """Set the Dirichlet boundary nodes of a node array to zero, in place: the
    `ends` of every axis (only -1 on an orthant, whose index 0 is a reflection plane)."""
    for ax in range(v.ndim):
        np.moveaxis(v, ax, 0)[list(ends)] = 0.0
    return v


def node_sum(t: np.ndarray, nodes: np.ndarray | None = None):
    """Sum of a node array; with per-axis weights `nodes` (1 on an orthant's reflection
    plane, 2 elsewhere) each node counts as the full-grid nodes it stands for."""
    if nodes is None:
        return np.sum(t)
    for _ in range(t.ndim):  # contract the last axis
        t = t.reshape(-1, len(nodes)) @ nodes
    return t[0]


def lp_mass(v: np.ndarray, p: float, weight: float, nodes: np.ndarray | None = None) -> float:
    """Quadrature sum weight * |v_i|^p of a node array (|v|_p^p), taken as
    (v_i^2)^(p/2): for p = 4 that is two squarings and no pow call per node."""
    t = np.multiply(v, v)
    t **= p / 2.0
    return float(node_sum(t, nodes) * weight)


def build_grid(spec: ProblemSpec) -> Grid:
    """Construct the truncated Dirichlet grid for a problem specification."""
    m = round(spec.L / spec.h)
    nodes = (2 * m + 1) ** spec.N
    if nodes > MAX_GRID_NODES:
        raise DomainError(f"grid would have {nodes} nodes, above cap {MAX_GRID_NODES}")
    return Grid(spec.N, spec.L, spec.h)


def eval_W(spec: ProblemSpec, grid: Grid) -> np.ndarray:
    """Nodewise values of the perturbation W, zero on the Dirichlet boundary;
    the potential is Vinf - W."""
    w = spec.W
    if w.family == "zero":
        vals = np.zeros(grid.shape)
    elif w.family == "exponential":
        vals = w.c * np.exp(-w.a * grid.radius())
    elif w.family == "bump":
        r = grid.radius()
        vals = np.where(r < w.a, w.c * (1.0 - (r / w.a) ** 2) ** 2, 0.0)
    else:  # table; WSpec admits no other family
        from .field import load_gridfunction

        table = load_gridfunction(w.table_path)
        tg = table.grid
        if (tg.N, tg.L, tg.h) != (grid.N, grid.L, grid.h):
            raise DomainError(f"tabulated W lies on a grid with N={tg.N}, L={tg.L}, h={tg.h}, "
                              f"not the run's N={grid.N}, L={grid.L}, h={grid.h}")
        vals = table.values
    return zero_boundary(vals)


def potential_values(spec: ProblemSpec, grid: Grid) -> np.ndarray:
    """V = Vinf - W as a plain array (hot path for energy evaluations)."""
    return spec.Vinf - eval_W(spec, grid)


def dual_norm_W(W: np.ndarray, q: float, weight: float) -> float:
    """L^q norm of the node values `W` (from `eval_W`) with q = p/(p-2), the
    deviation bound of the level algebra; `weight` is the grid's h^N."""
    total = lp_mass(W, q, weight)
    if not math.isfinite(total):
        raise DomainError("quadrature of |W|^q overflowed")
    return total ** (1.0 / q)


# --- flat key-value problem files -------------------------------------------

# problem key -> (ProblemSpec or WSpec field, parser of its text value)
SPEC_KEYS = {"dim": ("N", int), "p": ("p", float), "v_inf": ("Vinf", float),
             "box_l": ("L", float), "spacing_h": ("h", float)}
W_KEYS = {"w_family": ("family", str), "w_c": ("c", float), "w_a": ("a", float),
          "w_table_path": ("table_path", str)}
PROBLEM_KEYS = tuple(SPEC_KEYS) + tuple(W_KEYS)


def _present(mapping: dict, table: dict) -> dict:
    return {name: parse(mapping[key]) for key, (name, parse) in table.items() if key in mapping}


def parse_problem_mapping(mapping: dict) -> ProblemSpec:
    """Build a ProblemSpec from string key-value pairs (strict keys); absent
    keys take the dataclass defaults."""
    unknown = set(mapping) - set(PROBLEM_KEYS)
    if unknown:
        raise DomainError(f"unknown problem keys: {sorted(unknown)}")
    return ProblemSpec(W=WSpec(**_present(mapping, W_KEYS)), **_present(mapping, SPEC_KEYS))


def read_keyvalue_file(path) -> dict:
    """Parse a flat `key = value` text file ('#' starts a comment)."""
    out = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            if not key or not val:
                raise DomainError(f"{path}:{lineno}: empty key or value")
            if key in out:
                raise DomainError(f"{path}:{lineno}: duplicate key {key!r}")
            out[key] = val
    return out
