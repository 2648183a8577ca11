"""Problem specification, grid construction, quadrature, and potential evaluation.

The continuum problem lives on R^N; we truncate to the box [-L, L]^N with
zero Dirichlet boundary. All states of interest decay exponentially, so the
truncation error is exponentially small in L and can be probed by doubling L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

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


# Per-axis parity of a node array. FULL: the whole axis, with a Dirichlet wall at
# each end. EVEN: the half x >= 0 of an axis along which the array is even, from
# index 0 on the mirror plane x = 0 to the wall at index -1.
FULL, EVEN = "full", "even"


class Grid:
    """Uniform Cartesian grid on [-L, L]^N, symmetric about the origin.

    Boundary nodes carry Dirichlet zeros; the quadrature weight is h^N per
    node (boundary values vanish, so including them is harmless).

    With a `parity` (FULL on every axis by default) the grid keeps only the
    nodes x >= 0 of each EVEN axis, for arrays even in that coordinate. Its
    node coordinates are the full grid's bit for bit, and its sums
    (`node_sum`) count each node off a mirror plane twice, so they are the
    full grid's sums up to rounding.
    """

    def __init__(self, N: int, L: float, h: float, parity=None):
        m = round(L / h)
        self.N = N
        self.L = float(L)
        self.h = float(h)
        self.axis = h * np.arange(-m, m + 1)  # exactly odd, so radial data is exactly even
        self.parity = tuple(parity) if parity else (FULL,) * N
        self.axes = [self.axis[m:] if kind == EVEN else self.axis for kind in self.parity]
        self.shape = tuple(len(a) for a in self.axes)
        self.origin_index = tuple(0 if kind == EVEN else m for kind in self.parity)
        self.weight = h ** N

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    def coords(self):
        """Meshgrid of node coordinates, one array per axis (ij indexing)."""
        return np.meshgrid(*self.axes, indexing="ij")

    def radius(self) -> np.ndarray:
        """Distance from the origin at every node, summed over the open mesh
        so that no full coordinate array is built."""
        return np.sqrt(sum(x * x for x in np.ix_(*self.axes)))

    def lattice_vector(self, y) -> tuple[int, ...]:
        """Round a spatial displacement to whole grid steps per axis."""
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if y.shape != (self.N,):
            raise DomainError(f"displacement must have {self.N} components")
        return tuple(int(round(v / self.h)) for v in y)

    def fold(self, parity) -> "Grid":
        """The grid of the same box with per-axis `parity`; this grid if it has it."""
        parity = tuple(parity)
        return self if parity == self.parity else Grid(self.N, self.L, self.h, parity)

    def unfold(self, v: np.ndarray, parity=None) -> np.ndarray:
        """The node array on `fold(parity)` (FULL on every axis by default) of
        which `v`, on this grid, is the fold: each EVEN axis that is FULL in
        `parity` mirrored out, node i of it being node |i - m| of v, in one
        indexing pass. `v` itself when the parities agree."""
        parity = tuple(parity) if parity else (FULL,) * self.N
        if parity == self.parity:
            return v
        return v[np.ix_(*[np.abs(np.arange(1 - n, n)) if kind == EVEN and to == FULL
                          else np.arange(n) for n, kind, to in zip(v.shape, self.parity, parity)])]


def zero_boundary(v: np.ndarray, parity=None) -> np.ndarray:
    """Set the Dirichlet boundary nodes of a node array to zero, in place: both
    ends of a FULL axis (every axis by default), only index -1 of an EVEN one."""
    for ax in range(v.ndim):
        ends = [-1] if parity and parity[ax] == EVEN else [0, -1]
        np.moveaxis(v, ax, 0)[ends] = 0.0
    return v


@lru_cache(maxsize=64)
def axis_weights(kind: str, n: int) -> np.ndarray:
    """The full-grid nodes that each of n nodes of an axis of this parity stands
    for: 1 on a FULL axis, and on an EVEN one 1 on the mirror plane and 2 off it."""
    w = np.r_[1.0, np.full(n - 1, 2.0)] if kind == EVEN else np.ones(n)
    w.flags.writeable = False
    return w


def node_sum(t: np.ndarray, parity=None):
    """Sum of a node array, each node counted as the full-grid nodes it stands
    for (`axis_weights`) under its per-axis `parity`; a plain sum when every axis is FULL."""
    if parity is None or EVEN not in parity:
        return np.sum(t)
    shape = t.shape
    for ax in reversed(range(t.ndim)):  # contract the last axis
        t = t.reshape(-1, shape[ax]) @ axis_weights(parity[ax], shape[ax])
    return t[0]


def lp_mass(v: np.ndarray, p: float, weight: float, parity=None) -> float:
    """Quadrature sum weight * |v_i|^p of a node array (|v|_p^p), taken as
    (v_i^2)^(p/2): for p = 4 that is two squarings and no pow call per node."""
    t = np.multiply(v, v)
    t **= p / 2.0
    return float(node_sum(t, parity) * weight)


def build_grid(spec: ProblemSpec) -> Grid:
    """Construct the truncated Dirichlet grid for a problem specification."""
    m = round(spec.L / spec.h)
    nodes = (2 * m + 1) ** spec.N
    if nodes > MAX_GRID_NODES:
        raise DomainError(f"grid would have {nodes} nodes, above cap {MAX_GRID_NODES}")
    return Grid(spec.N, spec.L, spec.h)


def eval_W(spec: ProblemSpec, grid: Grid) -> np.ndarray:
    """Nodewise values of the perturbation W, zero on the Dirichlet boundary;
    the potential is Vinf - W. On a folded grid (a radial family) each value is
    the full grid's at that node, bit for bit."""
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

        if EVEN in grid.parity:
            raise DomainError("a tabulated W is evaluated on the whole grid, not a folded one")
        table = load_gridfunction(w.table_path)
        tg = table.grid
        if (tg.N, tg.L, tg.h) != (grid.N, grid.L, grid.h):
            raise DomainError(f"tabulated W lies on a grid with N={tg.N}, L={tg.L}, h={tg.h}, "
                              f"not the run's N={grid.N}, L={grid.L}, h={grid.h}")
        vals = table.values
    return zero_boundary(vals, grid.parity)


def potential_values(spec: ProblemSpec, grid: Grid) -> np.ndarray:
    """V = Vinf - W as a plain array (hot path for energy evaluations)."""
    return spec.Vinf - eval_W(spec, grid)


def dual_norm_W(W: np.ndarray, q: float, weight: float, parity=None) -> float:
    """L^q norm of the node values `W` (from `eval_W`) with q = p/(p-2), the
    deviation bound of the level algebra; `weight` is the grid's h^N and
    `parity` its per-axis parity."""
    total = lp_mass(W, q, weight, parity)
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
