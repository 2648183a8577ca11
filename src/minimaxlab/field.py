"""Algebra of grid functions: norms, normalization, sign splitting, translation
and (de)serialization."""

from __future__ import annotations

import math
import struct

import numpy as np

from .domain import EVEN, Grid, lp_mass, zero_boundary


class FieldError(ValueError):
    pass


class GridFunction:
    """Real-valued field sampled on a grid, zero on the Dirichlet boundary."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values: np.ndarray):
        self._own(grid, np.array(values, dtype=float, copy=True))

    @classmethod
    def _adopt(cls, grid: Grid, values: np.ndarray) -> "GridFunction":
        """Wrap a fresh float array that nothing else holds, without the
        constructor's copy; its boundary is zeroed in place."""
        u = cls.__new__(cls)
        u._own(grid, values)
        return u

    def _own(self, grid: Grid, values: np.ndarray):
        if values.shape != grid.shape:
            raise FieldError(f"values shape {values.shape} does not match grid {grid.shape}")
        self.grid = grid
        self.values = zero_boundary(values, grid.parity)

    def __neg__(self) -> "GridFunction":
        return GridFunction._adopt(self.grid, -self.values)


def lp_norm(u: GridFunction, p: float) -> float:
    """(sum h^N |u_i|^p)^(1/p)."""
    if p < 1:
        raise FieldError("p must be at least 1")
    return lp_mass(u.values, p, u.grid.weight, u.grid.parity) ** (1.0 / p)


def lp_normalize(u: GridFunction, p: float) -> GridFunction:
    """Radial projection u / |u|_p onto the unit L^p sphere."""
    n = lp_norm(u, p)
    if n == 0.0:
        raise FieldError("cannot normalize the zero field")
    return GridFunction._adopt(u.grid, u.values / n)


def split_signs(u: GridFunction) -> tuple[GridFunction, GridFunction]:
    """Positive and negative parts: u = u+ - u-, with u+ * u- = 0 pointwise."""
    plus = np.maximum(u.values, 0.0)
    minus = np.maximum(-u.values, 0.0)
    return GridFunction._adopt(u.grid, plus), GridFunction._adopt(u.grid, minus)


def translate(u: GridFunction, y) -> GridFunction:
    """Shift by a lattice vector; values pushed past the boundary are dropped.

    `y` is either a spatial displacement (rounded to whole steps must be
    exact) or a tuple of integer node offsets, zero along an EVEN axis of a
    folded field (a shift there would break its evenness).
    """
    grid = u.grid
    steps = lattice_steps(grid, y)
    if any(s and kind == EVEN for s, kind in zip(steps, grid.parity)):
        raise FieldError("a folded field translates only along its FULL axes")
    out = np.zeros(grid.shape)
    dst, src = shift_slices(steps, grid.shape)
    out[dst] = u.values[src]
    return GridFunction._adopt(grid, out)


def lattice_steps(grid: Grid, y) -> tuple[int, ...]:
    """Node offsets of a translation `y`: a spatial displacement (rounded to
    whole steps must be exact) or a tuple of integer node offsets."""
    if all(isinstance(v, (int, np.integer)) for v in np.atleast_1d(y)):
        steps = tuple(int(v) for v in np.atleast_1d(y))
        if len(steps) != grid.N:
            raise FieldError(f"offset must have {grid.N} components")
        return steps
    y = np.atleast_1d(np.asarray(y, dtype=float))
    steps = grid.lattice_vector(y)
    if np.max(np.abs(np.asarray(steps) * grid.h - y)) > 1e-9 * max(1.0, grid.h):
        raise FieldError("translation must be an integer multiple of h per axis")
    return steps


def shift_slices(steps, shape) -> tuple[tuple, tuple]:
    """(dst, src) index tuples of an array of `shape` such that dst = src + steps
    node for node: the part of the array that a shift by `steps` keeps, empty
    when a step is at least as long as its axis."""
    n = np.asarray(shape)
    k = np.minimum(np.maximum(steps, -n), n)
    dst = tuple(map(slice, np.maximum(k, 0), n + np.minimum(k, 0)))
    src = tuple(map(slice, np.maximum(-k, 0), n - np.maximum(k, 0)))
    return dst, src


# --- serialization -----------------------------------------------------------

_MAGIC = b"GFB1"


def save_gridfunction(u: GridFunction, path) -> None:
    """Flat binary layout: magic, N, L, h, per-axis sizes, row-major float64."""
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<i", u.grid.N))
        f.write(struct.pack("<dd", u.grid.L, u.grid.h))
        f.write(struct.pack(f"<{u.grid.N}i", *u.values.shape))
        f.write(np.ascontiguousarray(u.values, dtype="<f8").tobytes())


def load_gridfunction(path) -> GridFunction:
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != _MAGIC:
        raise FieldError(f"{path}: not a grid-function file")
    if len(raw) < 24:
        raise FieldError(f"{path}: truncated header")
    N, L, h = struct.unpack_from("<idd", raw, 4)
    if N < 1 or not (h > 0.0 and 0.0 < L / h < math.inf):
        raise FieldError(f"{path}: unusable header N={N}, L={L}, h={h}")
    if len(raw) < 24 + 4 * N:
        raise FieldError(f"{path}: truncated header")
    shape = struct.unpack_from(f"<{N}i", raw, 24)
    if shape != (2 * round(L / h) + 1,) * N:  # Grid's shape, checked before it allocates
        raise FieldError(f"{path}: header shape {shape} inconsistent with L={L}, h={h}")
    data = np.frombuffer(raw, dtype="<f8", offset=24 + 4 * N).reshape(shape)
    return GridFunction(Grid(N, L, h), data)
