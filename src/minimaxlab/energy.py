"""Energy functionals on the constraint sphere and their gradients.

Every level is a quadratic form of H = -Delta_h + V, with the (2N+1)-point
Laplacian, and `_apply_H` alone writes its stencil: J(v) = h^N <v, H v>, the
sphere gradient and the cross terms of two-block Gram matrices and translation
tables start from H v. For v zero on the boundary, summation by parts makes
h^N <v, -Delta_h v> the link sum of squared forward differences: per-layer or
summed-area tables of it give a clipped translate's self terms, and J is exactly
additive over supports separated by a zero node layer. The stencil is diagonal
in a DST-I basis per axis, where `_ShiftedPoissonSolver` inverts -Delta_h + Vinf
exactly on the Dirichlet box. All reductions use numpy's deterministic
summation order, keeping repeated runs bit-identical.

The private kernels (`_apply_H`, `_pair`, `_energy`, `_sphere_gradient`, the
solver) take raw node arrays, a precomputed V and the arrays' per-axis parity
(`domain.FULL` or `domain.EVEN`, FULL on every axis by default). The public
functions take fields and V = Vinf - W on their grid, never a problem
specification, and read the parity from the field's grid: `energy_J(u, V)` is
the one J of a field, folded or not.
"""

from __future__ import annotations

import math

import numpy as np

from .domain import EVEN, FULL, axis_weights, lp_mass, node_sum, zero_boundary
from .field import FieldError, GridFunction, shift_slices

ON_MANIFOLD_TOL = 1e-6
# most nodes per eigenvalue division in `_ShiftedPoissonSolver` and per row block
# (`_row_blocks`): the 32 KB divisor and its rows fit a 48 KB L1 data cache,
# where 8192-node blocks were slower than one row at a time on 49^3
DIVISION_BLOCK = 4096


def _row_blocks(shape) -> list[slice]:
    """First-axis slices of an array of `shape`, each as many rows as DIVISION_BLOCK holds."""
    rows = max(1, DIVISION_BLOCK * shape[0] // max(1, int(np.prod(shape))))
    return [slice(i, i + rows) for i in range(0, shape[0], rows)]


def _apply_H(v: np.ndarray, V, h: float, dirichlet: bool = True, parity=None) -> np.ndarray:
    """H v = -Delta_h v + V v on a node array, in one new array; V is an array
    on v's grid or a scalar. Dirichlet boundary rows are zero. V v is added a
    block of rows at a time (`_row_blocks`), so no other grid-sized array is made.

    With dirichlet=False the boundary rows keep the stencil, with zeros outside
    the array: for v zero on the boundary this is H on the unbounded lattice of
    v extended by zero, where H v vanishes off the array.

    Along an EVEN axis of `parity` (`domain.Grid`), index 0 lies on the mirror
    plane, the neighbour across it is index 1, and only index -1 is boundary."""
    out = 2.0 * v.ndim * v
    for ax, step in enumerate(np.eye(v.ndim, dtype=int)):
        hi, lo = shift_slices(step, v.shape)  # [1:] and [:-1] along the step's axis
        out[lo] -= v[hi]
        out[hi] -= v[lo]
        if parity and parity[ax] == EVEN:
            np.moveaxis(out, ax, 0)[0] -= np.moveaxis(v, ax, 0)[1]
    out /= h * h
    scalar = np.ndim(V) == 0
    for rows in _row_blocks(v.shape):
        out[rows] += (V if scalar else V[rows]) * v[rows]
    return zero_boundary(out, parity) if dirichlet else out


def _axis_basis(kind: str, M: int):
    """n+1, h^2 mu and the forward and backward (matrix, transpose) of a solver axis."""
    k = np.arange(M)
    n1, modes = (2 * M - 2, 2 * k + 1) if kind == EVEN else (M - 1, k)
    # j times the mode is reduced modulo 2(n+1) in integers, so each argument lies in [0, 2 pi)
    arg = np.pi * (np.outer(k, modes) % (2 * n1)) / n1
    T = np.cos(arg) if kind == EVEN else np.sin(arg)
    T[-1] = T[:, -1] = 0.0  # row -1 is the wall node, column -1 mode n+1 or none
    mu = 2.0 - 2.0 * np.cos(np.pi * modes / n1)
    if kind != EVEN:
        return n1, mu, (T, T), (T, T)  # the DST-I matrix S is symmetric
    F = T.T * axis_weights(EVEN, M)  # the node weights of the grid's sums
    return n1, mu, (F, F.T.copy()), (T, T.T.copy())


class _ShiftedPoissonSolver:
    """Exact inverse of P = -Delta_h + Vinf on the interior nodes of a node
    array of `shape` and per-axis `parity`, with Dirichlet zeros on its walls.

    The (2N+1)-point Laplacian is diagonal in a product of one basis per axis,
    eigenvalue (2 - 2 cos(pi k / (n+1))) / h^2 for mode k of n interior nodes.
    Each basis matrix is held over all nodes with zero wall rows and columns,
    so wall values are ignored and written as zeros. A FULL axis multiplies by
    the symmetric DST-I matrix S_jk = sin(pi j k / (n+1)), with S S = (n+1)/2 I
    on the interior. An EVEN axis of m+1 nodes is the half of a FULL one with
    n+1 = 2m, where an even array has only the odd modes 2k+1, S at node m+j
    being (-1)^k cos(pi j (2k+1) / 2m): the forward pass takes that cosine
    times the node weights (`domain.axis_weights`), the backward one the cosine
    alone; mode 2k+1 is row k, the last row none. Axes of one parity and node
    count share their basis. `solve` transforms along every axis, divides by
    Vinf plus the eigenvalues (the factors (n+1)/2 folded in) and transforms
    back; the passes alternate between `out` and one grid buffer held by the solver.
    """

    def __init__(self, shape: tuple[int, ...], h: float, Vinf: float, parity=None):
        ndim = len(shape)
        axes = list(zip(parity or (FULL,) * ndim, shape))
        bases = {axis: _axis_basis(*axis) for axis in set(axes)}
        scale = math.prod(bases[axis][0] / 2.0 for axis in axes)
        self._mu = [scale * bases[axis][1] / (h * h) for axis in axes]  # per axis
        self._fwd, self._back = ([bases[axis][i] for axis in axes] for i in (2, 3))
        # Vinf plus the other axes' eigenvalues, broadcast over first-axis indices (N = 1: a float)
        self._rest = scale * Vinf + sum(
            self._mu[ax].reshape((shape[ax],) + (1,) * (ndim - 1 - ax)) for ax in range(1, ndim))
        # (mode rows, their first-axis eigenvalues) per division, as many rows
        # as DIVISION_BLOCK holds; row 0 of a FULL axis is mode 0, a zero row
        rows, M = max(1, DIVISION_BLOCK // np.size(self._rest)), shape[0]
        mu = self._mu[0].reshape((M,) + (1,) * (ndim - 1))
        edges = [*range(int(axes[0][0] != EVEN), M - 1, rows), M - 1]
        self._blocks = [(slice(i, j), mu[i:j]) for i, j in zip(edges, edges[1:])]
        self._buf = np.empty(shape)

    def _dst(self, a: np.ndarray, out: np.ndarray, spare: np.ndarray, back=False) -> np.ndarray:
        """The forward (or `back`) transform along every axis of `a`, written into `out`
        and returned. The passes alternate between `out` and `spare`, the last one
        writing `out`; `a` is only read, and may be the array the first pass does not write."""
        shape, ndim = a.shape, a.ndim
        for ax, (T, T_t) in enumerate(self._back if back else self._fwd):
            b = out if (ndim - ax) % 2 else spare
            if ax < ndim - 1:
                rows = (math.prod(shape[:ax]), shape[ax], -1)
                np.matmul(T, a.reshape(rows), out=b.reshape(rows))
            else:  # T-first, this axis would be matrix-vector products
                np.matmul(a, T_t, out=b)
            a = b
        return out

    def solve(self, g: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write P^-1 g into `out` (boundary nodes zero) and return it; `g` is
        not written. `out` must be C-contiguous, so that `_dst` reshapes it as a view."""
        mid, spare = (self._buf, out) if g.ndim % 2 else (out, self._buf)
        self._dst(g, mid, spare)
        for rows, mu in self._blocks:  # no grid-sized divisor
            mid[rows] /= mu + self._rest
        return self._dst(mid, out, self._buf, back=True)


def _pair(a: np.ndarray, Hb: np.ndarray, h: float, parity=None) -> float:
    """h^N <a, Hb>: J(a) when Hb = H a, a Gram entry when Hb = H b; summed
    under the arrays' `parity` (`domain.node_sum`)."""
    return float(node_sum(a * Hb, parity) * h ** a.ndim)


def _energy(v: np.ndarray, V, h: float, parity=None) -> float:
    """J(v) = int |grad v|^2 + V v^2 = h^N <v, H v> on a zero-boundary node array."""
    return _pair(v, _apply_H(v, V, h, parity=parity), h, parity)


def _sphere_gradient(v: np.ndarray, Hv: np.ndarray, J: float, p: float) -> np.ndarray:
    """2(H v - J |v|^(p-2) v), the sphere gradient of J at a zero-boundary node
    array v on the unit L^p sphere with J = J(v), built in place in the
    Dirichlet Hv = H v, in the operation order of 2 * (Hv - J * |v|^(p-2) * v)."""
    t = np.abs(v)
    t **= p - 2
    t *= J
    t *= v
    Hv -= t
    Hv *= 2.0
    return Hv


def mass_I(u: GridFunction, p: float) -> float:
    """Quadrature of |u|^p (the constraint functional; equals |u|_p^p)."""
    return lp_mass(u.values, p, u.grid.weight, u.grid.parity)


def _require_on_sphere(u: GridFunction, p: float):
    m = mass_I(u, p)
    if abs(m - 1.0) > ON_MANIFOLD_TOL:
        raise FieldError(f"field is off the constraint sphere: I(u) = {m}")


def energy_J(u: GridFunction, V: np.ndarray) -> float:
    """J(u) = int |grad u|^2 + V u^2, with V = Vinf - W on u's grid."""
    return _energy(u.values, V, u.grid.h, u.grid.parity)


def euler_lagrange_residual(u: GridFunction, lam: float, V: np.ndarray, p: float) -> float:
    """Discrete L^2 norm of -Delta u + V u - lam |u|^(p-2) u: half the sphere
    gradient's, with lam for J."""
    grid = u.grid
    g = _sphere_gradient(u.values, _apply_H(u.values, V, grid.h, parity=grid.parity), lam, p)
    return 0.5 * float(np.sqrt(node_sum(g * g, grid.parity) * grid.weight))


def inner_l2(u: GridFunction, v: GridFunction) -> float:
    """Quadrature pairing sum h^N u_i v_i."""
    return float(node_sum(u.values * v.values, u.grid.parity) * u.grid.weight)


def deviation_bound(u: GridFunction, V: np.ndarray, Vinf: float, p: float) -> float:
    """|J(u) - Jinf(u)| = |sum (V - Vinf) u^2 h^N|, which never exceeds |W|_q
    on the sphere: H and Hinf = -Delta_h + Vinf differ by V - Vinf alone, so
    one potential sum carries it."""
    _require_on_sphere(u, p)
    v = u.values
    return abs(_pair(v, (V - Vinf) * v, u.grid.h, u.grid.parity))
