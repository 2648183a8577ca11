"""Energy functionals on the constraint sphere and their gradients.

Every level is a quadratic form of H = -Delta_h + V, with the (2N+1)-point
Laplacian, and `_apply_H` alone writes its stencil: J(v) = h^N <v, H v>, the
sphere gradient and the cross terms of two-block Gram matrices and translation
tables start from H v. For v zero on the boundary, summation by parts makes
h^N <v, -Delta_h v> the link sum of squared forward differences: per-layer or
summed-area tables of it give a clipped translate's self terms, and J is exactly
additive over supports separated by a zero node layer. The stencil is diagonal
in the DST-I basis, where `_ShiftedPoissonSolver` inverts -Delta_h + Vinf
exactly on the Dirichlet box. All reductions use numpy's deterministic
summation order, keeping repeated runs bit-identical.

The private kernels (`_apply_H`, `_pair`, `_energy`, `_sphere_gradient`) take
raw node arrays, a precomputed V and the arrays' per-axis parity
(`domain.FULL` or `domain.EVEN`, FULL on every axis by default). The public
functions take fields and V = Vinf - W on their grid, never a problem
specification, and read the parity from the field's grid: `energy_J(u, V)` is
the one J of a field, folded or not.
"""

from __future__ import annotations

import numpy as np

from .domain import EVEN, axis_weights, lp_mass, node_sum, zero_boundary
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


class _ShiftedPoissonSolver:
    """Exact inverse of P = -Delta_h + Vinf on the interior nodes of a grid,
    with Dirichlet zeros on the boundary.

    The (2N+1)-point Laplacian is diagonal in the DST-I basis, with
    eigenvalues sum over the axes of (2 - 2 cos(pi k / (n+1))) / h^2 for n
    interior nodes per axis. The transform multiplies each axis by the
    symmetric matrix S_jk = sin(pi j k / (n+1)), held over all nodes with zero
    boundary rows and columns, so boundary values are ignored and written as
    zeros. S S = (n+1)/2 I on the interior, so `solve` applies S along every
    axis, divides by Vinf plus the eigenvalues (that factor folded in) and
    applies S along every axis again. The passes alternate between `out` and
    one grid buffer held by the solver.

    With mirror=True the grid is the orthant of m+1 nodes per axis of an even
    array (EVEN on every axis, `domain.Grid`), so n+1 = 2m and only the odd
    modes 2k+1 are present, where S at node m+j is (-1)^k cos(pi j (2k+1) / 2m). The
    forward pass takes that cosine times the node weights (1 on the plane, 2
    elsewhere), the backward one the cosine alone; mode 2k+1 is row k, the last row none.
    """

    def __init__(self, shape: tuple[int, ...], h: float, Vinf: float, mirror: bool = False):
        M, ndim = shape[0], len(shape)
        k = np.arange(M)
        if mirror:
            n1, modes, first = 2 * M - 2, 2 * k + 1, 0
            # j (2k+1) is reduced modulo 2(n+1) in integers, as below
            C = np.cos(np.pi * (np.outer(k, modes) % (2 * n1)) / n1)
            C[-1] = C[:, -1] = 0.0  # row -1 is the boundary node, column -1 no mode
            F = C.T * axis_weights(EVEN, M)  # the node weights of the grid's sums
            self._fwd, self._back = (F, F.T.copy()), (C, C.T.copy())
        else:
            n1, modes, first = M - 1, k, 1  # n + 1, with n = M - 2 interior nodes per axis
            # j k is reduced modulo 2(n+1) in integers, so each sine argument lies in [0, 2 pi)
            S = np.sin(np.pi * (np.outer(k, k) % (2 * n1)) / n1)
            S[-1] = S[:, -1] = 0.0  # row and column 0 are exact zeros already
            self._fwd = self._back = (S, S)  # S is symmetric
        scale = (n1 / 2.0) ** ndim
        self._mu = scale * (2.0 - 2.0 * np.cos(np.pi * modes / n1)) / (h * h)  # per axis
        # Vinf plus the other axes' eigenvalues, broadcast over first-axis indices
        # (a float for N = 1)
        self._rest = scale * Vinf + sum(
            self._mu.reshape((M,) + (1,) * (ndim - 2 - ax)) for ax in range(ndim - 1))
        # (mode rows, their first-axis eigenvalues) per division, as many
        # rows as DIVISION_BLOCK holds
        rows = max(1, DIVISION_BLOCK // np.size(self._rest))
        mu = self._mu.reshape((M,) + (1,) * (ndim - 1))
        edges = [*range(first, M - 1, rows), M - 1]
        self._blocks = [(slice(i, j), mu[i:j]) for i, j in zip(edges, edges[1:])]
        self._buf = np.empty(shape)

    def _dst(self, a: np.ndarray, out: np.ndarray, spare: np.ndarray, back=False) -> np.ndarray:
        """The forward (or `back`) transform along every axis of `a`, written into `out`
        and returned. The passes alternate between `out` and `spare`, the last one
        writing `out`; `a` is only read, and may be the array the first pass does not write."""
        M, ndim = a.shape[0], a.ndim
        T, T_t = self._back if back else self._fwd  # the matrix and its transpose
        for ax in range(ndim):
            b = out if (ndim - ax) % 2 else spare
            if ax < ndim - 1:
                np.matmul(T, a.reshape(M ** ax, M, -1), out=b.reshape(M ** ax, M, -1))
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
