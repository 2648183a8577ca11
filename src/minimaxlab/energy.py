"""Energy functionals on the constraint sphere and their gradients.

Every level is a quadratic form of H = -Delta_h + V, with the (2N+1)-point
Laplacian, and `_apply_H` alone writes its stencil: J(v) = h^N <v, H v>, the
sphere gradient, two-block Gram matrices and translation tables start from
H v. For v zero on the boundary, summation by parts makes h^N <v, -Delta_h v>
the link sum of squared forward differences, and J is exactly additive, term
by term, over supports separated by a zero node layer. All reductions use
numpy's deterministic summation order, keeping repeated runs bit-identical.

The private kernels (`_apply_H`, `_pair`, `_energy`, `_sphere_gradient`) take
raw node arrays and a precomputed V. The public functions take fields and
V = Vinf - W on their grid, never a problem specification: `energy_J(u, V)`
is the one J of a field.
"""

from __future__ import annotations

import numpy as np

from .domain import lp_mass, zero_boundary
from .field import FieldError, GridFunction, shift_slices

ON_MANIFOLD_TOL = 1e-6


def _apply_H(v: np.ndarray, V, h: float, dirichlet: bool = True) -> np.ndarray:
    """H v = -Delta_h v + V v on a node array, in one new array; V is an array
    on v's grid or a scalar. Dirichlet boundary rows are zero.

    With dirichlet=False the boundary rows keep the stencil, with zeros outside
    the array: for v zero on the boundary this is H on the unbounded lattice of
    v extended by zero, where H v vanishes off the array."""
    out = 2.0 * v.ndim * v
    for step in np.eye(v.ndim, dtype=int):
        hi, lo = shift_slices(step, v.shape)  # [1:] and [:-1] along the step's axis
        out[lo] -= v[hi]
        out[hi] -= v[lo]
    out /= h * h
    out += V * v
    return zero_boundary(out) if dirichlet else out


def _pair(a: np.ndarray, Hb: np.ndarray, h: float) -> float:
    """h^N <a, Hb>: J(a) when Hb = H a, a Gram entry when Hb = H b."""
    return float(np.sum(a * Hb) * h ** a.ndim)


def _energy(v: np.ndarray, V, h: float) -> float:
    """J(v) = int |grad v|^2 + V v^2 = h^N <v, H v> on a zero-boundary node array."""
    return _pair(v, _apply_H(v, V, h), h)


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
    return lp_mass(u.values, p, u.grid.weight)


def _require_on_sphere(u: GridFunction, p: float):
    m = mass_I(u, p)
    if abs(m - 1.0) > ON_MANIFOLD_TOL:
        raise FieldError(f"field is off the constraint sphere: I(u) = {m}")


def energy_J(u: GridFunction, V: np.ndarray) -> float:
    """J(u) = int |grad u|^2 + V u^2, with V = Vinf - W on u's grid."""
    return _energy(u.values, V, u.grid.h)


def euler_lagrange_residual(u: GridFunction, lam: float, V: np.ndarray, p: float) -> float:
    """Discrete L^2 norm of -Delta u + V u - lam |u|^(p-2) u (zero on the boundary)."""
    g = _sphere_gradient(u.values, _apply_H(u.values, V, u.grid.h), lam, p)
    return 0.5 * gradient_norm(GridFunction(u.grid, g))


def manifold_gradient(u: GridFunction, V: np.ndarray, p: float) -> GridFunction:
    """Field representative of J'(u) - mu I'(u) with mu = (2/p) J(u).

    Vanishes exactly when u solves the discrete equation with lambda = J(u);
    its pairing with any direction v equals d/dt J(normalize(u + t v)) at t=0.
    """
    _require_on_sphere(u, p)
    v, h = u.values, u.grid.h
    Hv = _apply_H(v, V, h)
    return GridFunction(u.grid, _sphere_gradient(v, Hv, _pair(v, Hv, h), p))


def gradient_norm(g: GridFunction) -> float:
    """Discrete L^2 norm of a gradient representative."""
    return float(np.sqrt(np.sum(g.values ** 2) * g.grid.weight))


def inner_l2(u: GridFunction, v: GridFunction) -> float:
    """Quadrature pairing sum h^N u_i v_i."""
    return float(np.sum(u.values * v.values) * u.grid.weight)


def deviation_bound(u: GridFunction, V: np.ndarray, Vinf: float, p: float) -> float:
    """|J(u) - Jinf(u)| = |sum (V - Vinf) u^2 h^N|, which never exceeds |W|_q
    on the sphere: H and Hinf = -Delta_h + Vinf differ by V - Vinf alone, so
    one potential sum carries it."""
    _require_on_sphere(u, p)
    v = u.values
    return abs(_pair(v, (V - Vinf) * v, u.grid.h))
