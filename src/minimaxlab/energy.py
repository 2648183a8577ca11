"""Energy functionals on the constraint sphere and their gradients.

The kinetic term is assembled on links (forward differences), so that for
fields whose supports are separated by a zero node layer the energy is
exactly additive. All reductions use numpy's deterministic summation order,
keeping repeated runs bit-identical.

The private array kernels (`_energy`, `_sphere_gradient`, `_laplacian`) take
raw node arrays and a precomputed V; every energy, gradient and Laplacian in
the package is evaluated through them. The public functions take fields and
V = Vinf - W on their grid, never a problem specification: `energy_J(u, V)`
is the one J of a field.
"""

from __future__ import annotations

import numpy as np

from .domain import lp_mass, zero_boundary
from .field import FieldError, GridFunction

ON_MANIFOLD_TOL = 1e-6


def _kinetic(v: np.ndarray, h: float) -> float:
    """Link quadrature of |grad v|^2 on a node array (forward differences)."""
    total = 0.0
    for ax in range(v.ndim):
        d = np.diff(v, axis=ax)
        total += float(np.sum(np.multiply(d, d, out=d)))
    return total * h ** (v.ndim - 2)


def _potential(v: np.ndarray, V: np.ndarray, h: float) -> float:
    """Quadrature of V v^2; the (V v) v order keeps descents bit-reproducible."""
    t = V * v
    t *= v
    return float(np.sum(t) * h ** v.ndim)


def _energy(v: np.ndarray, V: np.ndarray, h: float) -> float:
    """J(v) = int |grad v|^2 + V v^2 on a node array with precomputed V."""
    return _kinetic(v, h) + _potential(v, V, h)


def _laplacian(v: np.ndarray, h: float, dirichlet: bool = True) -> np.ndarray:
    """(2N+1)-point Laplacian of a node array; Dirichlet boundary rows are zero.

    With dirichlet=False the boundary rows keep the stencil, with zeros outside
    the array: for v zero on the boundary this is the Laplacian on the
    unbounded lattice of v extended by zero, which vanishes off the array."""
    out = -2.0 * v.ndim * v
    for ax in range(v.ndim):
        lo = [slice(None)] * v.ndim
        hi = [slice(None)] * v.ndim
        lo[ax] = slice(None, -1)
        hi[ax] = slice(1, None)
        out[tuple(lo)] += v[tuple(hi)]
        out[tuple(hi)] += v[tuple(lo)]
    out /= h * h
    return zero_boundary(out) if dirichlet else out


def _sphere_gradient(v: np.ndarray, V: np.ndarray, J: float, p: float,
                     h: float) -> np.ndarray:
    """2(-Delta v + V v - J |v|^(p-2) v): the sphere gradient of J at a
    zero-boundary node array v on the unit L^p sphere with J = J(v).

    Built in place in two grid arrays, in the operation order of
    2 * (-lap(v) + V v - J |v|^(p-2) v), so the result is bit-identical to it."""
    out = _laplacian(v, h)
    np.negative(out, out=out)
    t = V * v
    out += t
    np.abs(v, out=t)
    t **= p - 2
    t *= J
    t *= v
    out -= t
    out *= 2.0
    return out


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
    g = _sphere_gradient(u.values, V, lam, p, u.grid.h)
    return 0.5 * gradient_norm(GridFunction(u.grid, g))


def manifold_gradient(u: GridFunction, V: np.ndarray, p: float) -> GridFunction:
    """Field representative of J'(u) - mu I'(u) with mu = (2/p) J(u).

    Vanishes exactly when u solves the discrete equation with lambda = J(u);
    its pairing with any direction v equals d/dt J(normalize(u + t v)) at t=0.
    """
    _require_on_sphere(u, p)
    v, h = u.values, u.grid.h
    return GridFunction(u.grid, _sphere_gradient(v, V, _energy(v, V, h), p, h))


def gradient_norm(g: GridFunction) -> float:
    """Discrete L^2 norm of a gradient representative."""
    return float(np.sqrt(np.sum(g.values ** 2) * g.grid.weight))


def inner_l2(u: GridFunction, v: GridFunction) -> float:
    """Quadrature pairing sum h^N u_i v_i."""
    return float(np.sum(u.values * v.values) * u.grid.weight)


def deviation_bound(u: GridFunction, V: np.ndarray, Vinf: float, p: float) -> float:
    """|J(u) - Jinf(u)| = |sum (V - Vinf) u^2 h^N|, which never exceeds |W|_q
    on the sphere; the kinetic terms cancel, so only the potentials enter."""
    _require_on_sphere(u, p)
    v = u.values
    return abs(_potential(v, V, u.grid.h) - Vinf * lp_mass(v, 2.0, u.grid.weight))
