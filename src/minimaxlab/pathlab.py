"""Explicit odd path and sphere-map constructions on the constraint sphere,
and their exact maxima.

A two-block path interpolates trigonometrically between blocks u1, u2 and is
renormalized pointwise; when the blocks have layer-separated supports its
energy maximum has a closed form, which the dense sampling must reproduce.
Along a two-block path J is exact from a 2x2 Gram matrix and the L^p mass of
the block combination, both formed only by the translation sweep
`TranslatedBumps` (a `PathFamily` is its zero-translation path), with no field
built; a path maximum reports this closed form at its argmax, building the
field there only where the mass cancels. Along a translation sphere map,
J^inf is exact from one translation table of w_inf: summed-area tables for
what the wall clips, correlations for the rest.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

import numpy as np

from .domain import FULL, axis_weights, lp_mass, zero_boundary
from .energy import ON_MANIFOLD_TOL, _apply_H, _pair, _row_blocks, energy_J, mass_I
from .field import (GridFunction, lattice_steps, lp_normalize, shift_slices, split_signs,
                    translate)


THETA_SAMPLES = 512  # angles on [0, pi) per path maximum; also the config default
MIN_THETA_SAMPLES = 64  # fewest angles a path maximum accepts
# most angles a path maximum accepts, 128 times the default: golden-section search
# refines the best one anyway, and a SampledPath builds one field per angle
MAX_THETA_SAMPLES = 2 ** 16
GOLDEN_XTOL = 1e-12  # bracket width at which a golden-section search stops
SPHERE_SAMPLES = 128  # directions per sphere map, one per antipodal pair
# a translation scan builds T_k w - T_-k w for its mass where the moment sums
# leave less than this share of the translates' masses (steps of a node or
# two): below it they lose more than two digits to cancellation
CANCELLATION = 1e-2


class PathError(ValueError):
    pass


def _thetas(samples: int) -> np.ndarray:
    """Uniform angles on [0, pi), the half-loop that determines an odd path."""
    return np.linspace(0.0, math.pi, samples, endpoint=False)


def _dot(ndim: int, operands: int) -> str:
    """einsum subscripts of the sum of a product of same-shape arrays."""
    axes = "ijk"[:ndim]
    return ",".join([axes] * operands) + "->"


class PathEnergy:
    """theta -> J(gamma(theta)) = y^T G y / m(y)^(2/p) at y = (cos theta,
    sin theta), elementwise over an array of angles, for the odd loop
    through blocks u1, u2 with the 2x2 Gram matrix G of H = -Delta_h + V on
    them and the mass m(c, s) = |c u1 + s u2|_p^p; `self_mass` holds
    (|u1|_p^p, |u2|_p^p).

    `TranslatedBumps.energy` forms G and m; for even integer p, m is a
    polynomial of the moments int u1^j u2^(p-j), so an evaluation does no
    grid work.
    """

    def __init__(self, G: np.ndarray, mass, self_mass: tuple[float, float], p: float):
        self.G, self.mass, self.self_mass, self.p = G, mass, self_mass, p

    def __call__(self, theta):
        G, c, s = self.G, np.cos(theta), np.sin(theta)
        quadratic = G[0, 0] * c * c + 2.0 * G[0, 1] * c * s + G[1, 1] * s * s
        return quadratic / self.mass(c, s) ** (2.0 / self.p)

    def cancels(self, theta: float) -> bool:
        """Whether the mass at theta keeps less than CANCELLATION of its self
        terms |c|^p |u1|_p^p + |s|^p |u2|_p^p (blocks a node or two apart):
        there the closed form loses more than two digits."""
        c, s = math.cos(theta), math.sin(theta)
        m1, m2 = self.self_mass
        return self.mass(c, s) < CANCELLATION * (abs(c) ** self.p * m1 + abs(s) ** self.p * m2)


def _even(p: float) -> bool:
    return p == int(p) and int(p) % 2 == 0


class PathFamily:
    """Odd loop gamma(theta) = normalize(u1 cos theta + (u2 / n) sin theta)
    through two blocks on the constraint sphere, n = |u2|_p.

    `energy` gives J along the loop as a `PathEnergy`, without building
    fields: it is the zero-translation path of the `TranslatedBumps` sweep
    of the two blocks, which divides u2 by the same n.
    """

    def __init__(self, u1: GridFunction, u2: GridFunction, p: float):
        self_mass = tuple(mass_I(u, p) for u in (u1, u2))
        if max(abs(m - 1.0) for m in self_mass) > ON_MANIFOLD_TOL:
            raise PathError("path blocks must lie on the constraint sphere")
        d = float(np.max(np.abs(u1.values - u2.values)))
        s = float(np.max(np.abs(u1.values + u2.values)))
        if min(d, s) < 1e-12:
            raise PathError("degenerate path: u2 = +/- u1")
        self.blocks = (u1, u2)
        self.p = p
        self.grid = u1.grid
        self._scale = self_mass[1] ** (-1.0 / p)  # 1 / n

    def at(self, theta: float) -> GridFunction:
        # the combination is freed when lp_normalize returns its quotient
        v = math.cos(theta) * self.blocks[0].values
        v += (math.sin(theta) * self._scale) * self.blocks[1].values
        return lp_normalize(GridFunction._adopt(self.grid, v), self.p)

    def energy(self, V: np.ndarray) -> PathEnergy:
        """theta -> J(gamma(theta)) in closed form, for V = Vinf - W on the
        grid, elementwise over an array of angles."""
        return TranslatedBumps(*self.blocks, V, self.p).energy((0,) * self.grid.N)


class SampledPath:
    """Odd loop stored as fields at uniform theta samples on [0, pi).

    The closed loop has 2n samples: the stored fields, then their negatives,
    by the exact reflection gamma(theta + pi) = -gamma(theta); between
    samples the loop is blended linearly and renormalized.
    """

    def __init__(self, fields: list[GridFunction], p: float):
        self.fields = fields
        self.p = p
        self.grid = fields[0].grid
        self.thetas = _thetas(len(fields))

    def _sample(self, k: int) -> np.ndarray:
        n = len(self.fields)
        k %= 2 * n
        return self.fields[k].values if k < n else -self.fields[k - n].values

    def energy(self, V: np.ndarray):
        """theta -> J(gamma(theta)), elementwise over an array of angles; one
        field built per angle."""
        return np.vectorize(lambda theta: energy_J(self.at(theta), V), otypes=[float])

    def at(self, theta: float) -> GridFunction:
        n = len(self.fields)
        th = theta % (2.0 * math.pi)
        half = th >= math.pi
        if half:
            th -= math.pi
        step = math.pi / n
        j = int(th // step)
        frac = th / step - j
        # snap to a stored sample when angle reduction lands within rounding of it
        if frac > 1.0 - 1e-9:
            j += 1
            frac = 0.0
        j += n * half
        if frac < 1e-9:
            blend = self._sample(j)
        else:
            blend = (1.0 - frac) * self._sample(j) + frac * self._sample(j + 1)
        return lp_normalize(GridFunction(self.grid, blend), self.p)

    @classmethod
    def from_path(cls, path, samples: int, p: float) -> "SampledPath":
        return cls([path.at(t) for t in _thetas(samples)], p)


def disjoint_support_max(J1: float, J2: float, p: float) -> float:
    """Closed-form extremal level of a disjoint-support two-block path: the
    diagonal-G case of `PathFamily.energy`, with block energies J1, J2.

    For positive block energies this is the interior peak of the energy
    profile; for mixed signs the positive endpoint; when both energies are
    nonpositive the renormalization amplifies magnitude and the distinguished
    stationary value is the interior trough.
    """
    q = p / (p - 2.0)
    if J1 > 0.0 and J2 > 0.0:
        return (J1 ** q + J2 ** q) ** (1.0 / q)
    if J1 <= 0.0 < J2:
        return J2
    if J2 <= 0.0 < J1:
        return J1
    return -((abs(J1) ** q + abs(J2) ** q) ** (1.0 / q))


def two_block_energy(J1: float, J2: float, p: float, theta):
    """Energy along the disjoint-support path as a function of theta,
    elementwise over an array of angles."""
    c, s = np.cos(theta), np.sin(theta)
    return (J1 * c * c + J2 * s * s) / (np.abs(c) ** p + np.abs(s) ** p) ** (2.0 / p)


def _golden_max(f, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section search for the maximum of f on [lo, hi], assumed
    unimodal there: (f(x), x) at the best point evaluated once the bracket is
    narrower than GOLDEN_XTOL."""
    g = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = hi - g * (hi - lo), lo + g * (hi - lo)
    fa, fb = f(a), f(b)
    while hi - lo > GOLDEN_XTOL:
        if fa >= fb:  # the maximum lies in [lo, b]
            hi, b, fb = b, a, fa
            a = hi - g * (hi - lo)
            fa = f(a)
        else:  # the maximum lies in [a, hi]
            lo, a, fa = a, b, fb
            b = lo + g * (hi - lo)
            fb = f(b)
    return (fa, a) if fa >= fb else (fb, b)


def _theta_max(f, samples: int) -> tuple[float, float]:
    """Maximum of f over theta in [0, pi) and its argmax: f on the array of
    uniform samples in one call, then golden-section search (scalar calls)
    within one spacing of the best sample, whose result replaces the sample
    only when it is at least as large."""
    thetas = _thetas(samples)
    vals = f(thetas)
    j = int(np.argmax(vals))
    step = math.pi / samples
    fx, x = _golden_max(f, thetas[j] - step, thetas[j] + step)
    if fx >= vals[j]:
        return float(fx), float(x % math.pi)
    return float(vals[j]), float(thetas[j])


def path_max_from_energies(J1: float, J2: float, p: float) -> tuple[float, float]:
    """Dense theta-sampling of the disjoint-support energy profile, refined by
    golden-section search. Independent route to disjoint_support_max.

    Targets the same stationary value as the closed form: the profile maximum
    unless both energies are nonpositive, in which case the interior trough.
    """
    sign = -1.0 if (J1 <= 0.0 and J2 <= 0.0) else 1.0
    mx, th = _theta_max(lambda t: sign * two_block_energy(J1, J2, p, t), THETA_SAMPLES)
    return sign * mx, th


def path_max_J(path, V: np.ndarray, samples: int = THETA_SAMPLES) -> tuple[float, float]:
    """Maximum of J over the path and its argmax angle, with V = Vinf - W on
    the path's grid.

    Evaluates `path.energy(V)` once on the array of `samples` uniform angles
    in [0, pi) (J is even under the antipodal reflection) and refines around
    the best sample by golden-section search, one angle per step; the maximum
    reported is that energy at the argmax angle. A closed form (`PathEnergy`,
    from a `PathFamily` or a `TranslatedBumps` sweep) builds no field, except
    J of the field at the argmax where its mass cancels (`PathEnergy.cancels`);
    a `SampledPath` builds one field per angle.
    """
    if not MIN_THETA_SAMPLES <= samples <= MAX_THETA_SAMPLES:
        raise PathError(f"between {MIN_THETA_SAMPLES} and {MAX_THETA_SAMPLES} theta samples "
                        f"required, got {samples}")
    J = path.energy(V)
    mx, theta = _theta_max(J, samples)
    if isinstance(J, PathEnergy) and J.cancels(theta):
        mx = energy_J(path.at(theta), V)
    return mx, theta


def balanced_point(path, p: float) -> tuple[GridFunction, float]:
    """Point of the path whose positive and negative parts carry equal mass.

    Bisection on f(theta) = I(gamma+) - I(gamma-) over [0, pi] to |f| <= 1e-10
    in at most 200 steps, using the sign flip f(pi) = -f(0) forced by oddness.
    """
    tol, max_iter = 1e-10, 200

    def f(theta):
        u = path.at(theta)
        plus, minus = split_signs(u)
        return mass_I(plus, p) - mass_I(minus, p)

    f0 = f(0.0)
    if abs(f0) <= tol:
        return path.at(0.0), 0.0
    lo, hi = 0.0, math.pi
    flo = f0
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm) <= tol:
            return path.at(mid), mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    raise PathError(f"balanced-point bisection did not reach tol {tol}")


def translated_bump_path(w1: GridFunction, winf: GridFunction, y,
                         p: float) -> PathFamily:
    """Two-bump path between w1 and the normalized translate of winf by y."""
    return PathFamily(w1, lp_normalize(translate(winf, y), p), p)


def _layer_sums(t: np.ndarray) -> np.ndarray:
    """Sum of `t` over each layer of its first axis."""
    return t.reshape(len(t), -1).sum(axis=1)


def _weighted_squares(t: np.ndarray, weights: np.ndarray) -> np.ndarray:
    t *= t
    t *= weights
    return t


class TranslatedBumps:
    """The two-bump paths `translated_bump_path(w1, winf, y e1, p)` of a
    sweep over translations y along the first axis, with V = Vinf - W on the
    grid of w1, in closed form from quantities computed once per sweep.

    The sweep runs on the grid `half`: FULL along the first axis, the
    translation axis, and with the parity of w1's grid along the others
    (`domain.Grid`). So w1, winf and V, which the pipeline holds on the
    orthant of a radial well, are unfolded along the first axis only, into
    the arrays the sweep holds (`V` is its potential), and every sum over
    the other axes counts each node as the full-grid nodes it stands for:
    the products below carry those node weights. Per sweep:

    - H w1 (one `_apply_H`), its G11 = h^N <w1, H w1>, and |w1|_p^p;
    - first-axis layer profiles of w = winf: per layer, sum w^2, sum |w|^p
      and the squared link differences inside it and between neighbouring
      layers, and for p not an even integer sum |w1|^p.

    `translate` by k layers keeps the layers a..b of w that land on interior
    nodes. The kinetic term of w restricted to them is the links inside and
    between those layers, plus sum w^2 on layers a and b, whose outer links
    end on zeros; its mass is the |w|^p of those layers. Per translation,
    G12 = h^N <H w1, T w> is one einsum over views of the kept layers, and
    sum V (T w)^2 and, for even integer p, the p - 1 cross moments
    sum w1^j (T w)^(p-j) are einsums of two or three operands over the
    powers of a block of kept layers at a time (`energy._row_blocks`), so no
    grid array is allocated. For other p the mass at an angle is one
    `lp_mass` pass over the combination on the layers a + k..b + k plus
    |c|^p times the |w1|^p of the other layers.
    """

    def __init__(self, w1: GridFunction, winf: GridFunction, V: np.ndarray, p: float):
        grid = w1.grid
        half = grid.fold((FULL,) + grid.parity[1:])
        self.p, self.grid, self.half = p, grid, half
        self.V = grid.unfold(V, half.parity)
        self._w1 = u = grid.unfold(w1.values, half.parity)
        self._w = w = grid.unfold(winf.values, half.parity)
        # the node weights of the axes after the first, broadcast over the first
        self._c = c = math.prod(np.ix_(*map(axis_weights, half.parity[1:], half.shape[1:])))
        t = _weighted_squares(np.copy(w), c)  # each grid temporary here is freed before the next
        self._sq = _layer_sums(t)
        t = np.multiply(w, w, out=t)
        t **= p / 2.0
        t *= c
        self._mass = _layer_sums(t) * grid.weight
        if not _even(p):  # for the |w1|^p outside the kept layers
            t = np.multiply(u, u, out=t)
            t **= p / 2.0
            t *= c
            self._w1_layer_mass = _layer_sums(t) * grid.weight
        del t
        self._between = _layer_sums(_weighted_squares(np.diff(w, axis=0), c))
        # a link along an EVEN axis stands for two, as does the node it ends on
        self._inside = sum(_layer_sums(_weighted_squares(
            np.diff(w, axis=ax), c[(slice(None),) * (ax - 1) + (slice(1, None),)]))
            for ax in range(1, grid.N))
        self._w1_mass = mass_I(w1, p)
        self._Hw1 = _apply_H(u, self.V, grid.h, parity=half.parity)
        self._G11 = _pair(u, self._Hw1, grid.h, half.parity)
        self._Hw1 *= c  # only G12 reads it from here on

    def path(self, y: float) -> "_TranslatedPath":
        """The path at translation y e1, for `path_max_J` with the sweep's `V`."""
        return _TranslatedPath(self, lattice_steps(self.grid, (y,) + (0.0,) * (self.grid.N - 1)))

    def energy(self, steps: tuple[int, ...]) -> PathEnergy:
        """J along the path at the lattice translation `steps` (k, 0, ..),
        from the per-sweep quantities and the views of the kept layers."""
        k, grid, p, w = steps[0], self.grid, self.p, self._w
        last = w.shape[0] - 2
        a, b = max(1, 1 - k), min(last, last - k)  # the kept layers of w
        mass = float(np.sum(self._mass[a:b + 1])) if a <= b else 0.0
        if mass == 0.0:
            raise PathError("a translation that keeps no interior node of w_inf gives the zero field")
        n = mass ** (1.0 / p)
        src, dst = slice(a, b + 1), slice(a + k, b + k + 1)
        ws, Vd, w1 = w[src], self.V[dst], self._w1[dst]
        e = int(p) if _even(p) else 0
        dot2, dot3 = _dot(grid.N, 2), _dot(grid.N, 3)
        # sum c V (T w)^2, then M_j = sum c w1^j (T w)^(p-j) for j = p - 1 .. 1
        sums = np.zeros(max(e, 1))
        for rows in _row_blocks(ws.shape):
            t, v = ws[rows] * self._c, ws[rows]  # c (T w)^i, raised in place below
            sums[0] += np.einsum(dot3, Vd[rows], t, v)
            powers = [w1[rows]]  # w1^j, j = 1 .. p - 1
            for _ in range(e - 2):
                powers.append(powers[-1] * powers[0])
            for j in range(e - 1, 0, -1):
                sums[e - j] += np.einsum(dot2, powers[j - 1], t)
                t *= v
        kinetic = (np.sum(self._inside[src]) + np.sum(self._between[a:b])
                   + self._sq[a] + self._sq[b]) * grid.h ** (grid.N - 2)
        Q = kinetic + float(sums[0]) * grid.weight
        G12 = float(np.einsum(dot2, self._Hw1[dst], ws)) * grid.weight / n
        G = np.array([[self._G11, G12], [G12, Q / n ** 2]])
        self_mass = (self._w1_mass, mass / n ** p)
        if e:  # m = sum_j C(p, j) M_j c^j s^(p-j), M_j = h^N sum c w1^j (T w / n)^(p-j)
            moments = ([self_mass[1]] + [float(sums[e - j]) * grid.weight / n ** (p - j)
                                         for j in range(1, e)] + [self._w1_mass])
            terms = [(j, math.comb(e, j) * m) for j, m in enumerate(moments)][::-1]
            return PathEnergy(G, lambda c, s: sum(m * c ** j * s ** (e - j) for j, m in terms),
                              self_mass, p)
        layers = self._w1_layer_mass
        outside = float(np.sum(layers[:a + k]) + np.sum(layers[b + k + 1:]))
        parity = self.half.parity

        def mass_at(c, s):  # |c w1 + (s / n) T w|_p^p
            v = c * w1
            v += (s / n) * ws
            return abs(c) ** p * outside + lp_mass(v, p, grid.weight, parity)
        return PathEnergy(G, np.vectorize(mass_at, otypes=[float]), self_mass, p)


class _TranslatedPath:
    """One path of a `TranslatedBumps` sweep, for `path_max_J`: J in closed
    form from the sweep, and the `translated_bump_path` on the sweep's half
    grid built only for a field, or where the mass cancels along a diagonal,
    as it does when u2 = +/- u1 (a degenerate path, which `PathFamily` rejects)."""

    def __init__(self, bumps: TranslatedBumps, steps: tuple[int, ...]):
        self.bumps, self.steps = bumps, steps

    @cached_property
    def family(self) -> PathFamily:
        b = self.bumps
        return translated_bump_path(GridFunction(b.half, b._w1), GridFunction(b.half, b._w),
                                    self.steps, b.p)

    def energy(self, V: np.ndarray) -> PathEnergy:
        """J along the path; `V` must be the sweep's array, which the closed form
        uses and `path_max_J` passes on to J of a field built at the argmax."""
        if V is not self.bumps.V:
            raise PathError("a translated path takes the potential of its sweep")
        J = self.bumps.energy(self.steps)
        if J.cancels(math.pi / 4) or J.cancels(3 * math.pi / 4):
            self.family  # built here: PathFamily raises PathError for u2 = +/- u1
        return J

    def at(self, theta: float) -> GridFunction:
        return self.family.at(theta)


def overlap_integrals(w1: GridFunction, winf: GridFunction, y, p: float) -> tuple[float, float]:
    """Cross integrals (int w1^(p-1) winf(.-y), int w1 winf(.-y)^(p-1)).

    Both decay exponentially in |y|; their log-slope against |y| is the
    rate diagnostic for the two-bump error terms.
    """
    if np.min(w1.values) < -1e-12 or np.min(winf.values) < -1e-12:
        raise PathError("overlap integrals require nonnegative fields")
    shifted = translate(winf, y).values
    weight = w1.grid.weight
    o1 = float(np.sum(w1.values ** (p - 1.0) * shifted) * weight)
    o2 = float(np.sum(w1.values * shifted ** (p - 1.0)) * weight)
    return o1, o2


def _summed_area(a: np.ndarray) -> np.ndarray:
    """Summed-area table of `a` with one leading zero per axis: entry i holds
    the sum of a[z] over z < i componentwise."""
    s = np.zeros(tuple(n + 1 for n in a.shape))
    s[(slice(1, None),) * a.ndim] = a
    for ax in range(a.ndim):
        np.cumsum(s, axis=ax, out=s)
    return s


def _box_sums(sat: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Sums over the boxes lo <= z <= hi (rows of (M, N) index arrays) of the
    array behind the summed-area table `sat`, by inclusion-exclusion over
    the 2^N corners; a box with hi = lo - 1 on an axis sums to 0."""
    total = np.zeros(len(lo))
    for corner in itertools.product((False, True), repeat=sat.ndim):
        term = sat[tuple(hi[:, a] + 1 if up else lo[:, a] for a, up in enumerate(corner))]
        if (sat.ndim - sum(corner)) % 2:
            total -= term
        else:
            total += term
    return total


class TranslationTable:
    """J^inf of u = T_k w - T_{-k} w at any lattice steps k, from pieces of one
    field w computed once; for even integer p no field is built per step.

    `translate` by k drops what leaves the box, so A = T_k w is w restricted to
    the rectangle S_k = Int & (Int - k) of interior nodes, moved by k. With Q
    the quadratic form of H = -Delta_h + Vinf,

        Q(u) = Q(w|S_k) + Q(w|S_-k) - 2 X(2k),   X(t) = sum_z w(z) (Hw)(z + t) h^N,

    where H acts on the unbounded lattice (`_apply_H` without the Dirichlet
    rows), so Hw keeps its layer on the box boundary. The self terms come
    from summed-area tables of w^2, |w|^p and the squared link differences
    along each axis; the faces of S_k enter the kinetic term through the w^2
    table. The cross terms need no window: w(x - k) w(x + k) != 0 puts both
    ends, and so x, their midpoint, in Int, where neither translate is
    clipped, and the mixed link terms likewise. For even integer p the mass is

        |u|_p^p = sum_j C(p, j) (-1)^(p-j) sum A^j B^(p-j),   B = T_-k w,

    whose j = p and j = 0 terms are self terms and the others correlations
    sum_z w^j(z) w^(p-j)(z + 2k). Other p build u in one reused buffer, and
    so does a step whose mass the moment sums cancel down to below
    CANCELLATION of the translates' masses (a step of a node or two).
    Each correlation is one pass over the overlap of two views. Taking Int
    for both rectangles instead gives J^inf on the unbounded lattice, where
    the wall clips nothing.
    """

    def __init__(self, w: GridFunction, p: float):
        v = w.values
        self.field, self.p = w, p
        self._interior = np.ones(v.ndim, dtype=int), np.array(v.shape) - 2
        self._sat_sq = _summed_area(v * v)
        self._sat_mass = _summed_area(np.abs(v) ** p)
        self._sat_links = [_summed_area(np.diff(v, axis=a) ** 2) for a in range(v.ndim)]
        self._moments = None  # the mass correlations with their binomial weights
        if _even(p):
            n = int(p)
            powers = [v] + [v ** j for j in range(2, n)]  # w^j, j = 1 .. p - 1
            self._moments = [(math.comb(n, j) * (-1) ** (n - j), powers[j - 1], powers[n - j - 1])
                             for j in range(1, n)]
        self._dot = _dot(v.ndim, 2)

    def _self_terms(self, lo, hi, Vinf: float):
        """(Q, |.|_p^p) of w restricted to each rectangle lo <= z <= hi."""
        grid = self.field.grid
        kinetic = np.zeros(len(lo))
        for a, sat in enumerate(self._sat_links):
            inner = hi.copy()
            inner[:, a] -= 1
            kinetic += _box_sums(sat, lo, inner)  # links with both ends inside
            for face in (lo[:, a], hi[:, a]):  # links that leave through a face
                face_lo, face_hi = lo.copy(), hi.copy()
                face_lo[:, a] = face_hi[:, a] = face
                kinetic += _box_sums(self._sat_sq, face_lo, face_hi)
        Q = kinetic * grid.h ** (grid.N - 2) + Vinf * _box_sums(self._sat_sq, lo, hi) * grid.weight
        return Q, _box_sums(self._sat_mass, lo, hi) * grid.weight

    def energies(self, steps, Vinf: float) -> tuple[np.ndarray, np.ndarray]:
        """J^inf of T_k w - T_-k w at each row k of the integer array `steps`,
        in the box (as `translate` builds it) and on the unbounded lattice."""
        v, grid, p = self.field.values, self.field.grid, self.p
        steps = np.asarray(steps, dtype=int).reshape(-1, grid.N)
        lo, hi = self._interior
        if not np.all(np.any(steps, axis=1)) or np.any(np.abs(steps) > hi - lo):
            raise PathError("a zero step, or one that keeps no interior node, gives the zero field")
        q_a, m_a = self._self_terms(np.maximum(lo, lo - steps), np.minimum(hi, hi - steps), Vinf)
        q_b, m_b = self._self_terms(np.maximum(lo, lo + steps), np.minimum(hi, hi + steps), Vinf)
        q_w, m_w = self._self_terms(lo[None], hi[None], Vinf)
        Hw = _apply_H(v, Vinf, grid.h, dirichlet=False)
        cross_q, cross_m = np.empty(len(steps)), np.zeros(len(steps))
        for i, k in enumerate(steps):
            dst, src = shift_slices(2 * k, v.shape)
            cross_q[i] = np.einsum(self._dot, v[src], Hw[dst])
            if self._moments:
                cross_m[i] = sum(c * np.einsum(self._dot, a[src], b[dst]) for c, a, b in self._moments)
        cross_q *= grid.weight
        cross_m *= grid.weight
        box_mass = m_a + m_b + cross_m
        built = (np.flatnonzero(box_mass < CANCELLATION * (m_a + m_b)) if self._moments
                 else range(len(steps)))
        buf = np.empty_like(v) if len(built) else None
        for i in built:
            buf.fill(0.0)
            dst, src = shift_slices(steps[i], v.shape)
            buf[dst] = v[src]
            dst, src = shift_slices(-steps[i], v.shape)
            buf[dst] -= v[src]
            box_mass[i] = lp_mass(zero_boundary(buf), p, grid.weight)
            cross_m[i] = box_mass[i] - m_a[i] - m_b[i]
        e = 2.0 / p
        box = (q_a + q_b - 2.0 * cross_q) / box_mass ** e
        unbounded = (2.0 * q_w - 2.0 * cross_q) / (2.0 * m_w + cross_m) ** e
        return box, unbounded


class SphereMap:
    """The odd translation map y -> normalize(w(. + Ry) - w(. - Ry)) of the
    field w and exponent p of a `TranslationTable`, at the SPHERE_SAMPLES unit
    vectors `points`, one per antipodal pair: the difference of translates
    flips sign exactly under y -> -y, so J(-u) = J(u). Each Ry is rounded to
    the nearest lattice vector, so evaluation uses exact grid shifts.

    `at(y)` builds the field. `scan(Vinf)` evaluates J^inf at every point from
    the table, and keeps in `unbounded` the J^inf of the same directions on
    the unbounded lattice, from the same correlations.
    """

    def __init__(self, table: TranslationTable, R: float):
        grid = table.field.grid
        if R >= grid.L:
            raise PathError("R must be smaller than the box half-width")
        self.table, self.R = table, R
        self.points = sphere_points(grid.N, SPHERE_SAMPLES)
        self.unbounded = None

    def _steps(self, y) -> tuple[int, ...]:
        return self.table.field.grid.lattice_vector(self.R * np.asarray(y, dtype=float))

    def at(self, y) -> GridFunction:
        w, steps = self.table.field, self._steps(y)
        u = translate(w, steps).values - translate(w, tuple(-s for s in steps)).values
        return lp_normalize(GridFunction._adopt(w.grid, u), self.table.p)

    def scan(self, Vinf: float) -> np.ndarray:
        """J^inf at each of `points`, in order, with the scalar potential Vinf."""
        box, self.unbounded = self.table.energies([self._steps(y) for y in self.points],
                                                  float(Vinf))
        return box


def sphere_points(m: int, samples: int) -> np.ndarray:
    """`samples` directions of S^(m-1) that, with their negatives, sample the
    sphere closed under y -> -y; an odd map needs no value at the negatives.

    Uniform angles on a half circle for m = 2; for m = 3 a Fibonacci rule on
    the half sphere z > 0, so that no direction is nearly the negative of
    another.
    """
    if m not in (2, 3):
        raise PathError("sphere sampling implemented for m = 2 and m = 3")
    k = np.arange(samples)
    if m == 2:
        angles = math.pi * k / samples
        return np.stack([np.cos(angles), np.sin(angles)], axis=1)
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    z = (k + 0.5) / samples
    phi = 2.0 * math.pi * k / golden
    rad = np.sqrt(1.0 - z * z)
    return np.stack([rad * np.cos(phi), rad * np.sin(phi), z], axis=1)
