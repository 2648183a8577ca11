import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minimaxlab import (GridFunction, ProblemSpec, build_grid, lp_norm,
                        lp_normalize, split_signs, translate)
from minimaxlab.field import (FieldError, load_gridfunction,
                              save_gridfunction)
from minimaxlab.domain import EVEN, FULL
from minimaxlab.energy import mass_I


@pytest.fixture(scope="module")
def grid():
    return build_grid(ProblemSpec(N=2, p=4.0, Vinf=1.0, L=4.0, h=0.125))


def gaussian(grid, center=(0.0, 0.0), width=1.0):
    x, y = grid.coords()
    r2 = (x - center[0]) ** 2 + (y - center[1]) ** 2
    return GridFunction(grid, np.exp(-r2 / (2.0 * width ** 2)))


def compact_bump(grid, center, radius=1.0, sign=1.0):
    x, y = grid.coords()
    r2 = ((x - center[0]) ** 2 + (y - center[1]) ** 2) / radius ** 2
    return GridFunction(grid, sign * np.where(r2 < 1.0, (1.0 - r2) ** 2, 0.0))


class TestLpNorm:
    def test_zero(self, grid):
        assert lp_norm(GridFunction(grid, np.zeros(grid.shape)), 4.0) == 0.0

    def test_single_node(self, grid):
        vals = np.zeros(grid.shape)
        vals[grid.origin_index] = -3.0
        u = GridFunction(grid, vals)
        assert lp_norm(u, 4.0) == pytest.approx(grid.h ** (2 / 4.0) * 3.0)

    def test_gaussian_against_closed_form(self):
        g = build_grid(ProblemSpec(N=2, p=4.0, Vinf=1.0, L=12.0, h=0.125))
        u = gaussian(g)
        # int e^{-2 r^2} over R^2 = pi / 2
        assert lp_norm(u, 4.0) == pytest.approx((math.pi / 2.0) ** 0.25, rel=1e-6)

    def test_rejects_p_below_one(self, grid):
        with pytest.raises(FieldError):
            lp_norm(GridFunction(grid, np.zeros(grid.shape)), 0.5)


class TestGridFunction:
    def test_constructor_does_not_alias_the_callers_array(self, grid):
        vals = np.ones(grid.shape)
        u = GridFunction(grid, vals)
        assert not np.shares_memory(u.values, vals)
        vals[3, 3] = 7.0
        assert u.values[3, 3] == 1.0
        # the boundary is zeroed in the field's copy, not in the caller's array
        assert u.values[0, 0] == 0.0 and vals[0, 0] == 1.0

    def test_fresh_results_are_adopted_not_copied(self, grid, monkeypatch):
        # lp_normalize, translate, split_signs and negation hand their own
        # new arrays to the field without a second copy
        u = gaussian(grid)

        def copying(*args):
            raise AssertionError("a fresh array was copied")

        monkeypatch.setattr(GridFunction, "__init__", copying)
        plus, minus = split_signs(u)
        for v in (lp_normalize(u, 4.0), translate(u, (2, -1)), plus, minus, -u):
            assert isinstance(v, GridFunction) and v.values.shape == grid.shape


class TestLpNormalize:
    def test_idempotent(self, grid):
        u = lp_normalize(gaussian(grid), 4.0)
        again = lp_normalize(u, 4.0)
        assert np.allclose(u.values, again.values, rtol=1e-12, atol=0)
        assert lp_norm(u, 4.0) == pytest.approx(1.0, abs=1e-12)

    @given(scale=st.floats(0.01, 100.0))
    @settings(max_examples=20, deadline=None)
    def test_positive_homogeneity(self, grid, scale):
        u = gaussian(grid)
        a = lp_normalize(u, 4.0)
        b = lp_normalize(GridFunction(grid, scale * u.values), 4.0)
        assert np.allclose(a.values, b.values, rtol=1e-12, atol=1e-15)

    def test_odd_homogeneity(self, grid):
        u = gaussian(grid)
        a = lp_normalize(u, 4.0)
        b = lp_normalize(-u, 4.0)
        assert np.allclose(a.values, -b.values)

    def test_zero_rejected(self, grid):
        with pytest.raises(FieldError):
            lp_normalize(GridFunction(grid, np.zeros(grid.shape)), 4.0)


class TestSplitSigns:
    def test_nonnegative_field(self, grid):
        u = gaussian(grid)
        plus, minus = split_signs(u)
        assert np.array_equal(plus.values, u.values)
        assert not np.any(minus.values)

    def test_negation_swaps_halves(self, grid):
        u = GridFunction(grid, gaussian(grid, (-1.0, 0.0)).values
                         - gaussian(grid, (1.0, 0.0)).values)
        plus, minus = split_signs(u)
        nplus, nminus = split_signs(-u)
        assert np.array_equal(plus.values, nminus.values)
        assert np.array_equal(minus.values, nplus.values)

    def test_reconstruction_and_disjointness(self, grid):
        u = GridFunction(grid, compact_bump(grid, (-2, 0)).values
                         - compact_bump(grid, (2, 0)).values)
        plus, minus = split_signs(u)
        assert np.array_equal(u.values, plus.values - minus.values)
        assert not np.any(plus.values * minus.values)

    def test_mass_additivity_exact(self, grid):
        u = GridFunction(grid, compact_bump(grid, (-2, 0)).values
                         - 0.7 * compact_bump(grid, (2, 0)).values)
        plus, minus = split_signs(u)
        assert mass_I(u, 4.0) == mass_I(plus, 4.0) + mass_I(minus, 4.0)


class TestTranslate:
    def test_identity(self, grid):
        u = gaussian(grid)
        assert np.array_equal(translate(u, (0.0, 0.0)).values, u.values)

    def test_roundtrip_interior_bump(self, grid):
        u = compact_bump(grid, (0, 0), radius=1.0)
        back = translate(translate(u, (1.0, -0.5)), (-1.0, 0.5))
        assert np.array_equal(back.values, u.values)

    def test_norm_preserved_for_interior_support(self, grid):
        u = compact_bump(grid, (0, 0), radius=1.0)
        shifted = translate(u, (2.0, 1.0))
        assert lp_norm(shifted, 4.0) == pytest.approx(lp_norm(u, 4.0), abs=0)

    def test_non_lattice_displacement_rejected(self, grid):
        with pytest.raises(FieldError):
            translate(gaussian(grid), (0.1, 0.0))

    def test_3d_shift_equals_one_axis_shifts(self):
        grid = build_grid(ProblemSpec(N=3, p=4.0, Vinf=1.0, L=2.0, h=0.25))
        u = GridFunction(grid, np.random.default_rng(3).standard_normal(grid.shape))
        steps = (3, -2, 5)
        one_axis = u
        for ax, k in enumerate(steps):
            one_axis = translate(one_axis, tuple(k if i == ax else 0 for i in range(3)))
        assert np.array_equal(translate(u, steps).values, one_axis.values)

    def test_3d_shift_past_box_is_zero(self):
        grid = build_grid(ProblemSpec(N=3, p=4.0, Vinf=1.0, L=2.0, h=0.25))
        u = GridFunction(grid, np.ones(grid.shape))
        n = grid.shape[0]
        assert not np.any(translate(u, (1, -n, 0)).values)
        assert not np.any(translate(u, (0, 0, n + 4)).values)

    def test_folded_field_moves_along_its_full_axes_only(self):
        # along a FULL axis the translate is the fold of the grid's translate;
        # a shift along an EVEN axis would break the evenness the fold stands for
        grid = build_grid(ProblemSpec(N=2, p=4.0, Vinf=1.0, L=2.0, h=0.25))
        half = grid.fold((FULL, EVEN))
        u = GridFunction(grid, np.exp(-grid.radius()))
        uh = GridFunction(half, u.values[:, grid.origin_index[1]:])
        assert np.array_equal(half.unfold(translate(uh, (3, 0)).values),
                              translate(u, (3, 0)).values)
        with pytest.raises(FieldError, match="FULL axes"):
            translate(uh, (0, 1))

    def test_ground_state_tail_loss_small(self, winf0):
        # decaying state shifted halfway across the desk box loses < 1e-6 mass
        shifted = translate(winf0, (8.0, 0.0))
        assert abs(lp_norm(shifted, 4.0) - 1.0) < 1e-6


class TestSerialization:
    def test_binary_roundtrip(self, grid, tmp_path):
        u = gaussian(grid, (0.5, -0.25))
        path = tmp_path / "u.gfb"
        save_gridfunction(u, path)
        v = load_gridfunction(path)
        assert v.grid.shape == grid.shape
        assert v.grid.h == grid.h
        assert np.array_equal(v.values, u.values)

    @pytest.mark.parametrize("content", [
        b"not a field at all",
        b"GFB1\x02\x00",
        b"GFB1" + struct.pack("<id", 2, 8.0),
        b"GFB1" + struct.pack("<idd", 2, 8.0, 0.25) + struct.pack("<i", 65),
        b"GFB1" + struct.pack("<idd", 0, 8.0, 0.25),
        b"GFB1" + struct.pack("<idd", -3, 8.0, 0.25),
        b"GFB1" + struct.pack("<idd2i", 2, 8.0, 0.0, 65, 65),
        b"GFB1" + struct.pack("<idd2i", 2, math.inf, 0.25, 65, 65),
        b"GFB1" + struct.pack("<idd2i", 2, -8.0, 0.25, 65, 65) + bytes(8 * 65 * 65),
        b"GFB1" + struct.pack("<idd2i", 2, 1e13, 1.0, 3, 3) + bytes(8 * 9)],
        ids=["bad-magic", "short-axis-count", "short-spacing", "short-axis-sizes",
             "zero-axes", "negative-axes", "zero-spacing", "infinite-half-width",
             "negative-half-width", "shape-below-half-width"])
    def test_bad_magic_rejected(self, tmp_path, content):
        # a bad magic or an unusable header is a FieldError, never a struct.error;
        # so is a shape that L/h contradicts, caught before a 2e13-node axis is allocated
        path = tmp_path / "junk.gfb"
        path.write_bytes(content)
        with pytest.raises(FieldError):
            load_gridfunction(path)
