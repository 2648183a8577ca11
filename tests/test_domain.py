import math
import re

import numpy as np
import pytest

from minimaxlab import ProblemSpec, WSpec, build_grid, dual_norm_W, eval_W
from minimaxlab.domain import (EVEN, DomainError, parse_problem_mapping,
                               read_keyvalue_file, zero_boundary)


def small_spec(**kw):
    base = dict(N=2, p=4.0, Vinf=1.0, L=4.0, h=0.25)
    base.update(kw)
    return ProblemSpec(**base)


class TestProblemSpec:
    def test_rejects_one_dimension(self):
        with pytest.raises(DomainError):
            ProblemSpec(N=1)

    def test_rejects_subquadratic_exponent(self):
        with pytest.raises(DomainError):
            small_spec(p=2.0)

    def test_rejects_supercritical_exponent_3d(self):
        with pytest.raises(DomainError):
            ProblemSpec(N=3, p=6.0, L=4.0, h=0.5)
        ProblemSpec(N=3, p=4.0, L=4.0, h=0.5)  # subcritical is fine

    def test_rejects_nonpositive_vinf(self):
        with pytest.raises(DomainError):
            small_spec(Vinf=0.0)

    def test_rejects_noninteger_spacing_ratio(self):
        with pytest.raises(DomainError):
            small_spec(L=1.0, h=0.3)

    def test_derived_exponents(self):
        spec = small_spec(p=4.0)
        assert spec.q == pytest.approx(2.0)
        assert spec.sigma == pytest.approx(0.5)
        assert spec.q * spec.sigma == pytest.approx(1.0, abs=1e-15)
        assert spec.sigma == pytest.approx(1.0 / spec.q, abs=1e-15)


class TestBuildGrid:
    def test_small_grid_shape_and_origin(self):
        grid = build_grid(small_spec(L=1.0, h=0.5))
        assert grid.shape == (5, 5)
        assert grid.origin_index == (2, 2)
        assert grid.axis[2] == 0.0

    def test_desk_grid_shape(self):
        grid = build_grid(small_spec(L=16.0, h=0.125))
        assert grid.shape == (257, 257)

    def test_symmetric_axis(self):
        grid = build_grid(small_spec())
        assert np.array_equal(grid.axis, -grid.axis[::-1])

    @pytest.mark.parametrize("h", [0.1, 0.2, 0.3])
    def test_radius_is_even_off_dyadic_spacings(self, h):
        # np.linspace(-L, L, 2m+1) is not exactly odd at these spacings, so a
        # radial V built on it would not equal its mirror image
        grid = build_grid(small_spec(L=3.0, h=h))
        assert np.array_equal(grid.axis, -grid.axis[::-1])
        r = grid.radius()
        assert all(np.array_equal(r, np.flip(r, ax)) for ax in range(2))

    @pytest.mark.parametrize("parity", [("even", "even"), ("full", "even"), ("even", "full")])
    def test_folded_grid_keeps_the_nodes_of_its_even_halves(self, parity):
        grid = build_grid(small_spec(L=3.0, h=0.25))
        half = grid.fold(parity)
        assert grid.fold(grid.parity) is grid and half.fold(parity) is half
        keep = tuple(slice(m, None) if kind == EVEN else slice(None)
                     for m, kind in zip(grid.origin_index, parity))
        assert half.shape == grid.radius()[keep].shape
        assert np.array_equal(half.radius(), grid.radius()[keep])
        assert all(half.axes[ax][half.origin_index[ax]] == 0.0 for ax in range(2))
        # unfolding the even halves gives back an even grid array, in one pass
        r = grid.radius()
        folded = r[keep]
        assert np.array_equal(half.unfold(folded), r)
        assert half.unfold(folded, parity) is folded and grid.unfold(r) is r

    def test_memory_cap(self):
        with pytest.raises(DomainError):
            build_grid(ProblemSpec(N=3, p=4.0, L=64.0, h=0.125))


class TestEvalW:
    def test_exponential_at_origin(self):
        spec = small_spec(W=WSpec(family="exponential", c=0.5, a=0.5))
        grid = build_grid(spec)
        w = eval_W(spec, grid)
        assert w[grid.origin_index] == pytest.approx(0.5)
        assert not np.any(w - zero_boundary(w.copy()))

    def test_exponential_at_radius_two(self):
        spec = small_spec(W=WSpec(family="exponential", c=1.0, a=1.0))
        grid = build_grid(spec)
        w = eval_W(spec, grid)
        # node at (2, 0)
        idx = (grid.origin_index[0] + round(2 / spec.h), grid.origin_index[1])
        assert w[idx] == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_zero_family(self):
        spec = small_spec()
        grid = build_grid(spec)
        assert not np.any(eval_W(spec, grid))

    def test_bump_family_compact_support(self):
        spec = small_spec(W=WSpec(family="bump", c=2.0, a=1.0))
        grid = build_grid(spec)
        w = eval_W(spec, grid)
        assert w[grid.origin_index] == pytest.approx(2.0)
        assert np.all(w[grid.radius() >= 1.0] == 0.0)

    @pytest.mark.parametrize("family", [WSpec(family="exponential", c=0.5, a=0.5),
                                        WSpec(family="bump", c=2.0, a=1.0), WSpec()])
    @pytest.mark.parametrize("N", [2, 3])
    def test_radial_families_on_the_orthant_are_the_grids_values(self, family, N):
        # bit for bit, and the orthant's |W|_q is the grid's to rounding
        spec = small_spec(N=N, L=2.0, W=family)
        grid = build_grid(spec)
        half = grid.fold((EVEN,) * N)
        w, wh = eval_W(spec, grid), eval_W(spec, half)
        assert np.array_equal(wh, w[(slice(grid.origin_index[0], None),) * N])
        assert dual_norm_W(wh, spec.q, half.weight, half.parity) == pytest.approx(
            dual_norm_W(w, spec.q, grid.weight), rel=1e-13, abs=0.0)

    def test_table_on_a_folded_grid_rejected(self):
        # a table need not be even, so it is never folded
        spec = small_spec(W=WSpec(family="table", table_path="unread.gfb"))
        with pytest.raises(DomainError, match="folded"):
            eval_W(spec, build_grid(spec).fold((EVEN, EVEN)))

    def test_unknown_family_rejected(self):
        with pytest.raises(DomainError):
            WSpec(family="sombrero")

    def test_table_from_another_grid_rejected(self, tmp_path):
        from minimaxlab.field import GridFunction, save_gridfunction

        saved = build_grid(small_spec(L=8.0, h=0.25))
        path = tmp_path / "w.gfb"
        save_gridfunction(GridFunction(saved, np.ones(saved.shape)), path)
        spec = small_spec(L=16.0, h=0.5, W=WSpec(family="table", table_path=str(path)))
        grid = build_grid(spec)
        assert grid.shape == saved.shape  # same node count, twice the spacing
        with pytest.raises(DomainError, match="tabulated W"):
            eval_W(spec, grid)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_table_with_a_non_finite_node_rejected(self, tmp_path, bad):
        # by the file's name where it is read, not as an overflow of |W|_q
        from minimaxlab.field import GridFunction, save_gridfunction

        grid = build_grid(small_spec())
        vals = np.zeros(grid.shape)
        vals[grid.origin_index] = bad
        path = tmp_path / "w.gfb"
        save_gridfunction(GridFunction(grid, vals), path)
        spec = small_spec(W=WSpec(family="table", table_path=str(path)))
        with pytest.raises(DomainError, match=re.escape(f"{path}: tabulated W has a non-finite")):
            eval_W(spec, grid)


class TestDualNormW:
    def test_zero(self):
        spec = small_spec()
        grid = build_grid(spec)
        assert dual_norm_W(eval_W(spec, grid), spec.q, grid.weight) == 0.0

    def test_single_cell_indicator(self, tmp_path):
        from minimaxlab.field import GridFunction, save_gridfunction

        spec = small_spec()
        grid = build_grid(spec)
        vals = np.zeros(grid.shape)
        vals[grid.origin_index] = 1.0
        path = tmp_path / "w.gfb"
        save_gridfunction(GridFunction(grid, vals), path)
        spec_table = small_spec(W=WSpec(family="table", table_path=str(path)))
        # p = 4 gives q = 2, so the norm of a one-node indicator is h^(N/2)
        got = dual_norm_W(eval_W(spec_table, grid), spec_table.q, grid.weight)
        assert got == pytest.approx(spec.h ** (spec.N / 2))

    def test_exponential_against_radial_oracle(self):
        from scipy.integrate import quad

        spec = ProblemSpec(N=2, p=4.0, Vinf=1.0, L=16.0, h=0.125,
                           W=WSpec(family="exponential", c=1.0, a=1.0))
        grid = build_grid(spec)
        got = dual_norm_W(eval_W(spec, grid), spec.q, grid.weight)
        # independent high-resolution polar quadrature of (int e^{-2r} 2 pi r dr)^(1/2)
        integral, _ = quad(lambda r: math.exp(-2.0 * r) * 2.0 * math.pi * r, 0.0, 40.0)
        assert got == pytest.approx(integral ** 0.5, rel=2e-3)

    def test_overflowing_table_rejected(self, tmp_path):
        # every node finite, but |W|^q = 1e600 at one of them overflows the quadrature
        from minimaxlab.field import GridFunction, save_gridfunction

        grid = build_grid(small_spec())
        vals = np.zeros(grid.shape)
        vals[grid.origin_index] = 1e300
        path = tmp_path / "w.gfb"
        save_gridfunction(GridFunction(grid, vals), path)
        spec = small_spec(W=WSpec(family="table", table_path=str(path)))
        W = eval_W(spec, grid)
        with np.errstate(over="ignore"), pytest.raises(DomainError, match="overflowed"):
            dual_norm_W(W, spec.q, grid.weight)

    def test_monotone_in_box_size(self):
        vals = []
        for L in (4.0, 8.0, 12.0):
            spec = small_spec(L=L, W=WSpec(family="exponential", c=1.0, a=0.5))
            grid = build_grid(spec)
            vals.append(dual_norm_W(eval_W(spec, grid), spec.q, grid.weight))
        assert vals[0] <= vals[1] <= vals[2]


def test_gaussian_product_quadrature():
    # axis-separable Gaussian: trapezoid-type quadrature is spectrally accurate
    spec = ProblemSpec(N=2, p=4.0, Vinf=1.0, L=12.0, h=0.125)
    grid = build_grid(spec)
    r2 = grid.radius() ** 2
    total = float(np.sum(np.exp(-r2)) * grid.weight)
    assert total == pytest.approx(math.pi, rel=1e-6)


class TestKeyValueFiles:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "problem.cfg"
        path.write_text(
            "# desk configuration\n"
            "dim = 2\np = 4.0\nv_inf = 1.0\nbox_l = 4.0\nspacing_h = 0.25\n"
            "w_family = exponential\nw_c = 0.5\nw_a = 0.5\n")
        spec = parse_problem_mapping(read_keyvalue_file(path))
        assert spec.N == 2
        assert spec.W.family == "exponential"
        assert spec.W.c == 0.5

    @pytest.mark.parametrize("key, value", [
        ("p", "inf"), ("p", "nan"), ("v_inf", "inf"), ("box_l", "inf"), ("spacing_h", "nan"),
        ("w_c", "nan"), ("w_c", "-inf"), ("w_a", "inf"), ("w_a", "-1"), ("w_a", "0")])
    def test_nonfinite_or_nonpositive_values_rejected(self, key, value):
        mapping = {"dim": "2", "box_l": "4", "spacing_h": "0.25",
                   "w_family": "exponential", "w_c": "0.5", "w_a": "0.5"}
        with pytest.raises(DomainError):
            parse_problem_mapping({**mapping, key: value})

    def test_unknown_key_rejected(self):
        with pytest.raises(DomainError, match="unknown problem keys"):
            parse_problem_mapping({"dim": "2", "box_len": "4"})

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("dim = 2\nnonsense line\n")
        with pytest.raises(DomainError, match="2"):
            read_keyvalue_file(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "dup.cfg"
        path.write_text("dim = 2\ndim = 3\n")
        with pytest.raises(DomainError, match="duplicate"):
            read_keyvalue_file(path)
