"""Grid, stencils, the integrals of a state and profiles.

Oracles: the exact discrete symbol of the fourth-order stencils on plane
waves, closed-form integrals of homogeneous data, and analytic derivatives
of a smooth periodic function for the convergence-order check.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from kgflrw import (Field, GaugeInvariantPower, Grid, PhysicalParams, PowerLaw,
                    RunConfig, Start, make_profile, run, support_radius)
from kgflrw import field
from kgflrw.field import Stencil, lap_array
from kgflrw.errors import GridMismatch, WidthTooLarge, WidthTooSmall
from oracles import grad_symbol, lap_symbol, mesh_profile


_TINY = np.finfo(np.float64).tiny  # the smallest positive normal float
_MAGNITUDES = st.one_of(
    st.just(0.0), st.floats(0.0, _TINY, exclude_max=True),  # subnormals
    st.floats(1e-301, 1e-299), st.floats(1e299, 1e301), st.floats(1e-3, 1e3))
_CONSTANTS = st.builds(lambda sign, x: sign * x, st.sampled_from([1.0, -1.0]),
                       _MAGNITUDES)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(8, 12), st.floats(0.5, 4.0),
       _CONSTANTS, _CONSTANTS, st.booleans(), st.integers(1, 11))
def test_laplacian_of_constant_is_bitwise_zero(n, N, half_width, re, im,
                                               real, rows):
    """The stencil Laplacian maps a constant field to +0.0 in every cell,
    never -0.0, in 1D, 2D and 3D, on float64 and complex128 arrays, swept
    as one slab and as several: every partial sum of the pairwise sums is
    exact but the last, which rounds as 2n * c does, so the two cancel."""
    grid = Grid(n=n, points_per_axis=N, half_width=half_width)
    vals = np.full(grid.shape, re if real else complex(re, im))
    rows = min(rows, N - 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(field, "SLAB_BYTES",
                   rows * (N + 4) ** (n - 1) * vals.itemsize)
        sliced = Stencil(grid.shape, vals.dtype)
    assert len(sliced.slabs) >= 2
    for ws in (None, sliced):
        out = lap_array(vals, grid.spacing, ws)
        assert not np.any(out.view(np.uint64)), "not +0.0 everywhere"


def test_plane_wave_discrete_symbol():
    grid = Grid(n=1, points_per_axis=64, half_width=math.pi)
    mode = 3
    fld = make_profile(grid, "plane_mod", 1.5, width=mode)
    k = mode * math.pi / grid.half_width
    sym = lap_symbol(k, grid.spacing)
    assert np.allclose(lap_array(fld.values, grid.spacing), sym * fld.values,
                       rtol=1e-12)


def test_plane_wave_symbol_2d():
    grid = Grid(n=2, points_per_axis=32, half_width=1.0)
    mode = 2
    fld = make_profile(grid, "plane_mod", 1.0, width=mode)
    k = mode * math.pi / grid.half_width
    sym = 2.0 * lap_symbol(k, grid.spacing)  # k is the same along both axes
    assert np.allclose(lap_array(fld.values, grid.spacing), sym * fld.values,
                       rtol=1e-12)


def test_laplacian_fourth_order_convergence():
    # u = exp(sin(k x)) is smooth and 2L-periodic; u'' is known in closed form
    half = math.pi
    k = math.pi / half

    def exact_lap(x):
        u = np.exp(np.sin(k * x))
        return (k * k * np.cos(k * x) ** 2 - k * k * np.sin(k * x)) * u

    errs = []
    for N in (32, 64, 128):
        grid = Grid(n=1, points_per_axis=N, half_width=half)
        x = grid.axis_coords()
        vals = np.exp(np.sin(k * x)).astype(np.complex128)
        num = lap_array(vals, grid.spacing)
        errs.append(float(np.max(np.abs(num - exact_lap(x)))))
    order1 = math.log2(errs[0] / errs[1])
    order2 = math.log2(errs[1] / errs[2])
    assert order1 == pytest.approx(4.0, abs=0.3)
    assert order2 == pytest.approx(4.0, abs=0.3)


def test_l2_norm_homogeneous_closed_form():
    for n in (1, 2, 3):
        grid = Grid(n=n, points_per_axis=16, half_width=1.5)
        amp = 2.0 + 1.0j
        fld = make_profile(grid, "homogeneous", amp)
        expect = abs(amp) ** 2 * (2 * grid.half_width) ** n
        rec = Start(fld, fld, None).rec
        assert rec.L == pytest.approx(expect, rel=1e-14)


def test_l2_norm_plane_wave_is_amplitude_only():
    grid = Grid(n=1, points_per_axis=64, half_width=math.pi)
    fld = make_profile(grid, "plane_mod", 0.5, width=4)
    assert Start(fld, fld, None).rec.L == pytest.approx(
        0.25 * 2 * math.pi, rel=1e-13)


def test_grad_norm_plane_wave_symbol():
    """||grad u||^2 of a plane wave is |amp|^2 times the symbol of -D2
    times the box volume, in 1D and along both axes in 2D, and that symbol
    is -lap_symbol, the Laplacian's eigenvalue."""
    for n, N, half_width, mode in ((1, 64, math.pi, 3), (2, 32, 1.0, 2)):
        grid = Grid(n=n, points_per_axis=N, half_width=half_width)
        amp = 1.25
        fld = make_profile(grid, "plane_mod", amp, width=mode)
        k, h = mode * math.pi / grid.half_width, grid.spacing
        sym = grad_symbol(k, h)
        assert sym == pytest.approx(-lap_symbol(k, h), rel=1e-12)
        expect = amp ** 2 * n * sym * (2 * grid.half_width) ** n
        assert Start(fld, fld, None).rec.grad_sq == pytest.approx(
            expect, rel=1e-12)
    # homogeneous data has exactly zero gradient
    hom = make_profile(grid, "homogeneous", 3.0)
    assert Start(hom, hom, None).rec.grad_sq == 0.0


def test_inner_re_matches_manual_sum():
    grid = Grid(n=1, points_per_axis=32, half_width=1.0)
    rng = np.random.default_rng(5)
    a = Field(grid, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    b = Field(grid, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    manual = float(np.sum((a.values * np.conj(b.values)).real)) * grid.cell_volume
    rec = Start(a, b, None).rec
    assert rec.re_u_ut == pytest.approx(manual, rel=1e-14)
    assert rec.re_u_ut == pytest.approx(Start(b, a, None).rec.re_u_ut,
                                        rel=1e-14)
    assert Start(a, a, None).rec.re_u_ut == pytest.approx(rec.L, rel=1e-14)


def test_integrate_F_homogeneous():
    grid = Grid(n=2, points_per_axis=16, half_width=1.0)
    nl = GaugeInvariantPower(p=2.0, lam=1.0)
    fld = make_profile(grid, "homogeneous", 3.0)
    # F(3) = 27/3 = 9 per unit volume, volume = 4
    assert Start(fld, fld, nl).rec.F == pytest.approx(36.0, rel=1e-13)


def test_bump_compact_support_and_peak():
    grid = Grid(n=1, points_per_axis=128, half_width=2.0)
    fld = make_profile(grid, "bump", 1.0, width=1.0)
    x = grid.axis_coords()
    outside = np.abs(x) >= 1.0
    assert np.all(fld.values[outside] == 0.0)
    assert abs(fld.values[np.argmin(np.abs(x))]) == pytest.approx(1.0, rel=1e-12)


def test_gaussian_profile_values():
    grid = Grid(n=1, points_per_axis=128, half_width=4.0)
    w, c = 0.8, 0.5
    fld = make_profile(grid, "gaussian", 2.0, width=w, center=c)
    x = grid.axis_coords()
    expect = 2.0 * np.exp(-((x - c) ** 2) / (2 * w * w))
    assert np.allclose(fld.values, expect, rtol=1e-13)





@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.integers(8, 24), st.floats(0.5, 5.0),
       st.sampled_from(["gaussian", "bump", "plane_mod"]),
       st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(0.0, 1.0),
       st.data())
def test_profiles_match_meshgrid_oracle_bitwise(n, N, half_width, kind, re,
                                                im, frac, data):
    """make_profile sums 1-D axis terms broadcast over the grid; its values
    have the bits of the meshgrid formulas (`mesh_profile`) for every
    localized kind, dimension and off-centre centre, scalar or per axis."""
    grid = Grid(n=n, points_per_axis=N, half_width=half_width)
    if kind == "plane_mod":
        width = float(data.draw(st.integers(-(N // 2) + 1, N // 2 - 1)))
    else:
        lo, hi = 4.0 * grid.spacing, half_width
        assume(lo < hi)
        width = lo + frac * (hi - lo)
        assume(lo < width < hi)
    coord = st.floats(-half_width, half_width)
    center = data.draw(st.one_of(coord, st.tuples(*[coord] * n)))
    per_axis = (center,) * n if np.isscalar(center) else center
    want = np.asarray(mesh_profile(grid, kind, complex(re, im), width,
                                   per_axis), dtype=np.complex128)
    got = make_profile(grid, kind, complex(re, im), width=width,
                       center=center).values
    assert got.shape == want.shape and np.array_equal(
        got.view(np.uint64), want.view(np.uint64))


def test_profile_width_guards():
    grid = Grid(n=1, points_per_axis=32, half_width=1.0)
    with pytest.raises(WidthTooLarge):
        make_profile(grid, "gaussian", 1.0, width=1.0)
    with pytest.raises(WidthTooSmall):
        make_profile(grid, "gaussian", 1.0, width=0.2)  # 4 h = 0.25
    with pytest.raises(WidthTooLarge):
        make_profile(grid, "plane_mod", 1.0, width=16)  # Nyquist for N = 32
    with pytest.raises(ValueError):
        make_profile(grid, "gaussian", 1.0)  # width missing
    with pytest.raises(ValueError):
        make_profile(grid, "vortex", 1.0, width=0.5)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(n=4, points_per_axis=16, half_width=1.0)
    with pytest.raises(ValueError):
        Grid(n=1, points_per_axis=4, half_width=1.0)
    with pytest.raises(ValueError):
        Grid(n=1, points_per_axis=16, half_width=-1.0)
    g = Grid(n=2, points_per_axis=10, half_width=5.0)
    assert g.spacing == 1.0 and g.cell_volume == 1.0 and g.shape == (10, 10)


def test_grid_refuses_a_field_numpy_cannot_describe():
    """A complex128 field of N^n cells takes 16 N^n bytes, which numpy's
    intp must hold: 2^59 - 1 points on one axis fit, 2^59 do not, and
    neither do 10^6 per axis in 3D."""
    assert Grid(n=1, points_per_axis=2 ** 59 - 1, half_width=1.0).shape == (
        2 ** 59 - 1,)
    for n, N in ((1, 2 ** 59), (3, 10 ** 6)):
        with pytest.raises(ValueError, match="too large for a complex128"):
            Grid(n=n, points_per_axis=N, half_width=1.0)


def test_grid_mismatch_raised():
    g1 = Grid(n=1, points_per_axis=16, half_width=1.0)
    g2 = Grid(n=1, points_per_axis=16, half_width=2.0)
    a = make_profile(g1, "homogeneous", 1.0)
    b = make_profile(g2, "homogeneous", 1.0)
    sf = PowerLaw(0.0, H=0.0)
    params = PhysicalParams(m=0.0, c=1.0, eps=1.0, n=1)
    with pytest.raises(GridMismatch):  # same shape, different box
        run(Start(a, b, None), sf, params, RunConfig(t_end=0.1))
    with pytest.raises(GridMismatch):
        Field(g1, np.zeros(8, dtype=np.complex128))


def test_support_radius():
    assert support_radius("homogeneous", None, None) is None
    assert support_radius("plane_mod", 3, None) is None
    assert support_radius("gaussian", 0.5, 1.0) == pytest.approx(3.0)
    assert support_radius("bump", 0.7, None) == pytest.approx(0.7)
