"""Periodic grids, the fourth-order Laplacian and initial-data profiles.

The spatial domain is the torus [-L, L)^n with N uniform points per axis,
n in {1, 2, 3}. A `Field` is a numpy complex128 array, i.e. interleaved
(re, im) pairs in memory; the array kernels also take the float64 array of a
real state and give the real part of the complex result bit for bit. Each
reduction (`dot_re`) sums an array in its own dtype: BLAS ddot on float64,
zdotc on complex128. The Laplacian is the fourth-order central stencil
with wrap-around indexing:

    D2 f = [16 (S1 - 2n f_i) - (S2 - 2n f_i)] / (12 h^2),
           Sk = sum over the n axes of (f_{i+k} + f_{i-k})

Each axis pair f_{i+k} + f_{i-k} is added whole before it joins Sk. On a
constant c every partial sum of Sk is exact but the last, 4c + 2c in 3D,
which rounds to fl(6c) as 2n * c does, so S1 - 2n f and S2 - 2n f are the
same zero and a constant field maps to +0.0 in every cell: homogeneous data
stay exactly homogeneous under evolution. The scale is a multiply by
1 / (12 h^2) (an RK4 stage folds it into dv/dt's factor), as numpy divides
a complex number by a real one, so both dtypes round alike.

The squared gradient is the quadratic form of that Laplacian,

    ||grad u||^2_h = -Re <u, D2 u> h^n.

-D2 is symmetric and positive semi-definite: its symbol per axis is
(4 / h^2)(s + s^2 / 3), s = sin^2(k h / 2). So this is a squared seminorm,
and <u, D2 u> = -||grad u||^2_h holds on the grid exactly as the
integration by parts <u, lap u> = -||grad u||^2 does in the continuum: the
summation-by-parts property (Strand, J. Comput. Phys. 110, 1994), under
which the semi-discrete system that a run steps satisfies the energy
identity with the gradient it reports. `grad_sq_array` leaves the
stencil's sum of u, D2 u times 12 h^2, in a whole array, where stage 1 of
an RK4 step reads it (`dynamics`), so an accepted state costs one sweep.

The wrap-around is a padded copy: a `Stencil` holds a buffer with two
wrap-around cells per side on every axis, filled with the field and its
periodic images once per call (or stage), and swept in slabs of whole padded
axis-0 planes, about `SLAB_BYTES` per array, so that a slab's temporaries
stay in L2 (cache blocking; Datta et al., SC'08). In the flattened buffer a
neighbour f_{i+-1}, f_{i+-2} along any axis is the slab's band at a fixed
offset, so every operand is contiguous. The arithmetic runs in place in
band-sized work arrays, operation by operation in the order of the formula
above; values in the band's wrap-around cells are discarded. Reductions sum
whole arrays, never per slab, which would change the order of summation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import GridMismatch, WidthTooLarge, WidthTooSmall

SLAB_BYTES = 1 << 17  # per band-sized array: an RK4 stage's dozen fit in L2
_NORMAL_MIN = np.finfo(np.float64).tiny  # the smallest positive normal float


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-half_width, half_width)^n."""

    n: int
    points_per_axis: int
    half_width: float

    def __post_init__(self):
        if self.n not in (1, 2, 3):
            raise ValueError("spatial dimension must be 1, 2 or 3")
        if self.points_per_axis < 8:
            raise ValueError("need at least 8 points per axis")
        # the byte size of a complex128 field must fit numpy's intp
        if self.points_per_axis ** self.n * 16 > np.iinfo(np.intp).max:
            raise ValueError(f"grid of {self.points_per_axis}^{self.n} "
                             f"cells is too large for a complex128 array")
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")
        try:  # the stencils divide by h, the integrals scale by h^n
            volume = self.cell_volume
        except OverflowError:  # h ** n past the largest float
            volume = math.inf
        for name, x in (("spacing", self.spacing), ("cell volume", volume)):
            if not _NORMAL_MIN <= x < math.inf:
                raise ValueError(
                    f"grid {name} must be a positive normal float, got {x}")

    @cached_property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.points_per_axis

    @cached_property
    def cell_volume(self) -> float:
        return self.spacing ** self.n

    @cached_property
    def volume(self) -> float:
        """The cell volume times the number of cells: a uniform state's
        integrals are its one cell's values times this."""
        return self.cell_volume * self.points_per_axis ** self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.n

    def axis_coords(self) -> np.ndarray:
        return -self.half_width + self.spacing * np.arange(self.points_per_axis)


@dataclass
class Field:
    """Complex samples of a scalar field on a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != self.grid.shape:
            raise GridMismatch(f"values shape {v.shape} does not match grid {self.grid.shape}")
        self.values = np.ascontiguousarray(v, dtype=np.complex128)


@lru_cache(maxsize=16)
def _stencil_slices(shape: tuple[int, ...]):
    """Index tuples into the padded buffer of a field of this shape: the
    interior and the wrap-around copies (destination, source), last axis
    first and each over the whole padded extent of the axes already done,
    so that the copies leave no cell of the buffer unset."""
    inner = tuple(slice(2, s + 2) for s in shape)
    halos = []
    for ax in reversed(range(len(shape))):
        s, rest = shape[ax], (slice(None),) * (len(shape) - ax - 1)
        for dst, src in ((slice(0, 2), slice(s, s + 2)),
                         (slice(s + 2, s + 4), slice(2, 4))):
            halos.append((inner[:ax] + (dst,) + rest, inner[:ax] + (src,) + rest))
    return inner, tuple(halos)


class Slab(NamedTuple):
    """Axis-0 rows `rows` of the field as a band of the flattened padded
    buffer (`centre`), the band shifted to each neighbour, four band-sized
    work arrays, and `inner`, the field's cells of the first of them."""

    rows: slice
    centre: np.ndarray
    neighbours: tuple  # per axis: f_{i-2}, f_{i-1}, f_{i+1}, f_{i+2}
    work: tuple
    inner: np.ndarray


def placed(shape: tuple[int, ...], dtype, slot: int) -> np.ndarray:
    """An empty array whose data start 64 * slot bytes past a 4 KiB
    boundary. A run's arrays take distinct slots (u, v: 0-1; RK4 workspace:
    2-8; stencil: 9-13), so no two operands of a ufunc alias mod 4 KiB
    (where a load falsely waits on a store) wherever the heap puts them."""
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    raw = np.empty(nbytes + 4096, np.uint8)
    skip = (64 * slot - raw.ctypes.data) % 4096
    return raw[skip:skip + nbytes].view(dtype).reshape(shape)


class Stencil:
    """Scratch of the stencil for one array shape and dtype: the padded
    buffer and its slabs, reused by every call that is given it."""

    def __init__(self, shape: tuple[int, ...], dtype=np.complex128):
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)
        padded = tuple(s + 4 for s in self.shape)
        pad = placed(padded, self.dtype, 9)
        inner, halos = _stencil_slices(self.shape)
        self._inner = pad[inner]
        self._halos = tuple((pad[dst], pad[src]) for dst, src in halos)
        flat, n0 = pad.reshape(-1), self.shape[0]
        steps = [math.prod(padded[ax + 1:]) for ax in range(len(padded))]
        size = min(n0, max(1, SLAB_BYTES // (steps[0] * self.dtype.itemsize)))
        work = [placed((size * steps[0],), self.dtype, slot)
                for slot in range(10, 14)]
        keep = (slice(None),) + (slice(2, -2),) * (len(padded) - 1)
        self.slabs = []
        for i in range(0, n0, size):
            rows = min(size, n0 - i)
            lo, hi = (i + 2) * steps[0], (i + 2 + rows) * steps[0]
            w = tuple(x[:hi - lo] for x in work)
            self.slabs.append(Slab(
                slice(i, i + rows), flat[lo:hi],
                tuple(tuple(flat[lo + d * st:hi + d * st] for d in (-2, -1, 1, 2))
                      for st in steps),
                w, w[0].reshape((rows,) + padded[1:])[keep]))

    def load(self, vals: np.ndarray) -> None:
        """Copy vals into the padded buffer and fill its wrap-around cells."""
        self._inner[...] = vals
        for dst, src in self._halos:
            dst[...] = src


def lap_slab(slab: Slab) -> np.ndarray:
    """The Laplacian of the loaded field on one slab times 12 h^2, left in
    the slab's first work array; returns its field cells, `slab.inner`."""
    acc, centre, wing, term = slab.work
    (m2, m1, p1, p2), *others = slab.neighbours
    np.multiply(2.0 * len(slab.neighbours), slab.centre, out=centre)
    np.add(p1, m1, out=acc)
    np.add(p2, m2, out=wing)
    for m2, m1, p1, p2 in others:  # each axis pair whole, then into its sum
        np.add(p1, m1, out=term)
        np.add(acc, term, out=acc)
        np.add(p2, m2, out=term)
        np.add(wing, term, out=wing)
    np.subtract(acc, centre, out=acc)
    np.multiply(16.0, acc, out=acc)
    np.subtract(wing, centre, out=wing)
    np.subtract(acc, wing, out=acc)
    return slab.inner


def lap_sum(vals: np.ndarray, ws: Stencil | None = None,
            out: np.ndarray | None = None) -> np.ndarray:
    """Load vals into ws (a new Stencil if None) and write `lap_slab`'s sum
    of them, the Laplacian times 12 h^2, into out (a new array if None),
    slab by slab; returns out."""
    if ws is None:
        ws = Stencil(vals.shape, vals.dtype)
    elif ws.shape != vals.shape or ws.dtype != vals.dtype:
        raise GridMismatch(f"stencil for {ws.shape} {ws.dtype} given a "
                           f"{vals.shape} {vals.dtype} array")
    if out is None:
        out = np.empty_like(vals)
    ws.load(vals)
    for slab in ws.slabs:
        out[slab.rows] = lap_slab(slab)
    return out


def lap_array(vals: np.ndarray, h: float, ws: Stencil | None = None,
              out: np.ndarray | None = None) -> np.ndarray:
    """Fourth-order periodic Laplacian on a raw array, written into out."""
    out = lap_sum(vals, ws, out)
    return np.multiply(out, 1.0 / (12.0 * h * h), out=out)


def dot_re(a: np.ndarray, b: np.ndarray) -> float:
    """Re sum(conj(a) b), summed by vdot in the arrays' own dtype."""
    return float(np.vdot(a, b).real)


def grad_sq_array(vals: np.ndarray, h: float, ws: Stencil | None = None,
                  out: np.ndarray | None = None) -> float:
    """The cell sum of |grad v|^2 as -Re sum conj(v) D2 v (no volume
    factor), by one `lap_sum`, whose sum stays in out."""
    return -dot_re(vals, lap_sum(vals, ws, out)) * (1.0 / (12.0 * h * h))


def _axis_sum(grid: Grid, center: tuple, term) -> np.ndarray:
    """The sum over the axes of term(x - c) from 0.0 in axis order, each
    1-D term broadcast over the grid: a meshgrid sum's cell values."""
    x, total = grid.axis_coords(), np.zeros(grid.shape)
    for ax, c in enumerate(center):
        total += term(x - c).reshape((-1,) + (1,) * (grid.n - 1 - ax))
    return total


def check_profile(grid: Grid, kind: str, width: float | None = None,
                  center=None) -> tuple | None:
    """Raise what make_profile raises on these arguments, without building
    the profile; return its centre, one coordinate per axis (None for
    homogeneous data)."""
    if kind == "homogeneous":
        return None
    if kind == "plane_mod":
        mode = int(round(width)) if width is not None else 1
        if abs(mode) >= grid.points_per_axis // 2:
            raise WidthTooLarge(
                f"mode {mode} at or beyond Nyquist for N = {grid.points_per_axis}"
            )
    elif kind not in ("gaussian", "bump"):
        raise ValueError(f"unknown profile kind {kind!r}")
    elif width is None:
        raise ValueError(f"{kind} profile needs a width")
    elif width >= grid.half_width:
        raise WidthTooLarge(f"width {width} does not fit inside half_width {grid.half_width}")
    elif width <= 4.0 * grid.spacing:
        raise WidthTooSmall(f"width {width} is under 4 cells (h = {grid.spacing:g})")
    if center is None:
        center = 0.0
    if np.isscalar(center):
        center = (float(center),) * grid.n
    if len(center) != grid.n:
        raise ValueError(f"center needs {grid.n} components")
    return center


def make_profile(grid: Grid, kind: str, amplitude: complex, width: float | None = None,
                 center=None) -> Field:
    """Build initial-data profiles.

    kinds:
      homogeneous  constant = amplitude everywhere
      gaussian     amplitude * exp(-r^2 / (2 width^2))
      bump         amplitude * exp(1 - 1/(1 - r^2/width^2)) for r < width, else 0
                   (compactly supported, peak = amplitude)
      plane_mod    amplitude * exp(i k . x), k = round(width) * pi / half_width
                   per axis; width carries the integer mode number

    Localized kinds need 4 cells < width < half_width.
    """
    center = check_profile(grid, kind, width, center)
    if kind == "homogeneous":
        return Field(grid, np.full(grid.shape, amplitude, dtype=np.complex128))

    if kind == "plane_mod":
        mode = int(round(width)) if width is not None else 1
        k = mode * np.pi / grid.half_width
        phase = _axis_sum(grid, center, lambda d: k * d)
        return Field(grid, amplitude * np.exp(1j * phase))

    r2 = _axis_sum(grid, center, lambda d: d ** 2)
    if kind == "gaussian":  # -r2 / (2 w^2), as r2 over -(2 w^2), in place
        vals = amplitude * np.exp(np.divide(r2, -2.0 * width * width, out=r2),
                                  out=r2)
    else:
        vals = np.zeros(grid.shape, dtype=np.complex128)
        inside = r2 < width * width
        s = r2[inside] / (width * width)
        vals[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - s))
    return Field(grid, vals)


def support_radius(kind: str, width: float | None, center) -> float | None:
    """Nominal support radius for the wrap-around guard; None = delocalized.

    A gaussian is assigned 4 widths (edge amplitude ~ 3e-4 of the peak), a bump
    its exact support. Delocalized kinds have no wavefront to track.
    """
    if kind in ("homogeneous", "plane_mod"):
        return None
    off = 0.0
    if center is not None:
        off = float(np.max(np.abs(np.atleast_1d(center))))
    if kind == "gaussian":
        return off + 4.0 * float(width)
    if kind == "bump":
        return off + float(width)
    raise ValueError(f"unknown profile kind {kind!r}")
