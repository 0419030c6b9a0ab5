"""Periodic lattice substrate: grids, sampled fields, and discrete Fourier transforms.

The transform convention is

    fhat(xi) = integral f(x) exp(+i xi.x) dx,
    f(x)     = (2 pi)^{-d} integral fhat(xi) exp(-i xi.x) dxi,

i.e. the *plus* sign in the forward kernel.  Internally this is realized with
numpy's FFT (which uses the opposite sign) by conjugating the index bookkeeping:
with nodes x_k = -L + h k and frequencies xi_j = (pi/L) j, j = -n/2 .. n/2-1,
the factor exp(+i xi_j x_k) is (-1)^{j_1+...+j_d} exp(+2 pi i j.k / n), and
that checker phase is exactly a half-period shift of the input, so

    fhat = n^d h^d fftshift(ifftn(ifftshift(f))),
    f    = (2L)^{-d} fftshift(fftn(ifftshift(fhat))).

For n a power of two both agree bit for bit with the explicit-phase form; other
even n agree to rounding.  Physical values are stored on the sorted coordinate
lattice, spectral fields on the sorted frequency lattice, one axis per
dimension.  ``freq_grids`` alone is in FFT order (zero frequency first), the
order of every Fourier symbol that a multiplier applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import ndimage

__all__ = [
    "GridSpec",
    "Field",
    "sample",
    "forward_transform",
    "inverse_transform",
    "nudft_forward",
]

#: hard cap on n^d; grids above this are refused at construction.
DEFAULT_MAX_POINTS = 2**25


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [-L, L]^d.

    dimension:        2 <= d <= 4
    half_width:       L > 0
    points_per_axis:  even n >= 16
    """

    dimension: int
    half_width: float
    points_per_axis: int

    def __post_init__(self):
        d, L, n = self.dimension, self.half_width, self.points_per_axis
        if not 2 <= d <= 4:
            raise ValueError(f"dimension must be in [2, 4], got {d}")
        if not L > 0:
            raise ValueError(f"half_width must be positive, got {L}")
        if n < 16 or n % 2 != 0:
            raise ValueError(f"points_per_axis must be an even integer >= 16, got {n}")
        if n**d > DEFAULT_MAX_POINTS:
            raise ValueError(
                f"grid has {n**d} points, exceeding the budget of {DEFAULT_MAX_POINTS}"
            )

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.points_per_axis

    @property
    def freq_step(self) -> float:
        return np.pi / self.half_width

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.dimension

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dimension

    @property
    def freq_cell_volume(self) -> float:
        return self.freq_step**self.dimension

    def axis_coords(self) -> np.ndarray:
        n = self.points_per_axis
        return -self.half_width + self.spacing * np.arange(n)

    def axis_freqs(self) -> np.ndarray:
        n = self.points_per_axis
        return self.freq_step * (np.arange(n) - n // 2)

    def coord_grids(self) -> tuple[np.ndarray, ...]:
        return np.meshgrid(*([self.axis_coords()] * self.dimension),
                           indexing="ij", sparse=True)

    def freq_grids(self) -> tuple[np.ndarray, ...]:
        """The frequency lattice in FFT order, zero frequency first."""
        return np.meshgrid(*([np.fft.ifftshift(self.axis_freqs())]
                             * self.dimension),
                           indexing="ij", sparse=True)

    def radius_grid(self) -> np.ndarray:
        return np.sqrt(sum(x**2 for x in self.coord_grids()))

    @property
    def max_inscribed_freq(self) -> float:
        """Radius of the largest frequency ball inside the lattice cube."""
        return self.freq_step * (self.points_per_axis // 2 - 1)


PHYSICAL = "physical"
SPECTRAL = "spectral"


@dataclass(frozen=True)
class Field:
    """Complex values sampled on a grid, in either the physical or spectral domain.

    Field does not copy a contiguous complex128 array: ``values`` is then a
    read-only view of it, and the caller's array stays writable.
    """

    grid: GridSpec
    values: np.ndarray
    domain_tag: str

    def __post_init__(self):
        if self.domain_tag not in (PHYSICAL, SPECTRAL):
            raise ValueError(f"unknown domain_tag {self.domain_tag!r}")
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid {self.grid.shape}"
            )
        vals = np.ascontiguousarray(self.values, dtype=np.complex128).view()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def with_values(self, values: np.ndarray) -> "Field":
        return Field(self.grid, values, self.domain_tag)

    def l2(self) -> float:
        """Cell-volume-weighted discrete L2 norm (physical or spectral measure)."""
        w = self.grid.cell_volume if self.domain_tag == PHYSICAL else \
            self.grid.freq_cell_volume / (2.0 * np.pi) ** self.grid.dimension
        return float(np.sqrt(w * np.sum(np.abs(self.values) ** 2)))


def sample(fn: Callable, grid: GridSpec) -> Field:
    """Sample a pointwise function on the physical lattice.

    ``fn`` receives the d coordinate arrays (broadcastable) and must return
    finite values at every node.
    """
    vals = np.asarray(fn(*grid.coord_grids()), dtype=np.complex128)
    vals = np.broadcast_to(vals, grid.shape).copy()
    if not np.all(np.isfinite(vals)):
        bad = np.argwhere(~np.isfinite(vals))[0]
        coords = tuple(grid.axis_coords()[i] for i in bad)
        raise ValueError(f"non-finite sample value at x = {coords}")
    return Field(grid, vals, PHYSICAL)


def _centered(fft: Callable, a: np.ndarray) -> np.ndarray:
    """fftshift(fft(ifftshift(a))); the FFT runs in place on the shifted copy,
    so a transform holds no more full-size arrays than the FFT itself."""
    b = np.fft.ifftshift(a)
    return np.fft.fftshift(fft(b, out=b))


def forward_transform(f: Field) -> Field:
    """Quadrature approximation of fhat(xi) = integral f(x) exp(+i xi.x) dx."""
    if f.domain_tag != PHYSICAL:
        raise ValueError("forward_transform expects a physical field")
    g = f.grid
    n, d = g.points_per_axis, g.dimension
    spec = _centered(np.fft.ifftn, f.values)
    spec *= n**d * g.cell_volume
    return Field(g, spec, SPECTRAL)


def inverse_transform(F: Field) -> Field:
    """Exact discrete inverse of :func:`forward_transform`."""
    if F.domain_tag != SPECTRAL:
        raise ValueError("inverse_transform expects a spectral field")
    g = F.grid
    vals = _centered(np.fft.fftn, F.values)
    vals *= (1.0 / (2.0 * g.half_width)) ** g.dimension
    return Field(g, vals, PHYSICAL)


def nudft_forward(f: Field, points: np.ndarray, chunk: int = 256) -> np.ndarray:
    """Evaluate the forward transform at arbitrary frequency points.

    Direct quadrature h^d sum f(x) exp(+i xi.x); exact for the discrete
    convention, O(P n^d) so keep P moderate.
    """
    if f.domain_tag != PHYSICAL:
        raise ValueError("nudft_forward expects a physical field")
    g = f.grid
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != g.dimension:
        raise ValueError(f"points must have {g.dimension} columns")
    x = g.axis_coords()
    out = np.empty(len(pts), dtype=np.complex128)
    for lo in range(0, len(pts), chunk):
        sub = pts[lo:lo + chunk]
        T = np.exp(1j * np.outer(sub[:, 0], x)) @ f.values.reshape(len(x), -1)
        for ax in range(1, g.dimension):
            E = np.exp(1j * np.outer(sub[:, ax], x))
            P = len(sub)
            T = np.einsum("pnr,pn->pr", T.reshape(P, len(x), -1), E)
        out[lo:lo + chunk] = T[:, 0] * g.cell_volume
    return out


class SpectralInterpolator:
    """Spline evaluator of the transform of a physical field off the lattice,
    kept only as an independent test oracle: no library code uses it.

    Zero-pads the field into a ``pad_factor`` times larger box (legal because
    test fields decay), transforms, and spline-interpolates the refined
    spectral lattice; accuracy is set by the refined spacing and the order.
    """

    def __init__(self, f: Field, pad_factor: int = 4, order: int = 5):
        if f.domain_tag != PHYSICAL:
            raise ValueError("SpectralInterpolator expects a physical field")
        g = f.grid
        n, d = g.points_per_axis, g.dimension
        N = pad_factor * n
        big = np.zeros((N,) * d, dtype=np.complex128)
        lo = (N - n) // 2
        big[(slice(lo, lo + n),) * d] = f.values
        big_grid = GridSpec(d, pad_factor * g.half_width, N)
        spec = forward_transform(Field(big_grid, big, PHYSICAL)).values
        self.grid = g
        self.order = order
        self._freq0 = big_grid.axis_freqs()[0]
        self._dxi = big_grid.freq_step
        self._re = ndimage.spline_filter(spec.real, order=order, mode="constant")
        self._im = ndimage.spline_filter(spec.imag, order=order, mode="constant")

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        idx = (pts - self._freq0) / self._dxi
        re = ndimage.map_coordinates(self._re, idx.T, order=self.order,
                                     prefilter=False, mode="constant")
        im = ndimage.map_coordinates(self._im, idx.T, order=self.order,
                                     prefilter=False, mode="constant")
        return re + 1j * im
