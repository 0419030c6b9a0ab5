"""Fourier multiplier operators on the lattice: the radial symbol |xi|^{2m},
Bessel potentials (1 + |xi|^2)^{alpha/2}, smooth shell cutoffs around
{|xi|^{2m} = lambda}, and the off-axis free resolvent (|xi|^{2m} - z)^{-1}.

Every multiplier is an array on the frequency lattice in FFT order (zero
frequency first, as ``GridSpec.freq_grids``); the ones that are reused are
cached and read-only.  A field's spectrum is ``to_spectrum``'s inverse FFT of
its values, in the same order, and ``to_field`` maps a spectrum back;
``apply_values`` is the one multiply of a field, their composition around
the product.  ``support_resolvent`` applies the free resolvent among a set
of lattice nodes alone, as a convolution on their bounding box.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .lattice import Field, GridSpec, PHYSICAL

__all__ = [
    "CutoffSpec",
    "to_spectrum",
    "to_field",
    "spectrum_norm",
    "apply_values",
    "apply_symbol",
    "resolvent_values",
    "free_resolvent",
    "free_resolvent_norm",
    "support_box",
    "support_resolvent",
    "pm_values",
    "bessel_values",
    "chi_values",
    "shell_radial_resolution",
]

#: refuse resolvent evaluation closer than this (relative) to the lattice symbol values
RESOLVENT_GUARD = 1e-8
#: radial frequency steps a shell cutoff needs across its support
SHELL_MIN_STEPS = 8


def _cached(vals: np.ndarray) -> np.ndarray:
    """Marks a symbol that a cache hands out read-only."""
    vals.setflags(write=False)
    return vals


@functools.lru_cache(maxsize=4)
def pm_values(grid: GridSpec, m: int) -> np.ndarray:
    return _cached(sum(x**2 for x in grid.freq_grids()) ** m)


@functools.lru_cache(maxsize=4)  # the four Bessel orders of one norm config
def bessel_values(grid: GridSpec, alpha: float) -> np.ndarray:
    """The Bessel potential symbol (1 + |xi|^2)^{alpha/2}."""
    return _cached((1.0 + pm_values(grid, 1)) ** (alpha / 2.0))


def _smooth_ramp(u: np.ndarray) -> np.ndarray:
    """0 for u <= 0, 1 for u >= 1, exp(-1/t)-based in between (C-infinity)."""
    u = np.clip(u, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(u > 0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)
        b = np.where(u < 1, np.exp(-1.0 / np.maximum(1.0 - u, 1e-300)), 0.0)
    return a / (a + b)


@dataclass(frozen=True)
class CutoffSpec:
    """Shell cutoff in the variable t = |xi|^{2m}: identically 1 for
    t in [3 lam/4, 5 lam/4], supported in [lam/2, 3 lam/2]."""

    lam: float
    m: int = 1

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError(f"lambda must be positive, got {self.lam}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")

    def profile(self, t: np.ndarray) -> np.ndarray:
        lam = self.lam
        t = np.asarray(t, dtype=float)
        rise = _smooth_ramp((t - lam / 2.0) / (lam / 4.0))
        fall = _smooth_ramp((1.5 * lam - t) / (lam / 4.0))
        return rise * fall


def shell_radial_resolution(grid: GridSpec, spec: CutoffSpec) -> float:
    """Number of radial frequency steps across the cutoff's support shell."""
    r_lo = (spec.lam / 2.0) ** (1.0 / (2 * spec.m))
    r_hi = (1.5 * spec.lam) ** (1.0 / (2 * spec.m))
    return (r_hi - r_lo) / grid.freq_step


def chi_values(grid: GridSpec, spec: CutoffSpec) -> np.ndarray:
    """The smooth shell cutoff on the lattice; refuses a grid whose radial
    frequency step leaves fewer than SHELL_MIN_STEPS steps across the shell."""
    got = shell_radial_resolution(grid, spec)
    if got < SHELL_MIN_STEPS:
        need = math.ceil(grid.points_per_axis * SHELL_MIN_STEPS
                         / max(got, 1e-12))
        raise ValueError(
            f"shell at lambda={spec.lam} spans only {got:.1f} radial frequency "
            f"steps (< {SHELL_MIN_STEPS}); need roughly n >= {need} at this "
            f"box size"
        )
    return spec.profile(pm_values(grid, spec.m))


def to_spectrum(f: Field) -> np.ndarray:
    """The spectrum of a physical field: ifftn of its values, in FFT order,
    a new array.  The transform's shifts and scale factors
    (n^d h^d (2L)^{-d} = 1) cancel against ``to_field``'s."""
    if f.domain_tag != PHYSICAL:
        raise ValueError("to_spectrum expects a physical field")
    return np.fft.ifftn(f.values)


def to_field(grid: GridSpec, spectrum: np.ndarray) -> Field:
    """The physical field whose spectrum is ``spectrum``: fftn in place, so
    the field's values share (and overwrite) ``spectrum``."""
    return Field(grid, np.fft.fftn(spectrum, out=spectrum), PHYSICAL)


def spectrum_norm(spectrum: np.ndarray) -> float:
    """The plain l2 norm of ``to_field``'s values, by Parseval without a
    transform: numpy's fftn scales norms by sqrt(n^d)."""
    return math.sqrt(spectrum.size) * float(np.linalg.norm(spectrum))


def apply_values(values: np.ndarray, f: Field) -> Field:
    """The one Fourier-multiply path, on a physical field: one FFT pair,
    ``values`` (FFT order) multiplied in place between them."""
    u = to_spectrum(f)
    u *= values
    return to_field(f.grid, u)


def apply_symbol(values: np.ndarray, f: Field) -> Field:
    """``apply_values`` under its own name, for a Bessel multiply that a
    profiler times apart from every other multiply.  The norms multiply
    spectra (``spaces.xstar_norm_from_spectrum``) and do not call it."""
    return apply_values(values, f)


# a solve's right-hand side, box kernel, reconstruction and residual share z,
# and so do the solves of one sweep cell
@functools.lru_cache(maxsize=1)
def resolvent_values(grid: GridSpec, m: int, z: complex) -> np.ndarray:
    """The free resolvent's symbol (|xi|^{2m} - z)^{-1} on the lattice, in
    FFT order; refuses z on [0, infinity) or within machine-noise distance
    of the lattice symbol values."""
    if z.imag == 0.0 and z.real >= 0.0:
        raise ValueError(
            f"z = {z} lies on [0, inf); use the boundary-value machinery instead"
        )
    denom = pm_values(grid, m) - z
    gap = np.min(np.abs(denom))
    if not gap >= RESOLVENT_GUARD * (1.0 + abs(z)):
        raise ValueError(
            f"z = {z} is within {gap:.2e} of a lattice symbol value; refusing"
        )
    return _cached(1.0 / denom)


def free_resolvent(z: complex, m: int, f: Field) -> Field:
    """((-Delta)^m - z)^{-1} f for z off [0, infinity).

    Refuses z on the half-axis or within machine-noise distance of the lattice
    symbol values; boundary values on (0, infinity) live in the boundary module.
    """
    return apply_values(resolvent_values(f.grid, m, complex(z)), f)


def free_resolvent_norm(z: complex, m: int, f: Field) -> float:
    """The plain l2 norm of the values of ``free_resolvent(z, m, f)``, from
    one inverse FFT."""
    r = to_spectrum(f)
    r *= resolvent_values(f.grid, m, complex(z))
    return spectrum_norm(r)


def _smooth_length(k: int) -> int:
    """The least 2-3-5-smooth integer >= k, a length numpy's FFT runs fast."""
    while True:
        r = k
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return k
        k += 1


def support_box(grid: GridSpec,
                nodes: np.ndarray) -> tuple[tuple[int, ...], np.ndarray]:
    """The FFT shape on which ``support_resolvent`` runs for the lattice
    nodes ``nodes`` (flat indices), and their flat indices in it.

    Along an axis on which the nodes span b entries of the lattice, the box
    has N = min(n, 2-3-5-smooth length >= max(1, 2b - 2)) entries.  The
    offsets between two nodes lie in [-(b - 1), b - 1], and with
    N >= 2b - 2 only the two ends share a residue mod N; the Green's
    function is even along each axis, so they read the same value and a
    circular convolution on N entries is exact among the nodes.  N = n is
    the lattice's own periodic product; nodes that touch both ends of an
    axis span all n entries of it.
    """
    n = grid.points_per_axis
    coords = np.unravel_index(nodes, grid.shape)
    low = [int(c.min()) for c in coords]
    box = tuple(min(n, _smooth_length(max(1, 2 * (int(c.max()) - lo))))
                for c, lo in zip(coords, low))
    return box, np.ravel_multi_index(
        tuple(c - lo for c, lo in zip(coords, low)), box)


@functools.lru_cache(maxsize=1)  # every solve of one sweep cell shares it
def _box_resolvent_values(grid: GridSpec, m: int, z: complex,
                          box: tuple[int, ...]) -> np.ndarray:
    """fftn of the Green's function g_z = R_0(z) delta_0 folded onto
    ``box``.  The resolvent symbol r is even on the lattice, the Nyquist
    planes included, so R_0 y = fftn(r ifftn(y)) is y convolved with
    g_z = ifftn(r).  Along an axis of N box entries, offsets o <= N // 2
    read g_z at o and the others at o - N, that is o - N + n."""
    n = grid.points_per_axis
    green = np.fft.ifftn(resolvent_values(grid, m, z))
    folds = []
    for N in box:
        o = np.arange(N)
        folds.append(np.where(o <= N // 2, o, o - N + n))
    return _cached(np.fft.fftn(green[np.ix_(*folds)]))


def support_resolvent(z: complex, m: int, grid: GridSpec,
                      box: tuple[int, ...], flat: np.ndarray):
    """E^T R_0(z) E, E the injection of a set of lattice nodes: a function
    that maps values x on the nodes to the values of R_0(z) E x on them, by
    one FFT pair on ``box``.  ``box`` and ``flat`` are ``support_box``'s
    shape and the nodes' flat indices in it."""
    kernel = _box_resolvent_values(grid, m, complex(z), box)

    def apply(x: np.ndarray) -> np.ndarray:
        w = np.zeros(box, dtype=np.complex128)
        w.ravel()[flat] = x     # w is contiguous: ravel is a view
        np.fft.fftn(w, out=w)
        w *= kernel
        return np.fft.ifftn(w, out=w).ravel()[flat]

    return apply
