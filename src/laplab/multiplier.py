"""Fourier multiplier operators: the radial symbol |xi|^{2m}, Bessel potentials,
smooth shell cutoffs around {|xi|^{2m} = lambda}, and the off-axis free
resolvent (|xi|^{2m} - z)^{-1}.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lattice import Field, GridSpec, PHYSICAL

__all__ = [
    "Symbol",
    "CutoffSpec",
    "pm_symbol",
    "bessel_symbol",
    "resolvent_symbol",
    "chi_lambda",
    "apply_values",
    "apply_symbol",
    "free_resolvent",
    "pm_values",
    "shell_radial_resolution",
    "require_shell_resolved",
]

#: refuse resolvent evaluation closer than this (relative) to the lattice symbol values
RESOLVENT_GUARD = 1e-8


@dataclass(frozen=True)
class Symbol:
    """A pointwise spectral multiplier.  ``fn`` maps the tuple of frequency
    grids to complex values; ``name`` is for diagnostics only."""

    fn: Callable
    name: str = ""

    def on_grid(self, grid: GridSpec) -> np.ndarray:
        vals = np.asarray(self.fn(*grid.freq_grids()), dtype=np.complex128)
        vals = np.broadcast_to(vals, grid.shape)
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"symbol {self.name!r} not finite on the lattice")
        return vals


def pm_symbol(m: int) -> Symbol:
    return Symbol(lambda *xi: sum(x**2 for x in xi) ** m, name=f"|xi|^{2 * m}")


def bessel_symbol(alpha: float) -> Symbol:
    return Symbol(lambda *xi: (1.0 + sum(x**2 for x in xi)) ** (alpha / 2.0),
                  name=f"S_{alpha}")


@functools.lru_cache(maxsize=4)
def pm_values(grid: GridSpec, m: int) -> np.ndarray:
    vals = sum(x**2 for x in grid.freq_grids()) ** m
    vals.setflags(write=False)
    return vals


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


def require_shell_resolved(grid: GridSpec, spec: CutoffSpec, min_steps: int = 8):
    got = shell_radial_resolution(grid, spec)
    if got < min_steps:
        need = math.ceil(grid.points_per_axis * min_steps / max(got, 1e-12))
        raise ValueError(
            f"shell at lambda={spec.lam} spans only {got:.1f} radial frequency "
            f"steps (< {min_steps}); need roughly n >= {need} at this box size"
        )


def chi_lambda(spec: CutoffSpec, grid: GridSpec | None = None) -> Symbol:
    """The smooth shell cutoff as a Symbol; validates radial resolution when a
    grid is supplied."""
    if grid is not None:
        require_shell_resolved(grid, spec)

    def fn(*xi):
        return spec.profile(sum(x**2 for x in xi) ** spec.m)

    return Symbol(fn, name=f"chi_lambda({spec.lam}, m={spec.m})")


def apply_values(values: np.ndarray, f: Field) -> Field:
    """The one Fourier-multiply path; output returned in the input's domain.

    ``values`` lives on the sorted frequency lattice.  For a physical field
    the transform's shifts and scale factors (n^d h^d (2L)^{-d} = 1) cancel,
    so the product is one FFT pair with the symbol moved to FFT order.
    """
    if f.domain_tag == PHYSICAL:
        u = np.fft.ifftn(f.values)
        u *= np.fft.ifftshift(values)
        return f.with_values(np.fft.fftn(u, out=u))
    return f.with_values(f.values * values)


def apply_symbol(sym: Symbol, f: Field) -> Field:
    """Pointwise spectral multiplication; output returned in the input's domain."""
    return apply_values(sym.on_grid(f.grid), f)


def resolvent_symbol(z: complex, m: int) -> Symbol:
    return Symbol(lambda *xi: 1.0 / (sum(x**2 for x in xi) ** m - z),
                  name=f"(|xi|^{2 * m} - {z})^-1")


@functools.lru_cache(maxsize=1)  # all matvecs of one solve share z
def _resolvent_values(grid: GridSpec, m: int, z: complex) -> np.ndarray:
    if z.imag == 0.0 and z.real >= 0.0:
        raise ValueError(
            f"z = {z} lies on [0, inf); use the boundary-value machinery instead"
        )
    pm = pm_values(grid, m)
    gap = np.min(np.abs(pm - z))
    if not gap >= RESOLVENT_GUARD * (1.0 + abs(z)):
        raise ValueError(
            f"z = {z} is within {gap:.2e} of a lattice symbol value; refusing"
        )
    return resolvent_symbol(z, m).on_grid(grid)


def free_resolvent(z: complex, m: int, f: Field) -> Field:
    """((-Delta)^m - z)^{-1} f for z off [0, infinity).

    Refuses z on the half-axis or within machine-noise distance of the lattice
    symbol values; boundary values on (0, infinity) live in the boundary module.
    """
    return apply_values(_resolvent_values(f.grid, m, complex(z)), f)
