"""Fourier multiplier operators on the lattice: the radial symbol |xi|^{2m},
Bessel potentials (1 + |xi|^2)^{alpha/2}, smooth shell cutoffs around
{|xi|^{2m} = lambda}, and the off-axis free resolvent (|xi|^{2m} - z)^{-1}.

Every multiplier is an array on the frequency lattice in FFT order (zero
frequency first, as ``GridSpec.freq_grids``); the ones that are reused are
cached and read-only, and every multiply goes through ``apply_values``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .lattice import Field, GridSpec, PHYSICAL

__all__ = [
    "CutoffSpec",
    "apply_values",
    "apply_symbol",
    "free_resolvent",
    "free_resolvent_norm",
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


def apply_values(values: np.ndarray, f: Field) -> Field:
    """The one Fourier-multiply path, on a physical field.

    ``values`` is in FFT order.  The transform's shifts and scale factors
    (n^d h^d (2L)^{-d} = 1) cancel, so the product is one FFT pair.
    """
    if f.domain_tag != PHYSICAL:
        raise ValueError("apply_values expects a physical field")
    u = np.fft.ifftn(f.values)
    u *= values
    return f.with_values(np.fft.fftn(u, out=u))


def apply_symbol(values: np.ndarray, f: Field) -> Field:
    """``apply_values`` for the Bessel multiplies of the norms; its own
    function so that a profiler can time them apart from every other
    multiply."""
    return apply_values(values, f)


@functools.lru_cache(maxsize=1)  # all matvecs of one solve share z
def _resolvent_values(grid: GridSpec, m: int, z: complex) -> np.ndarray:
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
    return apply_values(_resolvent_values(f.grid, m, complex(z)), f)


def free_resolvent_norm(z: complex, m: int, f: Field) -> float:
    """The plain l2 norm of the values of ``free_resolvent(z, m, f)``, by
    Parseval from one inverse FFT: numpy's fftn scales norms by sqrt(n^d)."""
    r = np.fft.ifftn(f.values)
    r *= _resolvent_values(f.grid, m, complex(z))
    return math.sqrt(r.size) * float(np.linalg.norm(r))
