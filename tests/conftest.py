import collections

import numpy as np
import pytest
from hypothesis import settings
from numpy.polynomial.legendre import leggauss

from laplab.lattice import Field, GridSpec, PHYSICAL, sample
from laplab.multiplier import apply_values, pm_values

# few examples, no time limit, and the same examples on every run
PROPERTY = settings(max_examples=20, deadline=None, derandomize=True,
                    database=None)


@pytest.fixture(scope="session")
def g2():
    return GridSpec(dimension=2, half_width=6.8, points_per_axis=128)


@pytest.fixture(scope="session")
def g2_fine():
    return GridSpec(dimension=2, half_width=6.8, points_per_axis=256)


@pytest.fixture(scope="session")
def g3():
    return GridSpec(dimension=3, half_width=6.8, points_per_axis=32)


@pytest.fixture(scope="session")
def g3_well():
    return GridSpec(dimension=3, half_width=6.0, points_per_axis=32)


@pytest.fixture(scope="session")
def gauss2(g2):
    return sample(lambda x, y: np.exp(-(x**2 + y**2) / 2.0), g2)


@pytest.fixture(scope="session")
def gauss3(g3):
    return sample(lambda x, y, z: np.exp(-(x**2 + y**2 + z**2) / 2.0), g3)


def gaussian_field(grid, width=1.0, center=None, wavevector=None) -> Field:
    center = center or (0.0,) * grid.dimension
    wavevector = wavevector or (0.0,) * grid.dimension
    r2 = sum((x - c) ** 2 for x, c in zip(grid.coord_grids(), center))
    ph = sum(k * x for x, k in zip(grid.coord_grids(), wavevector))
    vals = np.exp(-r2 / (2.0 * width**2)) * np.exp(1j * ph)
    return Field(grid, np.ascontiguousarray(np.broadcast_to(vals, grid.shape)),
                 PHYSICAL)


def apply_hamiltonian(m, V, u: Field) -> Field:
    """H u = P_m(D) u + V u on the complex multiply path, the oracle of the
    library's real rfftn/irfftn matvec."""
    pmu = apply_values(pm_values(u.grid, m), u)
    return u.with_values(pmu.values + V.real_values() * u.values)


def unit_sphere_rule(d: int, n_polar: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature on the unit sphere S^{d-1}: directions (K, d) and weights
    summing to the sphere area.  d=2: uniform trapezoid in angle (spectrally
    accurate); d=3: Gauss-Legendre in the polar cosine x uniform azimuth."""
    if d == 2:
        K = 2 * n_polar
        th = 2.0 * np.pi * np.arange(K) / K
        dirs = np.stack([np.cos(th), np.sin(th)], axis=1)
        wts = np.full(K, 2.0 * np.pi / K)
        return dirs, wts
    if d == 3:
        c, wc = leggauss(n_polar)
        n_az = 2 * n_polar
        ph = 2.0 * np.pi * np.arange(n_az) / n_az
        s = np.sqrt(1.0 - c**2)
        dirs = np.stack(
            [
                np.outer(s, np.cos(ph)).ravel(),
                np.outer(s, np.sin(ph)).ravel(),
                np.repeat(c, n_az),
            ],
            axis=1,
        )
        wts = np.repeat(wc, n_az) * (2.0 * np.pi / n_az)
        return dirs, wts
    raise ValueError(f"sphere quadrature implemented for d in {{2, 3}}, got {d}")


def count_lattice_ffts(monkeypatch, shape) -> collections.Counter:
    """Counts numpy's fftn and ifftn calls on arrays of ``shape`` from now
    on, by name; transforms of other shapes (a Birman-Schwinger box) are
    not counted."""
    calls = collections.Counter()
    for name in ("fftn", "ifftn"):
        def counted(a, *args, _name=name, _fn=getattr(np.fft, name),
                    **kwargs):
            if np.shape(a) == tuple(shape):
                calls[_name] += 1
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return calls
