"""Reference values computed without laplab's transforms or solvers."""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate


def gaussian_pairing(lam: float, d: int) -> complex:
    """< R_0(lam + i0) f, f > for the centered unit Gaussian exp(-|x|^2/2), m=1.

    Its transform has |fhat|^2 = (2 pi)^d exp(-rho^2), so the angular integral
    is I(rho) = |S^{d-1}| (2 pi)^d exp(-rho^2) and the pairing is
    (2 pi)^{-d} [p.v. int rho^{d-1} I / (rho^2 - lam) d rho
                 + i pi r^{d-2} I(r) / 2],  r = sqrt(lam),
    with the principal value taken by QUADPACK's Cauchy weight.
    """
    area = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)

    def radial(rho):
        return area * (2.0 * math.pi) ** d * math.exp(-rho * rho)

    r = math.sqrt(lam)
    near, _ = integrate.quad(lambda rho: rho ** (d - 1) * radial(rho) / (rho + r),
                             0.0, 2.0 * r, weight="cauchy", wvar=r,
                             epsabs=0.0, epsrel=1e-13, limit=200)
    far, _ = integrate.quad(lambda rho: rho ** (d - 1) * radial(rho)
                            / (rho * rho - lam), 2.0 * r, math.inf,
                            epsabs=0.0, epsrel=1e-13, limit=200)
    surface = math.pi * r ** (d - 2) * radial(r) / 2.0
    return (2.0 * math.pi) ** (-d) * complex(near + far, surface)


def birman_schwinger_direct(z: complex, potential: np.ndarray,
                            f: np.ndarray, half_width: float) -> np.ndarray:
    """u solving (Id + R_0(z) V) u = R_0(z) f on the periodic lattice, m=1.

    R_0(z) is the circular convolution with the lattice kernel of
    1/(|xi|^2 - z), applied with numpy's FFT.  Restricted to the support S
    of V the equation is the dense system (Id + G_SS V_S) u_S = (R_0 f)_S,
    solved by LU; then u = R_0 f - R_0 (V u).
    """
    shape = potential.shape
    n = shape[0]
    xi = np.fft.fftfreq(n, 1.0 / n) * (math.pi / half_width)
    xi2 = sum(x**2 for x in np.meshgrid(*([xi] * len(shape)),
                                         indexing="ij", sparse=True))
    symbol = 1.0 / (xi2 - z)

    def resolvent(v):
        return np.fft.ifftn(symbol * np.fft.fftn(v))

    rhs = resolvent(f)
    support = np.flatnonzero(potential)
    v_s = potential.ravel()[support]
    kernel = np.fft.ifftn(symbol)
    coords = np.unravel_index(support, shape)
    offsets = tuple((c[:, None] - c[None, :]) % n for c in coords)
    system = np.eye(len(support)) + kernel[offsets] * v_s[None, :]
    u_s = np.linalg.solve(system, rhs.ravel()[support])
    vu = np.zeros(potential.size, dtype=complex)
    vu[support] = v_s * u_s
    return rhs - resolvent(vu.reshape(shape))
