"""Boundary values of the free resolvent on the positive half-axis.

The pairing < R_0^m(lambda +- i0) f, g > is evaluated by a one-variable radial
reduction: with rho = |xi| and I(rho) the angular integral of fhat conj(ghat)
over the unit sphere,

    (2 pi)^d < R_0 f, g > = p.v. integral_0^inf  rho^{d-1} I(rho)
                            / (rho^{2m} - lambda) d rho
                            +- i pi F(r),
    F(rho) = rho^{d-1} I(rho) (rho - r) / (rho^{2m} - lambda),
    F(r)   = r^{d - 2m} I(r) / (2m),

where r = lambda^{1/(2m)}.  F has a removable singularity at rho = r, so the
principal value is the symmetric-window subtraction of F(r); the surface
(delta) term is pi F(r) with the coarea weight 1/(2m r^{2m-1}) built in.  The
normalization was fixed against the epsilon -> 0 limit, which is the
normalization-free ground truth.

The lattice transform is a trigonometric polynomial, so I is exactly the Debye
sum h^{2d} sum_y C(y) sigmahat(rho |y|) of the correlation C = f (star) conj g,
sigmahat the transform of the unit sphere's surface measure, and is tabulated
as a Chebyshev series.  The table depends only on the grid, f and g, so the
pairings take it from a memo keyed on the content of both fields and share it
across lambda, sign, m and the two backends.

The epsilon-limit backend integrates the same radial integrand with the
resolved Lorentzian denominator and Richardson-extrapolates over a geometric
epsilon sequence.

The full-field operator adds to the lattice principal-value multiplier the
surface field, the Stein-Tomas extension of the sphere trace.  The transform
being a trigonometric polynomial, that field is exactly the lattice
convolution h^d sum_y f(y) sigmahat(r |x - y|): one zero-padded FFT pair.

The oscillatory kernel of the singular part near the north pole,

    K(x', x_d) = (2 pi)^{-(d-1)} i H(x_d)
                 integral exp(i (x_d phi(xi') + x'.xi')) Q(xi') d xi',

with phi(xi') = sqrt(r^2 - |xi'|^2) and Q the graph weight tapered to a
compact north-pole patch, depends on xi' only through |xi'|, so it is one
radial sum with the weight rho^{d-2} sigmahat_{d-1}(rho |x'|), refined by node
doubling; it feeds the (1+|x|)^{-(d-1)/2} decay scan.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.chebyshev import chebinterpolate
from numpy.polynomial.legendre import leggauss
from scipy import special

from .lattice import Field, PHYSICAL, forward_transform, inverse_transform
from .multiplier import _smooth_ramp, apply_values, pm_values

__all__ = [
    "BoundarySpec",
    "KernelSample",
    "BoundaryField",
    "DecayScan",
    "boundary_pairing",
    "epsilon_pairing",
    "richardson_limit",
    "boundary_apply",
    "graph_and_weight",
    "kernel_k_plus",
    "decay_scan",
]


def _sphere_ft(d: int, s: np.ndarray) -> np.ndarray:
    """Fourier transform of the unit sphere's surface measure at |y| = s:
    the integral of exp(i s omega_1) over S^{d-1} (S^0 = {-1, 1})."""
    if d == 1:
        return 2.0 * np.cos(s)
    if d == 2:
        return 2.0 * np.pi * special.j0(s)
    if d == 3:
        return 4.0 * np.pi * np.sinc(s / np.pi)
    # 4 pi^2 J1(s)/s, written as (J0 + J2)/2 so that s = 0 needs no limit
    return 2.0 * np.pi**2 * (special.j0(s) + special.jv(2, s))


def _offsets(n: int) -> np.ndarray:
    """|k| of the lattice offset k at index j of a zero-padded 2n-point FFT:
    j, or 2n - j from n on."""
    return np.minimum(np.arange(2 * n), np.arange(2 * n, 0, -1))


def _sum_sq(k: np.ndarray, d: int) -> np.ndarray:
    """|k|^2 on the d-fold grid of the integer offsets k, as int32."""
    k = k.astype(np.int32) ** 2
    return sum(np.ix_(*([k] * d)))


def _padded_fft(values: np.ndarray) -> np.ndarray:
    """The (2n)^d FFT of an n^d array zero-padded along every axis, in one
    buffer: each axis is transformed in place, over the slabs that the axes
    still untransformed leave nonzero."""
    n, d = values.shape[0], values.ndim
    buf = np.zeros((2 * n,) * d, dtype=np.complex128)
    buf[(slice(0, n),) * d] = values
    for ax in reversed(range(d)):
        part = buf[(slice(0, n),) * ax]
        np.fft.fft(part, axis=ax, out=part)
    return buf


def _debye_terms(f: Field, g: Field) -> tuple[np.ndarray, np.ndarray]:
    """Radii |y| of the lattice shells |y/h|^2 = j and the Debye weights, h^{2d}
    times the shell sums of C = f (star) conj g (one zero-padded FFT)."""
    d, n, h = f.grid.dimension, f.grid.points_per_axis, f.grid.spacing
    spec = _padded_fft(f.values)
    for a, b in zip(spec, spec if g is f else _padded_fft(g.values)):
        a *= np.conj(b)         # slab by slab: no full-size temporary
    corr = np.fft.ifftn(spec, out=spec).ravel()
    k2 = _sum_sq(_offsets(n), d).ravel()
    re, im = np.zeros((2, d * n * n + 1))
    # in index order, in chunks: the additions of one bincount, without its
    # full-size copies of the index and the weights
    for lo in range(0, k2.size, 2**18):
        np.add.at(re, k2[lo:lo + 2**18], corr.real[lo:lo + 2**18])
        np.add.at(im, k2[lo:lo + 2**18], corr.imag[lo:lo + 2**18])
    shells = np.flatnonzero(np.bincount(_sum_sq(np.arange(n + 1), d).ravel()))
    return h * np.sqrt(shells), h ** (2 * d) * (re + 1j * im)[shells]


def sphere_restriction_norm(f: Field, r: float) -> float:
    """L^2(dsigma) norm of fhat restricted to the radius-r sphere,
    sqrt(r^{d-1} I(r)) with I the Debye sum of f against itself."""
    if r <= 0:
        raise ValueError("radius must be positive")
    d = f.grid.dimension
    radii, weights = _debye_terms(f, f)
    I = (_sphere_ft(d, r * radii) @ weights).real
    return float(np.sqrt(r ** (d - 1) * max(I, 0.0)))


@dataclass(frozen=True)
class BoundarySpec:
    """Parameters of a boundary-value evaluation at lambda +- i0."""

    lam: float
    sign: int = +1
    m: int = 1
    backend: str = "plemelj"
    delta: float = 0.5
    pv_window_frac: float = 0.25    # radial half-width of the p.v. window, as a fraction of r
    eps_start: float = 0.1
    eps_count: int = 6
    rel_tol: float = 1e-7
    cross_tol: float = 1e-3         # plemelj vs epsilon-limit field cross-check

    def __post_init__(self):
        if self.sign not in (+1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.backend not in ("plemelj", "epsilon_limit"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if not 0 < self.delta <= 1:
            raise ValueError("delta must lie in (0, 1]")
        if not self.delta <= self.lam <= 1.0 / self.delta:
            raise ValueError(
                f"lambda = {self.lam} outside [{self.delta}, {1 / self.delta}]"
            )

    @property
    def r(self) -> float:
        return self.lam ** (1.0 / (2 * self.m))

    def eps_sequence(self) -> np.ndarray:
        return self.eps_start * 0.5 ** np.arange(self.eps_count)


class _RadialReduction:
    """I(rho) as a Chebyshev series on [0, rho_max]; I has exponential type
    max|y|, so degree 1.25 omega + 32, omega = rho_max max|y| / 2, is exact."""

    def __init__(self, f: Field, g: Field):
        self.d = f.grid.dimension
        self.rho_max = 0.999 * f.grid.max_inscribed_freq
        self.radii, self.weights = _debye_terms(f, g)
        degree = math.ceil(0.625 * self.rho_max * self.radii[-1]) + 32
        self.cheb = chebinterpolate(
            lambda t: self.debye_sum(0.5 * self.rho_max * (1.0 + t)), degree)
        self.k = np.arange(degree + 1)

    def debye_sum(self, rho: np.ndarray) -> np.ndarray:
        """I(rho) by the direct Debye sum, in blocks of about 2^20 terms."""
        blocks = np.array_split(rho, 1 + len(rho) * len(self.radii) // 2**20)
        return np.concatenate([_sphere_ft(self.d, np.outer(b, self.radii))
                               @ self.weights for b in blocks])

    def angular(self, rho: np.ndarray) -> np.ndarray:
        rho = np.atleast_1d(np.asarray(rho, dtype=float))
        t = np.clip(2.0 * rho / self.rho_max - 1.0, -1.0, 1.0)
        return np.cos(np.outer(np.arccos(t), self.k)) @ self.cheb

    def F(self, rho: np.ndarray, spec: BoundarySpec) -> np.ndarray:
        """rho^{d-1} I(rho) (rho - r)/(rho^{2m} - lam), with the removable
        singularity at rho = r filled by the coarea limit."""
        r, lam, m = spec.r, spec.lam, spec.m
        rho = np.atleast_1d(np.asarray(rho, dtype=float))
        num = rho ** (self.d - 1) * self.angular(rho)
        out = np.empty_like(num)
        close = np.abs(rho - r) < 1e-9 * r
        denom = rho ** (2 * m) - lam
        out[~close] = num[~close] * (rho[~close] - r) / denom[~close]
        out[close] = num[close] / (2 * m * r ** (2 * m - 1))
        return out


class _PairKey:
    """Memo key of a field pair: the grid and digests of both value arrays,
    never the objects, whose arrays the caller may still write to.  It carries
    the fields only until their reduction is built."""

    __slots__ = ("key", "fields")

    def __init__(self, f: Field, g: Field):
        # Field values are contiguous complex128, so the bytes are the content
        fd, gd = (hashlib.blake2b(v.values, digest_size=16).digest()
                  for v in (f, g))
        self.key = (f.grid, fd, gd)
        self.fields = (f, g)

    def __hash__(self):
        return hash(self.key)

    def __eq__(self, other):
        return self.key == other.key


@functools.lru_cache(maxsize=16)
def _memo_reduction(pair: _PairKey) -> _RadialReduction:
    red = _RadialReduction(*pair.fields)
    pair.fields = None      # the memo keeps no full-grid array
    for a in (red.radii, red.weights, red.cheb, red.k):
        a.flags.writeable = False   # every caller shares these
    return red


def _reduction(f: Field, g: Field) -> _RadialReduction:
    """The radial reduction of (f, g), built once per distinct content."""
    _check_pair(f, g)
    return _memo_reduction(_PairKey(f, g))


@functools.lru_cache(maxsize=64)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _panel_nodes(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = _gauss_legendre(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def _geometric_edges(edge: float, far: float, scale: float) -> list[float]:
    """Panel edges marching geometrically away from ``edge`` toward ``far``."""
    out = [edge]
    step = scale
    pos = edge
    direction = 1.0 if far > edge else -1.0
    while (far - pos) * direction > 1e-14:
        pos = pos + direction * step
        if (far - pos) * direction <= 0:
            pos = far
        out.append(pos)
        step *= 2.0
    return out


def _pv_radial(red: _RadialReduction, spec: BoundarySpec, Fr: complex,
               n_nodes: int) -> complex:
    """p.v. integral of F(rho)/(rho - r) over (0, rho_max), Fr = F(r)."""
    r = spec.r
    w = min(spec.pv_window_frac * r, 0.45 * (red.rho_max - r), 0.45 * r)

    # symmetric window: integrand (F - F(r))/(rho - r) is Hoelder
    x, wx = _panel_nodes(r - w, r + w, 2 * n_nodes)
    vals = (red.F(x, spec) - Fr) / (x - r)
    total = np.sum(wx * vals)

    # outer parts, geometric panels toward the window edges
    for edge, far in ((r - w, 1e-12), (r + w, red.rho_max)):
        edges = _geometric_edges(edge, far, w)
        for lo, hi in zip(edges[:-1], edges[1:]):
            x, wx = _panel_nodes(min(lo, hi), max(lo, hi), n_nodes)
            total += np.sum(wx * red.F(x, spec) / (x - r))
    return complex(total)


def _refine(fn: Callable[[int], complex], start: int, rel_tol: float,
            max_doublings: int = 4) -> tuple[complex, bool]:
    """Doubles the node count until two values agree to rel_tol; returns the
    last value and whether they did."""
    prev = fn(start)
    n = start
    for _ in range(max_doublings):
        n *= 2
        cur = fn(n)
        if abs(cur - prev) <= rel_tol * max(abs(cur), 1e-300):
            return cur, True
        prev = cur
    return prev, False


def boundary_pairing(f: Field, g: Field, spec: BoundarySpec) -> complex:
    """< R_0^m(lambda + i 0 sign) f, g > via the surface + principal-value split."""
    red = _reduction(f, g)
    Fr = complex(red.F(np.array([spec.r]), spec)[0])
    pv, ok = _refine(lambda n: _pv_radial(red, spec, Fr, n), 16, spec.rel_tol)
    if not ok:
        raise ArithmeticError(
            f"principal-value quadrature unconverged at lambda = {spec.lam}")
    return ((2.0 * np.pi) ** (-red.d)) * (pv + spec.sign * 1j * np.pi * Fr)


def _eps_quadrature(red: _RadialReduction, spec: BoundarySpec, eps: float,
                    n_nodes: int) -> complex:
    r, lam, m = spec.r, spec.lam, spec.m
    drho = eps / (2.0 * m * r ** (2 * m - 1))
    z = lam + 1j * spec.sign * eps
    half = min(0.5 * drho, 0.1 * r)
    # panels from 0 up to the resolved window [r - half, r + half] and on
    edges = (_geometric_edges(r - half, 1e-12, half)[::-1]
             + _geometric_edges(r + half, red.rho_max, half))
    total = 0.0 + 0.0j
    for lo, hi in zip(edges[:-1], edges[1:]):
        x, wx = _panel_nodes(lo, hi, n_nodes)
        total += np.sum(wx * x ** (red.d - 1) * red.angular(x)
                        / (x ** (2 * m) - z))
    return complex(total)


def _eps_pairing(red: _RadialReduction, spec: BoundarySpec,
                 eps: float) -> complex:
    val, ok = _refine(lambda n: _eps_quadrature(red, spec, eps, n), 16,
                      spec.rel_tol)
    if not ok:
        raise ArithmeticError(
            f"radial quadrature unconverged at lambda = {spec.lam}, "
            f"eps = {eps:g}")
    return ((2.0 * np.pi) ** (-red.d)) * val


def epsilon_pairing(f: Field, g: Field, spec: BoundarySpec,
                    eps: float) -> complex:
    """< R_0^m(lambda + i sign eps) f, g > by resolved radial quadrature."""
    return _eps_pairing(_reduction(f, g), spec, eps)


def richardson_limit(values: Sequence, ratio: float = 0.5) -> tuple:
    """Second-order Richardson extrapolation to eps -> 0 along a geometric
    sequence eps_k = eps_0 ratio^k, of scalars or of arrays (step sizes are
    then max norms).  Returns (limit, diverged flag)."""
    v = list(values)
    if len(v) < 3:
        raise ValueError("need at least 3 values for order-2 extrapolation")
    # first order: kill the eps term
    v1 = [(v[k + 1] - ratio * v[k]) / (1.0 - ratio) for k in range(len(v) - 1)]
    r2 = ratio**2
    v2 = [(v1[k + 1] - r2 * v1[k]) / (1.0 - r2) for k in range(len(v1) - 1)]
    steps = [np.max(np.abs(v2[k + 1] - v2[k])) for k in range(len(v2) - 1)]
    diverged = len(steps) >= 2 and steps[-1] > 4.0 * steps[-2] and \
        steps[-1] > 1e-12 * max(np.max(np.abs(v2[-1])), 1e-300)
    return v2[-1], bool(diverged)


def epsilon_limit_pairing(f: Field, g: Field, spec: BoundarySpec) -> complex:
    red = _reduction(f, g)
    vals = [_eps_pairing(red, spec, e) for e in spec.eps_sequence()]
    limit, diverged = richardson_limit(vals)
    if diverged:
        raise ArithmeticError("epsilon extrapolation of the pairing diverged")
    return limit


def _check_pair(f: Field, g: Field):
    if f.domain_tag != PHYSICAL or g.domain_tag != PHYSICAL:
        raise ValueError("boundary pairings expect physical fields")
    if f.grid != g.grid:
        raise ValueError("f and g must share a grid")


# ---------------------------------------------------------------------------
# full-field boundary operator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryField:
    """Result of applying R_0^m(lambda +- i0) to a field.

    ``pv_part`` is the lattice principal-value multiplier image, ``surface_part``
    the sphere-extension (delta term) sampled on the physical lattice; ``total``
    is their sum.  ``diagnostics`` records backend cross-checks.
    """

    spec: BoundarySpec
    source: Field
    pv_part: Field
    surface_part: Field
    total: Field
    diagnostics: dict

    def weak_residual(self, g: Field) -> complex:
        """< u, (P_m(D) - lambda) g > - < f, g > on the lattice, u = ``total``:
        the distributional residual of (P_m(D) - lambda) u = f tested against
        g."""
        Lg = apply_values(pm_values(g.grid, self.spec.m) - self.spec.lam, g)
        w = g.grid.cell_volume
        return complex(w * np.sum(self.total.values * np.conj(Lg.values))
                       - w * np.sum(self.source.values * np.conj(g.values)))


def _surface_extension(f: Field, spec: BoundarySpec) -> Field:
    """The delta-term field: +- i pi (2pi)^{-d} (coarea) integral over the
    r-sphere of exp(-i xi.x) fhat(xi), sampled on the physical lattice.  fhat
    is a trigonometric polynomial, so the sphere integral is exactly
    h^d sum_y f(y) sigmahat(r |x - y|), a linear convolution over the lattice
    offsets: one zero-padded (2n)^d FFT pair."""
    grid = f.grid
    d, n, h, m, r = (grid.dimension, grid.points_per_axis, grid.spacing,
                     spec.m, spec.r)
    coef = (spec.sign * 1j * np.pi / (2.0 * np.pi) ** d
            * r ** (d - 1) / (2 * m * r ** (2 * m - 1)) * h**d)
    mirror = _offsets(n)
    # the kernel is even in every axis, so its DFT is real and even: per axis,
    # the rfft of the mirrored n + 1 offsets
    khat = _sphere_ft(d, r * h * np.sqrt(_sum_sq(np.arange(n + 1), d)))
    for ax in range(d):
        khat = np.fft.rfft(np.take(khat, mirror, axis=ax), axis=ax).real.copy()
    conv = _padded_fft(f.values)
    rest = np.ix_(*([mirror] * (d - 1)))
    for slab, i in zip(conv, mirror):
        slab *= khat[i][rest]
    out = np.fft.ifftn(conv, out=conv)[(slice(0, n),) * d]
    return Field(grid, coef * out, PHYSICAL)


def boundary_apply(f: Field, spec: BoundarySpec) -> BoundaryField:
    """u = R_0^m(lambda +- i0) f on the lattice.

    plemelj backend: lattice principal-value multiplier plus the sphere
    extension.  epsilon_limit backend: Richardson extrapolation of the lattice
    resolvent multiplier (radially limited by the lattice step; its agreement
    with plemelj is reported in the diagnostics, not asserted).
    """
    if f.domain_tag != PHYSICAL:
        raise ValueError("boundary_apply expects a physical field")
    grid = f.grid
    pm = pm_values(grid, spec.m)
    gap = np.min(np.abs(pm - spec.lam))
    if gap < 1e-10 * spec.lam:
        raise ValueError(
            f"lambda = {spec.lam} collides with a lattice symbol value"
        )
    # first, so that its (2n)^d buffer is the only large array alive
    surf = _surface_extension(f, spec)
    F = forward_transform(f)
    pv = inverse_transform(F.with_values(F.values / (pm - spec.lam)))
    total = f.with_values(pv.values + surf.values)

    diagnostics = {"lattice_gap": float(gap)}
    if spec.backend == "epsilon_limit":
        eps = spec.eps_sequence()
        stack = [
            inverse_transform(
                F.with_values(F.values / (pm - (spec.lam + 1j * spec.sign * e)))
            ).values
            for e in eps
        ]
        limit, diverged = richardson_limit(stack)
        eps_field = f.with_values(limit)
        scale = np.sqrt(np.sum(np.abs(total.values) ** 2))
        diff = np.sqrt(np.sum(np.abs(eps_field.values - total.values) ** 2))
        rel = float(diff / max(scale, 1e-300))
        diagnostics["backend_disagreement"] = rel
        diagnostics["backend_flag"] = rel > spec.cross_tol or diverged
        if diagnostics["backend_flag"]:
            # disagreement above tolerance or a diverged extrapolation:
            # surface both results
            diagnostics["epsilon_field"] = eps_field
    return BoundaryField(spec, f, pv, surf, total, diagnostics)


# ---------------------------------------------------------------------------
# graph weight and oscillatory kernel
# ---------------------------------------------------------------------------

def _patch_profile(s: np.ndarray, s0: float = 0.5, s1: float = 0.8) -> np.ndarray:
    """Smooth angular taper: 1 for |xi'|/r <= s0, 0 beyond s1.  The radial shell
    cutoff is identically 1 on the graph, so this north-pole patch is what gives
    the kernel weight compact support."""
    u = (s1 - np.asarray(s, dtype=float)) / (s1 - s0)
    return _smooth_ramp(u)


def graph_and_weight(lam: float, m: int, xi_prime: np.ndarray,
                     s0: float = 0.5, s1: float = 0.8):
    """Graph height phi(xi') = sqrt(r^2 - |xi'|^2) and the kernel weight
    Q(xi') = patch(|xi'|/r) / (2m |xi|^{2m-2} phi); on the graph |xi| = r."""
    xi_prime = np.atleast_2d(np.asarray(xi_prime, dtype=float))
    r = lam ** (1.0 / (2 * m))
    s = np.sqrt(np.sum(xi_prime**2, axis=1))
    if np.any(s >= r):
        raise ValueError("graph exists only for |xi'| < r")
    phi = np.sqrt(r**2 - s**2)
    q = _patch_profile(s / r, s0, s1) / (2.0 * m * r ** (2 * m - 2) * phi)
    if phi.size == 1:
        return float(phi[0]), float(q[0])
    return phi, q


@dataclass(frozen=True)
class KernelSample:
    x: np.ndarray
    value: complex
    error_estimate: float
    flagged: bool = False


def _kernel_quad(lam: float, m: int, d: int, x: np.ndarray, n_rad: int,
                 s0: float, s1: float) -> complex:
    """K(x) by n_rad Gauss-Legendre nodes in rho = |xi'| on (0, s1 r); the
    angular integral over xi' is sigmahat_{d-1}(rho |x'|)."""
    r = lam ** (1.0 / (2 * m))
    rho, w = _panel_nodes(0.0, s1 * r, n_rad)
    phi, q = graph_and_weight(lam, m, rho[:, None], s0, s1)
    ang = _sphere_ft(d - 1, rho * np.linalg.norm(x[:-1]))
    vals = w * rho ** (d - 2) * q * np.exp(1j * x[-1] * phi) * ang
    return complex(np.sum(vals) * 1j / (2.0 * np.pi) ** (d - 1))


def kernel_k_plus(lam: float, m: int, d: int, x: Sequence[float],
                  tol: float = 1e-8, s0: float = 0.5, s1: float = 0.8,
                  node_budget: int = 6000) -> KernelSample:
    """One sample of the outgoing kernel; exactly 0 for x_d < 0 (Heaviside)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (d,):
        raise ValueError(f"x must have {d} components")
    if x[-1] < 0:
        return KernelSample(x, 0.0 + 0.0j, 0.0)
    r = lam ** (1.0 / (2 * m))
    n = max(48, int(4 * r * (abs(x[-1]) + np.linalg.norm(x[:-1]))))
    prev = _kernel_quad(lam, m, d, x, n, s0, s1)
    while True:
        n2 = 2 * n
        cur = _kernel_quad(lam, m, d, x, n2, s0, s1)
        err = abs(cur - prev)
        if err <= tol * max(abs(cur), 1e-12):
            return KernelSample(x, cur, err)
        if n2 > node_budget:
            return KernelSample(x, cur, err, flagged=True)
        n, prev = n2, cur


@dataclass(frozen=True)
class DecayScan:
    lam: float
    m: int
    d: int
    rows: list          # (x, |K|, |K| (1+|x|)^{(d-1)/2}, flagged)
    max_normalized: float
    median_normalized: float


def decay_scan(lam: float, m: int, d: int, radii: Sequence[float],
               directions: Sequence[Sequence[float]],
               tol: float = 1e-6) -> DecayScan:
    """Tabulates |K| (1 + |x|)^{(d-1)/2} along rays; the max of the normalized
    column is the empirical decay constant."""
    rows = []
    for direction in directions:
        u = np.asarray(direction, dtype=float)
        u = u / np.linalg.norm(u)
        for R in radii:
            s = kernel_k_plus(lam, m, d, R * u, tol=tol)
            mag = abs(s.value)
            rows.append((s.x, mag, mag * (1.0 + R) ** ((d - 1) / 2.0),
                         s.flagged))
    if rows:
        norm_col = [row[2] for row in rows]
        mx, med = float(np.max(norm_col)), float(np.median(norm_col))
    else:
        mx = med = 0.0
    return DecayScan(lam, m, d, rows, mx, med)
