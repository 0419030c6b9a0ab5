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
as a Chebyshev series, its coefficients the DCT of I at the Chebyshev points.
The series sum_k c_k cos(k theta), t = cos theta, is evaluated baby-step /
giant-step (Paterson and Stockmeyer): with k = j B + i and B about
sqrt(degree), cos(k theta) = cos(j B theta) cos(i theta)
- sin(j B theta) sin(i theta).  The baby steps exp(i i theta) and the giant
steps exp(i j B theta) are running products of two complex exponentials per
node, and the rest is two small matrix products against the coefficients laid
out as a B x J matrix.  Each pairing quadrature evaluates I once, on the
nodes of all its panels.  The table depends only on the grid, f and g,
so the pairings take it from a memo keyed on the content of both fields and
share it across lambda, sign, m and the two pairing backends.  A pairing
needs the sphere |xi| = r inside the table's range [0, rho_max], rho_max
``radial_cutoff`` of the grid, and refuses any other lambda.

The epsilon-limit pairing integrates the same radial integrand with the
resolved Lorentzian denominator and Richardson-extrapolates over a geometric
epsilon sequence.  Every radial quadrature, the kernel's included, doubles
its node count in ``_refine`` and reports whether it converged.

The full-field operator is the lattice principal-value multiplier
1/(P_m - lambda) plus the surface field, the Stein-Tomas extension of the
sphere trace.  The transform being a trigonometric polynomial, that field is
exactly the lattice convolution h^d sum_y f(y) sigmahat(r |x - y|): one
zero-padded FFT pair.  The field has no epsilon backend: on the periodic
lattice the epsilon -> 0 limit of (P_m - lambda -+ i eps)^{-1} is the
principal-value multiplier alone, without the surface term.

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
from scipy import special

from .lattice import Field, PHYSICAL
from .multiplier import _smooth_ramp, apply_values, pm_values

__all__ = [
    "BoundarySpec",
    "KernelSample",
    "BoundaryField",
    "DecayScan",
    "boundary_pairing",
    "epsilon_pairing",
    "radial_cutoff",
    "richardson_limit",
    "boundary_apply",
    "graph_and_weight",
    "kernel_k_plus",
    "decay_scan",
]

#: radial half-width of the principal-value window, as a fraction of r
PV_WINDOW_FRAC = 0.25
#: the geometric sequence eps_0 2^{-k} of the epsilon-limit pairing
EPS_SEQUENCE = 0.1 * 0.5 ** np.arange(6)
EPS_SEQUENCE.flags.writeable = False
#: agreement of two successive node doublings in every pairing quadrature
REL_TOL = 1e-7
#: the pairing quadratures double their nodes from 16 up to 256
PAIR_START, PAIR_MAX_NODES = 16, 128
#: the kernel taper is 1 for |xi'|/r <= S0 and 0 beyond S1
S0, S1 = 0.5, 0.8
#: node count past which kernel refinement stops and flags the sample
NODE_BUDGET = 6000
#: Newton steps on P_n from the asymptotic guesses; the last must move no
#: node by more than NEWTON_ULPS units of 1
NEWTON_STEPS, NEWTON_ULPS = 4, 4


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


def _debye_sum(d: int, rho: np.ndarray, radii: np.ndarray,
               weights: np.ndarray) -> np.ndarray:
    """I(rho) = sum_y weights sigmahat(rho |y|) over the shells, in blocks of
    about 2^20 terms: each real block times the complex weights viewed as a
    real S x 2 array, one real product without a complex copy of the block."""
    w = weights.view(float).reshape(-1, 2)
    blocks = np.array_split(rho, 1 + len(rho) * len(radii) // 2**20)
    return np.concatenate([(_sphere_ft(d, np.outer(b, radii)) @ w)
                           .view(complex)[:, 0] for b in blocks])


def sphere_restriction_norm(f: Field, r: float) -> float:
    """L^2(dsigma) norm of fhat restricted to the radius-r sphere,
    sqrt(r^{d-1} I(r)) with I the Debye sum of f against itself."""
    if r <= 0:
        raise ValueError("radius must be positive")
    d = f.grid.dimension
    I = _debye_sum(d, np.array([r]), *_debye_terms(f, f))[0].real
    return float(np.sqrt(r ** (d - 1) * max(I, 0.0)))


@dataclass(frozen=True)
class BoundarySpec:
    """Parameters of a boundary-value evaluation at lambda +- i0."""

    lam: float
    sign: int = +1
    m: int = 1
    delta: float = 0.5

    def __post_init__(self):
        if self.sign not in (+1, -1):
            raise ValueError("sign must be +1 or -1")
        if not 0 < self.delta <= 1:
            raise ValueError("delta must lie in (0, 1]")
        if not self.delta <= self.lam <= 1.0 / self.delta:
            raise ValueError(
                f"lambda = {self.lam} outside [{self.delta}, {1 / self.delta}]"
            )

    @property
    def r(self) -> float:
        return self.lam ** (1.0 / (2 * self.m))


def _powers(z: np.ndarray, n: int) -> np.ndarray:
    """z^0, ..., z^{n-1} of every entry of z, as the rows of a matrix: running
    products, whose error grows by about one rounding per power."""
    out = np.empty((z.size, n), dtype=complex)
    out[:, 0] = 1.0
    out[:, 1:] = z[:, None]
    return np.cumprod(out, axis=1, out=out)


def radial_cutoff(grid) -> float:
    """rho_max, the end of the radial reduction's table: just inside the
    largest frequency ball of the lattice.  A pairing at lambda needs
    r = lambda^{1/(2m)} below it."""
    return 0.999 * grid.max_inscribed_freq


class _RadialReduction:
    """I(rho) as a Chebyshev series on [0, rho_max]; I has exponential type
    max|y|, so degree 1.25 omega + 32, omega = rho_max max|y| / 2, is exact.
    ``coef`` holds the K = degree + 1 coefficients zero-padded to B J and laid
    out as a B x J matrix, coef[i, j] = c_{j B + i}, B = ceil(sqrt(K))."""

    def __init__(self, f: Field, g: Field):
        self.d = f.grid.dimension
        self.rho_max = radial_cutoff(f.grid)
        self.radii, self.weights = _debye_terms(f, g)
        K = math.ceil(0.625 * self.rho_max * self.radii[-1]) + 33
        # the DCT-II of I at the K Chebyshev points cos(theta_j) of the first
        # kind, by the FFT of the values mirrored to length 2K; numpy's
        # chebinterpolate builds its basis by the three-term recurrence, whose
        # O(k^2) error growth costs about 1e-12 of max|I| at t = -1
        theta = np.pi * (np.arange(K) + 0.5) / K
        y = self.debye_sum(0.5 * self.rho_max * (1.0 + np.cos(theta)))
        k = np.arange(K)
        cheb = (np.exp(-0.5j * np.pi * k / K)
                * np.fft.fft(np.concatenate([y, y[::-1]]))[:K]) / K
        cheb[0] /= 2.0
        B = math.isqrt(K - 1) + 1
        J = -(-K // B)
        coef = np.zeros(B * J, dtype=complex)
        coef[:K] = cheb
        self.coef = coef.reshape(J, B).T.copy()

    def debye_sum(self, rho: np.ndarray) -> np.ndarray:
        """I(rho) by the direct Debye sum."""
        return _debye_sum(self.d, rho, self.radii, self.weights)

    def angular(self, rho: np.ndarray) -> np.ndarray:
        """I(rho) from the table, baby-step / giant-step: two complex
        exponentials per node, and cos(k theta), k = j B + i, as
        cos(j B theta) cos(i theta) - sin(j B theta) sin(i theta)."""
        rho = np.atleast_1d(np.asarray(rho, dtype=float))
        t = np.clip(2.0 * rho / self.rho_max - 1.0, -1.0, 1.0)
        theta = np.arccos(t)
        B, J = self.coef.shape
        baby = _powers(np.exp(1j * theta), B)
        giant = _powers(np.exp(1j * B * theta), J)
        # the complex B x J matrix as a real B x 2J one: real products
        coef = self.coef.view(float)
        lo_cos = (baby.real @ coef).view(complex)
        lo_sin = (baby.imag @ coef).view(complex)
        return (np.einsum("nj,nj->n", giant.real, lo_cos)
                - np.einsum("nj,nj->n", giant.imag, lo_sin))

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
        fd = hashlib.blake2b(f.values, digest_size=16).digest()
        gd = fd if g is f else hashlib.blake2b(g.values,
                                                digest_size=16).digest()
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
    for a in (red.radii, red.weights, red.coef):
        a.flags.writeable = False   # every caller shares these
    return red


def _reduction(f: Field, g: Field, spec: BoundarySpec) -> _RadialReduction:
    """The radial reduction of (f, g), built once per distinct content;
    refused, before any work, when the sphere of radius r = lambda^{1/(2m)}
    does not lie inside the table's range."""
    _check_pair(f, g)
    cutoff = radial_cutoff(f.grid)
    if not spec.r < cutoff:
        raise ValueError(
            f"lambda = {spec.lam}: r = lambda^(1/(2m)) = {spec.r:.6g} is not "
            f"below the grid's radial cutoff {cutoff:.6g}; use more points "
            f"per axis or a smaller half-width")
    return _memo_reduction(_PairKey(f, g))


@functools.lru_cache(maxsize=64)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1], nodes ascending: Newton's
    method on P_n from Tricomi's asymptotic guesses, on the nonnegative nodes
    only (the middle node of an odd rule is 0), mirrored; O(n) steps of the
    three-term recurrence per node.  Raises ArithmeticError when the last
    Newton step still moves a node."""
    k = np.arange(1, (n + 1) // 2 + 1)
    x = np.cos(np.pi * (4 * k - 1) / (4 * n + 2)) * (1 - (n - 1) / (8 * n**3))
    x[n // 2:] = 0.0
    for _ in range(NEWTON_STEPS):
        p = special.eval_legendre(n, x)
        dp = n * (x * p - special.eval_legendre(n - 1, x)) / ((x - 1) * (x + 1))
        step = p / dp
        x = x - step
    if np.max(np.abs(step)) > NEWTON_ULPS * np.finfo(float).eps:
        raise ArithmeticError(
            f"Gauss-Legendre nodes unconverged at n = {n}: the last Newton "
            f"step moved a node by {np.max(np.abs(step)):.3g}")
    w = 2.0 / ((1 - x) * (1 + x) * dp**2)
    x = np.concatenate([-x[:n // 2], x[::-1]])
    w = np.concatenate([w[:n // 2], w[::-1]])
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _panel_nodes(lo, hi, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on every panel [lo, hi], lo
    and hi scalars or arrays of panel ends, all panels in one array."""
    x, w = _gauss_legendre(n)
    lo, hi = np.atleast_1d(lo)[:, None], np.atleast_1d(hi)[:, None]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return (mid + half * x).ravel(), (half * w).ravel()


def _geometric_edges(edge: float, far: float, scale: float) -> list[float]:
    """Panel edges marching geometrically away from ``edge`` toward ``far``,
    the first step ``scale``."""
    if not scale > 0:
        raise ValueError(f"panel scale must be positive, got {scale}")
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


def _panel_sum(terms: np.ndarray, n: int, total: complex = 0j) -> complex:
    """total plus the sum of ``terms``, n per panel: pairwise within a panel,
    then panel by panel in order, as a loop over the panels adds them."""
    for part in terms.reshape(-1, n).sum(axis=1):
        total += part
    return complex(total)


def _pv_radial(red: _RadialReduction, spec: BoundarySpec, Fr: complex,
               n_nodes: int) -> complex:
    """p.v. integral of F(rho)/(rho - r) over (0, rho_max), Fr = F(r)."""
    r = spec.r
    w = min(PV_WINDOW_FRAC * r, 0.45 * (red.rho_max - r), 0.45 * r)
    # symmetric window: integrand (F - F(r))/(rho - r) is Hoelder; outside
    # it, geometric panels away from the window's edges toward 0 and rho_max
    xw, ww = _panel_nodes(r - w, r + w, 2 * n_nodes)
    down = _geometric_edges(r - w, 1e-12, w)
    up = _geometric_edges(r + w, red.rho_max, w)
    x, wx = _panel_nodes(down[1:] + up[:-1], down[:-1] + up[1:], n_nodes)
    # F once, on the nodes of every panel
    F = red.F(np.concatenate([xw, x]), spec)
    window = np.sum(ww * ((F[:xw.size] - Fr) / (xw - r)))
    return _panel_sum(wx * F[xw.size:] / (x - r), n_nodes, window)


def _refine(fn: Callable[[int], complex], start: int, rel_tol: float,
            max_nodes: int) -> tuple[complex, float, bool]:
    """Doubles the node count from ``start`` until two successive values agree
    to rel_tol relative, or until it passes max_nodes; returns the last value,
    its distance from the one before, and whether they agreed."""
    n, prev = start, fn(start)
    while True:
        n *= 2
        cur = fn(n)
        err = abs(cur - prev)
        if err <= rel_tol * max(abs(cur), 1e-300):
            return cur, err, True
        if n > max_nodes:
            return cur, err, False
        prev = cur


def boundary_pairing(f: Field, g: Field, spec: BoundarySpec) -> complex:
    """< R_0^m(lambda + i 0 sign) f, g > via the surface + principal-value split."""
    red = _reduction(f, g, spec)
    Fr = complex(red.F(np.array([spec.r]), spec)[0])
    pv, _, ok = _refine(lambda n: _pv_radial(red, spec, Fr, n), PAIR_START,
                        REL_TOL, PAIR_MAX_NODES)
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
    # panels from 0 up to the resolved window [r - half, r + half] and on;
    # I once, on the nodes of every panel
    edges = (_geometric_edges(r - half, 1e-12, half)[::-1]
             + _geometric_edges(r + half, red.rho_max, half))
    x, wx = _panel_nodes(edges[:-1], edges[1:], n_nodes)
    return _panel_sum(wx * x ** (red.d - 1) * red.angular(x)
                      / (x ** (2 * m) - z), n_nodes)


def _eps_pairing(red: _RadialReduction, spec: BoundarySpec,
                 eps: float) -> complex:
    val, _, ok = _refine(lambda n: _eps_quadrature(red, spec, eps, n),
                         PAIR_START, REL_TOL, PAIR_MAX_NODES)
    if not ok:
        raise ArithmeticError(
            f"radial quadrature unconverged at lambda = {spec.lam}, "
            f"eps = {eps:g}")
    return ((2.0 * np.pi) ** (-red.d)) * val


def epsilon_pairing(f: Field, g: Field, spec: BoundarySpec,
                    eps: float) -> complex:
    """< R_0^m(lambda + i sign eps) f, g > by resolved radial quadrature."""
    return _eps_pairing(_reduction(f, g, spec), spec, eps)


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
    red = _reduction(f, g, spec)
    vals = [_eps_pairing(red, spec, e) for e in EPS_SEQUENCE]
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
    is their sum.  ``diagnostics`` records the distance of lambda from the
    lattice values of P_m.
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
    """u = R_0^m(lambda +- i0) f on the lattice: the principal-value
    multiplier 1/(P_m - lambda) plus the sphere extension."""
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
    pv = apply_values(1.0 / (pm - spec.lam), f)
    total = f.with_values(pv.values + surf.values)
    return BoundaryField(spec, f, pv, surf, total, {"lattice_gap": float(gap)})


# ---------------------------------------------------------------------------
# graph weight and oscillatory kernel
# ---------------------------------------------------------------------------

def _patch_profile(s: np.ndarray) -> np.ndarray:
    """Smooth angular taper: 1 for |xi'|/r <= S0, 0 beyond S1.  The radial shell
    cutoff is identically 1 on the graph, so this north-pole patch is what gives
    the kernel weight compact support."""
    u = (S1 - np.asarray(s, dtype=float)) / (S1 - S0)
    return _smooth_ramp(u)


def graph_and_weight(lam: float, m: int, xi_prime: np.ndarray):
    """Graph height phi(xi') = sqrt(r^2 - |xi'|^2) and the kernel weight
    Q(xi') = patch(|xi'|/r) / (2m |xi|^{2m-2} phi); on the graph |xi| = r."""
    xi_prime = np.atleast_2d(np.asarray(xi_prime, dtype=float))
    r = lam ** (1.0 / (2 * m))
    s = np.sqrt(np.sum(xi_prime**2, axis=1))
    if np.any(s >= r):
        raise ValueError("graph exists only for |xi'| < r")
    phi = np.sqrt(r**2 - s**2)
    q = _patch_profile(s / r) / (2.0 * m * r ** (2 * m - 2) * phi)
    if phi.size == 1:
        return float(phi[0]), float(q[0])
    return phi, q


@dataclass(frozen=True)
class KernelSample:
    x: np.ndarray
    value: complex
    error_estimate: float
    flagged: bool = False


def _kernel_quad(lam: float, m: int, x: np.ndarray, n_rad: int) -> complex:
    """K(x) by n_rad Gauss-Legendre nodes in rho = |xi'| on (0, S1 r); the
    angular integral over xi' is sigmahat_{d-1}(rho |x'|), d = len(x)."""
    d = len(x)
    r = lam ** (1.0 / (2 * m))
    rho, w = _panel_nodes(0.0, S1 * r, n_rad)
    phi, q = graph_and_weight(lam, m, rho[:, None])
    ang = _sphere_ft(d - 1, rho * np.linalg.norm(x[:-1]))
    vals = w * rho ** (d - 2) * q * np.exp(1j * x[-1] * phi) * ang
    return complex(np.sum(vals) * 1j / (2.0 * np.pi) ** (d - 1))


def kernel_k_plus(lam: float, m: int, x: Sequence[float],
                  tol: float) -> KernelSample:
    """One sample of the outgoing kernel at the point x of R^d, d = len(x) in
    [2, 4]; exactly 0 for x_d < 0 (Heaviside).  Flagged when node doubling
    passes NODE_BUDGET before two successive values agree to tol."""
    x = np.asarray(x, dtype=float)
    # the lab's range of d; at d = 1 or d > 5 the last branch of
    # _sphere_ft(d - 1, .) would silently use the wrong sphere
    if x.ndim != 1 or not 2 <= len(x) <= 4:
        raise ValueError(f"x must be a point with 2 to 4 components, got "
                         f"shape {x.shape}")
    if x[-1] < 0:
        return KernelSample(x, 0.0 + 0.0j, 0.0)
    r = lam ** (1.0 / (2 * m))
    n = max(48, int(4 * r * (abs(x[-1]) + np.linalg.norm(x[:-1]))))
    value, err, ok = _refine(lambda k: _kernel_quad(lam, m, x, k), n, tol,
                             NODE_BUDGET)
    return KernelSample(x, value, err, flagged=not ok)


@dataclass(frozen=True)
class DecayScan:
    rows: list          # (x, |K|, |K| (1+|x|)^{(d-1)/2}, flagged)
    max_normalized: float


def decay_scan(lam: float, m: int, radii: Sequence[float],
               directions: Sequence[Sequence[float]],
               tol: float) -> DecayScan:
    """Tabulates |K| (1 + |x|)^{(d-1)/2} along rays, d the length of each
    direction; the max of the normalized column is the empirical decay
    constant."""
    rows = []
    for direction in directions:
        u = np.asarray(direction, dtype=float)
        u = u / np.linalg.norm(u)
        for R in radii:
            s = kernel_k_plus(lam, m, R * u, tol)
            mag = abs(s.value)
            rows.append((s.x, mag, mag * (1.0 + R) ** ((len(u) - 1) / 2.0),
                         s.flagged))
    return DecayScan(rows,
                     float(np.max([row[2] for row in rows])) if rows else 0.0)
