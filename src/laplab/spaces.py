"""Norm evaluators: Lorentz, dyadic-shell B and B*, and the composite X/X*
scales.

All norms are discrete quadrature versions: |f| values carry cell volume h^d.
The Lorentz integral is evaluated exactly over the plateaus of the sorted value
list (no binning).  The intersection norm for X* is normalized as the max of
its two components; the sum norm for X is only ever reported as an upper bound,
from the two trivial splittings and a small family of smooth frequency
splittings.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .lattice import Field, GridSpec, PHYSICAL
from .multiplier import bessel_values, pm_values, to_field, to_spectrum

__all__ = [
    "LorentzExponents",
    "DyadicShells",
    "lorentz_norm",
    "lp_norm",
    "b_norm",
    "bstar_norm",
    "xstar_norm",
    "xstar_norm_from_spectrum",
    "x_norm_upper",
    "slab_l2_profile",
    "stein_tomas_exponent",
    "smoothing_order",
]

INF = float("inf")


def stein_tomas_exponent(d: int) -> tuple[float, float]:
    """The restriction exponent pair (p_d, p_d') = ((2d+2)/(d+3), (2d+2)/(d-1))."""
    return (2.0 * d + 2.0) / (d + 3.0), (2.0 * d + 2.0) / (d - 1.0)


@dataclass(frozen=True)
class LorentzExponents:
    p: float
    q: float  # math.inf encodes the weak (sup) form

    def __post_init__(self):
        if not self.p > 1:
            raise ValueError(f"p must exceed 1, got {self.p}")
        if not (self.q == INF or self.q >= 1):
            raise ValueError(f"q must be >= 1 or inf, got {self.q}")


class DyadicShells:
    """Node membership of the dyadic regions D_0 = {|x| <= 1},
    D_j = {2^{j-1} <= |x| <= 2^j}.  Boundary nodes go to the lower shell."""

    def __init__(self, grid: GridSpec):
        if grid.half_width < 2.0:
            raise ValueError(
                "grid too small to contain shell j=1; need half_width >= 2"
            )
        r = grid.radius_grid()
        with np.errstate(divide="ignore"):
            idx = np.ceil(np.log2(np.maximum(r, 1e-300))).astype(int)
        idx[r <= 1.0] = 0
        # nodes at |x| = 2^{j-1} exactly: ceil(log2) may land one high from
        # rounding; nudge exact powers of two down.
        exact = np.isclose(r, np.exp2(idx - 1), rtol=1e-12, atol=0.0)
        idx[exact] -= 1
        idx[r <= 1.0] = 0
        self.grid = grid
        self.index = idx
        self.max_index = int(idx.max())

    def shell_l2(self, f: Field) -> np.ndarray:
        """Cell-volume-weighted L2 norm of f over each shell, j = 0..max_index."""
        if f.grid is not self.grid and f.grid != self.grid:
            raise ValueError("field grid does not match shell grid")
        sq = np.abs(f.values.ravel()) ** 2
        sums = np.bincount(self.index.ravel(), weights=sq,
                           minlength=self.max_index + 1)
        return np.sqrt(self.grid.cell_volume * sums)


@functools.lru_cache(maxsize=4)
def _shells(grid: GridSpec) -> DyadicShells:
    return DyadicShells(grid)


def b_norm(f: Field) -> float:
    """sum_j 2^{j/2} ||f||_{L2(D_j)}, truncated at the largest shell in the box."""
    _require_physical(f)
    shell = _shells(f.grid).shell_l2(f)
    j = np.arange(len(shell))
    return float(np.sum(np.exp2(j / 2.0) * shell))


def bstar_norm(f: Field) -> float:
    """sup_j 2^{-j/2} ||f||_{L2(D_j)}."""
    _require_physical(f)
    shell = _shells(f.grid).shell_l2(f)
    j = np.arange(len(shell))
    return float(np.max(np.exp2(-j / 2.0) * shell))


def _require_physical(f: Field):
    if f.domain_tag != PHYSICAL:
        raise ValueError("norm evaluators expect physical fields")


@functools.lru_cache(maxsize=2)  # one entry is 8 MB at d = 4, n = 32
def _plateau_weights(h: float, nodes: int, p: float, q: float) -> np.ndarray:
    """The integrals of t^{q/p - 1} dt over the plateaus [(k - 1) h, k h],
    k = 1..nodes: (p/q)(t_hi^{q/p} - t_lo^{q/p}).  The first k of them do
    not depend on ``nodes``."""
    t_hi = h * np.arange(1, nodes + 1)
    t_lo = t_hi - h
    weights = (p / q) * (t_hi ** (q / p) - t_lo ** (q / p))
    weights.setflags(write=False)
    return weights


def lorentz_norm(f: Field, exps: LorentzExponents) -> float:
    """Lorentz norm from the decreasing rearrangement of |f| with h^d cells.

    The rearrangement is a step function with plateaus of width h^d; the
    integral (t^{1/p} f*(t))^q dt/t is summed exactly plateau by plateau.
    For q = p this reduces to the plain L^p norm.
    """
    _require_physical(f)
    a = np.sort(np.abs(f.values.ravel()))[::-1]
    a = a[a > 0]
    if a.size == 0:
        return 0.0
    h = f.grid.cell_volume
    p, q = exps.p, exps.q
    if q == INF:
        return float(np.max(a * (h * np.arange(1, a.size + 1)) ** (1.0 / p)))
    incr = _plateau_weights(h, f.values.size, p, q)[:a.size]
    return float(np.sum(a**q * incr) ** (1.0 / q))


def lp_norm(f: Field, p: float) -> float:
    """Plain discrete L^p norm with cell weights (independent of the
    rearrangement path; used as an oracle for lorentz_norm at q = p)."""
    _require_physical(f)
    return float((f.grid.cell_volume * np.sum(np.abs(f.values) ** p)) ** (1.0 / p))


#: the sum-space upper bound splits f at the sphere |xi|^{2m} = SPLIT_LAMBDA,
#: with Gaussian bumps of these relative widths
SPLIT_LAMBDA = 1.0
SPLIT_WIDTHS = (0.25, 0.5, 1.0)


def smoothing_order(m: int, d: int) -> float:
    """theta = m - d/(d+1), the order of the Bessel potential in the Lorentz
    components of X* (S_theta) and X (S_{-theta})."""
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    return m - d / (d + 1.0)


def xstar_norm(u: Field, m: int) -> float:
    """max( ||S_theta u||_{L^{pd',2}}, ||S_m u||_{B*} ), d from u's grid.

    The max convention for the intersection norm is this artifact's
    normalization; it changes constants only.
    """
    _require_physical(u)
    return xstar_norm_from_spectrum(to_spectrum(u), u.grid, m)


def xstar_norm_from_spectrum(spectrum: np.ndarray, grid: GridSpec,
                             m: int) -> float:
    """``xstar_norm`` of the field whose spectrum (``to_spectrum``'s) is
    ``spectrum``: one FFT per part, ``spectrum`` left as it is."""
    d = grid.dimension
    _, pdp = stein_tomas_exponent(d)
    # one buffer for both parts: the Lorentz part is done with it before
    # the B* part overwrites it
    part = bessel_values(grid, smoothing_order(m, d)) * spectrum
    lor = lorentz_norm(to_field(grid, part), LorentzExponents(pdp, 2.0))
    np.multiply(bessel_values(grid, float(m)), spectrum, out=part)
    bst = bstar_norm(to_field(grid, part))
    return max(lor, bst)


def x_norm_upper(f: Field, m: int) -> float:
    """Upper bound for the sum-space norm of X, d from f's grid.

    Minimizes over the two trivial splittings and a one-parameter family of
    smooth frequency splittings concentrated near the sphere |xi|^{2m} =
    SPLIT_LAMBDA.  Always an upper bound for the true infimum.  The splits
    act on f's spectrum, taken once, so each norm term costs one FFT.
    """
    _require_physical(f)
    grid = f.grid
    d = grid.dimension
    pd, _ = stein_tomas_exponent(d)
    lorentz_symbol = bessel_values(grid, -smoothing_order(m, d))
    b_symbol = bessel_values(grid, -float(m))
    spectrum = to_spectrum(f)

    def lorentz_part(f1: np.ndarray) -> float:
        return lorentz_norm(to_field(grid, lorentz_symbol * f1),
                            LorentzExponents(pd, 2.0))

    def b_part(f2: np.ndarray) -> float:
        return b_norm(to_field(grid, b_symbol * f2))

    # the trivial splittings (f, 0) and (0, f)
    best = min(lorentz_part(spectrum), b_part(spectrum))

    pm = pm_values(grid, m)
    lam = SPLIT_LAMBDA
    for w in SPLIT_WIDTHS:
        f2 = spectrum * np.exp(-((pm - lam) / (w * lam)) ** 2)
        best = min(best, lorentz_part(spectrum - f2) + b_part(f2))
    return best


def slab_l2_profile(f: Field) -> np.ndarray:
    """||f(., x_d)||_{L2} over the last coordinate: the profile entering the
    critical-space embeddings (integral of the profile vs sqrt(2)||f||_B and
    sup of the profile vs ||f||_{B*}/sqrt(2))."""
    _require_physical(f)
    d = f.grid.dimension
    axes = tuple(range(d - 1))
    sq = np.sum(np.abs(f.values) ** 2, axis=axes)
    return np.sqrt(f.grid.cell_volume / f.grid.spacing * sq)
