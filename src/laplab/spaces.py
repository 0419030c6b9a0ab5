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
from .multiplier import apply_symbol, apply_values, bessel_values, pm_values

__all__ = [
    "LorentzExponents",
    "DyadicShells",
    "lorentz_norm",
    "lp_norm",
    "b_norm",
    "bstar_norm",
    "xstar_norm",
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
    t_hi = h * np.arange(1, a.size + 1)
    p, q = exps.p, exps.q
    if q == INF:
        return float(np.max(a * t_hi ** (1.0 / p)))
    t_lo = t_hi - h
    # integral of t^{q/p - 1} over each plateau is (p/q)(t_hi^{q/p} - t_lo^{q/p})
    incr = (p / q) * (t_hi ** (q / p) - t_lo ** (q / p))
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
    d = u.grid.dimension
    _, pdp = stein_tomas_exponent(d)
    lor = lorentz_norm(
        apply_symbol(bessel_values(u.grid, smoothing_order(m, d)), u),
        LorentzExponents(pdp, 2.0))
    bst = bstar_norm(apply_symbol(bessel_values(u.grid, float(m)), u))
    return max(lor, bst)


def _lorentz_part(f1: Field, theta: float) -> float:
    pd, _ = stein_tomas_exponent(f1.grid.dimension)
    return lorentz_norm(apply_symbol(bessel_values(f1.grid, -theta), f1),
                        LorentzExponents(pd, 2.0))


def _b_part(f2: Field, m: int) -> float:
    return b_norm(apply_symbol(bessel_values(f2.grid, -float(m)), f2))


def x_norm_upper(f: Field, m: int) -> float:
    """Upper bound for the sum-space norm of X, d from f's grid.

    Minimizes over the two trivial splittings and a one-parameter family of
    smooth frequency splittings concentrated near the sphere |xi|^{2m} =
    SPLIT_LAMBDA.  Always an upper bound for the true infimum.
    """
    _require_physical(f)
    theta = smoothing_order(m, f.grid.dimension)
    # the trivial splittings (f, 0) and (0, f)
    best = min(_lorentz_part(f, theta), _b_part(f, m))

    pm = pm_values(f.grid, m)
    lam = SPLIT_LAMBDA
    for w in SPLIT_WIDTHS:
        bump = np.exp(-((pm - lam) / (w * lam)) ** 2)
        f2 = apply_values(bump, f)
        f1 = f.with_values(f.values - f2.values)
        best = min(best, _lorentz_part(f1, theta) + _b_part(f2, m))
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
