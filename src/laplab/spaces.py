"""Norm evaluators: Lorentz, dyadic-shell B and B*, the composite X/X* scales,
and the regularized polynomial weight used for eigenfunction decay.

All norms are discrete quadrature versions: |f| values carry cell volume h^d.
The Lorentz integral is evaluated exactly over the plateaus of the sorted value
list (no binning).  The intersection norm for X* is normalized as the max of
its two components; the sum norm for X is only ever reported as an upper bound,
either from an explicit witness splitting or from a small family of smooth
frequency splittings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .lattice import Field, GridSpec, PHYSICAL
from .multiplier import apply_symbol, apply_values, bessel_symbol, pm_values

__all__ = [
    "LorentzExponents",
    "DyadicShells",
    "WeightParams",
    "CompositeNormConfig",
    "lorentz_norm",
    "lp_norm",
    "b_norm",
    "bstar_norm",
    "mu_weight",
    "mu_weight_field",
    "xstar_norm",
    "x_norm_upper",
    "slab_l2_profile",
    "stein_tomas_exponent",
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


@dataclass(frozen=True)
class WeightParams:
    N: float
    gamma: float

    def __post_init__(self):
        if self.N < 0:
            raise ValueError(f"N must be >= 0, got {self.N}")
        if not 0 < self.gamma <= 1:
            raise ValueError(f"gamma must lie in (0, 1], got {self.gamma}")


def mu_weight(t, w: WeightParams):
    """(1+t^2)^N / (1+gamma t^2)^N, the weight interpolating 1 and (1+t^2)^N."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("mu_weight expects t >= 0")
    out = ((1.0 + t**2) / (1.0 + w.gamma * t**2)) ** w.N
    return out if out.ndim else float(out)


def mu_weight_field(grid: GridSpec, w: WeightParams) -> np.ndarray:
    """The radial weight mu(|x|) on the physical lattice."""
    return mu_weight(grid.radius_grid(), w)


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


_SHELL_CACHE: dict[tuple, DyadicShells] = {}


def _shells(grid: GridSpec) -> DyadicShells:
    key = (grid.dimension, grid.half_width, grid.points_per_axis)
    if key not in _SHELL_CACHE:
        _SHELL_CACHE[key] = DyadicShells(grid)
    return _SHELL_CACHE[key]


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


@dataclass(frozen=True)
class CompositeNormConfig:
    """Parameters of the composite scales: order m and dimension d."""

    m: int
    d: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"m must be a positive integer, got {self.m}")
        if not 2 <= self.d <= 4:
            raise ValueError(f"d must lie in [2, 4], got {self.d}")

    @property
    def theta(self) -> float:
        return self.m - self.d / (self.d + 1.0)

    @property
    def exponents(self) -> tuple[float, float]:
        return stein_tomas_exponent(self.d)


def xstar_norm(u: Field, cfg: CompositeNormConfig) -> float:
    """max( ||S_theta u||_{L^{pd',2}}, ||S_m u||_{B*} ).

    The max convention for the intersection norm is this artifact's
    normalization; it changes constants only.
    """
    _require_physical(u)
    pd, pdp = cfg.exponents
    lor = lorentz_norm(apply_symbol(bessel_symbol(cfg.theta), u),
                       LorentzExponents(pdp, 2.0))
    bst = bstar_norm(apply_symbol(bessel_symbol(float(cfg.m)), u))
    return max(lor, bst)


def _lorentz_part(f1: Field, cfg: CompositeNormConfig) -> float:
    pd, _ = cfg.exponents
    return lorentz_norm(apply_symbol(bessel_symbol(-cfg.theta), f1),
                        LorentzExponents(pd, 2.0))


def _b_part(f2: Field, cfg: CompositeNormConfig) -> float:
    return b_norm(apply_symbol(bessel_symbol(-float(cfg.m)), f2))


def x_norm_upper(
    f: Field,
    cfg: CompositeNormConfig,
    witness: Optional[tuple[Field, Field]] = None,
) -> float:
    """Upper bound for the sum-space norm of X.

    With a witness f = f1 + f2, returns the witnessed value.  Without one,
    minimizes over the two trivial splittings and a one-parameter family of
    smooth frequency splittings concentrated near the sphere |xi|^{2m} =
    SPLIT_LAMBDA.  Always an upper bound for the true infimum.
    """
    _require_physical(f)
    if witness is not None:
        f1, f2 = witness
        mismatch = np.max(np.abs(f1.values + f2.values - f.values))
        scale = max(np.max(np.abs(f.values)), 1e-300)
        if mismatch / scale > 1e-10:
            raise ValueError(f"witness does not sum to f (defect {mismatch:.2e})")
        return _lorentz_part(f1, cfg) + _b_part(f2, cfg)

    # the trivial splittings (f, 0) and (0, f)
    best = min(_lorentz_part(f, cfg), _b_part(f, cfg))

    pm = pm_values(f.grid, cfg.m)
    lam = SPLIT_LAMBDA
    for w in SPLIT_WIDTHS:
        bump = np.exp(-((pm - lam) / (w * lam)) ** 2)
        f2 = apply_values(bump, f)
        f1 = f.with_values(f.values - f2.values)
        best = min(best, _lorentz_part(f1, cfg) + _b_part(f2, cfg))
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
