"""Perturbations V of the high-order Laplacian: the Birman-Schwinger solve
(Id + R_0(z) V)^{-1} R_0(z), exact eigenvalue counts and scans, and resolvent
sweeps for H = (-Delta)^m + V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.linalg.lapack import dsytrf, dsytrf_lwork
from scipy.sparse.linalg import (ArpackNoConvergence, LinearOperator, eigsh,
                                 lgmres)

from .lattice import Field, GridSpec, PHYSICAL
from .multiplier import apply_values, free_resolvent, pm_values
from .spaces import x_norm_upper, xstar_norm

__all__ = [
    "Potential",
    "BsSolve",
    "example_potential",
    "bs_solve",
    "apply_hamiltonian",
    "LanczosEigs",
    "direct_eigs",
    "EigenScanResult",
    "eigen_scan",
    "EigenvalueCounter",
    "SweepRow",
    "lap_perturbed_sweep",
]


@dataclass(frozen=True)
class Potential:
    """Real-valued multiplication perturbation."""

    field: Field
    kind: str = "custom"            # weak_lorentz | bounded_compact | custom
    support_radius: Optional[float] = None

    def __post_init__(self):
        vals = self.field.values
        if not np.all(np.isfinite(vals)):
            raise ValueError("potential values must be finite")
        if np.max(np.abs(vals.imag)) > 0:
            raise ValueError("potential must be real-valued")

    @property
    def grid(self) -> GridSpec:
        return self.field.grid

    def real_values(self) -> np.ndarray:
        return self.field.values.real

    def is_zero(self) -> bool:
        return not np.any(self.real_values())

    def apply(self, u: Field) -> Field:
        return u.with_values(self.real_values() * u.values)


#: largest relative rounding error of a staircase shell's grid measure
SHELL_MEASURE_TOL = 0.01


def example_potential(q: float, J: int, grid: GridSpec) -> Potential:
    """The weak-L^q staircase sum_{j<=J} j^{-1/q} 1_{E_j} with disjoint
    concentric shells E_j of grid measure 1/ln(1+j).

    Shells are contiguous runs of lattice nodes ordered by radius, so each
    measure is exact up to one cell; construction fails if the rounding error
    of any shell exceeds ``SHELL_MEASURE_TOL`` relative or the box cannot host
    the total measure.
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if J < 1:
        raise ValueError(f"J must be >= 1, got {J}")
    h = grid.cell_volume
    measures = [1.0 / math.log(1 + j) for j in range(1, J + 1)]
    counts = [round(mj / h) for mj in measures]
    for j, (mj, cj) in enumerate(zip(measures, counts), start=1):
        if cj == 0 or abs(cj * h - mj) > SHELL_MEASURE_TOL * mj:
            raise ValueError(
                f"grid too coarse to realize |E_{j}| = {mj:.4f} within "
                f"{SHELL_MEASURE_TOL:.0%} (cell volume {h:.2e})"
            )
    total = sum(counts)
    if total > grid.points_per_axis**grid.dimension:
        raise ValueError("box cannot host the requested shell measures")
    order = np.argsort(grid.radius_grid().ravel(), kind="stable")
    vals = np.zeros(grid.points_per_axis**grid.dimension)
    pos = 0
    for j, cj in enumerate(counts, start=1):
        vals[order[pos:pos + cj]] = j ** (-1.0 / q)
        pos += cj
    radius = float(grid.radius_grid().ravel()[order[pos - 1]])
    if radius > 0.95 * grid.half_width:
        raise ValueError("shells reach the box boundary; enlarge the box")
    f = Field(grid, vals.reshape(grid.shape), PHYSICAL)
    return Potential(f, kind="weak_lorentz", support_radius=radius)


# ---------------------------------------------------------------------------
# Birman-Schwinger solve
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BsSolve:
    z: complex
    u: Field
    residual: float          # relative residual of (Id + R_0 V) u = R_0 f
    iterations: int
    converged: bool


#: lgmres outer iterations allowed to one Birman-Schwinger solve
BS_MAXITER = 400


def bs_solve(z: complex, m: int, V: Potential, f: Field,
             tol: float = 1e-10) -> BsSolve:
    """Solve (Id + R_0(z) V) u = R_0(z) f; the perturbed resolvent applied to f.

    The only operator primitive is application of R_0(z) V to a field; the
    linear system is solved by preconditioned GMRES-type iteration (lgmres).
    """
    grid = f.grid
    rhs_field = free_resolvent(z, m, f)
    if V.is_zero():
        return BsSolve(z, rhs_field, 0.0, 0, True)
    vvals = V.real_values()
    shape = grid.shape

    def matvec(w):
        v = Field(grid, vvals * w.reshape(shape), PHYSICAL)
        return w + free_resolvent(z, m, v).values.ravel()

    n_tot = int(np.prod(shape))
    op = LinearOperator((n_tot, n_tot), matvec=matvec, dtype=np.complex128)
    rhs = rhs_field.values.ravel()
    counter = {"n": 0}

    def cb(_):
        counter["n"] += 1

    sol, info = lgmres(op, rhs, rtol=tol, atol=0.0, maxiter=BS_MAXITER,
                       callback=cb)
    u = Field(grid, sol.reshape(shape), PHYSICAL)
    resid = float(np.linalg.norm(matvec(sol) - rhs)
                  / max(np.linalg.norm(rhs), 1e-300))
    converged = info == 0 and resid <= max(tol * 10, 1e-12)
    return BsSolve(z, u, resid, counter["n"], converged)


def apply_hamiltonian(m: int, V: Potential, u: Field) -> Field:
    pmu = apply_values(pm_values(u.grid, m), u)
    return u.with_values(pmu.values + V.real_values() * u.values)


def _real_hamiltonian(m: int, V: Potential):
    """H = P_m(D) + V on raveled real fields, as one rfftn/irfftn pair.

    The symbol |xi|^{2m} is real and even on the lattice, the Nyquist planes
    included, so P_m(D) maps real fields to real fields; on the half
    spectrum of the last axis it is the cached symbol, which is in FFT order,
    cut to its first n//2 + 1 columns."""
    shape = V.grid.shape
    half = pm_values(V.grid, m)[..., :shape[-1] // 2 + 1]
    v = np.ascontiguousarray(V.real_values())

    def matvec(w: np.ndarray) -> np.ndarray:
        u = w.reshape(shape)
        spec = np.fft.rfftn(u)
        spec *= half
        out = np.fft.irfftn(spec)    # n is even: the default length is n
        out += v * u
        return out.ravel()

    return matvec


@dataclass(frozen=True)
class LanczosEigs:
    values: np.ndarray     # ascending; without convergence, those that did
    matvecs: int
    converged: bool


def direct_eigs(m: int, V: Potential, k: int = 4) -> LanczosEigs:
    """Lowest eigenvalues of the discrete H = P_m(D) + V by Lanczos (ARPACK)
    on real fields, which H maps to real fields for real V; reports the
    matvecs it took and whether ARPACK converged."""
    apply = _real_hamiltonian(m, V)
    matvecs = 0

    def matvec(w):
        nonlocal matvecs
        matvecs += 1
        return apply(w)

    n_tot = V.grid.points_per_axis ** V.grid.dimension
    op = LinearOperator((n_tot, n_tot), matvec=matvec, dtype=np.float64)
    # a seeded random start keeps reruns byte-identical; a constant start
    # would confine Lanczos to the symmetric subspace
    v0 = np.random.default_rng(0).standard_normal(n_tot)
    try:
        vals = eigsh(op, k=k, which="SA", v0=v0, return_eigenvectors=False,
                     tol=1e-9)
    except ArpackNoConvergence as err:
        return LanczosEigs(np.sort(err.eigenvalues), matvecs, False)
    return LanczosEigs(np.sort(vals), matvecs, True)


# ---------------------------------------------------------------------------
# exact eigenvalue counts via the Birman-Schwinger Schur complement
# ---------------------------------------------------------------------------

#: final bracket width of a located eigenvalue, relative to max(1, |lambda|)
BISECTION_WIDTH = 1e-12
#: support nodes an eigenvalue count keeps, the strongest ones; each count
#: factors a dense matrix of this order
MAX_SUPPORT_NODES = 1500


class EigenvalueCounter:
    """Exact counts #{eig H < lambda} of the lattice H = P_m(D) + V, and the
    discrete spectral shift xi(lambda) = #{eig H < lambda} - #{P_m < lambda}.

    Let D = diag(V) on the support S, E the injection of S into the lattice
    and G(lambda) = E^T (P_m - lambda)^{-1} E the restricted lattice resolvent.
    The bordered matrix [[P_m - lambda, E], [E^T, -D^{-1}]] has the Schur
    complements H - lambda and -D^{-1} - G(lambda), so inertia additivity
    (Haynsworth) gives

        #{eig H < lambda} = #{P_m < lambda} + xi(lambda),
        xi(lambda) = n_-(-D^{-1} - G(lambda)) - #{V > 0}.

    For real lambda off the lattice values of P_m, G(lambda) is real symmetric,
    and n_- is read off the pivots of a Bunch-Kaufman LDL^T factorisation,
    LAPACK's dsytrf (Sylvester's law of inertia).  Per lambda this costs one
    FFT (the resolvent kernel on all offsets) plus one |S| x |S|
    factorisation.
    """

    def __init__(self, V: Potential, m: int):
        grid = V.grid
        vals = V.real_values().ravel()
        idx = np.flatnonzero(vals)
        self.warning = None
        if len(idx) > MAX_SUPPORT_NODES:
            # keep the strongest nodes; deterministic tie-break by index
            order = np.lexsort((idx, -np.abs(vals[idx])))
            idx = np.sort(idx[order[:MAX_SUPPORT_NODES]])
            self.warning = (f"support truncated to {MAX_SUPPORT_NODES} "
                            "strongest nodes; counts are those of V "
                            "restricted to them")
        self.grid, self.pm = grid, pm_values(grid, m)
        self.nodes = len(idx)
        v_at = vals[idx]
        self.inv_v = -1.0 / v_at
        self.positive = int(np.count_nonzero(v_at > 0))
        n = grid.points_per_axis
        coords = np.unravel_index(idx, grid.shape)
        # flat index of the offset x_j - x_k in the kernel array, which is in
        # FFT order, at [k, j]: the gathered matrix transposed is in Fortran
        # order, which dsytrf factors in place
        self.gather = np.ravel_multi_index(
            tuple((c[None, :] - c[:, None]) % n for c in coords), grid.shape)
        # the optimal workspace: dsytrf's default one is unblocked and slow
        self.lwork = int(dsytrf_lwork(max(self.nodes, 1), lower=1)[0])

    def xi(self, lam: float) -> int:
        """n_-(-D^{-1} - G(lambda)) - #{V > 0}; raises ValueError at a
        lattice value of P_m, where G(lambda) does not exist."""
        if self.nodes == 0:
            return 0
        gap = self.pm - lam
        if not np.all(gap):
            raise ValueError(f"lambda = {lam} is a lattice value of P_m")
        # the resolvent kernel (2L)^{-d} sum_xi exp(-i xi.x) / gap(xi) on
        # every offset x, in FFT order like gap
        kernel = np.fft.fftn(1.0 / gap)
        kernel *= (1.0 / (2.0 * self.grid.half_width)) ** self.grid.dimension
        a = np.take(kernel.real, self.gather).T
        a *= -self.grid.cell_volume
        a[np.diag_indices(self.nodes)] += self.inv_v
        ldu, ipiv, _ = dsytrf(a, lower=1, lwork=self.lwork, overwrite_a=1)
        return _negative_inertia(ldu, ipiv) - self.positive

    def count(self, lam: float) -> int:
        return int(np.count_nonzero(self.pm < lam)) + self.xi(lam)


def _negative_inertia(ldu: np.ndarray, ipiv: np.ndarray) -> int:
    """Number of negative eigenvalues of the block diagonal D of a lower
    dsytrf factorisation: 1x1 pivots count by sign, each 2x2 pivot by its two
    eigenvalues.  A 2x2 pivot is a pair of negative ipiv entries; a run of
    them pairs up from its start."""
    diag = np.diagonal(ldu)
    k = np.arange(len(ipiv))
    neg = ipiv < 0
    run_start = np.maximum.accumulate(np.where(neg & ~np.r_[False, neg[:-1]],
                                               k, 0))
    first = np.flatnonzero(neg & ((k - run_start) % 2 == 0))
    single = np.ones(len(diag), dtype=bool)
    single[first] = single[first + 1] = False
    a, b, c = diag[first], ldu[first + 1, first], diag[first + 1]
    mean, radius = 0.5 * (a + c), np.hypot(0.5 * (a - c), b)
    return int(np.count_nonzero(diag[single] < 0)
               + np.count_nonzero(mean - radius < 0)
               + np.count_nonzero(mean + radius < 0))


@dataclass(frozen=True)
class EigenScanResult:
    lambdas: np.ndarray            # every point counted, sorted
    counts: np.ndarray             # #{eig H < lambda} at those points
    candidates: list               # (eigenvalue, multiplicity)
    support_nodes: int
    warning: Optional[str] = None


def eigen_scan(V: Potential, m: int, interval: tuple[float, float],
               steps: int = 120) -> EigenScanResult:
    """Every eigenvalue of H = P_m(D) + V in [a, b], with its multiplicity.

    Counts #{eig H < lambda} exactly on a ``steps``-point grid, then bisects
    each grid cell where the count jumps until its bracket is narrower than
    ``BISECTION_WIDTH * max(1, |lambda|)``; eigenvalues closer than that are
    one candidate.  The count is taken at real lambda, so the scan has no
    side lambda +- i0 to choose.
    """
    a, b = interval
    if a >= b:
        raise ValueError("interval must satisfy a < b")
    if a <= 0 <= b:
        raise ValueError("interval must avoid 0")
    counter = EigenvalueCounter(V, m)
    grid_lam = [float(l) for l in np.linspace(a, b, steps)]
    counts = {l: counter.count(l) for l in grid_lam}
    cells = list(zip(grid_lam[:-1], grid_lam[1:]))[::-1]
    candidates = []
    while cells:
        lo, hi = cells.pop()
        jump = counts[hi] - counts[lo]
        if jump == 0:
            continue
        mid = 0.5 * (lo + hi)
        if hi - lo <= BISECTION_WIDTH * max(1.0, abs(mid)):
            candidates.append((mid, jump))
            continue
        counts[mid] = counter.count(mid)
        cells += [(mid, hi), (lo, mid)]
    lam = np.array(sorted(counts))
    return EigenScanResult(lam, np.array([counts[l] for l in lam]),
                           candidates, counter.nodes, counter.warning)


# ---------------------------------------------------------------------------
# perturbed LAP sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    lam: float
    eps: float
    proxy: float
    worst_label: str
    residual: float
    ok: bool


def lap_perturbed_sweep(V: Potential, m: int, lambdas: Sequence[float],
                        epsilons: Sequence[float],
                        family: Sequence[tuple[str, Field]],
                        sign: int = +1,
                        solver_tol: float = 1e-10) -> dict:
    """Proxy for sup ||R^m(lambda + i sign eps)||_{X -> X*}.

    For each cell, maximizes xstar_norm(R^m f) / x_norm_upper(f) over the test
    family.  The proxy lower-bounds the operator norm; uniformity is reported
    as the drift of the epsilon-wise sup over the last decade of epsilon, the
    converged cells up to ten times the smallest converged epsilon, and
    ``compared`` counts those cells (0 for an empty family, whose cells
    converge without solving anything).
    """
    rows: list[SweepRow] = []
    denom = [(label, f, x_norm_upper(f, m)) for label, f in family]
    for lam in lambdas:
        for eps in epsilons:
            z = lam + 1j * sign * eps
            best, best_label, worst_res, ok = 0.0, "", 0.0, True
            for label, f, xb in denom:
                sol = bs_solve(z, m, V, f, tol=solver_tol)
                worst_res = max(worst_res, sol.residual)
                if not sol.converged:
                    ok = False
                    continue
                ratio = xstar_norm(sol.u, m) / xb
                if ratio > best:
                    best, best_label = ratio, label
            rows.append(SweepRow(lam, eps, best, best_label, worst_res, ok))
    sup_by_eps = {}
    for row in rows:
        if row.ok:
            sup_by_eps[row.eps] = max(sup_by_eps.get(row.eps, 0.0), row.proxy)
    last = 10.0 * min(sup_by_eps, default=math.nan)
    decade = [sup for eps, sup in sup_by_eps.items() if eps <= last]
    return {
        "rows": rows,
        "sup_by_eps": sup_by_eps,
        "sup": max(sup_by_eps.values()) if sup_by_eps else math.nan,
        "last_decade_drift": (max(decade) / min(decade)
                              if decade and min(decade) > 0 else math.nan),
        "compared": sum(r.ok and r.eps <= last for r in rows) if denom else 0,
        "holes": sum(1 for row in rows if not row.ok),
    }
