"""Perturbations V of the high-order Laplacian: the Birman-Schwinger solve
(Id + R_0(z) V)^{-1} R_0(z), exact eigenvalue counts and scans, and resolvent
sweeps for H = (-Delta)^m + V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.linalg.lapack import dsytrf, dsytrf_lwork, dsytrs
from scipy.sparse.linalg import (ArpackNoConvergence, LinearOperator, eigsh,
                                 lgmres)

from .lattice import Field, GridSpec, PHYSICAL
from .multiplier import free_resolvent, free_resolvent_norm, pm_values
from .spaces import x_norm_upper, xstar_norm

__all__ = [
    "Potential",
    "BsSolve",
    "example_potential",
    "bs_solve",
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
    # ||(Id + R_0 V) u - R_0 f|| / ||R_0 f|| of the returned u on the whole
    # lattice, which is ||R_0 E D (u[S] - u_S)|| / ||R_0 f||
    residual: float
    iterations: int
    converged: bool


#: lgmres outer iterations allowed to one Birman-Schwinger solve
BS_MAXITER = 400


def bs_solve(z: complex, m: int, V: Potential, f: Field,
             tol: float = 1e-10) -> BsSolve:
    """Solve (Id + R_0(z) V) u = R_0(z) f; the perturbed resolvent applied to f.

    V acts only through its values on its support S, so lgmres solves the
    support system u_S + E^T R_0 E D u_S = E^T R_0 f, with D = diag(V) on S
    and E the injection of S into the lattice: each matvec scatters D x into
    a zero field, applies R_0(z) and gathers at S.  It starts from the Born
    term E^T R_0 f and stops once the support residual is at most
    ``tol * ||R_0 f||``, a threshold that does not shrink when f lives away
    from V.  Then u = R_0 f - R_0 E D u_S on the whole lattice, which solves
    the equation up to ``residual``, read by Parseval from one inverse FFT.
    While ``residual`` misses ``tol``, lgmres resumes from u_S with its stop
    scaled down by the miss.  A solve costs k + 2 applications of R_0(z) for
    k matvecs, and one more per resumption, whatever the size of S.
    """
    grid = f.grid
    rhs = free_resolvent(z, m, f)
    if V.is_zero():
        return BsSolve(z, rhs, 0.0, 0, True)
    vals = V.real_values().ravel()
    support = np.flatnonzero(vals)
    v = vals[support]

    def spread(x: np.ndarray) -> Field:
        """E D x: D x on S, zero elsewhere."""
        out = np.zeros(vals.size, dtype=np.complex128)
        out[support] = v * x
        return Field(grid, out.reshape(grid.shape), PHYSICAL)

    def matvec(x):
        return x + free_resolvent(z, m, spread(x)).values.ravel()[support]

    op = LinearOperator((len(support),) * 2, matvec=matvec,
                        dtype=np.complex128)
    rhs_norm = max(float(np.linalg.norm(rhs.values)), 1e-300)
    iterations = 0

    def cb(_):
        nonlocal iterations
        iterations += 1

    # lgmres's first residual check costs a matvec: from the Born term b
    # instead of zero it is a useful one
    b = rhs.values.ravel()[support]
    u_s, atol = b.copy(), tol * rhs_norm
    while True:
        u_s, info = lgmres(op, b, x0=u_s, rtol=0.0, atol=atol,
                           maxiter=BS_MAXITER, callback=cb)
        u = rhs.with_values(
            rhs.values - free_resolvent(z, m, spread(u_s)).values)
        miss = u.values.ravel()[support] - u_s    # minus the support residual
        resid = free_resolvent_norm(z, m, spread(miss)) / rhs_norm
        if info != 0 or resid <= tol or iterations >= BS_MAXITER:
            break
        # R_0 E D amplified the support residual resid ||R_0 f|| / ||miss||
        # times (a strong or near-resonant V): resume, aiming at tol / 2, as
        # the amplification moves with the residual's direction
        atol = 0.5 * tol / resid * float(np.linalg.norm(miss))
    converged = info == 0 and resid <= max(tol * 10, 1e-12)
    return BsSolve(z, u, resid, iterations, converged)


def _half_multiply(half: np.ndarray, u: np.ndarray) -> np.ndarray:
    """irfftn(rfftn(u) * half): the multiplier ``half`` on a real field."""
    spec = np.fft.rfftn(u)
    spec *= half
    return np.fft.irfftn(spec)    # n is even: the default length is n


def _real_hamiltonian(m: int, V: Potential):
    """H = P_m(D) + V on raveled real fields.  |xi|^{2m} is real and even on
    the lattice, the Nyquist planes included, so P_m(D) maps real fields to
    real fields; on the half spectrum it is the cached symbol, which is in
    FFT order, cut to its first n//2 + 1 columns."""
    shape = V.grid.shape
    half = pm_values(V.grid, m)[..., :shape[-1] // 2 + 1]
    v = np.ascontiguousarray(V.real_values())

    def matvec(w: np.ndarray) -> np.ndarray:
        u = w.reshape(shape)
        out = _half_multiply(half, u)
        out += v * u
        return out.ravel()

    return matvec


#: support nodes the Birman-Schwinger model keeps, the strongest ones; the
#: count and the oracle's preconditioner factor a dense matrix of this order
MAX_SUPPORT_NODES = 1500


def _strongest_nodes(vals: np.ndarray) -> np.ndarray:
    """Ascending flat indices of the support of ``vals``, cut to its
    ``MAX_SUPPORT_NODES`` strongest nodes; ties are broken by index."""
    idx = np.flatnonzero(vals)
    if len(idx) > MAX_SUPPORT_NODES:
        order = np.lexsort((idx, -np.abs(vals[idx])))
        idx = np.sort(idx[order[:MAX_SUPPORT_NODES]])
    return idx


class _BirmanSchwinger:
    """The Birman-Schwinger operator of V on S, its support cut to the
    strongest nodes: C(s) = D^{-1} + E^T (P_m - s)^{-1} E, with D = diag(V)
    on S and E the injection of S into the lattice.  ``weyl_shift`` is the
    largest |V| the cut drops (0.0 when nothing is cut)."""

    def __init__(self, V: Potential, m: int):
        shape = V.grid.shape
        vals = V.real_values().ravel()
        self.support = _strongest_nodes(vals)
        self.weyl_shift = float(np.max(np.abs(np.delete(vals, self.support)),
                                       initial=0.0))
        self.inv_v = 1.0 / vals[self.support]
        self.half = pm_values(V.grid, m)[..., :shape[-1] // 2 + 1]
        coords = np.unravel_index(self.support, shape)
        # flat index of the offset x_j - x_k at [j + 1, k + 1], in FFT order;
        # the border reads the two values appended to the Green's function
        size = len(self.support) + 1
        self.gather = np.full((size, size), vals.size)
        self.gather[0, 0] = vals.size + 1
        self.gather[1:, 1:] = np.ravel_multi_index(tuple(
            (x[:, None] - x[None, :]) % shape[0] for x in coords), shape)
        # the optimal workspace: dsytrf's default one is unblocked and slow
        self.lwork = int(dsytrf_lwork(size, lower=1)[0])

    def factor(self, s: float):
        """The lower dsytrf factors (ldu, ipiv) of C(s) bordered by the
        constant mode, K(s) = [[N s, 1^T], [1, C(s) + 1 1^T / (N s)]] for N
        lattice nodes: the Schur complement of N s is C(s), and C's
        zero-frequency term, which grows like 1/s, does not swamp the rest in
        rounding as s nears 0.  Raises ValueError at a lattice value of P_m,
        where C(s) does not exist."""
        gap = self.half - s
        if not np.all(gap):
            raise ValueError(f"lambda = {s} is a lattice value of P_m")
        # the Green's function (P_m - s)^{-1} delta_0 without its zero
        # frequency: delta_0 transforms to 1
        inv = 1.0 / gap
        inv.flat[0] = 0.0
        green = np.fft.irfftn(inv).ravel()
        k = np.take(np.r_[green, 1.0, green.size * s], self.gather)
        k[1:, 1:][np.diag_indices(len(self.support))] += self.inv_v
        # k is symmetric: its transpose is the Fortran-ordered copy dsytrf
        # factors in place
        ldu, ipiv, _ = dsytrf(k.T, lower=1, lwork=self.lwork, overwrite_a=1)
        return ldu, ipiv


#: relative residual ||b - (H - sigma) x|| / ||b|| that ends a shift-invert
#: solve
SOLVE_TOL = 1e-12
#: preconditioned CG steps allowed to one shift-invert solve
SOLVE_MAXITER = 100


class _SolveFailed(Exception):
    """A shift-invert solve missed SOLVE_TOL within SOLVE_MAXITER steps."""


def _woodbury_inverse(m: int, V: Potential, sigma: float):
    """(P_m + V_S - sigma)^{-1} on raveled real fields, V_S being V on the
    Birman-Schwinger model's S, by the Woodbury identity

        (P_m + E D E^T - sigma)^{-1} = R - R E C(sigma)^{-1} E^T R,
        R = (P_m - sigma)^{-1},

    R one rfftn/irfftn pair and C(sigma) factored once."""
    shape = V.grid.shape
    bs = _BirmanSchwinger(V, m)
    inv_half = 1.0 / (bs.half - sigma)

    def resolvent(w: np.ndarray) -> np.ndarray:
        return _half_multiply(inv_half, w.reshape(shape)).ravel()

    nodes = bs.support
    ldu, ipiv = bs.factor(sigma)

    def inverse(b: np.ndarray) -> np.ndarray:
        rb = resolvent(b)
        e = np.zeros_like(rb)
        # C^{-1} y is the lower block of K^{-1} [0; y]
        e[nodes] = dsytrs(ldu, ipiv, np.r_[0.0, rb[nodes]], lower=1)[0][1:]
        rb -= resolvent(e)
        return rb

    return inverse


@dataclass(frozen=True)
class LanczosEigs:
    values: np.ndarray     # ascending; without convergence, those that did
    matvecs: int           # applications of H
    converged: bool
    residual: float        # max ||Hx - theta x|| over the unit Ritz vectors
    solves: int            # applications of (H - sigma)^{-1}


def direct_eigs(m: int, V: Potential, k: int = 4) -> LanczosEigs:
    """Lowest eigenvalues of the discrete H = P_m(D) + V by shift-invert
    Lanczos (ARPACK) on real fields, which H maps to real fields for real V.

    With sigma = min(0, min V) - 1, H - sigma >= 1 since P_m >= 0, and the
    lowest eigenvalues of H are the largest of (H - sigma)^{-1}, which
    Lanczos reaches in few steps at any order m.  Each solve is CG on the
    plain matvec of H - sigma, preconditioned by the Woodbury inverse of
    P_m + V_S - sigma; when S is the whole support that inverse is exact and
    the loop ends at its first residual check.  The values are the Rayleigh
    quotients of the Ritz vectors under H, so they are those of the full V
    whatever S keeps; ``residual`` bounds, H being symmetric, the distance
    of each to an eigenvalue of H.  A solve that misses ``SOLVE_TOL`` within
    ``SOLVE_MAXITER`` steps ends the run unconverged, with no values.
    """
    apply = _real_hamiltonian(m, V)
    sigma = min(0.0, float(np.min(V.real_values()))) - 1.0
    inverse = _woodbury_inverse(m, V, sigma)
    matvecs = solves = 0

    def matvec(w):
        nonlocal matvecs
        matvecs += 1
        return apply(w)

    def shifted(w):
        return matvec(w) - sigma * w

    def solve(b):
        nonlocal solves
        solves += 1
        # preconditioned CG on H - sigma from x = inverse(b); p = 0 makes the
        # first direction the preconditioned residual
        x = inverse(b)
        r = b - shifted(x)
        p, rz = np.zeros_like(b), 1.0
        goal = SOLVE_TOL * np.linalg.norm(b)
        steps = 0
        while np.linalg.norm(r) > goal:
            if steps == SOLVE_MAXITER:
                raise _SolveFailed
            steps += 1
            z = inverse(r)
            rz, rz_old = r @ z, rz
            p = z + (rz / rz_old) * p
            q = shifted(p)
            alpha = rz / (p @ q)
            x += alpha * p
            r -= alpha * q
        return x

    n_tot = V.grid.points_per_axis ** V.grid.dimension
    op = LinearOperator((n_tot, n_tot), matvec=matvec, dtype=np.float64)
    op_inv = LinearOperator((n_tot, n_tot), matvec=solve, dtype=np.float64)
    # a seeded random start keeps reruns byte-identical; a constant start
    # would confine Lanczos to the symmetric subspace
    v0 = np.random.default_rng(0).standard_normal(n_tot)
    try:
        _, ritz = eigsh(op, k=k, sigma=sigma, OPinv=op_inv, which="LM",
                        v0=v0, tol=1e-9)
    except ArpackNoConvergence as err:
        return LanczosEigs(np.sort(err.eigenvalues), matvecs, False,
                           math.nan, solves)
    except _SolveFailed:
        return LanczosEigs(np.empty(0), matvecs, False, math.nan, solves)
    h_ritz = np.column_stack([matvec(x) for x in ritz.T])
    norms = np.linalg.norm(ritz, axis=0)
    theta = np.einsum("ij,ij->j", ritz, h_ritz) / norms**2
    residual = np.linalg.norm(h_ritz - ritz * theta, axis=0) / norms
    return LanczosEigs(np.sort(theta), matvecs, True, float(np.max(residual)),
                       solves)


# ---------------------------------------------------------------------------
# exact eigenvalue counts via the Birman-Schwinger Schur complement
# ---------------------------------------------------------------------------

#: final bracket width of a located eigenvalue, relative to max(1, |lambda|)
BISECTION_WIDTH = 1e-12


class EigenvalueCounter:
    """Exact counts #{eig H < lambda} of the lattice H = P_m(D) + V, and the
    discrete spectral shift xi(lambda) = #{eig H < lambda} - #{P_m < lambda}.

    The bordered matrix [[P_m - lambda, E], [E^T, -D^{-1}]] has the Schur
    complements H - lambda and -C(lambda) of the Birman-Schwinger model, so
    inertia additivity (Haynsworth) gives

        #{eig H < lambda} = #{P_m < lambda} + xi(lambda),
        xi(lambda) = #{V < 0 on S} - n_-(C(lambda))
                   = #{V < 0 on S} + [lambda < 0] - n_-(K(lambda)),

    the last since K(lambda) is C(lambda) bordered by N lambda; n_- is read
    off the pivots of the model's LDL^T factors (Sylvester's law of
    inertia).  The counts are those of V on S; with w = ``weyl_shift``,
    Weyl's inequality brackets those of the full V:
    N_S(lambda - w) <= N_H(lambda) <= N_S(lambda + w).
    """

    def __init__(self, V: Potential, m: int):
        self.model = _BirmanSchwinger(V, m)
        self.pm = pm_values(V.grid, m)
        self.nodes = len(self.model.support)
        self.weyl_shift = self.model.weyl_shift
        self.negative = int(np.count_nonzero(self.model.inv_v < 0))

    def xi(self, lam: float) -> int:
        """Raises ValueError at a lattice value of P_m (C does not exist)."""
        if self.nodes == 0:
            return 0
        return (self.negative + int(lam < 0)
                - _negative_inertia(*self.model.factor(lam)))

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
    weyl_shift: float              # the largest |V| the support cut drops


def eigen_scan(V: Potential, m: int,
               interval: tuple[float, float]) -> EigenScanResult:
    """Every eigenvalue of H = P_m(D) + V in [a, b], with its multiplicity.

    Counts #{eig H < lambda} exactly at a and b, then bisects every cell
    where the count jumps until its bracket is narrower than
    ``BISECTION_WIDTH * max(1, |lambda|)``; eigenvalues closer than that are
    one candidate.  The count does not decrease in lambda, so a cell whose
    ends agree holds no eigenvalue.  The count is taken at real lambda, so
    the scan has no side lambda +- i0 to choose.
    """
    a, b = interval
    if a >= b:
        raise ValueError("interval must satisfy a < b")
    if a <= 0 <= b:
        raise ValueError("interval must avoid 0")
    counter = EigenvalueCounter(V, m)
    counts = {a: counter.count(a), b: counter.count(b)}
    cells = [(a, b)]
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
                           candidates, counter.nodes, counter.weyl_shift)


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
    converge without solving anything).  ``diagnostics`` counts the
    Birman-Schwinger work: the lgmres solves (none for V = 0), their
    iterations, and the unknowns of each, |supp V|.
    """
    rows: list[SweepRow] = []
    denom = [(label, f, x_norm_upper(f, m)) for label, f in family]
    unknowns = int(np.count_nonzero(V.real_values()))
    iterations = 0
    for lam in lambdas:
        for eps in epsilons:
            z = lam + 1j * sign * eps
            best, best_label, worst_res, ok = 0.0, "", 0.0, True
            for label, f, xb in denom:
                sol = bs_solve(z, m, V, f, tol=solver_tol)
                iterations += sol.iterations
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
        "diagnostics": {
            "bs_solves": len(rows) * len(denom) if unknowns else 0,
            "bs_iterations": iterations,
            "bs_unknowns": unknowns,
        },
    }
