"""Potentials, the Birman-Schwinger solve, eigenvalue scans, and perturbed
resolvent sweeps."""

import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from scipy.linalg.lapack import dsytrf
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from laplab import multiplier, perturb
from laplab.lattice import Field, GridSpec, PHYSICAL
from laplab.multiplier import free_resolvent, pm_values, support_box
from laplab.perturb import (
    EigenvalueCounter,
    Potential,
    bs_solve,
    direct_eigs,
    eigen_scan,
    example_potential,
    lap_perturbed_sweep,
    _negative_inertia,
)
from laplab.spaces import (LorentzExponents, lorentz_norm, xstar_norm,
                           x_norm_upper)
from laplab.family import FamilySpec, standard_family

from conftest import (PROPERTY, apply_hamiltonian, count_lattice_ffts,
                      gaussian_field)


def well_potential(grid, depth=-10.0, radius=1.0) -> Potential:
    r = np.broadcast_to(grid.radius_grid(), grid.shape)
    vals = np.where(r <= radius, depth, 0.0)
    return Potential(field=Field(grid, vals.astype(complex), PHYSICAL),
                     kind="bounded_compact", support_radius=radius)


def zero_potential(grid) -> Potential:
    z = Field(grid, np.zeros(grid.shape, dtype=complex), PHYSICAL)
    return Potential(field=z)


def core_shell_potential(grid) -> Potential:
    """-8 on |x| <= 1 and +3 on 1.5 < |x| <= 2, from the integer node
    offsets to the centre, so it is exactly even in every coordinate."""
    n = grid.points_per_axis
    o = np.arange(n) - n // 2
    k2 = sum(np.meshgrid(*([o * o] * grid.dimension), indexing="ij"))
    r2 = k2 * grid.spacing**2
    vals = np.where(r2 <= 1.0, -8.0, np.where((r2 > 2.25) & (r2 <= 4.0),
                                               3.0, 0.0))
    return Potential(field=Field(grid, vals.astype(complex), PHYSICAL))


def dense_spectrum(V: Potential) -> np.ndarray:
    """Eigenvalues of the lattice H = -Delta + V by dense eigvalsh.

    -Delta is a sum of 1-D circulants with the even symbol xi^2, and V is
    even in every coordinate, so H is block diagonal over the parity sectors
    of the reflections j -> -j (mod n); each block is assembled and solved
    densely, which keeps d = 3, n = 16 (4096 nodes) fast."""
    grid = V.grid
    n, d = grid.points_per_axis, grid.dimension
    xi2 = np.fft.ifftshift(grid.axis_freqs() ** 2)
    lap = np.fft.fft(xi2[:, None] * np.fft.ifft(np.eye(n), axis=0),
                     axis=0).real
    refl = (-np.arange(n)) % n
    bases = []
    for sgn, reps in ((1.0, range(n // 2 + 1)), (-1.0, range(1, n // 2))):
        Q = np.zeros((n, len(reps)))
        for c, j in enumerate(reps):
            Q[j, c] += 1.0
            Q[refl[j], c] += sgn
        bases.append(Q / np.linalg.norm(Q, axis=0))
    v = V.real_values().ravel()
    eigs = []
    for sector in np.ndindex(*(2,) * d):
        Qs = [bases[p] for p in sector]
        H = np.zeros((1, 1))
        for ax, Q in enumerate(Qs):
            term = np.ones((1, 1))
            for ax2, Q2 in enumerate(Qs):
                block = Q2.T @ lap @ Q2 if ax2 == ax else \
                    np.eye(Q2.shape[1])
                term = np.kron(term, block)
            H = H + term
        Q = functools.reduce(np.kron, Qs)
        H = H + Q.T @ (v[:, None] * Q)
        eigs.append(np.linalg.eigvalsh(H))
    return np.sort(np.concatenate(eigs))


class TestPotential:
    def test_complex_values_rejected(self, g2):
        vals = np.full(g2.shape, 1.0 + 1e-6j)
        with pytest.raises(ValueError, match="real"):
            Potential(field=Field(g2, vals, PHYSICAL))

    def test_non_finite_rejected(self, g2):
        vals = np.zeros(g2.shape, dtype=complex)
        vals[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            Potential(field=Field(g2, vals, PHYSICAL))


class TestExamplePotential:
    def test_single_shell_measure(self, g2):
        V = example_potential(2.0, 1, g2)
        measure = g2.cell_volume * np.count_nonzero(V.real_values())
        assert measure == pytest.approx(1.0 / math.log(2.0), rel=0.01)
        assert set(np.unique(V.real_values())) == {0.0, 1.0}

    def test_level_values(self, g2_fine):
        q, J = 2.0, 8
        V = example_potential(q, J, g2_fine)
        levels = sorted(set(np.unique(V.real_values())) - {0.0})
        expect = sorted(j ** (-1.0 / q) for j in range(1, J + 1))
        assert np.allclose(levels, expect)

    def test_weak_norm_bounded_in_J(self, g2_fine):
        # the staircase stays in weak-L^q uniformly as shells accumulate
        weak = LorentzExponents(2.0, math.inf)
        norms = [lorentz_norm(example_potential(2.0, J, g2_fine).field, weak)
                 for J in (4, 16, 64)]
        assert max(norms) < 2.0 * min(norms)
        assert max(norms) < 10.0

    def test_shells_are_nested(self, g2):
        # level j occupies radii inside level j+1
        V = example_potential(2.0, 4, g2)
        vals, r = V.real_values(), np.broadcast_to(g2.radius_grid(), g2.shape)
        outer_of = [np.max(r[vals == j ** (-0.5)]) for j in range(1, 5)]
        inner_of = [np.min(r[vals == j ** (-0.5)]) for j in range(1, 5)]
        for j in range(3):
            assert outer_of[j] <= inner_of[j + 1] + g2.spacing

    def test_coarse_grid_rejected(self):
        with pytest.raises(ValueError, match="coarse"):
            example_potential(2.0, 1, GridSpec(2, 20.0, 16))

    def test_parameter_validation(self, g2):
        with pytest.raises(ValueError, match="q"):
            example_potential(0.5, 1, g2)
        with pytest.raises(ValueError, match="J"):
            example_potential(2.0, 0, g2)


def pde_residual(sol, m, V, f) -> float:
    """||(P_m(D) + V - z) u - f|| / ||f|| of a Birman-Schwinger solve."""
    lhs = apply_hamiltonian(m, V, sol.u).values - sol.z * sol.u.values
    return float(np.linalg.norm(lhs - f.values) / np.linalg.norm(f.values))


class TestBsSolve:
    def test_zero_potential_reduces_to_free(self, g2, gauss2):
        z = 1.0 + 0.1j
        V = zero_potential(g2)
        sol = bs_solve(z, 1, V, gauss2)
        free = free_resolvent(z, 1, gauss2)
        assert sol.converged and sol.iterations == 0
        assert np.allclose(sol.u.values, free.values)
        assert pde_residual(sol, 1, V, gauss2) < 1e-10

    def test_pde_residual_d3(self, g3_well):
        f = gaussian_field(g3_well, 1.0)
        V = well_potential(g3_well, depth=-4.0)
        sol = bs_solve(-0.5 + 0.0j, 1, V, f, tol=1e-12)
        assert sol.converged
        assert pde_residual(sol, 1, V, f) < 1e-8

    def test_iterations_grow_with_coupling(self, g3_well):
        f = gaussian_field(g3_well, 1.0)
        z = 1.0 + 0.5j
        weak = bs_solve(z, 1, well_potential(g3_well, depth=-0.5), f)
        strong = bs_solve(z, 1, well_potential(g3_well, depth=-8.0), f)
        assert weak.converged and strong.converged
        assert strong.iterations >= weak.iterations

    def test_complex_energy_off_axis(self, g2, gauss2):
        V = well_potential(g2, -1.0)
        sol = bs_solve(0.75 + 0.01j, 2, V, gauss2)
        assert sol.converged
        assert pde_residual(sol, 2, V, gauss2) < 1e-8

    def test_matches_dense_solve(self):
        grid = GridSpec(2, 4.0, 16)
        V = well_potential(grid, depth=-4.0)
        f = gaussian_field(grid, 1.0, center=(0.5, 0.0))
        z = 1.0 + 0.1j

        def resolvent(vals):
            return free_resolvent(z, 1, Field(grid, vals.reshape(grid.shape),
                                              PHYSICAL)).values.ravel()

        # the dense (Id + R_0 V) of the whole lattice, column by column
        eye = np.eye(grid.points_per_axis ** 2)
        r0 = np.column_stack([resolvent(e) for e in eye])
        v = V.real_values().ravel()
        rhs = resolvent(f.values)
        dense = np.linalg.solve(eye + r0 * v, rhs)
        sol = bs_solve(z, 1, V, f)
        assert sol.converged
        u = sol.u.values.ravel()
        assert np.linalg.norm(u - dense) <= 1e-9 * np.linalg.norm(dense)
        explicit = np.linalg.norm(u + resolvent(v * u) - rhs) \
            / np.linalg.norm(rhs)
        assert abs(sol.residual - explicit) <= 1e-15

    def test_krylov_space_is_the_support(self, g2, gauss2, monkeypatch):
        ops = recorded_lgmres(monkeypatch)
        well = well_potential(g2, depth=-1.0)
        gauss = Potential(gauss2.with_values(-0.5 * gauss2.values))
        for V in (well, gauss):
            assert bs_solve(1.0 + 0.1j, 1, V, gauss2).converged
        nodes = np.count_nonzero(well.real_values())
        assert 0 < nodes < g2.points_per_axis ** 2
        assert np.all(gauss.real_values())
        assert [A.shape for A in ops] == [(nodes, nodes),
                                          (g2.points_per_axis ** 2,) * 2]

    def test_strong_well_meets_tol(self, g2, gauss2):
        # the stop is on the support residual, which R_0 E D amplifies about
        # fivefold here: the returned residual still meets tol
        V = well_potential(g2, depth=-20.0)
        sol = bs_solve(2.0 + 0.001j, 1, V, gauss2, tol=1e-10)
        assert sol.converged and sol.residual <= 1e-10
        assert pde_residual(sol, 1, V, gauss2) < 1e-8

    def test_far_right_hand_side_converges(self, g2):
        V = well_potential(g2, depth=-8.0)
        f = gaussian_field(g2, 0.5, center=(5.0, 5.0))
        for z in (1.0 + 0.1j, -30.0 + 0.0j):
            sol = bs_solve(z, 1, V, f, tol=1e-10)
            assert sol.converged and sol.residual <= 1e-10
        # at z = -30, R_0 f on the well is 1e-13 of its norm, below the stop
        # threshold tol * ||R_0 f||: lgmres's first residual check ends it
        assert sol.iterations == 1


def block_potential(grid, start, extent) -> Potential:
    """Seeded values in [-2, -0.5] on the block of ``extent`` nodes from
    node ``start`` along each axis."""
    vals = np.zeros(grid.shape)
    block = tuple(slice(s, s + e) for s, e in zip(start, extent))
    vals[block] = np.random.default_rng(3).uniform(-2.0, -0.5, extent)
    return Potential(Field(grid, vals.astype(complex), PHYSICAL))


def corner_well(grid) -> Potential:
    """The radius-1 well moved to the box corner: its support touches both
    periodic edges of every axis."""
    V = well_potential(grid, depth=-1.0)
    axes = tuple(range(grid.dimension))
    return Potential(V.field.with_values(
        np.roll(V.field.values, grid.points_per_axis // 2, axis=axes)))


G2_SMALL = GridSpec(2, 4.0, 32)
G3_WELL = GridSpec(3, 6.0, 32)

# (grid, potential, m, z, the box support_box gives)
BOX_CASES = {
    # 9 nodes across: 2 * 9 - 2 = 16 exactly
    "d2-well": (G2_SMALL, well_potential(G2_SMALL, -1.0, 1.0), 1,
                1.0 + 0.1j, (16, 16)),
    "corner-well": (G2_SMALL, corner_well(G2_SMALL), 1, 1.0 + 0.1j,
                    (32, 32)),
    # 2 * 7 - 2 = 12 and 2 * 3 - 2 = 4 exactly
    "odd-extents": (G2_SMALL, block_potential(G2_SMALL, (4, 20), (7, 3)), 1,
                    0.5 + 0.2j, (12, 4)),
    # one node across: N = 1
    "one-node-wide": (G2_SMALL, block_potential(G2_SMALL, (6, 9), (1, 6)), 1,
                      1.0 + 0.1j, (1, 10)),
    # 5 nodes across: 2 * 5 - 2 = 8 exactly, criterion 08's box
    "d3-well": (G3_WELL, well_potential(G3_WELL, -1.0, 1.0), 1, 1.0 + 0.01j,
                (8, 8, 8)),
    "m2": (G2_SMALL, well_potential(G2_SMALL, -1.0, 1.0), 2, 0.75 + 0.05j,
           (16, 16)),
    # 2 * 5 - 2 = 8 exactly and 2 * 8 - 2 = 14, padded to 15
    "negative-re-z": (G2_SMALL, block_potential(G2_SMALL, (10, 11), (5, 8)),
                      1, -0.7 + 0.05j, (8, 15)),
}


def recorded_lgmres(monkeypatch) -> list:
    """The LinearOperator of each lgmres call of bs_solve from now on: its
    first one and every resumption."""
    ops, lgmres = [], perturb.lgmres

    def recording(A, b, **kwargs):
        ops.append(A)
        return lgmres(A, b, **kwargs)

    monkeypatch.setattr(perturb, "lgmres", recording)
    return ops


def recorded_operator(monkeypatch, z, m, V, f):
    """The LinearOperator that bs_solve hands lgmres, and its result."""
    ops = recorded_lgmres(monkeypatch)
    sol = bs_solve(z, m, V, f)
    return ops[0], sol


class TestBoxConvolution:
    @pytest.mark.parametrize("case", BOX_CASES.values(), ids=BOX_CASES.keys())
    def test_matvec_is_the_lattice_product(self, case, monkeypatch):
        grid, V, m, z, box = case
        vals = V.real_values().ravel()
        support = np.flatnonzero(vals)
        f = gaussian_field(grid, 1.0)
        op, sol = recorded_operator(monkeypatch, z, m, V, f)
        assert sol.converged
        rng = np.random.default_rng(1)
        for _ in range(3):
            x = (rng.standard_normal(len(support))
                 + 1j * rng.standard_normal(len(support)))
            spread = np.zeros(vals.size, dtype=complex)
            spread[support] = vals[support] * x
            full = free_resolvent(z, m, Field(grid, spread.reshape(grid.shape),
                                              PHYSICAL)).values.ravel()
            want = x + full[support]
            got = op.matvec(x)
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
        assert support_box(grid, support)[0] == box

    def test_edge_wrapping_support_converges(self):
        grid = GridSpec(2, 6.8, 128)
        V = corner_well(grid)
        # f centred on the corner node, where V is
        f = gaussian_field(grid, 1.0, center=(-6.8, -6.8))
        assert support_box(grid, np.flatnonzero(V.real_values()))[0] \
            == grid.shape
        sol = bs_solve(1.0 + 0.05j, 1, V, f, tol=1e-10)
        assert sol.converged and sol.residual <= 1e-10
        assert sol.matvecs >= sol.iterations >= 1
        assert pde_residual(sol, 1, V, f) < 1e-8


class TestFftWork:
    """The lattice FFTs of a solve and of the sweep, counted through
    numpy.fft; the box's kernel is built by a first solve at the same z."""

    def test_solve_takes_four(self, monkeypatch):
        V = well_potential(G2_SMALL, -1.0)
        z = 1.0 + 0.1j
        bs_solve(z, 1, V, gaussian_field(G2_SMALL, 1.0))
        lgmres = recorded_lgmres(monkeypatch)
        ffts = count_lattice_ffts(monkeypatch, G2_SMALL.shape)
        f = gaussian_field(G2_SMALL, 0.7, center=(0.5, 0.0))
        sol = bs_solve(z, 1, V, f)
        assert sol.converged and len(lgmres) == 1
        assert ffts == {"ifftn": 3, "fftn": 1}
        # u is one FFT of the spectrum, run once
        assert sol.u is sol.u
        assert ffts == {"ifftn": 3, "fftn": 2}
        assert np.array_equal(sol.u.values, np.fft.fftn(sol.spectrum))

    def test_each_resumption_adds_one(self, g2, gauss2, monkeypatch):
        # the -20 well of test_strong_well_meets_tol resumes
        V = well_potential(g2, depth=-20.0)
        z = 2.0 + 0.001j
        bs_solve(z, 1, V, gaussian_field(g2, 0.5))
        lgmres = recorded_lgmres(monkeypatch)
        ffts = count_lattice_ffts(monkeypatch, g2.shape)
        sol = bs_solve(z, 1, V, gauss2, tol=1e-10)
        assert sol.converged and sol.residual <= 1e-10
        assert len(lgmres) >= 2
        assert sum(ffts.values()) == 4 + (len(lgmres) - 1)
        assert pde_residual(sol, 1, V, gauss2) < 1e-8

    def test_zero_potential_takes_one(self, monkeypatch):
        ffts = count_lattice_ffts(monkeypatch, G2_SMALL.shape)
        sol = bs_solve(1.0 + 0.1j, 1, zero_potential(G2_SMALL),
                       gaussian_field(G2_SMALL, 1.0))
        assert sol.iterations == 0 and ffts == {"ifftn": 1}

    def test_sweep(self, monkeypatch):
        # per cell the box's kernel and, per family member, a solve and the
        # two parts of its proxy's norm; per family member x_norm_upper
        V = well_potential(G2_SMALL, -0.05)
        fam = standard_family(G2_SMALL, FamilySpec(count=2, seed=7))
        lambdas, epsilons = [0.5, 1.0], [0.1, 0.05]
        multiplier._box_resolvent_values.cache_clear()
        lgmres = recorded_lgmres(monkeypatch)
        ffts = count_lattice_ffts(monkeypatch, G2_SMALL.shape)
        out = lap_perturbed_sweep(V, 1, lambdas, epsilons, fam)
        cells = len(lambdas) * len(epsilons)
        assert out["holes"] == 0
        assert len(lgmres) == out["diagnostics"]["bs_solves"] \
            == cells * len(fam)
        assert sum(ffts.values()) \
            == cells * (1 + len(fam) * (4 + 2)) + len(fam) * 9


class TestHamiltonian:
    def test_symmetry(self, g3_well):
        V = well_potential(g3_well, depth=-4.0)
        u = gaussian_field(g3_well, 0.8)
        v = gaussian_field(g3_well, 1.2, center=(0.5, 0.0, 0.0))
        w = g3_well.cell_volume
        a = w * np.sum(apply_hamiltonian(1, V, u).values * np.conj(v.values))
        b = w * np.sum(u.values * np.conj(apply_hamiltonian(1, V, v).values))
        assert a == pytest.approx(b, rel=1e-10)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("grid", [GridSpec(2, 6.0, 32),
                                      GridSpec(3, 6.0, 16),
                                      GridSpec(4, 6.0, 16)],
                             ids=["d2", "d3", "d4"])
    def test_real_matvec_matches_apply_hamiltonian(self, grid, m):
        # the oracle's rfftn/irfftn matvec against the complex multiply path
        V = core_shell_potential(grid)
        w = np.random.default_rng(grid.dimension + 10 * m).standard_normal(
            grid.points_per_axis**grid.dimension)
        ref = apply_hamiltonian(m, V, Field(grid, w.reshape(grid.shape),
                                            PHYSICAL)).values.real.ravel()
        got = perturb._real_hamiltonian(m, V)(w)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @staticmethod
    def _random_potential():
        grid = GridSpec(2, 5.0, 16)
        rng = np.random.default_rng(7)
        return Potential(field=Field(grid, rng.uniform(-8.0, 2.0, grid.shape)
                                     .astype(complex), PHYSICAL))

    def _dense_check(self, m):
        # H assembled column by column from apply_hamiltonian; a random V
        # leaves no eigenvalue multiple, which a single-start Lanczos could
        # report once
        V = self._random_potential()
        grid = V.grid
        n_tot = grid.points_per_axis**grid.dimension
        H = np.column_stack([
            apply_hamiltonian(m, V, Field(grid, e.reshape(grid.shape),
                                          PHYSICAL)).values.real.ravel()
            for e in np.eye(n_tot)])
        dense = np.linalg.eigvalsh(0.5 * (H + H.T))[:6]
        res = direct_eigs(m, V, k=6)
        assert res.converged and res.matvecs > res.solves > 0
        assert np.all(np.abs(res.values - dense)
                      <= 1e-10 * np.maximum(1.0, np.abs(dense)))
        # the residual certificate: an eigenvalue within it of each value
        assert np.all(np.abs(res.values - dense) <= res.residual)
        return res

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_direct_eigs_matches_dense_matrix(self, m):
        res = self._dense_check(m)
        # nothing is cut, so the Woodbury inverse is exact: each solve ends
        # at its first residual check, and the other six matvecs are the
        # Rayleigh quotients
        assert res.matvecs == res.solves + 6

    def test_direct_eigs_with_a_cut_preconditioner(self, monkeypatch):
        # 40 of the 256 nodes in the Woodbury preconditioner: CG carries
        # the rest, and the values stay those of the full V
        monkeypatch.setattr(perturb, "MAX_SUPPORT_NODES", 40)
        res = self._dense_check(1)
        assert res.matvecs > 2 * res.solves

    def test_direct_eigs_with_a_wrong_factorisation(self, monkeypatch):
        # the Birman-Schwinger model hands the oracle the factors of -C
        # instead of C: the preconditioner is wrong, CG carries the solves,
        # and the values are still those of the dense matrix.  That takes
        # about a hundred CG steps per solve, so the budget is raised past
        # the default, whose miss would end the run unconverged
        monkeypatch.setattr(perturb, "dsytrf",
                            lambda a, **kw: dsytrf(-a, **kw))
        monkeypatch.setattr(perturb, "SOLVE_MAXITER", 1000)
        res = self._dense_check(1)
        assert res.matvecs > res.solves + 6

    def test_failed_solve_is_reported(self, monkeypatch):
        # a cut preconditioner with no CG step allowed misses SOLVE_TOL
        monkeypatch.setattr(perturb, "MAX_SUPPORT_NODES", 40)
        monkeypatch.setattr(perturb, "SOLVE_MAXITER", 0)
        res = direct_eigs(1, self._random_potential(), k=6)
        assert not res.converged and res.values.size == 0
        assert res.solves == 1 and res.matvecs == 1

    def test_unconverged_lanczos_is_reported(self, g3_well, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("forced", np.array([0.5, -1.0]), None)

        monkeypatch.setattr(perturb, "eigsh", no_convergence)
        res = direct_eigs(1, well_potential(g3_well, depth=-4.0), k=3)
        assert not res.converged and res.values.tolist() == [-1.0, 0.5]

    def test_direct_eigs_lower_bound(self, g3_well):
        V = well_potential(g3_well, depth=-4.0)
        eigs = direct_eigs(1, V, k=3).values
        assert np.all(np.diff(eigs) >= -1e-9)
        assert eigs[0] >= -4.0 - 1e-6

    def test_eigenfunction_decay(self, g3_well):
        # the well ground state is localized: the mass within |x| <= 2
        # dominates the mass in the outer half of the box
        V = well_potential(g3_well, depth=-4.0)
        pmv = apply_hamiltonian  # noqa: F841  (symmetry checked above)
        shape = g3_well.shape

        def matvec(w):
            u = Field(g3_well, w.reshape(shape).astype(complex), PHYSICAL)
            return apply_hamiltonian(1, V, u).values.real.ravel()

        n_tot = int(np.prod(shape))
        op = LinearOperator((n_tot, n_tot), matvec=matvec, dtype=np.float64)
        vals, vecs = eigsh(op, k=1, which="SA", tol=1e-9)
        u = np.abs(vecs[:, 0].reshape(shape)) ** 2
        r = np.broadcast_to(g3_well.radius_grid(), shape)
        inner = float(np.sum(u[r <= 2.0]))
        outer = float(np.sum(u[r > 0.5 * g3_well.half_width]))
        assert inner > 10.0 * outer


def gathered_green(V, m, lam, monkeypatch):
    """The counter's Green's function on S x S at lam, the Schur complement
    of the corner of its bordered matrix, against the full complex transform
    (2L)^{-d} h^d fftn(1/(P_m - lambda)) read at the offsets x_j - x_k by an
    index of its own: their largest difference relative to the largest
    entry, and the counter."""
    counter = EigenvalueCounter(V, m)
    counter.inv_v = np.zeros_like(counter.inv_v)    # C(lambda) is G alone
    seen = []
    monkeypatch.setattr(perturb, "dsytrf",
                        lambda a, **kw: seen.append(a.copy()) or
                        dsytrf(a, **kw))
    counter.factor(lam)
    k = seen[0]
    got = k[1:, 1:] - np.outer(k[1:, 0], k[0, 1:]) / k[0, 0]
    grid = V.grid
    kernel = np.fft.fftn(1.0 / (pm_values(grid, m) - lam)).real
    kernel *= grid.cell_volume / (2.0 * grid.half_width) ** grid.dimension
    n = grid.points_per_axis
    x = np.array(np.unravel_index(counter.support, grid.shape)).T
    offsets = (x[:, None, :] - x[None, :, :]) % n
    ref = kernel[tuple(np.moveaxis(offsets, -1, 0))]
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref)), counter


class TestGreenFunction:
    @pytest.mark.parametrize("lam", [-0.7, 0.45])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("grid", [GridSpec(2, 6.0, 32),
                                      GridSpec(3, 6.0, 16)],
                             ids=["d2", "d3"])
    def test_gather_matches_full_fft(self, grid, m, lam, monkeypatch):
        err, _ = gathered_green(core_shell_potential(grid), m, lam,
                                monkeypatch)
        assert err <= 1e-15

    @pytest.mark.parametrize("lam", [-0.7, 0.45])
    @pytest.mark.parametrize("V,cap,box", [
        # 40 nodes kept: the count's box is smaller than the matvec's,
        # (20, 20), which holds the whole support
        (core_shell_potential(GridSpec(2, 6.0, 32)), 40, (15, 20)),
        # the support touches both edges of every axis: the box is the
        # lattice
        (corner_well(G2_SMALL), perturb.MAX_SUPPORT_NODES, (32, 32)),
        # 9 nodes across: N = 2 * 9 - 2 = 16 exactly, so the offsets +-8
        # share one box entry
        (well_potential(G2_SMALL, -1.0, 1.0), perturb.MAX_SUPPORT_NODES,
         (16, 16)),
    ], ids=["cut-support", "corner-well", "n-is-2b-2"])
    def test_gather_on_the_count_box(self, V, cap, box, lam, monkeypatch):
        monkeypatch.setattr(perturb, "MAX_SUPPORT_NODES", cap)
        err, counter = gathered_green(V, 1, lam, monkeypatch)
        assert err <= 1e-15
        assert counter.nodes == min(cap, len(V.support))
        assert counter.box == box
        assert math.prod(box) <= math.prod(V.box[0])


class TestInertiaCount:
    LAMBDAS = np.linspace(-7.0, 3.3, 12)

    @pytest.mark.parametrize("V,box,negative,nodes", [
        # V has both signs on the kept nodes
        (core_shell_potential(GridSpec(2, 6.0, 32)), (20, 20), 21, 61),
        (core_shell_potential(GridSpec(3, 6.0, 16)), (8, 8, 8), 7, 55),
        # even about the corner node: the support wraps the lattice edge,
        # so the box is the lattice
        (corner_well(G2_SMALL), (32, 32), 49, 49),
    ], ids=["d2-n32", "d3-n16", "d2-corner-well"])
    def test_counts_match_dense_eigvalsh(self, V, box, negative, nodes):
        grid = V.grid
        counter = EigenvalueCounter(V, 1)
        assert (counter.box, counter.negative, counter.nodes) == \
            (box, negative, nodes)
        eigs = dense_spectrum(V)
        assert len(eigs) == grid.points_per_axis**grid.dimension
        for lam in self.LAMBDAS:
            # away from an eigenvalue, so roundoff cannot move the count
            assert np.min(np.abs(eigs - lam)) > 1e-6
            assert counter.count(lam) == np.count_nonzero(eigs < lam)

    def test_dense_oracle_is_the_lanczos_spectrum(self):
        V = core_shell_potential(GridSpec(2, 6.0, 32))
        lanczos = direct_eigs(1, V, k=3).values
        assert dense_spectrum(V)[:3] == pytest.approx(lanczos, rel=1e-9)

    @PROPERTY
    @given(lo=st.floats(-8.0, 3.0), step=st.floats(0.0, 2.0))
    def test_count_is_non_decreasing(self, lo, step):
        counter = _mixed_counter()
        # the count is defined off the lattice values of |xi|^2, 0 among them
        assume(np.all(counter.pm != lo) and np.all(counter.pm != lo + step))
        assert counter.count(lo) <= counter.count(lo + step)

    @pytest.mark.parametrize("seed", range(4))
    def test_pivot_blocks_match_eigvalsh(self, seed):
        # a zero diagonal forces runs of 2x2 Bunch-Kaufman pivots
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((120, 120))
        a += a.T
        a[np.diag_indices(120)] = 0.0
        ldu, ipiv, info = dsytrf(np.asfortranarray(a), lower=1)
        runs = np.diff(np.flatnonzero(np.diff(np.r_[0, ipiv < 0, 0])))[::2]
        assert info == 0 and np.any(runs >= 4)
        assert _negative_inertia(ldu, ipiv) == \
            np.count_nonzero(np.linalg.eigvalsh(a) < 0)

    def test_xi_vanishes_for_zero_potential(self, g3_well):
        counter = EigenvalueCounter(zero_potential(g3_well), 1)
        assert counter.nodes == 0 and counter.weyl_shift == 0.0
        assert [counter.xi(lam) for lam in np.linspace(-2.0, 3.0, 11)] == \
            [0] * 11

    def test_lattice_value_refused(self, g3_well):
        counter = EigenvalueCounter(well_potential(g3_well, depth=-8.0), 1)
        with pytest.raises(ValueError, match="lattice value"):
            counter.count(float(pm_values(g3_well, 1).flat[1]))

    def test_counts_next_to_zero_match_dense_eigvalsh(self):
        # the zero-frequency term of C(lambda) grows like 1/lambda; the
        # unbordered C counted -39 below 1e-30, where eigvalsh counts 3
        V = core_shell_potential(GridSpec(2, 6.0, 32))
        counter = EigenvalueCounter(V, 1)
        eigs = dense_spectrum(V)
        for lam in (1e-300, 1e-30, 1e-17, -1e-17, -1e-100):
            assert counter.count(lam) == np.count_nonzero(eigs < lam)

    def test_weyl_shift_brackets_the_full_count(self, monkeypatch):
        # 40 of the nodes kept: the 21 of the core and 19 of the +3 shell
        monkeypatch.setattr(perturb, "MAX_SUPPORT_NODES", 40)
        V = core_shell_potential(GridSpec(2, 6.0, 32))
        counter = EigenvalueCounter(V, 1)
        w = counter.weyl_shift
        assert counter.nodes == 40
        assert w == np.sort(np.abs(V.real_values().ravel()))[::-1][40] == 3.0
        eigs = dense_spectrum(V)
        cut_moves_a_count = False
        for lam in self.LAMBDAS:
            full = np.count_nonzero(eigs < lam)
            # Weyl: ||V - V_S|| <= w
            assert counter.count(lam - w) <= full <= counter.count(lam + w)
            # the dropped part is >= 0, so H >= H_S: the upper side is exact
            assert full <= counter.count(lam)
            cut_moves_a_count |= full != counter.count(lam)
        assert cut_moves_a_count


@functools.lru_cache(maxsize=1)
def _mixed_counter():
    return EigenvalueCounter(core_shell_potential(GridSpec(2, 6.0, 32)), 1)


class TestEigenScan:
    def test_zero_potential(self, g3_well):
        res = eigen_scan(zero_potential(g3_well), 1, (-8.0, -0.5))
        assert res.candidates == [] and res.support_nodes == 0
        pm = pm_values(g3_well, 1)
        assert res.counts.tolist() == [np.count_nonzero(pm < lam)
                                       for lam in res.lambdas]

    def test_zero_potential_finds_lattice_values(self, g3_well):
        # H = P_m: the candidates are the lattice values of |xi|^2 in the
        # interval, each with its multiplicity
        res = eigen_scan(zero_potential(g3_well), 1, (0.5, 2.0))
        pm = pm_values(g3_well, 1).ravel()
        # |xi|^2 = k (pi/L)^2 with k a sum of d squares
        k = np.round(pm / g3_well.freq_step**2)
        ks, mult = np.unique(k[(pm > 0.5) & (pm < 2.0)], return_counts=True)
        assert [m for _, m in res.candidates] == mult.tolist()
        found = np.array([lam for lam, _ in res.candidates])
        assert np.max(np.abs(found - ks * g3_well.freq_step**2)) <= 2e-12
        assert res.counts.tolist() == [np.count_nonzero(pm < lam)
                                       for lam in res.lambdas]

    def test_interval_validation(self, g3_well):
        V = well_potential(g3_well)
        with pytest.raises(ValueError, match="a < b"):
            eigen_scan(V, 1, (-1.0, -2.0))
        with pytest.raises(ValueError, match="avoid 0"):
            eigen_scan(V, 1, (-1.0, 1.0))

    def test_well_ground_state_matches_lanczos(self, g3_well):
        V = well_potential(g3_well, depth=-8.0)
        res = eigen_scan(V, 1, (-8.0, -0.5))
        oracle = direct_eigs(1, V, k=3).values
        assert res.candidates == [(pytest.approx(oracle[0], rel=1e-10), 1)]
        assert oracle[1] > -0.5

    def test_d2_well_matches_lanczos_with_multiplicity(self, g2):
        V = well_potential(g2, depth=-8.0)
        res = eigen_scan(V, 1, (-8.0, -0.5))
        oracle = direct_eigs(1, V, k=6).values
        inside = oracle[oracle <= -0.5]
        assert [m for _, m in res.candidates] == [1, 2]
        assert sum(m for _, m in res.candidates) == len(inside)
        for lam, _ in res.candidates:
            assert np.min(np.abs(inside - lam) / abs(lam)) <= 1e-10
        # every point counted is kept, and the last count is N_H(b)
        assert np.all(np.diff(res.lambdas) > 0)
        assert res.counts[-1] == len(inside)

    def test_scan_misses_nothing_and_stays_cheap(self, g2, g3_well):
        a, b = -8.0, -0.5
        # bisection adds at most this many counts per candidate
        depth = math.ceil(math.log2((b - a) / perturb.BISECTION_WIDTH))
        for grid in (g2, g3_well):
            V = well_potential(grid, depth=-8.0)
            res = eigen_scan(V, 1, (a, b))
            # the oracle: exact counts on a fine grid, whose every jump must
            # hold candidates of the same total multiplicity
            counter = EigenvalueCounter(V, 1)
            lams = np.linspace(a, b, 151)
            counts = [counter.count(lam) for lam in lams]
            for lo, hi, jump in zip(lams[:-1], lams[1:], np.diff(counts)):
                assert sum(mult for lam, mult in res.candidates
                           if lo <= lam < hi) == jump
            assert res.candidates
            assert len(res.lambdas) <= 2 + len(res.candidates) * depth

    def test_truncation_weyl_shift(self, g3_well, monkeypatch):
        V = well_potential(g3_well, depth=-8.0, radius=1.5)
        res = eigen_scan(V, 1, (-2.0, -1.0))
        assert res.weyl_shift == 0.0
        monkeypatch.setattr(perturb, "MAX_SUPPORT_NODES", 50)
        res = eigen_scan(V, 1, (-2.0, -1.0))
        # every dropped node carries the well's depth
        assert res.support_nodes == 50 and res.weyl_shift == 8.0


class TestPerturbedSweep:
    def test_zero_potential_matches_free(self, g2):
        fam = standard_family(g2, FamilySpec(count=2, seed=7))
        out = lap_perturbed_sweep(zero_potential(g2), 1, [1.0], [0.1, 0.05],
                                  fam)
        assert out["holes"] == 0 and out["compared"] == 2
        for row in out["rows"]:
            z = row.lam + 1j * row.eps
            direct = max(
                xstar_norm(free_resolvent(z, 1, f), 1) / x_norm_upper(f, 1)
                for _, f in fam)
            assert row.proxy == pytest.approx(direct, rel=1e-8)

    def test_proxy_is_the_norm_of_the_solution(self):
        V = well_potential(G2_SMALL, -0.05)
        fam = standard_family(G2_SMALL, FamilySpec(count=3, seed=7))
        out = lap_perturbed_sweep(V, 1, [0.5, 1.0], [0.1, 0.05], fam)
        assert out["holes"] == 0
        for row in out["rows"]:
            z = row.lam + 1j * row.eps
            ratios = {label: xstar_norm(bs_solve(z, 1, V, f).u, 1)
                      / x_norm_upper(f, 1) for label, f in fam}
            best = max(ratios.values())
            assert abs(row.proxy - best) <= 1e-14 * best
            assert ratios[row.worst_label] == pytest.approx(best, rel=1e-14)

    def test_small_potential_is_a_small_perturbation(self, g2):
        fam = standard_family(g2, FamilySpec(count=2, seed=7))
        free = lap_perturbed_sweep(zero_potential(g2), 1, [1.0], [0.1], fam)
        V = well_potential(g2, depth=-0.05)
        pert = lap_perturbed_sweep(V, 1, [1.0], [0.1], fam)
        assert pert["holes"] == 0
        assert pert["sup"] == pytest.approx(free["sup"], rel=0.2)
