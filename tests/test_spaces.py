import numpy as np
import pytest
from hypothesis import given, strategies as st

from laplab.family import FamilySpec, shell_stress_family, standard_family
from laplab.lattice import Field, GridSpec, PHYSICAL, forward_transform, \
    inverse_transform, sample
from laplab.multiplier import apply_values, bessel_values
from laplab.spaces import (DyadicShells, LorentzExponents, b_norm, bstar_norm,
                           lorentz_norm, lp_norm, slab_l2_profile,
                           smoothing_order, stein_tomas_exponent, x_norm_upper,
                           xstar_norm)

from conftest import PROPERTY, gaussian_field

SQRT2 = np.sqrt(2.0)


def indicator_ball(grid, radius=1.0):
    r = np.broadcast_to(grid.radius_grid(), grid.shape)
    return Field(grid, np.where(r <= radius, 1.0 + 0j, 0.0), PHYSICAL)


class TestLorentz:
    def test_exponent_validation(self):
        with pytest.raises(ValueError):
            LorentzExponents(1.0, 2.0)
        with pytest.raises(ValueError):
            LorentzExponents(2.0, 0.5)

    def test_stein_tomas_values(self):
        assert stein_tomas_exponent(2) == pytest.approx((6.0 / 5.0, 6.0))
        assert stein_tomas_exponent(3) == pytest.approx((4.0 / 3.0, 4.0))

    def test_indicator_weak_norm(self, g2):
        f = indicator_ball(g2)
        a = g2.cell_volume * np.count_nonzero(f.values)
        got = lorentz_norm(f, LorentzExponents(3.0, np.inf))
        assert got == pytest.approx(a ** (1.0 / 3.0), rel=1e-12)

    def test_indicator_finite_q(self, g2):
        f = indicator_ball(g2)
        a = g2.cell_volume * np.count_nonzero(f.values)
        p, q = 2.5, 1.5
        got = lorentz_norm(f, LorentzExponents(p, q))
        assert got == pytest.approx((p / q) ** (1.0 / q) * a ** (1.0 / p),
                                    rel=1e-12)

    def test_q_equals_p_matches_lp(self, g2, gauss2):
        for p in (1.2, 2.0, 4.0):
            got = lorentz_norm(gauss2, LorentzExponents(p, p))
            assert got == pytest.approx(lp_norm(gauss2, p), rel=1e-10)

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), zeros=st.floats(0.0, 1.0))
    def test_rearrangement_invariance(self, g2, seed, zeros):
        # the norm reads only the sorted |f|, so any permutation of the node
        # values leaves it bit for bit unchanged
        rng = np.random.default_rng(seed)
        size = g2.points_per_axis**g2.dimension
        vals = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        vals[rng.random(size) < zeros] = 0.0
        f = Field(g2, vals.reshape(g2.shape), PHYSICAL)
        shuffled = Field(g2, rng.permutation(vals).reshape(g2.shape), PHYSICAL)
        for e in (LorentzExponents(1.5, 2.0), LorentzExponents(1.5, np.inf)):
            assert lorentz_norm(shuffled, e) == lorentz_norm(f, e)


class TestDyadic:
    def test_rejects_tiny_box(self):
        g = GridSpec(2, 1.5, 32)
        with pytest.raises(ValueError, match="shell"):
            DyadicShells(g)

    def test_tie_goes_to_lower_shell(self):
        g = GridSpec(2, 8.0, 128)
        shells = DyadicShells(g)
        r = np.broadcast_to(g.radius_grid(), g.shape)
        on_2 = np.isclose(r, 2.0, rtol=1e-12)
        assert np.any(on_2)
        assert np.all(shells.index[on_2] == 1)   # D_1 = {1 <= |x| <= 2}

    def test_ball_indicator_equal_norms(self, g2):
        f = indicator_ball(g2)
        vol = g2.cell_volume * np.count_nonzero(f.values)
        assert b_norm(f) == pytest.approx(np.sqrt(vol), rel=1e-12)
        assert bstar_norm(f) == pytest.approx(np.sqrt(vol), rel=1e-12)
        d = g2.dimension
        assert vol == pytest.approx(np.pi, rel=5e-2)   # unit disk area

    def test_single_shell_weights(self, g2):
        r = np.broadcast_to(g2.radius_grid(), g2.shape)
        j = 2
        mask = (r > 2.0 ** (j - 1)) & (r < 2.0**j)
        f = Field(g2, np.where(mask, 1.0 + 0j, 0.0), PHYSICAL)
        l2 = f.l2()
        assert b_norm(f) == pytest.approx(2.0 ** (j / 2.0) * l2, rel=1e-12)
        assert bstar_norm(f) == pytest.approx(2.0 ** (-j / 2.0) * l2, rel=1e-12)

    def test_l2_sandwich(self, g2):
        for _, f in standard_family(g2, FamilySpec(count=8, seed=2)):
            assert f.l2() <= b_norm(f) * (1 + 1e-12)
            assert bstar_norm(f) <= f.l2() * (1 + 1e-12)


class TestComposite:
    def test_theta_formula(self):
        for m in (1, 2, 3):
            for d in (2, 3, 4):
                assert smoothing_order(m, d) == pytest.approx(m - d / (d + 1.0))
        with pytest.raises(ValueError, match="positive integer"):
            smoothing_order(0, 2)

    def test_zero_field(self, g2):
        z = Field(g2, np.zeros(g2.shape, dtype=complex), PHYSICAL)
        assert xstar_norm(z, 1) == 0.0
        assert x_norm_upper(z, 1) == 0.0

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_xstar_recomputation(self, d):
        grid = GridSpec(d, 6.8, {2: 128, 3: 32, 4: 16}[d])
        u = gaussian_field(grid)
        _, pdp = stein_tomas_exponent(d)
        theta = 1.0 - d / (d + 1.0)
        lor = lorentz_norm(apply_values(bessel_values(grid, theta), u),
                           LorentzExponents(pdp, 2.0))
        bst = bstar_norm(apply_values(bessel_values(grid, 1.0), u))
        assert xstar_norm(u, 1) == pytest.approx(max(lor, bst), rel=1e-12)

    def test_xstar_homogeneity(self, g2, gauss2):
        base = xstar_norm(gauss2, 2)
        scaled = xstar_norm(gauss2.with_values(-3.5j * gauss2.values), 2)
        assert scaled == pytest.approx(3.5 * base, rel=1e-12)

    def test_xstar_triangle(self, g2, gauss2):
        g = gaussian_field(g2, width=0.8, wavevector=(1.0, 0.3))
        s = gauss2.with_values(gauss2.values + g.values)
        assert xstar_norm(s, 1) <= xstar_norm(gauss2, 1) \
            + xstar_norm(g, 1) + 1e-10

    def test_witnessed_at_most_trivial(self, g2, gauss2):
        t1 = _trivial_lorentz_splitting(gauss2, 1)
        t2 = _trivial_b_splitting(gauss2, 1)
        assert x_norm_upper(gauss2, 1) <= min(t1, t2) + 1e-12

    def test_far_spectral_support_uses_lorentz_term(self, g2):
        # spectral support concentrated around |xi| = 4, far above the
        # splitting spheres (SPLIT_LAMBDA = 1)
        f = gaussian_field(g2, width=2.0, wavevector=(4.0, 0.0))
        lorentz_term = _trivial_lorentz_splitting(f, 1)
        assert x_norm_upper(f, 1) <= lorentz_term + 1e-12


def _trivial_lorentz_splitting(f, m):
    """The X norm of the splitting (f, 0): ||S_{-theta} f||_{L^{pd,2}}."""
    d = f.grid.dimension
    pd, _ = stein_tomas_exponent(d)
    theta = m - d / (d + 1.0)
    return lorentz_norm(apply_values(bessel_values(f.grid, -theta), f),
                        LorentzExponents(pd, 2.0))


def _trivial_b_splitting(f, m):
    """The X norm of the splitting (0, f): ||S_{-m} f||_B."""
    return b_norm(apply_values(bessel_values(f.grid, -float(m)), f))


class TestEmbeddings:
    def test_sqrt2_bounds_large_family(self, g2):
        fields = standard_family(g2, FamilySpec(count=48, seed=0))
        fields += shell_stress_family(g2, 60, seed=1)
        assert len(fields) >= 100
        bound = SQRT2 * (1.0 + 1e-6)
        for label, f in fields:
            prof = slab_l2_profile(f)
            integral = float(np.sum(prof) * g2.spacing)
            sup = float(np.max(prof))
            b, bs = b_norm(f), bstar_norm(f)
            if b > 0:
                assert integral / b <= bound, label
            if sup > 0:
                assert bs / sup <= bound, label

    def test_d0_indicator_profile(self, g2):
        f = indicator_ball(g2)
        prof = slab_l2_profile(f)
        assert float(np.sum(prof) * g2.spacing) <= SQRT2 * b_norm(f)
