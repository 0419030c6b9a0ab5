import collections
import sys

import numpy as np
import pytest

from laplab.family import FamilySpec, standard_family
from laplab.lattice import (Field, GridSpec, PHYSICAL, forward_transform,
                            inverse_transform, sample)
from laplab.multiplier import (CutoffSpec, apply_symbol, apply_values,
                               bessel_values, chi_values,
                               free_resolvent, pm_values,
                               shell_radial_resolution)
from laplab.spaces import (LorentzExponents, b_norm, bstar_norm,
                           lorentz_norm, stein_tomas_exponent)

from conftest import gaussian_field


@pytest.fixture(scope="module")
def gchi():
    # wide box: the shell cutoffs need >= 8 radial frequency steps
    return GridSpec(2, 80.0, 640)


class TestApplySymbol:
    def test_identity(self, g2, gauss2):
        out = apply_symbol(np.ones(g2.shape), gauss2)
        assert np.max(np.abs(out.values - gauss2.values)) < 1e-12

    def test_bessel_inverse_pair(self, g2, gauss2):
        u = apply_symbol(bessel_values(g2, 1.3), gauss2)
        back = apply_symbol(bessel_values(g2, -1.3), u)
        rel = np.max(np.abs(back.values - gauss2.values)) \
            / np.max(np.abs(gauss2.values))
        assert rel < 1e-10

    def test_s2_matches_finite_differences(self):
        g = GridSpec(2, 8.0, 128)
        f = sample(lambda x, y: np.exp(-(x**2 + y**2) / 2.0), g)
        s2 = apply_symbol(bessel_values(g, 2.0), f).values.real
        v = f.values.real
        h = g.spacing
        lap = (np.roll(v, 1, 0) + np.roll(v, -1, 0) + np.roll(v, 1, 1)
               + np.roll(v, -1, 1) - 4 * v) / h**2
        fd = v - lap
        err = np.max(np.abs(s2 - fd))
        assert err < 5.0 * h**2    # second-order accuracy of the stencil

    def test_bessel_array_cached_read_only(self, g2):
        s = bessel_values(g2, 1.3)
        assert bessel_values(g2, 1.3) is s
        with pytest.raises(ValueError, match="read-only"):
            s[0, 0] = 1.0
        np.testing.assert_array_equal(
            s, (1.0 + sum(x**2 for x in g2.freq_grids())) ** 0.65)


class TestApplyValues:
    @pytest.mark.parametrize("d,n", [(2, 64), (3, 32), (4, 16)])
    def test_physical_matches_transform_pair(self, d, n):
        g = GridSpec(d, 6.8, n)
        rng = np.random.default_rng(n + d)
        f = Field(g, rng.standard_normal(g.shape)
                  + 1j * rng.standard_normal(g.shape), PHYSICAL)
        vals = 1.0 / (pm_values(g, 1) + 0.5 - 0.25j)
        F = forward_transform(f)
        ref = inverse_transform(
            F.with_values(np.fft.fftshift(vals) * F.values))
        out = apply_values(vals, f)
        assert out.domain_tag == PHYSICAL
        rel = np.max(np.abs(out.values - ref.values)) / np.max(np.abs(ref.values))
        assert rel <= 1e-14

    def test_symbols_are_in_fft_order(self, g2, gauss2):
        # zero frequency first; shifted, the sorted frequency lattice of the
        # spectral fields
        pm = pm_values(g2, 1)
        assert pm.flat[0] == 0.0
        xi = np.meshgrid(*([g2.axis_freqs()] * g2.dimension), indexing="ij")
        assert np.array_equal(np.fft.fftshift(pm), sum(x**2 for x in xi))
        with pytest.raises(ValueError, match="physical"):
            apply_values(pm, forward_transform(gauss2))


class TestFreeResolvent:
    def test_one_fft_pair_per_call(self, g3, gauss3, monkeypatch):
        calls = collections.Counter()

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("fftn", "ifftn"):
            monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
        laplab_modules = [mod for key, mod in sys.modules.items()
                          if key == "laplab" or key.startswith("laplab.")]
        for mod in laplab_modules:
            for name in ("forward_transform", "inverse_transform"):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name,
                                        counted("transform", getattr(mod, name)))
        free_resolvent(-1.0 + 0.5j, 1, gauss3)
        assert calls == {"fftn": 1, "ifftn": 1}

    def test_defining_relation(self, g2, gauss2):
        u = free_resolvent(-1.0, 1, gauss2)
        back = apply_values(pm_values(g2, 1), u)
        resid = back.values - (-1.0) * u.values - gauss2.values
        assert np.max(np.abs(resid)) < 1e-10 * np.max(np.abs(gauss2.values))

    def test_first_resolvent_identity(self, g2, gauss2):
        z1, z2 = -0.7 + 0.3j, 1.1 + 0.5j
        lhs = free_resolvent(z1, 2, gauss2).values \
            - free_resolvent(z2, 2, gauss2).values
        rhs = (z1 - z2) * free_resolvent(
            z1, 2, free_resolvent(z2, 2, gauss2)).values
        assert np.max(np.abs(lhs - rhs)) < 1e-9 * np.max(np.abs(lhs))

    def test_conjugation(self, g2, gauss2):
        z = 1.0 + 0.25j
        a = free_resolvent(np.conj(z), 1, gauss2).values
        b = np.conj(free_resolvent(z, 1, gauss2).values)
        assert np.max(np.abs(a - b)) < 1e-10 * np.max(np.abs(b))

    def test_rejects_half_axis(self, g2, gauss2):
        for z in (0.0, 1.0, 2.5):
            with pytest.raises(ValueError):
                free_resolvent(z, 1, gauss2)

    def test_symbol_array_cached_read_only(self, g2):
        pm = pm_values(g2, 1)
        assert pm_values(g2, 1) is pm
        with pytest.raises(ValueError, match="read-only"):
            pm[0, 0] = 1.0

    def test_rejects_near_lattice_value(self, g2, gauss2):
        pm = np.broadcast_to(pm_values(g2, 1), g2.shape)
        z = complex(np.sort(np.unique(pm))[5]) + 1e-12j
        with pytest.raises(ValueError, match="lattice"):
            free_resolvent(z, 1, gauss2)


class TestChiLambda:
    def test_plateau_and_support(self, gchi):
        spec = CutoffSpec(1.0, 1)
        chi = chi_values(gchi, spec)
        pm = np.broadcast_to(pm_values(gchi, 1), gchi.shape)
        assert np.all((chi >= 0.0) & (chi <= 1.0))
        assert np.all(chi[(pm >= 0.75) & (pm <= 1.25)] == 1.0)
        assert np.all(chi[(pm < 0.5) | (pm > 1.5)] == 0.0)

    def test_value_on_sphere_and_origin(self):
        spec = CutoffSpec(2.0, 2)
        r = 2.0 ** (1.0 / 4.0)
        assert spec.profile(np.array([r ** 4]))[0] == 1.0
        assert spec.profile(np.array([0.0]))[0] == 0.0

    def test_unresolved_shell_rejected(self, g2):
        spec = CutoffSpec(1.0, 1)
        assert shell_radial_resolution(g2, spec) < 8
        with pytest.raises(ValueError, match="n >="):
            chi_values(g2, spec)

    def test_nonsingular_part_uniformly_bounded(self, gchi):
        # (1 - chi)(xi) (1 + |xi|^2)^m / (|xi|^{2m} - lambda): finite sup,
        # stable across lambda in [delta, 1/delta]
        sups = []
        pm = np.broadcast_to(pm_values(gchi, 1), gchi.shape)
        xi2 = pm
        for lam in (0.5, 0.75, 1.0, 1.5, 2.0):
            chi = chi_values(gchi, CutoffSpec(lam, 1))
            denom = pm - lam
            sym = np.where(np.abs(1.0 - chi) > 0,
                           (1.0 - chi) * (1.0 + xi2) / denom, 0.0)
            sups.append(np.max(np.abs(sym)))
        assert np.all(np.isfinite(sups))
        assert max(sups) / min(sups) < 4.0

    def test_weighted_multiplier_gamma_uniformity(self, gchi):
        # ratios ||mu phi(D) mu^{-1} f|| / ||f|| for phi = chi_lambda S_alpha.
        # The gamma -> 0 limit is the uniform constant; ratios increase toward
        # it as gamma decreases and saturate once the crossover radius
        # gamma^{-1/2} leaves the box, so stability within factor 2 is checked
        # on the saturated tail of the gamma grid (gamma <= 1/L^2); larger
        # gammas are only required to stay below the saturated constant.
        fam = standard_family(gchi, FamilySpec(count=3, seed=4))
        pd, _ = stein_tomas_exponent(2)
        lor = LorentzExponents(pd, 2.0)
        phi = chi_values(gchi, CutoffSpec(1.0, 1)) * bessel_values(gchi, 1.0)
        gammas = (1.0, 0.1, 0.01, 1e-5, 1e-6, 1e-8)
        saturated = [g_ for g_ in gammas if g_ <= gchi.half_width ** (-2)]
        assert len(saturated) >= 2
        r = gchi.radius_grid()
        for N in (1.0, 2.0):
            consts = {"lorentz": {}, "b": {}, "bstar": {}}
            for gamma in gammas:
                # the weight interpolating 1 and (1 + |x|^2)^N
                mu = ((1.0 + r**2) / (1.0 + gamma * r**2)) ** N
                worst = {"lorentz": 0.0, "b": 0.0, "bstar": 0.0}
                for _, f in fam:
                    conj = f.with_values(mu * apply_symbol(
                        phi, f.with_values(f.values / mu)).values)
                    for key, norm in (("lorentz", lambda u: lorentz_norm(u, lor)),
                                      ("b", b_norm), ("bstar", bstar_norm)):
                        denom = norm(f)
                        if denom > 0:
                            worst[key] = max(worst[key], norm(conj) / denom)
                for key in consts:
                    consts[key][gamma] = worst[key]
            for key, vals in consts.items():
                limit = max(vals[g_] for g_ in saturated)
                # gamma-independent bound: every gamma stays below the limit
                assert all(v <= limit * (1 + 1e-6) for v in vals.values()), \
                    (key, N, vals)
                tail = [vals[g_] for g_ in saturated]
                assert max(tail) / min(tail) < 2.0, (key, N, vals)
