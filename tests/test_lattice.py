import numpy as np
import pytest

from laplab.lattice import (Field, GridSpec, PHYSICAL, SPECTRAL,
                            SpectralInterpolator, boundary_mass_ratio,
                            forward_transform, inverse_transform,
                            nudft_forward, parseval_defect, sample)

from conftest import gaussian_field


class TestGridSpec:
    def test_spacing_and_freq_step(self, g2):
        assert g2.spacing == pytest.approx(2 * 6.8 / 128)
        assert g2.freq_step == pytest.approx(np.pi / 6.8)

    def test_freq_axis_covers_half_open_box(self, g2):
        xi = g2.axis_freqs()
        assert xi[0] == pytest.approx(-np.pi * 128 / (2 * 6.8))
        assert xi[-1] == pytest.approx(np.pi * 128 / (2 * 6.8) - g2.freq_step)

    def test_rejects_odd_n(self):
        with pytest.raises(ValueError):
            GridSpec(2, 4.0, 33)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            GridSpec(2, 4.0, 8)

    def test_rejects_bad_dimension(self):
        for d in (1, 5):
            with pytest.raises(ValueError):
                GridSpec(d, 4.0, 32)

    def test_memory_budget(self):
        with pytest.raises(ValueError):
            GridSpec(4, 4.0, 256)   # 256^4 > default budget


class TestField:
    def test_caller_array_stays_writable(self, g2):
        a = np.zeros(g2.shape, dtype=np.complex128)
        f = Field(g2, a, PHYSICAL)
        assert a.flags.writeable
        assert not f.values.flags.writeable
        assert np.shares_memory(f.values, a)    # a view, not a copy


def _explicit_phase(grid):
    """(-1)^{j_1+...+j_d} on the sorted frequency lattice."""
    j = np.arange(grid.points_per_axis) - grid.points_per_axis // 2
    return (-1.0) ** sum(np.meshgrid(*([j] * grid.dimension), indexing="ij"))


def _reference_forward(f):
    g = f.grid
    n, d = g.points_per_axis, g.dimension
    spec = np.fft.fftshift(np.fft.ifftn(f.values)) * (n**d * g.cell_volume)
    return spec * _explicit_phase(g)


def _reference_inverse(F):
    g = F.grid
    vals = np.fft.fftn(np.fft.ifftshift(F.values * _explicit_phase(g)))
    return vals * (1.0 / (2.0 * g.half_width)) ** g.dimension


class TestSample:
    def test_constant(self, g2):
        f = sample(lambda x, y: np.ones_like(x + y), g2)
        assert np.all(f.values == 1.0)

    def test_gaussian_peak_at_origin(self):
        g = GridSpec(2, 10.0, 64)
        f = sample(lambda x, y: np.exp(-(x**2 + y**2) / 2.0), g)
        k = np.unravel_index(np.argmax(np.abs(f.values)), g.shape)
        assert all(g.axis_coords()[i] == 0.0 for i in k)
        assert np.max(np.abs(f.values)) == 1.0

    def test_odd_function_antisymmetric(self, g2):
        f = sample(lambda x, y: x * np.exp(-(x**2 + y**2)), g2)
        v = f.values
        # x -> -x maps node j to n - j (node 0 has no mirror)
        flipped = v[1:, 1:][::-1, ::-1]
        assert np.allclose(flipped, -v[1:, 1:], atol=1e-15)

    def test_nonfinite_rejected(self, g2):
        # the lattice holds the origin: the division by zero is the point
        with np.errstate(divide="ignore"), \
                pytest.raises(ValueError, match="non-finite"):
            sample(lambda x, y: 1.0 / (x**2 + y**2), g2)


class TestTransforms:
    def test_gaussian_closed_form(self):
        # box large enough that the e^{-L^2/2} truncation tail is below the
        # 1e-8 relative target on |xi| <= 5
        g = GridSpec(2, 10.0, 128)
        f = sample(lambda x, y: np.exp(-(x**2 + y**2) / 2.0), g)
        F = forward_transform(f)
        xi2 = sum(x**2 for x in g.freq_grids())
        exact = (2 * np.pi) ** (g.dimension / 2) * np.exp(-xi2 / 2.0)
        mask = np.broadcast_to(xi2, g.shape) <= 25.0
        rel = np.abs(F.values - exact)[mask] / np.abs(exact)[mask]
        assert np.max(rel) < 1e-8

    def test_real_even_transform_is_real(self, g2, gauss2):
        F = forward_transform(gauss2)
        assert np.max(np.abs(F.values.imag)) < 1e-10 * np.max(np.abs(F.values))

    def test_modulation_law(self, g2):
        a = (1.5 * g2.freq_step, -3.0 * g2.freq_step)   # lattice-aligned shift not required
        f = gaussian_field(g2, wavevector=a)
        pts = np.array([[0.3, -0.4], [1.0, 0.7], [0.0, 0.0]])
        direct = nudft_forward(f, pts)
        base = gaussian_field(g2)
        shifted = nudft_forward(base, pts + np.asarray(a))
        assert np.allclose(direct, shifted, rtol=1e-12, atol=1e-12)

    def test_round_trip(self, g2, gauss2):
        back = inverse_transform(forward_transform(gauss2))
        rel = np.max(np.abs(back.values - gauss2.values)) / np.max(np.abs(gauss2.values))
        assert rel < 1e-12

    def test_random_round_trip(self, g2):
        rng = np.random.default_rng(7)
        f = Field(g2, rng.standard_normal(g2.shape)
                  + 1j * rng.standard_normal(g2.shape), PHYSICAL)
        back = inverse_transform(forward_transform(f))
        rel = np.max(np.abs(back.values - f.values)) / np.max(np.abs(f.values))
        assert rel < 1e-12

    @pytest.mark.parametrize("d,n", [(2, 16), (2, 128), (3, 32), (4, 16)])
    def test_bitwise_equal_to_explicit_phase(self, d, n):
        g = GridSpec(d, 6.8, n)
        rng = np.random.default_rng(d * n)
        a = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        assert np.array_equal(forward_transform(Field(g, a, PHYSICAL)).values,
                              _reference_forward(Field(g, a, PHYSICAL)))
        assert np.array_equal(inverse_transform(Field(g, a, SPECTRAL)).values,
                              _reference_inverse(Field(g, a, SPECTRAL)))

    def test_spectral_delta_gives_constant(self, g2):
        spec = np.zeros(g2.shape, dtype=complex)
        spec[64, 64] = 1.0   # xi = 0 node
        f = inverse_transform(Field(g2, spec, SPECTRAL))
        assert np.allclose(f.values, f.values.flat[0])

    def test_parseval(self, g2, gauss2):
        assert parseval_defect(gauss2) < 1e-10

    def test_linearity(self, g2, gauss2):
        g = gaussian_field(g2, width=0.7, wavevector=(1.0, -0.5))
        lhs = forward_transform(gauss2.with_values(
            2.0 * gauss2.values - 1.5j * g.values))
        rhs = (2.0 * forward_transform(gauss2).values
               - 1.5j * forward_transform(g).values)
        assert np.allclose(lhs.values, rhs, rtol=1e-12, atol=1e-10)

    def test_conjugation_symmetry(self, g2):
        rng = np.random.default_rng(3)
        f = Field(g2, rng.standard_normal(g2.shape) + 0j, PHYSICAL)
        F = forward_transform(f).values
        # xi -> -xi maps index j to n - j for j >= 1
        refl = F[1:, 1:][::-1, ::-1]
        assert np.allclose(refl, np.conj(F[1:, 1:]), atol=1e-9 * np.max(np.abs(F)))

    def test_domain_tag_enforced(self, gauss2):
        with pytest.raises(ValueError):
            inverse_transform(gauss2)
        with pytest.raises(ValueError):
            forward_transform(forward_transform(gauss2))


class TestOffLattice:
    def test_interpolator_matches_nudft(self, g2, gauss2):
        rng = np.random.default_rng(11)
        pts = rng.uniform(-3.0, 3.0, size=(40, 2))
        fast = SpectralInterpolator(gauss2)(pts)
        slow = nudft_forward(gauss2, pts)
        assert np.max(np.abs(fast - slow)) < 1e-8 * np.max(np.abs(slow))

    def test_boundary_mass_ratio(self, g2, gauss2):
        assert boundary_mass_ratio(gauss2) < 1e-9
        wide = gaussian_field(g2, width=5.0)
        assert boundary_mass_ratio(wide) > 1e-2
