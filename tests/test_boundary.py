"""Boundary-value pairings, the full-field boundary operator, and the
oscillatory kernel."""

import dataclasses
import functools
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal

from laplab import boundary
from laplab.boundary import (
    EPS_SEQUENCE,
    MEMO_SIZE,
    BoundarySpec,
    boundary_apply,
    boundary_pairing,
    decay_scan,
    epsilon_limit_pairing,
    epsilon_pairing,
    graph_and_weight,
    kernel_k_plus,
    radial_cutoff,
    radial_reductions,
    richardson_limit,
    sphere_restriction_norm,
    _build_reductions,
    _debye_sum,
    _debye_terms,
    _gauss_legendre,
    _geometric_edges,
    _MEMO,
    _PairKey,
    _panel_nodes,
    _RadialReduction,
)
from laplab.lattice import (Field, GridSpec, PHYSICAL, SpectralInterpolator,
                            forward_transform, inverse_transform,
                            nudft_forward)
from laplab.multiplier import pm_values
from laplab.spaces import b_norm, bstar_norm

from conftest import PROPERTY, gaussian_field, unit_sphere_rule


class TestSphereQuadrature:
    def test_total_weight_is_sphere_area(self):
        for d, area in ((2, 2.0 * np.pi), (3, 4.0 * np.pi)):
            for n_polar in (8, 24, 64):
                _, wts = unit_sphere_rule(d, n_polar)
                assert np.sum(wts) == pytest.approx(area, rel=1e-12)

    def test_nodes_on_sphere(self):
        dirs, _ = unit_sphere_rule(3, 32)
        radii = np.sqrt(np.sum(dirs**2, axis=1))
        assert np.max(np.abs(radii - 1.0)) < 1e-12

    def test_polynomial_exactness_d3(self):
        # integral of z^2 over the unit sphere is 4 pi / 3
        dirs, wts = unit_sphere_rule(3, 24)
        val = np.sum(wts * dirs[:, 2] ** 2)
        assert val == pytest.approx(4.0 * np.pi / 3.0, rel=1e-12)


class TestBoundarySpec:
    def test_sign_validation(self):
        with pytest.raises(ValueError, match="sign"):
            BoundarySpec(lam=1.0, sign=2)

    def test_delta_validation(self):
        with pytest.raises(ValueError, match="delta"):
            BoundarySpec(lam=1.0, delta=0.0)

    def test_lambda_window(self):
        with pytest.raises(ValueError, match="outside"):
            BoundarySpec(lam=3.0, delta=0.5)
        BoundarySpec(lam=3.0, delta=0.25)  # wider window admits it

    def test_r_and_eps_sequence(self):
        spec = BoundarySpec(lam=16.0, m=2, delta=1.0 / 16.0)
        assert spec.r == pytest.approx(2.0)
        # richardson_limit's default ratio, and enough values for order 2
        assert len(EPS_SEQUENCE) >= 3
        assert np.allclose(EPS_SEQUENCE[1:] / EPS_SEQUENCE[:-1], 0.5)


class TestGraphAndWeight:
    def test_north_pole(self):
        for m in (1, 2, 3):
            lam = 1.7
            r = lam ** (1.0 / (2 * m))
            phi, q = graph_and_weight(lam, m, np.zeros((1, 1)))
            assert phi == pytest.approx(r, rel=1e-12)
            assert q == pytest.approx(1.0 / (2 * m * r ** (2 * m - 1)), rel=1e-12)

    def test_defining_identity(self):
        xi = np.array([[0.3], [0.5], [-0.7]])
        phi, _ = graph_and_weight(1.0, 1, xi)
        assert np.max(np.abs(xi[:, 0] ** 2 + phi**2 - 1.0)) < 1e-12

    def test_pythagorean_point(self):
        phi, _ = graph_and_weight(1.0, 1, np.array([[0.6]]))
        assert phi == pytest.approx(0.8, rel=1e-12)

    def test_outside_graph_rejected(self):
        with pytest.raises(ValueError, match="graph"):
            graph_and_weight(1.0, 1, np.array([[1.0]]))


@pytest.fixture(scope="module")
def g10():
    return GridSpec(2, 10.0, 128)


@pytest.fixture(scope="module")
def gauss10(g10):
    return gaussian_field(g10, 1.0)


class TestPairing:
    def test_imaginary_part_circle_oracle(self, g10, gauss10):
        # Im < R_0(lam + i0) f, f > equals the circle integral of |fhat|^2;
        # for the unit Gaussian fhat has the closed form 2 pi exp(-|xi|^2/2)
        spec = BoundarySpec(lam=1.0, sign=+1, m=1)
        P = boundary_pairing(gauss10, gauss10, spec)
        dirs, wts = unit_sphere_rule(2, 64)
        fh = 2.0 * np.pi * math.exp(-spec.r**2 / 2.0)
        oracle = (np.pi * (2.0 * np.pi) ** (-2) / (2 * spec.m)
                  * spec.r ** (2 - 2 * spec.m) * np.sum(wts) * fh**2)
        assert P.imag == pytest.approx(oracle, rel=1e-6)

    def test_epsilon_limit_agrees(self, gauss10):
        spec = BoundarySpec(lam=1.0, sign=+1, m=1)
        P = boundary_pairing(gauss10, gauss10, spec)
        Pe = epsilon_limit_pairing(gauss10, gauss10, spec)
        assert abs(Pe - P) / abs(P) < 1e-5

    def test_sign_conjugates_self_pairing(self, gauss10):
        Pp = boundary_pairing(gauss10, gauss10, BoundarySpec(lam=1.0, sign=+1))
        Pm = boundary_pairing(gauss10, gauss10, BoundarySpec(lam=1.0, sign=-1))
        assert Pm == pytest.approx(np.conj(Pp), rel=1e-10)

    def test_support_away_from_shell(self):
        # fhat concentrated near 0: the delta term is negligible and the
        # pairing reduces to the plain lattice integral; for f = g the p.v.
        # part is real, so Im P is exactly the delta term
        g = GridSpec(2, 20.0, 160)
        f = gaussian_field(g, 6.0)
        spec = BoundarySpec(lam=2.0, sign=+1, m=1)
        P = boundary_pairing(f, f, spec)
        Fh = forward_transform(f)
        pm = np.fft.fftshift(pm_values(g, 1))
        plain = ((2.0 * np.pi) ** (-2) * g.freq_cell_volume
                 * np.sum(np.abs(Fh.values) ** 2 / (pm - spec.lam)))
        assert abs(P.imag) / abs(P) < 1e-5
        assert abs(P - plain) / abs(plain) < 1e-4

    @PROPERTY
    @given(lam=st.floats(0.5, 2.0), width=st.floats(0.5, 1.5),
           shift=st.floats(-1.0, 1.0), k=st.floats(-1.5, 1.5))
    def test_sign_conjugates_property(self, lam, width, shift, k):
        f = gaussian_field(GridSpec(2, 6.8, 32), width, center=(shift, 0.0),
                           wavevector=(k, 0.5))
        plus = boundary_pairing(f, f, BoundarySpec(lam=lam, sign=+1))
        minus = boundary_pairing(f, f, BoundarySpec(lam=lam, sign=-1))
        assert minus == pytest.approx(np.conj(plus), rel=1e-10)

    def test_holder_continuity_in_lambda(self, gauss10):
        h = 0.01
        P = boundary_pairing(gauss10, gauss10, BoundarySpec(lam=1.0))
        Ph = boundary_pairing(gauss10, gauss10, BoundarySpec(lam=1.0 + h))
        assert abs(Ph - P) <= math.sqrt(h) * abs(P)

    def test_grid_mismatch_rejected(self, gauss10, g2):
        other = gaussian_field(g2, 1.0)
        with pytest.raises(ValueError, match="grid"):
            boundary_pairing(gauss10, other, BoundarySpec(lam=1.0))

    def test_spectral_field_rejected(self, gauss10):
        fh = forward_transform(gauss10)
        with pytest.raises(ValueError, match="physical"):
            boundary_pairing(fh, fh, BoundarySpec(lam=1.0))

    def test_sphere_beyond_table_rejected(self, monkeypatch):
        # r = sqrt(2) lies past the radial cutoff 0.549 of this coarse wide
        # grid; the pairings used to march panels away from rho_max forever
        grid = GridSpec(2, 40.0, 16)
        assert radial_cutoff(grid) < BoundarySpec(lam=2.0).r
        f = gaussian_field(grid, 1.0)
        # refused before the reduction is built or any quadrature runs
        monkeypatch.setattr(boundary, "_MEMO", None)
        spec = BoundarySpec(lam=2.0)
        for fn in (boundary_pairing, epsilon_limit_pairing,
                   functools.partial(epsilon_pairing, eps=0.1)):
            with pytest.raises(ValueError, match="radial cutoff"):
                fn(f, f, spec)

    def test_geometric_edges_refuse_nonpositive_scale(self):
        for scale in (0.0, -0.389):
            with pytest.raises(ValueError, match="scale"):
                _geometric_edges(1.0, 2.0, scale)
        assert _geometric_edges(1.0, 4.0, 0.5) == [1.0, 1.5, 2.5, 4.0]
        assert _geometric_edges(1.0, 0.0, 0.5) == [1.0, 0.5, 0.0]

    def test_panel_nodes_of_many_panels(self):
        # 4 nodes per panel integrate a degree-7 polynomial exactly on each
        edges = np.array([0.0, 0.1, 0.3, 0.7, 1.5])
        x, w = _panel_nodes(edges[:-1], edges[1:], 4)
        assert x.shape == w.shape == (16,)
        assert np.all(np.diff(x) > 0)
        assert np.sum(w * x**7) == pytest.approx(1.5**8 / 8, rel=1e-14)
        # a single panel from scalar ends
        x1, w1 = _panel_nodes(0.3, 0.7, 4)
        assert np.array_equal(x1, x[8:12]) and np.array_equal(w1, w[8:12])


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 16, 17, 47, 48, 127, 128,
                                   255, 256, 257, 383, 384, 406, 511, 512])
    def test_matches_independent_rules(self, n):
        x, w = _gauss_legendre(n)
        x0, w0 = leggauss(n)
        assert np.max(np.abs(x - x0)) <= 4e-16
        # Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix and
        # the weights 2 v_0^2, v_0 the first component of each eigenvector
        k = np.arange(1, n)
        _, v = eigh_tridiagonal(np.zeros(n), k / np.sqrt(4.0 * k * k - 1.0))
        assert np.max(np.abs(w - 2.0 * v[0] ** 2)) <= 1e-14
        # leggauss takes its weights at the eigenvalue nodes before its Newton
        # step; its end weights are off by up to 3.0e-14 for n <= 512
        assert np.max(np.abs(w - w0)) <= 4e-14

    @pytest.mark.parametrize("n", [546, 1537, 6000, 6001])
    def test_large_rules(self, n):
        x, w = _gauss_legendre(n)
        assert x.shape == w.shape == (n,)
        assert np.all(np.diff(x) > 0) and np.all(w > 0)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        # exact for degree 2n - 1: the even moments 2/(2j + 1), Sum w = 2
        j = np.arange(64)
        moments = (x[:, None] ** (2 * j) * w[:, None]).sum(axis=0)
        assert np.max(np.abs(moments - 2.0 / (2 * j + 1))) <= 1e-13

    def test_unconverged_newton_raises(self, monkeypatch):
        monkeypatch.setattr(boundary, "NEWTON_STEPS", 1)
        with pytest.raises(ArithmeticError, match="unconverged"):
            _gauss_legendre.__wrapped__(48)


def sphere_area(d):
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def gaussian_angular(d, rho):
    """I(rho) of the unit Gaussian, whose |fhat|^2 is (2 pi)^d exp(-rho^2)."""
    return sphere_area(d) * (2.0 * np.pi) ** d * np.exp(-np.square(rho))


def gaussian_pairing(d, lam):
    """< R_0(lam + i0) f, f > of the unit Gaussian for m = 1, the p.v. by
    QUADPACK's Cauchy weight."""
    r = math.sqrt(lam)
    near, _ = quad(lambda rho: rho ** (d - 1) * gaussian_angular(d, rho)
                   / (rho + r), 0.0, 2.0 * r, weight="cauchy", wvar=r,
                   epsabs=0.0, epsrel=1e-13, limit=200)
    far, _ = quad(lambda rho: rho ** (d - 1) * gaussian_angular(d, rho)
                  / (rho * rho - lam), 2.0 * r, np.inf,
                  epsabs=0.0, epsrel=1e-13, limit=200)
    surface = math.pi * r ** (d - 2) * gaussian_angular(d, r) / 2.0
    return (2.0 * np.pi) ** (-d) * complex(near + far, surface)


@pytest.fixture(scope="module")
def g4():
    return GridSpec(4, 6.0, 24)


def offset_and_modulated(grid):
    d = grid.dimension
    return (gaussian_field(grid, 0.7, center=(1.0,) + (0.0,) * (d - 1)),
            gaussian_field(grid, 1.0, wavevector=(1.0,) + (0.0,) * (d - 1)))


@functools.lru_cache(maxsize=None)
def offset_reduction(d):
    """The reduction of the offset and modulated Gaussians on the d=2 or d=3
    test grid, and the largest |I| on [0, rho_max]."""
    grid = GridSpec(d, 6.8, {2: 128, 3: 32}[d])
    red = _build_reductions([offset_and_modulated(grid)])[0]
    scale = np.max(np.abs(red.debye_sum(np.linspace(0.0, red.rho_max, 400))))
    return red, scale


class TestRadialReduction:
    @pytest.mark.parametrize("grid, tol", [("g2", 1e-9), ("g3", 1e-9),
                                           ("g4", 1e-7)])
    def test_gaussian_closed_form(self, request, grid, tol):
        grid = request.getfixturevalue(grid)
        f = gaussian_field(grid, 1.0)
        red = _build_reductions([(f, f)])[0]
        rho = np.linspace(0.0, 3.0, 31)
        exact = gaussian_angular(grid.dimension, rho)
        assert np.max(np.abs(red.angular(rho) - exact) / exact) < tol

    @pytest.mark.parametrize("grid", ["g2", "g3"])
    def test_spline_oracle(self, request, grid):
        # the padded spline on a sphere rule is an independent path to I(rho)
        grid = request.getfixturevalue(grid)
        f, g = offset_and_modulated(grid)
        red = _build_reductions([(f, g)])[0]
        dirs, wts = unit_sphere_rule(grid.dimension, 48)
        sf, sg = SpectralInterpolator(f), SpectralInterpolator(g)
        rho = np.array([0.3, 0.7, 1.0, 1.6, 2.4])
        spline = np.array([np.sum(wts * sf(p * dirs) * np.conj(sg(p * dirs)))
                           for p in rho])
        err = np.max(np.abs(red.angular(rho) - spline))
        assert err < 1e-7 * np.max(np.abs(spline))

    @pytest.mark.parametrize("same", [True, False])
    def test_debye_terms_match_bincount(self, same):
        # the chunked shell sums make the additions of one bincount over the
        # whole padded correlation, in the same order, so they agree to the
        # bit; 80^3 offsets span two chunks
        grid = GridSpec(3, 6.8, 40)
        f, g = offset_and_modulated(grid)
        g = f if same else g
        fft = functools.partial(np.fft.fftn, s=(80, 80, 80), axes=(0, 1, 2))
        spec = fft(f.values)
        spec *= np.conj(fft(g.values))
        corr = np.fft.ifftn(spec, out=spec).ravel()
        k = np.fft.fftfreq(80, 1.0 / 80).astype(np.int64) ** 2
        k2 = sum(np.ix_(k, k, k)).ravel()
        sums = (np.bincount(k2, weights=corr.real)
                + 1j * np.bincount(k2, weights=corr.imag))
        shells = np.flatnonzero(np.bincount(k2))
        radii, weights = _debye_terms([(f, g)])
        assert np.array_equal(radii, grid.spacing * np.sqrt(shells))
        assert np.array_equal(weights[:, 0], grid.spacing**6 * sums[shells])

    def test_table_matches_debye_sum(self, g2):
        f, g = offset_and_modulated(g2)
        red = _build_reductions([(f, g)])[0]
        scale = np.max(np.abs(red.debye_sum(
            np.linspace(0.0, red.rho_max, 400))))
        rho = np.random.default_rng(5).uniform(0.0, red.rho_max, 200)
        err = np.max(np.abs(red.angular(rho) - red.debye_sum(rho)))
        assert err < 1e-12 * scale

    def test_debye_sum_is_the_complex_product(self, g2):
        # the real products against the complex one, over several blocks,
        # for each column of a weight matrix; the complex pair's column has
        # weights with nonzero imaginary parts
        f, g = offset_and_modulated(g2)
        radii, weights = _debye_terms([(f, g), (f, f), (g, g)])
        assert np.max(np.abs(weights[:, 0].imag)) > 0
        rho = np.linspace(0.0, radial_cutoff(g2), 400)
        sums = _debye_sum(2, rho, radii, weights)
        assert sums.shape == (400, 3)
        sigma = boundary._sphere_ft(2, np.outer(rho, radii))
        for w, column in zip(weights.T, sums.T):
            plain = sigma @ w
            err = np.max(np.abs(column - plain))
            assert err <= 1e-14 * np.max(np.abs(plain))
        # a matrix of one column is the 1-D weights, to the bit
        one = _debye_sum(2, rho, radii, weights[:, :1])
        assert one.shape == (400, 1)
        assert np.array_equal(one[:, 0], _debye_sum(2, rho, radii,
                                                    weights[:, 0].copy()))

    @PROPERTY
    @given(d=st.sampled_from([2, 3]),
           frac=st.lists(st.floats(0.0, 1.0), max_size=40))
    def test_evaluator_matches_debye_sum(self, d, frac):
        # the baby-step / giant-step table against the direct Debye sum, at
        # random radii and both ends of [0, rho_max]
        red, scale = offset_reduction(d)
        rho = red.rho_max * np.concatenate([[0.0, 1.0], frac])
        err = np.max(np.abs(red.angular(rho) - red.debye_sum(rho)))
        assert err < 1e-12 * scale

    def test_evaluator_shapes(self):
        red, _ = offset_reduction(2)
        for rho in (0.5, np.float64(0.5), [0.5]):
            value = red.angular(rho)
            assert value.shape == (1,) and value.dtype == complex
            assert red.F(rho, BoundarySpec(lam=1.0)).shape == (1,)
        # the matrix products may round a batch differently from one node
        assert red.angular(0.5)[0] == pytest.approx(
            red.angular(np.array([0.5, 1.0]))[0], rel=1e-14)
        assert red.angular(np.array([])).shape == (0,)
        assert red.F(np.array([]), BoundarySpec(lam=1.0)).shape == (0,)

    def test_one_table_evaluation_per_quadrature(self, monkeypatch):
        # every panel's nodes go through I(rho) in one call per quadrature
        red, _ = offset_reduction(2)
        sizes = []
        angular = _RadialReduction.angular

        def counted(self, rho):
            sizes.append(np.size(rho))
            return angular(self, rho)

        monkeypatch.setattr(_RadialReduction, "angular", counted)
        spec = BoundarySpec(lam=1.0)
        boundary._eps_quadrature(red, spec, 0.05, 32)
        boundary._pv_radial(red, spec, 0.0, 32)
        assert len(sizes) == 2 and min(sizes) > 32

    def test_d4_gaussian_pairing(self, g4):
        f = gaussian_field(g4, 1.0)
        spec = BoundarySpec(lam=1.0)
        P = boundary_pairing(f, f, spec)
        exact = gaussian_pairing(4, spec.lam)
        assert abs(P - exact) / abs(exact) < 1e-7
        Pe = epsilon_limit_pairing(f, f, spec)
        assert abs(Pe - P) / abs(P) < 1e-5

    @pytest.mark.parametrize("grid, tol", [("g2", 1e-9), ("g3", 1e-9),
                                           ("g4", 1e-7)])
    def test_restriction_norm_closed_form(self, request, grid, tol):
        grid = request.getfixturevalue(grid)
        f = gaussian_field(grid, 1.0)
        d = grid.dimension
        for r in (0.5, 1.0, 2.0):
            exact = math.sqrt(r ** (d - 1) * gaussian_angular(d, r))
            assert sphere_restriction_norm(f, r) == pytest.approx(exact,
                                                                  rel=tol)

    def test_zero_field(self, g3):
        zero = Field(g3, np.zeros(g3.shape), PHYSICAL)
        assert boundary_pairing(zero, zero, BoundarySpec(lam=1.0)) == 0
        assert sphere_restriction_norm(zero, 1.0) == 0


    def test_memo_shares_one_reduction(self, g2):
        # both backends at three lambdas build one table, and every value is
        # the bits of a cold-memo computation
        f = gaussian_field(g2, 1.0)
        calls = [(fn, BoundarySpec(lam=lam))
                 for lam in (0.5, 1.0, 2.0)
                 for fn in (boundary_pairing, epsilon_limit_pairing)]
        _MEMO.clear()
        shared = [fn(f, f, spec) for fn, spec in calls]
        assert _MEMO.builds == 1
        for (fn, spec), value in zip(calls, shared):
            _MEMO.clear()
            assert fn(f, f, spec) == value

    def test_pair_key_digests_a_self_pair_once(self, g2, monkeypatch):
        f = gaussian_field(g2, 1.0)
        copy = Field(g2, f.values.copy(), PHYSICAL)
        calls = []
        blake2b = boundary.hashlib.blake2b
        monkeypatch.setattr(boundary.hashlib, "blake2b",
                            lambda *a, **k: calls.append(1) or blake2b(*a, **k))
        same = _PairKey(f, f)
        assert len(calls) == 1
        assert _PairKey(f, copy) == same and len(calls) == 3

    def test_memo_sees_writes_to_caller_array(self, g2):
        # Field keeps a view of the caller's array, so the memo must key on
        # the content, not on the object
        spec = BoundarySpec(lam=1.0)
        arr = gaussian_field(g2, 1.0).values.copy()
        f = Field(g2, arr, PHYSICAL)
        before = boundary_pairing(f, f, spec)
        arr[...] = gaussian_field(g2, 0.7).values
        after = boundary_pairing(f, f, spec)
        _MEMO.clear()
        fresh = Field(g2, arr.copy(), PHYSICAL)
        assert after == boundary_pairing(fresh, fresh, spec)
        assert after != before

    def test_memo_under_thread_contention(self):
        # more threads than cores race to build the same entries; every
        # value must carry the bits of the serial computation
        f = gaussian_field(GridSpec(2, 6.8, 32), 1.0)
        calls = [(fn, BoundarySpec(lam=lam))
                 for lam in (0.5, 1.0, 2.0)
                 for fn in (boundary_pairing, epsilon_limit_pairing)] * 3
        serial = [fn(f, f, spec) for fn, spec in calls]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _MEMO.clear()
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(fn, f, f, spec) for fn, spec in calls]
                threaded = [fut.result(timeout=120) for fut in futures]
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    @pytest.mark.parametrize("grid", ["g2", "g3"])
    def test_batch_is_the_bits_of_single_builds(self, request, grid,
                                                monkeypatch):
        # a batch samples sigmahat as often as one pair does, and each of
        # its reductions carries the bits of the pair's own cold build
        grid = request.getfixturevalue(grid)
        fields = offset_and_modulated(grid) + (gaussian_field(grid, 1.0),)
        pairs = [(f, f) for f in fields]
        calls = []
        sphere_ft = boundary._sphere_ft
        monkeypatch.setattr(boundary, "_sphere_ft",
                            lambda *a: calls.append(1) or sphere_ft(*a))
        batch = _build_reductions(pairs)
        batch_calls = len(calls)
        for pair, red in zip(pairs, batch):
            calls.clear()
            single, = _build_reductions([pair])
            assert len(calls) == batch_calls
            assert (red.d, red.rho_max) == (single.d, single.rho_max)
            for name in ("radii", "weights", "coef"):
                a, b = getattr(red, name), getattr(single, name)
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_batch_fills_what_the_memo_lacks(self):
        grid = GridSpec(2, 6.8, 32)
        fields = offset_and_modulated(grid) + (gaussian_field(grid, 1.0),)
        spec = BoundarySpec(lam=1.0)
        _MEMO.clear()
        boundary_pairing(fields[0], fields[0], spec)
        reds = radial_reductions([(f, f) for f in fields])
        assert _MEMO.builds == 3
        for f, red in zip(fields, reds):
            assert boundary._reduction(f, f, spec) is red
        assert _MEMO.builds == 3
        with pytest.raises(ValueError, match="memo holds at most"):
            radial_reductions([(fields[0], fields[0])] * (MEMO_SIZE + 1))
        other = gaussian_field(GridSpec(2, 6.8, 16), 1.0)
        with pytest.raises(ValueError, match="share a grid"):
            radial_reductions([(fields[0], fields[0]), (other, other)])

    def test_batches_under_thread_contention(self, monkeypatch):
        # batches of one to three pairs race on a memo that holds three of
        # the five pairs, so entries are evicted and rebuilt while other
        # threads read them; every reduction must carry the serial bits
        grid = GridSpec(2, 6.8, 32)
        fields = [gaussian_field(grid, w) for w in (0.6, 0.8, 1.0, 1.2, 1.4)]
        serial = [red.coef.tobytes()
                  for red in _build_reductions([(f, f) for f in fields])]
        memo = boundary._Memo(3)
        monkeypatch.setattr(boundary, "_MEMO", memo)

        def batch(i):
            idx = [(i + k) % 5 for k in range(1 + i % 3)]
            reds = radial_reductions([(fields[j], fields[j]) for j in idx])
            return [red.coef.tobytes() == serial[j]
                    for j, red in zip(idx, reds)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(batch, i) for i in range(48)]
                results = [fut.result(timeout=120) for fut in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(all(r) for r in results) and len(results) == 48
        assert len(memo._table) <= 3 and memo.builds >= 5

    def test_unconverged_quadrature_raises(self, g2, monkeypatch):
        f = gaussian_field(g2, 1.0)
        spec = BoundarySpec(lam=1.0)
        # each quadrature plus its node count: no two doublings agree
        for name in ("_pv_radial", "_eps_quadrature"):
            quadrature = getattr(boundary, name)
            monkeypatch.setattr(boundary, name, lambda *args, q=quadrature:
                                q(*args) + args[-1])
        with pytest.raises(ArithmeticError, match="unconverged"):
            boundary_pairing(f, f, spec)
        with pytest.raises(ArithmeticError, match="unconverged"):
            epsilon_pairing(f, f, spec, 0.1)
        with pytest.raises(ArithmeticError, match="unconverged"):
            epsilon_limit_pairing(f, f, spec)


class TestRichardson:
    def test_polynomial_sequence_exact(self):
        eps = 0.1 * 0.5 ** np.arange(6)
        vals = 3.0 + 2.0 * eps - 1.5 * eps**2
        limit, diverged = richardson_limit(vals)
        assert not diverged
        assert limit == pytest.approx(3.0, abs=1e-12)

    def test_array_sequence(self):
        eps = 0.1 * 0.5 ** np.arange(6)
        base = np.array([3.0, -1.0 + 2.0j, 0.5])
        vals = [base + 2.0 * e - 1.5 * e**2 * base for e in eps]
        limit, diverged = richardson_limit(vals)
        assert not diverged
        np.testing.assert_allclose(limit, base, rtol=0, atol=1e-12)
        # one blowing-up component makes the whole field diverge
        vals = [np.array([3.0 + 2.0 * e, e**-3]) for e in eps]
        _, diverged = richardson_limit(vals)
        assert diverged

    def test_short_sequence_rejected(self):
        with pytest.raises(ValueError, match="3"):
            richardson_limit([1.0, 2.0])

    def test_epsilon_pairing_monotone_refinement(self, gauss10):
        spec = BoundarySpec(lam=1.0, sign=+1, m=1)
        vals = [epsilon_pairing(gauss10, gauss10, spec, e)
                for e in EPS_SEQUENCE]
        limit, diverged = richardson_limit(vals)
        assert not diverged
        P = boundary_pairing(gauss10, gauss10, spec)
        assert abs(limit - P) / abs(P) < 1e-5


class TestBoundaryApply:
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_weak_residual(self, g2, gauss2, lam):
        bf = boundary_apply(gauss2, BoundarySpec(lam=lam, sign=+1, m=1))
        gtest = gaussian_field(g2, 0.7, center=(1.0, 0.0))
        scale = abs(np.sum(gauss2.values * np.conj(gtest.values))
                    * g2.cell_volume)
        assert abs(bf.weak_residual(gtest)) < 1e-8 * max(scale, 1.0)

    def test_weak_residual_d4(self, g4):
        # at n = 24 the unit Gaussian's tails at the box edge and its spectrum
        # at the Nyquist frequency are both near exp(-pi n / 4) = 7e-9
        f = gaussian_field(g4, 1.0)
        bf = boundary_apply(f, BoundarySpec(lam=1.0, sign=+1, m=1))
        scale = abs(np.sum(f.values * np.conj(f.values)) * g4.cell_volume)
        assert abs(bf.weak_residual(f)) < 1e-8 * scale

    @pytest.mark.parametrize("grid, n_polar", [("g2", 128), ("g3", 40)])
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_surface_field_sphere_rule_oracle(self, request, grid, n_polar,
                                              lam):
        # the sphere integral of exp(-i xi.x) fhat(xi), by a fine sphere rule
        # over the direct transform, at 200 random lattice points
        grid = request.getfixturevalue(grid)
        d = grid.dimension
        f, g = offset_and_modulated(grid)
        f = f.with_values(f.values + g.values)
        spec = BoundarySpec(lam=lam, sign=+1, m=1)
        surf = boundary_apply(f, spec).surface_part.values
        dirs, wts = unit_sphere_rule(d, n_polar)
        r = spec.r
        coef = 1j * np.pi * (2.0 * np.pi) ** (-d) * r ** (d - 2) / 2.0
        idx = np.random.default_rng(3).integers(0, grid.points_per_axis,
                                                (200, d))
        x = grid.axis_coords()[idx]
        oracle = coef * np.exp(-1j * r * x @ dirs.T) @ (
            wts * nudft_forward(f, r * dirs))
        err = np.max(np.abs(surf[tuple(idx.T)] - oracle))
        assert err < 1e-13 * np.max(np.abs(oracle))

    def test_weak_residual_detects_wrong_total(self, g2, gauss2):
        bf = boundary_apply(gauss2, BoundarySpec(lam=1.0, sign=+1, m=1))
        doubled = dataclasses.replace(
            bf, total=bf.total.with_values(2.0 * bf.total.values))
        gtest = gaussian_field(g2, 0.7, center=(1.0, 0.0))
        fg = abs(np.sum(gauss2.values * np.conj(gtest.values))
                 * g2.cell_volume)
        # < 2u, (P - lambda) g > - < f, g > = < f, g > up to roundoff
        assert abs(doubled.weak_residual(gtest)) == pytest.approx(fg, rel=1e-8)

    def test_imaginary_positivity(self, g2, gauss2):
        for lam in (0.5, 1.0, 2.0):
            bf = boundary_apply(gauss2, BoundarySpec(lam=lam, sign=+1, m=1))
            pair = g2.cell_volume * np.sum(bf.total.values
                                           * np.conj(gauss2.values))
            assert pair.imag > 0

    def test_sign_swap_conjugates(self, gauss2):
        bp = boundary_apply(gauss2, BoundarySpec(lam=1.0, sign=+1, m=1))
        bm = boundary_apply(gauss2, BoundarySpec(lam=1.0, sign=-1, m=1))
        assert np.max(np.abs(bm.total.values
                             - np.conj(bp.total.values))) < 1e-8

    def test_total_is_pv_plus_surface(self, gauss2):
        bf = boundary_apply(gauss2, BoundarySpec(lam=1.0, sign=+1, m=1))
        assert np.allclose(bf.total.values,
                           bf.pv_part.values + bf.surface_part.values)

    def test_surface_part_b_to_bstar_stable(self, g2, gauss2):
        # the delta-term operator maps B into B* with a lambda-stable bound
        ratios = []
        for lam in (0.5, 1.0, 2.0):
            bf = boundary_apply(gauss2, BoundarySpec(lam=lam, sign=+1, m=1))
            ratios.append(bstar_norm(bf.surface_part) / b_norm(gauss2))
        assert max(ratios) < 1.0
        assert max(ratios) / min(ratios) < 3.0

    @pytest.mark.parametrize("grid", ["g2", "g3"])
    @pytest.mark.parametrize("lam, m", [(0.5, 1), (2.0, 1), (1.5, 2)])
    def test_pv_part_transform_oracle(self, request, grid, lam, m):
        # the principal-value part against the explicit forward transform,
        # division by the lattice symbol and inverse transform
        grid = request.getfixturevalue(grid)
        f, g = offset_and_modulated(grid)
        f = f.with_values(f.values + g.values)
        bf = boundary_apply(f, BoundarySpec(lam=lam, m=m))
        F = forward_transform(f)
        oracle = inverse_transform(
            F.with_values(F.values
                          / (np.fft.fftshift(pm_values(grid, m)) - lam))).values
        err = np.max(np.abs(bf.pv_part.values - oracle))
        assert err <= 1e-14 * np.max(np.abs(oracle))
        assert bf.diagnostics == {"lattice_gap": pytest.approx(
            np.min(np.abs(pm_values(grid, m) - lam)))}

    def test_spectral_field_rejected(self, gauss2):
        with pytest.raises(ValueError, match="physical"):
            boundary_apply(forward_transform(gauss2), BoundarySpec(lam=1.0))


class TestKernel:
    def test_heaviside_zero(self):
        s = kernel_k_plus(1.0, 1, [3.0, -1.0], tol=1e-8)
        assert s.value == 0.0 and not s.flagged

    def test_origin_oracle(self):
        # at x = 0 the kernel is i (2 pi)^{-1} integral of Q, evaluated
        # independently by adaptive quadrature
        s = kernel_k_plus(1.0, 1, [0.0, 0.0], tol=1e-10)
        val, _ = quad(lambda xi: graph_and_weight(
            1.0, 1, np.array([[xi]]))[1], -0.79992, 0.79992, limit=200)
        oracle = 1j * val / (2.0 * np.pi)
        assert abs(s.value - oracle) / abs(oracle) < 1e-8

    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("height", [0.0, 3.0])
    def test_axis_oracle(self, d, height):
        # on the axis x' = 0 the angular integral is the area of S^{d-2}, and
        # the radial integral is left to adaptive quadrature
        x = np.zeros(d)
        x[-1] = height
        s = kernel_k_plus(1.0, 1, x, tol=1e-10)

        def radial(part):
            def integrand(rho):
                phi, q = graph_and_weight(1.0, 1, np.array([[rho]]))
                return rho ** (d - 2) * q * part(height * phi)
            return quad(integrand, 0.0, 0.8, limit=200, epsabs=0.0,
                        epsrel=1e-12)[0]

        oracle = (1j * sphere_area(d - 1) * (2.0 * np.pi) ** (1 - d)
                  * complex(radial(np.cos), radial(np.sin)))
        assert abs(s.value - oracle) / abs(oracle) < 1e-11

    def test_line_oracle_d2(self):
        # at d = 2 the defining integral over the line xi' in (-0.8, 0.8),
        # off the axis, by adaptive quadrature
        x = np.array([3.0, 2.0])
        s = kernel_k_plus(1.0, 1, x, tol=1e-10)

        def part(fn):
            def integrand(xi):
                phi, q = graph_and_weight(1.0, 1, np.array([[xi]]))
                return q * fn(x[1] * phi + x[0] * xi)
            return quad(integrand, -0.8, 0.8, limit=200, epsabs=0.0,
                        epsrel=1e-12)[0]

        oracle = 1j * complex(part(np.cos), part(np.sin)) / (2.0 * np.pi)
        assert abs(s.value - oracle) / abs(oracle) < 1e-11

    @PROPERTY
    @given(d=st.sampled_from([2, 3, 4]), seed=st.integers(0, 2**32 - 1),
           radius=st.floats(0.0, 20.0), height=st.floats(0.0, 20.0))
    def test_rotation_invariance(self, d, seed, radius, height):
        # K depends on x' only through |x'|
        rng = np.random.default_rng(seed)
        xp = rng.standard_normal(d - 1)
        xp *= radius / np.linalg.norm(xp)
        rot, _ = np.linalg.qr(rng.standard_normal((d - 1, d - 1)))
        a = kernel_k_plus(1.0, 1, np.append(xp, height), tol=1e-12)
        b = kernel_k_plus(1.0, 1, np.append(rot @ xp, height), tol=1e-12)
        assert abs(b.value - a.value) <= 1e-10 * abs(a.value)

    def test_budget_exhausted_is_flagged(self, monkeypatch):
        # the quadrature plus its node count: no two doublings agree, so
        # refinement runs past the node budget and hands back its last value,
        # flagged
        quadrature = boundary._kernel_quad
        monkeypatch.setattr(boundary, "_kernel_quad",
                            lambda *args: quadrature(*args) + args[-1])
        s = kernel_k_plus(1.0, 1, [3.0, 2.0], tol=1e-8)
        assert s.flagged
        assert np.isfinite(s.value) and s.error_estimate > 0

    def test_shape_validation(self):
        # d = len(x) must lie in the lab's range 2..4, and x must be a point
        for x in ([1.0], [1.0] * 5, [[1.0, 2.0], [3.0, 4.0]]):
            with pytest.raises(ValueError, match="components"):
                kernel_k_plus(1.0, 1, x, tol=1e-8)

    def test_decay_scan_d2(self):
        scan = decay_scan(1.0, 1, radii=[5.0, 10.0, 20.0, 40.0],
                          directions=[(0.0, 1.0), (0.6, 0.8)], tol=1e-6)
        assert len(scan.rows) == 8
        assert all(not row[3] for row in scan.rows)
        norm_col = [row[2] for row in scan.rows]
        median = float(np.median(norm_col))
        assert scan.max_normalized <= 3.0 * median
        assert min(norm_col) >= median / 3.0

    def test_decay_scan_empty(self):
        scan = decay_scan(1.0, 1, radii=[], directions=[], tol=1e-6)
        assert scan.rows == [] and scan.max_normalized == 0.0
