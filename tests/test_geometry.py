import math

import numpy as np
import pytest
from scipy.optimize import brentq

from babenko import geometry
from babenko.geometry import (
    GeometryError,
    WaveProfile,
    conformal_map_sample,
    crest_angle_estimate,
    crest_heights,
    modified_coefficients,
    r_curve,
    surface_curve,
)
from babenko.spectral import DomainError, hilbert_symbol, series_peak, transform_inverse

from conftest import H, solve_small


def dense_eval_series(coeffs, M):
    """Dense cos/sin(outer(t, k)) @ c on t_j = -pi + 2 pi j / M: the oracle."""
    t = np.linspace(-np.pi, np.pi, M, endpoint=False)
    k = np.arange(coeffs.size)
    return np.cos(np.outer(t, k)) @ coeffs + 1j * (np.sin(np.outer(t, k)) @ coeffs)


def dense_crests(c):
    """Crests (t, w) of w = sum c_k cos kt with w > 0 over [-pi, pi): the oracle.

    Every local maximum among 16N dense samples is refined by a bracketed
    root search on the dense derivative w'(t) = -sum k c_k sin kt between
    its two neighbours, and read from the dense sum there.  w is even, so
    w'(0) = w'(-pi) = 0, and a maximum sampled there stays there.
    """
    k = np.arange(c.size)
    M = 16 * max(c.size, 2)
    t = np.linspace(-np.pi, np.pi, M, endpoint=False)
    w = np.cos(np.outer(t, k)) @ c
    dt = t[1] - t[0]
    out = []
    for i in np.flatnonzero((w > np.roll(w, 1)) & (w >= np.roll(w, -1))):
        if i in (0, M // 2):
            tc = -np.pi if i == 0 else 0.0
        else:
            tc = brentq(lambda s: -(k * np.sin(k * s)) @ c, t[i] - dt, t[i] + dt, xtol=1e-15)
        h = float(np.cos(k * tc) @ c)
        if h > 0:
            out.append((tc, h))
    return sorted(out)


def _sharp(N, n, p=1.5):
    """c_(nm) = m^-p for m >= 1, a mode-n wave with n equal near-corner crests."""
    c = np.zeros(N)
    m = np.arange(1, (N - 1) // n + 1)
    c[n * m] = m ** -p
    return c


def _decaying(N, seed):
    """A random series whose largest |w| is a crest, w > 0."""
    k = np.arange(N)
    c = np.random.default_rng(seed).standard_normal(N) / (1.0 + k) ** 1.5
    return c * np.sign(series_peak(c)[1])


def _profile(c, M):
    return surface_curve(c, 0.5, H, M=M)


def _assert_profiles_agree(got, want, tol):
    assert np.max(np.abs(got.x - want.x)) < tol
    assert np.max(np.abs(got.y - want.y)) < tol
    assert abs(got.mean_residual - want.mean_residual) < tol
    assert got.monotone_x == want.monotone_x


def _assert_census_matches_oracle(prof, c):
    # the census's x is the surface's x(t) = -t - sum s_k sin kt at the
    # oracle's crests, with s = hilbert_symbol(r) * c, by the dense sum
    oracle = dense_crests(c)
    assert len(prof.crest_census) == len(oracle)
    if oracle:
        tc, hc = np.array(oracle).T
        s = hilbert_symbol(prof.r, c.size) * c
        xc = -tc - np.sin(np.outer(tc, np.arange(c.size))) @ s
        x, h = np.array(prof.crest_census).T
        assert np.max(np.abs(h - hc)) < 1e-13
        assert np.max(np.abs((x - xc + np.pi) % (2.0 * np.pi) - np.pi)) < 1e-9


class TestSeriesEvaluation:
    """The FFT evaluation against the dense basis it replaces."""

    @pytest.fixture(scope="class")
    def coeffs(self):
        rng = np.random.default_rng(7)
        k = np.arange(64)
        c = 0.1 * rng.standard_normal(64) * np.exp(-k / 8.0)
        c[0] = 0.0
        return c

    # M < N folds aliases into bin k mod M; 129 is odd
    @pytest.mark.parametrize("M", [50, 64, 129, 256, 16384])
    def test_matches_dense_basis(self, coeffs, M, monkeypatch):
        got = geometry._eval_series(coeffs, M)
        assert np.max(np.abs(got - dense_eval_series(coeffs, M))) < 1e-13
        fft = _profile(coeffs, M)
        _assert_census_matches_oracle(fft, coeffs)
        monkeypatch.setattr(geometry, "_eval_series", dense_eval_series)
        _assert_profiles_agree(fft, _profile(coeffs, M), 1e-13)

    def test_near_extreme_endpoint(self, c1_full, monkeypatch):
        c = c1_full.last.coeffs
        fft = _profile(c, 16384)
        _assert_census_matches_oracle(fft, c)
        monkeypatch.setattr(geometry, "_eval_series", dense_eval_series)
        _assert_profiles_agree(fft, _profile(c, 16384), 1e-13)


class TestModifiedCoefficients:
    def test_zero_field(self):
        assert np.all(modified_coefficients(np.zeros(8), 0.5) == 0)

    def test_constant_field(self):
        c = np.zeros(8)
        c[0] = -0.3
        b = modified_coefficients(c, 0.5)
        assert b[0] == -0.3
        assert np.all(b[1:] == 0)

    def test_reconstruction_round_trip(self):
        # v(t) = b_0 + sum b_k (1 - r^2k) cos kt must reproduce w at the nodes
        rng = np.random.default_rng(3)
        c = rng.standard_normal(16) * 0.1
        r = 0.53
        b = modified_coefficients(c, r)
        k = np.arange(16)
        factors = np.where(k == 0, 1.0, 1.0 - r ** (2 * k))
        rebuilt = transform_inverse(b * factors)
        assert np.max(np.abs(rebuilt - transform_inverse(c))) < 1e-12

    def test_radius_validation(self):
        for r in (0.0, 1.0, 1.2):
            with pytest.raises(DomainError):
                modified_coefficients(np.zeros(4), r)


class TestSurfaceCurve:
    def test_flat_wave(self):
        prof = surface_curve(np.zeros(16), 0.5, H)
        assert np.allclose(prof.y, 0.0)
        assert np.allclose(prof.x, -prof.t)
        assert prof.n_crests == 0
        assert prof.r == pytest.approx(math.exp(-H))

    def test_small_amplitude_single_crest(self):
        pt = solve_small(64, n=1, s=0.01)
        prof = surface_curve(pt.coeffs, pt.mu, H)
        assert prof.n_crests == 1
        assert prof.n_highest() == 1
        # crest of the mode-1 wave sits at t = 0, i.e. x = 0
        assert abs(prof.crest_census[0][0]) < 1e-6
        assert prof.monotone_x

    def test_mode5_has_five_equal_crests(self):
        pt = solve_small(64, n=5, s=0.005)
        prof = surface_curve(pt.coeffs, pt.mu, H)
        assert prof.n_crests == 5
        assert prof.n_highest() == 5

    def test_zero_mean_invariant(self):
        pt = solve_small(64, n=1, s=0.05)
        prof = surface_curve(pt.coeffs, pt.mu, H)
        assert abs(prof.mean_residual) < 1e-8

    def test_bottom_level_identity(self):
        # -b_0 - log r = h holds exactly by construction of r
        pt = solve_small(64, n=1, s=0.05)
        prof = surface_curve(pt.coeffs, pt.mu, H)
        assert -prof.b[0] - math.log(prof.r) == pytest.approx(H, abs=1e-12)

    @pytest.mark.blas_threads
    def test_census_does_not_depend_on_sample_count(self):
        # read from 4096 and 16384 samples, this sharp mode-1 wave had 9 and
        # 13 crests, Gibbs ripples in its trough among them
        c = 0.05 * _sharp(1024, 1)
        coarse, fine = (surface_curve(c, 0.5, H, M=M) for M in (1024, 16384))
        assert coarse.crest_census == fine.crest_census
        assert coarse.n_crests == 1

    def test_sample_count(self):
        pt = solve_small(32, n=1, s=0.01)
        assert surface_curve(pt.coeffs, pt.mu, H).t.size == 128
        assert surface_curve(pt.coeffs, pt.mu, H, M=50).t.size == 50


class TestConformalMap:
    def test_surface_boundary_matches_curve(self):
        pt = solve_small(64, n=1, s=0.04)
        prof = surface_curve(pt.coeffs, pt.mu, H)
        z = conformal_map_sample(prof.b, prof.r, n_radial=4, n_angular=prof.t.size)
        # on |u| = 1 the map reproduces the parametric surface (x odd, y even)
        assert np.max(np.abs(z[0].imag - prof.y)) < 1e-12
        assert np.max(np.abs(z[0].real - prof.x)) < 1e-12

    def test_bottom_boundary_is_flat(self):
        pt = solve_small(64, n=1, s=0.04)
        prof = surface_curve(pt.coeffs, pt.mu, H)
        z = conformal_map_sample(prof.b, prof.r, n_radial=4, n_angular=64)
        assert np.max(np.abs(z[-1].imag + H)) < 1e-10

    def test_trivial_map(self):
        r = math.exp(-H)
        z = conformal_map_sample(np.zeros(8), r, n_radial=2, n_angular=16)
        assert np.max(np.abs(z[0].imag)) < 1e-14
        assert np.max(np.abs(z[-1].imag + H)) < 1e-14

    def test_bottom_row_finite_at_large_N(self):
        # rho^k underflows at |u| = r for k ~ 2000; r^2k rho^-k must not
        # be formed as a quotient of underflowed powers
        b = np.zeros(2048)
        b[1] = 0.01
        z = conformal_map_sample(b, math.exp(-H), n_radial=4, n_angular=64)
        assert np.all(np.isfinite(z))
        assert np.max(np.abs(z[-1].imag + H)) < 1e-14

    def test_boundary_correspondence_monotone(self):
        pt = solve_small(64, n=1, s=0.05)
        prof = surface_curve(pt.coeffs, pt.mu, H)
        assert prof.monotone_x


@pytest.mark.blas_threads
class TestCrests:
    """crest_heights against the dense oracle dense_crests."""

    @pytest.mark.parametrize("c", [np.zeros(8), np.zeros(1), np.eye(8)[0] * 0.3,
                                   np.array([0.3]), np.array([-0.3])])
    def test_flat_and_constant_series_have_no_crest(self, c):
        assert crest_heights(c) == []

    def test_mode1_series_has_one_crest_at_zero(self):
        c = np.zeros(16)
        c[1] = 0.2
        assert crest_heights(c) == [(0.0, 0.2)]

    @pytest.mark.parametrize("N", [2, 3, 16, 64])
    def test_crest_at_pi_appears_once(self, N):
        c = 0.1 * (-1.0) ** np.arange(N) / (1.0 + np.arange(N)) ** 2
        c[0] = 0.0
        (tc, hc), = crest_heights(c)
        assert tc == pytest.approx(-np.pi, abs=1e-15)
        assert hc == pytest.approx(float(np.sum(np.abs(c))), rel=1e-14)

    def test_negative_maxima_are_no_crests(self):
        # w = -1 + 0.1 cos 3t has its three maxima at w = -0.9
        c = np.zeros(8)
        c[0], c[3] = -1.0, 0.1
        assert crest_heights(c) == []
        assert series_peak(c)[1] == pytest.approx(-1.1)

    @pytest.mark.parametrize("N", [2, 3, 5, 16, 64, 512])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_dense_oracle(self, N, seed):
        c = _decaying(N, seed)
        got, oracle = np.array(crest_heights(c)), np.array(dense_crests(c))
        i = np.argmin(np.abs(got[:, :1] - oracle[:, 0]), axis=1)
        assert np.unique(i).size == i.size
        assert np.max(np.abs(got[:, 0] - oracle[i, 0])) < 1e-9
        assert np.max(np.abs(got[:, 1] - oracle[i, 1])) < 1e-14
        # the oracle's other crests are shoulders: a maximum with a minimum
        # closer than the sample spacing dt = pi/(4N), which the samples
        # cannot resolve (two at N = 512, seed 1, 1.4e-5 above the minimum)
        k, dt = np.arange(N), np.pi / (4 * N)
        for tc in np.delete(oracle[:, 0], i):
            w = np.cos(np.outer(np.linspace(tc - dt, tc + dt, 257), k)) @ c
            assert np.any((w[1:-1] < w[:-2]) & (w[1:-1] < w[2:]))

    @pytest.mark.parametrize("c", [_decaying(N, seed) for N in (2, 16, 512, 2048)
                                   for seed in (0, 1)] + [_sharp(1024, 1), _sharp(2048, 5)],
                             ids=lambda c: f"N{c.size}")
    def test_top_crest_is_the_amplitude(self, c):
        assert series_peak(c)[1] > 0
        assert max(h for _, h in crest_heights(c)) == series_peak(c)[1]

    def test_sharp_mode5_crests_are_level(self):
        # five equal near-corner crests at N = 2048; a 4096-point grid with
        # parabolic refinement read them 5.8e-3 * sup apart
        c = _sharp(2048, 5)
        crests = crest_heights(c)
        t, h = np.array(crests).T
        assert np.allclose(t, 2.0 * np.pi * np.arange(-2, 3) / 5, atol=1e-12)
        assert np.ptp(h) < 1e-9 * series_peak(c)[1]

    def test_crest_heights_phase_invariant(self):
        # a pure mode has equally high maxima wherever the phase puts them
        c = np.zeros(32)
        c[3] = 0.1
        heights = [h for _, h in crest_heights(c)]
        assert len(heights) == 3
        assert np.allclose(heights, 0.1, atol=1e-15)

    def test_polish_beats_grid(self):
        # a crest near t = 1.1, between the samples: the nearest of the 8N
        # samples reads it low by about 1e-4, the polish to rounding
        k = np.arange(16)
        c = 0.5 ** k * np.cos(1.1 * k)
        (tc, hc), = [x for x in crest_heights(c) if x[0] > 0]
        (to, ho), = [x for x in dense_crests(c) if x[0] > 0]
        t = np.arange(8 * 16 + 1) * np.pi / (8 * 16)
        assert np.max(np.cos(np.outer(t, k)) @ c) < ho - 1e-6
        assert tc == pytest.approx(to, abs=1e-12)
        assert hc == pytest.approx(ho, abs=1e-15)

    def test_smooth_wave_angle_near_flat(self):
        pt = solve_small(64, n=1, s=0.02)
        prof = surface_curve(pt.coeffs, pt.mu, H, M=1024)
        est = crest_angle_estimate(prof)
        assert est.degrees > 170.0

    def test_no_crest_raises(self):
        prof = WaveProfile(r=0.5, b=np.zeros(4), t=np.zeros(4), x=np.zeros(4),
                           y=np.zeros(4), depth=H)
        with pytest.raises(GeometryError):
            crest_angle_estimate(prof)


class TestRCurve:
    def test_series_matches_points(self, c1_coarse):
        series = r_curve(c1_coarse)
        assert series.shape == (len(c1_coarse.points), 2)
        assert np.allclose(series[:, 0], c1_coarse.amplitudes())
        assert np.all((series[:, 1] > 0) & (series[:, 1] < 1))

    def test_trivial_limit(self, c1_coarse):
        # r tends to exp(-h) as the amplitude goes to zero
        series = r_curve(c1_coarse)
        assert series[0, 1] == pytest.approx(math.exp(-H), abs=1e-3)
