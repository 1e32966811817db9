import math

import numpy as np
import pytest

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
from babenko.spectral import CosineGrid, DomainError, SpectralField

from conftest import H, solve_small


def dense_eval_series(coeffs, M):
    """Dense cos/sin(outer(t, k)) @ c on t_j = -pi + 2 pi j / M: the oracle."""
    t = np.linspace(-np.pi, np.pi, M, endpoint=False)
    k = np.arange(coeffs.size)
    return np.cos(np.outer(t, k)) @ coeffs + 1j * (np.sin(np.outer(t, k)) @ coeffs)


def _profile_and_crests(w, M):
    prof = surface_curve(w, 0.5, H, M=M)
    return prof, crest_heights(w.coeffs, M)


def _assert_profiles_agree(got, want, tol):
    (gp, gc), (wp, wc) = got, want
    assert np.max(np.abs(gp.x - wp.x)) < tol
    assert np.max(np.abs(gp.y - wp.y)) < tol
    assert abs(gp.mean_residual - wp.mean_residual) < tol
    assert gp.monotone_x == wp.monotone_x
    for census, oracle in ((gp.crest_census, wp.crest_census), (gc, wc)):
        assert len(census) == len(oracle)
        if census:
            pos, height = np.array(census).T
            pos_o, height_o = np.array(oracle).T
            assert np.max(np.abs(pos - pos_o)) < 1e-9
            assert np.max(np.abs(height - height_o)) < tol


class TestSeriesEvaluation:
    """The FFT evaluation against the dense basis it replaces."""

    @pytest.fixture(scope="class")
    def field(self):
        rng = np.random.default_rng(7)
        k = np.arange(64)
        c = 0.1 * rng.standard_normal(64) * np.exp(-k / 8.0)
        c[0] = 0.0
        return SpectralField(CosineGrid(64), coeffs=c)

    # M < N folds aliases into bin k mod M; 129 is odd
    @pytest.mark.parametrize("M", [50, 64, 129, 256, 16384])
    def test_matches_dense_basis(self, field, M, monkeypatch):
        got = geometry._eval_series(field.coeffs, M)
        assert np.max(np.abs(got - dense_eval_series(field.coeffs, M))) < 1e-13
        fft = _profile_and_crests(field, M)
        monkeypatch.setattr(geometry, "_eval_series", dense_eval_series)
        _assert_profiles_agree(fft, _profile_and_crests(field, M), 1e-13)

    def test_near_extreme_endpoint(self, c1_full, monkeypatch):
        w = c1_full.last.w
        fft = _profile_and_crests(w, 16384)
        monkeypatch.setattr(geometry, "_eval_series", dense_eval_series)
        _assert_profiles_agree(fft, _profile_and_crests(w, 16384), 1e-13)


class TestModifiedCoefficients:
    def test_zero_field(self):
        w = SpectralField(CosineGrid(8), coeffs=np.zeros(8))
        assert np.all(modified_coefficients(w, 0.5) == 0)

    def test_constant_field(self):
        c = np.zeros(8)
        c[0] = -0.3
        w = SpectralField(CosineGrid(8), coeffs=c)
        b = modified_coefficients(w, 0.5)
        assert b[0] == -0.3
        assert np.all(b[1:] == 0)

    def test_reconstruction_round_trip(self):
        # v(t) = b_0 + sum b_k (1 - r^2k) cos kt must reproduce w at the nodes
        rng = np.random.default_rng(3)
        grid = CosineGrid(16)
        w = SpectralField(grid, coeffs=rng.standard_normal(16) * 0.1)
        r = 0.53
        b = modified_coefficients(w, r)
        k = np.arange(16)
        factors = np.where(k == 0, 1.0, 1.0 - r ** (2 * k))
        rebuilt = SpectralField(grid, coeffs=b * factors)
        assert np.max(np.abs(rebuilt.nodal - w.nodal)) < 1e-12

    def test_radius_validation(self):
        w = SpectralField(CosineGrid(4), coeffs=np.zeros(4))
        for r in (0.0, 1.0, 1.2):
            with pytest.raises(DomainError):
                modified_coefficients(w, r)


class TestSurfaceCurve:
    def test_flat_wave(self):
        w = SpectralField(CosineGrid(16), coeffs=np.zeros(16))
        prof = surface_curve(w, 0.5, H)
        assert np.allclose(prof.y, 0.0)
        assert np.allclose(prof.x, -prof.t)
        assert prof.n_crests == 0
        assert prof.r == pytest.approx(math.exp(-H))

    def test_small_amplitude_single_crest(self):
        pt = solve_small(64, n=1, s=0.01)
        prof = surface_curve(pt.w, pt.mu, H)
        assert prof.n_crests == 1
        assert prof.n_highest() == 1
        # crest of the mode-1 wave sits at t = 0, i.e. x = 0
        assert abs(prof.crest_census[0][0]) < 1e-6
        assert prof.monotone_x

    def test_mode5_has_five_equal_crests(self):
        pt = solve_small(64, n=5, s=0.005)
        prof = surface_curve(pt.w, pt.mu, H)
        assert prof.n_crests == 5
        assert prof.n_highest() == 5

    def test_zero_mean_invariant(self):
        pt = solve_small(64, n=1, s=0.05)
        prof = surface_curve(pt.w, pt.mu, H)
        assert abs(prof.mean_residual) < 1e-8

    def test_bottom_level_identity(self):
        # -b_0 - log r = h holds exactly by construction of r
        pt = solve_small(64, n=1, s=0.05)
        prof = surface_curve(pt.w, pt.mu, H)
        assert -prof.b[0] - math.log(prof.r) == pytest.approx(H, abs=1e-12)

    def test_sample_count(self):
        pt = solve_small(32, n=1, s=0.01)
        assert surface_curve(pt.w, pt.mu, H).t.size == 128
        assert surface_curve(pt.w, pt.mu, H, M=50).t.size == 50


class TestConformalMap:
    def test_surface_boundary_matches_curve(self):
        pt = solve_small(64, n=1, s=0.04)
        prof = surface_curve(pt.w, pt.mu, H)
        z = conformal_map_sample(prof.b, prof.r, n_radial=4, n_angular=prof.t.size)
        # on |u| = 1 the map reproduces the parametric surface (x odd, y even)
        assert np.max(np.abs(z[0].imag - prof.y)) < 1e-12
        assert np.max(np.abs(z[0].real - prof.x)) < 1e-12

    def test_bottom_boundary_is_flat(self):
        pt = solve_small(64, n=1, s=0.04)
        prof = surface_curve(pt.w, pt.mu, H)
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
        prof = surface_curve(pt.w, pt.mu, H)
        assert prof.monotone_x


class TestCrests:
    def test_crest_heights_phase_invariant(self):
        # a pure mode has equally high maxima wherever the phase puts them
        c = np.zeros(32)
        c[3] = 0.1
        heights = [h for _, h in crest_heights(c)]
        assert len(heights) == 3
        assert np.allclose(heights, 0.1, atol=1e-8)

    def test_quadratic_refinement_beats_grid(self):
        c = np.zeros(16)
        c[1] = 0.2
        (tc, hc), = crest_heights(c, n_samples=256)
        assert abs(tc) < 1e-4
        assert hc == pytest.approx(0.2, abs=1e-8)

    def test_smooth_wave_angle_near_flat(self):
        pt = solve_small(64, n=1, s=0.02)
        prof = surface_curve(pt.w, pt.mu, H, M=1024)
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
