import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from babenko.continuation import ContinuationConfig, start_branch, trivial_bifurcation_mu
from babenko.geometry import surface_curve
from babenko.solver import DiscreteSystem, newton_solve
from babenko.spectral import (
    R_MAX,
    DomainError,
    add_product_matrix,
    dlambda_dr,
    dmu_dr,
    hilbert_symbol,
    lambda_symbol,
    mu_symbol,
    mu_symbol_total,
    product_block,
    product_coeffs,
    series_peak,
    transform_forward,
    transform_inverse,
)

from conftest import dense_product_matrix, inverse_transform_matrix, nodes, transform_matrix

RNG = np.random.default_rng(20260823)


def convolution(cu, cv):
    """Cosine coefficients of the product, by cos(mt) cos(nt) linearization."""
    N = cu.size
    full = np.zeros(2 * N)
    for m in range(N):
        for n in range(N):
            full[m + n] += 0.5 * cu[m] * cv[n]
            full[abs(m - n)] += 0.5 * cu[m] * cv[n]
    return full[:N]


class TestTransforms:
    # every residue of N mod 4 for the rfft reordering's index arithmetic,
    # and the sizes the solver runs at
    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 8, 16, 33, 128, 512, 1024])
    def test_matches_dense_matrices(self, N):
        y = RNG.standard_normal(N)
        c = RNG.standard_normal(N)
        assert np.allclose(transform_forward(y), transform_matrix(N) @ y, atol=1e-13)
        assert np.allclose(transform_inverse(c), inverse_transform_matrix(N) @ c, atol=1e-13)

    def test_single_mode_interpolation(self):
        # exact coefficients of f = cos(k x) for each retained mode
        for k in range(16):
            c = transform_forward(np.cos(k * nodes(16)))
            expect = np.zeros(16)
            expect[k] = 1.0
            assert np.allclose(c, expect, atol=1e-13)

    @given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, N, seed):
        y = np.random.default_rng(seed).standard_normal(N)
        back = transform_inverse(transform_forward(y))
        assert np.max(np.abs(back - y)) < 1e-12 * max(1.0, np.max(np.abs(y)))

    def test_nodes_are_shifted(self):
        # mode 1 at the nodes x_n = pi (2n - 1) / (2N), n = 1..N, for N = 4
        x = np.pi * np.array([1, 3, 5, 7]) / 8
        assert np.allclose(transform_inverse(np.eye(4)[1]), np.cos(x), atol=1e-15)

    @pytest.mark.parametrize("shape", [(0,), (2, 3)])
    def test_rejects_non_vectors(self, shape):
        for transform in (transform_forward, transform_inverse):
            with pytest.raises(ValueError):
                transform(np.zeros(shape))


class TestSymbols:
    def test_lambda_against_rational_form(self):
        # n (1 + r^2n) / (1 - r^2n), computed directly
        r, N = 0.43, 40
        n = np.arange(1, N)
        direct = n * (1 + r ** (2 * n)) / (1 - r ** (2 * n))
        sym = lambda_symbol(r, N)
        assert sym[0] == 0.0
        assert np.allclose(sym[1:], direct, rtol=1e-14)

    def test_mu_is_reciprocal_of_lambda(self):
        r, N = 0.61, 64
        lam = lambda_symbol(r, N)
        mu = mu_symbol(r, N)
        assert mu[0] == 1.0
        assert np.allclose(mu[1:] * lam[1:], 1.0, rtol=1e-13)

    def test_mu_total_defined_beyond_one(self):
        # the L-type symbol stays finite for r > 1 where lambda blows up
        m = mu_symbol_total(1.7, 8)
        assert np.all(np.isfinite(m))
        with pytest.raises(DomainError):
            lambda_symbol(1.7, 8)

    def test_hilbert_symbol_composition(self):
        # conjugation = J-type followed by division by n
        r, N = 0.52, 32
        n = np.arange(1, N)
        assert np.allclose(hilbert_symbol(r, N)[1:], lambda_symbol(r, N)[1:] / n)

    @pytest.mark.parametrize("fn", [dlambda_dr, dmu_dr])
    def test_derivative_symbols_match_central_differences(self, fn):
        base = {dlambda_dr: lambda_symbol, dmu_dr: mu_symbol_total}[fn]
        r, N, eps = 0.37, 24, 1e-7
        fd = (base(r + eps, N) - base(r - eps, N)) / (2 * eps)
        # atol floor: differencing the saturated tanh forms leaves
        # cancellation noise of order n * 1e-9 at this step size
        assert np.allclose(fn(r, N), fd, rtol=1e-6, atol=1e-6)

    def test_large_n_no_overflow(self):
        # tanh forms saturate instead of overflowing at N ~ 1024
        for vals in (lambda_symbol(0.1, 1024), mu_symbol(0.1, 1024),
                     dlambda_dr(0.1, 1024), dmu_dr(0.1, 1024)):
            assert np.all(np.isfinite(vals))

    @pytest.mark.parametrize("r", [0.0, -0.5, 1.0, 1.0 - 1e-13])
    def test_domain_checks(self, r):
        with pytest.raises(DomainError):
            lambda_symbol(r, 8)

    def test_r_max_is_strict(self):
        assert lambda_symbol(R_MAX - 1e-6, 8) is not None


class TestOperators:
    def test_multiplier_matches_dense_oracle(self):
        # the J-type operator at the operand's radius, as the residual forms it
        N = 16
        h = np.pi / 5
        c = RNG.standard_normal(N)
        lam = lambda_symbol(np.exp(-h - c[0]), N)
        dense = inverse_transform_matrix(N) @ np.diag(lam) @ transform_matrix(N)
        out = transform_inverse(lam * c)
        assert np.max(np.abs(out - dense @ transform_inverse(c))) < 1e-12

    def test_residual_uses_solution_dependent_radius(self):
        # the residual rebuilt from the symbols at r = exp(-h - c_0) and the
        # explicit convolution
        N, h, mu = 16, np.pi / 5, 0.5
        c = np.concatenate(([-0.1], RNG.standard_normal(15) * 0.01))
        r = np.exp(-h - c[0])
        assert r == pytest.approx(np.exp(-h + 0.1))
        jw = convolution(c, lambda_symbol(r, N) * c)
        expect = mu_symbol_total(r, N) * c + mu_symbol_total(np.exp(-h + jw[0]), N) * jw
        expect[1:] += 0.5 * convolution(c, c)[1:] - mu * c[1:]
        assert np.allclose(DiscreteSystem(N, h).residual(c, mu), expect, rtol=0, atol=1e-14)

    def test_residual_rejects_vanishing_depth(self):
        # mean(w) <= -h drives the radius to 1 and beyond
        c = np.concatenate(([-0.2], np.zeros(7)))
        with pytest.raises(DomainError):
            DiscreteSystem(8, 0.05).residual(c, 0.5)

    def test_Lh_symbol_total_on_same_operand(self):
        # r > 1 is fine for the L-type symbol, not for the J-type one
        c = np.concatenate(([-0.2], np.zeros(7)))
        r = np.exp(-0.05 - c[0])
        assert np.all(np.isfinite(mu_symbol_total(r, 8) * c))
        with pytest.raises(DomainError):
            lambda_symbol(r, 8)

    def test_depth_validation(self):
        # every public entry point that takes a depth rejects one that is
        # not positive
        c = np.zeros(16)
        c[1] = 0.01
        calls = [
            lambda h: trivial_bifurcation_mu(1, h),
            lambda h: newton_solve(c, 0.5, h, np.eye(16)[1], 0.01),
            lambda h: start_branch(1, 0.01, h, ContinuationConfig(N=16)),
            lambda h: surface_curve(c, 0.5, h),
        ]
        for h in (0.0, -1.0, math.nan):
            for call in calls:
                with pytest.raises(ValueError, match="depth must be positive"):
                    call(h)


class TestDealiasedProduct:
    @pytest.mark.parametrize("N", [1, 2, 3, 5, 8, 33])
    def test_matches_convolution_oracle(self, N):
        # cosine-series product via the linearization formula
        cu = RNG.standard_normal(N)
        cv = RNG.standard_normal(N)
        assert np.max(np.abs(product_coeffs(cu, cv) - convolution(cu, cv))) < 1e-12

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_commutes(self, seed):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(12)
        v = rng.standard_normal(12)
        uv = product_coeffs(u, v)
        vu = product_coeffs(v, u)
        assert np.max(np.abs(uv - vu)) < 1e-12

    def test_constant_identity(self):
        u = RNG.standard_normal(6)
        assert np.allclose(product_coeffs(np.eye(6)[0], u), u, atol=1e-13)

    @pytest.mark.parametrize("N", [1, 2, 3, 8, 64])
    def test_product_matrix_matches_dense_formula(self, N):
        # T2 diag(S2 c) S2: evaluate on the 2N-node grid, multiply, analyse
        S2 = inverse_transform_matrix(2 * N)[:, :N]
        T2 = transform_matrix(2 * N)[:N, :]
        c = RNG.standard_normal(N)
        u = RNG.standard_normal(N)
        dense = T2 @ np.diag(S2 @ c) @ S2
        assert np.max(np.abs(add_product_matrix(c, np.zeros((N, N))) - dense)) < 1e-12
        assert np.max(np.abs(product_coeffs(c, u) - dense @ u)) < 1e-12
        assert np.max(np.abs(dense_product_matrix(c) - dense)) < 1e-12

    @pytest.mark.parametrize("N", [1, 2, 3, 8, 64])
    def test_product_block_matches_dense_oracle(self, N):
        # every index set: whole, a mode-n subspace and its classes
        # {j, n - j} mod n, and random subsets with and without index 0
        c = RNG.standard_normal(N)
        dense = dense_product_matrix(c)
        k = np.arange(N)
        sets = [k, k[::3], k[k % 5 != 0], k[(k % 5 == 1) | (k % 5 == 4)]]
        sets += [np.sort(RNG.choice(N, size=max(N // 2, 1), replace=False))
                 for _ in range(4)]
        for idx in sets:
            if idx.size:
                block = product_block(c, idx)
                assert np.max(np.abs(block - dense[np.ix_(idx, idx)])) < 1e-12

    @pytest.mark.parametrize("N", [1, 2, 3, 8, 64])
    def test_add_product_matrix_accumulates_wide_rows(self, N):
        # N rows, M = N + 3 columns: the product with an M-mode factor,
        # dense on the (N + M)-node grid, where it is still exact
        M = N + 3
        S = inverse_transform_matrix(N + M)
        T = transform_matrix(N + M)[:N, :]
        c = RNG.standard_normal(N)
        dense = T @ np.diag(S[:, :N] @ c) @ S[:, :M]
        base = RNG.standard_normal((N, M))
        out = base.copy()
        assert add_product_matrix(c, out) is out
        assert np.max(np.abs(out - base - dense)) < 1e-12
        with pytest.raises(ValueError):
            add_product_matrix(c, np.zeros((N, N - 1)))

    def test_grid_mismatch(self):
        with pytest.raises(ValueError):
            product_coeffs(np.zeros(4), np.zeros(8))


def _peak_series(shape, N):
    """Coefficients whose largest |w| lies at t = 0, at t = pi or inside."""
    k = np.arange(N)
    decay = np.exp(-0.5 * (0.05 * k) ** 2)
    if shape == "zero":  # all positive: w(0) = sum c_k
        return decay
    if shape == "pi":  # alternating: w(pi) = sum |c_k|
        return decay * (-1.0) ** k
    bump = decay * np.cos(1.1 * k)  # a crest near t = 1.1
    return bump if shape == "interior" else -bump


class TestSeriesPeak:
    @pytest.mark.parametrize("shape", ["zero", "interior", "pi", "negative"])
    @pytest.mark.parametrize("N", [1, 2, 3, 64, 512])
    def test_matches_dense_oracle(self, N, shape):
        c = _peak_series(shape, N)
        k = np.arange(N)
        t = np.linspace(0.0, np.pi, 16 * N + 1)
        w = np.cos(np.outer(t, k)) @ c
        # the dense samples miss the true peak by at most dt^2/8 * max|w''|
        dt = t[1] - t[0]
        slack = 0.125 * dt * dt * float(np.sum(k * k * np.abs(c))) + 1e-13
        t_star, value = series_peak(c)
        assert 0.0 <= t_star <= np.pi
        assert value == pytest.approx(float(np.cos(t_star * k) @ c), abs=1e-13)
        assert np.max(np.abs(w)) - 1e-13 <= abs(value) <= np.max(np.abs(w)) + slack
        i = int(np.argmax(np.abs(w)))
        assert np.sign(value) == np.sign(w[i])
        if N >= 2 and shape in ("zero", "pi"):
            assert t_star == pytest.approx(0.0 if shape == "zero" else np.pi, abs=1e-12)
            assert value == pytest.approx(float(np.sum(np.abs(c))), rel=1e-14)
        if N >= 3 and shape in ("interior", "negative"):
            assert 0.0 < t_star < np.pi
            assert abs(t_star - t[i]) <= dt
