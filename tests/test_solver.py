import math
import tracemalloc
import warnings

import numpy as np
import pytest

from babenko.solver import (
    ConstraintSpec,
    DiscreteSystem,
    InadmissibleIterate,
    NewtonConfig,
    ProjectionConstraint,
    SingularJacobian,
    SolveFailure,
    get_system,
    newton_solve,
    residual_fixed_r,
    residual_modified,
)
from babenko.continuation import _constraint_for, _det_sign
from babenko.spectral import (
    DomainError,
    SpectralField,
    dlambda_dr,
    dmu_dr,
    lambda_symbol,
    mu_symbol_total,
    product_matrix,
    transform_inverse,
)

H = math.pi / 5
RNG = np.random.default_rng(7)


def small_wave(N, n=1, s=0.01, depth=H):
    """A converged mode-n point at small amplitude, for reuse in checks."""
    sys = get_system(N, depth)
    x = s * np.cos(n * sys.grid.nodes)
    mu = math.tanh(n * depth) / n
    j = int(np.argmax(np.abs(x)))
    con = ConstraintSpec(j, 1 if x[j] >= 0 else -1, s)
    return newton_solve(SpectralField(sys.grid, nodal=x), mu, depth, con,
                        NewtonConfig(), system=sys)


def central_difference_stacked_jacobian(sys, c, mu, constraint, step=1e-7):
    """Stacked Jacobian in (c, mu) by central differences of stacked_residual."""
    N = sys.N
    J = np.empty((N + 1, N + 1))
    for i in range(N + 1):
        cp, cm = c.copy(), c.copy()
        mup = mum = mu
        if i < N:
            cp[i] += step
            cm[i] -= step
        else:
            mup, mum = mu + step, mu - step
        J[:, i] = (sys.stacked_residual(cp, mup, constraint)
                   - sys.stacked_residual(cm, mum, constraint)) / (2.0 * step)
    return J


def reference_stacked_jacobian(sys, c, mu, constraint):
    """Stacked Jacobian by dense arithmetic on fresh product matrices.

    The assembly in DiscreteSystem fills one buffer in place, term by term;
    this is the same derivative written out with N x N temporaries.
    """
    N = sys.N
    rho = float(np.exp(-sys.h - c[0]))
    lam = lambda_symbol(rho, N)
    Pw = product_matrix(c)
    g = -(Pw @ (lam * c))
    sigma = float(np.exp(-sys.h - g[0]))
    mus = mu_symbol_total(sigma, N)
    D = product_matrix(lam * c) + Pw * lam
    D[:, 0] -= Pw @ (rho * dlambda_dr(rho, N) * c)
    A = D * mus[:, None] - np.outer(sigma * dmu_dr(sigma, N) * g, D[0])
    A += np.diag(mu_symbol_total(rho, N))
    A[:, 0] -= rho * dmu_dr(rho, N) * c
    A[1:] += Pw[1:] - mu * np.eye(N)[1:]
    J = np.zeros((N + 1, N + 1))
    J[:N, :N] = A
    J[1:N, N] = -c[1:]
    J[N, :N] = constraint.row(c)
    return J


def reference_newton_solve(sys, c, mu, constraint, tol, max_iter=50):
    """Full Newton: a fresh Jacobian and numpy.linalg.solve at every step.

    newton_solve reuses one factorization over several steps; this is the
    iteration it replaced, without damping, with the same residual norm.
    Returns the coefficients, mu and the number of steps.
    """
    c = c.copy()
    for it in range(max_iter + 1):
        R = sys.stacked_residual(c, mu, constraint)
        norm = max(np.max(np.abs(transform_inverse(R[:-1], sys.grid))), abs(R[-1]))
        if norm <= tol:
            return c, mu, it
        step = np.linalg.solve(sys.stacked_jacobian(c, mu, constraint), -R)
        c, mu = c + step[:-1], mu + step[-1]
    raise AssertionError(f"reference Newton did not converge (residual {norm:.3e})")


def secant_predictor(branch, i):
    """The corrector's predictor for point i from points i-2 and i-1.

    Returns coefficients, mu and the crest-pinning closing row, as
    continue_branch builds them for the target amplitude of point i.
    """
    p0, p1 = branch.points[i - 2], branch.points[i - 1]
    a = branch.points[i].sup_norm
    t = (a - p1.sup_norm) / (p1.sup_norm - p0.sup_norm)
    c = p1.coeffs + t * (p1.coeffs - p0.coeffs)
    return c, p1.mu + t * (p1.mu - p0.mu), _constraint_for(c, a)


def random_state(N, rng):
    """Decaying random coefficients with an admissible mean."""
    c = 0.05 * rng.standard_normal(N) * np.exp(-0.05 * np.arange(N))
    c[0] = -0.01
    return c


class TestResiduals:
    def test_zero_solution_is_exact(self):
        sys = get_system(16, H)
        res = sys.residual(np.zeros(16), 0.5)
        assert np.max(np.abs(res)) < 1e-15

    def test_linearization_at_zero(self):
        # the residual of an infinitesimal pure mode is (mu_n - mu) times it
        sys = get_system(32, H)
        eps, n = 1e-9, 3
        c = np.zeros(32)
        c[n] = eps
        mu = 0.1
        mu_n = math.tanh(n * H) / n
        res = sys.residual(c, mu)
        assert res[n] == pytest.approx((mu_n - mu) * eps, rel=1e-5)

    def test_proposition1_round_trip(self):
        pt = small_wave(64, n=1, s=0.03)
        res_mod = residual_modified(pt.w, pt.mu, H).coeffs
        res_fix = residual_fixed_r(pt.w, pt.mu, pt.r).coeffs
        assert np.max(np.abs(res_mod)) < 1e-10
        assert np.max(np.abs(res_fix)) < 1e-10

    def test_fixed_r_differs_off_the_manifold(self):
        # at a radius inconsistent with mean(w) the two residuals disagree
        pt = small_wave(32, n=1, s=0.03)
        res = residual_fixed_r(pt.w, pt.mu, 0.9 * pt.r).coeffs
        assert np.max(np.abs(res)) > 1e-6

    def test_fixed_r_domain_check(self):
        pt = small_wave(16)
        with pytest.raises(DomainError):
            residual_fixed_r(pt.w, pt.mu, 1.5)


class TestJacobian:
    @pytest.mark.parametrize("N", [16, 32])
    def test_matches_central_differences(self, N):
        sys = get_system(N, H)
        c = 0.02 * RNG.standard_normal(N)
        c[0] = -0.01  # keep the mean admissible and the chain rule active
        mu = 0.5
        A, dF_dmu = sys.jacobian(c, mu)
        eps = 1e-7
        fd = np.empty((N, N))
        for k in range(N):
            dc = np.zeros(N)
            dc[k] = eps
            fd[:, k] = (sys.residual(c + dc, mu) - sys.residual(c - dc, mu)) / (2 * eps)
        assert np.max(np.abs(A - fd)) < 1e-5
        fd_mu = (sys.residual(c, mu + eps) - sys.residual(c, mu - eps)) / (2 * eps)
        assert np.max(np.abs(dF_dmu - fd_mu)) < 1e-6

    def test_rank_one_chain_rule_term_present(self):
        # freezing the radius must change the first Jacobian column
        sys = get_system(16, H)
        c = 0.02 * RNG.standard_normal(16)
        c[0] = -0.05
        A, _ = sys.jacobian(c, 0.5)
        eps = 1e-7
        dc = np.zeros(16)
        dc[0] = eps
        r = float(np.exp(-H - c[0]))
        frozen = (residual_fixed_r(SpectralField.from_coeffs(c + dc), 0.5, r).coeffs
                  - residual_fixed_r(SpectralField.from_coeffs(c - dc), 0.5, r).coeffs
                  ) / (2 * eps)
        assert np.max(np.abs(A[:, 0] - frozen)) > 1e-4

    def test_stacked_shape_and_constraint_row(self):
        pt = small_wave(16)
        con = ConstraintSpec(0, 1, pt.sup_norm)
        J = get_system(16, H).stacked_jacobian(pt.coeffs, pt.mu, con)
        assert J.shape == (17, 17)
        # last row: derivative of sign * w(x_0) - a with respect to the
        # coefficients, cos(k x_0), and nothing in the mu column
        sys = get_system(16, H)
        expect = np.append(np.cos(np.arange(16) * sys.grid.nodes[0]), 0.0)
        assert np.allclose(J[16], expect)
        assert J[16, :16] @ pt.coeffs == pytest.approx(pt.nodal[0], rel=1e-12)

    def test_finite_difference_mode_agrees(self):
        pt = small_wave(16)
        con = ConstraintSpec(0, 1, pt.sup_norm)
        J_an = get_system(16, H).stacked_jacobian(pt.coeffs, pt.mu, con)
        J_fd = central_difference_stacked_jacobian(get_system(16, H), pt.coeffs,
                                                   pt.mu, con)
        assert np.max(np.abs(J_an - J_fd)) < 1e-5


class TestInPlaceAssembly:
    @staticmethod
    def constraints(N, rng):
        return [ConstraintSpec(0, 1, 0.05),
                ProjectionConstraint(rng.standard_normal(N), 0.01)]

    @pytest.mark.parametrize("N", [1, 2, 3, 8, 64])
    def test_fills_supplied_buffer(self, N):
        rng = np.random.default_rng(N)
        sys = get_system(N, H)
        c = random_state(N, rng)
        for con in self.constraints(N, rng):
            buf = np.full((N + 1, N + 1), np.nan)
            got = sys.stacked_jacobian(c, 0.6, con, out=buf)
            assert got is buf
            fresh = sys.stacked_jacobian(c, 0.6, con)
            assert np.max(np.abs(buf - fresh)) <= 1e-15 * np.max(np.abs(fresh))

    @pytest.mark.parametrize("N", [1, 2, 3, 8, 64, 512])
    def test_matches_reference_assembly(self, N):
        rng = np.random.default_rng(100 + N)
        sys = get_system(N, H)
        c = random_state(N, rng)
        for con in self.constraints(N, rng):
            ref = reference_stacked_jacobian(sys, c, 0.6, con)
            got = sys.stacked_jacobian(c, 0.6, con)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
        # jacobian is the same assembly without the closing row
        A, dF_dmu = sys.jacobian(c, 0.6)
        assert np.array_equal(A, got[:N, :N])
        assert np.array_equal(dF_dmu, got[:N, N])

    def test_no_matrix_sized_temporaries(self):
        # one 512 x 512 array is 2.1 MB
        N = 512
        sys = get_system(N, H)
        c = random_state(N, np.random.default_rng(5))
        con = ConstraintSpec(0, 1, 0.05)
        buf = np.empty((N + 1, N + 1))
        sys.stacked_jacobian(c, 0.6, con, out=buf)
        tracemalloc.start()
        try:
            sys.stacked_jacobian(c, 0.6, con, out=buf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_wrong_buffer_shape_rejected(self):
        sys = get_system(8, H)
        with pytest.raises(ValueError):
            sys.stacked_jacobian(random_state(8, RNG), 0.6,
                                 ConstraintSpec(0, 1, 0.05), out=np.empty((8, 8)))

    def test_newton_reuses_one_buffer(self, monkeypatch):
        seen = []
        original = DiscreteSystem.stacked_jacobian

        def spy(self, c, mu, constraint, out=None):
            seen.append(out)
            return original(self, c, mu, constraint, out=out)

        monkeypatch.setattr(DiscreteSystem, "stacked_jacobian", spy)
        pt = small_wave(32, n=1, s=0.1)  # far enough to refactor
        assert len(seen) == pt.factorizations >= 2
        assert seen[0] is not None
        assert all(buf is seen[0] for buf in seen)


class TestChordNewton:
    @pytest.mark.parametrize("label, indices", [("C1", (6, 14, 22)),
                                                ("C5", (2, 6, 10))])
    def test_matches_full_newton(self, c1_full, c5_bundle, label, indices):
        # both are driven below the default tolerance, so that they agree
        # on the solution rather than on where each one stopped
        branch = c1_full if label == "C1" else c5_bundle["parent"]
        sys = get_system(branch.last.coeffs.size, H)
        cfg = NewtonConfig(residual_tol=1e-12)
        for i in indices:
            c, mu, con = secant_predictor(branch, i)
            pt = newton_solve(SpectralField(sys.grid, coeffs=c), mu, H, con, cfg,
                              system=sys)
            ref_c, ref_mu, _ = reference_newton_solve(sys, c, mu, con, cfg.residual_tol)
            assert np.max(np.abs(pt.coeffs - ref_c)) < 1e-9
            assert abs(pt.mu - ref_mu) < 1e-9
            assert 1 <= pt.factorizations < pt.iterations
            assert len(pt.residual_history) == pt.iterations + 1

    def test_far_predictor_refactors_and_converges(self):
        pt = small_wave(32, n=1, s=0.1)
        assert pt.factorizations >= 2
        assert pt.residual_norm < 1e-10
        j = int(np.argmax(np.abs(pt.nodal)))
        assert pt.nodal[j] == pytest.approx(0.1, rel=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 40])
    def test_determinant_sign_from_lu(self, n):
        # random blocks need row interchanges about half the time, so a
        # sign without the pivot parity fails here
        rng = np.random.default_rng(n)
        for _ in range(20):
            A = rng.standard_normal((n, n))
            for B in (A, A[::-1], A[rng.permutation(n)]):
                assert _det_sign(B.copy()) == np.linalg.slogdet(B)[0]
            if n > 1:
                B = A.copy()
                B[[0, 1]] = B[[1, 0]]  # one interchange, an odd permutation
                assert _det_sign(B) == -np.linalg.slogdet(A)[0]

    def test_singular_block_has_sign_zero(self):
        A = np.ones((4, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _det_sign(A) == 0.0

    def test_singular_system_raises(self):
        # a zero closing row leaves the bordered Jacobian exactly singular;
        # lu_factor's LinAlgWarning must not escape
        sys = get_system(16, H)
        x = 0.01 * np.cos(sys.grid.nodes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularJacobian, match="exactly singular"):
                newton_solve(SpectralField(sys.grid, nodal=x), 0.55, H,
                             ProjectionConstraint(np.zeros(16), 0.0),
                             NewtonConfig(), system=sys)

    def test_paths_are_pinned(self, c1_full, c5_bundle):
        # step growth keys on factorizations; these are the point counts
        # of the full-Newton paths it reproduces
        counts = {b.label: len(b.points) for b in c5_bundle["secondaries"]}
        assert counts == {"C51": 14, "C52": 17, "C53": 20, "C53b": 16, "C54": 18}
        assert len(c5_bundle["parent"].points) == 25
        assert len(c1_full.points) == 30


class TestNewton:
    def test_converges_from_asymptotic_predictor(self):
        pt = small_wave(64, n=2, s=0.01)
        assert pt.residual_norm < 1e-10
        assert pt.iterations <= 5
        # the pinned node holds the target; the amplitude is the crest of
        # the series, w(0) = sum c_k, which lies above every node
        j = int(np.argmax(np.abs(pt.nodal)))
        assert pt.nodal[j] == pytest.approx(0.01, rel=1e-6)
        assert pt.sup_norm == pytest.approx(np.sum(pt.coeffs), rel=1e-12)

    def test_solution_point_diagnostics(self):
        pt = small_wave(32, n=1, s=0.02)
        assert pt.r == pytest.approx(math.exp(-H - pt.mean))
        assert 0 < pt.r < 1
        assert pt.mean <= 0
        assert pt.sup_norm < 0.5 * pt.mu
        assert len(pt.residual_history) == pt.iterations + 1

    def test_respects_amplitude_constraint_exactly(self):
        pt = small_wave(32, n=1, s=0.04)
        j = int(np.argmax(np.abs(pt.nodal)))
        assert abs(pt.nodal[j]) == pytest.approx(0.04, abs=1e-12)

    def test_projection_constraint(self):
        sys = get_system(32, H)
        base = small_wave(32, n=1, s=0.02)
        row = RNG.standard_normal(32)
        target = float(row @ base.coeffs)
        pt = newton_solve(base.w, base.mu, H, ProjectionConstraint(row, target),
                          NewtonConfig(), system=sys)
        assert abs(row @ pt.coeffs - target) < 1e-9

    def test_divergence_raises(self):
        sys = get_system(16, H)
        x = 5.0 * np.cos(sys.grid.nodes)  # far outside the solution set
        con = ConstraintSpec(0, 1, 5.0)
        with pytest.raises(SolveFailure):
            newton_solve(SpectralField(sys.grid, nodal=x), 0.55, H, con,
                         NewtonConfig(max_iter=12), system=sys)

    @pytest.mark.parametrize("mean", [800.0, -2 * H], ids=["underflow", "below_bottom"])
    def test_iterate_outside_domain_is_a_solve_failure(self, mean):
        # exp(-h - mean) underflows to 0 at 800 and exceeds 1 at -2h; the
        # continuation halves its step on a SolveFailure, not on DomainError
        sys = get_system(16, H)
        c = np.zeros(16)
        c[0] = mean
        with pytest.raises(InadmissibleIterate):
            newton_solve(SpectralField(sys.grid, coeffs=c), 0.5, H,
                         ConstraintSpec(0, 1, 0.01), NewtonConfig(), system=sys)

    def test_overflow_guard_in_sigma(self):
        # wild iterates with admissible mean but huge nonlinear terms must
        # not produce NaNs or overflow warnings in the residual
        sys = get_system(16, H)
        c = 40.0 * np.ones(16)
        c[0] = -0.3
        with np.errstate(over="raise"):
            res = sys.residual(c, 0.5)
        assert np.all(np.isfinite(res))

    def test_system_cache_reuse(self):
        assert get_system(16, H) is get_system(16, H)
        assert get_system(16, H) is not get_system(32, H)


class TestConfigs:
    def test_newton_config_validation(self):
        with pytest.raises(ValueError):
            NewtonConfig(residual_tol=-1.0)
        with pytest.raises(ValueError):
            NewtonConfig(max_iter=0)

    def test_discrete_system_validation(self):
        with pytest.raises(ValueError):
            DiscreteSystem(8, -1.0)
