import math
import tracemalloc
import warnings

import numpy as np
import pytest

from babenko import continuation, solver
from babenko.solver import (
    Chord,
    DiscreteSystem,
    InadmissibleIterate,
    NewtonDiverged,
    NewtonMaxIter,
    SingularJacobian,
    SolveFailure,
    lu_factor_in_place,
    newton_solve,
    residual_fixed_r,
    residual_modified,
)
from babenko.continuation import (
    ContinuationConfig,
    _correct,
    _det_sign,
    navigate_secondaries,
    start_branch,
)
from babenko.spectral import (
    DomainError,
    dlambda_dr,
    dmu_dr,
    lambda_symbol,
    mu_symbol_total,
    transform_inverse,
)

from conftest import (
    H,
    crest_word,
    dense_product_matrix,
    node_row,
    nodes,
    solve_small,
    transform_matrix,
)

RNG = np.random.default_rng(7)


def nodal(pt):
    """The point's values at the collocation nodes."""
    return transform_inverse(pt.coeffs)


def central_difference_stacked_jacobian(sys, c, mu, row, target, step=1e-7):
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
        J[:, i] = (sys.stacked_residual(cp, mup, row, target)
                   - sys.stacked_residual(cm, mum, row, target)) / (2.0 * step)
    return J


def reference_stacked_jacobian(sys, c, mu, row):
    """Stacked Jacobian by dense arithmetic on fresh product matrices.

    The assembly in DiscreteSystem fills one buffer in place, term by term;
    this is the same derivative written out with N x N temporaries, on
    product matrices built column by column from fine_product.
    """
    N = sys.N
    rho = float(np.exp(-sys.h - c[0]))
    lam = lambda_symbol(rho, N)
    Pw = dense_product_matrix(c)
    g = -(Pw @ (lam * c))
    sigma = float(np.exp(-sys.h - g[0]))
    mus = mu_symbol_total(sigma, N)
    D = dense_product_matrix(lam * c) + Pw * lam
    D[:, 0] -= Pw @ (rho * dlambda_dr(rho, N) * c)
    A = D * mus[:, None] - np.outer(sigma * dmu_dr(sigma, N) * g, D[0])
    A += np.diag(mu_symbol_total(rho, N))
    A[:, 0] -= rho * dmu_dr(rho, N) * c
    A[1:] += Pw[1:] - mu * np.eye(N)[1:]
    J = np.zeros((N + 1, N + 1))
    J[:N, :N] = A
    J[1:N, N] = -c[1:]
    J[N, :N] = row
    return J


def reference_newton_solve(sys, c, mu, row, target, tol, max_iter=50):
    """Full Newton: a fresh Jacobian and numpy.linalg.solve at every step.

    newton_solve reuses one factorization over several steps; this is the
    iteration it replaced, without damping, with the same residual norm.
    Returns the coefficients, mu and the number of steps.
    """
    c = c.copy()
    for it in range(max_iter + 1):
        R = sys.stacked_residual(c, mu, row, target)
        norm = max(np.max(np.abs(transform_inverse(R[:-1]))), abs(R[-1]))
        if norm <= tol:
            return c, mu, it
        step = np.linalg.solve(sys.stacked_jacobian(c, mu, row), -R)
        c, mu = c + step[:-1], mu + step[-1]
    raise AssertionError(f"reference Newton did not converge (residual {norm:.3e})")


def secant_predictor(branch, i):
    """The corrector's predictor for point i from points i-2 and i-1.

    Returns coefficients, mu and the closing row and target (branch.row,
    target), as continue_branch builds them for the parameter value of
    point i.
    """
    row = branch.row
    p0, p1 = branch.points[i - 2], branch.points[i - 1]
    s0, s1, target = (float(row @ p.coeffs) for p in (p0, p1, branch.points[i]))
    t = (target - s1) / (s1 - s0)
    c = p1.coeffs + t * (p1.coeffs - p0.coeffs)
    return c, p1.mu + t * (p1.mu - p0.mu), (row, target)


def random_state(N, rng):
    """Decaying random coefficients with an admissible mean."""
    c = 0.05 * rng.standard_normal(N) * np.exp(-0.05 * np.arange(N))
    c[0] = -0.01
    return c


class TestResiduals:
    def test_zero_solution_is_exact(self):
        sys = DiscreteSystem(16, H)
        res = sys.residual(np.zeros(16), 0.5)
        assert np.max(np.abs(res)) < 1e-15

    def test_linearization_at_zero(self):
        # the residual of an infinitesimal pure mode is (mu_n - mu) times it
        sys = DiscreteSystem(32, H)
        eps, n = 1e-9, 3
        c = np.zeros(32)
        c[n] = eps
        mu = 0.1
        mu_n = math.tanh(n * H) / n
        res = sys.residual(c, mu)
        assert res[n] == pytest.approx((mu_n - mu) * eps, rel=1e-5)

    def test_proposition1_round_trip(self):
        pt = solve_small(64, n=1, s=0.03)
        res_mod = residual_modified(pt.coeffs, pt.mu, H)
        res_fix = residual_fixed_r(pt.coeffs, pt.mu, pt.r)
        assert np.max(np.abs(res_mod)) < 1e-10
        assert np.max(np.abs(res_fix)) < 1e-10

    def test_fixed_r_differs_off_the_manifold(self):
        # at a radius inconsistent with mean(w) the two residuals disagree
        pt = solve_small(32, n=1, s=0.03)
        res = residual_fixed_r(pt.coeffs, pt.mu, 0.9 * pt.r)
        assert np.max(np.abs(res)) > 1e-6

    def test_fixed_r_domain_check(self):
        pt = solve_small(16)
        with pytest.raises(DomainError):
            residual_fixed_r(pt.coeffs, pt.mu, 1.5)


class TestJacobian:
    @pytest.mark.parametrize("N", [16, 32])
    def test_matches_central_differences(self, N):
        sys = DiscreteSystem(N, H)
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
        sys = DiscreteSystem(16, H)
        c = 0.02 * RNG.standard_normal(16)
        c[0] = -0.05
        A, _ = sys.jacobian(c, 0.5)
        eps = 1e-7
        dc = np.zeros(16)
        dc[0] = eps
        r = float(np.exp(-H - c[0]))
        frozen = (residual_fixed_r(c + dc, 0.5, r)
                  - residual_fixed_r(c - dc, 0.5, r)) / (2 * eps)
        assert np.max(np.abs(A[:, 0] - frozen)) > 1e-4

    def test_stacked_shape_and_constraint_row(self):
        pt = solve_small(16)
        J = DiscreteSystem(16, H).stacked_jacobian(pt.coeffs, pt.mu, node_row(16, 0, 1))
        assert J.shape == (17, 17)
        # last row: derivative of sign * w(x_0) - a with respect to the
        # coefficients, cos(k x_0), and nothing in the mu column
        expect = np.append(np.cos(np.arange(16) * nodes(16)[0]), 0.0)
        assert np.allclose(J[16], expect)
        assert J[16, :16] @ pt.coeffs == pytest.approx(nodal(pt)[0], rel=1e-12)

    def test_finite_difference_mode_agrees(self):
        pt = solve_small(16)
        row = node_row(16, 0, 1)
        J_an = DiscreteSystem(16, H).stacked_jacobian(pt.coeffs, pt.mu, row)
        J_fd = central_difference_stacked_jacobian(DiscreteSystem(16, H), pt.coeffs,
                                                   pt.mu, row, pt.sup_norm)
        assert np.max(np.abs(J_an - J_fd)) < 1e-5


class TestInPlaceAssembly:
    @staticmethod
    def rows(N, rng):
        return [node_row(N, 0, 1), rng.standard_normal(N)]

    @pytest.mark.parametrize("N", [1, 2, 3, 8, 64])
    def test_fills_supplied_buffer(self, N):
        rng = np.random.default_rng(N)
        sys = DiscreteSystem(N, H)
        c = random_state(N, rng)
        for row in self.rows(N, rng):
            buf = np.full((N + 1, N + 1), np.nan)
            got = sys.stacked_jacobian(c, 0.6, row, out=buf)
            assert got is buf
            fresh = sys.stacked_jacobian(c, 0.6, row)
            assert np.max(np.abs(buf - fresh)) <= 1e-15 * np.max(np.abs(fresh))

    # the full matrix at every N, and at N = 8, 64, 512 the index sets
    # of a mode-5 subspace solve and of two mode-5 symmetry classes, one
    # holding the mean mode and one without it
    @pytest.mark.parametrize("N, index_set", [
        *(pytest.param(N, None, id=str(N)) for N in (1, 2, 3, 8, 64, 512)),
        *((N, s) for N in (8, 64, 512) for s in ("stride5", "class0", "class1")),
    ])
    def test_matches_reference_assembly(self, N, index_set):
        rng = np.random.default_rng(100 + N)
        sys = DiscreteSystem(N, H)
        c = random_state(N, rng)
        classes = continuation._symmetry_classes(N, 5)
        idx = {None: None, "stride5": np.arange(0, N, 5), "class0": classes[0],
               "class1": classes[1]}[index_set]
        rows = np.arange(N) if idx is None else idx
        L = rows.size
        for row in self.rows(N, rng):
            ref = reference_stacked_jacobian(sys, c, 0.6, row)
            ref = ref[np.ix_(np.append(rows, N), np.append(rows, N))]
            got = sys.stacked_jacobian(c, 0.6, row, idx=idx)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
            assert np.array_equal(got[:L, L], ref[:L, L])
            assert np.array_equal(got[L], np.append(row[rows], 0.0))
        # jacobian is the same assembly without the closing row
        A, dF_dmu = sys.jacobian(c, 0.6, idx)
        assert np.array_equal(A, got[:L, :L])
        assert np.array_equal(dF_dmu, got[:L, L])

    def test_no_matrix_sized_temporaries(self):
        # one 512 x 512 array is 2.1 MB; the mode-5 class-1 block is 205
        # square and the stride-5 band 103, and gathering either by an
        # index array per entry peaked at 1.7 MB for the class
        N = 512
        sys = DiscreteSystem(N, H)
        c = random_state(N, np.random.default_rng(5))
        row = node_row(N, 0, 1)
        for idx in (None, continuation._symmetry_classes(N, 5)[1], np.arange(0, N, 5)):
            L = N if idx is None else idx.size
            buf = np.empty((L + 1, L + 1))
            sys.stacked_jacobian(c, 0.6, row, out=buf, idx=idx)
            tracemalloc.start()
            try:
                sys.stacked_jacobian(c, 0.6, row, out=buf, idx=idx)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1_000_000, L

    def test_wrong_buffer_shape_rejected(self):
        sys = DiscreteSystem(8, H)
        with pytest.raises(ValueError):
            sys.stacked_jacobian(random_state(8, RNG), 0.6, node_row(8, 0, 1),
                                 out=np.empty((8, 8)))

    def test_newton_reuses_one_buffer(self, monkeypatch):
        seen = []
        original = DiscreteSystem.stacked_jacobian

        def spy(self, c, mu, row, out=None, idx=None):
            seen.append(out)
            return original(self, c, mu, row, out=out, idx=idx)

        monkeypatch.setattr(DiscreteSystem, "stacked_jacobian", spy)
        pt = solve_small(32, n=1, s=0.1)  # far enough to refactor
        assert len(seen) == pt.factorizations >= 2
        assert seen[0] is not None
        assert all(buf is seen[0] for buf in seen)


@pytest.mark.blas_threads
class TestChordNewton:
    @pytest.mark.parametrize("label, indices", [("C1", (6, 14, 22)),
                                                ("C5", (2, 6, 10))])
    def test_matches_full_newton(self, c1_full, c5_bundle, label, indices):
        # both are driven below the default tolerance, so that they agree
        # on the solution rather than on where each one stopped
        branch = c1_full if label == "C1" else c5_bundle["parent"]
        sys = DiscreteSystem(branch.last.coeffs.size, H)
        tol = 1e-12
        for i in indices:
            c, mu, con = secant_predictor(branch, i)
            pt = newton_solve(c, mu, H, *con, tol)
            ref_c, ref_mu, _ = reference_newton_solve(sys, c, mu, *con, tol)
            assert np.max(np.abs(pt.coeffs - ref_c)) < 1e-9
            assert abs(pt.mu - ref_mu) < 1e-9
            assert 1 <= pt.factorizations < pt.iterations
            assert len(pt.residual_history) == pt.iterations + 1

    def test_far_predictor_refactors_and_converges(self):
        pt = solve_small(32, n=1, s=0.1)
        assert pt.factorizations >= 2
        assert pt.residual_norm < 1e-10
        x = nodal(pt)
        j = int(np.argmax(np.abs(x)))
        assert x[j] == pytest.approx(0.1, rel=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 40])
    def test_determinant_sign_from_lu(self, n):
        # random blocks need row interchanges about half the time, so a
        # sign without the pivot parity fails here
        rng = np.random.default_rng(n)
        for _ in range(20):
            A = rng.standard_normal((n, n))
            for B in (A, A[::-1], A[rng.permutation(n)]):
                assert _det_sign(lu_factor_in_place(B.copy())) == np.linalg.slogdet(B)[0]
            if n > 1:
                B = A.copy()
                B[[0, 1]] = B[[1, 0]]  # one interchange, an odd permutation
                assert _det_sign(lu_factor_in_place(B)) == -np.linalg.slogdet(A)[0]

    @pytest.mark.parametrize("n", [1, 14, 205, 513])
    def test_lu_matches_scipy_linalg(self, n):
        # lu_factor_in_place and lu_solve call the f2py getrf and getrs that
        # scipy.linalg.lu_factor and lu_solve call, so factors, pivots and
        # solutions are bit-identical to theirs; a non-contiguous (L, L)
        # view of an (L, L+1) buffer is factored on a copy
        from scipy.linalg import lu_factor, lu_solve as scipy_lu_solve

        rng = np.random.default_rng(n)
        buffer = rng.standard_normal((n, n + 1))
        kept = buffer.copy()
        b = rng.standard_normal(n)
        for A, view in ((rng.standard_normal((n, n)), False), (buffer[:, :n], True)):
            ref = lu_factor(A.T)
            got = lu_factor_in_place(A if view else A.copy())
            assert np.array_equal(got[0], ref[0])
            assert np.array_equal(got[1], ref[1]) and got[1].dtype == ref[1].dtype
            for trans in (0, 1):
                x = solver.lu_solve(got, b, trans)
                assert np.array_equal(x, scipy_lu_solve(ref, b, trans=trans))
        assert np.array_equal(buffer, kept)
        # exact zero pivots of a singular matrix show on U's diagonal, with
        # no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lu, _ = lu_factor_in_place(np.ones((n, n)))
        assert np.count_nonzero(np.diagonal(lu) == 0.0) == n - 1

    def test_singular_block_has_sign_zero(self):
        A = np.ones((4, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _det_sign(lu_factor_in_place(A)) == 0.0

    def test_singular_system_raises(self):
        # a zero closing row leaves the bordered Jacobian exactly singular,
        # and no warning escapes
        x = 0.01 * np.cos(nodes(16))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularJacobian, match="exactly singular"):
                newton_solve(transform_matrix(16) @ x, 0.55, H, np.zeros(16), 0.0)

    def test_paths_are_pinned(self, c1_full, c5_bundle):
        # the point counts of the paths that the step rule (grow by 1.3
        # after an accepted corrector, halve after a rejected one, under
        # the gap cap) and the chord's Broyden-updated solves give
        counts = {b.label: len(b.points) for b in c5_bundle["secondaries"]}
        assert counts == {"C51": 14, "C52": 17, "C52b": 14, "C53": 18, "C53b": 16, "C54": 18}
        assert len(c5_bundle["parent"].points) == 25
        assert len(c1_full.points) == 30
        # endpoints (mu, sup_norm) of the secondaries, located at the stop
        # ratio, to rounding; the primary is solved on its mode-5
        # subspace, where the off-class coefficients stay exactly 0
        endpoints = {
            "C51": (0.22867410905338212, 0.11422271747216436),
            "C52": (0.23149581323400029, 0.11563215871038313),
            "C52b": (0.23149581077570272, 0.1156321574824635),
            "C53": (0.23434416106605674, 0.11705490845249081),
            "C53b": (0.23436564510868094, 0.11706563973178603),
            "C54": (0.23724885795843825, 0.11850580455023971),
        }
        for b in c5_bundle["secondaries"]:
            assert (b.last.mu, b.last.sup_norm) == pytest.approx(endpoints[b.label], abs=1e-12)

    def test_inherited_factors_repeat_the_fresh_solve(self, c1_full):
        # a solve that factored once, at its predictor, leaves those
        # factors in the chord; the same predictor then takes the same
        # steps on them, bit for bit, and factors nothing
        i = next(i for i in range(2, len(c1_full.points) - 1)
                 if c1_full.points[i].factorizations == 1)
        c, mu, con = secant_predictor(c1_full, i)
        chord = Chord()
        fresh = newton_solve(c, mu, H, *con, chord=chord)
        assert fresh.factorizations == 1 and chord.factors is not None
        again = newton_solve(c, mu, H, *con, chord=chord)
        assert again.factorizations == 0
        assert again.iterations == fresh.iterations
        assert np.array_equal(again.coeffs, fresh.coeffs) and again.mu == fresh.mu

    def test_chord_of_another_band_is_not_used(self, monkeypatch):
        shapes = spy_shapes(monkeypatch)
        chord = Chord()
        first = solve_chord(32, 1, 0.01, chord)
        buf = chord.buffer
        assert (chord.n, chord.K, buf.shape) == (1, 32, (33, 33))
        # a mode-2 predictor has another stride: assembled fresh, into a
        # buffer of its own shape
        second = solve_chord(32, 2, 0.01, chord)
        assert second.factorizations >= 1
        assert (chord.n, chord.K, chord.buffer.shape) == (2, 32, (17, 17))
        assert shapes == [(33, 33)] * first.factorizations + [(17, 17)] * second.factorizations
        # the same shape without factors is assembled into the same buffer
        buf = chord.buffer
        chord.factors = None
        assert solve_chord(32, 2, 0.02, chord).factorizations >= 1
        assert chord.buffer is buf

    def test_failed_solve_leaves_no_factors(self):
        chord = Chord()
        solve_chord(16, 1, 0.01, chord)
        assert chord.factors is not None
        with pytest.raises(NewtonDiverged):
            diverging_solve(chord)
        assert chord.factors is None

    def test_factors_three_points_back_need_no_factorization(self, c1_full):
        # point 16's corrector on the factors point 13's left: its chord
        # steps contract too slowly, and Broyden updates of those factors
        # carry it to convergence instead of a refactorization
        chord = Chord()
        c, mu, con = secant_predictor(c1_full, 13)
        newton_solve(c, mu, H, *con, chord=chord)
        c, mu, con = secant_predictor(c1_full, 16)
        assert (chord.n, chord.K) == (1, solver._band(c)) == (1, 512)
        inherited = newton_solve(c, mu, H, *con, chord=chord)
        fresh = newton_solve(c, mu, H, *con)
        assert inherited.factorizations == 0 and fresh.factorizations == 1
        assert inherited.residual_norm <= solver.RESIDUAL_TOL
        assert np.max(np.abs(inherited.coeffs - fresh.coeffs)) < 1e-9
        assert abs(inherited.mu - fresh.mu) < 1e-9

    def test_damped_step_refactors(self, monkeypatch):
        # the first step of a small-amplitude solve, its mean pushed 0.8
        # down and so below the operator domain's -h = -0.63, is damped to
        # a half; the next step is taken on factors assembled at the damped
        # iterate, not on the old ones or Broyden updates of them, and the
        # solve converges
        log = newton_log(monkeypatch, push=lambda step: step - 0.8 * (np.arange(step.size) == 0))
        pt = solve_small(32, n=1, s=0.01)
        assert pt.residual_norm <= solver.RESIDUAL_TOL
        kinds = "".join(kind for kind, _ in log)
        assert kinds.startswith("rasras")
        c0, step, c1 = log[0][1], log[2][1], log[3][1]
        assert c1[0] - c0[0] == pytest.approx(step[0] / 2, rel=1e-12)
        assert pt.factorizations == kinds.count("a") >= 2

    def test_endpoints_do_not_depend_on_the_chord(self, c5_bundle, monkeypatch):
        # the secondaries re-traced with every solve fresh: their points
        # move with the steps, but the located endpoints do not
        class NoFactors(Chord):
            def __setattr__(self, name, value):
                super().__setattr__(name, None if name == "factors" else value)

        monkeypatch.setattr(continuation, "Chord", NoFactors)
        fresh = navigate_secondaries(c5_bundle["parent"], H, c5_bundle["cfg"])
        ref = c5_bundle["secondaries"]
        assert [(b.label, crest_word(b)) for b in fresh] == \
            [(b.label, crest_word(b)) for b in ref]
        for b, r in zip(fresh, ref):
            assert abs(b.last.mu - r.last.mu) < 1e-8
            assert abs(b.last.sup_norm - r.last.sup_norm) < 1e-8


def solve_chord(N, n, s, chord):
    """newton_solve of the mode-n predictor s cos(nt) at N, at its crest, with chord."""
    c = np.zeros(N)
    c[n] = s
    return newton_solve(c, math.tanh(n * H) / n, H, np.ones(N), s, chord=chord)


def diverging_solve(chord=None):
    """A solve whose residual grows past its guard, at N = 16."""
    x = 5.0 * np.cos(nodes(16))  # far outside the solution set
    return newton_solve(transform_matrix(16) @ x, 0.55, H, node_row(16, 0, 1), 5.0,
                        chord=chord)


def newton_log(monkeypatch, push=None):
    """Record, in order, Newton's residual iterates ("r", c), assemblies
    ("a", None) and back-substitutions ("s", step) as (kind, data).

    push, when given, replaces the first back-substitution's step by
    push(step), and the log holds the pushed step.
    """
    log = []
    residual, jacobian = DiscreteSystem.stacked_residual, DiscreteSystem.stacked_jacobian
    lu_solve = solver.lu_solve

    def spy_residual(self, c, *args):
        log.append(("r", c.copy()))
        return residual(self, c, *args)

    def spy_jacobian(self, *args, **kwargs):
        log.append(("a", None))
        return jacobian(self, *args, **kwargs)

    def spy_solve(*args, **kwargs):
        step = lu_solve(*args, **kwargs)
        if push is not None and not any(kind == "s" for kind, _ in log):
            step = push(step)
        log.append(("s", step.copy()))
        return step

    monkeypatch.setattr(DiscreteSystem, "stacked_residual", spy_residual)
    monkeypatch.setattr(DiscreteSystem, "stacked_jacobian", spy_jacobian)
    monkeypatch.setattr(solver, "lu_solve", spy_solve)
    return log


def off_class(c, n):
    """The coefficients c_k with k not a multiple of n."""
    return c[np.arange(c.size) % n != 0]


def spy_shapes(monkeypatch):
    """Record the shape of every bordered Jacobian Newton assembles."""
    shapes = []
    original = DiscreteSystem.stacked_jacobian

    def spy(self, c, mu, row, out=None, idx=None):
        shapes.append(out.shape)
        return original(self, c, mu, row, out=out, idx=idx)

    monkeypatch.setattr(DiscreteSystem, "stacked_jacobian", spy)
    return shapes


@pytest.mark.blas_threads
class TestSubspaceSolve:
    """A mode-n predictor is solved on the subspace c_k = 0, k not = 0 mod n."""

    @pytest.mark.parametrize("label, n, indices", [("C2", 2, (4, 10, 20)),
                                                   ("C5", 5, (3, 6, 12, 20))])
    def test_class_blocks_match_full_jacobian(self, c2_full, c5_bundle, label, n,
                                              indices):
        branch = c2_full if label == "C2" else c5_bundle["parent"]
        sys = DiscreteSystem(branch.last.coeffs.size, H)
        for i in indices:
            p = branch.points[i]
            A, dF_dmu = sys.jacobian(p.coeffs, p.mu)
            for idx in continuation._symmetry_classes(sys.N, n):
                block, dF = sys.jacobian(p.coeffs, p.mu, idx)
                ref = A[np.ix_(idx, idx)]
                assert np.max(np.abs(block - ref)) <= 1e-14 * np.max(np.abs(ref))
                assert np.array_equal(dF, dF_dmu[idx])

    @pytest.mark.parametrize("label, n, indices", [("C2", 2, (4, 10, 20)),
                                                   ("C5", 5, (3, 6, 12, 20))])
    def test_matches_full_solve_away_from_events(self, c2_full, c5_bundle, label, n,
                                                 indices):
        # one resolved off-class coefficient, 1e-14 against eps * max|c| of
        # about 1e-17, sends the same predictor through the stride-1 solve
        branch = c2_full if label == "C2" else c5_bundle["parent"]
        for i in indices:
            c, mu, con = secant_predictor(branch, i)
            sub = newton_solve(c, mu, H, *con, 1e-12)
            c[1] = 1e-14
            full = newton_solve(c, mu, H, *con, 1e-12)
            assert not np.any(off_class(sub.coeffs, n))
            assert np.max(np.abs(sub.coeffs - full.coeffs)) < 1e-12
            assert abs(sub.mu - full.mu) < 1e-12

    def test_c5_primary_points_stay_on_the_subspace(self, c5_bundle):
        parent = c5_bundle["parent"]
        for p in parent.points:
            assert not np.any(off_class(p.coeffs, 5))
        for ev in c5_bundle["events"]:
            assert not np.any(off_class(ev.diagnostics["w_coeffs"], 5))

    def test_unresolved_off_class_coefficient_stays_on_the_subspace(self, c5_bundle,
                                                                    monkeypatch):
        # an off-class coefficient below eps * max|c| is not resolved, so
        # the stride stays 5 and the coefficient is set to 0; solved on all
        # modes, its products would be subnormal and slow every factorization
        shapes = spy_shapes(monkeypatch)
        c, mu, con = secant_predictor(c5_bundle["parent"], 6)
        clean = newton_solve(c, mu, H, *con)
        c[7] = 1e-300
        shapes.clear()
        pt = newton_solve(c, mu, H, *con)
        assert shapes and set(shapes) == {(104, 104)}  # ceil(512 / 5) + 1
        assert np.array_equal(pt.coeffs, clean.coeffs)
        assert pt.mu == clean.mu
        assert not np.any(off_class(pt.coeffs, 5))


@pytest.mark.blas_threads
class TestBandSolve:
    """Newton solves each step on the modes 0, n, 2n, ... < K the iterate resolves."""

    def test_band_jacobian_is_the_leading_block(self, c1_full):
        # with c_k = 0 for k >= K, the K-mode system's bordered Jacobian is
        # rows and columns < K of the N-mode one, with the same border
        p, K = c1_full.points[9], 128
        c = p.coeffs.copy()
        c[K:] = 0.0
        full = DiscreteSystem(c.size, H).stacked_jacobian(c, p.mu, c1_full.row)
        band = DiscreteSystem(K, H).stacked_jacobian(c[:K], p.mu, c1_full.row[:K])
        keep = np.append(np.arange(K), c.size)
        ref = full[np.ix_(keep, keep)]
        assert np.max(np.abs(band - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_small_amplitudes_factor_the_smallest_band(self, monkeypatch):
        shapes = spy_shapes(monkeypatch)
        start_branch(1, 0.01, H, ContinuationConfig(N=1024))
        assert shapes and set(shapes) == {(65, 65)}
        shapes.clear()
        start_branch(5, 0.01, H, ContinuationConfig(N=512))
        assert shapes and set(shapes) == {(14, 14)}  # k = 0, 5, ..., 60 and mu

    def test_coefficients_beyond_the_band_are_zeroed(self, c1_full):
        # a predictor coefficient below eps * max|c| outside the band is
        # set to 0, not carried along untouched by the steps
        c, mu, con = secant_predictor(c1_full, 9)
        c[300] = 1e-20
        assert solver._band(c) == 128
        pt = newton_solve(c, mu, H, *con)
        assert not np.any(pt.coeffs[128:])

    def test_matches_the_full_band(self, c1_full, monkeypatch):
        indices = range(2, 13)  # the C1@512 predictors with K < N
        band = []
        for i in indices:
            c, mu, con = secant_predictor(c1_full, i)
            assert solver._band(c) < c.size
            band.append(newton_solve(c, mu, H, *con))
        monkeypatch.setattr(solver, "_band", lambda c: c.size)
        for i, pt in zip(indices, band):
            c, mu, con = secant_predictor(c1_full, i)
            ref = newton_solve(c, mu, H, *con)
            assert np.max(np.abs(pt.coeffs - ref.coeffs)) < 1e-14
            assert abs(pt.mu - ref.mu) < 1e-14
            assert (pt.iterations, pt.factorizations) == (ref.iterations, ref.factorizations)

    def test_truncated_predictor_widens_the_band(self, c1_full, monkeypatch):
        # a = 0.19 needs 128 modes or more; a predictor cut to 32 of them
        # starts on the 64-mode band, which widens once the steps fill its
        # top half.  Both solves are driven below the default tolerance,
        # so that they agree on the solution rather than on where each
        # one stopped.
        tol = 1e-12
        c, mu, con = secant_predictor(c1_full, 12)
        assert c1_full.points[12].sup_norm == pytest.approx(0.19, abs=5e-3)
        ref = newton_solve(c, mu, H, *con, tol)
        c[32:] = 0.0
        shapes = spy_shapes(monkeypatch)
        pt = newton_solve(c, mu, H, *con, tol)
        assert pt.residual_norm <= tol
        assert shapes[0] == (65, 65) and shapes[-1] > shapes[0]
        assert shapes == sorted(shapes)
        assert np.max(np.abs(pt.coeffs - ref.coeffs)) < 1e-12
        assert abs(pt.mu - ref.mu) < 1e-12


@pytest.mark.blas_threads
class TestDivergenceGuard:
    """Newton stops once the residual norm exceeds max(|R_0|, 1)."""

    def test_overstepped_correctors_stop_early(self, c5_bundle):
        # Traced from fresh factors, C53 (seeded along -phi at the first
        # event) once stepped too far twice: from the secant through its
        # points 7 and 8 to row . c = 0.006804 and, after the halved step,
        # through the next two points to 0.007933.  With Broyden updates
        # both of those correctors converge, so the guard is driven by
        # fresh solves from further oversteps along the same secants: 1.5
        # and 2.5 times as far from the secant's last point (every factor
        # from 1.3 to 3 diverges on the first secant, and 2 and 3 on the
        # second).  Without the guard such correctors ran all 50
        # iterations and failed as NewtonMaxIter.
        cfg = c5_bundle["cfg"]
        c53 = next(b for b in c5_bundle["secondaries"] if b.label == "C53")
        row = c53.row
        p7, p8 = c53.points[7:9]
        assert row @ p8.coeffs == pytest.approx(0.0051917980, abs=1e-10)
        p9 = _correct(H, cfg, 0.005998147185085595, p8, p7, row)
        p10 = _correct(H, cfg, 0.007046385387918883, p9, p8, row)
        for prev, prev2, target in ((p8, p7, 0.0076108213430455506),
                                    (p10, p9, 0.009262048245974003)):
            with pytest.raises(NewtonDiverged) as info:
                _correct(H, cfg, target, prev, prev2, row)
            exc = info.value
            assert 1 <= exc.iterations <= 20
            assert 1 <= exc.factorizations <= exc.iterations
            assert len(exc.residual_history) == exc.iterations + 1
            assert exc.residual_history[-1] > max(exc.residual_history[0], 1.0)

    def test_converged_solves_peak_far_inside_the_guard(self, c1_full, c5_bundle):
        # the guard is at least 1; ten times that margin keeps every
        # converged solve's iterations as they were without it
        branches = [c1_full, c5_bundle["parent"], *c5_bundle["secondaries"]]
        peak = max(max(p.residual_history) for b in branches for p in b.points)
        assert peak < 0.1

    def test_max_iter_failure_carries_its_cost(self, monkeypatch):
        # the far predictor of solve_small(32, s=0.1) needs 7 steps
        monkeypatch.setattr(solver, "MAX_ITER", 2)
        x = 0.1 * np.cos(nodes(32))
        with pytest.raises(NewtonMaxIter) as info:
            newton_solve(transform_matrix(32) @ x, math.tanh(H), H, node_row(32, 0, 1), 0.1)
        exc = info.value
        assert exc.iterations == 2
        assert len(exc.residual_history) == 3
        assert 1 <= exc.factorizations <= 2

    def test_failure_raised_elsewhere_costs_nothing(self):
        exc = SolveFailure("iterate collapsed onto the parent branch")
        assert (exc.iterations, exc.factorizations, exc.residual_history) == (0, 0, ())


class TestNewton:
    def test_converges_from_asymptotic_predictor(self):
        pt = solve_small(64, n=2, s=0.01)
        assert pt.residual_norm < 1e-10
        assert pt.iterations <= 5
        # the pinned node holds the target; the amplitude is the crest of
        # the series, w(0) = sum c_k, which lies above every node
        x = nodal(pt)
        j = int(np.argmax(np.abs(x)))
        assert x[j] == pytest.approx(0.01, rel=1e-6)
        assert pt.sup_norm == pytest.approx(np.sum(pt.coeffs), rel=1e-12)

    def test_solution_point_diagnostics(self):
        pt = solve_small(32, n=1, s=0.02)
        assert pt.r == pytest.approx(math.exp(-H - pt.mean))
        assert 0 < pt.r < 1
        assert pt.mean <= 0
        assert pt.sup_norm < 0.5 * pt.mu
        assert len(pt.residual_history) == pt.iterations + 1

    def test_respects_amplitude_constraint_exactly(self):
        pt = solve_small(32, n=1, s=0.04)
        x = nodal(pt)
        j = int(np.argmax(np.abs(x)))
        assert abs(x[j]) == pytest.approx(0.04, abs=1e-12)

    def test_projection_constraint(self):
        base = solve_small(32, n=1, s=0.02)
        row = RNG.standard_normal(32)
        target = float(row @ base.coeffs)
        pt = newton_solve(base.coeffs, base.mu, H, row, target)
        assert abs(row @ pt.coeffs - target) < 1e-9

    def test_divergence_raises(self):
        with pytest.raises(NewtonDiverged) as info:
            diverging_solve()
        assert info.value.iterations < 12

    @pytest.mark.parametrize("where", ["coefficient", "mu"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_seed_fails_before_assembly(self, where, bad, monkeypatch):
        def no_assembly(*args, **kwargs):
            raise AssertionError("assembled a Jacobian for a non-finite seed")

        monkeypatch.setattr(DiscreteSystem, "stacked_jacobian", no_assembly)
        c = transform_matrix(16) @ (0.01 * np.cos(nodes(16)))
        mu = math.tanh(H)
        if where == "mu":
            mu = bad
        else:
            c[3] = bad
        with pytest.raises(NewtonDiverged, match="not finite") as info:
            newton_solve(c, mu, H, node_row(16, 0, 1), 0.01)
        assert (info.value.iterations, info.value.factorizations) == (0, 0)

    @pytest.mark.parametrize("mean", [800.0, -2 * H], ids=["underflow", "below_bottom"])
    def test_iterate_outside_domain_is_a_solve_failure(self, mean):
        # exp(-h - mean) underflows to 0 at 800 and exceeds 1 at -2h; the
        # continuation halves its step on a SolveFailure, not on DomainError
        c = np.zeros(16)
        c[0] = mean
        with pytest.raises(InadmissibleIterate) as info:
            newton_solve(c, 0.5, H, node_row(16, 0, 1), 0.01)
        # it fails at the seed, before any step
        exc = info.value
        assert (exc.iterations, exc.factorizations, exc.residual_history) == (0, 0, ())

    def test_overflow_guard_in_sigma(self):
        # wild iterates with admissible mean but huge nonlinear terms must
        # not produce NaNs or overflow warnings in the residual
        sys = DiscreteSystem(16, H)
        c = 40.0 * np.ones(16)
        c[0] = -0.3
        with np.errstate(over="raise"):
            res = sys.residual(c, 0.5)
        assert np.all(np.isfinite(res))


class TestThirdOrderDispersion:
    """C1's mu at small amplitude against a closed form, at six depths.

    With T = tanh h and c_1 the first cosine coefficient of the conformal
    series, mu = T (1 + kappa(h) c_1^2 + O(c_1^4)) with
    kappa(h) = (9 - 6 T^2 + 5 T^4) / (8 T^4).  This kappa is the
    coefficient of Stokes's third-order dispersion relation for c^2
    (Whitham 1974, Linear and Nonlinear Waves, section 13.13),
    (9 - 10 T^2 + 9 T^4) / (8 T^4), plus (1 - T^2) / (2 T^2), which
    vanishes in deep water.  The extra term is measured, not yet derived;
    c_1 and the mean level being those of the conformal variable, not the
    physical ones, is the expected source.
    Every operator of the residual enters at third order, so this checks
    them all at each depth.
    """

    @pytest.mark.parametrize("h", [0.15, 0.3, math.pi / 5, 1.0, 2.0, 4.0])
    def test_kappa_matches_the_closed_form(self, h):
        # kappa(a) = (mu/T - 1)/a^2 is linear in a^2; its intercept is kappa(h)
        N, T = 64, math.tanh(h)
        row = np.eye(N)[1]
        a = np.array([4e-4, 6e-4, 8e-4, 1e-3]) * min(1.0, h)
        kappa = [(newton_solve(s * row, T, h, row, s, 1e-14).mu / T - 1) / s**2 for s in a]
        intercept = np.polyfit(a**2, kappa, 1)[1]
        assert intercept == pytest.approx((9 - 6 * T**2 + 5 * T**4) / (8 * T**4), rel=1e-6)


class TestConfigs:
    def test_residual_tol_must_be_positive(self):
        for tol in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="residual_tol must be positive"):
                newton_solve(np.eye(16)[1], 0.5, H, np.eye(16)[1], 0.01, residual_tol=tol)
            with pytest.raises(ValueError, match="residual_tol must be positive"):
                ContinuationConfig(residual_tol=tol)

    def test_discrete_system_validation(self):
        with pytest.raises(ValueError):
            DiscreteSystem(8, -1.0)
