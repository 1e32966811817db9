"""Discrete steady-wave system and Newton iteration.

The unknowns are the N cosine coefficients c of w, a plain float vector
whose length is N, plus the wave-speed parameter mu; every public function
here takes and returns such vectors.  The nonlinear residual couples the
multiplier symbols at the radius exp(-h - c_0) with exactly dealiased
quadratic products; one linear closing row . c = target on the
coefficients, a plain vector row such as the series value at a crest or a
null-vector direction, closes the system.  The analytic Jacobian,
including the chain-rule terms through the conformal-radius functional,
is derived once, by DiscreteSystem._assemble, over an index set: all N
modes, the modes of a mode-n subspace, or one symmetry class.  Its terms
are diagonal symbols, row and column scalings and rank-one terms on the
structured product matrices, written in place with no change of basis and
no temporary of the Jacobian's size; every index set takes those matrices
from the one kernel spectral.add_product_matrix, by the same sequence.

Newton is a chord (Shamanskii) iteration on the resolved band, the
coefficients k = 0, n, 2n, ... < K and mu.  A coefficient is resolved
when |c_k| > eps * max|c|; n is the gcd of the predictor's resolved modes,
so n = 1 except for a mode-n predictor, whose iterates stay on that
fixed-point subspace, and K is the smallest power of two >= BAND_MIN,
capped at N, such that no c_k with k >= K/2 is resolved; it never shrinks
within a solve.  The coefficients off 0, n, 2n, ... and those with k >= K
are set to 0, which moves each by at most eps * max|c|, so the band's
matrix is the K-mode system's own Jacobian, the leading rows and columns
of the N-mode one (Boyd, Chebyshev and Fourier Spectral Methods, 2001,
ch. 2, on the spectral tail).  Newton uses
one bordered buffer per band, (len(band)+1) square, assembles the
Jacobian into it, factors it in place with LAPACK getrf and
takes further steps by back-substitution on those factors, the chord
steps (Kelley, Solving Nonlinear Equations with Newton's Method, SIAM
2003, ch. 5).  A chord step that leaves more than CONTRACTION of the
residual begins good Broyden updates of the factors, in Kelley's product
form (Kelley, Iterative Methods for Linear and Nonlinear Equations, SIAM
1995, sec. 7.3): the steps since that chord step are kept, and each next
step is the back-substitution corrected by them, O(len(band)) work per
kept step against a factorization's O(len(band)^3).  Only a Broyden step
that leaves more than BROYDEN_CONTRACTION of the residual (Deuflhard's
Theta < 1/2; Deuflhard, Newton Methods for Nonlinear Problems, Springer
2004, sec. 2.1.4) or a damped step reassembles, chooses K again,
refactors and drops the kept steps.  A Chord carries the buffer and its
factors, not the Broyden steps, from one solve to the next: a solve whose
predictor has the chord's n and K starts from its factors, under the
same rules, and a converged solve leaves its last factors there, so
successive correctors along a branch often converge without a
factorization of their own (Deuflhard 2004, ch. 5).  The residual
stays that of all N modes.  Newton judges
convergence on the nodal values of the residual, and declares divergence
as soon as that norm exceeds max(|R_0|, 1), its starting value floored at
one (a residual monitor in the sense of Deuflhard, Newton Methods for
Nonlinear Problems, Springer 2004).  The converged solves of the tests
and of the C5 benchmark peak below 0.1, at least ten times inside that
guard, so it never ends one of them; the correctors stepped too far along
a C5 secondary branch cross it after 4 to 18 iterations instead of
running to MAX_ITER.  A SolveFailure from newton_solve carries the steps,
factorizations and residual history of the failed solve.  getrf and getrs
are scipy's LAPACK wrappers, loaded by the first factorization without the
scipy.linalg package; the spectral transforms run on numpy.fft, so importing
babenko, and every command that never factors, loads no scipy at all.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .spectral import (
    DomainError,
    _check_r,
    add_product_matrix,
    as_depth,
    dlambda_dr,
    dmu_dr,
    fine_coeffs,
    fine_values,
    lambda_symbol,
    mu_symbol_total,
    series_peak,
    transform_inverse,
)

__all__ = [
    "SolutionPoint",
    "Chord",
    "SolveFailure",
    "NewtonDiverged",
    "NewtonMaxIter",
    "SingularJacobian",
    "InadmissibleIterate",
    "DiscreteSystem",
    "residual_modified",
    "residual_fixed_r",
    "newton_solve",
    "get_system",
]


class SolveFailure(RuntimeError):
    """Base class for structured Newton failures.

    A failure raised by newton_solve carries the cost of the failed solve,
    as SolutionPoint does for a converged one: iterations counts the steps
    whose residual was evaluated, factorizations the Jacobians factored,
    and residual_history holds the residual norm before each of those
    steps and after the last.  Failures raised before the first step, or
    elsewhere, such as the continuation's own checks on a converged point,
    keep the empty defaults.
    """

    iterations: int = 0
    factorizations: int = 0
    residual_history: list | tuple = ()


class NewtonDiverged(SolveFailure):
    pass


class NewtonMaxIter(SolveFailure):
    pass


class SingularJacobian(SolveFailure):
    pass


class InadmissibleIterate(SolveFailure):
    """An iterate left the operator domain.

    Either damping could not keep the mean above -h, or a predictor or a
    wild step gave a mean so large that the conformal radius underflowed.
    """


# the residual tolerance of a solve, unless its caller sets another
RESIDUAL_TOL = 1e-10
# newton_solve raises NewtonMaxIter after this many steps
MAX_ITER = 50


@dataclass
class SolutionPoint:
    """A converged (mu, w) pair with derived diagnostics.

    coeffs holds the N cosine coefficients of w, and w is a read-only alias
    of it.  sup_norm is the amplitude max_t |w(t)| of the cosine series,
    crests at t = 0 and t = pi included, not the maximum over the
    collocation nodes.
    iterations counts Newton steps and factorizations the Jacobians
    assembled and factored for them, 0 when every step ran on factors
    inherited from a Chord; residual_history holds the residual norm
    before each step and after the last.
    """

    mu: float
    coeffs: np.ndarray = field(repr=False)
    r: float
    sup_norm: float
    mean: float
    residual_norm: float
    iterations: int = 0
    residual_history: list = field(default_factory=list, repr=False)
    factorizations: int = 0

    @property
    def w(self) -> np.ndarray:
        return self.coeffs

    @classmethod
    def from_solution(
        cls, coeffs: np.ndarray, mu: float, h: float,
        residual_norm: float = float("nan"), iterations: int = 0,
        residual_history: list | None = None, factorizations: int = 0,
    ) -> "SolutionPoint":
        """Build a point from (mu, coeffs) data, computing its diagnostics."""
        h, mean = float(h), float(coeffs[0])
        return cls(
            mu=float(mu), coeffs=coeffs, r=float(np.exp(-h - mean)),
            sup_norm=abs(series_peak(coeffs)[1]), mean=mean,
            residual_norm=float(residual_norm), iterations=iterations,
            residual_history=list(residual_history or []),
            factorizations=factorizations,
        )


class DiscreteSystem:
    """The collocation system at fixed N and depth h, on coefficient vectors.

    Instances hold N and h only, so callers build one where they need it.
    The Jacobian, of all N modes or of the rows and columns of an index
    set, is assembled by _assemble in place into a buffer the caller
    owns (stacked_jacobian's out).
    """

    # margin keeping exp(-h - mean) away from 1 during damped iterations
    MEAN_MARGIN = 1e-10
    # rows per block of the rank-one update, which bounds its temporary
    _BLOCK = 64

    def __init__(self, N: int, h: float):
        self.N = int(N)
        self.h = as_depth(h)

    def _radius(self, mean: float) -> float:
        rho = np.exp(-self.h - mean)
        if rho >= 1.0 - self.MEAN_MARGIN:
            raise DomainError(
                f"operator undefined at this mean value: mean={mean} <= -h={-self.h}"
            )
        return rho

    def _sigma(self, g0: float) -> float:
        # the L-type symbol saturates for large radii; clamping the exponent
        # only guards wild transient iterates against overflow
        return float(np.exp(np.clip(-self.h - g0, -745.0, 46.0)))

    def residual(self, c: np.ndarray, mu: float) -> np.ndarray:
        """Depth-parametrized residual in coefficient space."""
        return _residual(c, mu, self._radius(c[0]), self._sigma)

    def jacobian(self, c: np.ndarray, mu: float, idx: np.ndarray | None = None):
        """Analytic d(residual)/dc and d(residual)/dmu in coefficient space.

        Given an index set idx, such as one symmetry class, only the rows
        and columns idx; see _assemble.  Both are views into one
        buffer.
        """
        L = self.N if idx is None else idx.size
        J = np.empty((L, L + 1))
        self._assemble(c, mu, J, idx)
        return J[:, :L], J[:, L]

    def stacked_residual(
        self, c: np.ndarray, mu: float, row: np.ndarray, target: float,
    ) -> np.ndarray:
        """Residual coefficients followed by the closing row's value row . c - target."""
        return np.append(self.residual(c, mu), float(row @ c) - target)

    def stacked_jacobian(
        self, c: np.ndarray, mu: float, row: np.ndarray, out: np.ndarray | None = None,
        idx: np.ndarray | None = None,
    ) -> np.ndarray:
        """(N+1) x (N+1) Jacobian of stacked_residual in (c, mu).

        Its last row is the closing row, row; the target does not enter
        it.  Given an index set idx of size L (see _assemble), only the
        rows and columns idx, the mu column and the closing row.  It is
        written into out when given (every entry is overwritten) and
        returned; the Jacobian is assembled with no temporary of its size.
        """
        if idx is not None:
            row = row[idx]
        L = row.size
        if out is None:
            out = np.empty((L + 1, L + 1))
        elif out.shape != (L + 1, L + 1):
            raise ValueError(f"out must have shape {(L + 1, L + 1)}, got {out.shape}")
        self._assemble(c, mu, out[:L], idx)
        out[L, :L] = row
        out[L, L] = 0.0
        return out

    def _assemble(
        self, c: np.ndarray, mu: float, A: np.ndarray, idx: np.ndarray | None = None,
    ) -> None:
        """Rows and columns idx of d(residual)/dc into A[:, :L], d/dmu into A[:, L].

        idx is an index set of size L that add_product_matrix accepts: all
        N modes (None), a mode-n band or a symmetry class.  The residual is
        mus(sigma) * P(w) J w + mu_h(rho) * w, plus w^2 / 2 and -mu * w
        outside the mean mode, where P is the product matrix,
        J w = lam(rho) * c, rho = exp(-h - c_0) and sigma = exp(-h - g_0)
        with g = -P(w) J w.  Its derivative is written once over the modes k
        of the rows and columns, one pass per term, and the same sequence
        runs for every index set: the product matrices are added in place
        by add_product_matrix over the whole rows of A, whose column L
        receives terms that are overwritten at the end.  The chain-rule
        terms through rho fill column 0, so they apply only when idx holds
        0, and the rank-one term of sigma needs row 0 of D at the columns
        k, which is lam * c apart from its column 0.  No temporary of A's
        size is made, and column L is written last.
        """
        N = self.N
        k = np.arange(N) if idx is None else idx
        L = k.size
        D = A[:, :L]
        rho = self._radius(c[0])
        lam = lambda_symbol(rho, N)
        lc = lam * c
        # w on the fine grid once, for g = -w * (J w) and, when the columns
        # hold the mean mode, the chain-rule column w * (rho dJ/drho w)
        mean = k[0] == 0
        f = fine_values((c, lc, rho * dlambda_dr(rho, N) * c) if mean else (c, lc))
        prods = fine_coeffs(f[0] * f[1:])
        g = -prods[0]
        sigma = self._sigma(g[0])

        # dg/dc = -D with D = P(Jw) + P(w) diag(lam) - the column-0 term
        A.fill(0.0)
        add_product_matrix(c, A, k)
        A *= np.append(lam[k], 0.0)
        add_product_matrix(lc, A, k)
        d0 = np.append(lc[k], 0.0)  # row 0 of D at the columns k, and column L
        if mean:
            col0 = prods[1]
            D[:, 0] -= col0[k]
            d0[0] = -col0[0]

        # middle term -mus(sigma(c)) * g(c): the row scaling by mus and the
        # rank-one term of sigma = exp(-h - g_0), in blocks of whole rows
        mus = mu_symbol_total(sigma, N)[k]
        beta = (sigma * dmu_dr(sigma, N) * g)[k]
        tmp = np.empty((min(L, self._BLOCK), L + 1))
        for i in range(0, L, self._BLOCK):
            rows = slice(i, i + self._BLOCK)
            block = A[rows]
            t = np.multiply.outer(beta[rows], d0, out=tmp[: len(block)])
            block *= mus[rows, None]
            block -= t

        # w^2 / 2, which the mean mode's row does not carry
        row0 = D[0].copy()
        add_product_matrix(c, A, k)
        if mean:
            D[0] = row0
        # the L-type term mu_h(rho) * w with its column-0 chain rule term,
        # and -mu * w outside the mean mode
        diag = np.arange(L)
        D[diag, diag] += mu_symbol_total(rho, N)[k]
        rows = np.flatnonzero(k)  # all but the mean mode's
        D[rows, rows] -= mu
        A[:, L] = -c[k]
        if mean:
            D[:, 0] -= (rho * dmu_dr(rho, N) * c)[k]
            A[0, L] = 0.0


# the benchmark harness (perfbench/) builds systems by this name
get_system = DiscreteSystem


def residual_modified(c: np.ndarray, mu: float, depth) -> np.ndarray:
    """Residual coefficients of the depth-parametrized equation at (c, mu)."""
    return DiscreteSystem(c.size, depth).residual(c, mu)


def residual_fixed_r(c: np.ndarray, mu: float, r: float) -> np.ndarray:
    """Residual coefficients of the fixed-radius equation; free of the depth."""
    r = _check_r(r)
    return _residual(c, mu, r, lambda g0: r)


def _residual(c: np.ndarray, mu: float, rho: float, sigma) -> np.ndarray:
    """mus(sigma(g_0)) * P(w) J w + mu_h(rho) * w, plus w^2 / 2 - mu * w off the mean mode.

    J w = lam(rho) * c and g = -P(w) J w.  residual takes rho = exp(-h - c_0)
    and sigma(g_0) = exp(-h - g_0), residual_fixed_r its r for both radii.
    """
    N = c.size
    # w on the fine grid once, for w^2 and w * (J w) = -g
    f = fine_values((c, lambda_symbol(rho, N) * c))
    w2, wjw = fine_coeffs(f[0] * f)
    out = mu_symbol_total(rho, N) * c + mu_symbol_total(sigma(-wjw[0]), N) * wjw
    # the mean mode carries neither mu * w nor w^2 / 2
    out[1:] += 0.5 * w2[1:] - mu * c[1:]
    return out


@functools.cache
def _flapack():
    """scipy's f2py LAPACK wrappers, those scipy.linalg.lu_factor and lu_solve call.

    import scipy runs only the top-level package (on Windows wheels it
    registers the bundled OpenBLAS); the module is then loaded from its
    file, so the scipy.linalg package and its array-API layer never load.
    """
    import scipy

    directory = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    path = os.path.join(directory, "_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0])
    if not os.path.isfile(path):
        raise ImportError(f"scipy's LAPACK wrappers _flapack not found in {directory}")
    spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def lu_factor_in_place(A: np.ndarray):
    """LU factors (lu, piv) of the square matrix A, in A's own memory when it is contiguous.

    They are LAPACK getrf's of A.T, the Fortran-ordered view of a C-ordered
    A, made in place, as on newton_solve's bordered buffer.  A non-contiguous
    A, such as the (L, L) view DiscreteSystem.jacobian returns, is copied
    first and left as it was.  det A = det A.T.  An exact zero pivot shows as
    a zero on the diagonal of the factors, which callers check.
    """
    lu, piv, info = _flapack().dgetrf(A.T, overwrite_a=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of getrf")
    return lu, piv


def lu_solve(factors, b: np.ndarray, trans: int = 0) -> np.ndarray:
    """x with A.T x = b (trans=0) or A x = b (trans=1), from lu_factor_in_place(A)."""
    x, info = _flapack().dgetrs(*factors, b, trans=trans)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of getrs")
    return x


# a chord step that leaves more than CONTRACTION of the residual begins
# good Broyden updates of the factors, and a Broyden step that leaves more
# than BROYDEN_CONTRACTION of it ends them with a refactorization
CONTRACTION = 0.2
BROYDEN_CONTRACTION = 0.5
# the smallest resolved band, in modes
BAND_MIN = 64


def _resolved(c: np.ndarray) -> np.ndarray:
    """Indices k of the coefficients c resolves, those with |c_k| > eps * max|c|."""
    a = np.abs(c)
    return np.flatnonzero(a > np.finfo(float).eps * a.max())


def _band(c: np.ndarray) -> int:
    """Modes K the Newton matrix keeps for the iterate c.

    K is the smallest power of two >= BAND_MIN, capped at c.size, such
    that every c_k with k >= K/2 is unresolved: the products of the
    coefficients left then reach the modes k >= K only at the rounding
    level eps * max|c|.
    """
    resolved = _resolved(c)
    K = BAND_MIN
    while K < c.size and resolved.size and resolved[-1] >= K // 2:
        K *= 2
    return min(K, c.size)


@dataclass
class Chord:
    """Jacobian factors that successive newton_solve calls share.

    buffer is the bordered Jacobian buffer, (len(band)+1) square, of the
    band k = 0, n, 2n, ... < K, and factors, when not None, the
    lu_factor_in_place factors stored in it.  A solve whose predictor
    has this n and K starts from the factors; every solve assembles into
    the buffer when its shape fits, and leaves its last factors here, or
    None if it fails.  The Broyden steps a solve takes on the factors are
    its own and are not kept here.
    """

    buffer: np.ndarray | None = field(default=None, repr=False)
    n: int = 0
    K: int = 0
    factors: tuple | None = field(default=None, repr=False)


def newton_solve(
    c0: np.ndarray,
    initial_mu: float,
    depth,
    row: np.ndarray,
    target: float,
    residual_tol: float = RESIDUAL_TOL,
    chord: Chord | None = None,
) -> SolutionPoint:
    """Chord Newton iteration on the stacked system from the given predictor.

    c0 holds the predictor's N cosine coefficients and is copied; the
    system is DiscreteSystem(N, h) at the depth h.  A seed that is not finite
    raises NewtonDiverged before anything is assembled.  With n the gcd
    of the indices of the seed's resolved coefficients, |c_k| > eps *
    max|c|, the seed's coefficients off k = 0, n, 2n, ... are set to 0 and
    the iterates stay in that subspace (mode-n series map to mode-n
    series).  The closing row is row . c = target.  The linear part is
    solved on the band k = 0, n, 2n, ... < K and mu alone, with
    K = _band(c) chosen at every assembly and never shrinking, and c_k = 0
    for k >= K; the residual, its convergence test and the divergence
    guard stay those of all N modes, and with K = N the band is the whole
    subspace.  One bordered
    Jacobian buffer, (len(band)+1) square, is used per band; it is
    assembled and factored in place, and each step is a back-substitution
    with those factors.  After a chord step that leaves more than
    CONTRACTION of the residual norm, the steps are good Broyden steps on
    the same factors: with s_0 that chord step and s_1 ... s_n the Broyden
    steps since, the next step is z = B_0^-1 (-F), then z += s_(j+1)
    (s_j . z) / |s_j|^2 for each j < n, and s_(n+1) = z / (1 - s_n . z /
    |s_n|^2).  After a Broyden step that leaves more than
    BROYDEN_CONTRACTION of the residual norm, or after any step that was
    damped, the Jacobian is reassembled and refactored at the new iterate
    before the next step, and the kept steps are dropped.
    With a chord, the solve starts from chord.factors, without assembling,
    when the predictor's own n and K equal chord.n and chord.K; otherwise
    it assembles into chord.buffer when that has the band's shape, and
    into a new buffer, kept in the chord, when not.  A converged solve
    leaves its last factors, n and K in the chord, and a failed one leaves
    chord.factors None.  Without a chord the solve uses a buffer of its own.
    The point records the steps taken (iterations) and the factorizations,
    which are 0 when the inherited factors, with their Broyden updates,
    carried every step.
    The solve converges once the residual norm is at most residual_tol,
    which must be positive (ValueError otherwise).  Raises a SolveFailure
    subclass, carrying the same counts and the residual history, on
    divergence, MAX_ITER steps without convergence, an exactly
    singular Jacobian, or an iterate leaving the operator domain.  The
    iteration has diverged once the residual norm exceeds
    max(|R_0|, 1); converged solves peak more than ten times below that.
    """
    if not residual_tol > 0:
        raise ValueError("residual_tol must be positive")
    c = np.array(c0, dtype=float)
    mu = float(initial_mu)
    if not (np.all(np.isfinite(c)) and math.isfinite(mu)):
        raise NewtonDiverged("seed is not finite")
    sys = DiscreteSystem(c.size, depth)
    n = max(int(np.gcd.reduce(_resolved(c))), 1)  # gcd(0, k) = k
    c[np.arange(c.size) % n != 0] = 0.0
    if chord is None:
        chord = Chord()
    K, factors = 0, None  # the band, which never shrinks, and its factors
    if chord.factors is not None and (chord.n, chord.K) == (n, _band(c)):
        K, factors = chord.K, chord.factors
        idx = np.arange(0, K, n)
    chord.factors = None  # until the solve converges

    def res(c, mu):
        # coefficients for the step, nodal values for the convergence test
        try:
            R = sys.stacked_residual(c, mu, row, target)
        except DomainError as exc:  # exp(-h - c_0) left (0, 1) or underflowed
            raise InadmissibleIterate(str(exc)) from exc
        nodal = transform_inverse(R[:-1])
        return R, max(np.max(np.abs(nodal)), abs(R[-1]))

    def point(iters):
        chord.n, chord.K, chord.factors = n, K, lu
        return SolutionPoint.from_solution(
            c.copy(), mu, sys.h, norm, iters, history, factorizations,
        )

    R, norm = res(c, mu)
    history = [norm]
    norm0 = max(norm, 1.0)  # the divergence guard
    lu = factors  # the last factors, which a converged solve leaves in the chord
    factorizations = 0
    steps = []  # the steps s_0, s_1, ... since the chord step that began Broyden

    try:
        for it in range(MAX_ITER):
            if norm <= residual_tol:
                return point(it)
            if factors is None:
                band = _band(c)
                if band > K:
                    K = band
                    idx = np.arange(0, K, n)  # the coefficients 0, n, 2n, ... < K
                    L = idx.size
                    if chord.buffer is None or chord.buffer.shape != (L + 1, L + 1):
                        chord.buffer = lu = None  # free the old buffer first
                        chord.buffer = np.empty((L + 1, L + 1))
                DiscreteSystem(K, sys.h).stacked_jacobian(
                    c[:K], mu, row[:K], out=chord.buffer, idx=idx)
                factors = lu = lu_factor_in_place(chord.buffer)
                factorizations += 1
                steps = []
                if not np.all(np.diagonal(factors[0])):
                    raise SingularJacobian("exactly singular Jacobian")
            c[K:] = 0.0
            step = lu_solve(factors, -np.append(R[:K:n], R[-1]), trans=1)
            # good Broyden in product form (Kelley 1995, alg. 7.3.1)
            for s0, s1 in zip(steps, steps[1:]):
                step += s1 * ((s0 @ step) / (s0 @ s0))
            if steps:
                sn = steps[-1]
                step /= 1.0 - (sn @ step) / (sn @ sn)
            if not np.all(np.isfinite(step)):
                raise SingularJacobian("non-finite Newton step")

            # damp the step if the iterate leaves the operator domain or the
            # residual cannot be evaluated
            scale = 1.0
            for _ in range(9):
                c_new = c.copy()
                c_new[:K:n] += scale * step[:-1]
                mu_new = mu + scale * step[-1]
                if c_new[0] > -sys.h + sys.MEAN_MARGIN:
                    break
                scale *= 0.5
            else:
                raise InadmissibleIterate(
                    f"iterate mean {c_new[0]} stayed below -h after damping"
                )
            c, mu = c_new, mu_new
            R, norm = res(c, mu)
            history.append(norm)
            if not np.isfinite(norm) or norm > norm0:
                raise NewtonDiverged(f"residual norm {norm} after {it + 1} iterations")
            if scale < 1.0 or (steps and norm > BROYDEN_CONTRACTION * history[-2]):
                factors = None
            elif steps or norm > CONTRACTION * history[-2]:
                steps.append(step)

        if norm <= residual_tol:
            return point(MAX_ITER)
        raise NewtonMaxIter(f"no convergence in {MAX_ITER} iterations (residual {norm:.3e})")
    except SolveFailure as exc:
        exc.iterations = len(history) - 1
        exc.factorizations = factorizations
        exc.residual_history = history
        raise
