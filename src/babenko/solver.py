"""Discrete steady-wave system and Newton iteration.

The unknowns are the N cosine coefficients of w plus the wave-speed
parameter mu.  The nonlinear residual couples the depth-parametrized
multiplier symbols with exactly dealiased quadratic products; a linear
closing row fixes the signed value of w at a collocation node
(ConstraintSpec) or any linear functional of the coefficients, such as the
series value at a crest (ProjectionConstraint).  The analytic Jacobian,
including the chain-rule terms through the conformal-radius functional, is
assembled in place from the structured product matrices of
spectral.add_product_matrix: diagonal symbols, row and column scalings and
rank-one terms, with no change of basis and no N x N temporary.

Newton is a chord (Shamanskii) iteration: it allocates one (N+1) x (N+1)
buffer per solve, assembles the bordered Jacobian into it, factors it in
place with scipy.linalg.lu_factor and takes further steps by
back-substitution, reassembling and refactoring only when the residual
contracts by less than CONTRACTION per step (Kelley, Solving Nonlinear
Equations with Newton's Method, SIAM 2003, ch. 5).  Newton judges
convergence on the nodal values of the residual.  scipy.linalg is imported
where it is used, so commands that never factor do not load it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .spectral import (
    CosineGrid,
    DomainError,
    SpectralField,
    add_product_matrix,
    as_depth,
    dlambda_dr,
    dmu_dr,
    lambda_symbol,
    mu_symbol_total,
    product_coeffs,
    series_peak,
    transform_inverse,
)

__all__ = [
    "NewtonConfig",
    "ConstraintSpec",
    "ProjectionConstraint",
    "SolutionPoint",
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
    """Base class for structured Newton failures."""


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


@dataclass
class NewtonConfig:
    residual_tol: float = 1e-10
    max_iter: int = 50

    def __post_init__(self):
        if not self.residual_tol > 0:
            raise ValueError("residual_tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class ConstraintSpec:
    """Frozen amplitude constraint sign * w(x_j) = target_amplitude.

    x_j is collocation node j = node_index of the N-node grid; on the
    coefficients the closing row is sign * cos(k x_j).
    """

    node_index: int
    sign: int
    target_amplitude: float

    def row(self, c: np.ndarray) -> np.ndarray:
        x_j = np.pi * (2 * self.node_index + 1) / (2 * c.size)
        return self.sign * np.cos(np.arange(c.size) * x_j)

    def value(self, c: np.ndarray) -> float:
        return float(self.row(c) @ c) - self.target_amplitude


@dataclass
class ProjectionConstraint:
    """Linear closing row vector . c = target on the cosine coefficients.

    Continuation pins the series value at a crest with it, and secondary
    branches are stepped along a null-vector projection with it.
    """

    vector: np.ndarray
    target: float

    def value(self, c: np.ndarray) -> float:
        return float(self.vector @ c) - self.target

    def row(self, c: np.ndarray) -> np.ndarray:
        return self.vector


@dataclass
class SolutionPoint:
    """A converged (mu, w) pair with derived diagnostics.

    sup_norm is the amplitude max_t |w(t)| of the cosine series, crests at
    t = 0 and t = pi included, not the maximum over the collocation nodes.
    iterations counts Newton steps and factorizations the Jacobians
    assembled and factored for them; residual_history holds the residual
    norm before each step and after the last.
    """

    mu: float
    w: SpectralField
    h: float
    r: float
    sup_norm: float
    mean: float
    residual_norm: float
    iterations: int = 0
    residual_history: list = field(default_factory=list, repr=False)
    factorizations: int = 0

    @property
    def coeffs(self) -> np.ndarray:
        return self.w.coeffs

    @property
    def nodal(self) -> np.ndarray:
        return self.w.nodal

    @classmethod
    def from_solution(
        cls, w: SpectralField, mu: float, h: float,
        residual_norm: float = float("nan"), iterations: int = 0,
        residual_history: list | None = None, factorizations: int = 0,
    ) -> "SolutionPoint":
        """Build a point from (mu, w) data, computing its diagnostics."""
        h = float(h)
        return cls(
            mu=float(mu), w=w, h=h, r=float(np.exp(-h - w.mean)),
            sup_norm=abs(series_peak(w.coeffs)[1]), mean=w.mean,
            residual_norm=float(residual_norm), iterations=iterations,
            residual_history=list(residual_history or []),
            factorizations=factorizations,
        )


class DiscreteSystem:
    """The collocation system at fixed N and depth h, on coefficient vectors.

    The public wrappers below convert from and to SpectralField values.
    Instances hold O(N) data only; get_system reuses one per (N, h).  The
    Jacobian is assembled in place into a buffer the caller owns
    (stacked_jacobian's out), so the cached systems hold no N x N arrays.
    """

    # margin keeping exp(-h - mean) away from 1 during damped iterations
    MEAN_MARGIN = 1e-10
    # rows per block of the rank-one update, which bounds its temporary
    _BLOCK = 64

    def __init__(self, N: int, h: float):
        self.N = int(N)
        self.h = float(h)
        if self.h <= 0:
            raise ValueError("depth must be positive")
        self.grid = CosineGrid(self.N)

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
        rho = self._radius(c[0])
        g = -product_coeffs(c, lambda_symbol(rho, self.N) * c)  # -w * (J w)
        mus = mu_symbol_total(self._sigma(g[0]), self.N)
        out = mu_symbol_total(rho, self.N) * c - mus * g
        # the mean mode carries neither mu * w nor w^2 / 2
        out[1:] += 0.5 * product_coeffs(c, c)[1:] - mu * c[1:]
        return out

    def jacobian(self, c: np.ndarray, mu: float):
        """Analytic d(residual)/dc and d(residual)/dmu in coefficient space.

        Both are views into one stacked buffer; see stacked_jacobian.
        """
        N = self.N
        J = np.empty((N + 1, N + 1))
        self._assemble(c, mu, J)
        return J[:N, :N], J[:N, N]

    def stacked_residual(self, c: np.ndarray, mu: float, constraint) -> np.ndarray:
        """Residual coefficients followed by the closing row's value."""
        return np.append(self.residual(c, mu), constraint.value(c))

    def stacked_jacobian(
        self, c: np.ndarray, mu: float, constraint, out: np.ndarray | None = None
    ) -> np.ndarray:
        """(N+1) x (N+1) Jacobian of stacked_residual in (c, mu).

        It is written into out when given (every entry is overwritten) and
        returned; no N x N temporary is created.
        """
        N = self.N
        if out is None:
            out = np.empty((N + 1, N + 1))
        elif out.shape != (N + 1, N + 1):
            raise ValueError(f"out must have shape {(N + 1, N + 1)}, got {out.shape}")
        self._assemble(c, mu, out)
        out[N, :N] = constraint.row(c)
        out[N, N] = 0.0
        return out

    def _assemble(self, c: np.ndarray, mu: float, J: np.ndarray) -> None:
        """Write d(residual)/dc into J[:N, :N] and d(residual)/dmu into J[:N, N].

        The residual is mus(sigma) * P(w) J w + mu_h(rho) * w, plus w^2 / 2
        and -mu * w outside the mean mode, where P is product_matrix,
        J w = lam(rho) * c, rho = exp(-h - c_0) and sigma = exp(-h - g_0)
        with g = -P(w) J w.  Its derivative is built in place, one pass
        over the rows per term.  The passes run over the whole rows of
        J[:N], which are contiguous, and column N, which they leave
        meaningless, is written last.
        """
        N = self.N
        A = J[:N]
        rho = self._radius(c[0])
        lam = lambda_symbol(rho, N)
        g = -product_coeffs(c, lam * c)
        sigma = self._sigma(g[0])
        mus = mu_symbol_total(sigma, N)

        # dg/dc = -D with D = P(Jw) + P(w) diag(lam) - the column-0 term
        A.fill(0.0)
        add_product_matrix(c, A)
        A *= np.append(lam, 0.0)  # whole rows; column N is rewritten last
        add_product_matrix(lam * c, A)
        A[:, 0] -= product_coeffs(c, rho * dlambda_dr(rho, N) * c)

        # middle term -mus(sigma(c)) * g(c): the row scaling by mus and the
        # rank-one term of sigma = exp(-h - g_0), in row blocks
        d0 = A[0].copy()
        beta = sigma * dmu_dr(sigma, N) * g
        tmp = np.empty((min(N, self._BLOCK), N + 1))
        for i in range(0, N, self._BLOCK):
            rows = slice(i, i + self._BLOCK)
            block = A[rows]
            t = np.multiply.outer(beta[rows], d0, out=tmp[: len(block)])
            block *= mus[rows, None]
            block -= t

        # w^2 / 2, which the mean mode's row does not carry
        row0 = A[0].copy()
        add_product_matrix(c, A)
        A[0] = row0
        # the L-type term mu_h(rho) * w with its column-0 chain rule term,
        # and -mu * w outside the mean mode
        diag = np.arange(N)
        A[diag, diag] += mu_symbol_total(rho, N)
        A[diag[1:], diag[1:]] -= mu
        A[:, 0] -= rho * dmu_dr(rho, N) * c
        A[:, N] = -c
        A[0, N] = 0.0


_SYSTEM_CACHE: dict[tuple[int, float], DiscreteSystem] = {}


def get_system(N: int, h: float) -> DiscreteSystem:
    key = (int(N), float(h))
    if key not in _SYSTEM_CACHE:
        _SYSTEM_CACHE[key] = DiscreteSystem(*key)
    return _SYSTEM_CACHE[key]


def residual_modified(w: SpectralField, mu: float, depth) -> SpectralField:
    """Residual of the depth-parametrized equation at (w, mu)."""
    sys = get_system(w.grid.N, as_depth(depth).h)
    return SpectralField(w.grid, coeffs=sys.residual(w.coeffs, mu))


def residual_fixed_r(w: SpectralField, mu: float, r: float) -> SpectralField:
    """Residual of the fixed-radius equation at (w, mu); free of the depth."""
    if not 0.0 < r < 1.0:
        raise DomainError(f"conformal radius must lie in (0, 1), got {r}")
    c, N = w.coeffs, w.grid.N
    lam = lambda_symbol(r, N)
    mur = mu_symbol_total(r, N)
    out = mur * c + mur * product_coeffs(c, lam * c)
    out[1:] += 0.5 * product_coeffs(c, c)[1:] - mu * c[1:]
    return SpectralField(w.grid, coeffs=out)


def lu_factor_in_place(A: np.ndarray):
    """LU factors of the square matrix A, computed in A's own memory.

    The factors are those of A.T, the Fortran-ordered view of a C-ordered
    A, so LAPACK works in place with no copy; solve A x = b with
    scipy.linalg.lu_solve(factors, b, trans=1).  det A = det A.T.  An exact
    zero pivot shows as a zero on the diagonal of the factors, which
    callers check; lu_factor's LinAlgWarning about it is suppressed.
    """
    from scipy.linalg import LinAlgWarning, lu_factor

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)
        return lu_factor(A.T, overwrite_a=True, check_finite=False)


# refactor when a chord step leaves more than this fraction of the residual
CONTRACTION = 0.2


def newton_solve(
    initial_w: SpectralField,
    initial_mu: float,
    depth,
    constraint: ConstraintSpec,
    cfg: NewtonConfig | None = None,
    system: DiscreteSystem | None = None,
) -> SolutionPoint:
    """Chord Newton iteration on the stacked system from the given predictor.

    One (N+1) x (N+1) buffer is allocated per solve.  The bordered Jacobian
    is assembled into it and factored in place, and each step is a
    back-substitution with those factors.  After a step that leaves more
    than CONTRACTION of the residual norm, the Jacobian is reassembled and
    refactored at the new iterate before the next step.  The point records
    the steps taken (iterations) and the factorizations.  Raises a
    SolveFailure subclass on divergence, iteration exhaustion, an exactly
    singular Jacobian, or an iterate leaving the operator domain.
    """
    from scipy.linalg import lu_solve

    cfg = cfg or NewtonConfig()
    sys = system or get_system(initial_w.grid.N, as_depth(depth).h)
    c = initial_w.coeffs.copy()
    mu = float(initial_mu)

    if c[0] != c[0]:  # NaN guard on the seed
        raise NewtonDiverged("seed contains NaN")

    def res(c, mu):
        # coefficients for the step, nodal values for the convergence test
        try:
            R = sys.stacked_residual(c, mu, constraint)
        except DomainError as exc:  # exp(-h - c_0) left (0, 1) or underflowed
            raise InadmissibleIterate(str(exc)) from exc
        nodal = transform_inverse(R[:-1], sys.grid)
        return R, max(np.max(np.abs(nodal)), abs(R[-1]))

    def point(iters):
        return SolutionPoint.from_solution(
            SpectralField(sys.grid, coeffs=c.copy()), mu, sys.h, norm, iters,
            history, factorizations,
        )

    R, norm = res(c, mu)
    history = [norm]
    norm0 = max(norm, 1.0)
    J = np.empty((sys.N + 1, sys.N + 1))  # assembled into and factored in place
    factors = None
    factorizations = 0

    for it in range(cfg.max_iter):
        if norm <= cfg.residual_tol:
            return point(it)
        if factors is None:
            sys.stacked_jacobian(c, mu, constraint, out=J)
            factors = lu_factor_in_place(J)
            factorizations += 1
            if not np.all(np.diagonal(factors[0])):
                raise SingularJacobian("exactly singular Jacobian")
        step = lu_solve(factors, -R, trans=1, check_finite=False)
        if not np.all(np.isfinite(step)):
            raise SingularJacobian("non-finite Newton step")

        # damp the step if the iterate leaves the operator domain or the
        # residual cannot be evaluated
        scale = 1.0
        for _ in range(9):
            c_new = c + scale * step[:-1]
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
        if not np.isfinite(norm) or norm > 1e8 * norm0:
            raise NewtonDiverged(f"residual norm {norm} after {it + 1} iterations")
        if norm > CONTRACTION * history[-2]:
            factors = None

    if norm <= cfg.residual_tol:
        return point(cfg.max_iter)
    raise NewtonMaxIter(
        f"no convergence in {cfg.max_iter} iterations (residual {norm:.3e})"
    )
