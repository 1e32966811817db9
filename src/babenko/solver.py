"""Discrete steady-wave system and Newton iteration.

The unknowns are the N cosine coefficients of w plus the wave-speed
parameter mu.  The nonlinear residual couples the depth-parametrized
multiplier symbols with exactly dealiased quadratic products; a linear
closing row fixes the signed value of w at a collocation node
(ConstraintSpec) or any linear functional of the coefficients, such as the
series value at a crest (ProjectionConstraint).  The analytic Jacobian,
including the chain-rule terms through the conformal-radius functional, is
assembled from the structured product matrices of spectral.product_matrix:
diagonal symbols, column scalings and rank-one column-0 terms, with no
change of basis.  Newton judges convergence on the nodal values of the
residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spectral import (
    CosineGrid,
    DomainError,
    SpectralField,
    as_depth,
    dlambda_dr,
    dmu_dr,
    lambda_symbol,
    mu_symbol_total,
    product_coeffs,
    product_matrix,
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
    "assemble_jacobian",
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
    """The iterate left the operator domain (mean too negative) and damping failed."""


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
        residual_history: list | None = None,
    ) -> "SolutionPoint":
        """Build a point from (mu, w) data, computing its diagnostics."""
        h = float(h)
        return cls(
            mu=float(mu), w=w, h=h, r=float(np.exp(-h - w.mean)),
            sup_norm=abs(series_peak(w.coeffs)[1]), mean=w.mean,
            residual_norm=float(residual_norm), iterations=iterations,
            residual_history=list(residual_history or []),
        )


class DiscreteSystem:
    """The collocation system at fixed N and depth h, on coefficient vectors.

    The public wrappers below convert from and to SpectralField values.
    Instances hold O(N) data only; get_system reuses one per (N, h).
    """

    # margin keeping exp(-h - mean) away from 1 during damped iterations
    MEAN_MARGIN = 1e-10

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
        """Analytic d(residual)/dc and d(residual)/dmu in coefficient space."""
        N = self.N
        rho = self._radius(c[0])
        lam = lambda_symbol(rho, N)
        Jw = lam * c
        Pw = product_matrix(c)
        g = -(Pw @ Jw)
        sigma = self._sigma(g[0])
        mus = mu_symbol_total(sigma, N)

        # dg/dc = -D with D = P(Jw) + P(w) d(Jw)/dc, where d(Jw)/dc is
        # diag(lam) plus the column-0 chain rule term through rho = exp(-h - c_0)
        D = product_matrix(Jw)
        D += Pw * lam
        D[:, 0] -= Pw @ (rho * dlambda_dr(rho, N) * c)

        # middle term -mus(sigma(c)) * g(c), sigma = exp(-h - g_0)
        A = D * mus[:, None]
        A -= np.outer(sigma * dmu_dr(sigma, N) * g, D[0])
        # the L-type term mu_h(rho) * w, with its column-0 chain rule term
        A.flat[:: N + 1] += mu_symbol_total(rho, N)
        A[:, 0] -= rho * dmu_dr(rho, N) * c
        # w^2 / 2 and -mu * w, which the mean mode's row does not carry
        Pw[0] = 0.0
        A += Pw
        A.flat[N + 1 :: N + 1] -= mu

        dF_dmu = -c
        dF_dmu[0] = 0.0
        return A, dF_dmu

    def stacked_residual(self, c: np.ndarray, mu: float, constraint) -> np.ndarray:
        """Residual coefficients followed by the closing row's value."""
        return np.append(self.residual(c, mu), constraint.value(c))

    def stacked_jacobian(self, c: np.ndarray, mu: float, constraint) -> np.ndarray:
        """(N+1) x (N+1) Jacobian of stacked_residual in (c, mu)."""
        N = self.N
        J = np.zeros((N + 1, N + 1))
        J[:N, :N], J[:N, N] = self.jacobian(c, mu)
        J[N, :N] = constraint.row(c)
        return J


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


def assemble_jacobian(
    w: SpectralField,
    mu: float,
    depth,
    constraint: ConstraintSpec,
) -> np.ndarray:
    """(N+1) x (N+1) Jacobian of the stacked system at (w, mu)."""
    sys = get_system(w.grid.N, as_depth(depth).h)
    return sys.stacked_jacobian(w.coeffs, mu, constraint)


def _make_point(sys: DiscreteSystem, c, mu, res_norm, iters, history) -> SolutionPoint:
    return SolutionPoint.from_solution(
        SpectralField(sys.grid, coeffs=c.copy()), mu, sys.h, res_norm, iters, history
    )


def newton_solve(
    initial_w: SpectralField,
    initial_mu: float,
    depth,
    constraint: ConstraintSpec,
    cfg: NewtonConfig | None = None,
    system: DiscreteSystem | None = None,
) -> SolutionPoint:
    """Newton iteration on the stacked system from the given predictor.

    Raises a SolveFailure subclass on divergence, iteration exhaustion,
    singular linear algebra, or an iterate leaving the operator domain.
    """
    cfg = cfg or NewtonConfig()
    sys = system or get_system(initial_w.grid.N, as_depth(depth).h)
    c = initial_w.coeffs.copy()
    mu = float(initial_mu)

    if c[0] != c[0]:  # NaN guard on the seed
        raise NewtonDiverged("seed contains NaN")

    def res(c, mu):
        # coefficients for the step, nodal values for the convergence test
        R = sys.stacked_residual(c, mu, constraint)
        nodal = transform_inverse(R[:-1], sys.grid)
        return R, max(np.max(np.abs(nodal)), abs(R[-1]))

    R, norm = res(c, mu)
    history = [norm]
    norm0 = max(norm, 1.0)

    for it in range(cfg.max_iter):
        if norm <= cfg.residual_tol:
            return _make_point(sys, c, mu, norm, it, history)
        J = sys.stacked_jacobian(c, mu, constraint)
        try:
            step = np.linalg.solve(J, -R)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(str(exc)) from exc
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

    if norm <= cfg.residual_tol:
        return _make_point(sys, c, mu, norm, cfg.max_iter, history)
    raise NewtonMaxIter(
        f"no convergence in {cfg.max_iter} iterations (residual {norm:.3e})"
    )
