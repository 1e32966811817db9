"""Branch tracing, event detection and branch switching.

Branches are parametrized by the target amplitude a = max_t |w(t)|, the
crest height of the cosine series, which is monotone along the families of
interest, so turning points in mu are passed without arclength machinery;
each corrector pins the series value at the crest of its predictor.
Secondary bifurcations are located from sign changes of symmetry-class
determinants of the mu-frozen Jacobian; the navigator seeds new branches
along the associated null vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .solver import (
    DiscreteSystem,
    NewtonConfig,
    ProjectionConstraint,
    SolutionPoint,
    SolveFailure,
    get_system,
    lu_factor_in_place,
    newton_solve,
)
from .spectral import SpectralField, as_depth, series_peak

__all__ = [
    "Branch",
    "BranchEvent",
    "ContinuationConfig",
    "trivial_bifurcation_mu",
    "start_branch",
    "continue_branch",
    "detect_turning_points",
    "detect_secondary_bifurcations",
    "switch_branch",
    "navigate_secondaries",
    "trace_to_extreme",
]


@dataclass
class ContinuationConfig:
    amplitude_step: float = 5e-3
    step_min: float = 1e-5
    step_max: float = 2e-2
    amplitude_max: float | None = None
    bifurcation_monitor_tol: float = 1e-6
    extreme_stop_ratio: float = 1e-3
    max_points: int = 2000
    N: int = 256
    newton: NewtonConfig = field(default_factory=NewtonConfig)

    def __post_init__(self):
        if not (0 < self.step_min <= self.amplitude_step <= self.step_max):
            raise ValueError("need 0 < step_min <= amplitude_step <= step_max")
        if self.bifurcation_monitor_tol <= 0 or self.extreme_stop_ratio <= 0:
            raise ValueError("tolerances must be positive")


@dataclass
class BranchEvent:
    kind: str  # turning_point, secondary_bifurcation, extreme_termination, hard_failure
    mu: float
    sup_norm: float
    amplitude: float
    diagnostics: dict = field(default_factory=dict, repr=False)


@dataclass
class Branch:
    label: str
    mode: int | None  # cosine mode for primary branches, None for secondary
    points: list[SolutionPoint] = field(default_factory=list)
    events: list[BranchEvent] = field(default_factory=list)
    parent: str | None = None
    parent_mode: int | None = None  # symmetry class of the parent, for collapse checks
    # continuation state (e.g. the null-vector projection row a secondary
    # branch is parametrized by); not part of the recorded data
    aux: dict = field(default_factory=dict, repr=False)

    def amplitudes(self) -> np.ndarray:
        return np.array([p.sup_norm for p in self.points])

    def mus(self) -> np.ndarray:
        return np.array([p.mu for p in self.points])

    @property
    def last(self) -> SolutionPoint:
        return self.points[-1]

    def terminated(self) -> bool:
        return any(
            e.kind in ("extreme_termination", "hard_failure") for e in self.events
        )


def trivial_bifurcation_mu(n: int, depth) -> float:
    """mu at which the mode-n branch leaves the zero solution."""
    if n < 1:
        raise ValueError("mode index must be at least 1")
    h = as_depth(depth).h
    return math.tanh(n * h) / n


def _constraint_for(c: np.ndarray, a: float) -> ProjectionConstraint:
    """Closing row sign * w(t*) = a at the crest t* of the predictor c.

    The row is sign * cos(k t*); at t* = 0 it is the row of ones,
    w(0) = sum c_k.  A crest at 0 or pi stays there, so the converged point
    has sup_norm == a.
    """
    t, v = series_peak(c)
    return ProjectionConstraint(math.copysign(1.0, v) * np.cos(np.arange(c.size) * t), a)


def start_branch(n: int, s: float, depth, cfg: ContinuationConfig | None = None) -> Branch:
    """Seed branch C_n from the small-amplitude predictor (mu_n, s cos nt).

    The corrector pins w(t_c) = |s| at the predictor's crest, t_c = 0 for
    s > 0 and t_c = pi/n for s < 0.
    """
    cfg = cfg or ContinuationConfig()
    if not 0 < abs(s) <= 0.05:
        raise ValueError(f"seed amplitude must satisfy 0 < |s| <= 0.05, got {s}")
    depth = as_depth(depth)
    sys = get_system(cfg.N, depth.h)
    mu_n = trivial_bifurcation_mu(n, depth)
    err: SolveFailure | None = None
    for attempt in range(5):
        c = np.zeros(sys.N)
        c[n] = s
        t_c = 0.0 if s > 0 else np.pi / n
        con = ProjectionConstraint(np.cos(np.arange(sys.N) * t_c), abs(s))
        try:
            pt = newton_solve(
                SpectralField(sys.grid, coeffs=c), mu_n, depth, con,
                cfg.newton, system=sys,
            )
            return Branch(label=f"C{n}", mode=n, points=[pt])
        except SolveFailure as exc:
            err = exc
            s *= 0.5
    raise SolveFailure(f"could not seed branch C{n}: {err}")


def _solve_at_amplitude(
    sys: DiscreteSystem,
    depth,
    cfg: ContinuationConfig,
    a: float,
    prev: SolutionPoint,
    prev2: SolutionPoint | None,
) -> SolutionPoint:
    """One corrector solve at target amplitude a with a secant predictor."""
    if prev2 is not None and prev.sup_norm != prev2.sup_norm:
        t = (a - prev.sup_norm) / (prev.sup_norm - prev2.sup_norm)
        c = prev.coeffs + t * (prev.coeffs - prev2.coeffs)
        mu = prev.mu + t * (prev.mu - prev2.mu)
    else:
        scale = a / prev.sup_norm if prev.sup_norm > 0 else 1.0
        c = prev.coeffs * scale
        mu = prev.mu
    return newton_solve(
        SpectralField(sys.grid, coeffs=c), mu, depth, _constraint_for(c, a),
        cfg.newton, system=sys,
    )


def _solve_at_projection(
    sys: DiscreteSystem,
    depth,
    cfg: ContinuationConfig,
    row: np.ndarray,
    target: float,
    prev: SolutionPoint,
    prev2: SolutionPoint | None,
) -> SolutionPoint:
    """Corrector solve with the null-projection closing row at the given target.

    The row is a unit coefficient vector phi, so without a secant the
    predictor steps along phi itself.
    """
    t_prev = float(row @ prev.coeffs)
    if prev2 is not None and t_prev != (t_prev2 := float(row @ prev2.coeffs)):
        t = (target - t_prev) / (t_prev - t_prev2)
        c = prev.coeffs + t * (prev.coeffs - prev2.coeffs)
        mu = prev.mu + t * (prev.mu - prev2.mu)
    else:
        c, mu = prev.coeffs + (target - t_prev) * row, prev.mu
    con = ProjectionConstraint(row, target)
    return newton_solve(
        SpectralField(sys.grid, coeffs=c), mu, depth, con, cfg.newton, system=sys
    )


def _stop_ratio(pt: SolutionPoint) -> float:
    return (0.5 * pt.mu - pt.sup_norm) / (0.5 * pt.mu)


def _terminate(branch: Branch, cfg: ContinuationConfig, reason) -> None:
    prev = branch.last
    gap = 0.5 * prev.mu - prev.sup_norm
    kind = (
        "extreme_termination"
        if _stop_ratio(prev) < 50 * cfg.extreme_stop_ratio
        else "hard_failure"
    )
    branch.events.append(
        BranchEvent(
            kind, prev.mu, prev.sup_norm, prev.sup_norm,
            diagnostics={"stagnation": gap, "reason": reason},
        )
    )


# a corrector that needed at most this many Jacobian factorizations was
# easy, and the next step grows.  3 gives the same points as growing after
# at most 4 full Newton steps; 2, or a bound on chord steps, moves the
# C5 secondary branches' points and endpoints.
EASY_FACTORIZATIONS = 3


def continue_branch(branch: Branch, depth, cfg: ContinuationConfig | None = None) -> Branch:
    """Extend a branch until an endpoint event, amplitude_max or max_points.

    Primary branches step the target amplitude directly.  Secondary
    branches created by switch_branch carry a null-projection row in
    branch.aux and are stepped in that projection instead, because near
    the bifurcation the amplitude cannot separate them from their parent;
    amplitude still increases along the recorded points.  In both modes
    steps adapt between cfg.step_min and cfg.step_max: halved on Newton
    failure, grown after easy solves, and capped so the predicted
    amplitude gain stays below a fraction of the remaining gap to the
    limiting height mu/2.  Turning points are appended as events when the
    trace ends.
    """
    cfg = cfg or ContinuationConfig()
    if not branch.points:
        raise ValueError("branch must be seeded before continuation")
    depth = as_depth(depth)
    sys = get_system(cfg.N, depth.h)
    proj_row = branch.aux.get("proj_row")
    if proj_row is None:
        step = cfg.amplitude_step
    else:
        step = branch.aux.get("proj_step", cfg.amplitude_step)

    while len(branch.points) < cfg.max_points and not branch.terminated():
        prev = branch.last
        prev2 = branch.points[-2] if len(branch.points) > 1 else None
        gap = 0.5 * prev.mu - prev.sup_norm
        if _stop_ratio(prev) < cfg.extreme_stop_ratio:
            branch.events.append(
                BranchEvent(
                    "extreme_termination", prev.mu, prev.sup_norm, prev.sup_norm,
                    diagnostics={"stagnation": gap, "reason": "stop_ratio"},
                )
            )
            break
        if cfg.amplitude_max is not None and prev.sup_norm >= cfg.amplitude_max:
            break

        if proj_row is None:
            eff = min(step, 0.35 * gap)
            a = prev.sup_norm + eff
            if cfg.amplitude_max is not None:
                a = min(a, cfg.amplitude_max)
        else:
            # translate the gap cap into the projection parameter via the
            # local slope d(amplitude)/d(projection)
            eff = step
            if prev2 is not None:
                dt = float(proj_row @ (prev.coeffs - prev2.coeffs))
                da = prev.sup_norm - prev2.sup_norm
                if dt != 0 and da > 0:
                    slope = da / abs(dt)
                    if slope > 0:
                        eff = min(eff, 0.35 * gap / slope)
            target = float(proj_row @ prev.coeffs) + math.copysign(
                eff, branch.aux.get("proj_direction", 1.0)
            )

        try:
            if proj_row is None:
                pt = _solve_at_amplitude(sys, depth, cfg, a, prev, prev2)
            else:
                pt = _solve_at_projection(
                    sys, depth, cfg, proj_row, target, prev, prev2
                )
            if 0.5 * pt.mu - pt.sup_norm <= 0:
                raise SolveFailure("iterate beyond the limiting height mu/2")
            if branch.parent_mode is not None:
                off_prev = _offclass_energy(prev.coeffs, branch.parent_mode)
                off_new = _offclass_energy(pt.coeffs, branch.parent_mode)
                if off_new < min(1e-8, 0.2 * off_prev):
                    raise SolveFailure("iterate collapsed onto the parent branch")
        except SolveFailure as exc:
            if eff <= cfg.step_min * (1 + 1e-9):
                _terminate(branch, cfg, repr(exc))
                break
            step = max(eff * 0.5, cfg.step_min)
            continue
        branch.points.append(pt)
        if pt.factorizations <= EASY_FACTORIZATIONS and step < cfg.step_max:
            step = min(step * 1.3, cfg.step_max)

    for ev in detect_turning_points(branch, depth, cfg):
        if not any(
            e.kind == "turning_point" and abs(e.amplitude - ev.amplitude) < 1e-9
            for e in branch.events
        ):
            branch.events.append(ev)
    return branch


def detect_turning_points(
    branch: Branch, depth=None, cfg: ContinuationConfig | None = None
) -> list[BranchEvent]:
    """Interior local maxima of mu along the branch.

    With only the recorded points available the maximum comes from a
    quadratic through the three bracketing samples, which carries a bias
    of the order of the local step.  When depth and cfg are supplied the
    bracket is polished by a bounded scalar search with fresh corrector
    solves, which pins the fold to the solver tolerance.
    """
    mus = branch.mus()
    amps = branch.amplitudes()
    events = []
    for i in range(1, len(mus) - 1):
        if mus[i] > mus[i - 1] and mus[i] > mus[i + 1]:
            coef = np.polyfit(amps[i - 1 : i + 2], mus[i - 1 : i + 2], 2)
            a_star = float(-coef[1] / (2 * coef[0])) if coef[0] != 0 else float(amps[i])
            mu_star = float(np.polyval(coef, a_star))
            if depth is not None and cfg is not None:
                refined = _refine_turning_point(
                    branch.points[i - 1], branch.points[i + 1], depth, cfg
                )
                if refined is not None:
                    a_star, mu_star = refined
            events.append(
                BranchEvent(
                    "turning_point", mu_star, a_star, a_star,
                    diagnostics={"fit": coef.tolist(), "index": i},
                )
            )
    return events


def _refine_turning_point(
    p0: SolutionPoint, p1: SolutionPoint, depth, cfg: ContinuationConfig
) -> tuple[float, float] | None:
    from scipy.optimize import minimize_scalar

    depth = as_depth(depth)
    sys = get_system(cfg.N, depth.h)

    def neg_mu(a: float) -> float:
        return -_solve_between(sys, depth, cfg, p0, p1, float(a)).mu

    try:
        res = minimize_scalar(
            neg_mu, bounds=(p0.sup_norm, p1.sup_norm), method="bounded",
            options={"xatol": 1e-7},
        )
    except SolveFailure:
        return None
    return float(res.x), float(-res.fun)


# ---------------------------------------------------------------------------
# Secondary-bifurcation detection
# ---------------------------------------------------------------------------


def _symmetry_classes(N: int, mode: int | None) -> list[np.ndarray]:
    """Partition of coefficient indices into invariant blocks.

    On a branch of pure mode-n waves the mu-frozen Jacobian couples cosine
    modes k, k' only when k - k' or k + k' is a multiple of n, so the
    residues {j, n-j} form invariant classes.  Class 0 carries the branch
    itself (and its folds); sign changes in the other classes are genuine
    symmetry-breaking bifurcations.
    """
    if mode is None or mode <= 1:
        return [np.arange(N)]
    k = np.arange(N)
    classes = []
    for j in range(mode // 2 + 1):
        sel = (k % mode == j) | (k % mode == (mode - j) % mode)
        classes.append(np.flatnonzero(sel))
    return classes


def _det_sign(block: np.ndarray) -> float:
    """Sign of det(block) from its LU factors; block is overwritten.

    The sign is the product of the signs of U's diagonal times the parity
    of the row interchanges, and 0 for an exactly singular block.
    """
    lu, piv = lu_factor_in_place(block)
    swaps = np.count_nonzero(piv != np.arange(piv.size))
    return float(np.prod(np.sign(np.diagonal(lu)))) * (-1.0) ** swaps


def _class_sign(A: np.ndarray, idx: np.ndarray) -> float:
    """Determinant sign of the class block A[idx, idx]."""
    return _det_sign(A[np.ix_(idx, idx)])


def _class_signs(A: np.ndarray, idx: np.ndarray) -> tuple[float, float]:
    """Determinant sign and smallest singular value of a class block."""
    from scipy.linalg import svdvals

    block = A[np.ix_(idx, idx)]
    smin = float(svdvals(block, check_finite=False)[-1])
    return _det_sign(block), smin


def _is_fold(A: np.ndarray, dF_dmu: np.ndarray) -> bool:
    """Distinguish a fold from a branch point at a near-singular Jacobian.

    At a fold the left null vector has a nonzero component along the
    mu-derivative of the residual; at a branch point it is orthogonal.
    """
    from scipy.linalg import svd

    U, s, Vt = svd(A, check_finite=False)
    psi = U[:, -1]
    denom = np.linalg.norm(dF_dmu)
    if denom == 0:
        return False
    return abs(psi @ dF_dmu) / denom > 0.1


def _interp_point(p0: SolutionPoint, p1: SolutionPoint, a: float):
    t = (a - p0.sup_norm) / (p1.sup_norm - p0.sup_norm)
    return p0.coeffs + t * (p1.coeffs - p0.coeffs), p0.mu + t * (p1.mu - p0.mu)


def _solve_between(
    sys: DiscreteSystem, depth, cfg: ContinuationConfig,
    p0: SolutionPoint, p1: SolutionPoint, a: float,
) -> SolutionPoint:
    c, mu = _interp_point(p0, p1, a)
    return newton_solve(
        SpectralField(sys.grid, coeffs=c), mu, depth, _constraint_for(c, a),
        cfg.newton, system=sys,
    )


def detect_secondary_bifurcations(
    branch: Branch, depth, cfg: ContinuationConfig | None = None,
    refine_scan: int = 6,
) -> list[BranchEvent]:
    """Locate symmetry-breaking bifurcations along a traced branch.

    The determinant sign of each symmetry-class block of the mu-frozen
    Jacobian is monitored across the recorded points; every sign change is
    bracketed by amplitude bisection down to cfg.bifurcation_monitor_tol.
    Intervals where a class' smallest singular value dips far below its
    neighbours are re-scanned on a finer amplitude grid, so nearby
    crossings of the same class are resolved individually when the
    resolution allows.  Detected events (with null-vector estimates) are
    returned and replace the branch's earlier secondary_bifurcation events,
    so repeated calls leave the same events.
    """
    from scipy.linalg import svd

    cfg = cfg or ContinuationConfig()
    if len(branch.points) < 3:
        return []
    depth = as_depth(depth)
    sys = get_system(cfg.N, depth.h)
    classes = _symmetry_classes(sys.N, branch.mode)
    # on a mode > 1 branch class 0 carries the branch itself; its folds are
    # the turning points, so only the other classes are scanned
    scanned = range(1, len(classes)) if len(classes) > 1 else range(1)

    # per point and scanned class: (determinant sign, smallest singular value)
    data = []
    for pt in branch.points:
        A = sys.jacobian(pt.coeffs, pt.mu)[0]
        data.append({ci: _class_signs(A, classes[ci]) for ci in scanned})

    events: list[BranchEvent] = []

    def bisect(p0: SolutionPoint, p1: SolutionPoint, ci: int) -> BranchEvent | None:
        lo, hi = p0, p1
        sign_lo = _class_sign(sys.jacobian(lo.coeffs, lo.mu)[0], classes[ci])
        while hi.sup_norm - lo.sup_norm > cfg.bifurcation_monitor_tol:
            a_mid = 0.5 * (lo.sup_norm + hi.sup_norm)
            try:
                mid = _solve_between(sys, depth, cfg, lo, hi, a_mid)
            except SolveFailure:
                break
            s_mid = _class_sign(sys.jacobian(mid.coeffs, mid.mu)[0], classes[ci])
            if s_mid == sign_lo:
                lo = mid
            else:
                hi = mid
        A, dF_dmu = sys.jacobian(lo.coeffs, lo.mu)
        block = A[np.ix_(classes[ci], classes[ci])]
        if len(classes) == 1 and _is_fold(A, dF_dmu):
            return None  # turning point, reported separately
        U, s, Vt = svd(block, check_finite=False)
        phi = np.zeros(sys.N)
        phi[classes[ci]] = Vt[-1]
        a_ev = 0.5 * (lo.sup_norm + hi.sup_norm)
        mu_ev = 0.5 * (lo.mu + hi.mu)
        return BranchEvent(
            "secondary_bifurcation", mu_ev, a_ev, a_ev,
            diagnostics={
                "class": ci,
                "sigma_min": float(s[-1]),
                "null_vector_coeffs": phi,
                "w_coeffs": lo.coeffs.copy(),
                "mu_at_event": lo.mu,
            },
        )

    npts = len(branch.points)
    for ci in scanned:
        i = 0
        while i < npts - 1:
            p0, p1 = branch.points[i], branch.points[i + 1]
            s0, m0 = data[i][ci]
            s1, m1 = data[i + 1][ci]
            if s0 != s1:
                ev = bisect(p0, p1, ci)
                if ev is not None:
                    events.append(ev)
            elif (
                refine_scan
                and 0 < i
                and m0 < 0.1 * data[i - 1][ci][1]
                and i + 2 < npts
                and m1 < 0.1 * data[i + 2][ci][1]
            ):
                # deep dip without net sign change: scan finer for an even
                # number of nearby crossings
                sub = [p0]
                grid = np.linspace(p0.sup_norm, p1.sup_norm, refine_scan + 2)[1:-1]
                ok = True
                for a_s in grid:
                    try:
                        sub.append(_solve_between(sys, depth, cfg, p0, p1, a_s))
                    except SolveFailure:
                        ok = False
                        break
                sub.append(p1)
                if ok:
                    signs = [
                        _class_sign(sys.jacobian(q.coeffs, q.mu)[0], classes[ci])
                        for q in sub
                    ]
                    for k in range(len(sub) - 1):
                        if signs[k] != signs[k + 1]:
                            ev = bisect(sub[k], sub[k + 1], ci)
                            if ev is not None:
                                events.append(ev)
            i += 1

    branch.events = [
        e for e in branch.events if e.kind != "secondary_bifurcation"
    ] + events
    return events


# ---------------------------------------------------------------------------
# Branch switching (navigator)
# ---------------------------------------------------------------------------


def _offclass_energy(c: np.ndarray, mode: int | None) -> float:
    if mode is None or mode <= 1:
        return 0.0
    k = np.arange(c.size)
    return float(np.max(np.abs(c[k % mode != 0])))


def _switch_along(
    branch: Branch, event: BranchEvent, phi_c: np.ndarray, depth,
    cfg: ContinuationConfig,
) -> Branch:
    """Seed one secondary branch from an event along a given coefficient direction.

    The amplitude constraint cannot separate the emanating branch from its
    parent (both pass through the event), so the corrector pins the
    component along phi instead: the closing row becomes phi . c = eps on
    the coefficients, and the resulting branch is continued in that
    projection.  Raises SolveFailure if every eps collapses back onto the
    parent.
    """
    depth = as_depth(depth)
    sys = get_system(cfg.N, depth.h)
    c_ev = np.asarray(event.diagnostics["w_coeffs"], dtype=float)
    phi_c = np.asarray(phi_c, dtype=float)
    phi_c = phi_c / np.linalg.norm(phi_c)
    mu_ev = float(event.diagnostics.get("mu_at_event", event.mu))

    last_exc: Exception | None = None
    for eps_rel in (2e-3, 1e-3, 4e-3):
        eps = eps_rel * event.amplitude
        con = ProjectionConstraint(phi_c, float(phi_c @ c_ev) + eps)
        try:
            pt = newton_solve(
                SpectralField(sys.grid, coeffs=c_ev + eps * phi_c),
                mu_ev, depth, con, cfg.newton, system=sys,
            )
        except SolveFailure as exc:
            last_exc = exc
            continue
        if _offclass_energy(pt.coeffs, branch.mode) > 1e-7:
            return Branch(
                label=f"{branch.label}x", mode=None, points=[pt],
                parent=branch.label, parent_mode=branch.mode,
                aux={
                    "proj_row": phi_c,
                    "proj_direction": 1.0,
                    "proj_step": eps,
                },
            )
        last_exc = SolveFailure("iterate collapsed back onto the parent branch")
    raise SolveFailure(f"branch switching failed: {last_exc}")


def switch_branch(
    branch: Branch, event: BranchEvent, direction: int, depth,
    cfg: ContinuationConfig | None = None,
) -> Branch:
    """Seed a secondary branch from a bifurcation event along its null vector."""
    if event.kind != "secondary_bifurcation":
        raise ValueError("can only switch at a secondary_bifurcation event")
    cfg = cfg or ContinuationConfig()
    phi_c = np.asarray(event.diagnostics["null_vector_coeffs"], dtype=float)
    return _switch_along(branch, event, direction * phi_c, depth, cfg)


def _sorted_crest_heights(c: np.ndarray) -> np.ndarray:
    from .geometry import crest_heights

    return np.sort([h for _, h in crest_heights(c)])


def _n_highest_crests(c: np.ndarray) -> int:
    from .geometry import EQUAL_CREST_RTOL

    heights = _sorted_crest_heights(c)
    if heights.size == 0:
        return 0
    scale = max(abs(heights[-1]), 1e-300)
    return int(np.sum(heights >= heights[-1] - EQUAL_CREST_RTOL * scale))


def _distinct(b1: Branch, b2: Branch) -> bool:
    """Decide whether two secondary branches are physically different.

    Opposite perturbation directions at different events can land on
    shifted even representatives of one and the same wave, whose nodal
    values differ; the multiset of crest heights is phase-invariant, so
    the endpoints are compared through it.
    """
    p1, p2 = b1.last, b2.last
    if abs(p1.mu - p2.mu) > 2e-3 or abs(p1.sup_norm - p2.sup_norm) > 2e-3:
        return True
    h1 = _sorted_crest_heights(p1.coeffs)
    h2 = _sorted_crest_heights(p2.coeffs)
    if h1.size != h2.size:
        return True
    scale = max(p1.sup_norm, 1e-12)
    return bool(np.max(np.abs(h1 - h2)) > 1e-3 * scale)


# events closer than this in amplitude are treated as one cluster whose
# null vectors span a common near-degenerate subspace
CLUSTER_WINDOW = 2e-3


def navigate_secondaries(
    branch: Branch, depth, cfg: ContinuationConfig | None = None,
    events: list[BranchEvent] | None = None,
) -> list[Branch]:
    """Switch onto every secondary branch reachable from detected events.

    Both signs of each event's null vector are tried.  When two events lie
    within CLUSTER_WINDOW of each other in amplitude, the bifurcation is
    treated as nearly degenerate and the four normalized combinations
    +-phi_i +- phi_j are seeded as well; mixed-symmetry branches (for
    instance the one-high-crest family of a mode-5 parent) emanate only
    along such combined directions.  Duplicates, including the same branch
    reached through a shifted even representative, are dropped by
    comparing phase-invariant crest-height multisets at the endpoints.

    Each surviving branch is labeled parent label + number of
    equally-highest terminal crests; when several branches share that
    count the later ones get a letter suffix.
    """
    cfg = cfg or ContinuationConfig()
    if events is None:
        events = [e for e in branch.events if e.kind == "secondary_bifurcation"]
    seeds: list[tuple[BranchEvent, np.ndarray]] = []
    for ev in events:
        phi = np.asarray(ev.diagnostics["null_vector_coeffs"], dtype=float)
        seeds.append((ev, phi))
        seeds.append((ev, -phi))
    for i in range(len(events)):
        for j in range(i + 1, len(events)):
            e1, e2 = events[i], events[j]
            if abs(e1.amplitude - e2.amplitude) > CLUSTER_WINDOW:
                continue
            p1 = np.asarray(e1.diagnostics["null_vector_coeffs"], dtype=float)
            p2 = np.asarray(e2.diagnostics["null_vector_coeffs"], dtype=float)
            for s1 in (1.0, -1.0):
                for s2 in (1.0, -1.0):
                    seeds.append((e1, s1 * p1 + s2 * p2))

    # gentle steps while the new branches pull away from their parent
    sec_cfg = replace(cfg, amplitude_step=max(cfg.step_min, 5e-4))
    out: list[Branch] = []
    for ev, phi in seeds:
        try:
            sec = _switch_along(branch, ev, phi, depth, cfg)
        except SolveFailure:
            continue
        continue_branch(sec, depth, sec_cfg)
        if all(_distinct(sec, other) for other in out):
            out.append(sec)
    out.sort(key=lambda sec: (_n_highest_crests(sec.last.coeffs), sec.last.mu))
    seen: dict[int, int] = {}
    for sec in out:
        census = _n_highest_crests(sec.last.coeffs)
        rep = seen.get(census, 0)
        suffix = "" if rep == 0 else chr(ord("a") + rep)
        sec.label = f"{branch.label}{census}{suffix}"
        seen[census] = rep + 1
    return out


def trace_to_extreme(branch: Branch, depth, cfg: ContinuationConfig | None = None) -> BranchEvent:
    """Extend the branch until its extreme-wave endpoint and return the event."""
    cfg = cfg or ContinuationConfig()
    continue_branch(branch, depth, cfg)
    for ev in branch.events:
        if ev.kind in ("extreme_termination", "hard_failure"):
            return ev
    raise SolveFailure("branch stopped before reaching an endpoint event")
