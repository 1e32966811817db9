"""Branch tracing, event detection and branch switching.

Every solve along a branch, fold refinement and detection's bisection
included, goes through one corrector (_correct): a secant predictor closed
by one linear row.  Primary branches are parametrized by the crest
amplitude a = max_t |w(t)| of the cosine series, which is monotone along
the families of interest, so turning points in mu are passed without
arclength machinery; the row pins the series value at the predictor's
crest.  A secondary branch carries a unit coefficient row phi and is
parametrized by phi . c, since near its bifurcation the amplitude cannot
separate it from its parent.  Secondary bifurcations are located from sign
changes of symmetry-class determinants of the mu-frozen Jacobian; the
navigator seeds new branches along the associated null vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .solver import (
    NewtonConfig,
    ProjectionConstraint,
    SolutionPoint,
    SolveFailure,
    get_system,
    lu_factor_in_place,
    newton_solve,
)
from .spectral import as_depth, series_peak

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

# largest continuation step, in the branch's parameter
STEP_MAX = 2e-2
# a trace ends in extreme_termination once (mu/2 - a) / (mu/2) drops below this
EXTREME_STOP_RATIO = 1e-3
# a trace stops after this many points
MAX_POINTS = 2000
# detection bisects a determinant sign change down to this amplitude bracket
BIFURCATION_MONITOR_TOL = 1e-6
# interior amplitudes of the finer scan over an interval with a deep dip in
# a class' smallest singular value
REFINE_SCAN = 6


@dataclass
class ContinuationConfig:
    amplitude_step: float = 5e-3
    step_min: float = 1e-5
    amplitude_max: float | None = None
    N: int = 256
    newton: NewtonConfig = field(default_factory=NewtonConfig)

    def __post_init__(self):
        if not (0 < self.step_min <= self.amplitude_step <= STEP_MAX):
            raise ValueError(f"need 0 < step_min <= amplitude_step <= {STEP_MAX}")


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
    # continuation state of a secondary branch, not part of the recorded
    # data: the unit coefficient row it is parametrized by and its first step
    row: np.ndarray | None = field(default=None, repr=False)
    step: float | None = None

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
    mu_n = trivial_bifurcation_mu(n, depth)
    err: SolveFailure | None = None
    for attempt in range(5):
        c = np.zeros(cfg.N)
        c[n] = s
        t_c = 0.0 if s > 0 else np.pi / n
        con = ProjectionConstraint(np.cos(np.arange(cfg.N) * t_c), abs(s))
        try:
            pt = newton_solve(c, mu_n, depth, con, cfg.newton)
            return Branch(label=f"C{n}", mode=n, points=[pt])
        except SolveFailure as exc:
            err = exc
            s *= 0.5
    raise SolveFailure(f"could not seed branch C{n}: {err}")


def _param(p: SolutionPoint, row: np.ndarray | None) -> float:
    """The continuation parameter at p: the amplitude, or row . c."""
    return p.sup_norm if row is None else float(row @ p.coeffs)


def _correct(
    depth,
    cfg: ContinuationConfig,
    target: float,
    prev: SolutionPoint,
    prev2: SolutionPoint | None,
    row: np.ndarray | None = None,
) -> SolutionPoint:
    """One corrector solve at parameter value target.

    The parameter is the crest amplitude when row is None and row . c
    otherwise.  The predictor is the secant through prev2 and prev, which
    for prev2 on the far side of target interpolates between two recorded
    points.  Without a secant the amplitude predictor scales prev to the
    target and the row predictor steps along the unit row itself.  The
    closing row pins the series value at the predictor's crest, or row . c.
    """
    s = _param(prev, row)
    if prev2 is not None and s != (s2 := _param(prev2, row)):
        t = (target - s) / (s - s2)
        c = prev.coeffs + t * (prev.coeffs - prev2.coeffs)
        mu = prev.mu + t * (prev.mu - prev2.mu)
    elif row is None:
        c, mu = prev.coeffs * (target / s if s > 0 else 1.0), prev.mu
    else:
        c, mu = prev.coeffs + (target - s) * row, prev.mu
    con = _constraint_for(c, target) if row is None else ProjectionConstraint(row, target)
    return newton_solve(c, mu, depth, con, cfg.newton)


def _stop_ratio(pt: SolutionPoint) -> float:
    return (0.5 * pt.mu - pt.sup_norm) / (0.5 * pt.mu)


def _terminate(branch: Branch, reason) -> None:
    """End the trace at its last point, as extreme if it is near mu/2."""
    p = branch.last
    kind = "extreme_termination" if _stop_ratio(p) < 50 * EXTREME_STOP_RATIO else "hard_failure"
    branch.events.append(BranchEvent(
        kind, p.mu, p.sup_norm, p.sup_norm,
        diagnostics={"stagnation": 0.5 * p.mu - p.sup_norm, "reason": reason},
    ))


# a corrector that needed at most this many Jacobian factorizations was
# easy, and the next step grows.  3 gives the same points as growing after
# at most 4 full Newton steps; 2, or a bound on chord steps, moves the
# C5 secondary branches' points and endpoints.
EASY_FACTORIZATIONS = 3


def continue_branch(branch: Branch, depth, cfg: ContinuationConfig | None = None) -> Branch:
    """Extend a branch until an endpoint event, amplitude_max or MAX_POINTS.

    Each step is one _correct solve in the branch's parameter: the
    amplitude on primary branches, and branch.row . c on the secondary
    branches seeded by switch_branch, whose amplitude still increases along
    the recorded points.  The first step is cfg.amplitude_step, or
    branch.step when set.  Steps adapt between cfg.step_min and STEP_MAX:
    halved on Newton failure, grown after easy solves, and capped so the
    predicted amplitude gain stays below a fraction of the remaining gap to
    the limiting height mu/2; off the amplitude the cap goes through the
    local slope d(amplitude)/d(row . c).  amplitude_max bounds primary
    branches only.  A trace ends in extreme_termination once the gap falls
    below EXTREME_STOP_RATIO of mu/2.  Turning points are appended as
    events when the trace ends.
    """
    cfg = cfg or ContinuationConfig()
    if not branch.points:
        raise ValueError("branch must be seeded before continuation")
    depth = as_depth(depth)
    row = branch.row
    step = cfg.amplitude_step if branch.step is None else branch.step

    while len(branch.points) < MAX_POINTS and not branch.terminated():
        prev = branch.last
        prev2 = branch.points[-2] if len(branch.points) > 1 else None
        gap = 0.5 * prev.mu - prev.sup_norm
        if _stop_ratio(prev) < EXTREME_STOP_RATIO:
            _terminate(branch, "stop_ratio")
            break
        if cfg.amplitude_max is not None and prev.sup_norm >= cfg.amplitude_max:
            break

        # the gap cap in the parameter: d(amplitude)/d(parameter) is 1 on
        # the amplitude and the local secant slope along a row
        slope = 1.0
        if row is not None:
            slope = 0.0
            if prev2 is not None:
                dt = float(row @ (prev.coeffs - prev2.coeffs))
                da = prev.sup_norm - prev2.sup_norm
                if dt != 0 and da > 0:
                    slope = da / abs(dt)
        eff = min(step, 0.35 * gap / slope) if slope > 0 else step
        target = _param(prev, row) + eff
        if row is None and cfg.amplitude_max is not None:
            target = min(target, cfg.amplitude_max)

        try:
            pt = _correct(depth, cfg, target, prev, prev2, row)
            if 0.5 * pt.mu - pt.sup_norm <= 0:
                raise SolveFailure("iterate beyond the limiting height mu/2")
            if branch.parent_mode is not None:
                off_prev = _offclass_energy(prev.coeffs, branch.parent_mode)
                off_new = _offclass_energy(pt.coeffs, branch.parent_mode)
                if off_new < min(1e-8, 0.2 * off_prev):
                    raise SolveFailure("iterate collapsed onto the parent branch")
        except SolveFailure as exc:
            if eff <= cfg.step_min * (1 + 1e-9):
                _terminate(branch, repr(exc))
                break
            step = max(eff * 0.5, cfg.step_min)
            continue
        branch.points.append(pt)
        if pt.factorizations <= EASY_FACTORIZATIONS and step < STEP_MAX:
            step = min(step * 1.3, STEP_MAX)

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

    def neg_mu(a: float) -> float:
        return -_correct(depth, cfg, float(a), p0, p1).mu

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


def detect_secondary_bifurcations(
    branch: Branch, depth, cfg: ContinuationConfig | None = None
) -> list[BranchEvent]:
    """Locate symmetry-breaking bifurcations along a traced branch.

    The determinant sign of each symmetry-class block of the mu-frozen
    Jacobian is monitored across the recorded points; every sign change is
    bracketed by amplitude bisection down to BIFURCATION_MONITOR_TOL, each
    midpoint a _correct solve between the bracketing points.  Intervals
    where a class' smallest singular value dips far below its neighbours
    are re-scanned at REFINE_SCAN interior amplitudes, so nearby crossings
    of the same class are resolved individually when the resolution
    allows.  Detected events (with null-vector estimates) are returned and
    replace the branch's earlier secondary_bifurcation events, so repeated
    calls leave the same events.
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

    def bisect(
        p0: SolutionPoint, p1: SolutionPoint, ci: int, sign_lo: float
    ) -> BranchEvent | None:
        # sign_lo is the scan's class-ci determinant sign at p0
        lo, hi = p0, p1
        while hi.sup_norm - lo.sup_norm > BIFURCATION_MONITOR_TOL:
            a_mid = 0.5 * (lo.sup_norm + hi.sup_norm)
            try:
                mid = _correct(depth, cfg, a_mid, lo, hi)
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
        for i in range(npts - 1):
            p0, p1 = branch.points[i], branch.points[i + 1]
            s0, m0 = data[i][ci]
            s1, m1 = data[i + 1][ci]
            if s0 != s1:
                ev = bisect(p0, p1, ci, s0)
                if ev is not None:
                    events.append(ev)
            elif (
                0 < i
                and m0 < 0.1 * data[i - 1][ci][1]
                and i + 2 < npts
                and m1 < 0.1 * data[i + 2][ci][1]
            ):
                # deep dip without net sign change: scan finer for an even
                # number of nearby crossings
                sub = [p0]
                grid = np.linspace(p0.sup_norm, p1.sup_norm, REFINE_SCAN + 2)[1:-1]
                ok = True
                for a_s in grid:
                    try:
                        sub.append(_correct(depth, cfg, a_s, p0, p1))
                    except SolveFailure:
                        ok = False
                        break
                sub.append(p1)
                if ok:
                    signs = [s0] + [
                        _class_sign(sys.jacobian(q.coeffs, q.mu)[0], classes[ci])
                        for q in sub[1:-1]
                    ] + [s1]
                    for k in range(len(sub) - 1):
                        if signs[k] != signs[k + 1]:
                            ev = bisect(sub[k], sub[k + 1], ci, signs[k])
                            if ev is not None:
                                events.append(ev)

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
    component along the unit vector phi instead: the closing row becomes
    phi . c = phi . c_event + eps on the coefficients, and the new branch
    carries phi as its row and eps as its first step, so continue_branch
    steps it in that projection.  Raises SolveFailure if every eps
    collapses back onto the parent.
    """
    depth = as_depth(depth)
    c_ev = np.asarray(event.diagnostics["w_coeffs"], dtype=float)
    phi_c = np.asarray(phi_c, dtype=float)
    phi_c = phi_c / np.linalg.norm(phi_c)
    mu_ev = float(event.diagnostics.get("mu_at_event", event.mu))

    last_exc: Exception | None = None
    for eps_rel in (2e-3, 1e-3, 4e-3):
        eps = eps_rel * event.amplitude
        con = ProjectionConstraint(phi_c, float(phi_c @ c_ev) + eps)
        try:
            pt = newton_solve(c_ev + eps * phi_c, mu_ev, depth, con, cfg.newton)
        except SolveFailure as exc:
            last_exc = exc
            continue
        if _offclass_energy(pt.coeffs, branch.mode) > 1e-7:
            return Branch(
                label=f"{branch.label}x", mode=None, points=[pt],
                parent=branch.label, parent_mode=branch.mode, row=phi_c, step=eps,
            )
        last_exc = SolveFailure("iterate collapsed back onto the parent branch")
    raise SolveFailure(f"branch switching failed: {last_exc}")


def switch_branch(
    branch: Branch, event: BranchEvent, direction: float, depth,
    cfg: ContinuationConfig | None = None,
) -> Branch:
    """Seed a secondary branch from a bifurcation event along its null vector.

    direction scales the null vector before it is normalized, so its sign
    picks the side; it must be finite and nonzero.
    """
    if event.kind != "secondary_bifurcation":
        raise ValueError("can only switch at a secondary_bifurcation event")
    if not (math.isfinite(direction) and direction != 0):
        raise ValueError(f"direction must be finite and nonzero, got {direction}")
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
    branch: Branch, depth, cfg: ContinuationConfig | None = None
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
    events = [e for e in branch.events if e.kind == "secondary_bifurcation"]
    seeds: list[tuple[BranchEvent, np.ndarray]] = []
    for ev in events:
        phi = np.asarray(ev.diagnostics["null_vector_coeffs"], dtype=float)
        seeds += [(ev, phi), (ev, -phi)]
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

    out: list[Branch] = []
    for ev, phi in seeds:
        try:
            sec = _switch_along(branch, ev, phi, depth, cfg)
        except SolveFailure:
            continue
        continue_branch(sec, depth, cfg)
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
