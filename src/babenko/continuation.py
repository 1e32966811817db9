"""Branch tracing, event detection and branch switching.

Every branch is traced in one parameter, row . c on a fixed coefficient
row that the branch carries, from the point it leaves from: every solve
along it, fold refinement and the location of its events and extreme
endpoint included, goes through one corrector (_correct), the secant
through two earlier points closed by that row.  The correctors
and location solves of one trace share the Jacobian factors of a
solver.Chord, which newton_solve updates by Broyden steps within each
solve; fold refinement shares a chord of its own, whose first solve is
fresh, and detection and branch switching solve fresh.  A primary
branch's row is its seed's crest row cos(k t_c), with t_c = 0 or pi/n;
its crest never moves, so row . c is the amplitude
a = max_t |w(t)| of the cosine series, which is monotone along the
families of interest, and turning points in mu are passed without
arclength machinery.  Its first secant point is the trivial solution
(mu_n, 0), and newton_solve keeps it exactly in its subspace c_k = 0, k
not a multiple of n, solving each step on the band of that subspace's
coefficients k < K that the iterate resolves to rounding.  A secondary
branch's row is the unit null-vector direction phi it was seeded along,
since near its bifurcation the amplitude cannot separate it from its
parent, and its first secant point is the event point.  Secondary
bifurcations are bracketed by sign changes of the determinants of the
mu-frozen Jacobian's symmetry-class blocks that break the branch's
symmetry, each assembled over its own index set (Golubitsky, Stewart &
Schaeffer 1988, ch. XIII) and factored once: the LU gives the sign, and
inverse iteration on it the smallest singular value and the null vector.
One search (_locate) finds an endpoint and an event alike, as a root of a
scalar function of the solved point: for an event, the sign times the
smallest singular value.  The navigator seeds new branches along the
null vectors and abandons a seed that retraces an earlier one or an even
shift of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import geometry
from .solver import (
    RESIDUAL_TOL,
    Chord,
    DiscreteSystem,
    SolutionPoint,
    SolveFailure,
    lu_factor_in_place,
    lu_solve,
    newton_solve,
)
from .spectral import as_depth

__all__ = [
    "Branch",
    "BranchEvent",
    "ContinuationConfig",
    "trivial_bifurcation_mu",
    "start_branch",
    "continue_branch",
    "detect_turning_points",
    "detect_secondary_bifurcations",
    "navigate_secondaries",
]

# smallest and largest continuation step, in the branch's parameter
STEP_MIN = 1e-5
STEP_MAX = 2e-2
# a trace ends in extreme_termination once (mu/2 - a) / (mu/2) drops below this
EXTREME_STOP_RATIO = 1e-3
# a trace stops after this many points
MAX_POINTS = 2000
# interior parameter values of the finer scan over an interval with a deep
# dip in a class' smallest singular value, as its inverse-iteration estimate
REFINE_SCAN = 6


@dataclass
class ContinuationConfig:
    """One trace's first step, amplitude cap, modes N and solve tolerance."""

    amplitude_step: float = 5e-3
    amplitude_max: float | None = None
    N: int = 256
    residual_tol: float = RESIDUAL_TOL

    def __post_init__(self):
        if not STEP_MIN <= self.amplitude_step <= STEP_MAX:
            raise ValueError(f"need {STEP_MIN} <= amplitude_step <= {STEP_MAX}")
        if not self.residual_tol > 0:
            raise ValueError("residual_tol must be positive")


@dataclass
class BranchEvent:
    kind: str  # turning_point, secondary_bifurcation, extreme_termination, hard_failure, retrace
    mu: float
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
    # continuation state, not part of the recorded data: the fixed row whose
    # value row . c parametrizes the branch, the point it leaves from (its
    # first secant point), a secondary branch's first step and the branches
    # kept before it, whose retrace, or an even shift's, ends its trace
    row: np.ndarray | None = field(default=None, repr=False)
    origin: SolutionPoint | None = field(default=None, repr=False)
    step: float | None = None
    twins: list[Branch] = field(default_factory=list, repr=False)

    def amplitudes(self) -> np.ndarray:
        return np.array([p.sup_norm for p in self.points])

    def mus(self) -> np.ndarray:
        return np.array([p.mu for p in self.points])

    @property
    def last(self) -> SolutionPoint:
        return self.points[-1]

    def terminated(self) -> bool:
        return any(
            e.kind in ("extreme_termination", "hard_failure", "retrace")
            for e in self.events
        )


def trivial_bifurcation_mu(n: int, depth) -> float:
    """mu at which the mode-n branch leaves the zero solution."""
    if n < 1:
        raise ValueError("mode index must be at least 1")
    return math.tanh(n * as_depth(depth)) / n


def start_branch(n: int, s: float, depth, cfg: ContinuationConfig | None = None) -> Branch:
    """Seed branch C_n from the small-amplitude predictor (mu_n, s cos nt).

    The corrector pins w(t_c) = |s| at the predictor's crest, t_c = 0 for
    s > 0 and t_c = pi/n for s < 0, with the row cos(k t_c) that the branch
    keeps as its parameter row; its origin is the trivial solution (mu_n, 0).
    The mode n must satisfy 1 <= n < cfg.N.
    """
    cfg = cfg or ContinuationConfig()
    if not 1 <= n < cfg.N:
        raise ValueError(f"mode must satisfy 1 <= n < N = {cfg.N}, got {n}")
    if not 0 < abs(s) <= 0.05:
        raise ValueError(f"seed amplitude must satisfy 0 < |s| <= 0.05, got {s}")
    h = as_depth(depth)
    mu_n = trivial_bifurcation_mu(n, h)
    err: SolveFailure | None = None
    row = np.cos(np.arange(cfg.N) * (0.0 if s > 0 else np.pi / n))
    # built directly: series_peak would polish every sample of a zero series
    origin = SolutionPoint(mu_n, np.zeros(cfg.N), math.exp(-h), 0.0, 0.0, 0.0)
    for attempt in range(5):
        c = np.zeros(cfg.N)
        c[n] = s
        try:
            pt = newton_solve(c, mu_n, h, row, abs(s), cfg.residual_tol)
            return Branch(label=f"C{n}", mode=n, points=[pt], row=row, origin=origin)
        except SolveFailure as exc:
            err = exc
            s *= 0.5
    raise SolveFailure(f"could not seed branch C{n}: {err}")


def _correct(
    depth,
    cfg: ContinuationConfig,
    target: float,
    prev: SolutionPoint,
    prev2: SolutionPoint,
    row: np.ndarray,
    chord: Chord | None = None,
) -> SolutionPoint:
    """One corrector solve at row . c = target.

    The predictor is the secant through prev2 and prev, whose parameters
    row . c must differ; with prev2 on the far side of target it
    interpolates between them.  The closing row is row . c = target.
    With a chord, newton_solve starts from its factors where they fit.
    """
    s, s2 = float(row @ prev.coeffs), float(row @ prev2.coeffs)
    t = (target - s) / (s - s2)
    c = prev.coeffs + t * (prev.coeffs - prev2.coeffs)
    mu = prev.mu + t * (prev.mu - prev2.mu)
    return newton_solve(c, mu, depth, row, target, cfg.residual_tol, chord)


def _stop_ratio(pt: SolutionPoint) -> float:
    return (0.5 * pt.mu - pt.sup_norm) / (0.5 * pt.mu)


def _terminate(branch: Branch, reason, **diagnostics) -> None:
    """End the trace at its last point, as extreme if it is near mu/2."""
    p = branch.last
    kind = "extreme_termination" if _stop_ratio(p) < 50 * EXTREME_STOP_RATIO else "hard_failure"
    branch.events.append(BranchEvent(
        kind, p.mu, p.sup_norm,
        diagnostics={"stagnation": 0.5 * p.mu - p.sup_norm, "reason": reason, **diagnostics},
    ))


# a location search ends once |f| is below its tolerance, or after
# LOCATE_SOLVES corrector solves: rho - EXTREME_STOP_RATIO for an endpoint,
# a class block's signed smallest singular value for a bifurcation
STOP_RATIO_TOL = 1e-11
EVENT_TOL = 1e-12
LOCATE_SOLVES = 12


def _locate(
    f, a: SolutionPoint, b: SolutionPoint, fa: float, fb: float, tol: float,
    row: np.ndarray, depth, cfg: ContinuationConfig, chord: Chord | None = None,
) -> tuple[SolutionPoint | None, int]:
    """The point between a and b where f, a scalar function of a solved
    point, has its root, and the solves made.

    fa and fb are f at a and b.  Each solve is a _correct solve, from the
    secant through the bracketing points, at the Illinois (safeguarded
    secant) root of f in row . c (Dahlquist & Bjorck, Numerical Methods,
    1974, ch. 6), until |f| <= tol.  None, after no solve, if fa and fb do
    not have opposite signs, and None if a solve fails or LOCATE_SOLVES
    are made.
    """
    if not fa * fb < 0:
        return None, 0
    sa, sb = float(row @ a.coeffs), float(row @ b.coeffs)
    side = 0
    for solves in range(1, LOCATE_SOLVES + 1):
        s = sb - fb * (sb - sa) / (fb - fa)
        try:
            p = _correct(depth, cfg, s, a, b, row, chord)
        except SolveFailure:
            return None, solves
        fp = f(p)
        if abs(fp) <= tol:
            return p, solves
        if (fp < 0) == (fb < 0):  # the root lies between a and p
            b, fb, sb = p, fp, s
            if side == -1:
                fa *= 0.5
            side = -1
        else:
            a, fa, sa = p, fp, s
            if side == 1:
                fb *= 0.5
            side = 1
    return None, LOCATE_SOLVES


def continue_branch(branch: Branch, depth, cfg: ContinuationConfig | None = None) -> Branch:
    """Extend a branch until an endpoint event, amplitude_max or MAX_POINTS.

    Each step is one _correct solve at the next value of branch.row . c,
    the amplitude on primary branches, from the secant through the last two
    points; on the first step the second of them is branch.origin, the
    point the branch leaves from.  The first step is cfg.amplitude_step, or
    branch.step when set.  Steps adapt between STEP_MIN and STEP_MAX:
    halved after a rejected corrector, grown by 1.3 after an accepted one,
    and capped so the amplitude gain predicted by the secant slope
    d(amplitude)/d(row . c) stays below a fraction of the remaining gap to
    the limiting height mu/2.  A step is cut where the secant slope puts
    amplitude_max, exactly on a primary; the trace stops after that solve,
    or at once if the last point is within STEP_MIN of it.  A trace ends in
    extreme_termination once the gap ratio rho = (mu/2 - a)/(mu/2) falls
    below EXTREME_STOP_RATIO: _locate then solves for the point at
    rho = EXTREME_STOP_RATIO between the last two points, which replaces
    the crossing point as the endpoint (the crossing point stays if a
    location solve fails), and the event's diagnostics carry the
    endpoint's rho (stop_ratio) and the solves made (location_solves).
    Turning points are then appended as events.  It ends in a retrace
    event alone once a point retraces a branch.twins or an even shift of
    one (_retraces).

    Every corrector and location solve of the call, on a primary or a
    secondary, shares one Chord, so a solve starts from the previous one's
    factors whenever its band matches, and newton_solve's Broyden updates
    carry it on them; a rejected corrector's factors are dropped.  The
    chord is freed before the turning points are refined, on a chord of
    their own.
    """
    cfg = cfg or ContinuationConfig()
    if not branch.points:
        raise ValueError("branch must be seeded before continuation")
    depth = as_depth(depth)
    row = branch.row
    step = cfg.amplitude_step if branch.step is None else branch.step
    cap = cfg.amplitude_max
    chord = Chord()

    while len(branch.points) < MAX_POINTS and not branch.terminated():
        prev = branch.last
        prev2 = branch.points[-2] if len(branch.points) > 1 else branch.origin
        gap = 0.5 * prev.mu - prev.sup_norm
        if _stop_ratio(prev) < EXTREME_STOP_RATIO:
            def excess(p: SolutionPoint) -> float:
                return _stop_ratio(p) - EXTREME_STOP_RATIO

            end, solves = _locate(excess, prev2, prev, excess(prev2), excess(prev),
                                  STOP_RATIO_TOL, row, depth, cfg, chord)
            if end is not None:
                branch.points[-1] = end
            _terminate(branch, "stop_ratio", stop_ratio=_stop_ratio(branch.last),
                       location_solves=solves)
            break
        if cap is not None and cap - prev.sup_norm < STEP_MIN:
            break

        # the gap cap in the parameter, through the secant slope
        # d(amplitude)/d(row . c); no cap while the amplitude does not grow
        s = float(row @ prev.coeffs)
        dt = s - float(row @ prev2.coeffs)
        da = prev.sup_norm - prev2.sup_norm
        slope = da / abs(dt) if dt != 0 and da > 0 else 0.0
        eff = min(step, 0.35 * gap / slope) if slope > 0 else step
        reach = (cap - prev.sup_norm) / slope if cap is not None and slope > 0 else math.inf
        to_cap = cap if cap is not None and branch.mode is not None else s + reach
        capped = s + eff >= to_cap
        target = to_cap if capped else s + eff

        try:
            pt = _correct(depth, cfg, target, prev, prev2, row, chord)
            if 0.5 * pt.mu - pt.sup_norm <= 0:
                raise SolveFailure("iterate beyond the limiting height mu/2")
            if branch.parent_mode is not None:
                off_prev = _offclass_energy(prev.coeffs, branch.parent_mode)
                off_new = _offclass_energy(pt.coeffs, branch.parent_mode)
                if off_new < min(1e-8, 0.2 * off_prev):
                    raise SolveFailure("iterate collapsed onto the parent branch")
        except SolveFailure as exc:
            chord.factors = None  # a rejected corrector's factors are not kept
            if eff <= STEP_MIN * (1 + 1e-9):
                _terminate(branch, repr(exc))
                break
            step = max(eff * 0.5, STEP_MIN)
            continue
        branch.points.append(pt)
        if capped:
            break
        if any(_retraces(pt, twin) for twin in branch.twins):
            branch.events.append(BranchEvent("retrace", pt.mu, pt.sup_norm))
            return branch
        step = min(step * 1.3, STEP_MAX)

    del chord  # free the buffer before the fold's chord makes its own
    for ev in detect_turning_points(branch, depth, cfg):
        if not any(
            e.kind == "turning_point" and abs(e.amplitude - ev.amplitude) < 1e-9
            for e in branch.events
        ):
            branch.events.append(ev)
    return branch


def detect_turning_points(branch: Branch, depth, cfg: ContinuationConfig) -> list[BranchEvent]:
    """Interior local maxima of mu along the branch.

    _refine_turning_point starts from the three recorded samples around
    each maximum and locates it to FOLD_RESIDUAL_TOL.  Should a solve
    fail, the maximum of a quadratic in the amplitude through those
    samples stands instead, with a bias of the order of the local step;
    that quadratic's coefficients are kept as diagnostics["fit"].  The
    diagnostics say whether the located value stands (refined) and carry
    the refinement's solves and factorizations.
    """
    mus = branch.mus()
    amps = branch.amplitudes()
    events = []
    for i in range(1, len(mus) - 1):
        if mus[i] > mus[i - 1] and mus[i] > mus[i + 1]:
            coef = np.polyfit(amps[i - 1 : i + 2], mus[i - 1 : i + 2], 2)
            a_star = float(-coef[1] / (2 * coef[0])) if coef[0] != 0 else float(amps[i])
            mu_star = float(np.polyval(coef, a_star))
            located, solves, factorizations = _refine_turning_point(
                *branch.points[i - 1 : i + 2], branch.row, depth, cfg)
            if located is not None:
                a_star, mu_star = located
            events.append(
                BranchEvent(
                    "turning_point", mu_star, a_star,
                    diagnostics={"fit": coef.tolist(), "index": i,
                                 "refined": located is not None, "solves": solves,
                                 "factorizations": factorizations},
                )
            )
    return events


# fold refinement solves to this residual, below cfg.residual_tol: the
# fold's mu is stationary in row . c, so what separates a located mu from the
# fold is each solve's own error, which follows its residual (2e-11 to
# 1.7e-10 in mu at 1e-10), and the residual floor is about 1e-16 even at
# N=2048
FOLD_RESIDUAL_TOL = 1e-13


def _refine_turning_point(
    p0: SolutionPoint, mid: SolutionPoint, p1: SolutionPoint, row: np.ndarray, depth,
    cfg: ContinuationConfig,
) -> tuple[tuple[float, float] | None, int, int]:
    """(amplitude, mu) of the largest mu among p0, mid, p1 and the solves,
    with the solves and factorizations made.

    Successive parabolic interpolation in row . c (Brent 1973, ch. 5): each
    _correct solve, from the p0-p1 secant, is at the vertex of the parabola
    through the three highest mu so far, clamped to [p0, p1], until it is
    not concave, lies within 1e-7 of a solved parameter, or 8 solves are
    made.  The (amplitude, mu) is None if a solve fails.  Every solve is at
    residual_tol min(cfg.residual_tol, FOLD_RESIDUAL_TOL) and shares
    one Chord of the refinement's own: the first solve starts fresh, so the
    same samples give the same fold, and the later ones start from its
    factors, usually with no factorization of their own.
    """
    cfg = replace(cfg, residual_tol=min(cfg.residual_tol, FOLD_RESIDUAL_TOL))
    chord = Chord()
    pts = {float(row @ p.coeffs): p for p in (p0, mid, p1)}
    solves = factorizations = 0
    for _ in range(8):
        (sa, a), (sb, b), (sc, c) = sorted(pts.items(), key=lambda kv: kv[1].mu)[-3:]
        d1 = (b.mu - a.mu) / (sb - sa)
        d2 = ((c.mu - b.mu) / (sc - sb) - d1) / (sc - sa)
        s = float(np.clip(0.5 * (sa + sb - d1 / d2), min(pts), max(pts))) if d2 < 0 else None
        if s is None or min(abs(s - t) for t in pts) <= 1e-7:
            break
        solves += 1
        try:
            pts[s] = _correct(depth, cfg, s, p0, p1, row, chord)
        except SolveFailure as exc:
            return None, solves, factorizations + exc.factorizations
        factorizations += pts[s].factorizations
    best = max(pts.values(), key=lambda p: p.mu)
    return (best.sup_norm, best.mu), solves, factorizations


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


def _det_sign(factors) -> float:
    """Sign of a block's determinant from its lu_factor_in_place factors.

    The sign is the product of the signs of U's diagonal times the parity
    of the row interchanges, and 0 for an exactly singular block.
    """
    lu, piv = factors
    swaps = np.count_nonzero(piv != np.arange(piv.size))
    return float(np.prod(np.sign(np.diagonal(lu)))) * (-1.0) ** swaps


def _inverse_step(factors, x: np.ndarray) -> tuple[float, np.ndarray]:
    """One inverse-iteration step on J^T J from the unit vector x.

    factors are lu_factor_in_place's of J: lu_solve gives y = J^-T x and,
    with trans=1, z = J^-1 y.  Returns ||y|| / ||z||, never below J's
    smallest singular value, and z / ||z||, the next estimate of its null vector.
    """
    y = lu_solve(factors, x)
    z = lu_solve(factors, y, trans=1)
    nz = np.linalg.norm(z)
    return float(np.linalg.norm(y) / nz), z / nz


def detect_secondary_bifurcations(
    branch: Branch, depth, cfg: ContinuationConfig | None = None
) -> list[BranchEvent]:
    """Locate symmetry-breaking bifurcations along a traced branch.

    Detection scans only the classes that break the branch's symmetry:
    class 0 carries the branch and its folds, which are the turning
    points, and a mode-1 or secondary branch has no other class, so it
    yields no event and costs no solve.  The system's N is the branch's
    own, and cfg supplies the residual tolerance only.  Each scanned
    symmetry-class block of the mu-frozen Jacobian is assembled over the
    class' index set alone; it is the (L, L) view DiscreteSystem.jacobian
    returns of an (L, L+1) buffer, so its LU is made on a copy, not in
    place.  Its one LU gives its determinant sign, and one _inverse_step
    per point, carried along the branch, an estimate of its smallest
    singular value; their product tau is monitored across the recorded
    points.  Every sign change of tau is located by _locate, in
    branch.row . c from the two bracketing points, to |tau| <= EVENT_TOL,
    each evaluation one LU and two _inverse_steps carried from the last.
    The event is the located point, with its sigma_min = |tau|, its null
    vector, largest entry positive, and the solves made; should the search
    fail, the bracket end with the smaller |tau| stands, and located is
    False.  Intervals where a class' estimate dips far below its
    neighbours are re-scanned at REFINE_SCAN interior parameter values, so
    nearby crossings of the same class are resolved individually.
    Detected events are returned and replace the branch's earlier
    secondary_bifurcation events, so repeated calls leave the same events.
    """
    cfg = cfg or ContinuationConfig()
    if len(branch.points) < 3:
        return []
    row = branch.row
    sys = DiscreteSystem(branch.last.coeffs.size, depth)
    classes = _symmetry_classes(sys.N, branch.mode)
    # class 0 carries the branch itself and its folds, the turning points
    scanned = range(1, len(classes))

    def tau(pt: SolutionPoint, ci: int, v: np.ndarray, steps: int = 1):
        # the class-ci block's determinant sign times its smallest singular
        # value estimate, from one LU and steps _inverse_steps from v, and
        # the vector they leave
        f = lu_factor_in_place(sys.jacobian(pt.coeffs, pt.mu, classes[ci])[0])
        for _ in range(steps):
            sigma, v = _inverse_step(f, v)
        return _det_sign(f) * sigma, v

    # per point and scanned class: (tau, the inverse-iteration vector it leaves)
    data = []
    x = {ci: (0.0, np.full(classes[ci].size, classes[ci].size ** -0.5)) for ci in scanned}
    for pt in branch.points:
        x = {ci: tau(pt, ci, x[ci][1]) for ci in scanned}
        data.append(x)

    events: list[BranchEvent] = []
    npts = len(branch.points)
    for ci in scanned:
        for i in range(npts - 1):
            p0, p1 = branch.points[i], branch.points[i + 1]
            (t0, v0), (t1, _) = data[i][ci], data[i + 1][ci]
            sub, taus = [p0, p1], [t0, t1]
            if (t0 < 0) == (t1 < 0) and 0 < i < npts - 2 and (
                abs(t0) < 0.1 * abs(data[i - 1][ci][0]) and abs(t1) < 0.1 * abs(data[i + 2][ci][0])
            ):
                # deep dip without net sign change: scan finer for an even
                # number of nearby crossings
                grid = np.linspace(row @ p0.coeffs, row @ p1.coeffs, REFINE_SCAN + 2)[1:-1]
                try:
                    sub[1:1] = [_correct(depth, cfg, float(t), p0, p1, row) for t in grid]
                except SolveFailure:
                    continue
                v = v0
                for q in sub[1:-1]:
                    t, v = tau(q, ci, v)
                    taus.insert(-1, t)
            for (q0, q1), (t0, t1) in zip(zip(sub, sub[1:]), zip(taus, taus[1:])):
                if (t0 < 0) == (t1 < 0):
                    continue
                last = [t0, v0]  # tau and vector of the last evaluation

                def f(pt: SolutionPoint) -> float:
                    last[:] = tau(pt, ci, last[1], 2)
                    return last[0]

                pt, solves = _locate(f, q0, q1, t0, t1, EVENT_TOL, row, depth, cfg)
                located = pt is not None
                if not located:  # the bracket end nearer the root stands
                    pt = q0 if abs(t0) <= abs(t1) else q1
                    f(pt)
                v = last[1] * np.sign(last[1][np.argmax(np.abs(last[1]))])
                phi = np.zeros(sys.N)
                phi[classes[ci]] = v
                events.append(BranchEvent(
                    "secondary_bifurcation", pt.mu, pt.sup_norm,
                    diagnostics={"class": ci, "sigma_min": abs(last[0]), "solves": solves,
                                 "located": located, "null_vector_coeffs": phi,
                                 "w_coeffs": pt.coeffs.copy()},
                ))

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
    carries phi as its row, the event point as its origin and eps as its
    first step, so continue_branch steps it in that projection from the
    secant through the event.  Raises SolveFailure if every eps collapses
    back onto the parent.
    """
    c_ev = np.asarray(event.diagnostics["w_coeffs"], dtype=float)
    phi_c = np.asarray(phi_c, dtype=float)
    phi_c = phi_c / np.linalg.norm(phi_c)

    last_exc: Exception | None = None
    for eps_rel in (2e-3, 1e-3, 4e-3):
        eps = eps_rel * event.amplitude
        try:
            pt = newton_solve(c_ev + eps * phi_c, event.mu, depth, phi_c,
                              float(phi_c @ c_ev) + eps, cfg.residual_tol)
        except SolveFailure as exc:
            last_exc = exc
            continue
        if _offclass_energy(pt.coeffs, branch.mode) > 1e-7:
            return Branch(
                label=f"{branch.label}x", mode=None, points=[pt],
                parent=branch.label, parent_mode=branch.mode, row=phi_c,
                origin=SolutionPoint.from_solution(c_ev, event.mu, depth), step=eps,
            )
        last_exc = SolveFailure("iterate collapsed back onto the parent branch")
    raise SolveFailure(f"branch switching failed: {last_exc}")


def _retraces(pt: SolutionPoint, other: Branch) -> bool:
    """Whether pt lies within RETRACE_TOL of other, or of an even shift of
    it, in every coefficient.

    other is interpolated linearly at pt's amplitude, which increases along
    a secondary branch; outside other's amplitudes it never matches.  The
    shifts that keep other even are t0 = j pi/d, j = 0..2d-1, with d the
    gcd of the indices of its nonzero coefficients, the subspace that
    newton_solve keeps it on exactly; each maps c_k to c_k cos(k t0), which
    is c_k for even j and (-1)^(k/d) c_k for odd j, so other has two images.
    """
    i = int(np.searchsorted(other.amplitudes(), pt.sup_norm))
    if not 0 < i < len(other.points):
        return False
    p0, p1 = other.points[i - 1 : i + 1]
    t = (pt.sup_norm - p0.sup_norm) / (p1.sup_norm - p0.sup_norm)
    c = p0.coeffs + t * (p1.coeffs - p0.coeffs)
    d = max(int(np.gcd.reduce(np.flatnonzero(c))), 1)  # gcd(0, k) = k
    sign = 1 - 2 * (np.arange(c.size) // d % 2)
    gaps = np.max(np.abs(pt.coeffs - np.array([c, sign * c])), axis=1)
    return bool(np.min(gaps) < RETRACE_TOL)


def _dihedral(seq: np.ndarray) -> np.ndarray:
    """The 2n rotations and reflections of a cyclic sequence, one per row."""
    turns = (np.arange(seq.size)[:, None] + np.arange(seq.size)) % seq.size
    return np.concatenate([seq[turns], seq[::-1][turns]])


def _word(h: np.ndarray) -> str:
    """h's crests as 1 where level with the highest (geometry._top_crests)
    and 0 elsewhere, read from the crest and way round that give the least
    word."""
    marks = _dihedral(geometry._top_crests(h).astype(int))
    return min("".join(map(str, w)) for w in marks)


# events closer than this in amplitude are treated as one cluster whose
# null vectors span a common near-degenerate subspace
CLUSTER_WINDOW = 2e-3
# a seed's trace stops once a point lies this close to a twin (_retraces)
RETRACE_TOL = 2e-5


def navigate_secondaries(
    branch: Branch, depth, cfg: ContinuationConfig | None = None
) -> list[Branch]:
    """Switch onto every secondary branch reachable from detected events.

    Both signs of each event's null vector are tried.  When two events lie
    within CLUSTER_WINDOW of each other in amplitude, the bifurcation is
    treated as nearly degenerate and the four normalized combinations
    +-phi_i +- phi_j are seeded as well; mixed-symmetry branches (for
    instance the one-high-crest family of a mode-5 parent) emanate only
    along such combined directions.  Each seed's twins are the branches
    kept before it, and its trace stops at the first point that retraces
    one of them or an even shift of one (_retraces): the same wave, reached
    through another even representative.  Over C2-C6 at N = 256..1024 and
    h = 0.4..1, such a point lies within 1.5e-6 of an image of its twin,
    and distinct seeds stay at least 1.1e-4 apart.  Every other seed is
    kept, unless its trace ended at its first point, where no retrace
    check can compare it.

    The same sequence names each kept branch: its census, the number of
    crests level with the highest, and its word (_word), which marks
    those crests round the period.  Branches are sorted by (census,
    word, mu) and labeled parent label + census, with a letter suffix
    from "b" on for the later ones of a census, so mu orders only
    branches whose words tie.
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

    kept: list[Branch] = []
    for ev, phi in seeds:
        try:
            sec = _switch_along(branch, ev, phi, depth, cfg)
        except SolveFailure:
            continue
        sec.twins = list(kept)
        continue_branch(sec, depth, cfg)
        if len(sec.points) > 1 and not any(e.kind == "retrace" for e in sec.events):
            kept.append(sec)
    words = [_word(np.array([y for _, y in geometry.crest_heights(s.last.coeffs)])) for s in kept]
    named = sorted(zip(words, kept), key=lambda ws: (ws[0].count("1"), ws[0], ws[1].last.mu))
    seen: dict[int, int] = {}
    for word, sec in named:
        census = word.count("1")
        rep = seen.get(census, 0)
        sec.label = f"{branch.label}{census}{chr(ord('a') + rep) if rep else ''}"
        seen[census] = rep + 1
    return [sec for _, sec in named]
