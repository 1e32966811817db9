import math

import numpy as np
import pytest

from babenko.continuation import (
    STEP_MAX,
    Branch,
    BranchEvent,
    ContinuationConfig,
    _symmetry_classes,
    continue_branch,
    detect_secondary_bifurcations,
    detect_turning_points,
    start_branch,
    switch_branch,
    trace_to_extreme,
    trivial_bifurcation_mu,
)
from babenko.solver import SolutionPoint, SolveFailure

from conftest import H


class TestConfigAndSeeding:
    def test_trivial_bifurcation_values(self):
        assert trivial_bifurcation_mu(1, H) == pytest.approx(math.tanh(H))
        assert trivial_bifurcation_mu(3, H) == pytest.approx(math.tanh(3 * H) / 3)
        with pytest.raises(ValueError):
            trivial_bifurcation_mu(0, H)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ContinuationConfig(step_min=1e-2, amplitude_step=1e-3)
        with pytest.raises(ValueError):
            ContinuationConfig(amplitude_step=2 * STEP_MAX)

    def test_start_branch_seeds_pure_mode(self):
        cfg = ContinuationConfig(N=32)
        b = start_branch(2, 0.01, H, cfg)
        assert b.label == "C2"
        assert b.mode == 2
        assert len(b.points) == 1
        pt = b.points[0]
        # the corrector pins the crest value w(0) at s
        assert pt.sup_norm == pytest.approx(0.01, rel=1e-12)
        # the seed is dominated by mode 2; only the nonlinear mean and
        # harmonic corrections are populated besides it
        c = np.abs(pt.coeffs)
        assert int(np.argmax(c)) == 2
        assert c[2] > 10 * np.max(np.delete(c, 2))

    @pytest.mark.parametrize("n, N, s", [
        (1, 512, 0.01), (1, 1024, 0.01), (2, 1024, 0.01), (5, 512, 0.01),
        (1, 512, -0.01),
    ])
    def test_start_branch_pins_the_crest(self, n, N, s):
        # crest and trough of s cos(nt) have equal |w|; the seed must pin
        # the crest (t = 0, or pi/n for s < 0), whose height is the amplitude
        pt = start_branch(n, s, H, ContinuationConfig(N=N)).points[0]
        assert pt.sup_norm == pytest.approx(abs(s), rel=1e-12)

    def test_start_branch_rejects_large_seed(self):
        with pytest.raises(ValueError):
            start_branch(1, 0.5, H)

    def test_continuation_requires_seed(self):
        with pytest.raises(ValueError):
            continue_branch(Branch(label="empty", mode=1), H)


class TestAmplitudeContinuation:
    def test_amplitudes_increase_monotonically(self, c1_coarse):
        amps = c1_coarse.amplitudes()
        assert np.all(np.diff(amps) > 0)
        assert np.all(np.diff(amps) <= STEP_MAX + 1e-12)

    def test_stops_at_amplitude_max(self, c1_coarse):
        assert c1_coarse.last.sup_norm == pytest.approx(0.1, abs=1e-12)
        assert not c1_coarse.terminated()

    def test_invariants_hold_along_branch(self, c1_coarse):
        for p in c1_coarse.points:
            assert p.mean <= 0
            assert p.sup_norm < 0.5 * p.mu
            assert 0 < p.r < 1
            assert p.residual_norm < 1e-9

    def test_retrace_is_reproducible(self, c1_coarse):
        cfg = ContinuationConfig(N=64, amplitude_max=0.1)
        again = continue_branch(start_branch(1, 0.01, H, cfg), H, cfg)
        assert len(again.points) == len(c1_coarse.points)
        assert again.last.mu == pytest.approx(c1_coarse.last.mu, abs=1e-12)

    def test_small_amplitude_limit_of_mu(self):
        # mu(a) -> mu_n linearly in a^2; extrapolate from two tiny amplitudes
        cfg = ContinuationConfig(N=64)
        b = start_branch(3, 1e-3, H, cfg)
        cfg2 = ContinuationConfig(N=64, amplitude_step=1e-3, step_min=1e-6,
                                  amplitude_max=2e-3)
        continue_branch(b, H, cfg2)
        a = b.amplitudes()
        mu = b.mus()
        mu0 = mu[0] - (mu[-1] - mu[0]) * a[0] ** 2 / (a[-1] ** 2 - a[0] ** 2)
        assert mu0 == pytest.approx(trivial_bifurcation_mu(3, H), abs=1e-6)


class TestEndpointAndTurning:
    def test_reaches_extreme_termination(self, c1_full):
        kinds = [e.kind for e in c1_full.events]
        assert "extreme_termination" in kinds
        p = c1_full.last
        assert (0.5 * p.mu - p.sup_norm) / (0.5 * p.mu) < 5e-2

    def test_turning_point_recorded(self, c1_full):
        # the fold in mu only resolves once the crest is; N=512 suffices
        tps = [e for e in c1_full.events if e.kind == "turning_point"]
        assert len(tps) == 1
        assert tps[0].mu == pytest.approx(0.71604, abs=5e-3)
        assert tps[0].amplitude == pytest.approx(0.34553, abs=5e-3)

    def test_trace_to_extreme_returns_event(self):
        cfg = ContinuationConfig(N=32)
        b = start_branch(1, 0.01, H, cfg)
        ev = trace_to_extreme(b, H, cfg)
        assert ev.kind in ("extreme_termination", "hard_failure")

    def test_detect_turning_points_on_synthetic_parabola(self):
        # mu(a) = 0.7 - (a - 0.3)^2 peaks at a = 0.3
        pts = []
        for a in np.linspace(0.25, 0.35, 11):
            mu = 0.7 - (a - 0.3) ** 2
            p = SolutionPoint.from_solution(np.zeros(8), mu, H)
            object.__setattr__(p, "sup_norm", float(a))
            pts.append(p)
        b = Branch(label="synthetic", mode=1, points=pts)
        events = detect_turning_points(b)
        assert len(events) == 1
        assert events[0].amplitude == pytest.approx(0.3, abs=1e-10)
        assert events[0].mu == pytest.approx(0.7, abs=1e-10)

    def test_monotone_branch_has_no_turning_point(self, c1_coarse):
        assert detect_turning_points(c1_coarse) == []


class TestSymmetryClasses:
    @pytest.mark.parametrize("mode", [2, 3, 5])
    def test_partition_is_disjoint_and_complete(self, mode):
        N = 32
        classes = _symmetry_classes(N, mode)
        allidx = np.concatenate(classes)
        assert np.array_equal(np.sort(allidx), np.arange(N))
        assert len(classes) == mode // 2 + 1

    def test_class_members_pair_residues(self):
        classes = _symmetry_classes(20, 5)
        # class {1, 4}: residues 1 and 4 mod 5
        assert set(classes[1]) == {1, 4, 6, 9, 11, 14, 16, 19}

    def test_trivial_mode_single_class(self):
        assert len(_symmetry_classes(16, None)) == 1
        assert len(_symmetry_classes(16, 1)) == 1


@pytest.fixture(scope="module")
def c2_256():
    cfg = ContinuationConfig(N=256)
    b = continue_branch(start_branch(2, 0.01, H, cfg), H, cfg)
    detect_secondary_bifurcations(b, H, cfg)
    return b, cfg


class TestSecondaryDetection:
    def test_c2_event_found_near_reference(self, c2_256):
        b, _ = c2_256
        evs = [e for e in b.events if e.kind == "secondary_bifurcation"]
        assert len(evs) == 1
        assert evs[0].mu == pytest.approx(0.51113, abs=5e-3)

    def test_detection_is_idempotent(self, c2_256):
        b, cfg = c2_256

        def snapshot():
            return [(e.kind, e.mu, e.amplitude) for e in b.events]

        before = snapshot()
        detect_secondary_bifurcations(b, H, cfg)
        assert snapshot() == before

    def test_null_vector_lives_in_odd_class(self, c2_256):
        b, _ = c2_256
        ev = next(e for e in b.events if e.kind == "secondary_bifurcation")
        phi = ev.diagnostics["null_vector_coeffs"]
        assert np.max(np.abs(phi[::2])) < 1e-12  # even modes untouched
        assert np.max(np.abs(phi[1::2])) > 0.1

    def test_switching_breaks_symmetry(self, c2_256):
        b, cfg = c2_256
        ev = next(e for e in b.events if e.kind == "secondary_bifurcation")
        sec = switch_branch(b, ev, +1, H, cfg)
        assert sec.parent == "C2"
        c = sec.last.coeffs
        assert np.max(np.abs(c[1::2])) > 1e-5  # odd modes now populated

    def test_switch_requires_bifurcation_event(self, c2_256):
        b, cfg = c2_256
        fake = BranchEvent("turning_point", 0.5, 0.2, 0.2)
        with pytest.raises(ValueError):
            switch_branch(b, fake, +1, H, cfg)

    @pytest.mark.parametrize("direction", [0, 0.0, math.nan, math.inf])
    def test_switch_rejects_bad_direction(self, c2_256, direction):
        b, cfg = c2_256
        ev = next(e for e in b.events if e.kind == "secondary_bifurcation")
        with pytest.raises(ValueError, match="direction"):
            switch_branch(b, ev, direction, H, cfg)

    def test_secondaries_advance_along_their_row(self, c5_bundle):
        # a switched branch is parametrized by row . c on a unit row, and
        # every accepted step moves that parameter forward
        assert c5_bundle["secondaries"]
        for sec in c5_bundle["secondaries"]:
            assert np.linalg.norm(sec.row) == pytest.approx(1.0, abs=1e-14)
            t = np.array([sec.row @ p.coeffs for p in sec.points])
            assert np.all(np.diff(t) > 0)

    def test_short_branch_yields_no_events(self):
        cfg = ContinuationConfig(N=32)
        b = start_branch(2, 0.01, H, cfg)
        assert detect_secondary_bifurcations(b, H, cfg) == []


def dense_sup(points) -> np.ndarray:
    """max_t |sum c_k cos kt| per point, evaluated directly.

    A uniform grid over [0, pi] that contains both ends locates the largest
    samples; each sampled local maximum within 1e-4 of the top one is then
    refined by a bounded scalar search between its grid neighbours.
    """
    from scipy.optimize import minimize_scalar

    C = np.array([p.coeffs for p in points]).T
    k = np.arange(C.shape[0])
    t = np.linspace(0.0, np.pi, 8 * C.shape[0] + 1)
    dt = t[1] - t[0]
    V = np.abs(np.cos(np.outer(t, k)) @ C)
    out = []
    for c, v in zip(C.T, V.T):
        ext = np.concatenate(([v[1]], v, [v[-2]]))
        peaks = np.flatnonzero((v >= ext[:-2]) & (v >= ext[2:]) & (v >= v.max() - 1e-4))
        best = v.max()
        for i in peaks:
            res = minimize_scalar(
                lambda s: -abs(np.cos(k * s) @ c),
                bounds=(max(t[i] - dt, 0.0), min(t[i] + dt, np.pi)),
                method="bounded", options={"xatol": 1e-13},
            )
            best = max(best, -res.fun)
        out.append(best)
    return np.array(out)


class TestAmplitudeIsSeriesCrest:
    """sup_norm is the supremum of the series, and it stays below mu/2.

    The collocation nodes never contain the crests at t = 0 and t = pi, so
    a nodal maximum falls short of a near-extreme crest and lets a trace
    run past the limiting height.
    """

    @staticmethod
    def check(points):
        amps = np.array([p.sup_norm for p in points])
        assert np.max(np.abs(amps - dense_sup(points))) < 1e-10
        assert all(0.5 * p.mu - p.sup_norm > 0 for p in points)

    def test_c1_coarse(self, c1_coarse):
        self.check(c1_coarse.points)

    def test_c1_full(self, c1_full):
        self.check(c1_full.points)

    def test_c5_secondaries(self, c5_bundle):
        assert c5_bundle["secondaries"]
        for sec in c5_bundle["secondaries"]:
            self.check(sec.points)
