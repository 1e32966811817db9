import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import interp1d

from babenko import continuation
from babenko.continuation import (
    EXTREME_STOP_RATIO,
    RETRACE_TOL,
    STEP_MAX,
    STEP_MIN,
    Branch,
    ContinuationConfig,
    _correct,
    _det_sign,
    _symmetry_classes,
    continue_branch,
    detect_secondary_bifurcations,
    detect_turning_points,
    navigate_secondaries,
    start_branch,
    trivial_bifurcation_mu,
)
from babenko.geometry import EQUAL_CREST_RTOL, crest_heights
from babenko.solver import DiscreteSystem, SolutionPoint, SolveFailure, lu_factor_in_place

from conftest import H, crest_word


def crests(sec):
    """Crest heights of sec's endpoint, in t order."""
    return np.array([h for _, h in crest_heights(sec.last.coeffs)])


class TestConfigAndSeeding:
    def test_trivial_bifurcation_values(self):
        assert trivial_bifurcation_mu(1, H) == pytest.approx(math.tanh(H))
        assert trivial_bifurcation_mu(3, H) == pytest.approx(math.tanh(3 * H) / 3)
        with pytest.raises(ValueError):
            trivial_bifurcation_mu(0, H)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ContinuationConfig(amplitude_step=0.5 * STEP_MIN)
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

    @pytest.mark.parametrize("n", [0, 32, 300])
    def test_start_branch_rejects_a_mode_outside_the_grid(self, n):
        with pytest.raises(ValueError, match="1 <= n < N = 32"):
            start_branch(n, 0.01, H, ContinuationConfig(N=32))

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

    def test_cap_point_recorded_once_when_it_reads_below_the_cap(self, monkeypatch):
        # a converged cap point whose amplitude reads 1e-17 below the cap
        # still ends the trace
        cfg = ContinuationConfig(N=64, amplitude_max=0.05)
        below = cfg.amplitude_max - 1e-17
        assert below < cfg.amplitude_max
        solve = continuation.newton_solve

        def short_of_cap(c, mu, depth, row, target, tol, chord=None):
            pt = solve(c, mu, depth, row, target, tol, chord)
            if target == cfg.amplitude_max:
                pt.sup_norm = below
            return pt

        monkeypatch.setattr(continuation, "newton_solve", short_of_cap)
        b = continue_branch(start_branch(1, 0.01, H, cfg), H, cfg)
        amps = b.amplitudes()
        assert amps[-1] == below
        assert np.sum(amps > cfg.amplitude_max - 1e-9) == 1
        assert np.all(np.diff(amps) > 0)
        # further calls stop before stepping: less than STEP_MIN is left
        for _ in range(2):
            continue_branch(b, H, cfg)
            assert len(b.points) == len(amps)

    def test_secondaries_stop_at_amplitude_max(self, c5_bundle):
        # a secondary's parameter is not its amplitude, so its last step is
        # cut where the secant slope puts the cap; the trace stops there.
        # The capped branches are the N=512 families traced to their ends:
        # each label names the same crest word at both N
        cfg = ContinuationConfig(N=256, amplitude_max=0.11)
        b = continue_branch(start_branch(5, 0.01, H, cfg), H, cfg)
        assert b.last.sup_norm == pytest.approx(0.11, abs=1e-12)
        detect_secondary_bifurcations(b, H, cfg)
        secs = navigate_secondaries(b, H, cfg)
        assert secs
        for sec in secs:
            assert abs(sec.last.sup_norm - 0.11) < 1e-4
            assert np.all(sec.amplitudes()[:-1] < 0.11)
            assert not sec.terminated()
        assert {s.label: crest_word(s) for s in secs} == \
            {s.label: crest_word(s) for s in c5_bundle["secondaries"]}

    def test_retrace_is_reproducible(self, c1_coarse):
        cfg = ContinuationConfig(N=64, amplitude_max=0.1)
        again = continue_branch(start_branch(1, 0.01, H, cfg), H, cfg)
        assert len(again.points) == len(c1_coarse.points)
        assert again.last.mu == pytest.approx(c1_coarse.last.mu, abs=1e-12)

    def test_small_amplitude_limit_of_mu(self):
        # mu(a) -> mu_n linearly in a^2; extrapolate from two tiny amplitudes
        cfg = ContinuationConfig(N=64)
        b = start_branch(3, 1e-3, H, cfg)
        cfg2 = ContinuationConfig(N=64, amplitude_step=1e-3, amplitude_max=2e-3)
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

    @pytest.mark.blas_threads
    def test_endpoints_sit_at_the_stop_ratio(self, c1_full, c5_bundle):
        # the point located at rho = EXTREME_STOP_RATIO replaces the one
        # that crossed it, and the event carries rho and the solves
        branches = [c1_full, c5_bundle["parent"], *c5_bundle["secondaries"]]
        stops = [(b, e) for b in branches for e in b.events
                 if e.kind == "extreme_termination" and e.diagnostics["reason"] == "stop_ratio"]
        assert len(stops) == len(branches)
        for b, e in stops:
            rho = continuation._stop_ratio(b.last)
            assert abs(rho - EXTREME_STOP_RATIO) < 1e-8
            assert e.diagnostics["stop_ratio"] == rho
            assert 1 <= e.diagnostics["location_solves"] <= continuation.LOCATE_SOLVES
            assert (e.mu, e.amplitude) == (b.last.mu, b.last.sup_norm)
            assert all(continuation._stop_ratio(p) > EXTREME_STOP_RATIO for p in b.points[:-1])

    @pytest.mark.blas_threads
    def test_failed_location_keeps_the_crossing_point(self, monkeypatch):
        cfg = ContinuationConfig(N=64)
        located = continue_branch(start_branch(1, 0.01, H, cfg), H, cfg)
        correct = continuation._correct

        def no_location(depth, cfg, target, prev, prev2, row, chord=None):
            # location solves aim behind prev2, between their two points;
            # so do the fold's, which then keep the quadratic fit
            if target < row @ prev2.coeffs:
                raise SolveFailure("location solve failed")
            return correct(depth, cfg, target, prev, prev2, row, chord)

        monkeypatch.setattr(continuation, "_correct", no_location)
        b = continue_branch(start_branch(1, 0.01, H, cfg), H, cfg)
        assert len(b.points) == len(located.points)
        for p, q in zip(b.points[:-1], located.points[:-1]):
            assert np.array_equal(p.coeffs, q.coeffs)
        ev = next(e for e in b.events if e.kind == "extreme_termination")
        assert ev.diagnostics["location_solves"] == 1
        rho = continuation._stop_ratio(b.last)
        assert ev.diagnostics["stop_ratio"] == rho < EXTREME_STOP_RATIO
        assert b.last.sup_norm > located.last.sup_norm

    def test_trace_holds_one_jacobian_buffer(self, c1_full):
        # the chord's buffer, 513 x 513 or 2.1 MB at N=512, is freed before
        # the fold's chord makes its own, and before a wider band's buffer
        # is made; c1_full has loaded everything the trace imports
        cfg = ContinuationConfig(N=512)
        seed = start_branch(1, 0.01, H, cfg)
        tracemalloc.start()
        try:
            b = continue_branch(seed, H, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert any(e.kind == "turning_point" for e in b.events)
        assert peak < 1.5 * 513 ** 2 * 8

    def test_turning_point_recorded(self, c1_full):
        # the fold in mu only resolves once the crest is; N=512 suffices
        tps = [e for e in c1_full.events if e.kind == "turning_point"]
        assert len(tps) == 1
        assert tps[0].mu == pytest.approx(0.71604, abs=5e-3)
        assert tps[0].amplitude == pytest.approx(0.34553, abs=5e-3)

    def test_detect_turning_points_on_synthetic_parabola(self, monkeypatch):
        # mu(a) = 0.7 - (a - 0.3)^2 peaks at a = 0.3, between two samples;
        # with every solve failing, the quadratic fit through the samples
        # locates it
        monkeypatch.setattr(continuation, "newton_solve", fail_every_solve)
        pts = []
        for a in np.linspace(0.253, 0.353, 11):
            mu = 0.7 - (a - 0.3) ** 2
            p = SolutionPoint.from_solution(a * np.eye(8)[1], mu, H)
            object.__setattr__(p, "sup_norm", float(a))
            pts.append(p)
        b = Branch(label="synthetic", mode=1, points=pts, row=np.eye(8)[1])
        events = detect_turning_points(b, H, ContinuationConfig(N=8))
        assert len(events) == 1
        assert events[0].amplitude == pytest.approx(0.3, abs=1e-10)
        assert events[0].mu == pytest.approx(0.7, abs=1e-10)
        assert events[0].diagnostics["refined"] is False

    def test_monotone_branch_has_no_turning_point(self, c1_coarse):
        assert detect_turning_points(c1_coarse, H, ContinuationConfig(N=64)) == []


def fail_every_solve(*args):
    raise SolveFailure("no solve")


def reference_fold(p0, p1, row, depth, cfg):
    """The fold by scipy's bounded scalar search on -mu over [p0, p1] in row . c.

    _refine_turning_point replaced this search: xatol 1e-7, every
    evaluation a _correct solve from the p0-p1 secant.  Returns the
    (amplitude, mu) of the largest mu solved.
    """
    from scipy.optimize import minimize_scalar

    best = []

    def neg_mu(t):
        pt = _correct(depth, cfg, float(t), p0, p1, row)
        if not best or pt.mu > best[0].mu:
            best[:] = [pt]
        return -pt.mu

    minimize_scalar(neg_mu, bounds=(float(row @ p0.coeffs), float(row @ p1.coeffs)),
                    method="bounded", options={"xatol": 1e-7})
    return best[0].sup_norm, best[0].mu


@pytest.fixture(scope="module", params=["c1_full", "c2_full"])
def located_fold(request):
    """A branch's folds located again, with the corrector solves they took.

    Returns the branch, its config, the turning_point events and the
    points of the newton_solve calls detect_turning_points made, all of
    them under _refine_turning_point.
    """
    b = request.getfixturevalue(request.param)
    cfg = ContinuationConfig(N=b.last.coeffs.size)
    solves = []
    solve = continuation.newton_solve

    def recorded(*args):
        solves.append(solve(*args))
        return solves[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(continuation, "newton_solve", recorded)
        events = detect_turning_points(b, H, cfg)
    return b, cfg, events, solves


@pytest.mark.blas_threads
class TestFoldLocation:
    """Folds from parabolic interpolation through the samples already solved."""

    def test_at_most_four_solves(self, located_fold):
        b, _, events, solves = located_fold
        assert len(events) == 1
        assert 1 <= len(solves) <= 4
        # the same fold the trace recorded
        recorded = [e for e in b.events if e.kind == "turning_point"]
        assert [(e.mu, e.amplitude) for e in recorded] == [(e.mu, e.amplitude) for e in events]

    def test_one_factorization_per_fold(self, located_fold):
        # the first solve starts fresh, and the rest run on its factors and
        # their Broyden updates, to FOLD_RESIDUAL_TOL
        _, _, events, solves = located_fold
        assert sum(p.factorizations for p in solves) == 1
        assert all(p.residual_norm <= continuation.FOLD_RESIDUAL_TOL for p in solves)
        d = events[0].diagnostics
        assert (d["refined"], d["solves"], d["factorizations"]) == (True, len(solves), 1)

    def test_matches_the_bounded_search(self, located_fold):
        # the reference solves fresh at residual_tol 1e-13, so its mu is the
        # fold's to about 1e-13, not to the 1e-10 tolerance's 1e-11 to 1e-10
        b, cfg, events, _ = located_fold
        i = events[0].diagnostics["index"]
        exact = dataclasses.replace(cfg, residual_tol=1e-13)
        a_ref, mu_ref = reference_fold(b.points[i - 1], b.points[i + 1], b.row, H, exact)
        assert abs(events[0].amplitude - a_ref) < 2e-7
        assert abs(events[0].mu - mu_ref) < 1e-12

    def test_not_below_the_recorded_maximum(self, located_fold):
        b, _, events, _ = located_fold
        assert events[0].mu >= max(b.mus())

    def test_refinement_is_repeatable(self, located_fold):
        # its first solve starts fresh, so the same samples give the same fold
        b, cfg, events, _ = located_fold
        i = events[0].diagnostics["index"]
        args = (*b.points[i - 1:i + 2], b.row, H, cfg)
        first = continuation._refine_turning_point(*args)
        assert continuation._refine_turning_point(*args) == first
        assert first[0] == (events[0].amplitude, events[0].mu)

    def test_c1_fold_is_pinned(self, c1_full):
        ev = next(e for e in c1_full.events if e.kind == "turning_point")
        assert abs(ev.mu - 0.7160565368704847) < 1e-12
        assert abs(ev.amplitude - 0.34568238997314465) < 1e-10

    def test_solve_failure_keeps_the_quadratic_fit(self, c1_full, monkeypatch):
        # the vertex of the parabola in the amplitude through the three
        # samples around the recorded maximum of mu
        monkeypatch.setattr(continuation, "newton_solve", fail_every_solve)
        got = detect_turning_points(c1_full, H, ContinuationConfig(N=512))
        assert [e.diagnostics["refined"] for e in got] == [False]
        i = got[0].diagnostics["index"]
        coef = np.polyfit(c1_full.amplitudes()[i - 1:i + 2], c1_full.mus()[i - 1:i + 2], 2)
        a = float(-coef[1] / (2 * coef[0]))
        assert (got[0].mu, got[0].amplitude) == (float(np.polyval(coef, a)), a)
        assert got[0].diagnostics["fit"] == coef.tolist()

    def test_one_shot_trace_imports_no_scipy_optimize(self, tmp_path):
        # N=256 is the smallest N at which C1 records a fold; a fresh
        # `babenko trace` locates it without loading scipy.optimize
        code = (
            "import atexit, sys\n"
            "atexit.register(lambda: print('scipy.optimize' in sys.modules))\n"
            "from babenko.cli import main\n"
            "main(sys.argv[1:])\n"
        )
        src = str(Path(continuation.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", code, "trace", "--branch", "C1", "--modes", "256",
             "--out", str(tmp_path)],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
            timeout=120,
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.split()[-1] == "False"
        events = json.loads((tmp_path / "events.json").read_text())["events"]
        assert [e["kind"] for e in events].count("turning_point") == 1


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


@pytest.fixture(scope="module")
def c5_256():
    """C5 at N=256 with detection run: class-1 crossings at a = 0.105047
    and 0.121234, one class-2 crossing at 0.10492."""
    cfg = ContinuationConfig(N=256)
    b = continue_branch(start_branch(5, 0.01, H, cfg), H, cfg)
    detect_secondary_bifurcations(b, H, cfg)
    return b, cfg


def class_block(pt, cfg, mode, ci):
    return DiscreteSystem(cfg.N, H).jacobian(pt.coeffs, pt.mu, _symmetry_classes(cfg.N, mode)[ci])[0]


@pytest.mark.blas_threads
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
        phi = np.asarray(ev.diagnostics["null_vector_coeffs"])
        sec = continuation._switch_along(b, ev, phi, H, cfg)
        assert sec.parent == "C2"
        c = sec.last.coeffs
        assert np.max(np.abs(c[1::2])) > 1e-5  # odd modes now populated

    def test_secondaries_advance_along_their_row(self, c5_bundle):
        # a switched branch is parametrized by row . c on a unit row, and
        # every accepted step moves that parameter forward
        assert c5_bundle["secondaries"]
        for sec in c5_bundle["secondaries"]:
            assert np.linalg.norm(sec.row) == pytest.approx(1.0, abs=1e-14)
            t = np.array([sec.row @ p.coeffs for p in sec.points])
            assert np.all(np.diff(t) > 0)

    def test_c1_fold_is_not_a_bifurcation(self, c1_full):
        # at the fold the whole Jacobian's determinant changes sign, but
        # on a mode-1 branch that is class 0, the branch's own, which is
        # not scanned; the fold stays a turning point only
        b = dataclasses.replace(c1_full, events=list(c1_full.events))
        assert detect_secondary_bifurcations(b, H, ContinuationConfig(N=512)) == []
        assert [e.kind for e in b.events] == [e.kind for e in c1_full.events]
        assert [e.kind for e in b.events].count("turning_point") == 1

    def test_mode_one_branch_costs_no_solve(self, c1_full, monkeypatch):
        # a mode-1 branch has no class but its own, so detection neither
        # solves nor factors
        calls = {"newton_solve": 0, "lu_factor_in_place": 0}

        def spy(name):
            fn = getattr(continuation, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(continuation, name, counted)

        spy("newton_solve")
        spy("lu_factor_in_place")
        b = dataclasses.replace(c1_full, events=list(c1_full.events))
        assert detect_secondary_bifurcations(b, H, ContinuationConfig(N=512)) == []
        assert calls == {"newton_solve": 0, "lu_factor_in_place": 0}

    def test_system_size_comes_from_the_branch(self, c2_256):
        # cfg supplies the Newton settings only; the system's N is the
        # branch's own
        b, cfg = c2_256

        def events(ccfg):
            again = dataclasses.replace(b, events=list(b.events))
            return [(e.mu, e.amplitude, e.diagnostics["class"])
                    for e in detect_secondary_bifurcations(again, H, ccfg)]

        ref = events(cfg)
        assert ref
        assert events(ContinuationConfig(N=64)) == ref

    def test_short_branch_yields_no_events(self):
        cfg = ContinuationConfig(N=32)
        b = start_branch(2, 0.01, H, cfg)
        assert detect_secondary_bifurcations(b, H, cfg) == []

    @staticmethod
    def branch_and_cfg(request, name):
        got = request.getfixturevalue(name)
        return (got["parent"], got["cfg"]) if name == "c5_bundle" else got

    @pytest.mark.parametrize("name", ["c2_256", "c5_bundle"])
    def test_null_vector_and_sigma_min_match_the_svd(self, request, name):
        # the SVD of the class block at the event point is the oracle of the
        # inverse iteration on its LU factors
        from scipy.linalg import svd

        b, cfg = self.branch_and_cfg(request, name)
        evs = [e for e in b.events if e.kind == "secondary_bifurcation"]
        assert evs
        for e in evs:
            d = e.diagnostics
            idx = _symmetry_classes(cfg.N, b.mode)[d["class"]]
            pt = SolutionPoint.from_solution(d["w_coeffs"], d["mu_at_event"], H)
            _, s, Vt = svd(class_block(pt, cfg, b.mode, d["class"]))
            phi = d["null_vector_coeffs"]
            assert not np.any(np.delete(phi, idx))
            v = phi[idx]
            assert v[np.argmax(np.abs(v))] > 0
            assert np.max(np.abs(v - np.sign(v @ Vt[-1]) * Vt[-1])) < 1e-12
            assert abs(d["sigma_min"] - s[-1]) < 1e-6 * s[-1]

    @pytest.mark.parametrize("name", ["c2_256", "c5_bundle"])
    def test_detection_takes_no_svd(self, request, name, monkeypatch):
        import scipy.linalg

        def refuse(*args, **kwargs):
            raise AssertionError("detection took an SVD")

        for fn in ("svd", "svdvals"):
            monkeypatch.setattr(scipy.linalg, fn, refuse)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        b, cfg = self.branch_and_cfg(request, name)
        again = dataclasses.replace(b, events=list(b.events))
        evs = detect_secondary_bifurcations(again, H, cfg)
        ref = [e for e in b.events if e.kind == "secondary_bifurcation"]
        assert [(e.mu, e.amplitude) for e in evs] == [(e.mu, e.amplitude) for e in ref]

    def test_dip_rescan_resolves_two_nearby_crossings(self, c5_256, monkeypatch):
        # six points around C5's two class-1 crossings: the interval between
        # them shows no class-1 sign change, only a dip of sigma_min at both
        # ends, so the crossings are found by the finer re-scan alone
        b, cfg = c5_256
        full = [e for e in b.events if e.kind == "secondary_bifurcation"]
        a1, a2 = sorted(e.amplitude for e in full if e.diagnostics["class"] == 1)
        assert a1 == pytest.approx(0.105047, abs=1e-6)
        assert a2 == pytest.approx(0.121234, abs=1e-6)
        amps, last = b.amplitudes(), b.last.sup_norm
        pts = []
        for t in (a1 - 4e-3, a1 - 2e-3, a1 - 1e-5, a2 + 1e-5,
                  a2 + (last - a2) / 3, a2 + 2 * (last - a2) / 3):
            i = min(int(np.searchsorted(amps, t)), len(amps) - 1)
            pts.append(_correct(H, cfg, t, b.points[i - 1], b.points[i], b.row))
        signs = [_det_sign(lu_factor_in_place(class_block(p, cfg, 5, 1))) for p in pts]
        assert signs[2] == signs[3]
        targets = []
        correct = continuation._correct

        def spy(depth, ccfg, target, *rest):
            targets.append(target)
            return correct(depth, ccfg, target, *rest)

        monkeypatch.setattr(continuation, "_correct", spy)
        six = Branch(label="C5", mode=5, points=pts, row=b.row, origin=b.origin)
        evs = detect_secondary_bifurcations(six, H, cfg)
        got = sorted(e.amplitude for e in evs if e.diagnostics["class"] == 1)
        assert len(got) == 2
        assert got == pytest.approx([a1, a2], abs=1e-6)
        # the re-scan ran once, on the middle interval
        grid = np.linspace(b.row @ pts[2].coeffs, b.row @ pts[3].coeffs,
                           continuation.REFINE_SCAN + 2)[1:-1]
        assert np.count_nonzero(np.isin(targets, grid)) == continuation.REFINE_SCAN


@pytest.fixture(scope="module")
def c1_trough_first():
    """C1 at N=256 seeded with s < 0, so its crest is at t = pi."""
    cfg = ContinuationConfig(N=256)
    return continue_branch(start_branch(1, -0.01, H, cfg), H, cfg)


class TestParameterRow:
    """Every branch is traced in row . c from the point it leaves from."""

    def test_primaries_leave_the_trivial_solution(self, c1_full, c1_trough_first, c5_bundle):
        for b, n in ((c1_full, 1), (c1_trough_first, 1), (c5_bundle["parent"], 5)):
            assert b.origin.mu == trivial_bifurcation_mu(n, H)
            assert not np.any(b.origin.coeffs)
            assert b.origin.sup_norm == 0.0
            assert b.row.shape == b.last.coeffs.shape

    def test_secondaries_leave_their_event(self, c5_bundle):
        events = c5_bundle["events"]
        for sec in c5_bundle["secondaries"]:
            assert any(np.array_equal(sec.origin.coeffs, e.diagnostics["w_coeffs"])
                       and sec.origin.mu == e.diagnostics["mu_at_event"] for e in events)
            # the seed lies one first step along the row from the event
            dt = sec.row @ (sec.points[0].coeffs - sec.origin.coeffs)
            assert dt == pytest.approx(sec.step, rel=1e-9)

    def test_primary_parameter_is_the_amplitude(self, c1_full, c1_trough_first, c5_bundle):
        # the crest never leaves t_c, so row . c is the crest amplitude
        for b in (c1_full, c1_trough_first, c5_bundle["parent"]):
            assert len(b.points) > 20
            assert b.terminated()
            for p in b.points:
                assert abs(b.row @ p.coeffs - p.sup_norm) < 1e-12


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


def even_shift_gaps(pt, other):
    """max |dc_k| between pt and each image of other under t -> t + j pi/d,
    j = 0..2d-1, the shifts that keep other even (d the gcd of the indices
    of its nonzero coefficients), with other interpolated at pt's
    amplitude; [inf] outside other's amplitudes.  Index 0 is other as traced.
    """
    a = other.amplitudes()
    if not a[0] <= pt.sup_norm <= a[-1]:
        return np.array([math.inf])
    c = interp1d(a, np.array([p.coeffs for p in other.points]), axis=0)(pt.sup_norm)
    k = np.arange(c.size)
    d = int(np.gcd.reduce(np.flatnonzero(c)))
    return np.array([np.max(np.abs(pt.coeffs - c * np.cos(k * j * np.pi / d)))
                     for j in range(2 * d)])


def recorded_navigation(parent, cfg, act):
    """Navigate parent with every retrace check recorded; with act False the
    check never stops a trace.

    Returns the branches kept and, per traced seed, the seed and a log of
    (point index, index of the earlier seed, the check's decision, the
    seed's even_shift_gaps to that earlier seed).
    """
    seeds = []
    trace, retraces = continuation.continue_branch, continuation._retraces

    def traced(sec, depth, cfg):
        seeds.append((sec, []))
        return trace(sec, depth, cfg)

    def recorded(pt, other):
        sec, log = seeds[-1]
        j = next(j for j, (s, _) in enumerate(seeds) if s is other)
        hit = retraces(pt, other)
        log.append((len(sec.points) - 1, j, hit, even_shift_gaps(pt, other)))
        return hit and act

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(continuation, "continue_branch", traced)
        mp.setattr(continuation, "_retraces", recorded)
        kept = navigate_secondaries(parent, H, cfg)
    return kept, seeds


def distinct(h1, h2, sup):
    """Whether two endpoints' positive crest heights, in t order, differ:
    no rotation or reflection of h1 lies within EQUAL_CREST_RTOL * sup of
    h2 in every crest.  An oracle of the navigator's retrace check, from
    the endpoints' crests alone: a shifted or reflected even representative
    of a wave ends with the same crests."""
    if h1.size != h2.size:
        return True
    gap = np.min(np.max(np.abs(continuation._dihedral(h1) - h2), axis=1))
    return bool(gap > EQUAL_CREST_RTOL * sup)


@pytest.fixture(scope="module")
def c5_seeds(c5_bundle):
    """C5's navigation rerun with the retrace check recorded, never acted on."""
    return recorded_navigation(c5_bundle["parent"], c5_bundle["cfg"], act=False)


@pytest.fixture(scope="module")
def c4_seeds():
    """C4 at N=256 navigated with the retrace check recorded and acted on."""
    cfg = ContinuationConfig(N=256)
    b = continue_branch(start_branch(4, 0.01, H, cfg), H, cfg)
    detect_secondary_bifurcations(b, H, cfg)
    return recorded_navigation(b, cfg, act=True)


@pytest.mark.blas_threads
class TestRetraceCheck:
    """The navigator abandons a seed that retraces one it kept before, or
    an even shift of it."""

    def test_abandons_the_duplicate_pair_only(self, c5_seeds):
        _, seeds = c5_seeds
        assert len(seeds) == 8
        first = {}
        for i, (_, log) in enumerate(seeds):
            hits = [(k, j, gaps[0]) for k, j, hit, gaps in log if hit]
            if hits:
                first[i] = hits[0]
        # seeds 5 and 6 retrace seeds 3 and 2, as traced, from their first
        # accepted point
        assert sorted(first) == [5, 6]
        assert first[5][:2] == (1, 3) and first[6][:2] == (1, 2)
        assert max(dist for _, _, dist in first.values()) < RETRACE_TOL / 10
        # every other seed stays far from every earlier one and its shifts
        for i, (_, log) in enumerate(seeds):
            if i not in first:
                assert min((min(gaps) for *_, gaps in log), default=np.inf) > 5 * RETRACE_TOL

    def test_keeps_tracing_the_distinct_census2_pair(self, c5_bundle, c5_seeds):
        # seeds 0 (C52) and 2 (C52b) end within 3e-6 of each other in mu
        # and are two crest arrangements; seed 2 is traced to its end and kept
        kept, seeds = c5_seeds
        ref = {b.label: b for b in c5_bundle["secondaries"]}
        (s0, _), (s2, log2) = seeds[0], seeds[2]
        for s, r in ((s0, ref["C52"]), (s2, ref["C52b"])):
            assert s.last.mu == r.last.mu and np.array_equal(s.last.coeffs, r.last.coeffs)
        assert abs(s2.last.mu - s0.last.mu) < 3e-6
        assert s2.terminated()
        vs0 = [min(gaps) for k, j, hit, gaps in log2 if j == 0]
        assert len(vs0) >= len(s2.points) - 2
        assert min(vs0) > 10 * RETRACE_TOL
        assert any(b is s2 for b in kept)

    def test_abandoned_seed_stops_at_its_second_point(self, c5_bundle, c5_seeds):
        _, seeds = c5_seeds
        twins = [sec for sec, _ in seeds[:5]]
        dup = seeds[5][0]
        again = Branch(label=dup.label, mode=None, points=dup.points[:1],
                       parent=dup.parent, parent_mode=dup.parent_mode,
                       row=dup.row, origin=dup.origin, step=dup.step, twins=twins)
        continue_branch(again, H, c5_bundle["cfg"])
        assert len(again.points) == 2
        assert [e.kind for e in again.events] == ["retrace"]
        assert again.terminated()

    def test_branches_identical_without_the_early_stop(self, c5_bundle, c5_seeds):
        # traced to their ends, the two retracing seeds end where their
        # twins do, and the crest oracle drops them; what it keeps is the
        # navigator's set, bit for bit
        kept, seeds = c5_seeds
        ends = []
        for sec, _ in seeds:
            if all(distinct(crests(sec), crests(e), sec.last.sup_norm) for e in ends):
                ends.append(sec)
        assert len(ends) == 6
        got = [b for b in kept if any(b is e for e in ends)]
        ref = c5_bundle["secondaries"]
        assert [crest_word(b) for b in got] == [crest_word(r) for r in ref]
        for b, r in zip(got, ref):
            assert len(b.points) == len(r.points)
            for p, q in zip(b.points, r.points):
                assert p.mu == q.mu
                assert np.array_equal(p.coeffs, q.coeffs)
            assert [(e.kind, e.mu, e.amplitude) for e in b.events] == \
                [(e.kind, e.mu, e.amplitude) for e in r.events]

    def test_c2_second_seed_stops_at_its_second_point(self, c2_256):
        # C2's seeds +-phi are one wave shifted by pi, c_k -> (-1)^k c_k:
        # the second is far from the first as traced and on its shift
        b, cfg = c2_256
        kept, seeds = recorded_navigation(b, cfg, act=True)
        (first, _), (second, log) = seeds
        assert len(kept) == 1 and kept[0] is first and first.label == "C21"
        assert len(second.points) == 2
        assert [e.kind for e in second.events] == ["retrace"]
        k, j, hit, gaps = log[-1]
        assert (k, j, hit) == (1, 0, True)
        assert gaps[0] > 5 * RETRACE_TOL and gaps[1] < RETRACE_TOL / 10

    @pytest.mark.parametrize("name", ["c5_seeds", "c4_seeds"])
    def test_margins_hold_over_every_even_shift(self, request, name):
        # every check the navigator makes, up to a seed's first hit, against
        # all 2d even shifts of the twin, t0 = j pi/d: a hit is within
        # RETRACE_TOL/10 of one of them, a miss beyond 5 RETRACE_TOL of all
        _, seeds = request.getfixturevalue(name)
        checks = 0
        for _, log in seeds:
            for k, j, hit, gaps in log:
                checks += 1
                if hit:
                    assert min(gaps) < RETRACE_TOL / 10
                    break
                assert min(gaps) > 5 * RETRACE_TOL
        assert checks > 40

    def test_seed_ending_at_its_first_point_is_not_kept(self):
        # at h = 0.8, C5 seeds two branches at the primary's end whose
        # traces end at their first point, every crest level (11111) and
        # within 4e-5 of the primary's endpoint: neither is kept
        h, cfg = 0.8, ContinuationConfig(N=256)
        b = continue_branch(start_branch(5, 0.01, h, cfg), h, cfg)
        detect_secondary_bifurcations(b, h, cfg)
        traced = []
        trace = continuation.continue_branch

        def recorded(sec, depth, cfg):
            traced.append(sec)
            return trace(sec, depth, cfg)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(continuation, "continue_branch", recorded)
            kept = navigate_secondaries(b, h, cfg)
        short = [s for s in traced if len(s.points) == 1]
        assert len(short) == 2
        for s in short:
            assert crest_word(s) == "11111"
            assert abs(s.last.mu - b.last.mu) < 4e-5
            assert abs(s.last.sup_norm - b.last.sup_norm) < 4e-5
            assert not any(s is k for k in kept)
        assert [(s.label, crest_word(s)) for s in kept] == [
            ("C51", "00001"), ("C52", "00011"), ("C52b", "00101"), ("C52c", "00101"),
            ("C53", "01011"), ("C54", "01111")]


@pytest.mark.blas_threads
class TestBranchIdentity:
    """The navigator keeps one branch per wave, named by its crest word."""

    def test_words_and_duplicates_of_crest_sequences(self):
        h = np.array([1.0, 0.5, 1.0, 0.5, 0.5])
        assert continuation._word(h) == "00101"
        assert continuation._word(np.array([1.0, 1.0, 0.5, 0.5, 0.5])) == "00011"
        # the same wave read from another crest and the other way round
        g = np.array([1.0, 0.9, 0.7, 0.5, 0.6])
        assert not distinct(np.roll(g[::-1], 2), g, 1.0)
        assert distinct(np.array([1.0, 1.0, 0.5, 0.5, 0.5]), h, 1.0)
        assert distinct(h[:4], h[:4] + 2e-3, 1.0)
        assert distinct(h[:4], h, 1.0)

    def test_c4_keeps_one_branch_per_wave(self, c4_seeds):
        kept, seeds = c4_seeds
        # C41 and C41b share a word, and mu orders them
        assert [(s.label, len(s.points), crest_word(s)) for s in kept] == [
            ("C41", 15, "0001"), ("C41b", 19, "0001"), ("C42", 16, "0101")]
        ends = [s for s, _ in seeds if not any(e.kind == "retrace" for e in s.events)]
        assert len(ends) == 3 and all(any(s is k for k in kept) for s in ends)
        # the other five stop at their second point against a kept branch,
        # seed 4 on it as traced and the others on its shift by pi/d
        stopped = []
        for i, (s, log) in enumerate(seeds):
            if s.events[-1].kind == "retrace":
                k, j, hit, gaps = log[-1]
                assert len(s.points) == 2 and k == 1 and hit
                assert any(seeds[j][0] is b for b in kept)
                assert min(gaps) < RETRACE_TOL / 10
                stopped.append((i, j, bool(gaps[0] > 5 * RETRACE_TOL)))
        assert stopped == [(1, 0, True), (3, 2, True), (4, 0, False), (6, 0, True),
                           (7, 5, True)]

    def test_c6_kept_branches_are_pinned(self):
        # seven families, two pairs of them (C61 and C61b, C62 and C62b)
        # with one word each.  C61 (mu 0.192898 at its end) is reached only
        # by two combined seeds, and a move of the primary by 1e-10 can
        # put their first point on C62c's branch instead, where they stop
        # as a retrace; re-traced with every solve fresh, C61 ends at the
        # same point, at least 1.2e-4 from every other family
        cfg = ContinuationConfig(N=256)
        b = continue_branch(start_branch(6, 0.01, H, cfg), H, cfg)
        detect_secondary_bifurcations(b, H, cfg)
        kept = navigate_secondaries(b, H, cfg)
        assert [(s.label, len(s.points), crest_word(s)) for s in kept] == [
            ("C61", 16, "000001"), ("C61b", 19, "000001"), ("C62", 17, "000101"),
            ("C62b", 21, "000101"), ("C62c", 17, "001001"), ("C63", 18, "010101"),
            ("C64", 20, "011011")]
