"""Shared fixtures.

The expensive traced branches are session-scoped so that the acceptance
suite and unit modules can share them; everything is deterministic, so
sharing does not couple test outcomes.
"""

import math

import numpy as np
import pytest

from babenko.continuation import (
    ContinuationConfig,
    continue_branch,
    detect_secondary_bifurcations,
    navigate_secondaries,
    start_branch,
)
from babenko.solver import NewtonConfig, ProjectionConstraint, get_system, newton_solve
from babenko.spectral import transform_forward

H = math.pi / 5


def node_constraint(N, j, sign, target):
    """Closing row sign * w(x_j) = target at collocation node j of N.

    On the coefficients the row is sign * cos(k x_j).
    """
    x_j = np.pi * (2 * j + 1) / (2 * N)
    return ProjectionConstraint(sign * np.cos(np.arange(N) * x_j), target)


def solve_small(N, n=1, s=0.01, depth=H):
    """One converged small-amplitude mode-n point."""
    sys = get_system(N, depth)
    x = s * np.cos(n * sys.grid.nodes)
    mu = math.tanh(n * depth) / n
    j = int(np.argmax(np.abs(x)))
    con = node_constraint(N, j, 1 if x[j] >= 0 else -1, s)
    c = transform_forward(x, sys.grid)
    return newton_solve(c, mu, depth, con, NewtonConfig())


@pytest.fixture(scope="session")
def c1_coarse():
    """C1 at N=64 up to moderate amplitude; cheap, for unit-level checks."""
    cfg = ContinuationConfig(N=64, amplitude_max=0.1)
    branch = start_branch(1, 0.01, H, cfg)
    continue_branch(branch, H, cfg)
    return branch


@pytest.fixture(scope="session")
def c1_full():
    """C1 at N=512 traced to its extreme endpoint."""
    cfg = ContinuationConfig(N=512)
    branch = start_branch(1, 0.01, H, cfg)
    continue_branch(branch, H, cfg)
    return branch


@pytest.fixture(scope="session")
def c2_full():
    """C2 at N=1024 with secondary-bifurcation detection run.

    C2 has two crests per period, so N=512 resolves each of them only as
    well as N=256 resolves the single crest of C1: the crest-measured fold
    amplitude is 2.2e-3 off at N=512 and settles at N=1024 (5e-5 from its
    N=2048 value).
    """
    cfg = ContinuationConfig(N=1024)
    branch = start_branch(2, 0.01, H, cfg)
    continue_branch(branch, H, cfg)
    detect_secondary_bifurcations(branch, H, cfg)
    return branch


@pytest.fixture(scope="session")
def c5_bundle():
    """C5 at N=512 with detected events and navigated secondary branches.

    N=512 rather than the package default of 256: the cluster of nearly
    degenerate crossings and the endpoints of the secondary branches are
    resolution-sensitive and need at least this size to settle (N=1024
    moves the endpoints by under 5e-4 further).
    """
    cfg = ContinuationConfig(N=512)
    branch = start_branch(5, 0.01, H, cfg)
    continue_branch(branch, H, cfg)
    events = detect_secondary_bifurcations(branch, H, cfg)
    secondaries = navigate_secondaries(branch, H, cfg)
    return {"parent": branch, "events": events, "secondaries": secondaries,
            "cfg": cfg}
