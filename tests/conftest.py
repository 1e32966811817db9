"""Shared fixtures.

The expensive traced branches are session-scoped so that the acceptance
suite and unit modules can share them; everything is deterministic, so
sharing does not couple test outcomes.
"""

import math

import numpy as np
import pytest

from babenko import continuation
from babenko.continuation import (
    ContinuationConfig,
    continue_branch,
    detect_secondary_bifurcations,
    navigate_secondaries,
    start_branch,
)
from babenko.geometry import crest_heights
from babenko.solver import newton_solve
from babenko.spectral import fine_coeffs, fine_values

H = math.pi / 5


def nodes(N):
    """The collocation nodes x_n = pi (2n - 1) / (2N), n = 1..N."""
    return np.pi * (2.0 * np.arange(1, N + 1) - 1.0) / (2.0 * N)


def transform_matrix(N):
    """Dense N x N nodal->coefficient matrix (row k is the analysis weight of mode k)."""
    T = (2.0 / N) * np.cos(np.outer(np.arange(N), nodes(N)))
    T[0, :] *= 0.5
    return T


def inverse_transform_matrix(N):
    """Dense N x N coefficient->nodal matrix, S[n, k] = cos(k x_n)."""
    return np.cos(np.outer(nodes(N), np.arange(N)))


def node_row(N, j, sign):
    """Closing row of sign * w(x_j) at collocation node j of N.

    On the coefficients the row is sign * cos(k x_j).
    """
    x_j = np.pi * (2 * j + 1) / (2 * N)
    return sign * np.cos(np.arange(N) * x_j)


def crest_word(branch):
    """The crest word of the branch's endpoint (continuation._word)."""
    return continuation._word(np.array([h for _, h in crest_heights(branch.last.coeffs)]))


def fine_product(cu, cv):
    """Cosine coefficients of the product of two N-mode series, as the residual forms it.

    Both factors are evaluated on the 2N-node grid by fine_values,
    multiplied there and taken back to N modes by fine_coeffs.
    """
    return fine_coeffs(fine_values(cu) * fine_values(cv))


def dense_product_matrix(c):
    """Matrix of u -> fine_product(c, u), column by column on unit vectors."""
    return np.column_stack([fine_product(c, e) for e in np.eye(c.size)])


def solve_small(N, n=1, s=0.01, depth=H):
    """One converged small-amplitude mode-n point, from the seed s cos(nt)."""
    x = s * np.cos(n * nodes(N))
    mu = math.tanh(n * depth) / n
    j = int(np.argmax(np.abs(x)))
    row = node_row(N, j, 1 if x[j] >= 0 else -1)
    c = np.zeros(N)
    c[n] = s
    return newton_solve(c, mu, depth, row, s)


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
    resolution-sensitive and need at least this size to settle.  N=1024
    still moves the census-1/2/3/4 endpoints by 4e-5 / 4.4e-4 / 9.0e-4 /
    1.4e-3 in mu.
    """
    cfg = ContinuationConfig(N=512)
    branch = start_branch(5, 0.01, H, cfg)
    continue_branch(branch, H, cfg)
    events = detect_secondary_bifurcations(branch, H, cfg)
    secondaries = navigate_secondaries(branch, H, cfg)
    return {"parent": branch, "events": events, "secondaries": secondaries,
            "cfg": cfg}
