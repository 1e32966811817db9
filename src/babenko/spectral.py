"""Cosine-collocation spectral core.

An even 2*pi-periodic function is a plain float vector c of the
coefficients of cos(k*t), k = 0..N-1, with N = c.size.  Its values at the
shifted collocation nodes x_n = pi*(2n-1)/(2N) follow by a type-III
discrete cosine transform and go back by a type-II one.  On top of the
transforms this module provides the diagonal Fourier-multiplier symbols of
the finite-depth wave problem and the exactly dealiased pointwise product
with its structured matrix.  The depth-parametrized operators are these
symbols at the radius r = exp(-h - c_0), e.g. lambda_symbol(r, N) * c for
the J-type one; the solver evaluates them so and accumulates the product
matrices in place into its Newton system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.fft import dct

__all__ = [
    "DomainError",
    "CosineGrid",
    "DepthParams",
    "R_MAX",
    "transform_forward",
    "transform_inverse",
    "transform_matrix",
    "inverse_transform_matrix",
    "lambda_symbol",
    "mu_symbol",
    "mu_symbol_total",
    "hilbert_symbol",
    "dlambda_dr",
    "dmu_dr",
    "product_coeffs",
    "add_product_matrix",
    "product_matrix",
    "series_peak",
    "as_depth",
]

# Conformal radii this close to 1 correspond to vanishing depth; the
# J-type symbols blow up there and are outside validated scope.
R_MAX = 1.0 - 1e-12


class DomainError(ValueError):
    """An operator was evaluated outside its domain of definition."""


class CosineGrid:
    """Collocation grid with nodes x_n = pi*(2n-1)/(2N), n = 1..N."""

    __slots__ = ("N", "nodes")

    def __init__(self, N: int):
        if N < 1:
            raise ValueError(f"grid size must be positive, got {N}")
        self.N = int(N)
        self.nodes = np.pi * (2.0 * np.arange(1, self.N + 1) - 1.0) / (2.0 * self.N)

    def __eq__(self, other):
        return isinstance(other, CosineGrid) and other.N == self.N

    def __hash__(self):
        return hash(("CosineGrid", self.N))

    def __repr__(self):
        return f"CosineGrid(N={self.N})"


def transform_forward(nodal: np.ndarray, grid: CosineGrid) -> np.ndarray:
    """Nodal values -> cosine coefficients (exact interpolation in span{cos kt})."""
    nodal = np.asarray(nodal, dtype=float)
    if nodal.shape != (grid.N,):
        raise ValueError(f"expected {grid.N} nodal values, got shape {nodal.shape}")
    # DCT-II on this grid: y_k = 2 * sum_n f_n cos(k x_n)
    y = dct(nodal, type=2)
    c = y / grid.N
    c[0] *= 0.5
    return c


def transform_inverse(coeffs: np.ndarray, grid: CosineGrid) -> np.ndarray:
    """Cosine coefficients -> nodal values, f_n = sum_k c_k cos(k x_n)."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (grid.N,):
        raise ValueError(f"expected {grid.N} coefficients, got shape {coeffs.shape}")
    a = 0.5 * coeffs
    a[0] = coeffs[0]
    return dct(a, type=3)


def transform_matrix(grid: CosineGrid) -> np.ndarray:
    """Dense nodal->coefficient matrix (row k is the analysis weight of mode k)."""
    k = np.arange(grid.N)
    T = (2.0 / grid.N) * np.cos(np.outer(k, grid.nodes))
    T[0, :] *= 0.5
    return T


def inverse_transform_matrix(grid: CosineGrid) -> np.ndarray:
    """Dense coefficient->nodal matrix, S[n, k] = cos(k x_n)."""
    k = np.arange(grid.N)
    return np.cos(np.outer(grid.nodes, k))


@dataclass(frozen=True)
class DepthParams:
    """Mean water depth in nondimensional (wavelength-scaled) units."""

    h: float

    def __post_init__(self):
        if not self.h > 0:
            raise ValueError(f"depth must be positive, got {self.h}")


def as_depth(depth) -> DepthParams:
    return depth if isinstance(depth, DepthParams) else DepthParams(float(depth))


# ---------------------------------------------------------------------------
# Multiplier symbols.  With L = log r < 0 the sequences reduce to hyperbolic
# functions of n*L, which stay well conditioned for all n up to N ~ 1024:
#   lambda_n = n (1 + r^{2n}) / (1 - r^{2n}) = n / tanh(-n L)
#   mu_n     = 1 / lambda_n                  = tanh(-n L) / n
# ---------------------------------------------------------------------------


def _check_r(r: float) -> float:
    r = float(r)
    if not 0.0 < r < 1.0:
        raise DomainError(f"conformal radius must lie in (0, 1), got {r}")
    if r >= R_MAX:
        raise DomainError(f"conformal radius {r} too close to 1 (vanishing depth)")
    return r


def lambda_symbol(r: float, N: int) -> np.ndarray:
    """Eigenvalues of the J-type operator: 0, then n(1+r^2n)/(1-r^2n)."""
    r = _check_r(r)
    n = np.arange(1, N)
    m = np.zeros(N)
    m[1:] = n / np.tanh(-n * np.log(r))
    return m


def mu_symbol(r: float, N: int) -> np.ndarray:
    """Eigenvalues of the L-type operator: 1, then (1-r^2n)/(n(1+r^2n))."""
    r = _check_r(r)
    return mu_symbol_total(r, N)


def mu_symbol_total(r: float, N: int) -> np.ndarray:
    """L-type symbol evaluated directly; finite for every r > 0."""
    if not r > 0:
        raise DomainError(f"conformal radius must be positive, got {r}")
    n = np.arange(1, N)
    m = np.empty(N)
    m[0] = 1.0
    m[1:] = -np.tanh(n * np.log(r)) / n
    return m


def hilbert_symbol(r: float, N: int) -> np.ndarray:
    """Symbol of the conjugation operator on cosine modes: (1+r^2n)/(1-r^2n)."""
    r = _check_r(r)
    n = np.arange(1, N)
    m = np.zeros(N)
    m[1:] = 1.0 / np.tanh(-n * np.log(r))
    return m


def dlambda_dr(r: float, N: int) -> np.ndarray:
    """d lambda_n / dr = n^2 / (r sinh^2(n log r)); entry 0 is zero."""
    r = _check_r(r)
    n = np.arange(1, N)
    m = np.zeros(N)
    with np.errstate(over="ignore"):
        s = np.sinh(n * np.log(r))
        m[1:] = n * n / (r * s * s)
    return m


def dmu_dr(r: float, N: int) -> np.ndarray:
    """d mu_n / dr = -1 / (r cosh^2(n log r)); entry 0 is zero."""
    if not r > 0:
        raise DomainError(f"conformal radius must be positive, got {r}")
    n = np.arange(1, N)
    m = np.zeros(N)
    with np.errstate(over="ignore"):
        c = np.cosh(n * np.log(r))
        m[1:] = -1.0 / (r * c * c)
    return m


def _padded_nodal(coeffs: np.ndarray, grid: CosineGrid) -> np.ndarray:
    """Evaluate an N-mode cosine series on a grid of at least N nodes."""
    cp = np.zeros(grid.N)
    cp[: coeffs.size] = coeffs
    return transform_inverse(cp, grid)


def product_coeffs(cu: np.ndarray, cv: np.ndarray) -> np.ndarray:
    """Cosine coefficients of the pointwise product of two N-mode series.

    Both factors are evaluated on a 2N-node grid, multiplied there and the
    result truncated back to N modes.  A product of two N-mode series has
    at most 2N-1 modes, so the retained coefficients are exact.
    """
    N = cu.size
    if cv.size != N:
        raise ValueError(f"length mismatch: {N} vs {cv.size}")
    fine = CosineGrid(2 * N)
    prod = _padded_nodal(cu, fine) * _padded_nodal(cv, fine)
    return transform_forward(prod, fine)[:N]


def add_product_matrix(c: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Add the matrix of u -> product_coeffs(c, u) to out, in place.

    By cos(jt) cos(mt) = (cos((j-m)t) + cos((j+m)t)) / 2 its entries are
    (c_|k-m| + c_(k+m)) / 2, Toeplitz plus Hankel with c_j = 0 for j >= N,
    except that row 0 holds c_m / 2 for m >= 1 and the diagonal gains
    c_0 / 2 for k >= 1 (column 0 equals c).  out has the N rows of the
    product's modes and M >= N columns; a column m >= N follows the same
    formula, as for a factor u with M modes, so that a caller can fill
    whole rows of a wider matrix.  The two parts are added from strided
    views of O(N) vectors; no N x M temporary is made.
    """
    c = np.asarray(c, dtype=float)
    N, M = out.shape
    if c.size != N or M < N:
        raise ValueError(f"out must be {c.size} x M with M >= {c.size}, got {out.shape}")
    half = 0.5 * c
    # v[N-1+j] = c_|j| / 2, so the Toeplitz row k, c_|m-k| / 2, is the window
    # of v starting at N-1-k; u[k+m] = c_(k+m) / 2 gives the Hankel rows
    pad = np.zeros(M - 1)
    v = np.concatenate((half[::-1], half[1:], pad[: M - N]))
    u = np.concatenate((half, pad))
    out[1:] += sliding_window_view(v, M)[::-1][1:]
    out[1:] += sliding_window_view(u, M)[1:]
    out[0, 0] += c[0]
    out[0, 1:N] += half[1:]
    out.flat[M + 1 :: M + 1] += half[0]
    return out


def product_matrix(c: np.ndarray) -> np.ndarray:
    """Matrix of the linear map u -> product_coeffs(c, u); see add_product_matrix."""
    c = np.asarray(c, dtype=float)
    return add_product_matrix(c, np.zeros((c.size, c.size)))


def series_peak(coeffs: np.ndarray) -> tuple[float, float]:
    """Location t* in [0, pi] and signed value w(t*) of the largest |w|.

    w(t) = sum_k c_k cos(kt) is sampled on the 4N + 1 points t_j = j*pi/(4N),
    which include 0 and pi, by one zero-padded DCT-I.  Every sampled local
    maximum of |w| within the sampling error dt^2/8 * max|w''| of the top
    one is then polished by Newton's method on w'(t) = 0, confined to the
    neighbouring samples; the largest value found is returned.
    """
    c = np.asarray(coeffs, dtype=float)
    k = np.arange(c.size)
    M = 4 * max(c.size, 2)
    dt = np.pi / M
    a = np.zeros(M + 1)
    a[0] = c[0]
    a[1 : c.size] = 0.5 * c[1:]
    # DCT-I: y_j = a_0 + (-1)^j a_M + 2 sum_{k=1}^{M-1} a_k cos(pi j k / M)
    y = dct(a, type=1)
    g = np.abs(y)
    slack = 0.125 * dt * dt * float(np.sum(k * k * np.abs(c)))
    # even reflection at both ends, so t = 0 and t = pi can be maxima
    ext = np.concatenate(([g[1]], g, [g[-2]]))
    j = np.flatnonzero(
        (g >= ext[:-2]) & (g >= ext[2:]) & (g >= g.max() - slack)
    )
    t = j * dt
    lo, hi = np.maximum(t - dt, 0.0), np.minimum(t + dt, np.pi)
    for _ in range(8):
        kt = np.outer(t, k)
        d1 = -(np.sin(kt) * k) @ c
        d2 = -(np.cos(kt) * (k * k)) @ c
        step = np.divide(d1, d2, out=np.zeros_like(d1), where=d2 != 0)
        t_new = np.clip(t - step, lo, hi)
        done = np.max(np.abs(t_new - t)) <= 1e-15
        t = t_new
        if done:
            break
    # the samples stay candidates, so a stray polish can never lower the peak
    t = np.concatenate([t, j * dt])
    vals = np.concatenate([np.cos(np.outer(t[: j.size], k)) @ c, y[j]])
    i = int(np.argmax(np.abs(vals)))
    return float(t[i]), float(vals[i])
