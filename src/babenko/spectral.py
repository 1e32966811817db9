"""Cosine-collocation spectral core.

An even 2*pi-periodic function is a plain float vector c of the
coefficients of cos(k*t), k = 0..N-1, with N = c.size.  Its values at the
shifted collocation nodes x_n = pi*(2n-1)/(2N) follow by a type-III
discrete cosine transform and go back by a type-II one.  Both are one real
FFT of N points plus an O(N) twiddle, after Makhoul's reordering of the
nodes (those of even index ascending, then those of odd index descending;
Makhoul, A fast cosine transform in one and two dimensions, IEEE TASSP 28,
1980), on numpy.fft, so importing this module loads no scipy.  The only state is
one twiddle pair per transform size.

On top of the transforms this module provides the diagonal
Fourier-multiplier symbols of the finite-depth wave problem and the
exactly dealiased pointwise product: factors are evaluated on the 2N-node
fine grid (fine_values), multiplied there and taken back to N modes
(fine_coeffs), so a caller multiplying one factor with several others
evaluates it once.  The product's structured matrix is given whole or on
an index set.  The depth-parametrized operators are these symbols at the
radius r = exp(-h - c_0), e.g. lambda_symbol(r, N) * c for the J-type
one; the solver evaluates them so and accumulates the product matrices in
place into its Newton system.
"""

from __future__ import annotations

from functools import cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "DomainError",
    "R_MAX",
    "transform_forward",
    "transform_inverse",
    "lambda_symbol",
    "mu_symbol",
    "mu_symbol_total",
    "hilbert_symbol",
    "dlambda_dr",
    "dmu_dr",
    "fine_values",
    "fine_coeffs",
    "product_coeffs",
    "add_product_matrix",
    "product_block",
    "series_peak",
    "as_depth",
]

# Conformal radii this close to 1 correspond to vanishing depth; the
# J-type symbols blow up there and are outside validated scope.
R_MAX = 1.0 - 1e-12


class DomainError(ValueError):
    """An operator was evaluated outside its domain of definition."""


@cache
def _twiddles(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Twiddles of the N-point transforms at the rfft frequencies k = 0..N//2.

    The forward one is 2 exp(-i pi k / (2N)) and the inverse one its
    reciprocal, exp(i pi k / (2N)) / 2; entry 0 of both is 1.  With the
    forward-normalised FFTs they map the reordered nodal values straight to
    cosine coefficients and back, with no further scaling.  Every caller
    shares them, so they are read-only.
    """
    e = np.exp(-0.5j * np.pi / N * np.arange(N // 2 + 1))
    fwd, inv = 2.0 * e, 0.5 * e.conj()
    fwd[0] = inv[0] = 1.0
    fwd.flags.writeable = inv.flags.writeable = False
    return fwd, inv


def transform_forward(nodal: np.ndarray) -> np.ndarray:
    """Values at the N nodes -> N cosine coefficients (exact interpolation)."""
    nodal = np.asarray(nodal, dtype=float)
    if nodal.ndim != 1 or nodal.size < 1:
        raise ValueError(f"expected a nonempty vector of nodal values, got shape {nodal.shape}")
    N = nodal.size
    # z_k = c_k - i c_(N-k): the real parts give c_k up to k = N//2, the
    # imaginary parts the rest, read backwards
    v = np.concatenate((nodal[::2], nodal[1::2][::-1]))
    z = np.fft.rfft(v, norm="forward") * _twiddles(N)[0]
    c = np.empty(N)
    c[: z.size] = z.real
    c[z.size :] = -z.imag[(N - 1) // 2 : 0 : -1]
    return c


def transform_inverse(coeffs: np.ndarray) -> np.ndarray:
    """N cosine coefficients -> values at the N nodes, f_n = sum_k c_k cos(k x_n)."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 1 or coeffs.size < 1:
        raise ValueError(f"expected a nonempty vector of coefficients, got shape {coeffs.shape}")
    N = coeffs.size
    inv = _twiddles(N)[1]
    z = np.empty(inv.size, dtype=complex)  # c_k - i c_(N-k), with c_N = 0
    z.real = coeffs[: z.size]
    z.imag[0] = 0.0
    z.imag[1:] = -coeffs[N - 1 : N - z.size : -1]
    v = np.fft.irfft(z * inv, N, norm="forward")
    nodal = np.empty(N)
    nodal[::2] = v[: (N + 1) // 2]
    nodal[1::2] = v[::-1][: N // 2]
    return nodal


def as_depth(depth) -> float:
    """The mean water depth (wavelength-scaled) as a float; ValueError unless positive."""
    h = float(depth)
    if not h > 0:
        raise ValueError(f"depth must be positive, got {h}")
    return h


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


def fine_values(coeffs) -> np.ndarray:
    """Values of N-mode cosine series on the 2N-node fine grid.

    coeffs is one series or a stack of them, one per row, and so is the
    result.  The coefficients from N on are zero, so the inverse
    transform's z_k = c_k - i c_(2N-k) is just c_k, and the values are left
    in the transform's order of the nodes (even index ascending, then odd
    index descending).  Pointwise products do not see that order, and
    fine_coeffs reads any such product back in it.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    N = coeffs.shape[-1]
    return np.fft.irfft(_twiddles(2 * N)[1][:N] * coeffs, 2 * N, norm="forward")


def fine_coeffs(values) -> np.ndarray:
    """The N leading cosine coefficients of fine-grid values from fine_values.

    values is one row of 2N values or a stack of them.  A product of two
    N-mode series has at most 2N-1 modes, so the leading N coefficients of
    a product of fine_values rows are exact.
    """
    values = np.asarray(values, dtype=float)
    N = values.shape[-1] // 2
    return (np.fft.rfft(values, norm="forward")[..., :N] * _twiddles(2 * N)[0][:N]).real


def product_coeffs(cu: np.ndarray, cv: np.ndarray) -> np.ndarray:
    """Cosine coefficients of the pointwise product of two N-mode series.

    Both factors are evaluated on the 2N-node fine grid by fine_values,
    multiplied there and taken back, exactly, to N modes by fine_coeffs.
    """
    N = cu.size
    if cv.size != N:
        raise ValueError(f"length mismatch: {N} vs {cv.size}")
    fu, fv = fine_values((cu, cv))
    return fine_coeffs(fu * fv)


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


def product_block(c: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Rows and columns idx of the matrix of u -> product_coeffs(c, u).

    idx is a sorted index set, such as one symmetry class of a mode-n
    wave; the entries follow add_product_matrix's formula, gathered from
    c alone, so the N x N matrix is never formed.
    """
    c = np.asarray(c, dtype=float)
    half = np.zeros(2 * c.size)  # c_j / 2, with c_j = 0 for j >= N
    half[: c.size] = 0.5 * c
    k, m = idx[:, None], idx[None, :]
    out = half[np.abs(k - m)] + half[k + m]
    out[np.flatnonzero(idx), np.flatnonzero(idx)] += half[0]
    if idx[0] == 0:
        out[0] = half[idx]
        out[0, 0] = c[0]
    return out


def _maxima(c: np.ndarray, every: bool = False) -> tuple:
    """Samples y, and indices j, polished points t and values w(t) of maxima of |w|.

    w(t) = sum_k c_k cos(kt) is sampled on the 4N + 1 points t_j = j*pi/(4N),
    which include 0 and pi, as the real part of one real FFT of c
    zero-padded to 8N points, a zero-padded DCT-I.  The sampled local maxima
    of |w| within the sampling error dt^2/8 * max|w''| of the top one, then,
    with every, the others are polished by Newton's method on w'(t) = 0,
    each confined to its neighbouring samples.  The near-top ones are one
    batch either way: a matrix-vector product rounds a row according to the
    rows beside it, and so the highest crest is the amplitude to the bit.
    A maximum closer than one sample to a minimum, a shoulder, can go
    unsampled.
    """
    k = np.arange(c.size)
    M = 4 * max(c.size, 2)
    dt = np.pi / M
    # y_j = Re sum_k c_k exp(-i pi j k / M) = w(t_j), j = 0..M
    y = np.fft.rfft(c, 2 * M).real
    g = np.abs(y)
    slack = 0.125 * dt * dt * float(np.sum(k * k * np.abs(c)))
    # even reflection at both ends, so t = 0 and t = pi can be maxima
    ext = np.concatenate(([g[1]], g, [g[-2]]))
    peak = (g >= ext[:-2]) & (g >= ext[2:])
    top = peak & (g >= g.max() - slack)
    batches = [np.flatnonzero(top), np.flatnonzero(peak & ~top)][: 1 + every]
    ts, ws = [], []
    for j in batches:
        t = j * dt
        lo, hi = np.maximum(t - dt, 0.0), np.minimum(t + dt, np.pi)
        for _ in range(8):
            kt = np.outer(t, k)
            d1 = -(np.sin(kt) * k) @ c
            d2 = -(np.cos(kt) * (k * k)) @ c
            step = np.divide(d1, d2, out=np.zeros_like(d1), where=d2 != 0)
            t_new = np.clip(t - step, lo, hi)
            done = np.all(np.abs(t_new - t) <= 1e-15)
            t = t_new
            if done:
                break
        ts.append(t)
        ws.append(np.cos(np.outer(t, k)) @ c)
    return y, np.concatenate(batches), np.concatenate(ts), np.concatenate(ws)


def series_peak(coeffs: np.ndarray) -> tuple[float, float]:
    """Location t* in [0, pi] and signed value w(t*) of the largest |w|.

    The largest of the polished near-top maxima of |w| (_maxima) and the
    samples they started from; the samples stay candidates, so a stray
    polish can never lower the peak.
    """
    c = np.asarray(coeffs, dtype=float)
    y, j, t, w = _maxima(c)
    t = np.concatenate([t, j * (np.pi / (y.size - 1))])
    vals = np.concatenate([w, y[j]])
    i = int(np.argmax(np.abs(vals)))
    return float(t[i]), float(vals[i])
