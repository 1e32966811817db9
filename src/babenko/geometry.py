"""Physical wave data from converged solutions.

A converged pair (mu, w) at depth h determines a conformal radius
r = exp(-h - mean(w)), modified Fourier coefficients b_k, and a parametric
free-surface curve (x(t), y(t)).  This module reconstructs those, samples
the conformal map, counts and classifies crests, and estimates the
interior angle at the crest of near-extreme waves.

Every series is sampled on a uniform grid t_j = -pi + 2 pi j / M by one
inverse FFT (`_eval_series`), O(M log M) rather than the O(M N) of a dense
cos/sin basis; coefficients beyond M fold onto their aliases, so any
M >= 1 gives the values of the dense sum.  Crests are not read from these
samples: crest_heights polishes the maxima of the series itself with the
sampler and Newton polish of the amplitude (spectral.series_peak), so the
crest census does not depend on M.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spectral import _check_r, _maxima, as_depth, hilbert_symbol

__all__ = [
    "WaveProfile",
    "CrestAngleEstimate",
    "GeometryError",
    "modified_coefficients",
    "surface_curve",
    "conformal_map_sample",
    "crest_heights",
    "crest_angle_estimate",
]

# Crests within this relative height of the tallest count as equally high.
# The top height group is separated from the next by tens of percent on
# every computed branch (the lower crests of the C5 secondaries' endpoints
# read 0.76-0.77 of the top), while the level crests of one endpoint split
# by at most 3.7e-4 (C54) at N = 512 and 2.3e-4 (C54) at N = 1024, and by
# less than 1e-15 on the C5 primary, so 1e-3 classifies both unambiguously.
EQUAL_CREST_RTOL = 1e-3
# crest_angle_estimate fits the flank samples whose drop below the crest
# lies in this window, relative to the crest-to-trough height
CREST_DROP_WINDOW = (0.08, 0.25)


class GeometryError(ValueError):
    pass


@dataclass
class WaveProfile:
    """Sampled parametric free-surface curve and its diagnostics."""

    r: float
    b: np.ndarray  # modified Fourier coefficients
    t: np.ndarray  # parameter samples over [-pi, pi)
    x: np.ndarray
    y: np.ndarray
    depth: float
    crest_census: list = field(default_factory=list)  # (x, height) per crest
    mean_residual: float = 0.0
    monotone_x: bool = True

    def n_highest(self) -> int:
        """Number of crests within EQUAL_CREST_RTOL of the tallest one."""
        return int(np.sum(_top_crests([h for _, h in self.crest_census])))


def _top_crests(heights) -> np.ndarray:
    """Which heights lie within EQUAL_CREST_RTOL of the highest, relative to it."""
    heights = np.asarray(heights, dtype=float)
    top = np.max(heights, initial=-np.inf)
    return heights >= top - EQUAL_CREST_RTOL * abs(top)


def modified_coefficients(c: np.ndarray, r: float) -> np.ndarray:
    """Coefficients b_k of the expansion v = b_0 + sum b_k (1 - r^2k) cos kt."""
    r = _check_r(r)
    k = np.arange(1, c.size)
    b = np.empty_like(c)
    b[0] = c[0]
    b[1:] = c[1:] / (1.0 - np.exp(2.0 * k * np.log(r)))
    return b


def _eval_series(coeffs: np.ndarray, M: int) -> np.ndarray:
    """Complex sum_k a_k exp(i k t_j) on the uniform grid t_j = -pi + 2 pi j / M.

    The real part is the cosine series and the imaginary part the sine
    series.  exp(i k t_j) = (-1)^k exp(2 pi i k j / M), so the sum is one
    inverse FFT of the sign-alternated coefficients, with every k >= M
    folded into bin k mod M (its exponential is the same on this grid).
    """
    k = np.arange(coeffs.size)
    signed = np.where(k % 2 == 0, coeffs, -coeffs)
    return M * np.fft.ifft(np.bincount(k % M, weights=signed, minlength=M))


def crest_heights(coeffs: np.ndarray) -> list:
    """Crests (t, w(t)), the local maxima of w above the mean level, w > 0.

    They are polished as spectral.series_peak polishes the amplitude, so
    the highest is the amplitude to the bit, and listed in t order over
    [-pi, pi): at t = 0 or pi once, at t in (0, pi) also at -t.
    """
    c = np.asarray(coeffs, dtype=float)
    y, j, t, w = _maxima(c, every=True)
    # a stray polish never lowers a crest, and a plateau of equal samples
    # gives one crest: the sample where it starts
    t = np.where(w >= y[j], t, j * (np.pi / (y.size - 1)))
    w = np.maximum(w, y[j])
    keep = (w > 0) & (y[j] > y[np.abs(j - 1)])
    t, w, j = t[keep], w[keep], j[keep]
    inner = (j > 0) & (j < y.size - 1)
    t = np.concatenate((np.where(j == y.size - 1, -t, t), -t[inner]))
    w = np.concatenate((w, w[inner]))
    order = np.argsort(t)
    return list(zip(t[order].tolist(), w[order].tolist()))


def surface_curve(c: np.ndarray, mu: float, depth, M: int | None = None) -> WaveProfile:
    """Parametric free surface {x(t), y(t)} of the wave with coefficients c."""
    h = as_depth(depth)
    r = _check_r(np.exp(-h - c[0]))
    N = c.size
    M = M or 4 * N
    b = modified_coefficients(c, r)
    t = np.linspace(-np.pi, np.pi, M, endpoint=False)
    # x(t) = -t - sum b_k (1 + r^2k) sin kt; the sine coefficients equal
    # c_k (1+r^2k)/(1-r^2k), the conjugation symbol applied to the data
    sin_coef = hilbert_symbol(r, N) * c
    x = -t - _eval_series(sin_coef, M).imag
    y = _eval_series(c, M).real

    # discretized zero-mean check: integral of y * x'(t) over a period
    k = np.arange(N)
    xp = -1.0 - _eval_series(k * sin_coef, M).real
    mean_residual = float(np.sum(y * xp) * (2.0 * np.pi / M)) / (2.0 * np.pi)

    tc, hc = np.array(crest_heights(c)).reshape(-1, 2).T
    xc = -tc - np.sin(np.outer(tc, k)) @ sin_coef
    census = list(zip(xc.tolist(), hc.tolist()))
    monotone = bool(np.all(np.diff(x) < 0))
    return WaveProfile(
        r=r, b=b, t=t, x=x, y=y, depth=h,
        crest_census=census, mean_residual=mean_residual, monotone_x=monotone,
    )


def conformal_map_sample(
    b: np.ndarray, r: float, n_radial: int = 16, n_angular: int = 256
) -> np.ndarray:
    """Sample z(u) = i[log u + b_0 + sum b_k (u^k - r^2k u^-k)] on the annulus.

    Returns an (n_radial, n_angular) complex array; the first row lies on
    |u| = 1 (the free surface), the last on |u| = r (the bottom).
    """
    r = _check_r(r)
    radii = np.linspace(1.0, r, n_radial)
    theta = np.linspace(-np.pi, np.pi, n_angular, endpoint=False)
    k = np.arange(b.size)
    z = np.empty((n_radial, n_angular), dtype=complex)
    for row, rho in zip(z, radii):
        # on |u| = rho the series is b_0 + sum p_k cos k theta + i sum q_k sin k theta
        # with p_k, q_k = b_k (rho^k -/+ r^2k rho^-k) (p_0 = 0, and q_0 meets
        # sin 0); r^2k rho^-k <= r^k is one exponential so that it cannot overflow
        up = rho**k
        down = np.exp(k * (2.0 * np.log(r) - np.log(rho)))
        series = (b[0] + _eval_series(b * (up - down), n_angular).real
                  + 1j * _eval_series(b * (up + down), n_angular).imag)
        row[:] = 1j * (np.log(rho) + 1j * theta + series)
    return z


@dataclass
class CrestAngleEstimate:
    degrees: float
    confident: bool


def crest_angle_estimate(profile: WaveProfile) -> CrestAngleEstimate:
    """Interior angle at the highest crest from one-sided slope fits.

    Samples whose vertical drop below the crest lies inside CREST_DROP_WINDOW
    (relative to the crest-to-trough height) enter a straight-line fit on
    each flank.  Samples nearer the crest are excluded: the tip of a
    near-extreme wave is rounded at a scale below the discretization and
    shows truncation ringing whose local slopes do not converge until far
    larger N, while the flank slopes inside that window are stable
    under grid doubling.
    """
    if not profile.crest_census:
        raise GeometryError("profile has no crest")
    xc, yc = max(profile.crest_census, key=lambda c: c[1])
    height = yc - float(np.min(profile.y))
    if height <= 0:
        raise GeometryError("profile has no crest")
    lo, hi = CREST_DROP_WINDOW[0] * height, CREST_DROP_WINDOW[1] * height

    # work in crest-centred coordinates; x decreases with t
    dx = profile.x - xc
    dx = (dx + np.pi) % (2.0 * np.pi) - np.pi
    drop = yc - profile.y
    angles = []
    confident = True
    for side in (-1, +1):
        sel = (np.sign(dx) == side) & (drop >= lo) & (drop <= hi)
        if np.sum(sel) < 3:
            confident = False
            if np.sum(sel) < 2:
                raise GeometryError("insufficient resolution near crest")
        slope = np.polyfit(dx[sel], profile.y[sel], 1)[0]
        angles.append(np.arctan(abs(slope)))
    degrees = float(np.degrees(np.pi - angles[0] - angles[1]))
    return CrestAngleEstimate(degrees, confident)
