"""Physical wave data from converged solutions.

A converged pair (mu, w) at depth h determines a conformal radius
r = exp(-h - mean(w)), modified Fourier coefficients b_k, and a parametric
free-surface curve (x(t), y(t)).  This module reconstructs those, samples
the conformal map, counts and classifies crests, and estimates the
interior angle at the crest of near-extreme waves.

Every series is sampled on a uniform grid t_j = -pi + 2 pi j / M by one
inverse FFT (`_eval_series`), O(M log M) rather than the O(M N) of a dense
cos/sin basis; coefficients beyond M fold onto their aliases, so any
M >= 1 gives the values of the dense sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spectral import DomainError, as_depth, hilbert_symbol

__all__ = [
    "WaveProfile",
    "CrestAngleEstimate",
    "GeometryError",
    "modified_coefficients",
    "surface_curve",
    "conformal_map_sample",
    "crest_heights",
    "crest_angle_estimate",
    "r_curve",
]

# Crests within this relative height of the tallest count as equally high.
# The top height group is separated from the next by tens of percent on
# every computed branch, while near-degenerate "equal" crests (the triple
# on three-crest secondary waves) split at the 1e-4 level numerically, so
# 1e-3 classifies both unambiguously.
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

    @property
    def n_crests(self) -> int:
        return len(self.crest_census)

    def n_highest(self) -> int:
        """Number of crests within EQUAL_CREST_RTOL of the tallest one."""
        if not self.crest_census:
            return 0
        heights = np.array([h for _, h in self.crest_census])
        top = heights.max()
        scale = max(np.max(np.abs(self.y)), 1e-300)
        return int(np.sum(heights >= top - EQUAL_CREST_RTOL * scale))


def modified_coefficients(c: np.ndarray, r: float) -> np.ndarray:
    """Coefficients b_k of the expansion v = b_0 + sum b_k (1 - r^2k) cos kt."""
    if not 0.0 < r < 1.0:
        raise DomainError(f"conformal radius must lie in (0, 1), got {r}")
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


def crest_heights(coeffs: np.ndarray, n_samples: int = 4096) -> list:
    """Local maxima (t, height) of the even periodic extension over [-pi, pi).

    Heights are refined by a quadratic through the three samples around
    each discrete maximum; the list is independent of the phase convention
    used to represent the wave.
    """
    t = np.linspace(-np.pi, np.pi, n_samples, endpoint=False)
    y = _eval_series(coeffs, n_samples).real
    left = np.roll(y, 1)
    right = np.roll(y, -1)
    idx = np.flatnonzero((y > left) & (y >= right))
    out = []
    dt = t[1] - t[0]
    for i in idx:
        ym, y0, yp = left[i], y[i], right[i]
        denom = ym - 2 * y0 + yp
        off = 0.5 * (ym - yp) / denom if denom != 0 else 0.0
        h = y0 - 0.25 * (ym - yp) * off
        out.append((float(t[i] + off * dt), float(h)))
    return out


def surface_curve(c: np.ndarray, mu: float, depth, M: int | None = None) -> WaveProfile:
    """Parametric free surface {x(t), y(t)} of the wave with coefficients c."""
    depth = as_depth(depth)
    r = float(np.exp(-depth.h - c[0]))
    if not 0.0 < r < 1.0:
        raise DomainError(f"solution has conformal radius {r} outside (0, 1)")
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

    census = [
        (float(np.interp(tc, t, x, period=2 * np.pi)), h)
        for tc, h in crest_heights(c, max(M, 4096))
    ]
    monotone = bool(np.all(np.diff(x) < 0))
    return WaveProfile(
        r=r, b=b, t=t, x=x, y=y, depth=depth.h,
        crest_census=census, mean_residual=mean_residual, monotone_x=monotone,
    )


def conformal_map_sample(
    b: np.ndarray, r: float, n_radial: int = 16, n_angular: int = 256
) -> np.ndarray:
    """Sample z(u) = i[log u + b_0 + sum b_k (u^k - r^2k u^-k)] on the annulus.

    Returns an (n_radial, n_angular) complex array; the first row lies on
    |u| = 1 (the free surface), the last on |u| = r (the bottom).
    """
    if not 0.0 < r < 1.0:
        raise DomainError(f"conformal radius must lie in (0, 1), got {r}")
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
    crest_x: float
    crest_y: float


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
    return CrestAngleEstimate(degrees, confident, float(xc), float(yc))


def r_curve(branch) -> np.ndarray:
    """Per-point (sup_norm, conformal radius) series along a traced branch."""
    return np.array([(p.sup_norm, p.r) for p in branch.points])
