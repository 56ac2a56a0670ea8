"""Multi-level CDF 9/7 lifting wavelet transform and the l1 shrinkage prox.

The transform is the standard four-step lifting factorization of the CDF 9/7
filter pair with the usual scaling constants.  At row/column ends the missing
neighbor is linearly extrapolated from the two nearest samples, which keeps
perfect reconstruction exact (lifting is always invertible) and preserves the
two vanishing moments: affine signals produce zero detail coefficients.

Coefficients use the in-place pyramid layout: after each level the low-pass
half moves to the front, so the coarsest approximation band ends up in the
top-left (h >> levels) x (w >> levels) block.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ALPHA",
    "BETA",
    "GAMMA",
    "DELTA",
    "ZETA",
    "WaveletCoeffs",
    "analyze",
    "synthesize",
    "soft_threshold",
    "prox_l1_wavelet",
    "l1_norm_wavelet",
]

ALPHA = -1.586134342059924
BETA = -0.052980118572961
GAMMA = 0.882911075530934
DELTA = 0.443506852043971
ZETA = 1.1496043988602418


@dataclass
class WaveletCoeffs:
    """Wavelet coefficients in the in-place pyramid layout."""

    width: int
    height: int
    levels: int
    values: np.ndarray

    def approx_slice(self):
        """Slices of the coarsest approximation band inside `values`."""
        return slice(0, self.height >> self.levels), slice(0, self.width >> self.levels)


def _check_dims(x, levels):
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"expected a 2D image, got shape {x.shape}")
    if not isinstance(levels, (int, np.integer)) or isinstance(levels, bool):
        raise ValueError(f"levels must be an integer, got {levels!r}")
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    h, w = x.shape
    d = 1 << levels
    if h % d or w % d:
        raise ValueError(f"image dims {w}x{h} not divisible by 2^levels = {d}")
    return x


def _fwd_rows(a):
    # One lifting pass along axis 1; returns [low | high] halves.
    s = a[:, 0::2].copy()
    d = a[:, 1::2].copy()
    m = s.shape[1]
    sR = 2 * s[:, -1] - s[:, -2] if m >= 2 else s[:, -1]
    d[:, :-1] += ALPHA * (s[:, :-1] + s[:, 1:])
    d[:, -1] += ALPHA * (s[:, -1] + sR)
    dL = 2 * d[:, 0] - d[:, 1] if m >= 2 else d[:, 0]
    s[:, 1:] += BETA * (d[:, :-1] + d[:, 1:])
    s[:, 0] += BETA * (dL + d[:, 0])
    sR = 2 * s[:, -1] - s[:, -2] if m >= 2 else s[:, -1]
    d[:, :-1] += GAMMA * (s[:, :-1] + s[:, 1:])
    d[:, -1] += GAMMA * (s[:, -1] + sR)
    dL = 2 * d[:, 0] - d[:, 1] if m >= 2 else d[:, 0]
    s[:, 1:] += DELTA * (d[:, :-1] + d[:, 1:])
    s[:, 0] += DELTA * (dL + d[:, 0])
    return np.hstack([s * ZETA, d / ZETA])


def _inv_rows(a):
    # Inverse of _fwd_rows: undo the lifting steps in reverse order.
    m = a.shape[1] // 2
    s = (a[:, :m] / ZETA).copy()
    d = (a[:, m:] * ZETA).copy()
    dL = 2 * d[:, 0] - d[:, 1] if m >= 2 else d[:, 0]
    s[:, 1:] -= DELTA * (d[:, :-1] + d[:, 1:])
    s[:, 0] -= DELTA * (dL + d[:, 0])
    sR = 2 * s[:, -1] - s[:, -2] if m >= 2 else s[:, -1]
    d[:, :-1] -= GAMMA * (s[:, :-1] + s[:, 1:])
    d[:, -1] -= GAMMA * (s[:, -1] + sR)
    dL = 2 * d[:, 0] - d[:, 1] if m >= 2 else d[:, 0]
    s[:, 1:] -= BETA * (d[:, :-1] + d[:, 1:])
    s[:, 0] -= BETA * (dL + d[:, 0])
    sR = 2 * s[:, -1] - s[:, -2] if m >= 2 else s[:, -1]
    d[:, :-1] -= ALPHA * (s[:, :-1] + s[:, 1:])
    d[:, -1] -= ALPHA * (s[:, -1] + sR)
    out = np.empty_like(a)
    out[:, 0::2] = s
    out[:, 1::2] = d
    return out


def _analyze_values(x, levels):
    c = x.copy()
    h, w = x.shape
    for l in range(levels):
        hh, ww = h >> l, w >> l
        blk = _fwd_rows(c[:hh, :ww])
        c[:hh, :ww] = _fwd_rows(blk.T).T
    return c


def _synthesize_values(c, levels):
    x = c.copy()
    h, w = c.shape
    for l in reversed(range(levels)):
        hh, ww = h >> l, w >> l
        blk = _inv_rows(x[:hh, :ww].T).T
        x[:hh, :ww] = _inv_rows(blk)
    return x


def analyze(x, levels):
    """Separable 2D CDF 9/7 decomposition, `levels` deep.

    Both image dims must be divisible by 2^levels.  The scaling makes the
    transform near-orthonormal (coefficient energy within about 25% of image
    energy on generic inputs).
    """
    x = _check_dims(x, levels)
    h, w = x.shape
    return WaveletCoeffs(width=w, height=h, levels=levels,
                         values=_analyze_values(x, levels))


def synthesize(c):
    """Exact inverse of analyze."""
    return _synthesize_values(np.asarray(c.values, dtype=float), c.levels)


def soft_threshold(v, gamma):
    """Elementwise shrinkage sign(v) * max(|v| - gamma, 0)."""
    if gamma < 0:
        raise ValueError(f"threshold must be nonnegative, got {gamma}")
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - gamma, 0.0)


def prox_l1_wavelet(x, gamma, levels, with_l1=False):
    """Shrink the wavelet coefficients of x by gamma and transform back.

    The coarsest approximation band is left untouched (thresholding it would
    shift the mean intensity); all detail bands are shrunk.  With with_l1
    the result is (image, l1), l1 being the detail-band l1 of the shrunk
    coefficients, which is l1_norm_wavelet of the image up to rounding.
    """
    x = _check_dims(x, levels)
    c = _analyze_values(x, levels)
    ah, aw = x.shape[0] >> levels, x.shape[1] >> levels
    keep = c[:ah, :aw].copy()
    c = soft_threshold(c, gamma)
    c[:ah, :aw] = 0.0
    l1 = float(np.abs(c).sum()) if with_l1 else None
    c[:ah, :aw] = keep
    out = _synthesize_values(c, levels)
    return (out, l1) if with_l1 else out


def l1_norm_wavelet(x, levels):
    """Sum of |coefficient| over the detail bands (approximation excluded)."""
    x = _check_dims(x, levels)
    c = _analyze_values(x, levels)
    ah, aw = x.shape[0] >> levels, x.shape[1] >> levels
    c[:ah, :aw] = 0.0
    return float(np.abs(c).sum())
