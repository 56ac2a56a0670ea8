"""Multi-level CDF 9/7 lifting wavelet transform and the l1 shrinkage prox.

The transform is the standard four-step lifting factorization of the CDF 9/7
filter pair with the usual scaling constants.  At row/column ends the missing
neighbor is linearly extrapolated from the two nearest samples, which keeps
perfect reconstruction exact (lifting is always invertible) and preserves the
two vanishing moments: affine signals produce zero detail coefficients.

Coefficients use the in-place pyramid layout: after each level the low-pass
half moves to the front, so the coarsest approximation band ends up in the
top-left (h >> levels) x (w >> levels) block.

The lifting runs in place in a LiftingWorkspace.  A solver calls the prox
once per iteration, and a call that built its own dozens of image-sized
temporaries paid more in fresh-page faults than in arithmetic; with a
workspace the only new array per call is the returned image.  A workspace
is made once per solver run and never shared between runs or threads.
prox_l1_wavelet takes it as an argument (a fresh one when none is given);
analyze, synthesize and l1_norm_wavelet always run in a fresh one.
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
    "LiftingWorkspace",
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


def _predict(s, p, coef):
    """p = coef * (s[i] + s[i+1]), s[m] extrapolated as 2 s[m-1] - s[m-2]."""
    np.add(s[:-1], s[1:], out=p[:-1])
    if len(s) >= 2:
        np.multiply(s[-1], 2, out=p[-1])
        p[-1] -= s[-2]
    else:
        p[-1] = s[-1]
    p[-1] += s[-1]
    p *= coef
    return p


def _update(d, p, coef):
    """p = coef * (d[i-1] + d[i]), d[-1] extrapolated as 2 d[0] - d[1]: the
    predict step run backwards (floating-point addition commutes)."""
    return _predict(d[::-1], p[::-1], coef)[::-1]


def _lift_fwd(s, d, p):
    # One forward lifting pass along axis 0: even rows s, odd rows d.
    d += _predict(s, p, ALPHA)
    s += _update(d, p, BETA)
    d += _predict(s, p, GAMMA)
    s += _update(d, p, DELTA)
    s *= ZETA
    d /= ZETA


def _lift_inv(s, d, p):
    # Inverse of _lift_fwd: undo the lifting steps in reverse order.
    s /= ZETA
    d *= ZETA
    s -= _update(d, p, DELTA)
    d -= _predict(s, p, GAMMA)
    s -= _update(d, p, BETA)
    d -= _predict(s, p, ALPHA)


class LiftingWorkspace:
    """Buffers the lifting of one image shape runs in, reused call after call.

    It holds the coefficient array, a transposed block buffer, a pair-sum
    scratch buffer and a shrink/abs buffer.  A workspace belongs to one
    solver run: the calls that use it overwrite all of its buffers, so it is
    never shared between runs or threads.
    """

    def __init__(self, shape):
        h, w = shape
        self.shape = (h, w)
        self.coeffs = np.empty((h, w))
        self.block = np.empty((w, h))
        self.pairs = np.empty(h * w // 2)
        self.shrink = np.empty((h, w))

    def analyze(self, x, levels):
        """Coefficients of x in self.coeffs (returned, not copied).

        Each level lifts the rows, then the columns, of its block.  Both
        passes run along axis 0; the even/odd split is part of the transposed
        copy into and out of self.block.
        """
        c, h, w = self.coeffs, *self.shape
        for l in range(levels):
            hh, ww = h >> l, w >> l
            mh, mw = hh // 2, ww // 2
            src = x if l == 0 else c
            t = self.block[:ww, :hh]
            t[:mw] = src[:hh, 0:ww:2].T
            t[mw:] = src[:hh, 1:ww:2].T
            _lift_fwd(t[:mw], t[mw:], self._pairs(mw, hh))
            c[:mh, :ww] = t[:, 0:hh:2].T
            c[mh:hh, :ww] = t[:, 1:hh:2].T
            _lift_fwd(c[:mh, :ww], c[mh:hh, :ww], self._pairs(mh, ww))
        return c

    def synthesize(self, levels):
        """Image of the coefficients in self.coeffs, as a new array.

        self.coeffs is overwritten; the finest level writes the output.
        """
        c, h, w = self.coeffs, *self.shape
        out = np.empty((h, w))
        for l in reversed(range(levels)):
            hh, ww = h >> l, w >> l
            mh, mw = hh // 2, ww // 2
            _lift_inv(c[:mh, :ww], c[mh:hh, :ww], self._pairs(mh, ww))
            t = self.block[:ww, :hh]
            t[:, 0:hh:2] = c[:mh, :ww].T
            t[:, 1:hh:2] = c[mh:hh, :ww].T
            _lift_inv(t[:mw], t[mw:], self._pairs(mw, hh))
            dst = c if l else out
            dst[:hh, 0:ww:2] = t[:mw].T
            dst[:hh, 1:ww:2] = t[mw:].T
        return out

    def detail_l1(self, levels):
        """l1 of self.coeffs over the detail bands; self.coeffs is kept."""
        a = np.abs(self.coeffs, out=self.shrink)
        a[:self.shape[0] >> levels, :self.shape[1] >> levels] = 0.0
        return float(a.sum())

    def _pairs(self, m, length):
        return self.pairs[:m * length].reshape(m, length)


def analyze(x, levels):
    """Separable 2D CDF 9/7 decomposition, `levels` deep.

    Both image dims must be divisible by 2^levels.  The scaling makes the
    transform near-orthonormal (coefficient energy within about 25% of image
    energy on generic inputs).
    """
    x = _check_dims(x, levels)
    h, w = x.shape
    return WaveletCoeffs(width=w, height=h, levels=levels,
                         values=LiftingWorkspace(x.shape).analyze(x, levels))


def synthesize(c):
    """Exact inverse of analyze."""
    values = _check_dims(c.values, c.levels)
    ws = LiftingWorkspace(values.shape)
    np.copyto(ws.coeffs, values)
    return ws.synthesize(c.levels)


def soft_threshold(v, gamma):
    """Elementwise shrinkage sign(v) * max(|v| - gamma, 0), as v - clip(v).

    An exact-zero result is +0.0 (the sign form gives -0.0 for negative v).
    prox_l1_wavelet applies the same formula in place on its workspace;
    keep the two in step.
    """
    if gamma < 0:
        raise ValueError(f"threshold must be nonnegative, got {gamma}")
    v = np.asarray(v, dtype=float)
    return v - np.clip(v, -gamma, gamma)


def prox_l1_wavelet(x, gamma, levels, with_l1=False, workspace=None):
    """Shrink the wavelet coefficients of x by gamma and transform back.

    The coarsest approximation band is left untouched (thresholding it would
    shift the mean intensity); all detail bands are shrunk.  With with_l1
    the result is (image, l1), l1 being the detail-band l1 of the shrunk
    coefficients, which is l1_norm_wavelet of the image up to rounding.
    The returned image is the only new array; everything else runs in the
    workspace (a fresh one when none is given).
    """
    if gamma < 0:
        raise ValueError(f"threshold must be nonnegative, got {gamma}")
    x = _check_dims(x, levels)
    ws = LiftingWorkspace(x.shape) if workspace is None else workspace
    if ws.shape != x.shape:
        raise ValueError(f"workspace is for shape {ws.shape}, image is {x.shape}")
    c = ws.analyze(x, levels)
    g = np.clip(c, -gamma, gamma, out=ws.shrink)  # soft_threshold, in place
    g[:x.shape[0] >> levels, :x.shape[1] >> levels] = 0.0
    c -= g
    l1 = ws.detail_l1(levels) if with_l1 else None
    out = ws.synthesize(levels)
    return (out, l1) if with_l1 else out


def l1_norm_wavelet(x, levels):
    """Sum of |coefficient| over the detail bands (approximation excluded)."""
    x = _check_dims(x, levels)
    ws = LiftingWorkspace(x.shape)
    ws.analyze(x, levels)
    return ws.detail_l1(levels)
