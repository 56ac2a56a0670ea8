"""Multi-level CDF 9/7 lifting wavelet transform and the l1 shrinkage prox.

The transform is the standard four-step lifting factorization of the CDF 9/7
filter pair with the usual scaling constants.  At row/column ends the missing
neighbor is linearly extrapolated from the two nearest samples, which keeps
perfect reconstruction exact (lifting is always invertible) and preserves the
two vanishing moments: affine signals produce zero detail coefficients.

Coefficients use the in-place pyramid layout: after each level the low-pass
half moves to the front, so the coarsest approximation band ends up in the
top-left (h >> levels) x (w >> levels) block.

The transform of one image shape at one depth is a LiftingWorkspace: it
checks the shape and depth once, when it is built, and holds the buffers
the lifting runs in.  A solver calls the prox once per iteration, and a
call that built its own dozens of image-sized temporaries paid more in
fresh-page faults than in arithmetic; with a workspace a call allocates
nothing but the image it returns, and nothing at all when it is given the
array to write that image into.  Each level lifts its rows where they
lie, then its columns, each pass in a buffer laid out so that the next
sample along the lifting axis is one fixed flat shift away, so a predict
or update step is five numpy calls on flat slices and no copy transposes;
the views of each level are built once per workspace.  The pyramid-layout
coefficient array hands each level's approximation band on to the next.
Each solver run makes one workspace and passes it to every
prox_l1_wavelet call, with the buffer the new iterate goes into.
"""

import numpy as np

from .linop import require_int

__all__ = [
    "ALPHA",
    "BETA",
    "GAMMA",
    "DELTA",
    "ZETA",
    "MAX_LEVELS",
    "LiftingWorkspace",
    "prox_l1_wavelet",
    "wavelet_depth",
]

ALPHA = -1.586134342059924
BETA = -0.052980118572961
GAMMA = 0.882911075530934
DELTA = 0.443506852043971
ZETA = 1.1496043988602418
# The same constants as read-only 0-d arrays, which a ufunc takes with
# less overhead than a Python float; the arithmetic is the same.
_ALPHA, _BETA, _GAMMA, _DELTA, _ZETA, _TWO = (
    np.broadcast_to(v, ()) for v in (ALPHA, BETA, GAMMA, DELTA, ZETA, 2.0))
# The deepest decomposition wavelet_depth gives, that of a 256x256 image.
MAX_LEVELS = 8


def wavelet_depth(shape):
    """Deepest decomposition an image shape admits, at most MAX_LEVELS:
    the number of times both sides can be halved exactly."""
    h, w = shape
    d = 0
    while d < MAX_LEVELS and h % 2 == 0 and w % 2 == 0 and h > 1 and w > 1:
        h //= 2
        w //= 2
        d += 1
    if d == 0:
        raise ValueError(f"image dims {shape} do not admit a wavelet level")
    return d


class _HalfBands:
    """Flat views for lifting two half-bands along one axis of a buffer.

    `shape` is one plane's: a half-band plus a spare line along `axis`.  A
    step along `axis` is a flat shift of k elements (1 along a row, a row
    down a column).  The s plane starts the buffer, spare line last; the d
    plane, spare line first, starts k elements before s ends, sharing those
    k slots.  Each pair sum is then one np.add over two flat slices k
    apart: s[i] + s[i+1] with the spare s[m] = 2 s[m-1] - s[m-2]
    (predict), d[i-1] + d[i] with the spare d[-1] = 2 d[0] - d[1]
    (update); a 1-sample band repeats its sample.  Along a row the slices
    also cross from one row into the next, and those sums land in spares
    of the other band, scratch that the next fill of the spares
    overwrites.  `s_terms` and `d_terms` are the operands (a, b, (spare,
    nearest, next nearest)) of the two sums, and `p` is their scratch, one
    for all passes.  `bands` is (2, rows, columns) without the spares and
    `halves` its planes; the buffer holds two whole planes, k slots more
    than the views use, so that `bands` is a plain reshape.
    """

    __slots__ = ("bands", "halves", "s", "d", "s_terms", "d_terms", "p")

    def __init__(self, buf, shape, axis, pairs):
        size = shape[0] * shape[1]
        k = shape[1] if axis == 0 else 1
        n = size - k
        self.s, self.d = buf[:n], buf[n + k:2 * n + k]
        self.p = pairs[:n]
        s_lines = np.moveaxis(buf[:size].reshape(shape), axis, 0)
        d_lines = np.moveaxis(buf[n:n + size].reshape(shape), axis, 0)
        m = len(s_lines) - 1
        self.s_terms = (self.s, buf[k:n + k],
                        (s_lines[m], s_lines[m - 1], s_lines[m - 2] if m > 1 else None))
        self.d_terms = (buf[n:2 * n], self.d,
                        (d_lines[0], d_lines[1], d_lines[2] if m > 1 else None))
        planes = buf[:2 * size].reshape(2, *shape)
        self.bands = planes[:, :m] if axis == 0 else planes[:, :, :m]
        self.halves = tuple(self.bands)

    def _pair_sums(self, coef, terms):
        # p = coef * (a + b), once the spares hold the end samples
        # extrapolated from (spare, nearest, next nearest)
        a, b, (spare, near, far) = terms
        p = self.p
        if far is None:
            spare[...] = near
        else:
            np.multiply(near, _TWO, spare)
            spare -= far
        np.add(a, b, p)
        p *= coef
        return p

    def forward(self):
        s, d = self.s, self.d
        d += self._pair_sums(_ALPHA, self.s_terms)
        s += self._pair_sums(_BETA, self.d_terms)
        d += self._pair_sums(_GAMMA, self.s_terms)
        s += self._pair_sums(_DELTA, self.d_terms)
        s *= _ZETA
        d /= _ZETA

    def inverse(self):
        s, d = self.s, self.d
        s /= _ZETA
        d *= _ZETA
        s -= self._pair_sums(_DELTA, self.d_terms)
        d -= self._pair_sums(_GAMMA, self.s_terms)
        s -= self._pair_sums(_BETA, self.d_terms)
        d -= self._pair_sums(_ALPHA, self.s_terms)


def _columns(a, hh, ww):
    """a[:hh, :ww] as its even and odd columns: (2, hh, ww/2)."""
    return a[:hh, :ww].reshape(hh, ww // 2, 2).transpose(2, 0, 1)


class _Level:
    """The views one transform level runs on, built once per workspace."""

    __slots__ = ("rows", "cols", "coeff_halves", "coeff_cols", "coeff_col_bands", "row_pairs",
                 "col_pairs")

    def __init__(self, ws, l):
        hh, ww = ws.shape[0] >> l, ws.shape[1] >> l
        mh, mw = hh // 2, ww // 2
        self.rows = _HalfBands(ws._hbuf, (hh, mw + 1), 1, ws._pairs)
        self.cols = _HalfBands(ws._vbuf, (mh + 1, ww), 0, ws._pairs)
        self.coeff_halves = ws.coeffs[:hh, :ww].reshape(2, mh, ww)
        self.coeff_cols = _columns(ws.coeffs, hh, ww)
        self.coeff_col_bands = tuple(self.coeff_cols)
        # row_pairs[a, i, k, j] is row 2i + k, column j of the horizontal
        # half-band a; col_pairs[a, i, k, j] is where the vertical pass
        # lifts it: row i of vertical half-band k, column a * ww/2 + j
        self.row_pairs = self.rows.bands.reshape(2, mh, 2, mw)
        self.col_pairs = self.cols.bands.reshape(2, mh, 2, mw).transpose(2, 1, 0, 3)


class LiftingWorkspace:
    """The CDF 9/7 transform of one image shape, `levels` deep, and the
    buffers its lifting runs in, reused call after call.

    Building it checks the shape and depth: a 2D shape whose sides are
    both divisible by 2^levels, levels an integer >= 1.  The scaling makes
    the transform near-orthonormal (coefficient energy within about 25% of
    image energy on generic inputs).

    Each level lifts the rows of its block, then its columns, each pass in
    a buffer that holds its two half-bands as planes with a spare line
    along the lifting axis (see _HalfBands).  The rows are lifted in
    `_hbuf`, two planes of hh rows of ww/2 + 1 samples, the spare column
    last in s and first in d; the image's (or `coeffs`') even and odd
    columns go in by a stride-2 gather.  The columns are lifted in `_vbuf`,
    two planes of hh/2 + 1 rows of ww samples, the spare row between them;
    row pairs go in from `_hbuf` as contiguous runs of ww/2.  Synthesis
    copies the same ways back; no copy transposes.  `_hbuf` starts zeroed,
    so the scratch sums in its spare lanes never read uninitialised memory.
    `scratch`, the clip and abs buffer of the prox, is the front of
    `_vbuf`; it is idle while the lifting runs, and its corner `_approx`
    is zeroed there to keep the coarsest band.  Every call of the
    workspace overwrites `scratch` and none reads what it held before, so
    between calls it is an image-sized buffer free for the caller's use.
    `coeffs` keeps the pyramid layout, one level's approximation band
    feeding the next: it is what `analyze` returns, and `detail_l1` sums
    it in row-major order, which fixes the rounding of the l1.  `_pairs`
    is the pair-sum scratch of both passes.  The views of the levels are built by the first call and
    kept; a call slices nothing inside the workspace.

    A workspace belongs to one solver run: the calls that use it overwrite
    all of its buffers, so it is never shared between runs or threads.
    """

    def __init__(self, shape, levels):
        if len(shape) != 2:
            raise ValueError(f"expected a 2D image, got shape {tuple(shape)}")
        require_int("levels", levels)
        if levels < 1:
            raise ValueError(f"levels must be >= 1, got {levels}")
        h, w = shape
        d = 1 << levels
        if h % d or w % d:
            raise ValueError(f"image dims {w}x{h} not divisible by 2^levels = {d}")
        self.shape = (h, w)
        self.levels = levels
        self.coeffs = np.empty((h, w))
        self._hbuf = np.zeros(h * (w + 2))
        self._vbuf = np.empty((h + 2) * w)
        self._pairs = np.empty(h * (w // 2 + 1))
        self.scratch = self._vbuf[:h * w].reshape(h, w)
        self._approx = self.scratch[:h >> levels, :w >> levels]
        self._levels = []

    def _level(self, l):
        while len(self._levels) <= l:
            self._levels.append(_Level(self, len(self._levels)))
        return self._levels[l]

    def analyze(self, x):
        """Coefficients of x, an image of the workspace's shape, in
        self.coeffs (returned, not copied)."""
        x = np.asarray(x, dtype=float)
        if x.shape != self.shape:
            raise ValueError(f"workspace is for shape {self.shape}, image is {x.shape}")
        h, w = self.shape
        for l in range(self.levels):
            lv = self._level(l)
            lv.rows.bands[...] = _columns(x, h, w) if l == 0 else lv.coeff_cols
            lv.rows.forward()
            lv.col_pairs[...] = lv.row_pairs
            lv.cols.forward()
            lv.coeff_halves[...] = lv.cols.bands
        return self.coeffs

    def synthesize(self, out=None):
        """Image of the coefficients in self.coeffs, in out (a new array
        when None): the exact inverse of analyze.

        self.coeffs is overwritten; the finest level writes the output, so
        out may be the image analyze last read.
        """
        h, w = self.shape
        if out is None:
            out = np.empty((h, w))
        for l in reversed(range(self.levels)):
            lv = self._level(l)
            lv.cols.bands[...] = lv.coeff_halves
            lv.cols.inverse()
            lv.row_pairs[...] = lv.col_pairs
            lv.rows.inverse()
            # one copy per band: in one 3-D copy numpy would loop innermost
            # over the even/odd axis, the one of unit stride in the target
            cols = tuple(_columns(out, h, w)) if l == 0 else lv.coeff_col_bands
            for dst, band in zip(cols, lv.rows.halves):
                dst[...] = band
        return out

    def shrink_details(self, gamma):
        """Soft-threshold the detail bands of self.coeffs by gamma in place:
        sign(c) * max(|c| - gamma, 0) as c - clip(c, -gamma, gamma), with
        the clip of the approximation band zeroed so that band is kept.  An
        exact-zero result is +0.0.
        """
        g = np.clip(self.coeffs, -gamma, gamma, out=self.scratch)
        self._approx.fill(0.0)
        self.coeffs -= g

    def detail_l1(self):
        """l1 of self.coeffs over the detail bands; self.coeffs is kept."""
        a = np.abs(self.coeffs, out=self.scratch)
        self._approx.fill(0.0)
        return float(a.sum())


def prox_l1_wavelet(x, gamma, workspace, out=None):
    """Shrink the wavelet coefficients of x by gamma and transform back, in
    workspace, which fixes the shape and the depth.

    The coarsest approximation band is left untouched (thresholding it would
    shift the mean intensity); all detail bands are shrunk.  Returns
    (image, l1), l1 being the detail-band l1 of the shrunk coefficients,
    which is the detail-band l1 of the image's own coefficients up to
    rounding.  The image is written into out, which may be x itself; with
    out = None it is the only new array.
    """
    if not gamma >= 0:  # also catches NaN; inf zeros every detail band
        raise ValueError(f"threshold must be nonnegative, got {gamma}")
    workspace.analyze(x)
    workspace.shrink_details(gamma)
    l1 = workspace.detail_l1()
    return workspace.synthesize(out), l1

