"""Blur operator with reflexive boundaries, its adjoint, and its spectral forms.

The measurement operator is a 2D correlation with a small normalized kernel,
extended at the borders by half-sample symmetric (reflexive) mirroring.  A
kernel takes one of three routes, chosen once per Psf from its taps, and
two of them diagonalize A so that every product with A or A^T becomes a
pointwise product on spectral coefficients:

- a kernel flip-symmetric in both axes: the orthonormal 2D DCT-II,
  A = C^T diag(lam) C (spectral_decompose);
- a rank-one kernel without that symmetry (taps = outer(col, row)): A X =
  Ac X Ar^T, with Ac and Ar the 1-D correlations with col and row, and the
  SVDs Ac = Pc Sc Qc^T, Ar = Pr Sr Qr^T give Pc^T (A X) Pr = lam * (Qc^T X
  Qr) with lam = outer(sc, sr) (kronecker_decompose);
- any other kernel: no spectral form; A is one 2-D correlation and
  lambda_max(A^T A) comes from one Lanczos solve on the matrix-free A^T A.

OperatorPlan holds what a solver run needs of A, including the transform
pair of a spectral form, and each Psf keeps the plans built from it, so a
plan lives as long as its kernel.  operator_spectrum is the n = 1 plan of a
(kernel, shape); lambda_max_AtA reads it, and weighting.operator_plan adds
the W_n filter for n > 1.  make_gaussian_psf hands out one Psf per (size,
sigma), so the commands share its plans across calls.
"""

import functools
import math
import numbers
import threading
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage
from scipy.fft import dctn, idctn

__all__ = [
    "Psf",
    "make_gaussian_psf",
    "blur_apply",
    "blur_adjoint",
    "gradient",
    "dct2",
    "idct2",
    "spectral_decompose",
    "kronecker_decompose",
    "lambda_max_AtA",
    "OperatorPlan",
    "operator_spectrum",
    "require_int",
    "require_kernel_size",
    "require_finite",
    "require_gaussian_sigma",
]

# Largest difference between a tap and its mirror image that still counts
# as symmetric, so taps computed with round-off take the DCT path; also the
# largest difference between a tap and its rank-one factorization.
_SYMMETRY_TOL = 1e-14


def require_int(name, value):
    """Raise ValueError naming `name` unless value is an int or np.integer
    (a bool is not)."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def require_kernel_size(name, size):
    """Raise ValueError naming `name` unless size is a positive odd integer."""
    require_int(name, size)
    if size < 1 or size % 2 == 0:
        raise ValueError(f"{name} must be a positive odd integer, got {size}")


def require_finite(name, value):
    """Raise ValueError naming `name` unless value is a finite real, not a bool."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        raise ValueError(f"{name} must be finite, got an int too large for a float") from None
    if not finite:
        raise ValueError(f"{name} must be finite, got {value}")


def require_gaussian_sigma(name, sigma):
    """Raise ValueError naming `name` unless sigma is a positive real whose
    square is a positive finite float (a bool is not), the widths whose
    Gaussian taps are finite."""
    message = f"{name} must be positive and finite, with a square in the float range, got"
    # a product of floats: float ** raises on overflow, and a numpy scalar warns
    try:
        square = float(sigma) * float(sigma) if isinstance(sigma, numbers.Real) else math.nan
    except OverflowError:  # an int beyond the float range, too long to print
        raise ValueError(f"{message} an int too large for a float") from None
    if isinstance(sigma, bool) or not (0 < square < math.inf and sigma > 0):
        raise ValueError(f"{message} {sigma!r}")


@dataclass(frozen=True, eq=False)
class Psf:
    """Normalized odd-sized convolution kernel defining the blur operator.

    Kernels compare and hash by identity: each one owns the operator plans
    built from it (plan), and a new Psf with equal taps starts with none.

    Attributes
    ----------
    size : int
        Side length of the square kernel, odd.
    taps : ndarray
        Read-only (size, size) copy of the given weights, summing to 1.
    factors : (ndarray, ndarray) or None
        Read-only (col, row) with taps = outer(col, row) to within
        _SYMMETRY_TOL per tap, set when the kernel is rank one and not
        doubly symmetric, so its plan is the Kronecker one
        (kronecker_decompose) and blur_apply runs two 1-D passes; None
        otherwise.  Derived from taps.
    """

    size: int
    taps: np.ndarray
    factors: tuple | None = field(init=False, repr=False)
    _symmetric: bool = field(init=False, repr=False)
    _plans: dict = field(init=False, repr=False)
    _lock: threading.Lock = field(init=False, repr=False)

    def __post_init__(self):
        require_kernel_size("psf size", self.size)
        taps = np.array(self.taps, dtype=float)
        taps.flags.writeable = False
        object.__setattr__(self, "taps", taps)
        if taps.shape != (self.size, self.size):
            raise ValueError(f"taps shape {taps.shape} does not match size {self.size}")
        if not np.all(np.isfinite(taps)):
            raise ValueError("psf taps must be finite")
        s = taps.sum()
        if abs(s - 1.0) > 1e-12:
            raise ValueError(f"psf taps must sum to 1 (got {s!r})")
        symmetric = bool(np.abs(taps - taps[::-1, :]).max() <= _SYMMETRY_TOL
                         and np.abs(taps - taps[:, ::-1]).max() <= _SYMMETRY_TOL)
        object.__setattr__(self, "_symmetric", symmetric)
        object.__setattr__(self, "factors", None if symmetric else _rank_one_factors(taps))
        object.__setattr__(self, "_plans", {})
        object.__setattr__(self, "_lock", threading.Lock())

    def is_doubly_symmetric(self):
        """True when the kernel is flip-symmetric in both axes, to within
        _SYMMETRY_TOL per tap."""
        return self._symmetric

    def plan(self, key, build):
        """The plan kept under key, made by build() on first use under the
        kernel's lock: threads asking at once build it once, and a build
        that raises leaves nothing behind."""
        with self._lock:
            if key not in self._plans:
                self._plans[key] = build()
            return self._plans[key]

    def __reduce__(self):
        """Pickle and copy as a new kernel with the same taps and no plans."""
        return (Psf, (self.size, self.taps))


def _rank_one_factors(taps):
    """(col, row) with outer(col, row) = taps to within _SYMMETRY_TOL per
    tap, pivoted on the largest |tap|, both read-only; None when the kernel
    is not rank one."""
    i, j = np.unravel_index(np.abs(taps).argmax(), taps.shape)
    col = taps[:, j].copy()
    row = taps[i, :] / taps[i, j]
    if np.abs(np.outer(col, row) - taps).max() > _SYMMETRY_TOL:
        return None
    col.flags.writeable = False
    row.flags.writeable = False
    return col, row


@functools.lru_cache(maxsize=8, typed=True)
def make_gaussian_psf(size, sigma):
    """Normalized Gaussian kernel, one Psf (and so one set of plans) per
    (size, sigma) while it is among the 8 most recently asked for; typed,
    so a float or bool size is rejected rather than matched to an int.

    taps_ij is proportional to exp(-((i-c)^2 + (j-c)^2) / (2 sigma^2)) with
    c = (size-1)/2, normalized to unit sum.
    """
    require_kernel_size("psf size", size)
    require_gaussian_sigma("psf sigma", sigma)
    c = (size - 1) / 2
    i = np.arange(size)
    with np.errstate(over="ignore"):  # a tiny sigma sends the off-centre taps to 0
        g = np.exp(-((i - c) ** 2) / (2 * sigma**2))
    k = np.outer(g, g)
    return Psf(size=size, taps=k / k.sum())


def _check_operands(psf, x):
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"expected a 2D image, got shape {x.shape}")
    if psf.size > min(x.shape):
        raise ValueError(
            f"kernel size {psf.size} exceeds image dims {x.shape[1]}x{x.shape[0]}"
        )
    return x


def blur_apply(psf, x):
    """Apply the blur operator A: correlation with reflexive boundary extension.

    A kernel with rank-one factors (psf.factors) is run as two 1-D
    correlations, along the columns then along the rows; any other kernel as
    one 2-D correlation.
    """
    x = _check_operands(psf, x)
    if psf.factors is None:
        return ndimage.correlate(x, psf.taps, mode="reflect")
    col, row = psf.factors
    return ndimage.correlate1d(ndimage.correlate1d(x, col, axis=0, mode="reflect"),
                               row, axis=1, mode="reflect")


def _fold_rows(full, pad):
    """Add the pad-row margins of full back onto their mirror sources.

    Half-sample mirroring sends row -k to k-1 and row n-1+k to n-k; the
    kernel is no larger than the image, so one reflection is enough.
    """
    out = full[pad:-pad].copy()
    out[:pad] += full[:pad][::-1]
    out[-pad:] += full[-pad:][::-1]
    return out


def blur_adjoint(psf, y):
    """Exact adjoint of blur_apply, boundary folding included.

    The forward blur is reflect-pad followed by a valid correlation, so the
    adjoint is a full convolution of the zero-padded y followed by folding
    the padded margin back onto its mirror sources.  For flip-symmetric
    kernels this coincides with blur_apply.
    """
    y = _check_operands(psf, y)
    if psf.size == 1:
        return y * psf.taps[0, 0]
    pad = psf.size // 2
    padded = np.zeros((y.shape[0] + 2 * pad, y.shape[1] + 2 * pad))
    padded[pad:-pad, pad:-pad] = y
    full = ndimage.convolve(padded, psf.taps, mode="constant")
    return _fold_rows(_fold_rows(full.T, pad).T, pad)


def gradient(psf, x, b):
    """Gradient of the data term f(x) = 1/2 ||Ax - b||^2, i.e. A^T(Ax - b),
    as blur_apply then blur_adjoint.  The n-step recursion calls it for
    kernels with no spectral form; the solver's spectral step has the
    gradient in its own expression.
    """
    x = _check_operands(psf, x)
    b = np.asarray(b, dtype=float)
    if x.shape != b.shape:
        raise ValueError(f"shape mismatch: x {x.shape} vs b {b.shape}")
    return blur_adjoint(psf, blur_apply(psf, x) - b)


def dct2(x, overwrite_x=False):
    """Orthonormal 2D DCT-II.  With overwrite_x a contiguous float x is
    transformed in its own memory."""
    return dctn(x, type=2, norm="ortho", overwrite_x=overwrite_x)


def idct2(x, overwrite_x=False):
    """Inverse of dct2, with the same overwrite_x."""
    return idctn(x, type=2, norm="ortho", overwrite_x=overwrite_x)


def spectral_decompose(psf, shape):
    """Signed eigenvalues lam of A in the DCT basis, for a doubly symmetric
    kernel on (height, width) images: A = C^T diag(lam) C.

    They are recovered by blurring a corner impulse and dividing its DCT by
    the DCT of the impulse itself.  The result is verified against the
    spatial-domain A^T A on a random image before being returned.

    Raises
    ------
    ValueError
        If the kernel is not flip-symmetric in both axes (A has no DCT form
        then).
    ArithmeticError
        If the self-check against the spatial operator fails.
    """
    if not psf.is_doubly_symmetric():
        raise ValueError("spectral path requires a doubly symmetric psf")
    e1 = np.zeros(shape)
    e1[0, 0] = 1.0
    lam = dct2(blur_apply(psf, e1)) / dct2(e1)

    rng = np.random.default_rng(0)
    x = rng.standard_normal(shape)
    ref = blur_adjoint(psf, blur_apply(psf, x))
    err = np.linalg.norm(idct2(lam * lam * dct2(x)) - ref) / np.linalg.norm(ref)
    if not err <= 1e-10:
        raise ArithmeticError(
            f"spectral decomposition self-check failed (relative error {err:.3e})"
        )
    return lam


def _lanczos_lambda_max(psf, shape):
    """Largest eigenvalue of A^T A, exact to round-off, by ARPACK's Lanczos
    (eigsh) on the matrix-free A^T A from a seeded, so deterministic, start.
    scipy.sparse is imported here so other runs do not pay for it."""
    from scipy.sparse.linalg import LinearOperator, eigsh

    size = shape[0] * shape[1]
    AtA = LinearOperator(
        (size, size), dtype=float,
        matvec=lambda v: blur_adjoint(psf, blur_apply(psf, v.reshape(shape))).ravel())
    v0 = np.random.default_rng(0).standard_normal(size)
    return float(eigsh(AtA, k=1, which="LA", tol=1e-12, v0=v0,
                       return_eigenvectors=False)[0])


def lambda_max_AtA(psf, width, height):
    """Largest eigenvalue of A^T A on height x width images, read from the
    kernel's operator_spectrum: the largest lam^2 on both spectral routes,
    a Lanczos solve otherwise; exact to round-off either way."""
    return operator_spectrum(psf, (height, width)).lambda_max_AtA


@dataclass(frozen=True)
class OperatorPlan:
    """Everything a solver run needs to know about its operator.

    A spectral form is an orthonormal transform pair with
    forward_data(A x) = lam * forward(x).  On the DCT route forward and
    forward_data are dct2, inverse is idct2 and lam holds the signed DCT
    eigenvalues of A.  On the Kronecker route basis = (Pc, Qc, Pr, Qr)
    (kronecker_decompose): forward(x) = Qc^T x Qr, inverse(c) = Qc c Qr^T,
    forward_data(b) = Pc^T b Pr, and lam = outer(sc, sr) >= 0.  phi is the
    W_n filter at mu = eta lam^2 (1.0 when n = 1), gain = phi * lam the
    factor the spectral step applies to its residual, and lambda_max_W =
    max phi, exact on both routes.  Without a spectral form (a full-rank
    kernel without flip symmetry) lam, phi and gain are None, the transform
    pair is not used, and lambda_max_W is its bound n.  lambda_max_AtA is
    the largest of lam^2, or the Lanczos eigenvalue otherwise, exact to
    round-off either way.
    """

    lambda_max_AtA: float
    lambda_max_W: float
    lam: np.ndarray | None = None
    phi: np.ndarray | float | None = None
    gain: np.ndarray | None = None
    basis: tuple | None = None

    # dct2 and idct2 are looked up at call time, so a wrapper put in their
    # place on this module sees every transform a step makes
    def forward(self, x, out=None):
        """Spectral coefficients of an iterate x, in out if given (the DCT
        route copies x there and transforms it in place); x is kept."""
        if self.basis is None:
            if out is None:
                out = np.array(x, dtype=float)
            else:
                out[...] = x
            return dct2(out, overwrite_x=True)
        _, qc, _, qr = self.basis
        return np.matmul(qc.T @ x, qr, out=out)

    def inverse(self, c):
        """The iterate whose spectral coefficients are c, in c's memory: c
        is overwritten.  The Kronecker route makes one intermediate."""
        if self.basis is None:
            return idct2(c, overwrite_x=True)
        _, qc, _, qr = self.basis
        return np.matmul(qc @ c, qr.T, out=c)

    def forward_data(self, b):
        """Spectral coefficients of data b, the side on which A x reads lam * forward(x)."""
        if self.basis is None:
            return dct2(b)
        pc, _, pr, _ = self.basis
        return pc.T @ b @ pr


def kronecker_decompose(psf, shape):
    """The n = 1 OperatorPlan of a rank-one kernel (psf.factors set) on
    (height, width) images.

    With reflexive borders A X = Ac X Ar^T, where Ac (H x H) and Ar (W x W)
    are the matrices of the 1-D correlations with col and row.  Their SVDs
    Ac = Pc Sc Qc^T and Ar = Pr Sr Qr^T diagonalize A: Pc^T (A X) Pr =
    outer(sc, sr) * (Qc^T X Qr).  The plan is verified against the
    spatial-domain A^T A on a random image before being returned.

    Raises
    ------
    ValueError
        If the kernel is larger than the image, before any SVD.
    ArithmeticError
        If the self-check against the spatial operator fails.
    """
    x = np.random.default_rng(0).standard_normal(shape)
    ref = blur_adjoint(psf, blur_apply(psf, x))
    col, row = psf.factors
    pc, sc, qct = np.linalg.svd(ndimage.correlate1d(np.eye(shape[0]), col, axis=0, mode="reflect"))
    pr, sr, qrt = np.linalg.svd(ndimage.correlate1d(np.eye(shape[1]), row, axis=0, mode="reflect"))
    lam = np.outer(sc, sr)
    basis = (pc, qct.T, pr, qrt.T)
    for a in (lam, *basis):
        a.flags.writeable = False
    plan = OperatorPlan(lambda_max_AtA=float((lam * lam).max()), lambda_max_W=1.0,
                        lam=lam, phi=1.0, gain=lam, basis=basis)
    err = np.linalg.norm(plan.inverse(lam * lam * plan.forward(x)) - ref) / np.linalg.norm(ref)
    if not err <= 1e-10:
        raise ArithmeticError(
            f"Kronecker decomposition self-check failed (relative error {err:.3e})"
        )
    return plan


def operator_spectrum(psf, shape):
    """The n = 1 OperatorPlan of psf on (height, width) images, kept by psf.

    A doubly symmetric kernel gets the DCT plan (spectral_decompose), a
    rank-one kernel the Kronecker plan (kronecker_decompose), each with its
    self-check; any other kernel one Lanczos solve (_lanczos_lambda_max).
    """
    h, w = shape

    def build():
        if psf.is_doubly_symmetric():
            lam = spectral_decompose(psf, shape)
            lam.flags.writeable = False
            return OperatorPlan(lambda_max_AtA=float((lam * lam).max()), lambda_max_W=1.0,
                                lam=lam, phi=1.0, gain=lam)
        if psf.factors is not None:
            return kronecker_decompose(psf, shape)
        return OperatorPlan(lambda_max_AtA=_lanczos_lambda_max(psf, shape), lambda_max_W=1.0)

    return psf.plan((h, w), build)
