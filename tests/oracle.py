"""Dense brute-force references on tiny instances.

Everything here is deliberately naive and coded independently of the fast
paths it validates: blur by direct summation loops, the weighting matrix by
literal polynomial evaluation with repeated matrix products, and the wavelet
transform by scalar per-sample lifting.  Instances are capped at 256 pixels
(16x16 images) so the whole oracle suite stays fast.  The majorizer and the
O(1/k^2) rate bound of the weighted step are here too, in the W_n^{-1}
seminorm taken from an operator plan's filter phi.

The second forms of the step's formulas live here as well, so the library
keeps one form of each, the one the solver runs: the elementwise soft
threshold, the objective F with a spatial data term, and the DCT-domain
gradient.  l1_norm_wavelet is a wrapper over LiftingWorkspace, not an
independent reference.
"""

import math
from dataclasses import dataclass

import numpy as np

from proxdeblur.linop import (
    Psf,
    blur_apply,
    dct2,
    gradient,
    idct2,
    make_gaussian_psf,
    operator_spectrum,
)
from proxdeblur.solvers import Variant
from proxdeblur.wavelet import ALPHA, BETA, DELTA, GAMMA, ZETA, LiftingWorkspace

__all__ = [
    "MAX_PIXELS",
    "route_kernels",
    "DenseOperator",
    "densify_blur",
    "direct_blur",
    "dense_Wn",
    "densify_wavelet",
    "soft_threshold",
    "l1_norm_wavelet",
    "objective",
    "dct_gradient",
    "dense_solver_step",
    "normal_equations_solve",
    "lasso_coordinate_descent",
    "wnorm_sq",
    "surrogate_Q",
    "RateReport",
    "rate_check",
]

MAX_PIXELS = 256


def route_kernels():
    """One kernel per operator route of the library, keyed by route.

    "dct": the benchmark blur, a 7x7 Gaussian (sigma 4), doubly symmetric;
    "separable": the nonsym_kernel benchmark's kernel, the same Gaussian
    centred half a tap below the middle row, rank one without flip
    symmetry; "2d": a 3x3 kernel that is neither.
    """
    i = np.arange(7.0)
    g = np.exp(-((i[:, None] - 3.5) ** 2 + (i[None, :] - 3.0) ** 2) / 32)
    t = np.array([[0.05, 0.10, 0.02], [0.20, 0.30, 0.08], [0.03, 0.15, 0.07]])
    return {"dct": make_gaussian_psf(7, 4.0),
            "separable": Psf(size=7, taps=g / g.sum()),
            "2d": Psf(size=3, taps=t / t.sum())}


@dataclass
class DenseOperator:
    rows: int
    cols: int
    entries: np.ndarray


def _check_size(width, height):
    if width * height > MAX_PIXELS:
        raise ValueError(
            f"oracle instances are capped at {MAX_PIXELS} pixels, got {width}x{height}"
        )


def densify_blur(psf, width, height, blur=blur_apply):
    """Materialize the blur operator column by column from basis images,
    each blurred by blur(psf, image): the library's blur_apply, or
    direct_blur where the library blur is what is under test."""
    _check_size(width, height)
    n = width * height
    entries = np.empty((n, n))
    for j in range(n):
        e = np.zeros((height, width))
        e[j // width, j % width] = 1.0
        entries[:, j] = blur(psf, e).ravel()
    return DenseOperator(rows=n, cols=n, entries=entries)


def _reflect(i, n):
    # fold an out-of-range index back under half-sample symmetric extension
    i %= 2 * n
    return 2 * n - 1 - i if i >= n else i


def direct_blur(psf, x):
    """Reference blur by direct summation, no library convolution involved."""
    h, w = x.shape
    k = psf.size
    pad = k // 2
    out = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            acc = 0.0
            for u in range(k):
                for v in range(k):
                    acc += psf.taps[u, v] * x[_reflect(i + u - pad, h), _reflect(j + v - pad, w)]
            out[i, j] = acc
    return out


def dense_Wn(A, eta, n):
    """The weighting matrix as a literal polynomial in eta A^T A.

    Also asserts the defining identity (I - eta A^T A)^n = I - eta W_n A^T A
    to 1e-10 before returning.
    """
    if not 1 <= n <= 16:
        raise ValueError(f"oracle weighting order capped at 16, got {n}")
    N = A.cols
    G = eta * (A.entries.T @ A.entries)
    W = np.zeros((N, N))
    P = np.eye(N)
    for i in range(1, n + 1):
        W += math.comb(n, i) * (-1) ** (i - 1) * P
        P = P @ G
    lhs = np.linalg.matrix_power(np.eye(N) - G, n)
    rhs = np.eye(N) - W @ G
    err = np.abs(lhs - rhs).max()
    if err > 1e-10:
        raise ArithmeticError(f"n-step identity violated by dense W_n: max error {err:.3e}")
    return DenseOperator(rows=N, cols=N, entries=W)


def _lift_fwd_1d(a):
    s = [float(v) for v in a[0::2]]
    d = [float(v) for v in a[1::2]]
    m = len(s)

    def predict(coef):
        right = 2 * s[m - 1] - s[m - 2] if m >= 2 else s[m - 1]
        for i in range(m):
            nxt = s[i + 1] if i + 1 < m else right
            d[i] += coef * (s[i] + nxt)

    def update(coef):
        left = 2 * d[0] - d[1] if m >= 2 else d[0]
        for i in range(m):
            prev = d[i - 1] if i >= 1 else left
            s[i] += coef * (prev + d[i])

    predict(ALPHA)
    update(BETA)
    predict(GAMMA)
    update(DELTA)
    return [v * ZETA for v in s] + [v / ZETA for v in d]


def _lift_inv_1d(a):
    m = len(a) // 2
    s = [float(v) / ZETA for v in a[:m]]
    d = [float(v) * ZETA for v in a[m:]]

    def unupdate(coef):
        left = 2 * d[0] - d[1] if m >= 2 else d[0]
        for i in range(m):
            prev = d[i - 1] if i >= 1 else left
            s[i] -= coef * (prev + d[i])

    def unpredict(coef):
        right = 2 * s[m - 1] - s[m - 2] if m >= 2 else s[m - 1]
        for i in range(m):
            nxt = s[i + 1] if i + 1 < m else right
            d[i] -= coef * (s[i] + nxt)

    unupdate(DELTA)
    unpredict(GAMMA)
    unupdate(BETA)
    unpredict(ALPHA)
    out = [0.0] * (2 * m)
    out[0::2] = s
    out[1::2] = d
    return out


def _scalar_analyze(x, levels):
    c = [[float(v) for v in row] for row in x]
    h, w = len(c), len(c[0])
    for l in range(levels):
        hh, ww = h >> l, w >> l
        for r in range(hh):
            c[r][:ww] = _lift_fwd_1d(c[r][:ww])
        for col in range(ww):
            vals = _lift_fwd_1d([c[r][col] for r in range(hh)])
            for r in range(hh):
                c[r][col] = vals[r]
    return np.array(c)


def _scalar_synthesize(c, levels):
    x = [[float(v) for v in row] for row in c]
    h, w = len(x), len(x[0])
    for l in reversed(range(levels)):
        hh, ww = h >> l, w >> l
        for col in range(ww):
            vals = _lift_inv_1d([x[r][col] for r in range(hh)])
            for r in range(hh):
                x[r][col] = vals[r]
        for r in range(hh):
            x[r][:ww] = _lift_inv_1d(x[r][:ww])
    return np.array(x)


def densify_wavelet(width, height, levels):
    """Dense analysis and synthesis matrices from the scalar lifting path."""
    _check_size(width, height)
    n = width * height
    ana = np.empty((n, n))
    syn = np.empty((n, n))
    for j in range(n):
        e = np.zeros((height, width))
        e[j // width, j % width] = 1.0
        ana[:, j] = _scalar_analyze(e, levels).ravel()
        syn[:, j] = _scalar_synthesize(e, levels).ravel()
    return (DenseOperator(rows=n, cols=n, entries=ana),
            DenseOperator(rows=n, cols=n, entries=syn))


def soft_threshold(v, gamma):
    """Elementwise shrinkage sign(v) * max(|v| - gamma, 0), as v - clip(v).

    An exact-zero result is +0.0 (the sign form gives -0.0 for negative v).
    LiftingWorkspace.shrink_details applies the same formula in place.
    """
    if gamma < 0:
        raise ValueError(f"threshold must be nonnegative, got {gamma}")
    v = np.asarray(v, dtype=float)
    return v - np.clip(v, -gamma, gamma)


def l1_norm_wavelet(x, levels):
    """Sum of |coefficient| over the detail bands (approximation excluded).

    A wrapper over a fresh LiftingWorkspace (analyze, then detail_l1), so it
    rounds as the solver's l1 does; the scalar lifting is the independent
    reference for the coefficients themselves.
    """
    x = np.asarray(x, dtype=float)
    ws = LiftingWorkspace(x.shape, levels)
    ws.analyze(x)
    return ws.detail_l1()


def objective(x, b, psf, lam, levels):
    """F(x) = 1/2 ||Ax - b||^2 + lambda * (wavelet-domain l1 of x), with the
    data term from the spatial blur."""
    x = np.asarray(x, dtype=float)
    b = np.asarray(b, dtype=float)
    if x.shape != b.shape:
        raise ValueError(f"shape mismatch: x {x.shape} vs b {b.shape}")
    r = blur_apply(psf, x) - b
    data = 0.5 * float((r * r).sum())
    return data + (lam * l1_norm_wavelet(x, levels) if lam != 0 else 0.0)


def dct_gradient(psf, x, b):
    """A^T(Ax - b) for a doubly symmetric kernel, in the DCT domain:
    idct2(lam * (lam * dct2(x) - dct2(b))) with the cached eigenvalues lam
    of A, the expression of the solver's DCT-domain step at n = 1."""
    x = np.asarray(x, dtype=float)
    lam = operator_spectrum(psf, x.shape).lam
    return idct2(lam * (lam * dct2(x) - dct2(b)))


def dense_solver_step(x, y, alpha, b, A, Wn, analysis, synthesis, shape, cfg):
    """One solver step computed entirely with explicit matrices.

    x, y, b are flat row-major vectors; returns (x_new, y_new, alpha_new).
    """
    h, w = shape
    g = A.entries.T @ (A.entries @ y - b)
    z = y - cfg.eta * (Wn.entries @ g)
    p = 1.0 if cfg.p is None else cfg.p
    gamma = p * cfg.lam * cfg.eta
    if gamma > 0:
        c = analysis.entries @ z
        idx = np.arange(h * w)
        approx = ((idx // w) < (h >> cfg.wavelet_levels)) & ((idx % w) < (w >> cfg.wavelet_levels))
        t = np.sign(c) * np.maximum(np.abs(c) - gamma, 0.0)
        t[approx] = c[approx]
        x_new = synthesis.entries @ t
    else:
        x_new = z
    alpha_new = (1 + math.sqrt(1 + 4 * alpha * alpha)) / 2
    if cfg.variant is Variant.ISTA:
        y_new = x_new
    else:
        y_new = x_new + ((alpha - 1) / alpha_new) * (x_new - x)
    return x_new, y_new, alpha_new


def normal_equations_solve(A, b, ridge):
    """Solve (A^T A + ridge I) x = A^T b; errors out on a singular system."""
    M = A.entries.T @ A.entries + ridge * np.eye(A.cols)
    cond = np.linalg.cond(M)
    if not np.isfinite(cond) or cond > 1e14:
        raise np.linalg.LinAlgError(
            f"normal equations are numerically singular (cond {cond:.3e})"
        )
    return np.linalg.solve(M, A.entries.T @ b)


def lasso_coordinate_descent(design, target, gamma, sweeps=2000):
    """min_c 1/2 ||design @ c - target||^2 + sum_i gamma_i |c_i| by cyclic CD.

    gamma is a per-coefficient vector (zeros exempt a coefficient from the
    penalty).  Plain convex lasso, so cyclic coordinate descent reaches the
    global optimum; used as the reference for the wavelet prox.
    """
    M = np.asarray(design, dtype=float)
    target = np.asarray(target, dtype=float).ravel()
    gamma = np.asarray(gamma, dtype=float).ravel()
    ncoef = M.shape[1]
    col_sq = (M * M).sum(axis=0)
    c = np.zeros(ncoef)
    r = target.copy()
    for _ in range(sweeps):
        for i in range(ncoef):
            if col_sq[i] == 0.0:
                continue
            rho = M[:, i] @ r + col_sq[i] * c[i]
            new = math.copysign(max(abs(rho) - gamma[i], 0.0), rho) / col_sq[i]
            if new != c[i]:
                r += M[:, i] * (c[i] - new)
                c[i] = new
    return c


def wnorm_sq(v, plan):
    """Squared seminorm ||v||^2 in the W_n^{-1} metric: sum(dct2(v)^2 / phi),
    with phi from an OperatorPlan that has a DCT form."""
    v = np.asarray(v, dtype=float)
    if v.shape != np.shape(plan.lam):
        raise ValueError(f"shape mismatch: plan {np.shape(plan.lam)} vs image {v.shape}")
    c = dct2(v)
    return float((c * c / plan.phi).sum())


def surrogate_Q(x, z, problem, cfg, plan):
    """Quadratic-plus-regularizer majorizer of F at anchor z.

    Q(x, z) = f(z) + <x - z, grad f(z)> + (1/2 eta) ||x - z||^2_{W^{-1}}
              + p * lambda * l1(x).

    Majorizes F(x) whenever phi * mu <= 1 (i.e. eta <= 1/lambda_max(A^T A))
    and p >= 1.
    """
    psf, b = problem.psf, problem.b
    rz = blur_apply(psf, z) - b
    fz = 0.5 * float((rz * rz).sum())
    g = gradient(psf, z, b)
    lin = float(((x - z) * g).sum())
    quad = wnorm_sq(x - z, plan) / (2 * cfg.eta)
    return fz + lin + quad + cfg.p * cfg.lam * l1_norm_wavelet(x, cfg.wavelet_levels)


@dataclass
class RateReport:
    """Outcome of rate_check: worst bound ratio and where it occurred."""

    passed: bool
    violations: int
    max_ratio: float
    worst_iter: int | None
    constant: float
    bound_numerator: float
    f_star: float


def rate_check(trace, x0, x_star, plan, problem, cfg):
    """Check F(x_k) - F(x_star) <= (2/eta) ||x0 - x_star||^2_{W^{-1}} / (k+1)^2
    for k >= 2 against a reference solution.

    Flags violations in the returned report instead of raising, so diverging
    runs can be inspected.
    """
    constant = 2.0 / cfg.eta
    numerator = constant * wnorm_sq(np.asarray(x0, float) - np.asarray(x_star, float), plan)
    f_star = objective(x_star, problem.b, problem.psf, cfg.lam, cfg.wavelet_levels)

    violations = 0
    max_ratio = -math.inf
    worst = None
    for rec in trace.records:
        if rec.iter < 2:
            continue
        bound = numerator / (rec.iter + 1) ** 2
        excess = rec.objective - f_star
        ratio = excess / bound if bound > 0 else (math.inf if excess > 0 else 0.0)
        if ratio > max_ratio:
            max_ratio = ratio
            worst = rec.iter
        if ratio > 1 + 1e-9:
            violations += 1
    return RateReport(
        passed=violations == 0,
        violations=violations,
        max_ratio=max_ratio,
        worst_iter=worst,
        constant=constant,
        bound_numerator=numerator,
        f_star=f_star,
    )
