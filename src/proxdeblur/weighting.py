"""Weighted-gradient acceleration machinery.

One application of the weighting operator W_n fast-forwards n plain gradient
descent steps on the least squares data term:

    (I - eta A^T A)^n = I - eta W_n A^T A,
    W_n = sum_{i=1..n} C(n,i) (-1)^(i-1) (eta A^T A)^(i-1).

In the DCT eigenbasis W_n acts as the scalar filter

    phi(mu) = (1 - (1 - mu)^n) / mu,   mu = eigenvalue of eta A^T A,

which build_filter evaluates in a cancellation-free form.  operator_plan is
the one path from a (kernel, shape, eta, n) to what a solver run needs: it
takes lam and lambda_max(A^T A) from the cached operator_spectrum, checks
eta against the latter, and adds phi, the step's gain phi * lam and
lambda_max(W_n).  The matrix-free n-step recursion is the exact fallback
for operators with no DCT form.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linop import BuildCache, gradient, operator_spectrum, psf_key, require_int

__all__ = [
    "MAX_ORDER",
    "MU_CLAMP",
    "binomial_filter_weights",
    "build_filter",
    "apply_weighted_gradient_nstep",
    "OperatorPlan",
    "operator_plan",
]

# The largest order n of W_n.
MAX_ORDER = 32

# Below this, mu is insignificant in double precision and phi takes its
# continuous limit n.
MU_CLAMP = 1e-14


def binomial_filter_weights(n):
    """Coefficients c[i] = C(n,i) * (-1)^(i-1) of the W_n matrix polynomial.

    W_n = sum_i c[i] (eta A^T A)^(i-1); the list is 1-indexed conceptually,
    c[0] here corresponds to the identity term.
    """
    require_int("order n", n)
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"order n must be in [1, {MAX_ORDER}], got {n}")
    return [math.comb(n, i) * (-1) ** (i - 1) for i in range(1, n + 1)]


def _phi_closed(mu, n):
    """Evaluate phi(mu) = (1 - (1-mu)^n)/mu without catastrophic cancellation.

    The textbook expression loses all significance for mu around 1e-12..1e-8
    (enough to push max phi above n); -expm1(n*log1p(-mu))/mu is exact to a
    few ulps over the whole range.  phi = n below MU_CLAMP, and 1/mu once mu
    reaches 1.
    """
    out = np.full(mu.shape, float(n))
    m = mu > MU_CLAMP
    mm = np.minimum(mu[m], 1.0)
    with np.errstate(divide="ignore"):
        out[m] = np.where(mm < 1.0, -np.expm1(n * np.log1p(-mm)) / mu[m], 1.0 / mu[m])
    return out


def _phi_binomial_exact(mu, coeffs):
    """Reference phi by Horner evaluation of the binomial polynomial in
    exact rational arithmetic (mu is a dyadic float, coefficients are ints,
    so there is no rounding until the final conversion)."""
    m = Fraction(mu)
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * m + c
    return float(acc)


def build_filter(mu, n):
    """The W_n eigen-filter phi at the eigenvalues mu of eta A^T A.

    The closed form and the literal binomial polynomial must agree to 1e-10
    on a sample of frequencies; this is asserted at build time.  The filter
    invariants 1 <= phi <= n and phi*mu <= 1 are also checked (they hold
    whenever mu <= 1, i.e. eta <= 1/lambda_max(A^T A)).
    """
    coeffs = binomial_filter_weights(n)
    tol = 1e-12
    if mu.min() < -tol or mu.max() > 1.0 + tol:
        raise ValueError(
            "spectrum outside [0, 1] (needs eta <= 1/lambda_max(A^T A)): "
            f"mu range [{mu.min()!r}, {mu.max()!r}]"
        )
    phi = _phi_closed(mu, n)

    flat_mu = mu.ravel()
    sample = np.unique(np.concatenate([
        np.linspace(0, flat_mu.size - 1, 64).astype(int),
        [int(flat_mu.argmin()), int(flat_mu.argmax())],
    ]))
    for j in sample:
        if flat_mu[j] <= MU_CLAMP:
            continue
        ref = _phi_binomial_exact(flat_mu[j], coeffs)
        if abs(phi.ravel()[j] - ref) > 1e-10:
            raise ArithmeticError(
                f"phi forms disagree at mu={flat_mu[j]!r}: "
                f"closed {phi.ravel()[j]!r} vs polynomial {ref!r}"
            )

    if phi.min() < 1.0 - tol or phi.max() > n + tol or (phi * mu).max() > 1.0 + tol:
        raise ValueError(
            "filter invariants violated (needs mu in [0, 1], "
            "i.e. eta <= 1/lambda_max(A^T A)): "
            f"phi range [{phi.min()!r}, {phi.max()!r}], "
            f"max phi*mu {(phi * mu).max()!r}"
        )
    return phi


def apply_weighted_gradient_nstep(psf, x, b, eta, n):
    """n plain gradient descent steps on 1/2||Az - b||^2 starting from x.

    Returns z_n where z_0 = x and z_{j+1} = z_j - eta A^T(A z_j - b), which
    equals x - eta W_n grad f(x).  Matrix-free; works for any kernel.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    z = np.asarray(x, dtype=float).copy()
    for _ in range(n):
        z -= eta * gradient(psf, z, b)
    return z


@dataclass(frozen=True)
class OperatorPlan:
    """Everything a solver run needs to know about its operator.

    Built once per (kernel, shape, eta, n) by operator_plan.  With a DCT
    form (doubly symmetric kernel) lam holds the signed DCT eigenvalues of
    A, phi the W_n filter at mu = eta lam^2 (1.0 when n = 1), gain =
    phi * lam, the factor the DCT-domain step applies to its residual, and
    lambda_max_W = max phi, attained at the smallest mu.  Without one those
    three are None and lambda_max_W is n.
    """

    lambda_max_AtA: float
    lambda_max_W: float
    lam: np.ndarray | None = None
    phi: np.ndarray | float | None = None
    gain: np.ndarray | None = None


_PLANS = BuildCache(8)


def operator_plan(psf, shape, eta, n):
    """The cached OperatorPlan of psf on (height, width) images.

    Checks the step size against lambda_max(A^T A) from operator_spectrum
    and builds the W_n filter with build_filter, whose self-checks run once
    per plan.

    Raises
    ------
    ValueError
        If eta is not positive or exceeds 1/lambda_max(A^T A).
    """
    h, w = shape
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")

    def build():
        spec = operator_spectrum(psf, shape)
        lam_max = spec.lambda_max_AtA
        if lam_max > 0 and eta > (1 + 1e-9) / lam_max:
            raise ValueError(f"eta = {eta} exceeds 1/lambda_max(A^T A) = {1 / lam_max!r}")
        if spec.lam is None:
            return OperatorPlan(lambda_max_AtA=lam_max, lambda_max_W=float(n))
        lam = spec.lam
        if n == 1:
            return OperatorPlan(lambda_max_AtA=lam_max, lambda_max_W=1.0,
                                lam=lam, phi=1.0, gain=lam)
        phi = build_filter(eta * lam * lam, n)
        gain = phi * lam
        phi.flags.writeable = gain.flags.writeable = False
        return OperatorPlan(lambda_max_AtA=lam_max, lambda_max_W=float(phi.max()),
                            lam=lam, phi=phi, gain=gain)

    return _PLANS.get((psf_key(psf), h, w, float(eta), int(n)), build)
