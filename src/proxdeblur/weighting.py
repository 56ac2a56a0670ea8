"""Weighted-gradient acceleration machinery.

One application of the weighting operator W_n fast-forwards n plain gradient
descent steps on the least squares data term:

    (I - eta A^T A)^n = I - eta W_n A^T A,
    W_n = sum_{i=1..n} C(n,i) (-1)^(i-1) (eta A^T A)^(i-1).

In the DCT eigenbasis W_n acts as the scalar filter

    phi(mu) = (1 - (1 - mu)^n) / mu,   mu = eigenvalue of eta A^T A,

which build_filter evaluates in a cancellation-free form.  operator_plan is
the one path from a (kernel, shape, eta, n) to what a solver run needs, a
linop.OperatorPlan: for every order and kernel it checks eta against
lambda_max(A^T A) of the n = 1 plan, operator_spectrum, to within STEP_TOL,
and for n > 1 adds phi, the step's gain phi * lam and lambda_max(W_n).
The kernel keeps every plan built from it (linop.Psf.plan).  The
matrix-free n-step recursion is the exact fallback for operators with no
DCT form.
"""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np

from .linop import gradient, operator_spectrum, require_int

__all__ = [
    "MAX_ORDER",
    "MU_CLAMP",
    "STEP_TOL",
    "binomial_filter_weights",
    "build_filter",
    "apply_weighted_gradient_nstep",
    "operator_plan",
]

# The largest order n of W_n.
MAX_ORDER = 32

# Below this, mu is insignificant in double precision and phi takes its
# continuous limit n.
MU_CLAMP = 1e-14

# The round-off allowed past eta * lambda_max(A^T A) <= 1, the bound that keeps
# every mu in [0, 1], and past the filter's range and invariants.
STEP_TOL = 1e-12


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
    whenever mu <= 1, i.e. eta <= 1/lambda_max(A^T A)); the range of mu and
    the invariants allow STEP_TOL.
    """
    coeffs = binomial_filter_weights(n)
    tol = STEP_TOL
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


def operator_plan(psf, shape, eta, n):
    """The OperatorPlan of psf on (height, width) images at step size eta
    and order n.

    For n = 1 that is operator_spectrum itself.  Otherwise a kernel with no
    DCT form only changes lambda_max_W to n, and a DCT plan gets the W_n
    filter from build_filter, kept by the kernel per (shape, eta, n), so
    its self-checks run once per plan.

    Raises
    ------
    ValueError
        If eta is not positive or eta * lambda_max(A^T A) > 1 + STEP_TOL.
    """
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")
    base = operator_spectrum(psf, shape)
    lam_max = base.lambda_max_AtA
    if eta * lam_max > 1 + STEP_TOL:
        raise ValueError(f"eta = {eta} exceeds 1/lambda_max(A^T A) = {1 / lam_max!r}")
    if n == 1:
        return base
    if base.lam is None:
        return replace(base, lambda_max_W=float(n))

    def build():
        phi = build_filter(eta * base.lam * base.lam, n)
        gain = phi * base.lam
        phi.flags.writeable = gain.flags.writeable = False
        return replace(base, lambda_max_W=float(phi.max()), phi=phi, gain=gain)

    return psf.plan((*shape, float(eta), int(n)), build)
