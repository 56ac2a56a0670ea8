"""Unified proximal-gradient engine.

One step is

    x_{k+1} = S_gamma[ y_k - eta * W_n grad f(y_k) ],   gamma = p * lambda * eta,
    alpha_{k+1} = (1 + sqrt(1 + 4 alpha_k^2)) / 2,
    y_{k+1} = x_{k+1} + ((alpha_k - 1)/alpha_{k+1}) (x_{k+1} - x_k),

with S_gamma the wavelet-domain soft threshold.  The four variants are
structural reductions of this single code path: IFISTA is p = 1, FISTA is
additionally n = 1, and ISTA drops the momentum extrapolation (y = x).

For a doubly symmetric kernel, A = C^T diag(lam) C with C the orthonormal
DCT-II, so the gradient step is y - eta idct2(phi lam (lam Cy - Cb)) with
the W_n filter phi (1 for n = 1).  The step then keeps Cx next to x: Cy
follows from it by the linearity of the momentum, and the data term is
1/2 ||lam Cx - Cb||^2 by Parseval.  Other kernels take the matrix-free
n-step recursion.

A run stops after max_iters steps, or early when the objective goes
non-finite or grows past DIVERGENCE_FACTOR times its initial value.  Its
trace is one numpy record array with a row per recorded step.
"""

import dataclasses
import math
import time
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linop import blur_apply, dct2, idct2, require_finite, require_int
from .wavelet import LiftingWorkspace, prox_l1_wavelet, wavelet_depth
from .weighting import MAX_ORDER, apply_weighted_gradient_nstep, operator_plan

__all__ = [
    "DIVERGENCE_FACTOR",
    "Variant",
    "SolverConfig",
    "SolverState",
    "TRACE_DTYPE",
    "IterationTrace",
    "Problem",
    "psnr",
    "momentum_alpha",
    "momentum_extrapolate",
    "efista_step",
    "run_solver",
    "runs_diverged",
]

# A run whose objective exceeds this multiple of its initial value is
# stopped and flagged as diverged.
DIVERGENCE_FACTOR = 1e6

# one row of IterationTrace.records
TRACE_DTYPE = np.dtype([("iter", np.int64), ("objective", float), ("data_term", float),
                        ("regularizer", float), ("psnr", float), ("seconds", float)])


class Variant(str, Enum):
    ISTA = "ista"
    FISTA = "fista"
    IFISTA = "ifista"
    EFISTA = "efista"

    @classmethod
    def _missing_(cls, value):
        valid = ", ".join(v.value for v in cls)
        raise ValueError(f"unknown variant '{value}' (valid: {valid})")


@dataclass
class SolverConfig:
    """Parameters of one solver run.

    p = None asks for the default threshold scale lambda_max(W_n) and
    wavelet_levels = None for the deepest depth the shape admits; the run
    fills in both (_resolve).  n = 1, plain FISTA, is the library's default
    and Scenario.n = 8, the paper's order, the commands'.  For ISTA and
    FISTA n is forced to 1, and for everything but EFISTA p is forced to 1:
    those reductions define the variants, and they are made here because
    run_convergence_test dedups configs by the reduced (variant, n).
    """

    variant: Variant
    eta: float = 1.0
    lam: float = 0.0
    n: int = 1
    p: float | None = None
    max_iters: int = 50
    wavelet_levels: int | None = None

    def __post_init__(self):
        self.variant = Variant(self.variant)
        require_int("n", self.n)
        require_int("max_iters", self.max_iters)
        if self.variant in (Variant.ISTA, Variant.FISTA):
            self.n = 1
        if self.variant is not Variant.EFISTA:
            self.p = 1.0
        require_finite("eta", self.eta)
        require_finite("lambda", self.lam)
        if self.p is not None:
            require_finite("p", self.p)
        if self.eta <= 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if self.lam < 0:
            raise ValueError(f"lambda must be nonnegative, got {self.lam}")
        if self.n < 1:
            raise ValueError(f"order n must be >= 1, got {self.n}")
        if self.n > MAX_ORDER:
            raise ValueError(f"order n must be in [1, {MAX_ORDER}], got {self.n}")
        if self.p is not None and self.p < 1:
            raise ValueError(f"threshold scale p must be >= 1, got {self.p}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")


@dataclass(frozen=True)
class Problem:
    """What efista_step needs besides the iterates: kernel, data, the run's
    own wavelet workspace, the operator plan, and cb = dct2(b) when the
    step runs in the DCT domain, which it does exactly when the plan has a
    DCT form."""

    psf: object
    b: np.ndarray
    workspace: LiftingWorkspace
    plan: object = None
    cb: np.ndarray | None = None

    @classmethod
    def build(cls, cfg, b, psf):
        """Problem for a run of cfg on data b: a workspace of its own at
        cfg.wavelet_levels (None: wavelet_depth of the shape), which checks
        the depth before the kernel's operator plan is looked up."""
        b = np.asarray(b, dtype=float)
        levels = wavelet_depth(b.shape) if cfg.wavelet_levels is None else cfg.wavelet_levels
        workspace = LiftingWorkspace(b.shape, levels)
        plan = operator_plan(psf, b.shape, cfg.eta, cfg.n)
        cb = dct2(b) if plan.lam is not None else None
        return cls(psf=psf, b=b, workspace=workspace, plan=plan, cb=cb)


@dataclass
class SolverState:
    """Iterate bundle, updated in place by efista_step.

    x and the momentum point y, their DCTs cx and cy on the DCT path (None
    otherwise), alpha, and l1, the detail-band l1 of the wavelet
    coefficients the last prox produced x from (at the start, those of x0
    itself when lambda > 0; run_solver sets it).
    """

    x: np.ndarray
    y: np.ndarray
    alpha: float
    cx: np.ndarray | None = None
    cy: np.ndarray | None = None
    l1: float = 0.0

    @classmethod
    def start(cls, x0, problem):
        """State at iteration 0 from x0 (kept, not copied; y is a copy)."""
        x0 = np.asarray(x0, dtype=float)
        cx = dct2(x0) if problem.cb is not None else None
        return cls(x=x0, y=x0.copy(), alpha=1.0, cx=cx, cy=None if cx is None else cx.copy())


@dataclass
class IterationTrace:
    """The run's records, a divergence tag for runs that blew up, and the
    run's config with p and wavelet_levels resolved (_resolve).

    records is a numpy record array of TRACE_DTYPE, one row per recorded
    step: iter (1 for the first step), objective = data_term + regularizer
    after it, psnr against truth (NaN without one) and the step's seconds.
    records[-1].objective reads a row, records.objective a column.
    """

    records: np.recarray
    diverged: bool = False
    config: SolverConfig | None = None

    def objectives(self):
        return np.array(self.records.objective)

    def __len__(self):
        return len(self.records)


def _half_sq(r):
    """1/2 ||r||^2.  Overflow to inf is fine; the divergence guard feeds on it."""
    with np.errstate(over="ignore"):
        return 0.5 * float((r * r).sum())


def _data_term(state, problem):
    """1/2 ||A x - b||^2 at the state's x, by Parseval on the DCT path."""
    if problem.cb is None:
        return _half_sq(blur_apply(problem.psf, state.x) - problem.b)
    r = problem.plan.lam * state.cx
    r -= problem.cb
    return _half_sq(r)


def psnr(x, reference):
    """Peak signal-to-noise ratio in dB with peak 1.0, capped at 200 dB, and
    -inf when the mean squared error overflows."""
    x = np.asarray(x, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if x.shape != reference.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {reference.shape}")
    with np.errstate(over="ignore"):
        mse = float(((x - reference) ** 2).mean())
    if mse < 1e-20:
        return 200.0
    return 10 * math.log10(1.0 / mse) if mse < math.inf else -math.inf


def momentum_alpha(alpha):
    """Next momentum coefficient (1 + sqrt(1 + 4 alpha^2)) / 2."""
    return (1 + math.sqrt(1 + 4 * alpha * alpha)) / 2


def momentum_extrapolate(x_new, x_old, alpha, alpha_new, out=None):
    """x_new + ((alpha - 1)/alpha_new) * (x_new - x_old), into out if given."""
    if x_new.shape != x_old.shape:
        raise ValueError(f"shape mismatch: {x_new.shape} vs {x_old.shape}")
    out = np.subtract(x_new, x_old, out=out)
    out *= (alpha - 1) / alpha_new
    out += x_new
    return out


def efista_step(state, cfg, problem):
    """One solver step; updates state in place and returns it.

    Requires cfg.p to be resolved (a number).  With problem.cb set the
    gradient step is y - eta idct2(gain * (lam Cy - Cb)) from the operator
    plan, otherwise the matrix-free n-step recursion.
    """
    y = state.y
    if problem.cb is not None:
        r = problem.plan.lam * state.cy
        r -= problem.cb
        r *= problem.plan.gain
        z = idct2(r)
        z *= cfg.eta
        np.subtract(y, z, out=z)
    else:
        z = apply_weighted_gradient_nstep(problem.psf, y, problem.b, cfg.eta, cfg.n)
    gamma = cfg.p * cfg.lam * cfg.eta
    if gamma > 0:
        x_new, state.l1 = prox_l1_wavelet(z, gamma, problem.workspace)
    else:
        x_new = z
    cx_new = None if problem.cb is None else dct2(x_new)
    alpha_new = momentum_alpha(state.alpha)
    if cfg.variant is Variant.ISTA:
        state.y, state.cy = x_new, cx_new
    else:
        momentum_extrapolate(x_new, state.x, state.alpha, alpha_new, out=y)
        if cx_new is not None:
            momentum_extrapolate(cx_new, state.cx, state.alpha, alpha_new, out=state.cy)
    state.x, state.cx, state.alpha = x_new, cx_new, alpha_new
    return state


def _resolve(cfg, problem):
    """cfg with the depth of the problem's workspace and, for p = None,
    lambda_max(W_n) of its plan; a larger p warns at run_solver's caller."""
    lmax_W = problem.plan.lambda_max_W
    if cfg.p is not None and cfg.p > lmax_W * (1 + 1e-6) + 1e-9:
        warnings.warn(f"threshold scale p = {cfg.p} exceeds lambda_max(W_{cfg.n}) = {lmax_W}",
                      stacklevel=3)
    return dataclasses.replace(cfg, p=lmax_W if cfg.p is None else cfg.p,
                               wavelet_levels=problem.workspace.levels)


def run_solver(cfg, b, psf, x0=None, truth=None):
    """Run max_iters solver steps from x0 (default: the data b itself).

    Returns (x, trace): x is the iterate of the last record (x0 when there
    is none) and trace.config the config with p and wavelet_levels
    resolved.  A run whose objective explodes past DIVERGENCE_FACTOR times
    its initial value, or goes non-finite, stops early with trace.diverged
    set rather than raising; a non-finite iterate is not recorded.  The
    psnr field holds the PSNR against truth, or NaN when truth is None.

    Raises
    ------
    ValueError
        If b, x0 or truth is not finite, the shape of x0 or truth differs
        from that of b, the shape admits no wavelet level, or
        wavelet_levels does not divide it.
    """
    b = np.asarray(b, dtype=float)
    x0 = b.copy() if x0 is None else np.asarray(x0, dtype=float).copy()
    truth = None if truth is None else np.asarray(truth, dtype=float)
    for name, arr in (("b", b), ("x0", x0), ("truth", truth)):
        if arr is None:
            continue
        if arr.shape != b.shape:
            raise ValueError(f"shape mismatch: {name} {arr.shape} vs b {b.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} has non-finite entries")
    problem = Problem.build(cfg, b, psf)
    cfg = _resolve(cfg, problem)

    trace = IterationTrace(np.recarray(cfg.max_iters, dtype=TRACE_DTYPE), config=cfg)
    if cfg.max_iters == 0:
        return x0, trace

    state = SolverState.start(x0, problem)
    if cfg.lam != 0:
        problem.workspace.analyze(x0)
        state.l1 = problem.workspace.detail_l1()
    # F(x0), by the expression of every step below
    f0 = _data_term(state, problem) + cfg.lam * state.l1
    x, rows = x0, 0
    while rows < cfg.max_iters and not trace.diverged:
        t0 = time.perf_counter()
        state = efista_step(state, cfg, problem)
        dt = time.perf_counter() - t0
        data = _data_term(state, problem)
        reg = cfg.lam * state.l1
        fval = data + reg
        if math.isfinite(fval):
            x = state.x  # the step rebinds state.x, never writes into it
            trace.records[rows] = (rows + 1, fval, data, reg,
                                   math.nan if truth is None else psnr(x, truth), dt)
            rows += 1
        trace.diverged = not math.isfinite(fval) or (f0 > 0 and fval > DIVERGENCE_FACTOR * f0)
    trace.records = trace.records[:rows]
    return x, trace


def runs_diverged(hard_flags, mean_objective):
    """The divergence verdict over a set of runs of one setting.

    True when any run was stopped by the hard guard (trace.diverged), or
    when the mean objective curve, NaN where no run has a record, ends more
    than 0.1% above its own minimum.  The weighted p = 1 runs at realistic
    noise dip and then climb without ever tripping the hard guard; the
    second rule catches that pattern.
    """
    f = np.asarray(mean_objective, dtype=float)
    f = f[~np.isnan(f)]
    if any(hard_flags) or not np.all(np.isfinite(f)):
        return True
    if f.size == 0:
        return False
    fmin = float(f.min())
    return (float(f[-1]) - fmin) / max(fmin, 1e-300) > 1e-3
