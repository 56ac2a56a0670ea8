"""Proximal-gradient image deblurring with weighted-gradient acceleration.

The library solves min_x 0.5*||Ax - b||^2 + lam*||Phi x||_1 for a reflective
Gaussian blur A and an orthonormal wavelet transform Phi, with four solver
variants: plain and accelerated proximal gradient (ista, fista), an n-step
inner-gradient scheme (ifista), and its one-shot weighted-gradient form with
a scaled shrinkage threshold (efista).  The experiments module reproduces
the convergence, threshold-sweep and PSNR-table benchmarks; the cli module
exposes them as the `proxdeblur` command.
"""

from .linop import (
    Psf,
    SpectralDiag,
    blur_adjoint,
    blur_apply,
    dct2,
    gradient,
    idct2,
    lambda_max_AtA,
    make_gaussian_psf,
    spectral_decompose,
)
from .weighting import (
    WeightingFilter,
    apply_weighted_gradient_nstep,
    apply_weighted_gradient_spectral,
    binomial_filter_weights,
    build_filter,
    lambda_max_W,
    noise_std_amplification,
)
from .wavelet import (
    WaveletCoeffs,
    analyze,
    l1_norm_wavelet,
    prox_l1_wavelet,
    soft_threshold,
    synthesize,
)
from .solvers import (
    IterationRecord,
    IterationTrace,
    Problem,
    RateReport,
    SolverConfig,
    SolverState,
    Variant,
    efista_step,
    momentum_alpha,
    momentum_extrapolate,
    objective,
    rate_check,
    run_solver,
    surrogate_Q,
    trajectory_diverged,
    wnorm_sq,
)
from .experiments import (
    PSweepResult,
    ResultTable,
    Scenario,
    add_awgn,
    load_image,
    psnr,
    run_convergence_test,
    run_p_sweep,
    run_psnr_table,
    synthetic_image,
)
from .pgmio import read_pgm, write_pgm

__version__ = "0.1.0"

__all__ = [
    "Psf",
    "SpectralDiag",
    "blur_adjoint",
    "blur_apply",
    "dct2",
    "gradient",
    "idct2",
    "lambda_max_AtA",
    "make_gaussian_psf",
    "spectral_decompose",
    "WeightingFilter",
    "apply_weighted_gradient_nstep",
    "apply_weighted_gradient_spectral",
    "binomial_filter_weights",
    "build_filter",
    "lambda_max_W",
    "noise_std_amplification",
    "WaveletCoeffs",
    "analyze",
    "l1_norm_wavelet",
    "prox_l1_wavelet",
    "soft_threshold",
    "synthesize",
    "IterationRecord",
    "IterationTrace",
    "Problem",
    "RateReport",
    "SolverConfig",
    "SolverState",
    "Variant",
    "efista_step",
    "momentum_alpha",
    "momentum_extrapolate",
    "objective",
    "rate_check",
    "run_solver",
    "surrogate_Q",
    "trajectory_diverged",
    "wnorm_sq",
    "PSweepResult",
    "ResultTable",
    "Scenario",
    "add_awgn",
    "load_image",
    "psnr",
    "run_convergence_test",
    "run_p_sweep",
    "run_psnr_table",
    "synthetic_image",
    "read_pgm",
    "write_pgm",
    "__version__",
]
