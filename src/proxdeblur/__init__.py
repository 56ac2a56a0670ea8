"""Proximal-gradient image deblurring with weighted-gradient acceleration.

The library solves min_x 0.5*||Ax - b||^2 + lam*||Phi x||_1 (the l1 over the
detail bands) for a blur A by any normalized odd-sized kernel with
reflexive borders and Phi the biorthogonal, near-orthonormal CDF 9/7
wavelet transform.  It has four solver variants: plain and accelerated
proximal gradient (ista, fista), an n-step inner-gradient scheme (ifista),
and its one-shot weighted-gradient form with a scaled shrinkage threshold
(efista).  The experiments module reproduces the convergence,
threshold-sweep and PSNR-table benchmarks; the cli module exposes them as
the `proxdeblur` command.  The package re-exports what a single run needs;
everything else is imported from its module.
"""

from .experiments import add_awgn, synthetic_image
from .linop import Psf, blur_apply, make_gaussian_psf
from .solvers import SolverConfig, Variant, run_solver

__version__ = "0.1.0"

__all__ = [
    "Psf",
    "SolverConfig",
    "Variant",
    "add_awgn",
    "blur_apply",
    "make_gaussian_psf",
    "run_solver",
    "synthetic_image",
    "__version__",
]
