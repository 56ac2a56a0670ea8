"""Fixed make-up of the three benchmark workloads.

Only the noise draws depend on the workload seed, so every seed asks the
program for the same amount of work and the timings of different seeds are
comparable.  The sizes, kernels, variants and iteration counts are set here
and nowhere else; the worker runs them and the checks recompute from them.
"""

NAMES = ("curves", "deblur_batch", "nonsym_kernel")

NOISE_SIGMA = 0.01
# the program's default rule lambda = 10 sigma^2, passed explicitly to run_solver
LAM = 10 * NOISE_SIGMA**2
# weighting order of every efista run
N = 8

# The paper's convergence figure: `proxdeblur curves` on the synthetic
# cameraman.  Trial t draws its noise from seed + t.
CURVES_SIZE = 256
CURVES_ITERS = 50
CURVES_TRIALS = 2
CURVES_VARIANTS = ("fista", "efista")

# `proxdeblur deblur` on the five stand-in images, written as PGM files.
# (name, height, width); every side is a multiple of 2^5.  Image i draws its
# noise from 100 * seed + i.
DEBLUR_IMAGES = (
    ("cameraman", 64, 64),
    ("lena", 64, 128),
    ("barbara", 128, 64),
    ("pirate", 96, 128),
    ("peppers", 128, 96),
)
DEBLUR_ITERS = 15

# Library run_solver on a 7x7 Gaussian of the program's default width whose
# centre sits half a tap off the middle row, so the kernel is not
# flip-symmetric and the matrix-free path, blur_adjoint and the power
# iteration all run.  lambda_max(A^T A) is 1.00331, so eta = 0.99 keeps
# ISTA a descent method.  The noise is drawn from the seed itself.
NONSYM_SIZE = 64
NONSYM_PSF_SIZE = 7
NONSYM_PSF_SIGMA = 4.0
NONSYM_PSF_CENTRE = (3.5, 3.0)
NONSYM_ETA = 0.99
NONSYM_ITERS = 50
NONSYM_VARIANTS = ("ista", "efista")

# the deblur and curves kernel: the program's default 7x7 Gaussian, sigma 4
PSF_SIZE = 7
PSF_SIGMA = 4.0


def wavelet_levels(height, width, cap=8):
    """Deepest wavelet decomposition both sides admit, at most `cap`."""
    d = 0
    while d < cap and height % (2 << d) == 0 and width % (2 << d) == 0:
        d += 1
    return d
