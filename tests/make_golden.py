"""Library golden outputs: run_solver on fixed small problems, recorded bit
for bit in tests/golden/library.json.

Each case is one variant (ista, fista, ifista, efista; n = 8 where the
variant takes it) on one kernel route (DCT, separable spatial, 2-D spatial)
at one shape, with eta = 0.9 / lambda_max(A^T A).  A case records its
objectives at %.17g and a SHA-256 of the final iterate's float64 bytes,
next to the numpy and scipy versions that produced them.

    PYTHONPATH=src python tests/make_golden.py

rewrites the file; tests/test_golden.py recomputes every case and compares.
"""

import hashlib
import json
import pathlib

import numpy as np
import scipy

from oracle import route_kernels
from proxdeblur.linop import blur_apply, lambda_max_AtA
from proxdeblur.solvers import SolverConfig, run_solver

PATH = pathlib.Path(__file__).parent / "golden" / "library.json"

VARIANTS = ("ista", "fista", "ifista", "efista")
SHAPES = ((32, 32), (16, 32))
ITERS = 20
NOISE_SIGMA = 0.01
KERNELS = route_kernels()
CASES = tuple(f"{v}-{k}-{h}x{w}" for v in VARIANTS for k in KERNELS for h, w in SHAPES)


def run_case(name):
    """(objectives, sha256 of the final iterate) of one case."""
    variant, kernel, shape = name.split("-")
    h, w = map(int, shape.split("x"))
    psf = KERNELS[kernel]
    rng = np.random.default_rng(h * 1000 + w)
    truth = rng.uniform(0.0, 1.0, (h, w))
    b = blur_apply(psf, truth) + NOISE_SIGMA * rng.standard_normal((h, w))
    cfg = SolverConfig(variant=variant, eta=0.9 / lambda_max_AtA(psf, w, h),
                       lam=10 * NOISE_SIGMA**2, n=8, max_iters=ITERS)
    x, trace = run_solver(cfg, b, psf)
    digest = hashlib.sha256(np.ascontiguousarray(x, dtype="<f8").tobytes()).hexdigest()
    return trace.objectives().tolist(), digest


def record(name):
    objectives, digest = run_case(name)
    return {"objectives": ["%.17g" % f for f in objectives], "x_sha256": digest}


def main():
    golden = {"numpy": np.__version__, "scipy": scipy.__version__,
              "cases": {name: record(name) for name in CASES}}
    PATH.parent.mkdir(exist_ok=True)
    PATH.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {len(CASES)} cases to {PATH}")


if __name__ == "__main__":
    main()
