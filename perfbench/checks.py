"""Independent forward model and the correctness checks of the benchmark.

Nothing here imports the program.  The blur is numpy's symmetric padding
followed by a valid 2D correlation, the noise is drawn from the documented
seed, PSNR has its own formula, and lambda_max(A^T A) comes from ARPACK on
a sparse matrix built tap by tap.  Each check raises CheckError with a
message that names the output and the size of the disagreement.
"""

import csv
import math
from collections import defaultdict

import numpy as np
from scipy import signal, sparse
from scipy.sparse.linalg import eigsh


class CheckError(Exception):
    """An output of the program disagrees with the independent computation."""


def gaussian_taps(size, sigma, centre=None):
    """Unit-sum Gaussian taps exp(-((i-ci)^2 + (j-cj)^2) / (2 sigma^2))."""
    ci, cj = ((size - 1) / 2, (size - 1) / 2) if centre is None else centre
    i = np.arange(size, dtype=float)
    k = np.exp(-((i[:, None] - ci) ** 2 + (i[None, :] - cj) ** 2) / (2 * sigma**2))
    return k / k.sum()


def blur(img, taps):
    """A x: half-sample symmetric padding, then a valid correlation."""
    pad = taps.shape[0] // 2
    return signal.correlate2d(np.pad(img, pad, mode="symmetric"), taps, mode="valid")


def noise(shape, sigma, seed):
    """The additive white Gaussian noise the program draws for `seed`."""
    return sigma * np.random.default_rng(seed).standard_normal(shape)


def psnr(x, ref):
    """10 log10(1 / MSE) for images on the unit range."""
    return 10 * math.log10(1.0 / float(np.mean((np.asarray(x) - ref) ** 2)))


def write_pgm(path, img):
    """8-bit binary PGM, rounding half up after clipping to [0, 1]."""
    q = np.floor(np.clip(img, 0.0, 1.0) * 255 + 0.5).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{q.shape[1]} {q.shape[0]}\n255\n".encode("ascii"))
        f.write(q.tobytes())


def read_pgm(path):
    """Read an 8-bit binary PGM without comments into [0, 1] floats."""
    with open(path, "rb") as f:
        data = f.read()
    fields = data.split(maxsplit=4)
    if len(fields) < 5 or fields[0] != b"P5" or fields[3] != b"255":
        raise CheckError(f"{path}: not an 8-bit binary PGM")
    w, h = int(fields[1]), int(fields[2])
    raster = data[len(data) - w * h:]
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w) / 255.0


def blur_matrix(taps, height, width):
    """Sparse matrix of the blur with half-sample symmetric borders."""
    pad = taps.shape[0] // 2

    def mirror(n):
        idx = np.arange(-pad, n + pad) % (2 * n)
        return np.where(idx >= n, 2 * n - 1 - idx, idx)

    rows, cols = mirror(height), mirror(width)
    pix = np.arange(height * width).reshape(height, width)
    r, c, v = [], [], []
    for a in range(taps.shape[0]):
        for b in range(taps.shape[1]):
            r.append(pix.ravel())
            c.append(pix[np.ix_(rows[a:a + height], cols[b:b + width])].ravel())
            v.append(np.full(height * width, taps[a, b]))
    shape = (height * width, height * width)
    return sparse.csr_matrix((np.concatenate(v), (np.concatenate(r), np.concatenate(c))),
                             shape=shape)


def lambda_max_AtA(taps, height, width):
    """Largest eigenvalue of A^T A by ARPACK."""
    a = blur_matrix(taps, height, width)
    return float(eigsh((a.T @ a).tocsc(), k=1, which="LA", tol=1e-14,
                       return_eigenvectors=False)[0])


# --- checks -----------------------------------------------------------------

def check_forward_model(blurred, truth, taps, sigma, seed, label):
    """blurred.pgm is blur(truth) + noise(seed), clipped and 8-bit quantized."""
    expected = np.clip(blur(truth, taps) + noise(truth.shape, sigma, seed), 0.0, 1.0)
    err = float(np.abs(blurred - expected).max())
    if err > 0.5 / 255 + 1e-9:
        raise CheckError(f"{label}: blurred image is {err * 255:.2f} levels off the "
                         f"forward model with noise seed {seed}")


def check_reported_psnr(reported, x, truth, label, tol=0.1):
    """The program's PSNR agrees with ours on the output it wrote.

    The program reports the PSNR of its float iterate with two decimals; the
    PGM holds that iterate clipped to [0, 1] and rounded to 8 bits.  On the
    benchmark images the clipping and rounding move the PSNR by up to 0.04 dB
    (seeds 0-9), hence the tolerance.
    """
    own = psnr(x, truth)
    if reported is None or not abs(own - reported) <= tol:
        raise CheckError(f"{label}: reported PSNR {reported} dB, recomputed {own:.4f} dB")


def check_beats_input(out_db, in_db, label):
    """A reconstruction is closer to the truth than its blurred noisy input."""
    if not out_db > in_db:
        raise CheckError(f"{label}: PSNR {out_db:.3f} dB does not beat its input "
                         f"at {in_db:.3f} dB")


def read_curve_rows(path):
    """Rows of a convergence CSV as dicts."""
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def check_mean_rows(rows, label):
    """Every `mean` row is the mean of the trial rows of its iteration."""
    trials = defaultdict(list)
    means = {}
    for row in rows:
        key = (row["variant"], row["n"], int(row["iter"]))
        if row["trial"] == "mean":
            means[key] = row
        else:
            trials[key].append(row)
    if set(means) != set(trials):
        raise CheckError(f"{label}: mean rows and trial rows cover different iterations")
    for key, group in trials.items():
        for col in ("objective", "psnr", "seconds"):
            want = float(np.mean([float(r[col]) for r in group]))
            got = float(means[key][col])
            if not abs(got - want) <= 1e-12 * abs(want):
                raise CheckError(f"{label}: mean {col} at iteration {key[2]} is {got!r}, "
                                 f"the mean of its trials is {want!r}")


def mean_objective(rows, variant):
    """The `mean` objective curve of one variant, in iteration order."""
    pts = sorted((int(r["iter"]), float(r["objective"])) for r in rows
                 if r["variant"] == variant and r["trial"] == "mean")
    return np.array([v for _, v in pts])


def check_settles(curve, label, start=20, tol=1e-3):
    """From iteration `start` on, no relative rise larger than `tol`."""
    tail = np.asarray(curve[start - 1:], dtype=float)
    worst = float(((tail[1:] - tail[:-1]) / tail[:-1]).max()) if tail.size > 1 else 0.0
    if not worst <= tol:
        raise CheckError(f"{label}: mean objective rises by {worst:.2e} after "
                         f"iteration {start} (tolerance {tol:g})")


def check_descent(objectives, label):
    """ISTA with eta <= 1/lambda_max(A^T A) never raises the objective."""
    f = np.asarray(objectives, dtype=float)
    rises = np.flatnonzero(f[1:] > f[:-1] * (1 + 1e-12))
    if rises.size:
        k = int(rises[0])
        raise CheckError(f"{label}: objective rises from {f[k]!r} to {f[k + 1]!r} "
                         f"at iteration {k + 2}")


def check_data_term(x, b, taps, reported, label):
    """1/2 ||A x - b||^2 of the final iterate, recomputed, to 1e-10 relative."""
    r = blur(x, taps) - b
    own = 0.5 * float((r * r).sum())
    if not abs(own - reported) <= 1e-10 * abs(own):
        raise CheckError(f"{label}: data term {reported!r}, recomputed {own!r}")


def check_lambda_max(value, taps, height, width, tol=1e-5):
    """The program's lambda_max(A^T A) agrees with ARPACK within `tol`."""
    own = lambda_max_AtA(taps, height, width)
    if not abs(value - own) <= tol:
        raise CheckError(f"lambda_max(A^T A) {value!r}, ARPACK gives {own!r}")
