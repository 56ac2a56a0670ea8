"""Self-test of the benchmark's checks; runs in about a second, without the program.

    python3 perfbench/selftest.py

Every check must accept an output made by the independent model and reject
the same output deliberately corrupted.  Exit code 0 when all do.
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

import checks as ck


def quantize(img):
    return np.floor(np.clip(img, 0.0, 1.0) * 255 + 0.5) / 255


def curve_rows(obj, psnr, secs):
    """Convergence-CSV rows for a (trials, iters) set of traces, with mean rows."""
    rows = []
    trials, iters = obj.shape
    for t in range(trials):
        for k in range(iters):
            rows.append({"iter": str(k + 1), "variant": "efista", "n": "8", "trial": str(t),
                         "objective": repr(float(obj[t, k])), "psnr": repr(float(psnr[t, k])),
                         "seconds": repr(float(secs[t, k]))})
    for k in range(iters):
        rows.append({"iter": str(k + 1), "variant": "efista", "n": "8", "trial": "mean",
                     "objective": repr(float(obj[:, k].mean())),
                     "psnr": repr(float(psnr[:, k].mean())),
                     "seconds": repr(float(secs[:, k].mean()))})
    return rows


def cases():
    """(name, check, good args, corrupted args) for every check."""
    rng = np.random.default_rng(7)
    taps = ck.gaussian_taps(7, 4.0)
    skew = ck.gaussian_taps(7, 4.0, (3.5, 3.0))
    truth = quantize(ck.blur(rng.uniform(size=(32, 48)), ck.gaussian_taps(5, 1.0)))
    blurred = quantize(ck.blur(truth, taps) + ck.noise(truth.shape, 0.01, 5))
    other_seed = quantize(ck.blur(truth, taps) + ck.noise(truth.shape, 0.01, 6))
    x = quantize(truth + 0.02 * rng.standard_normal(truth.shape))
    reported = round(ck.psnr(x, truth), 2)

    obj = 5.0 / np.arange(1.0, 51.0)[None, :] + np.array([[1.0], [1.1]])
    psnr = 20.0 + np.log(np.arange(1.0, 51.0))[None, :] + np.array([[0.0], [0.3]])
    secs = rng.uniform(0.01, 0.02, obj.shape)
    rows = curve_rows(obj, psnr, secs)
    bad_rows = [dict(r) for r in rows]
    last_mean = bad_rows[-1]
    last_mean["objective"] = repr(float(last_mean["objective"]) * (1 + 1e-9))

    curve = obj.mean(axis=0)
    bumped = curve.copy()
    bumped[30] = bumped[29] * (1 + 2e-3)
    rising = curve.copy()
    rising[40] = rising[39] * (1 + 1e-9)

    b = ck.blur(truth, skew) + ck.noise(truth.shape, 0.01, 3)
    r = ck.blur(x, skew) - b
    data = 0.5 * float((r * r).sum())
    lam = ck.lambda_max_AtA(skew, 16, 24)

    return [
        ("forward model", ck.check_forward_model,
         (blurred, truth, taps, 0.01, 5, "img"), (other_seed, truth, taps, 0.01, 5, "img")),
        ("reported psnr", ck.check_reported_psnr,
         (reported, x, truth, "img"), (reported + 0.5, x, truth, "img")),
        ("reported psnr missing", ck.check_reported_psnr,
         (reported, x, truth, "img"), (None, x, truth, "img")),
        ("beats input", ck.check_beats_input, (25.0, 20.0, "img"), (19.9, 20.0, "img")),
        ("mean rows", ck.check_mean_rows, (rows, "efista"), (bad_rows, "efista")),
        ("mean row missing", ck.check_mean_rows, (rows, "efista"), (rows[:-1], "efista")),
        ("settles after 20", ck.check_settles, (curve, "efista"), (bumped, "efista")),
        ("ista descent", ck.check_descent, (curve, "ista"), (rising, "ista")),
        ("data term", ck.check_data_term,
         (x, b, skew, data, "ista"), (x, b, skew, data * (1 + 1e-9), "ista")),
        ("lambda max", ck.check_lambda_max, (lam, skew, 16, 24), (lam + 1e-4, skew, 16, 24)),
    ]


def consistency_errors():
    """The sparse operator, the blur and the PGM round trip agree with each other."""
    errors = []
    rng = np.random.default_rng(1)
    skew = ck.gaussian_taps(7, 4.0, (3.5, 3.0))
    x = rng.standard_normal((16, 24))
    a = ck.blur_matrix(skew, 16, 24)
    if not np.allclose((a @ x.ravel()).reshape(x.shape), ck.blur(x, skew), rtol=0, atol=1e-14):
        errors.append("blur_matrix disagrees with blur")
    img = quantize(rng.uniform(size=(5, 7)))
    with tempfile.TemporaryDirectory() as tmp:
        ck.write_pgm(Path(tmp) / "a.pgm", img)
        if not np.array_equal(ck.read_pgm(Path(tmp) / "a.pgm"), img):
            errors.append("PGM round trip changes the image")
    return errors


def main():
    errors = consistency_errors()
    checks = cases()
    for name, check, good, bad in checks:
        try:
            check(*good)
        except ck.CheckError as exc:
            errors.append(f"{name}: rejects a correct output ({exc})")
        try:
            check(*bad)
            errors.append(f"{name}: accepts a corrupted output")
        except ck.CheckError:
            pass
    for msg in errors:
        print(msg, file=sys.stderr)
    print(f"{'FAIL' if errors else 'ok'}: {len(checks)} checks, {len(errors)} errors")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
