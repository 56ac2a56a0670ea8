"""The workload's own process: imports the program and runs its operations.

    python3 perfbench/worker.py run   --workload W --seed S --dir D --seconds T --trace 0|1
    python3 perfbench/worker.py setup --dir D

`run` writes the workload's inputs into D, repeats whole rounds of its
operations for T seconds and writes D/result.json; the first round's
one-off costs weigh little in the median round.  With --trace 1 the first
half of the time runs untraced and the second half traced, so the tracing
overhead is measured in one process.  `setup` imports the program and makes
the one run_solver call with max_iters=0 that D/setup.npz describes; run.py
times it from launch to exit.

Only the standard library is imported before the program, so the measured
import time is the program's.
"""

import argparse
import contextlib
import dataclasses
import io
import json
import re
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def import_program():
    """Import proxdeblur from the checkout's src/; returns (module, seconds)."""
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import proxdeblur
    import proxdeblur.cli  # noqa: F401  (the CLI is not imported by the package)
    elapsed = time.perf_counter() - t0
    if Path(proxdeblur.__file__).resolve().parent != ROOT / "src" / "proxdeblur":
        sys.exit(f"imported proxdeblur from {proxdeblur.__file__}, not from {ROOT / 'src'}")
    return proxdeblur, elapsed


def solver_config(pd, matrix_free, **kw):
    """SolverConfig; matrix_free asks for the n-step path while the config has
    a spectral_path field to choose it with."""
    fields = {f.name for f in dataclasses.fields(pd.solvers.SolverConfig)}
    if matrix_free and "spectral_path" in fields:
        kw["spectral_path"] = False
    return pd.solvers.SolverConfig(**kw)


def setup(args):
    pd, _ = import_program()
    import numpy as np
    import workloads as w

    prob = np.load(Path(args.dir) / "setup.npz")
    psf = pd.linop.Psf(size=prob["taps"].shape[0], taps=prob["taps"])
    cfg = solver_config(pd, bool(prob["matrix_free"]), variant="efista",
                        eta=float(prob["eta"]), lam=w.LAM, n=w.N, max_iters=0,
                        wavelet_levels=int(prob["levels"]))
    pd.solvers.run_solver(cfg, prob["b"], psf, x0=prob["b"])


# --- workloads ------------------------------------------------------------------
# Each builder writes the inputs, saves the first problem as setup.npz and
# returns (one_round, outputs): one_round() runs one round and returns one
# ok flag per operation; outputs() says where the last round left its results.

def build_curves(pd, w, ck, d, seed):
    import numpy as np

    truth = pd.experiments.synthetic_image("cameraman", w.CURVES_SIZE)
    np.save(d / "truth.npy", truth)
    taps = ck.gaussian_taps(w.PSF_SIZE, w.PSF_SIGMA)
    b = ck.blur(truth, taps) + ck.noise(truth.shape, w.NOISE_SIGMA, seed)
    np.savez(d / "setup.npz", b=b, taps=taps, eta=1.0,
             levels=w.wavelet_levels(*truth.shape), matrix_free=False)
    cfg = d / "curves.cfg"
    cfg.write_text(
        f"image = synthetic:cameraman\nsize = {w.CURVES_SIZE}\n"
        f"psf_size = {w.PSF_SIZE}\npsf_sigma = {w.PSF_SIGMA}\n"
        f"noise_sigma = {w.NOISE_SIGMA}\niterations = {w.CURVES_ITERS}\n"
        f"trials = {w.CURVES_TRIALS}\nvariants = {', '.join(w.CURVES_VARIANTS)}\n"
        f"n_values = {w.N}\nseed = {seed}\n")
    out = d / "curves"
    argv = ["curves", "--config", str(cfg), "--out", str(out), "--quiet"]

    def one_round():
        ok = pd.cli.main(argv) == 0
        return [ok] * (w.CURVES_TRIALS * len(w.CURVES_VARIANTS))

    def outputs():
        return {"truth": str(d / "truth.npy"), "csv": {
            v: str(out / f"curves_cameraman_sigma{w.NOISE_SIGMA:g}_{v}.csv")
            for v in w.CURVES_VARIANTS}}

    return one_round, outputs


def build_deblur_batch(pd, w, ck, d, seed):
    import numpy as np

    calls = []
    for i, (name, h, wd) in enumerate(w.DEBLUR_IMAGES):
        truth = pd.experiments.synthetic_image(name, max(h, wd))[:h, :wd]
        image = d / f"{name}.pgm"
        ck.write_pgm(image, truth)
        cfg = d / f"{name}.cfg"
        cfg.write_text(
            f"image = {image}\npsf_size = {w.PSF_SIZE}\npsf_sigma = {w.PSF_SIGMA}\n"
            f"noise_sigma = {w.NOISE_SIGMA}\nvariant = efista\nn = {w.N}\n"
            f"iterations = {w.DEBLUR_ITERS}\nseed = {100 * seed + i}\n")
        out = d / f"out_{name}"
        calls.append({"name": name, "input": str(image), "out": str(out),
                      "seed": 100 * seed + i,
                      "argv": ["deblur", "--config", str(cfg), "--out", str(out)]})
    first = calls[0]
    truth = ck.read_pgm(first["input"])
    taps = ck.gaussian_taps(w.PSF_SIZE, w.PSF_SIGMA)
    b = ck.blur(truth, taps) + ck.noise(truth.shape, w.NOISE_SIGMA, first["seed"])
    np.savez(d / "setup.npz", b=b, taps=taps, eta=1.0,
             levels=w.wavelet_levels(*truth.shape), matrix_free=False)

    def one_round():
        oks = []
        for call in calls:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = pd.cli.main(call["argv"])
            m = re.search(r"psnr=([-0-9.]+)dB", buf.getvalue())
            call["reported_psnr"] = float(m.group(1)) if m else None
            oks.append(rc == 0)
        return oks

    def outputs():
        return {"images": [{k: v for k, v in c.items() if k != "argv"} for c in calls]}

    return one_round, outputs


def build_nonsym_kernel(pd, w, ck, d, seed):
    import numpy as np

    size = w.NONSYM_SIZE
    truth = pd.experiments.synthetic_image("cameraman", size)
    taps = ck.gaussian_taps(w.NONSYM_PSF_SIZE, w.NONSYM_PSF_SIGMA, w.NONSYM_PSF_CENTRE)
    psf = pd.linop.Psf(size=w.NONSYM_PSF_SIZE, taps=taps)
    b = ck.blur(truth, taps) + ck.noise(truth.shape, w.NOISE_SIGMA, seed)
    levels = w.wavelet_levels(size, size)
    np.savez(d / "setup.npz", b=b, taps=taps, eta=w.NONSYM_ETA,
             levels=levels, matrix_free=True)
    cfgs = {v: solver_config(pd, True, variant=v, eta=w.NONSYM_ETA, lam=w.LAM,
                             n=w.N, max_iters=w.NONSYM_ITERS, wavelet_levels=levels)
            for v in w.NONSYM_VARIANTS}
    last = {"truth": truth, "b": b}

    def one_round():
        oks = []
        for v, cfg in cfgs.items():
            x, trace = pd.solvers.run_solver(cfg, b, psf, x0=b)
            obj = trace.objectives()
            last[f"x_{v}"] = x
            last[f"objective_{v}"] = obj
            last[f"data_{v}"] = trace.records[-1].data_term if len(trace) else np.nan
            oks.append(len(obj) == w.NONSYM_ITERS and bool(np.isfinite(obj).all()))
        return oks

    def outputs():
        np.savez(d / "nonsym.npz", **last)
        lam_max = pd.linop.lambda_max_AtA(psf, size, size)
        return {"npz": str(d / "nonsym.npz"), "lambda_max": float(lam_max)}

    return one_round, outputs


BUILDERS = {
    "curves": build_curves,
    "deblur_batch": build_deblur_batch,
    "nonsym_kernel": build_nonsym_kernel,
}


def timed_rounds(one_round, seconds, tracer=None):
    """Whole rounds until `seconds` have passed (at least one)."""
    times, oks = [], []
    end = time.perf_counter() + seconds
    while not times or time.perf_counter() < end:
        if tracer is not None:
            tracer.round += 1
        t0 = time.perf_counter()
        oks.append(one_round())
        times.append(time.perf_counter() - t0)
    return times, oks


def run(args):
    pd, import_s = import_program()
    import checks
    import tracing
    import workloads

    d = Path(args.dir)
    one_round, outputs = BUILDERS[args.workload](pd, workloads, checks, d, args.seed)
    result = {"import_s": import_s}
    if args.trace:
        times, oks = timed_rounds(one_round, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, traced_oks = timed_rounds(one_round, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        tracer.dump(ROOT / ".perfbench_out" / f"spans-{args.workload}.jsonl")
        result["traced_rounds_s"] = traced
        result["layers"] = tracer.summary(len(traced))
        oks += traced_oks
    else:
        times, oks = timed_rounds(one_round, args.seconds)
    result.update(
        rounds_s=times,
        attempted=sum(len(r) for r in oks),
        failed=sum(not ok for r in oks for ok in r),
        last_ok=oks[-1],
        outputs=outputs(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    with open(d / "result.json", "w", encoding="utf-8") as f:
        json.dump(result, f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("run", "setup"))
    ap.add_argument("--dir", required=True)
    ap.add_argument("--workload", choices=tuple(BUILDERS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.mode == "setup":
        setup(args)
    else:
        run(args)


if __name__ == "__main__":
    main()
