"""Benchmark of proxdeblur: one workload per run, checked, with its metrics.

    python3 perfbench/run.py --workload curves --seed 0 --seconds 30 --trace 0

Run from anywhere; the program is imported from src/ next to this directory.
The run starts the workload in its own process (worker.py), which repeats
whole rounds of operations for --seconds and leaves its outputs in a
scratch directory under .perfbench_out/.  With --trace 0 it then times
fresh set-up processes; with --trace 1 the worker also records per-layer
spans.  The outputs are checked against the independent computations in
checks.py, and the last line printed is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit code 1, with no result, when the program cannot be found or a process
fails or times out.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import checks as ck
import workloads as w

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
WORKER_TIMEOUT_S = 120
SETUP_TIMEOUT_S = 15


class RunError(Exception):
    """A worker process failed or timed out."""


def worker(argv, timeout):
    cmd = [sys.executable, str(HERE / "worker.py")] + argv
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunError(f"{' '.join(argv[:3])}: no result after {timeout} s") from None
    if proc.returncode != 0:
        raise RunError(f"{' '.join(argv[:3])} exited {proc.returncode}:\n"
                       f"{proc.stdout}{proc.stderr}")


def setup_seconds(work):
    """Launch-to-exit time of a fresh process that imports the program and
    makes the workload's first run_solver call with max_iters=0."""
    t0 = time.perf_counter()
    worker(["setup", "--dir", str(work)], SETUP_TIMEOUT_S)
    return time.perf_counter() - t0


# --- checks per workload; each returns (psnr_db, failed check messages), with
# psnr_db 0 when no efista run of the last round succeeded

def _collect(errors, check, *args):
    try:
        check(*args)
    except ck.CheckError as exc:
        errors.append(str(exc))


def check_curves(seed, out, last_ok):
    errors = []
    truth = np.load(out["truth"])
    taps = ck.gaussian_taps(w.PSF_SIZE, w.PSF_SIGMA)
    inputs_db = [ck.psnr(ck.blur(truth, taps) + ck.noise(truth.shape, w.NOISE_SIGMA, seed + t),
                         truth) for t in range(w.CURVES_TRIALS)]
    final = {}
    for v, path in out["csv"].items():
        rows = ck.read_curve_rows(path)
        _collect(errors, ck.check_mean_rows, rows, v)
        if v == "efista":
            _collect(errors, ck.check_settles, ck.mean_objective(rows, v), v)
        final[v] = [float(r["psnr"]) for r in rows
                    if r["trial"] != "mean" and int(r["iter"]) == w.CURVES_ITERS]
        if len(final[v]) != w.CURVES_TRIALS and all(last_ok):
            errors.append(f"{v}: {len(final[v])} of {w.CURVES_TRIALS} trials reached "
                          f"iteration {w.CURVES_ITERS}")
        for t, db in enumerate(final[v]):
            _collect(errors, ck.check_beats_input, db, inputs_db[t], f"{v} trial {t}")
    return float(np.mean(final["efista"])) if final["efista"] else 0.0, errors


def check_deblur_batch(seed, out, last_ok):
    errors = []
    taps = ck.gaussian_taps(w.PSF_SIZE, w.PSF_SIGMA)
    psnrs = []
    for im, ok in zip(out["images"], last_ok):
        if not ok:
            continue
        label = im["name"]
        truth = ck.read_pgm(im["input"])
        blurred = ck.read_pgm(Path(im["out"]) / "blurred.pgm")
        x = ck.read_pgm(Path(im["out"]) / "deblurred.pgm")
        _collect(errors, ck.check_forward_model, blurred, truth, taps, w.NOISE_SIGMA,
                 im["seed"], label)
        _collect(errors, ck.check_reported_psnr, im["reported_psnr"], x, truth, label)
        psnrs.append(ck.psnr(x, truth))
        _collect(errors, ck.check_beats_input, psnrs[-1], ck.psnr(blurred, truth), label)
    return float(np.mean(psnrs)) if psnrs else 0.0, errors


def check_nonsym_kernel(seed, out, last_ok):
    errors = []
    size = w.NONSYM_SIZE
    taps = ck.gaussian_taps(w.NONSYM_PSF_SIZE, w.NONSYM_PSF_SIGMA, w.NONSYM_PSF_CENTRE)
    res = np.load(out["npz"])
    truth, b = res["truth"], res["b"]
    psnrs = {}
    for v, ok in zip(w.NONSYM_VARIANTS, last_ok):
        if not ok:
            continue
        x = res[f"x_{v}"]
        psnrs[v] = ck.psnr(x, truth)
        if v == "ista":
            _collect(errors, ck.check_descent, res[f"objective_{v}"], v)
        _collect(errors, ck.check_data_term, x, b, taps, float(res[f"data_{v}"]), v)
        _collect(errors, ck.check_beats_input, psnrs[v], ck.psnr(b, truth), v)
    _collect(errors, ck.check_lambda_max, out["lambda_max"], taps, size, size)
    return psnrs.get("efista", 0.0), errors


CHECKS = {
    "curves": check_curves,
    "deblur_batch": check_deblur_batch,
    "nonsym_kernel": check_nonsym_kernel,
}


def run(args, work):
    worker(["run", "--workload", args.workload, "--seed", str(args.seed),
            "--dir", str(work), "--seconds", str(args.seconds),
            "--trace", str(args.trace)], WORKER_TIMEOUT_S)
    with open(work / "result.json", encoding="utf-8") as f:
        res = json.load(f)
    psnr_db, errors = CHECKS[args.workload](args.seed, res["outputs"], res["last_ok"])
    for msg in errors:
        print(f"check failed: {msg}", file=sys.stderr)
    wall = statistics.median(res["rounds_s"])
    if args.trace:
        metrics = {k: (v, "count" if k.endswith(".calls") else
                       "ratio" if k.endswith("useful_ratio") else
                       "ms" if ".step_ms." in k else "s")
                   for k, v in res["layers"].items()}
        metrics["package.import_s"] = (res["import_s"], "s")
        metrics["tracing.overhead_s"] = (statistics.median(res["traced_rounds_s"]) - wall, "s")
    else:
        setup = statistics.median(setup_seconds(work) for _ in range(SETUP_REPEATS))
        metrics = {
            "setup_s": (setup, "s"),
            "wall_s": (wall, "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
            "psnr_db": (psnr_db, "dB"),
        }
    return {
        "correct": not errors,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main():
    ap = argparse.ArgumentParser(description="Run one proxdeblur benchmark workload.")
    ap.add_argument("--workload", required=True, choices=w.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "proxdeblur" / "__init__.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'proxdeblur'}", file=sys.stderr)
        return 1
    base = ROOT / ".perfbench_out"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    try:
        result = run(args, work)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
