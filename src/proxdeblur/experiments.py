"""Benchmark harness: noise injection, PSNR, convergence curves, p sweeps,
and the averaged PSNR table, with CSV emission for external plotting.

All runs are deterministic per (scenario, seed): trial t of a scenario uses
seed + t, so re-running a scenario reproduces every CSV byte for byte apart
from the wall-clock columns.  _run_trials runs the trials of one setting in
a thread pool and returns them in trial order; _curve_row formats every
convergence CSV row, per trial and across-trial mean alike.
"""

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .linop import blur_apply, idct2, make_gaussian_psf
from .pgmio import read_pgm
from .solvers import SolverConfig, Variant, psnr, run_solver, runs_diverged

__all__ = [
    "STANDARD_IMAGES",
    "CURVE_HEADER",
    "TABLE_HEADER",
    "Scenario",
    "ResultTable",
    "TableRow",
    "PSweepPoint",
    "PSweepResult",
    "add_awgn",
    "synthetic_image",
    "load_image",
    "run_convergence_test",
    "run_p_sweep",
    "run_psnr_table",
]

STANDARD_IMAGES = ("cameraman", "lena", "barbara", "pirate", "peppers")

CURVE_HEADER = "iter,variant,n,p,trial,objective,psnr,seconds"
TABLE_HEADER = "image,sigma,algorithm,iters,psnr_mean,psnr_std,secs_mean"


def add_awgn(x, sigma, seed):
    """Add white Gaussian noise of standard deviation sigma, seeded."""
    if not math.isfinite(sigma) or sigma < 0:
        raise ValueError(f"noise sigma must be nonnegative and finite, got {sigma}")
    x = np.asarray(x, dtype=float)
    if sigma == 0:
        return x.copy()
    rng = np.random.default_rng(seed)
    return x + sigma * rng.standard_normal(x.shape)


def synthetic_image(image_id, size=256):
    """Deterministic portrait-like test scene derived from the image name.

    A tilted sky gradient, one large dark figure, a few mid-scale ellipses,
    small bright/dark rectangles, two striped patches, a 1/f texture field
    and a light stipple, clipped to [0, 1].  The same name always yields the
    same image, so benchmarks run with zero external assets.
    """
    if size < 16:
        raise ValueError(f"size must be at least 16, got {size}")
    n = size
    seed = int(np.uint32(sum((i + 1) * b for i, b in enumerate(image_id.encode()))))
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:n, 0:n] / (n - 1)
    ang = rng.uniform(-0.4, 0.4)
    img = 0.75 - 0.35 * (yy + ang * (xx - 0.5))
    cx, cy = rng.uniform(0.3, 0.7), rng.uniform(0.45, 0.65)
    r1, r2 = rng.uniform(0.12, 0.2), rng.uniform(0.25, 0.38)
    figv = rng.uniform(0.05, 0.25)
    u = xx - cx
    w = yy - cy
    img[(u / r1) ** 2 + (w / r2) ** 2 < 1.0] = figv
    for _ in range(6):
        cx, cy = rng.uniform(0.1, 0.9, 2)
        r1, r2 = rng.uniform(0.03, 0.12, 2)
        th = rng.uniform(0, math.pi)
        v = rng.uniform(0.1, 0.9)
        u = (xx - cx) * math.cos(th) + (yy - cy) * math.sin(th)
        w = -(xx - cx) * math.sin(th) + (yy - cy) * math.cos(th)
        img[(u / r1) ** 2 + (w / r2) ** 2 < 1.0] = v
    # rectangle placement bounds shrink on small canvases but are unchanged
    # for the usual sizes, so standard images stay reproducible
    olo, ohi = (4, n - 24) if n >= 48 else (1, max(6, n // 2))
    slo, shi = (3, 20) if n >= 48 else (2, max(4, n // 4))
    for _ in range(18):
        x0, y0 = rng.integers(olo, ohi, 2)
        w0, h0 = rng.integers(slo, shi, 2)
        img[y0:y0 + h0, x0:x0 + w0] = rng.uniform(0.1, 0.9)
    ypix, xpix = np.mgrid[0:n, 0:n].astype(float)
    for _ in range(2):
        cx, cy = rng.uniform(0.2, 0.8, 2)
        r1, r2 = rng.uniform(0.06, 0.12, 2)
        rot = rng.uniform(0, math.pi)
        th = rng.uniform(0, math.pi)
        period = rng.uniform(4.0, 7.0)
        ph = rng.uniform(0, 2 * math.pi)
        u = (xx - cx) * math.cos(rot) + (yy - cy) * math.sin(rot)
        w = -(xx - cx) * math.sin(rot) + (yy - cy) * math.cos(rot)
        mask = (u / r1) ** 2 + (w / r2) ** 2 < 1.0
        pat = 0.3 * np.sin(2 * math.pi * (math.cos(th) * xpix + math.sin(th) * ypix) / period + ph)
        img[mask] += pat[mask]
    fy = np.arange(n)[:, None]
    fx = np.arange(n)[None, :]
    fr = np.sqrt(fy * fy + fx * fx)
    spec = rng.standard_normal((n, n)) / (1.0 + fr)
    spec[0, 0] = 0.0
    field_ = idct2(spec)
    field_ /= field_.std()
    img += 0.03 * field_
    img += 0.008 * rng.standard_normal((n, n))
    return np.clip(img, 0.0, 1.0)


def load_image(image_id, images_dir=None, size=256):
    """Load <images_dir>/<image_id>.pgm, or fall back to the synthetic scene.

    With images_dir given, a missing file is an error (no silent fallback).
    This is the one place that checks that an image file exists.
    """
    if images_dir is not None:
        path = os.path.join(images_dir, f"{image_id}.pgm")
        if not os.path.exists(path):
            raise FileNotFoundError(f"image not found: {path}")
        return read_pgm(path)
    return synthetic_image(image_id, size)


@dataclass
class Scenario:
    """One benchmark setting: image, blur, noise level and budgets.

    lam = None applies the default rule lambda = 10 * noise_sigma^2; K is
    the iteration budget of the unweighted baseline, and the weighted
    variants get K // iter_divisor iterations in the table benchmark.
    Trial t draws its noise from seed + t.
    """

    image_id: str
    noise_sigma: float
    K: int
    psf_size: int = 7
    psf_sigma: float = 4.0
    eta: float = 1.0
    lam: float | None = None
    n: int = 8
    iter_divisor: int = 3
    trials: int = 10
    seed: int = 0
    image_size: int = 256

    def __post_init__(self):
        for name in ("noise_sigma", "psf_sigma"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be nonnegative, got {self.noise_sigma}")
        if self.K < 0:
            raise ValueError(f"K must be >= 0, got {self.K}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.iter_divisor < 1:
            raise ValueError(f"iter_divisor must be >= 1, got {self.iter_divisor}")

    def resolved_lambda(self):
        return 10.0 * self.noise_sigma**2 if self.lam is None else self.lam

    def solver_config(self, variant, n, p, iters):
        """The SolverConfig of a run of this scenario; building it checks
        the settings, so callers build every config before the first run."""
        return SolverConfig(variant=variant, eta=self.eta, lam=self.resolved_lambda(),
                            n=n, p=p, max_iters=iters)


def _run_trial(truth, psf, scenario, cfg, trial):
    """(x, trace, b) of trial `trial` of cfg on scenario: b is truth blurred
    and with the noise of seed + trial, and the run starts from it."""
    b = add_awgn(blur_apply(psf, truth), scenario.noise_sigma, scenario.seed + trial)
    x, trace = run_solver(cfg, b, psf, x0=b, truth=truth)
    return x, trace, b


def _run_trials(truth, psf, scenario, cfg):
    """(x, trace, b) of every trial of cfg on scenario, in trial order, run
    on min(trials, cpu_count) threads."""
    with ThreadPoolExecutor(max_workers=min(scenario.trials, os.cpu_count() or 1)) as ex:
        return list(ex.map(partial(_run_trial, truth, psf, scenario, cfg),
                           range(scenario.trials)))


def _g17(v):
    return format(float(v), ".17g")


def _curve_row(k, cfg, trial, objective, psnr, seconds):
    """One convergence CSV row; a psnr of None or NaN prints blank."""
    ps = "" if psnr is None or math.isnan(psnr) else _g17(psnr)
    return (f"{k},{cfg.variant.value},{cfg.n},{_g17(cfg.p)},{trial},"
            f"{_g17(objective)},{ps},{_g17(seconds)}")


def format_trace_rows(trace, trial):
    """CSV rows (no header) for one trace, per the convergence schema, with
    variant, n and p from the trace's resolved config."""
    return [_curve_row(rec.iter, trace.config, trial, rec.objective, rec.psnr, rec.seconds)
            for rec in trace.records]


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(row + "\n")


def _trace_matrix(traces, iters, attr):
    out = np.full((len(traces), iters), np.nan)
    for t, trace in enumerate(traces):
        for rec in trace.records:
            val = getattr(rec, attr)
            if val is not None:
                out[t, rec.iter - 1] = val
    return out


def _nanmean_rows(mat):
    """Column means ignoring NaN; columns with no data stay NaN, no warnings."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return np.nanmean(mat, axis=0)


def run_convergence_test(scenario, variants, n_values, out_dir=None, images_dir=None):
    """Objective/PSNR traces per variant, per order n, per trial.

    Returns {variant: {n: {"objective", "psnr", "mean_objective", "diverged"}}}
    with (trials, K) arrays (NaN beyond a diverged trial's last iteration).
    With out_dir set, one CSV per variant is written containing every trial
    plus across-trial mean rows (trial column "mean").  Divergence is
    recorded in-band; the run always completes.
    """
    # per variant, one config per distinct order SolverConfig resolves n_values to
    configs = {}
    for variant in map(Variant, variants):
        cfgs = [scenario.solver_config(variant, n, None, scenario.K) for n in n_values]
        configs[variant] = {cfg.n: cfg for cfg in cfgs}
    psf = make_gaussian_psf(scenario.psf_size, scenario.psf_sigma)
    truth = load_image(scenario.image_id, images_dir, scenario.image_size)
    results = {}
    for variant, per_order in configs.items():
        per_n = {}
        rows = []
        for n, cfg in per_order.items():
            traces = [trace for _, trace, _ in _run_trials(truth, psf, scenario, cfg)]
            obj = _trace_matrix(traces, scenario.K, "objective")
            psn = _trace_matrix(traces, scenario.K, "psnr")
            mean_obj = _nanmean_rows(obj)
            mean_psn = _nanmean_rows(psn)
            mean_sec = _nanmean_rows(_trace_matrix(traces, scenario.K, "seconds"))
            per_n[n] = {
                "objective": obj,
                "psnr": psn,
                "mean_objective": mean_obj,
                "diverged": [tr.diverged for tr in traces],
            }
            for t, trace in enumerate(traces):
                rows.extend(format_trace_rows(trace, t))
            rows.extend(_curve_row(k + 1, traces[0].config, "mean", mean_obj[k],
                                   mean_psn[k], mean_sec[k])
                        for k in range(scenario.K) if not np.isnan(mean_obj[k]))
        results[variant.value] = per_n
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            name = (f"curves_{scenario.image_id}_sigma{scenario.noise_sigma:g}"
                    f"_{variant.value}.csv")
            write_csv(os.path.join(out_dir, name), CURVE_HEADER, rows)
    return results


@dataclass
class PSweepPoint:
    p: float
    objective: float
    diverged: bool


@dataclass
class PSweepResult:
    """Mean objective at the probe iteration, and a divergence tag, per p."""

    image_id: str
    n: int
    probe_iter: int
    points: list = field(default_factory=list)

    def divergence_frontier(self):
        """Smallest p from which on no run diverges (None if the largest does)."""
        frontier = None
        for pt in sorted(self.points, key=lambda q: q.p, reverse=True):
            if pt.diverged:
                break
            frontier = pt.p
        return frontier

    def argmin_objective(self):
        """The p whose probe-iteration objective is smallest."""
        best = min(self.points,
                   key=lambda q: q.objective if math.isfinite(q.objective) else math.inf)
        return best.p


def run_p_sweep(scenario, n, p_values, probe_iter, out_dir=None, images_dir=None):
    """Sweep the threshold scale p at fixed order n.

    For each p the scenario is run scenario.trials times for scenario.K
    iterations; the result records the across-trial mean objective at
    probe_iter and whether the mean trajectory diverged (ends more than 0.1%
    above its minimum, or blew up outright).  Emits a (p, objective) CSV.
    """
    if not 1 <= probe_iter <= scenario.K:
        raise ValueError(
            f"probe_iter must be in [1, K={scenario.K}], got {probe_iter}")
    configs = [scenario.solver_config(Variant.EFISTA, n, float(p), scenario.K)
               for p in p_values]
    psf = make_gaussian_psf(scenario.psf_size, scenario.psf_sigma)
    truth = load_image(scenario.image_id, images_dir, scenario.image_size)
    result = PSweepResult(image_id=scenario.image_id, n=n, probe_iter=probe_iter)
    for cfg in configs:
        traces = [trace for _, trace, _ in _run_trials(truth, psf, scenario, cfg)]
        mean_obj = _nanmean_rows(_trace_matrix(traces, scenario.K, "objective"))
        diverged = runs_diverged([tr.diverged for tr in traces], mean_obj)
        fprobe = float(mean_obj[probe_iter - 1])
        result.points.append(PSweepPoint(p=cfg.p, objective=fprobe, diverged=diverged))
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        name = f"psweep_{scenario.image_id}_n{n}.csv"
        rows = [f"{_g17(pt.p)},{_g17(pt.objective)}" for pt in result.points]
        write_csv(os.path.join(out_dir, name), "p,objective", rows)
    return result


@dataclass
class TableRow:
    image_id: str
    sigma: float
    algorithm: str
    iters: int
    psnr_mean: float
    psnr_std: float
    secs_mean: float


@dataclass
class ResultTable:
    rows: list = field(default_factory=list)

    def render(self):
        """Aligned plain-text table."""
        headers = ["image", "sigma", "algorithm", "iters",
                   "psnr_mean", "psnr_std", "secs_mean"]
        cells = [headers]
        for r in self.rows:
            cells.append([
                r.image_id, f"{r.sigma:g}", r.algorithm, str(r.iters),
                f"{r.psnr_mean:.2f}", f"{r.psnr_std:.2f}", f"{r.secs_mean:.3f}",
            ])
        widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
        lines = []
        for row in cells:
            lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)


def run_psnr_table(scenarios, out_dir=None, images_dir=None):
    """Averaged final PSNR per algorithm: the baseline at K iterations, the
    weighted variants at K // iter_divisor.  Every setting is checked, then
    each distinct (image, size) is loaded once, before the first run.

    Returns a ResultTable; with out_dir set also writes table.csv and the
    rendered table.txt.
    """
    configs = []
    for sc in scenarios:
        kw = max(sc.K // sc.iter_divisor, 1) if sc.K > 0 else 0
        algs = [("FISTA", Variant.FISTA, sc.K), ("IFISTA", Variant.IFISTA, kw),
                ("EFISTA", Variant.EFISTA, kw)]
        configs.append((make_gaussian_psf(sc.psf_size, sc.psf_sigma),
                        [(name, sc.solver_config(variant, sc.n, None, iters))
                         for name, variant, iters in algs]))
    truths = {key: load_image(key[0], images_dir, key[1])
              for key in dict.fromkeys((sc.image_id, sc.image_size) for sc in scenarios)}
    table = ResultTable()
    for sc, (psf, algs) in zip(scenarios, configs):
        truth = truths[sc.image_id, sc.image_size]
        for name, cfg in algs:
            runs = _run_trials(truth, psf, sc, cfg)
            psnrs = np.array([psnr(x, truth) for x, _, _ in runs])
            secs = np.array([sum(rec.seconds for rec in tr.records) for _, tr, _ in runs])
            table.rows.append(TableRow(
                image_id=sc.image_id, sigma=sc.noise_sigma, algorithm=name,
                iters=cfg.max_iters, psnr_mean=float(psnrs.mean()),
                psnr_std=float(psnrs.std()), secs_mean=float(secs.mean()),
            ))
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        rows = [
            f"{r.image_id},{_g17(r.sigma)},{r.algorithm},{r.iters},"
            f"{_g17(r.psnr_mean)},{_g17(r.psnr_std)},{_g17(r.secs_mean)}"
            for r in table.rows
        ]
        write_csv(os.path.join(out_dir, "table.csv"), TABLE_HEADER, rows)
        with open(os.path.join(out_dir, "table.txt"), "w", encoding="utf-8",
                  newline="\n") as f:
            f.write(table.render() + "\n")
    return table
