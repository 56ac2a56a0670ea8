"""Benchmark harness: noise injection, PSNR, convergence curves, p sweeps,
and the averaged PSNR table, with CSV emission for external plotting.

All runs are deterministic per (scenario, seed): trial t of a scenario uses
seed + t, so re-running a scenario reproduces every CSV byte for byte apart
from the wall-clock columns.  run_settings is the one runner of every
command: it builds the inputs once, runs each setting's trials and gives
each setting's per-iteration curves and its divergence verdict; curve_rows
formats every convergence CSV row, per trial and across-trial mean alike,
and TABLE_HEADER names the columns of table.csv and the rendered table.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .linop import (blur_apply, idct2, make_gaussian_psf, require_finite,
                    require_gaussian_sigma, require_int)
from .pgmio import read_pgm
from .solvers import SolverConfig, Variant, psnr, run_solver, runs_diverged
from .wavelet import wavelet_depth
from .weighting import operator_plan

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
    "run_settings",
    "curve_rows",
    "run_convergence_test",
    "run_p_sweep",
    "run_psnr_table",
]

STANDARD_IMAGES = ("cameraman", "lena", "barbara", "pirate", "peppers")

CURVE_HEADER = "iter,variant,n,p,trial,objective,psnr,seconds"
TABLE_HEADER = "image,sigma,algorithm,iters,psnr_mean,psnr_std,secs_mean"


@dataclass
class Scenario:
    """One benchmark setting: image, blur, noise level and budgets.

    The field defaults are the config's (cli._KEYS reads them); eta and K
    read SolverConfig's.  lam = None applies the rule lambda = 10 *
    noise_sigma^2, resolved here because it needs the noise level, and a
    noise_sigma for which the rule overflows is rejected.  K is the
    iteration budget of the unweighted baseline, and the weighted variants
    get K // iter_divisor iterations in the table benchmark.  Trial t
    draws its noise from seed + t.
    """

    image_id: str
    noise_sigma: float = 0.01
    K: int = SolverConfig.max_iters
    psf_size: int = 7
    psf_sigma: float = 4.0
    eta: float = SolverConfig.eta
    lam: float | None = None
    n: int = 8
    iter_divisor: int = 3
    trials: int = 10
    seed: int = 0
    image_size: int = 256

    def __post_init__(self):
        for name in ("noise_sigma", "psf_sigma"):
            require_finite(name, getattr(self, name))
        require_gaussian_sigma("psf_sigma", self.psf_sigma)
        for name in ("K", "trials", "seed", "iter_divisor", "psf_size", "image_size"):
            require_int(name, getattr(self, name))
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be nonnegative, got {self.noise_sigma}")
        sigma = float(self.noise_sigma)  # a float product: ** would raise on overflow
        if self.lam is None and not 10.0 * (sigma * sigma) < math.inf:
            raise ValueError(f"noise_sigma = {sigma!r} is too large for lambda = auto"
                             " (10 noise_sigma^2 overflows)")
        if self.K < 0:
            raise ValueError(f"K must be >= 0, got {self.K}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.iter_divisor < 1:
            raise ValueError(f"iter_divisor must be >= 1, got {self.iter_divisor}")

    def resolved_lambda(self):
        return 10.0 * self.noise_sigma**2 if self.lam is None else self.lam

    def solver_config(self, variant, n, p, iters):
        """The SolverConfig of a run of this scenario; building it checks
        the settings, so callers build every config before the first run."""
        return SolverConfig(variant=variant, eta=self.eta, lam=self.resolved_lambda(),
                            n=n, p=p, max_iters=iters)


def add_awgn(x, sigma, seed):
    """Add white Gaussian noise of standard deviation sigma, seeded."""
    if not math.isfinite(sigma) or sigma < 0:
        raise ValueError(f"noise sigma must be nonnegative and finite, got {sigma}")
    x = np.asarray(x, dtype=float)
    if sigma == 0:
        return x.copy()
    rng = np.random.default_rng(seed)
    return x + sigma * rng.standard_normal(x.shape)


def synthetic_image(image_id, size=Scenario.image_size):
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


def load_image(image_id, images_dir=None, size=Scenario.image_size):
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


def _run_trial(truth, psf, scenario, cfg, trial):
    """(x, trace, b, psnr of x) of trial `trial` of cfg on scenario: b is truth
    blurred and with the noise of seed + trial, and the run starts from it."""
    b = add_awgn(blur_apply(psf, truth), scenario.noise_sigma, scenario.seed + trial)
    x, trace = run_solver(cfg, b, psf, x0=b, truth=truth)
    return x, trace, b, psnr(x, truth)


def _run_setting(truth, psf, scenario, cfg):
    """(runs, curves, diverged) of one setting; see run_settings."""
    trial = partial(_run_trial, truth, psf, scenario, cfg)
    workers = min(scenario.trials, os.cpu_count() or 1)
    if workers == 1:
        runs = [trial(t) for t in range(scenario.trials)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            runs = list(ex.map(trial, range(scenario.trials)))
    traces = [trace for _, trace, _, _ in runs]
    longest = max(len(trace) for trace in traces)
    curves = {}
    for attr in ("objective", "psnr", "seconds"):
        mat = curves[attr] = np.full((len(traces) + 1, cfg.max_iters), np.nan)
        for t, trace in enumerate(traces):
            mat[t, :len(trace)] = trace.records[attr]
        # a column no trial reached stays NaN
        mat[-1, :longest] = np.nanmean(mat[:-1, :longest], axis=0)
    return runs, curves, runs_diverged([tr.diverged for tr in traces], curves["objective"][-1])


def run_settings(settings, images_dir=None):
    """Run a list of (scenario, cfg) settings; yield (runs, curves, diverged)
    per setting, in order.

    Each distinct kernel and (image, size) is built once.  Before the
    first run each setting's image is checked against its wavelet depth,
    and against its kernel and step size by building the setting's operator
    plan, which the kernel keeps for the runs; a ValueError names the
    image.  runs: _run_trial per trial, on min(trials, cpu_count) threads
    (one worker: the calling thread).
    curves: objective, psnr and seconds as (trials + 1, max_iters) arrays,
    row t trial t (NaN past its last record), the last row the across-trial
    NaN mean over the columns some trial reached (NaN after them).
    diverged: runs_diverged on that mean.  No runs are kept once yielded;
    callers drop them before the next.
    """
    psfs = {key: make_gaussian_psf(*key)
            for key in dict.fromkeys((sc.psf_size, sc.psf_sigma) for sc, _ in settings)}
    truths = {key: load_image(key[0], images_dir, key[1])
              for key in dict.fromkeys((sc.image_id, sc.image_size) for sc, _ in settings)}
    for sc, cfg in settings:
        shape = truths[sc.image_id, sc.image_size].shape
        try:
            # the plan checks the kernel fit and the eta bound
            operator_plan(psfs[sc.psf_size, sc.psf_sigma], shape, cfg.eta, cfg.n)
            wavelet_depth(shape)
        except ValueError as exc:
            raise ValueError(f"image {sc.image_id}: {exc}") from None
    for sc, cfg in settings:
        yield _run_setting(truths[sc.image_id, sc.image_size],
                           psfs[sc.psf_size, sc.psf_sigma], sc, cfg)


def _g17(v):
    return format(float(v), ".17g")


def curve_rows(cfg, curves, labels):
    """Convergence CSV rows (no header): row r of the curves arrays under
    trial label labels[r], one row per iteration with a record; variant, n
    and p come from the resolved cfg, and a NaN psnr prints blank."""
    head = f"{cfg.variant.value},{cfg.n},{_g17(cfg.p)}"
    obj, psn, sec = curves["objective"], curves["psnr"], curves["seconds"]
    return [f"{k + 1},{head},{label},{_g17(obj[r, k])},"
            f"{'' if math.isnan(psn[r, k]) else _g17(psn[r, k])},{_g17(sec[r, k])}"
            for r, label in enumerate(labels) for k in range(obj.shape[1])
            if not math.isnan(obj[r, k])]


def write_csv(path, header, rows):
    """Write header and rows to path, making its directory if missing."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(row + "\n")


def run_convergence_test(scenario, variants, n_values, out_dir=None, images_dir=None):
    """Objective/PSNR traces per variant, per order n, per trial.

    Returns {variant: {n: {"objective", "psnr", "mean_objective", "diverged"}}}
    with (trials, K) arrays (NaN beyond a diverged trial's last iteration)
    and the setting's divergence verdict.  With out_dir set, one CSV per
    variant is written containing every trial plus across-trial mean rows
    (trial column "mean").  Divergence is recorded in-band; the run always
    completes.
    """
    # one config per distinct (variant, order) SolverConfig resolves them to
    configs = {(cfg.variant.value, cfg.n): cfg for cfg in (
        scenario.solver_config(v, n, None, scenario.K) for v in variants for n in n_values)}
    results = run_settings([(scenario, cfg) for cfg in configs.values()], images_dir)
    labels = [*range(scenario.trials), "mean"]
    out, rows = {}, {}
    for variant, n in configs:
        runs, curves, diverged = next(results)
        resolved = runs[0][1].config
        del runs  # no setting's iterates outlive it
        out.setdefault(variant, {})[n] = {
            "objective": curves["objective"][:-1], "psnr": curves["psnr"][:-1],
            "mean_objective": curves["objective"][-1], "diverged": diverged}
        rows.setdefault(variant, []).extend(curve_rows(resolved, curves, labels))
    if out_dir is not None:
        for variant, variant_rows in rows.items():
            name = f"curves_{scenario.image_id}_sigma{scenario.noise_sigma:g}_{variant}.csv"
            write_csv(os.path.join(out_dir, name), CURVE_HEADER, variant_rows)
    return out


@dataclass
class PSweepPoint:
    p: float
    objective: float
    diverged: bool


@dataclass
class PSweepResult:
    """Mean objective at the probe iteration, and a divergence tag, per p."""

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
    results = run_settings([(scenario, cfg) for cfg in configs], images_dir)
    result = PSweepResult()
    for cfg in configs:
        curves, diverged = next(results)[1:]  # no setting's iterates outlive it
        fprobe = float(curves["objective"][-1, probe_iter - 1])
        result.points.append(PSweepPoint(p=cfg.p, objective=fprobe, diverged=diverged))
    if out_dir is not None:
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
        cells = [TABLE_HEADER.split(",")]
        for r in self.rows:
            cells.append([
                r.image_id, f"{r.sigma:g}", r.algorithm, str(r.iters),
                f"{r.psnr_mean:.2f}", f"{r.psnr_std:.2f}", f"{r.secs_mean:.3f}",
            ])
        widths = [max(map(len, column)) for column in zip(*cells)]
        return "\n".join("  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in cells)


def run_psnr_table(scenarios, out_dir=None, images_dir=None):
    """Averaged final PSNR per algorithm: the baseline at K iterations, the
    weighted variants at K // iter_divisor.  Every setting is checked before
    run_settings builds the inputs and runs the first trial.

    Returns a ResultTable; with out_dir set also writes table.csv and the
    rendered table.txt.
    """
    settings = []
    for sc in scenarios:
        kw = max(sc.K // sc.iter_divisor, 1) if sc.K > 0 else 0
        algs = [("FISTA", Variant.FISTA, sc.K), ("IFISTA", Variant.IFISTA, kw),
                ("EFISTA", Variant.EFISTA, kw)]
        settings += [(sc, name, sc.solver_config(variant, sc.n, None, iters))
                     for name, variant, iters in algs]
    results = run_settings([(sc, cfg) for sc, _, cfg in settings], images_dir)
    table = ResultTable()
    for sc, name, cfg in settings:
        runs, curves, _ = next(results)
        psnrs = np.array([final for *_, final in runs])
        del runs  # no setting's iterates outlive it
        secs = np.nansum(curves["seconds"][:-1], axis=1)
        table.rows.append(TableRow(
            image_id=sc.image_id, sigma=sc.noise_sigma, algorithm=name,
            iters=cfg.max_iters, psnr_mean=float(psnrs.mean()),
            psnr_std=float(psnrs.std()), secs_mean=float(secs.mean()),
        ))
    if out_dir is not None:
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
