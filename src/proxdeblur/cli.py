"""Command-line harness: single deblur runs, convergence curves, threshold
sweeps and the averaged PSNR table, driven by plain-text config files.

_KEYS is the one table of config keys: each key's parser, default and the
Scenario field it sets, whose default it reads.  Every command builds all
its solver configs and then goes through experiments.run_settings, which
builds each kernel and loads each image once before the first run, so a
bad setting exits 1 before any run.

Exit codes: 0 success, 1 usage/config/I-O error, 2 when deblur or curves
judges a run diverged (artifacts are still written so the failure can be
inspected).  sweep reports divergence per p in its output and exits 0;
table does not judge divergence.  Every input error reaches main as a
ValueError, or an OSError from a file, and a run too large to allocate as
a MemoryError; main prints each on one line, the last with the size,
iterations and trials it was given, and exits 1.
"""

import argparse
import dataclasses
import functools
import os
import sys

import numpy as np

from .experiments import (
    CURVE_HEADER,
    STANDARD_IMAGES,
    Scenario,
    curve_rows,
    run_convergence_test,
    run_p_sweep,
    run_psnr_table,
    run_settings,
    write_csv,
)
from .pgmio import write_pgm

__all__ = ["parse_config", "main", "cmd_deblur", "cmd_curves", "cmd_sweep", "cmd_table"]


def _auto_float(text):
    return None if text == "auto" else float(text)


def _nonempty(text):
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def _count(text):
    count = int(text)
    if count < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return count


def _list_of(parse):
    def parse_list(text):
        return tuple(parse(item.strip()) for item in text.split(",") if item.strip())
    return parse_list


# key -> (parser, default, the Scenario field it sets or None); list values
# are tuples, so no parsed config shares a mutable default
_KEYS = {
    "image": (str, "synthetic:cameraman", None),
    "size": (int, Scenario.image_size, "image_size"),
    "psf_size": (int, Scenario.psf_size, "psf_size"),
    "psf_sigma": (float, Scenario.psf_sigma, "psf_sigma"),
    "noise_sigma": (float, Scenario.noise_sigma, "noise_sigma"),
    "variant": (str, "fista", None),
    "n": (int, Scenario.n, "n"),
    "p": (_auto_float, None, None),
    "eta": (float, Scenario.eta, "eta"),
    "lambda": (_auto_float, Scenario.lam, "lam"),
    "iterations": (_count, Scenario.K, "K"),
    "trials": (int, Scenario.trials, "trials"),
    "seed": (_count, Scenario.seed, "seed"),
    "out": (_nonempty, "out", None),
    "images": (_list_of(str), STANDARD_IMAGES, None),
    "images_dir": (str, None, None),
    "noise_levels": (_list_of(float), (0.01, 0.001), None),
    "K_values": (_list_of(_count), (45, 180), None),
    "iter_divisor": (int, Scenario.iter_divisor, "iter_divisor"),
    "variants": (_list_of(str), ("fista", "ifista", "efista"), None),
    "n_values": (_list_of(int), (Scenario.n,), None),
    "p_values": (_list_of(float), tuple(float(p) for p in range(1, 9)), None),
    "probe_iter": (int, 15, None),
}


def parse_config(path):
    """Parse a key = value config file; unknown keys, bad values and empty
    lists are rejected with the offending line number."""
    cfg = {key: default for key, (_, default, _) in _KEYS.items()}
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise ValueError(f"cannot read config: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key '{key}'")
        try:
            cfg[key] = _KEYS[key][0](value)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            raise ValueError(f"{path}:{lineno}: bad value {value!r} for '{key}'") from None
        if cfg[key] == ():
            raise ValueError(f"{path}:{lineno}: empty list for '{key}'")
    return cfg


def _image_source(cfg):
    """Resolve the image key to (image_id, images_dir or None for synthetic).

    Only the syntax is checked here; load_image checks that the file exists.
    """
    image = cfg["image"]
    if image.startswith("synthetic:"):
        name = image.split(":", 1)[1]
        if not name:
            raise ValueError("empty synthetic image name")
        return name, None
    if not image.endswith(".pgm"):
        raise ValueError(f"image must be 'synthetic:<name>' or a .pgm path, got '{image}'")
    return os.path.basename(image)[:-4], os.path.dirname(image) or "."


def _check_out(out):
    """Reject an out that is, or lies under, an existing file, before any run."""
    path = os.path.abspath(out)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ValueError(f"out: {path} exists and is not a directory")


def _scenario(cfg, image_id):
    fields = {field: cfg[key] for key, (_, _, field) in _KEYS.items() if field}
    return Scenario(image_id=image_id, **fields)


def cmd_deblur(cfg, quiet=False):
    """Blur, add noise, solve once (trial 0 of the scenario, run as a
    one-trial setting), write blurred/deblurred PGMs + trace CSV."""
    image_id, images_dir = _image_source(cfg)
    scenario = dataclasses.replace(_scenario(cfg, image_id), trials=1)
    solver_cfg = scenario.solver_config(cfg["variant"], scenario.n, cfg["p"], scenario.K)
    [(runs, curves, diverged)] = run_settings([(scenario, solver_cfg)], images_dir)
    [(x, trace, b, final_psnr)] = runs
    out = cfg["out"]
    write_csv(os.path.join(out, "trace.csv"), CURVE_HEADER,
              curve_rows(trace.config, curves, [0]))
    write_pgm(os.path.join(out, "blurred.pgm"), b)
    write_pgm(os.path.join(out, "deblurred.pgm"), x)
    if not quiet:
        final = trace.records.objective[-1] if len(trace) else float("nan")
        print(
            f"{trace.config.variant.value} n={trace.config.n} p={trace.config.p:g}"
            f" iters={len(trace)}"
            f" objective={final:.6g} psnr={final_psnr:.2f}dB"
            f" diverged={'yes' if diverged else 'no'}"
        )
    return 2 if diverged else 0


def cmd_curves(cfg, quiet=False):
    """Convergence traces for several variants/orders, one CSV per variant."""
    image_id, images_dir = _image_source(cfg)
    scenario = _scenario(cfg, image_id)
    results = run_convergence_test(
        scenario, cfg["variants"], cfg["n_values"],
        out_dir=cfg["out"], images_dir=images_dir)
    exit_code = 0
    for variant, per_n in results.items():
        for n, data in per_n.items():
            if data["diverged"]:
                exit_code = 2
            if not quiet:
                curve = data["mean_objective"]
                curve = curve[~np.isnan(curve)]
                tail = curve[-1] if curve.size else float("nan")
                print(f"{variant} n={n}: {scenario.trials} trials,"
                      f" final mean objective {tail:.6g}"
                      f"{', DIVERGED' if data['diverged'] else ''}")
    if not quiet:
        print(f"curves written to {cfg['out']}")
    return exit_code


def cmd_sweep(cfg, quiet=False):
    """Threshold-scale sweep at fixed order n; CSV of (p, objective)."""
    image_id, images_dir = _image_source(cfg)
    scenario = _scenario(cfg, image_id)
    result = run_p_sweep(
        scenario, scenario.n, cfg["p_values"], cfg["probe_iter"],
        out_dir=cfg["out"], images_dir=images_dir)
    if not quiet:
        for pt in result.points:
            mark = " diverged" if pt.diverged else ""
            print(f"p={pt.p:g} objective={pt.objective:.6g}{mark}")
        frontier = result.divergence_frontier()
        print(f"frontier={'none' if frontier is None else f'{frontier:g}'}"
              f" argmin={result.argmin_objective():g}")
    return 0


def cmd_table(cfg, quiet=False):
    """Averaged PSNR table across images and noise levels."""
    if len(cfg["noise_levels"]) != len(cfg["K_values"]):
        raise ValueError(
            f"noise_levels has {len(cfg['noise_levels'])} entries but"
            f" K_values has {len(cfg['K_values'])}")
    scenarios = [
        dataclasses.replace(_scenario(cfg, image_id), noise_sigma=sigma, K=k)
        for image_id in cfg["images"]
        for sigma, k in zip(cfg["noise_levels"], cfg["K_values"])]
    table = run_psnr_table(scenarios, out_dir=cfg["out"], images_dir=cfg["images_dir"])
    if not quiet:
        print(table.render())
    return 0


_COMMANDS = {
    "deblur": (cmd_deblur, "run one solver on one image and write the results"),
    "curves": (cmd_curves, "objective/PSNR traces for several variants"),
    "sweep": (cmd_sweep, "sweep the shrinkage scale p at fixed order n"),
    "table": (cmd_table, "averaged PSNR table across images and noise levels"),
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; reserve 2 for divergence.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _parser():
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and a batch of main calls would otherwise rebuild it each time."""
    parser = _Parser(
        prog="proxdeblur",
        description="Proximal-gradient deblurring benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="path to a key = value config file")
        sp.add_argument("--out", type=_nonempty, default=None,
                        help="output directory (overrides config)")
        sp.add_argument("--seed", type=_count, default=None, help="base seed (overrides config)")
        sp.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.out is not None:
            cfg["out"] = args.out
        if args.seed is not None:
            cfg["seed"] = args.seed
        _check_out(cfg["out"])
        command, _ = _COMMANDS[args.command]
        try:
            return command(cfg, quiet=args.quiet)
        except MemoryError:
            raise ValueError(
                "not enough memory for this run: size = {size}, iterations = {iterations},"
                " trials = {trials}".format_map(cfg)) from None
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
