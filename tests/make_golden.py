"""Golden outputs, recorded bit for bit next to the numpy and scipy versions
that produced them.

tests/golden/library.json holds run_solver on fixed small problems.  Each
case is one variant (ista, fista, ifista, efista; n = 8 where the variant
takes it) on one kernel route (DCT; Kronecker, for the rank-one kernel
named separable; 2-D n-step) at one shape, with eta = 0.9 /
lambda_max(A^T A).  A case records its objectives at %.17g and a SHA-256
of the final iterate's float64 bytes;
tests/test_golden.py recomputes every case and compares.

tests/golden/scenarios.json holds the CLI on each scenarios/*.cfg, run in
process at a small size (SMALL) with --seed 0.  A scenario records its exit
code, its stdout and every output file: CSV rows and aligned-table lines
without their timing column, PGMs as a SHA-256 of their bytes, the out path
written as <out>.  tests/test_cli.py::test_committed_scenarios_run_at_a_small_size
reruns each scenario and compares (scenario_mismatch).

    PYTHONPATH=src python tests/make_golden.py

rewrites both files.
"""

import contextlib
import hashlib
import io
import json
import math
import pathlib
import tempfile

import numpy as np
import scipy

from oracle import route_kernels
from proxdeblur import cli
from proxdeblur.linop import blur_apply, lambda_max_AtA
from proxdeblur.solvers import SolverConfig, run_solver

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
PATH = GOLDEN_DIR / "library.json"
SCENARIO_PATH = GOLDEN_DIR / "scenarios.json"
SCENARIO_DIR = pathlib.Path(__file__).parent.parent / "scenarios"

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


# scenario -> the command that runs it
SCENARIOS = {"deblur_demo": "deblur", "curves_cameraman": "curves",
             "psweep_cameraman": "sweep", "psnr_table": "table"}
# the keys a scenario is run with, in place of its own values
SMALL = {"size": "32", "trials": "2", "images": "cameraman, lena"}
TIMING_COLUMNS = ("seconds", "secs_mean")


def run_scenario(name, workdir):
    """Run scenarios/<name>.cfg at the SMALL size with --seed 0, its config
    and outputs under workdir; returns (exit code, stdout, out dir)."""
    lines = []
    with open(SCENARIO_DIR / f"{name}.cfg", encoding="utf-8") as f:
        for line in f:
            key = line.split("=", 1)[0].strip()
            lines.append(f"{key} = {SMALL[key]}\n" if key in SMALL else line)
    cfg = workdir / f"{name}.cfg"
    cfg.write_text("".join(lines), encoding="utf-8")
    out = workdir / "o"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main([SCENARIOS[name], "--config", str(cfg), "--out", str(out),
                         "--seed", "0"])
    return code, stdout.getvalue(), out


def _untimed_csv(lines):
    drop = [i for i, col in enumerate(lines[0].split(",")) if col in TIMING_COLUMNS]
    return [",".join(c for i, c in enumerate(line.split(",")) if i not in drop)
            for line in lines]


def _untimed_table(lines):
    """Aligned table lines without their last column, secs_mean."""
    return [line.rsplit(None, 1)[0] for line in lines]


def scenario_record(name, code, stdout, out):
    """What the goldens keep of one run of scenario name."""
    files = {}
    for path in sorted(out.iterdir()):
        if path.suffix == ".pgm":
            files[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        elif path.suffix == ".csv":
            files[path.name] = _untimed_csv(path.read_text(encoding="utf-8").splitlines())
        else:
            files[path.name] = _untimed_table(path.read_text(encoding="utf-8").splitlines())
    lines = stdout.replace(str(out), "<out>").splitlines()
    if SCENARIOS[name] == "table":
        lines = _untimed_table(lines)
    return {"exit_code": code, "stdout": lines, "files": files}


def _cells_close(got, want):
    """CSV rows equal cell by cell, numbers to a relative 1e-9."""
    got, want = got.split(","), want.split(",")
    if len(got) != len(want):
        return False
    for g, w in zip(got, want):
        if g == w:
            continue
        try:
            g, w = float(g), float(w)
        except ValueError:
            return False
        if not math.isclose(g, w, rel_tol=1e-9):
            return False
    return True


def scenario_mismatch(want, got, same_build):
    """None when the record got matches the golden want, else a message
    naming the file (or exit code, or stdout) and its first differing row.

    On the numpy and scipy versions that wrote the goldens everything must
    match exactly.  Another build may round differently, so there the CSV
    numbers must agree to a relative 1e-9 and the PGMs, aligned tables and
    stdout, which print those numbers rounded, are not compared.
    """
    if got["exit_code"] != want["exit_code"]:
        return f"exit code {got['exit_code']}, golden {want['exit_code']}"
    if sorted(got["files"]) != sorted(want["files"]):
        return f"output files {sorted(got['files'])}, golden {sorted(want['files'])}"
    texts = []
    for fname in sorted(want["files"]):
        g, w = got["files"][fname], want["files"][fname]
        if isinstance(w, str):
            if same_build and g != w:
                return f"{fname}: SHA-256 {g}, golden {w}"
        elif same_build or fname.endswith(".csv"):
            texts.append((fname, g, w))
    if same_build:
        texts.append(("stdout", got["stdout"], want["stdout"]))
    equal = (lambda g, w: g == w) if same_build else _cells_close
    for label, g, w in texts:
        for row, (gl, wl) in enumerate(zip(g, w)):
            if not equal(gl, wl):
                return f"{label}: first differing row {row}: {gl!r}, golden {wl!r}"
        if len(g) != len(w):
            return f"{label}: {len(g)} rows, golden {len(w)}"
    return None


def main():
    golden = {"numpy": np.__version__, "scipy": scipy.__version__,
              "cases": {name: record(name) for name in CASES}}
    GOLDEN_DIR.mkdir(exist_ok=True)
    PATH.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {len(CASES)} cases to {PATH}")
    scenarios = {}
    for name in SCENARIOS:
        with tempfile.TemporaryDirectory() as tmp:
            scenarios[name] = scenario_record(name, *run_scenario(name, pathlib.Path(tmp)))
    golden = {"numpy": np.__version__, "scipy": scipy.__version__, "small": SMALL,
              "scenarios": scenarios}
    SCENARIO_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {len(scenarios)} scenarios to {SCENARIO_PATH}")


if __name__ == "__main__":
    main()
