import ast
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
import threading

import numpy as np
import pytest
import scipy

import proxdeblur
from make_golden import (
    SCENARIO_PATH,
    SCENARIOS,
    run_scenario,
    scenario_mismatch,
    scenario_record,
)
from proxdeblur.experiments import psnr, synthetic_image
from proxdeblur.pgmio import read_pgm

SCENARIO_GOLDEN = json.loads(SCENARIO_PATH.read_text())
SAME_BUILD = (SCENARIO_GOLDEN["numpy"], SCENARIO_GOLDEN["scipy"]) == (
    np.__version__, scipy.__version__)

# the directory the test process imported proxdeblur from, as an absolute
# path, so the child runs the same code whatever its cwd
PKG_PARENT = os.path.dirname(os.path.dirname(os.path.abspath(proxdeblur.__file__)))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PKG_PARENT, env.get("PYTHONPATH")]))
    return env


def run_cli(*args, cwd=None):
    res = subprocess.run(
        [sys.executable, "-m", "proxdeblur", *args],
        capture_output=True, text=True, cwd=cwd, env=child_env(), timeout=300)
    assert "Traceback" not in res.stderr, res.stderr  # whatever the exit code
    return res


def test_import_does_not_load_scipy_signal_or_stats():
    # scipy.signal (and the scipy.stats it pulls in) would double the
    # import time and add about 50 MB of resident memory; scipy.sparse,
    # which only the Lanczos solve for kernels without flip symmetry
    # needs, would add about 0.1 s
    code = ("import sys, proxdeblur, proxdeblur.cli; print([m for m in "
            "('scipy.signal', 'scipy.stats', 'scipy.sparse') if m in sys.modules])")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=child_env(), timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_readme_library_example_runs_on_the_package_exports():
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as f:
        section = f.read().split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    imported = {alias.name for node in ast.walk(ast.parse(code))
                if isinstance(node, ast.ImportFrom) and node.module == "proxdeblur"
                for alias in node.names}
    assert imported and imported <= set(proxdeblur.__all__), imported - set(proxdeblur.__all__)
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=child_env(), timeout=300)
    assert res.returncode == 0, res.stderr


def test_every_module_export_resolves():
    # a name deleted from a module but left in its __all__ fails here
    modules = [proxdeblur] + [
        importlib.import_module(f"proxdeblur.{info.name}")
        for info in pkgutil.iter_modules(proxdeblur.__path__)
        if info.name != "__main__"]  # importing __main__ runs the CLI
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names {missing}"


def test_every_exported_name_has_one_home():
    # the package re-exports from its submodules; among the submodules each
    # name sits in one __all__, the module that defines it
    homes = {}
    for info in pkgutil.iter_modules(proxdeblur.__path__):
        if info.name != "__main__":
            for name in importlib.import_module(f"proxdeblur.{info.name}").__all__:
                homes.setdefault(name, []).append(info.name)
    shared = {name: mods for name, mods in homes.items() if len(mods) > 1}
    assert not shared, shared


def write_cfg(path, **keys):
    with open(path, "w") as f:
        for k, v in keys.items():
            f.write(f"{k} = {v}\n")
    return str(path)


def test_noiseless_deblur_succeeds_and_sharpens(tmp_path):
    cfg = write_cfg(tmp_path / "run.cfg",
                    image="synthetic:cameraman", size=32, noise_sigma=0,
                    variant="fista", iterations=10, trials=1,
                    out=str(tmp_path / "o"))
    res = run_cli("deblur", "--config", cfg)
    assert res.returncode == 0, res.stderr
    assert "diverged=no" in res.stdout
    truth = synthetic_image("cameraman", 32)
    blurred = read_pgm(str(tmp_path / "o" / "blurred.pgm"))
    deblurred = read_pgm(str(tmp_path / "o" / "deblurred.pgm"))
    assert psnr(deblurred, truth) > psnr(blurred, truth)
    with open(tmp_path / "o" / "trace.csv") as f:
        lines = f.read().splitlines()
    assert len(lines) == 11  # header + one row per iteration


def test_weighted_unscaled_run_exits_two(tmp_path):
    # order-8 weighting with unit threshold scale at realistic noise climbs
    # away from its own minimum, which the harness reports as divergence
    cfg = write_cfg(tmp_path / "run.cfg",
                    image="synthetic:cameraman", size=64,
                    noise_sigma=0.01, variant="ifista", n=8,
                    iterations=50, out=str(tmp_path / "o"))
    res = run_cli("deblur", "--config", cfg)
    assert res.returncode == 2, res.stdout + res.stderr
    assert "diverged=yes" in res.stdout
    # artifacts are still written for inspection
    assert (tmp_path / "o" / "deblurred.pgm").exists()
    assert (tmp_path / "o" / "trace.csv").exists()


def test_scaled_threshold_fixes_the_same_run(tmp_path):
    cfg = write_cfg(tmp_path / "run.cfg",
                    image="synthetic:cameraman", size=64,
                    noise_sigma=0.01, variant="efista", n=8,
                    iterations=50, out=str(tmp_path / "o"))
    res = run_cli("deblur", "--config", cfg)
    assert res.returncode == 0, res.stdout + res.stderr


def test_unknown_key_reports_line_number(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("size = 32\nbogus_key = 1\n")
    res = run_cli("deblur", "--config", str(p))
    assert res.returncode == 1
    assert "bad.cfg:2" in res.stderr
    assert "bogus_key" in res.stderr


def test_bad_value_reports_line_number(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("iterations = ten\n")
    res = run_cli("deblur", "--config", str(p))
    assert res.returncode == 1
    assert "bad.cfg:1" in res.stderr


def test_parse_config_raises_value_error_naming_path_and_line(tmp_path):
    from proxdeblur import cli

    p = tmp_path / "bad.cfg"
    p.write_text("size = 32\niterations = ten\n")
    with pytest.raises(ValueError, match=re.escape(f"{p}:2: bad value 'ten' for 'iterations'")):
        cli.parse_config(str(p))


def test_overflowing_initial_objective_exits_one_before_any_output(tmp_path):
    # lambda = 10 sigma^2 is finite, but 1/2 ||A b - b||^2 overflows at x0 = b
    cfg = write_cfg(tmp_path / "d.cfg", image="synthetic:lena", size=32, variant="efista",
                    noise_sigma="1e153", iterations=3, out=str(tmp_path / "o"))
    res = run_cli("deblur", "--config", cfg)
    assert res.returncode == 1, res.stdout + res.stderr
    assert res.stderr.startswith("error: the objective at x0 is not finite (inf)")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["deblur", "curves", "sweep", "table"])
def test_run_too_large_to_allocate_exits_one_naming_its_size(monkeypatch, capsys, tmp_path,
                                                             command):
    from proxdeblur import cli, experiments

    def no_memory(*args, **kwargs):
        # stands in for a huge allocation, which a test never makes
        raise MemoryError

    monkeypatch.setattr(experiments, "run_solver", no_memory)
    cfg = write_cfg(tmp_path / "c.cfg", size=32, iterations=3, trials=1, probe_iter=3,
                    images="cameraman", noise_levels="0.01", K_values="3",
                    out=str(tmp_path / "o"))
    assert cli.main([command, "--config", cfg, "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err == ("error: not enough memory for this run: size = 32, iterations = 3,"
                   " trials = 1\n")


def test_missing_config_exits_one(tmp_path):
    res = run_cli("deblur", "--config", str(tmp_path / "none.cfg"))
    assert res.returncode == 1
    assert "none.cfg" in res.stderr


def test_missing_input_image_exits_one_naming_path(tmp_path):
    cfg = write_cfg(tmp_path / "run.cfg", image=str(tmp_path / "ghost.pgm"))
    res = run_cli("deblur", "--config", cfg)
    assert res.returncode == 1
    assert "ghost.pgm" in res.stderr


def test_p2_header_declaring_more_samples_than_the_file_holds_exits_one(tmp_path):
    # 65535x65535 samples would take 32 GiB; the length check comes first
    (tmp_path / "huge.pgm").write_bytes(b"P2\n65535 65535\n255\n0\n")
    cfg = write_cfg(tmp_path / "run.cfg", image=str(tmp_path / "huge.pgm"))
    res = run_cli("deblur", "--config", cfg)
    assert res.returncode == 1
    assert "error:" in res.stderr and "raster truncated" in res.stderr


def test_usage_error_exits_one():
    res = run_cli("nosuchcommand")
    assert res.returncode == 1
    res = run_cli("deblur")  # --config is required
    assert res.returncode == 1


def test_deblur_accepts_pgm_input(tmp_path):
    raster = np.floor(synthetic_image("pirate", 32) * 65535 + 0.5).astype(">u2").tobytes()
    (tmp_path / "pirate.pgm").write_bytes(b"P5\n32 32\n65535\n" + raster)
    cfg = write_cfg(tmp_path / "run.cfg",
                    image=str(tmp_path / "pirate.pgm"), noise_sigma=0,
                    variant="fista", iterations=3, out=str(tmp_path / "o"))
    res = run_cli("deblur", "--config", cfg)
    assert res.returncode == 0, res.stderr


def test_sweep_row_count_for_fine_grid(tmp_path):
    # 36 p values from 1.0 to 8.0 in steps of 0.2
    ps = ", ".join(f"{1 + 0.2 * i:.1f}" for i in range(36))
    cfg = write_cfg(tmp_path / "s.cfg",
                    image="synthetic:cameraman", size=32, noise_sigma=0.01,
                    n=8, iterations=3, probe_iter=3, trials=1,
                    p_values=ps, out=str(tmp_path / "o"))
    res = run_cli("sweep", "--config", cfg, "--quiet")
    assert res.returncode == 0, res.stderr
    with open(tmp_path / "o" / "psweep_cameraman_n8.csv") as f:
        lines = f.read().splitlines()
    assert len(lines) == 37
    assert lines[0] == "p,objective"


def test_curves_writes_per_variant_csv(tmp_path):
    cfg = write_cfg(tmp_path / "c.cfg",
                    image="synthetic:lena", size=32, noise_sigma=0.01,
                    iterations=3, trials=2, variants="fista, efista",
                    n_values="8", out=str(tmp_path / "o"))
    res = run_cli("curves", "--config", cfg)
    assert res.returncode == 0, res.stderr
    names = sorted(os.listdir(tmp_path / "o"))
    assert names == ["curves_lena_sigma0.01_efista.csv",
                     "curves_lena_sigma0.01_fista.csv"]


def test_curves_unknown_variant_exits_one_naming_it(tmp_path):
    cfg = write_cfg(tmp_path / "c.cfg",
                    image="synthetic:lena", size=32, noise_sigma=0.01,
                    iterations=3, trials=1, variants="fista, bogus",
                    n_values="8", out=str(tmp_path / "o"))
    res = run_cli("curves", "--config", cfg)
    assert res.returncode == 1, res.stdout + res.stderr
    assert "unknown variant 'bogus' (valid: ista, fista, ifista, efista)" in res.stderr
    assert not (tmp_path / "o").exists()  # rejected before any run


@pytest.mark.parametrize("command,extra,empty_key,value", [
    ("curves", dict(variants="fista, efista"), "n_values", ""),
    ("sweep", dict(n=8, probe_iter=3), "p_values", " , "),
])
def test_empty_list_key_exits_one_naming_it(tmp_path, command, extra, empty_key, value):
    keys = dict(image="synthetic:lena", size=32, noise_sigma=0.01, iterations=3,
                trials=1, out=str(tmp_path / "o"), **extra)
    keys[empty_key] = value  # the last line of the file
    cfg = write_cfg(tmp_path / "c.cfg", **keys)
    res = run_cli(command, "--config", cfg)
    assert res.returncode == 1, res.stdout + res.stderr
    assert f":{len(keys)}: empty list for '{empty_key}'" in res.stderr
    assert not (tmp_path / "o").exists()  # rejected before any run


@pytest.mark.parametrize("key", ["lambda", "p", "eta"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_nonfinite_parameter_exits_one_naming_it(tmp_path, key, value):
    cfg = write_cfg(tmp_path / "d.cfg", image="synthetic:lena", size=32,
                    variant="efista", iterations=3, out=str(tmp_path / "o"),
                    **{key: value})
    res = run_cli("deblur", "--config", cfg)
    assert res.returncode == 1, res.stdout + res.stderr
    assert f"{key} must be finite" in res.stderr
    assert not (tmp_path / "o").exists()  # rejected before any run


@pytest.mark.parametrize("key,extra", [
    ("psf_sigma", {}),
    ("noise_sigma", {}),  # lambda = 10 noise_sigma^2 would carry the NaN
    ("noise_sigma", {"lambda": 0.001}),  # the noise would make b non-finite
])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_nonfinite_sigma_exits_one_naming_it(tmp_path, key, extra, value):
    cfg = write_cfg(tmp_path / "d.cfg", image="synthetic:lena", size=32,
                    variant="efista", iterations=3, out=str(tmp_path / "o"),
                    **extra, **{key: value})
    res = run_cli("deblur", "--config", cfg)
    assert res.returncode == 1, res.stdout + res.stderr
    assert f"{key} must be finite" in res.stderr
    assert not (tmp_path / "o").exists()  # rejected before any run


@pytest.mark.parametrize("key,value", [
    ("psf_sigma", "1e200"),  # sigma^2 overflows
    ("psf_sigma", "1e-200"),  # sigma^2 underflows to 0, so the taps would be 0/0
    ("noise_sigma", "1e300"),  # lambda = auto would be 10 sigma^2
])
def test_sigma_past_the_float_range_exits_one_naming_it(tmp_path, key, value):
    cfg = write_cfg(tmp_path / "d.cfg", image="synthetic:lena", size=32,
                    variant="efista", iterations=3, out=str(tmp_path / "o"),
                    **{key: value})
    res = run_cli("deblur", "--config", cfg)
    assert res.returncode == 1, res.stdout + res.stderr
    assert res.stderr.startswith(f"error: {key}") and "Warning" not in res.stderr
    assert not (tmp_path / "o").exists()  # rejected before any run


@pytest.mark.parametrize("command,keys,message", [
    ("curves", dict(variants="fista, efista", n_values="0"), "order n must be >= 1, got 0"),
    ("curves", dict(variants="fista, efista", n_values="40"),
     "order n must be in [1, 32], got 40"),
    ("sweep", dict(n=8, probe_iter=3, p_values="1, 0.5"),
     "threshold scale p must be >= 1, got 0.5"),
    ("sweep", dict(n=8, probe_iter=3, psf_size=4),
     "psf_size must be a positive odd integer, got 4"),
    ("table", dict(images="cameraman", noise_levels="0.01", K_values="3", n=0),
     "order n must be >= 1, got 0"),
    ("table", dict(images="cameraman", noise_levels="0.01", K_values="3", n=40),
     "order n must be in [1, 32], got 40"),
    ("deblur", dict(psf_size=4), "psf_size must be a positive odd integer, got 4"),
    # each message names the config key, not the library's K
    ("deblur", dict(iterations=-1), "c.cfg:4: bad value '-1' for 'iterations'"),
    ("sweep", dict(n=8, iterations=-1), "c.cfg:4: bad value '-1' for 'iterations'"),
    ("sweep", dict(n=8, probe_iter=0), "probe_iter must be in [1, iterations = 3], got 0"),
], ids=["curves", "curves-n40", "sweep", "sweep-psf4", "table", "table-n40", "deblur-psf4",
        "deblur-iterations", "sweep-iterations", "sweep-probe_iter"])
def test_every_setting_is_checked_before_the_first_trial(monkeypatch, capsys, tmp_path,
                                                         command, keys, message):
    from proxdeblur import cli, experiments

    def no_image(*args, **kwargs):
        raise AssertionError("image loaded before every setting was checked")

    monkeypatch.setattr(experiments, "load_image", no_image)  # every command loads through it
    base = dict(image="synthetic:lena", size=32, noise_sigma=0.01, iterations=3, trials=1,
                out=str(tmp_path / "o"))
    cfg = write_cfg(tmp_path / "c.cfg", **dict(base, **keys))
    assert cli.main([command, "--config", cfg]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["deblur", "curves", "sweep", "table"])
def test_empty_out_exits_one_before_any_run(monkeypatch, capsys, tmp_path, command):
    from proxdeblur import cli, experiments

    def no_run(*args, **kwargs):
        raise AssertionError("a run started with an empty out")

    monkeypatch.setattr(experiments, "run_solver", no_run)  # deblur runs it too
    cfg = write_cfg(tmp_path / "c.cfg", size=32, iterations=3, trials=1, out="")
    assert cli.main([command, "--config", cfg]) == 1
    assert "c.cfg:4: bad value '' for 'out'" in capsys.readouterr().err
    cfg = write_cfg(tmp_path / "d.cfg", size=32, iterations=3, trials=1)
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", cfg, "--out", ""])
    assert exc.value.code == 1
    assert "argument --out: must not be empty" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["deblur", "curves", "sweep", "table"])
def test_negative_seed_exits_one_before_any_run(monkeypatch, capsys, tmp_path, command):
    from proxdeblur import cli, experiments

    def no_call(*args, **kwargs):
        raise AssertionError("an image was loaded or a run started with a negative seed")

    monkeypatch.setattr(experiments, "load_image", no_call)  # every command loads through it
    monkeypatch.setattr(experiments, "run_solver", no_call)  # deblur runs it too
    out = tmp_path / "o"
    cfg = write_cfg(tmp_path / "c.cfg", size=32, iterations=3, trials=1, seed=-1, out=str(out))
    assert cli.main([command, "--config", cfg]) == 1
    assert "c.cfg:4: bad value '-1' for 'seed'" in capsys.readouterr().err
    assert not out.exists()
    cfg = write_cfg(tmp_path / "d.cfg", size=32, iterations=3, trials=1, out=str(out))
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", cfg, "--seed", "-1"])
    assert exc.value.code == 1
    assert "argument --seed: must be a non-negative integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["deblur", "curves", "sweep", "table"])
def test_out_naming_an_existing_file_exits_one_before_any_run(monkeypatch, capsys, tmp_path,
                                                               command):
    from proxdeblur import cli, experiments

    calls = []
    monkeypatch.setattr(experiments, "run_solver", lambda *args, **kwargs: calls.append(args))
    outfile = tmp_path / "outfile"
    outfile.write_bytes(b"not a directory\n")
    keys = dict(size=32, iterations=3, trials=1, images="cameraman",
                noise_levels="0.01", K_values="3")
    cfg = write_cfg(tmp_path / "c.cfg", **keys)
    assert cli.main([command, "--config", cfg, "--out", str(outfile)]) == 1
    assert f"out: {outfile} exists and is not a directory" in capsys.readouterr().err
    cfg = write_cfg(tmp_path / "d.cfg", out=str(outfile / "sub"), **keys)
    assert cli.main([command, "--config", cfg]) == 1
    assert f"out: {outfile} exists and is not a directory" in capsys.readouterr().err
    assert calls == []
    assert outfile.read_bytes() == b"not a directory\n"


@pytest.mark.parametrize("dir_exists", [True, False], ids=["missing-image", "missing-dir"])
def test_table_missing_image_exits_one_before_any_run(monkeypatch, capsys, tmp_path,
                                                      dir_exists):
    from proxdeblur import cli, experiments
    from proxdeblur.pgmio import write_pgm

    calls = []
    monkeypatch.setattr(experiments, "run_solver", lambda *args, **kwargs: calls.append(args))
    images_dir = tmp_path / "images"
    missing = images_dir / "cameraman.pgm"
    if dir_exists:
        images_dir.mkdir()
        write_pgm(str(missing), synthetic_image("cameraman", 32))
        missing = images_dir / "lena.pgm"
    cfg = write_cfg(tmp_path / "t.cfg", images="cameraman, lena", images_dir=str(images_dir),
                    noise_levels="0.01", K_values="3", trials=1, out=str(tmp_path / "o"))
    assert cli.main(["table", "--config", cfg]) == 1
    assert f"image not found: {missing}" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name,shape,message", [
    ("b", (17, 23), "image b: image dims (17, 23) do not admit a wavelet level"),
    ("c", (5, 6), "image c: kernel size 7 exceeds image dims 6x5"),
], ids=["no-wavelet-level", "kernel-too-large"])
def test_table_bad_second_image_exits_one_before_any_run(monkeypatch, capsys, tmp_path,
                                                         name, shape, message):
    from proxdeblur import cli, experiments
    from proxdeblur.pgmio import write_pgm

    real_run_solver, calls = experiments.run_solver, []

    def run_solver(*args, **kwargs):
        calls.append(args)
        return real_run_solver(*args, **kwargs)

    monkeypatch.setattr(experiments, "run_solver", run_solver)
    images_dir = tmp_path / "images"
    images_dir.mkdir()
    write_pgm(str(images_dir / "a.pgm"), synthetic_image("cameraman", 64))
    write_pgm(str(images_dir / f"{name}.pgm"), synthetic_image("lena", 32)[:shape[0], :shape[1]])
    cfg = write_cfg(tmp_path / "t.cfg", images=f"a, {name}", images_dir=str(images_dir),
                    noise_levels="0.01, 0.001", K_values="3, 3", trials=2,
                    out=str(tmp_path / "o"))
    assert cli.main(["table", "--config", cfg, "--quiet"]) == 1
    assert message in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,trials,calls", [("deblur", 10, 1), ("curves", 2, 2)])
def test_one_worker_runs_the_trials_in_the_calling_thread(monkeypatch, tmp_path, command,
                                                          trials, calls):
    from proxdeblur import cli, experiments

    real_run_solver = experiments.run_solver
    threads = []

    def run_solver(*args, **kwargs):
        threads.append(threading.current_thread())
        return real_run_solver(*args, **kwargs)

    monkeypatch.setattr(experiments, "run_solver", run_solver)
    if command == "curves":  # deblur runs one trial whatever the cpu count
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 1)
    cfg = write_cfg(tmp_path / "c.cfg", size=32, iterations=2, trials=trials,
                    variants="fista", out=str(tmp_path / "o"))
    assert cli.main([command, "--config", cfg, "--quiet"]) == 0
    assert threads == [threading.current_thread()] * calls


@pytest.mark.parametrize("command", ["deblur", "curves", "sweep", "table"])
def test_every_command_builds_its_inputs_once_before_the_first_run(monkeypatch, tmp_path,
                                                                   command):
    from proxdeblur import cli, experiments

    calls = []

    def recorder(fn, key):
        def record(*args, **kwargs):
            calls.append(key(*args))
            return fn(*args, **kwargs)
        return record

    monkeypatch.setattr(experiments, "load_image", recorder(
        experiments.load_image, lambda image_id, images_dir, size: ("image", image_id, size)))
    monkeypatch.setattr(experiments, "make_gaussian_psf", recorder(
        experiments.make_gaussian_psf, lambda size, sigma: ("kernel", size, sigma)))
    monkeypatch.setattr(experiments, "blur_apply", recorder(
        experiments.blur_apply, lambda psf, x: ("blur", psf.size, x.shape)))
    monkeypatch.setattr(experiments, "run_solver", recorder(
        experiments.run_solver, lambda *args: ("run",)))
    cfg = write_cfg(tmp_path / "c.cfg", image="synthetic:lena", size=32, iterations=3,
                    trials=2, variants="fista, efista", n_values="2, 8", p_values="1, 2",
                    probe_iter=2, images="cameraman, lena", noise_levels="0.01, 0.001",
                    K_values="3, 3", out=str(tmp_path / "o"))
    assert cli.main([command, "--config", cfg, "--quiet"]) in (0, 2)
    inputs = calls[:calls.index(("run",))]
    assert set(calls[len(inputs):]) == {("run",)}  # nothing is built after the first run
    images = [("image", "cameraman", 32)] if command == "table" else []
    blurs = [("blur", 7, (32, 32))] * (1 + len(images))  # one per image and kernel
    assert sorted(inputs) == sorted(images + blurs + [("image", "lena", 32), ("kernel", 7, 4.0)])


def readme_config_rows():
    """(keys, meaning) of each row of the README's Config grammar table."""
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as f:
        section = f.read().split("\n### Config grammar\n", 1)[1].split("\n### ", 1)[0]
    cells = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| `")]
    return [(keys.split("`")[1::2], meaning.strip()) for keys, meaning in cells]


def test_readme_config_grammar_lists_exactly_the_config_keys():
    from proxdeblur import cli

    documented = {key for keys, _ in readme_config_rows() for key in keys}
    assert documented == set(cli._KEYS)


def test_readme_config_grammar_defaults_match_an_empty_config(tmp_path):
    # each row's trailing "(default)" is read by its key's own parser, so
    # `auto` reads as None; images (prose) and images_dir (none) show none
    from proxdeblur import cli

    empty = tmp_path / "empty.cfg"
    empty.write_text("")
    defaults = cli.parse_config(str(empty))
    checked = set()
    for keys, meaning in readme_config_rows():
        if keys == ["images"] or not meaning.endswith(")"):
            continue
        texts = meaning.rpartition("(")[2][:-1].replace("`", "").split(" / ")
        assert len(texts) == len(keys), (keys, meaning)
        for key, text in zip(keys, texts):
            assert cli._KEYS[key][0](text) == defaults[key], (key, text)
            checked.add(key)
    assert checked == set(cli._KEYS) - {"images", "images_dir"}


def test_empty_config_gives_the_scenario_defaults(tmp_path):
    from proxdeblur import cli
    from proxdeblur.experiments import Scenario

    empty = tmp_path / "empty.cfg"
    empty.write_text("")
    assert cli._scenario(cli.parse_config(str(empty)), "x") == Scenario(
        "x", noise_sigma=0.01, K=50)


def _golden_case(name):
    """(name, exit code, sorted output files) of a scenario's golden; a
    scenario without one gets no exit code and fails its own case."""
    want = SCENARIO_GOLDEN["scenarios"].get(name, {"exit_code": None, "files": {}})
    return name, want["exit_code"], sorted(want["files"])


# one case per scenario make_golden runs; test_golden.py checks that these
# are exactly the committed scenarios/*.cfg and the golden's scenarios
@pytest.mark.parametrize("name,code,artifacts", [_golden_case(name) for name in SCENARIOS],
                         ids=list(SCENARIOS))
def test_committed_scenarios_run_at_a_small_size(tmp_path, name, code, artifacts):
    # every output byte apart from the timings is compared against
    # tests/golden/scenarios.json (written by tests/make_golden.py)
    code_got, stdout, out = run_scenario(name, tmp_path)
    assert code_got == code
    assert sorted(os.listdir(out)) == artifacts
    got = scenario_record(name, code_got, stdout, out)
    mismatch = scenario_mismatch(SCENARIO_GOLDEN["scenarios"][name], got, SAME_BUILD)
    assert mismatch is None, f"{name}: {mismatch}"


def test_table_empty_image_list_exits_one(tmp_path):
    cfg = write_cfg(tmp_path / "t.cfg", images="", out=str(tmp_path / "o"))
    res = run_cli("table", "--config", cfg)
    assert res.returncode == 1
    assert "empty" in res.stderr


def test_table_writes_csv_and_text(tmp_path):
    cfg = write_cfg(tmp_path / "t.cfg",
                    images="cameraman, lena", size=32,
                    noise_levels="0.01", K_values="4", trials=1,
                    out=str(tmp_path / "o"))
    res = run_cli("table", "--config", cfg, "--quiet")
    assert res.returncode == 0, res.stderr
    assert res.stdout == ""
    with open(tmp_path / "o" / "table.csv") as f:
        lines = f.read().splitlines()
    assert len(lines) == 1 + 2 * 3  # two images, three algorithms
    assert (tmp_path / "o" / "table.txt").exists()


def test_mismatched_noise_and_budget_lists(tmp_path):
    cfg = write_cfg(tmp_path / "t.cfg",
                    images="cameraman", noise_levels="0.01, 0.001",
                    K_values="4", out=str(tmp_path / "o"))
    res = run_cli("table", "--config", cfg)
    assert res.returncode == 1
    assert "K_values" in res.stderr


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_cfg(tmp_path / "run.cfg",
                    image="synthetic:cameraman", size=32, noise_sigma=0.02,
                    variant="fista", iterations=2, seed=0,
                    out=str(tmp_path / "o1"))

    def trace_wo_seconds(out):
        with open(tmp_path / out / "trace.csv") as f:
            return [ln.rsplit(",", 1)[0] for ln in f.read().splitlines()]

    assert run_cli("deblur", "--config", cfg).returncode == 0
    assert run_cli("deblur", "--config", cfg, "--out", str(tmp_path / "o2"),
                   "--seed", "0").returncode == 0
    assert run_cli("deblur", "--config", cfg, "--out", str(tmp_path / "o3"),
                   "--seed", "9").returncode == 0
    assert trace_wo_seconds("o1") == trace_wo_seconds("o2")
    assert trace_wo_seconds("o1") != trace_wo_seconds("o3")


def test_outputs_stay_inside_out_dir(tmp_path):
    workdir = tmp_path / "wd"
    workdir.mkdir()
    cfg = write_cfg(tmp_path / "run.cfg",
                    image="synthetic:cameraman", size=32, noise_sigma=0,
                    variant="fista", iterations=2, out=str(tmp_path / "o"))
    before = set(os.listdir(workdir))
    res = run_cli("deblur", "--config", cfg, cwd=str(workdir))
    assert res.returncode == 0, res.stdout + res.stderr
    assert set(os.listdir(workdir)) == before
    assert sorted(os.listdir(tmp_path / "o")) == [
        "blurred.pgm", "deblurred.pgm", "trace.csv"]
