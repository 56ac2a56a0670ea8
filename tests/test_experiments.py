import math
import os
import warnings

import numpy as np
import pytest

from proxdeblur.experiments import (
    CURVE_HEADER,
    TABLE_HEADER,
    PSweepResult,
    PSweepPoint,
    Scenario,
    add_awgn,
    load_image,
    psnr,
    run_convergence_test,
    run_p_sweep,
    run_psnr_table,
    synthetic_image,
    _run_trial,
)
from proxdeblur.linop import make_gaussian_psf
from proxdeblur.solvers import TRACE_DTYPE, IterationTrace, SolverConfig, run_solver
from proxdeblur.wavelet import wavelet_depth


def _strip_seconds(path):
    """CSV bytes with the wall-clock column blanked, for determinism checks."""
    out = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            parts = line.rstrip("\n").split(",")
            if parts and parts[0] != "iter":
                parts[-1] = ""
            out.append(",".join(parts))
    return "\n".join(out)


def test_awgn_statistics():
    x = np.zeros((256, 256))
    noisy = add_awgn(x, 0.1, seed=7)
    n = x.size
    assert abs(noisy.mean()) < 4 * 0.1 / math.sqrt(n)
    assert abs(noisy.std() - 0.1) < 0.05 * 0.1


def test_awgn_zero_sigma_copies():
    x = np.ones((4, 4))
    out = add_awgn(x, 0.0, seed=3)
    assert np.array_equal(out, x)
    assert out is not x


def test_awgn_determinism_and_validation(rng):
    x = rng.standard_normal((8, 8))
    assert np.array_equal(add_awgn(x, 0.5, 42), add_awgn(x, 0.5, 42))
    assert not np.array_equal(add_awgn(x, 0.5, 42), add_awgn(x, 0.5, 43))
    with pytest.raises(ValueError):
        add_awgn(x, -0.1, 0)


def test_psnr_values(rng):
    x = rng.uniform(0, 1, (16, 16))
    assert psnr(x, x) == 200.0
    assert psnr(x + 0.1, x) == pytest.approx(20.0, abs=1e-9)
    y = rng.uniform(0, 1, (16, 16))
    mse = float(((x - y) ** 2).mean())
    assert psnr(x, y) == pytest.approx(10 * math.log10(1 / mse), rel=1e-12)
    with pytest.raises(ValueError):
        psnr(x, np.zeros((8, 8)))


def test_psnr_is_minus_infinity_when_the_error_overflows():
    # the squared error of finite inputs overflows to inf; log10(0) would raise
    assert psnr(np.full((4, 4), 1e200), np.zeros((4, 4))) == -math.inf


def test_synthetic_images_deterministic_and_distinct():
    a = synthetic_image("cameraman", 64)
    b = synthetic_image("cameraman", 64)
    c = synthetic_image("lena", 64)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (64, 64)
    assert a.min() >= 0.0 and a.max() <= 1.0
    with pytest.raises(ValueError):
        synthetic_image("x", 8)


def test_wavelet_depth():
    assert wavelet_depth((256, 256)) == 8
    assert wavelet_depth((64, 64)) == 6
    assert wavelet_depth((48, 48)) == 4
    with pytest.raises(ValueError):
        wavelet_depth((17, 17))


def test_load_image_fallback_and_explicit_dir(tmp_path):
    img = load_image("cameraman", None, 32)
    assert np.array_equal(img, synthetic_image("cameraman", 32))
    with pytest.raises(FileNotFoundError, match="missingimg"):
        load_image("missingimg", str(tmp_path))
    raster = np.floor(img * 65535 + 0.5).astype(">u2").tobytes()
    (tmp_path / "real.pgm").write_bytes(b"P5\n32 32\n65535\n" + raster)
    loaded = load_image("real", str(tmp_path))
    assert np.abs(loaded - img).max() < 1e-4


def test_run_psnr_table_loads_every_image_before_the_first_run(monkeypatch, tmp_path):
    from proxdeblur import experiments
    from proxdeblur.pgmio import write_pgm

    write_pgm(str(tmp_path / "real.pgm"), synthetic_image("real", 32))
    calls = []
    monkeypatch.setattr(experiments, "run_solver", lambda *args, **kwargs: calls.append(args))
    scenarios = [Scenario(image_id=name, noise_sigma=0.01, K=3, trials=1, image_size=32)
                 for name in ("real", "missing")]
    with pytest.raises(FileNotFoundError, match="image not found: .*missing.pgm"):
        run_psnr_table(scenarios, out_dir=str(tmp_path / "o"), images_dir=str(tmp_path))
    assert calls == []
    assert not (tmp_path / "o").exists()


def default_p(psf, shape, n):
    """The threshold scale run_solver resolves p = None to (efista, eta 1)."""
    cfg = SolverConfig(variant="efista", n=n, max_iters=0)
    return run_solver(cfg, np.zeros(shape), psf)[1].config.p


def test_default_threshold_scale(psf74):
    assert default_p(psf74, (64, 64), 1) == 1.0
    lam = default_p(psf74, (256, 256), 8)
    assert lam == pytest.approx(8.0, abs=1e-9)


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(image_id="x", noise_sigma=-0.1, K=5)
    with pytest.raises(ValueError):
        Scenario(image_id="x", noise_sigma=0.1, K=-1)
    with pytest.raises(ValueError):
        Scenario(image_id="x", noise_sigma=0.1, K=5, trials=0)
    for bad, match in [({"trials": 2.0}, "trials must be an integer"),
                       ({"K": 1.5}, "K must be an integer"),
                       ({"iter_divisor": 2.0}, "iter_divisor must be an integer"),
                       ({"seed": 1.0}, "seed must be an integer"),
                       ({"seed": -1}, "seed must be >= 0, got -1"),
                       ({"psf_size": 7.0}, "psf_size must be an integer"),
                       ({"image_size": 32.0}, "image_size must be an integer"),
                       ({"noise_sigma": "0.1"}, "noise_sigma must be a real number"),
                       # a square that overflows, underflows to 0, or a sigma <= 0
                       ({"psf_sigma": 1e200}, "psf_sigma must be positive"),
                       ({"psf_sigma": 1e-200}, "psf_sigma must be positive"),
                       ({"psf_sigma": 0.0}, "psf_sigma must be positive"),
                       ({"noise_sigma": 1e300}, r"noise_sigma = 1e\+300 is too large")]:
        with pytest.raises(ValueError, match=f"^{match}"):
            Scenario(image_id="x", **bad)
    sc = Scenario(image_id="x", noise_sigma=0.01, K=5)
    assert sc.resolved_lambda() == pytest.approx(1e-3)
    assert Scenario(image_id="x", noise_sigma=0.01, K=5, lam=0.2).resolved_lambda() == 0.2
    # an explicit lambda leaves the noise level free
    assert Scenario(image_id="x", noise_sigma=1e300, lam=0.2).resolved_lambda() == 0.2


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_nonfinite_sigmas_are_rejected_by_name(value):
    for key in ("noise_sigma", "psf_sigma"):
        keys = {"image_id": "x", "noise_sigma": 0.01, "K": 5, key: value}
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            Scenario(**keys)
    with pytest.raises(ValueError, match="noise sigma must be nonnegative and finite"):
        add_awgn(np.zeros((4, 4)), value, 0)


@pytest.fixture(scope="module")
def small_scenario():
    return Scenario(image_id="cameraman", noise_sigma=0.01, K=5, trials=2,
                    image_size=32)


def test_convergence_structure_and_csv(small_scenario, tmp_path):
    out = str(tmp_path)
    res = run_convergence_test(small_scenario, ["fista", "efista"], [2, 8],
                               out_dir=out)
    assert set(res.keys()) == {"fista", "efista"}
    assert list(res["fista"].keys()) == [1]       # unweighted ignores n_values
    assert sorted(res["efista"].keys()) == [2, 8]
    d = res["efista"][8]
    assert d["objective"].shape == (2, 5)
    assert np.isfinite(d["mean_objective"]).all()
    assert d["diverged"] is False

    fcsv = os.path.join(out, "curves_cameraman_sigma0.01_fista.csv")
    with open(fcsv) as f:
        lines = f.read().splitlines()
    assert lines[0] == CURVE_HEADER
    # 2 trials x 5 iters + 5 mean rows
    assert len(lines) == 1 + 2 * 5 + 5
    assert sum(1 for ln in lines if ",mean," in ln) == 5
    ecsv = os.path.join(out, "curves_cameraman_sigma0.01_efista.csv")
    with open(ecsv) as f:
        elines = f.read().splitlines()
    assert len(elines) == 1 + 2 * (2 * 5 + 5)     # two orders in one file
    # the p column: 1 for fista, the resolved default lambda_max(W_n) for efista
    psf = make_gaussian_psf(small_scenario.psf_size, small_scenario.psf_sigma)
    want = {n: default_p(psf, (32, 32), n) for n in (2, 8)}
    assert {float(ln.split(",")[3]) for ln in lines[1:]} == {1.0}
    assert all(float(ln.split(",")[3]) == want[int(ln.split(",")[2])] for ln in elines[1:])
    assert want[8] > 1.0


def test_convergence_csv_bytes_deterministic(small_scenario, tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    run_convergence_test(small_scenario, ["efista"], [8], out_dir=a)
    run_convergence_test(small_scenario, ["efista"], [8], out_dir=b)
    name = "curves_cameraman_sigma0.01_efista.csv"
    assert _strip_seconds(os.path.join(a, name)) == _strip_seconds(os.path.join(b, name))


def test_convergence_zero_iterations_header_only(tmp_path):
    sc = Scenario(image_id="cameraman", noise_sigma=0.01, K=0, trials=1,
                  image_size=32)
    run_convergence_test(sc, ["fista"], [1], out_dir=str(tmp_path))
    with open(tmp_path / "curves_cameraman_sigma0.01_fista.csv") as f:
        lines = f.read().splitlines()
    assert lines == [CURVE_HEADER]


def test_noiseless_objective_decreases(tmp_path):
    sc = Scenario(image_id="cameraman", noise_sigma=0.0, K=8, trials=1,
                  image_size=32)
    res = run_convergence_test(sc, ["fista"], [1])
    f = res["fista"][1]["mean_objective"]
    assert (np.diff(f) <= 1e-12).all()


def test_p_sweep_probe_validation(small_scenario):
    with pytest.raises(ValueError):
        run_p_sweep(small_scenario, 8, [1.0], 0)
    with pytest.raises(ValueError):
        run_p_sweep(small_scenario, 8, [1.0], 6)


def test_p_sweep_p1_reproduces_ifista(small_scenario, tmp_path):
    probe = 4
    sweep = run_p_sweep(small_scenario, 8, [1.0], probe, out_dir=str(tmp_path))
    res = run_convergence_test(small_scenario, ["ifista"], [8])
    want = res["ifista"][8]["mean_objective"][probe - 1]
    assert sweep.points[0].p == 1.0
    assert sweep.points[0].objective == pytest.approx(want, rel=1e-12)
    with open(tmp_path / "psweep_cameraman_n8.csv") as f:
        lines = f.read().splitlines()
    assert lines[0] == "p,objective"
    assert len(lines) == 2


def test_sweep_result_helpers():
    pts = [PSweepPoint(1.0, 5.0, True), PSweepPoint(2.0, 3.0, False),
           PSweepPoint(3.0, 4.0, False)]
    r = PSweepResult(points=pts)
    assert r.divergence_frontier() == 2.0
    assert r.argmin_objective() == 2.0
    allbad = PSweepResult(points=[PSweepPoint(1.0, 5.0, True)])
    assert allbad.divergence_frontier() is None


def test_psnr_table_contents(tmp_path):
    sc = Scenario(image_id="cameraman", noise_sigma=0.01, K=6, trials=2,
                  image_size=32)
    table = run_psnr_table([sc], out_dir=str(tmp_path))
    assert [r.algorithm for r in table.rows] == ["FISTA", "IFISTA", "EFISTA"]
    assert [r.iters for r in table.rows] == [6, 2, 2]
    for r in table.rows:
        assert math.isfinite(r.psnr_mean) and r.psnr_std >= 0
        assert r.secs_mean > 0
    with open(tmp_path / "table.csv") as f:
        lines = f.read().splitlines()
    assert lines[0] == TABLE_HEADER
    assert len(lines) == 4
    text = (tmp_path / "table.txt").read_text()
    assert "EFISTA" in text and "psnr_mean" in text


def test_psnr_table_builds_each_plan_once_over_nine_image_shapes(monkeypatch, tmp_path):
    # every plan is built by the check before the first run and kept by the
    # kernel for the runs, however many image shapes the table spans
    from proxdeblur import linop, weighting
    from proxdeblur.pgmio import write_pgm

    calls = {"spectral_decompose": 0, "build_filter": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(linop, "spectral_decompose",
                        counted("spectral_decompose", linop.spectral_decompose))
    monkeypatch.setattr(weighting, "build_filter",
                        counted("build_filter", weighting.build_filter))
    widths = range(32, 50, 2)
    for w in widths:
        write_pgm(str(tmp_path / f"s{w}.pgm"), synthetic_image("cameraman", 48)[:32, :w])
    # a kernel no other test asks for, so it starts with no plans
    scenarios = [Scenario(image_id=f"s{w}", K=3, trials=1, psf_size=5, psf_sigma=1.375)
                 for w in widths]
    table = run_psnr_table(scenarios, images_dir=str(tmp_path))
    assert len(table.rows) == 3 * len(widths)
    assert calls == {"spectral_decompose": 9, "build_filter": 9}


def test_psnr_table_missing_image_errors(tmp_path):
    sc = Scenario(image_id="ghost", noise_sigma=0.01, K=2, trials=1,
                  image_size=32)
    with pytest.raises(FileNotFoundError, match="ghost"):
        run_psnr_table([sc], images_dir=str(tmp_path))


def test_fista_psnr_improves_with_budget():
    # noiseless, unregularized: more iterations can only help
    base = dict(image_id="cameraman", noise_sigma=0.0, lam=0.0, trials=1,
                image_size=32)
    t_small = run_psnr_table([Scenario(K=3, **base)])
    t_large = run_psnr_table([Scenario(K=30, **base)])
    assert t_large.rows[0].psnr_mean > t_small.rows[0].psnr_mean + 0.5


def test_trial_parallelism_matches_serial(small_scenario):
    sc = small_scenario
    pooled = run_convergence_test(sc, ["efista"], [8])["efista"][8]["objective"]
    truth = load_image(sc.image_id, None, sc.image_size)
    psf = make_gaussian_psf(sc.psf_size, sc.psf_sigma)
    cfg = sc.solver_config("efista", 8, None, sc.K)
    serial = [_run_trial(truth, psf, sc, cfg, t)[1].objectives() for t in range(sc.trials)]
    assert np.array_equal(pooled, np.array(serial))


def test_trial_mean_covers_the_columns_some_trial_reached(monkeypatch):
    # trials of 3 and 1 records: the mean row is the NaN mean of the first
    # three columns and NaN after them, with no warning about empty columns
    from proxdeblur import experiments

    def fake_trial(truth, psf, scenario, cfg, trial):
        records = np.zeros(3 - 2 * trial, dtype=TRACE_DTYPE).view(np.recarray)
        records.objective = records.psnr = records.seconds = np.arange(len(records)) + trial
        return None, IterationTrace(records), None, 0.0

    monkeypatch.setattr(experiments, "_run_trial", fake_trial)
    sc = Scenario(image_id="x", K=5, trials=2)
    cfg = sc.solver_config("fista", 1, None, sc.K)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, curves, _ = experiments._run_setting(None, None, sc, cfg)
    for mat in curves.values():
        assert np.array_equal(mat[-1, :3], np.nanmean(mat[:-1, :3], axis=0))
        assert np.array_equal(mat[-1, :3], [0.5, 1.0, 2.0])
        assert np.isnan(mat[-1, 3:]).all()
