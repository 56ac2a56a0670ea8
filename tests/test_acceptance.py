"""End-to-end gate suite: nine release checks, one summary line each.

Every test computes its measurements first, prints a single line

    ACCEPTANCE <k>: PASS|FAIL - <numbers>

and only then asserts, so a failing gate still reports exactly what it
measured.  Heavy benchmark runs are shared through module-scoped
fixtures.  Passing gates print too; run pytest with -rP to see their
lines (the repo pyproject sets that by default).
"""

import math
import time

import numpy as np
import pytest

from oracle import (
    dense_Wn,
    dense_solver_step,
    densify_blur,
    densify_wavelet,
    objective,
    rate_check,
    surrogate_Q,
)
from proxdeblur.experiments import (
    STANDARD_IMAGES,
    Scenario,
    add_awgn,
    run_convergence_test,
    run_p_sweep,
    run_psnr_table,
    synthetic_image,
)
from proxdeblur.linop import (
    blur_adjoint,
    blur_apply,
    dct2,
    gradient,
    idct2,
    lambda_max_AtA,
    make_gaussian_psf,
    spectral_decompose,
)
from proxdeblur.solvers import (
    Problem,
    SolverConfig,
    SolverState,
    Variant,
    efista_step,
    run_solver,
)
from proxdeblur.wavelet import LiftingWorkspace
from proxdeblur.weighting import build_filter, operator_plan


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# 1. solver iterates match the dense-matrix oracle step for step


def test_1_solver_iterates_match_dense_oracle():
    t0 = time.perf_counter()
    h = w = 8
    levels = 2
    eta = 0.9
    psf = make_gaussian_psf(3, 1.0)
    A = densify_blur(psf, w, h)
    ana, syn = densify_wavelet(w, h, levels)

    cases = [
        (Variant.ISTA, 1, 1.0),
        (Variant.FISTA, 1, 1.0),
        (Variant.IFISTA, 4, 1.0),
        (Variant.EFISTA, 2, 1.5),
        (Variant.EFISTA, 4, 2.0),
    ]
    rng = np.random.default_rng(20260816)
    worst = 0.0
    instances = 0
    for variant, n, p in cases:
        cfg = SolverConfig(variant=variant, eta=eta, lam=1e-3, n=n, p=p,
                           max_iters=20, wavelet_levels=levels)
        Wn = dense_Wn(A, eta, n)
        for _ in range(2):
            truth = rng.random((h, w))
            b = blur_apply(psf, truth) + 0.01 * rng.standard_normal((h, w))
            problem = Problem.build(cfg, b, psf)
            state = SolverState.start(b.copy(), problem)
            xd = b.ravel().copy()
            yd = xd.copy()
            ad = 1.0
            bd = b.ravel()
            for _ in range(20):
                state = efista_step(state, cfg, problem)
                xd, yd, ad = dense_solver_step(xd, yd, ad, bd, A, Wn,
                                               ana, syn, (h, w), cfg)
                worst = max(worst, float(np.abs(state.x.ravel() - xd).max()))
            instances += 1
    elapsed = time.perf_counter() - t0

    ok = worst <= 1e-8 and elapsed < 10
    report(1, ok,
           f"max |fast - dense| over {instances} instances x 20 iters "
           f"= {worst:.3e} (tol 1e-8), {elapsed:.1f}s (budget 10s)")
    assert worst <= 1e-8
    assert elapsed < 10


# ---------------------------------------------------------------------------
# 2. the weighting identity (I - eta A^T A)^n x == x - eta W_n A^T A x


def test_2_weighting_identity_spectral_and_dense():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    orders = (1, 2, 4, 8)
    worst = 0.0

    # spectral route on a 64x64 grid with the benchmark blur
    psf = make_gaussian_psf(7, 4.0)
    h = w = 64
    eta = 1.0
    lam = spectral_decompose(psf, (h, w))
    x = rng.standard_normal((h, w))
    zero = np.zeros_like(x)
    xnorm = float(np.linalg.norm(x))
    for n in orders:
        lhs = x.copy()
        for _ in range(n):
            lhs = lhs - eta * gradient(psf, lhs, zero)
        phi = build_filter(eta * lam * lam, n)
        rhs = x - eta * idct2(phi * dct2(gradient(psf, x, zero)))
        worst = max(worst, float(np.linalg.norm(lhs - rhs)) / xnorm)

    # dense route on a 12x12 grid with a smaller kernel and eta < 1
    psf2 = make_gaussian_psf(3, 1.0)
    h2 = w2 = 12
    eta2 = 0.9
    A = densify_blur(psf2, w2, h2)
    G = A.entries.T @ A.entries
    eye = np.eye(h2 * w2)
    xv = rng.standard_normal(h2 * w2)
    xvnorm = float(np.linalg.norm(xv))
    for n in orders:
        Wn = dense_Wn(A, eta2, n).entries
        lhs = np.linalg.matrix_power(eye - eta2 * G, n) @ xv
        rhs = xv - eta2 * (Wn @ (G @ xv))
        worst = max(worst, float(np.linalg.norm(lhs - rhs)) / xvnorm)
    elapsed = time.perf_counter() - t0

    ok = worst <= 1e-9 and elapsed < 5
    report(2, ok,
           f"max rel error over n in {orders}, spectral 64x64 + dense 12x12 "
           f"= {worst:.3e} (tol 1e-9), {elapsed:.1f}s (budget 5s)")
    assert worst <= 1e-9
    assert elapsed < 5


# ---------------------------------------------------------------------------
# 3. spectral constants of the benchmark blur at 256x256, eta = 1


def test_3_spectral_constants():
    psf = make_gaussian_psf(7, 4.0)
    lam_max = lambda_max_AtA(psf, 256, 256)
    lw = operator_plan(psf, (256, 256), 1.0, 8).lambda_max_W

    ok = abs(lam_max - 1.0) <= 1e-6 and 7.9 < lw <= 8.0
    report(3, ok,
           f"lambda_max(A^T A) = {lam_max!r} (want 1 +/- 1e-6), "
           f"lambda_max(W_8) = {lw!r} (want in (7.9, 8.0])")
    assert abs(lam_max - 1.0) <= 1e-6
    assert 7.9 < lw <= 8.0


# ---------------------------------------------------------------------------
# 4. convergence-curve shapes: cameraman, sigma 1e-2, 50 iters, 10 trials


@pytest.fixture(scope="module")
def fig1_curves():
    scenario = Scenario("cameraman", noise_sigma=1e-2, K=50)
    t0 = time.perf_counter()
    res = run_convergence_test(scenario, ["fista", "ifista", "efista"], [8])
    return res, time.perf_counter() - t0


def _first_reach(curve, target):
    hits = np.nonzero(curve <= target)[0]
    return int(hits[0]) + 1 if hits.size else None


def test_4_convergence_curve_shapes(fig1_curves):
    res, elapsed = fig1_curves
    fista = res["fista"][1]["mean_objective"]
    ifista = res["ifista"][8]["mean_objective"]
    efista = res["efista"][8]["mean_objective"]

    # (a) the unscaled weighted variant turns back up: the mean objective at
    # iteration 50 sits well above the minimum along the way
    rise = float((ifista[-1] - ifista.min()) / ifista.min())
    ok_a = rise >= 0.10

    # (b) the threshold-scaled variant keeps descending: non-increasing from
    # iteration 20 onward within 0.1 percent
    tail = efista[19:]
    worst_step = float(((tail[1:] - tail[:-1]) / tail[:-1]).max())
    ok_b = worst_step <= 1e-3

    # (c) both weighted variants touch the baseline's final level by iter 25
    target = float(fista[-1])
    reach_e = _first_reach(efista, target)
    reach_i = _first_reach(ifista, target)
    ok_c = (reach_e is not None and reach_e <= 25
            and reach_i is not None and reach_i <= 25)
    ok_t = elapsed < 120

    def word(flag):
        return "ok" if flag else "UNMET"

    below_fista = int((efista <= fista).sum())
    detail = (
        f"(a) ifista end rise {rise:.1%} need >= 10% {word(ok_a)}; "
        f"(b) efista worst relative step after iter 20 = {worst_step:.2e} "
        f"tol 1e-3 {word(ok_b)}; "
        f"(c) reach fista@50 = {target:.5g} by iter 25: "
        f"efista at {reach_e} (min/target {float(efista.min()) / target:.4f}), "
        f"ifista at {reach_i} (min/target {float(ifista.min()) / target:.4f}), "
        f"efista <= fista at {below_fista}/50 matched iters {word(ok_c)}; "
        f"{elapsed:.0f}s (budget 120s)"
    )
    report(4, ok_a and ok_b and ok_c and ok_t, detail)
    assert ok_t, f"runtime {elapsed:.0f}s over the 120s budget"
    assert ok_a, f"ifista end rise {rise:.1%} below 10%"
    assert ok_b, f"efista increases by {worst_step:.2e} after iter 20"
    assert ok_c, (
        f"reach-by-25 unmet: target {target:.5g}; efista first reach {reach_e} "
        f"(plateau {float(efista.min()):.5g}), ifista first reach {reach_i} "
        f"(best {float(ifista.min()):.5g} before turning up)"
    )


# ---------------------------------------------------------------------------
# 5. threshold-scale sweep: divergence frontier and objective argmin


def test_5_threshold_scale_sweep():
    t0 = time.perf_counter()
    grid = [float(p) for p in range(1, 9)]
    lw = operator_plan(make_gaussian_psf(7, 4.0), (256, 256), 1.0, 8).lambda_max_W

    cam = Scenario("cameraman", noise_sigma=1e-2, K=50)
    sweep_cam = run_p_sweep(cam, 8, grid, probe_iter=15)
    frontier = sweep_cam.divergence_frontier()
    ok_frontier = frontier is not None and 6.0 <= frontier <= 8.0

    argmins = {"cameraman": sweep_cam.argmin_objective()}
    for image in ("lena", "barbara"):
        sc = Scenario(image, noise_sigma=1e-2, K=15)
        argmins[image] = run_p_sweep(sc, 8, grid, probe_iter=15).argmin_objective()
    ok_argmin = all(abs(a - lw) <= 1.0 for a in argmins.values())
    elapsed = time.perf_counter() - t0

    ok = ok_frontier and ok_argmin and elapsed < 300
    amtxt = ", ".join(f"{k} {v:g}" for k, v in argmins.items())
    report(5, ok,
           f"divergence frontier p = {frontier} (want in [6, 8]); "
           f"iter-15 argmin p: {amtxt} (want within 1.0 of {lw:.6f}); "
           f"{elapsed:.0f}s (budget 300s)")
    assert ok_frontier, f"frontier {frontier} outside [6, 8]"
    assert ok_argmin, f"argmins {argmins} not all within 1.0 of {lw}"
    assert elapsed < 300


# ---------------------------------------------------------------------------
# 6. averaged-PSNR table at two noise levels


# reference values for the two classic images (FISTA / EFISTA, mean PSNR dB)
REFERENCE_PSNR = {
    ("cameraman", 1e-2, "FISTA"): 25.39,
    ("cameraman", 1e-2, "EFISTA"): 25.39,
    ("lena", 1e-2, "FISTA"): 30.21,
    ("lena", 1e-2, "EFISTA"): 30.28,
    ("cameraman", 1e-3, "FISTA"): 30.05,
    ("cameraman", 1e-3, "EFISTA"): 30.05,
    ("lena", 1e-3, "FISTA"): 33.47,
    ("lena", 1e-3, "EFISTA"): 33.56,
}


@pytest.fixture(scope="module")
def psnr_table():
    scenarios = [
        Scenario(image, noise_sigma=sigma, K=k)
        for image in STANDARD_IMAGES
        for sigma, k in ((1e-2, 45), (1e-3, 180))
    ]
    t0 = time.perf_counter()
    table = run_psnr_table(scenarios)
    return table, time.perf_counter() - t0


def _table_value(table, image, sigma, algorithm):
    for row in table.rows:
        if (row.image_id == image and row.sigma == sigma
                and row.algorithm == algorithm):
            return row.psnr_mean
    raise KeyError((image, sigma, algorithm))


def test_6_psnr_table(psnr_table):
    table, elapsed = psnr_table

    # primary gate: match the reference values within 0.7 dB
    deltas = {
        key: _table_value(table, *key) - ref
        for key, ref in REFERENCE_PSNR.items()
    }
    worst_key = max(deltas, key=lambda k: abs(deltas[k]))
    primary = all(abs(d) <= 0.7 for d in deltas.values())

    # fallback gate: the ordering properties that survive a different
    # wavelet or different source images
    margins = {
        image: (_table_value(table, image, 1e-2, "EFISTA")
                - _table_value(table, image, 1e-2, "IFISTA"))
        for image in STANDARD_IMAGES
    }
    gaps = {
        (image, sigma): abs(_table_value(table, image, sigma, "EFISTA")
                            - _table_value(table, image, sigma, "FISTA"))
        for image in STANDARD_IMAGES
        for sigma in (1e-2, 1e-3)
    }
    min_margin = min(margins.values())
    max_gap = max(gaps.values())
    fallback = min_margin >= 1.0 and max_gap <= 0.3

    ok = (primary or fallback) and elapsed < 600
    which = "primary +/-0.7 dB gate" if primary else (
        "fallback ordering gate" if fallback else "no gate")
    report(6, ok,
           f"{which} holds; worst reference delta {deltas[worst_key]:+.2f} dB "
           f"at {worst_key}; min EFISTA-IFISTA margin at sigma 1e-2 "
           f"= {min_margin:.2f} dB (fallback needs >= 1.0); "
           f"max |EFISTA-FISTA| = {max_gap:.3f} dB (fallback tol 0.3); "
           f"{elapsed:.0f}s (budget 600s)")
    assert primary or fallback, (
        f"both gates fail: deltas {deltas}, margins {margins}, gaps {gaps}")
    assert elapsed < 600


# ---------------------------------------------------------------------------
# 7. the O(1/k^2) objective bound against a long reference run


def test_7_rate_bound():
    size = 64
    truth = synthetic_image("cameraman", size)
    psf = make_gaussian_psf(7, 4.0)
    b = blur_apply(psf, truth)
    levels = 6

    ref_cfg = SolverConfig(variant=Variant.FISTA, eta=1.0, lam=0.0,
                           max_iters=5000, wavelet_levels=levels)
    x_star, _ = run_solver(ref_cfg, b, psf)

    cfg = SolverConfig(variant=Variant.EFISTA, eta=1.0, lam=0.0, n=8,
                       max_iters=200, wavelet_levels=levels)
    _, trace = run_solver(cfg, b, psf)
    assert len(trace) == 200 and not trace.diverged

    plan = operator_plan(psf, (size, size), 1.0, 8)
    problem = Problem(psf=psf, b=b, workspace=LiftingWorkspace(b.shape, levels))
    rep = rate_check(trace, b, x_star, plan, problem, cfg)

    report(7, rep.passed,
           f"F(x_k) - F* <= {rep.constant:g} * ||x0 - x*||^2_Winv / (k+1)^2 "
           f"for k in [2, 200]: {rep.violations} violations, "
           f"max bound ratio {rep.max_ratio:.3e} at iter {rep.worst_iter} "
           f"(numerator {rep.bound_numerator:.4g}, F* = {rep.f_star:.4g})")
    assert rep.passed, f"{rep.violations} bound violations, worst at {rep.worst_iter}"


# ---------------------------------------------------------------------------
# 8. transform suite: reconstruction, round trip, adjoint, majorization


def test_8_transform_suite():
    rng = np.random.default_rng(2468)

    # wavelet perfect reconstruction
    worst_pr = 0.0
    for h, w, levels in ((256, 256, 8), (64, 64, 6), (64, 32, 3), (16, 16, 2)):
        x = rng.standard_normal((h, w))
        ws = LiftingWorkspace((h, w), levels)
        ws.analyze(x)
        worst_pr = max(worst_pr, float(np.abs(ws.synthesize() - x).max()))

    # DCT round trip
    worst_dct = 0.0
    for h, w in ((256, 256), (64, 48), (5, 9)):
        x = rng.standard_normal((h, w))
        worst_dct = max(worst_dct, float(np.abs(idct2(dct2(x)) - x).max()))

    # adjoint identity, relative to the inner-product scale
    kernels = [
        make_gaussian_psf(7, 4.0),
        make_gaussian_psf(3, 1.0),
        make_gaussian_psf(5, 2.0),
    ]
    worst_adj = 0.0
    for psf in kernels:
        for h, w in ((32, 32), (17, 23)):
            x = rng.standard_normal((h, w))
            y = rng.standard_normal((h, w))
            ax = blur_apply(psf, x)
            lhs = float((ax * y).sum())
            rhs = float((x * blur_adjoint(psf, y)).sum())
            scale = float(np.linalg.norm(ax) * np.linalg.norm(y))
            worst_adj = max(worst_adj, abs(lhs - rhs) / scale)

    # the quadratic surrogate majorizes the objective on sampled pairs
    h = w = 16
    levels = 2
    eta = 0.9
    psf = make_gaussian_psf(3, 1.0)
    plan = operator_plan(psf, (h, w), eta, 4)
    cfg = SolverConfig(variant=Variant.EFISTA, eta=eta, lam=1e-2, n=4,
                       p=plan.lambda_max_W, wavelet_levels=levels)
    truth = rng.random((h, w))
    b = blur_apply(psf, truth) + 0.01 * rng.standard_normal((h, w))
    problem = Problem(psf=psf, b=b, workspace=LiftingWorkspace(b.shape, levels))
    min_margin = math.inf
    pairs = 1000
    for _ in range(pairs):
        xs = rng.standard_normal((h, w))
        zs = rng.standard_normal((h, w))
        q = surrogate_Q(xs, zs, problem, cfg, plan)
        f = objective(xs, b, psf, cfg.lam, levels)
        min_margin = min(min_margin, q - f)

    ok = (worst_pr <= 1e-9 and worst_dct <= 1e-12
          and worst_adj <= 1e-10 and min_margin >= 0.0)
    report(8, ok,
           f"wavelet reconstruction max err {worst_pr:.2e} (tol 1e-9); "
           f"DCT round trip {worst_dct:.2e} (tol 1e-12); "
           f"adjoint identity rel {worst_adj:.2e} (tol 1e-10); "
           f"min Q - F margin over {pairs} pairs = {min_margin:.4g} (want >= 0)")
    assert worst_pr <= 1e-9
    assert worst_dct <= 1e-12
    assert worst_adj <= 1e-10
    assert min_margin >= 0.0


# ---------------------------------------------------------------------------
# 9. per-iteration cost of the weighted spectral step


def test_9_weighted_step_cost():
    size = 256
    truth = synthetic_image("cameraman", size)
    psf = make_gaussian_psf(7, 4.0)
    b = add_awgn(blur_apply(psf, truth), 1e-2, seed=0)
    lam = 1e-3

    def run(variant, n, iters):
        cfg = SolverConfig(variant=variant, eta=1.0, lam=lam, n=n,
                           max_iters=iters)
        _, trace = run_solver(cfg, b, psf)
        return np.array([rec.seconds for rec in trace.records])

    run(Variant.FISTA, 1, 5)  # warm caches and the FFT plans
    run(Variant.EFISTA, 8, 5)
    # 100 timed iterations per variant in alternating blocks of 20, so a
    # spell of machine load falls on both variants alike
    blocks = [(run(Variant.FISTA, 1, 20), run(Variant.EFISTA, 8, 20)) for _ in range(5)]
    sec_f = np.concatenate([f for f, _ in blocks])
    sec_e = np.concatenate([e for _, e in blocks])
    med_f = float(np.median(sec_f))
    med_e = float(np.median(sec_e))
    ratio = med_e / med_f

    ok = ratio <= 1.5
    report(9, ok,
           f"median per-iteration seconds over 100 iters at 256x256: "
           f"baseline {med_f * 1e3:.2f} ms, weighted n=8 {med_e * 1e3:.2f} ms, "
           f"ratio {ratio:.3f} (gate 1.5)")
    assert ratio <= 1.5, f"per-iteration ratio {ratio:.3f} exceeds 1.5"
