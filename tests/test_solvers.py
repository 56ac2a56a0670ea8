import math
import tracemalloc

import numpy as np
import pytest

from oracle import (
    dct_gradient,
    dense_Wn,
    densify_blur,
    l1_norm_wavelet,
    objective,
    rate_check,
    route_kernels,
    surrogate_Q,
    wnorm_sq,
)
from proxdeblur.linop import blur_apply, gradient
from proxdeblur.solvers import (
    Problem,
    SolverConfig,
    SolverState,
    Variant,
    _data_term,
    efista_step,
    momentum_alpha,
    momentum_extrapolate,
    psnr,
    run_solver,
    runs_diverged,
)
from proxdeblur.wavelet import LiftingWorkspace, prox_l1_wavelet, wavelet_depth
from proxdeblur.weighting import operator_plan


@pytest.fixture
def tiny_problem(rng, psf31):
    truth = rng.uniform(0, 1, (16, 16))
    b = blur_apply(psf31, truth) + 0.01 * rng.standard_normal((16, 16))
    return psf31, b


def test_momentum_alpha_values():
    golden = (1 + math.sqrt(5)) / 2
    assert momentum_alpha(1.0) == pytest.approx(golden, rel=1e-15)
    a2 = (1 + math.sqrt(1 + 4 * golden * golden)) / 2
    assert momentum_alpha(golden) == pytest.approx(a2, rel=1e-15)


def test_momentum_alpha_growth():
    # alpha_k >= (k+2)/2, the property that drives the 1/k^2 rate
    a = 1.0
    for k in range(1, 60):
        a = momentum_alpha(a)
        assert a >= (k + 2) / 2 - 1e-12


def test_momentum_extrapolate_formula(rng):
    x1 = rng.standard_normal((4, 4))
    x0 = rng.standard_normal((4, 4))
    y = momentum_extrapolate(x1, x0, 2.0, 4.0)
    assert np.allclose(y, x1 + 0.25 * (x1 - x0))
    with pytest.raises(ValueError):
        momentum_extrapolate(x1, np.zeros((3, 3)), 2.0, 4.0)


def test_variant_coercion_and_validation():
    cfg = SolverConfig(variant="fista", n=8, p=3.0)
    assert cfg.variant is Variant.FISTA
    assert cfg.n == 1  # forced for unweighted variants
    assert cfg.p == 1.0  # forced for everything but efista
    assert SolverConfig(variant="fista", p=math.nan).p == 1.0  # reset before the finite check
    assert SolverConfig(variant="fista", n=40).n == 1  # reset before the order check
    with pytest.raises(ValueError, match=r"^unknown variant 'bogus' \(valid: ista, fista, "
                                         r"ifista, efista\)$"):
        SolverConfig(variant="bogus")
    with pytest.raises(ValueError, match=r"^order n must be in \[1, 32\], got 33$"):
        SolverConfig(variant="ifista", n=33)
    with pytest.raises(ValueError):
        SolverConfig(variant="efista", eta=0.0)
    with pytest.raises(ValueError):
        SolverConfig(variant="efista", lam=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(variant="efista", p=0.5)
    with pytest.raises(ValueError):
        SolverConfig(variant="efista", max_iters=-1)


def test_efista_n1_p1_is_exactly_fista(tiny_problem):
    psf, b = tiny_problem
    kw = dict(eta=1.0, lam=1e-3, max_iters=12, wavelet_levels=2)
    x_f, tr_f = run_solver(SolverConfig(variant="fista", **kw), b, psf)
    x_e, tr_e = run_solver(SolverConfig(variant="efista", n=1, p=1.0, **kw), b, psf)
    assert np.array_equal(x_f, x_e)
    assert tr_f.objectives().tolist() == tr_e.objectives().tolist()


def test_efista_p1_is_exactly_ifista(tiny_problem):
    psf, b = tiny_problem
    kw = dict(eta=1.0, lam=1e-3, n=4, max_iters=12, wavelet_levels=2)
    x_i, tr_i = run_solver(SolverConfig(variant="ifista", **kw), b, psf)
    x_e, tr_e = run_solver(SolverConfig(variant="efista", p=1.0, **kw), b, psf)
    assert np.array_equal(x_i, x_e)
    assert tr_i.objectives().tolist() == tr_e.objectives().tolist()


def test_ista_differs_from_fista(tiny_problem):
    psf, b = tiny_problem
    kw = dict(eta=1.0, lam=1e-3, max_iters=10, wavelet_levels=2)
    x_i, _ = run_solver(SolverConfig(variant="ista", **kw), b, psf)
    x_f, _ = run_solver(SolverConfig(variant="fista", **kw), b, psf)
    assert not np.allclose(x_i, x_f)


def test_run_solver_matches_hand_rolled_ista(tiny_problem):
    psf, b = tiny_problem
    eta, lam, levels = 1.0, 1e-3, 2
    x = b.copy()
    ws = LiftingWorkspace(b.shape, levels)
    for _ in range(6):
        z = x - eta * dct_gradient(psf, x, b)
        x, _ = prox_l1_wavelet(z, lam * eta, ws)
    got, _ = run_solver(
        SolverConfig(variant="ista", eta=eta, lam=lam, max_iters=6,
                     wavelet_levels=levels),
        b, psf)
    assert np.array_equal(got, x)


def test_ista_objective_never_increases(tiny_problem):
    psf, b = tiny_problem
    _, trace = run_solver(
        SolverConfig(variant="ista", eta=1.0, lam=1e-3, max_iters=25,
                     wavelet_levels=2),
        b, psf)
    f = trace.objectives()
    assert (np.diff(f) <= 1e-12).all()


def test_max_iters_zero_returns_start(tiny_problem):
    psf, b = tiny_problem
    x0 = np.zeros_like(b)
    x, trace = run_solver(
        SolverConfig(variant="fista", max_iters=0), b, psf, x0=x0)
    assert np.array_equal(x, x0)
    assert len(trace) == 0 and not trace.diverged


def test_runs_are_deterministic(tiny_problem):
    psf, b = tiny_problem
    cfg = SolverConfig(variant="efista", lam=1e-3, n=8, max_iters=8,
                       wavelet_levels=2)
    x1, t1 = run_solver(cfg, b, psf)
    x2, t2 = run_solver(cfg, b, psf)
    assert np.array_equal(x1, x2)
    assert t1.objectives().tolist() == t2.objectives().tolist()


def test_hard_divergence_guard(monkeypatch, tiny_problem):
    from proxdeblur import solvers

    psf, b = tiny_problem
    # an absurdly low factor flags the very first iteration
    monkeypatch.setattr(solvers, "DIVERGENCE_FACTOR", 1e-12)
    cfg = SolverConfig(variant="fista", lam=1e-3, max_iters=10, wavelet_levels=2)
    _, trace = run_solver(cfg, b, psf)
    assert trace.diverged
    assert len(trace) == 1  # the offending record is kept


def test_nonfinite_iterates_flag_divergence(monkeypatch, tiny_problem):
    from proxdeblur import solvers

    psf, b = tiny_problem
    cfg = SolverConfig(variant="fista", max_iters=5, wavelet_levels=2)
    assert not run_solver(cfg, b, psf)[1].diverged
    # F(x0) is finite; the second step's iterate is so large that its
    # residual overflows
    step, calls = solvers.efista_step, []

    def overflowing_step(state, cfg, problem):
        state = step(state, cfg, problem)
        calls.append(cfg)
        if len(calls) == 2:
            state.x = 1e200 * state.x
            state.cx = None if state.cx is None else 1e200 * state.cx
        return state

    monkeypatch.setattr(solvers, "efista_step", overflowing_step)
    x, trace = run_solver(cfg, b, psf)
    assert trace.diverged
    assert len(calls) == 2 and len(trace) == 1  # the overflowing step is not recorded
    assert np.all(np.isfinite(x))


def test_nonfinite_initial_objective_is_rejected_before_the_first_step(monkeypatch,
                                                                       tiny_problem):
    from proxdeblur import solvers

    def no_step(*args):
        raise AssertionError("a step ran from a non-finite objective")

    psf, b = tiny_problem
    monkeypatch.setattr(solvers, "efista_step", no_step)
    with pytest.raises(ValueError, match=r"^the objective at x0 is not finite \(inf\)"):
        run_solver(SolverConfig(variant="fista", max_iters=5, wavelet_levels=2),
                   b, psf, x0=1e200 * np.ones_like(b) + b)


@pytest.mark.parametrize("arg", ["b", "x0"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_input_is_rejected_before_the_plan(monkeypatch, tiny_problem, arg, bad):
    from proxdeblur import solvers

    psf, b = tiny_problem
    inputs = {"b": b.copy(), "x0": b.copy()}
    inputs[arg][3, 5] = bad

    def no_plan(*args, **kwargs):
        raise AssertionError("operator plan built for a non-finite input")

    monkeypatch.setattr(solvers, "operator_plan", no_plan)
    with pytest.raises(ValueError, match=rf"^{arg} has non-finite"):
        run_solver(SolverConfig(variant="efista", lam=1e-3, n=8, max_iters=5,
                                wavelet_levels=2), inputs["b"], psf, x0=inputs["x0"])


@pytest.mark.parametrize("shape", [(64, 64), (32, 64)])
def test_default_wavelet_levels_follow_the_shape(rng, psf31, shape):
    b = rng.uniform(0, 1, shape)
    x, trace = run_solver(SolverConfig(variant="efista", lam=1e-3, n=4, max_iters=3), b, psf31)
    assert trace.config.wavelet_levels == wavelet_depth(shape)
    x_ref, tr_ref = run_solver(SolverConfig(variant="efista", lam=1e-3, n=4, max_iters=3,
                                            wavelet_levels=wavelet_depth(shape)), b, psf31)
    assert np.array_equal(x, x_ref)
    assert trace.objectives().tolist() == tr_ref.objectives().tolist()


def test_explicit_wavelet_levels_are_kept(tiny_problem):
    psf, b = tiny_problem
    cfg = SolverConfig(variant="efista", lam=1e-3, n=8, max_iters=2, wavelet_levels=2)
    assert run_solver(cfg, b, psf)[1].config.wavelet_levels == 2


def test_shape_without_a_wavelet_level_is_rejected_before_the_plan(monkeypatch, rng, psf31):
    from proxdeblur import solvers

    def no_plan(*args, **kwargs):
        raise AssertionError("operator plan built for a shape with no wavelet level")

    monkeypatch.setattr(solvers, "operator_plan", no_plan)
    with pytest.raises(ValueError, match="do not admit a wavelet level"):
        run_solver(SolverConfig(variant="efista", lam=1e-3, n=8, max_iters=5),
                   rng.uniform(0, 1, (17, 23)), psf31)


def test_wavelet_levels_the_shape_does_not_divide_are_rejected_before_the_plan(
        monkeypatch, psf74):
    from proxdeblur import solvers

    def no_plan(*args, **kwargs):
        raise AssertionError("operator plan built for wavelet levels the shape does not admit")

    monkeypatch.setattr(solvers, "operator_plan", no_plan)
    with pytest.raises(ValueError, match="image dims 48x48 not divisible by 2\\^levels = 32"):
        run_solver(SolverConfig(variant="efista", lam=1e-3, n=8, max_iters=5, wavelet_levels=5),
                   np.zeros((48, 48)), psf74)


@pytest.mark.parametrize("truth,match", [
    (np.zeros((16, 16)), "shape mismatch: truth \\(16, 16\\) vs b \\(32, 32\\)"),
    (np.full((32, 32), np.nan), "truth has non-finite entries"),
])
def test_bad_truth_is_rejected_before_any_step(monkeypatch, psf74, truth, match):
    from proxdeblur import solvers

    def no_step(*args, **kwargs):
        raise AssertionError("a solver step ran for a truth that cannot be compared")

    monkeypatch.setattr(solvers, "efista_step", no_step)
    with pytest.raises(ValueError, match=match):
        run_solver(SolverConfig(variant="efista", lam=1e-3, n=8, max_iters=5),
                   np.zeros((32, 32)), psf74, truth=truth)


@pytest.mark.parametrize("kernel", ["psf74", "asymmetric_psf"])
@pytest.mark.parametrize("field,value", [
    ("n", 2.5), ("n", True), ("max_iters", 2.5), ("max_iters", False), ("max_iters", "5"),
    ("eta", None), ("lam", None), ("lam", "0.1"), ("p", "3"),
])
def test_non_integer_order_or_iterations_is_rejected_naming_the_field(
        monkeypatch, request, kernel, field, value):
    # eta, lam and p must be real numbers instead, and lam is named lambda
    from proxdeblur import solvers

    def no_plan(*args, **kwargs):
        raise AssertionError("operator plan built for a config that is not valid")

    monkeypatch.setattr(solvers, "operator_plan", no_plan)
    psf = request.getfixturevalue(kernel)
    name = {"lam": "lambda"}.get(field, field)
    kind = "an integer" if field in ("n", "max_iters") else "a real number"
    with pytest.raises(ValueError, match=f"^{name} must be {kind}, got {value!r}$"):
        run_solver(SolverConfig(**{"variant": "efista", "eta": 0.9, "lam": 1e-3, "n": 2,
                                   "max_iters": 3, field: value}),
                   np.zeros((16, 16)), psf)


def test_numpy_integer_order_and_iterations_are_accepted(tiny_problem):
    psf, b = tiny_problem
    kw = dict(variant="efista", lam=1e-3, wavelet_levels=2)
    x_np, _ = run_solver(SolverConfig(n=np.int64(4), max_iters=np.int32(3), **kw), b, psf)
    x_py, _ = run_solver(SolverConfig(n=4, max_iters=3, **kw), b, psf)
    assert np.array_equal(x_np, x_py)


def test_run_builds_one_wavelet_workspace(monkeypatch, tiny_problem):
    from proxdeblur import solvers, wavelet

    built = []

    class Counted(LiftingWorkspace):
        def __init__(self, shape, levels):
            built.append(shape)
            super().__init__(shape, levels)

    monkeypatch.setattr(wavelet, "LiftingWorkspace", Counted)
    monkeypatch.setattr(solvers, "LiftingWorkspace", Counted)
    psf, b = tiny_problem
    _, trace = run_solver(SolverConfig(variant="efista", lam=1e-3, n=4, max_iters=3,
                                       wavelet_levels=2), b, psf)
    assert len(trace) == 3
    assert built == [b.shape]


def test_step_size_just_above_the_bound_is_rejected_without_flip_symmetry(rng, asymmetric_psf):
    # 1/eta is 1.4e-7 relative below lambda_max(A^T A) = 1.03339596 here,
    # beyond the 1 + STEP_TOL slack of the step-size check
    b = rng.uniform(0, 1, (16, 16))
    with pytest.raises(ValueError, match="exceeds 1/lambda_max"):
        run_solver(SolverConfig(variant="efista", eta=1 / 1.0333958137368837, lam=1e-3,
                                n=2, max_iters=2), b, asymmetric_psf)


@pytest.mark.parametrize("kernel", ["psf31", "asymmetric_psf"])
def test_nonfinite_stop_returns_last_recorded_iterate(monkeypatch, request, rng, kernel):
    # the 4th prox returns NaN: the run keeps 3 records and x is the 3rd iterate
    from proxdeblur import solvers

    psf = request.getfixturevalue(kernel)
    b = rng.uniform(0, 1, (16, 16))
    cfg = dict(variant="efista", eta=0.9, lam=1e-3, n=4, wavelet_levels=2)
    prox, calls = solvers.prox_l1_wavelet, []

    def poisoned(z, *args, **kwargs):
        calls.append(None)
        return prox(np.full_like(z, np.nan) if len(calls) == 4 else z, *args, **kwargs)

    monkeypatch.setattr(solvers, "prox_l1_wavelet", poisoned)
    x, trace = run_solver(SolverConfig(max_iters=10, **cfg), b, psf)
    monkeypatch.undo()
    assert trace.diverged and len(trace) == 3
    x_ref, tr_ref = run_solver(SolverConfig(max_iters=len(trace), **cfg), b, psf)
    assert np.array_equal(x, x_ref)
    assert trace.objectives().tolist() == tr_ref.objectives().tolist()


@pytest.mark.parametrize("route", ["dct", "separable", "2d"])
def test_callers_arrays_are_never_written(rng, route):
    # a step rotates the run's own buffers, so an x0 kept rather than
    # copied would be overwritten two steps later
    psf = route_kernels()[route]
    truth = rng.uniform(0, 1, (16, 16))
    b = blur_apply(psf, truth) + 0.01 * rng.standard_normal(truth.shape)
    x0 = rng.uniform(0, 1, truth.shape)
    originals = [a.copy() for a in (b, x0, truth)]
    for variant in ("ista", "efista"):
        cfg = SolverConfig(variant=variant, eta=0.9, lam=1e-3, n=4, max_iters=5,
                           wavelet_levels=2)
        _, trace = run_solver(cfg, b, psf, x0=x0, truth=truth)
        problem = Problem.build(trace.config, b, psf)
        state = SolverState.start(x0, problem)
        for _ in range(3):
            state = efista_step(state, trace.config, problem)
    for array, original in zip((b, x0, truth), originals):
        assert np.array_equal(array, original)


def warm_step_peak(psf, b, cfg):
    """tracemalloc peak of one efista_step, its data term and its PSNR after
    two warm-up steps, in bytes above what was held before."""
    problem = Problem.build(cfg, b, psf)
    state = SolverState.start(b, problem)
    scratch = problem.workspace.scratch

    def step():
        efista_step(state, cfg, problem)
        _data_term(state, problem)
        psnr(state.x, b, scratch)

    step()
    step()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        step()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("route,images", [("dct", 0.125), ("separable", 1.125)])
def test_a_warm_spectral_step_allocates_no_image(route, images):
    # tracemalloc sees numpy's data buffers.  At 256x256 a step, its data
    # term and its PSNR run in the state's and the workspace's buffers: on
    # the DCT route nothing image-sized is allocated (an eighth of an image
    # leaves room for small objects only), and the Kronecker route adds
    # the one intermediate of its matrix products
    psf = route_kernels()[route]
    b = np.random.default_rng(0).uniform(0, 1, (256, 256))
    cfg = SolverConfig(variant="efista", eta=0.99, lam=1e-3, n=8, p=2.0, wavelet_levels=8)
    assert warm_step_peak(psf, b, cfg) < images * b.nbytes


def test_a_run_holds_under_ten_images(psf74):
    # x, y, the spare, cx and cy (5 images), the wavelet workspace (3.5
    # images and two spare rows a side) and cb = dct2(b) (1 image): 9.5
    # images, with no per-step temporary on top
    b = np.random.default_rng(0).uniform(0, 1, (256, 256))
    cfg = SolverConfig(variant="efista", eta=1.0, lam=1e-3, n=8, max_iters=20)
    run_solver(cfg, b, psf74, truth=b)  # builds the kernel's plan
    tracemalloc.start()
    try:
        run_solver(cfg, b, psf74, truth=b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * b.nbytes


def test_step_size_validation(tiny_problem):
    psf, b = tiny_problem
    with pytest.raises(ValueError):
        run_solver(SolverConfig(variant="fista", eta=1.2, max_iters=1,
                                wavelet_levels=2), b, psf)


def test_oversized_threshold_scale_warns(tiny_problem):
    psf, b = tiny_problem
    cfg = SolverConfig(variant="efista", lam=1e-3, n=8, p=10.0, max_iters=1,
                       wavelet_levels=2)
    with pytest.warns(UserWarning, match="exceeds"):
        run_solver(cfg, b, psf)


def test_default_p_resolves_to_filter_gain(tiny_problem):
    psf, b = tiny_problem
    plan = operator_plan(psf, (16, 16), 1.0, 8)
    cfg = SolverConfig(variant="efista", lam=1e-3, n=8, p=None, max_iters=2,
                       wavelet_levels=2)
    x_auto, _ = run_solver(cfg, b, psf)
    cfg2 = SolverConfig(variant="efista", lam=1e-3, n=8, p=plan.lambda_max_W,
                        max_iters=2, wavelet_levels=2)
    x_explicit, _ = run_solver(cfg2, b, psf)
    assert np.array_equal(x_auto, x_explicit)


def nstep_route(cfg, b, psf):
    """run_solver's loop on the matrix-free n-step route: a Problem built
    without cb, from x0 = b, for a config with p resolved.  Returns the final
    iterate and the objectives as run_solver computes them on that route."""
    problem = Problem(psf=psf, b=b, workspace=LiftingWorkspace(b.shape, cfg.wavelet_levels))
    state = SolverState.start(b.copy(), problem)
    objectives = []
    for _ in range(cfg.max_iters):
        state = efista_step(state, cfg, problem)
        r = blur_apply(psf, state.x) - b
        objectives.append(0.5 * float((r * r).sum()) + cfg.lam * state.l1)
    return state.x, np.array(objectives)


def test_spectral_and_nstep_routes_agree(tiny_problem):
    psf, b = tiny_problem
    kw = dict(variant="ifista", lam=1e-3, n=4, max_iters=10, wavelet_levels=2)
    x_s, tr_s = run_solver(SolverConfig(**kw), b, psf)
    x_n, obj_n = nstep_route(tr_s.config, b, psf)
    assert np.abs(x_s - x_n).max() < 1e-8
    assert np.abs(tr_s.objectives() - obj_n).max() < 1e-8


def test_psnr_recording(tiny_problem, rng):
    psf, b = tiny_problem
    truth = rng.uniform(0, 1, b.shape)
    cfg = SolverConfig(variant="fista", lam=1e-3, max_iters=3, wavelet_levels=2)
    _, trace = run_solver(cfg, b, psf, truth=truth)
    assert len(trace) == 3 and np.all(np.isfinite(trace.records.psnr))
    _, trace2 = run_solver(cfg, b, psf)
    assert len(trace2) == 3 and np.all(np.isnan(trace2.records.psnr))


def test_trace_is_one_record_array_of_the_six_fields(tiny_problem):
    psf, b = tiny_problem
    cfg = SolverConfig(variant="efista", lam=1e-3, n=4, max_iters=5, wavelet_levels=2)
    _, trace = run_solver(cfg, b, psf)
    rec = trace.records
    assert isinstance(rec, np.recarray) and len(trace) == 5
    assert rec.dtype.names == ("iter", "objective", "data_term", "regularizer", "psnr",
                               "seconds")
    assert rec.iter.tolist() == [1, 2, 3, 4, 5]
    assert np.array_equal(rec.objective, rec.data_term + rec.regularizer)
    assert rec[-1].data_term == rec.data_term[-1] == rec["data_term"][-1]
    f = trace.objectives()
    f[:] = 0.0  # a copy: the trace keeps its objectives
    assert np.all(rec.objective > 0)


def test_wnorm_matches_dense_inverse(rng, psf31):
    eta, n = 0.9, 4
    plan = operator_plan(psf31, (8, 8), eta, n)
    W = dense_Wn(densify_blur(psf31, 8, 8), eta, n).entries
    v = rng.standard_normal((8, 8))
    want = float(v.ravel() @ np.linalg.solve(W, v.ravel()))
    assert wnorm_sq(v, plan) == pytest.approx(want, rel=1e-9)


def test_wnorm_bounds(rng, psf31):
    n = 8
    plan = operator_plan(psf31, (16, 16), 1.0, n)
    v = rng.standard_normal((16, 16))
    e = float((v * v).sum())
    w = wnorm_sq(v, plan)
    assert e / n - 1e-9 <= w <= e + 1e-9


def test_surrogate_majorizes_objective(rng, psf31):
    eta, lam, n, levels = 0.9, 1e-2, 4, 2
    plan = operator_plan(psf31, (16, 16), eta, n)
    b = rng.standard_normal((16, 16))
    problem = Problem(psf=psf31, b=b, workspace=LiftingWorkspace(b.shape, levels))
    cfg = SolverConfig(variant="efista", eta=eta, lam=lam, n=n,
                       p=plan.lambda_max_W, wavelet_levels=levels)
    for _ in range(50):
        x = rng.standard_normal((16, 16))
        z = rng.standard_normal((16, 16))
        q = surrogate_Q(x, z, problem, cfg, plan)
        f = objective(x, b, psf31, lam, levels)
        assert q >= f - 1e-10 * max(1.0, abs(f))


def test_surrogate_touches_objective_at_anchor(rng, psf31):
    # with p = 1 the majorizer is tight at x = z
    eta, lam, levels = 1.0, 1e-2, 2
    plan = operator_plan(psf31, (16, 16), eta, 1)
    b = rng.standard_normal((16, 16))
    problem = Problem(psf=psf31, b=b, workspace=LiftingWorkspace(b.shape, levels))
    cfg = SolverConfig(variant="efista", eta=eta, lam=lam, n=1, p=1.0,
                       wavelet_levels=levels)
    x = rng.standard_normal((16, 16))
    assert surrogate_Q(x, x, problem, cfg, plan) == pytest.approx(
        objective(x, b, psf31, lam, levels), rel=1e-12)


def test_surrogate_classic_form_at_order_one(rng, psf31):
    # n = 1 reduces the weighted quadratic to the plain 1/(2 eta) ||x-z||^2
    eta, lam, levels = 0.8, 1e-2, 2
    plan = operator_plan(psf31, (16, 16), eta, 1)
    b = rng.standard_normal((16, 16))
    problem = Problem(psf=psf31, b=b, workspace=LiftingWorkspace(b.shape, levels))
    cfg = SolverConfig(variant="efista", eta=eta, lam=lam, n=1, p=1.0,
                       wavelet_levels=levels)
    x = rng.standard_normal((16, 16))
    z = rng.standard_normal((16, 16))
    rz = blur_apply(psf31, z) - b
    classic = (0.5 * float((rz * rz).sum())
               + float(((x - z) * gradient(psf31, z, b)).sum())
               + float(((x - z) ** 2).sum()) / (2 * eta)
               + lam * l1_norm_wavelet(x, levels))
    assert surrogate_Q(x, z, problem, cfg, plan) == pytest.approx(classic, rel=1e-10)


def test_rate_check_flags_and_passes(rng, psf31):
    from proxdeblur.solvers import TRACE_DTYPE, IterationTrace

    eta = 1.0
    plan = operator_plan(psf31, (8, 8), eta, 2)
    b = rng.standard_normal((8, 8))
    problem = Problem(psf=psf31, b=b, workspace=LiftingWorkspace(b.shape, 2))
    cfg = SolverConfig(variant="efista", eta=eta, lam=0.0, n=2, p=1.0,
                       wavelet_levels=2)
    x0 = rng.standard_normal((8, 8))
    x_star = rng.standard_normal((8, 8))
    f_star = objective(x_star, b, psf31, 0.0, 2)
    numer = (2 / eta) * wnorm_sq(x0 - x_star, plan)

    def rec(k, fval):
        return (k, fval, fval, 0.0, np.nan, 0.0)

    def trace_of(rows):
        return IterationTrace(records=np.rec.array(rows, dtype=TRACE_DTYPE))

    good_records = [rec(k, f_star + 0.5 * numer / (k + 1) ** 2) for k in range(1, 30)]
    good = trace_of(good_records)
    report = rate_check(good, x0, x_star, plan, problem, cfg)
    assert report.passed and report.violations == 0
    assert report.max_ratio == pytest.approx(0.5, rel=1e-9)

    bad_records = list(good_records)
    bad_records[10] = rec(11, f_star + 2.0 * numer / 12**2)
    bad = trace_of(bad_records)
    report = rate_check(bad, x0, x_star, plan, problem, cfg)
    assert not report.passed
    assert report.violations == 1
    assert report.worst_iter == 11
    assert report.max_ratio == pytest.approx(2.0, rel=1e-9)


def test_trajectory_divergence_classifier():
    assert not runs_diverged([], np.linspace(1.0, 0.5, 20))
    assert not runs_diverged([], [])
    assert runs_diverged([], [1.0, 0.5, 0.7])          # 40% above its min
    assert not runs_diverged([], [1.0, 0.5, 0.50049])  # within 0.1%
    assert runs_diverged([], [1.0, 2.0, np.inf])


def test_default_config_takes_nstep_path_on_asymmetric_kernel(rng, asymmetric_psf):
    b = rng.uniform(0, 1, (16, 16))
    kw = dict(variant="efista", eta=0.9, lam=1e-3, n=4, max_iters=8,
              wavelet_levels=2)
    x_default, tr_default = run_solver(SolverConfig(**kw), b, asymmetric_psf)
    x_nstep, obj_nstep = nstep_route(tr_default.config, b, asymmetric_psf)
    assert len(tr_default) == 8
    assert np.array_equal(x_default, x_nstep)
    assert tr_default.objectives().tolist() == obj_nstep.tolist()


def test_operator_plan_is_built_once_across_runs_and_threads(monkeypatch, tiny_problem):
    import sys
    import threading

    from proxdeblur import linop, weighting

    psf, b = tiny_problem
    psf = linop.Psf(size=psf.size, taps=psf.taps)  # a new kernel holds no plans
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
    kw = dict(lam=1e-3, max_iters=2, wavelet_levels=2)
    results = []
    threads = [threading.Thread(
        target=lambda p: results.append(run_solver(
            SolverConfig(variant="efista", n=8, p=p, **kw), b, psf)), args=(p,))
        for p in (None, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == len(threads)
    run_solver(SolverConfig(variant="fista", **kw), b, psf)
    run_solver(SolverConfig(variant="ista", **kw), b, psf)
    lam_max = linop.lambda_max_AtA(psf, b.shape[1], b.shape[0])
    assert lam_max == weighting.operator_plan(psf, b.shape, 1.0, 8).lambda_max_AtA
    assert calls == {"spectral_decompose": 1, "build_filter": 1}
    assert weighting.operator_plan(psf, b.shape, 1.0, 8) is weighting.operator_plan(
        psf, b.shape, 1.0, 8)


def test_concurrent_runs_match_serial_runs(rng, psf52):
    # each run owns its wavelet workspace: threads running at once, more of
    # them than cores and switching every microsecond, must give the same
    # bits as the same runs one after another
    import sys
    import threading

    truth = rng.uniform(0, 1, (64, 64))
    blurred = blur_apply(psf52, truth)
    inputs = [blurred + 0.01 * rng.standard_normal(truth.shape) for _ in range(4)]
    cfg = SolverConfig(variant="efista", n=8, lam=1e-3, max_iters=8, wavelet_levels=6)
    serial = [run_solver(cfg, b, psf52) for b in inputs]
    results = [None] * len(inputs)

    def work(i):
        results[i] = run_solver(cfg, inputs[i], psf52)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(inputs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for (x, trace), (x_serial, trace_serial) in zip(results, serial):
        assert np.array_equal(x, x_serial)
        assert np.array_equal(trace.objectives(), trace_serial.objectives())


@pytest.mark.parametrize("variant, n", [("ista", 1), ("efista", 8)])
def test_separable_blur_moves_the_solver_only_at_round_off(variant, n):
    # the nonsym_kernel benchmark's kernel: a 7x7 Gaussian, sigma 4, centred
    # half a tap below the middle row, so it is rank one without flip symmetry
    from proxdeblur.experiments import add_awgn, synthetic_image
    from proxdeblur.linop import Psf

    i = np.arange(7.0)
    taps = np.exp(-((i[:, None] - 3.5) ** 2 + (i[None, :] - 3.0) ** 2) / 32)
    separable = Psf(size=7, taps=taps / taps.sum())
    assert separable.factors is not None
    spatial = Psf(size=7, taps=separable.taps)
    object.__setattr__(spatial, "factors", None)
    b = add_awgn(blur_apply(spatial, synthetic_image("cameraman", 64)), 0.01, 3)
    cfg = SolverConfig(variant=variant, eta=0.99, lam=1e-3, n=n, max_iters=20)
    x_s, tr_s = run_solver(cfg, b, separable)
    x_d, tr_d = run_solver(cfg, b, spatial)
    assert np.abs(x_s - x_d).max() <= 1e-12
    np.testing.assert_allclose(tr_s.objectives(), tr_d.objectives(), rtol=1e-12, atol=0)
