"""The DCT-domain solver step against the spatial operators it replaces."""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracle import dct_gradient, l1_norm_wavelet
from proxdeblur.linop import Psf, blur_apply, dct2, operator_spectrum
from proxdeblur.solvers import Problem, SolverConfig, SolverState, efista_step
from proxdeblur.wavelet import LiftingWorkspace, prox_l1_wavelet
from proxdeblur.weighting import apply_weighted_gradient_nstep, operator_plan


def symmetric_psf(size, seed):
    """Random nonnegative kernel, flip-symmetric in both axes."""
    c = size // 2
    quarter = np.random.default_rng(seed).uniform(0.05, 1.0, (c + 1, c + 1))
    fold = np.abs(np.arange(size) - c)
    taps = quarter[fold][:, fold]
    return Psf(size=size, taps=taps / taps.sum())


def close(got, want, tol):
    return np.abs(got - want).max() <= tol * max(1.0, np.abs(want).max())


def one_step(psf, b, y, n, lam, levels):
    """One efista step from y: the state it leaves (its x is z when lam = 0)
    and the config it ran with.  levels = None, for a shape that admits no
    wavelet level, builds the problem by hand without a workspace, with
    Problem.build's cb rule: a step at lam = 0 never reaches the prox."""
    eta = 0.9 / operator_spectrum(psf, b.shape).lambda_max_AtA
    cfg = SolverConfig(variant="efista", eta=eta, lam=lam, n=n, p=1.5,
                       wavelet_levels=levels)
    if levels is None:
        problem = Problem(psf=psf, b=b, workspace=None,
                          plan=operator_plan(psf, b.shape, eta, n), cb=dct2(b))
    else:
        problem = Problem.build(cfg, b, psf)
    assert problem.cb is not None
    state = efista_step(SolverState.start(y, problem), cfg, problem)
    return state, cfg


sizes = st.sampled_from([1, 3, 5, 7])
seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=40, deadline=None)
@given(size=sizes, h=st.integers(7, 24), w=st.integers(7, 24),
       n=st.integers(1, 8), seed=seeds)
@example(size=7, h=9, w=14, n=8, seed=1)
@example(size=5, h=17, w=23, n=3, seed=2)
@example(size=7, h=16, w=22, n=4, seed=3)
def test_dct_gradient_and_weighted_step_match_spatial(size, h, w, n, seed):
    psf = symmetric_psf(size, seed)
    rng = np.random.default_rng(seed)
    x, b = rng.standard_normal((h, w)), rng.standard_normal((h, w))

    spatial = blur_apply(psf, blur_apply(psf, x) - b)
    assert close(dct_gradient(psf, x, b), spatial, 1e-10)

    # lam = 0 skips the prox, so the step returns z = y - eta W_n grad f(y)
    state, cfg = one_step(psf, b, x, n, 0.0, None if h % 2 or w % 2 else 1)
    z = x.copy()
    for _ in range(n):
        z -= cfg.eta * blur_apply(psf, blur_apply(psf, z) - b)
    assert close(state.x, z, 1e-10)
    assert close(state.x, apply_weighted_gradient_nstep(psf, x, b, cfg.eta, n), 1e-10)


@settings(max_examples=40, deadline=None)
@given(size=sizes, levels=st.integers(1, 2), hk=st.integers(2, 6),
       wk=st.integers(2, 6), n=st.integers(1, 8), seed=seeds)
def test_dct_step_matches_nstep_route_and_reports_its_l1(size, levels, hk, wk, n, seed):
    h, w = hk << levels, wk << levels
    assume(size <= min(h, w))
    psf = symmetric_psf(size, seed)
    rng = np.random.default_rng(seed)
    x, b = rng.standard_normal((h, w)), rng.standard_normal((h, w))
    lam = 0.05
    state, cfg = one_step(psf, b, x, n, lam, levels)
    z = apply_weighted_gradient_nstep(psf, x, b, cfg.eta, n)
    want, _ = prox_l1_wavelet(z, cfg.p * lam * cfg.eta, LiftingWorkspace(z.shape, levels))
    assert close(state.x, want, 1e-10)
    l1 = l1_norm_wavelet(state.x, levels)
    assert abs(state.l1 - l1) <= 1e-12 * l1


def test_the_dct_route_calls_the_transforms_where_linop_binds_them(monkeypatch, psf74):
    # the benchmark's tracer counts the DCT layer by wrapping linop.dct2 and
    # linop.idct2, so the plan must look them up there at every call
    from proxdeblur import linop

    b = np.random.default_rng(0).uniform(0.0, 1.0, (32, 32))
    cfg = SolverConfig(variant="efista", eta=1.0, lam=1e-3, n=8, p=2.0)
    operator_plan(psf74, b.shape, cfg.eta, cfg.n)  # built before counting
    calls = {"dct2": 0, "idct2": 0}

    def counted(name, fn):
        # keyword arguments pass through: the plan transforms in place
        # with overwrite_x
        def wrapper(x, **kwargs):
            calls[name] += 1
            return fn(x, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(linop, name, counted(name, getattr(linop, name)))
    problem = Problem.build(cfg, b, psf74)
    state = SolverState.start(b.copy(), problem)
    for _ in range(3):
        state = efista_step(state, cfg, problem)
    # dct2 of b and of x0, then one idct2 and one dct2 per step
    assert calls == {"dct2": 2 + 3, "idct2": 3}
