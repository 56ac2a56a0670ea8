import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle import (
    DenseOperator,
    dense_Wn,
    dense_solver_step,
    densify_blur,
    densify_wavelet,
    direct_blur,
    lasso_coordinate_descent,
    normal_equations_solve,
    route_kernels,
    soft_threshold,
)
from proxdeblur import linop
from proxdeblur.linop import Psf, blur_apply, operator_spectrum
from proxdeblur.solvers import (
    Problem,
    SolverConfig,
    SolverState,
    efista_step,
)
from proxdeblur.wavelet import LiftingWorkspace, wavelet_depth
from proxdeblur.weighting import apply_weighted_gradient_nstep


def test_densify_delta_kernel_is_identity():
    delta = Psf(size=1, taps=np.array([[1.0]]))
    A = densify_blur(delta, 5, 4)
    assert np.abs(A.entries - np.eye(20)).max() < 1e-15


def test_dense_blur_row_and_column_sums(psf31):
    # mass preservation makes the matrix doubly stochastic
    A = densify_blur(psf31, 6, 6).entries
    assert np.abs(A.sum(axis=0) - 1.0).max() < 1e-12
    assert np.abs(A.sum(axis=1) - 1.0).max() < 1e-12


def test_densify_consistent_with_direct_blur(rng, psf31):
    x = rng.standard_normal((6, 7))
    A = densify_blur(psf31, 7, 6)
    got = (A.entries @ x.ravel()).reshape(6, 7)
    assert np.abs(got - direct_blur(psf31, x)).max() < 1e-12


def test_densify_size_cap(psf31):
    with pytest.raises(ValueError):
        densify_blur(psf31, 17, 17)
    densify_blur(psf31, 16, 16)  # boundary case allowed


def test_dense_Wn_small_orders(psf31):
    A = densify_blur(psf31, 6, 6)
    eta = 0.9
    G = eta * (A.entries.T @ A.entries)
    W1 = dense_Wn(A, eta, 1).entries
    assert np.abs(W1 - np.eye(36)).max() < 1e-12
    W2 = dense_Wn(A, eta, 2).entries
    assert np.abs(W2 - (2 * np.eye(36) - G)).max() < 1e-12


def test_dense_Wn_is_symmetric(psf31):
    W = dense_Wn(densify_blur(psf31, 6, 6), 0.9, 5).entries
    assert np.abs(W - W.T).max() < 1e-12


def test_dense_Wn_eigenvalues_equal_filter(psf31):
    from proxdeblur.weighting import operator_plan

    eta, n = 0.9, 8
    phi = operator_plan(psf31, (8, 8), eta, n).phi
    W = dense_Wn(densify_blur(psf31, 8, 8), eta, n).entries
    got = np.sort(np.linalg.eigvalsh(W))
    want = np.sort(phi.ravel())
    assert np.abs(got - want).max() < 1e-10


def test_dense_Wn_order_cap(psf31):
    A = densify_blur(psf31, 4, 4)
    with pytest.raises(ValueError):
        dense_Wn(A, 1.0, 0)
    with pytest.raises(ValueError):
        dense_Wn(A, 1.0, 17)


def test_dense_wavelet_matrices_match_fast_path(rng):
    ana, syn = densify_wavelet(8, 8, 2)
    x = rng.standard_normal((8, 8))
    ws = LiftingWorkspace((8, 8), 2)
    fast = ws.analyze(x).ravel()
    assert np.abs(ana.entries @ x.ravel() - fast).max() < 1e-9
    c = rng.standard_normal((8, 8))
    np.copyto(ws.coeffs, c)
    fast_inv = ws.synthesize().ravel()
    assert np.abs(syn.entries @ c.ravel() - fast_inv).max() < 1e-9
    # synthesis inverts analysis
    assert np.abs(syn.entries @ ana.entries - np.eye(64)).max() < 1e-9


def march_dense_and_solver(rng, psf, A, eta, variant, n, p, shape=(8, 8), levels=2):
    """20 steps of efista_step and of dense_solver_step from the same noisy
    data of the given shape (lam = 1e-3, two wavelet levels by default);
    their alphas agree to 1e-12 at every step and their final x to 1e-8.
    Returns the solver's Problem."""
    h, w = shape
    lam = 1e-3
    cfg = SolverConfig(variant=variant, eta=eta, lam=lam, n=n, p=p,
                       wavelet_levels=levels)
    Wn = dense_Wn(A, eta, cfg.n)
    ana, syn = densify_wavelet(w, h, levels)

    truth = rng.uniform(0, 1, (h, w))
    b = blur_apply(psf, truth) + 0.01 * rng.standard_normal((h, w))
    problem = Problem.build(cfg, b, psf)

    state = SolverState.start(b.copy(), problem)
    xd, yd, ad = b.ravel().copy(), b.ravel().copy(), 1.0
    for _ in range(20):
        state = efista_step(state, cfg, problem)
        xd_new, yd, ad = dense_solver_step(
            xd, yd, ad, b.ravel(), A, Wn, ana, syn, (h, w), cfg)
        xd = xd_new
        assert abs(ad - state.alpha) < 1e-12
    assert np.abs(state.x.ravel() - xd).max() < 1e-8
    return problem


@pytest.mark.parametrize("variant,n,p", [
    ("ista", 1, 1.0),
    ("fista", 1, 1.0),
    ("ifista", 4, 1.0),
    ("efista", 4, 2.0),
])
def test_dense_step_matches_solver_step(rng, psf31, variant, n, p):
    march_dense_and_solver(rng, psf31, densify_blur(psf31, 8, 8), 0.9, variant, n, p)


@pytest.mark.parametrize("route", ["separable", "2d"])
@pytest.mark.parametrize("variant,n,p", [("fista", 1, 1.0), ("efista", 4, 2.0)])
def test_dense_step_matches_solver_step_on_the_nstep_routes(rng, route, variant, n, p):
    # the dense A comes from direct_blur, so the library blur that the
    # n-step recursion runs is not its own reference
    psf = route_kernels()[route]
    A = densify_blur(psf, 8, 8, blur=direct_blur)
    eta = 0.9 / np.linalg.eigvalsh(A.entries.T @ A.entries).max()
    problem = march_dense_and_solver(rng, psf, A, eta, variant, n, p)
    assert (psf.factors is not None) == (route == "separable")
    if route == "separable":  # the Kronecker plan
        assert problem.cb is not None and problem.plan.basis is not None
    else:  # the n-step recursion
        assert problem.cb is None and problem.plan.lam is None


@pytest.mark.parametrize("shape", [(8, 12), (12, 8)])
@pytest.mark.parametrize("n,p", [(1, 1.0), (2, 2.0), (8, 2.0)])
def test_dense_step_matches_solver_step_on_the_kronecker_route(rng, shape, n, p):
    # non-square shapes tell the column factor's basis from the row factor's
    psf = route_kernels()["separable"]
    h, w = shape
    A = densify_blur(psf, w, h, blur=direct_blur)
    eta = 0.9 / np.linalg.eigvalsh(A.entries.T @ A.entries).max()
    problem = march_dense_and_solver(rng, psf, A, eta, "efista", n, p, shape)
    assert problem.plan.basis is not None


def drawn_kernel(kind, size, seed):
    """A normalized kernel of the given kind with seeded taps in [0.05, 1):
    "symmetric" mirrors one random quarter into both axes, "rank one" is
    outer(col, row) and "full rank" is a random matrix, neither of the
    last two flip-symmetric."""
    rng = np.random.default_rng(seed)
    if kind == "symmetric":
        fold = np.minimum(np.arange(size), np.arange(size)[::-1])
        taps = rng.uniform(0.05, 1.0, (size, size))[np.ix_(fold, fold)]
    elif kind == "rank one":
        taps = np.outer(rng.uniform(0.05, 1.0, size), rng.uniform(0.05, 1.0, size))
    else:
        taps = rng.uniform(0.05, 1.0, (size, size))
    return Psf(size=size, taps=taps / taps.sum())


@st.composite
def kernels_and_shapes(draw):
    """(kind, odd kernel side <= 5, shape up to 8x12 that fits it, a
    wavelet depth the shape admits)."""
    kind = draw(st.sampled_from(["symmetric", "rank one", "full rank"]))
    size = draw(st.sampled_from([1, 3, 5] if kind == "symmetric" else [3, 5]))
    h = draw(st.sampled_from([s for s in (2, 4, 6, 8) if s >= size]))
    w = draw(st.sampled_from([s for s in range(2, 13, 2) if s >= size]))
    return kind, size, (h, w), draw(st.integers(1, wavelet_depth((h, w))))


@settings(max_examples=25, deadline=None)
@given(case=kernels_and_shapes(), variant=st.sampled_from(["ista", "fista", "ifista", "efista"]),
       n=st.integers(1, 8), p=st.floats(1.0, 4.0), seed=st.integers(0, 2**32 - 1))
@example(case=("symmetric", 5, (8, 12), 2), variant="efista", n=8, p=2.0, seed=1)
@example(case=("rank one", 5, (6, 12), 1), variant="efista", n=8, p=2.0, seed=2)
@example(case=("full rank", 3, (8, 4), 2), variant="efista", n=3, p=1.5, seed=3)
def test_dense_step_matches_solver_step_on_drawn_kernels_and_shapes(case, variant, n, p, seed):
    # the dense A comes from direct_blur, so no library blur is its own reference
    kind, size, (h, w), levels = case
    psf = drawn_kernel(kind, size, seed)
    A = densify_blur(psf, w, h, blur=direct_blur)
    eta = 0.9 / np.linalg.eigvalsh(A.entries.T @ A.entries).max()
    problem = march_dense_and_solver(np.random.default_rng(seed), psf, A, eta, variant, n, p,
                                     (h, w), levels)
    if kind == "symmetric":  # the DCT plan
        assert psf.is_doubly_symmetric() and problem.cb is not None
        assert problem.plan.basis is None
    elif kind == "rank one":  # the Kronecker plan
        assert psf.factors is not None and problem.plan.basis is not None
    else:  # the n-step recursion
        assert psf.factors is None and problem.cb is None and problem.plan.lam is None


def _negated(a, index):
    a = a.copy()
    a[index] *= -1
    return a


# each turns np.linalg.svd's (U, s, V^T) into a wrong Kronecker basis; a
# flipped U column or V^T row leaves A^T A = Qc diag(lam^2) Qc^T as it was,
# so only a check on A itself sees it
SVD_CORRUPTIONS = {
    "scaled-singular-values": lambda u, s, vt: (u, s * 1.01, vt),
    "flipped-U-column": lambda u, s, vt: (_negated(u, (slice(None), 1)), s, vt),
    "flipped-Vt-row": lambda u, s, vt: (u, s, _negated(vt, 1)),
}


@pytest.mark.parametrize("route, corruption", [
    *(("Kronecker", name) for name in SVD_CORRUPTIONS),
    ("DCT", "negated-lam"),
])
def test_a_corrupted_decomposition_fails_the_self_check(monkeypatch, route, corruption):
    if route == "DCT":
        decompose = linop.spectral_decompose
        monkeypatch.setattr(linop, "spectral_decompose",
                            lambda psf, shape: -decompose(psf, shape))
        taps = route_kernels()["dct"].taps
        psf = Psf(size=taps.shape[0], taps=taps)  # a new kernel keeps no plan yet
    else:
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a: SVD_CORRUPTIONS[corruption](*svd(a)))
        psf = route_kernels()["separable"]
    with pytest.raises(ArithmeticError, match=f"{route} decomposition self-check failed"):
        operator_spectrum(psf, (8, 12))


def test_dense_step_reduces_to_gradient_descent(rng, psf31):
    # lam = 0 and no momentum turns one dense step into n plain GD steps
    h = w = 6
    eta, n = 0.8, 3
    cfg = SolverConfig(variant="ista", eta=eta, lam=0.0, n=1, wavelet_levels=1)
    cfg.n = n  # bypass the reduction to test the weighted unmomentumed step
    A = densify_blur(psf31, w, h)
    Wn = dense_Wn(A, eta, n)
    ana, syn = densify_wavelet(w, h, 1)
    b = rng.standard_normal((h, w))
    x = rng.standard_normal((h, w))
    xd, yd, ad = dense_solver_step(
        x.ravel(), x.ravel(), 1.0, b.ravel(), A, Wn, ana, syn, (h, w), cfg)
    want = apply_weighted_gradient_nstep(psf31, x, b, eta, n)
    assert np.abs(xd - want.ravel()).max() < 1e-9


def test_normal_equations_identity_operator(rng):
    delta = Psf(size=1, taps=np.array([[1.0]]))
    A = densify_blur(delta, 4, 4)
    b = rng.standard_normal(16)
    assert np.abs(normal_equations_solve(A, b, 0.0) - b).max() < 1e-12


def test_normal_equations_residual_orthogonality(rng, psf31):
    A = densify_blur(psf31, 6, 6)
    b = rng.standard_normal(36)
    ridge = 0.05
    x = normal_equations_solve(A, b, ridge)
    # stationarity: A^T(Ax - b) = -ridge * x
    res = A.entries.T @ (A.entries @ x - b) + ridge * x
    assert np.abs(res).max() < 1e-9


def test_normal_equations_agrees_with_gradient_descent(rng):
    from proxdeblur.linop import make_gaussian_psf

    psf = make_gaussian_psf(3, 0.5)  # mild blur keeps the system well posed
    A = densify_blur(psf, 6, 6)
    M = A.entries.T @ A.entries
    assert np.linalg.cond(M) < 1e3
    b = rng.standard_normal(36)
    want = normal_equations_solve(A, b, 0.0)
    x = np.zeros(36)
    eta = 1.0 / np.linalg.eigvalsh(M).max()
    for _ in range(5000):
        x -= eta * (M @ x - A.entries.T @ b)
    assert np.abs(x - want).max() < 1e-6


def test_normal_equations_rejects_singular_system():
    A = DenseOperator(rows=2, cols=2, entries=np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(np.linalg.LinAlgError):
        normal_equations_solve(A, np.ones(2), 0.0)


def test_lasso_cd_orthonormal_design_is_soft_threshold(rng):
    target = rng.standard_normal(12)
    gamma = np.full(12, 0.4)
    got = lasso_coordinate_descent(np.eye(12), target, gamma, sweeps=50)
    want = soft_threshold(target, 0.4)
    assert np.abs(got - want).max() < 1e-12


def test_lasso_cd_respects_unpenalized_coefficients(rng):
    target = rng.standard_normal(6)
    gamma = np.zeros(6)
    got = lasso_coordinate_descent(np.eye(6), target, gamma, sweeps=10)
    assert np.abs(got - target).max() < 1e-12
