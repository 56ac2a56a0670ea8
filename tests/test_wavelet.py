import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import (
    _scalar_analyze,
    _scalar_synthesize,
    densify_wavelet,
    l1_norm_wavelet,
    lasso_coordinate_descent,
    soft_threshold,
)
from proxdeblur.wavelet import LiftingWorkspace, prox_l1_wavelet


def analyze(x, levels):
    """Coefficients of x from a fresh workspace, in an array of their own."""
    return LiftingWorkspace(np.shape(x), levels).analyze(x).copy()


def synthesize(c, levels):
    """Image of the coefficients c from a fresh workspace; c is kept."""
    return workspace_synthesize(LiftingWorkspace(c.shape, levels), c)


def workspace_synthesize(ws, c):
    np.copyto(ws.coeffs, c)
    return ws.synthesize()


def prox(x, gamma, levels):
    """The prox's image from a fresh workspace."""
    return prox_l1_wavelet(x, gamma, LiftingWorkspace(np.shape(x), levels))[0]


def approx_band(shape, levels):
    """Slices of the coarsest approximation band in the pyramid layout."""
    return slice(0, shape[0] >> levels), slice(0, shape[1] >> levels)


@pytest.mark.parametrize("shape,levels", [
    ((16, 16), 1), ((16, 16), 2), ((16, 16), 4),
    ((16, 32), 3), ((64, 64), 6), ((256, 256), 8),
])
def test_perfect_reconstruction(rng, shape, levels):
    x = rng.standard_normal(shape)
    back = synthesize(analyze(x, levels), levels)
    assert np.abs(back - x).max() < 1e-9 * max(1.0, np.abs(x).max())


def test_reconstruction_in_coefficient_direction(rng):
    # analyze(synthesize(c)) must also come back exactly
    c = rng.standard_normal((16, 16))
    again = analyze(synthesize(c, 2), 2)
    assert np.abs(again - c).max() < 1e-9


def test_affine_images_have_zero_detail(rng):
    yy, xx = np.mgrid[0:32, 0:32].astype(float)
    for a, bx, by in [(1.0, 0.0, 0.0), (0.3, 0.02, -0.05), (-2.0, 1.0, 1.0)]:
        x = a + bx * xx + by * yy
        # two vanishing moments: detail bands annihilate affine ramps
        assert l1_norm_wavelet(x, 3) < 1e-8 * max(1.0, np.abs(x).sum())


def test_matches_scalar_reference(rng):
    # the numpy lifting does the scalar reference's arithmetic, element by
    # element in the same order, so the results are equal, not just close
    for shape, levels in [((8, 8), 2), ((16, 16), 3), ((8, 16), 2)]:
        x = rng.standard_normal(shape)
        fast = analyze(x, levels)
        slow = _scalar_analyze(x, levels)
        assert np.array_equal(fast, slow)
        c = rng.standard_normal(shape)
        fast_inv = synthesize(c, levels)
        slow_inv = _scalar_synthesize(c, levels)
        assert np.array_equal(fast_inv, slow_inv)


def scalar_prox(x, gamma, levels):
    """Scalar analyze -> soft_threshold of the detail bands -> scalar
    synthesize; returns (image, detail-band l1 of the shrunk coefficients)."""
    c = _scalar_analyze(x, levels)
    ah, aw = x.shape[0] >> levels, x.shape[1] >> levels
    shrunk = soft_threshold(c, gamma)
    shrunk[:ah, :aw] = 0.0
    l1 = float(np.abs(shrunk).sum())
    shrunk[:ah, :aw] = c[:ah, :aw]
    return _scalar_synthesize(shrunk, levels), l1


@settings(max_examples=40, deadline=None)
@given(levels=st.integers(1, 4), rows=st.integers(1, 4), cols=st.integers(1, 4),
       gamma=st.sampled_from([0.0, 1e-3, 0.5, 10.0]), seed=st.integers(0, 2**32 - 1))
def test_workspace_lifting_equals_scalar_pipeline(levels, rows, cols, gamma, seed):
    # non-square shapes down to 1-sample bands at the coarsest level
    # (2x4 at one level, 8x32 at three, ...); one workspace for all calls
    shape = (rows << levels, cols << levels)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    ws = LiftingWorkspace(shape, levels)
    coeffs = _scalar_analyze(x, levels)
    assert np.array_equal(ws.analyze(x), coeffs)
    detail = coeffs.copy()
    detail[:shape[0] >> levels, :shape[1] >> levels] = 0.0
    assert ws.detail_l1() == float(np.abs(detail).sum())
    assert l1_norm_wavelet(x, levels) == float(np.abs(detail).sum())
    c = rng.standard_normal(shape)
    assert np.array_equal(workspace_synthesize(ws, c), _scalar_synthesize(c, levels))
    image, l1 = prox_l1_wavelet(x, gamma, ws)
    want_image, want_l1 = scalar_prox(x, gamma, levels)
    assert np.array_equal(image, want_image)
    assert l1 == want_l1


# base sides (rows, cols) of at most 16 samples, from 1:16 to 16:1
BASE_SIDES = [(1 << a, 1 << b) for a in range(5) for b in range(5 - a)]


@settings(max_examples=25, deadline=None)
@given(levels=st.integers(1, 4), sides=st.sampled_from(BASE_SIDES),
       seed=st.integers(0, 2**32 - 1))
def test_lifting_raises_no_floating_point_error_at_any_scale(levels, sides, seed):
    # the horizontal pass sums across the spare lanes of its buffer: those
    # scratch sums must never read uninitialised memory or overflow, in a
    # fresh workspace or in one that earlier calls at other scales left
    # full, since a RuntimeWarning would reach the CLI's stderr; every
    # result still equals the scalar pipeline (2x32 at one level, 64x4 at
    # two, ...).  Underflow is left out: numpy ignores it by default, and
    # at 1e-300 the lifting of the image's own samples, not only the
    # spare lanes, underflows to subnormals
    shape = (sides[0] << levels, sides[1] << levels)
    rng = np.random.default_rng(seed)
    x1, c1 = rng.standard_normal(shape), rng.standard_normal(shape)
    for depth in range(1, levels + 1):
        reused = LiftingWorkspace(shape, depth)
        for scale in (1e300, 1.0, 1e-300):
            x, c, gamma = x1 * scale, c1 * scale, 0.5 * scale
            coeffs = _scalar_analyze(x, depth)
            detail = coeffs.copy()
            detail[:shape[0] >> depth, :shape[1] >> depth] = 0.0
            want_image, want_l1 = scalar_prox(x, gamma, depth)
            want_inverse = _scalar_synthesize(c, depth)
            for ws in (LiftingWorkspace(shape, depth), reused):
                with np.errstate(all="raise", under="ignore"):
                    got_coeffs = ws.analyze(x).copy()
                    got_l1 = ws.detail_l1()
                    got_inverse = workspace_synthesize(ws, c)
                    image, l1 = prox_l1_wavelet(x, gamma, ws)
                assert np.array_equal(got_coeffs, coeffs)
                assert got_l1 == float(np.abs(detail).sum())
                assert np.array_equal(got_inverse, want_inverse)
                assert np.array_equal(image, want_image) and l1 == want_l1


def test_reused_workspace_matches_fresh_calls(rng):
    # every call must overwrite what it reads: no result may depend on what
    # an earlier call left in the buffers; one workspace per depth, each
    # reused over several inputs and gammas
    shape = (32, 16)
    kept = LiftingWorkspace(shape, 3).analyze(rng.standard_normal(shape))
    first = kept.copy()
    for levels in (3, 1, 4, 2):
        ws = LiftingWorkspace(shape, levels)
        for gamma in (0.2, 0.0, 1e-3, 5.0, 0.2):
            x = rng.standard_normal(shape) * 10
            c = rng.standard_normal(shape)
            assert np.array_equal(ws.analyze(x), analyze(x, levels))
            assert ws.detail_l1() == l1_norm_wavelet(x, levels)
            assert np.array_equal(workspace_synthesize(ws, c), synthesize(c, levels))
            got = prox_l1_wavelet(x, gamma, ws)
            want = prox_l1_wavelet(x, gamma, LiftingWorkspace(shape, levels))
            assert np.array_equal(got[0], want[0]) and got[1] == want[1]
    assert np.array_equal(kept, first)  # workspaces share no buffers


def test_prox_threshold_must_be_a_nonnegative_number(rng):
    # NaN compares false with everything, so only `not gamma >= 0` rejects
    # it; inf is a threshold every detail coefficient falls under
    x = rng.standard_normal((16, 16))
    ws = LiftingWorkspace(x.shape, 2)
    for gamma in (-0.1, float("nan")):
        with pytest.raises(ValueError, match=f"threshold must be nonnegative, got {gamma}"):
            prox_l1_wavelet(x, gamma, ws)
    image, l1 = prox_l1_wavelet(x, float("inf"), ws)
    want_image, want_l1 = scalar_prox(x, float("inf"), 2)
    assert l1 == want_l1 == 0.0
    assert np.array_equal(image, want_image)


def test_prox_allocates_only_its_result_in_a_warm_workspace(rng):
    # tracemalloc sees numpy's data buffers: a warmed workspace must run the
    # whole prox without a hidden image-sized temporary, and a new one holds
    # 3.5 images (coeffs, two lifting buffers, half-size pair sums) plus
    # two spare rows per side
    h, w = shape = (256, 256)
    image = h * w * 8
    x = rng.standard_normal(shape)
    tracemalloc.start()
    try:
        ws = LiftingWorkspace(shape, 8)
        assert tracemalloc.get_traced_memory()[1] <= 3.5 * image + 2 * (h + w) * 8 + 4096
        prox_l1_wavelet(x, 0.1, ws)
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        ws.analyze(x)
        ws.shrink_details(0.1)
        ws.detail_l1()
        # a temporary freed before the output exists would not raise the
        # peak of the whole call, so the steps before synthesis are held
        # to no allocation at all
        steps_peak = tracemalloc.get_traced_memory()[1] - before
        tracemalloc.reset_peak()
        out, _ = prox_l1_wavelet(x, 0.1, ws)
        call_peak = tracemalloc.get_traced_memory()[1] - before
        # given the array to write into, the call allocates nothing
        buf = np.empty(shape)
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        into, _ = prox_l1_wavelet(x, 0.1, ws, out=buf)
        into_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert steps_peak <= 4096
    assert out.nbytes == image
    assert call_peak <= image + 4096
    assert into is buf and np.array_equal(buf, out)
    assert into_peak <= 4096
    # out may be x itself: analysis has read all of x before synthesis writes
    same = x.copy()
    prox_l1_wavelet(same, 0.1, ws, out=same)
    assert np.array_equal(same, out)


def test_workspace_shape_must_match_image():
    with pytest.raises(ValueError, match="workspace"):
        prox_l1_wavelet(np.ones((16, 16)), 0.1, LiftingWorkspace((16, 32), 2))


def test_energy_roughly_preserved(rng):
    # biorthogonal, not orthonormal: Riesz slack of roughly a quarter
    for _ in range(5):
        x = rng.standard_normal((32, 32))
        ratio = np.linalg.norm(analyze(x, 3)) ** 2 / np.linalg.norm(x) ** 2
        assert 0.8 < ratio < 1.3


def test_approx_slice_layout():
    # a constant image has no detail: all of its energy sits in the
    # coarsest approximation band, the top-left (32 >> 3) x (32 >> 3) block
    c = analyze(np.ones((32, 32)), 3)
    assert np.all(c[:4, :4] > 0)
    assert np.abs(c[4:, :]).max() < 1e-12 and np.abs(c[:, 4:]).max() < 1e-12


def test_dimension_validation():
    # the workspace checks the shape and depth once, when it is built
    with pytest.raises(ValueError, match="image dims 12x12 not divisible by 2\\^levels = 8"):
        LiftingWorkspace((12, 12), 3)
    with pytest.raises(ValueError, match="levels must be >= 1"):
        LiftingWorkspace((16, 16), 0)
    with pytest.raises(ValueError, match="levels must be an integer"):
        LiftingWorkspace((16, 16), True)
    with pytest.raises(ValueError, match="expected a 2D image"):
        LiftingWorkspace((16,), 1)


def test_soft_threshold_scalar_cases():
    v = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
    out = soft_threshold(v, 1.0)
    assert np.allclose(out, [-2.0, 0.0, 0.0, 0.0, 2.0])
    assert np.array_equal(soft_threshold(v, 0.0), v)
    with pytest.raises(ValueError):
        soft_threshold(v, -0.1)


@settings(max_examples=50, deadline=None)
@given(v=st.floats(-1e6, 1e6), g=st.floats(0, 1e6))
def test_soft_threshold_minimizes_scalar_objective(v, g):
    # t = shrink(v) minimizes 1/2 (t - v)^2 + g |t|; check against a local grid
    t = float(soft_threshold(np.array([v]), g)[0])

    def obj(u):
        return 0.5 * (u - v) ** 2 + g * abs(u)

    for u in (t - 1e-4, t + 1e-4, 0.0, v):
        assert obj(t) <= obj(u) + 1e-9 * max(1.0, abs(obj(u)))


def test_prox_preserves_approximation_band(rng):
    x = rng.standard_normal((16, 16)) + 5.0
    out = prox(x, 0.5, 2)
    ca = analyze(x, 2)
    cb = analyze(out, 2)
    band = approx_band(x.shape, 2)
    assert np.abs(ca[band] - cb[band]).max() < 1e-9


def test_prox_gamma_zero_is_identity(rng):
    x = rng.standard_normal((16, 16))
    assert np.abs(prox(x, 0.0, 2) - x).max() < 1e-9


def test_prox_against_exact_lasso_optimum(rng):
    # the exact prox of gamma * ||detail coeffs||_1 solved by coordinate
    # descent on the synthesis matrix.  Transform-shrink-invert is only the
    # exact prox for an orthonormal transform; for 9/7 it is the standard
    # approximation and must stay within ~30% of the optimum in objective
    # value (and can never beat it).
    h = w = 4
    levels = 2
    _, syn = densify_wavelet(w, h, levels)
    gamma = 0.3
    gvec = np.full(h * w, gamma)
    gvec[0] = 0.0  # 1x1 approximation band is unpenalized
    for _ in range(3):
        z = rng.standard_normal((h, w))
        c_star = lasso_coordinate_descent(syn.entries, z.ravel(), gvec)
        x_star = (syn.entries @ c_star).reshape(h, w)
        x_prox = prox(z, gamma, levels)

        def obj(x):
            return (0.5 * ((x - z) ** 2).sum()
                    + gamma * l1_norm_wavelet(x, levels))

        assert obj(x_prox) <= obj(x_star) * 1.3 + 1e-12
        assert obj(x_prox) >= obj(x_star) - 1e-9


def test_shrinkage_is_exact_in_coefficient_domain(rng):
    # in the coefficient metric the step is the exact prox: the output's
    # coefficients are the soft-thresholded input coefficients, detail
    # bands only
    z = rng.standard_normal((16, 16))
    gamma, levels = 0.4, 2
    c_in = analyze(z, levels)
    c_out = analyze(prox(z, gamma, levels), levels)
    want = soft_threshold(c_in, gamma)
    band = approx_band(z.shape, levels)
    want[band] = c_in[band]
    assert np.abs(c_out - want).max() < 1e-9


def test_prox_nearly_nonexpansive(rng):
    for _ in range(50):
        x = rng.standard_normal((32, 32))
        y = rng.standard_normal((32, 32))
        dx = np.linalg.norm(prox(x, 0.2, 3) - prox(y, 0.2, 3))
        assert dx <= 1.1 * np.linalg.norm(x - y)


def test_l1_norm_of_single_detail_coefficient(rng):
    # pushing one unit detail coefficient through synthesis and back gives
    # an l1 norm of exactly 1 (perfect reconstruction), for any band
    for flat in (5, 37, 200, 255):
        c = np.zeros((16, 16))
        c[flat // 16, flat % 16] = 1.0
        x = synthesize(c, 2)
        assert l1_norm_wavelet(x, 2) == pytest.approx(1.0, abs=1e-9)


def test_l1_norm_basics(rng):
    assert l1_norm_wavelet(np.full((16, 16), 3.0), 2) < 1e-9
    x = rng.standard_normal((16, 16))
    assert l1_norm_wavelet(x, 2) > 0
