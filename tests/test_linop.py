import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle import densify_blur, direct_blur, route_kernels
from proxdeblur.linop import (
    Psf,
    blur_adjoint,
    blur_apply,
    dct2,
    gradient,
    idct2,
    lambda_max_AtA,
    make_gaussian_psf,
    spectral_decompose,
)
from proxdeblur.weighting import operator_plan


def test_gaussian_taps_match_hand_formula():
    # size 3, sigma 1: unnormalized weights are exp(0), exp(-1/2), exp(-1)
    t = make_gaussian_psf(3, 1.0).taps
    s = 1.0 + 4 * math.exp(-0.5) + 4 * math.exp(-1.0)
    assert t[1, 1] == pytest.approx(1.0 / s, rel=1e-14)
    assert t[0, 1] == pytest.approx(math.exp(-0.5) / s, rel=1e-14)
    assert t[0, 0] == pytest.approx(math.exp(-1.0) / s, rel=1e-14)


@pytest.mark.parametrize("size", [1, 3, 5, 7])
@pytest.mark.parametrize("sigma", [0.5, 1.0, 4.0])
def test_gaussian_psf_properties(size, sigma):
    psf = make_gaussian_psf(size, sigma)
    t = psf.taps
    assert t.shape == (size, size)
    assert abs(t.sum() - 1.0) < 1e-12
    assert (t > 0).all()
    assert psf.is_doubly_symmetric()
    assert t.max() == t[size // 2, size // 2]


def test_psf_validation():
    with pytest.raises(ValueError):
        make_gaussian_psf(4, 1.0)
    with pytest.raises(ValueError):
        make_gaussian_psf(3, 0.0)
    with pytest.raises(ValueError):
        Psf(size=3, taps=np.ones((3, 3)))  # sums to 9
    with pytest.raises(ValueError):
        Psf(size=3, taps=np.full((2, 2), 0.25))
    bad = np.full((3, 3), 1 / 9)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        Psf(size=3, taps=bad)
    # a float or bool size would reach range() in the blur as a TypeError
    for size in (7.0, True):
        with pytest.raises(ValueError, match="psf size must be an integer"):
            make_gaussian_psf(size, 4.0)
    with pytest.raises(ValueError, match="psf size must be an integer"):
        Psf(size=7.0, taps=make_gaussian_psf(7, 4.0).taps)
    for sigma in ("4", True):
        with pytest.raises(ValueError, match="psf sigma must be positive and finite"):
            make_gaussian_psf(7, sigma)


def test_psf_keeps_a_read_only_copy_of_its_taps():
    t = np.full((3, 3), 1 / 9)
    psf = Psf(size=3, taps=t)
    t[0, 0] += 0.05
    t[0, 1] -= 0.05
    assert np.array_equal(psf.taps, np.full((3, 3), 1 / 9))
    assert not psf.taps.flags.writeable
    assert psf.is_doubly_symmetric()
    assert lambda_max_AtA(psf, 8, 8) == pytest.approx(1.0, abs=1e-9)


def test_psf_compares_by_identity_and_the_factory_shares_one_per_setting():
    psf = make_gaussian_psf(5, 2.0)
    assert psf == psf and psf != Psf(size=5, taps=psf.taps)
    assert make_gaussian_psf(5, 2.0) is psf


@pytest.mark.parametrize("sigma", [math.inf, -math.inf, math.nan])
def test_gaussian_psf_rejects_nonfinite_sigma(sigma):
    # sigma = inf would give a uniform box kernel, not a Gaussian
    with pytest.raises(ValueError, match="sigma must be positive and finite"):
        make_gaussian_psf(7, sigma)


@pytest.mark.parametrize("sigma", [1e200, 1e-200])
def test_gaussian_psf_rejects_sigma_whose_square_leaves_the_float_range(sigma):
    # sigma^2 would overflow (a traceback) or be 0 (0/0 taps)
    with pytest.raises(ValueError, match="with a square in the float range"):
        make_gaussian_psf(7, sigma)


def test_gaussian_psf_of_tiny_sigma_is_the_identity_without_a_warning():
    # the off-centre exponents overflow to -inf, so those taps are exactly 0
    want = np.zeros((7, 7))
    want[3, 3] = 1.0
    assert np.array_equal(make_gaussian_psf(7, 1e-160).taps, want)


@pytest.mark.parametrize("route", ["dct", "separable", "2d"])
def test_psf_pickles_and_copies_as_a_new_kernel(route):
    # a copy keeps the taps and the route, and starts with no plans
    psf = route_kernels()[route]
    plan = operator_plan(psf, (16, 16), 0.5, 4)
    for twin in (pickle.loads(pickle.dumps(psf)), copy.deepcopy(psf)):
        assert twin is not psf and twin._plans == {}
        assert np.array_equal(twin.taps, psf.taps) and not twin.taps.flags.writeable
        assert twin.is_doubly_symmetric() == psf.is_doubly_symmetric()
        assert (twin.factors is None) == (psf.factors is None)
        if psf.factors is not None:
            assert all(np.array_equal(a, b) for a, b in zip(twin.factors, psf.factors))
        twin_plan = operator_plan(twin, (16, 16), 0.5, 4)
        assert twin_plan.lambda_max_AtA == plan.lambda_max_AtA
        for field in ("lam", "phi", "gain"):
            assert np.array_equal(getattr(twin_plan, field), getattr(plan, field))


def test_blur_matches_direct_summation(rng, psf31, psf52):
    x = rng.standard_normal((9, 11))
    for psf in (psf31, psf52):
        assert np.abs(blur_apply(psf, x) - direct_blur(psf, x)).max() < 1e-12


def test_blur_matches_dense_matrix(rng, psf31):
    x = rng.standard_normal((8, 8))
    A = densify_blur(psf31, 8, 8)
    got = (A.entries @ x.ravel()).reshape(8, 8)
    assert np.abs(got - blur_apply(psf31, x)).max() < 1e-12


def test_blur_preserves_constants(psf31, psf52):
    # unit tap sum plus mirrored borders means flat images pass through
    x = np.full((10, 12), 0.37)
    for psf in (psf31, psf52):
        assert np.abs(blur_apply(psf, x) - x).max() < 1e-12


def test_blur_rejects_bad_operands(psf31):
    with pytest.raises(ValueError):
        blur_apply(psf31, np.ones(8))
    with pytest.raises(ValueError):
        blur_apply(make_gaussian_psf(7, 1.0), np.ones((5, 9)))


def test_adjoint_identity_symmetric_and_not(rng, psf31, asymmetric_psf):
    for psf in (psf31, asymmetric_psf):
        for shape in ((7, 7), (6, 10), (12, 5)):
            x = rng.standard_normal(shape)
            y = rng.standard_normal(shape)
            lhs = float((blur_apply(psf, x) * y).sum())
            rhs = float((x * blur_adjoint(psf, y)).sum())
            assert lhs == pytest.approx(rhs, rel=1e-10)


@settings(max_examples=25, deadline=None)
@given(
    h=st.integers(min_value=3, max_value=14),
    w=st.integers(min_value=3, max_value=14),
    size=st.sampled_from([1, 3]),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_adjoint_identity_property(h, w, size, seed):
    r = np.random.default_rng(seed)
    taps = r.uniform(0.01, 1.0, (size, size))
    psf = Psf(size=size, taps=taps / taps.sum())
    x = r.standard_normal((h, w))
    y = r.standard_normal((h, w))
    lhs = float((blur_apply(psf, x) * y).sum())
    rhs = float((x * blur_adjoint(psf, y)).sum())
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_adjoint_equals_forward_when_doubly_symmetric(rng, psf52):
    y = rng.standard_normal((11, 9))
    assert np.abs(blur_adjoint(psf52, y) - blur_apply(psf52, y)).max() < 1e-12


def test_gradient_matches_dense_normal_equations(rng, psf31):
    x = rng.standard_normal((8, 8))
    b = rng.standard_normal((8, 8))
    A = densify_blur(psf31, 8, 8).entries
    want = (A.T @ (A @ x.ravel() - b.ravel())).reshape(8, 8)
    assert np.abs(gradient(psf31, x, b) - want).max() < 1e-10


def test_gradient_matches_finite_differences(rng, psf31, asymmetric_psf):
    for psf in (psf31, asymmetric_psf):
        x = rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 6))
        g = gradient(psf, x, b)

        def f(v):
            r = blur_apply(psf, v) - b
            return 0.5 * float((r * r).sum())

        h = 1e-6
        for _ in range(6):
            d = rng.standard_normal((6, 6))
            d /= np.linalg.norm(d)
            num = (f(x + h * d) - f(x - h * d)) / (2 * h)
            ana = float((g * d).sum())
            if abs(ana) > 1e-8:
                assert num == pytest.approx(ana, rel=1e-5)
            else:
                assert abs(num - ana) < 1e-6


def test_gradient_shape_mismatch(psf31):
    with pytest.raises(ValueError):
        gradient(psf31, np.ones((6, 6)), np.ones((6, 7)))


def test_dct_roundtrip_and_energy(rng):
    x = rng.standard_normal((16, 24))
    c = dct2(x)
    assert np.abs(idct2(c) - x).max() < 1e-12
    assert np.linalg.norm(c) == pytest.approx(np.linalg.norm(x), rel=1e-12)


def test_spectral_eigenvalues_match_dense(psf31):
    eta = 0.7
    lam = spectral_decompose(psf31, (8, 8))
    A = densify_blur(psf31, 8, 8).entries
    dense = np.linalg.eigvalsh(eta * (A.T @ A))
    assert np.abs(np.sort((eta * lam * lam).ravel()) - np.sort(dense)).max() < 1e-10


def test_spectral_applies_operator(rng, psf52):
    eta = 0.9
    lam = spectral_decompose(psf52, (12, 16))
    x = rng.standard_normal((12, 16))
    want = eta * blur_apply(psf52, blur_apply(psf52, x))
    got = idct2(eta * lam * lam * dct2(x))
    rel = np.linalg.norm(got - want) / np.linalg.norm(want)
    assert rel < 1e-10


def test_spectral_decompose_rejections(asymmetric_psf, psf31):
    with pytest.raises(ValueError):
        spectral_decompose(asymmetric_psf, (8, 8))
    with pytest.raises(ValueError):  # eta enters at the plan, which checks it
        operator_plan(psf31, (8, 8), 0.0, 2)


def test_lambda_max_matches_dense(psf52):
    lam = lambda_max_AtA(psf52, 12, 12)
    A = densify_blur(psf52, 12, 12).entries
    assert lam == pytest.approx(np.linalg.eigvalsh(A.T @ A).max(), abs=1e-8)


@pytest.mark.parametrize("height, width", [(3, 3), (4, 6), (16, 16), (8, 24)])
def test_lambda_max_without_flip_symmetry_matches_dense_eigenvalue(asymmetric_psf,
                                                                   height, width):
    # the Lanczos eigenvalue is exact to round-off, and the seeded start
    # vector makes a second solve give the same float
    lam = lambda_max_AtA(asymmetric_psf, width, height)
    A = densify_blur(asymmetric_psf, width, height).entries
    assert lam == pytest.approx(float(np.linalg.eigvalsh(A.T @ A).max()), rel=1e-10)
    asymmetric_psf = Psf(size=asymmetric_psf.size, taps=asymmetric_psf.taps)  # no plans yet
    assert lambda_max_AtA(asymmetric_psf, width, height) == lam


def test_lambda_max_is_one_for_normalized_symmetric_kernels(psf74):
    # mass preservation under mirrored borders puts the top eigenvalue at 1
    assert lambda_max_AtA(psf74, 64, 64) == pytest.approx(1.0, abs=1e-12)
    box = Psf(size=3, taps=np.full((3, 3), 1 / 9))
    assert lambda_max_AtA(box, 16, 16) == pytest.approx(1.0, abs=1e-9)


def direct_blur_matrix(psf, height, width):
    """Dense A built column by column from direct_blur, no library blur."""
    columns = []
    for j in range(height * width):
        e = np.zeros(height * width)
        e[j] = 1.0
        columns.append(direct_blur(psf, e.reshape(height, width)).ravel())
    return np.stack(columns, axis=1)


def rank_one_psf(col, row):
    taps = np.outer(col, row)
    return Psf(size=len(col), taps=taps / taps.sum())


@settings(max_examples=20, deadline=None)
@example(size=3, extra_h=2, extra_w=4, seed=1)  # 5x7: odd and non-square
@example(size=7, extra_h=1, extra_w=0, seed=2)  # 8x7: kernel as large as the image
@given(
    size=st.sampled_from([3, 5, 7]),
    extra_h=st.integers(min_value=0, max_value=4),
    extra_w=st.integers(min_value=0, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_rank_one_kernel_runs_two_passes_matching_direct_summation(size, extra_h,
                                                                   extra_w, seed):
    # uniform draws are almost surely not palindromes, so the kernel has no
    # flip symmetry and takes the separable path
    r = np.random.default_rng(seed)
    col, row = r.uniform(0.05, 1.0, (2, size))
    psf = rank_one_psf(col, row)
    assert not psf.is_doubly_symmetric() and psf.factors is not None
    h, w = size + extra_h, size + extra_w
    A = direct_blur_matrix(psf, h, w)
    x = r.standard_normal((h, w))
    y = r.standard_normal((h, w))
    x0, y0 = x.copy(), y.copy()
    assert np.abs(blur_apply(psf, x) - direct_blur(psf, x)).max() <= 1e-12
    assert np.abs(blur_adjoint(psf, y).ravel() - A.T @ y.ravel()).max() <= 1e-12
    assert np.array_equal(x, x0) and np.array_equal(y, y0)


def test_rank_one_factors_are_read_only_and_reproduce_the_taps():
    psf = rank_one_psf([0.1, 0.5, 0.2], [0.3, 0.3, 0.9])
    col, row = psf.factors
    assert not col.flags.writeable and not row.flags.writeable
    assert np.abs(np.outer(col, row) - psf.taps).max() <= 1e-15
    assert not psf.is_doubly_symmetric()


def test_factors_absent_off_the_separable_path(asymmetric_psf):
    assert asymmetric_psf.factors is None
    taps = np.outer([0.1, 0.5, 0.2], [0.3, 0.3, 0.9])
    taps[0, 2] += 1e-9
    assert Psf(size=3, taps=taps / taps.sum()).factors is None
    for size in (1, 3, 5, 7):
        for sigma in (0.5, 1.0, 4.0):
            psf = make_gaussian_psf(size, sigma)
            assert psf.is_doubly_symmetric() and psf.factors is None


@pytest.mark.parametrize("height, width", [(16, 16), (8, 24)])
def test_lambda_max_of_rank_one_kernel_matches_dense_eigenvalue(height, width):
    psf = rank_one_psf([0.1, 0.5, 0.2], [0.3, 0.3, 0.9])
    A = direct_blur_matrix(psf, height, width)
    assert lambda_max_AtA(psf, width, height) == pytest.approx(
        float(np.linalg.eigvalsh(A.T @ A).max()), rel=1e-10)
