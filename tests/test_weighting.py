import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import densify_blur, dense_Wn
from proxdeblur.linop import (
    Psf,
    dct2,
    gradient,
    idct2,
    operator_spectrum,
    spectral_decompose,
)
from proxdeblur.weighting import (
    MAX_ORDER,
    STEP_TOL,
    _phi_binomial_exact,
    apply_weighted_gradient_nstep,
    binomial_filter_weights,
    build_filter,
    operator_plan,
)


def test_binomial_weights_small_orders():
    assert binomial_filter_weights(1) == [1]
    assert binomial_filter_weights(2) == [2, -1]
    assert binomial_filter_weights(3) == [3, -3, 1]
    assert binomial_filter_weights(8) == [8, -28, 56, -70, 56, -28, 8, -1]


@pytest.mark.parametrize("n", [1, 2, 5, 16, 32])
def test_binomial_weights_sum_to_one(n):
    # phi(1) = 1 for every order, so the coefficients always sum to 1
    assert sum(binomial_filter_weights(n)) == 1


@pytest.mark.parametrize("bad", [0, -1, 33, 2.5, True, "3"])
def test_binomial_weights_rejects(bad):
    with pytest.raises(ValueError):
        binomial_filter_weights(bad)


def test_filter_hand_values():
    # phi(mu) = (1 - (1-mu)^n)/mu evaluated by hand for n = 2
    mu = np.array([[0.5, 1.0], [1e-20, 0.25]])
    phi = build_filter(mu, 2)
    want = np.array([[1.5, 1.0], [2.0, 1.75]])
    assert np.abs(phi - want).max() < 1e-12
    assert float(phi.max()) == pytest.approx(2.0)


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_filter_matches_exact_polynomial_everywhere(psf31, n):
    lam = spectral_decompose(psf31, (8, 8))
    mus = 0.9 * lam * lam
    coeffs = binomial_filter_weights(n)
    for mu, phi in zip(mus.ravel(), build_filter(mus, n).ravel()):
        if mu <= 1e-14:
            assert phi == pytest.approx(float(n), abs=1e-12)
        else:
            assert phi == pytest.approx(_phi_binomial_exact(mu, coeffs), abs=1e-10)


@pytest.mark.parametrize("n", [2, 3, 8])
def test_spectral_weighting_equals_n_gradient_steps(rng, psf31, n):
    # the defining identity: one filtered step fast-forwards n plain steps
    eta = 0.8
    x = rng.standard_normal((16, 16))
    b = rng.standard_normal((16, 16))
    phi = operator_plan(psf31, (16, 16), eta, n).phi
    g = gradient(psf31, x, b)
    z_spectral = x - eta * idct2(phi * dct2(g))
    z_steps = apply_weighted_gradient_nstep(psf31, x, b, eta, n)
    assert np.abs(z_spectral - z_steps).max() < 1e-9


def test_spectral_weighting_matches_dense_matrix(rng, psf31):
    eta, n = 0.9, 4
    g = rng.standard_normal((8, 8))
    phi = operator_plan(psf31, (8, 8), eta, n).phi
    W = dense_Wn(densify_blur(psf31, 8, 8), eta, n)
    want = (W.entries @ g.ravel()).reshape(8, 8)
    assert np.abs(idct2(phi * dct2(g)) - want).max() < 1e-9


def test_order_one_filter_is_identity(rng, psf31):
    lam = spectral_decompose(psf31, (8, 8))
    phi = build_filter(1.0 * lam * lam, 1)
    assert np.abs(phi - 1.0).max() < 1e-12
    g = rng.standard_normal((8, 8))
    assert np.abs(idct2(phi * dct2(g)) - g).max() < 1e-12


def test_filter_invariants_on_random_spectra(rng):
    for n in (2, 5, 12):
        mu = rng.uniform(0.0, 1.0, (6, 6))
        phi = build_filter(mu, n)
        assert phi.min() >= 1.0 - 1e-12
        assert phi.max() <= n + 1e-12
        assert (phi * mu).max() <= 1.0 + 1e-12


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=1, max_value=12), seed=st.integers(0, 2**31))
def test_filter_bounds_property(n, seed):
    mu = np.random.default_rng(seed).uniform(0.0, 1.0, (4, 4))
    phi = build_filter(mu, n)
    assert phi.min() >= 1.0 - 1e-12
    assert phi.max() <= n + 1e-12


def test_filter_is_exactly_one_over_mu_at_and_past_one():
    # mu = 1, and mu past 1 by less than the step tolerance, clip to 1
    # inside the logarithm, where the closed form reduces to 1/mu
    mu = np.array([1.0, 1.0 + STEP_TOL / 2])
    for n in range(1, MAX_ORDER + 1):
        assert np.array_equal(build_filter(mu, n), 1.0 / mu), n


def test_build_filter_rejects_overstepped_spectrum(psf31):
    # eta > 1/lambda_max puts mu above 1 and breaks the filter guarantees
    lam = spectral_decompose(psf31, (8, 8))
    with pytest.raises(ValueError):
        build_filter(1.5 * lam * lam, 2)


def test_large_filter_gain_reaches_order(psf74):
    # heavy blur leaves near-zero frequencies where phi saturates at n
    lam = operator_plan(psf74, (256, 256), 1.0, 8).lambda_max_W
    assert 7.9 < lam <= 8.0
    assert lam == pytest.approx(8.0, abs=1e-9)


def test_the_order_one_plan_is_the_cached_spectrum(psf31, asymmetric_psf):
    spectrum = operator_spectrum(psf31, (16, 16))
    assert operator_plan(psf31, (16, 16), 0.5, 1) is spectrum
    assert spectrum.phi == 1.0 and spectrum.gain is spectrum.lam
    assert spectrum.lambda_max_W == 1.0
    plan = operator_plan(psf31, (16, 16), 0.5, 4)
    assert plan.lam is spectrum.lam and plan.lambda_max_AtA == spectrum.lambda_max_AtA
    np.testing.assert_array_equal(plan.gain, plan.phi * spectrum.lam)
    # plans compare and hash by identity, as kernels do, not by their arrays
    twin = operator_spectrum(Psf(size=psf31.size, taps=psf31.taps), (16, 16))
    assert spectrum == spectrum and spectrum != twin and len({spectrum, twin, spectrum}) == 2
    spectrum = operator_spectrum(asymmetric_psf, (8, 8))
    assert operator_plan(asymmetric_psf, (8, 8), 0.5, 1) is spectrum
    plan = operator_plan(asymmetric_psf, (8, 8), 0.5, 4)
    assert (plan.lam, plan.phi, plan.gain) == (None, None, None)
    assert plan.lambda_max_W == 4.0 and plan.lambda_max_AtA == spectrum.lambda_max_AtA


def test_nstep_weighting_validation(psf31):
    with pytest.raises(ValueError):
        apply_weighted_gradient_nstep(psf31, np.ones((8, 8)), np.ones((8, 8)), 1.0, 0)


@pytest.mark.parametrize("kernel", ["psf74", "asymmetric_psf"])
def test_one_step_size_bound_for_every_order(request, kernel):
    # 5e-10 above 1/lambda_max is rejected by every order on both routes;
    # 1/lambda_max itself is accepted by every order
    psf = request.getfixturevalue(kernel)
    lam_max = operator_spectrum(psf, (32, 32)).lambda_max_AtA
    for n in (1, 2, 8):
        with pytest.raises(ValueError, match=r"exceeds 1/lambda_max\(A\^T A\)"):
            operator_plan(psf, (32, 32), (1 + 5e-10) / lam_max, n)
    for n in (1, 2, 8, MAX_ORDER):
        assert operator_plan(psf, (32, 32), 1 / lam_max, n).lambda_max_AtA == lam_max
