import math

import numpy as np
import pytest
from scipy.special import eval_gegenbauer, eval_jacobi

from vslice.specfun import (
    SvdIndex,
    _binom_alt_sum_dalpha,
    binom_alt_sum,
    finite_difference_normalizer,
    gegenbauer_poly,
    harmonic_dim,
    jacobi_poly,
    log_gamma,
    method_constants,
    radon_norm,
    sph_harm,
    sphere_area,
    svd_constants,
)


def test_log_gamma_anchors():
    assert abs(log_gamma(0.5) - math.log(math.sqrt(math.pi))) < 1e-14
    assert abs(log_gamma(5.0) - math.log(24.0)) < 1e-13
    x = np.logspace(-3, 3, 200)
    ref = np.array([math.lgamma(v) for v in x])
    got = log_gamma(x)
    scale = np.maximum(np.abs(ref), 1.0)
    assert np.max(np.abs(got - ref) / scale) < 1e-13


def test_log_gamma_domain():
    with pytest.raises(ValueError):
        log_gamma(0.0)
    with pytest.raises(ValueError):
        log_gamma(-1.0)


def test_jacobi_degree_one_closed_form():
    rng = np.random.default_rng(7)
    for _ in range(100):
        a, b = rng.uniform(-0.9, 3.0, size=2)
        t = rng.uniform(-1, 1)
        expect = 0.5 * (a - b) + 0.5 * (a + b + 2) * t
        assert abs(jacobi_poly(1, a, b, t) - expect) < 1e-14


def test_jacobi_series_oracle_frozen():
    # 50-digit mpmath hypergeometric series gives exactly -0.39725 for these inputs:
    #   sum_j C(k,j) Gamma(a+b+k+j+1)/Gamma(a+j+1) ((t-1)/2)^j * Gamma(a+k+1)/(k! Gamma(a+b+k+1))
    assert abs(jacobi_poly(3, 0.5, 1.5, 0.3) - (-0.39725)) < 1e-12


def test_jacobi_against_scipy():
    rng = np.random.default_rng(11)
    for _ in range(100):
        k = int(rng.integers(0, 12))
        a, b = rng.uniform(-0.9, 4.0, size=2)
        t = rng.uniform(-1, 1)
        assert abs(jacobi_poly(k, a, b, t) - eval_jacobi(k, a, b, t)) < 1e-10 * max(
            1.0, abs(eval_jacobi(k, a, b, t))
        )


def test_gegenbauer_values():
    # C_2^1 is the Chebyshev-U polynomial 4t^2 - 1
    assert abs(gegenbauer_poly(2, 1.0, 0.5)) < 1e-14
    rng = np.random.default_rng(3)
    for _ in range(100):
        k = int(rng.integers(0, 12))
        lam = rng.uniform(0.05, 4.0)
        t = rng.uniform(-1, 1)
        ref = eval_gegenbauer(k, lam, t)
        assert abs(gegenbauer_poly(k, lam, t) - ref) < 1e-10 * max(1.0, abs(ref))


def test_gegenbauer_parity():
    t = np.linspace(-1, 1, 17)
    for k in range(8):
        lam = 1.5
        even = gegenbauer_poly(k, lam, t)
        flip = gegenbauer_poly(k, lam, -t)
        assert np.allclose(flip, (-1) ** k * even, atol=1e-13)


def test_harmonic_dim():
    assert [harmonic_dim(2, m) for m in range(6)] == [1, 2, 2, 2, 2, 2]
    assert [harmonic_dim(3, m) for m in range(6)] == [1, 3, 5, 7, 9, 11]
    # closed form for S^3 as a spot check of the general formula
    assert harmonic_dim(4, 3) == (3 + 1) ** 2


def test_sph_harm_circle_values():
    ang = 0.7
    pt = np.array([math.cos(ang), math.sin(ang)])
    assert abs(sph_harm(2, 0, 1, pt) - 1 / math.sqrt(2 * math.pi)) < 1e-15
    assert abs(sph_harm(2, 3, 1, pt) - math.cos(3 * ang) / math.sqrt(math.pi)) < 1e-14
    assert abs(sph_harm(2, 3, 2, pt) - math.sin(3 * ang) / math.sqrt(math.pi)) < 1e-14


def test_sph_harm_north_pole_degree_one():
    pole = np.array([0.0, 0.0, 1.0])
    vals = [sph_harm(3, 1, mu, pole) for mu in (1, 2, 3)]
    assert abs(abs(vals[0]) - math.sqrt(3 / (4 * math.pi))) < 1e-14
    assert abs(vals[1]) < 1e-14 and abs(vals[2]) < 1e-14


def _sphere_quad_s2(nres=64):
    # Gauss-Legendre x trapezoid product rule on S^2, unnormalized measure
    from scipy.special import roots_legendre

    c, wc = roots_legendre(nres)
    beta = 2 * np.pi * np.arange(2 * nres) / (2 * nres)
    wb = 2 * np.pi / (2 * nres)
    s = np.sqrt(1 - c**2)
    pts = np.stack(
        [
            s[:, None] * np.cos(beta)[None, :],
            s[:, None] * np.sin(beta)[None, :],
            np.broadcast_to(c[:, None], (nres, 2 * nres)),
        ],
        axis=-1,
    )
    w = wc[:, None] * wb * np.ones_like(beta)[None, :]
    return pts, w


def test_sph_harm_orthonormal_s1():
    A = 256
    ang = 2 * np.pi * np.arange(A) / A
    pts = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    w = 2 * np.pi / A
    basis = [(0, 1)] + [(m, mu) for m in range(1, 6) for mu in (1, 2)]
    for i, (m1, mu1) in enumerate(basis):
        for m2, mu2 in basis[i:]:
            ip = np.sum(sph_harm(2, m1, mu1, pts) * sph_harm(2, m2, mu2, pts)) * w
            expect = 1.0 if (m1, mu1) == (m2, mu2) else 0.0
            assert abs(ip - expect) < 1e-12


def test_sph_harm_orthonormal_s2():
    pts, w = _sphere_quad_s2(32)
    basis = [(m, mu) for m in range(5) for mu in range(1, harmonic_dim(3, m) + 1)]
    vals = np.stack([sph_harm(3, m, mu, pts) for m, mu in basis])
    gram = np.einsum("iab,jab,ab->ij", vals, vals, w)
    assert np.max(np.abs(gram - np.eye(len(basis)))) < 1e-12


def test_sph_harm_against_scipy_complex():
    # real basis must be a unitary recombination of scipy's complex harmonics
    from scipy.special import sph_harm_y

    rng = np.random.default_rng(5)
    c = rng.uniform(-0.99, 0.99, size=20)
    beta = rng.uniform(0, 2 * np.pi, size=20)
    theta = np.arccos(c)
    pts = np.stack([np.sin(theta) * np.cos(beta), np.sin(theta) * np.sin(beta), c], axis=-1)
    for m in range(4):
        axial = sph_harm(3, m, 1, pts)
        ref = sph_harm_y(m, 0, theta, beta).real
        assert np.allclose(axial, ref, atol=1e-12)
        for j in range(1, m + 1):
            yc = sph_harm(3, m, 2 * j, pts)
            ys = sph_harm(3, m, 2 * j + 1, pts)
            zc = sph_harm_y(m, j, theta, beta)
            # Condon-Shortley-free real pair
            assert np.allclose(yc, math.sqrt(2) * (-1.0) ** j * zc.real, atol=1e-12)
            assert np.allclose(ys, math.sqrt(2) * (-1.0) ** j * zc.imag, atol=1e-12)


def test_svd_constants_anchor():
    c = svd_constants(2, 1.0, SvdIndex(0, 1, 0))
    assert abs(c.c_nu - math.sqrt(2)) < 1e-14
    assert abs(c.d_nu - math.sqrt(2 / math.pi)) < 1e-14
    assert abs(c.s_nu - 2 * math.sqrt(math.pi)) < 1e-14
    assert c.lam == 1.0


def test_svd_constants_decay_and_limits():
    # at lam = n/2 the singular value depends on m + 2k only and decays monotonically
    for n, lam in ((2, 1.0), (3, 1.5)):
        prev = None
        for M in range(0, 41):
            vals = {svd_constants(n, lam, (M - 2 * k, 1, k)).s_nu for k in range(M // 2 + 1)}
            assert max(vals) - min(vals) < 1e-12 * max(vals)
            s = vals.pop()
            if prev is not None:
                assert s < prev
            prev = s
    # near the lower lam limit everything stays finite and positive
    for n in (2, 3):
        c = svd_constants(n, n / 2 - 1 + 1e-9, (1, 1, 1))
        assert all(np.isfinite(v) and v > 0 for v in c[:3])


def test_svd_constants_domain():
    with pytest.raises(ValueError):
        svd_constants(2, 0.0, (0, 1, 0))
    with pytest.raises(ValueError):
        svd_constants(3, 0.5, (0, 1, 0))


def test_radon_norm_anchor():
    assert abs(radon_norm(2, 1.0) - math.sqrt(2)) < 1e-14


def test_sphere_area():
    assert abs(sphere_area(2) - 2 * math.pi) < 1e-14
    assert abs(sphere_area(3) - 4 * math.pi) < 1e-13
    assert abs(sphere_area(4) - 2 * math.pi**2) < 1e-13


def test_binom_alt_sum():
    # B_ell(alpha) = sum (-1)^j C(ell,j) j^alpha
    assert binom_alt_sum(1, 1.0) == -1.0
    assert binom_alt_sum(2, 1.0) == 0.0  # 0 - 2 + 2
    assert abs(binom_alt_sum(2, 3.0) - (-2 + 8)) < 1e-12


def test_binom_alt_sum_dalpha_exact():
    # d/dalpha sum (-1)^j C(3,j) j^alpha at alpha = 2: 3 * 4 ln 2 - 9 ln 3
    want = 12.0 * math.log(2.0) - 9.0 * math.log(3.0)
    assert abs(_binom_alt_sum_dalpha(3, 2.0) - want) <= 1e-15 * abs(want)
    # d_{3,3}(2) = pi^(3/2) / (4 Gamma(5/2)) * 2 * dB_3(2) = 2 pi ln(16/27)
    want = 2.0 * math.pi * math.log(16.0 / 27.0)
    assert abs(method_constants(3).d_n_ell - want) <= 1e-14 * abs(want)


def test_finite_difference_normalizer_n2():
    # n=2, ell=1, alpha=1: pi/(2 Gamma(3/2)) * Gamma(-1/2) * (-1) = 2 pi
    assert abs(finite_difference_normalizer(2, 1, 1.0) - 2 * math.pi) < 1e-12


def test_method_constants():
    mc2 = method_constants(2)
    assert abs(mc2.c_hat_n - 1 / (2 * math.sqrt(math.pi))) < 1e-15
    assert abs(mc2.c_n - 0.5) < 1e-15
    assert abs(mc2.hs_constant - 1 / (4 * math.pi)) < 1e-15
    assert abs(mc2.lambda_n - 1 / (8 * math.pi)) < 1e-15
    mc3 = method_constants(3)
    assert abs(mc3.c_n - 1 / (2 * math.pi)) < 1e-15
    assert abs(mc3.lambda_n - 1 / (16 * math.pi**2)) < 1e-15
    assert abs(mc3.delta_n - 1.0) < 1e-15
    # delta/lambda consistency at n=3: lambda_n = delta_n / (cbar_n sigma_{n-1})
    cbar3 = 4 * math.pi ** (1.0) * (3 - 2)
    assert abs(mc3.lambda_n - mc3.delta_n / (cbar3 * sphere_area(3))) < 1e-15


def test_method_constants_ell_validation():
    with pytest.raises(ValueError):
        method_constants(2, ell=2)
    with pytest.raises(ValueError):
        method_constants(3, ell=2)
    assert method_constants(3, ell=3).ell == 3


def test_svd_index():
    nu = SvdIndex(2, 1, 1)
    assert nu.m == 2 and nu.mu == 1 and nu.k == 1
    assert nu.degree == 4
    m, mu, k = nu
    assert (m, mu, k) == (2, 1, 1)
