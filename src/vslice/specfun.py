"""Scalar special functions and closed-form constants for the slice transform.

Everything here is exact-formula territory: orthogonal polynomial recurrences,
real spherical harmonics on S^1 and S^2, the singular-value constants of the
slice transform, and the normalization constants used by the reconstruction
formulas.  No grids, no quadrature.
"""

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np


class SvdIndex(NamedTuple):
    """Index nu = (m, mu, k): harmonic degree m, harmonic index mu, radial order k."""

    m: int
    mu: int
    k: int

    @property
    def degree(self):
        """Polynomial degree m + 2k of the Gegenbauer factor this index maps to."""
        return self.m + 2 * self.k


def log_gamma(x):
    """Natural log of the Gamma function for x > 0 (vectorized)."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("log_gamma requires x > 0")
    out = np.vectorize(math.lgamma, otypes=[float])(x)
    return float(out) if out.ndim == 0 else out


def _jacobi_table(kmax, a, b, t):
    """P_0^(a,b)(t), ..., P_kmax^(a,b)(t) stacked, by the three-term recurrence."""
    t = np.asarray(t, dtype=float)
    rows = [np.ones_like(t), 0.5 * (a - b) + 0.5 * (a + b + 2.0) * t][: kmax + 1]
    for j in range(2, kmax + 1):
        c1 = 2.0 * j * (j + a + b) * (2.0 * j + a + b - 2.0)
        c2 = (2.0 * j + a + b - 1.0) * (a * a - b * b)
        c3 = (2.0 * j + a + b - 1.0) * (2.0 * j + a + b) * (2.0 * j + a + b - 2.0)
        c4 = 2.0 * (j + a - 1.0) * (j + b - 1.0) * (2.0 * j + a + b)
        rows.append(((c2 + c3 * t) * rows[-1] - c4 * rows[-2]) / c1)
    return np.stack(rows)


def jacobi_poly(k, a, b, t):
    """Jacobi polynomial P_k^(a,b)(t) by the three-term recurrence.

    Parameters
    ----------
    k : int, degree >= 0
    a, b : floats > -1
    t : scalar or array

    Vectorized in t.  Exact for the polynomial degrees used here; the
    recurrence is the standard one with no normalization tricks.
    """
    if k < 0:
        raise ValueError("degree must be >= 0")
    if a <= -1 or b <= -1:
        raise ValueError("Jacobi parameters must exceed -1")
    p = _jacobi_table(k, a, b, t)[-1]
    return p if p.ndim else float(p)


def _gegenbauer_table(kmax, lam, t):
    """C_0^lam(t), ..., C_kmax^lam(t) stacked, by the three-term recurrence."""
    t = np.asarray(t, dtype=float)
    rows = [np.ones_like(t), 2.0 * lam * t][: kmax + 1]
    for j in range(2, kmax + 1):
        c, c_prev = rows[-1], rows[-2]
        rows.append((2.0 * (j + lam - 1.0) * t * c - (j + 2.0 * lam - 2.0) * c_prev) / j)
    return np.stack(rows)


def gegenbauer_poly(k, lam, t):
    """Gegenbauer polynomial C_k^lam(t), lam > 0, by the three-term recurrence."""
    if k < 0:
        raise ValueError("degree must be >= 0")
    if lam <= 0:
        raise ValueError("Gegenbauer parameter must be > 0")
    c = _gegenbauer_table(k, lam, t)[-1]
    return c if c.ndim else float(c)


def harmonic_dim(n, m):
    """Dimension of the space of degree-m spherical harmonics on S^(n-1).

    d_n(0) = 1 by convention; for m >= 1,
    d_n(m) = (n + 2m - 2) (n + m - 3)! / (m! (n - 2)!).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if m < 0:
        raise ValueError("need m >= 0")
    if m == 0:
        return 1
    return (n + 2 * m - 2) * math.factorial(n + m - 3) // (math.factorial(m) * math.factorial(n - 2))


def _norm_assoc_legendre(l, j, c):
    """Normalized associated Legendre Pbar_i^j(c) for i = j, ..., l in turn.

    No Condon-Shortley phase; normalized so that integral of Pbar^2 over c in
    (-1,1) equals 1.  Stable upward recurrence, vectorized in c.
    """
    s = np.sqrt(np.clip(1.0 - c * c, 0.0, None))
    # seed: Pbar_j^j, and Pbar_(j-1)^j = 0
    p = np.full_like(c, 1.0 / math.sqrt(2.0))
    for i in range(1, j + 1):
        p = math.sqrt((2.0 * i + 1.0) / (2.0 * i)) * s * p
    p_prev = 0.0
    yield p
    for i in range(j + 1, l + 1):
        a = math.sqrt((4.0 * i * i - 1.0) / (i * i - j * j))
        b = math.sqrt(((i - 1.0) ** 2 - j * j) / (4.0 * (i - 1.0) ** 2 - 1.0))
        p, p_prev = a * (c * p - b * p_prev), p
        yield p


def sph_harm(n, m, mu, point):
    """Real spherical harmonic Y_{m,mu} on S^(n-1), n in {2, 3}.

    Orthonormal with respect to the unnormalized surface measure.
    n=2 basis is fixed: Y_{0,1} = 1/sqrt(2 pi), Y_{m,1} = cos(m a)/sqrt(pi),
    Y_{m,2} = sin(m a)/sqrt(pi).  n=3 uses the real associated-Legendre basis
    with mu = 1 the axial (order-0) function and mu = 2j, 2j+1 the cos/sin
    pair of azimuthal order j.

    `point` holds unit vectors in R^n along the last axis.
    """
    pt = np.asarray(point, dtype=float)
    if pt.shape[-1] != n:
        raise ValueError("point must have n components on last axis")
    if m < 0:
        raise ValueError("need m >= 0")
    dim = harmonic_dim(n, m)
    if not 1 <= mu <= dim:
        raise ValueError(f"mu out of range 1..{dim}")
    if n == 2:
        alpha = np.arctan2(pt[..., 1], pt[..., 0])
        if m == 0:
            out = np.full(alpha.shape, 1.0 / math.sqrt(2.0 * math.pi))
        elif mu == 1:
            out = np.cos(m * alpha) / math.sqrt(math.pi)
        else:
            out = np.sin(m * alpha) / math.sqrt(math.pi)
    elif n == 3:
        c = np.clip(pt[..., 2], -1.0, 1.0)
        beta = np.arctan2(pt[..., 1], pt[..., 0])
        j = mu // 2
        for p in _norm_assoc_legendre(m, j, c):
            pass
        if mu == 1:
            out = p / math.sqrt(2.0 * math.pi)
        else:
            trig = np.cos(j * beta) if mu % 2 == 0 else np.sin(j * beta)
            out = p * trig / math.sqrt(math.pi)
    else:
        raise ValueError("only n = 2 and n = 3 are supported")
    return out if out.ndim else float(out)


class SvdConstants(NamedTuple):
    c_nu: float  # ball-side normalization
    d_nu: float  # slice-side normalization
    s_nu: float  # singular value of the half slice transform
    lam: float  # weight parameter the constants were evaluated at


def svd_constants(n, lam, nu):
    """Normalization constants and singular value for index nu at weight lam.

    Requires a finite lam > n/2 - 1.  Computed through log-Gamma so large
    m + 2k stays finite.  s_nu depends on (m, k) only; mu enters nowhere, so
    the values are memoized per (n, lam, m, k).
    """
    m, _, k = nu
    if not (math.isfinite(lam) and lam > n / 2 - 1):
        raise ValueError("need a finite lam > n/2 - 1")
    if m < 0 or k < 0:
        raise ValueError("need m, k >= 0")
    return SvdConstants(*_svd_constants(n, lam, m, k), lam)


@lru_cache(maxsize=4096)
def _svd_constants(n, lam, m, k):
    """(c_nu, d_nu, s_nu) of every index with degree m and radial order k."""
    lg = math.lgamma
    log_c2 = (
        math.log(2.0)
        + lg(k + 1.0)
        + math.log(2.0 * k + lam + m)
        + lg(k + m + lam)
        - lg(k + lam - n / 2.0 + 1.0)
        - lg(k + m + n / 2.0)
    )
    log_d2 = (
        (2.0 * lam - 1.0) * math.log(2.0)
        + 2.0 * lg(lam)
        + lg(m + 2.0 * k + 1.0)
        + math.log(m + 2.0 * k + lam)
        - math.log(math.pi)
        - lg(m + 2.0 * k + 2.0 * lam)
    )
    log_s = (
        lam * math.log(2.0)
        + 0.5 * (n - 1.0) * math.log(math.pi)
        + 0.5
        * (
            lg(m + 2.0 * k + 1.0)
            + lg(k + m + lam)
            + lg(k + 1.0 + lam - n / 2.0)
            - lg(k + 1.0)
            - lg(m + 2.0 * k + 2.0 * lam)
            - lg(k + m + n / 2.0)
        )
    )
    return math.exp(0.5 * log_c2), math.exp(0.5 * log_d2), math.exp(log_s)


def radon_norm(n, lam):
    """Operator norm of the ball Radon transform between the weighted spaces."""
    if not (math.isfinite(lam) and lam > n / 2 - 1):
        raise ValueError("need a finite lam > n/2 - 1")
    return math.sqrt(
        math.pi ** ((n - 1) / 2.0) * math.exp(math.lgamma(lam - n / 2.0 + 1.0) - math.lgamma(lam + 0.5))
    )


def sphere_area(d):
    """Surface area of the unit sphere S^(d-1) in R^d."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def binom_alt_sum(ell, alpha):
    """B_ell(alpha) = sum_{j=0}^{ell} (-1)^j C(ell, j) j^alpha  (0^0 = 1)."""
    total = 0.0
    for j in range(ell + 1):
        term = 1.0 if (j == 0 and alpha == 0) else float(j) ** alpha
        total += (-1) ** j * math.comb(ell, j) * term
    return total


def _binom_alt_sum_dalpha(ell, alpha):
    """dB_ell/dalpha = sum_{j=1}^{ell} (-1)^j C(ell, j) j^alpha ln j, exactly
    (the j = 0 term is constant in alpha > 0)."""
    total = 0.0
    for j in range(1, ell + 1):
        total += (-1) ** j * math.comb(ell, j) * float(j) ** alpha * math.log(j)
    return total


def finite_difference_normalizer(n, ell, alpha):
    """Normalizer d_{n,ell}(alpha) of the hypersingular finite-difference integral.

    d_{n,ell}(alpha) = pi^(n/2) / (2^alpha Gamma((n+alpha)/2)) times
    Gamma(-alpha/2) B_ell(alpha) for alpha not an even integer, and
    2 (-1)^(alpha/2 - 1) / (alpha/2)! times dB_ell/dalpha when it is.
    """
    if ell < 1:
        raise ValueError("need ell >= 1")
    front = math.pi ** (n / 2.0) / (2.0**alpha * math.gamma((n + alpha) / 2.0))
    half = alpha / 2.0
    if alpha > 0 and half == int(half):
        j = int(half)
        return front * 2.0 * (-1.0) ** (j - 1) / math.factorial(j) * _binom_alt_sum_dalpha(ell, alpha)
    return front * math.gamma(-half) * binom_alt_sum(ell, alpha)


class MethodConstants(NamedTuple):
    """Closed-form constants used by the reconstruction formulas for dimension n."""

    c_n: float        # odd-n backprojection-Laplacian constant
    c_hat_n: float    # even-n (log-filtered) constant, as published
    lambda_n: float   # spherical-mean continuation constant
    delta_n: float    # n >= 3 variant of the same (nan at n = 2)
    ell: int          # finite-difference order for the hypersingular route
    d_n_ell: float    # d_{n,ell}(n-1)
    hs_constant: float  # c_n / d_{n,ell}(n-1): prefactor of the hypersingular integral


def method_constants(n):
    """Constants for the reconstruction formulas in ambient dimension n (sphere S^n).

    The finite-difference order ell is n-1 for even n and n for odd n, where
    it must exceed n-1.  The weighted operator norm is radon_norm(n, lam).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    ell = n - 1 if n % 2 == 0 else n
    gam = math.gamma
    c_n = math.pi ** (1.0 - n / 2.0) / (2.0 ** (n - 1) * gam(n / 2.0))
    c_hat_n = math.pi ** ((1.0 - n) / 2.0) / (2.0 ** (n - 1) * gam(n / 2.0))
    sign = (-1.0) ** ((n - 2) // 2)
    lambda_n = sign * gam((n - 1) / 2.0) * gam(n / 2.0) / (
        8.0 * math.pi ** (n - 0.5) * math.factorial(n - 2)
    )
    if n >= 3:
        delta_n = sign * gam((n - 1) / 2.0) / math.factorial(n - 3)
    else:
        delta_n = math.nan
    d_n_ell = finite_difference_normalizer(n, ell, n - 1)
    return MethodConstants(c_n, c_hat_n, lambda_n, delta_n, ell, d_n_ell, c_n / d_n_ell)
