"""Reconstruction through a truncated hypersingular integral (two dimensions).

The backprojection g of the plane data determines f pointwise through an
integral of g(x) - g(x - y) against |y|^-3 over an annulus eps < |y| < r_max.
In polar offsets that is a radial integral of 2 pi rho^-2 times g(x) minus
the mean of g over the circle of radius rho about x.  The radial quadrature
runs over geometric panels, and the first-order truncation bias at eps is
removed by linear extrapolation from the pair (eps, 2 eps).

The circle mean of a plane wave e^(i sigma theta . x) is J0(rho sigma), so
the whole truncated sum commutes with the backprojection: it acts on each
t-profile as one radial multiplier m(sigma) = sum_q W_q (1 - J0(rho_q sigma)),
a t-filter like john's that goes through the same harmonic kernel
(`xform._radial_kernel`).  The annulus formula and its constant are this
route's own.  The route runs on numpy alone: the profiles are filtered with
numpy's real FFT on a period of 5-smooth length, and J0 is the module's own
`_j0`, which matches scipy's to 1e-15 absolute over every argument formed.
"""

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.polynomial import polyval

from .grid import BallFunction, _jacobi_rule, _read_only, project
from .invert_john import _plane_data
from .specfun import method_constants
from .xform import _harmonic_apply, _kernel_offsets, _node_spline, _radial_kernel, _spline

DEFAULT_EPS = 4.0 * 1.3 / 383  # 0.01358, the inner radius the hs figures are quoted at
PANEL_NODES = 8  # Gauss-Legendre nodes per geometric radial panel
# Radii at least 2 exceed 1 + every chart radius, the largest offset |s - u|
# at which a profile supported in [-1, 1] meets a kernel offset s; their
# arcsine kernels are smooth there and are applied in space.
FAR_RADIUS = 2.0
STEP = 1.0 / 4096  # offset step of the periodic profiles the multiplier acts on

# J0 below J0_SPLIT: the 64-node periodic trapezoid of (1/2 pi) int cos(x sin phi),
# whose error 2 (J_64(x) + J_128(x) + ...) is below 1e-17 there, folded to the
# quarter period: nodes phi = pi j / 32, j = 0..16, weights 1, 2, ..., 2, 1 over 32
J0_SPLIT = 25.0
_FOLD_SINES = np.sin(np.pi * np.arange(1, 16) / 32.0)


def _hankel_coefficients(terms):
    """(-1)^i a_2i and (-1)^i a_(2i+1), i < terms, of Hankel's expansion of J0,
    a_k = prod_(j <= k) (-(2j - 1)^2) / (k! 8^k)."""
    a = [1.0]
    for k in range(1, 2 * terms):
        a.append(a[-1] * -((2.0 * k - 1.0) ** 2) / (8.0 * k))
    sign = (-1.0) ** np.arange(terms)
    return sign * np.array(a[0::2]), sign * np.array(a[1::2])


# at x >= J0_SPLIT the first terms left out are below 2e-19
_HANKEL_P, _HANKEL_Q = _hankel_coefficients(12)


def _j0(x):
    """Bessel J0, vectorized, to about 1e-15 absolute over the arguments
    rho sigma <= 26 000 that `_annulus_kernel` forms.

    Below J0_SPLIT the folded trapezoid above; from it up Hankel's asymptotic
    form sqrt(2 / (pi x)) (P cos(x - pi/4) - Q sin(x - pi/4)), P and Q series
    in 1 / x^2 and 1 / x.  The phase x - pi/4 is rounded as scipy's (Cephes)
    j0 rounds it, so at large x the two share its error of about
    ulp(x) sqrt(2 / (pi x)), 8e-15 at x = 26 000.
    """
    x = np.abs(np.asarray(x, dtype=float))
    out = np.empty_like(x)
    near = x < J0_SPLIT
    xn = x[near]
    folded = np.cos(np.multiply.outer(xn, _FOLD_SINES)).sum(-1)
    out[near] = (1.0 + np.cos(xn) + 2.0 * folded) / 32.0
    xf = x[~near]
    z = 1.0 / (xf * xf)
    phase = xf - 0.25 * np.pi
    out[~near] = np.sqrt(2.0 / (np.pi * xf)) * (
        polyval(z, _HANKEL_P) * np.cos(phase) - polyval(z, _HANKEL_Q) / xf * np.sin(phase)
    )
    return out


def _next_smooth(count):
    """The least integer >= count with no prime factor above 5, a fast FFT length."""
    while True:
        m = count
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return count
        count += 1


def __getattr__(name):
    # benchmarks/layers.py counts spline resamples through
    # invert_hs.map_coordinates; the route makes none, so the count reads 0.
    # scipy is imported only when that lookup happens (the benchmark's
    # --trace 1); ROADMAP direction 1 deletes this with the lookup.
    if name == "map_coordinates":
        from scipy.ndimage import map_coordinates

        return map_coordinates
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def _annulus_rule(eps, r_max):
    """Radii rho_q and weights W_q with sum_q W_q (g - mean_rho_q g) the
    extrapolated annulus integral 2 T(eps) - T(2 eps).

    The panels are [eps 2^j, eps 2^(j+1)], clipped at r_max; T(2 eps) is the
    sum without the first panel, so extrapolating doubles that panel.
    """
    bounds = [eps]
    while bounds[-1] < r_max:
        bounds.append(min(2.0 * bounds[-1], r_max))
    xg, wg = _jacobi_rule(PANEL_NODES, 0.0, 0.0)
    a = np.asarray(bounds[:-1])[:, None]
    b = np.asarray(bounds[1:])[:, None]
    rho = 0.5 * (b - a) * xg + 0.5 * (a + b)
    weight = math.pi * (b - a) * wg / rho**2
    weight[0] *= 2.0
    return rho.ravel(), weight.ravel()


@lru_cache(maxsize=8)
def _annulus_kernel(grid, eps, r_max, tail_correction):
    """The radial kernel (`xform._radial_kernel`) of the annulus multiplier.

    The profile of each node's cardinal function is the natural spline of
    `_node_spline`, zero outside [-1, 1], sampled by `_spline` where |v| < 1
    on a periodic grid of step STEP.  Radii below FAR_RADIUS act through J0
    (`_j0`) with one real FFT per profile; the period exceeds FAR_RADIUS + 2, so no
    periodic copy of a profile reaches an offset inside the unit ball.  Each larger radius rho
    acts as g - A_rho g, where A_rho convolves with the arcsine density
    1 / (pi sqrt(rho^2 - u^2)) on |u| < rho: the data reach it only at
    |u| < 2 <= FAR_RADIUS, where it is smooth, so the sum of those densities
    is sampled there as one kernel on the same period.  The cost therefore
    grows only with the number of panels, like log(r_max).  The filtered
    profiles are read at `_kernel_offsets` by linear interpolation.
    """
    count = _next_smooth(math.ceil((FAR_RADIUS + 2.0) / STEP) + 1)
    k = np.arange(count)
    v = STEP * np.where(2 * k < count, k, k - count)
    samples = np.zeros((grid.t.size, count))
    inside = np.abs(v) < 1.0
    samples[:, inside] = _spline(*_node_spline(grid.t), v[inside])

    rho, weight = _annulus_rule(eps, r_max)
    far = rho >= FAR_RADIUS
    sigma = 2.0 * np.pi * np.fft.rfftfreq(count, STEP)
    m = weight[~far] @ (1.0 - _j0(np.outer(rho[~far], sigma)))
    reach = np.abs(v) < FAR_RADIUS
    kernel = np.zeros(count)
    kernel[reach] = weight[far] @ (
        1.0 / (np.pi * np.sqrt(rho[far, None] ** 2 - v[None, reach] ** 2))
    )
    m += weight[far].sum() - STEP * np.fft.rfft(kernel).real
    if tail_correction:
        m += 2.0 * np.pi / r_max

    filtered = np.fft.irfft(m * np.fft.rfft(samples), n=count)
    pos = _kernel_offsets(grid) / STEP
    lo = np.floor(pos).astype(int)
    frac = pos - lo
    M = (1.0 - frac) * filtered[:, lo % count] + frac * filtered[:, (lo + 1) % count]
    return _read_only(_radial_kernel(grid, np.moveaxis(M, 0, -1)))


def invert_hypersingular(F, eps=None, r_max=4.0, tail_correction=True):
    """Reconstruct from slice data via the annulus integral above (n = 2),
    with the first-order difference g(x) - g(x - y) that n = 2 requires.

    eps defaults to DEFAULT_EPS; the radial quadrature runs over geometric
    panels [eps 2^j, eps 2^(j+1)] with Gauss-Legendre nodes, and doubling
    eps just drops the first panel, which is how the two truncation levels
    for the extrapolation come out of one sweep.

    The g(x) term of the difference only decays like |y|^-3 against the
    polar measure, so plain truncation at r_max leaves a 2 pi g(x)/r_max
    deficit (~11% of the value at r_max = 4).  tail_correction adds that
    closed-form piece back, leaving an O(1/r_max^2) remainder from the
    decaying g(x - y) term; disable it to observe the raw 1/r_max law.
    """
    grid = F.grid
    if grid.spec.n != 2:
        raise ValueError("the hypersingular route is implemented for n = 2 only")
    if eps is None:
        eps = DEFAULT_EPS
    if not (0.0 < eps < r_max and math.isfinite(r_max)):
        raise ValueError("need 0 < eps < r_max < inf")
    phi = _plane_data(F)
    K = _annulus_kernel(grid, float(eps), float(r_max), bool(tail_correction))
    c = method_constants(2).hs_constant
    return project(BallFunction(grid, c * _harmonic_apply(grid, phi.values, K)))
