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
route's own.
"""

import math
from functools import lru_cache

import numpy as np
from scipy import fft

# benchmarks/layers.py counts spline resamples through this name; the route
# makes none, so the count reads 0
from scipy.ndimage import map_coordinates  # noqa: F401
from scipy.special import j0

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
    with one real FFT per profile; the period exceeds FAR_RADIUS + 2, so no
    periodic copy of a profile reaches an offset inside the unit ball.  Each larger radius rho
    acts as g - A_rho g, where A_rho convolves with the arcsine density
    1 / (pi sqrt(rho^2 - u^2)) on |u| < rho: the data reach it only at
    |u| < 2 <= FAR_RADIUS, where it is smooth, so the sum of those densities
    is sampled there as one kernel on the same period.  The cost therefore
    grows only with the number of panels, like log(r_max).  The filtered
    profiles are read at `_kernel_offsets` by linear interpolation.
    """
    count = fft.next_fast_len(math.ceil((FAR_RADIUS + 2.0) / STEP) + 1, real=True)
    k = np.arange(count)
    v = STEP * np.where(2 * k < count, k, k - count)
    samples = np.zeros((grid.t.size, count))
    inside = np.abs(v) < 1.0
    samples[:, inside] = _spline(*_node_spline(grid.t), v[inside])

    rho, weight = _annulus_rule(eps, r_max)
    far = rho >= FAR_RADIUS
    sigma = 2.0 * np.pi * fft.rfftfreq(count, STEP)
    m = weight[~far] @ (1.0 - j0(np.outer(rho[~far], sigma)))
    reach = np.abs(v) < FAR_RADIUS
    kernel = np.zeros(count)
    kernel[reach] = weight[far] @ (
        1.0 / (np.pi * np.sqrt(rho[far, None] ** 2 - v[None, reach] ** 2))
    )
    m += weight[far].sum() - STEP * fft.rfft(kernel).real
    if tail_correction:
        m += 2.0 * np.pi / r_max

    filtered = fft.irfft(m * fft.rfft(samples), n=count)
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
