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
applied once per folded profile before the table backprojection `john` uses.
The annulus formula and its constant are this route's own.
"""

import math
from functools import lru_cache

import numpy as np
from scipy import fft

# benchmarks/layers.py counts spline resamples through this name; the route
# makes none, so the count reads 0
from scipy.ndimage import map_coordinates  # noqa: F401
from scipy.special import j0, roots_legendre

from .grid import BallFunction, project
from .invert_john import _plane_data
from .specfun import method_constants
from .xform import _node_spline, _symmetric, _table_backprojection, _table_offsets

DEFAULT_EPS = 4.0 * 1.3 / 383  # 0.01358, the inner radius the hs figures are quoted at
PANEL_NODES = 8  # Gauss-Legendre nodes per geometric radial panel
# Radii at least 2 exceed 1 + every chart radius, the largest offset |s - u|
# at which a profile supported in [-1, 1] meets a table offset s; their
# arcsine kernels are smooth there and are applied in space.
FAR_RADIUS = 2.0


def _annulus_rule(eps, r_max):
    """Radii rho_q and weights W_q with sum_q W_q (g - mean_rho_q g) the
    extrapolated annulus integral 2 T(eps) - T(2 eps).

    The panels are [eps 2^j, eps 2^(j+1)], clipped at r_max; T(2 eps) is the
    sum without the first panel, so extrapolating doubles that panel.
    """
    bounds = [eps]
    while bounds[-1] < r_max:
        bounds.append(min(2.0 * bounds[-1], r_max))
    xg, wg = roots_legendre(PANEL_NODES)
    a = np.asarray(bounds[:-1])[:, None]
    b = np.asarray(bounds[1:])[:, None]
    rho = 0.5 * (b - a) * xg + 0.5 * (a + b)
    weight = math.pi * (b - a) * wg / rho**2
    weight[0] *= 2.0
    return rho.ravel(), weight.ravel()


@lru_cache(maxsize=16)
def _annulus_table(grid, eps, r_max, tail_correction):
    """(s, M): the offset table of `_table_offsets` and the matrix taking node
    values of plane data to their profile filtered by the annulus multiplier.

    The profile is the natural spline of `_node_spline`, zero outside
    [-1, 1], sampled on a periodic grid with the table's step, so the table
    offsets are grid points.  Radii below FAR_RADIUS act through J0 with one
    real FFT per column; the period exceeds FAR_RADIUS + 1 + span, so no
    periodic copy of a profile reaches the table.  Each larger radius rho
    acts as g - A_rho g, where A_rho convolves with the arcsine density
    1 / (pi sqrt(rho^2 - u^2)) on |u| < rho: the data reach it only at
    |u| <= 1 + span < FAR_RADIUS, where it is smooth, so the sum of those
    densities is sampled there as one kernel on the same period.  The cost
    therefore grows only with the number of panels, like log(r_max).
    """
    s = _table_offsets(grid)
    half = s.size // 2
    step = s[-1] / half
    count = fft.next_fast_len(math.ceil((FAR_RADIUS + 1.0 + s[-1]) / step) + 1, real=True)
    k = np.arange(count)
    v = step * np.where(2 * k < count, k, k - count)
    _, spline = _node_spline(grid.t)
    samples = np.zeros((count, grid.t.size))
    inside = np.abs(v) < 1.0
    samples[inside] = spline(v[inside])

    rho, weight = _annulus_rule(eps, r_max)
    far = rho >= FAR_RADIUS
    sigma = 2.0 * np.pi * fft.rfftfreq(count, step)
    m = weight[~far] @ (1.0 - j0(np.outer(rho[~far], sigma)))
    reach = np.abs(v) < FAR_RADIUS
    kernel = np.zeros(count)
    kernel[reach] = weight[far] @ (
        1.0 / (np.pi * np.sqrt(rho[far, None] ** 2 - v[None, reach] ** 2))
    )
    m += weight[far].sum() - step * fft.rfft(kernel).real
    if tail_correction:
        m += 2.0 * np.pi / r_max

    filtered = fft.irfft(m[:, None] * fft.rfft(samples, axis=0), n=count, axis=0)
    return s, _symmetric(filtered[np.arange(-half, half + 1) % count])


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
    table = _annulus_table(grid, float(eps), float(r_max), bool(tail_correction))
    c = method_constants(2, ell=1).hs_constant
    return project(BallFunction(grid, c * _table_backprojection(phi, *table)))
