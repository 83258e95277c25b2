"""Reconstruction through a truncated hypersingular integral (two dimensions).

The backprojection g of the plane data determines f pointwise through an
integral of g(x) - g(x - y) against |y|^-3 over an annulus eps < |y| < r_max.
The offset nodes are placed in antipodal pairs, so the gradient term of the
difference cancels in the sum and the truncated integrand stays bounded as
eps -> 0; the remaining first-order truncation bias is removed by linear
extrapolation from the pair (eps, 2 eps).
"""

import numpy as np
from scipy.ndimage import map_coordinates, spline_filter
from scipy.special import roots_legendre

from .cartesian import cartesian_nodes
from .grid import BallFunction, project
from .invert_john import _plane_data
from .specfun import method_constants
from .xform import dual_radon

FINE_COUNT = 384
FINE_HALFWIDTH = 1.3
COARSE_COUNT = 384
OFFSET_ANGLES = 24  # offset directions per half circle
PANEL_NODES = 8  # Gauss-Legendre nodes per geometric radial panel


class _Table:
    def __init__(self, values, halfwidth):
        self.coeffs = spline_filter(np.asarray(values, dtype=float))
        self.halfwidth = halfwidth
        self.scale = (values.shape[0] - 1) / (2.0 * halfwidth)

    def __call__(self, pts):
        idx = (pts + self.halfwidth) * self.scale
        return map_coordinates(
            self.coeffs, idx.reshape(-1, 2).T, order=3, prefilter=False, mode="nearest"
        )


def _backprojection_tables(phi, r_max):
    def table(count, halfwidth):
        _, pts = cartesian_nodes(2, count, halfwidth)
        return _Table(dual_radon(phi, pts).reshape(count, count), halfwidth)

    return table(FINE_COUNT, FINE_HALFWIDTH), table(COARSE_COUNT, r_max + 1.2)


def invert_hypersingular(F, eps=None, r_max=4.0, tail_correction=True):
    """Reconstruct from slice data via the annulus integral above (n = 2),
    with the first-order difference g(x) - g(x - y) that n = 2 requires.

    eps defaults to twice the fine table step; the radial quadrature runs
    over geometric panels [eps 2^j, eps 2^(j+1)] with Gauss-Legendre nodes,
    and doubling eps just drops the first panel, which is how the two
    truncation levels for the extrapolation come out of one sweep.

    The g(x) term of the difference only decays like |y|^-3 against the
    polar measure, so plain truncation at r_max leaves a 2 pi g(x)/r_max
    deficit (~11% of the value at r_max = 4).  tail_correction adds that
    closed-form piece back, leaving an O(1/r_max^2) remainder from the
    decaying g(x - y) term; disable it to observe the raw 1/r_max law.
    """
    grid = F.grid
    if grid.spec.n != 2:
        raise ValueError("the hypersingular route is implemented for n = 2 only")
    h_fine = 2.0 * FINE_HALFWIDTH / (FINE_COUNT - 1)
    if eps is None:
        eps = 2.0 * h_fine
    if not 0.0 < eps < r_max:
        raise ValueError("need 0 < eps < r_max")
    phi = _plane_data(F)
    fine, coarse = _backprojection_tables(phi, r_max)

    base = grid.ball_points.reshape(-1, 2)
    g0 = fine(base)

    # full-circle offset directions in antipodal pairs
    nfull = 2 * OFFSET_ANGLES
    om = (np.arange(nfull) + 0.5) * np.pi / OFFSET_ANGLES
    dirs = np.stack([np.cos(om), np.sin(om)], axis=-1)
    w_ang = np.pi / OFFSET_ANGLES

    bounds = [eps]
    while bounds[-1] < r_max:
        bounds.append(min(2.0 * bounds[-1], r_max))
    xg, wg = roots_legendre(PANEL_NODES)

    total = np.zeros(base.shape[0])
    first_panel = np.zeros(base.shape[0])
    for j in range(len(bounds) - 1):
        a, b = bounds[j], bounds[j + 1]
        rho = 0.5 * (b - a) * xg + 0.5 * (a + b)
        wr = 0.5 * (b - a) * wg
        psum = np.zeros(base.shape[0])
        for q in range(PANEL_NODES):
            table = fine if 1.0 + rho[q] <= FINE_HALFWIDTH else coarse
            queries = base[None, :, :] - rho[q] * dirs[:, None, :]
            gvals = table(queries).reshape(nfull, -1)
            psum += (wr[q] / rho[q] ** 2) * (nfull * g0 - gvals.sum(axis=0))
        if j == 0:
            first_panel = psum
        total += psum
    # 2 T(eps) - T(2 eps) where T(2 eps) is the sum without the first panel
    extrapolated = w_ang * (total + first_panel)
    if tail_correction:
        extrapolated = extrapolated + (2.0 * np.pi / r_max) * g0

    c = method_constants(2, ell=1).hs_constant
    smooth = (c * extrapolated).reshape(grid.n_ang_total, grid.spec.n_radial)
    return project(BallFunction(grid, smooth))
