"""Reconstruction formulas obtained by continuing the spherical-mean family.

Both reconstruction routes here consume the FULL slice transform V = 2 V_+;
`vslice_forward` produces V_+, so callers double it first (see
`full_transform`).  In three dimensions the continued formula is a plain
backprojection followed by the Laplacian, in two a log-filtered one; both
run through the filtered backprojection of `invert_john` with their own
constants.  The formulas assume functions that vanish identically near the
equator; for such data the filtered profiles
g_theta(t) = F(theta, t) (1-t^2)^(-1/2) drop to zero before the endpoints,
which is what keeps the division by sqrt(1-t^2) and the log filter well
behaved.  The module warns when the data visibly violates that decay.
"""

import warnings

import numpy as np

from .grid import SliceData
from .invert_john import _plane_data, _reconstruct
from .specfun import method_constants, sphere_area

DECAY_BAND = 0.02  # relative width of the rim band probed before inverting
DECAY_TOLERANCE = 1e-8


def full_transform(F):
    """Full slice transform from the half-sphere one: V = 2 V_+ (even f)."""
    if not isinstance(F, SliceData):
        raise TypeError("full_transform expects SliceData")
    return SliceData(F.grid, 2.0 * F.smooth, F.boundary_exponent)


def check_equator_decay(F, margin):
    """Peak of |g_theta(t)| over |t| > 1 - margin, relative to its global peak.

    g_theta = F (1-t^2)^(-1/2).  A phantom vanishing for |x_{n+1}| <= m has
    slice support inside |t| <= sqrt(1-m^2), i.e. a t-margin of
    1 - sqrt(1-m^2); passing that margin here should return ~0.
    """
    if not 0.0 < margin < 1.0:
        raise ValueError("need 0 < margin < 1")
    g = np.abs(_plane_data(F).values)
    band = np.abs(F.grid.t) > 1.0 - margin
    peak = g.max()
    if peak == 0.0 or not np.any(band):
        return 0.0
    return float(g[:, band].max() / peak)


def _decay_guard(F):
    ratio = check_equator_decay(F, DECAY_BAND)
    if ratio > DECAY_TOLERANCE:
        warnings.warn(
            "slice data does not vanish near t = +-1 (rim ratio %.2e); the "
            "continuation formulas assume data from functions vanishing near "
            "the equator" % ratio,
            stacklevel=3,
        )


def _ac_constant(n):
    """The constant of the continued formula in dimension n.

    n = 3: the t-derivative order n-3 is zero, so the formula is a pure
    backprojection (an unnormalized integral over directions) followed by
    the scaled Laplacian, with constant lambda_3 sigma_3.  n = 2: the
    published constant is 1/(8 pi^2) against an unnormalized direction
    integral and +Delta; folding in the 2 pi normalization of the averaged
    log filter and the sign of -Delta gives -sigma_2 / (8 pi^2).
    """
    if n == 3:
        return method_constants(3).lambda_n * sphere_area(3)
    return -sphere_area(2) / (8.0 * np.pi**2)


def invert_ac(F):
    """Reconstruction from the full transform V by the continued formula."""
    _decay_guard(F)
    return _reconstruct(F, _ac_constant(F.grid.spec.n))
