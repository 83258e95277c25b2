"""Filtered-backprojection reconstruction from slice data.

Dividing slice data by sqrt(1-t^2) turns slice integrals into plane
integrals of the lifted chart function.  Backprojecting those and applying
the negative Laplacian recovers the lift: directly in three dimensions,
through a logarithmic filter in the offset variable in two.  Backprojection
commutes with the Laplacian, so the profiles are filtered in t (-d^2/dt^2,
after the log filter when n = 2) and backprojected onto the chart nodes in
one step: the filter acts as one radial matrix per angular harmonic degree
(`xform._filter_kernel`).  The result is multiplied back by |x_{n+1}| to
give the even function on the sphere.
"""

import numpy as np

from .grid import BallFunction, SliceData, project
from .specfun import method_constants
from .xform import _filter_kernel, _harmonic_apply


def _plane_data(F):
    """Divide out sqrt(1-t^2): exact shift of the stored boundary exponent."""
    if not isinstance(F, SliceData):
        raise TypeError("expected SliceData")
    if not np.all(np.isfinite(F.smooth)):
        raise ValueError("slice data contains non-finite values")
    return SliceData(F.grid, F.smooth, F.boundary_exponent - 0.5)


def _reconstruct(F, constant):
    """constant * (filtered backprojection of the plane data), on the sphere."""
    G = _plane_data(F)
    grid = G.grid
    exponent = G.boundary_exponent if grid.spec.n == 3 else None
    smooth = constant * _harmonic_apply(grid, G.values, _filter_kernel(grid, exponent))
    return project(BallFunction(grid, smooth))


def invert_john(F):
    """Reconstruction by John's reduction: the local filtered backprojection
    with c_3 at n = 3, the log-filtered one with c_hat_2 at n = 2."""
    n = F.grid.spec.n
    k = method_constants(n)
    return _reconstruct(F, k.c_n if n == 3 else k.c_hat_n)
