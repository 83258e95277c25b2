"""Filtered-backprojection reconstruction from slice data.

Dividing slice data by sqrt(1-t^2) turns slice integrals into plane
integrals of the lifted chart function.  Backprojecting those and applying
the negative Laplacian recovers the lift: directly in three dimensions,
through a logarithmic filter in the offset variable in two.  Backprojection
commutes with the Laplacian, so each profile is filtered once in t (-d^2/dt^2,
after the log filter when n = 2) and backprojected straight onto the chart
nodes.  The result is multiplied back by |x_{n+1}| to give the even function
on the sphere.
"""

import numpy as np

from .grid import BallFunction, SliceData, project
from .specfun import method_constants
from .xform import _filter_table, _table_backprojection


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
    smooth = constant * _table_backprojection(G, *_filter_table(G.grid, G.boundary_exponent))
    return project(BallFunction(F.grid, smooth))


def invert_odd(F):
    """Three-dimensional reconstruction: local filtered backprojection."""
    if F.grid.spec.n != 3:
        raise ValueError("invert_odd requires n = 3 slice data")
    return _reconstruct(F, method_constants(3).c_n)


def invert_even(F):
    """Two-dimensional reconstruction: log-filtered backprojection."""
    if F.grid.spec.n != 2:
        raise ValueError("invert_even requires n = 2 slice data")
    return _reconstruct(F, method_constants(2).c_hat_n)


def invert_john(F):
    """Dispatch on the dimension of the slice data."""
    if F.grid.spec.n == 2:
        return invert_even(F)
    return invert_odd(F)
