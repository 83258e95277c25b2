"""Uniform Cartesian lattices for the hypersingular route's backprojection tables.

The hypersingular annulus sum evaluates the backprojection far off the chart
nodes, out to the outer truncation radius, so it tabulates it on padded
boxes [-hw, hw]^n and resamples those tables by cubic splines.
"""

import numpy as np


def cartesian_nodes(n, count, halfwidth):
    """Axis coordinates and flattened node list for a [-hw, hw]^n lattice.

    Returns (axis, pts): axis has shape (count,), pts has shape
    (count**n, n) in C order, matching values.reshape((count,)*n).
    """
    if n not in (2, 3):
        raise ValueError("only n = 2 or 3 is supported")
    if count < 4:
        raise ValueError("need at least 4 nodes per axis")
    axis = np.linspace(-halfwidth, halfwidth, count)
    mesh = np.meshgrid(*([axis] * n), indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    return axis, pts
