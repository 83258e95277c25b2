"""Uniform Cartesian lattices on boxes [-hw, hw]^n.

No reconstruction route uses them: every route backprojects straight onto
the chart nodes.  `cartesian_nodes` stays public for evaluating functions
such as `dual_radon` on a lattice, for plots and checks.
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
