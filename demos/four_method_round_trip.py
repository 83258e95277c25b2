#!/usr/bin/env python3
"""Reconstruct one phantom by all four inversion routes and compare them.

A smooth bump away from the equator is sliced forward, then recovered by

  john  backprojection of the plane-integral data plus a Laplacian
  hs    hypersingular annulus integral with finite differences
  svd   spectral division by the singular values on a band
  ac    analytic continuation of the spherical-mean formulas

john and ac apply one offset filter with their own constants, hs its
annulus multiplier, all through one harmonic backprojection kernel; svd
shares nothing but the grid.  Agreement here checks the formulas and
constants, not separate code.  The john route's n = 2 best-fit scalar sits near
-1/sqrt(pi) = -0.5642 rather than 1: that is the documented constant
discrepancy of the published even-dimensional formula, and exactly the
reason the comparison below looks at shape error after scaling.
"""

import time

from vslice import (
    GridSpec,
    Phantom,
    compare,
    full_transform,
    invert_ac,
    invert_hypersingular,
    invert_john,
    make_phantom,
    reconstruct,
    vslice_forward,
)

SPEC = GridSpec(2, 128, 48, 64)
PHANTOM = Phantom(kind="bump", center=(0.3, -0.2, 0.93), width=0.7, equator_margin=0.25)


def main():
    print(__doc__)
    truth = make_phantom(PHANTOM, SPEC)
    t0 = time.perf_counter()
    F = vslice_forward(truth)
    print("forward transform on %d angles x %d offsets: %.2f s"
          % (F.grid.n_ang_total, SPEC.n_t, time.perf_counter() - t0))
    print()

    methods = {
        "john": lambda: invert_john(F),
        "hs": lambda: invert_hypersingular(F),
        "svd": lambda: reconstruct(F, band=12),
        "ac": lambda: invert_ac(full_transform(F)),
    }
    print("%-6s %12s %12s %12s %9s" % ("method", "rel_l2", "after_scale", "scalar", "time"))
    for name, run in methods.items():
        t0 = time.perf_counter()
        rec = run()
        dt = time.perf_counter() - t0
        rep = compare(truth, rec, method=name)
        print("%-6s %12.4e %12.4e %12.5f %8.2fs"
              % (name, rep.rel_l2, rep.rel_l2_after_scale, rep.best_fit_scalar, dt))
    print()
    print("All four shape errors (after_scale) sit at the percent level or far")
    print("below; john/hs/ac are grid-quadrature limited, svd is band limited.")


if __name__ == "__main__":
    main()
