import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import roots_legendre

from vslice import invert_hs
from vslice.grid import GridSpec, SliceData, default_spec, inner_product_sphere, make_grid
from vslice.harness import Phantom, compare, make_phantom
from vslice.invert_hs import (
    DEFAULT_EPS,
    FAR_RADIUS,
    J0_SPLIT,
    MIN_EPS,
    PANEL_NODES,
    STEP,
    _annulus_kernel,
    _j0,
    _next_smooth,
    invert_hypersingular,
)
from vslice.invert_john import invert_john
from vslice.specfun import method_constants
from vslice.xform import dual_radon, vslice_forward

SPEC2 = GridSpec(2, 128, 48, 64)


@pytest.fixture(scope="module")
def round2():
    phantom = make_phantom(Phantom(kind="bump", center=(0.3, -0.2, 0.93), width=0.7), SPEC2)
    return phantom, vslice_forward(phantom)


def test_invert_hypersingular_guards(round2):
    _, F = round2
    for eps, r_max in ((5.0, 4.0), (None, math.inf), (None, math.nan), (-1.0, 4.0)):
        with pytest.raises(ValueError, match="r_max"):
            invert_hypersingular(F, eps=eps, r_max=r_max)
    below = np.nextafter(MIN_EPS, 0.0)
    for eps in (below, 0.0, 1e-300, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="MIN_EPS"):
            invert_hypersingular(F, eps=eps)
    for eps, r_max in ((True, 4.0), (np.True_, 4.0), (None, True), ("0.1", 4.0), (None, "4")):
        with pytest.raises(ValueError, match="real number"):
            invert_hypersingular(F, eps=eps, r_max=r_max)
    # r_max near the largest float makes radii or weights that are not finite
    with pytest.raises(ValueError, match="overflows"):
        invert_hypersingular(F, r_max=1.7e308)
    phantom3 = make_phantom(
        Phantom(kind="bump", center=(0.0, 0.0, 0.3, 0.95), width=0.7), GridSpec(3, 8, 12, 16)
    )
    F3 = vslice_forward(phantom3)
    with pytest.raises(ValueError):
        invert_hypersingular(F3)


def test_zero_data_gives_zero(round2):
    _, F = round2
    zero = type(F)(F.grid, np.zeros_like(F.smooth), F.boundary_exponent)
    rec = invert_hypersingular(zero)
    assert np.max(np.abs(rec.smooth)) < 1e-14


def test_round_trip_bump(round2):
    phantom, F = round2
    rec = invert_hypersingular(F)
    report = compare(phantom, rec, method="hs")
    assert report.rel_l2_after_scale < 0.03
    assert report.rel_l2 < 0.05
    assert abs(report.best_fit_scalar - 1.0) < 0.05


def test_eps_halving_is_stable(round2):
    _, F = round2
    a = invert_hypersingular(F, eps=DEFAULT_EPS)
    b = invert_hypersingular(F, eps=DEFAULT_EPS / 2.0)
    na = inner_product_sphere(a, a)
    diff = na + inner_product_sphere(b, b) - 2.0 * inner_product_sphere(a, b)
    assert np.sqrt(max(diff, 0.0) / na) < 5e-3


def test_uncorrected_tail_halves_with_r_max(round2):
    phantom, F = round2
    err = []
    for r_max in (4.0, 8.0, 16.0):
        rec = invert_hypersingular(F, r_max=r_max, tail_correction=False)
        err.append(compare(phantom, rec).rel_l2_after_scale)
    assert err[0] > err[1] > err[2]
    assert 1.5 < err[0] / err[1] < 3.0
    assert 1.5 < err[1] / err[2] < 3.0
    corrected = compare(phantom, invert_hypersingular(F)).rel_l2_after_scale
    assert corrected < 0.2 * err[0]


def test_matches_john_inversion(round2):
    _, F = round2
    rec_hs = invert_hypersingular(F)
    rec_john = invert_john(F)
    cross = compare(rec_john, rec_hs, method="cross")
    assert cross.rel_l2_after_scale < 0.03


def test_matches_spatial_annulus_sum(round2):
    # the annulus sum written out in space at a few chart nodes: the spline
    # backprojection of the plane data and its mean over 512 offset
    # directions at every radius of the same panels, the first panel doubled
    # by the extrapolation, the closed-form tail and the constant
    _, F = round2
    grid = F.grid
    plane = SliceData(grid, F.smooth, F.boundary_exponent - 0.5)
    rng = np.random.default_rng(6)
    idx = rng.choice(grid.n_ang_total * grid.spec.n_radial, 6, replace=False)
    x = grid.ball_points.reshape(-1, 2)[idx]
    eps, r_max = DEFAULT_EPS, 4.0
    bounds = [eps]
    while bounds[-1] < r_max:
        bounds.append(min(2.0 * bounds[-1], r_max))
    xg, wg = roots_legendre(PANEL_NODES)
    om = 2.0 * np.pi * (np.arange(512) + 0.5) / 512
    dirs = np.stack([np.cos(om), np.sin(om)], axis=-1)
    g0 = dual_radon(plane, x)
    total = (2.0 * np.pi / r_max) * g0
    for j, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        rho = 0.5 * (b - a) * xg + 0.5 * (a + b)
        means = dual_radon(plane, x[:, None, None, :] - rho[None, :, None, None] * dirs)
        panel = 2.0 * np.pi * ((g0[:, None] - means.mean(axis=2)) @ (0.5 * (b - a) * wg / rho**2))
        total += 2.0 * panel if j == 0 else panel
    want = method_constants(2).hs_constant * total

    rec = invert_hypersingular(F).smooth
    got = rec.reshape(-1)[idx]
    assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(rec))


def test_j0_matches_scipy():
    # over every rho sigma the annulus kernel forms (rho < FAR_RADIUS, sigma up
    # to the Nyquist frequency pi / STEP), densely on both sides of the switch
    # from the trapezoid to the Hankel series
    j0 = pytest.importorskip("scipy.special").j0
    top = FAR_RADIUS * np.pi / STEP
    x = np.concatenate([
        np.linspace(0.0, top, 400_001),
        np.linspace(J0_SPLIT - 1.0, J0_SPLIT + 1.0, 20_001),
        [J0_SPLIT, np.nextafter(J0_SPLIT, 0.0)],
    ])
    assert np.max(np.abs(_j0(x) - j0(x))) <= 1e-15
    assert np.array_equal(_j0(-x), _j0(x))


def test_fft_length_is_scipys():
    # the period is the 5-smooth length scipy's next_fast_len(real=True)
    # picked, so the kernel's offsets did not move when scipy left the route
    next_fast_len = pytest.importorskip("scipy.fft").next_fast_len
    assert _next_smooth(12_289) == 12_500
    for count in range(1, 20_000, 37):
        assert _next_smooth(count) == next_fast_len(count, real=True)


def test_annulus_kernel_owned_j0_matches_scipys(monkeypatch):
    # the default-grid kernel with scipy's J0 in place of the owned one
    j0 = pytest.importorskip("scipy.special").j0
    grid = make_grid(default_spec(2))
    K = _annulus_kernel(grid, DEFAULT_EPS, 4.0, True)
    monkeypatch.setattr(invert_hs, "_j0", j0)
    ref = _annulus_kernel.__wrapped__(grid, DEFAULT_EPS, 4.0, True)
    assert np.max(np.abs(K - ref)) <= 1e-13 * np.max(np.abs(ref))


LIMIT_RUN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (%d, %d))
sys.path.insert(0, %r)
import numpy as np
from vslice.grid import SliceData, default_spec, make_grid
from vslice.invert_hs import MIN_EPS, invert_hypersingular
g = make_grid(default_spec(2))
F = SliceData(g, np.ones((g.n_ang_total, g.spec.n_t)), 0.5)
for eps, r_max in ((MIN_EPS, 4.0), (None, 1e100)):
    assert np.all(np.isfinite(invert_hypersingular(F, eps=eps, r_max=r_max).values))
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_annulus_kernel_memory_at_the_limits():
    # the least eps (MIN_EPS, 326 radii below FAR_RADIUS) and a huge r_max
    # (2 654 above it) on the default grid, each kernel's sums built over
    # blocks of radii: the process peaks near 131 MB, against 106 MB at the
    # default eps.  Built in one piece, the sums' temporaries grow with the
    # number of panels, so the child runs under an address-space cap and a
    # regression fails here instead of exhausting the machine.  One BLAS
    # thread keeps the reserved address space small.
    cap = 768 << 20
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, "-c", LIMIT_RUN % (cap, cap, os.path.join(root, "src"))],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    assert int(out.stdout) <= 200 * 1024
