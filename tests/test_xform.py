import importlib
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from numpy.polynomial import Polynomial
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.special import eval_chebyu

from vslice import (
    Grid,
    GridSpec,
    Phantom,
    SliceData,
    SphereFunction,
    SvdIndex,
    default_spec,
    dual_radon,
    inner_product_ball,
    is_even_slice_data,
    lift,
    log_kernel_identity,
    make_grid,
    norm_slices,
    spherical_mean,
    svd_constants,
    vslice_direct,
    vslice_forward,
)
from vslice import grid, invert_hs, invert_svd, specfun, xform
from vslice.acceptance import BUMP_N2, BUMP_N3, HALF_N2, HALF_N3, MARGIN_N2, MARGIN_N3
from vslice.grid import _jacobi_rule
from vslice.harness import _bump_evaluator, make_phantom
from vslice.invert_hs import _annulus_kernel
from vslice.invert_svd import _columns, _grid_profiles, _index_set, _singular_values
from vslice.specfun import _svd_constants, sphere_area
from vslice.xform import (
    _EVALUATOR_POINTS,
    FINE_CHART,
    _analysis_table,
    _filter_kernel,
    _fine_grid,
    _forward_kernel,
    _funk_hecke_rule,
    _legendre_table,
    _log_filter_matrix,
    _log_moment_matrix,
    _meets_support,
    _node_spline,
    _plane_filter_matrix,
    _spline,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cap_profile(dot, width):
    # C-infinity cap: exp(1 - 1/(1 - (d/width)^2)) of geodesic distance d
    d = np.arccos(np.clip(dot, -1.0, 1.0))
    s = d / width
    out = np.zeros_like(s)
    inside = s < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
    return out


def make_bump(center, width=0.7):
    """Evenized smooth cap evaluator on chart points (..., n)."""
    c = np.asarray(center, dtype=float)
    c = c / np.linalg.norm(c)

    def ev(pts):
        pts = np.asarray(pts, dtype=float)
        x_last = np.sqrt(np.clip(1.0 - (pts**2).sum(axis=-1), 0.0, None))
        dot = pts @ c[:-1]
        up = dot + x_last * c[-1]
        dn = dot - x_last * c[-1]
        return _cap_profile(up, width) + _cap_profile(dn, width)

    return ev


@pytest.fixture(scope="module")
def g2():
    return make_grid(default_spec(2))


@pytest.fixture(scope="module")
def g3():
    return make_grid(GridSpec(3, 16, 32, 32))


@pytest.fixture(scope="module")
def bump2(g2):
    ev = make_bump((0.3, 0.25, 0.92))
    return SphereFunction.from_function(g2, ev)


@pytest.fixture(scope="module")
def bump3(g3):
    ev = make_bump((0.3, 0.2, 0.15, 0.9))
    return SphereFunction.from_function(g3, ev)


# -- vslice_direct -------------------------------------------------------------


def test_direct_constant_half_circle(g2):
    one = SphereFunction(g2, np.ones((g2.n_ang_total, 96)), 0.0, lambda p: np.ones(np.asarray(p).shape[:-1]))
    for t in (-0.8, -0.3, 0.0, 0.55, 0.95):
        assert vslice_direct(one, (1.0, 0.0), t) == pytest.approx(
            math.pi * math.sqrt(1 - t * t), abs=1e-13
        )


def test_direct_zero(g2):
    zero = SphereFunction(g2, np.zeros((g2.n_ang_total, 96)), 0.0, lambda p: np.zeros(np.asarray(p).shape[:-1]))
    assert vslice_direct(zero, (0.0, 1.0), 0.4) == 0.0


def test_direct_abs_x3_equator_slice(g2):
    # f = |x_3| on S^2, slice through the pole plane: int_0^pi sin = 2
    f = SphereFunction(
        g2, np.ones((g2.n_ang_total, 96)), 0.5, lambda p: np.ones(np.asarray(p).shape[:-1])
    )
    assert vslice_direct(f, (0.0, 1.0), 0.0, chord_nodes=4000) == pytest.approx(2.0, abs=1e-6)


def test_direct_requires_evaluator_and_interior_t(g2, bump2):
    sampled = SphereFunction(g2, bump2.smooth, 0.0)
    with pytest.raises(ValueError):
        vslice_direct(sampled, (1.0, 0.0), 0.2)
    with pytest.raises(ValueError):
        vslice_direct(bump2, (1.0, 0.0), 1.0)
    for theta in ((0.0, 0.0), (np.nan, 1.0), (np.inf, 0.0), (1.0, 0.0, 0.0), (1.0,)):
        with pytest.raises(ValueError, match="theta"):
            vslice_direct(bump2, theta, 0.2)
    with pytest.raises(ValueError, match="chord_nodes"):
        vslice_direct(bump2, (1.0, 0.0), 0.2, chord_nodes=0)
    # an array is rejected if any of its directions or offsets would be
    with pytest.raises(ValueError, match="t"):
        vslice_direct(bump2, (1.0, 0.0), [0.2, -1.0])
    with pytest.raises(ValueError, match="theta"):
        vslice_direct(bump2, [(1.0, 0.0), (0.0, 0.0)], 0.2)
    with pytest.raises(ValueError):
        vslice_direct(bump2, np.ones((3, 2)), np.zeros(2))


@pytest.mark.parametrize("n", [2, 3])
def test_direct_chord_nodes_must_be_counts(n, bump2, bump3):
    # n = 2 used to take a float or bool as a node count: on acceptance's
    # BUMP_N2 at theta = (0.6, 0.8), t = 0.3, 2.5 gave 0.975 and True 1.39
    # against 0.585
    f, theta = (bump2, (0.6, 0.8)) if n == 2 else (bump3, (0.6, 0.8, 0.0))
    for count in (2.5, True, 0, -4, 64.0):
        with pytest.raises(ValueError, match="chord_nodes"):
            vslice_direct(f, theta, 0.3, chord_nodes=count)
    assert vslice_direct(f, theta, 0.3, chord_nodes=np.int64(64)) == vslice_direct(
        f, theta, 0.3, chord_nodes=64
    )


@pytest.mark.parametrize("n", [2, 3])
def test_direct_array_matches_scalar_calls(n, bump2, bump3):
    # one call over a (direction, offset) table, evaluated in chunks of
    # slices, gives the scalar calls' values; t broadcasts against the
    # directions, and one slice gives a float
    f = bump2 if n == 2 else bump3
    g = f.grid
    rng = np.random.default_rng(4)
    theta = g.ang[rng.choice(g.n_ang_total, 24 if n == 2 else 6, replace=False)]
    t = g.t[::3]
    assert theta.shape[0] * t.size * (256 if n == 2 else 96 * 192) > 2 * _EVALUATOR_POINTS
    got = vslice_direct(f, theta[:, None, :], t)
    want = np.array([[vslice_direct(f, th, tj) for tj in t] for th in theta])
    assert got.shape == want.shape and np.max(np.abs(want)) > 0.0
    tol = 1e-15 * np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= tol
    assert isinstance(vslice_direct(f, theta[0], t[0]), float)
    assert np.max(np.abs(vslice_direct(f, theta[0], t) - want[0])) <= tol
    assert np.max(np.abs(vslice_direct(f, theta, t[2]) - want[:, 2])) <= tol


def test_direct_constant_n3(g3):
    one = SphereFunction(
        g3, np.ones((g3.n_ang_total, 32)), 0.0, lambda p: np.ones(np.asarray(p).shape[:-1])
    )
    # hemisphere slice of S^3 is a half 2-sphere of radius r: area 2 pi r^2
    for t in (-0.5, 0.0, 0.7):
        assert vslice_direct(one, (0.0, 0.0, 1.0), t) == pytest.approx(
            2 * math.pi * (1 - t * t), rel=1e-12
        )


# -- vslice_forward ------------------------------------------------------------


def test_forward_constant_closed_form(g2):
    one = SphereFunction(
        g2, np.ones((g2.n_ang_total, 96)), 0.0, lambda p: np.ones(np.asarray(p).shape[:-1])
    )
    F = vslice_forward(one)
    want = math.pi * np.sqrt(1 - g2.t**2)
    assert np.max(np.abs(F.values - want[None, :])) < 1e-12
    assert F.boundary_exponent == 0.5


def test_forward_constant_closed_form_n3(g3):
    # the half slice of S^3 is a half 2-sphere of radius sqrt(1-t^2)
    one = SphereFunction.from_function(g3, lambda p: np.ones(np.asarray(p).shape[:-1]))
    F = vslice_forward(one)
    want = 2.0 * math.pi * (1 - g3.t**2)
    assert np.max(np.abs(F.values - want[None, :])) < 1e-14 * 2.0 * math.pi
    assert F.boundary_exponent == 1.0


def test_forward_zero_and_type(g2):
    zero = SphereFunction(g2, np.zeros((g2.n_ang_total, 96)))
    assert np.all(vslice_forward(zero).values == 0.0)
    with pytest.raises(TypeError):
        vslice_forward(np.zeros(3))


def test_forward_equivalence_n2(g2, bump2):
    F = vslice_forward(bump2)
    scale = np.max(np.abs(F.values))
    worst = 0.0
    for a in range(0, g2.n_ang_total, 16):
        for j in range(0, 128, 8):
            d = vslice_direct(bump2, g2.ang[a], g2.t[j])
            worst = max(worst, abs(d - F.values[a, j]))
    assert worst <= 1e-6 * scale


def test_forward_equivalence_n3(g3, bump3):
    F = vslice_forward(bump3)
    scale = np.max(np.abs(F.values))
    worst = 0.0
    for a in range(0, g3.n_ang_total, 97):
        for j in range(0, 32, 5):
            d = vslice_direct(bump3, g3.ang[a], g3.t[j])
            worst = max(worst, abs(d - F.values[a, j]))
    assert worst <= 1e-6 * scale


def test_forward_sampled_matches_evaluator_n2(g2, bump2):
    # The sampled engine only sees the tabulated values, so for a bump its
    # agreement with the evaluator engine is limited by the 256x96 resolution.
    sampled = SphereFunction(g2, bump2.smooth)
    Fs = vslice_forward(sampled)
    Fe = vslice_forward(bump2)
    assert np.max(np.abs(Fs.values - Fe.values)) < 5e-6 * np.max(np.abs(Fe.values))


def test_forward_sampled_exact_bandlimited_n2(g2):
    def ev(p):
        p = np.asarray(p, dtype=float)
        u = p[..., 0] ** 2 + p[..., 1] ** 2
        return 0.2 + p[..., 0] ** 3 * p[..., 1] - 0.7 * p[..., 0] * p[..., 1] + (1.0 - u)

    f = SphereFunction.from_function(g2, ev)
    Fs = vslice_forward(SphereFunction(g2, f.smooth))
    Fe = vslice_forward(f)
    assert np.max(np.abs(Fs.values - Fe.values)) < 1e-12 * np.max(np.abs(Fe.values))


def test_forward_sampled_matches_evaluator_n3(g3):
    # low-band polynomial profile: exact in both engines
    def ev(p):
        p = np.asarray(p, dtype=float)
        return 0.3 + p[..., 0] ** 2 - 0.5 * p[..., 1] * p[..., 2]

    f = SphereFunction.from_function(g3, ev)
    Fs = vslice_forward(SphereFunction(g3, f.smooth))
    Fe = vslice_forward(f)
    assert np.max(np.abs(Fs.values - Fe.values)) < 1e-10


# odd n_t; on the last two, the t = 0 values synthesised at a direction and at
# its antipode differ in the last bits
ODD_T = [
    GridSpec(2, 64, 24, 33), GridSpec(3, 16, 24, 33), GridSpec(3, 16, 24, 31),
    GridSpec(2, 100, 24, 33), GridSpec(3, 10, 12, 11),
]


def _basis(spec):
    """A singular basis function of spec's grid, sampled, with no evaluator."""
    f = make_phantom(Phantom(kind="basis", nu=SvdIndex(2, 2, 1), lam=spec.n / 2.0), spec)
    assert f.evaluator is None
    return f


def test_forward_evenness(g2, g3, bump2, bump3):
    # every direction's t < 0 half is its antipode's t > 0 half reversed, and
    # at t = 0 (odd n_t) each antipodal pair shares one value, so F(-theta, -t)
    # = F(theta, t) holds bitwise: with and without an evaluator, on even and
    # odd n_t
    fs = [bump2, bump3, SphereFunction(g2, bump2.smooth), _basis(g2.spec), _basis(g3.spec)]
    for spec in ODD_T:
        bump = make_phantom(BUMP_N2 if spec.n == 2 else BUMP_N3, spec)
        fs += [bump, SphereFunction(bump.grid, bump.smooth), _basis(spec)]
    for f in fs:
        F = vslice_forward(f).values
        assert np.array_equal(F[f.grid.antipodal_index][:, ::-1], F)


@pytest.mark.parametrize("make", [
    lambda: make_phantom(BUMP_N2, default_spec(2)),
    lambda: make_phantom(BUMP_N3, default_spec(3)),
    lambda: _basis(HALF_N2),
], ids=["bump2", "bump3", "basis2"])
def test_forward_matches_full_kernel(make):
    # the forward applies the kernel's t >= 0 rows only and reads t < 0 from
    # the antipode; every row of the kernel at every direction, masked alike,
    # gives the same slices, bitwise at n = 2 and within 1e-15 of the peak at
    # n = 3, where the synthesis at a direction and at its antipode rounds
    # differently
    f = make()
    g, e = f.grid, f.boundary_exponent
    F = vslice_forward(f).smooth
    if f.evaluator is None:
        full = xform._harmonic_apply(g, f.smooth, _forward_kernel(g, e))
    else:
        fine = _fine_grid(g)
        values = xform._sample(f.evaluator, fine)
        full = xform._harmonic_apply(fine, values, _forward_kernel(fine, e)[:, :, :values.shape[1]], g)
        full = np.where(_meets_support(f.evaluator, g.ang, g.t), full, 0.0)
    if g.spec.n == 2:
        assert np.array_equal(F, full)
    else:
        assert np.max(np.abs(F - full)) <= 1e-15 * np.max(np.abs(full))


@pytest.mark.parametrize("L, m", [(96, 64), (96, 32), (96, 2), (48, 48), (8, 16)])
def test_alias_keeps_every_step_th_sample(L, m):
    # one length-m irfft of the aliased modes gives every (2L/m)-th sample of
    # the length-2L irfft of the modes, within rounding; order 0's imaginary
    # part is ignored by both
    rng = np.random.default_rng(L + m)
    modes = rng.normal(size=(L, 3, 4)) + 1j * rng.normal(size=(L, 3, 4))
    want = np.fft.irfft(modes, n=2 * L, axis=0)[::2 * L // m]
    got = np.fft.irfft(xform._alias(modes, m), n=m, axis=0)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_forward_linearity(g2, bump2):
    other = SphereFunction(g2, np.cos(3 * g2.angles)[:, None] * (1 - g2.u)[None, :])
    a, b = 2.0, -3.5
    combo = vslice_forward(a * SphereFunction(g2, bump2.smooth) + b * other)
    sep = a * vslice_forward(SphereFunction(g2, bump2.smooth)).values + b * vslice_forward(other).values
    assert np.max(np.abs(combo.values - sep)) < 1e-12 * np.max(np.abs(sep))


def test_forward_boundedness(g2, bump2):
    # |V_+ f|_{w-tilde} <= s_max |f|_{W-tilde} at lam = n/2, computed norms
    f = SphereFunction(g2, bump2.smooth, 1.0, bump2.evaluator)  # x3^2 * bump
    F = vslice_forward(f)
    s_max = svd_constants(2, 1.0, SvdIndex(0, 1, 0)).s_nu
    lhs = norm_slices(F, "w_tilde", 1.0)
    rhs = s_max * math.sqrt(inner_product_ball(lift(f), lift(f), 1.0))
    assert lhs <= rhs * (1 + 1e-12)


@pytest.fixture(scope="module")
def oracle():
    # the benchmark's own slice quadrature of the ambient phantoms, which
    # shares no code with vslice; imported, never changed
    benchmarks = os.path.join(ROOT, "benchmarks")
    sys.path.insert(0, benchmarks)
    try:
        return importlib.import_module("oracle")
    finally:
        sys.path.remove(benchmarks)


@pytest.mark.parametrize("ph, spec, count", [
    (BUMP_N2, GridSpec(2, 64, 24, 32), None), (BUMP_N2, HALF_N2, None),
    (BUMP_N3, HALF_N3, 300), (BUMP_N3, GridSpec(3, 16, 32, 32), 300),
], ids=["n2-64", "n2-half", "n3-half", "n3-16x32"])
def test_forward_matches_oracle(oracle, ph, spec, count):
    # every node of the n = 2 grids and a seeded sample of the n = 3 ones: the
    # slices that miss the bump's caps are exactly 0, in both, and the others
    # within 1e-7 of the peak
    f = make_phantom(ph, spec)
    g = f.grid
    F = vslice_forward(f).values
    if count is None:
        a, j = np.indices(F.shape).reshape(2, -1)
    else:
        rng = np.random.default_rng(8)
        a, j = rng.integers(0, g.n_ang_total, count), rng.integers(0, spec.n_t, count)
    fn = oracle.bump(ph.center, ph.width, ph.equator_margin)
    want = np.array([oracle.half_slice_integral(fn, g.ang[p], g.t[q]) for p, q in zip(a, j)])
    got = F[a, j]
    off = ~_kept(f)[a, j]
    assert off.any() and not off.all()
    assert np.all(got[off] == 0.0) and np.all(want[off] == 0.0)
    assert np.max(np.abs(got - want)) <= 1e-7 * np.max(np.abs(F))


@pytest.mark.parametrize("ph, spec", [
    (BUMP_N2, GridSpec(2, 96, 24, 32)), (BUMP_N2, GridSpec(2, 512, 200, 16)),
    (BUMP_N3, GridSpec(3, 20, 16, 16)), (BUMP_N3, GridSpec(3, 12, 150, 8)),
], ids=["n2-96", "n2-512", "n3-20", "n3-12"])
def test_fine_grid_floor(ph, spec):
    # the fine chart has at least FINE_CHART angles and radii, the grid's own
    # where they are larger, and the angles rounded up to a multiple of the
    # grid's; on grids whose counts do not divide the floor the forward keeps
    # the right fine directions, evenly, within 1e-7 of vslice_direct
    f = make_phantom(ph, spec)
    g = f.grid
    fine = _fine_grid(g).spec
    angles, radii = FINE_CHART[spec.n]
    step = fine.n_angular // spec.n_angular
    assert fine.n_angular == step * spec.n_angular and (step - 1) * spec.n_angular < angles
    assert fine.n_angular >= angles and fine.n_radial == max(radii, spec.n_radial)
    assert fine.n_t == spec.n_t
    F = vslice_forward(f).values
    assert np.array_equal(F[g.antipodal_index][:, ::-1], F)
    a = slice(None, None, 1 if spec.n == 2 else 29)
    D = vslice_direct(f, g.ang[a, None, :], g.t)
    assert np.max(np.abs(F[a] - D)) <= 1e-7 * np.max(np.abs(F))


MEMORY_RUN = """
import sys
sys.path.insert(0, %r)
import vslice as vs
from vslice.acceptance import BUMP_N3
f = vs.make_phantom(BUMP_N3, vs.default_spec(3))
vs.vslice_forward(f)
vs.vslice_forward(f)
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_forward_memory_bound():
    # the default n = 3 bump forward samples 1.15 M of the 2.65 M fine-chart
    # points, in slabs, transforms only the 93 of 144 radial columns its
    # windows reach and applies only the kernel's t >= 0 rows; its process
    # peaks near 102 MB (107 MB over every t row, 130 MB over every column,
    # 165 MB over the whole chart in chunks, 277 MB in one evaluator call over
    # every point).  The peak is VmHWM, in kB: ru_maxrss survives exec on
    # Linux, so a child reports at least the test runner's own
    out = subprocess.run(
        [sys.executable, "-c", MEMORY_RUN % os.path.join(ROOT, "src")],
        capture_output=True, text=True, check=True,
    )
    assert int(out.stdout) <= 200 * 1024


# -- dual_radon ----------------------------------------------------------------


def test_dual_radon_constant(g2):
    # the global C^2 spline couples the zero pad at t = +-1 a little way
    # into the outermost cells, so points near |x'| = 1 see ~1e-9 ripple
    F = SliceData(g2, np.ones((g2.n_ang_total, 128)))
    pts = np.array([[0.0, 0.0], [0.3, -0.4], [0.9, 0.1]])
    out = dual_radon(F, pts)
    assert np.max(np.abs(out - 1.0)) < 1e-8
    assert dual_radon(F, (0.2, 0.1)) == pytest.approx(1.0, abs=1e-12)


def test_dual_radon_reads_current_values(g2):
    # no table is kept on the container, so rebinding its samples is seen
    F = SliceData(g2, np.ones((g2.n_ang_total, 128)))
    assert dual_radon(F, (0.2, 0.1)) == pytest.approx(1.0, abs=1e-12)
    F.smooth = np.zeros_like(F.smooth)
    assert dual_radon(F, (0.2, 0.1)) == 0.0


def test_is_even_slice_data(g2):
    even = SliceData(g2, np.ones((g2.n_ang_total, 128)))
    assert is_even_slice_data(even)
    bumped = even.smooth.copy()
    bumped[3, 5] += 1e-6
    assert not is_even_slice_data(SliceData(g2, bumped))
    assert is_even_slice_data(SliceData(g2, np.zeros_like(bumped)))
    with pytest.raises(TypeError):
        is_even_slice_data(np.ones(4))


def test_dual_radon_moment(g2, g3):
    for g in (g2, g3):
        n = g.spec.n
        F = SliceData(g, np.tile(g.t**2, (g.n_ang_total, 1)))
        rng = np.random.default_rng(7)
        pts = rng.uniform(-0.5, 0.5, size=(10, n))
        want = (pts**2).sum(axis=1) / n
        assert np.max(np.abs(dual_radon(F, pts) - want)) < 2e-4


def test_dual_radon_shape_and_types(g2):
    F = SliceData(g2, np.ones((g2.n_ang_total, 128)))
    with pytest.raises(TypeError):
        dual_radon(np.ones(4), (0.0, 0.0))
    with pytest.raises(ValueError):
        dual_radon(F, (0.0, 0.0, 0.0))
    out = dual_radon(F, np.zeros((2, 3, 2)))
    assert out.shape == (2, 3)


# -- log convolution: the moment matrix behind the n = 2 filter ----------------


def _log_conv_const(s):
    return (1 - s) * np.log1p(-s) + (1 + s) * np.log1p(s) - 2.0


def test_log_convolve_constant_closed_form(g2):
    W = _log_moment_matrix(g2.t, g2.t)
    want = _log_conv_const(g2.t)
    assert np.max(np.abs(W @ np.ones(128) - want)) < 1e-12


def test_log_convolve_zero(g2):
    assert np.all(_log_moment_matrix(g2.t, g2.t) @ np.zeros(128) == 0.0)


def test_log_convolve_even_symmetry(g2):
    L = _log_moment_matrix(g2.t, g2.t) @ np.exp(-3 * g2.t**2)
    assert np.max(np.abs(L - L[::-1])) < 1e-12


def test_log_convolve_against_adaptive_quad(g2):
    prof = np.cos(2.0 * g2.t) * (1 - g2.t**2)
    L = _log_moment_matrix(g2.t, g2.t) @ prof
    fn = lambda t: math.cos(2.0 * t) * (1 - t * t)
    for j in (5, 40, 64, 90, 120):
        s = g2.t[j]
        ref = quad(lambda t: fn(t) * math.log(abs(s - t)), -1, 1, points=[s], limit=300)[0]
        assert L[j] == pytest.approx(ref, abs=5e-4)


# -- spherical means -------------------------------------------------------------


def test_spherical_mean_constant(g2, g3):
    for g in (g2, g3):
        one = SphereFunction.from_function(g, lambda p: np.ones(np.asarray(p).shape[:-1]))
        theta = g.ang[3]
        for t in (-0.6, 0.0, 0.45):
            assert spherical_mean(one, theta, t) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        spherical_mean(one, theta, 1.0)


def test_spherical_mean_matches_forward(bump2, bump3):
    # Vf (1-t^2)^((1-n)/2) / sigma_{n-1} with V = 2 V_+: exactly from
    # vslice_direct, and from the forward map within its equivalence bound
    # (1e-6 of the peak); nodes inside the bump's support, on both sides of
    # the antipodal fill
    cases = ((bump2, ((28, 79), (76, 81), (204, 69))), (bump3, ((244, 12), (102, 20), (409, 12))))
    for f, nodes in cases:
        g = f.grid
        n = g.spec.n
        F = vslice_forward(f)
        for a, j in nodes:
            t = g.t[j]
            scale = 2.0 / (sphere_area(n) * (1 - t * t) ** ((n - 1) / 2))
            mean = spherical_mean(f, g.ang[a], t)
            direct = scale * vslice_direct(f, g.ang[a], t)
            assert mean == pytest.approx(direct, rel=1e-14, abs=1e-14)
            assert abs(mean - scale * F.values[a, j]) <= 1e-6 * scale * np.max(np.abs(F.values))


def test_spherical_mean_requires_evaluator(g2, bump2):
    with pytest.raises(ValueError, match="evaluator"):
        spherical_mean(SphereFunction(g2, bump2.smooth), (1.0, 0.0), 0.2)
    with pytest.raises(TypeError):
        spherical_mean(lift(bump2), (1.0, 0.0), 0.2)
    for theta in ((0.0, 0.0), (np.nan, 1.0), (np.inf, 0.0), (1.0, 0.0, 0.0), (1.0,)):
        with pytest.raises(ValueError, match="theta"):
            spherical_mean(bump2, theta, 0.2)


def _capless(f):
    """f with its evaluator behind a plain lambda, which carries no cap."""
    ev = f.evaluator
    return SphereFunction(f.grid, f.smooth, f.boundary_exponent, lambda p: ev(p))


def _kept(f):
    """Mask of the slices of f's forward that meet its evaluator's support,
    one direction per antipodal pair and the partner's reversed."""
    g = f.grid
    sel = np.arange(g.n_ang_total) < g.antipodal_index
    kept = np.empty((g.n_ang_total, g.spec.n_t), dtype=bool)
    kept[sel] = _meets_support(f.evaluator, g.ang[sel], g.t)
    kept[g.antipodal_index[sel]] = kept[sel][:, ::-1]
    return kept


@pytest.mark.parametrize("ph, spec", [
    (BUMP_N2, HALF_N2), (BUMP_N3, HALF_N3), (MARGIN_N2, HALF_N2), (MARGIN_N3, HALF_N3),
    (BUMP_N2, default_spec(2)),
], ids=["bump2-half", "bump3-half", "margin2-half", "margin3-half", "bump2-default"])
def test_cap_skip_is_bitwise(ph, spec):
    # the slices that miss the bump's caps are exactly +0.0, and every slice
    # that meets them is bitwise the forward of a cap-less evaluator
    f = make_phantom(ph, spec)
    F = vslice_forward(f).values
    kept = _kept(f)
    assert 0 < kept.sum() < kept.size
    assert np.array_equal(F[kept], vslice_forward(_capless(f)).values[kept])
    assert np.all(F[~kept] == 0.0) and not np.any(np.signbit(F[~kept]))


@pytest.mark.parametrize("ph, spec", [(BUMP_N2, HALF_N2), (BUMP_N3, HALF_N3)], ids=["n2", "n3"])
def test_cap_edge_slices(ph, spec):
    # at 1e-12 from the offsets t = cos(phi -+ width), cos(phi) = theta . c', of
    # the slices tangent to the cap, a slice the mask drops has an exactly 0
    # direct quadrature, so the forward loses nothing by zeroing it
    f = make_phantom(ph, spec)
    c = np.asarray(ph.center) / np.linalg.norm(ph.center)
    kept = []
    for theta in f.grid.ang[::29]:
        phi = math.acos(theta @ c[:-1])
        t = np.array([math.cos(phi + s * ph.width) + d
                      for s in (-1.0, 1.0) for d in (-1e-12, 1e-12)])
        t = t[np.abs(t) < 1.0]
        meets = _meets_support(f.evaluator, theta[None, :], t)[0]
        kept.extend(meets)
        assert np.all(vslice_direct(f, theta, t)[~meets] == 0.0)
    assert any(kept) and not all(kept)


def _cap_dots(c, p):
    """x . c and x . (c', -c_{n+1}) of the lifts x of chart points p."""
    xl = np.sqrt(np.maximum(1.0 - (p * p).sum(axis=-1), 0.0))
    a = p @ c[:-1]
    return a + xl * c[-1], a - xl * c[-1]


def _chart_recorder(fine, ev):
    """(counts, sizes, rec): rec(p) checks that every point p passes is a
    fine-chart node, bitwise, adds 1 to its count (direction, radius), records
    the call's size and returns ev(p).  p's rows are directions and its
    columns radii, found by the nearest polar cosine, azimuth and radius
    (n = 3) and then compared exactly."""
    counts = np.zeros((fine.n_ang_total, fine.spec.n_radial), dtype=int)
    sizes = []

    def rec(p):
        k = np.abs(np.linalg.norm(p[0], axis=-1)[:, None] - fine.r).argmin(axis=1)
        x = p[:, 0] / np.linalg.norm(p[:, 0], axis=-1, keepdims=True)
        ring = np.abs(x[:, 2, None] - fine.polar_cos).argmin(axis=1)
        azim = np.rint(np.arctan2(x[:, 1], x[:, 0]) / (2.0 * np.pi / fine.n_azim)).astype(int)
        d = ring * fine.n_azim + azim % fine.n_azim
        assert np.array_equal(p, fine.ang[d, None, :] * fine.r[None, k, None])
        np.add.at(counts, (d[:, None], k[None, :]), 1)
        sizes.append(p.shape[0] * p.shape[1])
        return ev(p)

    return counts, sizes, rec


def test_evaluator_sees_the_fine_chart():
    # the evaluator is asked for fine-chart nodes, bitwise, each at most once,
    # in chunks of at most _EVALUATOR_POINTS points, and for every node whose
    # lift lies in the cap or its reflection.  Multiples and sums of the bump
    # carry no cap: they see the whole chart, once and twice, and give twice
    # the forward, bitwise, on the slices it keeps
    f = make_phantom(BUMP_N3, HALF_N3)
    fine = _fine_grid(f.grid)
    assert (fine.n_polar, fine.spec.n_radial) == FINE_CHART[3]
    assert fine.n_azim % f.grid.n_azim == 0
    ev = f.evaluator
    counts, sizes, seen = _chart_recorder(fine, ev)
    seen.__wrapped__ = ev
    F = vslice_forward(SphereFunction(f.grid, f.smooth, f.boundary_exponent, seen)).values
    assert np.array_equal(F, vslice_forward(f).values)
    assert len(sizes) > 1 and max(sizes) <= _EVALUATOR_POINTS
    c, cos_w = ev.cap
    up, down = (np.multiply.outer(fine.ang @ c[:-1], fine.r) + s * np.sqrt(1.0 - fine.r**2) * c[-1]
                for s in (1.0, -1.0))
    assert counts.max() == 1 and np.all(counts[(up > cos_w) | (down > cos_w)] == 1)
    assert counts.sum() < 0.5 * counts.size
    kept = _kept(f)
    for times in (1, 2):
        counts, sizes, counted = _chart_recorder(fine, ev)
        c = SphereFunction(f.grid, f.smooth, f.boundary_exponent, counted)
        H = vslice_forward(2.0 * c if times == 1 else c + c).values
        assert np.all(counts == times) and max(sizes) <= _EVALUATOR_POINTS
        assert np.array_equal(H[kept], 2.0 * F[kept])


def _rim_indicators(fine, center, width, count):
    """Indicators of a cap and its reflection, each carrying its cap, whose
    cos w is one ulp under the dot, as the indicator computes it, of one of
    the `count` fine-chart nodes nearest the rim cos(width): that node lies
    inside by one ulp, where the windows' trigonometry may round either way."""
    c = np.asarray(center, dtype=float) / np.linalg.norm(center)
    dots = np.maximum(*_cap_dots(c, fine.ang[:, None, :] * fine.r[None, :, None])).ravel()

    def indicator(cos_w):
        def ev(p):
            up, down = _cap_dots(c, p)
            return ((up > cos_w) | (down > cos_w)).astype(float)

        ev.cap = (c, cos_w)
        return ev

    near = dots[np.argsort(np.abs(dots - math.cos(width)))[:count]]
    return [indicator(np.nextafter(v, -np.inf)) for v in near]


@pytest.mark.parametrize("make, spec, top", [
    (lambda fine: [make_phantom(BUMP_N3, HALF_N3).evaluator], HALF_N3, 93),
    (lambda fine: [_bump_evaluator((0.6, -0.3, 0.2, 0.7), 0.5, 0.0, 3)], HALF_N3, 119),
    (lambda fine: [make_phantom(MARGIN_N2, HALF_N2).evaluator], HALF_N2, 132),
    (lambda fine: _rim_indicators(fine, (0.7, 0.5, -0.3), 0.6, 40), HALF_N2, 192),
    (lambda fine: _rim_indicators(fine, (0.2, 0.5, 0.8), 0.04, 40), HALF_N2, None),
], ids=["bump3-pole", "off-pole3", "margin2", "reflected2", "narrow2"])
def test_windowed_sampling_is_whole_chart(make, spec, top):
    # the cap's windows leave out only nodes the evaluator is +0.0 at: the
    # samples are, bitwise, the first `top` radial columns of those of the
    # same evaluator without its cap, which is asked for every node, every
    # later column of which is +0.0, and fewer points are evaluated.  The
    # default n = 3 bump holds the pole, the second does not; the reflected
    # cap (c', -c_{n+1}) holds most of the first indicator's chart support
    # and reaches the rim, so it keeps every column; the last is a few fine
    # nodes wide, and its top varies with the rim node
    fine = _fine_grid(make_grid(spec))
    for ev in make(fine):
        points = []

        def counted(p):
            points.append(p.shape[0] * p.shape[1])
            return ev(p)

        counted.__wrapped__ = ev
        windowed = xform._sample(counted, fine)
        whole = xform._sample(lambda p: ev(p), fine)
        k = windowed.shape[1]
        assert whole.shape == (fine.n_ang_total, fine.spec.n_radial)
        assert k == top if top is not None else k < fine.spec.n_radial
        assert np.array_equal(windowed, whole[:, :k]) and not np.any(np.signbit(windowed))
        assert np.all(whole[:, k:] == 0.0) and not np.any(np.signbit(whole[:, k:]))
        assert np.any(whole) and sum(points) < whole.size


@pytest.mark.parametrize("spec", [default_spec(2), default_spec(3)], ids=["n2", "n3"])
def test_forward_of_a_cap_between_fine_rays(spec):
    # a 1e-4-wide cap centred between two fine rays, off the pole, meets no
    # ray's lift: every window is empty, the evaluator is never asked and
    # the forward is +0.0 at the grid's shape, with no error or warning
    g = make_grid(spec)
    fine = _fine_grid(g)
    if spec.n == 2:
        d = fine.ang[0] + fine.ang[1]
    else:
        ring = fine.n_polar // 2
        d = fine.ang[fine.n_azim * (ring - 1)] + fine.ang[fine.n_azim * ring + 1]
    c = np.append(math.cos(0.5) * d / np.linalg.norm(d), math.sin(0.5))
    ev = _bump_evaluator(c, 1e-4, 0.0, spec.n)
    assert xform._cap_windows(fine, ev.cap)[1].max() == 0

    def never(p):
        raise AssertionError("the evaluator was asked for points")

    never.__wrapped__ = ev
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert xform._sample(never, fine).shape == (fine.n_ang_total, 0)
        F = vslice_forward(SphereFunction.from_function(g, ev)).values
    assert F.shape == (g.n_ang_total, spec.n_t)
    assert np.all(F == 0.0) and not np.any(np.signbit(F))


# -- antipodal fold --------------------------------------------------------------


def _all_directions(F, pts, profile_at):
    """(1/sigma_{n-1}) sum over every direction of profile_at(i, theta_i . x)."""
    g = F.grid
    total = sum(g.ang_weight[i] * profile_at(i, pts @ g.ang[i]) for i in range(g.n_ang_total))
    return total / sphere_area(g.spec.n)


@pytest.mark.parametrize("spec", [GridSpec(2, 64, 16, 32), GridSpec(3, 8, 12, 16)])
def test_dual_radon_fold_exact_on_odd_data(spec):
    # random data have an odd part; folding antipodal pairs must still equal
    # the sum over every direction of the per-direction splines
    g = make_grid(spec)
    rng = np.random.default_rng(11)
    F = SliceData(g, rng.normal(size=(g.n_ang_total, spec.n_t)), 0.5)
    assert not is_even_slice_data(F)
    pts = rng.uniform(-0.9, 0.9, size=(200, spec.n))
    x = np.concatenate(([-1.0], g.t, [1.0]))

    def profile_at(i, s):
        spline = CubicSpline(x, np.concatenate(([0.0], F.values[i], [0.0])), bc_type="natural")
        return np.where(np.abs(s) < 1.0, spline(np.clip(s, -1.0, 1.0)), 0.0)

    want = _all_directions(F, pts, profile_at)
    got = dual_radon(F, pts)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("spec", [default_spec(2), GridSpec(2, 16, 8, 8)])
def test_node_spline_matches_scipy(spec):
    # the owned natural spline against scipy's, a test-only reference: every
    # cardinal function's values, g' and g'' at the knots and at random points,
    # relative to its peak; g'' of a cubic spline is the linear interpolant of
    # its knot values m
    t = make_grid(spec).t
    x, y, m = _node_spline(t)
    ref = CubicSpline(x, y.T, bc_type="natural")
    s = np.concatenate([x, np.random.default_rng(5).uniform(-1.0, 1.0, 400)])
    got = [_spline(x, y, m, s), _spline(x, y, m, s, 1), np.array([np.interp(s, x, r) for r in m])]
    for nu, values in enumerate(got):
        want = ref(s, nu).T
        scale = np.max(np.abs(want), axis=1, keepdims=True)
        assert np.all(np.abs(values - want) <= 1e-13 * scale), nu


# -- the t-filters of the filtered backprojection --------------------------------


def test_log_filter_closed_form():
    # g = sqrt(1-t^2) U_{k-1}: its Hilbert transform is pi T_k, so
    # -d^2/ds^2 int log|s - t| g(t) dt = -pi k U_{k-1}(s) on |s| < 1; the
    # spline through the node values carries the error near the rims
    g = make_grid(GridSpec(2, 16, 8, 128))
    s = np.linspace(-0.9, 0.9, 181)
    M = _log_filter_matrix(g.t, s)
    for k in range(1, 6):
        want = -math.pi * k * eval_chebyu(k - 1, s)
        got = M @ (np.sqrt(1.0 - g.t**2) * eval_chebyu(k - 1, g.t))
        assert np.max(np.abs(got - want)) < 1e-4 * np.max(np.abs(want))


def test_plane_filter_closed_form():
    # polynomial smooth parts are interpolated exactly, and the boundary
    # factor is differentiated analytically
    g = make_grid(GridSpec(3, 8, 8, 32))
    s = np.linspace(-0.95, 0.95, 191)
    # a = 1/2: sqrt(1-t^2) U_{k-1}(t) = sin(k phi) with t = cos(phi)
    M = _plane_filter_matrix(g.t, s, 0.5)
    phi = np.arccos(s)
    sn = np.sin(phi)
    for k in (1, 3, 6):
        second = -k * k * np.sin(k * phi) / sn**2 - k * np.cos(k * phi) * s / sn**3
        got = M @ (np.sqrt(1.0 - g.t**2) * eval_chebyu(k - 1, g.t))
        assert np.max(np.abs(got + second)) < 1e-10 * np.max(np.abs(second))
    # a = 1: the profile is a polynomial
    h = Polynomial([1.0, 2.0, 0.0, -3.0, 1.0]) * Polynomial([1.0, 0.0, -1.0])
    got = _plane_filter_matrix(g.t, s, 1.0) @ h(g.t)
    want = -h.deriv(2)(s)
    assert np.max(np.abs(got - want)) < 1e-10 * np.max(np.abs(want))


def test_cached_arrays_are_read_only():
    # cached rules and kernels are shared by every caller of their cache, and
    # the memoized grids they are keyed on must not change under them
    small2 = make_grid(GridSpec(2, 16, 8, 16))
    small3 = make_grid(GridSpec(3, 8, 12, 16))
    grid_memos = [
        get
        for g in (small2, small3)
        for get in (
            lambda g=g: g.radial_weights(0.0),
            lambda g=g: g.radial_weights(1.5),
            lambda g=g: g.t_weights(-0.5),
            lambda g=g: g.t_weights(1.0),
            lambda g=g: g.ball_points,
            lambda g=g: g.antipodal_index,
        )
    ]
    # the svd route's per-band memos, keyed on the grid, lam and index tuple
    band3 = _index_set(3, 4)
    svd_memos = [
        lambda: _columns(small2, _index_set(2, 3)),
        lambda: _columns(small3, band3),
        lambda: _grid_profiles(small2, 1.0, _index_set(2, 3), False),
        lambda: _grid_profiles(small3, 1.5, band3, True),
        lambda: _singular_values(3, 1.5, band3),
    ]
    for get in grid_memos + svd_memos + [lambda: band3, lambda: _svd_constants(3, 1.5, 2, 1)]:
        assert get() is get()
    assert _index_set(3, 4) is band3
    grid_arrays = [
        getattr(g, name)
        for g, names in (
            (small2, ("angles",)),
            (small3, ("polar_cos", "polar_weight", "azim")),
        )
        for name in names + ("t", "r", "u", "ang", "ang_weight", "_radial_base")
    ]
    cached = [
        *grid_arrays,
        *(get() for get in grid_memos),
        *_columns(small2, _index_set(2, 3)),
        *(get() for get in svd_memos[2:]),
        *_jacobi_rule(8, 0.5, 0.5),
        *_jacobi_rule(8, 0.0, 0.0),
        _legendre_table(small3, small3),
        _legendre_table(_fine_grid(small3), small3),
        _analysis_table(small3),
        *_funk_hecke_rule(small2),
        *_funk_hecke_rule(small3),
        _filter_kernel(small2, None),
        _filter_kernel(small3, 0.5),
        _forward_kernel(small2, 1.0),
        _forward_kernel(small3, 1.0),
        _annulus_kernel(small2, 0.1, 4.0, True),
    ]
    for a in cached:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1.0
    # a new cache in these modules or on Grid must join the lists above;
    # make_grid's grids are covered by their arrays in grid_arrays, and the
    # index tuples and constants hold no arrays
    covered = {
        make_grid, _jacobi_rule, _legendre_table, _analysis_table, _funk_hecke_rule, _filter_kernel,
        _forward_kernel, _annulus_kernel, Grid.radial_weights, Grid.t_weights,
        _columns, _grid_profiles, _singular_values, _index_set, _svd_constants,
    }
    caches = {
        f
        for m in (grid, xform, invert_hs, invert_svd, specfun, Grid)
        for f in vars(m).values()
        if hasattr(f, "cache_info")
    }
    assert caches <= covered, sorted(f.__name__ for f in caches - covered)


def test_log_kernel_identity():
    assert abs(log_kernel_identity() + math.log(2.0)) < 1e-6
    coarse = abs(log_kernel_identity(1024) + math.log(2.0))
    assert 1e-5 < coarse < 1e-3
