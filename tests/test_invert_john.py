import math
import warnings

import numpy as np
import pytest

from vslice import GridSpec, make_grid, vslice_forward
from vslice.grid import BallFunction, SliceData, project
from vslice.harness import Phantom, compare, make_phantom
from vslice.invert_ac import invert_ac
from vslice.invert_hs import DEFAULT_EPS, _annulus_kernel, invert_hypersingular
from vslice.invert_john import _plane_data, invert_john
from vslice.invert_svd import sphere_basis_grid, svd_index_set
from vslice.specfun import SvdIndex, method_constants, sphere_area
from vslice.xform import (
    _filter_kernel, _funk_hecke_rule, _harmonic_apply, _kernel_offsets, _log_filter_matrix,
    _plane_filter_matrix,
)

SPEC2 = GridSpec(2, 128, 48, 64)
SPEC3 = GridSpec(3, 16, 24, 32)
BUMP2 = Phantom("bump", center=(0.3, 0.25, 0.92), width=0.7, equator_margin=0.25)
BUMP3 = Phantom("bump", center=(0.3, 0.2, 0.15, 0.9), width=0.7, equator_margin=0.25)


@pytest.fixture(scope="module")
def round2():
    f = make_phantom(BUMP2, SPEC2)
    return f, vslice_forward(f)


@pytest.fixture(scope="module")
def round3():
    f = make_phantom(BUMP3, SPEC3)
    return f, vslice_forward(f)


def test_even_zero_and_dispatch():
    g = make_grid(SPEC2)
    F = SliceData(g, np.zeros((g.n_ang_total, g.spec.n_t)), 0.5)
    rec = invert_john(F)
    assert np.max(np.abs(rec.values)) < 1e-14


def test_odd_zero():
    g = make_grid(SPEC3)
    F = SliceData(g, np.zeros((g.n_ang_total, g.spec.n_t)), 1.0)
    rec = invert_john(F)
    assert np.max(np.abs(rec.values)) < 1e-14


def test_dimension_guards(round2):
    # non-finite data is already rejected by the container itself
    with pytest.raises(ValueError, match="finite"):
        SliceData(round2[1].grid, np.full_like(round2[1].smooth, np.nan), 0.5)


def test_even_round_trip(round2):
    f, F = round2
    rec = invert_john(F)
    rep = compare(f, rec, method="john-even")
    # the published constant differs from the true one by -sqrt(pi); the
    # shape must still come back, and the fitted scalar pins the offset
    assert rep.rel_l2_after_scale < 0.02
    assert rep.best_fit_scalar == pytest.approx(-1.0 / math.sqrt(math.pi), rel=0.01)


def test_odd_round_trip(round3):
    f, F = round3
    rec = invert_john(F)
    rep = compare(f, rec, method="john-odd")
    assert rep.rel_l2_after_scale < 0.06
    assert rep.rel_l2 < 0.08
    assert rep.best_fit_scalar == pytest.approx(1.0, abs=0.03)


def test_even_linearity(round2):
    _, F = round2
    g = F.grid
    rng = np.random.default_rng(8)
    G = SliceData(g, F.smooth * rng.uniform(0.5, 1.5, F.smooth.shape), F.boundary_exponent)
    combo = SliceData(g, 2.0 * F.smooth - 3.0 * G.smooth, F.boundary_exponent)
    a = invert_john(combo)
    b1 = invert_john(F)
    b2 = invert_john(G)
    want = 2.0 * b1.smooth - 3.0 * b2.smooth
    scale = np.max(np.abs(want))
    assert np.max(np.abs(a.smooth - want)) < 1e-10 * scale


def test_even_rotational_equivariance(round2):
    # Rotating the sinogram by whole angular steps rotates the reconstruction
    # on the chart nodes, up to rounding.
    _, F = round2
    g = F.grid
    rec = invert_john(F)
    for shift in (g.n_ang_total // 4, 7):
        Frot = SliceData(g, np.roll(F.smooth, shift, axis=0), F.boundary_exponent)
        rec_rot = invert_john(Frot)
        want = np.roll(rec.values, shift, axis=0)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(rec_rot.values - want)) < 1e-10 * scale


def test_even_kernel_equals_direction_sum():
    # the harmonic kernel samples the log filter at the grid's own circle
    # angles, so its mode sum is the trapezoid sum over every direction of
    # the filtered profiles at theta_i . x, up to rounding
    g = make_grid(GridSpec(2, 64, 16, 32))
    rng = np.random.default_rng(12)
    F = SliceData(g, rng.normal(size=(g.n_ang_total, 32)), 0.5)
    plane = SliceData(g, F.smooth, 0.0).values
    pts = g.ball_points
    want = sum(
        g.ang_weight[i]
        * (_log_filter_matrix(g.t, (pts @ g.ang[i]).ravel()) @ plane[i]).reshape(pts.shape[:-1])
        for i in range(g.n_ang_total)
    )
    want *= method_constants(2).c_hat_n / sphere_area(2)
    got = invert_john(F).smooth
    assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))


def test_even_kernel_shared_across_exponents():
    # the n = 2 log filter does not depend on the boundary exponent, so one
    # kernel per grid serves sinograms of every exponent
    g = make_grid(GridSpec(2, 24, 8, 20))
    values = np.random.default_rng(17).normal(size=(g.n_ang_total, g.spec.n_t))
    misses = _filter_kernel.cache_info().misses
    for exponent in (0.5, 1.0):
        invert_john(SliceData(g, values, exponent))
    assert _filter_kernel.cache_info().misses == misses + 1


@pytest.mark.parametrize(
    "spec, invert",
    [
        (GridSpec(2, 64, 16, 32), invert_john),
        (GridSpec(2, 64, 16, 32), invert_hypersingular),
        (GridSpec(3, 8, 12, 16), invert_john),
        (GridSpec(2, 64, 16, 32), invert_ac),
        (GridSpec(3, 8, 12, 16), invert_ac),
        (GridSpec(2, 64, 24, 33), invert_john),
        (GridSpec(2, 64, 24, 33), invert_ac),
        (GridSpec(2, 64, 24, 33), invert_hypersingular),
        (GridSpec(3, 16, 24, 33), invert_john),
        (GridSpec(3, 16, 24, 33), invert_ac),
    ],
)
def test_odd_part_cancels(spec, invert):
    # F(theta, t) - F(-theta, -t) cancels between theta and -theta in every
    # backprojection; the filtered routes fold the data onto t >= 0 first, so
    # it is exactly 0 before any arithmetic, at the t = 0 column of an odd n_t too
    g = make_grid(spec)
    rng = np.random.default_rng(13)
    smooth = rng.normal(size=(g.n_ang_total, spec.n_t))
    odd = 0.5 * (smooth - smooth[g.antipodal_index][:, ::-1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # ac's rim-decay warning on random data
        full = invert(SliceData(g, smooth, 0.5)).smooth
        rec = invert(SliceData(g, odd, 0.5)).smooth
    assert np.max(np.abs(full)) > 0.0
    assert np.all(rec == 0.0)


@pytest.mark.parametrize("spec", [GridSpec(2, 64, 24, 33), GridSpec(3, 16, 24, 33)])
def test_fold_matches_full_kernel(spec):
    # john applies the kernel's columns t >= 0 to the folded data; the
    # full-width kernel built here from the filter, the offsets and the
    # Funk-Hecke rule, made exact under (c, t) -> (-c, -t) like the
    # production one, applied to the unfolded plane data of random non-even
    # slice data must give the same reconstruction
    g = make_grid(spec)
    n, n_t = spec.n, spec.n_t
    F = SliceData(g, np.random.default_rng(29).normal(size=(g.n_ang_total, n_t)), 1.0)
    plane = _plane_data(F)
    s = _kernel_offsets(g)
    if n == 2:
        M = _log_filter_matrix(g.t, s.ravel())
    else:
        M = _plane_filter_matrix(g.t, s.ravel(), plane.boundary_exponent)
    M = M.reshape(s.shape + (n_t,))
    M = 0.5 * (M + M[:, ::-1, ::-1])
    K = np.tensordot(_funk_hecke_rule(g)[1], M, axes=(1, 1))
    k = method_constants(n)
    c = k.c_hat_n if n == 2 else k.c_n
    want = project(BallFunction(g, c * _harmonic_apply(g, plane.values, K))).values
    got = invert_john(F).values
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # the cached kernels hold the columns t >= 0 only
    half = K.shape[:2] + (n_t - n_t // 2,)
    assert _filter_kernel(g, None if n == 2 else plane.boundary_exponent).shape == half
    if n == 2:
        assert _annulus_kernel(g, DEFAULT_EPS, 4.0, True).shape == half


def test_odd_inverts_basis_exactly():
    # john o V = I on every band-6 singular basis function at n = 3: the
    # forward is exact on them, the plane filter is exact on its output, and
    # the harmonic kernel's Gauss-Legendre rule is exact on the degrees the
    # grid resolves
    g = make_grid(SPEC3)
    for nu in svd_index_set(3, 6):
        eta = sphere_basis_grid(nu, 1.5, g)
        rec = invert_john(vslice_forward(eta))
        scale = np.max(np.abs(eta.values))
        assert np.max(np.abs(rec.values - eta.values)) <= 1e-11 * scale, nu


def test_odd_inverts_basis_exactly_at_128_polar_nodes():
    # the harmonic transform's table grows like n_polar^3, so a fine polar
    # grid costs a fraction of a second
    g = make_grid(GridSpec(3, 128, 24, 32))
    for nu in (SvdIndex(5, 7, 2), SvdIndex(20, 41, 1)):
        eta = sphere_basis_grid(nu, 1.5, g)
        rec = invert_john(vslice_forward(eta))
        scale = np.max(np.abs(eta.values))
        assert np.max(np.abs(rec.values - eta.values)) <= 1e-11 * scale, nu


def test_even_convergence_three_levels():
    errs = []
    for spec in (GridSpec(2, 64, 24, 32), GridSpec(2, 128, 48, 64), GridSpec(2, 256, 96, 128)):
        f = make_phantom(BUMP2, spec)
        rec = invert_john(vslice_forward(f))
        errs.append(compare(f, rec).rel_l2_after_scale)
    assert errs[0] > errs[1] > errs[2]


# john o V at n = 3 on three basis functions, relative to the peak, measured
# on GridSpec(3, 16, 24, n_t); the error grows about 10x per doubling of n_t
# (ROADMAP direction 5), and each figure may at most double
BASIS_DRIFT_N3 = {
    (64, SvdIndex(5, 7, 2)): 3.3e-12,
    (64, SvdIndex(3, 2, 1)): 6.3e-12,
    (64, SvdIndex(0, 1, 4)): 2.3e-12,
    (128, SvdIndex(5, 7, 2)): 2.8e-11,
    (128, SvdIndex(3, 2, 1)): 5.1e-11,
    (128, SvdIndex(0, 1, 4)): 2.7e-11,
}


@pytest.mark.parametrize("n_t, nu", list(BASIS_DRIFT_N3))
def test_odd_basis_accuracy_pinned_in_n_t(n_t, nu):
    g = make_grid(GridSpec(3, 16, 24, n_t))
    eta = sphere_basis_grid(nu, 1.5, g)
    rec = invert_john(vslice_forward(eta))
    err = np.max(np.abs(rec.values - eta.values)) / np.max(np.abs(eta.values))
    assert err <= 2.0 * BASIS_DRIFT_N3[n_t, nu], err
