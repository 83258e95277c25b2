import math

import numpy as np
import pytest
from numpy.polynomial import Polynomial
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.special import eval_chebyu

from vslice import (
    Grid,
    GridSpec,
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
from vslice import grid, invert_hs, xform
from vslice.acceptance import BUMP_N2, BUMP_N3, HALF_N2, HALF_N3, MARGIN_N2, MARGIN_N3
from vslice.grid import _jacobi_rule
from vslice.harness import make_phantom
from vslice.invert_hs import _annulus_kernel
from vslice.specfun import sphere_area
from vslice.xform import (
    _QUADRATURE_POINTS,
    _ball_rule,
    _filter_kernel,
    _forward_kernel,
    _frames,
    _funk_hecke_rule,
    _legendre_table,
    _log_filter_matrix,
    _log_moment_matrix,
    _meets_support,
    _node_spline,
    _plane_filter_matrix,
    _slice_quadrature,
    _spline,
)


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


def test_forward_evenness(g2, g3, bump2, bump3):
    # one direction per antipodal pair is integrated and its partner gets the
    # reversed profile, so F(-theta, -t) = F(theta, t) holds bitwise
    for f in (bump2, bump3):
        F = vslice_forward(f)
        assert np.array_equal(F.values[f.grid.antipodal_index][:, ::-1], F.values)


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
    # Vf (1-t^2)^((1-n)/2) / sigma_{n-1} with V = 2 V_+ from the forward map
    # nodes inside the bump's support, on both sides of the antipodal fill
    cases = ((bump2, ((28, 79), (76, 81), (204, 69))), (bump3, ((244, 12), (102, 20), (409, 12))))
    for f, nodes in cases:
        g = f.grid
        n = g.spec.n
        F = vslice_forward(f)
        for a, j in nodes:
            t = g.t[j]
            want = 2.0 * F.values[a, j] / (sphere_area(n) * (1 - t * t) ** ((n - 1) / 2))
            assert spherical_mean(f, g.ang[a], t) == pytest.approx(want, rel=1e-14, abs=1e-14)


def test_spherical_mean_requires_evaluator(g2, bump2):
    with pytest.raises(ValueError, match="evaluator"):
        spherical_mean(SphereFunction(g2, bump2.smooth), (1.0, 0.0), 0.2)
    with pytest.raises(TypeError):
        spherical_mean(lift(bump2), (1.0, 0.0), 0.2)
    for theta in ((0.0, 0.0), (np.nan, 1.0), (np.inf, 0.0), (1.0, 0.0, 0.0), (1.0,)):
        with pytest.raises(ValueError, match="theta"):
            spherical_mean(bump2, theta, 0.2)


def test_slice_quadrature_chunks(bump2, bump3):
    # direction chunks of at most _QUADRATURE_POINTS points agree with one
    # evaluator call per offset over every direction, and see every point once
    rng = np.random.default_rng(3)
    for f in (bump2, bump3):
        n = f.spec.n
        Y, W = _ball_rule(n, f.boundary_exponent)
        step = _QUADRATURE_POINTS // Y.shape[0]
        t = f.grid.t[::4]
        sizes = []

        def counted(pts, _ev=f.evaluator):
            sizes.append(np.size(pts) // n)
            return _ev(pts)

        g = SphereFunction(f.grid, f.smooth, f.boundary_exponent, counted)
        for count in (1, step - 1, step, step + 1, 3 * step + 2):
            theta = rng.standard_normal((count, n))
            theta /= np.linalg.norm(theta, axis=1)[:, None]
            if n == 2:
                E = np.stack([-theta[:, 1], theta[:, 0]], axis=-1)[:, None, :]
            else:
                E = np.stack(_frames(theta), axis=1)
            offsets = Y @ E
            want = np.stack(
                [
                    (f.evaluator(tj * theta[:, None, :] + math.sqrt(1.0 - tj * tj) * offsets) * W)
                    .sum(axis=-1)
                    for tj in t
                ],
                axis=1,
            )
            sizes.clear()
            got = _slice_quadrature(g, theta, t)
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
            assert max(sizes) <= _QUADRATURE_POINTS
            assert sum(sizes) == count * Y.shape[0] * t.size


def _capless(f):
    """f with its evaluator behind a plain lambda, which carries no cap."""
    ev = f.evaluator
    return SphereFunction(f.grid, f.smooth, f.boundary_exponent, lambda p: ev(p))


def _counted(f, sizes):
    """f with an evaluator that appends the point count of every call to
    `sizes` and names f's own as `__wrapped__`, so the cap stays visible."""
    ev = f.evaluator

    def counted(p):
        sizes.append(np.size(p) // f.spec.n)
        return ev(p)

    counted.__wrapped__ = ev
    return SphereFunction(f.grid, f.smooth, f.boundary_exponent, counted)


@pytest.mark.parametrize("ph, spec", [
    (BUMP_N2, HALF_N2), (BUMP_N3, HALF_N3), (MARGIN_N2, HALF_N2), (MARGIN_N3, HALF_N3),
    (BUMP_N2, default_spec(2)),
], ids=["bump2-half", "bump3-half", "margin2-half", "margin3-half", "bump2-default"])
def test_cap_skip_is_bitwise(ph, spec):
    # skipping the slices outside the bump's caps leaves the forward bitwise
    # equal to the full slice loop of a cap-less evaluator
    f = make_phantom(ph, spec)
    assert np.array_equal(vslice_forward(f).values, vslice_forward(_capless(f)).values)


@pytest.mark.parametrize("ph, spec", [(BUMP_N2, HALF_N2), (BUMP_N3, HALF_N3)], ids=["n2", "n3"])
def test_cap_edge_slices(ph, spec):
    # at 1e-12 from the offsets t = cos(phi -+ width), cos(phi) = theta . c', of
    # the slices tangent to the cap, the skip path equals the full loop
    f = make_phantom(ph, spec)
    full = _capless(f)
    c = np.asarray(ph.center) / np.linalg.norm(ph.center)
    kept = []
    for theta in f.grid.ang[::29]:
        phi = math.acos(theta @ c[:-1])
        t = np.array([math.cos(phi + s * ph.width) + d
                      for s in (-1.0, 1.0) for d in (-1e-12, 1e-12)])
        t = t[np.abs(t) < 1.0]
        theta = theta[None, :]
        kept.extend(_meets_support(f.evaluator, theta, t).ravel())
        assert np.array_equal(_slice_quadrature(f, theta, t), _slice_quadrature(full, theta, t))
    assert any(kept) and not all(kept)


def test_spherical_mean_skips_a_miss():
    # a slice that misses the cap is exactly 0 and costs no evaluator call
    f = make_phantom(BUMP_N2, HALF_N2)
    c = np.asarray(BUMP_N2.center) / np.linalg.norm(BUMP_N2.center)
    theta = f.grid.ang[5]
    phi = math.acos(theta @ c[:-1])
    sizes = []
    g = _counted(f, sizes)
    miss = spherical_mean(g, theta, math.cos(phi + BUMP_N2.width + 0.1))
    assert miss == 0.0 and math.copysign(1.0, miss) == 1.0
    assert sizes == []
    assert spherical_mean(g, theta, math.cos(phi)) > 0.0
    assert sizes != []


def test_cap_skip_counts_points():
    # the evaluator sees 1536 points per slice that meets the cap and none
    # elsewhere, at most _QUADRATURE_POINTS per call; multiples and sums of
    # the bump carry no cap, so they take the full loop
    f = make_phantom(BUMP_N3, HALF_N3)
    grid = f.grid
    Y, _ = _ball_rule(3, f.boundary_exponent)
    assert Y.shape[0] == 1536
    sel = np.arange(grid.n_ang_total) < grid.antipodal_index
    c = np.asarray(BUMP_N3.center) / np.linalg.norm(BUMP_N3.center)
    gap = np.abs(np.arccos(grid.t)[None, :] - np.arccos(grid.ang[sel] @ c[:-1])[:, None])
    meets = gap < BUMP_N3.width
    assert 0 < meets.sum() < meets.size
    sizes = []
    g = _counted(f, sizes)
    F = vslice_forward(g).values
    assert sum(sizes) == Y.shape[0] * meets.sum()
    assert max(sizes) <= _QUADRATURE_POINTS
    for h, calls in ((2.0 * g, 1), (g + g, 2)):
        sizes.clear()
        H = vslice_forward(h).values
        assert sum(sizes) == calls * Y.shape[0] * meets.size
        assert max(sizes) <= _QUADRATURE_POINTS
        assert np.max(np.abs(H - 2.0 * F)) <= 1e-15 * np.max(np.abs(F))
        # the full loop finds nothing on the skipped slices
        assert not np.any(H[sel][~meets])


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
    for get in grid_memos:
        assert get() is get()
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
        *_jacobi_rule(8, 0.5, 0.5),
        *_jacobi_rule(8, 0.0, 0.0),
        _legendre_table(small3),
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
    # make_grid's grids are covered by their arrays in grid_arrays
    covered = {
        make_grid, _jacobi_rule, _legendre_table, _funk_hecke_rule, _filter_kernel,
        _forward_kernel, _annulus_kernel, Grid.radial_weights, Grid.t_weights,
    }
    caches = {
        f
        for m in (grid, xform, invert_hs, Grid)
        for f in vars(m).values()
        if hasattr(f, "cache_info")
    }
    assert caches <= covered, sorted(f.__name__ for f in caches - covered)


def test_log_kernel_identity():
    assert abs(log_kernel_identity() + math.log(2.0)) < 1e-6
    coarse = abs(log_kernel_identity(1024) + math.log(2.0))
    assert 1e-5 < coarse < 1e-3
