import decimal
import json
import math

import numpy as np
import pytest

from vslice.grid import (
    BallFunction,
    GridSpec,
    SliceData,
    SphereFunction,
    default_spec,
    inner_product_ball,
    inner_product_slices,
    inner_product_sphere,
    lift,
    make_grid,
    norm_slices,
    project,
)
from vslice.grid import _jacobi_rule
from vslice.specfun import sphere_area


def beta(a, b):
    return math.gamma(a) * math.gamma(b) / math.gamma(a + b)


@pytest.fixture(params=[2, 3])
def grid(request):
    n = request.param
    spec = GridSpec(n, 16, 20, 24) if n == 2 else GridSpec(3, 8, 16, 20)
    return make_grid(spec)


def test_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(4, 16, 16, 16)
    with pytest.raises(ValueError):
        GridSpec(2, 3, 16, 16)
    with pytest.raises(ValueError, match="even angular"):
        GridSpec(2, 15, 16, 16)
    assert make_grid(GridSpec(3, 7, 16, 16)).n_ang_total == 7 * 14


def test_spec_counts_must_be_integers():
    # a float count used to build a grid with a rounded-up node count that
    # write_vsl could not pack
    for args in ((2, 16, 8, 16.5), (2, 16.0, 8, 16), (2.0, 16, 8, 16), (3, 8, True, 16)):
        with pytest.raises(ValueError, match="integers"):
            GridSpec(*args)
    assert GridSpec(2, np.int64(16), 8, 16).n_angular == 16


def test_spec_roundtrip():
    spec = default_spec(3)
    assert list(spec.to_dict()) == ["n", "n_angular", "n_radial", "n_t"]
    blob = json.dumps(spec.to_dict())
    assert GridSpec.from_dict(json.loads(blob)) == spec
    assert make_grid(spec) is make_grid(GridSpec.from_dict(json.loads(blob)))


def test_angular_weights_sum(grid):
    n = grid.spec.n
    assert abs(np.sum(grid.ang_weight) - sphere_area(n)) < 1e-12
    assert np.max(np.abs(np.linalg.norm(grid.ang, axis=-1) - 1.0)) < 1e-14


def test_ball_volume_and_moments():
    g2 = make_grid(GridSpec(2, 16, 20, 24))
    w = g2.radial_weights()
    assert abs(np.sum(g2.ang_weight) * np.sum(w) - math.pi) < 1e-12
    assert abs(np.sum(g2.ang_weight) * np.sum(w * g2.u) - math.pi / 2) < 1e-12
    g3 = make_grid(GridSpec(3, 8, 16, 20))
    w = g3.radial_weights()
    assert abs(np.sum(g3.ang_weight) * np.sum(w) - 4 * math.pi / 3) < 1e-12
    assert abs(np.sum(g3.ang_weight) * np.sum(w * g3.u) - 4 * math.pi / 5) < 1e-12


def test_radial_weights_exact_vs_beta_moments(grid):
    n = grid.spec.n
    for extra in (-0.5, 0.0, 0.5, 1.0, 2.5):
        w = grid.radial_weights(extra)
        for j in range(12):
            ref = 0.5 * beta(j + n / 2.0, extra + 1.0)
            assert abs(np.sum(w * grid.u**j) - ref) < 1e-12 * max(1.0, abs(ref))


def test_radial_weights_base_consistency(grid):
    assert np.allclose(grid.radial_weights(0.0), grid._radial_base, atol=1e-15)


def test_t_weights_exact_moments(grid):
    for extra in (-0.5, 0.0, 0.5, 1.5):
        w = grid.t_weights(extra)
        for j in range(10):
            ref = beta(j + 0.5, extra + 1.0)
            assert abs(np.sum(w * grid.t ** (2 * j)) - ref) < 1e-12 * max(1.0, abs(ref))
        assert abs(np.sum(w * grid.t**3)) < 1e-13


def _gauss_jacobi_weights_mp(npts, a, b, nodes):
    """Gauss-Jacobi weights at 34 digits, one per node, polished from `nodes`.

    One Newton step on P_npts^(a,b) by its three-term recurrence, then
    w = C / ((1-x^2) P'(x)^2) with C = 2^(a+b+1) G(n+a+1) G(n+b+1) / (G(n+a+b+1) n!)
    from mpmath.  The recurrence runs in decimal arithmetic, which is some
    fifty times faster here than mpmath's pure-Python numbers.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        am, bm = mpmath.mpf(a), mpmath.mpf(b)
        const = (
            2 ** (am + bm + 1) * mpmath.gamma(npts + am + 1) * mpmath.gamma(npts + bm + 1)
            / (mpmath.gamma(npts + am + bm + 1) * mpmath.factorial(npts))
        )
        const = mpmath.nstr(const, 36)
    D = decimal.Decimal
    with decimal.localcontext(prec=34):
        a, b = D(a), D(b)
        # P_j = (A_j x + B_j) P_(j-1) - C_j P_(j-2), j = 1..npts
        coeffs = [((a + b + 2) / 2, (a - b) / 2, D(0))]
        for j in range(2, npts + 1):
            s = 2 * j + a + b
            c1 = 2 * j * (j + a + b) * (s - 2)
            coeffs.append((
                (s - 1) * s * (s - 2) / c1,
                (s - 1) * (a * a - b * b) / c1,
                2 * (j + a - 1) * (j + b - 1) * s / c1,
            ))
        x = np.array([D(float(v)) for v in nodes], dtype=object)
        for newton in (True, False):
            p_prev, p, d_prev, d = 0 * x, 0 * x + 1, 0 * x, 0 * x
            for A, B, C in coeffs:
                f = A * x + B
                p_prev, p, d_prev, d = p, f * p - C * p_prev, d, f * d + A * p - C * d_prev
            if newton:
                x = x - p / d
        return np.array([float(v) for v in D(const) / ((1 - x * x) * d * d)])


@pytest.mark.parametrize("n_polar", [8, 16])
def test_polar_weights_native(n_polar):
    # n = 3 polar cosines are Gauss-Legendre nodes; their weights must be too
    g = make_grid(GridSpec(3, n_polar, 8, 8))
    assert np.array_equal(g.polar_weight, g.polar_weight[::-1])
    ref = _gauss_jacobi_weights_mp(n_polar, 0, 0, g.polar_cos)
    assert np.max(np.abs(g.polar_weight / ref - 1.0)) < 1e-14


# every (count, a, b) the default and half grids use: the polar rules (n = 3),
# the radial rules, the slice rules for the stored exponents e = 0, 1/2, 1
# (a = e - 1/2), the n = 3 Funk-Hecke rule and the hs panels
GRID_RULES = [
    (32, 0.0, 0.0), (16, 0.0, 0.0), (96, 0.0, 0.0), (48, 0.0, 0.5), (24, 0.0, 0.5),
    (160, 0.0, 0.0), (160, 0.5, 0.5), (48, -0.5, 0.0), (48, 0.0, 0.0), (48, 0.5, 0.0),
    (128, 0.0, 0.0), (64, 0.0, 0.0), (8, 0.0, 0.0),
]


@pytest.mark.parametrize("npts, a, b", GRID_RULES)
def test_jacobi_rule_matches_scipy_and_mpmath(npts, a, b):
    # scipy is a test-only reference for the nodes: within 2 ulp of the
    # interval's scale (per-node ulps near 0 are finer than either rule
    # resolves).  The weights are pinned to 34-digit ones; scipy's own are off
    # by up to 5e-11 at these sizes.
    roots_jacobi = pytest.importorskip("scipy.special").roots_jacobi
    x, w = _jacobi_rule(npts, a, b)
    xs, _ = roots_jacobi(npts, a, b)
    assert np.all(np.diff(x) > 0)
    assert np.max(np.abs(x - xs)) <= 2 * np.spacing(1.0)
    ref = _gauss_jacobi_weights_mp(npts, a, b, x)
    assert np.max(np.abs(w / ref - 1.0)) < 1e-12


@pytest.mark.parametrize("npts", [1, 2, 48, 160])
def test_jacobi_rule_chebyshev_closed_form(npts):
    # a = b = -1/2 is Gauss-Chebyshev: weights exactly pi / npts, nodes
    # exactly antisymmetric
    x, w = _jacobi_rule(npts, -0.5, -0.5)
    assert np.array_equal(w, np.full(npts, np.pi / npts))
    assert np.array_equal(x, -x[::-1])
    k = np.arange(npts, 0, -1)
    assert np.max(np.abs(x - np.cos((2 * k - 1) * np.pi / (2 * npts)))) <= 2 * np.spacing(1.0)


def test_jacobi_rule_beta1_closed_form():
    # a + b = -1 makes the general beta_1 0/0; the rule still integrates
    # (1-x)^a (1+x)^b x^k exactly for k < 2 npts
    mpmath = pytest.importorskip("mpmath")
    a, b = -0.7, -0.3
    x, w = _jacobi_rule(5, a, b)
    for k in range(10):
        # x = 2u - 1: 2^(a+b+1) int_0^1 (1-u)^a u^b (2u - 1)^k du, summed at
        # 30 digits since its terms cancel
        with mpmath.workdps(30):
            am, bm = mpmath.mpf(a), mpmath.mpf(b)
            ref = 2 ** (am + bm + 1) * mpmath.fsum(
                math.comb(k, j) * 2**j * (-1) ** (k - j) * mpmath.beta(j + bm + 1, am + 1)
                for j in range(k + 1)
            )
        assert abs(np.sum(w * x**k) - float(ref)) < 1e-14


def test_jacobi_rule_rejections():
    for npts in (2.5, 0, True, -3):
        with pytest.raises(ValueError, match="integer"):
            _jacobi_rule(npts, 0.0, 0.0)
    for a, b in ((-1.0, 0.0), (0.0, -1.0), (-2.0, 0.5)):
        with pytest.raises(ValueError, match="exceed -1"):
            _jacobi_rule(8, a, b)


@pytest.mark.parametrize("n_t", [16, 64])
def test_chebyshev_t_weights_native(n_t):
    # the Gauss-Chebyshev weights are exactly pi / n_t
    g = make_grid(GridSpec(2, 8, 8, n_t))
    assert np.array_equal(g.t_weights(-0.5), np.full(n_t, np.pi / n_t))


def test_weight_domain_errors(grid):
    ones = SliceData(grid, np.ones((grid.n_ang_total, grid.spec.n_t)))
    with pytest.raises(ValueError):
        grid.radial_weights(-1.0)
    with pytest.raises(ValueError):
        grid.t_weights(-1.5)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            grid.radial_weights(bad)
        with pytest.raises(ValueError):
            grid.t_weights(bad)
        with pytest.raises(ValueError, match="lam"):
            inner_product_slices(ones, ones, lam=bad)


def test_nodes_interior(grid):
    assert np.all(grid.t > -1) and np.all(grid.t < 1)
    assert np.all(grid.r > 0) and np.all(grid.r < 1)
    assert np.array_equal(grid.t, -grid.t[::-1])


def test_antipodal_index(grid):
    p = grid.antipodal_index
    assert np.max(np.abs(grid.ang[p] + grid.ang)) < 1e-14
    assert np.array_equal(p[p], np.arange(grid.n_ang_total))
    assert np.allclose(grid.ang_weight[p], grid.ang_weight)


def test_lift_project_exponents(grid):
    ones = SphereFunction(grid, np.ones(BallFunction._shape(grid)))
    phi = lift(ones)
    assert phi.boundary_exponent == -0.5
    assert np.allclose(phi.values, (1 - grid.u[None, :]) ** -0.5)
    # f = |x_{n+1}| lifts to the constant 1
    absx = SphereFunction(grid, np.ones(BallFunction._shape(grid)), boundary_exponent=0.5)
    assert np.allclose(lift(absx).values, 1.0)
    # f = x_{n+1}^2 lifts to sqrt(1 - |x'|^2)
    xsq = SphereFunction(grid, np.ones(BallFunction._shape(grid)), boundary_exponent=1.0)
    assert np.allclose(lift(xsq).values, np.sqrt(1 - grid.u)[None, :])


def test_lift_project_roundtrip(grid):
    rng = np.random.default_rng(0)
    f = SphereFunction(grid, rng.standard_normal(BallFunction._shape(grid)), 0.25)
    g = project(lift(f))
    assert np.array_equal(g.smooth, f.smooth)
    assert g.boundary_exponent == f.boundary_exponent
    phi = BallFunction(grid, rng.standard_normal(BallFunction._shape(grid)), -0.5)
    assert np.array_equal(lift(project(phi)).values, phi.values)


def test_lift_type_guard(grid):
    phi = BallFunction(grid, np.zeros(BallFunction._shape(grid)))
    with pytest.raises(TypeError):
        lift(phi)
    with pytest.raises(TypeError):
        project(project(phi))


def test_inner_product_ball_anchors():
    g = make_grid(GridSpec(2, 32, 24, 16))
    one = BallFunction(g, np.ones(BallFunction._shape(g)))
    assert abs(inner_product_ball(one, one, lam=1.0) - math.pi) < 1e-12
    eta0 = (1.0 / math.sqrt(math.pi)) * one
    assert abs(inner_product_ball(eta0, eta0, lam=1.0) - 1.0) < 1e-12
    g3 = make_grid(GridSpec(3, 8, 16, 16))
    one3 = BallFunction(g3, np.ones(BallFunction._shape(g3)))
    assert abs(inner_product_ball(one3, one3, lam=1.5) - 4 * math.pi / 3) < 1e-12


def test_inner_product_ball_weighted():
    # lam = n/2 - 1/2 puts weight sqrt(1-|x'|^2) in the integral
    g = make_grid(GridSpec(2, 16, 24, 16))
    one = BallFunction(g, np.ones(BallFunction._shape(g)))
    ref = 2 * math.pi * 0.5 * beta(1.0, 1.5)
    assert abs(inner_product_ball(one, one, lam=0.5) - ref) < 1e-12
    # two lifted factors at lam = n/2 pile up (1-|x'|^2)^(-1): not integrable
    sphere_one = SphereFunction(g, np.ones(BallFunction._shape(g)))
    with pytest.raises(ValueError):
        inner_product_ball(lift(sphere_one), lift(sphere_one), lam=1.0)


def test_inner_product_slice_anchors():
    # zeta_0 at n=2, lam=1: d_0 (1-t^2)^(lam-1/2) Y_0 has unit w-norm,
    # and its tilde version (exponent lam) has unit w_tilde-norm
    g = make_grid(GridSpec(2, 32, 16, 20))
    d0 = math.sqrt(2 / math.pi)
    smooth = np.full((g.n_ang_total, g.spec.n_t), d0 / math.sqrt(2 * math.pi))
    zeta0 = SliceData(g, smooth, boundary_exponent=0.5)
    assert abs(inner_product_slices(zeta0, zeta0, "w", lam=1.0) - 1.0) < 1e-12
    ztilde0 = SliceData(g, smooth, boundary_exponent=1.0)
    assert abs(inner_product_slices(ztilde0, ztilde0, "w_tilde", lam=1.0) - 1.0) < 1e-12


def test_inner_product_slices_bilinear(grid):
    rng = np.random.default_rng(1)
    shape = (grid.n_ang_total, grid.spec.n_t)
    A = SliceData(grid, rng.standard_normal(shape), 1.0)
    B = SliceData(grid, rng.standard_normal(shape), 1.0)
    two = SliceData(grid, 2.0 * A.smooth, 1.0)
    assert inner_product_slices(two, B) == 2.0 * inner_product_slices(A, B)


def test_beta_isometry_pointwise(grid):
    # multiplying by sqrt(1-t^2) maps the w-norm onto the w_tilde-norm exactly
    rng = np.random.default_rng(2)
    shape = (grid.n_ang_total, grid.spec.n_t)
    lam = grid.spec.n / 2.0
    Phi = SliceData(grid, rng.standard_normal(shape), 1.0)
    mapped = SliceData(grid, Phi.smooth, 1.5)
    assert norm_slices(mapped, "w_tilde", lam) == norm_slices(Phi, "w", lam)


def test_lift_isometry(grid):
    # || lift(f) ||_{L2(B;W)} equals the weighted hemisphere norm of f
    rng = np.random.default_rng(3)
    n = grid.spec.n
    lam = (n - 1) / 2.0
    f = SphereFunction(grid, rng.standard_normal(BallFunction._shape(grid)))
    phi = lift(f)
    lhs = inner_product_ball(phi, phi, lam)
    # hemisphere surface integral of f^2 * x_{n+1}^(n-2lam-1), done by hand:
    # dsigma = (1-u)^(-1/2) dx' and the weight contributes (1-u)^((n-2lam-1)/2)
    extra = 2 * f.boundary_exponent + (n - 2 * lam - 1) / 2.0 - 0.5
    w = grid.radial_weights(extra)
    rhs = float(np.einsum("a,ai,ai,i->", grid.ang_weight, f.smooth, f.smooth, w))
    assert abs(lhs - rhs) < 1e-12 * abs(rhs)


def test_inner_product_sphere(grid):
    one = SphereFunction(grid, np.ones(BallFunction._shape(grid)))
    assert abs(inner_product_sphere(one, one) - sphere_area(grid.spec.n + 1)) < 1e-10


def test_grid_mismatch_raises():
    a = BallFunction(make_grid(GridSpec(2, 16, 20, 24)), np.ones((16, 20)))
    b = BallFunction(make_grid(GridSpec(2, 16, 16, 24)), np.ones((16, 16)))
    with pytest.raises(ValueError):
        inner_product_ball(a, b)


def test_arithmetic(grid):
    rng = np.random.default_rng(4)
    shape = BallFunction._shape(grid)
    a = BallFunction(grid, rng.standard_normal(shape), 0.5)
    b = BallFunction(grid, rng.standard_normal(shape), 0.5)
    assert np.allclose((a - b).values, a.values - b.values)
    assert (a - b).boundary_exponent == 0.5
    c = BallFunction(grid, rng.standard_normal(shape), 1.0)
    d = a - c  # mixed exponents collapse to plain values
    assert d.boundary_exponent == 0.0
    assert np.allclose(d.values, a.values - c.values)
    assert np.allclose((2.0 * a).values, 2.0 * a.values)
    assert np.allclose((-a).values, -a.values)


def test_from_function_evaluator(grid):
    fn = lambda p: np.sum(p**2, axis=-1)
    phi = BallFunction.from_function(grid, fn, boundary_exponent=0.5)
    assert phi.evaluator is fn
    assert np.allclose(phi.smooth, grid.u[None, :] * np.ones((grid.n_ang_total, 1)))


def test_samples_are_read_only(grid):
    # memoized spline and spectral tables are built from the samples, so
    # the containers freeze them: a copy of a writable input, the array
    # itself when it is already read-only
    own = np.ones(SliceData._shape(grid))
    F = SliceData(grid, own)
    with pytest.raises(ValueError):
        F.smooth *= 2
    own *= 2
    assert own.flags.writeable and np.all(F.smooth == 1.0)
    f = SphereFunction(grid, np.ones(SphereFunction._shape(grid)))
    assert lift(f).smooth is f.smooth


def test_values_finite_guard(grid):
    bad = np.ones(BallFunction._shape(grid))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        BallFunction(grid, bad)
    for exponent in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="exponent"):
            SliceData(grid, np.ones(SliceData._shape(grid)), exponent)
        with pytest.raises(ValueError, match="exponent"):
            SphereFunction(grid, np.ones(SphereFunction._shape(grid)), exponent)


def test_sphere_function_norm_example():
    # f = x_{n+1}^2 on S^2: int f^2 dsigma = 4pi/5
    g = make_grid(GridSpec(2, 16, 20, 16))
    f = SphereFunction(g, np.ones(BallFunction._shape(g)), boundary_exponent=1.0)
    assert abs(inner_product_sphere(f, f) - 4 * math.pi / 5) < 1e-12
