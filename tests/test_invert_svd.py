import math

import numpy as np
import pytest

from vslice import GridSpec, make_grid, vslice_forward
from vslice.grid import (
    SliceData,
    SphereFunction,
    inner_product_ball,
    inner_product_slices,
    lift,
    norm_slices,
)
from vslice.invert_svd import (
    SpectralCoeffs,
    _analysis,
    _columns,
    _eta_smooth_at,
    _grid_profiles,
    _index_set,
    _singular_values,
    _synthesis,
    analyze,
    reconstruct,
    slice_basis_grid,
    slice_singular_function,
    sphere_basis_grid,
    sphere_coefficients,
    sphere_singular_function,
    svd_index_set,
    svd_table,
    synthesize_forward,
    synthesize_sphere,
)
from vslice.specfun import (
    SvdIndex,
    _svd_constants,
    gegenbauer_poly,
    harmonic_dim,
    jacobi_poly,
    sph_harm,
    svd_constants,
)


@pytest.fixture(scope="module")
def g2():
    return make_grid(GridSpec(2, 128, 48, 64))


@pytest.fixture(scope="module")
def g3():
    return make_grid(GridSpec(3, 16, 24, 32))


def test_index_set_counts():
    assert len(svd_index_set(2, 10)) == 66
    assert len(svd_index_set(3, 6)) == 84
    assert svd_index_set(2, 0) == [SvdIndex(0, 1, 0)]
    with pytest.raises(ValueError):
        svd_index_set(2, -1)


def test_index_set_degrees_and_dims():
    for n in (2, 3):
        idx = svd_index_set(n, 7)
        assert len(set(idx)) == len(idx)
        for nu in idx:
            assert nu.m + 2 * nu.k <= 7
            assert 1 <= nu.mu <= harmonic_dim(n, nu.m)


def test_sphere_singular_anchor_pole():
    # index (0,1,0) at n=2, lam=1 is |x3|/sqrt(pi)
    val = sphere_singular_function(SvdIndex(0, 1, 0), 1.0, (0.0, 0.0, 1.0))
    assert val == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-14)
    mid = sphere_singular_function(SvdIndex(0, 1, 0), 1.0, (0.3, 0.4, math.sqrt(0.75)))
    assert mid == pytest.approx(math.sqrt(0.75) / math.sqrt(math.pi), rel=1e-14)


def test_sphere_singular_vanishing_order():
    # |x'|^m factor sends positive-m members to zero on the axis
    val = sphere_singular_function(SvdIndex(2, 1, 0), 1.0, (0.0, 0.0, 1.0))
    assert val == 0.0


def test_slice_singular_anchor():
    # index (0,1,0) at n=2, lam=1 is (1/pi)(1-t^2)
    theta = np.array([1.0, 0.0])
    for t in (0.0, 0.3, -0.77):
        got = slice_singular_function(SvdIndex(0, 1, 0), 1.0, theta, t)
        assert got == pytest.approx((1.0 - t * t) / math.pi, rel=1e-13)


def test_slice_singular_parity(g2):
    rng = np.random.default_rng(5)
    for nu in (SvdIndex(1, 2, 1), SvdIndex(3, 1, 2), SvdIndex(2, 2, 0)):
        th = rng.standard_normal((20, 2))
        th /= np.linalg.norm(th, axis=-1, keepdims=True)
        t = rng.uniform(-0.9, 0.9, 20)
        a = slice_singular_function(nu, 1.0, th, t)
        b = slice_singular_function(nu, 1.0, -th, -t)
        assert np.allclose(a, b, rtol=0, atol=1e-14)


def test_sphere_family_orthonormal_n2(g2):
    lam = 1.0
    idx = svd_index_set(2, 5)
    fams = [lift(sphere_basis_grid(nu, lam, g2)) for nu in idx]
    for i, a in enumerate(fams):
        for j in range(i, len(fams)):
            got = inner_product_ball(a, fams[j], lam)
            want = 1.0 if i == j else 0.0
            assert abs(got - want) < 1e-10


def test_slice_family_orthonormal_n3(g3):
    lam = 1.5
    idx = svd_index_set(3, 4)
    fams = [slice_basis_grid(nu, lam, g3) for nu in idx]
    for i, a in enumerate(fams):
        for j in range(i, len(fams)):
            got = inner_product_slices(a, fams[j], "w_tilde", lam)
            want = 1.0 if i == j else 0.0
            assert abs(got - want) < 1e-10


def test_forward_maps_basis_to_basis(g2):
    # the central oracle at the anchor index: V+ eta~_0 = 2 sqrt(pi) zeta~_0
    lam = 1.0
    nu = SvdIndex(0, 1, 0)
    eta = sphere_basis_grid(nu, lam, g2)
    F = vslice_forward(eta)
    s = svd_constants(2, lam, nu).s_nu
    assert s == pytest.approx(2.0 * math.sqrt(math.pi), rel=1e-13)
    want = s * slice_basis_grid(nu, lam, g2).values
    assert np.max(np.abs(F.values - want)) < 1e-12 * s


@pytest.mark.parametrize(
    "spec, indices",
    [
        (GridSpec(2, 8, 200, 32), [(0, 1, 160), (0, 1, 190)]),
        (GridSpec(3, 4, 120, 32), [(0, 1, 96), (0, 1, 110)]),
        (GridSpec(2, 8, 1200, 32), [(0, 1, 2), (2, 1, 5)]),
        (GridSpec(3, 4, 1200, 32), [(0, 1, 2), (2, 1, 5)]),
    ],
)
def test_singular_relation_past_default_slice_rule(spec, indices):
    # radial degrees past what the evaluator's slice rule integrates exactly
    # (160 chords, 48 disk radii): the sampled forward's rule grows with
    # n_radial, so every index the grid resolves stays exact; at 1200 radial
    # nodes a product of node differences would overflow in the barycentric
    # weights of the radial interpolation, so they are in closed form
    g = make_grid(spec)
    lam = spec.n / 2.0
    for nu in map(SvdIndex._make, indices):
        s = svd_constants(spec.n, lam, nu).s_nu
        F = vslice_forward(sphere_basis_grid(nu, lam, g))
        want = s * slice_basis_grid(nu, lam, g).values
        assert np.max(np.abs(F.values - want)) <= 1e-11 * s


@pytest.mark.parametrize(
    "spec", [GridSpec(2, 16, 4, 8), GridSpec(3, 8, 4, 8), GridSpec(3, 128, 4, 8)]
)
def test_harmonic_layout_matches_sph_harm(spec):
    # each real harmonic, up to the top degree the grid resolves, sits where
    # `_columns` says in the coefficients of the rFFT (plus Legendre) transform
    g = make_grid(spec)
    top = spec.n_angular // 2 - 1 if spec.n == 2 else spec.n_angular - 1
    mus = (lambda m: {1, 2}) if spec.n == 2 else (lambda m: {1, 2, 3, m + m % 2, 2 * m, 2 * m + 1})
    idx = [
        SvdIndex(m, mu, 0)
        for m in sorted({0, 1, 2, top // 2, top - 1, top})
        for mu in sorted(mus(m))
        if 1 <= mu <= harmonic_dim(spec.n, m)
    ]
    Y = np.stack([sph_harm(spec.n, m, mu, g.ang) for m, mu, _ in idx], axis=1)
    one = np.ones(len(idx))
    eye = np.eye(len(idx))
    assert np.max(np.abs(_synthesis(g, idx, one, eye) - Y)) <= 1e-12 * np.max(np.abs(Y))
    assert np.max(np.abs(_analysis(g, Y, idx, eye, one) - 1.0)) <= 1e-12


@pytest.mark.parametrize(
    "spec, lam, indices",
    [
        (GridSpec(2, 16, 8, 16), 1.0, [(0, 1, 0), (3, 2, 2), (6, 1, 1)]),
        (GridSpec(3, 8, 12, 16), 1.5, [(2, 4, 1), (5, 7, 0)]),
    ],
)
def test_singular_relation_on_evaluator_path(spec, lam, indices):
    # basis functions carry no evaluator, so attach one to keep the slice
    # quadrature covered on the singular relation V+ eta_nu = s_nu zeta_nu
    g = make_grid(spec)
    n = spec.n
    for nu in map(SvdIndex._make, indices):
        const = svd_constants(n, lam, nu)

        def ev(pts, nu=nu):
            pts = np.asarray(pts, dtype=float)
            return _eta_smooth_at(nu, lam, n, pts, np.sum(pts * pts, axis=-1))

        eta = sphere_basis_grid(nu, lam, g)
        f = SphereFunction(g, eta.smooth, eta.boundary_exponent, ev)
        s = const.s_nu
        want = s * slice_basis_grid(nu, lam, g).values
        assert np.max(np.abs(vslice_forward(f).values - want)) <= 1e-12 * s


def test_grid_matches_pointwise_sampling(g2):
    nu = SvdIndex(2, 2, 1)
    lam = 1.0
    eta = sphere_basis_grid(nu, lam, g2)
    pts = g2.ball_points
    amb = np.concatenate(
        [pts, np.sqrt(np.maximum(1 - np.sum(pts**2, -1), 0))[..., None]], axis=-1
    )
    direct = sphere_singular_function(nu, lam, amb)
    assert np.allclose(eta.values, direct, atol=1e-13)
    assert eta.evaluator is None  # so vslice_forward takes the spectral path
    zeta = slice_basis_grid(nu, lam, g2)
    direct_z = slice_singular_function(nu, lam, g2.ang[:, None, :], g2.t[None, :])
    assert np.allclose(zeta.values, direct_z, atol=1e-13)


def test_analyze_picks_out_single_mode(g2):
    lam = 1.0
    nu = SvdIndex(1, 1, 1)
    s0 = 0.7
    F = SliceData(g2, s0 * slice_basis_grid(nu, lam, g2).smooth, lam)
    spec = analyze(F, lam, band=6)
    for idx, c in zip(spec.indices, spec.coeffs):
        want = s0 if idx == nu else 0.0
        assert abs(c - want) < 1e-10


def test_analyze_zero_and_band_guard(g2):
    F = SliceData(g2, np.zeros((g2.n_ang_total, g2.spec.n_t)), 1.0)
    spec = analyze(F, 1.0, band=4)
    assert np.all(spec.coeffs == 0.0)
    with pytest.raises(ValueError):
        analyze(F, 1.0, band=-1)
    with pytest.raises(ValueError):
        analyze(F, 1.0, band=g2.spec.n_t)
    with pytest.raises(TypeError):
        analyze(np.zeros(3), 1.0, band=2)


@pytest.mark.parametrize(
    "spec, lam, edge",
    [
        (GridSpec(2, 8, 24, 64), 1.0, SvdIndex(3, 2, 0)),
        (GridSpec(3, 4, 12, 32), 1.5, SvdIndex(3, 7, 0)),
    ],
)
def test_band_guard_follows_angular_grid(spec, lam, edge):
    # the angular quadrature expands exactly up to degree n_angular/2 - 1
    # (n = 2) or n_polar - 1 (n = 3) and aliases past it: on GridSpec(2, 8,
    # 24, 64), band 9 used to reconstruct basis (1, 1, 4) with a 92.5 % error
    g = make_grid(spec)
    band = edge.m
    for spectrum in (
        analyze(slice_basis_grid(edge, lam, g), lam, band),
        sphere_coefficients(sphere_basis_grid(edge, lam, g), lam, band),
    ):
        want = [1.0 if nu == edge else 0.0 for nu in spectrum.indices]
        assert np.max(np.abs(spectrum.coeffs - want)) < 1e-12
    F = vslice_forward(sphere_basis_grid(SvdIndex(1, 1, 4), lam, g))
    f = synthesize_sphere(SpectralCoeffs(lam, [edge], [1.0]), g)
    for call in (
        lambda: analyze(F, lam, band + 1),
        lambda: reconstruct(F, lam, band + 1),
        lambda: reconstruct(F, lam, 9),
        lambda: sphere_coefficients(f, lam, band + 1),
    ):
        with pytest.raises(ValueError, match="angular grid"):
            call()
    beyond = SpectralCoeffs(lam, [SvdIndex(band + 1, 1, 0)], [1.0])
    for synthesize in (synthesize_forward, synthesize_sphere):
        with pytest.raises(ValueError, match="resolves"):
            synthesize(beyond, g)


@pytest.mark.parametrize("spec", [GridSpec(2, 64, 6, 64), GridSpec(3, 12, 6, 32)])
@pytest.mark.parametrize("shift", [0.0, 0.5])
def test_band_guard_follows_radial_grid(spec, shift):
    # off lam = n/2 the radial weights are exact only to degree n_radial - 1:
    # at band 6 on these grids sphere_coefficients used to be off by 3e-3
    # (lam = n/2 + 1/2), and by 1.0 at band 12 even for lam = n/2
    g = make_grid(spec)
    lam = spec.n / 2.0 + shift
    band = spec.n_radial - 1
    idx = svd_index_set(spec.n, band)
    coeffs = SpectralCoeffs(lam, idx, np.random.default_rng(5).normal(size=len(idx)))
    f = synthesize_sphere(coeffs, g)
    got = sphere_coefficients(f, lam, band).coeffs
    assert np.max(np.abs(got - coeffs.coeffs)) < 1e-12 * np.max(np.abs(coeffs.coeffs))
    with pytest.raises(ValueError, match=f"radial nodes \\(max {band}\\)"):
        sphere_coefficients(f, lam, band + 1)
    # the slice side does no radial analysis, so the radial count does not limit it
    spectrum = analyze(synthesize_forward(coeffs, g), lam, band + 1)
    want = dict(zip(idx, coeffs.coeffs * [svd_constants(spec.n, lam, nu).s_nu for nu in idx]))
    want = [want.get(nu, 0.0) for nu in spectrum.indices]
    assert np.max(np.abs(spectrum.coeffs - want)) < 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "spec, lam", [(GridSpec(2, 128, 48, 64), 1.0), (GridSpec(3, 16, 24, 32), 1.5)]
)
def test_forward_matches_singular_synthesis(spec, lam):
    # the forward kernel against the closed-form singular pairs, on a random
    # mix of every band-6 basis function (all resolved on the half grids)
    g = make_grid(spec)
    idx = svd_index_set(spec.n, 6)
    coeffs = SpectralCoeffs(lam, idx, np.random.default_rng(21).normal(size=len(idx)))
    got = vslice_forward(synthesize_sphere(coeffs, g)).values
    want = synthesize_forward(coeffs, g).values
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_synthesize_single_index(g2):
    lam = 1.0
    nu = SvdIndex(2, 1, 0)
    coeffs = SpectralCoeffs(lam, [nu], np.array([1.0]))
    F = synthesize_forward(coeffs, g2)
    s = svd_constants(2, lam, nu).s_nu
    want = s * slice_basis_grid(nu, lam, g2).values
    assert np.allclose(F.values, want, atol=1e-14)


def test_synthesize_matches_forward_bandlimited(g2):
    lam = 1.0
    rng = np.random.default_rng(9)
    idx = svd_index_set(2, 5)
    coeffs = SpectralCoeffs(lam, idx, rng.standard_normal(len(idx)))
    f = synthesize_sphere(coeffs, g2)
    F_direct = vslice_forward(f)
    F_spec = synthesize_forward(coeffs, g2)
    scale = np.max(np.abs(F_spec.values))
    assert np.max(np.abs(F_direct.values - F_spec.values)) < 1e-10 * scale


def test_parseval_on_band(g2):
    lam = 1.0
    rng = np.random.default_rng(4)
    idx = svd_index_set(2, 6)
    a = rng.standard_normal(len(idx))
    f = synthesize_sphere(SpectralCoeffs(lam, idx, a), g2)
    phi = lift(f)
    norm2 = inner_product_ball(phi, phi, lam)
    assert abs(norm2 - np.sum(a * a)) < 1e-6 * np.sum(a * a)
    back = sphere_coefficients(f, lam, band=6)
    assert np.allclose(back.coeffs, a, atol=1e-10)


def test_roundtrip_bandlimited(g2):
    lam = 1.0
    rng = np.random.default_rng(14)
    idx = svd_index_set(2, 8)
    a = rng.standard_normal(len(idx))
    f = synthesize_sphere(SpectralCoeffs(lam, idx, a), g2)
    F = vslice_forward(f)
    rec = reconstruct(F, lam, band=8)
    num = inner_product_ball(lift(rec - f), lift(rec - f), lam)
    den = inner_product_ball(lift(f), lift(f), lam)
    assert math.sqrt(num / den) < 1e-3


def test_roundtrip_n3(g3):
    lam = 1.5
    rng = np.random.default_rng(15)
    idx = svd_index_set(3, 4)
    a = rng.standard_normal(len(idx))
    f = synthesize_sphere(SpectralCoeffs(lam, idx, a), g3)
    F = vslice_forward(f)
    rec = reconstruct(F, lam, band=4)
    num = inner_product_ball(lift(rec - f), lift(rec - f), lam)
    den = inner_product_ball(lift(f), lift(f), lam)
    assert math.sqrt(num / den) < 1e-3


def test_reconstruct_zero(g2):
    F = SliceData(g2, np.zeros((g2.n_ang_total, g2.spec.n_t)), 1.0)
    rec = reconstruct(F, 1.0, band=4)
    assert np.all(rec.values == 0.0)


def test_reconstruct_floor_guard(g2):
    # singular values decay slowly (like degree^-1/2 at lam=1), so drive the
    # guard with an artificially high floor ratio and check force= overrides
    F = SliceData(g2, np.zeros((g2.n_ang_total, g2.spec.n_t)), 1.0)
    with pytest.raises(ValueError, match="floor"):
        reconstruct(F, 1.0, band=12, s_floor_ratio=0.3)
    rec = reconstruct(F, 1.0, band=12, s_floor_ratio=0.3, force=True)
    assert np.all(rec.values == 0.0)


@pytest.mark.parametrize("n, lam, band", [(2, 1.0, 10), (3, 1.5, 8)])
def test_profile_tables_match_per_index_formulas(g2, g3, n, lam, band):
    # the per-(m, k) tables give every index the bits of its own formula
    g = g2 if n == 2 else g3
    idx = tuple(svd_index_set(n, band))
    zetas = _grid_profiles(g, lam, idx, False)
    etas = _grid_profiles(g, lam, idx, True)
    assert zetas.shape == (len(idx), g.spec.n_t) and etas.shape == (len(idx), g.spec.n_radial)
    for (m, mu, k), zeta, eta in zip(idx, zetas, etas):
        c = svd_constants(n, lam, (m, mu, k))
        assert np.array_equal(zeta, c.d_nu * gegenbauer_poly(m + 2 * k, lam, g.t))
        p = jacobi_poly(k, lam - n / 2.0, m + n / 2.0 - 1.0, 2.0 * g.u - 1.0)
        assert np.array_equal(eta, c.c_nu * np.sqrt(g.u) ** m * p)


def test_reconstruct_works_per_degree_pair(g3):
    # constants and profiles depend on (m, k) only: a cold band-8 reconstruct
    # at n = 3 computes the constants of its 25 pairs, not of its 165 indices
    F = vslice_forward(sphere_basis_grid(SvdIndex(2, 3, 1), 1.5, g3))
    for memo in (_index_set, _columns, _grid_profiles, _singular_values, _svd_constants):
        memo.cache_clear()
    reconstruct(F, band=8)
    idx = svd_index_set(3, 8)
    assert len(idx) == 165 and len({(m, k) for m, _, k in idx}) == 25
    info = _svd_constants.cache_info()
    assert info.misses == 25
    # the slice profiles, singular values and sphere profiles: 25 calls each
    assert info.hits + info.misses == 3 * 25


def test_index_lists_are_fresh(g3):
    # the index lists handed out are the caller's: changing them must not
    # reach the memoized index set behind them
    F = vslice_forward(sphere_basis_grid(SvdIndex(2, 3, 1), 1.5, g3))
    spec = analyze(F, band=6)
    coeffs, rec = spec.coeffs.copy(), reconstruct(F, band=6).values
    spec.indices.reverse()
    spec.indices[0] = SvdIndex(9, 1, 9)
    mine = svd_index_set(3, 6)
    mine.pop()
    mine.append(SvdIndex(9, 1, 9))
    again = analyze(F, band=6)
    assert again.indices == svd_index_set(3, 6) != mine
    assert again.indices is not svd_index_set(3, 6)
    assert np.array_equal(again.coeffs, coeffs)
    assert np.array_equal(reconstruct(F, band=6).values, rec)


def test_spectral_coeffs_validation():
    nu = SvdIndex(0, 1, 0)
    with pytest.raises(ValueError):
        SpectralCoeffs(1.0, [nu, nu], np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        SpectralCoeffs(1.0, [nu], np.array([np.nan]))
    with pytest.raises(ValueError):
        SpectralCoeffs(1.0, [nu], np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        SpectralCoeffs(1.0, [SvdIndex(4, 1, 2)], np.array([1.0]), band=6)
    ok = SpectralCoeffs(1.0, [SvdIndex(2, 1, 1)], np.array([3.0]))
    assert ok.band == 4


def test_svd_table_rows():
    rows = svd_table(2, 1.0, 2)
    assert len(rows) == len(svd_index_set(2, 2))
    anchor = rows[0]
    assert anchor[:3] == (0, 1, 0)
    assert anchor[5] == pytest.approx(2.0 * math.sqrt(math.pi), rel=1e-13)
    svals = {}
    for m, mu, k, c, d, s in rows:
        svals.setdefault((m, k), set()).add(round(s, 12))
    for key, vals in svals.items():
        assert len(vals) == 1  # s depends on (m, k) only


def test_singular_values_decay(g2):
    lam = 1.0
    degrees = {}
    for nu in svd_index_set(2, 12):
        s = svd_constants(2, lam, nu).s_nu
        deg = nu.m + 2 * nu.k
        degrees[deg] = max(degrees.get(deg, 0.0), s)
    seq = [degrees[d] for d in sorted(degrees)]
    assert all(a > b for a, b in zip(seq, seq[1:]))
