"""The benchmark's workloads: inputs drawn from a seed, timed calls, checks.

Each workload has a ``setup(vs, seed, wrap)`` that builds its inputs with
the program (grids, phantoms, basis functions; ``wrap`` is applied to each
phantom, so that a traced run can count evaluator points) and a
``round(vs, state, run)`` that makes one pass of timed calls through
``run.op`` and checks every output through ``run.check``.  ``vs`` is the
imported ``vslice`` package.  Every op is of one kind: ``forward`` (phantom to slice data) or ``invert``
(slice data or a .vsl file to a reconstruction); the two kinds make the
end-to-end metrics ``forward_s`` and ``invert_s``.

Inputs never change in place: each round makes fresh slice data, so the
per-container spline and mode caches start empty in every round, while the
module-level ``lru_cache`` tables and the per-grid weight tables fill in the
first round that needs them and stay warm after it.
"""

import math
import os

import numpy as np

import oracle

BUMP_WIDTH = 0.7
MARGIN_N2 = 0.25  # equator margin of the n = 2 bump, so `ac` applies
BUMP_N2_BASE = (0.3, -0.2, 0.93)  # latitude of the n = 2 bump centre
BUMP_N3_BASE = (0.0, 0.0, 0.3, 0.95)  # latitude of the n = 3 bump centre
SVD_BAND = 8
NOISE_LEVEL = 1e-4  # measured-n2: noise sd relative to the sinogram's peak

CHECK_NODES_N2 = 256
CHECK_NODES_N3 = 32

# Short calls are timed several times and count with their median, so that
# one slow stretch of the shared machine does not set a run's figure.  The
# bump-n2 forward (about 1 s in a 20 s round) runs at the start of the round,
# before hs and after it.  Every `reconstruct` (1 ms to 0.3 s) runs 3 times
# in a row; its first call on a grid fills lazy weight tables (0.21 s cold
# against 0.05 s warm at n = 2), so the median is the warm time.
SVD_REPEATS = 3

# Accuracy limits; each is a property of the method, not a stored output.
FORWARD_TOL = {2: 1e-6, 3: 1e-5}  # vs the oracle, relative to max |F|
EVEN_TOL = 1e-10  # F(-theta, -t) = F(theta, t)
SHAPE_TOL = {"john": 0.02, "ac": 0.02, "hs": 0.03}
SCALAR_TOL = 0.01  # ac and hs carry the exact constant
JOHN3_SCALAR = (0.9, 1.1)
SVD_BUMP_TOL = 1e-4  # slice-side vs ball-side band-8 expansion, clean data
SVD_NOISE_FACTOR = 100.0  # measured data: tolerance is this times the noise level
EXACT_TOL = 1e-10  # identities that hold to rounding on band-limited inputs


def _rng(seed, stream):
    return np.random.default_rng([seed, stream])


def draw_center(seed, base):
    """Bump centre at the latitude of `base`, chart direction drawn uniformly."""
    base = np.asarray(base, dtype=float)
    base = base / np.linalg.norm(base)
    chart = base[:-1]
    direction = _rng(seed, 0).standard_normal(chart.size)
    direction /= np.linalg.norm(direction)
    return tuple(np.append(np.linalg.norm(chart) * direction, base[-1]))


def check_nodes(seed, grid, count):
    """Seeded sample of (angular index, t index) pairs on the grid, no repeats."""
    flat = _rng(seed, 1).choice(grid.n_ang_total * grid.spec.n_t, count, replace=False)
    return np.divmod(flat, grid.spec.n_t)


# -- checks shared by the bump workloads ---------------------------------------


def check_forward(vs, run, label, F, exact_fn, nodes):
    """Forward output against the oracle at the check nodes, and its evenness."""
    grid = F.grid
    values = F.values
    # the oracle must reproduce the closed form for f = 1 before it is used
    run.check(label, "oracle_constant", oracle.check_constant(grid.spec.n, grid.t[::7]), 1e-13)
    a_idx, t_idx = nodes
    want = np.array([
        oracle.half_slice_integral(exact_fn, grid.ang[a], grid.t[j]) for a, j in zip(a_idx, t_idx)
    ])
    peak = np.max(np.abs(values))
    dev = float(np.max(np.abs(values[a_idx, t_idx] - want)) / peak)
    run.check(label, "oracle_dev", dev, FORWARD_TOL[grid.spec.n])
    flipped = values[grid.antipodal_index][:, ::-1]
    run.check(label, "evenness", float(np.max(np.abs(values - flipped)) / peak), EVEN_TOL)


def check_shape(vs, run, label, route, phantom, rec):
    rep = vs.compare(phantom, rec, method=route)
    run.check(label, "shape_err", rep.rel_l2_after_scale, SHAPE_TOL[route])
    run.note(label, "scalar", rep.best_fit_scalar)
    return rep


def check_svd(vs, run, label, phantom, rec, tol):
    """SVD reconstruction against the phantom's own band-limited expansion."""
    ref = vs.synthesize_sphere(vs.sphere_coefficients(phantom, band=SVD_BAND), phantom.grid)
    run.check(label, "vs_band_expansion", vs.compare(ref, rec).rel_l2, tol)
    run.note(label, "shape_err", vs.compare(phantom, rec).rel_l2_after_scale)


def check_john2(vs, run, label, phantom, rec):
    """n = 2 John: shape, and the closed-form relation c_hat_2 * scalar = -1/(2 pi).

    The published even constant c_hat_2 is kept as the default, so the
    scalar is not 1; its product with c_hat_2 must still be -1/(2 pi).
    """
    rep = check_shape(vs, run, label, "john", phantom, rec)
    c_hat = vs.method_constants(2).c_hat_n
    run.check(label, "c_hat_relation", abs(c_hat * rep.best_fit_scalar * 2.0 * math.pi + 1.0),
              SCALAR_TOL)


def check_exact_constant(vs, run, label, route, phantom, rec):
    """ac and hs carry the exact constant: shape, and a scalar within 1 % of 1."""
    rep = check_shape(vs, run, label, route, phantom, rec)
    run.check(label, "scalar_dev", abs(rep.best_fit_scalar - 1.0), SCALAR_TOL)


# -- bump-n2 -------------------------------------------------------------------


def setup_bump_n2(vs, seed, wrap):
    center = draw_center(seed, BUMP_N2_BASE)
    spec = vs.default_spec(2)
    phantom = wrap(vs.make_phantom(
        vs.Phantom(kind="bump", center=center, width=BUMP_WIDTH, equator_margin=MARGIN_N2), spec
    ))
    return {
        "phantom": phantom,
        "exact": oracle.bump(center, BUMP_WIDTH, MARGIN_N2),
        "nodes": check_nodes(seed, phantom.grid, CHECK_NODES_N2),
    }


def forward_checked(vs, st, run):
    F = run.op("forward", "forward", lambda: vs.vslice_forward(st["phantom"]))
    if run.ok(F):
        check_forward(vs, run, "forward", F, st["exact"], st["nodes"])
    return F


def round_bump_n2(vs, st, run):
    f = st["phantom"]
    F = forward_checked(vs, st, run)
    john = run.op("john", "invert", lambda: vs.invert_john(F), needs=F)
    if run.ok(john):
        check_john2(vs, run, "john", f, john)
    ac = run.op("ac", "invert", lambda: vs.invert_ac(vs.full_transform(F)), needs=F)
    if run.ok(ac):
        check_exact_constant(vs, run, "ac", "ac", f, ac)
    svd = run.op("svd", "invert", lambda: vs.reconstruct(F, band=SVD_BAND), needs=F,
                 repeats=SVD_REPEATS)
    if run.ok(svd):
        check_svd(vs, run, "svd", f, svd, SVD_BUMP_TOL)
    forward_checked(vs, st, run)
    hs = run.op("hs", "invert", lambda: vs.invert_hypersingular(F), needs=F)
    if run.ok(hs):
        check_exact_constant(vs, run, "hs", "hs", f, hs)
    forward_checked(vs, st, run)


# -- bump-n3 -------------------------------------------------------------------


def setup_bump_n3(vs, seed, wrap):
    center = draw_center(seed, BUMP_N3_BASE)
    spec = vs.default_spec(3)
    phantom = wrap(vs.make_phantom(vs.Phantom(kind="bump", center=center, width=BUMP_WIDTH), spec))
    return {
        "phantom": phantom,
        "exact": oracle.bump(center, BUMP_WIDTH),
        "nodes": check_nodes(seed, phantom.grid, CHECK_NODES_N3),
    }


def round_bump_n3(vs, st, run):
    f = st["phantom"]
    F = forward_checked(vs, st, run)
    john = run.op("john", "invert", lambda: vs.invert_john(F), needs=F)
    if run.ok(john):
        rep = check_shape(vs, run, "john", "john", f, john)
        lo, hi = JOHN3_SCALAR
        run.check("john", "scalar_in_range", 0.0 if lo <= rep.best_fit_scalar <= hi else 1.0, 0.0)
    svd = run.op("svd", "invert", lambda: vs.reconstruct(F, band=SVD_BAND), needs=F,
                 repeats=SVD_REPEATS)
    if run.ok(svd):
        check_svd(vs, run, "svd", f, svd, SVD_BUMP_TOL)


# -- measured-n2 ---------------------------------------------------------------


def setup_measured_n2(vs, seed, wrap):
    st = setup_bump_n2(vs, seed, wrap)
    grid = st["phantom"].grid
    st["noise"] = _rng(seed, 2).standard_normal((grid.n_ang_total, grid.spec.n_t))
    here = os.path.dirname(os.path.abspath(__file__))
    st["path"] = os.path.join(here, "out", "measured-%d-%d.vsl" % (seed, os.getpid()))
    return st


def round_measured_n2(vs, st, run):
    """Acquire (forward, add the seeded noise, write .vsl), then invert the file.

    Each inversion op reads the file itself, as a user inverting measured
    data would; the read is part of the op's time.
    """
    f = st["phantom"]
    path = st["path"]
    F = forward_checked(vs, st, run)
    noisy = None
    if run.ok(F):
        values = F.values
        sigma = NOISE_LEVEL * float(np.max(np.abs(values)))
        noisy = vs.SliceData(F.grid, values + sigma * st["noise"], 0.0)
        vs.write_vsl(path, noisy)

    routes = (
        ("john", 1, vs.invert_john,
         lambda rec: check_john2(vs, run, "john", f, rec)),
        ("ac", 1, lambda G: vs.invert_ac(vs.full_transform(G)),
         lambda rec: check_exact_constant(vs, run, "ac", "ac", f, rec)),
        ("svd", SVD_REPEATS, lambda G: vs.reconstruct(G, band=SVD_BAND),
         lambda rec: check_svd(vs, run, "svd", f, rec, SVD_NOISE_FACTOR * NOISE_LEVEL)),
    )
    for label, repeats, invert, check in routes:
        out = run.op(label, "invert", lambda: _read_then(vs, path, invert), needs=noisy,
                     repeats=repeats)
        if run.ok(out):
            data, rec = out
            same = data.smooth.tobytes() == noisy.smooth.tobytes()
            same = same and data.boundary_exponent == noisy.boundary_exponent
            run.check(label, "vsl_round_trip", 0.0 if same else 1.0, 0.0)
            check(rec)


def _read_then(vs, path, invert):
    data, _ = vs.read_vsl(path)
    return data, invert(data)


def teardown_measured_n2(st):
    if os.path.exists(st["path"]):
        os.remove(st["path"])


# -- basis ---------------------------------------------------------------------

# (n, lam, band, index count per round, half grid); the half grids and bands
# are those of the singular-relation acceptance criterion
BASIS_SETS = (
    (2, 1.0, 10, 12, (2, 128, 48, 64)),
    (3, 1.5, 6, 3, (3, 16, 24, 32)),
)


def draw_basis(vs, seed):
    """Seeded basis indices (m, mu, k), one per slot.

    The cost of a basis forward grows with the degree m (2.2 s at m = 0 to
    4.4 s at m = 6 for n = 3 on the half grid) and that of `reconstruct`
    with its band m + 2k.  So slot i of a set has a fixed degree m_i, the
    midpoint of the i-th of `count` equal strata of 0..band, and the largest
    k that keeps m_i + 2k within the band; the seed draws the harmonic order
    mu.  A round's work then varies little between seeds.
    """
    rng = _rng(seed, 3)
    picks = []
    for n, lam, band, count, _ in BASIS_SETS:
        for i in range(count):
            m = ((2 * i + 1) * (band + 1)) // (2 * count)
            mu = 1 + int(rng.integers(vs.harmonic_dim(n, m)))
            picks.append((n, lam, vs.SvdIndex(m, mu, (band - m) // 2)))
    return picks


def setup_basis(vs, seed, wrap):
    specs = {n: vs.GridSpec(*spec) for n, _, _, _, spec in BASIS_SETS}
    items = []
    for n, lam, nu in draw_basis(vs, seed):
        f = wrap(vs.make_phantom(vs.Phantom(kind="basis", nu=nu, lam=lam), specs[n]))
        items.append((n, lam, nu, f))
    return {"items": items}


def round_basis(vs, st, run):
    anchor = vs.svd_constants(2, 1.0, (0, 1, 0)).s_nu
    run.check("anchor", "s_010_minus_2sqrtpi", abs(anchor - 2.0 * math.sqrt(math.pi)), 1e-12)
    for i, (n, lam, nu, f) in enumerate(st["items"]):
        tag = "%d n%d (%d,%d,%d)" % (i, n, nu.m, nu.mu, nu.k)
        F = run.op("forward " + tag, "forward", lambda: vs.vslice_forward(f))
        if run.ok(F):
            s = vs.svd_constants(n, lam, nu).s_nu
            want = s * vs.slice_basis_grid(nu, lam, F.grid).values
            run.check("forward " + tag, "singular_relation",
                      float(np.max(np.abs(F.values - want)) / s), EXACT_TOL)
        band = nu.m + 2 * nu.k
        rec = run.op("svd " + tag, "invert", lambda: vs.reconstruct(F, lam=lam, band=band),
                     needs=F, repeats=SVD_REPEATS)
        if run.ok(rec):
            run.check("svd " + tag, "round_trip", vs.compare(f, rec).rel_l2, EXACT_TOL)


WORKLOADS = {
    "bump-n2": (setup_bump_n2, round_bump_n2, None, 1),
    "bump-n3": (setup_bump_n3, round_bump_n3, None, 1),
    "measured-n2": (setup_measured_n2, round_measured_n2, teardown_measured_n2, 3),
    "basis": (setup_basis, round_basis, None, 1),
}
