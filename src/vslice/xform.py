"""Forward and dual integral operators on vertical slice data.

The forward map sends an even function on the sphere to its integrals over
the vertical half slices indexed by an equatorial direction theta and an
offset t.  In the upper-hemisphere chart that integral factors through the
hyperplane Radon transform of the lifted ball function, which is what the
production path computes; ``vslice_direct`` quadratures the slice integral
from scratch in a different chart and serves as the independent oracle.

Also here: the dual (backprojection) operator, and the table
backprojection every filtered route shares.  It filters each profile once in
the offset variable with a cached matrix and backprojects the filtered
profile onto the chart nodes: `john` and `ac` pass -d^2/dt^2 (after a log
convolution when n = 2), `hs` its annulus multiplier.  Both backprojections
sum one direction per antipodal pair of folded profiles.  And spherical
means.
"""

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.chebyshev import chebder, chebvander
from scipy.interpolate import CubicSpline
from scipy.special import roots_jacobi, roots_legendre

from .grid import SliceData, SphereFunction, _BallChart, lift
from .specfun import harmonic_dim, sph_harm, sphere_area

# Quadrature sizes for the slice integrals.  The chord rule is
# spectrally accurate but compactly supported bumps converge slowly enough
# that generous sizes are needed; 160 chords puts a width-0.7 bump at
# ~1e-11 absolute error, and 48 radial disk nodes at ~2e-7.  Basis functions
# of degree <= 10 are always integrated exactly.
CHORD_NODES_N2 = 160
DISK_NODES_N3 = 48

_BACKPROJECT_CHUNK = 4096

# Node count of the uniform offset table the filtered profiles are
# backprojected from.
TABLE_NODES = 8193


@lru_cache(maxsize=256)
def _jacobi_rule(npts, a, b):
    """Gauss-Jacobi nodes/weights for weight (1-x)^a (1+x)^b on (-1, 1)."""
    if npts < 1:
        raise ValueError("need at least one quadrature node")
    if a == 0.0 and b == 0.0:
        x, w = roots_legendre(npts)
    else:
        x, w = roots_jacobi(npts, a, b)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _barycentric_matrix(nodes, query):
    """Matrix B with (B @ samples) the polynomial interpolant of the samples
    on `nodes`, evaluated at `query` points.

    Node differences are rescaled by 4/span before the weight product so the
    barycentric weights stay in floating range for ~100 nodes.
    """
    nodes = np.asarray(nodes, dtype=float)
    query = np.asarray(query, dtype=float)
    scale = 4.0 / (nodes.max() - nodes.min())
    diff = (nodes[:, None] - nodes[None, :]) * scale
    np.fill_diagonal(diff, 1.0)
    w = 1.0 / np.prod(diff, axis=1)
    d = query[:, None] - nodes[None, :]
    hit = d == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        c = w[None, :] / d
    c = np.where(hit, 0.0, c)
    exact = hit.any(axis=1)
    denom = np.where(exact, 1.0, c.sum(axis=1))
    return np.where(exact[:, None], hit.astype(float), c / denom[:, None])


# -- off-node evaluation of sampled smooth parts ------------------------------


def _fourier_rep(f):
    # angular rFFT modes of the smooth samples, odd modes divided by r so the
    # radial profiles are smooth functions of u = r^2 (parity of circular
    # harmonics: mode m behaves like r^(m mod 2) times an even profile)
    rep = getattr(f, "_fourier_modes", None)
    if rep is None:
        modes = np.fft.rfft(f.smooth, axis=0)
        scaled = modes.copy()
        scaled[1::2] /= f.grid.r[None, :]
        rep = scaled
        f._fourier_modes = rep
    return rep


def _modes_at_radii(f, rho):
    """All angular-mode values g_m(rho), parity-aware interpolation in u."""
    scaled = _fourier_rep(f)
    B = _barycentric_matrix(f.grid.u, rho * rho)
    out = scaled @ B.T
    out[1::2] *= rho[None, :]
    return out


def _eval_smooth_2(f, pts):
    """Smooth-part values of an n=2 sampled function at arbitrary chart points."""
    pts = np.asarray(pts, dtype=float)
    shape = pts.shape[:-1]
    flat = pts.reshape(-1, 2)
    rho = np.hypot(flat[:, 0], flat[:, 1])
    gamma = np.arctan2(flat[:, 1], flat[:, 0])
    gm = _modes_at_radii(f, rho)
    A = f.grid.n_ang_total
    m = np.arange(gm.shape[0])
    phase = np.exp(1j * m[:, None] * gamma[None, :])
    scale = np.full(gm.shape[0], 2.0)
    scale[0] = 1.0
    if A % 2 == 0:
        scale[-1] = 1.0
    vals = (scale[:, None] * (gm * phase).real).sum(axis=0) / A
    return vals.reshape(shape)


@lru_cache(maxsize=8)
def _sh_basis(grid, lmax):
    """Real spherical harmonics on the angular nodes: (A, n_lm) and degrees."""
    cols = []
    degs = []
    for l in range(lmax + 1):
        for mu in range(1, harmonic_dim(3, l) + 1):
            cols.append(sph_harm(3, l, mu, grid.ang))
            degs.append(l)
    return np.stack(cols, axis=1), np.asarray(degs)


def _sh_rep(f):
    # spherical-harmonic analysis of the smooth samples; exact for angular
    # band <= n_polar - 1 by Gauss-Legendre x trapezoid exactness
    rep = getattr(f, "_sh_modes", None)
    if rep is None:
        grid = f.grid
        Y, degs = _sh_basis(grid, grid.n_polar - 1)
        coef = (Y * grid.ang_weight[:, None]).T @ f.smooth
        coef[degs % 2 == 1] /= grid.r[None, :]
        rep = (coef, degs)
        f._sh_modes = rep
    return rep


def _eval_smooth_3(f, pts):
    """Smooth-part values of an n=3 sampled function at arbitrary chart points."""
    coef, degs = _sh_rep(f)
    grid = f.grid
    pts = np.asarray(pts, dtype=float)
    shape = pts.shape[:-1]
    flat = pts.reshape(-1, 3)
    rho = np.linalg.norm(flat, axis=1)
    safe = np.where(rho > 0.0, rho, 1.0)
    dirs = flat / safe[:, None]
    dirs[rho == 0.0] = (0.0, 0.0, 1.0)
    G = coef @ _barycentric_matrix(grid.u, rho * rho).T
    G[degs % 2 == 1] *= rho[None, :]
    out = np.zeros(flat.shape[0])
    i = 0
    for l in range(grid.n_polar):
        for mu in range(1, harmonic_dim(3, l) + 1):
            out += G[i] * sph_harm(3, l, mu, dirs)
            i += 1
    return out.reshape(shape)


def _smooth_values(f, pts):
    if f.evaluator is not None:
        return np.asarray(f.evaluator(pts), dtype=float)
    if f.spec.n == 2:
        return _eval_smooth_2(f, pts)
    return _eval_smooth_3(f, pts)


def _frames(theta):
    """Orthonormal pairs spanning the plane orthogonal to each direction."""
    theta = np.atleast_2d(theta)
    zhat = np.zeros_like(theta)
    zhat[:, 2] = 1.0
    e1 = np.cross(theta, zhat)
    nrm = np.linalg.norm(e1, axis=1)
    bad = nrm < 1e-12
    if np.any(bad):
        xhat = np.zeros_like(theta)
        xhat[:, 0] = 1.0
        e1[bad] = np.cross(theta[bad], xhat[bad])
        nrm = np.linalg.norm(e1, axis=1)
    e1 = e1 / nrm[:, None]
    e2 = np.cross(theta, e1)
    return e1, e2


# -- forward transform --------------------------------------------------------


def _forward_2(f, Q):
    grid = f.grid
    e = f.boundary_exponent
    tau, wq = _jacobi_rule(Q, e - 0.5, e - 0.5)
    t = grid.t
    r = np.sqrt(1.0 - t * t)
    if f.evaluator is not None:
        th = grid.ang
        perp = np.stack([-th[:, 1], th[:, 0]], axis=-1)
        pts = (
            t[None, :, None, None] * th[:, None, None, :]
            + (r[None, :, None] * tau[None, None, :])[..., None] * perp[:, None, None, :]
        )
        out = np.asarray(f.evaluator(pts), dtype=float) @ wq
    else:
        A = grid.n_ang_total
        m = np.arange(A // 2 + 1)
        out = np.empty((A, t.size))
        for j, tj in enumerate(t):
            rho = np.sqrt(tj * tj + (1.0 - tj * tj) * tau * tau)
            gm = _modes_at_radii(f, rho)
            delta = np.arctan2(r[j] * tau, tj)
            vals = np.fft.irfft(gm * np.exp(1j * m[:, None] * delta[None, :]), n=A, axis=0)
            out[:, j] = vals @ wq
    return SliceData(grid, out, e + 0.5)


def _forward_eval_3(f, K):
    grid = f.grid
    e = f.boundary_exponent
    xg, wg = _jacobi_rule(K, e - 0.5, 0.0)
    rho = np.sqrt((xg + 1.0) / 2.0)
    wq = wg * 2.0 ** (-(e + 0.5))
    # An even azimuth count makes the trapezoid rule kill every odd power of
    # rho exactly, which is what keeps low-degree polynomials exact.  The
    # azimuthal direction converges much faster than the radial one for
    # smooth integrands, so 2K/3 nodes suffice and save a third of the cost.
    kchi = max(2 * ((K + 2) // 3), 16)
    chi = 2.0 * np.pi * np.arange(kchi) / kchi
    # f is even, so F(-theta, -t) = F(theta, t): one direction per antipodal
    # pair is integrated and its partner gets the profile reversed in t
    sel = np.arange(grid.n_ang_total) < grid.antipodal_index
    th = grid.ang[sel]
    e1, e2 = _frames(th)
    omega = (
        np.cos(chi)[None, :, None] * e1[:, None, :]
        + np.sin(chi)[None, :, None] * e2[:, None, :]
    )
    half = np.empty((th.shape[0], grid.spec.n_t))
    for j, tj in enumerate(grid.t):
        r = math.sqrt(1.0 - tj * tj)
        pts = tj * th[:, None, None, :] + r * rho[None, :, None, None] * omega[:, None, :, :]
        vals = np.asarray(f.evaluator(pts), dtype=float)
        half[:, j] = (math.pi / kchi) * np.einsum("q,aqk->a", wq, vals)
    out = np.empty((grid.n_ang_total, grid.spec.n_t))
    out[sel] = half
    out[grid.antipodal_index[sel]] = half[:, ::-1]
    return SliceData(grid, out, e + 1.0)


def _legendre_table(lmax, x):
    P = np.empty((lmax + 1,) + x.shape)
    P[0] = 1.0
    if lmax >= 1:
        P[1] = x
    for l in range(1, lmax):
        P[l + 1] = ((2 * l + 1) * x * P[l] - l * P[l - 1]) / (l + 1)
    return P


def _forward_sh_3(f, K):
    # mode-by-mode plane-section kernel: for phi = g_l(r) Y_l(x/r) the Radon
    # transform over {x . theta = t} is 2 pi Y_l(theta) int_|t|^1 g_l P_l(t/r) r dr
    grid = f.grid
    e = f.boundary_exponent
    lmax = grid.n_polar - 1
    Y, degs = _sh_basis(grid, lmax)
    coef, _ = _sh_rep(f)
    odd = degs % 2 == 1
    xg, wg = _jacobi_rule(K, 0.0, e - 0.5)
    v = (xg + 1.0) / 2.0
    wv = wg * 2.0 ** (-(e + 0.5))
    tbl = np.empty((Y.shape[1], grid.spec.n_t))
    for j, tj in enumerate(grid.t):
        r2 = 1.0 - (1.0 - tj * tj) * v
        rq = np.sqrt(r2)
        G = coef @ _barycentric_matrix(grid.u, r2).T
        G[odd] *= rq[None, :]
        P = _legendre_table(lmax, tj / rq)
        tbl[:, j] = math.pi * ((G * P[degs]) @ wv)
    return SliceData(grid, Y @ tbl, e + 1.0)


def vslice_forward(f):
    """Half slice transform of an even sphere function, sampled on the grid.

    Computes F(theta_i, t_j) = sqrt(1 - t_j^2) * Radon(lift f)(theta_i, t_j).
    Uses the phantom's evaluator for off-node values when available and falls
    back to spectral interpolation of the samples (angular Fourier modes for
    n = 2, spherical harmonics for n = 3) otherwise.  The stored boundary
    exponent rises by (n-1)/2, which is exact.
    """
    if not isinstance(f, SphereFunction):
        raise TypeError("vslice_forward expects a SphereFunction")
    if f.spec.n == 2:
        return _forward_2(f, CHORD_NODES_N2)
    if f.evaluator is not None:
        return _forward_eval_3(f, DISK_NODES_N3)
    return _forward_sh_3(f, DISK_NODES_N3)


def radon_ball(phi, theta, t):
    """Hyperplane Radon transform of a ball function at one (theta, t).

    Integrates phi over the chord (n=2) or disk (n=3) section of the ball by
    {x' . theta = t}; returns 0 for |t| >= 1 since phi extends by zero.
    """
    if not isinstance(phi, _BallChart):
        raise TypeError("radon_ball expects a BallFunction")
    t = float(t)
    if abs(t) >= 1.0:
        return 0.0
    theta = np.asarray(theta, dtype=float)
    theta = theta / np.linalg.norm(theta)
    n = phi.spec.n
    e = phi.boundary_exponent
    r = math.sqrt(1.0 - t * t)
    if n == 2:
        tau, wq = _jacobi_rule(CHORD_NODES_N2, e, e)
        perp = np.array([-theta[1], theta[0]])
        pts = t * theta[None, :] + (r * tau)[:, None] * perp[None, :]
        return r ** (1.0 + 2.0 * e) * float(_smooth_values(phi, pts) @ wq)
    xg, wg = _jacobi_rule(DISK_NODES_N3, e, 0.0)
    rho = np.sqrt((xg + 1.0) / 2.0)
    wq = wg * 2.0 ** (-(e + 1.0))
    kchi = max(2 * DISK_NODES_N3, 16)
    chi = 2.0 * np.pi * np.arange(kchi) / kchi
    e1, e2 = _frames(theta)
    omega = np.cos(chi)[:, None] * e1 + np.sin(chi)[:, None] * e2
    pts = t * theta[None, None, :] + r * rho[:, None, None] * omega[None, :, :]
    vals = _smooth_values(phi, pts)
    return r ** (2.0 + 2.0 * e) * (math.pi / kchi) * float(wq @ vals.sum(axis=1))


def vslice_direct(f, theta, t, chord_nodes=None):
    """Direct quadrature of the half-slice integral; the independent oracle.

    Parametrizes the slice {x . theta = t} itself and integrates the full
    function values r * int f(t theta + y, sqrt(r^2 - |y|^2)) / sqrt(r^2-|y|^2) dy
    without the lift/Radon factorization or the analytic boundary split the
    production path uses.  Requires a phantom with an evaluator.
    """
    if not isinstance(f, SphereFunction):
        raise TypeError("vslice_direct expects a SphereFunction")
    if f.evaluator is None:
        raise ValueError("vslice_direct needs a phantom with an evaluator")
    t = float(t)
    if abs(t) >= 1.0:
        raise ValueError("need |t| < 1")
    theta = np.asarray(theta, dtype=float)
    theta = theta / np.linalg.norm(theta)
    n = f.spec.n
    e = f.boundary_exponent
    r = math.sqrt(1.0 - t * t)
    if n == 2:
        Q = chord_nodes or 256
        tau = np.cos((2.0 * np.arange(Q) + 1.0) * np.pi / (2.0 * Q))
        perp = np.array([-theta[1], theta[0]])
        pts = t * theta[None, :] + (r * tau)[:, None] * perp[None, :]
        x3sq = r * r * (1.0 - tau * tau)
        full = np.asarray(f.evaluator(pts), dtype=float) * x3sq**e
        return r * math.pi / Q * float(full.sum())
    K = chord_nodes or 96
    xg, wg = roots_legendre(K)
    v = (xg + 1.0) / 2.0
    wv = wg / 2.0
    kchi = 2 * K
    chi = 2.0 * np.pi * np.arange(kchi) / kchi
    e1, e2 = _frames(theta)
    omega = np.cos(chi)[:, None] * e1 + np.sin(chi)[:, None] * e2
    s = np.sqrt(1.0 - v * v)
    pts = t * theta[None, None, :] + (r * s)[:, None, None] * omega[None, :, :]
    full = np.asarray(f.evaluator(pts), dtype=float) * ((r * v) ** 2)[:, None] ** e
    return r * r * (2.0 * np.pi / kchi) * float(wv @ full.sum(axis=1))


# -- dual transform ------------------------------------------------------------


def _fold(F):
    """One direction per antipodal pair: (directions, weights / sigma_{n-1},
    folded profiles F(theta, t) + F(-theta, -t)).

    Every backprojection integrates F(theta, theta . x) over all directions,
    where the partner term F(-theta, -theta . x) is the folded-in profile at
    the same offset.  The sum is exact for any data: the odd part of F, which
    cancels between theta and -theta, never reaches a reconstruction.
    """
    grid = F.grid
    sel = np.arange(grid.n_ang_total) < grid.antipodal_index
    w = grid.ang_weight[sel] / sphere_area(grid.spec.n)
    values = F.values
    folded = values[sel] + values[grid.antipodal_index[sel]][:, ::-1]
    return grid.ang[sel], w, folded


def _dual_rep(F):
    # C^2 cubic spline of each folded t-profile, endpoints pinned to zero at
    # t = +-1 (slice data of integrable functions vanishes there).  It is the
    # interpolant of `_node_spline` that the n = 2 filters act on, so
    # dual_radon is their spatial reference.
    rep = getattr(F, "_dual_coeffs", None)
    if rep is None:
        ang, w, folded = _fold(F)
        pad = np.zeros((folded.shape[0], 1))
        x = np.concatenate(([-1.0], F.grid.t, [1.0]))
        y = np.concatenate([pad, folded, pad], axis=1)
        rep = (ang, w, x, CubicSpline(x, y, axis=1, bc_type="natural").c)
        F._dual_coeffs = rep
    return rep


def _eval_rows(x, c, S):
    idx = np.clip(np.searchsorted(x, S, side="right") - 1, 0, len(x) - 2)
    dx = S - x[idx]
    rows = np.arange(S.shape[0])[:, None]
    out = c[0, idx, rows]
    for k in range(1, c.shape[0]):
        out = out * dx + c[k, idx, rows]
    return out


def _backproject_many(F, pts):
    """(1/sigma_{n-1}) sum_i w_i F(theta_i, theta_i . x) at many points."""
    ang, w, x, c = _dual_rep(F)
    pts = np.asarray(pts, dtype=float)
    out = np.empty(pts.shape[0])
    for lo in range(0, pts.shape[0], _BACKPROJECT_CHUNK):
        hi = min(lo + _BACKPROJECT_CHUNK, pts.shape[0])
        S = ang @ pts[lo:hi].T
        vals = _eval_rows(x, c, np.clip(S, -1.0, 1.0))
        np.multiply(vals, np.abs(S) < 1.0, out=vals)
        out[lo:hi] = w @ vals
    return out


def is_even_slice_data(F, tol=1e-12):
    """Whether F(-theta, -t) = F(theta, t) holds to a relative tolerance.

    Slice transforms of even sphere functions always satisfy this; measured
    data satisfy it only up to their noise.  A diagnostic only: the
    backprojections fold antipodal pairs whatever the data.
    """
    if not isinstance(F, SliceData):
        raise TypeError("is_even_slice_data expects SliceData")
    scale = np.max(np.abs(F.values))
    if scale == 0.0:
        return True
    flipped = F.values[F.grid.antipodal_index][:, ::-1]
    return bool(np.max(np.abs(F.values - flipped)) <= tol * scale)


def dual_radon(F, xprime):
    """Dual Radon transform (1/sigma_{n-1}) int F(theta, x' . theta) dtheta.

    The t-profiles are interpolated by a natural cubic spline through the
    nodes, pinned to zero at t = +-1 and clamped to zero outside (-1, 1),
    where slice data of integrable functions vanishes.  Accepts a single
    point or an array of points (..., n).
    """
    if not isinstance(F, SliceData):
        raise TypeError("dual_radon expects SliceData")
    pts = np.asarray(xprime, dtype=float)
    if pts.shape[-1] != F.spec.n:
        raise ValueError("point dimension does not match the grid")
    single = pts.ndim == 1
    flat = pts.reshape(-1, pts.shape[-1])
    out = _backproject_many(F, flat)
    return float(out[0]) if single else out.reshape(pts.shape[:-1])


# -- log filter ----------------------------------------------------------------


def _g0(x):
    with np.errstate(divide="ignore", invalid="ignore"):
        v = x * np.log(np.abs(x))
    return np.where(x == 0.0, 0.0, v)


def _g1(x):
    with np.errstate(divide="ignore", invalid="ignore"):
        v = 0.5 * x * x * (np.log(np.abs(x)) - 0.5)
    return np.where(x == 0.0, 0.0, v)


def _log_moment_matrix(t_nodes, s_points):
    """W with (W @ values)[i] = int_{-1}^{1} log|s_i - t| F(t) dt exactly for
    the piecewise-linear interpolant of the values, constant-extended from the
    first/last node out to t = -1 and t = 1."""
    t = np.asarray(t_nodes, dtype=float)
    s = np.asarray(s_points, dtype=float)[:, None]
    a = t[None, :-1]
    b = t[None, 1:]
    h = b - a
    I0 = _g0(b - s) - _g0(a - s) - h
    I1 = _g1(b - s) - _g1(a - s) + s * I0
    W = np.zeros((s.size, t.size))
    W[:, :-1] += (b * I0 - I1) / h
    W[:, 1:] += (I1 - a * I0) / h
    s0 = s[:, 0]
    W[:, 0] += _g0(t[0] - s0) - _g0(-1.0 - s0) - (t[0] + 1.0)
    W[:, -1] += _g0(1.0 - s0) - _g0(t[-1] - s0) - (1.0 - t[-1])
    return W


# -- filtered backprojection ---------------------------------------------------


def _node_spline(t):
    """(knots, spline): the natural cubic spline `dual_radon` uses, as a map of
    the node values at t.  spline(s) has one column per node; the knots are
    [-1, t, 1] and the spline is pinned to zero at the outer two."""
    x = np.concatenate(([-1.0], t, [1.0]))
    basis = np.zeros((x.size, t.size))
    basis[1:-1] = np.eye(t.size)
    return x, CubicSpline(x, basis, bc_type="natural")


def _log_filter_matrix(t, s):
    """-d^2/ds^2 of (Lg)(s) = int log|s - u| g(u) du as a matrix on node values.

    g is the natural cubic spline of `_node_spline`.  Its g'' is piecewise
    linear on the knots [-1, t, 1], so (Lg)'' = L(g'') + g'(-1) log|s+1| -
    g'(1) log|s-1| is exact with the closed-form log moments.
    """
    x, spline = _node_spline(t)
    d1 = spline(np.array([-1.0, 1.0]), 1)
    W = _log_moment_matrix(x, s)
    return (
        -W @ spline(x, 2)
        - np.log(np.abs(s + 1.0))[:, None] * d1[0]
        + np.log(np.abs(s - 1.0))[:, None] * d1[1]
    )


def _plane_filter_matrix(t, s, a):
    """-d^2/ds^2 of p(s) (1-s^2)^a as a matrix on the node values p(t_j) (1-t_j^2)^a.

    p is the degree-(n_t - 1) interpolant of the smooth part; the boundary
    factor is differentiated analytically.  Needs |s| < 1.
    """
    deg = t.size - 1
    coef = np.linalg.solve(chebvander(t, deg), np.diag((1.0 - t * t) ** -a))
    p0 = chebvander(s, deg) @ coef
    p1 = chebvander(s, deg - 1) @ chebder(coef, 1)
    p2 = chebvander(s, deg - 2) @ chebder(coef, 2)
    q = 1.0 - s * s
    w0 = q**a
    w1 = -2.0 * a * s * q ** (a - 1.0)
    w2 = -2.0 * a * q ** (a - 1.0) + 4.0 * a * (a - 1.0) * s * s * q ** (a - 2.0)
    return -(p2 * w0[:, None] + 2.0 * p1 * w1[:, None] + p0 * w2[:, None])


def _table_offsets(grid):
    """The uniform offset table, s_i = (i - TABLE_NODES // 2) * step, exactly
    antisymmetric.  It spans the largest chart radius, which bounds theta . x'
    at every chart node."""
    span = float(grid.r.max())
    s = np.linspace(-span, span, TABLE_NODES)
    s = 0.5 * (s - s[::-1])
    s.setflags(write=False)
    return s


def _symmetric(M):
    """M made exact under t -> -t, s -> -s like the nodes, so that filtering the
    reversed profile of a folded pair costs no rounding beyond the sums; read-only."""
    M = 0.5 * (M + M[::-1, ::-1])
    M.setflags(write=False)
    return M


@lru_cache(maxsize=16)
def _filter_table(grid, exponent):
    """(s, M): the uniform offset table and the matrix taking node values of
    plane data with boundary exponent `exponent` to their filtered profile on it.

    The filter is -d^2/ds^2 for n = 3, where the exponent enters, and
    -d^2/ds^2 of the log convolution for n = 2.
    """
    s = _table_offsets(grid)
    if grid.spec.n == 2:
        M = _log_filter_matrix(grid.t, s)
    else:
        M = _plane_filter_matrix(grid.t, s, exponent)
    return s, _symmetric(M)


def _table_backprojection(G, s, M):
    """(1/sigma_{n-1}) int (KG)(theta, theta . x') dtheta at the chart nodes,
    shape (n_ang_total, n_radial), where M takes the node values of a profile
    to its filtered profile KG on the uniform offsets s.

    The filter acts once per folded profile, and the filtered profiles are
    linearly interpolated on the table.  `john` and `ac` pass the matrix of
    `_filter_table`: backprojection commutes with the Laplacian,
    -Delta R*g = R*(-g'').  `hs` passes its annulus multiplier.
    """
    ang, w, folded = _fold(G)
    table = folded @ M.T
    pts = G.grid.ball_points
    out = np.zeros(pts.shape[:-1])
    for k in range(len(w)):
        out += w[k] * np.interp(pts @ ang[k], s, table[k])
    return out


# -- spherical means -----------------------------------------------------------


def spherical_mean(f, theta, t):
    """Mean of f over the full vertical slice at (theta, t).

    Equals (Vf)(theta, t) (1-t^2)^((1-n)/2) / sigma_{n-1} with V = 2 V_+.
    """
    if not isinstance(f, SphereFunction):
        raise TypeError("spherical_mean expects a SphereFunction")
    t = float(t)
    if abs(t) >= 1.0:
        raise ValueError("need |t| < 1")
    n = f.spec.n
    v_plus = math.sqrt(1.0 - t * t) * radon_ball(lift(f), theta, t)
    return 2.0 * v_plus * (1.0 - t * t) ** ((1.0 - n) / 2.0) / sphere_area(n)


def log_kernel_identity(num_nodes=1 << 20):
    """Gauss-Chebyshev value of (1/pi) int_{-1}^1 log|t| / sqrt(1-t^2) dt.

    The exact value is -log 2; the quadrature error is log(2)/num_nodes, so
    the default node count lands within 1e-6.
    """
    k = np.arange(num_nodes)
    t = np.cos((2.0 * k + 1.0) * np.pi / (2.0 * num_nodes))
    return float(np.mean(np.log(np.abs(t))))
