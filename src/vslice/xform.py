"""Forward and dual integral operators on vertical slice data.

The forward map sends an even function on the sphere to its integrals over
the vertical half slices indexed by an equatorial direction theta and an
offset t.  In the upper-hemisphere chart that integral factors through the
hyperplane Radon transform of the lifted ball function, which is what the
production path computes.  Both forward paths integrate over one slice rule,
`_slice_rule`: signed chord nodes at n = 2, disk radii at n = 3, of the
slice's unit (n-1)-ball.  Whether a function carries an evaluator selects
the path.  A function with one (the bump, constant and axial-power
phantoms) goes through one slice quadrature (`_slice_quadrature` on the
nodes of `_ball_rule`, the slice rule crossed with azimuths at n = 3),
which also serves spherical means; the forward runs it over one direction
per antipodal pair and fills the partner by evenness.  It evaluates only the
(direction, offset) slices that meet the evaluator's support: an evaluator
may carry a `cap` (the bump's does, see `harness._bump_evaluator`) outside
which it vanishes, and the slices that miss it stay exactly 0.  The slices it
keeps go to the evaluator in chunks, so each call sees a bounded number of
points however many directions the grid has.  Sampled
functions, singular basis functions among them, take the harmonic layer
instead.  By Funk-Hecke a degree-l harmonic integrated over a slice, or
backprojected, picks up the zonal polynomial of a cosine (`_zonal_table`:
T_l at n = 2, Legendre P_l at n = 3), so the forward and the backprojection
of t-filtered profiles are one radial matrix per harmonic degree, which
`_harmonic_apply` applies between `_analyse` (an azimuthal rFFT, then a
Legendre sum per order at n = 3; svd's expansions use it too) and
`_synthesise`.  The forward's matrix (`_forward_kernel`) folds the slice
rule and the radial interpolation in u = r^2; its rule grows with n_radial,
so it is exact for every band-limited sample the grid resolves.
``vslice_direct`` quadratures the slice integral from scratch in a different
chart and serves as the independent oracle.

Also here: the dual (backprojection) operator `dual_radon`, the spatial
oracle, and the t-filter kernels of the filtered routes: `john` and `ac`
pass -d^2/dt^2 (after a log convolution when n = 2), `hs` its annulus
multiplier.  The n = 2 filters and `dual_radon` act on one interpolant of
the t-profiles, the natural cubic spline through the nodes pinned to zero at
t = +-1: `_node_spline` builds it once as a table (knot values and knot
second derivatives) and `_spline` is its one evaluator.
"""

import inspect
import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.chebyshev import chebder, chebvander

from .grid import SliceData, SphereFunction, _jacobi_rule, _read_only, _symmetrize
from .specfun import _norm_assoc_legendre, sphere_area

# Radial node counts of the slice rule by n: chords at n = 2, disk radii at
# n = 3.  The rule is spectrally accurate but compactly supported bumps
# converge slowly enough that generous sizes are needed; 160 chords puts a
# width-0.7 bump at ~1e-11 absolute error, and 48 radii at ~2e-7.  The
# sampled forward takes at least n_radial nodes, which makes it exact.
SLICE_NODES = {2: 160, 3: 48}

_BACKPROJECT_CHUNK = 4096

# Most evaluator points one slice-quadrature call passes at once.  The bump
# evaluator's temporaries (120 kB each) then stay in the heap instead of
# faulting in fresh pages; below 1 << 13 the per-call overhead shows.
_QUADRATURE_POINTS = 1 << 14


def _barycentric_matrix(grid, query):
    """Matrix B with (B @ samples) the polynomial interpolant of the samples
    at the radial nodes u, evaluated at `query` points.  Their barycentric
    weights are (-1)^j sqrt(u_j (1 - u_j) lambda_j) in the Gauss-Jacobi
    weights lambda_j (Wang, Huybrechs & Vandewalle, Math. Comp. 83, 2014),
    so nothing overflows, unlike a product of node differences."""
    u = grid.u
    w = (-1.0) ** np.arange(u.size) * np.sqrt(u * (1.0 - u) * grid._radial_base)
    d = query[:, None] - u[None, :]
    hit = d == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        c = w[None, :] / d
    c = np.where(hit, 0.0, c)
    exact = hit.any(axis=1)
    denom = np.where(exact, 1.0, c.sum(axis=1))
    return np.where(exact[:, None], hit.astype(float), c / denom[:, None])


# -- the harmonic layer ---------------------------------------------------------


@lru_cache(maxsize=8)
def _legendre_table(grid):
    """P[j, l, p] = Pbar_l^j at the n = 3 polar node c_p (0 for l < j), read-only."""
    L = grid.n_polar
    P = np.zeros((L, L, L))
    for j in range(L):
        P[j, j:] = list(_norm_assoc_legendre(L - 1, j, grid.polar_cos))
    return _read_only(P)


def _analyse(grid, values):
    """Real harmonic coefficients (degrees, k, 2 orders) of `values`
    (n_ang_total, k): re and im of azimuthal rFFT order j in columns 2j, 2j + 1,
    one order (mode l) per degree at n = 2.  At n = 3 the weighted rFFT of each
    polar ring is summed against Pbar_l^j per order j, the semi-naive transform
    (Driscoll & Healy, Adv. Appl. Math. 15, 1994), exact to degree n_polar - 1."""
    if grid.spec.n == 2:
        modes = np.fft.rfft(values, axis=0)
        return np.stack([modes.real, modes.imag], axis=-1)
    L, k = grid.n_polar, values.shape[1]
    rings = values.reshape(L, 2 * L, k) * grid.polar_weight[:, None, None]
    modes = np.fft.rfft(rings, axis=1)[:, :L].transpose(1, 0, 2)
    coef = _legendre_table(grid) @ np.ascontiguousarray(modes).view(float)
    return coef.reshape(L, L, k, 2).transpose(1, 2, 0, 3).reshape(L, k, 2 * L)


def _synthesise(grid, coef):
    """Samples (n_ang_total, k) of the harmonics with coefficients `coef`, laid
    out as `_analyse` returns them; the inverse of `_analyse` on its band."""
    if grid.spec.n == 2:
        return np.fft.irfft(coef[..., 0] + 1j * coef[..., 1], n=grid.n_ang_total, axis=0)
    L, k = grid.n_polar, coef.shape[1]
    G = coef.reshape(L, k, L, 2).transpose(2, 0, 1, 3).reshape(L, L, 2 * k)
    rings = (_legendre_table(grid).transpose(0, 2, 1) @ G).view(complex)
    return np.fft.irfft(rings.transpose(1, 0, 2), n=2 * L, axis=1).reshape(-1, k)


def _zonal_table(n, lmax, x):
    """The zonal polynomials P_0 .. P_lmax of S^(n-1) at x, (lmax + 1,) + x.shape,
    with P_l(1) = 1: Chebyshev T_l at n = 2, Legendre P_l at n = 3.  By
    Funk-Hecke (Atkinson & Han, Spherical Harmonics and Approximations on the
    Unit Sphere, 2.5) a degree-l harmonic integrated against h(theta . omega)
    picks up P_l of the cosine."""
    P = np.empty((lmax + 1,) + x.shape)
    P[0] = 1.0
    if lmax >= 1:
        P[1] = x
    for l in range(1, lmax):
        P[l + 1] = ((2 * l + n - 2) * x * P[l] - l * P[l - 1]) / (l + n - 2)
    return P


def _kernel_degree(grid):
    """Top degree of the radial kernels `_harmonic_apply` takes: the last rFFT
    mode A/2 at n = 2, the band `_analyse` resolves, n_polar - 1, at n = 3."""
    return grid.n_ang_total // 2 if grid.spec.n == 2 else grid.n_polar - 1


def _harmonic_apply(grid, values, K):
    """Apply K[l], a matrix per angular harmonic degree l, to the harmonics of
    `values` (n_ang_total, K.shape[2]); returns (n_ang_total, K.shape[1]).

    The package's one angular operator, K acting on every order of a degree
    at once.  The sampled forward passes `_forward_kernel`; `john` and `ac`
    pass `_filter_kernel`, since -Delta R*g = R*(-g''); `hs` its annulus kernel.
    """
    return _synthesise(grid, K @ _analyse(grid, values))


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


def _slice_rule(n, e, count):
    """The radial rule of a slice's unit (n-1)-ball: nodes s_q and weights w_q
    with sum_q w_q g(s_q) = int g(|y|) (1 - |y|^2)^(e - 1/2) dy over the ball.

    n = 2: `count` signed Gauss-Jacobi chord nodes.  n = 3: `count` radii,
    Gauss-Jacobi in u = 2 s^2 - 1, each weight carrying its circle's 2 pi.
    Exact when g is a polynomial in s^2 of degree below `count`.
    """
    if n == 2:
        return _jacobi_rule(count, e - 0.5, e - 0.5)
    x, w = _jacobi_rule(count, e - 0.5, 0.0)
    return np.sqrt((x + 1.0) / 2.0), w * 2.0 ** (-(e + 0.5)) * math.pi


def _ball_rule(n, e):
    """Nodes Y (count, n-1) in the unit (n-1)-ball and weights W for the weight
    (1 - |y|^2)^(e - 1/2): the slice rule at n = 2, and at n = 3 its radii
    crossed with an even azimuth count, whose trapezoid rule kills every odd
    power of s exactly, which is what keeps low-degree polynomials exact.  The
    azimuthal direction converges much faster than the radial one for smooth
    integrands, so 2K/3 azimuths for K radii suffice.
    """
    K = SLICE_NODES[n]
    s, w = _slice_rule(n, e, K)
    if n == 2:
        return s[:, None], w
    kchi = max(2 * ((K + 2) // 3), 16)
    chi = 2.0 * np.pi * np.arange(kchi) / kchi
    Y = s[:, None, None] * np.stack([np.cos(chi), np.sin(chi)], axis=-1)
    return Y.reshape(-1, 2), np.repeat(w / kchi, kchi)


def _meets_support(ev, theta, t):
    """Mask (m, t.size) of the slices (theta_i, t_j) on which the evaluator ev,
    or the one it wraps (`__wrapped__`), may be nonzero: all of them unless it
    carries a `cap = (c, cos w)` outside which it vanishes.

    The slice is the (n-1)-sphere of radius sqrt(1 - t^2) about t theta, so the
    largest x . c on it is t a + sqrt(1 - t^2) sqrt(1 - a^2) with a = theta . c',
    the same for the reflected cap (c', -c_{n+1}).
    """
    cap = getattr(inspect.unwrap(ev), "cap", None)
    if cap is None:
        return np.ones((theta.shape[0], t.size), dtype=bool)
    c, cos_w = cap
    a = theta @ c[:-1]
    top = np.multiply.outer(a, t) + np.multiply.outer(
        np.sqrt(np.maximum(1.0 - a * a, 0.0)), np.sqrt(1.0 - t * t))
    return top > cos_w


def _slice_quadrature(f, theta, t):
    """Smooth part of V_+ f at the directions theta (m, n) and offsets t,
    shape (m, t.size), from f's evaluator.

    The chord (n = 2) or disk (n = 3) of the unit ball in the plane
    x' . theta = t has the points t theta + sqrt(1 - t^2) Y E(theta), with
    the rows of E(theta) spanning theta^perp.  There the lifted function's
    boundary factor is (1 - t^2)^(e - 1/2) (1 - |Y|^2)^(e - 1/2): the second
    is the weight of `_ball_rule`, the powers of 1 - t^2 are the stored
    boundary exponent e + (n-1)/2.  Only the slices that meet the evaluator's
    support (`_meets_support`) are evaluated, the others stay 0: one flat loop
    over them, one evaluator call per chunk of slices of at most
    `_QUADRATURE_POINTS` points (for the rules of `_ball_rule`), so the
    evaluator's temporaries stay small.  The weighted node sums are numpy's
    pairwise row sums, which do not depend on the chunking (a BLAS gemv over
    10-row chunks rounded about 20x worse on a sign-changing basis function).
    """
    n = f.spec.n
    Y, W = _ball_rule(n, f.boundary_exponent)
    if n == 2:
        E = np.stack([-theta[:, 1], theta[:, 0]], axis=-1)[:, None, :]
    else:
        E = np.stack(_frames(theta), axis=1)
    scale = np.sqrt(1.0 - t * t)
    rows, cols = np.nonzero(_meets_support(f.evaluator, theta, t))
    step = _QUADRATURE_POINTS // Y.shape[0]
    buf = np.empty((min(step, rows.size), Y.shape[0], n))
    out = np.zeros((theta.shape[0], t.size))
    for lo in range(0, rows.size, step):
        i, j = rows[lo:lo + step], cols[lo:lo + step]
        pts = buf[:i.size]
        # the slices come direction by direction: Y E(theta) once per run of
        # one direction (a batched product per slice costs more than the
        # evaluator of a constant at n = 2), scaled by each sqrt(1 - t^2)
        a = 0
        for b in np.append(np.flatnonzero(i[1:] != i[:-1]) + 1, i.size):
            np.multiply(Y @ E[i[a]], scale[j[a:b], None, None], out=pts[a:b])
            a = b
        # one component at a time: bitwise the broadcast add, and faster
        shift = t[j, None] * theta[i]
        for k in range(n):
            pts[..., k] += shift[:, k, None]
        out[i, j] = (np.asarray(f.evaluator(pts), dtype=float) * W).sum(axis=-1)
    return out


@lru_cache(maxsize=8)
def _forward_kernel(grid, exponent):
    """The radial kernel of the sampled forward, read-only: K[l, j, i] maps the
    samples at the radial nodes of a degree-l harmonic's profile, for smooth
    parts with boundary exponent `exponent`, to its slice integral at t_j.

    The profile is r^(l mod 2) times a polynomial in u = r^2, so the samples
    over r^(l mod 2) are interpolated in u (`_barycentric_matrix`) at each
    radius rho_q and multiplied back by rho_q^(l mod 2).  The slice node s_q
    at offset t lies at rho_q^2 = t^2 + (1 - t^2) s_q^2, at the cosine
    t / rho_q off the direction, so by Funk-Hecke degree l picks up
    P_l(t / rho_q) (the signed chord nodes cancel the sine part at n = 2).
    For band-limited samples the grid resolves the integrand is a polynomial
    in s^2 of degree below n_radial, so `_slice_rule` with at least n_radial
    nodes is exact for them on any grid.
    """
    n = grid.spec.n
    s, w = _slice_rule(n, exponent, max(SLICE_NODES[n], grid.spec.n_radial))
    lmax = _kernel_degree(grid)
    odd = np.arange(lmax + 1) % 2 == 1
    t = grid.t[:, None]
    rho2 = t * t + (1.0 - t * t) * s * s
    rho = np.sqrt(rho2)
    Z = _zonal_table(n, lmax, t / rho)
    Z[odd] *= rho
    Z *= w
    K = np.empty((lmax + 1, grid.spec.n_t, grid.spec.n_radial))
    for j in range(grid.spec.n_t):
        K[:, j] = Z[:, j] @ _barycentric_matrix(grid, rho2[j])
    K[odd] /= grid.r
    return _read_only(K)


def vslice_forward(f):
    """Half slice transform of an even sphere function, sampled on the grid.

    Computes F(theta_i, t_j) = sqrt(1 - t_j^2) * Radon(lift f)(theta_i, t_j).
    With an evaluator, the slice quadrature of `_slice_quadrature` runs over
    one direction per antipodal pair, and the partner gets the profile
    reversed in t: f is even, so F(-theta, -t) = F(theta, t) exactly.
    Sampled functions go through `_harmonic_apply` with `_forward_kernel`,
    exact for band-limited samples the grid resolves.  The stored boundary
    exponent rises by (n-1)/2, which is exact.
    """
    if not isinstance(f, SphereFunction):
        raise TypeError("vslice_forward expects a SphereFunction")
    grid = f.grid
    e = f.boundary_exponent
    if f.evaluator is None:
        out = _harmonic_apply(grid, f.smooth, _forward_kernel(grid, e))
    else:
        sel = np.arange(grid.n_ang_total) < grid.antipodal_index
        half = _slice_quadrature(f, grid.ang[sel], grid.t)
        out = np.empty((grid.n_ang_total, grid.spec.n_t))
        out[sel] = half
        out[grid.antipodal_index[sel]] = half[:, ::-1]
    return SliceData(grid, out, e + 0.5 * (f.spec.n - 1))


def _unit_direction(theta, n):
    """theta scaled to unit length; it must be a finite, nonzero n-vector."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (n,):
        raise ValueError("theta must have %d components" % n)
    norm = np.linalg.norm(theta)
    if not 0.0 < norm < math.inf:
        raise ValueError("theta must be finite and nonzero")
    return theta / norm


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
    n = f.spec.n
    theta = _unit_direction(theta, n)
    if chord_nodes is not None and chord_nodes < 1:
        raise ValueError("chord_nodes must be >= 1")
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
    xg, wg = _jacobi_rule(K, 0.0, 0.0)
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


def is_even_slice_data(F, tol=1e-12):
    """Whether F(-theta, -t) = F(theta, t) holds to a relative tolerance.

    Slice transforms of even sphere functions always satisfy this; measured
    data satisfy it only up to their noise.  A diagnostic only: the odd part
    of any data cancels in every backprojection, because `dual_radon` folds
    antipodal pairs and the harmonic kernel of the filtered routes is even
    under (theta, t) -> (-theta, -t).
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
    nodes (`_node_spline`, the interpolant the n = 2 filters act on, so this
    is their spatial reference), pinned to zero at t = +-1 and zero outside
    (-1, 1), where slice data of integrable functions vanishes.  It sums one
    direction per antipodal pair with the folded profile
    F(theta, t) + F(-theta, -t), exact for any data (the odd part cancels):
    the folded profiles times the cardinal table are the knot values and
    second derivatives `_spline` evaluates, formed from F's values on every
    call.  Accepts a single point or an array of points (..., n).
    """
    if not isinstance(F, SliceData):
        raise TypeError("dual_radon expects SliceData")
    pts = np.asarray(xprime, dtype=float)
    if pts.shape[-1] != F.spec.n:
        raise ValueError("point dimension does not match the grid")
    grid = F.grid
    sel = np.arange(grid.n_ang_total) < grid.antipodal_index
    ang = grid.ang[sel]
    w = grid.ang_weight[sel] / sphere_area(grid.spec.n)
    values = F.values
    folded = values[sel] + values[grid.antipodal_index[sel]][:, ::-1]
    x, y, m = _node_spline(grid.t)
    y, m = folded @ y, folded @ m
    flat = pts.reshape(-1, pts.shape[-1])
    out = np.empty(flat.shape[0])
    for lo in range(0, flat.shape[0], _BACKPROJECT_CHUNK):
        S = ang @ flat[lo:lo + _BACKPROJECT_CHUNK].T
        out[lo:lo + _BACKPROJECT_CHUNK] = w @ _spline(x, y, m, S)
    return float(out[0]) if pts.ndim == 1 else out.reshape(pts.shape[:-1])


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
    """(x, y, m): the natural cubic splines through the nodes t, one row per
    node, as a table on the knots x = [-1, t, 1].  Row k (the cardinal spline
    of node k) has the knot values y[k], 1 at t_k and 0 at every other knot,
    so every spline is pinned to zero at +-1, and the knot second derivatives
    m[k], zero at +-1 (natural) and inside from one tridiagonal solve of the
    continuity of g'.  `_spline` evaluates it."""
    x = np.concatenate(([-1.0], t, [1.0]))
    h = np.diff(x)
    g = 1.0 / h
    A = np.diag(2.0 * (h[:-1] + h[1:])) + np.diag(h[1:-1], 1) + np.diag(h[1:-1], -1)
    D = np.diag(-g[:-1] - g[1:]) + np.diag(g[1:-1], 1) + np.diag(g[1:-1], -1)
    m = np.zeros((t.size, x.size))
    m[:, 1:-1] = np.linalg.solve(A, 6.0 * D).T
    return x, np.eye(t.size, x.size, 1), m


def _spline(x, y, m, s, nu=0):
    """Value (nu = 0) or slope (nu = 1) at s, clamped to [x[0], x[-1]], of the
    cubic splines with knot values y and knot second derivatives m on the
    knots x, the last axis of y and m (the table of `_node_spline`, or
    combinations of its rows).  A 1-d s is shared by every spline and gives
    y.shape[:-1] + s.shape; otherwise s has one row per spline."""
    s = np.clip(s, x[0], x[-1])
    i = np.clip(np.searchsorted(x, s, side="right") - 1, 0, x.size - 2)
    lo, hi = x[i], x[i + 1]
    h = hi - lo
    a = (hi - s) / h
    b = (s - lo) / h
    if s.ndim == 1:
        y0, y1, m0, m1 = y[..., i], y[..., i + 1], m[..., i], m[..., i + 1]
    else:
        y0, y1, m0, m1 = (np.take_along_axis(v, j, axis=-1) for v in (y, m) for j in (i, i + 1))
    if nu == 0:
        w = a, b, (a * a - 1.0) * a * (h * h / 6.0), (b * b - 1.0) * b * (h * h / 6.0)
    else:
        w = -1.0 / h, 1.0 / h, (1.0 - 3.0 * a * a) * (h / 6.0), (3.0 * b * b - 1.0) * (h / 6.0)
    return w[0] * y0 + w[1] * y1 + w[2] * m0 + w[3] * m1


def _log_filter_matrix(t, s):
    """-d^2/ds^2 of (Lg)(s) = int log|s - u| g(u) du as a matrix on node values.

    g is the natural cubic spline of `_node_spline`.  Its g'' is piecewise
    linear between its knot values m, so (Lg)'' = L(g'') + g'(-1) log|s+1| -
    g'(1) log|s-1| is exact with the closed-form log moments.
    """
    x, y, m = _node_spline(t)
    d1 = _spline(x, y, m, np.array([-1.0, 1.0]), 1)
    W = _log_moment_matrix(x, s)
    return (
        -W @ m.T
        - np.log(np.abs(s + 1.0))[:, None] * d1[:, 0]
        + np.log(np.abs(s - 1.0))[:, None] * d1[:, 1]
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


@lru_cache(maxsize=16)
def _funk_hecke_rule(grid):
    """(c, wP): cosines c_q, exactly antisymmetric in q, and weights wP[l, q],
    read-only, such that for every angular harmonic Y of degree l

        (1/sigma_{n-1}) int h(theta . omega) Y(theta) dtheta
            = Y(omega) sum_q wP[l, q] h(c_q)

    (Funk-Hecke), with wP[l, q] = w_q P_l(c_q) by `_zonal_table`.  n = 2: the
    circle angles 2 pi q / A, q = 0..A/2, weighted 1/A with the partner A - q
    folded into the weight, so at grid directions the mode sum is the
    trapezoid direction sum exactly.  n = 3: 2 n_t Gauss-Legendre nodes
    weighted w_q / 2, for l <= n_polar - 1, the band the grid's harmonic
    analysis is exact for.
    """
    n = grid.spec.n
    if n == 2:
        A = grid.n_ang_total
        q = np.arange(A // 2 + 1)
        c = _symmetrize(np.cos(2.0 * np.pi * q / A))
        w = np.where((q == 0) | (2 * q == A), 1.0, 2.0) / A
    else:
        c, w = _jacobi_rule(2 * grid.spec.n_t, 0.0, 0.0)
        c = _symmetrize(c)
        w = 0.5 * w
    return _read_only((c, _zonal_table(n, _kernel_degree(grid), c) * w))


def _kernel_offsets(grid):
    """The offsets r_j c_q at which every t-filter is sampled, (n_radial, Q)."""
    return np.outer(grid.r, _funk_hecke_rule(grid)[0])


def _radial_kernel(grid, M):
    """K[l, j, k] = sum_q wP[l, q] M[j, q, k], where M[j, q, k] is
    the filtered profile of node k's cardinal function at the offset r_j c_q.
    M is first made exact under (c, t) -> (-c, -t), like the nodes, so the odd
    part of the data cancels to rounding (the n = 2 log filter at c and -c
    differs by about 1e-10)."""
    M = 0.5 * (M + M[:, ::-1, ::-1])
    return np.tensordot(_funk_hecke_rule(grid)[1], M, axes=(1, 1))


@lru_cache(maxsize=8)
def _filter_kernel(grid, exponent):
    """The radial kernel of john's t-filter for plane data with boundary
    exponent `exponent`: -d^2/ds^2 for n = 3, where the exponent enters, and
    -d^2/ds^2 of the log convolution for n = 2, where it does not (pass None,
    so one kernel serves every exponent); sampled at every offset in one call."""
    s = _kernel_offsets(grid)
    M = (_log_filter_matrix(grid.t, s.ravel()) if grid.spec.n == 2
         else _plane_filter_matrix(grid.t, s.ravel(), exponent))
    return _read_only(_radial_kernel(grid, M.reshape(s.shape + (-1,))))


# -- spherical means -----------------------------------------------------------


def spherical_mean(f, theta, t):
    """Mean of f over the full vertical slice at (theta, t).

    Equals (Vf)(theta, t) (1-t^2)^((1-n)/2) / sigma_{n-1} with V = 2 V_+,
    from the slice quadrature of the forward map at this one (theta, t).
    Requires a phantom with an evaluator.
    """
    if not isinstance(f, SphereFunction):
        raise TypeError("spherical_mean expects a SphereFunction")
    if f.evaluator is None:
        raise ValueError("spherical_mean needs a phantom with an evaluator")
    t = float(t)
    if abs(t) >= 1.0:
        raise ValueError("need |t| < 1")
    theta = _unit_direction(theta, f.spec.n)
    smooth = _slice_quadrature(f, theta[None, :], np.array([t]))[0, 0]
    return 2.0 * smooth * (1.0 - t * t) ** f.boundary_exponent / sphere_area(f.spec.n)


def log_kernel_identity(num_nodes=1 << 20):
    """Gauss-Chebyshev value of (1/pi) int_{-1}^1 log|t| / sqrt(1-t^2) dt.

    The exact value is -log 2; the quadrature error is log(2)/num_nodes, so
    the default node count lands within 1e-6.
    """
    k = np.arange(num_nodes)
    t = np.cos((2.0 * k + 1.0) * np.pi / (2.0 * num_nodes))
    return float(np.mean(np.log(np.abs(t))))
