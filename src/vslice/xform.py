"""Forward and dual integral operators on vertical slice data.

The forward map sends an even function on the sphere to its integrals over
the vertical half slices indexed by an equatorial direction theta and an
offset t.  In the upper-hemisphere chart that integral factors through the
hyperplane Radon transform of the lifted ball function, which is what the
production path computes, in the harmonic layer.  By Funk-Hecke a degree-l
harmonic integrated over a slice, or backprojected, picks up the zonal
polynomial of a cosine (`_zonal_table`: T_l at n = 2, Legendre P_l at
n = 3), so the forward and the backprojection of t-filtered profiles are one
radial matrix per harmonic degree, which `_harmonic_apply` applies between
`_analyse` (an azimuthal rFFT, then a weighted Legendre sum per order at
n = 3, whose coefficients stay order-major; svd's expansions use it too) and
`_synthesise`.  The forward's matrix
(`_forward_kernel`) folds the slice rule `_slice_rule` (signed chord nodes at
n = 2, disk radii at n = 3) and the radial interpolation in u = r^2; its
rule grows with n_radial, so it is exact for every band-limited sample the
grid resolves.  Sampled functions, singular basis functions among them, go
through it on their own grid.  A function with an evaluator (the bump,
constant and axial-power phantoms) is sampled on a finer chart first
(`FINE_CHART`), which removes the aliasing of the grid's samples, and the
result is synthesised at the grid's directions.  The evaluator may carry a
`cap` (the bump's does, see `harness._bump_evaluator`) outside which it
vanishes: it is asked only for the fine chart's radial windows whose lift
may meet the cap (`_cap_windows`), the harmonic layer takes only the radial
columns before the last window's end (the rest are 0 in every direction),
and the slices that miss the cap (`_meets_support`) are set to exactly 0.
The slice {x . theta = t} is the slice {x . (-theta) = -t}, so the forward
integrates only the offsets t >= 0, at every direction, and reads each
t < 0 from the antipode.  ``vslice_direct`` quadratures the slice integral
from scratch in a different chart and serves as the independent oracle;
`spherical_mean` is its V = 2 V_+ rescaling.

Also here: the dual (backprojection) operator `dual_radon`, the spatial
oracle, and the t-filter kernels of the filtered routes: `john` and `ac`
pass -d^2/dt^2 (after a log convolution when n = 2), `hs` its annulus
multiplier.  The same slice symmetry halves them: only the even part
F(theta, t) + F(-theta, -t) of slice data reaches a backprojection, so the
filtered routes fold the data onto the offsets t >= 0 (`_fold`) and their
kernels keep only those columns (`_radial_kernel`).  The n = 2 filters and
`dual_radon` act on one interpolant of the t-profiles, the natural cubic
spline through the nodes pinned to zero at t = +-1: `_node_spline` builds it
once as a table (knot values and knot second derivatives) and `_spline` is
its one evaluator.
"""
import inspect
import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.chebyshev import chebder, chebvander

from .grid import (
    GridSpec, SliceData, SphereFunction, _is_integer, _jacobi_rule, _read_only, _symmetrize,
    make_grid,
)
from .specfun import _gegenbauer_table, _norm_assoc_legendre, sphere_area

# Floor of the fine chart an evaluator is sampled on (`_fine_grid`), by n:
# (angles, radii), the circle's angles at n = 2 and polar nodes at n = 3.
# On it the bump phantoms' forward is within 2e-8 of the peak of the
# benchmark's oracle on every grid tested; plain multiples of the grid's
# counts are not enough on small grids (2x the radii at n = 2 reads 9.4e-5
# on GridSpec(2, 64, 24, 32)).
FINE_CHART = {2: (256, 192), 3: (96, 144)}

# Most chart points one evaluator call is passed: the forward samples the
# fine chart, and `vslice_direct` its slices, in chunks of this many, so the
# evaluator's temporaries stay small however large the chart or the table.
_EVALUATOR_POINTS = 1 << 16

_BACKPROJECT_CHUNK = 4096


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
def _legendre_table(grid, at):
    """P[j, l, p] = Pbar_l^j (0 for l < j) for the orders j and degrees l of
    the n = 3 grid at the polar node c_p of the grid `at` (grid itself for
    its own transforms), read-only."""
    L = grid.n_polar
    c = at.polar_cos
    P = np.zeros((L, L, c.size))
    for j in range(L):
        P[j, j:] = list(_norm_assoc_legendre(L - 1, j, c))
    return _read_only(P)


@lru_cache(maxsize=8)
def _analysis_table(grid):
    """A[j, l, p] = w_p Pbar_l^j(c_p): `_legendre_table(grid, grid)` with the
    polar weights folded in, the n = 3 grid's analysis sum, read-only."""
    return _read_only(_legendre_table(grid, grid) * grid.polar_weight)


def _analyse(grid, values):
    """Real harmonic coefficients of `values` (n_ang_total, k), re and im of
    each azimuthal order last.  n = 2: (degrees, k, 2), one rFFT order (mode l)
    per degree.  n = 3: order-major C[j, l, k, re/im], zero for l < j: the rFFT
    of each polar ring summed against w_p Pbar_l^j per order j
    (`_analysis_table`), the semi-naive transform (Driscoll & Healy, Adv. Appl.
    Math. 15, 1994), exact to degree n_polar - 1."""
    if grid.spec.n == 2:
        modes = np.fft.rfft(values, axis=0)
        return np.stack([modes.real, modes.imag], axis=-1)
    L, k = grid.n_polar, values.shape[1]
    modes = np.fft.rfft(values.reshape(L, 2 * L, k), axis=1).view(float)[:, :L]
    return (_analysis_table(grid) @ modes.transpose(1, 0, 2)).reshape(L, L, k, 2)


def _synthesise(grid, coef, at=None):
    """Samples (n_ang_total, k) of the harmonics with coefficients `coef`, laid
    out as `_analyse` returns them (at n = 3 (j, l, k, re/im), whose l < j
    entries must be 0); the inverse of `_analyse` on its band.

    With `at`, a grid whose azimuths are every step-th of grid's (`_fine_grid`
    makes them), the samples at at's directions instead: at n = 2 every
    step-th direction, at n = 3 the Legendre sums at at's polar cosines
    (`_legendre_table(grid, at)`), aliased onto at's azimuths (`_alias`)
    and synthesised there only.
    """
    at = grid if at is None else at
    if grid.spec.n == 2:
        out = np.fft.irfft(coef[..., 0] + 1j * coef[..., 1], n=grid.n_ang_total, axis=0)
        return out[::grid.n_ang_total // at.n_ang_total]
    L, k = grid.n_polar, coef.shape[2]
    modes = (_legendre_table(grid, at).transpose(0, 2, 1) @ coef.reshape(L, L, 2 * k)).view(complex)
    if at.n_azim < grid.n_azim:
        modes = _alias(modes, at.n_azim)
    return np.fft.irfft(modes.transpose(1, 0, 2), n=at.n_azim, axis=1).reshape(-1, k)


def _alias(modes, m):
    """The rFFT modes, orders 0..m/2 on axis 0, of every (N/m)-th sample of
    the real sequence of length N = 2 L whose modes are `modes` (orders
    0..L-1 on axis 0, order L zero), m dividing N: each two-sided order i,
    the conjugate of order N - i above L, adds to order i mod m, all scaled
    by m / N.  One length-m irfft then gives the kept samples only."""
    L, h = modes.shape[0], m // 2
    N = 2 * L
    out = np.zeros((h + 1,) + modes.shape[1:], complex)
    for lo in range(0, N, m):
        hi = lo + h + 1  # the two-sided orders [lo, hi) add to orders 0..h
        if lo < L:
            out[:min(hi, L) - lo] += modes[lo:hi]
        a = max(lo, L + 1)
        if a < hi:
            out[a - lo:] += modes[N - a:N - hi:-1].conj()
    return out * (m / N)


def _zonal_table(n, lmax, x):
    """The zonal polynomials P_0 .. P_lmax of S^(n-1) at x, (lmax + 1,) + x.shape,
    with P_l(1) = 1: Chebyshev T_l at n = 2, Legendre P_l at n = 3.  By
    Funk-Hecke (Atkinson & Han, Spherical Harmonics and Approximations on the
    Unit Sphere, 2.5) a degree-l harmonic integrated against h(theta . omega)
    picks up P_l of the cosine.  Legendre P_l is the Gegenbauer C_l^(1/2)."""
    if n == 3:
        return _gegenbauer_table(lmax, 0.5, x)
    P = np.empty((lmax + 1,) + x.shape)
    P[0] = 1.0
    if lmax >= 1:
        P[1] = x
    for l in range(1, lmax):
        # T_(l+1) = 2 x T_l - T_(l-1), rounded as the kernels have always been
        P[l + 1] = (2 * l * x * P[l] - l * P[l - 1]) / l
    return P


def _kernel_degree(grid):
    """Top degree of the radial kernels `_harmonic_apply` takes: the last rFFT
    mode A/2 at n = 2, the band `_analyse` resolves, n_polar - 1, at n = 3."""
    return grid.n_ang_total // 2 if grid.spec.n == 2 else grid.n_polar - 1


def _harmonic_apply(grid, values, K, at=None):
    """Apply K[l], a matrix per angular harmonic degree l, to the harmonics of
    `values` (n_ang_total, K.shape[2]); returns (n_ang_total, K.shape[1]), at
    the directions of `at` if given (see `_synthesise`).

    The package's one angular operator, K[l] acting on every order of degree l
    at once; at n = 3 on the orders j <= l only, one order's degrees per
    product, so the zero triangle l < j of the coefficients is never
    multiplied.  The forward passes the t >= 0 rows of `_forward_kernel`,
    for an evaluator on the fine chart, cut to `_sample`'s columns and
    synthesised at the grid's directions; `john` and `ac` pass
    `_filter_kernel`, since -Delta R*g = R*(-g''); `hs` its annulus kernel.
    """
    coef = _analyse(grid, values)
    if grid.spec.n == 2:
        return _synthesise(grid, K @ coef, at)
    out = np.zeros(coef.shape[:2] + (K.shape[1], 2))
    for j in range(coef.shape[0]):
        np.matmul(K[j:], coef[j, j:], out=out[j, j:])
    return _synthesise(grid, out, at)


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


@lru_cache(maxsize=8)
def _forward_kernel(grid, exponent):
    """The radial kernel of the forward, read-only: K[l, j, i] maps the
    samples at the radial nodes of a degree-l harmonic's profile, for smooth
    parts with boundary exponent `exponent`, to its slice integral at t_j.

    The profile is r^(l mod 2) times a polynomial in u = r^2, so the samples
    over r^(l mod 2) are interpolated in u (`_barycentric_matrix`) at each
    radius rho_q and multiplied back by rho_q^(l mod 2).  The slice node s_q
    at offset t lies at rho_q^2 = t^2 + (1 - t^2) s_q^2, at the cosine
    t / rho_q off the direction, so by Funk-Hecke degree l picks up
    P_l(t / rho_q) (the signed chord nodes cancel the sine part at n = 2).
    For band-limited samples the grid resolves the integrand is a polynomial
    in s^2 of degree below n_radial, so `_slice_rule` with n_radial nodes is
    exact for them on any grid.
    """
    n = grid.spec.n
    s, w = _slice_rule(n, exponent, grid.spec.n_radial)
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


def _fine_grid(grid):
    """The grid an evaluator is sampled on for grid's forward: at least
    `FINE_CHART` angles and radii, and grid's own counts where they are
    larger, the angles a multiple of grid's so that grid's azimuths are every
    step-th fine one (`_synthesise` with `at`).  Same t nodes."""
    spec = grid.spec
    angles, radii = FINE_CHART[spec.n]
    step = -(-angles // spec.n_angular)
    return make_grid(GridSpec(spec.n, step * spec.n_angular, max(radii, spec.n_radial), spec.n_t))


def _cap_windows(grid, cap):
    """Radial node windows [k0, k1), (n_ang_total,) each, outside which the
    lift (r theta, sqrt(1 - r^2)) of every node misses the cap (c, cos w) and
    its reflection (c', -c_{n+1}); k0 = k1 = 0 where the whole ray misses both.

    With r = sin(beta) on the ray, x . c = r a + sqrt(1 - r^2) z = R cos(beta
    - delta), where a = theta . c', R = |(a, z)|, delta = atan2(a, z) and
    z = +-c_{n+1} for the two caps: each meets the ray on the arc |beta -
    delta| < arccos(cos w / R) (mod 2 pi) within [0, pi/2].  The window is the
    hull of both arcs' nodes, widened by one node on each side for rounding.
    """
    c, cos_w = cap
    a = grid.ang @ c[:-1]
    R = np.hypot(a, c[-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        half = np.arccos(np.clip(cos_w / R, -1.0, 1.0))
    meets = R > cos_w
    lo, hi = np.full(a.shape, np.inf), np.full(a.shape, -np.inf)
    for z in (c[-1], -c[-1]):
        delta = np.arctan2(a, z)
        for mid in (delta, delta + 2.0 * np.pi):
            b0, b1 = np.maximum(mid - half, 0.0), np.minimum(mid + half, 0.5 * np.pi)
            arc = meets & (b0 <= b1)
            lo, hi = np.where(arc, np.minimum(lo, b0), lo), np.where(arc, np.maximum(hi, b1), hi)
    beta = np.arcsin(grid.r)
    k0 = np.maximum(np.searchsorted(beta, lo, "right") - 1, 0)
    k1 = np.minimum(np.searchsorted(beta, hi, "left") + 1, beta.size)
    hit = lo <= hi
    return np.where(hit, k0, 0), np.where(hit, k1, 0)


def _slabs(k0, k1, size):
    """(rows, lo, hi) covering every direction's window [k0, k1) once: the
    directions sorted by window, runs of equal windows merged while rows x
    (hi - lo) of their hull [lo, hi) stays within `size`, each slab then split
    into pieces of at most `size` points (or one direction); none when every
    window is empty."""
    rows = np.flatnonzero(k1 > k0)
    if rows.size == 0:
        return
    rows = rows[np.lexsort((k1[rows], k0[rows]))]
    s0, s1 = k0[rows], k1[rows]
    bounds = np.r_[0, np.flatnonzero((np.diff(s0) != 0) | (np.diff(s1) != 0)) + 1, rows.size]
    slabs = []  # [first, stop, lo, hi], positions in the sorted rows
    for b, e in zip(bounds[:-1], bounds[1:]):
        if slabs:
            first, _, lo, hi = slabs[-1]
            if (e - first) * (max(hi, s1[b]) - lo) <= size:
                slabs[-1] = [first, e, lo, max(hi, s1[b])]
                continue
        slabs.append([b, e, s0[b], s1[b]])
    for b, e, lo, hi in slabs:
        step = max(1, size // (hi - lo))
        for i in range(b, e, step):
            yield rows[i:min(i + step, e)], lo, hi


def _sample(ev, grid):
    """The evaluator ev at grid's ball chart nodes, radial columns [0, top)
    only, (n_ang_total, top).

    The points are `grid.ball_points`, bitwise, which are never all formed:
    each call takes a slab of directions and one window of radial nodes,
    at most `_EVALUATOR_POINTS` points, each node once, written one
    coordinate at a time.  An evaluator, or the one it wraps, that carries a
    `cap` (see `_meets_support`) is asked only for the nodes in its
    directions' `_cap_windows`, every other entry is +0.0, and top is the
    last window's end (0 when no ray meets the cap): the columns left out
    are +0.0 in every direction.  Without a cap every direction's whole ray
    is asked for, and top = n_radial.
    """
    n, n_radial = grid.spec.n, grid.spec.n_radial
    cap = getattr(inspect.unwrap(ev), "cap", None)
    if cap is None:
        k0, k1 = np.zeros(grid.n_ang_total, int), np.full(grid.n_ang_total, n_radial)
    else:
        k0, k1 = _cap_windows(grid, cap)
    out = np.zeros((grid.n_ang_total, k1.max()))
    for rows, lo, hi in _slabs(k0, k1, _EVALUATOR_POINTS):
        p = np.empty((rows.size, hi - lo, n))
        for i in range(n):
            np.multiply(grid.ang[rows, i, None], grid.r[None, lo:hi], out=p[..., i])
        out[rows, lo:hi] = ev(p)
    return out


def vslice_forward(f):
    """Half slice transform of an even sphere function, sampled on the grid.

    Computes F(theta_i, t_j) = sqrt(1 - t_j^2) * Radon(lift f)(theta_i, t_j)
    with `_harmonic_apply` and `_forward_kernel`, exact for band-limited
    samples the grid resolves.  Sampled functions take it on their own
    samples.  A function with an evaluator takes it on the evaluator's
    samples at the nodes of the finer `_fine_grid`, radial columns [0, top)
    only (`_sample`) with the kernel's columns to match, synthesised at the
    grid's directions, its slices that miss the evaluator's support
    (`_meets_support`) set to +0.0.  Either way only the kernel's rows
    t_j >= 0 are applied, at every direction: the t nodes are exactly
    antisymmetric and the slice (theta, -t) is the slice (-theta, t), so
    each direction's t < 0 half is the antipode's t > 0 half reversed, and
    F(-theta, -t) = F(theta, t) exactly.  At t = 0 (odd n_t) each antipodal
    pair takes its first direction's value.  The stored boundary exponent
    rises by (n-1)/2, which is exact.
    """
    if not isinstance(f, SphereFunction):
        raise TypeError("vslice_forward expects a SphereFunction")
    grid = f.grid
    e = f.boundary_exponent
    n_t = grid.spec.n_t
    h = n_t // 2
    if f.evaluator is None:
        G = _harmonic_apply(grid, f.smooth, _forward_kernel(grid, e)[:, h:])
    else:
        fine = _fine_grid(grid)
        values = _sample(f.evaluator, fine)
        K = _forward_kernel(fine, e)[:, h:, :values.shape[1]]
        G = _harmonic_apply(fine, values, K, grid)
        G = np.where(_meets_support(f.evaluator, grid.ang, grid.t[h:]), G, 0.0)
    out = np.empty((grid.n_ang_total, n_t))
    out[:, h:] = G
    out[:, :h] = G[grid.antipodal_index, n_t - 2 * h:][:, ::-1]
    if n_t % 2:
        # t = 0 is its own mirror: each antipodal pair takes its first direction's value
        out[:, h] = G[np.minimum(np.arange(grid.n_ang_total), grid.antipodal_index), 0]
    return SliceData(grid, out, e + 0.5 * (f.spec.n - 1))


def _unit_directions(theta, n):
    """theta (..., n) scaled to unit length; every row must be a finite,
    nonzero n-vector."""
    theta = np.asarray(theta, dtype=float)
    if theta.ndim == 0 or theta.shape[-1] != n:
        raise ValueError("theta must have %d components" % n)
    norm = np.linalg.norm(theta, axis=-1, keepdims=True)
    if not np.all((0.0 < norm) & (norm < math.inf)):
        raise ValueError("theta must be finite and nonzero")
    return theta / norm


def vslice_direct(f, theta, t, chord_nodes=None):
    """Direct quadrature of the half-slice integral; the independent oracle.

    Parametrizes the slice {x . theta = t} itself and integrates the full
    function values r * int f(t theta + y, sqrt(r^2 - |y|^2)) / sqrt(r^2-|y|^2) dy
    without the lift/Radon factorization, the analytic boundary split or the
    harmonic layer the production path uses: Gauss-Chebyshev chord nodes at
    n = 2, Gauss-Legendre heights crossed with azimuths at n = 3.  Requires a
    phantom with an evaluator.

    theta is one direction (n,) or an array of them (..., n), and t broadcasts
    against theta.shape[:-1]; one slice gives a float, otherwise an array of
    the broadcast shape.  Slices go to the evaluator in chunks of at most
    `_EVALUATOR_POINTS` points (one slice if it has more).
    """
    if not isinstance(f, SphereFunction):
        raise TypeError("vslice_direct expects a SphereFunction")
    if f.evaluator is None:
        raise ValueError("vslice_direct needs a phantom with an evaluator")
    t = np.asarray(t, dtype=float)
    if not np.all(np.abs(t) < 1.0):
        raise ValueError("need |t| < 1")
    n = f.spec.n
    theta = _unit_directions(theta, n)
    if chord_nodes is not None and not (_is_integer(chord_nodes) and chord_nodes >= 1):
        raise ValueError("chord_nodes must be an integer >= 1")
    shape = np.broadcast_shapes(theta.shape[:-1], t.shape)
    theta = np.broadcast_to(theta, shape + (n,)).reshape(-1, n)
    t = np.broadcast_to(t, shape).ravel()
    # slice i has the points t_i theta_i + r_i Y E_i, E_i spanning theta_i^perp,
    # and the integral r_i^(n-1+2e) sum_q W_q f(...), W_q carrying the node's
    # squared last coordinate over r_i^2 to the power e
    e = f.boundary_exponent
    if n == 2:
        Q = chord_nodes or 256
        Y = np.cos((2.0 * np.arange(Q) + 1.0) * np.pi / (2.0 * Q))[:, None]
        W = np.pi / Q * (1.0 - Y[:, 0] ** 2) ** e
        E = np.stack([-theta[:, 1], theta[:, 0]], axis=-1)[:, None, :]
    else:
        K = chord_nodes or 96
        xg, wg = _jacobi_rule(K, 0.0, 0.0)
        v = (xg + 1.0) / 2.0
        chi = np.pi * np.arange(2 * K) / K
        Y = (np.sqrt(1.0 - v * v)[:, None, None]
             * np.stack([np.cos(chi), np.sin(chi)], axis=-1)).reshape(-1, 2)
        W = np.repeat(wg * np.pi / (2 * K) * v ** (2.0 * e), 2 * K)
        E = np.stack(_frames(theta), axis=1)
    r = np.sqrt(1.0 - t * t)
    out = np.empty(t.size)
    step = max(1, _EVALUATOR_POINTS // Y.shape[0])
    for lo in range(0, t.size, step):
        i = slice(lo, lo + step)
        pts = t[i, None, None] * theta[i, None, :] + r[i, None, None] * (Y @ E[i])
        out[i] = r[i] ** (n - 1 + 2.0 * e) * (np.asarray(f.evaluator(pts), dtype=float) * W).sum(-1)
    return float(out[0]) if shape == () else out.reshape(shape)


# -- dual transform ------------------------------------------------------------


def is_even_slice_data(F, tol=1e-12):
    """Whether F(-theta, -t) = F(theta, t) holds to a relative tolerance.

    Slice transforms of even sphere functions always satisfy this; measured
    data satisfy it only up to their noise.  A diagnostic only: the odd part
    of any data cancels exactly in every backprojection, because
    `dual_radon` folds antipodal pairs and the filtered routes fold the data
    onto t >= 0 (`_fold`) before any arithmetic.
    """
    if not isinstance(F, SliceData):
        raise TypeError("is_even_slice_data expects SliceData")
    return _asymmetry(F) <= tol


def _asymmetry(F):
    """max |F(theta, t) - F(-theta, -t)| / max |F|, and 0 for all-zero data."""
    scale = np.max(np.abs(F.values))
    if scale == 0.0:
        return 0.0
    flipped = F.values[F.grid.antipodal_index][:, ::-1]
    return float(np.max(np.abs(F.values - flipped)) / scale)


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
    """K[l, j, i] = sum_q wP[l, q] M[j, q, h + i], h = n_t // 2, where
    M[j, q, k] is the filtered profile of node k's cardinal function at the
    offset r_j c_q: the columns t_k >= 0 only, (degrees, n_radial, n_t - h),
    for the data `_fold` makes.  M is first made exact under (c, t) -> (-c,
    -t), like the nodes (the n = 2 log filter at c and -c differs by about
    1e-10), so the full kernel's column n_t - 1 - k would be (-1)^l times
    column k up to rounding, and applying it to the data's even part is
    applying these columns to the folded data."""
    n_t = M.shape[2]
    h = n_t // 2
    M = 0.5 * (M[:, :, h:] + M[:, ::-1, n_t - 1 - h::-1])
    return np.tensordot(_funk_hecke_rule(grid)[1], M, axes=(1, 1))


def _fold(grid, values):
    """The folded data (F(theta, t) + F(-theta, -t))[:, h:], h = n_t // 2, of
    values (n_ang_total, n_t), the t = 0 column of an odd n_t halved (it is
    its own mirror): the even part of F on the offsets t >= 0, twice over,
    which the half-width kernels of `_radial_kernel` act on.  The odd part
    of F reaches no backprojection and is exactly 0 here."""
    n_t = values.shape[1]
    h = n_t // 2
    out = values[:, h:] + values[grid.antipodal_index, n_t - 1 - h::-1]
    if n_t % 2:
        out[:, 0] *= 0.5
    return out


@lru_cache(maxsize=8)
def _filter_kernel(grid, exponent):
    """The radial kernel of john's t-filter for plane data with boundary
    exponent `exponent`: -d^2/ds^2 for n = 3, where the exponent enters, and
    -d^2/ds^2 of the log convolution for n = 2, where it does not (pass None,
    so one kernel serves every exponent).  The offsets are antisymmetric in q,
    so the filter is sampled in one call at columns q <= Q - 1 - q only and
    reflected, M[j, Q-1-q, k] = M[j, q, n_t-1-k], onto the other half.  The
    kernel is (degrees, n_radial, n_t - n_t // 2), read-only: the columns
    t >= 0 of `_radial_kernel`, for `_fold`ed data."""
    s = _kernel_offsets(grid)
    half = s[:, : (s.shape[1] + 1) // 2]
    M = (_log_filter_matrix(grid.t, half.ravel()) if grid.spec.n == 2
         else _plane_filter_matrix(grid.t, half.ravel(), exponent)).reshape(half.shape + (-1,))
    M = np.concatenate([M, M[:, : s.shape[1] // 2][:, ::-1, ::-1]], axis=1)
    return _read_only(_radial_kernel(grid, M))


# -- spherical means -----------------------------------------------------------


def spherical_mean(f, theta, t):
    """Mean of f over the full vertical slice at (theta, t).

    Equals (Vf)(theta, t) (1-t^2)^((1-n)/2) / sigma_{n-1} with V = 2 V_+, from
    the direct quadrature `vslice_direct`, whose shapes and checks it shares.
    Requires a phantom with an evaluator.
    """
    if not isinstance(f, SphereFunction):
        raise TypeError("spherical_mean expects a SphereFunction")
    if f.evaluator is None:
        raise ValueError("spherical_mean needs a phantom with an evaluator")
    n = f.spec.n
    V = 2.0 * vslice_direct(f, theta, t)
    return V / (sphere_area(n) * (1.0 - np.square(t)) ** ((n - 1) / 2))


def log_kernel_identity(num_nodes=1 << 20):
    """Gauss-Chebyshev value of (1/pi) int_{-1}^1 log|t| / sqrt(1-t^2) dt.

    The exact value is -log 2; the quadrature error is log(2)/num_nodes, so
    the default node count lands within 1e-6.
    """
    k = np.arange(num_nodes)
    t = np.cos((2.0 * k + 1.0) * np.pi / (2.0 * num_nodes))
    return float(np.mean(np.log(np.abs(t))))
