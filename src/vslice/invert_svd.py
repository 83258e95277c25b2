"""Spectral forward/inverse maps built on the singular pairs of the slice
transform.

The transform carries a weighted orthonormal family on the hemisphere (solid
harmonics times Jacobi polynomials in |x'|^2) onto a matching orthonormal
family on the slice cylinder (spherical harmonics times Gegenbauer
polynomials in t), scaling member nu by the singular value s_nu.  Expanding
slice data in the cylinder family and dividing by s_nu therefore inverts the
transform on any fixed band of indices.  On a grid, every member is a real
spherical harmonic, one scaled entry of the coefficients of `xform._analyse`,
times a radial or t profile, so each expansion is one harmonic analysis of
the whole array and each sum one synthesis.
"""

from dataclasses import dataclass, field

import numpy as np

from .grid import SliceData, SphereFunction
from .specfun import (
    SvdIndex,
    gegenbauer_poly,
    harmonic_dim,
    jacobi_poly,
    sph_harm,
    svd_constants,
)
from .xform import _analyse, _kernel_degree, _synthesise


def svd_index_set(n, band):
    """All indices nu = (m, mu, k) with m + 2k <= band, in a fixed order."""
    if band < 0:
        raise ValueError("band must be >= 0")
    out = []
    for m in range(band + 1):
        for k in range((band - m) // 2 + 1):
            for mu in range(1, harmonic_dim(n, m) + 1):
                out.append(SvdIndex(m, mu, k))
    return out


def _sphere_profile(nu, lam, n, u):
    """c_nu r^m P_k(2u - 1) at u = r^2, the radial factor of the sphere-side
    member nu's smooth part (the other factor is Y_{m,mu})."""
    m, _, k = nu
    c = svd_constants(n, lam, nu).c_nu
    p = jacobi_poly(k, lam - n / 2.0, m + n / 2.0 - 1.0, 2.0 * u - 1.0)
    return c * np.sqrt(u) ** m * p


def _slice_profile(nu, lam, n, t):
    """d_nu C_{m+2k}(t), the t factor of the cylinder-side member nu's smooth
    part (the other factor is Y_{m,mu})."""
    m, _, k = nu
    return svd_constants(n, lam, nu).d_nu * gegenbauer_poly(m + 2 * k, lam, t)


def _split_point(x):
    """Hemisphere point -> (chart part, |last coordinate|, n)."""
    pt = np.asarray(x, dtype=float)
    n = pt.shape[-1] - 1
    if n not in (2, 3):
        raise ValueError("point must have n+1 components, n in {2, 3}")
    return pt[..., :n], np.abs(pt[..., n]), n


def sphere_singular_function(nu, lam, x):
    """Hemisphere-side singular function at ambient points x on S^n.

    The value is |x_{n+1}| times a weighted polynomial of the chart part:
    c_nu |x'|^m (1-|x'|^2)^(lam-n/2) P_k(2|x'|^2-1) Y_{m,mu}(x'/|x'|).
    """
    xp, xl, n = _split_point(x)
    u = np.sum(xp * xp, axis=-1)
    smooth = _eta_smooth_at(nu, lam, n, xp, u)
    with np.errstate(divide="ignore"):
        out = xl * (1.0 - u) ** (lam - n / 2.0) * smooth
    return out if np.ndim(out) else float(out)


def _eta_smooth_at(nu, lam, n, xp, u):
    """Smooth factor c r^m P_k(2u-1) Y at chart points xp with u = |xp|^2."""
    r = np.sqrt(u)
    safe = np.where(r > 0, r, 1.0)
    return _sphere_profile(nu, lam, n, u) * sph_harm(n, nu[0], nu[1], xp / safe[..., None])


def slice_singular_function(nu, lam, theta, t):
    """Cylinder-side singular function d_nu (1-t^2)^lam C_{m+2k}(t) Y_{m,mu}(theta)."""
    th = np.asarray(theta, dtype=float)
    n = th.shape[-1]
    if n not in (2, 3):
        raise ValueError("theta must have 2 or 3 components")
    t = np.asarray(t, dtype=float)
    out = (1.0 - t * t) ** lam * _slice_profile(nu, lam, n, t) * sph_harm(n, nu[0], nu[1], th)
    return out if np.ndim(out) else float(out)


def _columns(grid, indices):
    """Arrays (degree, column, scale) placing each index's Y_{m,mu} at scale *
    coef[m, :, column] in `_analyse`'s coefficients: column mu - 1 at n = 2 and
    mu - [mu = 1] at n = 3; scale step/sqrt(pi) for the azimuthal step, negated
    on sines, or step/sqrt(2 pi) at order 0.  Degrees past `_kernel_degree`,
    less the n = 2 mode A/2 (it has no sine), alias and are rejected."""
    n = grid.spec.n
    top = _kernel_degree(grid) - (n == 2)
    step = 2.0 * np.pi / (grid.n_ang_total if n == 2 else grid.n_azim)
    rows = []
    for m, mu, _ in indices:
        if m > top:
            raise ValueError(f"degree m = {m} exceeds {top}, the most the angular grid resolves")
        if not 1 <= mu <= harmonic_dim(n, m):
            raise ValueError(f"harmonic index mu = {mu} out of range for degree m = {m}")
        col, order = (mu - 1, m) if n == 2 else (mu - (mu == 1), mu // 2)
        rows.append((m, col, (-1) ** col * step / np.sqrt(np.pi if order else 2.0 * np.pi)))
    degs, cols, scales = np.reshape(rows, (-1, 3)).T
    return degs.astype(int), cols.astype(int), scales


def _profiles(profile, indices, lam, n, x):
    """`profile` of each index at the nodes x, shape (len(indices), x.size)."""
    return np.reshape([profile(nu, lam, n, x) for nu in indices], (len(indices), x.size))


def _analysis(grid, smooth, indices, profiles, w):
    """Per index, sum_{a,i} ang_weight_a Y_nu(theta_a) smooth[a, i] profile_nu[i] w_i:
    one harmonic analysis of the samples, then each member's profile."""
    degs, cols, scales = _columns(grid, indices)
    return scales * np.einsum("ni,ni,i->n", _analyse(grid, smooth)[degs, :, cols], profiles, w)


def _synthesis(grid, indices, amplitudes, profiles):
    """Samples of sum_nu amplitude_nu Y_nu profile_nu: one harmonic synthesis."""
    degs, cols, scales = _columns(grid, indices)
    L = _kernel_degree(grid) + 1
    coef = np.zeros((L, profiles.shape[1], 2 if grid.spec.n == 2 else 2 * L))
    np.add.at(coef, (degs, slice(None), cols), (amplitudes / scales)[:, None] * profiles)
    return _synthesise(grid, coef)


def sphere_basis_grid(nu, lam, grid):
    """Hemisphere singular function sampled on a grid, exact boundary exponent.

    Samples only, with no evaluator, so `vslice_forward` applies its harmonic
    kernel to them on their own grid.  That is exact on them when the grid
    resolves the index: m < n_angular / 2 at n = 2 and m < n_angular (the
    polar count) at n = 3, which `_columns` enforces, and
    m // 2 + k < n_radial, which `make_phantom` enforces.
    """
    return synthesize_sphere(SpectralCoeffs(lam, [SvdIndex(*nu)], [1.0]), grid)


def slice_basis_grid(nu, lam, grid):
    """Cylinder singular function sampled on a grid, exact boundary exponent."""
    nu = SvdIndex(*nu)
    profiles = _profiles(_slice_profile, [nu], lam, grid.spec.n, grid.t)
    return SliceData(grid, _synthesis(grid, [nu], [1.0], profiles), lam)


@dataclass
class SpectralCoeffs:
    """Coefficients of a hemisphere function in the singular family."""

    lam: float
    indices: list
    coeffs: np.ndarray
    band: int = field(default=-1)

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if len(self.indices) != self.coeffs.shape[0]:
            raise ValueError("indices and coeffs must align")
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("indices must be unique")
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("coefficients must be finite")
        degrees = [nu.m + 2 * nu.k for nu in self.indices]
        if self.band < 0:
            self.band = max(degrees, default=0)
        if degrees and max(degrees) > self.band:
            raise ValueError("an index exceeds the stated band")


def _check_band(grid, band):
    """Reject bands past the t rule's exact degree, m + 2k <= (n_t - 2) // 2;
    `_columns` rejects degrees m past the angular quadrature's."""
    if band < 0:
        raise ValueError("band must be >= 0")
    limit = (grid.spec.n_t - 2) // 2
    if band > limit:
        raise ValueError(
            f"band {band} too high for {grid.spec.n_t} t-nodes (max {limit})"
        )


def analyze(F, lam=None, band=8):
    """Expand slice data over the cylinder family: coefficient per index."""
    if not isinstance(F, SliceData):
        raise TypeError("analyze expects SliceData")
    grid = F.grid
    n = grid.spec.n
    if lam is None:
        lam = n / 2.0
    _check_band(grid, band)
    indices = svd_index_set(n, band)
    # against the weight (1-t^2)^(-1/2-lam) and the members' (1-t^2)^lam
    w = grid.t_weights(F.boundary_exponent - 0.5)
    profiles = _profiles(_slice_profile, indices, lam, n, grid.t)
    coeffs = _analysis(grid, F.smooth, indices, profiles, w)
    return SpectralCoeffs(lam, indices, coeffs, band)


def sphere_coefficients(f, lam=None, band=8):
    """Expand a hemisphere function over the sphere-side family directly."""
    if not isinstance(f, SphereFunction):
        raise TypeError("sphere_coefficients expects a SphereFunction")
    grid = f.grid
    n = grid.spec.n
    if lam is None:
        lam = n / 2.0
    _check_band(grid, band)
    # the radial weights are exact only to degree n_radial - 1 when lam != n/2
    limit = grid.spec.n_radial - 1
    if band > limit:
        raise ValueError(
            f"band {band} too high for {grid.spec.n_radial} radial nodes (max {limit})"
        )
    indices = svd_index_set(n, band)
    # the lifts against (1-|x'|^2)^(n/2-lam): the members carry (1-|x'|^2)^(lam-n/2)
    w = grid.radial_weights(f.boundary_exponent - 0.5)
    profiles = _profiles(_sphere_profile, indices, lam, n, grid.u)
    coeffs = _analysis(grid, f.smooth, indices, profiles, w)
    return SpectralCoeffs(lam, indices, coeffs, band)


def synthesize_forward(coeffs, grid):
    """Slice data of the function with the given coefficients: sum of
    s_nu * f_nu * (cylinder singular function)."""
    n, lam, indices = grid.spec.n, coeffs.lam, coeffs.indices
    s = np.array([svd_constants(n, lam, nu).s_nu for nu in indices])
    profiles = _profiles(_slice_profile, indices, lam, n, grid.t)
    return SliceData(grid, _synthesis(grid, indices, s * coeffs.coeffs, profiles), lam)


def synthesize_sphere(coeffs, grid):
    """Hemisphere function with the given coefficients in the sphere family."""
    n, lam, indices = grid.spec.n, coeffs.lam, coeffs.indices
    profiles = _profiles(_sphere_profile, indices, lam, n, grid.u)
    smooth = _synthesis(grid, indices, coeffs.coeffs, profiles)
    return SphereFunction(grid, smooth, lam - n / 2.0 + 0.5)


def reconstruct(F, lam=None, band=8, force=False, s_floor_ratio=1e-6):
    """Invert slice data on a band: divide each coefficient by its singular
    value and re-sum on the hemisphere side.

    Tiny singular values amplify quadrature noise, so bands reaching below
    s_floor_ratio times the largest singular value are rejected unless
    force=True.
    """
    spec = analyze(F, lam, band)
    svals = np.array([svd_constants(F.grid.spec.n, spec.lam, nu).s_nu for nu in spec.indices])
    if not force and svals.min() < s_floor_ratio * svals.max():
        raise ValueError(
            "smallest singular value on the band is below the stability floor; "
            "lower the band or pass force=True"
        )
    inverted = SpectralCoeffs(spec.lam, spec.indices, spec.coeffs / svals, band)
    return synthesize_sphere(inverted, F.grid)


def svd_table(n, lam, band):
    """Rows (m, mu, k, c_nu, d_nu, s_nu) for every index on the band."""
    rows = []
    for nu in svd_index_set(n, band):
        c = svd_constants(n, lam, nu)
        rows.append((nu.m, nu.mu, nu.k, c.c_nu, c.d_nu, c.s_nu))
    return rows
