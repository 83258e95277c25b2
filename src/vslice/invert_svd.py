"""Spectral forward/inverse maps built on the singular pairs of the slice
transform.

The transform carries a weighted orthonormal family on the hemisphere (solid
harmonics times Jacobi polynomials in |x'|^2) onto a matching orthonormal
family on the slice cylinder (spherical harmonics times Gegenbauer
polynomials in t), scaling member nu by the singular value s_nu.  Expanding
slice data in the cylinder family and dividing by s_nu therefore inverts the
transform on any fixed band of indices.
"""

from dataclasses import dataclass, field

import numpy as np

from .grid import (
    SliceData,
    SphereFunction,
    inner_product_ball,
    inner_product_slices,
    lift,
)
from .specfun import (
    SvdIndex,
    gegenbauer_poly,
    harmonic_dim,
    jacobi_poly,
    sph_harm,
    svd_constants,
)


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
    c = svd_constants(n, lam, nu).c_nu
    u = np.sum(xp * xp, axis=-1)
    smooth = _eta_smooth_at(nu, lam, n, xp, u, c)
    with np.errstate(divide="ignore"):
        out = xl * (1.0 - u) ** (lam - n / 2.0) * smooth
    return out if np.ndim(out) else float(out)


def _eta_smooth_at(nu, lam, n, xp, u, c):
    """Smooth factor c r^m P_k(2u-1) Y at chart points (r^m Y is a polynomial)."""
    m, mu, k = nu
    p = jacobi_poly(k, lam - n / 2.0, m + n / 2.0 - 1.0, 2.0 * u - 1.0)
    if m == 0:
        ang = sph_harm(n, 0, 1, np.ones_like(xp) / np.sqrt(float(n)))
        return c * p * ang
    r = np.sqrt(u)
    safe = np.where(r > 0, r, 1.0)
    ang = sph_harm(n, m, mu, xp / safe[..., None])
    return c * p * np.where(r > 0, r**m * ang, 0.0)


def slice_singular_function(nu, lam, theta, t):
    """Cylinder-side singular function d_nu (1-t^2)^lam C_{m+2k}(t) Y_{m,mu}(theta)."""
    th = np.asarray(theta, dtype=float)
    n = th.shape[-1]
    if n not in (2, 3):
        raise ValueError("theta must have 2 or 3 components")
    m, mu, k = nu
    d = svd_constants(n, lam, nu).d_nu
    t = np.asarray(t, dtype=float)
    poly = gegenbauer_poly(m + 2 * k, lam, t)
    out = d * (1.0 - t * t) ** lam * poly * sph_harm(n, m, mu, th)
    return out if np.ndim(out) else float(out)


def sphere_basis_grid(nu, lam, grid):
    """Hemisphere singular function sampled on a grid, exact boundary exponent.

    Samples only, with no evaluator, so `vslice_forward` takes the spectral
    path.  That path is exact on these samples when the grid resolves the
    index: m < n_angular / 2 at n = 2, m < n_angular (the polar count) at
    n = 3, and m // 2 + k < n_radial.
    `make_phantom` enforces that condition; the inner products of
    `sphere_coefficients` and `synthesize_sphere` need the point samples only.
    """
    n = grid.spec.n
    c = svd_constants(n, lam, nu).c_nu
    m, mu, k = nu
    p = jacobi_poly(k, lam - n / 2.0, m + n / 2.0 - 1.0, 2.0 * grid.u - 1.0)
    ang = sph_harm(n, m, mu, grid.ang)
    smooth = np.outer(ang, c * grid.r**m * p)
    return SphereFunction(grid, smooth, lam - n / 2.0 + 0.5)


def slice_basis_grid(nu, lam, grid):
    """Cylinder singular function sampled on a grid, exact boundary exponent."""
    n = grid.spec.n
    d = svd_constants(n, lam, nu).d_nu
    m, mu, k = nu
    poly = gegenbauer_poly(m + 2 * k, lam, grid.t)
    ang = sph_harm(n, m, mu, grid.ang)
    return SliceData(grid, np.outer(ang, d * poly), lam)


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
    coeffs = np.array(
        [
            inner_product_slices(F, slice_basis_grid(nu, lam, grid), "w_tilde", lam)
            for nu in indices
        ]
    )
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
    phi = lift(f)
    indices = svd_index_set(n, band)
    coeffs = np.array(
        [
            inner_product_ball(phi, lift(sphere_basis_grid(nu, lam, grid)), lam)
            for nu in indices
        ]
    )
    return SpectralCoeffs(lam, indices, coeffs, band)


def synthesize_forward(coeffs, grid):
    """Slice data of the function with the given coefficients: sum of
    s_nu * f_nu * (cylinder singular function)."""
    n = grid.spec.n
    smooth = np.zeros((grid.n_ang_total, grid.spec.n_t))
    for nu, f_nu in zip(coeffs.indices, coeffs.coeffs):
        if f_nu == 0.0:
            continue
        s = svd_constants(n, coeffs.lam, nu).s_nu
        smooth += (s * f_nu) * slice_basis_grid(nu, coeffs.lam, grid).smooth
    return SliceData(grid, smooth, coeffs.lam)


def synthesize_sphere(coeffs, grid):
    """Hemisphere function with the given coefficients in the sphere family."""
    n = grid.spec.n
    smooth = np.zeros((grid.n_ang_total, grid.spec.n_radial))
    for nu, f_nu in zip(coeffs.indices, coeffs.coeffs):
        if f_nu == 0.0:
            continue
        smooth += f_nu * sphere_basis_grid(nu, coeffs.lam, grid).smooth
    return SphereFunction(grid, smooth, coeffs.lam - n / 2.0 + 0.5)


def reconstruct(F, lam=None, band=8, force=False, s_floor_ratio=1e-6):
    """Invert slice data on a band: divide each coefficient by its singular
    value and re-sum on the hemisphere side.

    Tiny singular values amplify quadrature noise, so bands reaching below
    s_floor_ratio times the largest singular value are rejected unless
    force=True.
    """
    if not isinstance(F, SliceData):
        raise TypeError("reconstruct expects SliceData")
    grid = F.grid
    n = grid.spec.n
    if lam is None:
        lam = n / 2.0
    _check_band(grid, band)
    indices = svd_index_set(n, band)
    svals = np.array([svd_constants(n, lam, nu).s_nu for nu in indices])
    floor = s_floor_ratio * svals.max()
    if not force and svals.min() < floor:
        raise ValueError(
            "smallest singular value on the band is below the stability floor; "
            "lower the band or pass force=True"
        )
    spec = analyze(F, lam, band)
    inverted = SpectralCoeffs(lam, indices, spec.coeffs / svals, band)
    return synthesize_sphere(inverted, grid)


def svd_table(n, lam, band):
    """Rows (m, mu, k, c_nu, d_nu, s_nu) for every index on the band."""
    rows = []
    for nu in svd_index_set(n, band):
        c = svd_constants(n, lam, nu)
        rows.append((nu.m, nu.mu, nu.k, c.c_nu, c.d_nu, c.s_nu))
    return rows
