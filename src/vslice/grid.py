"""Quadrature grids and function containers.

Functions on the hemisphere, the ball, and the slice space are stored as a
smooth sample array times an analytic boundary factor: (1 - |x'|^2)^e on the
ball chart, (1 - t^2)^e on the t axis.  Keeping the exponent symbolic makes
the chart maps between the hemisphere and the ball exact and lets every
weighted inner product fold the combined boundary power into a quadrature
rule built for exactly that power.
"""

import math
import numbers
from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache

import numpy as np

from .specfun import _jacobi_table, log_gamma


def _is_integer(v):
    """Whether v is an integer that is not a bool (a bool is an int to Python)."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


@dataclass(frozen=True)
class GridSpec:
    """Declarative description of the angular/radial/t-axis quadrature."""

    n: int
    n_angular: int
    n_radial: int
    n_t: int

    def __post_init__(self):
        counts = (self.n, self.n_angular, self.n_radial, self.n_t)
        if not all(_is_integer(c) for c in counts):
            raise ValueError("n and the node counts must be integers")
        if self.n not in (2, 3):
            raise ValueError("only n = 2 and n = 3 are supported")
        if min(self.n_angular, self.n_radial, self.n_t) < 4:
            raise ValueError("all node counts must be >= 4")
        if self.n == 2 and self.n_angular % 2:
            raise ValueError("n = 2 needs an even angular count (antipodal pairs)")

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


def default_spec(n):
    """Grid sizes that keep every shipped reconstruction within tolerance."""
    if n == 2:
        return GridSpec(2, 256, 96, 128)
    if n == 3:
        return GridSpec(3, 32, 48, 64)
    raise ValueError("only n = 2 and n = 3 are supported")


def _read_only(out):
    """out, an array or a tuple of arrays, marked read-only: the package's
    memos return it through this, since they hand it to every caller."""
    for a in out if isinstance(out, tuple) else (out,):
        a.setflags(write=False)
    return out


def _jacobi_recurrence(npts, a, b):
    """alpha_k (k < npts) and beta_k (k = 1..npts) of the monic Jacobi
    polynomials: p_(k+1) = (x - alpha_k) p_k - beta_k p_(k-1).

    alpha_0 and beta_1 take their closed forms, which stay finite where the
    general ones are 0/0 (a + b = 0 and a + b = -1).
    """
    k = np.arange(1, npts, dtype=float)
    s = 2.0 * k + a + b
    alpha = np.empty(npts)
    alpha[0] = (b - a) / (a + b + 2.0)
    alpha[1:] = (b * b - a * a) / (s * (s + 2.0))
    k = np.arange(2, npts + 1, dtype=float)
    s = 2.0 * k + a + b
    beta = np.empty(npts)
    beta[0] = 4.0 * (1.0 + a) * (1.0 + b) / ((a + b + 2.0) ** 2 * (a + b + 3.0))
    beta[1:] = 4.0 * k * (k + a) * (k + b) * (k + a + b) / (s * s * (s + 1.0) * (s - 1.0))
    return alpha, beta


@lru_cache(maxsize=256)
def _jacobi_rule(npts, a, b):
    """Gauss-Jacobi nodes (ascending) and weights for the weight
    (1-x)^a (1+x)^b on (-1, 1), read-only.

    Golub & Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues of
    the symmetric Jacobi matrix, polished by two Newton steps on the
    orthonormal polynomial q_npts through its three-term recurrence; the
    weights are the Christoffel function 1 / sum_(k < npts) q_k(x)^2, a sum
    of positive terms, with q_0^2 = 1 / mu_0 the weight's total mass.  At
    a = b = -1/2 it is the closed-form Gauss-Chebyshev rule, weights exactly
    pi / npts.
    """
    if not _is_integer(npts) or npts < 1:
        raise ValueError("the node count must be an integer >= 1")
    a, b = float(a), float(b)
    if not (a > -1.0 and b > -1.0):
        raise ValueError("Jacobi parameters must exceed -1")
    if a == b == -0.5:
        x = np.sin(np.pi * np.arange(1 - npts, npts, 2) / (2 * npts))
        return _read_only((x, np.full(npts, np.pi / npts)))
    alpha, beta = _jacobi_recurrence(npts, a, b)
    root = np.sqrt(beta)
    x = np.linalg.eigvalsh(np.diag(alpha) + np.diag(root[:-1], 1) + np.diag(root[:-1], -1))
    log_mu0 = (
        (a + b + 1.0) * math.log(2.0)
        + math.lgamma(a + 1.0) + math.lgamma(b + 1.0) - math.lgamma(a + b + 2.0)
    )
    for newton in (True, True, False):
        # q_k and q_k' at x, k = 0..npts; total = sum_(k < npts) q_k^2
        q_prev, q = np.zeros_like(x), np.full_like(x, math.exp(-0.5 * log_mu0))
        d_prev, d = np.zeros_like(x), np.zeros_like(x)
        total = q * q
        for k in range(npts):
            back = root[k - 1] if k else 0.0
            q_prev, q = q, ((x - alpha[k]) * q - back * q_prev) / root[k]
            d_prev, d = d, ((x - alpha[k]) * d + q_prev - back * d_prev) / root[k]
            if k < npts - 1:
                total += q * q
        if newton:
            x = x - q / d
    return _read_only((x, 1.0 / total))


def _symmetrize(x):
    # enforce exact node symmetry under reflection so sign flips are bitwise
    return 0.5 * (x - x[::-1])


def _exact_weights(nodes, a, b, total):
    """Quadrature weights on fixed nodes, exact for polynomials of degree < len(nodes).

    The target integral is against a Jacobi weight (1-x)^a (1+x)^b on (-1, 1)
    whose total mass is `total`.  Solving in the Jacobi-polynomial basis keeps
    the Vandermonde system well conditioned: every row j >= 1 integrates to
    zero by orthogonality, so the right-hand side is total * e_0.
    """
    mat = _jacobi_table(len(nodes) - 1, a, b, nodes)
    scale = np.max(np.abs(mat), axis=1)
    rhs = np.zeros(len(nodes))
    rhs[0] = total / scale[0]
    return np.linalg.solve(mat / scale[:, None], rhs)


def _legendre_weights(nodes):
    """Gauss-Legendre weights at the rule's own nodes, accurate to rounding.

    Christoffel function w_j = 1 / sum_{k<n} (k + 1/2) P_k(t_j)^2: every term
    is positive, so unlike the Vandermonde solve nothing cancels.  Averaging
    with the reversal makes the weights exactly symmetric, like the nodes.
    """
    P = _jacobi_table(len(nodes) - 1, 0.0, 0.0, nodes)
    w = 1.0 / sum((k + 0.5) * P[k] ** 2 for k in range(len(nodes)))
    return 0.5 * (w + w[::-1])


class Grid:
    """Quadrature nodes and weights for one GridSpec; immutable after build.

    Angular layout: n=2 is a uniform grid on the circle, n=3 is Gauss-Legendre
    in the polar cosine crossed with a uniform azimuth of twice as many nodes,
    flattened in polar-major order.  Radial nodes live in u = r^2 so that even
    polynomial profiles integrate exactly; the t nodes are the Gauss-Chebyshev
    nodes, strictly inside (-1, 1).
    """

    def __init__(self, spec):
        self.spec = spec
        n = spec.n

        if n == 2:
            A = spec.n_angular
            self.angles = 2.0 * np.pi * np.arange(A) / A
            self.ang = np.stack([np.cos(self.angles), np.sin(self.angles)], axis=-1)
            self.ang_weight = np.full(A, 2.0 * np.pi / A)
            self.n_polar = None
            self.n_azim = None
        else:
            npol = spec.n_angular
            nazi = 2 * npol
            c = _symmetrize(_jacobi_rule(npol, 0.0, 0.0)[0])  # ascending, exactly antisymmetric
            wc = _legendre_weights(c)
            beta = 2.0 * np.pi * np.arange(nazi) / nazi
            s = np.sqrt(1.0 - c * c)
            pts = np.empty((npol, nazi, 3))
            pts[:, :, 0] = s[:, None] * np.cos(beta)[None, :]
            pts[:, :, 1] = s[:, None] * np.sin(beta)[None, :]
            pts[:, :, 2] = c[:, None]
            self.ang = pts.reshape(npol * nazi, 3)
            self.ang_weight = np.repeat(wc * (2.0 * np.pi / nazi), nazi)
            self.polar_cos = c
            self.polar_weight = wc
            self.azim = beta
            self.n_polar = npol
            self.n_azim = nazi

        self.n_ang_total = self.ang.shape[0]

        x, wj = _jacobi_rule(spec.n_radial, 0.0, (n - 2) / 2.0)
        self.u = (x + 1.0) / 2.0
        # sum w h(u) = int_0^1 h(r^2) r^(n-1) dr for polynomial h
        self._radial_base = wj * 2.0 ** (-(n + 2) / 2.0)
        self.r = np.sqrt(self.u)

        M = spec.n_t
        self.t = _symmetrize(np.cos((2.0 * np.arange(M) + 1.0) * np.pi / (2.0 * M))[::-1])

        # every kernel cache is keyed on the memoized grid, so its nodes are fixed
        _read_only(tuple(a for a in vars(self).values() if isinstance(a, np.ndarray)))

    # -- weight families -------------------------------------------------

    @lru_cache(maxsize=64)
    def radial_weights(self, extra=0.0):
        """Weights w with sum w[i] h(u[i]) = int_0^1 h(r^2) (1-r^2)^extra r^(n-1) dr.

        Exact for polynomial h up to degree n_radial - 1; requires -1 < extra < inf.
        """
        extra = float(extra)
        if not (math.isfinite(extra) and extra > -1.0):
            raise ValueError("radial weight exponent must be finite and exceed -1")
        if extra == 0.0:
            return self._radial_base
        b = (self.spec.n - 2) / 2.0
        total = 0.5 * math.exp(
            log_gamma(extra + 1.0) + log_gamma(b + 1.0) - log_gamma(extra + b + 2.0)
        )
        return _read_only(_exact_weights(2.0 * self.u - 1.0, extra, b, total))

    @lru_cache(maxsize=64)
    def t_weights(self, extra=0.0):
        """Weights w with sum w[j] h(t[j]) = int_{-1}^{1} h(t) (1-t^2)^extra dt.

        Exact for polynomial h up to degree n_t - 1; requires -1 < extra < inf.
        The t nodes are the Gauss-Chebyshev nodes, so at extra = -1/2 the
        rule's own weights pi/n_t are returned, exact and bitwise symmetric;
        every other exponent solves for the weights on the fixed nodes.
        """
        extra = float(extra)
        if not (math.isfinite(extra) and extra > -1.0):
            raise ValueError("t weight exponent must be finite and exceed -1")
        if extra == -0.5:
            return _read_only(np.full(self.spec.n_t, np.pi / self.spec.n_t))
        total = math.sqrt(math.pi) * math.exp(log_gamma(extra + 1.0) - log_gamma(extra + 1.5))
        return _read_only(_exact_weights(self.t, extra, extra, total))

    # -- node geometry ----------------------------------------------------

    @cached_property
    def ball_points(self):
        """Chart nodes x' in B_n, shape (n_ang_total, n_radial, n)."""
        return _read_only(self.ang[:, None, :] * self.r[None, :, None])

    @cached_property
    def antipodal_index(self):
        """Permutation p of angular indices with ang[p] = -ang (exact)."""
        if self.spec.n == 2:
            A = self.n_ang_total
            return _read_only((np.arange(A) + A // 2) % A)
        i = np.arange(self.n_polar)[:, None]
        j = np.arange(self.n_azim)[None, :]
        p = (self.n_polar - 1 - i) * self.n_azim + (j + self.n_azim // 2) % self.n_azim
        return _read_only(p.ravel())

    def __eq__(self, other):
        return isinstance(other, Grid) and self.spec == other.spec

    def __hash__(self):
        return hash(self.spec)


@lru_cache(maxsize=64)
def make_grid(spec):
    """Build (and memoize) the Grid for a GridSpec."""
    return Grid(spec)


# -- function containers ---------------------------------------------------


def _check_pair(a, b):
    if a.grid is not b.grid and a.grid.spec != b.grid.spec:
        raise ValueError("grid mismatch")


def _combine(a, b, op):
    _check_pair(a, b)
    if a.boundary_exponent == b.boundary_exponent:
        ev = None
        if a.evaluator is not None and b.evaluator is not None:
            ea, eb = a.evaluator, b.evaluator
            ev = lambda p: op(ea(p), eb(p))
        return type(a)(a.grid, op(a.smooth, b.smooth), a.boundary_exponent, ev)
    return type(a)(a.grid, op(a.values, b.values), 0.0)


class _ChartFunction:
    """Shared behaviour of the three sampled-function containers."""

    def __init__(self, grid, smooth, boundary_exponent=0.0, evaluator=None):
        # stored read-only, so containers built from one array can share it:
        # a read-only float array is taken as is, anything else is copied
        smooth = np.asarray(smooth, dtype=float)
        if smooth.flags.writeable:
            smooth = smooth.copy()
            smooth.setflags(write=False)
        if smooth.shape != self._shape(grid):
            raise ValueError(
                "value array has shape %r, expected %r" % (smooth.shape, self._shape(grid))
            )
        if not np.all(np.isfinite(smooth)):
            raise ValueError("values must be finite")
        boundary_exponent = float(boundary_exponent)
        if not math.isfinite(boundary_exponent):
            raise ValueError("boundary exponent must be finite")
        self.grid = grid
        self.smooth = smooth
        self.boundary_exponent = boundary_exponent
        self.evaluator = evaluator

    @property
    def spec(self):
        return self.grid.spec

    @property
    def values(self):
        return self.smooth * self._factor()[None, :]

    def __add__(self, other):
        return _combine(self, other, np.add)

    def __sub__(self, other):
        return _combine(self, other, np.subtract)

    def __mul__(self, c):
        c = float(c)
        ev = None
        if self.evaluator is not None:
            e = self.evaluator
            ev = lambda p: c * e(p)
        return type(self)(self.grid, c * self.smooth, self.boundary_exponent, ev)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0


class _BallChart(_ChartFunction):
    """Samples smooth * (1-|x'|^2)^boundary_exponent at the ball chart nodes.

    `evaluator`, when present, maps arbitrary chart points of shape (..., n)
    to the smooth part; the forward map then samples it on a chart finer
    than the grid's before its per-degree harmonic kernel, and
    `spherical_mean` and `vslice_direct` require one.  An evaluator may carry
    an attribute `cap = (c, cos_w)`, c a unit vector in R^(n+1): a promise
    that it returns exactly 0 at every chart point whose lift x has
    x . c <= cos_w and x . (c', -c_{n+1}) <= cos_w, so the forward sets the
    slices outside both caps to exactly 0 (the bump evaluator's does).  Sums,
    multiples and differences carry no cap.  Without an evaluator the
    forward map applies the kernel to the samples themselves, which is exact
    for band-limited samples (singular basis functions among them).
    """

    @staticmethod
    def _shape(grid):
        return (grid.n_ang_total, grid.spec.n_radial)

    def _factor(self):
        return (1.0 - self.grid.u) ** self.boundary_exponent

    @classmethod
    def from_function(cls, grid, fn, boundary_exponent=0.0):
        return cls(grid, fn(grid.ball_points), boundary_exponent, evaluator=fn)


class BallFunction(_BallChart):
    """phi on the unit ball, sampled at the chart nodes."""


class SphereFunction(_BallChart):
    """Even function on S^n stored through its upper-hemisphere ball chart.

    values[a, i] = f(x', sqrt(1-|x'|^2)) at x' = r_i * ang_a; evenness in the
    last coordinate is implied, so this determines f on the whole sphere.
    """


class SliceData(_ChartFunction):
    """Sinogram F(theta_i, t_j) on the slice cylinder S^(n-1) x (-1, 1)."""

    @staticmethod
    def _shape(grid):
        return (grid.n_ang_total, grid.spec.n_t)

    def _factor(self):
        return (1.0 - self.grid.t * self.grid.t) ** self.boundary_exponent


# -- chart maps -------------------------------------------------------------


def lift(f):
    """Hemisphere chart -> ball: phi(x') = f(x', sqrt(1-|x'|^2)) / sqrt(1-|x'|^2).

    Exact: only the stored boundary exponent changes, the smooth samples are
    shared, so project(lift(f)) returns f's values bitwise.
    """
    if not isinstance(f, SphereFunction):
        raise TypeError("lift expects a SphereFunction")
    return BallFunction(f.grid, f.smooth, f.boundary_exponent - 0.5, f.evaluator)


def project(phi):
    """Ball -> even sphere function: f(x', x_{n+1}) = |x_{n+1}| * phi(x')."""
    if not isinstance(phi, BallFunction):
        raise TypeError("project expects a BallFunction")
    return SphereFunction(phi.grid, phi.smooth, phi.boundary_exponent + 0.5, phi.evaluator)


# -- weighted inner products -------------------------------------------------


def inner_product_ball(a, b, lam=None):
    """int_{B_n} a b (1-|x'|^2)^(n/2-lam) dx', exact for polynomial smooth parts."""
    _check_pair(a, b)
    n = a.grid.spec.n
    if lam is None:
        lam = n / 2.0
    extra = a.boundary_exponent + b.boundary_exponent + n / 2.0 - lam
    if extra <= -1.0:
        raise ValueError("weight (1-|x'|^2)^%g is not integrable" % extra)
    w = a.grid.radial_weights(extra)
    return float(np.einsum("a,ai,ai,i->", a.grid.ang_weight, a.smooth, b.smooth, w))


def inner_product_sphere(a, b):
    """Plain L^2(S^n) product of the even extensions: 2 int_{S^n_+} a b dsigma."""
    _check_pair(a, b)
    extra = a.boundary_exponent + b.boundary_exponent - 0.5
    if extra <= -1.0:
        raise ValueError("surface integrand is not integrable at the equator")
    w = a.grid.radial_weights(extra)
    return 2.0 * float(np.einsum("a,ai,ai,i->", a.grid.ang_weight, a.smooth, b.smooth, w))


def inner_product_slices(A, B, weight="w", lam=None):
    """int int A B weight(t) dtheta dt with weight w = (1-t^2)^(1/2-lam) or
    w_tilde = (1-t^2)^(-1/2-lam); unnormalized angular measure."""
    _check_pair(A, B)
    n = A.grid.spec.n
    if lam is None:
        lam = n / 2.0
    if not (math.isfinite(lam) and lam > n / 2.0 - 1.0):
        raise ValueError("need a finite lam > n/2 - 1")
    if weight == "w":
        p = 0.5 - lam
    elif weight == "w_tilde":
        p = -0.5 - lam
    else:
        raise ValueError("weight must be 'w' or 'w_tilde'")
    extra = A.boundary_exponent + B.boundary_exponent + p
    if extra <= -1.0:
        raise ValueError("t-weight (1-t^2)^%g is not integrable" % extra)
    w = A.grid.t_weights(extra)
    return float(np.einsum("a,aj,aj,j->", A.grid.ang_weight, A.smooth, B.smooth, w))


def norm_ball(a, lam=None):
    return math.sqrt(max(inner_product_ball(a, a, lam), 0.0))


def norm_sphere(a):
    return math.sqrt(max(inner_product_sphere(a, a), 0.0))


def norm_slices(A, weight="w", lam=None):
    return math.sqrt(max(inner_product_slices(A, A, weight, lam), 0.0))
