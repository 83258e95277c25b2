"""The benchmark's own quadrature of the half-slice integral.

Written apart from the program: it shares no code with ``vslice`` and
evaluates phantoms from their ambient-space formulas, so it can check
``vslice_forward`` without trusting any of the program's charts, lifts or
quadrature rules.

The vertical slice at (theta, t) is the set of x on S^n with x . theta = t,
theta a unit vector in the equatorial R^n.  It is an (n-1)-sphere of radius
r = sqrt(1 - t^2) centred at t theta, spanned by the directions orthogonal
to theta (including the axis e_{n+1}).  The half slice is its part with
x_{n+1} >= 0; for a function even in x_{n+1} the half-slice integral is half
the full one, which is what is computed here:

* n = 2: the slice is a circle.  The periodic trapezoid rule in the angle is
  spectrally accurate for smooth integrands.
* n = 3: the slice is a 2-sphere.  Gauss-Legendre in the axial coordinate
  v in [-1, 1] times the trapezoid rule in the azimuth chi, with surface
  element r^2 dv dchi.
"""

import math

import numpy as np

CIRCLE_NODES = 2048  # trapezoid nodes on the full slice circle (n = 2)
SPHERE_NODES = 160  # Gauss-Legendre nodes in v; the azimuth gets twice as many (n = 3)


def _orthonormal_complement(theta):
    """Unit vectors spanning the complement of theta in R^(n+1), theta equatorial."""
    n = theta.size - 1
    axis = np.zeros(n + 1)
    axis[n] = 1.0
    if n == 2:
        perp = np.array([-theta[1], theta[0], 0.0])
        return [perp, axis]
    # n = 3: two unit vectors orthogonal to theta inside the equatorial R^3
    trial = np.zeros(4)
    trial[0 if abs(theta[0]) < 0.9 else 1] = 1.0
    e1 = trial - (trial @ theta) * theta
    e1 /= np.linalg.norm(e1)
    e2 = np.zeros(4)
    e2[:3] = np.cross(theta[:3], e1[:3])
    return [e1, e2, axis]


def slice_points(theta, t, nodes=None):
    """Quadrature points on the slice at (theta, t) and weights for the HALF integral.

    theta has n components (equatorial direction), returned points have n+1.
    """
    theta = np.asarray(theta, dtype=float)
    n = theta.size
    th = np.zeros(n + 1)
    th[:n] = theta / np.linalg.norm(theta)
    r = math.sqrt(1.0 - t * t)
    basis = _orthonormal_complement(th)
    if n == 2:
        q = nodes or CIRCLE_NODES
        phi = 2.0 * math.pi * np.arange(q) / q
        pts = t * th + r * (np.cos(phi)[:, None] * basis[0] + np.sin(phi)[:, None] * basis[1])
        w = np.full(q, 0.5 * r * 2.0 * math.pi / q)
        return pts, w
    if n == 3:
        k = nodes or SPHERE_NODES
        v, wv = np.polynomial.legendre.leggauss(k)
        kchi = 2 * k
        chi = 2.0 * math.pi * np.arange(kchi) / kchi
        s = np.sqrt(1.0 - v * v)
        omega = (
            (s[:, None] * np.cos(chi)[None, :])[..., None] * basis[0]
            + (s[:, None] * np.sin(chi)[None, :])[..., None] * basis[1]
            + (v[:, None, None] * np.ones(kchi)[None, :, None]) * basis[2]
        )
        pts = (t * th + r * omega).reshape(-1, 4)
        w = 0.5 * r * r * (2.0 * math.pi / kchi) * np.repeat(wv, kchi)
        return pts, w
    raise ValueError("only n = 2 and n = 3 are supported")


def half_slice_integral(fn, theta, t, nodes=None):
    """Integral of fn (ambient points (..., n+1) -> values) over the half slice."""
    pts, w = slice_points(theta, t, nodes)
    return float(w @ np.asarray(fn(pts), dtype=float))


def constant_closed_form(n, t):
    """Half-slice integral of the constant 1: half the slice's (n-1)-volume."""
    r2 = 1.0 - t * t
    return math.pi * math.sqrt(r2) if n == 2 else 2.0 * math.pi * r2


def check_constant(n, t_values):
    """Largest relative deviation from the closed form for f = 1."""
    one = lambda pts: np.ones(pts.shape[0])
    worst = 0.0
    for t in t_values:
        theta = np.zeros(n)
        theta[0] = 1.0
        want = constant_closed_form(n, t)
        worst = max(worst, abs(half_slice_integral(one, theta, t) - want) / want)
    return worst


# -- phantoms from their ambient formulas ------------------------------------


def _cap(cosine, width):
    """exp(1 - 1/(1 - d^2)) for geodesic distance d/width < 1, else 0."""
    d = np.arccos(np.clip(cosine, -1.0, 1.0)) / width
    out = np.zeros_like(d)
    inside = d < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - d[inside] ** 2))
    return out


def _ramp(tau):
    """C-infinity step: 0 for tau <= 0, 1 for tau >= 1, e^{-1/tau} blend between."""
    tau = np.asarray(tau, dtype=float)
    lo = np.zeros_like(tau)
    hi = np.zeros_like(tau)
    pos = tau > 0.0
    lo[pos] = np.exp(-1.0 / tau[pos])
    below = tau < 1.0
    hi[below] = np.exp(-1.0 / (1.0 - tau[below]))
    return lo / (lo + hi)


def bump(center, width, margin=0.0):
    """Even bump on S^n: caps of geodesic radius `width` around c and its
    reflection through the equator, times a ramp vanishing on |x_{n+1}| <= margin."""
    c = np.asarray(center, dtype=float)
    c = c / np.linalg.norm(c)
    mirror = c.copy()
    mirror[-1] = -mirror[-1]

    def fn(pts):
        pts = np.asarray(pts, dtype=float)
        vals = _cap(pts @ c, width) + _cap(pts @ mirror, width)
        if margin > 0.0:
            vals = vals * _ramp((np.abs(pts[..., -1]) - margin) / margin)
        return vals

    return fn
