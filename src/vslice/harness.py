"""Phantoms, error reports, and file formats for validation runs.

Every phantom is even in the last coordinate by construction, which is the
symmetry class the slice transform can see at all.  Reports always carry both
the raw relative error and the error after the best least-squares rescaling
of the reconstruction, so a method with a wrong overall constant still gets a
meaningful shape score while the fitted scalar exposes the constant.
"""

import json
import math
import numbers
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .grid import (
    GridSpec,
    SliceData,
    SphereFunction,
    _is_integer,
    inner_product_sphere,
    make_grid,
)
from .invert_svd import sphere_basis_grid
from .specfun import SvdIndex

SCHEMA_VERSION = 1

PHANTOM_KINDS = ("even_constant", "axial_power", "basis", "bump")


@dataclass(frozen=True)
class Phantom:
    """Declarative phantom description; see make_phantom for the semantics."""

    kind: str
    p: float = 0.0
    nu: SvdIndex = None
    lam: float = None
    center: tuple = None
    width: float = 0.7
    equator_margin: float = 0.0

    def to_dict(self):
        d = {"kind": self.kind}
        if self.kind == "axial_power":
            d["p"] = self.p
        elif self.kind == "basis":
            d["nu"] = list(self.nu)
            if self.lam is not None:
                d["lam"] = self.lam
        elif self.kind == "bump":
            d["center"] = list(self.center)
            d["width"] = self.width
            d["equator_margin"] = self.equator_margin
        return d

    @classmethod
    def from_dict(cls, d):
        """The Phantom a description dict names.  Its fields are checked, not
        cast: numbers must be finite reals and nu integers, bools excluded."""
        if not isinstance(d, dict):
            raise ValueError(f"a phantom description is a JSON object, got {d!r}")
        kind = d.get("kind")
        if kind == "axial_power":
            return cls(kind, p=_real("p", d.get("p")))
        if kind == "basis":
            nu = d.get("nu")
            if not (isinstance(nu, (list, tuple)) and len(nu) == 3
                    and all(_is_integer(v) for v in nu)):
                raise ValueError(f"phantom field nu must be 3 integers, got {nu!r}")
            lam = d.get("lam")
            lam = None if lam is None else _real("lam", lam)
            return cls(kind, nu=SvdIndex(*nu), lam=lam)
        if kind == "bump":
            center = d.get("center")
            if not isinstance(center, (list, tuple)):
                raise ValueError(f"phantom field center must be a list of numbers, got {center!r}")
            return cls(
                kind,
                center=tuple(_real("center", c) for c in center),
                width=_real("width", d.get("width", 0.7)),
                equator_margin=_real("equator_margin", d.get("equator_margin", 0.0)),
            )
        if kind == "even_constant":
            return cls(kind)
        raise ValueError(f"unknown phantom kind {kind!r}")


def _real(key, v):
    """The value v of description field `key` as a float; it must be a finite
    real number, not a bool or a string."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
        raise ValueError(f"phantom field {key} must be a finite real number, got {v!r}")
    return float(v)


def _smooth_step(tau):
    """C-infinity ramp: 0 for tau <= 0, 1 for tau >= 1.

    The exponentials are taken only on the ramp 0 < tau < 1; off it, the
    quotient lo / (lo + hi) is exactly 0 or 1.
    """
    tau = np.asarray(tau, dtype=float)
    out = np.where(tau >= 1.0, 1.0, 0.0)
    ramp = (tau > 0.0) & (tau < 1.0)
    x = tau[ramp]
    lo = np.exp(-1.0 / x)
    hi = np.exp(-1.0 / (1.0 - x))
    out[ramp] = lo / (lo + hi)
    return out


def _cap_profile(cosine, width):
    """C-infinity bump in geodesic distance: support is a cap of radius width.

    The arccos/exp are taken only where cosine > cos(width), which holds on
    the support (and makes the lower clip at -1 moot).  A point that passes
    that test by rounding still gets the d < 1 test; every d in (0.9993, 1)
    gives exp(...) = 0 exactly anyway.
    """
    cosine = np.asarray(cosine, dtype=float)
    out = np.zeros(cosine.shape)
    near = cosine > math.cos(width)
    d = np.arccos(np.minimum(cosine[near], 1.0)) / width
    inside = d < 1.0
    dsq = np.where(inside, d * d, 0.0)
    out[near] = np.where(inside, np.exp(1.0 - 1.0 / (1.0 - dsq)), 0.0)
    return out


def _bump_evaluator(center, width, margin, n):
    """Evaluator of the evenized cap bump on chart points (..., n).

    The returned function carries `cap = (c, cos(width))`, c the unit centre
    in R^(n+1): it is exactly 0 at every point whose lift x has x . c <=
    cos(width) and x . (c', -c_{n+1}) <= cos(width), so the forward may set
    the slices that stay outside both caps to exactly 0.
    """
    center = np.asarray(center, dtype=float)
    center = center / np.linalg.norm(center)
    cp, cl = center[:n], center[n]

    def ev(pts):
        pts = np.asarray(pts, dtype=float)
        u = sum(pts[..., k] * pts[..., k] for k in range(n))
        xl = np.sqrt(np.maximum(1.0 - u, 0.0))
        base = pts @ cp
        vals = _cap_profile(base + xl * cl, width) + _cap_profile(base - xl * cl, width)
        if margin > 0.0:
            vals = vals * _smooth_step((xl - margin) / margin)
        return vals

    center.setflags(write=False)
    ev.cap = (center, math.cos(width))
    return ev


def make_phantom(p, spec):
    """Sample a phantom description on the grid given by spec."""
    if not isinstance(p, Phantom):
        raise TypeError("make_phantom expects a Phantom")
    grid = make_grid(spec)
    n = spec.n
    if p.kind == "even_constant":
        return SphereFunction.from_function(grid, lambda pts: np.ones(np.shape(pts)[:-1]))
    if p.kind == "axial_power":
        if not (math.isfinite(p.p) and p.p >= 0):
            raise ValueError("axial power must be finite and >= 0")
        f = SphereFunction.from_function(
            grid, lambda pts: np.ones(np.shape(pts)[:-1]), boundary_exponent=p.p / 2.0
        )
        return f
    if p.kind == "basis":
        if p.nu is None:
            raise ValueError("basis phantom needs an index nu")
        if not all(_is_integer(v) for v in p.nu):
            raise ValueError(f"basis index nu must hold integers, got {tuple(p.nu)}")
        # the grid must resolve the index for the spectral forward of the
        # samples to be exact (see sphere_basis_grid)
        m, _, k = p.nu
        m_max = spec.n_angular // 2 if n == 2 else spec.n_angular
        if m >= m_max:
            raise ValueError(f"basis degree m = {m} needs m < {m_max} on this grid")
        if m // 2 + k >= spec.n_radial:
            raise ValueError(
                f"basis index needs m // 2 + k < n_radial = {spec.n_radial}, "
                f"got {m // 2 + k}"
            )
        lam = p.lam if p.lam is not None else n / 2.0
        return sphere_basis_grid(p.nu, lam, grid)
    if p.kind == "bump":
        if p.center is None or len(p.center) != n + 1:
            raise ValueError("bump phantom needs a center with n+1 components")
        if not 0.0 < np.linalg.norm(np.asarray(p.center, dtype=float)) < math.inf:
            raise ValueError("bump center must be finite and nonzero")
        if not 0.0 < p.width < math.pi / 2:
            raise ValueError("bump width must lie in (0, pi/2)")
        if not 0.0 <= p.equator_margin < 1.0:
            raise ValueError("equator margin must lie in [0, 1)")
        ev = _bump_evaluator(p.center, p.width, p.equator_margin, n)
        return SphereFunction.from_function(grid, ev)
    raise ValueError(f"unknown phantom kind {p.kind!r}")


# -- error reports ------------------------------------------------------------


@dataclass
class ValidationReport:
    method: str
    rel_l2: float
    rel_l2_after_scale: float
    best_fit_scalar: float
    grid: GridSpec
    runtime_ms: int = 0

    def to_dict(self):
        d = asdict(self)
        d["grid"] = asdict(self.grid)
        d["schema_version"] = SCHEMA_VERSION
        return d


def _rebase(f, exponent):
    if f.boundary_exponent == exponent:
        return f
    factor = (1.0 - f.grid.u) ** (f.boundary_exponent - exponent)
    return SphereFunction(f.grid, f.smooth * factor, exponent)


def compare(f_true, f_rec, method="", runtime_ms=0):
    """Relative L2 error, best-fit scalar, and scale-corrected error.

    Uses the plain surface L2 norm of the even extensions; functions with
    different stored boundary exponents are rebased to the smaller exponent
    first so the subtraction is well-defined.
    """
    if not isinstance(f_true, SphereFunction) or not isinstance(f_rec, SphereFunction):
        raise TypeError("compare expects SphereFunction arguments")
    if f_true.grid.spec != f_rec.grid.spec:
        raise ValueError("phantom and reconstruction live on different grids")
    e = min(f_true.boundary_exponent, f_rec.boundary_exponent)
    T = _rebase(f_true, e)
    R = _rebase(f_rec, e)
    tt = inner_product_sphere(T, T)
    if tt <= 0.0:
        raise ValueError("zero truth norm")
    rr = inner_product_sphere(R, R)
    if rr <= 0.0:
        raise ValueError("degenerate reconstruction: zero norm")
    rt = inner_product_sphere(R, T)
    diff = SphereFunction(T.grid, R.smooth - T.smooth, e)
    rel = math.sqrt(max(inner_product_sphere(diff, diff), 0.0) / tt)
    scalar = rt / rr
    rel_scaled = math.sqrt(max(tt - rt * rt / rr, 0.0) / tt)
    return ValidationReport(
        method=method,
        rel_l2=rel,
        rel_l2_after_scale=rel_scaled,
        best_fit_scalar=scalar,
        grid=f_true.grid.spec,
        runtime_ms=int(runtime_ms),
    )


# -- .vsl container files ------------------------------------------------------

_MAGIC = b"VSLFILE\x00"
_VERSION = 1
_KIND_SLICE = 0
_KIND_SPHERE = 1
_HEADER_BYTES = 16 + struct.calcsize("<IdII") + struct.calcsize("<IIIId")


def _pack_header(kind):
    return _MAGIC + struct.pack("<II", _VERSION, kind)


def write_vsl(path, data, lam=float("nan")):
    """Write slice data or a hemisphere function; the stored smooth array and
    boundary exponent round-trip bitwise."""
    if isinstance(data, SliceData):
        kind, axis = _KIND_SLICE, data.grid.t
    elif isinstance(data, SphereFunction):
        kind, axis = _KIND_SPHERE, data.grid.r
    else:
        raise TypeError("write_vsl expects SliceData or SphereFunction")
    grid = data.grid
    spec = grid.spec
    with open(path, "wb") as fh:
        fh.write(_pack_header(kind))
        fh.write(
            struct.pack(
                "<IdII",
                spec.n,
                lam,
                grid.n_ang_total,
                spec.n_t,
            )
        )
        fh.write(
            struct.pack(
                "<IIIId",
                spec.n_angular,
                spec.n_radial,
                # rule codes: the radial rule is always Gauss-Jacobi (0) and
                # the t rule always Chebyshev (0)
                0,
                0,
                data.boundary_exponent,
            )
        )
        fh.write(np.ascontiguousarray(grid.ang, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(axis, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(data.smooth, dtype="<f8").tobytes())


def read_vsl(path):
    """Read a .vsl file back into its container; returns (data, lam)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:8] != _MAGIC:
        raise ValueError("not a vsl file")
    if len(raw) < _HEADER_BYTES:
        raise ValueError("truncated vsl header")
    version, kind = struct.unpack_from("<II", raw, 8)
    if version != _VERSION:
        raise ValueError(f"unsupported vsl version {version}")
    if kind not in (_KIND_SLICE, _KIND_SPHERE):
        raise ValueError(f"unknown vsl kind code {kind}")
    n, lam, n_ang_total, n_t = struct.unpack_from("<IdII", raw, 16)
    off = 16 + struct.calcsize("<IdII")
    n_angular, n_radial, rrule, trule, exponent = struct.unpack_from("<IIIId", raw, off)
    off += struct.calcsize("<IIIId")
    if rrule != 0:
        raise ValueError(f"unknown radial rule code {rrule}; only 0 (gauss_jacobi) exists")
    if trule != 0:
        raise ValueError(f"unknown t rule code {trule}; only 0 (chebyshev) exists")
    spec = GridSpec(int(n), int(n_angular), int(n_radial), int(n_t))
    grid = make_grid(spec)
    if grid.n_ang_total != n_ang_total:
        raise ValueError("angular node count does not match the grid spec")
    ang = np.frombuffer(raw, "<f8", grid.n_ang_total * n, off)
    off += ang.nbytes
    if not np.array_equal(ang.reshape(grid.n_ang_total, n), grid.ang):
        raise ValueError("angular nodes in file do not match the grid spec")
    count = n_t if kind == _KIND_SLICE else n_radial
    axis = np.frombuffer(raw, "<f8", count, off)
    off += axis.nbytes
    want_axis = grid.t if kind == _KIND_SLICE else grid.r
    if not np.array_equal(axis, want_axis):
        raise ValueError("axis nodes in file do not match the grid spec")
    smooth = np.frombuffer(raw, "<f8", grid.n_ang_total * count, off)
    if off + smooth.nbytes != len(raw):
        raise ValueError("trailing bytes after the vsl payload")
    # the read-only buffer view is shared by the container, not copied
    smooth = smooth.reshape(grid.n_ang_total, count)
    if kind == _KIND_SLICE:
        return SliceData(grid, smooth, exponent), lam
    return SphereFunction(grid, smooth, exponent), lam


# -- JSON reports and configs --------------------------------------------------


def write_json(path, payload):
    payload = dict(payload)
    payload.setdefault("schema_version", SCHEMA_VERSION)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path):
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"{path} does not hold a JSON object")
    version = payload.get("schema_version")
    if not _is_schema_version(version):
        raise ValueError(f"unsupported schema_version {version!r}; "
                         f"expected the integer {SCHEMA_VERSION}")
    return payload


def _is_schema_version(version):
    """Whether `version` is this package's JSON schema version, an integer
    (so neither true nor 1.0)."""
    return _is_integer(version) and version == SCHEMA_VERSION
