import math
import struct

import numpy as np
import pytest

from vslice import GridSpec, make_grid, vslice_forward
from vslice.grid import SliceData, SphereFunction
from vslice.harness import (
    Phantom,
    ValidationReport,
    _bump_evaluator,
    _cap_profile,
    _smooth_step,
    compare,
    make_phantom,
    read_json,
    read_vsl,
    write_json,
    write_vsl,
)
from vslice.invert_svd import slice_basis_grid
from vslice.specfun import SvdIndex, svd_constants

SPEC2 = GridSpec(2, 32, 24, 16)
SPEC3 = GridSpec(3, 8, 16, 12)


def test_even_constant_is_one():
    f = make_phantom(Phantom("even_constant"), SPEC2)
    assert np.all(f.values == 1.0)
    assert f.boundary_exponent == 0.0


def test_axial_power_values():
    f = make_phantom(Phantom("axial_power", p=4.0), SPEC2)
    g = f.grid
    want = (1.0 - g.u[None, :]) ** 2
    assert np.allclose(f.values, want, rtol=1e-14)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="axial power"):
            make_phantom(Phantom("axial_power", p=bad), SPEC2)


def test_basis_anchor():
    f = make_phantom(Phantom("basis", nu=SvdIndex(0, 1, 0), lam=1.0), SPEC2)
    g = f.grid
    want = np.sqrt(1.0 - g.u[None, :]) / math.sqrt(math.pi)
    assert np.allclose(f.values, want, rtol=1e-13)
    # samples only: the forward takes the exact spectral path, not the slice
    # quadrature through an evaluator
    assert f.evaluator is None
    with pytest.raises(ValueError):
        make_phantom(Phantom("basis"), SPEC2)


def test_basis_index_must_hold_integers():
    # a bool index entry is an int to Python, and a float one fails deep inside
    for nu in [(True, 1, 0), (2.0, 1, 1), (1, 1, 0.5), (np.float64(1), 1, 0)]:
        with pytest.raises(ValueError, match="nu must hold integers"):
            make_phantom(Phantom("basis", nu=nu, lam=1.0), SPEC2)
    make_phantom(Phantom("basis", nu=(np.int64(1), 1, 0), lam=1.0), SPEC2)


@pytest.mark.parametrize(
    "spec, lam, resolved, unresolved",
    [
        # n = 2: m < n_angular / 2 = 8 and m // 2 + k < n_radial = 8
        (GridSpec(2, 16, 8, 16), 1.0,
         [(7, 1, 0), (7, 2, 0), (2, 1, 6), (3, 1, 6)],
         [(8, 1, 0), (9, 1, 0), (2, 1, 7), (4, 1, 8)]),
        # n = 3: m < n_angular = 8 and m // 2 + k < n_radial = 12
        (GridSpec(3, 8, 12, 16), 1.5,
         [(7, 15, 4), (1, 1, 11)],
         [(8, 2, 0), (9, 1, 0), (1, 1, 12), (2, 1, 11)]),
    ],
)
def test_basis_index_must_be_resolved(spec, lam, resolved, unresolved):
    # a basis phantom is its samples, so its forward is the spectral one:
    # exact up to the grid's resolution limit, rejected past it
    for nu in resolved:
        nu = SvdIndex(*nu)
        f = make_phantom(Phantom("basis", nu=nu, lam=lam), spec)
        s = svd_constants(spec.n, lam, nu).s_nu
        want = s * slice_basis_grid(nu, lam, f.grid).values
        assert np.max(np.abs(vslice_forward(f).values - want)) <= 1e-12 * s
    for nu in unresolved:
        with pytest.raises(ValueError, match="needs"):
            make_phantom(Phantom("basis", nu=SvdIndex(*nu), lam=lam), spec)


def test_bump_zero_below_margin():
    ph = Phantom("bump", center=(0.3, 0.25, 0.92), width=0.5, equator_margin=0.2)
    f = make_phantom(ph, SPEC2)
    g = f.grid
    xl = np.sqrt(1.0 - g.u)
    cols = xl < 0.2
    assert np.any(cols)
    assert np.all(f.values[:, cols] == 0.0)
    assert np.max(f.values) > 0.1


def test_bump_needs_valid_params():
    with pytest.raises(ValueError):
        make_phantom(Phantom("bump", center=(1.0, 0.0), width=0.5), SPEC2)
    for center in ((0, 0, 0), (0.0, math.nan, 1.0), (math.inf, 0.0, 1.0)):
        with pytest.raises(ValueError, match="center"):
            make_phantom(Phantom("bump", center=center, width=0.5), SPEC2)
    with pytest.raises(ValueError):
        make_phantom(Phantom("bump", center=(0, 0, 1), width=0.0), SPEC2)
    with pytest.raises(ValueError):
        make_phantom(Phantom("bump", center=(0, 0, 1), width=0.5, equator_margin=1.0), SPEC2)
    with pytest.raises(ValueError):
        make_phantom(Phantom("nope"), SPEC2)
    with pytest.raises(TypeError):
        make_phantom("bump", SPEC2)


def test_bump_n3():
    ph = Phantom("bump", center=(0.3, 0.2, 0.15, 0.9), width=0.6, equator_margin=0.1)
    f = make_phantom(ph, SPEC3)
    assert f.values.shape == (f.grid.n_ang_total, 16)
    assert np.max(f.values) > 0.1


def test_smooth_step_shape():
    assert _smooth_step(-1.0) == 0.0
    assert _smooth_step(0.0) == 0.0
    assert _smooth_step(1.0) == 1.0
    assert _smooth_step(2.0) == 1.0
    xs = np.linspace(0.01, 0.99, 33)
    ys = _smooth_step(xs)
    assert np.all(np.diff(ys) > 0)
    assert _smooth_step(0.5) == pytest.approx(0.5)


def _unmasked_smooth_step(tau):
    tau = np.asarray(tau, dtype=float)
    lo = np.where(tau > 0.0, np.exp(-1.0 / np.where(tau > 0.0, tau, 1.0)), 0.0)
    hi = np.where(tau < 1.0, np.exp(-1.0 / np.where(tau < 1.0, 1.0 - tau, 1.0)), 0.0)
    return lo / (lo + hi)


def _unmasked_cap_profile(cosine, width):
    d = np.arccos(np.clip(cosine, -1.0, 1.0)) / width
    inside = d < 1.0
    dsq = np.where(inside, d * d, 0.0)
    return np.where(inside, np.exp(1.0 - 1.0 / (1.0 - dsq)), 0.0)


def _unmasked_bump(center, width, margin, n):
    # the bump formula evaluated at every point, with no support mask
    center = np.asarray(center, dtype=float)
    center = center / np.linalg.norm(center)
    cp, cl = center[:n], center[n]

    def ev(pts):
        pts = np.asarray(pts, dtype=float)
        u = np.sum(pts * pts, axis=-1)
        xl = np.sqrt(np.clip(1.0 - u, 0.0, None))
        base = pts @ cp
        vals = _unmasked_cap_profile(base + xl * cl, width)
        vals = vals + _unmasked_cap_profile(base - xl * cl, width)
        if margin > 0.0:
            vals = vals * _unmasked_smooth_step((xl - margin) / margin)
        return vals

    return ev


def test_bump_evaluator_matches_unmasked_formula():
    # evaluating the bump only on its support changes no bit of its values
    rng = np.random.default_rng(7)
    for n, center, margin in (
        (2, (0.3, 0.25, 0.92), 0.25),
        (3, (0.3, 0.2, 0.15, 0.9), 0.0),
        (3, (0.5, -0.1, 0.2, 0.3), 0.1),
    ):
        direction = rng.standard_normal((20000, n))
        direction /= np.linalg.norm(direction, axis=1)[:, None]
        pts = direction * rng.uniform(0.0, 1.0, (20000, 1)) ** 0.25
        for width in (0.7, 1e-3):
            got = _bump_evaluator(center, width, margin, n)(pts)
            want = _unmasked_bump(center, width, margin, n)(pts)
            assert np.array_equal(got, want)
            if width == 0.7:
                assert np.count_nonzero(got) > 1000
        # one point: 0-d output, as before
        one = _bump_evaluator(center, 0.7, margin, n)(pts[0])
        assert np.ndim(one) == 0
        assert np.array_equal(one, _unmasked_bump(center, 0.7, margin, n)(pts[0]))
    for width in (0.7, 1e-3, 1.2):
        # cosines within a few ulp of the support boundary cos(width); at
        # width 1.2, edge + 1 ulp passes the mask but has arccos(.) / width = 1,
        # which must give 0 without dividing by 1 - d^2 = 0
        edge = math.cos(width)
        ulps = np.arange(-6, 7) * np.spacing(edge)
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            for cosine in np.concatenate([edge + ulps, np.nextafter(edge, [2.0, -2.0])]):
                got = _cap_profile(cosine, width)
                assert np.array_equal(got, _unmasked_cap_profile(cosine, width))
        cosine = np.cos(width * rng.uniform(0.0, 1.5, 5000))
        assert np.array_equal(_cap_profile(cosine, width), _unmasked_cap_profile(cosine, width))
    tau = np.concatenate([
        [-1.0, 0.0, 5e-324, 1e-300, 0.5, np.nextafter(1.0, 0.0), 1.0, 2.0],
        rng.uniform(-0.5, 1.5, 5000),
    ])
    with np.errstate(over="ignore"):
        assert np.array_equal(_smooth_step(tau), _unmasked_smooth_step(tau))
        for x in tau[:8]:
            assert np.array_equal(_smooth_step(x), _unmasked_smooth_step(x))


def test_phantom_dict_roundtrip():
    for ph in (
        Phantom("even_constant"),
        Phantom("axial_power", p=2.0),
        Phantom("basis", nu=SvdIndex(1, 2, 1), lam=1.0),
        Phantom("bump", center=(0.0, 0.0, 1.0), width=0.4, equator_margin=0.3),
    ):
        back = Phantom.from_dict(ph.to_dict())
        assert back == ph
    with pytest.raises(ValueError):
        Phantom.from_dict({"kind": "wat"})


@pytest.mark.parametrize("d, field", [
    ({"kind": "bump", "center": [True, 0, 1]}, "center"),
    ({"kind": "bump", "center": [0, 0, "1"]}, "center"),
    ({"kind": "bump", "center": [0, 0, math.nan]}, "center"),
    ({"kind": "bump", "center": "001"}, "center"),
    ({"kind": "bump", "center": [0, 0, 1], "width": True}, "width"),
    ({"kind": "bump", "center": [0, 0, 1], "width": "0.5"}, "width"),
    ({"kind": "bump", "center": [0, 0, 1], "equator_margin": math.inf}, "equator_margin"),
    ({"kind": "axial_power", "p": False}, "p"),
    ({"kind": "axial_power"}, "p"),
    ({"kind": "basis", "nu": [1, 2, 1.0]}, "nu"),
    ({"kind": "basis", "nu": [1, True, 1]}, "nu"),
    ({"kind": "basis", "nu": [1, 2]}, "nu"),
    ({"kind": "basis", "nu": [1, 2, 1], "lam": "1"}, "lam"),
])
def test_phantom_from_dict_checks_fields(d, field):
    # description fields are checked, not cast: bools, strings, non-finite
    # numbers and non-integer indices are rejected with the field's name
    with pytest.raises(ValueError, match="field %s " % field):
        Phantom.from_dict(d)


def test_phantom_from_dict_keeps_numbers():
    ph = Phantom.from_dict({"kind": "bump", "center": [0, 0, 1], "width": 1, "equator_margin": 0})
    assert ph == Phantom("bump", center=(0.0, 0.0, 1.0), width=1.0)
    assert all(type(c) is float for c in ph.center)
    assert Phantom.from_dict({"kind": "basis", "nu": [1, 2, 1], "lam": None}).lam is None


def test_compare_identity_and_scaling():
    f = make_phantom(Phantom("bump", center=(0.3, 0.25, 0.92), width=0.5), SPEC2)
    rep = compare(f, f, method="self")
    assert rep.rel_l2 == 0.0
    assert rep.rel_l2_after_scale == 0.0
    assert rep.best_fit_scalar == pytest.approx(1.0, abs=1e-12)
    assert rep.method == "self"
    assert rep.grid == SPEC2

    double = SphereFunction(f.grid, 2.0 * f.smooth, f.boundary_exponent)
    rep2 = compare(f, double)
    assert rep2.rel_l2 == pytest.approx(1.0, rel=1e-12)
    assert rep2.best_fit_scalar == pytest.approx(0.5, rel=1e-12)
    assert rep2.rel_l2_after_scale < 1e-12


def test_compare_mixed_exponents():
    # same function stored under two exponents compares as identical
    f = make_phantom(Phantom("axial_power", p=1.0), SPEC2)
    g = f.grid
    explicit = SphereFunction(g, np.sqrt(1.0 - g.u)[None, :].repeat(g.n_ang_total, 0), 0.0)
    rep = compare(f, explicit)
    assert rep.rel_l2 < 1e-13
    assert rep.best_fit_scalar == pytest.approx(1.0, abs=1e-12)


def test_compare_errors():
    f = make_phantom(Phantom("even_constant"), SPEC2)
    zero = SphereFunction(f.grid, np.zeros_like(f.smooth))
    with pytest.raises(ValueError, match="degenerate"):
        compare(f, zero)
    with pytest.raises(ValueError, match="zero truth"):
        compare(zero, f)
    other = make_phantom(Phantom("even_constant"), GridSpec(2, 16, 24, 16))
    with pytest.raises(ValueError, match="grids"):
        compare(f, other)
    with pytest.raises(TypeError):
        compare(f, np.ones(4))


def test_compare_scale_invariant_not_worse():
    rng = np.random.default_rng(0)
    f = make_phantom(Phantom("bump", center=(0.3, 0.25, 0.92), width=0.5), SPEC2)
    noisy = SphereFunction(f.grid, 1.3 * f.smooth + 0.01 * rng.standard_normal(f.smooth.shape))
    rep = compare(f, noisy)
    assert rep.rel_l2_after_scale <= rep.rel_l2


def test_vsl_roundtrip_slice(tmp_path):
    g = make_grid(SPEC2)
    rng = np.random.default_rng(3)
    F = SliceData(g, rng.standard_normal((g.n_ang_total, g.spec.n_t)), 1.5)
    path = tmp_path / "sino.vsl"
    write_vsl(path, F, lam=1.0)
    back, lam = read_vsl(path)
    assert isinstance(back, SliceData)
    assert lam == 1.0
    assert back.boundary_exponent == 1.5
    assert np.array_equal(back.smooth, F.smooth)
    assert back.grid.spec == SPEC2


def test_vsl_roundtrip_sphere(tmp_path):
    f = make_phantom(Phantom("bump", center=(0.1, 0.2, 0.1, 0.96), width=0.5), SPEC3)
    path = tmp_path / "vol.vsl"
    write_vsl(path, f)
    back, lam = read_vsl(path)
    assert isinstance(back, SphereFunction)
    assert math.isnan(lam)
    assert np.array_equal(back.smooth, f.smooth)
    assert back.grid.spec == SPEC3


def test_vsl_rejects_garbage(tmp_path):
    path = tmp_path / "bad.vsl"
    path.write_bytes(b"NOTAFILE" + b"\0" * 64)
    with pytest.raises(ValueError, match="not a vsl"):
        read_vsl(path)
    g = make_grid(SPEC2)
    F = SliceData(g, np.zeros((g.n_ang_total, g.spec.n_t)))
    good = tmp_path / "good.vsl"
    write_vsl(good, F)
    raw = bytearray(good.read_bytes())
    raw[8] = 99  # version
    bad = tmp_path / "badver.vsl"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="version"):
        read_vsl(bad)
    raw = bytearray(good.read_bytes())
    raw[12] = 7  # kind: only 0 (slice data) and 1 (sphere function) exist
    bad_kind = tmp_path / "badkind.vsl"
    bad_kind.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="kind"):
        read_vsl(bad_kind)
    long = tmp_path / "long.vsl"
    long.write_bytes(good.read_bytes() + b"\0")
    with pytest.raises(ValueError, match="trailing"):
        read_vsl(long)
    with pytest.raises(TypeError):
        write_vsl(tmp_path / "x.vsl", np.zeros(4))


@pytest.mark.parametrize("slot, name", [(0, "radial"), (1, "t")])
def test_vsl_rejects_rule_code(tmp_path, slot, name):
    # the header keeps both rule slots; Gauss-Jacobi (radial) and Chebyshev
    # (t), code 0 each, are the only rules
    g = make_grid(SPEC2)
    good = tmp_path / "good.vsl"
    write_vsl(good, SliceData(g, np.ones((g.n_ang_total, g.spec.n_t)), 0.5))
    raw = bytearray(good.read_bytes())
    at = 16 + struct.calcsize("<IdII") + struct.calcsize("<II") + 4 * slot
    assert struct.unpack_from("<I", raw, at) == (0,)
    struct.pack_into("<I", raw, at, 1)
    bad = tmp_path / "rule.vsl"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=f"unknown {name} rule code 1; only 0"):
        read_vsl(bad)


@pytest.mark.parametrize("size", [12, 30, 50])
def test_vsl_rejects_truncated_header(tmp_path, size):
    # cut inside each of the three header blocks
    g = make_grid(SPEC2)
    good = tmp_path / "good.vsl"
    write_vsl(good, SliceData(g, np.ones((g.n_ang_total, g.spec.n_t)), 0.5))
    cut = tmp_path / "cut.vsl"
    cut.write_bytes(good.read_bytes()[:size])
    with pytest.raises(ValueError, match="truncated"):
        read_vsl(cut)


def test_vsl_rejects_nonfinite_exponent(tmp_path):
    g = make_grid(SPEC2)
    good = tmp_path / "good.vsl"
    write_vsl(good, SliceData(g, np.ones((g.n_ang_total, g.spec.n_t)), 0.5))
    raw = bytearray(good.read_bytes())
    # the exponent is the f64 after the four u32 of the second header block
    at = 16 + struct.calcsize("<IdII") + struct.calcsize("<IIII")
    assert struct.unpack_from("<d", raw, at) == (0.5,)
    struct.pack_into("<d", raw, at, math.nan)
    bad = tmp_path / "nan.vsl"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="exponent"):
        read_vsl(bad)


def test_json_roundtrip(tmp_path):
    path = tmp_path / "report.json"
    write_json(path, {"alpha": 1, "nested": {"b": [1, 2]}})
    back = read_json(path)
    assert back["alpha"] == 1
    assert back["schema_version"] == 1
    for version in (99, True, 1.0, "1", None):
        write_json(path, {"schema_version": version})
        with pytest.raises(ValueError, match="schema_version"):
            read_json(path)
    path.write_text("[1]")
    with pytest.raises(ValueError, match="JSON object"):
        read_json(path)


def test_report_to_dict():
    rep = ValidationReport("svd", 0.1, 0.05, 1.02, SPEC2, 12)
    d = rep.to_dict()
    assert d["schema_version"] == 1
    assert d["grid"] == {"n": 2, "n_angular": 32, "n_radial": 24, "n_t": 16}
    assert d["method"] == "svd"
