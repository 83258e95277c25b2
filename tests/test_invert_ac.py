import math
import warnings

import numpy as np
import pytest

from vslice.grid import GridSpec, SliceData
from vslice.harness import Phantom, compare, make_phantom
from vslice.invert_ac import check_equator_decay, full_transform, invert_ac
from vslice.invert_john import invert_john
from vslice.xform import vslice_forward

SPEC2 = GridSpec(2, 128, 48, 64)
SPEC3 = GridSpec(3, 16, 24, 32)
BUMP2 = Phantom(kind="bump", center=(0.3, -0.2, 0.93), width=0.7, equator_margin=0.25)
BUMP3 = Phantom(kind="bump", center=(0.0, 0.0, 0.3, 0.95), width=0.7, equator_margin=0.25)


@pytest.fixture(scope="module")
def round2():
    phantom = make_phantom(BUMP2, SPEC2)
    return phantom, full_transform(vslice_forward(phantom))


@pytest.fixture(scope="module")
def round3():
    phantom = make_phantom(BUMP3, SPEC3)
    return phantom, full_transform(vslice_forward(phantom))


def test_full_transform_doubles(round2):
    _, V = round2
    F = SliceData(V.grid, 0.5 * V.smooth, V.boundary_exponent)
    again = full_transform(F)
    assert np.array_equal(again.smooth, V.smooth)
    assert again.boundary_exponent == V.boundary_exponent
    with pytest.raises(TypeError):
        full_transform(np.zeros(3))


def test_equator_decay_flags_constant(round2):
    _, V = round2
    assert check_equator_decay(V, 0.02) == 0.0
    flat = full_transform(vslice_forward(make_phantom(Phantom(kind="even_constant"), SPEC2)))
    assert check_equator_decay(flat, 0.02) > 0.9
    with pytest.raises(ValueError):
        check_equator_decay(V, 0.0)


def test_zero_data(round2):
    _, V = round2
    zero = SliceData(V.grid, np.zeros_like(V.smooth), V.boundary_exponent)
    assert np.max(np.abs(invert_ac(zero).smooth)) < 1e-14


def test_round_trip_n2(round2):
    phantom, V = round2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = invert_ac(V)
    report = compare(phantom, rec, method="ac")
    assert report.rel_l2_after_scale < 0.02
    assert abs(report.best_fit_scalar - 1.0) < 0.05


def test_round_trip_n3(round2, round3):
    phantom, V = round3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = invert_ac(V)
    report = compare(phantom, rec, method="ac")
    assert report.rel_l2_after_scale < 0.03
    assert abs(report.best_fit_scalar - 1.0) < 0.05


def test_agrees_with_john_n2(round2):
    """Same filtered-backprojection pipeline; the published constants differ
    by exactly -sqrt(pi), which is the even-route constant discrepancy."""
    phantom, V = round2
    rec_ac = invert_ac(V)
    rec_john = invert_john(SliceData(V.grid, 0.5 * V.smooth, V.boundary_exponent))
    cross = compare(rec_john, rec_ac, method="cross")
    assert cross.rel_l2_after_scale < 1e-6
    assert abs(cross.best_fit_scalar + math.sqrt(math.pi)) < 1e-3


def test_agrees_with_john_n3(round3):
    phantom, V = round3
    rec_ac = invert_ac(V)
    rec_john = invert_john(SliceData(V.grid, 0.5 * V.smooth, V.boundary_exponent))
    cross = compare(rec_john, rec_ac, method="cross")
    assert cross.rel_l2_after_scale < 1e-6
    assert abs(cross.best_fit_scalar - 1.0) < 1e-6


def test_warns_on_rim_coupled_data(round2):
    flat = full_transform(vslice_forward(make_phantom(Phantom(kind="even_constant"), SPEC2)))
    with pytest.warns(UserWarning, match="vanish near") as caught:
        invert_ac(flat)
    # the warning points at the caller, not into the package
    assert caught[0].filename == __file__


def test_quarter_turn_equivariance(round2):
    _, V = round2
    grid = V.grid
    quarter = grid.n_ang_total // 4
    rolled = SliceData(grid, np.roll(V.smooth, quarter, axis=0), V.boundary_exponent)
    rec = invert_ac(V)
    rec_rolled = invert_ac(rolled)
    expected = np.roll(rec.values, quarter, axis=0)
    scale = np.max(np.abs(rec.values))
    assert np.max(np.abs(rec_rolled.values - expected)) < 1e-10 * scale


def test_reconstruction_error_decreases_with_resolution():
    errs = []
    for spec in (GridSpec(2, 64, 24, 32), GridSpec(2, 128, 48, 64), GridSpec(2, 256, 96, 128)):
        phantom = make_phantom(BUMP2, spec)
        V = full_transform(vslice_forward(phantom))
        rec = invert_ac(V)
        errs.append(compare(phantom, rec).rel_l2_after_scale)
    assert errs[0] > errs[1] > errs[2]
