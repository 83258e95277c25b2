import numpy as np
import pytest

from vslice.grid import GridSpec, inner_product_sphere
from vslice.harness import Phantom, compare, make_phantom
from vslice.invert_hs import invert_hypersingular
from vslice.invert_john import invert_john
from vslice.xform import vslice_forward

SPEC2 = GridSpec(2, 128, 48, 64)


@pytest.fixture(scope="module")
def round2():
    phantom = make_phantom(Phantom(kind="bump", center=(0.3, -0.2, 0.93), width=0.7), SPEC2)
    return phantom, vslice_forward(phantom)


def test_invert_hypersingular_guards(round2):
    _, F = round2
    with pytest.raises(ValueError):
        invert_hypersingular(F, eps=5.0, r_max=4.0)
    phantom3 = make_phantom(
        Phantom(kind="bump", center=(0.0, 0.0, 0.3, 0.95), width=0.7), GridSpec(3, 8, 12, 16)
    )
    F3 = vslice_forward(phantom3)
    with pytest.raises(ValueError):
        invert_hypersingular(F3)


def test_zero_data_gives_zero(round2):
    _, F = round2
    zero = type(F)(F.grid, np.zeros_like(F.smooth), F.boundary_exponent)
    rec = invert_hypersingular(zero)
    assert np.max(np.abs(rec.smooth)) < 1e-14


def test_round_trip_bump(round2):
    phantom, F = round2
    rec = invert_hypersingular(F)
    report = compare(phantom, rec, method="hs")
    assert report.rel_l2_after_scale < 0.03
    assert report.rel_l2 < 0.05
    assert abs(report.best_fit_scalar - 1.0) < 0.05


def test_eps_halving_is_stable(round2):
    _, F = round2
    eps0 = 4.0 * 1.3 / 383  # twice the fine-table step
    a = invert_hypersingular(F, eps=eps0)
    b = invert_hypersingular(F, eps=eps0 / 2.0)
    na = inner_product_sphere(a, a)
    diff = na + inner_product_sphere(b, b) - 2.0 * inner_product_sphere(a, b)
    assert np.sqrt(max(diff, 0.0) / na) < 5e-3


def test_uncorrected_tail_halves_with_r_max(round2):
    phantom, F = round2
    err = []
    for r_max in (4.0, 8.0, 16.0):
        rec = invert_hypersingular(F, r_max=r_max, tail_correction=False)
        err.append(compare(phantom, rec).rel_l2_after_scale)
    assert err[0] > err[1] > err[2]
    assert 1.5 < err[0] / err[1] < 3.0
    assert 1.5 < err[1] / err[2] < 3.0
    corrected = compare(phantom, invert_hypersingular(F)).rel_l2_after_scale
    assert corrected < 0.2 * err[0]


def test_matches_john_inversion(round2):
    _, F = round2
    rec_hs = invert_hypersingular(F)
    rec_john = invert_john(F)
    cross = compare(rec_john, rec_hs, method="cross")
    assert cross.rel_l2_after_scale < 0.03
