import pytest

from vslice.cartesian import cartesian_nodes


def test_nodes_shapes_and_order():
    axis, pts = cartesian_nodes(2, 9, halfwidth=1.0)
    assert axis.shape == (9,)
    assert pts.shape == (81, 2)
    # C order: last axis varies fastest
    assert pts[0] == pytest.approx([-1.0, -1.0])
    assert pts[1] == pytest.approx([-1.0, -0.75])
    assert pts[-1] == pytest.approx([1.0, 1.0])


def test_nodes_rejects_bad_args():
    with pytest.raises(ValueError):
        cartesian_nodes(4, 16, 1.0)
    with pytest.raises(ValueError):
        cartesian_nodes(2, 2, 1.0)
