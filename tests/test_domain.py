import numpy as np
import pytest

from csmooth import (
    CovariateMatrix,
    DegenerateCovariate,
    DomainEmpty,
    ShapeMismatch,
    SpatialField,
    field_total,
    make_domain,
)


def test_full_domain_enumerates_cells_row_major():
    d = make_domain(2, 3)
    assert d.n == 6
    expected = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    assert [tuple(c) for c in d.cells] == expected
    # centers at half-integer offsets in (x, y) = (col, row) order
    assert d.centers[0] == pytest.approx([0.5, 0.5])
    assert d.centers[5] == pytest.approx([2.5, 1.5])
    shifted = make_domain(3, 3, origin=(10.0, 20.0), cell_size=2.0)
    assert shifted.centers[4] == pytest.approx([13.0, 23.0])


def test_masked_domain_skips_inactive_cells():
    mask = np.array([[True, False], [True, True]]).ravel()
    d = make_domain(2, 2, mask)
    assert d.n == 3
    assert d.index_of(0, 0) == 0
    assert d.index_of(1, 0) == 1
    assert d.index_of(1, 1) == 2
    with pytest.raises(ShapeMismatch):
        d.index_of(0, 1)
    # outside the grid on either side, past int64 included
    for row, col in ((2, 0), (-1, 0), (0, 2), (0, -1), (10**20, 0)):
        with pytest.raises(ShapeMismatch):
            d.index_of(row, col)


def test_empty_mask_rejected():
    with pytest.raises(DomainEmpty):
        make_domain(2, 2, np.zeros(4, dtype=bool))


def test_bad_grid_shapes_rejected():
    with pytest.raises(ShapeMismatch):
        make_domain(0, 3)
    with pytest.raises(ShapeMismatch):
        make_domain(2, 2, np.ones(3, dtype=bool))


def test_same_grid_compares_shape_and_mask():
    a = make_domain(2, 2)
    b = make_domain(2, 2)
    c = make_domain(2, 2, [True, True, True, False])
    assert a.same_grid(b)
    assert not a.same_grid(c)
    assert not a.same_grid(make_domain(2, 3))


def test_field_checks_length_and_finiteness():
    d = make_domain(2, 2)
    with pytest.raises(ShapeMismatch):
        SpatialField(d, np.ones(3))
    with pytest.raises(ValueError):
        SpatialField(d, [1.0, np.nan, 0.0, 0.0])
    with pytest.raises(ValueError):
        SpatialField(d, [1.0, -0.5, 0.0, 0.0], nonnegative=True)


def test_field_values_are_frozen():
    f = SpatialField(make_domain(2, 2), np.arange(4.0))
    with pytest.raises(ValueError):
        f.values[0] = 99.0


def test_field_total_scales_with_cell_area():
    d = make_domain(2, 2, cell_area=0.25)
    f = SpatialField(d, [1.0, 2.0, 3.0, 4.0])
    assert field_total(f) == pytest.approx(2.5)
    assert f.total() == pytest.approx(2.5)


def test_covariates_validated():
    d = make_domain(2, 2)
    w = np.column_stack([np.ones(4), np.arange(4.0)])
    cov = CovariateMatrix(d, w, ("intercept", "trend"))
    assert cov.q == 2
    with pytest.raises(ShapeMismatch):
        CovariateMatrix(d, w, ("only_one",))
    with pytest.raises(ShapeMismatch):
        CovariateMatrix(d, w, ("a", "a"))
    with pytest.raises(ShapeMismatch):
        CovariateMatrix(d, w[:3], ("a", "b"))
    with pytest.raises(DegenerateCovariate):
        CovariateMatrix(d, np.zeros((4, 1)), ("dead",))


def test_standardized_centers_and_scales():
    d = make_domain(2, 2)
    w = np.column_stack([np.ones(4), [1.0, 2.0, 3.0, 4.0]])
    std = CovariateMatrix(d, w, ("one", "x")).standardized()
    # constant column untouched, varying column exactly standardized
    np.testing.assert_allclose(std.values[:, 0], 1.0)
    assert std.values[:, 1].mean() == pytest.approx(0.0, abs=1e-15)
    assert std.values[:, 1].std() == pytest.approx(1.0)
