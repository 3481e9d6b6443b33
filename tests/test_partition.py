import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csmooth import (
    AggregateObservations,
    DegenerateField,
    InfeasibleVolume,
    InsufficientSupport,
    ShapeMismatch,
    SpatialField,
    StationSet,
    aggregate,
    build_partition,
    css_recover,
    field_total,
    make_domain,
    patched_estimate,
    sample_stations,
)
from csmooth import partition
from oracles import sample_stations_oracle, voronoi_oracle


def line_domain(n):
    return make_domain(1, n)


def test_station_set_invariants():
    d = line_domain(4)
    s = StationSet(d, [0, 3])
    assert s.m == 2
    np.testing.assert_allclose(s.positions, [[0.5, 0.5], [3.5, 0.5]])
    with pytest.raises(ShapeMismatch):
        StationSet(d, [])
    with pytest.raises(ShapeMismatch):
        StationSet(d, [0, 0])
    with pytest.raises(ShapeMismatch):
        StationSet(d, [0, 4])
    with pytest.raises(ShapeMismatch):
        StationSet(d, [0, 1, 2, 3, 3])


def test_nearest_assignment_on_a_line():
    d = line_domain(4)
    p = build_partition(d, StationSet(d, [0, 3]))
    np.testing.assert_array_equal(p.station_of_cell, [0, 0, 1, 1])
    assert not p.has_ties
    np.testing.assert_array_equal(p.patch_sizes, [2, 2])


def test_exact_tie_goes_to_the_lowest_station():
    d = line_domain(3)
    p = build_partition(d, StationSet(d, [0, 2]))
    assert p.has_ties
    np.testing.assert_array_equal(p.station_of_cell, [0, 0, 1])
    # integer cell counts, each cell in one patch
    assert p.patch_sizes.dtype.kind == "i"
    np.testing.assert_array_equal(p.patch_sizes, [2, 1])
    b = p.matrix_binary.toarray()
    np.testing.assert_array_equal(b, [[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def test_single_station_owns_everything():
    d = make_domain(3, 5)
    p = build_partition(d, StationSet(d, [7]))
    assert p.patch_sizes[0] == d.n
    assert (p.station_of_cell == 0).all()


def test_aggregate_examples():
    d = line_domain(4)
    p = build_partition(d, StationSet(d, [0, 3]))
    z = aggregate(p, SpatialField(d, [1.0, 2.0, 3.0, 4.0]))
    np.testing.assert_allclose(z.values, [3.0, 7.0])
    zero = aggregate(p, SpatialField(d, np.zeros(4)))
    np.testing.assert_allclose(zero.values, 0.0)


def test_aggregate_with_tie_weights():
    # the tied middle cell counts wholly for the lowest station
    d = line_domain(3)
    p = build_partition(d, StationSet(d, [0, 2]))
    z = aggregate(p, SpatialField(d, [2.0, 4.0, 6.0]))
    np.testing.assert_array_equal(z.values, [6.0, 6.0])


def test_aggregate_rejects_foreign_domain():
    d = line_domain(3)
    p = build_partition(d, StationSet(d, [0, 2]))
    other = SpatialField(line_domain(4), np.ones(4))
    with pytest.raises(ShapeMismatch):
        aggregate(p, other)


def test_patched_estimate_examples():
    d = line_domain(3)
    single = build_partition(d, StationSet(d, [1]))
    f = patched_estimate(single, AggregateObservations([6.0]))
    np.testing.assert_allclose(f.values, 2.0)

    two = build_partition(d, StationSet(d, [0, 1]))
    f = patched_estimate(two, AggregateObservations([5.0, 8.0]))
    np.testing.assert_allclose(f.values, [5.0, 4.0, 4.0])


def test_patched_estimate_tied_cell_takes_its_patch_density():
    # stations at both ends of a 1x3 line; the middle cell is tied and
    # belongs to station 0, so it takes that patch's density
    d = line_domain(3)
    p = build_partition(d, StationSet(d, [0, 2]))
    z = AggregateObservations([4.0, 8.0])
    f = patched_estimate(p, z)
    np.testing.assert_array_equal(f.values, [2.0, 2.0, 8.0])
    np.testing.assert_array_equal(aggregate(p, f).values, z.values)


def test_patched_round_trip_exact(rng):
    # every total comes back, on partitions with ties as on those without
    d = make_domain(7, 9)
    tied = 0
    for _ in range(20):
        m = int(rng.integers(1, 12))
        cells = rng.choice(d.n, size=m, replace=False)
        p = build_partition(d, StationSet(d, np.sort(cells)))
        tied += p.has_ties
        z = AggregateObservations(rng.uniform(0.0, 10.0, size=m))
        back = aggregate(p, patched_estimate(p, z))
        np.testing.assert_allclose(back.values, z.values, rtol=1e-12, atol=1e-12)
    assert 0 < tied < 20


def test_total_volume_conserved_with_and_without_ties(rng):
    d = make_domain(6, 6)
    for m in (1, 2, 4, 9):
        cells = rng.choice(d.n, size=m, replace=False)
        p = build_partition(d, StationSet(d, np.sort(cells)))
        f = SpatialField(d, rng.uniform(0.0, 5.0, size=d.n))
        z = aggregate(p, f)
        assert z.values.sum() == pytest.approx(field_total(f), rel=1e-12)
        # disjoint patches covering every cell, each total its patch's sum
        assert p.patch_sizes.sum() == d.n
        want = [f.values[p.station_of_cell == i].sum() for i in range(m)]
        np.testing.assert_allclose(z.values, want, rtol=1e-12)
        np.testing.assert_array_equal(
            p.matrix_binary.toarray(),
            np.arange(m)[:, None] == p.station_of_cell[None, :],
        )


@given(
    n_rows=st.integers(2, 12),
    n_cols=st.integers(2, 12),
    m=st.integers(1, 10),
    seed=st.integers(0, 10_000),
    cell_size=st.sampled_from([1e-5, 0.3, 1.0, 250.0]),
    offset=st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)),
)
@settings(max_examples=60)
def test_voronoi_matches_brute_force(n_rows, n_cols, m, seed, cell_size, offset):
    rng = np.random.default_rng(seed)
    mask = rng.random(n_rows * n_cols) < 0.85
    if not mask.any():
        mask[0] = True
    origin = (offset[0] * cell_size, offset[1] * cell_size)
    d = make_domain(n_rows, n_cols, mask, origin=origin, cell_size=cell_size)
    m = min(m, d.n)
    cells = np.sort(rng.choice(d.n, size=m, replace=False))
    p = build_partition(d, StationSet(d, cells))
    # float distances from an origin within 50 cells of the grid round to
    # far below this slack, and distinct squared distances differ by cell_size**2
    owner, n_tied = voronoi_oracle(d.centers, d.centers[cells], 1e-9 * cell_size**2)
    np.testing.assert_array_equal(p.station_of_cell, owner)
    np.testing.assert_array_equal(p.patch_sizes, np.bincount(owner, minlength=m))
    assert p.has_ties == bool((n_tied > 1).any())


@pytest.mark.parametrize("block_pairs", [8, 24, 40])
def test_block_size_does_not_change_the_partition(monkeypatch, block_pairs):
    # blocks of 1, 3 and 5 cells against one block for the whole grid
    mask = np.random.default_rng(3).random(9 * 11) < 0.8
    d = make_domain(9, 11, mask)
    stations = StationSet(d, np.sort(np.random.default_rng(4).choice(d.n, 8, replace=False)))
    whole = build_partition(d, stations)
    monkeypatch.setattr(partition, "_BLOCK_PAIRS", block_pairs)
    blocked = build_partition(d, stations)
    assert whole.has_ties and blocked.has_ties
    np.testing.assert_array_equal(whole.patch_sizes, blocked.patch_sizes)
    np.testing.assert_array_equal(whole.station_of_cell, blocked.station_of_cell)


def test_partition_memory_is_linear_in_cells():
    # 200 x 200 cells and 800 stations: a dense cells x stations distance
    # table alone takes 244 MiB; the blocked build stays within 32 MiB
    d = make_domain(200, 200)
    cells = np.sort(np.random.default_rng(7).choice(d.n, size=800, replace=False))
    stations = StationSet(d, cells)
    tracemalloc.start()
    try:
        p = build_partition(d, stations)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p.patch_sizes.sum() == d.n
    assert peak <= 32 * 2**20, f"build_partition peaked at {peak / 2**20:.0f} MiB"


def test_cell_area_scales_aggregates():
    d = make_domain(1, 4, cell_area=0.5)
    p = build_partition(d, StationSet(d, [0, 3]))
    z = aggregate(p, SpatialField(d, [1.0, 2.0, 3.0, 4.0]))
    np.testing.assert_allclose(z.values, [1.5, 3.5])
    back = aggregate(p, patched_estimate(p, z))
    np.testing.assert_allclose(back.values, z.values, rtol=1e-12)


def test_tie_slack_scales_with_cell_size():
    # on 1e-5 cells every squared distance is below an absolute 1e-9 slack
    d = make_domain(3, 3, cell_size=1e-5)
    p = build_partition(d, StationSet(d, [0, 1]))
    assert not p.has_ties
    np.testing.assert_array_equal(p.patch_sizes, [3, 6])
    vols = aggregate(p, SpatialField(d, np.arange(1.0, 10.0)))
    res = css_recover(d, p, vols)
    np.testing.assert_allclose(aggregate(p, res.estimate).values, vols.values, rtol=1e-9)


def test_negative_volume_rejected():
    with pytest.raises(InfeasibleVolume):
        AggregateObservations([1.0, -2.0])


def test_sampling_concentrates_on_the_mass():
    d = line_domain(3)
    f = SpatialField(d, [0.0, 7.0, 0.0])
    s = sample_stations(f, 1, seed=123)
    assert list(s.cells) == [1]


def test_sampling_exhausts_uniform_field():
    d = make_domain(2, 3)
    f = SpatialField(d, np.ones(6))
    s = sample_stations(f, 6, seed=5)
    assert list(s.cells) == list(range(6))


def test_sampling_errors():
    d = line_domain(3)
    with pytest.raises(DegenerateField):
        sample_stations(SpatialField(d, np.zeros(3)), 1, seed=0)
    with pytest.raises(InsufficientSupport):
        sample_stations(SpatialField(d, [1.0, 0.0, 0.0]), 2, seed=0)
    with pytest.raises(ShapeMismatch):
        sample_stations(SpatialField(d, np.ones(3)), 0, seed=0)


def test_sampling_frequency_tracks_field_mass():
    # Pr(second cell) = 3/4; across many seeds the empirical rate must land
    # inside 0.75 +/- 0.02
    d = make_domain(1, 2)
    f = SpatialField(d, [1.0, 3.0])
    hits = sum(
        sample_stations(f, 1, seed=s).cells[0] == 1 for s in range(10_000)
    )
    assert abs(hits / 10_000 - 0.75) < 0.02


def test_sampling_deterministic_per_seed():
    d = make_domain(5, 5)
    f = SpatialField(d, np.arange(1.0, 26.0))
    a = sample_stations(f, 6, seed=42)
    b = sample_stations(f, 6, seed=42)
    c = sample_stations(f, 6, seed=43)
    assert np.array_equal(a.cells, b.cells)
    assert not np.array_equal(a.cells, c.cells)


@settings(max_examples=150)
@given(
    weights=st.lists(
        st.one_of(st.just(0.0), st.sampled_from([1.0, 0.1, 3.0]),
                  st.floats(1e-300, 1e6), st.floats(5e-324, 1e-300)),
        min_size=1, max_size=60,
    ),
    fraction=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_sampling_matches_the_delete_and_resum_oracle(weights, fraction, seed):
    """Bit for bit the stations of one fresh cumsum per draw, zero cells and ties included."""
    values = np.array(weights)
    positive = int((values > 0).sum())
    if positive == 0:
        return
    m = max(1, round(fraction * positive))
    f = SpatialField(make_domain(1, values.size), values)
    got = sample_stations(f, m, seed=seed).cells
    np.testing.assert_array_equal(got, sample_stations_oracle(values, m, seed))


@pytest.mark.parametrize("seed", range(5))
def test_sampling_matches_the_oracle_on_a_large_field(seed):
    values = np.random.default_rng(seed).gamma(0.5, 2.0, 2000)
    values[::7] = 0.0
    f = SpatialField(make_domain(40, 50), values)
    got = sample_stations(f, 300, seed=seed).cells
    np.testing.assert_array_equal(got, sample_stations_oracle(values, 300, seed))


@pytest.mark.parametrize("seed", range(5))
def test_sampling_takes_the_last_cell_left_when_the_draw_rounds_up(seed):
    # below the normal range a product rounds to a multiple of 5e-324, so a
    # uniform times a subnormal total can round up to the total itself
    values = np.array([0.0, 5e-324, 0.0, 5e-324, 1e-323, 0.0, 5e-324])
    f = SpatialField(make_domain(1, values.size), values)
    got = sample_stations(f, 3, seed=seed).cells
    np.testing.assert_array_equal(got, sample_stations_oracle(values, 3, seed))
