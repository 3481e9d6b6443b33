import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csmooth import (
    AggregateObservations,
    ConfigError,
    DegenerateField,
    InfeasibleVolume,
    InsufficientSupport,
    ShapeMismatch,
    SpatialField,
    StationSet,
    aggregate,
    build_partition,
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
    np.testing.assert_array_equal(s.cells, [0, 3])
    with pytest.raises(ShapeMismatch, match="^at least one station is required$"):
        StationSet(d, [])
    with pytest.raises(ShapeMismatch):
        StationSet(d, [0, 0])
    with pytest.raises(ShapeMismatch):
        StationSet(d, [0, 4])
    with pytest.raises(ShapeMismatch):
        StationSet(d, [0, 1, 2, 3, 3])


@pytest.mark.parametrize("cells", [np.array([0.5, 2.7, 3.9]), np.array([True, False, True])])
def test_station_cells_must_be_integers(cells):
    # float indices would be truncated and a mask read as 0/1 indices
    with pytest.raises(ShapeMismatch, match=f"integer indices, got dtype {cells.dtype}"):
        StationSet(line_domain(4), cells)


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


def test_hand_built_partition_checks_its_labels_and_counts_its_patches():
    # two stations on a 2x2 grid: every malformed label array is refused
    # when the partition is built, not by the first method that reads it
    d = make_domain(2, 2)
    stations = StationSet(d, [0, 3])
    labels = np.array([0, 0, 1, 1])
    p = partition.Partition(stations, labels, has_ties=False)
    np.testing.assert_array_equal(p.patch_sizes, [2, 2])
    assert p.station_of_cell.dtype == np.int64
    assert not p.station_of_cell.flags.writeable and not p.patch_sizes.flags.writeable
    # the labels are copied: a later write to the caller's array moves nothing
    labels[0] = 1
    np.testing.assert_array_equal(p.station_of_cell, [0, 0, 1, 1])
    # the sizes are derived, so no count that disagrees with the labels is taken
    with pytest.raises(TypeError):
        partition.Partition(stations, [0, 1, 1, 1], False, patch_sizes=np.array([3, 1]))
    with pytest.raises(ShapeMismatch, match="patch labels must lie in 0..1, got 0..2"):
        partition.Partition(stations, [0, 1, 2, 1], False)
    with pytest.raises(ShapeMismatch, match="must lie in 0..1, got -1..1"):
        partition.Partition(stations, [0, -1, 1, 1], False)
    with pytest.raises(ShapeMismatch, match="must be integers, got dtype float64"):
        partition.Partition(stations, [0.0, 0.0, 1.0, 1.0], False)
    with pytest.raises(ShapeMismatch, match="must be integers, got dtype bool"):
        partition.Partition(stations, [False, False, True, True], False)
    with pytest.raises(ShapeMismatch, match="3 patch labels in shape .* for 4 active cells"):
        partition.Partition(stations, [0, 0, 1], False)
    with pytest.raises(ShapeMismatch, match="4 patch labels in shape \\(2, 2\\)"):
        partition.Partition(stations, [[0, 0], [1, 1]], False)
    with pytest.raises(InfeasibleVolume, match="^patch 1 holds no cell$"):
        partition.Partition(stations, [0, 0, 0, 0], False)
    # dataclasses.replace builds through the same checks
    with pytest.raises(InfeasibleVolume, match="^patch 0 holds no cell$"):
        dataclasses.replace(p, station_of_cell=np.ones(4, dtype=np.int64))
    relabeled = dataclasses.replace(p, station_of_cell=np.array([1, 1, 1, 0], dtype=np.int32))
    np.testing.assert_array_equal(relabeled.patch_sizes, [1, 3])
    assert relabeled.station_of_cell.dtype == np.int64


def test_aggregate_examples():
    d = line_domain(4)
    p = build_partition(d, StationSet(d, [0, 3]))
    z = aggregate(p, SpatialField(d, [1.0, 2.0, 3.0, 4.0]))
    np.testing.assert_allclose(z.values, [3.0, 7.0])
    zero = aggregate(p, SpatialField(d, np.zeros(4)))
    np.testing.assert_allclose(zero.values, 0.0)


def test_aggregate_with_tie_weights():
    # the tied middle cell counts wholly for the station on the lower cell
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


@pytest.mark.parametrize("volumes", [[6.0], [1.0, 2.0, 3.0]])
def test_patched_estimate_needs_one_volume_per_station(volumes):
    d = line_domain(3)
    two = build_partition(d, StationSet(d, [0, 1]))
    with pytest.raises(ShapeMismatch, match=f"{len(volumes)} volumes for 2 stations"):
        patched_estimate(two, AggregateObservations(volumes))


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
        assert z.values.sum() == pytest.approx(f.total(), rel=1e-12)
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
)
@settings(max_examples=60)
def test_voronoi_matches_brute_force(n_rows, n_cols, m, seed):
    rng = np.random.default_rng(seed)
    mask = rng.random(n_rows * n_cols) < 0.85
    if not mask.any():
        mask[0] = True
    d = make_domain(n_rows, n_cols, mask)
    m = min(m, d.n)
    # listed in draw order: a tie goes by cell, not by list position
    cells = rng.choice(d.n, size=m, replace=False)
    p = build_partition(d, StationSet(d, cells))
    # centers are half-integers, so the oracle's float squared distances are
    # exact and distinct ones differ by at least 1
    owner, n_tied = voronoi_oracle(d.centers, cells, 1e-9)
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


@given(
    n_rows=st.integers(1, 12),
    n_cols=st.integers(1, 12),
    m=st.integers(1, 8),
    seed=st.integers(0, 10_000),
)
def test_nearest_site_matches_a_per_cell_argmin(n_rows, n_cols, m, seed):
    rng = np.random.default_rng(seed)
    mask = rng.random(n_rows * n_cols) < 0.85
    mask[rng.integers(mask.size)] = True
    cells = make_domain(n_rows, n_cols, mask).cells
    # each site comes with its mirror image through an active cell, which
    # ties between the two; a zero offset lists one site twice
    pivots = cells[rng.integers(len(cells), size=m)]
    offsets = rng.integers(-3, 4, size=(m, 2))
    sites = rng.permutation(np.concatenate([pivots + offsets, pivots - offsets]))
    for listed in (sites, sites[::-1]):
        nearest, has_ties = partition._nearest_site(cells, listed)
        tied = False
        for j, cell in enumerate(cells):
            d2 = ((listed - cell) ** 2).sum(axis=1)
            assert nearest[j] == np.argmin(d2)
            tied = tied or np.count_nonzero(d2 == d2.min()) > 1
        assert has_ties == tied


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
    # every cell has unit area: a volume is its patch's plain sum, and the
    # patched estimate spreads it back as that sum over the patch's cells
    d = make_domain(1, 4)
    p = build_partition(d, StationSet(d, [0, 3]))
    z = aggregate(p, SpatialField(d, [1.0, 2.0, 3.0, 4.0]))
    np.testing.assert_array_equal(z.values, [3.0, 7.0])
    back = patched_estimate(p, z)
    np.testing.assert_array_equal(back.values, [1.5, 1.5, 3.5, 3.5])
    np.testing.assert_array_equal(aggregate(p, back).values, z.values)


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
    with pytest.raises(ConfigError, match="seed must be nonnegative, got -1"):
        sample_stations(SpatialField(d, np.ones(3)), 1, seed=-1)


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
