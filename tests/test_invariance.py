"""Estimates that must not move when the inputs are only relabeled.

Each property maps the inputs, recovers with the same method, and compares
the estimates bit for bit: listing the stations in another order (their
totals carried along), renumbering the patches of a partition (stations and
totals carried along), and padding the grid with inactive rows and columns.
Transposing the grid or turning it by half a turn renumbers the cells, so
the sums run in another order: those estimates agree to 1e-9 of the field
max, not bit for bit.
"""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csmooth.admm import AdmmConfig
from csmooth.benchmark import EnsembleSpec
from csmooth.domain import CovariateMatrix, SpatialField, make_domain
from csmooth.errors import CsmoothError
from csmooth.fem import assemble, triangulate
from csmooth.methods import (
    ALL_METHODS, CSS, CSS_FEATURES, PE_SSR1, PE_SSR2, MethodSpec, run_method_full,
)
from csmooth.partition import (
    AggregateObservations, Partition, StationSet, aggregate, build_partition, sample_stations,
)
from csmooth.synth import generate_field

# a short cap keeps the runs cheap; listing and padding must not move any
# sweep, so the capped iterates agree as the converged ones would
_ADMM = AdmmConfig(max_iter=40)


@st.composite
def problems(draw, max_side=12):
    """A masked grid, a positive truth, two covariate columns and listed station cells."""
    n_rows, n_cols = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    active = rng.random(n_rows * n_cols) < draw(st.floats(0.3, 1.0))
    active[rng.integers(active.size)] = True
    domain = make_domain(n_rows, n_cols, active)
    m = draw(st.integers(1, min(domain.n, 8)))
    cells = rng.choice(domain.n, size=m, replace=False)
    return domain, cells, rng.uniform(0.5, 3.0, domain.n), rng.normal(size=(domain.n, 2))


def _recover(method, domain, cells, truth, covariates, volumes=None, part=None, admm=_ADMM):
    """(estimate, css (iterations, converged) or None) of one method, or its typed error's type."""
    if part is None:
        part = build_partition(domain, StationSet(domain, cells))
    if volumes is None:
        volumes = aggregate(part, SpatialField(domain, truth))
    cov = CovariateMatrix(domain, covariates, names=("a", "b"))
    try:
        est, res = run_method_full(MethodSpec(method, admm), part, volumes, covariates=cov,
                                   fem=assemble(triangulate(domain)))
    except CsmoothError as exc:
        return type(exc)
    return est.values, None if res is None else (res.iterations, res.converged)


def _same(a, b):
    if isinstance(a, type) or isinstance(b, type):
        assert a == b
    else:
        np.testing.assert_array_equal(a[0], b[0])
        assert a[1] == b[1]


# a tied case: on the 5x5 grid the center cell 12 is equidistant from all
# four stations, and cells 6, 8, 16 and 18 each from two of them
_TIED = (make_domain(5, 5), np.array([2, 10, 14, 22]), np.linspace(0.5, 3.0, 25),
         np.random.default_rng(5).normal(size=(25, 2)))


@given(problems(), st.integers(0, 2**32 - 1))
@example(_TIED, 0)
@settings(max_examples=30)
def test_estimates_ignore_the_station_listing_order(problem, seed):
    domain, cells, truth, covariates = problem
    part = build_partition(domain, StationSet(domain, cells))
    volumes = aggregate(part, SpatialField(domain, truth)).values
    # another listing, the reverse where a shuffle leaves the list as it was
    order = np.random.default_rng(seed).permutation(cells.size)
    if (order == np.arange(cells.size)).all():
        order = order[::-1]
    for method in ALL_METHODS:
        listed = _recover(method, domain, cells, truth, covariates)
        relisted = _recover(method, domain, cells[order], truth, covariates,
                            AggregateObservations(volumes[order]))
        _same(listed, relisted)


@given(problems(), st.integers(0, 2**32 - 1))
@example(_TIED, 0)
@settings(max_examples=30)
def test_estimates_ignore_the_patch_labels(problem, seed):
    domain, cells, truth, covariates = problem
    part = build_partition(domain, StationSet(domain, cells))
    volumes = aggregate(part, SpatialField(domain, truth)).values
    # new label k names old patch old[k], the reverse where a shuffle keeps
    # every label; each patch carries its station and its total along
    old = np.random.default_rng(seed).permutation(cells.size)
    if (old == np.arange(cells.size)).all():
        old = old[::-1]
    relabeled = Partition(StationSet(domain, part.stations.cells[old]),
                          np.argsort(old)[part.station_of_cell], part.has_ties)
    for method in ALL_METHODS:
        labeled = _recover(method, domain, None, None, covariates,
                           AggregateObservations(volumes), part=part)
        _same(labeled, _recover(method, domain, None, None, covariates,
                                AggregateObservations(volumes[old]), part=relabeled))


@given(problems(), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=30)
def test_estimates_ignore_inactive_padding(problem, top, bottom, left, right):
    domain, cells, truth, covariates = problem
    mask = np.zeros((domain.n_rows + top + bottom, domain.n_cols + left + right), dtype=bool)
    mask[top:top + domain.n_rows, left:left + domain.n_cols] = domain.active.reshape(
        domain.n_rows, domain.n_cols)
    padded = make_domain(*mask.shape, mask.ravel())
    # row-major order is kept, so every active cell keeps its index
    for method in (PE_SSR1, PE_SSR2, CSS):
        _same(_recover(method, domain, cells, truth, covariates),
              _recover(method, padded, cells, truth, covariates))



# no tolerance stops the loop, so both sides run the same 40 sweeps
_FIXED_SWEEPS = AdmmConfig(max_iter=40, tol=0.0)
_SYMMETRIES = {"transpose": np.transpose, "half-turn": lambda grid: grid[::-1, ::-1]}


@given(problems())
@settings(max_examples=30)
def test_estimates_follow_a_transpose_and_a_half_turn(problem):
    domain, cells, truth, covariates = problem
    part = build_partition(domain, StationSet(domain, cells))
    volumes = aggregate(part, SpatialField(domain, truth))
    methods = (PE_SSR1, PE_SSR2, CSS, CSS_FEATURES)
    unmapped = {method: _recover(method, domain, cells, truth, covariates, volumes,
                                 admm=_FIXED_SWEEPS) for method in methods}
    index = np.full(domain.n_rows * domain.n_cols, -1)
    index[domain.active] = np.arange(domain.n)
    for name, symmetry in _SYMMETRIES.items():
        mapped = symmetry(index.reshape(domain.n_rows, domain.n_cols))
        mapped_domain = make_domain(*mapped.shape, mapped.ravel() >= 0)
        # cell j of the mapped grid is cell old[j] of the given one
        old = mapped[mapped >= 0]
        # the patches are carried through the map, not rebuilt, so a tied
        # cell stays with its station
        mapped_part = Partition(StationSet(mapped_domain, np.argsort(old)[cells]),
                                part.station_of_cell[old], part.has_ties)
        for method in methods:
            expected = unmapped[method]
            got = _recover(method, mapped_domain, None, None, covariates[old], volumes,
                           part=mapped_part, admm=_FIXED_SWEEPS)
            if isinstance(expected, type) or isinstance(got, type):
                assert got == expected, (name, method)
            else:
                np.testing.assert_allclose(got[0], expected[0][old], rtol=0,
                                           atol=1e-9 * np.abs(expected[0]).max(),
                                           err_msg=f"{name} {method}")


# covariate columns given in other units: x0 is the constant 1, x1 and x2 are
# blocky levels in (0.05, 1)
_UNITS = {
    "x1 x 1e-12": [1.0, 1e-12, 1.0],
    "x2 x 1e-12": [1.0, 1.0, 1e-12],
    "constant 1e6": [1e6, 1.0, 1.0],
    "all x 1e-12": 1e-12,
    "all x 1e-6": 1e-6,
    "all x 1e6": 1e6,
    "all x 1e12": 1e12,
}


@pytest.fixture(scope="module")
def desk_problems():
    """Desk seeds 1, 3 and 7 (20x20, 15 stations, beta (0.5, 2, 1.5)), each with its
    partition, volumes, covariates, mesh and css-features estimate in the given units."""
    spec = EnsembleSpec(beta=(0.5, 2.0, 1.5))
    mesh = assemble(triangulate(make_domain(spec.n_rows, spec.n_cols)))
    out = []
    for seed in (1, 3, 7):
        truth, cov = generate_field(spec.synth_spec(seed))
        part = build_partition(truth.domain, sample_stations(
            truth, spec.n_stations, seed=seed + spec.station_seed_offset))
        volumes = aggregate(part, truth)
        est, _ = run_method_full(MethodSpec(CSS_FEATURES), part, volumes, cov, mesh)
        out.append((part, volumes, cov, mesh, est.values))
    return out


@pytest.mark.parametrize("units", list(_UNITS.values()), ids=list(_UNITS))
def test_css_features_ignores_the_covariate_units(desk_problems, units):
    # standardizing gives every column unit size, so neither the smoother's
    # rank cut, relative to the largest column, nor a near-constant test
    # sees the units the covariates came in
    for part, volumes, cov, mesh, expected in desk_problems:
        scaled = CovariateMatrix(cov.domain, cov.values * np.asarray(units), cov.names)
        got, _ = run_method_full(MethodSpec(CSS_FEATURES), part, volumes, scaled, mesh)
        np.testing.assert_allclose(got.values, expected, rtol=0,
                                   atol=1e-9 * np.abs(expected).max())
