"""Operator-splitting recovery: projection step, smoothing step, full loop."""
import dataclasses
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import csmooth.admm
import csmooth.smoother
from csmooth.admm import (
    _ALPHA,
    AdmmConfig,
    css_recover,
    dual_update,
    volume_constraints,
    volume_projection,
)
from csmooth.domain import CovariateMatrix, SpatialField, make_domain
from csmooth.errors import ConfigError, InfeasibleVolume, NumericalFailure, ShapeMismatch
from csmooth.fem import assemble, triangulate
from csmooth.partition import (
    AggregateObservations,
    Partition,
    StationSet,
    aggregate,
    build_partition,
    sample_stations,
)
from csmooth.smoother import SsrSolver

from oracles import (
    constrained_qp_field_oracle,
    css_admm_oracle,
    dense_f_update_oracle,
    qp_patch_oracle,
)


def waterfill(costs, total: float, rho: float) -> np.ndarray:
    """The projection on one patch holding every cell: minimize
    (rho/2)||g||^2 + costs' g  s.t.  sum(g) = total, g >= 0, with costs the
    dual scaled by 1/rho against a zero field."""
    c = np.asarray(costs, dtype=float)
    dom = make_domain(1, c.size)
    part = build_partition(dom, StationSet(dom, np.arange(1)))
    return volume_projection(volume_constraints(part, AggregateObservations([total])),
                             np.zeros(c.size), c / rho, np.full(1, np.inf))


def test_waterfill_worked_example():
    # support {0, 1}: level nu = (3 - 6) / 2 = -1.5, third cost clears it
    g = waterfill(np.array([-4.0, -2.0, 0.0]), total=3.0, rho=1.0)
    np.testing.assert_allclose(g, [2.5, 0.5, 0.0], rtol=0, atol=1e-12)


def test_waterfill_zero_total():
    g = waterfill(np.array([3.0, -1.0]), total=0.0, rho=2.0)
    np.testing.assert_array_equal(g, [0.0, 0.0])


def test_waterfill_negative_total_rejected():
    with pytest.raises(InfeasibleVolume):
        waterfill(np.array([1.0]), total=-0.5, rho=1.0)


@settings(max_examples=200)
@given(
    costs=st.lists(st.floats(-10, 10), min_size=1, max_size=8),
    total=st.floats(0, 20),
    rho=st.sampled_from([0.5, 1.0, 2.0]),
)
# a total below the ulp of the tied costs: every Newton step from the
# cheapest cells rounds below them
@example(costs=[-2.8968671779247126] * 3, total=2.225073858507203e-309, rho=0.5)
def test_waterfill_matches_qp_oracle(costs, total, rho):
    c = np.asarray(costs)
    g = waterfill(c, total, rho)
    g_ref, obj_ref = qp_patch_oracle(c, total, rho)
    assert abs(g.sum() - total) <= 1e-9 * max(1.0, total)
    assert g.min(initial=0.0) >= -1e-12
    np.testing.assert_allclose(g, g_ref, rtol=0, atol=1e-9)
    obj = 0.5 * rho * float(g @ g) + float(c @ g)
    assert obj <= obj_ref + 1e-9


def test_volume_projection_matches_patchwise_oracle(rng):
    holed = np.ones((4, 5), dtype=bool)
    holed[1, 2] = holed[3, 0] = False
    corners = np.ones((5, 6), dtype=bool)
    corners[0, 0] = corners[4, 5] = False
    ring = np.ones((3, 3), dtype=bool)
    ring[1, 1] = False
    # (domain, station cells, binary patch sizes, volumes, rho); tied cells
    # go to the station on the lowest cell, station 2 of the second case keeps
    # only its own cell, and the third case is one station owning all
    cases = [
        (make_domain(5, 6, mask=corners), [2, 9, 17, 25], [7, 8, 6, 7],
         [0.0, 3.0, 5.5, 1.25], 1.5),
        (make_domain(4, 5, mask=holed), [6, 8, 9, 10], [5, 8, 1, 4],
         [2.0, 4.5, 0.75, 0.0], 0.5),
        (make_domain(3, 3, mask=ring), [4], [8], [7.0], 3.0),
    ]
    for dom, cells, sizes, volumes, rho in cases:
        part = build_partition(dom, StationSet(dom, np.array(cells)))
        assert part.has_ties == (len(cells) > 1)
        assert np.bincount(part.station_of_cell).tolist() == sizes
        field = rng.normal(1.0, 1.0, dom.n)
        dual = rng.normal(0.0, 0.5, dom.n)
        vols = AggregateObservations(np.array(volumes))
        # equal costs on a zero-volume patch: 0.7 summed over 7 cells and
        # divided by 7 rounds above 0.7, so only an exact zero keeps g at 0
        zero = np.isin(part.station_of_cell, np.flatnonzero(vols.values == 0))
        field[zero], dual[zero] = 0.0, 0.7
        # the projection reads the dual scaled by 1/rho
        g = volume_projection(volume_constraints(part, vols), field, dual / rho,
                              np.full(part.m, np.inf))
        costs = dual - rho * field
        patches = [np.flatnonzero(part.station_of_cell == i) for i in range(part.m)]
        g_ref = constrained_qp_field_oracle(patches, costs, vols.values, rho)
        np.testing.assert_allclose(g, g_ref, rtol=0, atol=1e-9)
        # per-patch sums reproduce the observed volumes
        np.testing.assert_allclose(
            aggregate(part, SpatialField(dom, g)).values, vols.values, rtol=0, atol=1e-9
        )
        assert (g[zero] == 0.0).all()


def test_volume_projection_checks_station_count():
    # the constraint set a projection reads checks the count when it is built
    dom = make_domain(2, 2)
    part = build_partition(dom, StationSet(dom, np.array([0])))
    with pytest.raises(ShapeMismatch, match="^2 volumes for 1 stations$"):
        volume_constraints(part, AggregateObservations([1.0, 2.0]))
    # build_partition always leaves a station its own cell, and a partition
    # that empties station 1's patch is refused when it is built, before
    # any constraint set can read it
    part = build_partition(dom, StationSet(dom, np.array([0, 1])))
    with pytest.raises(InfeasibleVolume, match="patch 1 holds no cell"):
        dataclasses.replace(part, station_of_cell=np.zeros(4, dtype=np.int64))


def lexsort_waterfill(
    costs: np.ndarray, patch: np.ndarray, totals: np.ndarray, rho: float
) -> np.ndarray:
    """The projection kernel as it was before the Newton water levels: one
    lexsort by (patch, cost) per call and each level from the sorted prefix
    sums. Kept as the reference for the Newton iteration."""
    if (totals < 0).any():
        raise InfeasibleVolume(f"patch volume {totals.min()} is negative")
    sizes = np.bincount(patch, minlength=totals.size)
    if not sizes.all():
        raise InfeasibleVolume(f"patch {int(np.argmin(sizes))} holds no cell")
    order = np.lexsort((costs, patch))
    cs, ps = costs[order], patch[order]
    starts = np.cumsum(sizes) - sizes
    rank = np.arange(cs.size) - starts[ps]
    run = np.cumsum(cs)
    prefix = run - np.r_[0.0, run][starts][ps]
    nu = (rho * totals[ps] + prefix) / (rank + 1)
    # largest prefix whose level clears its own largest cost; ties put the
    # boundary element at exactly zero, so >= picks the same solution while
    # keeping the first prefix valid even when rho * total underflows
    support = np.maximum.reduceat(np.where(nu >= cs, rank, 0), starts) + 1
    # the level again over the support alone: bincount adds each patch's
    # sorted costs one by one, as a per-patch cumsum does, free of the
    # rounding the running sum picked up from earlier patches
    inside = rank < support[ps]
    sums = np.bincount(ps[inside], weights=cs[inside], minlength=totals.size)
    level = (rho * totals + sums) / support
    g = np.maximum(0.0, (level[patch] - costs) / rho)
    g[totals[patch] == 0] = 0.0
    return g


@pytest.mark.parametrize("m", [1, 255, 256, 257, 65_536, 65_537])
def test_newton_waterfill_matches_lexsort(rng, m):
    # every patch gets one cell, then the rest land at random; costs on a
    # coarse grid tie exactly within and across patches, and every fifth
    # patch observes zero volume
    n = 2 * m + 5
    station_of_cell = rng.permutation(np.concatenate([np.arange(m), rng.integers(0, m, n - m)]))
    costs = rng.integers(-8, 8, n) * 0.25
    costs[::3] = rng.normal(0.0, 2.0, costs[::3].size)
    totals = rng.uniform(0.0, 5.0, m)
    totals[::5] = 0.0
    # a one-row grid of unit cells, so the volumes are the densities
    dom = make_domain(1, n)
    part = Partition(StationSet(dom, np.arange(m)), station_of_cell, has_ties=False)
    constraints = volume_constraints(part, AggregateObservations(totals))
    for rho in (0.5, 1.7):
        # costs / rho = dual - 0 with the dual scaled by 1/rho
        g = volume_projection(constraints, np.zeros(n), costs / rho, np.full(totals.size, np.inf))
        g_ref = lexsort_waterfill(costs, station_of_cell, totals, rho)
        np.testing.assert_allclose(g, g_ref, rtol=0, atol=1e-12 * g_ref.max())
        assert (g[totals[station_of_cell] == 0] == 0.0).all()


@pytest.mark.parametrize("rho", [0.5, 2.0])
def test_smooth_update_matches_dense_oracle(rng, rho):
    # the f-step exactly as css_recover takes it
    fem = assemble(triangulate(make_domain(5, 5)))
    psi = fem.basis_eval.toarray()
    jump = fem.edge_jump.toarray()
    g = rng.uniform(0.0, 3.0, 25)
    dual = rng.normal(0.0, 1.0, 25)
    lam = 0.8
    model = SsrSolver(fem, 2.0 * lam / rho).solve(g + dual / rho)
    c_ref, _ = dense_f_update_oracle(psi, jump, fem.edge_length, g, dual, rho, lam)
    np.testing.assert_allclose(model.fitted, psi @ c_ref, rtol=0, atol=1e-9)
    assert model.beta.size == 0


def test_dual_update_arithmetic():
    # the scaled dual: dual + (relaxed - f), the input left as it was
    dual = np.array([1.0, -2.0])
    out = dual_update(dual, f=np.array([0.5, 0.5]), relaxed=np.array([1.0, 0.0]))
    np.testing.assert_array_equal(out, [1.5, -2.5])
    np.testing.assert_array_equal(dual, [1.0, -2.0])


@pytest.mark.parametrize("with_covariates", [False, True])
def test_css_loop_matches_textbook_admm(rng, with_covariates):
    # a masked grid with ties and a zero-volume patch; covariates, when on,
    # are random columns, so no combination of them is affine on the cells
    # and the oracle's joint solve is well posed. Every sweep's primal and
    # dual residual and objective must match, not only the final estimate,
    # to within 1e-10 of the field max (the two agree to ~1e-15)
    corners = np.ones((5, 6), dtype=bool)
    corners[0, 0] = corners[4, 5] = False
    dom = make_domain(5, 6, mask=corners)
    part = build_partition(dom, StationSet(dom, np.array([2, 9, 17, 25])))
    assert part.has_ties
    vols = AggregateObservations(np.array([0.0, 3.0, 5.5, 1.25]))
    fem = assemble(triangulate(dom))
    w = rng.normal(size=(dom.n, 2)) if with_covariates else None
    cov = None if w is None else CovariateMatrix(dom, w, names=("a", "b"))
    lam, rho, sweeps = 0.8, 1.5, 25
    res = css_recover(part, vols, cov, AdmmConfig(lam, rho, sweeps, tol=0.0), fem)
    patches = [np.flatnonzero(part.station_of_cell == i) for i in range(part.m)]
    g, f, primal, dual, objective = css_admm_oracle(
        fem.basis_eval.toarray(), fem.edge_jump.toarray(), fem.edge_length,
        patches, vols.values, lam, rho, sweeps, w, alpha=_ALPHA,
    )
    assert res.iterations == sweeps and not res.converged
    atol = 1e-10 * np.abs(g).max()
    np.testing.assert_allclose(res.estimate.values, g, rtol=0, atol=atol)
    np.testing.assert_allclose(res.primal_residuals, primal, rtol=0, atol=atol)
    np.testing.assert_allclose(res.dual_residuals, dual, rtol=0, atol=atol)
    np.testing.assert_allclose(res.objectives, objective, rtol=0, atol=atol)
    smooth = res.smooth_component if w is None else res.smooth_component + w @ res.beta
    np.testing.assert_allclose(smooth, f, rtol=0, atol=atol)
    assert (res.estimate.values[patches[0]] == 0.0).all()


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    sizes=st.lists(st.integers(1, 6), min_size=1, max_size=5),
    start=st.sampled_from(["below", "above", "random"]),
)
def test_warm_projection_matches_cold(data, sizes, start):
    # Newton from any starting levels lands where the cold start (+inf) does:
    # costs drawn from a coarse grid tie within and across patches, a
    # zero total empties its patch, and starts lie below every cost, above
    # every cost or anywhere
    cell_patch = np.repeat(np.arange(len(sizes)), sizes)
    costs = np.array(data.draw(st.lists(
        st.sampled_from([-3.0, -1.5, -0.25, 0.0, 0.5, 2.0]) | st.floats(-10, 10),
        min_size=cell_patch.size, max_size=cell_patch.size)))
    totals = np.array(data.draw(st.lists(
        st.just(0.0) | st.floats(0.01, 20), min_size=len(sizes), max_size=len(sizes))))
    dom = make_domain(1, cell_patch.size)
    part = Partition(StationSet(dom, np.arange(len(sizes))), cell_patch, has_ties=False)
    constraints = volume_constraints(part, AggregateObservations(totals))
    cold_level = np.full(len(sizes), np.inf)
    cold = volume_projection(constraints, np.zeros(dom.n), costs, cold_level)
    if start == "below":
        level = np.full(len(sizes), costs.min() - data.draw(st.floats(0, 50)))
    elif start == "above":
        level = np.full(len(sizes), costs.max() + data.draw(st.floats(0, 50)))
    else:
        level = np.array(data.draw(st.lists(
            st.floats(-30, 30), min_size=len(sizes), max_size=len(sizes))))
    # passes past the cap raise NumericalFailure, failing the test
    warm = volume_projection(constraints, np.zeros(dom.n), costs, level)
    # rounding in a level scales with the costs as much as with g
    scale = max(np.abs(cold).max(), np.abs(costs).max(), 1.0)
    np.testing.assert_allclose(warm, cold, rtol=0, atol=1e-12 * scale)
    np.testing.assert_allclose(level, cold_level, rtol=0, atol=1e-12 * scale)
    assert (warm[totals[cell_patch] == 0] == 0.0).all()


def test_newton_pass_cap_raises():
    # a cap that cannot hold the passes a cold start takes is a typed error
    dom = make_domain(1, 4)
    part = Partition(StationSet(dom, np.arange(1)), np.zeros(4, dtype=np.int64), has_ties=False)
    constraints = dataclasses.replace(
        volume_constraints(part, AggregateObservations([1.0])), passes=1
    )
    with pytest.raises(NumericalFailure, match="did not settle within 1 Newton passes"):
        volume_projection(constraints, np.zeros(4), np.array([0.0, 1.0, 2.0, 3.0]),
                          np.full(1, np.inf))


@pytest.mark.parametrize("with_covariates", [False, True])
def test_each_sweep_projects_solves_and_steps_once(monkeypatch, rng, with_covariates):
    # the loop reaches the projection, the smoothing solve and the dual step
    # through their module attributes, once each per sweep, so that a wrapper
    # placed there (as perfbench's tracer does) sees every sweep
    calls = {"volume_projection": 0, "dual_update": 0, "solve": 0}

    def counted(owner, name):
        inner = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(csmooth.admm, "volume_projection")
    counted(csmooth.admm, "dual_update")
    counted(csmooth.smoother.SsrSolver, "solve")
    dom, truth, part, vols = make_problem(8, 8, 6, seed=7)
    cov = None
    if with_covariates:
        cov = CovariateMatrix(dom, rng.normal(size=(dom.n, 2)), names=("a", "b"))
    for cfg in (AdmmConfig(max_iter=7, tol=0.0), AdmmConfig()):
        calls.update(dict.fromkeys(calls, 0))
        res = css_recover(part, vols, cov, cfg)
        assert calls == dict.fromkeys(calls, res.iterations)
    assert res.converged and res.iterations > 7


def make_problem(rows, cols, n_stations, seed):
    dom = make_domain(rows, cols)
    rng = np.random.default_rng(seed)
    truth = SpatialField(dom, rng.uniform(0.5, 3.0, dom.n), nonnegative=True)
    stations = sample_stations(truth, n_stations, seed=seed + 1)
    part = build_partition(dom, stations)
    return dom, truth, part, aggregate(part, truth)


def test_station_per_cell_is_exact_after_one_sweep():
    # singleton patches leave the projection no freedom: g equals the
    # observed densities from the first sweep onward
    dom, truth, part, vols = make_problem(3, 4, 12, seed=5)
    res = css_recover(part, vols, config=AdmmConfig(max_iter=1))
    np.testing.assert_allclose(
        res.estimate.values, vols.values[part.station_of_cell], rtol=0, atol=1e-12
    )
    np.testing.assert_allclose(res.estimate.values, truth.values, rtol=0, atol=1e-9)


def test_constant_field_recovered_immediately():
    dom = make_domain(6, 6)
    truth = SpatialField(dom, np.full(36, 2.5), nonnegative=True)
    part = build_partition(dom, StationSet(dom, np.array([2, 18, 31, 34])))
    assert not part.has_ties
    vols = aggregate(part, truth)
    res = css_recover(part, vols)
    assert res.converged
    assert res.iterations <= 2
    np.testing.assert_allclose(res.estimate.values, 2.5, rtol=0, atol=1e-9)


def test_estimate_scales_with_volumes():
    dom, truth, part, vols = make_problem(8, 8, 6, seed=11)
    cfg = AdmmConfig(max_iter=30, tol=0.0)
    res_1 = css_recover(part, vols, config=cfg)
    res_s = css_recover(part, AggregateObservations(vols.values * 7.0), config=cfg)
    assert res_1.iterations == res_s.iterations == 30
    np.testing.assert_allclose(
        res_s.estimate.values, 7.0 * res_1.estimate.values, rtol=1e-9, atol=1e-9
    )


def test_histories_and_flags():
    dom, truth, part, vols = make_problem(8, 8, 6, seed=2)
    res = css_recover(part, vols, config=AdmmConfig(max_iter=3))
    assert not res.converged
    assert res.iterations == 3
    assert res.primal_residuals.shape == (3,)
    assert res.dual_residuals.shape == (3,)
    assert res.objectives.shape == (3,)
    assert np.isfinite(res.objectives).all()
    assert res.constraint_violation <= 1e-9
    assert res.estimate.values.min() >= -1e-12


def test_converged_run_meets_tolerances():
    dom, truth, part, vols = make_problem(8, 8, 6, seed=2)
    cfg = AdmmConfig()
    res = css_recover(part, vols, config=cfg)
    assert res.converged
    sqrt_n = np.sqrt(dom.n)
    assert res.primal_residuals[-1] <= cfg.tol * sqrt_n
    assert res.dual_residuals[-1] <= cfg.tol * sqrt_n
    # the estimate satisfies the aggregate constraints to working precision
    np.testing.assert_allclose(
        aggregate(part, res.estimate).values, vols.values, rtol=1e-9, atol=1e-9
    )


def test_estimate_reproduces_the_aggregated_totals_on_a_tied_partition(rng):
    # css enforces each total on the patch aggregate measured it over, so
    # re-aggregating the estimate gives back the observed volumes, tied
    # cells included, after any number of sweeps
    dom = make_domain(9, 11)
    truth = SpatialField(dom, rng.uniform(0.5, 3.0, dom.n), nonnegative=True)
    part = build_partition(dom, StationSet(dom, np.array([0, 4, 10, 44, 48, 54, 88, 98])))
    assert part.has_ties
    vols = aggregate(part, truth)
    for sweeps in (1, 20):
        res = css_recover(part, vols, config=AdmmConfig(max_iter=sweeps))
        np.testing.assert_allclose(
            aggregate(part, res.estimate).values, vols.values, rtol=1e-12
        )


def test_covariates_enter_smoothing(rng):
    dom, truth, part, vols = make_problem(8, 8, 6, seed=9)
    w = np.column_stack([np.ones(dom.n), rng.normal(size=dom.n)])
    cov = CovariateMatrix(dom, w, names=("one", "x"))
    res = css_recover(part, vols, covariates=cov, config=AdmmConfig(max_iter=40))
    assert res.beta.shape == (2,)
    # the constant column is affine, so the surface carries it: beta 0
    assert abs(res.beta[0]) <= 1e-9
    # smooth_component excludes the covariate effect by construction
    assert np.isfinite(res.smooth_component).all()


def test_determinism():
    dom, truth, part, vols = make_problem(8, 8, 6, seed=4)
    res_a = css_recover(part, vols)
    res_b = css_recover(part, vols)
    np.testing.assert_array_equal(res_a.estimate.values, res_b.estimate.values)
    np.testing.assert_array_equal(res_a.objectives, res_b.objectives)


def test_config_validation():
    with pytest.raises(ConfigError):
        AdmmConfig(lam=0.0)
    with pytest.raises(ConfigError):
        AdmmConfig(rho=-1.0)
    with pytest.raises(ConfigError):
        AdmmConfig(max_iter=0)
    with pytest.raises(ConfigError):
        AdmmConfig(tol=-1e-9)
    for tol in (float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            AdmmConfig(tol=tol)


@pytest.mark.parametrize("max_iter", [2.5, float("inf"), float("nan"), "7", True, None])
def test_max_iter_must_be_an_integer(max_iter):
    # none of these is a count of sweeps
    with pytest.raises(ConfigError, match="max_iter must be an integer"):
        AdmmConfig(max_iter=max_iter)


@pytest.mark.parametrize("field, value", [
    ("lam", "1"), ("lam", True), ("lam", None), ("rho", None), ("rho", True),
    ("rho", "0.8"), ("tol", "0"), ("tol", False), ("tol", 1j),
])
def test_weights_and_tol_must_be_real_numbers(field, value):
    # a string or None would escape np.isfinite as a TypeError, and a bool
    # would pass as 0 or 1
    with pytest.raises(ConfigError, match=f"{field} must be a real number"):
        AdmmConfig(**{field: value})


@pytest.mark.parametrize("field", ["lam", "rho", "tol"])
def test_weights_and_tol_take_numpy_floats(field):
    assert getattr(AdmmConfig(**{field: np.float32(0.5)}), field) == 0.5


def test_max_iter_takes_a_numpy_integer():
    dom, truth, part, vols = make_problem(4, 4, 3, seed=1)
    assert css_recover(part, vols, config=AdmmConfig(max_iter=np.int64(3))).iterations <= 3


def test_recover_input_validation():
    dom, truth, part, vols = make_problem(4, 4, 3, seed=1)
    with pytest.raises(ShapeMismatch, match="^2 volumes for 3 stations$"):
        css_recover(part, AggregateObservations(np.ones(2)))
    other = make_domain(4, 5)
    with pytest.raises(ShapeMismatch):
        css_recover(part, vols, fem=assemble(triangulate(other)))
    cov = CovariateMatrix(other, np.ones((20, 1)), names=("one",))
    with pytest.raises(ShapeMismatch):
        css_recover(part, vols, covariates=cov)


def test_constraints_project_each_volume_set_independently(rng):
    # one partition serves constraint sets of different volumes, projected
    # at different rho; each, built before the others are used, must project
    # as the one built from a fresh partition does
    dom, truth, part, vols = make_problem(8, 8, 6, seed=3)
    shifted = vols.values[::-1] * 2.0
    shifted[1] = 0.0
    other = AggregateObservations(shifted)
    field = rng.normal(1.0, 1.0, dom.n)
    dual = rng.normal(0.0, 0.5, dom.n)
    runs = [(vols, 1.0), (other, 2.5), (vols, 2.5), (other, 1.0)]
    sets = [volume_constraints(part, volumes) for volumes, rho in runs]
    for constraints, (volumes, rho) in zip(sets, runs):
        fresh = volume_constraints(build_partition(dom, part.stations), volumes)
        np.testing.assert_array_equal(
            volume_projection(constraints, field, dual / rho, np.full(part.m, np.inf)),
            volume_projection(fresh, field, dual / rho, np.full(part.m, np.inf)),
        )


@pytest.mark.parametrize("unit", [1e-6, 1.0, 1e6])
def test_constraint_check_is_relative_in_any_unit_of_volume(unit):
    # a projection that misses every total by 1e-6 of itself is caught
    # whatever the unit of volume, volumes below 1 included
    dom, truth, part, vols = make_problem(10, 10, 8, seed=3)
    constraints = volume_constraints(part, AggregateObservations(vols.values * unit))
    g = volume_projection(constraints, np.zeros(dom.n), np.zeros(dom.n), np.full(part.m, np.inf))
    assert csmooth.admm._check_constraints(constraints, g) <= 1e-12
    with pytest.raises(NumericalFailure, match="violated its constraints"):
        csmooth.admm._check_constraints(constraints, g * (1 + 1e-6))


def test_constraint_check_with_every_volume_zero(rng):
    # no volume sets a scale: every patch sum must be exactly 0
    dom, truth, part, vols = make_problem(6, 6, 4, seed=3)
    zero = AggregateObservations(np.zeros(part.m))
    constraints = volume_constraints(part, zero)
    g = volume_projection(constraints, rng.normal(size=dom.n), rng.normal(size=dom.n),
                          np.full(part.m, np.inf))
    assert not g.any() and csmooth.admm._check_constraints(constraints, g) == 0.0
    g[5] = 1e-300
    with pytest.raises(NumericalFailure, match="violated its constraints"):
        csmooth.admm._check_constraints(constraints, g)
    res = css_recover(part, zero)
    assert not res.estimate.values.any() and res.constraint_violation == 0.0


def test_constraint_check_catches_nan():
    # NaN compares false both ways: a NaN cell or patch sum must fail the check
    dom, truth, part, vols = make_problem(6, 6, 4, seed=3)
    constraints = volume_constraints(part, vols)
    with pytest.raises(NumericalFailure, match="violated its constraints"):
        csmooth.admm._check_constraints(constraints, np.full(dom.n, np.nan))


def test_nan_projection_is_a_numerical_failure(monkeypatch):
    # a NaN cell from the projection is a numerical fault of css, caught
    # before the smoothing solve would refuse it as a bad target
    project = csmooth.admm.volume_projection

    def nan_cell(*args):
        g = project(*args)
        g[0] = np.nan
        return g

    monkeypatch.setattr(csmooth.admm, "volume_projection", nan_cell)
    dom, truth, part, vols = make_problem(6, 6, 4, seed=3)
    with pytest.raises(NumericalFailure, match="violated its constraints"):
        css_recover(part, vols)


def test_constraints_keep_volume_checks():
    dom, truth, part, vols = make_problem(4, 4, 3, seed=1)
    with pytest.raises(InfeasibleVolume, match="negative volume -1.0 observed"):
        css_recover(part, AggregateObservations(np.array([-1.0, 2.0, 3.0])))
    # past the observations' own check, the constraint set still rejects it
    negative = AggregateObservations(np.array([1.0, 2.0, 3.0]))
    object.__setattr__(negative, "values", np.array([-1.0, 2.0, 3.0]))
    with pytest.raises(InfeasibleVolume, match="patch volume -1.0 is negative"):
        volume_constraints(part, negative)


def test_infeasible_volumes_fail_before_factoring(monkeypatch):
    # css builds its constraint set first: no mesh is assembled and no
    # system factored for volumes no field can match
    def never(*args, **kwargs):
        raise AssertionError("called before the volumes were checked")

    monkeypatch.setattr("csmooth.fem.assemble", never)
    monkeypatch.setattr("csmooth.admm.SsrSolver", never)
    dom, truth, part, vols = make_problem(4, 4, 3, seed=1)
    # a partition with an empty patch is refused before css can be called
    with pytest.raises(InfeasibleVolume, match="patch 1 holds no cell"):
        dataclasses.replace(part, station_of_cell=np.zeros(dom.n, dtype=np.int64))
    with pytest.raises(ShapeMismatch, match="^2 volumes for 3 stations$"):
        css_recover(part, AggregateObservations(np.ones(2)))
    negative = AggregateObservations(np.array([1.0, 2.0, 3.0]))
    object.__setattr__(negative, "values", np.array([1.0, -2.0, 3.0]))
    with pytest.raises(InfeasibleVolume, match="patch volume -2.0 is negative"):
        css_recover(part, negative)


@pytest.mark.parametrize("lam, rho", [(5e-324, 10.0), (1e308, 1e-10)])
def test_smoothing_weight_out_of_range_fails_before_factoring(monkeypatch, lam, rho):
    # each setting is valid alone, but the f-step's smoothing weight
    # 2 lam / rho rounds to 0 or overflows; css refuses it before any mesh
    # is assembled or system factored
    def never(*args, **kwargs):
        raise AssertionError("called before the smoothing weight was checked")

    monkeypatch.setattr("csmooth.fem.assemble", never)
    monkeypatch.setattr("csmooth.admm.SsrSolver", never)
    dom, truth, part, vols = make_problem(4, 4, 3, seed=1)
    with pytest.raises(ConfigError, match=r"2 lam / rho .* lam .*, rho "):
        css_recover(part, vols, config=AdmmConfig(lam=lam, rho=rho))


@pytest.mark.parametrize("rho", [1e-300, 1e300])
def test_singular_smoothing_system_names_css_settings(rho):
    # css smooths at weight 2 lam / rho, so at these rho the pivot ratio is
    # lost to the weight's scale; the message names lam and rho as given
    dom, truth, part, vols = make_problem(6, 6, 4, seed=1)
    with pytest.raises(NumericalFailure, match=re.escape(f"lam=1, rho={rho:g}") + ".*singular"):
        css_recover(part, vols, config=AdmmConfig(lam=1.0, rho=rho))
