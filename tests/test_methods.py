"""Method dispatch, error metrics, and the ensemble comparison helpers."""
import warnings

import numpy as np
import pytest

from csmooth.admm import AdmmConfig, css_recover
from csmooth.benchmark import (
    EnsembleSpec,
    compare_methods,
    mean_mre,
    run_pipeline,
    run_seed,
    win_fraction,
)
from csmooth.domain import CovariateMatrix, SpatialField, make_domain
from csmooth.errors import ConfigError, NoEvaluableCells, NumericalFailure, ShapeMismatch
from csmooth.fem import assemble, triangulate
from csmooth.methods import (
    ALL_METHODS,
    CSS,
    CSS_FEATURES,
    PE,
    PE_SSR1,
    PE_SSR2,
    MethodSpec,
    run_method_full,
)
from csmooth.metrics import relative_errors
from csmooth.partition import (
    AggregateObservations,
    StationSet,
    aggregate,
    build_partition,
    patched_estimate,
    sample_stations,
)
from csmooth.smoother import SsrSolver


@pytest.fixture(scope="module")
def problem():
    dom = make_domain(8, 8)
    gen = np.random.default_rng(77)
    truth = SpatialField(dom, gen.uniform(0.5, 3.0, dom.n), nonnegative=True)
    stations = sample_stations(truth, 6, seed=3)
    part = build_partition(dom, stations)
    vols = aggregate(part, truth)
    w = np.column_stack([np.ones(dom.n), gen.uniform(size=dom.n)])
    cov = CovariateMatrix(dom, w, names=("one", "x"))
    fem = assemble(triangulate(dom))
    return dom, truth, part, vols, cov, fem


def test_method_registry():
    assert ALL_METHODS == ("pe", "pe-ssr1", "pe-ssr2", "css", "css-features")


def test_method_spec_validation():
    with pytest.raises(ConfigError):
        MethodSpec("nope")
    with pytest.raises(ConfigError):
        MethodSpec(PE, AdmmConfig(lam=0.0))
    assert MethodSpec(CSS).admm == AdmmConfig()
    custom = AdmmConfig(lam=5.0, rho=3.0)
    assert MethodSpec(CSS, custom).admm is custom


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("method", ALL_METHODS)
def test_volume_count_must_match_stations(problem, method, m, monkeypatch):
    dom, truth, part, vols, cov, fem = problem
    # the count is checked before a mesh is built
    monkeypatch.setattr("csmooth.fem.assemble", None)
    with pytest.raises(ShapeMismatch, match=f"^{m} volumes for 6 stations$"):
        run_method_full(MethodSpec(method), part, AggregateObservations(vols.values[:m]), cov)


def test_pe_is_the_patched_estimate(problem):
    dom, truth, part, vols, cov, fem = problem
    est, res = run_method_full(MethodSpec(PE), part, vols, fem=fem)
    assert res is None
    np.testing.assert_array_equal(est.values, patched_estimate(part, vols).values)


def test_pe_ssr1_fits_station_cell_densities(problem):
    dom, truth, part, vols, cov, fem = problem
    est, res = run_method_full(MethodSpec(PE_SSR1, AdmmConfig(lam=2.0)), part, vols, fem=fem)
    assert res is None
    density = vols.values / part.patch_sizes
    manual = SsrSolver(fem, 2.0, subset=part.stations.cells).solve(density)
    np.testing.assert_array_equal(est.values, manual.fitted)


def test_pe_ssr2_smooths_the_patched_estimate(problem):
    dom, truth, part, vols, cov, fem = problem
    est, res = run_method_full(MethodSpec(PE_SSR2, AdmmConfig(lam=2.0)), part, vols, fem=fem)
    assert res is None
    manual = SsrSolver(fem, 2.0).solve(patched_estimate(part, vols).values)
    np.testing.assert_array_equal(est.values, manual.fitted)


def test_css_matches_direct_recovery(problem):
    dom, truth, part, vols, cov, fem = problem
    spec = MethodSpec(CSS)
    est, res = run_method_full(spec, part, vols, fem=fem)
    direct = css_recover(part, vols, None, spec.admm, fem)
    np.testing.assert_array_equal(est.values, direct.estimate.values)
    assert res is not None
    assert res.iterations == direct.iterations


def test_css_features_standardizes_covariates(problem):
    dom, truth, part, vols, cov, fem = problem
    spec = MethodSpec(CSS_FEATURES)
    est, res = run_method_full(spec, part, vols, covariates=cov, fem=fem)
    direct = css_recover(part, vols, cov.standardized(), spec.admm, fem)
    np.testing.assert_array_equal(est.values, direct.estimate.values)
    assert res is not None and res.beta.shape == (2,)


def test_css_features_requires_covariates(problem):
    dom, truth, part, vols, cov, fem = problem
    with pytest.raises(ConfigError):
        run_method_full(MethodSpec(CSS_FEATURES), part, vols, fem=fem)


@pytest.mark.parametrize("method", [PE_SSR1, PE_SSR2, CSS, CSS_FEATURES])
def test_smoothing_methods_reject_a_mesh_of_another_grid(method, monkeypatch):
    # a 5 x 4 mesh has the cell and vertex counts of a 4 x 5 one, so only
    # the grid itself tells them apart; it is rejected before any factorization
    def no_factorization(*args, **kwargs):
        raise AssertionError("a system was factored on a foreign mesh")

    monkeypatch.setattr("csmooth.admm.SsrSolver", no_factorization)
    monkeypatch.setattr("csmooth.methods.SsrSolver", no_factorization)
    dom = make_domain(4, 5)
    truth = SpatialField(dom, np.random.default_rng(5).uniform(0.5, 3.0, dom.n))
    part = build_partition(dom, StationSet(dom, np.array([0, 7, 13, 19])))
    vols = aggregate(part, truth)
    cov = CovariateMatrix(dom, np.arange(dom.n, dtype=float)[:, None], names=("x",))
    other = assemble(triangulate(make_domain(5, 4)))
    assert (other.tri.domain.n, other.n_vertices) == (dom.n, 30)
    with pytest.raises(ShapeMismatch):
        run_method_full(MethodSpec(method), part, vols, cov, other)


def test_relative_errors_excludes_below_floor():
    dom = make_domain(1, 4)
    truth = SpatialField(dom, np.array([2.0, 0.0, 4.0, 1e-12]))
    est = SpatialField(dom, np.array([1.0, 5.0, 5.0, 2.0]))
    rep = relative_errors(est, truth, method="pe", seed=7)
    assert rep.excluded == 2
    np.testing.assert_allclose(rep.errors, [0.5, 0.25])
    assert rep.mre == pytest.approx(0.375)
    np.testing.assert_allclose(rep.cdf_errors, [0.25, 0.5])
    np.testing.assert_allclose(rep.cdf_values, [0.5, 1.0])
    assert rep.method == "pe" and rep.seed == 7


@pytest.mark.parametrize("floor", [0.0, -1.0, float("nan"), float("inf")])
def test_relative_errors_floor_must_be_positive_and_finite(floor):
    # a zero floor admits zero-truth cells, whose relative error is inf
    dom = make_domain(1, 3)
    truth = SpatialField(dom, np.array([1.0, 0.0, 2.0]))
    with pytest.raises(ConfigError):
        relative_errors(truth, truth, floor=floor)


def test_relative_errors_needs_an_evaluable_cell():
    dom = make_domain(1, 2)
    truth = SpatialField(dom, np.zeros(2))
    est = SpatialField(dom, np.ones(2))
    with pytest.raises(NoEvaluableCells):
        relative_errors(est, truth)


def test_relative_errors_checks_domain():
    t = SpatialField(make_domain(2, 2), np.ones(4))
    e = SpatialField(make_domain(4, 1), np.ones(4))
    with pytest.raises(ShapeMismatch):
        relative_errors(e, t)


def test_compare_methods_needs_a_seed():
    spec = EnsembleSpec(n_rows=8, n_cols=8, n_stations=5)
    with pytest.raises(ConfigError, match="at least one seed"):
        compare_methods(spec, (), (PE,))
    with pytest.raises(ConfigError, match="needs spec.beta"):
        compare_methods(spec, (0,), (PE, CSS_FEATURES))


def test_run_seed_uses_the_mesh_it_is_given(monkeypatch):
    # a mesh on the spec's grid is used as it is; one on another grid is
    # refused, not replaced by a mesh built for the seed
    spec = EnsembleSpec(n_rows=8, n_cols=8, n_stations=5)
    same = assemble(triangulate(make_domain(8, 8)))
    other = assemble(triangulate(make_domain(8, 9)))

    def never(*args, **kwargs):
        raise AssertionError("a mesh was built for the seed")

    monkeypatch.setattr("csmooth.fem.assemble", never)
    assert run_seed(spec, 0, (PE_SSR2,), same).mre(PE_SSR2) > 0
    with pytest.raises(ShapeMismatch, match="^mesh is defined on a different domain$"):
        run_seed(spec, 0, (PE, PE_SSR2), other)


def test_run_pipeline_runs_every_method_its_inputs_allow(problem):
    # without covariates css-features cannot run, so the default list is the
    # other four methods; with covariates it is all five
    dom, truth, part, vols, cov, fem = problem
    plain = run_pipeline(truth, n_stations=6, seed=3)
    assert tuple(plain.results) == (PE, PE_SSR1, PE_SSR2, CSS)
    with_cov = run_pipeline(truth, covariates=cov, n_stations=6, seed=3)
    assert tuple(with_cov.results) == (PE, PE_SSR1, PE_SSR2, CSS, CSS_FEATURES)


def test_ensemble_summaries():
    spec = EnsembleSpec(n_rows=8, n_cols=8, n_stations=5)
    outs = compare_methods(spec, seeds=range(4), methods=(PE, PE_SSR2))
    mres = np.array([o.mre(PE_SSR2) for o in outs])
    assert mean_mre(outs, PE_SSR2) == pytest.approx(float(mres.mean()))
    wins = win_fraction(outs, PE_SSR2, PE)
    direct = np.mean([o.mre(PE_SSR2) < o.mre(PE) for o in outs])
    assert wins == pytest.approx(float(direct))
    # a method never beats itself under the strict comparison
    assert win_fraction(outs, PE, PE) == 0.0


def _near_the_float_limit():
    """An 8x8 field uniform in [1e306, 2e306] at 6 stations: every volume and
    the total are finite, but squares of numbers of this size overflow."""
    dom = make_domain(8, 8)
    truth = SpatialField(dom, np.random.default_rng(0).uniform(1e306, 2e306, dom.n))
    part = build_partition(dom, sample_stations(truth, 6, seed=1))
    return part, aggregate(part, truth)


def test_overflowing_css_run_is_a_numerical_failure():
    # the first sweep's objective overflows: a typed failure naming the sweep
    # and the largest volume, not 500 sweeps of inf and nan
    part, volumes = _near_the_float_limit()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure, match=r"css sweep 1: .* is not finite.*"
                                                   r"largest volume \d\.\d{3}e\+307"):
            css_recover(part, volumes)


@pytest.mark.parametrize("method", [PE_SSR1, PE_SSR2])
def test_smoothing_near_the_float_limit_is_quiet(method):
    # the surface is finite; its roughness overflows, and is reported as inf
    # without a warning
    part, volumes = _near_the_float_limit()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est, _ = run_method_full(MethodSpec(method), part, volumes)
    assert np.isfinite(est.values).all()
