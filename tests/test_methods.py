"""Method dispatch, error metrics, and the ensemble comparison helpers."""
import numpy as np
import pytest

from csmooth.admm import AdmmConfig, css_recover
from csmooth.benchmark import EnsembleSpec, compare_methods, mean_mre, win_fraction
from csmooth.domain import CovariateMatrix, SpatialField, make_domain
from csmooth.errors import ConfigError, NoEvaluableCells, ShapeMismatch
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
    StationSet,
    aggregate,
    build_partition,
    patched_estimate,
    sample_stations,
)
from csmooth.smoother import SsrSolver, ssr_fit


@pytest.fixture(scope="module")
def problem():
    dom = make_domain(8, 8, cell_area=0.25)
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


def test_pe_is_the_patched_estimate(problem):
    dom, truth, part, vols, cov, fem = problem
    est, res = run_method_full(MethodSpec(PE), dom, part, vols, fem=fem)
    assert res is None
    np.testing.assert_array_equal(est.values, patched_estimate(part, vols).values)


def test_pe_ssr1_fits_station_cell_densities(problem):
    dom, truth, part, vols, cov, fem = problem
    est, res = run_method_full(MethodSpec(PE_SSR1, AdmmConfig(lam=2.0)), dom, part, vols, fem=fem)
    assert res is None
    density = vols.values / (part.patch_sizes * dom.cell_area)
    manual = SsrSolver(fem, 2.0, subset=part.stations.cells).solve(density)
    np.testing.assert_array_equal(est.values, manual.fitted)


def test_pe_ssr2_smooths_the_patched_estimate(problem):
    dom, truth, part, vols, cov, fem = problem
    est, res = run_method_full(MethodSpec(PE_SSR2, AdmmConfig(lam=2.0)), dom, part, vols, fem=fem)
    assert res is None
    manual = ssr_fit(fem, patched_estimate(part, vols).values, 2.0)
    np.testing.assert_array_equal(est.values, manual.fitted)


def test_css_matches_direct_recovery(problem):
    dom, truth, part, vols, cov, fem = problem
    spec = MethodSpec(CSS)
    est, res = run_method_full(spec, dom, part, vols, fem=fem)
    direct = css_recover(dom, part, vols, None, spec.admm, fem)
    np.testing.assert_array_equal(est.values, direct.estimate.values)
    assert res is not None
    assert res.iterations == direct.iterations


def test_css_features_standardizes_covariates(problem):
    dom, truth, part, vols, cov, fem = problem
    spec = MethodSpec(CSS_FEATURES)
    est, res = run_method_full(spec, dom, part, vols, covariates=cov, fem=fem)
    direct = css_recover(dom, part, vols, cov.standardized(), spec.admm, fem)
    np.testing.assert_array_equal(est.values, direct.estimate.values)
    assert res is not None and res.beta.shape == (2,)


def test_css_features_requires_covariates(problem):
    dom, truth, part, vols, cov, fem = problem
    with pytest.raises(ConfigError):
        run_method_full(MethodSpec(CSS_FEATURES), dom, part, vols, fem=fem)


@pytest.mark.parametrize("method", [PE_SSR1, PE_SSR2, CSS, CSS_FEATURES])
def test_smoothing_methods_reject_a_mesh_of_another_grid(method, monkeypatch):
    # a 5 x 4 mesh has the cell and vertex counts of a 4 x 5 one, so only
    # the grid itself tells them apart; css rejects it before it factors
    def no_factorization(*args, **kwargs):
        raise AssertionError("css factored a system on a foreign mesh")

    monkeypatch.setattr("csmooth.admm.SsrSolver", no_factorization)
    dom = make_domain(4, 5)
    truth = SpatialField(dom, np.random.default_rng(5).uniform(0.5, 3.0, dom.n))
    part = build_partition(dom, StationSet(dom, np.array([0, 7, 13, 19])))
    vols = aggregate(part, truth)
    cov = CovariateMatrix(dom, np.arange(dom.n, dtype=float)[:, None], names=("x",))
    other = assemble(triangulate(make_domain(5, 4)))
    assert (other.tri.domain.n, other.n_vertices) == (dom.n, 30)
    with pytest.raises(ShapeMismatch):
        run_method_full(MethodSpec(method), dom, part, vols, cov, other)


def _run_every_method(values, w, mask, cells, cell_size, origin):
    dom = make_domain(9, 10, mask, cell_area=cell_size**2, origin=origin, cell_size=cell_size)
    part = build_partition(dom, StationSet(dom, cells))
    vols = aggregate(part, SpatialField(dom, values))
    cov = CovariateMatrix(dom, w, names=("a", "b"))
    fem = assemble(triangulate(dom))
    spec = AdmmConfig(max_iter=40, tol=0.0)
    return {m: run_method_full(MethodSpec(m, spec), dom, part, vols, cov, fem)
            for m in ALL_METHODS}


@pytest.mark.parametrize("cell_size", [1e-5, 0.3, 1.0, 250.0, 1e3])
def test_estimates_do_not_depend_on_the_unit_of_length(cell_size):
    # the same cells measured in another unit of length, at random origins
    # within 50 cells of the grid: every method returns its grid-unit
    # estimate, and css the same residuals and objective at every sweep
    gen = np.random.default_rng(12)
    mask = gen.random(90) < 0.9
    n = int(mask.sum())
    values = gen.gamma(2.0, 1.5, n)
    w = gen.normal(size=(n, 2))
    cells = np.sort(gen.choice(n, 12, replace=False))
    want = _run_every_method(values, w, mask, cells, 1.0, (0.0, 0.0))
    for _ in range(2):
        origin = tuple(gen.uniform(-50.0, 50.0, 2) * cell_size)
        got = _run_every_method(values, w, mask, cells, cell_size, origin)
        for m in ALL_METHODS:
            (est, res), (ref, ref_res) = got[m], want[m]
            scale = np.abs(ref.values).max()
            np.testing.assert_allclose(est.values, ref.values, rtol=0, atol=1e-9 * scale,
                                       err_msg=m)
            if res is None:
                continue
            for hist in ("primal_residuals", "dual_residuals", "objectives"):
                a, b = getattr(res, hist), getattr(ref_res, hist)
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-9 * np.abs(b).max(),
                                           err_msg=f"{m} {hist}")


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
    with pytest.raises(ValueError, match="at least one seed"):
        compare_methods(EnsembleSpec(n_rows=8, n_cols=8, n_stations=5), (), (PE,))


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
