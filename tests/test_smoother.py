"""Penalized surface fitting against dense reference solves."""
import re
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from csmooth.domain import CovariateMatrix, make_domain
from csmooth.errors import CollinearCovariates, ConfigError, NumericalFailure, ShapeMismatch
from csmooth.fem import FemSystem, assemble, triangulate
from csmooth.methods import CSS, CSS_FEATURES, PE_SSR1, PE_SSR2, MethodSpec, run_method_full
from csmooth.partition import AggregateObservations, StationSet, build_partition
from csmooth.smoother import SsrSolver

from oracles import dense_ssr_cov_oracle, dense_ssr_oracle


@pytest.fixture(scope="module")
def fem6():
    return assemble(triangulate(make_domain(6, 6)))


def dense_parts(fem):
    return fem.basis_eval.toarray(), fem.edge_jump.toarray(), fem.edge_length


def test_frozen_2x2_fit():
    # values from the dense stationarity solve, frozen
    fem = assemble(triangulate(make_domain(2, 2)))
    model = SsrSolver(fem, 1.0).solve(np.array([1.0, 4.0, 2.0, 7.0]))
    expected = np.array(
        [0.5211618561623961, 4.478838143837603, 2.4788381438376033, 6.521161856162397]
    )
    np.testing.assert_allclose(model.fitted, expected, rtol=0, atol=1e-12)
    assert model.roughness == pytest.approx(0.0405324156998417, abs=1e-14)


def test_constant_target_reproduced(fem6):
    model = SsrSolver(fem6, 1.0).solve(np.full(36, 7.0))
    np.testing.assert_allclose(model.fitted, 7.0, rtol=0, atol=1e-9)
    np.testing.assert_allclose(model.laplacian, 0.0, rtol=0, atol=1e-9)
    assert model.roughness < 1e-18


@pytest.mark.parametrize("lam", [1e-3, 1.0, 1e3])
def test_affine_target_reproduced(lam):
    # the penalty vanishes on affine surfaces, so they pass through untouched
    dom = make_domain(5, 7)
    fem = assemble(triangulate(dom))
    x, y = dom.centers[:, 0], dom.centers[:, 1]
    h = 1.5 + 0.3 * x - 0.8 * y
    model = SsrSolver(fem, lam).solve(h)
    np.testing.assert_allclose(model.fitted, h, rtol=0, atol=1e-9)
    assert model.roughness < 1e-16


@pytest.mark.parametrize(
    "lam,weight", [(1e-3, 1.0), (0.3, 1.0), (1.0, 0.5), (10.0, 2.0), (1e3, 1.0)]
)
def test_matches_dense_solve_6x6(fem6, rng, lam, weight):
    psi, jump, lengths = dense_parts(fem6)
    h = rng.normal(2.0, 1.0, 36)
    c_ref, d_ref = dense_ssr_oracle(psi, jump, lengths, h, lam, weight)
    model = SsrSolver(fem6, lam / weight).solve(h)
    np.testing.assert_allclose(model.coeffs, c_ref, rtol=0, atol=1e-9)
    np.testing.assert_allclose(model.laplacian, d_ref, rtol=0, atol=1e-9)
    np.testing.assert_allclose(model.fitted, psi @ c_ref, rtol=0, atol=1e-9)


def test_matches_dense_solve_with_covariates(fem6, rng):
    # no covariate combination is affine at the centers, so the surface and
    # coefficient split is unique and both solvers must agree on all of it
    psi, jump, lengths = dense_parts(fem6)
    h = rng.normal(2.0, 1.0, 36)
    w = np.column_stack([rng.normal(size=36), rng.uniform(size=36)])
    cov = CovariateMatrix(fem6.tri.domain, w, names=("a", "b"))
    for lam, weight in [(0.5, 1.0), (2.0, 0.5)]:
        c_ref, d_ref, b_ref = dense_ssr_cov_oracle(psi, jump, lengths, w, h, lam, weight)
        model = SsrSolver(fem6, lam / weight).solve(h, cov)
        np.testing.assert_allclose(model.beta, b_ref, rtol=0, atol=1e-9)
        np.testing.assert_allclose(model.coeffs, c_ref, rtol=0, atol=1e-9)
        np.testing.assert_allclose(model.laplacian, d_ref, rtol=0, atol=1e-9)
        np.testing.assert_allclose(model.fitted, psi @ c_ref + w @ b_ref, rtol=0, atol=1e-9)
        # the fitted surface is the surface of the returned coefficients
        # plus the covariate effect
        np.testing.assert_allclose(
            model.fitted, fem6.basis_eval @ model.coeffs + w @ model.beta, rtol=0, atol=1e-12
        )


def test_subset_fit_with_covariates_matches_dense(fem6, rng):
    # the data term and beta see only the subset; the surface and the
    # covariate effect are still evaluated at every cell
    psi, jump, lengths = dense_parts(fem6)
    w = np.column_stack([rng.normal(size=36), rng.uniform(size=36)])
    cov = CovariateMatrix(fem6.tri.domain, w, names=("a", "b"))
    idx = np.array([0, 3, 7, 10, 14, 19, 21, 22, 28, 30, 33, 35])
    for lam, weight in [(0.5, 1.0), (2.0, 0.5)]:
        h = rng.normal(2.0, 1.0, idx.size)
        c_ref, d_ref, b_ref = dense_ssr_cov_oracle(psi[idx], jump, lengths, w[idx], h, lam, weight)
        solver = SsrSolver(fem6, lam / weight, subset=idx)
        # the second solve reuses the cached covariate system
        for model in (solver.solve(h, cov), solver.solve(h, cov)):
            np.testing.assert_allclose(model.beta, b_ref, rtol=0, atol=1e-9)
            np.testing.assert_allclose(model.coeffs, c_ref, rtol=0, atol=1e-9)
            np.testing.assert_allclose(model.laplacian, d_ref, rtol=0, atol=1e-9)
            assert model.fitted.shape == (36,)
            np.testing.assert_allclose(model.fitted, psi @ c_ref + w @ b_ref, rtol=0, atol=1e-9)
            np.testing.assert_allclose(
                model.fitted, fem6.basis_eval @ model.coeffs + w @ model.beta, rtol=0, atol=1e-12
            )


def test_exact_covariate_field_recovered(fem6, rng):
    # target built as affine + W beta* is fit exactly with zero penalty
    dom = fem6.tri.domain
    w = np.column_stack([rng.normal(size=36), np.sin(np.arange(36.0))])
    cov = CovariateMatrix(dom, w, names=("a", "b"))
    beta_star = np.array([2.0, -1.2])
    h = 0.5 + 0.1 * dom.centers[:, 0] + w @ beta_star
    model = SsrSolver(fem6, 1.0).solve(h, cov)
    np.testing.assert_allclose(model.beta, beta_star, rtol=0, atol=1e-8)
    np.testing.assert_allclose(model.fitted, h, rtol=0, atol=1e-8)
    assert model.roughness < 1e-14


def test_roughness_monotone_in_lam(fem6, rng):
    h = rng.normal(3.0, 1.5, 36)
    rough = [SsrSolver(fem6, lam).solve(h).roughness for lam in [1e-2, 1e-1, 1.0, 1e1, 1e2]]
    for lo, hi in zip(rough[1:], rough[:-1]):
        assert lo <= hi * (1 + 1e-12)
    assert rough[-1] < rough[0] / 1e3


def test_small_lam_approaches_interpolation(fem6, rng):
    # more vertices than cells, so the surface can match any data as lam -> 0
    h = rng.normal(3.0, 1.5, 36)
    errs = [
        float(np.abs(SsrSolver(fem6, lam).solve(h).fitted - h).max())
        for lam in [1e-2, 1e-4, 1e-6]
    ]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-3


def test_half_turn_equivariance(fem6, rng):
    # the structured mesh maps onto itself under a half turn of the grid
    dom = fem6.tri.domain
    h = rng.normal(1.0, 2.0, 36)
    perm = np.array([dom.index_of(5 - r, 5 - c) for r, c in dom.cells])
    fit = SsrSolver(fem6, 0.7).solve(h).fitted
    fit_rot = SsrSolver(fem6, 0.7).solve(h[perm]).fitted
    np.testing.assert_allclose(fit_rot[perm], fit, rtol=0, atol=1e-9)


def test_subset_fit_matches_dense(fem6, rng):
    psi, jump, lengths = dense_parts(fem6)
    cases = [
        ([0, 3, 7, 14, 21, 22, 28, 35], 1.0),
        # a few station cells, as pe-ssr1 fits: the penalty carries almost all
        # of the system, which is where the factorization's rounding shows most
        ([2, 9, 26], 1.0),
        ([1, 10, 23, 32], 10.0),
    ]
    for idx, lam in cases:
        idx = np.array(idx)
        h = rng.normal(2.0, 1.0, idx.size)
        c_ref, d_ref = dense_ssr_oracle(psi[idx], jump, lengths, h, lam, 1.0)
        model = SsrSolver(fem6, lam, subset=idx).solve(h)
        np.testing.assert_allclose(model.coeffs, c_ref, rtol=0, atol=1e-9)
        np.testing.assert_allclose(model.laplacian, d_ref, rtol=0, atol=1e-9)
        # fitted is still evaluated at every cell
        assert model.fitted.shape == (36,)
        np.testing.assert_allclose(model.fitted, psi @ c_ref, rtol=0, atol=1e-9)


def test_subset_affine_reproduction(fem6):
    dom = fem6.tri.domain
    h_full = 2.0 + 0.4 * dom.centers[:, 0] - 0.3 * dom.centers[:, 1]
    # three cells off one line already fix a plane
    for idx in (np.array([0, 5, 30, 35, 17]), np.array([0, 4, 19])):
        model = SsrSolver(fem6, 1.0, subset=idx).solve(h_full[idx])
        np.testing.assert_allclose(model.fitted, h_full, rtol=0, atol=1e-8)


@pytest.mark.parametrize(
    "domain,cells",
    [
        (make_domain(6, 6), [(2, 3)]),
        (make_domain(6, 6), [(1, 1), (4, 2)]),
        (make_domain(6, 6), [(0, 0), (2, 2), (5, 5)]),
        (make_domain(5, 5, np.arange(25) // 5 == 2), None),
        (make_domain(1, 1), None),
    ],
    ids=["one-cell", "two-cells", "collinear-cells", "single-row-domain", "single-cell-domain"],
)
def test_singular_data_rejected(domain, cells):
    # the data cells must pin down the affine surfaces the penalty ignores:
    # with fewer than three, or all on one line, the fit is not unique
    subset = None if cells is None else np.array([domain.index_of(r, c) for r, c in cells])
    with pytest.raises(NumericalFailure, match="singular"):
        SsrSolver(assemble(triangulate(domain)), 1.0, subset=subset)


@pytest.mark.parametrize("lam", [1e20, 1e-300])
def test_extreme_lam_is_named_by_the_singular_message(fem6, lam):
    # every cell pins the fit down at lam = 1, but at these lam the pivot
    # ratio is lost to lam's scale; the pivot test cannot tell that from
    # data that leave an affine direction free, so the message names lam
    SsrSolver(fem6, 1.0)
    with pytest.raises(NumericalFailure, match="singular .*" + re.escape(f"lam={lam:g}")):
        SsrSolver(fem6, lam)


def _spy_on_pbtrf(monkeypatch):
    """Record, for each band factorization, the band handed to LAPACK's pbtrf and its info."""
    factored = []
    get_lapack_funcs = scipy.linalg.get_lapack_funcs

    def lookup(names, *args, **kwargs):
        funcs = get_lapack_funcs(names, *args, **kwargs)
        pbtrf = funcs[names.index("pbtrf")]

        def spy(ab, *a, **k):
            band = ab.copy()
            c, info = pbtrf(ab, *a, **k)
            factored.append((band, info))
            return c, info

        return tuple(spy if name == "pbtrf" else f for name, f in zip(names, funcs))

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", lookup)
    return factored


def test_failed_cholesky_is_a_singular_system(fem6, monkeypatch):
    # one data cell leaves an affine direction free: the band Cholesky meets
    # a pivot that is not positive (info > 0), which reads as pivot ratio 0
    factored = _spy_on_pbtrf(monkeypatch)
    subset = np.array([fem6.tri.domain.index_of(2, 3)])
    with pytest.raises(NumericalFailure, match=r"singular \(pivot ratio 0\.0e\+00\)"):
        SsrSolver(fem6, 1.0, subset=subset)
    ((_, info),) = factored
    assert info > 0


def test_band_past_memory_is_a_typed_error(fem6, monkeypatch):
    # a band the machine cannot hold is named by its size and shape, not
    # left to surface as numpy's MemoryError
    u, n_v = fem6.system_pattern.bandwidth, fem6.n_vertices
    zeros = np.zeros

    def refuse_the_band(shape, *args, **kwargs):
        if shape == (u + 1) * n_v:
            raise MemoryError(f"Unable to allocate an array with shape ({shape},)")
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", refuse_the_band)
    with pytest.raises(NumericalFailure,
                       match=re.escape(f"band of 0 MiB ({u + 1} x {n_v}) does not fit")):
        SsrSolver(fem6, 1.0)


def test_wide_masked_grid_matches_dense(rng):
    # more columns than rows, with a hole
    dom = make_domain(3, 7, np.arange(21) != 10)
    fem = assemble(triangulate(dom))
    psi, jump, lengths = dense_parts(fem)
    n = dom.n
    w = np.column_stack([rng.normal(size=n), rng.uniform(size=n)])
    cov = CovariateMatrix(dom, w, names=("a", "b"))
    subset = np.array([0, 2, 5, 7, 11, 13, 16, 19])
    for idx, lam, weight in [(None, 0.5, 1.0), (subset, 2.0, 0.5), (subset, 1e-3, 1.0)]:
        rows = np.arange(n) if idx is None else idx
        h = rng.normal(2.0, 1.0, rows.size)
        solver = SsrSolver(fem, lam / weight, subset=idx)
        c_ref, d_ref = dense_ssr_oracle(psi[rows], jump, lengths, h, lam, weight)
        model = solver.solve(h)
        np.testing.assert_allclose(model.coeffs, c_ref, rtol=0, atol=1e-9)
        np.testing.assert_allclose(model.laplacian, d_ref, rtol=0, atol=1e-9)
        np.testing.assert_allclose(model.fitted, psi @ c_ref, rtol=0, atol=1e-9)
        c_ref, d_ref, b_ref = dense_ssr_cov_oracle(psi[rows], jump, lengths, w[rows], h,
                                                   lam, weight)
        model = solver.solve(h, cov)
        np.testing.assert_allclose(model.beta, b_ref, rtol=0, atol=1e-9)
        np.testing.assert_allclose(model.coeffs, c_ref, rtol=0, atol=1e-9)
        np.testing.assert_allclose(model.laplacian, d_ref, rtol=0, atol=1e-9)
        np.testing.assert_allclose(model.fitted, psi @ c_ref + w @ b_ref, rtol=0, atol=1e-9)


def _hole_and_corridor():
    # two blocks joined by a corridor one cell wide; the left block has a hole
    mask = np.zeros((7, 9), dtype=bool)
    mask[:, :4] = True
    mask[3, 1] = False
    mask[3, 4:6] = True
    mask[1:6, 6:] = True
    return make_domain(7, 9, mask.ravel())


@pytest.mark.parametrize("lam, weight", [(1.0, 1.0), (0.3, 2.5)])
@pytest.mark.parametrize("with_subset", [False, True])
def test_system_filled_by_index_matches_scipy_assembly(monkeypatch, lam, weight, with_subset):
    dom = _hole_and_corridor()
    fem = assemble(triangulate(dom))
    subset = np.array([40, 3, 17, 29, 8, 43, 21, 35]) if with_subset else None
    rows = np.arange(dom.n) if subset is None else subset
    # Psi_d'Psi_d + (lam / weight) R, both terms assembled by scipy from J and Psi
    psi_d = fem.basis_eval[rows]
    r = fem.edge_jump.T @ sp.diags(1.0 / fem.edge_length) @ fem.edge_jump
    want = (psi_d.T @ psi_d + (lam / weight) * r).toarray()
    factored = _spy_on_pbtrf(monkeypatch)
    solver = SsrSolver(fem, lam / weight, subset=subset)
    np.testing.assert_array_equal(solver._products[solver._system_rows].toarray(), want)
    ((band, info),) = factored
    assert info == 0
    u = band.shape[0] - 1
    i, j = np.nonzero(want)
    assert (np.abs(i - j) <= u).all()
    expected = np.zeros_like(band)
    upper = i <= j
    expected[u + i[upper] - j[upper], j[upper]] = want[i[upper], j[upper]]
    np.testing.assert_array_equal(band, expected)
    # the fitted surface and edge jump rows are Psi and J themselves
    np.testing.assert_array_equal(solver._products[solver._fit_rows].toarray(),
                                  fem.basis_eval.toarray())
    np.testing.assert_array_equal(solver._products[solver._jump_rows].toarray(),
                                  fem.edge_jump.toarray())


def test_system_pattern_is_built_once_and_left_alone():
    fem = assemble(triangulate(_hole_and_corridor()))
    pattern = fem.system_pattern
    assert fem.system_pattern is pattern
    arrays = (pattern.cell_entries, pattern.upper, pattern.band_index)
    assert not any(a.flags.writeable for a in arrays)
    # numpy's own index type: fancy indexing and bincount take it as it is
    assert all(a.dtype == np.intp for a in arrays)
    before = [a.copy() for a in arrays]
    for subset in (None, np.arange(0, fem.tri.domain.n, 3)):
        SsrSolver(fem, 4.0, subset=subset).solve(np.ones(
            fem.tri.domain.n if subset is None else subset.size))
    assert fem.system_pattern is pattern
    for a, b in zip(arrays, before):
        np.testing.assert_array_equal(a, b)


def test_system_pattern_refuses_a_penalty_that_cancels_a_psi_term():
    # a penalty whose two rows cancel at the cell's (ll, ur) pair: the
    # product drops that entry, so a system has nowhere to hold its Psi'Psi
    # term there and the mesh has no pattern
    tri = triangulate(make_domain(1, 1))
    psi = assemble(tri).basis_eval
    ll, _, _, ur = tri.corners[0]
    jump = sp.csr_matrix(np.array([[1.0 if v in (ll, ur) else 0.0 for v in range(4)],
                                   [1.0 if v == ll else -1.0 if v == ur else 0.0
                                    for v in range(4)]]))
    fem = FemSystem(tri=tri, basis_eval=psi, edge_jump=jump, edge_length=np.ones(2))
    assert (jump.T @ jump).nnz == 2
    np.testing.assert_array_equal(fem.roughness_matrix.toarray(), (jump.T @ jump).toarray())
    with pytest.raises(ShapeMismatch, match="Psi'Psi"):
        fem.system_pattern
    with pytest.raises(ShapeMismatch, match="Psi'Psi"):
        SsrSolver(fem, 1.0)


def test_affine_covariate_gets_zero_coefficient(fem6, rng):
    # a constant column is affine at the cells, so the smooth surface can
    # absorb any multiple of it; the minimum-norm convention gives it 0 and
    # the fit is the one without that column
    h = rng.normal(2.0, 1.0, 36)
    x = rng.normal(size=36)
    dom = fem6.tri.domain
    solver = SsrSolver(fem6, 1.0)
    with_one = solver.solve(h, CovariateMatrix(dom, np.column_stack([np.ones(36), x]),
                                               names=("one", "x")))
    x_only = solver.solve(h, CovariateMatrix(dom, x[:, None], names=("x",)))
    assert abs(with_one.beta[0]) <= 1e-9
    np.testing.assert_allclose(with_one.fitted, x_only.fitted, rtol=0, atol=1e-9)
    np.testing.assert_allclose(with_one.beta[1], x_only.beta[0], rtol=0, atol=1e-9)
    # with every column affine the system is zero up to rounding: beta is
    # still 0 and the fit is the one without covariates
    affine = CovariateMatrix(dom, np.column_stack([np.ones(36), dom.centers]),
                             names=("one", "x", "y"))
    only_affine = solver.solve(h, affine)
    np.testing.assert_allclose(only_affine.beta, 0.0, rtol=0, atol=1e-9)
    np.testing.assert_allclose(only_affine.fitted, solver.solve(h).fitted, rtol=0, atol=1e-9)


def test_covariate_cache_keyed_by_object(fem6, rng):
    h = rng.normal(2.0, 1.0, 36)
    w = np.column_stack([rng.normal(size=36), rng.uniform(size=36)])
    solver = SsrSolver(fem6, 1.0)
    cov_a = CovariateMatrix(fem6.tri.domain, w, names=("a", "b"))
    cov_b = CovariateMatrix(fem6.tri.domain, w.copy(), names=("a", "b"))
    first = solver.solve(h, cov_a)
    again = solver.solve(h, cov_a)
    fresh = solver.solve(h, cov_b)
    np.testing.assert_array_equal(again.fitted, first.fitted)
    np.testing.assert_allclose(fresh.fitted, first.fitted, rtol=0, atol=1e-10)


@pytest.mark.parametrize("subset", [None, np.array([0, 3, 7, 10, 14, 19, 21, 22, 28, 30, 33, 35])])
def test_covariate_solve_forms_one_product_with_the_coefficients(rng, subset):
    # both partial-spline terms come from the right-hand sides, so once the
    # covariate system is cached a solve never multiplies by Psi alone: the
    # surface comes from the stacked product, as without covariates
    fem = assemble(triangulate(make_domain(6, 6)))  # its own mesh: Psi is swapped below
    h = rng.normal(2.0, 1.0, 36 if subset is None else subset.size)
    cov = CovariateMatrix(fem.tri.domain, rng.normal(size=(36, 2)), names=("a", "b"))
    solver = SsrSolver(fem, 0.7, subset=subset)
    first = solver.solve(h, cov)

    class NoProduct:
        def __matmul__(self, other):
            raise AssertionError("a covariate solve multiplied by Psi alone")

    object.__setattr__(fem, "basis_eval", NoProduct())
    again = solver.solve(h, cov)
    np.testing.assert_array_equal(again.fitted, first.fitted)
    np.testing.assert_array_equal(again.beta, first.beta)


def test_collinear_covariates_rejected(fem6, rng):
    w = rng.normal(size=(36, 1))
    cov = CovariateMatrix(
        fem6.tri.domain, np.column_stack([w, 2.0 * w]), names=("a", "aa")
    )
    with pytest.raises(CollinearCovariates):
        SsrSolver(fem6, 1.0).solve(np.ones(36), cov)


def test_all_cells_fit_as_every_index(fem6, rng):
    # no subset means every active cell is data, exactly as listing them all
    n = fem6.tri.domain.n
    h = rng.normal(2.0, 1.0, n)
    w = np.column_stack([np.ones(n), rng.random(n)])
    for cov in (None, CovariateMatrix(fem6.tri.domain, w, names=("one", "x"))):
        every = SsrSolver(fem6, 0.7).solve(h, cov)
        listed = SsrSolver(fem6, 0.7, subset=np.arange(n)).solve(h, cov)
        for name in ("fitted", "coeffs", "beta"):
            np.testing.assert_array_equal(getattr(every, name), getattr(listed, name))
        assert every.roughness == listed.roughness


def test_validation_errors(fem6):
    # 1e308 is finite, but lam R overflows: a bad setting, not singular data
    for lam in (0.0, -1.0, np.inf, np.nan, 1e308):
        with pytest.raises(ConfigError):
            SsrSolver(fem6, lam=lam)
    for empty in (np.array([], dtype=int), []):
        with pytest.raises(ShapeMismatch, match="^data subset must be nonempty and distinct$"):
            SsrSolver(fem6, lam=1.0, subset=empty)
    with pytest.raises(ShapeMismatch):
        SsrSolver(fem6, lam=1.0, subset=np.array([1, 1]))
    with pytest.raises(ShapeMismatch):
        SsrSolver(fem6, lam=1.0, subset=np.array([36]))
    solver = SsrSolver(fem6, lam=1.0)
    with pytest.raises(ShapeMismatch):
        solver.solve(np.ones(35))
    with pytest.raises(ShapeMismatch):
        solver.solve(np.full(36, np.nan))
    other = make_domain(3, 12)
    with pytest.raises(ShapeMismatch):
        solver.solve(np.ones(36), CovariateMatrix(other, np.ones((36, 1)), names=("one",)))


@pytest.mark.parametrize("subset", [np.array([0.5, 2.7, 9.9]), np.arange(36) % 3 == 0])
def test_non_integer_subset_is_refused(fem6, subset):
    # float indices would be truncated and a mask read as 0/1 indices
    with pytest.raises(ShapeMismatch, match=f"integers, got dtype {subset.dtype}"):
        SsrSolver(fem6, 1.0, subset=subset)


@pytest.mark.parametrize("stub, message", [
    (lambda chol, rhs, lower: (np.zeros_like(rhs), 1), r"substitution failed \(pbtrs info 1\)"),
    (lambda chol, rhs, lower: (np.full_like(rhs, np.nan), 0), "non-finite coefficients"),
], ids=["info", "nan"])
def test_failed_back_substitution_is_a_numerical_failure(fem6, rng, stub, message):
    # the check guards the targets' solve and the covariate columns' solve
    # for c_W alike: the stub fails one of them, and the other is exact
    cov = CovariateMatrix(fem6.tri.domain, rng.normal(size=(36, 2)), names=("a", "b"))
    solver = SsrSolver(fem6, 1.0)
    exact = solver._pbtrs
    for columns in (False, True):
        def pbtrs(chol, rhs, lower, columns=columns):
            return (stub if (rhs.ndim == 2) == columns else exact)(chol, rhs, lower=lower)

        solver._pbtrs = pbtrs
        with pytest.raises(NumericalFailure, match=message):
            solver.solve(rng.normal(size=36), cov if columns else None)


def test_eval_checks_domain(fem6):
    # a smoothing method's estimate lives on the partition's grid; a mesh of
    # another grid is refused for every method that smooths
    dom = fem6.tri.domain
    part = build_partition(dom, StationSet(dom, np.array([0, 5, 16, 32])))
    vols = AggregateObservations(np.full(part.m, 1.0) * part.patch_sizes)
    cov = CovariateMatrix(dom, np.arange(36.0)[:, None], names=("x",))
    other = assemble(triangulate(make_domain(6, 7)))
    for method in (PE_SSR1, PE_SSR2, CSS, CSS_FEATURES):
        field, _ = run_method_full(MethodSpec(method), part, vols, cov, fem6)
        assert field.domain is dom
        np.testing.assert_allclose(field.values, 1.0, rtol=0, atol=1e-6)
        with pytest.raises(ShapeMismatch):
            run_method_full(MethodSpec(method), part, vols, cov, other)


def test_targets_near_1e154_fit_without_a_warning(fem6, rng):
    # rhs @ rhs would overflow here; the check measures both norms over
    # max|h| before it squares them, and the roughness, 1.73e307, is a float
    h = rng.uniform(1.0, 2.0, 36)
    unit = SsrSolver(fem6, 1.0).solve(h)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = SsrSolver(fem6, 1.0).solve(h * 1e154)
    np.testing.assert_allclose(model.fitted, unit.fitted * 1e154, rtol=1e-12)
    assert model.roughness == pytest.approx(unit.roughness * 1e308, rel=1e-12)


def test_residual_check_holds_where_the_squared_norms_overflow(fem6, rng, monkeypatch):
    # targets near 1e160 put rhs @ rhs past the float range; the check then
    # measures both norms over max|h|, so the right coefficients pass and
    # coefficients off by one part in a million still fail
    h = rng.uniform(1.0, 2.0, 36) * 1e160
    solver = SsrSolver(fem6, 1.0)
    # the roughness overflows at this scale, to inf without a warning
    scaled = SsrSolver(fem6, 1.0).solve(h / 1e160).fitted
    model = solver.solve(h)
    np.testing.assert_allclose(model.fitted, scaled * 1e160, rtol=1e-12)
    assert model.roughness == np.inf
    exact = solver._solve
    monkeypatch.setattr(solver, "_solve", lambda rhs: exact(rhs) * (1 + 1e-6))
    with pytest.raises(NumericalFailure, match="smoothing solve residual 1.000e-06 exceeds"):
        solver.solve(h)
