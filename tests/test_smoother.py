"""Penalized surface fitting against dense reference solves."""
import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from csmooth.domain import CovariateMatrix, make_domain
from csmooth.errors import CollinearCovariates, NumericalFailure, ShapeMismatch
from csmooth.fem import FemSystem, assemble, triangulate
from csmooth.smoother import SsrSolver, ssr_eval, ssr_fit

from oracles import dense_ssr_cov_oracle, dense_ssr_oracle


@pytest.fixture(scope="module")
def fem6():
    return assemble(triangulate(make_domain(6, 6)))


def dense_parts(fem):
    return fem.basis_eval.toarray(), fem.edge_jump.toarray(), fem.edge_length


def test_frozen_2x2_fit():
    # values from the dense stationarity solve, frozen
    fem = assemble(triangulate(make_domain(2, 2)))
    model = ssr_fit(fem, np.array([1.0, 4.0, 2.0, 7.0]), lam=1.0)
    expected = np.array(
        [0.5211618561623961, 4.478838143837603, 2.4788381438376033, 6.521161856162397]
    )
    np.testing.assert_allclose(model.fitted, expected, rtol=0, atol=1e-12)
    assert model.roughness == pytest.approx(0.0405324156998417, abs=1e-14)


def test_constant_target_reproduced(fem6):
    model = ssr_fit(fem6, np.full(36, 7.0), lam=1.0)
    np.testing.assert_allclose(model.fitted, 7.0, rtol=0, atol=1e-9)
    np.testing.assert_allclose(model.laplacian, 0.0, rtol=0, atol=1e-9)
    assert model.roughness < 1e-18


@pytest.mark.parametrize("lam", [1e-3, 1.0, 1e3])
def test_affine_target_reproduced(lam):
    # the penalty vanishes on affine surfaces, so they pass through untouched
    dom = make_domain(5, 7, cell_size=0.5, origin=(2.0, -1.0))
    fem = assemble(triangulate(dom))
    x, y = dom.centers[:, 0], dom.centers[:, 1]
    h = 1.5 + 0.3 * x - 0.8 * y
    model = ssr_fit(fem, h, lam=lam)
    np.testing.assert_allclose(model.fitted, h, rtol=0, atol=1e-9)
    assert model.roughness < 1e-16


@pytest.mark.parametrize(
    "lam,weight", [(1e-3, 1.0), (0.3, 1.0), (1.0, 0.5), (10.0, 2.0), (1e3, 1.0)]
)
def test_matches_dense_solve_6x6(fem6, rng, lam, weight):
    psi, jump, lengths = dense_parts(fem6)
    h = rng.normal(2.0, 1.0, 36)
    c_ref, d_ref = dense_ssr_oracle(psi, jump, lengths, h, lam, weight)
    model = SsrSolver(fem6, lam, weight=weight).solve(h)
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
        model = SsrSolver(fem6, lam, weight=weight).solve(h, cov)
        np.testing.assert_allclose(model.beta, b_ref, rtol=0, atol=1e-9)
        np.testing.assert_allclose(model.coeffs, c_ref, rtol=0, atol=1e-9)
        np.testing.assert_allclose(model.laplacian, d_ref, rtol=0, atol=1e-9)
        np.testing.assert_allclose(model.fitted, psi @ c_ref + w @ b_ref, rtol=0, atol=1e-9)
        # the fit assembled from cached covariate surfaces is the surface of
        # the returned coefficients plus the covariate effect
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
        solver = SsrSolver(fem6, lam, weight=weight, subset=idx)
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
    model = ssr_fit(fem6, h, lam=1.0, covariates=cov)
    np.testing.assert_allclose(model.beta, beta_star, rtol=0, atol=1e-8)
    np.testing.assert_allclose(model.fitted, h, rtol=0, atol=1e-8)
    assert model.roughness < 1e-14


def test_roughness_monotone_in_lam(fem6, rng):
    h = rng.normal(3.0, 1.5, 36)
    rough = [ssr_fit(fem6, h, lam).roughness for lam in [1e-2, 1e-1, 1.0, 1e1, 1e2]]
    for lo, hi in zip(rough[1:], rough[:-1]):
        assert lo <= hi * (1 + 1e-12)
    assert rough[-1] < rough[0] / 1e3


def test_small_lam_approaches_interpolation(fem6, rng):
    # more vertices than cells, so the surface can match any data as lam -> 0
    h = rng.normal(3.0, 1.5, 36)
    errs = [
        float(np.abs(ssr_fit(fem6, h, lam).fitted - h).max())
        for lam in [1e-2, 1e-4, 1e-6]
    ]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-3


def test_half_turn_equivariance(fem6, rng):
    # the structured mesh maps onto itself under a half turn of the grid
    dom = fem6.tri.domain
    h = rng.normal(1.0, 2.0, 36)
    perm = np.array([dom.index_of(5 - r, 5 - c) for r, c in dom.cells])
    fit = ssr_fit(fem6, h, lam=0.7).fitted
    fit_rot = ssr_fit(fem6, h[perm], lam=0.7).fitted
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


def test_failed_cholesky_is_a_singular_system(fem6, monkeypatch):
    # one data cell leaves an affine direction free: the band Cholesky meets
    # a pivot that is not positive, which reads as pivot ratio 0
    failed = []
    cholesky_banded = scipy.linalg.cholesky_banded

    def spy(*args, **kwargs):
        try:
            return cholesky_banded(*args, **kwargs)
        except scipy.linalg.LinAlgError:
            failed.append(True)
            raise

    monkeypatch.setattr(scipy.linalg, "cholesky_banded", spy)
    subset = np.array([fem6.tri.domain.index_of(2, 3)])
    with pytest.raises(NumericalFailure, match=r"singular \(pivot ratio 0\.0e\+00\)"):
        SsrSolver(fem6, 1.0, subset=subset)
    assert failed


def test_wide_masked_grid_matches_dense(rng):
    # more columns than rows, with a hole, off the origin and at half a cell unit
    dom = make_domain(3, 7, np.arange(21) != 10, cell_size=0.5, origin=(1.0, 2.0))
    fem = assemble(triangulate(dom))
    psi, jump, lengths = dense_parts(fem)
    # the penalty is measured in grid units: edge lengths over the cell size
    lengths = lengths / dom.cell_size
    n = dom.n
    w = np.column_stack([rng.normal(size=n), rng.uniform(size=n)])
    cov = CovariateMatrix(dom, w, names=("a", "b"))
    subset = np.array([0, 2, 5, 7, 11, 13, 16, 19])
    for idx, lam, weight in [(None, 0.5, 1.0), (subset, 2.0, 0.5), (subset, 1e-3, 1.0)]:
        rows = np.arange(n) if idx is None else idx
        h = rng.normal(2.0, 1.0, rows.size)
        solver = SsrSolver(fem, lam, weight=weight, subset=idx)
        c_ref, d_ref = dense_ssr_oracle(psi[rows], jump, lengths, h, lam, weight)
        model = solver.solve(h)
        np.testing.assert_allclose(model.coeffs, c_ref, rtol=0, atol=1e-9)
        # the oracle's d is per grid unit of length, laplacian per physical unit
        np.testing.assert_allclose(model.laplacian * dom.cell_size, d_ref, rtol=0, atol=1e-9)
        np.testing.assert_allclose(model.fitted, psi @ c_ref, rtol=0, atol=1e-9)
        c_ref, d_ref, b_ref = dense_ssr_cov_oracle(psi[rows], jump, lengths, w[rows], h,
                                                   lam, weight)
        model = solver.solve(h, cov)
        np.testing.assert_allclose(model.beta, b_ref, rtol=0, atol=1e-9)
        np.testing.assert_allclose(model.coeffs, c_ref, rtol=0, atol=1e-9)
        np.testing.assert_allclose(model.laplacian * dom.cell_size, d_ref, rtol=0, atol=1e-9)
        np.testing.assert_allclose(model.fitted, psi @ c_ref + w @ b_ref, rtol=0, atol=1e-9)


def _hole_and_corridor():
    # two blocks joined by a corridor one cell wide; the left block has a hole
    mask = np.zeros((7, 9), dtype=bool)
    mask[:, :4] = True
    mask[3, 1] = False
    mask[3, 4:6] = True
    mask[1:6, 6:] = True
    return make_domain(7, 9, mask.ravel(), cell_size=0.5)


@pytest.mark.parametrize("lam, weight", [(1.0, 1.0), (0.3, 2.5)])
@pytest.mark.parametrize("with_subset", [False, True])
def test_system_filled_by_index_matches_scipy_assembly(monkeypatch, lam, weight, with_subset):
    dom = _hole_and_corridor()
    fem = assemble(triangulate(dom))
    subset = np.array([40, 3, 17, 29, 8, 43, 21, 35]) if with_subset else None
    rows = np.arange(dom.n) if subset is None else subset
    # weight Psi_d'Psi_d + lam R, both terms assembled by scipy from J and Psi
    psi_d = fem.basis_eval[rows]
    r = fem.edge_jump.T @ sp.diags(dom.cell_size / fem.edge_length) @ fem.edge_jump
    want = (weight * (psi_d.T @ psi_d) + lam * r).toarray()
    bands = []
    cholesky_banded = scipy.linalg.cholesky_banded

    def spy(ab, *args, **kwargs):
        bands.append(ab.copy())
        return cholesky_banded(ab, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cholesky_banded", spy)
    solver = SsrSolver(fem, lam, weight=weight, subset=subset)
    np.testing.assert_array_equal(solver._products[solver._system_rows].toarray(), want)
    (band,) = bands
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
    before = [a.copy() for a in arrays]
    for subset in (None, np.arange(0, fem.tri.domain.n, 3)):
        SsrSolver(fem, 2.0, weight=0.5, subset=subset).solve(np.ones(
            fem.tri.domain.n if subset is None else subset.size))
    assert fem.system_pattern is pattern
    for a, b in zip(arrays, before):
        np.testing.assert_array_equal(a, b)


def test_system_pattern_holds_the_psi_terms_the_penalty_cancels():
    # a penalty whose two rows cancel at the cell's (ll, ur) pair: the
    # product drops that entry, the pattern keeps it as an explicit 0
    tri = triangulate(make_domain(1, 1))
    psi = assemble(tri).basis_eval
    ll, ur = psi.indices
    jump = sp.csr_matrix(np.array([[1.0 if v in (ll, ur) else 0.0 for v in range(4)],
                                   [1.0 if v == ll else -1.0 if v == ur else 0.0
                                    for v in range(4)]]))
    fem = FemSystem(tri=tri, basis_eval=psi, edge_jump=jump, edge_length=np.ones(2))
    assert (jump.T @ jump).nnz == 2
    r = fem.roughness_matrix
    np.testing.assert_array_equal(r.toarray(), (jump.T @ jump).toarray())
    stored = np.repeat(np.arange(4), np.diff(r.indptr)), r.indices
    pairs = [(ll, ll), (ll, ur), (ur, ll), (ur, ur)]
    assert [(int(stored[0][k]), int(stored[1][k])) for k in fem.system_pattern.cell_entries[0]] \
        == pairs
    assert r.data[fem.system_pattern.cell_entries[0]].tolist() == [2.0, 0.0, 0.0, 2.0]


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


def test_collinear_covariates_rejected(fem6, rng):
    w = rng.normal(size=(36, 1))
    cov = CovariateMatrix(
        fem6.tri.domain, np.column_stack([w, 2.0 * w]), names=("a", "aa")
    )
    with pytest.raises(CollinearCovariates):
        ssr_fit(fem6, np.ones(36), lam=1.0, covariates=cov)


def test_validation_errors(fem6):
    with pytest.raises(ShapeMismatch):
        SsrSolver(fem6, lam=0.0)
    with pytest.raises(ShapeMismatch):
        SsrSolver(fem6, lam=-1.0)
    with pytest.raises(ShapeMismatch):
        SsrSolver(fem6, lam=1.0, weight=0.0)
    with pytest.raises(ShapeMismatch):
        SsrSolver(fem6, lam=1.0, subset=np.array([], dtype=int))
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


def test_eval_checks_domain(fem6):
    model = ssr_fit(fem6, np.ones(36), lam=1.0)
    field = ssr_eval(model, fem6.tri.domain)
    np.testing.assert_allclose(field.values, 1.0, rtol=0, atol=1e-9)
    with pytest.raises(ShapeMismatch):
        ssr_eval(model, make_domain(6, 7))
