import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csmooth import DegenerateTriangle, make_domain
from csmooth.domain import _frozen
from csmooth.fem import Triangulation, assemble, triangulate
from csmooth.smoother import SsrSolver
from oracles import roughness_oracle


def test_mesh_counts():
    one = triangulate(make_domain(1, 1))
    assert (one.n_vertices, one.n_triangles) == (4, 2)
    two = triangulate(make_domain(2, 2))
    assert (two.n_vertices, two.n_triangles) == (9, 8)
    ell = triangulate(make_domain(2, 2, [True, True, True, False]))
    assert (ell.n_vertices, ell.n_triangles) == (8, 6)


def test_triangles_positively_oriented_and_cover_cells():
    tri = triangulate(make_domain(3, 4))
    p = tri.vertices[tri.triangles]
    cross = (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1]) - (
        p[:, 1, 1] - p[:, 0, 1]
    ) * (p[:, 2, 0] - p[:, 0, 0])
    assert (cross > 0).all()
    # two triangles per unit cell, total area = cell count
    assert cross.sum() / 2.0 == pytest.approx(12)


def test_interior_edge_inventory_on_2x2():
    fem = assemble(triangulate(make_domain(2, 2)))
    assert fem.n_edges == 8
    np.testing.assert_allclose(
        np.sort(fem.edge_length), [1.0] * 4 + [np.sqrt(2.0)] * 4
    )


def test_basis_eval_is_a_partition_of_unity():
    for domain in (make_domain(4, 6), make_domain(5, 7, np.arange(35) % 6 != 0)):
        fem = assemble(triangulate(domain))
        np.testing.assert_allclose(
            np.asarray(fem.basis_eval.sum(axis=1)).ravel(), 1.0, atol=1e-12
        )
        # evaluating the vertex coordinates recovers every cell center
        np.testing.assert_allclose(
            fem.basis_eval @ fem.tri.vertices, domain.centers, atol=1e-12
        )
        # each center is the exact midpoint of its cell's ll-ur diagonal:
        # two weights of 1/2 per row and no rounding residue elsewhere
        assert (fem.basis_eval.data == 0.5).all()
        assert fem.basis_eval.nnz == 2 * domain.n


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25)
def test_roughness_form_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    mask = rng.random(20) < 0.8
    if not mask.any():
        mask[3] = True
    tri = triangulate(make_domain(4, 5, mask))
    fem = assemble(tri)
    c = rng.normal(size=tri.n_vertices)
    jumps = fem.edge_jump @ c
    form = float(jumps @ (jumps / fem.edge_length))
    want = roughness_oracle(tri.vertices, tri.triangles, c)
    assert form == pytest.approx(want, rel=1e-10, abs=1e-12)
    assert fem.roughness_matrix @ c == pytest.approx(
        fem.edge_jump.T @ (jumps / fem.edge_length), rel=1e-12
    )


def test_roughness_matrix_built_once_and_read_only():
    fem = assemble(triangulate(make_domain(4, 5)))
    r = fem.roughness_matrix
    assert fem.roughness_matrix is r
    for a in (r.data, r.indices, r.indptr):
        assert not a.flags.writeable
    # a solver's system is a new matrix: scaling and adding leave r alone
    before = r.toarray()
    SsrSolver(fem, 4.0)
    np.testing.assert_array_equal(r.toarray(), before)


def _disc(size):
    c = np.arange(size) + 0.5 - size / 2
    return make_domain(size, size, (c[:, None] ** 2 + c[None, :] ** 2 <= (size / 2) ** 2).ravel())


def _strip(size, width, anti=False):
    r, c = np.divmod(np.arange(size * size), size)
    return make_domain(size, size, np.abs((size - 1 - c if anti else c) - r) <= width)


@pytest.mark.parametrize(
    "domain, bound",
    [(make_domain(4, 60), None), (make_domain(60, 4), None), (_disc(100), 143),
     (make_domain(100, 100), 201), (_strip(40, 2), None), (_strip(40, 2, anti=True), None)],
    ids=["4x60", "60x4", "disc100", "square100", "diagonal-strip", "anti-diagonal-strip"],
)
def test_smoothing_system_is_banded(domain, bound):
    # vertices are numbered diagonal by diagonal (r - c), so the smoother's
    # system couples vertices at most two diagonals apart; two diagonals of
    # a full grid together hold at most 2 (short side + 1) corners, and a
    # diagonal of the disc about 1/sqrt(2) as many as a row
    fem = assemble(triangulate(domain))
    system = (fem.basis_eval.T @ fem.basis_eval + fem.roughness_matrix).tocoo()
    width = np.abs(system.row - system.col).max()
    short = min(domain.n_rows, domain.n_cols)
    assert width <= 2 * (short + 1) + 1
    assert bound is None or width <= bound
    assert fem.system_pattern.bandwidth == width


@given(st.integers(1, 30), st.integers(1, 30), st.data())
def test_band_bound_holds_on_any_mask(n_rows, n_cols, data):
    kind = data.draw(st.sampled_from(["random", "diagonal", "anti-diagonal"]))
    r, c = np.divmod(np.arange(n_rows * n_cols), n_cols)
    if kind == "random":
        density = data.draw(st.floats(0.3, 1.0))
        seed = data.draw(st.integers(0, 2**32 - 1))
        active = np.random.default_rng(seed).random(n_rows * n_cols) < density
    else:
        width = data.draw(st.integers(0, 3))
        shift = data.draw(st.integers(-5, 5))
        far = n_cols - 1 - c if kind == "anti-diagonal" else c
        active = np.abs(far - r - shift) <= width
    if not active.any():
        active[0] = True
    domain = make_domain(n_rows, n_cols, active)
    fem = assemble(triangulate(domain))
    assert fem.system_pattern.bandwidth <= 2 * (min(n_rows, n_cols) + 1) + 1


def test_roughness_vanishes_only_on_affines(rng):
    fem = assemble(triangulate(make_domain(4, 4)))
    x, y = fem.tri.vertices[:, 0], fem.tri.vertices[:, 1]
    affine = 3.0 - 2.0 * x + 0.7 * y
    assert np.abs(fem.edge_jump @ affine).max() <= 1e-12
    bumpy = affine + rng.normal(size=fem.n_vertices) * 0.1
    jumps = fem.edge_jump @ bumpy
    assert float(jumps @ (jumps / fem.edge_length)) > 1e-4


def test_assembly_deterministic():
    d = make_domain(5, 5, np.arange(25) % 7 != 0)
    a = assemble(triangulate(d))
    b = assemble(triangulate(d))
    assert np.array_equal(a.edge_jump.toarray(), b.edge_jump.toarray())
    assert np.array_equal(a.edge_length, b.edge_length)


# J of the 3x3 grid with its center masked: one row per interior edge in
# ascending (lower vertex, upper vertex) order, the lower-index triangle
# of each edge entering with +, the other with -
RING_JUMP = np.array([
    [-2, 2, 0, 0, 2, -2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [-1, 1, 0, 0, 0, 1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, -2, 2, 0, 0, 2, -2, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, -1, 1, 0, 0, 0, 1, -1, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, -2, 2, 0, 0, 2, -2, 0, 0, 0, 0, 0, 0, 0, 0],
    [1, 0, 0, 0, -1, -1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, -2, 2, 0, 0, 2, -2, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, -1, -1, 0, 0, 0, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, -2, 2, 0, 0, 2, -2, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 0, -1, -1, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, -2, 2, 0, 0, 2, -2, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, -1, 1, 0, 0, 0, 1, -1, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, -2, 2, 0, 0, 2, -2, 0],
    [0, 0, 0, 0, 0, 0, 1, 0, 0, 0, -1, -1, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 1, 0, 0, 0, 1, -1],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -2, 2, 0, 0, 2, -2],
], dtype=float)


def test_edge_matrix_frozen_values():
    fem = assemble(triangulate(make_domain(3, 3, [1, 1, 1, 1, 0, 1, 1, 1, 1])))
    # RING_JUMP numbers corners row by row, row * 4 + col: map J's columns
    # to those ids, its rows to ascending (lower, upper) row-major order,
    # and each row's sign to its edge oriented from the lower row-major id
    # (the edge normal turns with the edge)
    x, y = fem.tri.vertices.T
    row_major = (y * 4 + x).astype(np.int64)
    t = fem.tri.triangles
    pairs = np.sort(t[:, [[0, 1], [1, 2], [2, 0]]], axis=2).reshape(-1, 2)
    ends, counts = np.unique(pairs, axis=0, return_counts=True)
    a, b = row_major[ends[counts == 2]].T
    order = np.lexsort((np.maximum(a, b), np.minimum(a, b)))
    jump = np.zeros_like(RING_JUMP)
    jump[:, row_major] = fem.edge_jump.toarray() * np.where(a < b, 1.0, -1.0)[:, None]
    assert np.array_equal(jump[order], RING_JUMP)
    r2 = np.sqrt(2.0)
    assert np.array_equal(fem.edge_length[order], [r2, 1.0] * 7 + [1.0, r2])


def test_degenerate_triangle_rejected():
    tri = triangulate(make_domain(1, 1))
    squashed = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    bad = Triangulation(
        domain=tri.domain,
        vertices=_frozen(squashed),
        triangles=tri.triangles,
    )
    with pytest.raises(DegenerateTriangle):
        assemble(bad)


def test_tiny_cells_assemble():
    # the area check is relative to each triangle's size: a valid mesh
    # scaled down to micro-cells is not degenerate
    tri = triangulate(make_domain(6, 6))
    tiny = Triangulation(
        domain=tri.domain,
        vertices=_frozen(tri.vertices * 1e-6),
        triangles=tri.triangles,
    )
    fem = assemble(tiny)
    unit = assemble(tri)
    np.testing.assert_allclose(fem.edge_length, unit.edge_length * 1e-6, rtol=1e-12)
    np.testing.assert_allclose(
        fem.basis_eval @ tiny.vertices, tri.domain.centers * 1e-6, rtol=0, atol=1e-18
    )
