import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sparse

from smfpca import DimensionMismatch, InputError, SaddleSystem, SingularSystem, assemble
from smfpca import Locations, ObservationSet, fit, fit_missing, solver
from smfpca import vertex_locations
from smfpca.estimator import _MissingState, data_gram
from smfpca.fem import FemOperators, location_matrix
from smfpca.mesh import TriangleMesh
from smfpca.selection import default_lambda_grid
from smfpca.synth import generate_sphere_dataset


def dense_block(upper_left):
    """A data block as a dense array: a K-vector w as diag(w)."""
    if np.ndim(upper_left) == 1:
        return np.diag(upper_left)
    return np.asarray(upper_left.todense())


def dense_block_solve(ops, upper_left, lam, rhs_top):
    """Oracle: assemble the 2K x 2K block matrix densely and solve it
    with LAPACK, independent of the sparse factorization path."""
    K = ops.vertex_count
    R0 = ops.mass.toarray()
    R1 = ops.stiffness.toarray()
    A = np.zeros((2 * K, 2 * K))
    A[:K, :K] = dense_block(upper_left)
    A[:K, K:] = lam * R1
    A[K:, :K] = lam * R1
    A[K:, K:] = -lam * R0
    rhs = np.zeros(2 * K)
    rhs[:K] = rhs_top
    sol = np.linalg.solve(A, rhs)
    return sol[:K], sol[K:]


def closed_form_f(ops, lam, rhs_top):
    """Oracle: the normal-equation rearrangement
    (psi'psi + lam R1 R0^-1 R1) f = rhs, formed densely."""
    R0 = ops.mass.toarray()
    R1 = ops.stiffness.toarray()
    P = ops.psi.toarray()
    lhs = P.T @ P + lam * (R1 @ np.linalg.solve(R0, R1))
    return np.linalg.solve(lhs, rhs_top)


@pytest.fixture(scope="module")
def tetra_ops(tetra):
    return assemble(tetra, vertex_locations(tetra))


def rhs_for(ops, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(ops.location_count)
    return np.asarray(ops.psi.T @ z)


def test_matches_dense_lu_oracle(tetra_ops):
    gram = data_gram(tetra_ops)
    rhs = rhs_for(tetra_ops, 0)
    for lam in (1e-3, 0.5, 20.0):
        system = SaddleSystem(tetra_ops, gram, lam)
        f, g = system.solve(rhs)
        f_d, g_d = dense_block_solve(tetra_ops, gram, lam, rhs)
        np.testing.assert_allclose(f, f_d, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(g, g_d, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("lam", [1e-4, 1.0, 1e4])
def test_matches_dense_closed_form(ops1, lam):
    # K = 42; the eliminated one-matrix form is numerically viable
    # there and serves as a second, structurally different oracle
    gram = data_gram(ops1)
    rhs = rhs_for(ops1, 1)
    f, _ = SaddleSystem(ops1, gram, lam).solve(rhs)
    f_ref = closed_form_f(ops1, lam, rhs)
    assert np.linalg.norm(f - f_ref) / np.linalg.norm(f_ref) < 1e-8


def test_auxiliary_field_identity(ops1):
    # second block row: lam R1 f - lam R0 g = 0
    system = SaddleSystem(ops1, data_gram(ops1), 0.3)
    f, g = system.solve(rhs_for(ops1, 2))
    lhs = ops1.stiffness @ f
    rhs = ops1.mass @ g
    np.testing.assert_allclose(lhs, rhs, atol=1e-9 * max(1, np.abs(lhs).max()))


def test_zero_rhs_gives_zero(ops1):
    f, g = SaddleSystem(ops1, data_gram(ops1), 1.0).solve(np.zeros(ops1.vertex_count))
    assert np.all(f == 0) and np.all(g == 0)


def test_large_lambda_flattens(ops1):
    # the penalty null space on a closed surface is the constants
    rhs = rhs_for(ops1, 3)
    f, _ = SaddleSystem(ops1, data_gram(ops1), 1e8).solve(rhs)
    assert np.std(f) < 1e-6 * max(1.0, abs(np.mean(f)))


def test_solution_continuity_in_lambda(ops1):
    gram = data_gram(ops1)
    rhs = rhs_for(ops1, 4)
    f_a, _ = SaddleSystem(ops1, gram, 1.0).solve(rhs)
    f_b, _ = SaddleSystem(ops1, gram, 1.0 + 1e-9).solve(rhs)
    assert np.linalg.norm(f_a - f_b) / np.linalg.norm(f_a) < 1e-6


def test_rebuild_is_bitwise_deterministic(ops2):
    gram = data_gram(ops2)
    rhs = rhs_for(ops2, 5)
    f_a, g_a = SaddleSystem(ops2, gram, 0.01).solve(rhs)
    f_b, g_b = SaddleSystem(ops2, gram, 0.01).solve(rhs)
    np.testing.assert_array_equal(f_a, f_b)
    np.testing.assert_array_equal(g_a, g_b)


def test_solve_many_matches_repeated_solve(ops1):
    system = SaddleSystem(ops1, data_gram(ops1), 0.05)
    rng = np.random.default_rng(6)
    block = rng.standard_normal((ops1.vertex_count, 4))
    F, G = system.solve_many(block)
    for j in range(4):
        f, g = system.solve(block[:, j])
        np.testing.assert_array_equal(F[:, j], f)
        np.testing.assert_array_equal(G[:, j], g)


def factored_size(system):
    """K when ``system`` holds the banded Cholesky factor of its K x K
    Schur complement, 2K when it holds the LU of the saddle system."""
    if system._lu is None:
        return system._band.shape[1]
    assert system._band is None
    return system._lu.shape[0]


def weighted_gram(ops, seed, spread):
    """psi' diag(w) psi with location weights w in [1, 1 + spread]."""
    w = 1.0 + spread * np.random.default_rng(seed).random(ops.location_count)
    return (ops.psi.T @ sparse.diags(w) @ ops.psi).tocsr()


def relative_error(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


def assert_refined_matches_fresh(ops, old, lam, new=None):
    if new is None:
        new = weighted_gram(ops, 8, 0.1)
    rhs = rhs_for(ops, 9)
    system = SaddleSystem(ops, old, lam)
    start = system.solve(rhs_for(ops, 10))[0]
    f, g = system.solve_with_block(new, rhs, start)
    fresh = SaddleSystem(ops, new, lam)
    f_ref, g_ref = fresh.solve(rhs)
    assert relative_error(f, f_ref) < 1e-12
    assert relative_error(g, g_ref) < 1e-12
    # the stopping test on the data-block change bounds the residual of
    # the whole new system in the unknowns (f, sqrt(lam) g)
    residual = fresh.matrix @ np.concatenate([f, np.sqrt(lam) * g])
    residual[: ops.vertex_count] -= rhs
    assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(rhs)


@pytest.mark.parametrize("lam", [1e-3, 1.0])
def test_solve_with_block_matches_fresh_factorization(ops2, lam):
    assert_refined_matches_fresh(ops2, weighted_gram(ops2, 7, 0.1), lam)


@pytest.mark.parametrize("lam", [1e-3, 1.0])
def test_solve_with_block_from_schur_form_matches_fresh_factorization(ops2, lam):
    # refinement from a K x K form system onto a masked-style block
    assert_refined_matches_fresh(ops2, data_gram(ops2), lam)


@pytest.mark.parametrize("target", ["diagonal", "non-diagonal"])
@pytest.mark.parametrize("lam", [1e-3, 1.0])
def test_solve_with_block_from_diagonal_schur_form_matches_fresh_factorization(
        ops2, lam, target):
    # refinement from the K x K form of a non-uniform diagonal block onto
    # a nearby diagonal block (also K x K) or one with off-diagonal terms
    old = diagonal_block(ops2, 0.3, 21)
    assert factored_size(SaddleSystem(ops2, old, lam)) == ops2.vertex_count
    w = old.diagonal()
    if target == "diagonal":
        new = sparse.diags(w * (1 + 0.05 * np.random.default_rng(22).random(w.size)),
                           format="csr")
    else:
        new = (old + 0.02 * data_blocks(ops2)["interior-points"]).tocsr()
    assert_refined_matches_fresh(ops2, old, lam, new)


@pytest.mark.parametrize("target", ["vector", "vector-with-zero", "off-diagonal"])
def test_solve_with_block_from_diagonal_vector_matches_fresh_factorization(ops2, target):
    # a diagonal block passed as its K-vector w is factored as the K x K
    # form and refined onto a nearby vector (the change applied
    # elementwise), a vector with a zero entry (whose own system takes
    # the saddle form) or a CSR block with off-diagonal terms
    old = diagonal_block(ops2, 0.3, 21).diagonal()
    assert factored_size(SaddleSystem(ops2, old, 1.0)) == ops2.vertex_count
    new = old * (1 + 0.05 * np.random.default_rng(22).random(old.size))
    if target == "vector-with-zero":
        new[np.argmin(old)] = 0.0
        assert factored_size(SaddleSystem(ops2, new, 1.0)) == 2 * ops2.vertex_count
    elif target == "off-diagonal":
        new = (sparse.diags(new) + 0.02 * data_blocks(ops2)["interior-points"]).tocsr()
    assert_refined_matches_fresh(ops2, old, 1.0, new)


def test_vector_block_keeps_its_zeros_in_the_saddle_form(ops2):
    # diag(w) with a zero entry is assembled with that zero stored, as
    # the CSR block of the same weights is, so both factor alike
    w = diagonal_block(ops2, 0.5, 17).diagonal().copy()
    w[5] = 0.0
    K = ops2.vertex_count
    as_csr = sparse.csr_matrix((w, np.arange(K), np.arange(K + 1)), shape=(K, K))
    a, b = SaddleSystem(ops2, w, 1e-3), SaddleSystem(ops2, as_csr, 1e-3)
    assert a.matrix.nnz == b.matrix.nnz
    assert abs(a.matrix - b.matrix).max() == 0
    rhs = rhs_for(ops2, 15)
    for x, y in zip(a.solve(rhs), b.solve(rhs)):
        assert x.tobytes() == y.tobytes()
    with pytest.raises(DimensionMismatch, match=rf"must be {K}x{K}, got \({K - 1},\)"):
        SaddleSystem(ops2, w[1:], 1e-3)


def test_solve_with_distant_block_reports_nonconvergence(ops1):
    old = data_gram(ops1)
    far = 1e6 * old
    rhs = rhs_for(ops1, 11)
    system = SaddleSystem(ops1, old, 0.1)
    assert system.solve_with_block(far, rhs, system.solve(rhs)[0]) is None
    # the caller's fallback: factor the new block; with the data block
    # dwarfing the penalty, g is less well conditioned than f (the sparse
    # and dense solvers agree on it to about 4e-10)
    f, g = SaddleSystem(ops1, far, 0.1).solve(rhs)
    f_d, g_d = dense_block_solve(ops1, far, 0.1, rhs)
    assert relative_error(f, f_d) < 1e-10
    assert relative_error(g, g_d) < 1e-8


def test_solve_with_block_orthogonal_to_constants_raises(ops1):
    K = ops1.vertex_count
    v = np.arange(K) - np.arange(K).mean()
    block = sparse.csr_matrix(np.outer(v, v))
    system = SaddleSystem(ops1, data_gram(ops1), 1.0)
    rhs = rhs_for(ops1, 12)
    with pytest.raises(SingularSystem):
        system.solve_with_block(block, rhs, system.solve(rhs)[0])


def test_singular_data_block_raises(ops1):
    # with no data term the matrix kernel holds the constants
    K = ops1.vertex_count
    empty = sparse.csr_matrix((K, K))
    with pytest.raises(SingularSystem):
        SaddleSystem(ops1, empty, 1.0)


def test_data_block_orthogonal_to_constants_raises(ops1):
    # a PSD block that annihilates constants leaves the kernel open
    K = ops1.vertex_count
    v = np.arange(K) - np.arange(K).mean()
    block = sparse.csr_matrix(np.outer(v, v))
    with pytest.raises(SingularSystem):
        SaddleSystem(ops1, block, 1.0)


def test_unobserved_mesh_component_raises(two_spheres):
    # the constants on the blank sphere lie in the kernel of both the
    # data block and the penalty, though the global constant does not
    ops = assemble(two_spheres, vertex_locations(two_spheres))
    K = two_spheres.K
    values = np.random.default_rng(5).standard_normal((6, K))
    values[:, two_spheres.K // 2:] = np.nan
    obs = ObservationSet.from_masked(values, vertex_locations(two_spheres))
    with pytest.raises(SingularSystem, match="mesh component 2 of 2"):
        fit_missing(obs, 1, [1e-3], ops, selection="fixed")
    observed = sparse.diags((np.arange(K) < K // 2).astype(float))
    with pytest.raises(SingularSystem):
        SaddleSystem(ops, observed, 1.0)
    system = SaddleSystem(ops, data_gram(ops), 1.0)
    with pytest.raises(SingularSystem):
        system.solve_with_block(observed, np.ones(K), system.solve(np.ones(K))[0])


def test_invalid_lambda(ops1):
    for lam in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(InputError):
            SaddleSystem(ops1, data_gram(ops1), lam)


def test_shape_mismatch(ops1, ops2):
    with pytest.raises(DimensionMismatch):
        SaddleSystem(ops1, data_gram(ops2), 1.0)
    system = SaddleSystem(ops1, data_gram(ops1), 1.0)
    with pytest.raises(DimensionMismatch):
        system.solve(np.zeros(ops1.vertex_count + 1))
    start = system.solve(np.ones(ops1.vertex_count))[0]
    with pytest.raises(DimensionMismatch):
        system.solve_with_block(data_gram(ops2), np.ones(ops1.vertex_count), start)


@pytest.mark.parametrize("start", ["short pair", "one-element tuple"])
def test_solve_with_block_malformed_start_raises(ops1, start):
    K = ops1.vertex_count
    system = SaddleSystem(ops1, data_gram(ops1), 1.0)
    f, g = system.solve(np.ones(K))
    start = (f[:-1], g[:-1]) if start == "short pair" else (f,)
    with pytest.raises(DimensionMismatch, match=rf"start must have shape \({K},\)"):
        system.solve_with_block(weighted_gram(ops1, 3, 0.05), np.ones(K), start)


@pytest.mark.parametrize("form", ["schur", "saddle"])
def test_solve_with_block_from_zero_start_matches_fresh_factorization(ops2, form):
    # a block a few percent off the factored one, from f = 0: the first
    # solve is the factored system's own, the rest refine onto the new one
    if form == "schur":
        old, new = data_gram(ops2), weighted_gram(ops2, 8, 0.05)
    else:
        old = data_blocks(ops2)["interior-points"]
        new = (old + 0.03 * weighted_gram(ops2, 8, 0.1)).tocsr()
    rhs = rhs_for(ops2, 13)
    system = SaddleSystem(ops2, old, 0.01)
    assert factored_size(system) == (1 if form == "schur" else 2) * ops2.vertex_count
    f, g = system.solve_with_block(new, rhs, np.zeros(ops2.vertex_count))
    f_ref, g_ref = SaddleSystem(ops2, new, 0.01).solve(rhs)
    assert relative_error(f, f_ref) <= 1e-12
    assert relative_error(g, g_ref) <= 1e-12


def diagonal_block(ops, share, seed):
    """diag(w) with w in [share, 1], both ends taken."""
    rng = np.random.default_rng(seed)
    w = share + (1.0 - share) * rng.random(ops.vertex_count)
    w[rng.choice(ops.vertex_count, 2, replace=False)] = share, 1.0
    return sparse.diags(w, format="csr")


def data_blocks(ops):
    """psi'psi with data at every vertex, twice that, psi'psi at a few
    vertices only and at each triangle's centroid, a masked weighted
    Gram matrix (min/max diagonal share 0.076 on ops2) and one with
    equal scores (share 0.25), and diagonal blocks whose share is at
    the Schur cut, just below it, or zero at one vertex."""
    cut = solver._SCHUR_SHARE
    with_zero = diagonal_block(ops, 0.5, 17).tolil()
    with_zero[5, 5] = 0.0
    rng = np.random.default_rng(13)
    few = ops.psi[np.sort(rng.choice(ops.location_count, 12, replace=False))]
    centroids = assemble(ops.mesh, Locations(np.arange(ops.mesh.T),
                                             np.full((ops.mesh.T, 3), 1 / 3))).psi
    values = rng.standard_normal((8, ops.location_count))
    values[rng.random(values.shape) < 0.3] = np.nan
    state = _MissingState(
        ObservationSet.from_masked(values, vertex_locations(ops.mesh)), ops)
    u = rng.standard_normal(8)
    return {
        "every-vertex": data_gram(ops),
        "twice-identity": sparse.identity(ops.vertex_count, format="csr") * 2.0,
        "few-vertices": (few.T @ few).tocsr(),
        "interior-points": (centroids.T @ centroids).tocsr(),
        "masked": state.weighted_gram(u / np.linalg.norm(u)),
        "masked-equal-scores": state.weighted_gram(np.full(8, 1 / np.sqrt(8))),
        "diagonal-at-cut": diagonal_block(ops, cut, 15),
        "diagonal-below-cut": diagonal_block(ops, cut * (1 - 1e-9), 16),
        "diagonal-with-zero": with_zero.tocsr(),
    }


# Diagonal data blocks whose entries are positive and at least
# `_SCHUR_SHARE` of the largest are factored as the K x K Schur
# complement; every other block as the 2K saddle system.
SCHUR_BLOCKS = ("every-vertex", "twice-identity", "masked-equal-scores",
                "diagonal-at-cut")


def oracle_lambdas(ops):
    """From the default grid's minimum / 1e3 to its maximum * 1e3."""
    grid = default_lambda_grid(ops)
    low, high = grid.min(), grid.max()
    return [low / 1e3, low, np.sqrt(low * high), high, high * 1e3]


BLOCKS = ("every-vertex", "twice-identity", "few-vertices", "interior-points",
          "masked", "masked-equal-scores", "diagonal-at-cut",
          "diagonal-below-cut", "diagonal-with-zero")


@pytest.mark.parametrize("block", BLOCKS)
def test_factored_form_follows_data_block(ops2, block):
    K = ops2.vertex_count
    system = SaddleSystem(ops2, data_blocks(ops2)[block], 1e-3)
    assert system.matrix.shape == (2 * K, 2 * K)
    assert factored_size(system) == (K if block in SCHUR_BLOCKS else 2 * K)


@pytest.mark.parametrize("block", BLOCKS)
def test_matches_dense_lu_oracle_across_lambda(ops2, block):
    upper_left = data_blocks(ops2)[block]
    rhs = rhs_for(ops2, 14)
    for lam in oracle_lambdas(ops2):
        f, g = SaddleSystem(ops2, upper_left, lam).solve(rhs)
        f_d, _ = dense_block_solve(ops2, upper_left, lam, rhs)
        assert relative_error(f, f_d) <= 1e-10, lam
        # residual of the unscaled system [[UL, lam R1], [lam R1, -lam R0]]
        top = dense_block(upper_left) @ f + lam * (ops2.stiffness @ g) - rhs
        bottom = lam * (ops2.stiffness @ f - ops2.mass @ g)
        residual = np.linalg.norm(np.concatenate([top, bottom]))
        assert residual <= 1e-11 * np.linalg.norm(rhs), lam


def test_factorization_takes_diagonal_pivots(ops2):
    # threshold pivoting would leave perm_r != perm_c and bring back fill;
    # the Schur complement's Cholesky factor does not pivot at all
    for block, upper_left in data_blocks(ops2).items():
        if block in SCHUR_BLOCKS:
            continue
        for lam in oracle_lambdas(ops2):
            lu = SaddleSystem(ops2, upper_left, lam)._lu
            np.testing.assert_array_equal(lu.perm_r, lu.perm_c)


def test_elimination_order_pairs_g_before_f(ops2):
    K = ops2.vertex_count
    order = solver._elimination_order(ops2)
    assert sorted(order) == list(range(2 * K))
    np.testing.assert_array_equal(order[0::2], K + order[1::2])


def test_band_order_covers_every_vertex_of_disconnected_mesh(two_spheres,
                                                            sphere1, ops1):
    # each component is ordered on its own, one after the other, so the
    # second sphere repeats the first's order and the band its width
    ops = assemble(two_spheres, vertex_locations(two_spheres))
    K, half = two_spheres.K, sphere1.K
    layout = solver._band_layout(ops)
    order, width = layout.order, layout.width
    assert sorted(order) == list(range(K))
    np.testing.assert_array_equal(two_spheres.component_labels[order],
                                  np.repeat([0, 1], half))
    alone = solver._band_layout(ops1)
    np.testing.assert_array_equal(order, np.concatenate([alone.order,
                                                         alone.order + half]))
    assert width == alone.width
    # the width bounds every entry of every Schur complement's pattern
    position = np.argsort(order)
    pattern = (abs(ops.mass) + abs(ops.stiffness) @ abs(ops.stiffness)).tocoo()
    assert np.abs(position[pattern.row] - position[pattern.col]).max() == width


def product_band(layout, mass, stiffness, p, scale):
    """Oracle: the lower band of mass + scale stiffness diag(p) stiffness
    in ``layout``'s order, assembled from the sparse product."""
    scaled = stiffness.copy()  # stiffness diag(p), its rows still sorted
    scaled.data *= p[scaled.indices]
    schur = (mass + scale * (scaled @ stiffness)).tocoo()
    position = np.argsort(layout.order)
    i, j = position[schur.row], position[schur.col]
    lower = i >= j
    band = np.zeros((layout.width + 1, len(p)), order="F")
    band[i[lower] - j[lower], j[lower]] = schur.data[lower]
    return band


def open_cap(mesh):
    """The triangles of ``mesh`` with a vertex above z = 0: an open mesh."""
    keep = (mesh.vertices[mesh.triangles, 2] > 0).any(axis=1)
    used, inverse = np.unique(mesh.triangles[keep], return_inverse=True)
    return TriangleMesh(mesh.vertices[used], inverse.reshape(-1, 3))


@pytest.mark.parametrize("mesh", ["sphere2", "two_spheres", "open"])
def test_layout_band_matches_sparse_product(request, sphere2, mesh):
    mesh = open_cap(sphere2) if mesh == "open" else request.getfixturevalue(mesh)
    ops = assemble(mesh, vertex_locations(mesh))
    layout = solver._band_layout(ops)
    K, scale = mesh.K, 0.37
    # psi'psi = c I gives P = I, whose band is the product's bit for bit
    ones = np.ones(K)
    np.testing.assert_array_equal(
        layout.schur(ones, scale),
        product_band(layout, ops.mass, ops.stiffness, ones, scale))
    # otherwise each entry's terms are summed in another rounding order
    p = 1.0 / (0.1 + 0.9 * np.random.default_rng(37).random(K))
    gap = np.abs(layout.schur(p, scale)
                 - product_band(layout, ops.mass, ops.stiffness, p, scale))
    size = product_band(layout, abs(ops.mass), abs(ops.stiffness), p, scale)
    assert (gap <= 4 * np.finfo(float).eps * size).all()


def test_schur_complement_breakdown_raises(ops2):
    # with the mass negated, S = -R0 + lam R1 R1 is negative on the constants
    ops = FemOperators(ops2.mesh, ops2.locations)
    ops.mass = -ops2.mass  # set before its first read, which would assemble it
    system = SaddleSystem(ops2, data_gram(ops2), 1e-3)
    assert factored_size(system) == ops2.vertex_count
    with pytest.raises(SingularSystem, match="Schur complement"):
        SaddleSystem(ops, data_gram(ops), 1e-3)


@pytest.mark.parametrize("lam", [1e-4, 1e-2, 1.0])
def test_banded_schur_solve_matches_saddle_on_disconnected_mesh(
        two_spheres, monkeypatch, lam):
    ops = assemble(two_spheres, vertex_locations(two_spheres))
    K = two_spheres.K
    w = 1.0 + np.random.default_rng(35).random(K)
    rhs = np.random.default_rng(36).standard_normal((K, 2))
    blocks = (data_gram(ops), sparse.diags(w, format="csr"))
    schur = [SaddleSystem(ops, block, lam) for block in blocks]
    monkeypatch.setattr(solver, "_schur_weights", lambda block: None)
    saddle = [SaddleSystem(ops, block, lam) for block in blocks]
    for a, b in zip(schur, saddle):
        assert (factored_size(a), factored_size(b)) == (K, 2 * K)
        F, G = a.solve_many(rhs)
        F_ref, G_ref = b.solve_many(rhs)
        assert relative_error(F, F_ref) <= 1e-12
        assert relative_error(G, G_ref) <= 1e-12


def lu_entries(system):
    return system._lu.L.nnz + system._lu.U.nnz


def test_schur_complement_has_less_fill_than_saddle(ops3, monkeypatch):
    # the K x K form is stored as a band in the two-ring Cuthill-McKee
    # order (84 x 642 = 53,928 entries against the saddle LU's 116,236
    # on this mesh)
    gram = data_gram(ops3)
    schur = SaddleSystem(ops3, gram, 1e-3)
    monkeypatch.setattr(solver, "_schur_weights", lambda block: None)
    saddle = SaddleSystem(ops3, gram, 1e-3)
    assert factored_size(schur) == ops3.vertex_count
    assert factored_size(saddle) == 2 * ops3.vertex_count
    assert schur._band.size < lu_entries(saddle)


@pytest.mark.parametrize("masked", [False, True])
def test_mesh_order_computed_once_per_operator_set(sphere2, monkeypatch, masked):
    # dense data (psi'psi = I) factor the K x K form, which needs only
    # the band layout; masked data at triangle centroids, whose data
    # blocks are not diagonal, the saddle form, which needs only the
    # saddle order; each is computed once per operator set
    ops = assemble(sphere2, vertex_locations(sphere2))
    ds = generate_sphere_dataset(sphere2, 20, (4.0, 2.0), 0.1, 31)
    orders, layouts, factors = [], [], []
    mesh_order, band_layout = solver._mesh_order, solver._BandLayout
    factor = solver.SaddleSystem.__init__

    def counting_order(ops_arg):
        orders.append(ops_arg)
        return mesh_order(ops_arg)

    def counting_layout(ops_arg):
        layouts.append(ops_arg)
        return band_layout(ops_arg)

    def counting_factor(self, *args):
        factor(self, *args)
        factors.append(factored_size(self))

    monkeypatch.setattr(solver, "_mesh_order", counting_order)
    monkeypatch.setattr(solver, "_BandLayout", counting_layout)
    monkeypatch.setattr(solver.SaddleSystem, "__init__", counting_factor)
    grid = [1e-5, 1e-3, 1e-1]
    if masked:
        centroids = Locations(np.arange(sphere2.T), np.full((sphere2.T, 3), 1 / 3))
        values = (location_matrix(sphere2, centroids) @ ds.X.values.T).T
        values[np.random.default_rng(32).random(values.shape) < 0.2] = np.nan
        obs = ObservationSet.from_masked(values, centroids)
        fit_missing(obs, 1, grid, ops, selection="kfold", folds=3)
    else:
        fit(ds.X, 2, grid, ops, selection="kfold", folds=3)
    assert len(factors) >= len(grid)
    K = ops.vertex_count
    if masked:
        assert (orders, layouts) == ([ops], [])
        assert set(factors) == {2 * K}
    else:
        assert (orders, layouts) == ([], [ops])
        assert set(factors) == {K}


def test_elimination_order_computed_once_under_concurrent_first_use(
        sphere2, monkeypatch):
    ops = assemble(sphere2, vertex_locations(sphere2))
    calls = []
    mesh_order = solver._mesh_order

    def slow_order(ops_arg):
        calls.append(None)
        time.sleep(0.05)  # the window a check-then-set race would need
        return mesh_order(ops_arg)

    monkeypatch.setattr(solver, "_mesh_order", slow_order)
    barrier = threading.Barrier(8)

    def first_use():
        barrier.wait(timeout=10)
        return solver._elimination_order(ops)

    with ThreadPoolExecutor(max_workers=8) as pool:
        futures = [pool.submit(first_use) for _ in range(8)]
        orders = [future.result(timeout=30) for future in futures]
    assert len(calls) == 1
    assert all(order is orders[0] for order in orders)


def test_band_order_computed_once_under_concurrent_first_use(sphere2,
                                                            monkeypatch):
    ops = assemble(sphere2, vertex_locations(sphere2))
    calls = []
    band_layout = solver._BandLayout

    def slow_layout(ops_arg):
        calls.append(None)
        time.sleep(0.05)  # the window a check-then-set race would need
        return band_layout(ops_arg)

    monkeypatch.setattr(solver, "_BandLayout", slow_layout)
    barrier = threading.Barrier(8)

    def first_use():
        barrier.wait(timeout=10)
        return solver._band_layout(ops)

    with ThreadPoolExecutor(max_workers=8) as pool:
        futures = [pool.submit(first_use) for _ in range(8)]
        layouts = [future.result(timeout=30) for future in futures]
    assert len(calls) == 1
    assert all(layout is layouts[0] for layout in layouts)


def test_vertex_masked_kfold_matches_saddle_form(sphere2, monkeypatch):
    # data at the vertices give diagonal weighted Gram blocks, factored
    # as their K x K Schur complement; forcing the 2K saddle form must
    # change nothing beyond roundoff
    ops = assemble(sphere2, vertex_locations(sphere2))
    ds = generate_sphere_dataset(sphere2, 20, (4.0, 2.0), 0.1, 33)
    values = ds.X.values.copy()
    values[np.random.default_rng(34).random(values.shape) < 0.2] = np.nan
    obs = ObservationSet.from_masked(values, vertex_locations(ops.mesh))
    grid = default_lambda_grid(ops)[::3]
    factor = solver.SaddleSystem.__init__

    def run():
        factors = []

        def counting_factor(self, *args):
            factor(self, *args)
            factors.append(factored_size(self))

        monkeypatch.setattr(solver.SaddleSystem, "__init__", counting_factor)
        result = fit_missing(obs, 2, grid, ops, selection="kfold", folds=3)
        return result, factors

    schur, schur_factors = run()
    monkeypatch.setattr(solver, "_schur_weights", lambda block: None)
    saddle, saddle_factors = run()
    K = ops.vertex_count
    assert K in schur_factors
    assert set(saddle_factors) == {2 * K}
    assert len(schur_factors) == len(saddle_factors)
    assert ([t.chosen for t in schur.selection_traces]
            == [t.chosen for t in saddle.selection_traces])
    for a, b in zip(schur.components, saddle.components):
        assert a.lam == b.lam
        assert a.iterations == b.iterations
        assert relative_error(a.f_coefficients, b.f_coefficients) <= 1e-12
        assert relative_error(a.g_coefficients, b.g_coefficients) <= 1e-12
        assert relative_error(a.scores, b.scores) <= 1e-12
