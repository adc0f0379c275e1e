import numpy as np
import pytest
import scipy.sparse as sparse

from smfpca import (
    DimensionMismatch,
    assemble,
    l2_inner,
    lb_eigenpairs,
    unit_sphere_mesh,
    vertex_locations,
)
from smfpca.fem import location_matrix
from smfpca.mesh import Locations, TriangleMesh


def midpoint_quadrature_inner(mesh, a, b):
    """Independent oracle for the surface L2 inner product: the
    edge-midpoint rule, exact for quadratics, applied per triangle to
    the product of two piecewise-linear fields."""
    total = 0.0
    for t in range(mesh.T):
        idx = mesh.triangles[t]
        area = mesh.areas[t]
        av, bv = a[idx], b[idx]
        for i, j in ((0, 1), (1, 2), (2, 0)):
            am = 0.5 * (av[i] + av[j])
            bm = 0.5 * (bv[i] + bv[j])
            total += area / 3.0 * am * bm
    return total


# -- element matrices -------------------------------------------------


def test_single_triangle_mass_oracle(right_triangle):
    ops = assemble(right_triangle, vertex_locations(right_triangle))
    area = 0.5
    expected = area / 12.0 * np.array(
        [[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]
    )
    np.testing.assert_allclose(ops.mass.toarray(), expected, atol=1e-15)


def test_single_triangle_stiffness_oracle(right_triangle):
    # directly from the hand-derived gradients of the right triangle
    ops = assemble(right_triangle, vertex_locations(right_triangle))
    grads = np.array([[-1.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    expected = 0.5 * grads @ grads.T
    np.testing.assert_allclose(ops.stiffness.toarray(), expected, atol=1e-15)


def test_mass_total_equals_area(sphere2, ops2):
    assert ops2.mass.sum() == pytest.approx(sphere2.total_area(), abs=1e-10)


def test_stiffness_annihilates_constants(ops2):
    ones = np.ones(ops2.vertex_count)
    np.testing.assert_allclose(ops2.stiffness @ ones, 0.0, atol=1e-10)


def test_operator_symmetry(ops2):
    for mat in (ops2.mass, ops2.stiffness):
        dense = mat.toarray()
        np.testing.assert_allclose(dense, dense.T, atol=1e-14)


def test_mass_positive_definite(ops1):
    vals = np.linalg.eigvalsh(ops1.mass.toarray())
    assert vals.min() > 0


def test_stiffness_positive_semidefinite(ops1):
    vals = np.linalg.eigvalsh(ops1.stiffness.toarray())
    assert vals.min() > -1e-12


def test_rigid_motion_invariance(sphere1, ops1):
    theta = 1.1
    rot = np.array(
        [
            [np.cos(theta), 0.0, np.sin(theta)],
            [0.0, 1.0, 0.0],
            [-np.sin(theta), 0.0, np.cos(theta)],
        ]
    )
    shift = np.array([0.3, -4.0, 2.5])
    moved = TriangleMesh(sphere1.vertices @ rot.T + shift, sphere1.triangles)
    mops = assemble(moved, vertex_locations(moved))
    np.testing.assert_allclose(
        mops.mass.toarray(), ops1.mass.toarray(), atol=1e-10
    )
    np.testing.assert_allclose(
        mops.stiffness.toarray(), ops1.stiffness.toarray(), atol=1e-10
    )


def test_scaling_laws(sphere1, ops1):
    # dilation by c scales the mass by c^2 and leaves stiffness fixed
    c = 3.7
    scaled = TriangleMesh(c * sphere1.vertices, sphere1.triangles)
    sops = assemble(scaled, vertex_locations(scaled))
    np.testing.assert_allclose(
        sops.mass.toarray(), c * c * ops1.mass.toarray(), rtol=1e-12
    )
    np.testing.assert_allclose(
        sops.stiffness.toarray(), ops1.stiffness.toarray(), atol=1e-12
    )


# -- sampling matrix --------------------------------------------------


def test_psi_identity_at_vertices(ops2):
    dense = ops2.psi.toarray()
    np.testing.assert_array_equal(dense, np.eye(ops2.vertex_count))


def test_psi_interior_rows(sphere1):
    locs = Locations([4, 9, 0], [[1.0 / 3] * 3, [0.5, 0.5, 0.0], [0.2, 0.3, 0.5]])
    ops = assemble(sphere1, locs)
    dense = ops.psi.toarray()
    assert dense.shape == (3, sphere1.K)
    np.testing.assert_allclose(dense.sum(axis=1), 1.0, atol=1e-12)
    # the edge-midpoint row drops its zero weight
    assert ops.psi.getrow(1).nnz == 2
    row = dense[2]
    np.testing.assert_allclose(
        np.sort(row[row != 0]), [0.2, 0.3, 0.5], atol=1e-12
    )


def location_matrix_loop(mesh, locations):
    """Oracle: the location matrix built one location and corner at a
    time, in row order, keeping the positive weights."""
    rows, cols, data = [], [], []
    for j, (t, weights) in enumerate(zip(locations.triangles, locations.weights)):
        corners = mesh.triangles[t]
        for c in range(3):
            if weights[c] > 0.0:
                rows.append(j)
                cols.append(corners[c])
                data.append(weights[c])
    mat = sparse.csr_matrix((data, (rows, cols)), shape=(len(locations), mesh.K))
    mat.sum_duplicates()
    return mat


@pytest.mark.parametrize("count", [0, 1, 200])
def test_location_matrix_bytes_match_per_location_loop(sphere2, count):
    # interior points, points on edges and vertices, in random triangles
    rng = np.random.default_rng(count)
    weights = rng.dirichlet(np.ones(3), count)
    weights[rng.random((count, 3)) < 0.2] = 0.0
    weights[weights.sum(axis=1) == 0.0, 0] = 1.0
    triangles = rng.integers(0, sphere2.T, count)
    locs = Locations(triangles, weights / weights.sum(axis=1)[:, None])
    ref = location_matrix_loop(sphere2, locs)
    mat = location_matrix(sphere2, locs)
    assert mat.shape == ref.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(mat, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_location_matrix_reports_first_bad_location(sphere1):
    one = [[1.0, 0.0, 0.0]]
    for bad in (-1, sphere1.T, 2**70):
        with pytest.raises(DimensionMismatch, match=f"^location 0 references triangle "
                           f"{bad} of a {sphere1.T}-triangle mesh$"):
            location_matrix(sphere1, Locations([bad], one))
    # many rows, the bad one not first
    eye = np.eye(3)[[0, 1, 2, 0]]
    for bad in (-1, sphere1.T, 2**70):
        with pytest.raises(DimensionMismatch, match=f"^location 2 references triangle "
                           f"{bad} of a {sphere1.T}-triangle mesh$"):
            location_matrix(sphere1, Locations(np.array([0, 5, bad, -1], object), eye))


def test_location_matrix_takes_only_locations(sphere1):
    points = [(0, [1.0, 0.0, 0.0]), (1, [0.0, 1.0, 0.0])]
    for given in (points, vertex_locations(sphere1).triangles):
        for build in (location_matrix, assemble):
            with pytest.raises(DimensionMismatch, match="^locations must be a Locations, "
                               f"got {type(given).__name__}$"):
                build(sphere1, given)


def test_psi_interpolates_linear_fields(sphere1):
    # psi applied to nodal values of an affine field reproduces the
    # field at the sample points exactly
    locs = Locations(np.arange(0, 20, 3), np.tile([0.6, 0.3, 0.1], (7, 1)))
    ops = assemble(sphere1, locs)
    field = 2.0 * sphere1.vertices[:, 0] - sphere1.vertices[:, 2] + 0.25
    sampled = ops.psi @ field
    for t, weights, value in zip(locs.triangles, locs.weights, sampled):
        p = weights @ sphere1.vertices[sphere1.triangles[t]]
        assert value == pytest.approx(2.0 * p[0] - p[2] + 0.25, abs=1e-12)


# -- surface inner product --------------------------------------------


def test_l2_inner_matches_quadrature_oracle(sphere1, ops1):
    rng = np.random.default_rng(11)
    for _ in range(3):
        a = rng.standard_normal(sphere1.K)
        b = rng.standard_normal(sphere1.K)
        oracle = midpoint_quadrature_inner(sphere1, a, b)
        assert l2_inner(ops1, a, b) == pytest.approx(oracle, rel=1e-12)


def test_l2_inner_constant(sphere2, ops2):
    ones = np.ones(sphere2.K)
    assert l2_inner(ops2, ones, ones) == pytest.approx(
        sphere2.total_area(), abs=1e-10
    )


# -- Laplace-Beltrami eigenpairs --------------------------------------


def test_first_eigenpair_is_constant(ops2):
    pairs = lb_eigenpairs(ops2, 4)
    assert pairs[0].eigenvalue == pytest.approx(0.0, abs=1e-9)
    v0 = pairs[0].coefficients
    np.testing.assert_allclose(v0, v0[0], rtol=1e-6)
    assert v0[0] > 0


def test_eigenpairs_mass_orthonormal(ops2):
    pairs = lb_eigenpairs(ops2, 6)
    vecs = np.stack([p.coefficients for p in pairs], axis=1)
    gram = vecs.T @ (ops2.mass @ vecs)
    np.testing.assert_allclose(gram, np.eye(6), atol=1e-8)


def test_eigenpairs_solve_the_pencil(ops2):
    for p in lb_eigenpairs(ops2, 5):
        lhs = ops2.stiffness @ p.coefficients
        rhs = p.eigenvalue * (ops2.mass @ p.coefficients)
        np.testing.assert_allclose(lhs, rhs, atol=1e-7)


def test_sphere_spectrum_coarse(ops2):
    # l(l+1) with multiplicity 2l+1; level-2 discretization is within
    # a few percent for the lowest shells
    pairs = lb_eigenpairs(ops2, 9)
    vals = np.array([p.eigenvalue for p in pairs])
    np.testing.assert_allclose(vals[1:4], 2.0, rtol=0.05)
    np.testing.assert_allclose(vals[4:9], 6.0, rtol=0.05)


def test_spectrum_refines_from_above():
    prev = None
    for level in (1, 2, 3):
        m = unit_sphere_mesh(level)
        ops = assemble(m, vertex_locations(m))
        k1 = lb_eigenpairs(ops, 2)[1].eigenvalue
        assert k1 > 2.0
        if prev is not None:
            assert k1 < prev
        prev = k1


def test_eigenpairs_deterministic(ops1):
    a = lb_eigenpairs(ops1, 5)
    b = lb_eigenpairs(ops1, 5)
    for pa, pb in zip(a, b):
        assert pa.eigenvalue == pb.eigenvalue
        np.testing.assert_array_equal(pa.coefficients, pb.coefficients)


def test_eigenpair_count_bounds(ops1):
    with pytest.raises(DimensionMismatch):
        lb_eigenpairs(ops1, 0)
    with pytest.raises(DimensionMismatch):
        lb_eigenpairs(ops1, ops1.vertex_count)


def test_assemble_rejects_foreign_location(sphere1):
    with pytest.raises(DimensionMismatch):
        assemble(sphere1, Locations([sphere1.T + 5], [[1.0, 0.0, 0.0]]))
