import numpy as np
import pytest

from smfpca import (
    DimensionMismatch,
    FemOperators,
    InputError,
    NotASphere,
    assemble,
    generate_eigen_dataset,
    generate_misaligned_dataset,
    generate_sphere_dataset,
    lb_eigenpairs,
    l2_inner,
    sphere_pc_functions,
    vertex_locations,
)
from smfpca.mesh import Locations, TriangleMesh, unit_sphere_mesh


HARMONIC_SCALE_1 = 0.5 * np.sqrt(15.0 / np.pi)
HARMONIC_SCALE_2 = 0.75 * np.sqrt(35.0 / np.pi)


# -- closed-form sphere fields ----------------------------------------


def test_sphere_pc_function_values(sphere2):
    v1, v2 = sphere_pc_functions(sphere2)
    # oracle: evaluate the polynomials at chosen vertices
    for k in range(0, sphere2.K, 11):
        x, y, z = sphere2.vertices[k]
        assert v1[k] == pytest.approx(HARMONIC_SCALE_1 * x * y, abs=1e-12)
        assert v2[k] == pytest.approx(
            HARMONIC_SCALE_2 * x * y * (x * x - y * y), abs=1e-12
        )


def test_sphere_pc_functions_near_orthonormal(ops3):
    # analytic unit-norm orthogonal harmonics; linear interpolation on
    # the level-3 icosphere loses a few percent, more for the rougher
    # degree-4 mode
    v1, v2 = sphere_pc_functions(ops3.mesh)
    assert l2_inner(ops3, v1, v1) == pytest.approx(1.0, rel=0.05)
    assert l2_inner(ops3, v2, v2) == pytest.approx(1.0, rel=0.08)
    assert abs(l2_inner(ops3, v1, v2)) < 0.01


def test_sphere_pc_functions_reject_non_sphere(tetra):
    with pytest.raises(NotASphere):
        sphere_pc_functions(tetra)


def test_scaled_sphere_rejected(sphere1):
    scaled = TriangleMesh(2.0 * sphere1.vertices, sphere1.triangles)
    with pytest.raises(NotASphere):
        sphere_pc_functions(scaled)


# -- sphere protocol --------------------------------------------------


def test_sphere_dataset_shapes(ops2):
    ds = generate_sphere_dataset(ops2.mesh, ops2, 17, (4.0, 2.0), 0.1, 0)
    assert ds.X.values.shape == (17, ops2.location_count)
    assert ds.true_components.shape == (ops2.vertex_count, 2)
    assert ds.true_scores.shape == (17, 2)
    assert ds.generator == "sphere"
    assert ds.noise_sigma == 0.1


def test_sphere_dataset_zero_noise_is_rank_two(ops2):
    ds = generate_sphere_dataset(ops2.mesh, ops2, 20, (4.0, 2.0), 0.0, 1)
    sampled = np.asarray((ops2.psi @ ds.true_components))
    # residual after projecting rows onto the sampled field span
    q, _ = np.linalg.qr(sampled)
    resid = ds.X.values - (ds.X.values @ q) @ q.T
    assert np.abs(resid).max() < 1e-10
    recon = ds.true_scores @ sampled.T
    np.testing.assert_allclose(ds.X.values, recon, atol=1e-12)


def test_sphere_dataset_deterministic(ops1):
    a = generate_sphere_dataset(ops1.mesh, ops1, 12, (4.0, 2.0), 0.1, 42)
    b = generate_sphere_dataset(ops1.mesh, ops1, 12, (4.0, 2.0), 0.1, 42)
    np.testing.assert_array_equal(a.X.values, b.X.values)
    np.testing.assert_array_equal(a.true_scores, b.true_scores)
    c = generate_sphere_dataset(ops1.mesh, ops1, 12, (4.0, 2.0), 0.1, 43)
    assert not np.array_equal(a.X.values, c.X.values)


def test_sphere_dataset_score_spread(ops1):
    ds = generate_sphere_dataset(ops1.mesh, ops1, 400, (4.0, 2.0), 0.0, 3)
    sd = ds.true_scores.std(axis=0, ddof=1)
    # 3 standard errors of the sample sd
    for observed, sigma in zip(sd, (4.0, 2.0)):
        assert abs(observed - sigma) < 3.0 * sigma / np.sqrt(2.0 * 399)


def test_sphere_dataset_validates(ops1):
    with pytest.raises(DimensionMismatch):
        generate_sphere_dataset(ops1.mesh, ops1, 10, (4.0, 2.0, 1.0), 0.1, 0)
    with pytest.raises(InputError):
        generate_sphere_dataset(ops1.mesh, ops1, 0, (4.0, 2.0), 0.1, 0)


# -- eigenfunction protocol -------------------------------------------


def test_eigen_dataset_spans_selected_modes(ops2):
    ds = generate_eigen_dataset(ops2.mesh, ops2, [1, 2, 3], (5.0, 3.0, 1.0), 25, 0.0, 4)
    pairs = lb_eigenpairs(ops2, 4)
    fields = np.stack([pairs[j].coefficients for j in (1, 2, 3)], axis=1)
    np.testing.assert_allclose(ds.true_components, fields, atol=1e-12)
    sampled = np.asarray(ops2.psi @ fields)
    recon = ds.true_scores @ sampled.T
    np.testing.assert_allclose(ds.X.values, recon, atol=1e-12)


def test_eigen_dataset_open_mesh_warns(right_triangle):
    ops = assemble(right_triangle, vertex_locations(right_triangle))
    with pytest.warns(UserWarning, match="natural boundary"):
        generate_eigen_dataset(right_triangle, ops, [1], (1.0,), 5, 0.0, 5)


def test_eigen_dataset_validates(ops1):
    with pytest.raises(DimensionMismatch):
        generate_eigen_dataset(ops1.mesh, ops1, [1, 2], (5.0,), 10, 0.1, 0)
    with pytest.raises(InputError):
        generate_eigen_dataset(ops1.mesh, ops1, [-1], (5.0,), 10, 0.1, 0)


# -- misalignment protocol --------------------------------------------


def shifted_harmonic(mesh, dtheta, dphi):
    """Formula oracle: v1 in shifted spherical coordinates; the
    quarter-wave structure makes canonicalization of the angles
    unnecessary."""
    x, y, z = mesh.vertices.T
    theta = np.arccos(np.clip(z, -1.0, 1.0))
    phi = np.arctan2(y, x)
    return (
        0.5
        * HARMONIC_SCALE_1
        * np.sin(theta + dtheta) ** 2
        * np.sin(2.0 * (phi + dphi))
    )


def test_misaligned_rows_match_shifted_fields(ops2):
    ds = generate_misaligned_dataset(ops2.mesh, ops2, 40, 4.0, (0.0, 0.4), 6)
    assert ds.noise_sigma == 0.0
    assert ds.true_components.shape[1] == 1
    v1, _ = sphere_pc_functions(ops2.mesh)
    np.testing.assert_allclose(ds.true_components[:, 0], v1, atol=1e-12)

    candidates = [
        np.asarray(ops2.psi @ shifted_harmonic(ops2.mesh, dt, dp))
        for dt in (0.0, 0.4)
        for dp in (0.0, 0.4)
    ]
    used = set()
    for i in range(40):
        row = ds.X.values[i]
        errs = [
            np.abs(row - ds.true_scores[i, 0] * cand).max()
            for cand in candidates
        ]
        match = int(np.argmin(errs))
        assert errs[match] < 1e-10
        used.add(match)
    assert len(used) >= 3


def test_misaligned_deterministic(ops1):
    a = generate_misaligned_dataset(ops1.mesh, ops1, 15, 4.0, (0.0, 0.4), 7)
    b = generate_misaligned_dataset(ops1.mesh, ops1, 15, 4.0, (0.0, 0.4), 7)
    np.testing.assert_array_equal(a.X.values, b.X.values)


def test_misaligned_rejects_non_sphere(tetra):
    ops = assemble(tetra, vertex_locations(tetra))
    with pytest.raises(NotASphere):
        generate_misaligned_dataset(tetra, ops, 5, 4.0, (0.0, 0.4), 0)


def test_generators_reject_negative_seed(ops1):
    mesh = ops1.mesh
    draws = (
        lambda: generate_sphere_dataset(mesh, ops1, 5, (4.0, 2.0), 0.1, -1),
        lambda: generate_eigen_dataset(mesh, ops1, [1], (5.0,), 5, 0.1, -1),
        lambda: generate_misaligned_dataset(mesh, ops1, 5, 4.0, (0.0, 0.4), -1),
    )
    for draw in draws:
        with pytest.raises(InputError, match="seed must be non-negative, got -1"):
            draw()


# -- the psi-free path on vertex locations ----------------------------


@pytest.mark.parametrize("level", [1, 2, 3])
def test_vertex_sampled_generators_match_the_assembled_product(level, monkeypatch):
    # On the vertices psi is the identity and the generators skip it; the
    # data must keep every bit of (psi @ V.T).T, sign bits included (the
    # misaligned fields hold -0.0, which the product turns into 0.0).
    mesh = unit_sphere_mesh(level)
    lazy = FemOperators(mesh, vertex_locations(mesh))
    assert lazy.psi_is_identity

    def both(generate):
        skipped = generate(lazy).X.values
        assert "psi" not in vars(lazy)  # never built
        with monkeypatch.context() as patch:
            patch.setattr(FemOperators, "psi_is_identity", False)
            product = generate(assemble(mesh, vertex_locations(mesh))).X.values
        assert skipped.shape == product.shape
        assert (skipped.view(np.int64) == product.view(np.int64)).all()

    both(lambda ops: generate_sphere_dataset(mesh, ops, 20, [4.0, 2.0], 0.0, level))
    both(lambda ops: generate_misaligned_dataset(mesh, ops, 20, 4.0, seed=level))


def test_psi_is_identity_only_on_the_vertices_in_order(sphere1):
    ops = assemble(sphere1, vertex_locations(sphere1))
    assert ops.psi_is_identity
    assert np.array_equal(ops.psi.toarray(), np.eye(sphere1.K))
    locations = vertex_locations(sphere1)
    reversed_order = Locations(locations.triangles[::-1], locations.weights[::-1])
    centroids = Locations(np.arange(sphere1.K) % sphere1.T,
                          np.full((sphere1.K, 3), 1.0 / 3.0))
    for other in (reversed_order, centroids):
        ops = FemOperators(sphere1, other)
        assert not ops.psi_is_identity
        assert not np.array_equal(ops.psi.toarray(), np.eye(sphere1.K))
