import numpy as np
import pytest

from smfpca import (
    DimensionMismatch,
    InputError,
    NotASphere,
    generate_eigen_dataset,
    generate_misaligned_dataset,
    generate_sphere_dataset,
    lb_eigenpairs,
    l2_inner,
    sphere_pc_functions,
)
from smfpca.mesh import TriangleMesh, unit_sphere_mesh


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
    ds = generate_sphere_dataset(ops2.mesh, 17, (4.0, 2.0), 0.1, 0)
    assert ds.X.values.shape == (17, ops2.location_count)
    assert ds.true_components.shape == (ops2.vertex_count, 2)
    assert ds.true_scores.shape == (17, 2)
    assert ds.generator == "sphere"
    assert ds.noise_sigma == 0.1


def test_sphere_dataset_zero_noise_is_rank_two(ops2):
    ds = generate_sphere_dataset(ops2.mesh, 20, (4.0, 2.0), 0.0, 1)
    sampled = np.asarray((ops2.psi @ ds.true_components))
    # residual after projecting rows onto the sampled field span
    q, _ = np.linalg.qr(sampled)
    resid = ds.X.values - (ds.X.values @ q) @ q.T
    assert np.abs(resid).max() < 1e-10
    recon = ds.true_scores @ sampled.T
    np.testing.assert_allclose(ds.X.values, recon, atol=1e-12)


def test_sphere_dataset_deterministic(ops1):
    a = generate_sphere_dataset(ops1.mesh, 12, (4.0, 2.0), 0.1, 42)
    b = generate_sphere_dataset(ops1.mesh, 12, (4.0, 2.0), 0.1, 42)
    np.testing.assert_array_equal(a.X.values, b.X.values)
    np.testing.assert_array_equal(a.true_scores, b.true_scores)
    c = generate_sphere_dataset(ops1.mesh, 12, (4.0, 2.0), 0.1, 43)
    assert not np.array_equal(a.X.values, c.X.values)


def test_sphere_dataset_score_spread(ops1):
    ds = generate_sphere_dataset(ops1.mesh, 400, (4.0, 2.0), 0.0, 3)
    sd = ds.true_scores.std(axis=0, ddof=1)
    # 3 standard errors of the sample sd
    for observed, sigma in zip(sd, (4.0, 2.0)):
        assert abs(observed - sigma) < 3.0 * sigma / np.sqrt(2.0 * 399)


def test_sphere_dataset_validates(ops1):
    with pytest.raises(DimensionMismatch):
        generate_sphere_dataset(ops1.mesh, 10, (4.0, 2.0, 1.0), 0.1, 0)
    with pytest.raises(InputError):
        generate_sphere_dataset(ops1.mesh, 0, (4.0, 2.0), 0.1, 0)


# -- eigenfunction protocol -------------------------------------------


def test_eigen_dataset_spans_selected_modes(ops2):
    ds = generate_eigen_dataset(ops2.mesh, [1, 2, 3], (5.0, 3.0, 1.0), 25, 0.0, 4)
    pairs = lb_eigenpairs(ops2, 4)
    fields = np.stack([pairs[j].coefficients for j in (1, 2, 3)], axis=1)
    np.testing.assert_allclose(ds.true_components, fields, atol=1e-12)
    sampled = np.asarray(ops2.psi @ fields)
    recon = ds.true_scores @ sampled.T
    np.testing.assert_allclose(ds.X.values, recon, atol=1e-12)


def test_eigen_dataset_open_mesh_warns(right_triangle):
    with pytest.warns(UserWarning, match="natural boundary"):
        generate_eigen_dataset(right_triangle, [1], (1.0,), 5, 0.0, 5)


def test_eigen_dataset_validates(ops1):
    with pytest.raises(DimensionMismatch):
        generate_eigen_dataset(ops1.mesh, [1, 2], (5.0,), 10, 0.1, 0)
    with pytest.raises(InputError):
        generate_eigen_dataset(ops1.mesh, [-1], (5.0,), 10, 0.1, 0)


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
    ds = generate_misaligned_dataset(ops2.mesh, 40, 4.0, (0.0, 0.4), 6)
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
    a = generate_misaligned_dataset(ops1.mesh, 15, 4.0, (0.0, 0.4), 7)
    b = generate_misaligned_dataset(ops1.mesh, 15, 4.0, (0.0, 0.4), 7)
    np.testing.assert_array_equal(a.X.values, b.X.values)


def test_misaligned_rejects_non_sphere(tetra):
    with pytest.raises(NotASphere):
        generate_misaligned_dataset(tetra, 5, 4.0, (0.0, 0.4), 0)


def test_generators_reject_negative_seed(ops1):
    mesh = ops1.mesh
    draws = (
        lambda: generate_sphere_dataset(mesh, 5, (4.0, 2.0), 0.1, -1),
        lambda: generate_eigen_dataset(mesh, [1], (5.0,), 5, 0.1, -1),
        lambda: generate_misaligned_dataset(mesh, 5, 4.0, (0.0, 0.4), -1),
    )
    for draw in draws:
        with pytest.raises(InputError, match="seed must be non-negative, got -1"):
            draw()


# -- signed zeros ------------------------------------------------------


@pytest.mark.parametrize("level", [1, 2, 3])
def test_generators_return_no_negative_zero(level):
    # A negative score times a field's exact zero is -0.0 (the sphere
    # harmonics vanish on the coordinate planes); the generators return
    # it as 0.0, so data.csv never holds "-0.0". No noise, so the zeros
    # stay.
    mesh = unit_sphere_mesh(level)
    draws = {
        "sphere": generate_sphere_dataset(mesh, 20, [4.0, 2.0], 0.0, level),
        "misaligned": generate_misaligned_dataset(mesh, 20, 4.0, seed=level),
        "eigen": generate_eigen_dataset(mesh, [1, 2, 3], [5.0, 3.0, 1.0], 20, 0.0, level),
    }
    for name, ds in draws.items():
        zeros = ds.X.values[ds.X.values == 0.0]
        assert not np.signbit(zeros).any(), name
        if name != "eigen":  # the harmonics' zeros meet negative scores
            assert zeros.size and (ds.true_scores < 0).any(), name
