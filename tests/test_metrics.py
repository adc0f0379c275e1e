import numpy as np
import pytest

from smfpca import (
    DataMatrix,
    DimensionMismatch,
    RankDeficient,
    evaluate_arrays,
    l2_inner,
    mse,
    mv_pca,
    principal_angle,
    sphere_pc_functions,
)


def rank_two_data(ops, n, seed):
    rng = np.random.default_rng(seed)
    v1, v2 = sphere_pc_functions(ops.mesh)
    fields = np.stack([v1, v2], axis=1)
    scores = rng.standard_normal((n, 2)) * np.array([4.0, 2.0])
    return DataMatrix(scores @ np.asarray(ops.psi @ fields).T)


# -- multivariate baseline --------------------------------------------


def test_mv_pca_matches_dense_svd(ops2):
    X = rank_two_data(ops2, 24, 0)
    comps = mv_pca(X, 2, ops2.mesh)
    centered = X.values - X.values.mean(axis=0)
    u, d, vt = np.linalg.svd(centered, full_matrices=False)
    for l, comp in enumerate(comps):
        # same direction up to sign, unit surface norm
        cos = abs(
            l2_inner(ops2, comp.coefficients, vt[l])
            / np.sqrt(l2_inner(ops2, vt[l], vt[l]))
        )
        assert cos == pytest.approx(1.0, abs=1e-10)
        assert l2_inner(ops2, comp.coefficients, comp.coefficients) == pytest.approx(
            1.0, rel=1e-10
        )
        assert np.linalg.norm(comp.scores) == pytest.approx(1.0, rel=1e-12)
        assert comp.coefficients[np.argmax(np.abs(comp.coefficients))] > 0


def test_mv_pca_norm_from_the_mass_form_matches_l2_inner(ops1, ops2, ops3):
    # The baseline's surface norms are summed per triangle, not applied
    # through the assembled mass matrix; both orders round alike to 1e-13.
    from smfpca.fem import _mass_inner

    rng = np.random.default_rng(4)
    for ops in (ops1, ops2, ops3):
        comps = mv_pca(rank_two_data(ops, 30, 3), 2, ops.mesh)
        for a in (*(c.coefficients for c in comps),
                  rng.standard_normal(ops.vertex_count), rng.random(ops.vertex_count)):
            exact = l2_inner(ops, a, a)
            assert abs(_mass_inner(ops.mesh, a, a) - exact) <= 1e-13 * exact


def test_mv_pca_reconstructs_centered_data(ops1):
    X = rank_two_data(ops1, 10, 1)
    comps = mv_pca(X, 2, ops1.mesh)
    centered = X.values - X.values.mean(axis=0)
    recon = sum(
        c.function_norm * np.outer(c.scores, c.coefficients) for c in comps
    )
    np.testing.assert_allclose(recon, centered, atol=1e-9)


def test_mv_pca_explained_ordering(ops1):
    X = rank_two_data(ops1, 30, 2)
    comps = mv_pca(X, 2, ops1.mesh)
    assert comps[0].function_norm > comps[1].function_norm > 0


def test_mv_pca_validates(ops1):
    X = rank_two_data(ops1, 8, 3)
    with pytest.raises(DimensionMismatch):
        mv_pca(X, 0, ops1.mesh)
    with pytest.raises(DimensionMismatch):
        mv_pca(X, 9, ops1.mesh)
    short = DataMatrix(X.values[:, :-1])
    with pytest.raises(DimensionMismatch):
        mv_pca(short, 1, ops1.mesh)


def test_mv_pca_names_a_zero_singular_value(ops1):
    # rank one after centering: the second singular value is roundoff
    X = rank_two_data(ops1, 8, 3)
    rank_one = DataMatrix(np.outer(np.arange(8.0), X.values[0]))
    assert len(mv_pca(rank_one, 1, ops1.mesh)) == 1
    with pytest.raises(RankDeficient, match="^component 2 has a zero singular value$"):
        mv_pca(rank_one, 2, ops1.mesh)
    with pytest.raises(RankDeficient, match="^component 1 "):
        mv_pca(DataMatrix(np.ones_like(X.values)), 1, ops1.mesh)


# -- scalar metrics ---------------------------------------------------


def test_mse_sign_resolution():
    v = np.linspace(-1.0, 1.0, 9)
    assert mse(v, v) == 0.0
    assert mse(v, -v) == 0.0
    w = v + 2.0
    assert mse(w, -w) == 0.0


def test_mse_constant_offset():
    v = np.linspace(-1.0, 1.0, 21)
    assert mse(v + 0.5, v) == pytest.approx(0.25, rel=1e-12)


def test_mse_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        mse(np.zeros(3), np.zeros(4))


def test_principal_angle_identical_and_orthogonal():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((12, 3))
    assert principal_angle(a, a) == pytest.approx(0.0, abs=1e-7)
    e1 = np.eye(6)[:, :1]
    e2 = np.eye(6)[:, 1:2]
    assert principal_angle(e1, e2) == pytest.approx(np.pi / 2, rel=1e-12)


def test_principal_angle_forty_five_degrees():
    a = np.eye(8)[:, :1]
    b = (np.eye(8)[:, 0] + np.eye(8)[:, 1]).reshape(-1, 1) / np.sqrt(2.0)
    assert principal_angle(a, b) == pytest.approx(np.pi / 4, rel=1e-12)
    assert principal_angle(b, a) == pytest.approx(np.pi / 4, rel=1e-12)


def test_principal_angle_basis_invariant():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((15, 2))
    theta = 0.7
    rot = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    assert principal_angle(a, 2.5 * a @ rot) == pytest.approx(0.0, abs=1e-7)


def test_principal_angle_rank_checks():
    a = np.zeros((5, 1))
    b = np.ones((5, 1))
    with pytest.raises(RankDeficient):
        principal_angle(a, b)
    dup = np.ones((5, 2))
    with pytest.raises(RankDeficient):
        principal_angle(b, dup)
    wide = np.ones((2, 3))
    with pytest.raises(RankDeficient):
        principal_angle(wide, wide)
    with pytest.raises(DimensionMismatch):
        principal_angle(np.ones((4, 1)), np.ones((5, 1)))


# -- report assembly --------------------------------------------------


def exact_estimate(ops, n, seed):
    rng = np.random.default_rng(seed)
    v1, v2 = sphere_pc_functions(ops.mesh)
    true_values = np.stack([v1, v2], axis=1)
    true_scores = rng.standard_normal((n, 2)) * np.array([4.0, 2.0])
    norms = np.linalg.norm(true_scores, axis=0)
    est_scores = true_scores / norms
    return true_values, true_scores, est_scores, norms


def test_evaluate_arrays_perfect_estimate(ops1):
    true_values, true_scores, est_scores, norms = exact_estimate(ops1, 18, 4)
    report = evaluate_arrays(
        true_values, est_scores, norms, true_values, true_scores,
        explained_variance_curve=[0.7, 1.0],
    )
    assert report.pc_function_mse == pytest.approx([0.0, 0.0], abs=1e-20)
    assert report.score_mse == pytest.approx([0.0, 0.0], abs=1e-20)
    assert report.signal_mse == pytest.approx(0.0, abs=1e-20)
    assert report.principal_angle == pytest.approx(0.0, abs=1e-7)
    assert report.explained_variance_curve == [0.7, 1.0]


@pytest.mark.parametrize("n, K, m, L", [(9, 40, 2, 3), (40, 9, 3, 2), (16, 16, 2, 2)])
def test_signal_mse_is_bitwise_the_difference_of_products(n, K, m, L):
    rng = np.random.default_rng(70)
    est_values, true_values = rng.standard_normal((K, m)), rng.standard_normal((K, L))
    est_scores, true_scores = rng.standard_normal((n, m)), rng.standard_normal((n, L))
    norms = rng.random(m) + 0.5
    report = evaluate_arrays(est_values, est_scores, norms, true_values, true_scores)
    signal_est = (est_scores * norms) @ est_values.T
    signal_true = true_scores @ true_values.T
    assert report.signal_mse == float(np.mean((signal_est - signal_true) ** 2))


def test_evaluate_arrays_resolves_component_signs(ops1):
    true_values, true_scores, est_scores, norms = exact_estimate(ops1, 18, 5)
    flipped_values = true_values * np.array([1.0, -1.0])
    flipped_scores = est_scores * np.array([1.0, -1.0])
    report = evaluate_arrays(
        flipped_values, flipped_scores, norms, true_values, true_scores
    )
    assert report.pc_function_mse == pytest.approx([0.0, 0.0], abs=1e-20)
    assert report.score_mse == pytest.approx([0.0, 0.0], abs=1e-20)
    assert report.signal_mse == pytest.approx(0.0, abs=1e-20)


def test_evaluate_arrays_truncates_to_shared_count(ops1):
    true_values, true_scores, est_scores, norms = exact_estimate(ops1, 18, 6)
    report = evaluate_arrays(
        true_values[:, :1], est_scores[:, :1], norms[:1],
        true_values, true_scores,
    )
    assert len(report.pc_function_mse) == 1
    assert len(report.score_mse) == 1
    assert report.explained_variance_curve == []


def test_evaluate_arrays_validates(ops1):
    true_values, true_scores, est_scores, norms = exact_estimate(ops1, 18, 7)
    with pytest.raises(DimensionMismatch):
        evaluate_arrays(
            true_values[:-1], est_scores, norms, true_values, true_scores
        )
    with pytest.raises(DimensionMismatch):
        evaluate_arrays(
            true_values, est_scores[:-1], norms, true_values, true_scores
        )
    with pytest.raises(DimensionMismatch):
        evaluate_arrays(
            true_values, est_scores, norms[:1], true_values, true_scores
        )
