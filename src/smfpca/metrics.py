"""Evaluation metrics and the plain multivariate PCA baseline.

Component signs are ambiguous by construction, so the mean squared
error resolves the joint flip inside the metric; subspace agreement is
measured by the principal angle, the arccosine of the smallest singular
value of the product of orthonormal bases.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, RankDeficient, check_count
from .estimator import DataMatrix, _gram_pairs
from .fem import _fix_sign, _mass_inner
from .mesh import TriangleMesh


@dataclass(eq=False)
class MvPcaComponent:
    """One baseline component: unit scores, surface-normalized loading.

    `function_norm` carries the singular value rescaled by the loading
    normalization, so scores times the norm reconstruct the data
    contribution exactly as for the smoothed estimator.
    """

    scores: np.ndarray
    coefficients: np.ndarray
    function_norm: float


@dataclass(eq=False)
class EvaluationReport:
    """Per-component and aggregate accuracy of a fitted decomposition."""

    pc_function_mse: list
    score_mse: list
    signal_mse: float
    principal_angle: float
    explained_variance_curve: list


def mv_pca(X: DataMatrix, n_components: int, mesh: TriangleMesh):
    """Multivariate PCA of the centered data matrix, vertex-sampled.

    The right singular vectors become piecewise-linear functions with
    the loading values as vertex coefficients, rescaled to unit surface
    L2 norm; scores are the matching unit left singular vectors.

    The singular pairs come from the eigendecomposition of the smaller
    Gram matrix (`estimator._gram_pairs`, as for the warm starts), not a
    full thin SVD. The Gram matrix squares the condition number, so a
    singular value below about sqrt(eps) times the largest is not
    resolved; one that is zero to that precision raises
    :class:`RankDeficient` naming its component.

    Requires one data column per vertex of ``mesh`` (the loading values
    are read as nodal coefficients). The surface norms are summed per
    triangle from the mesh (`fem._mass_inner`), so no operator matrix
    is built.
    """
    check_count("n_components", n_components, 1, min(X.n, X.s), DimensionMismatch)
    if X.s != mesh.K:
        raise DimensionMismatch(
            "multivariate PCA baseline needs one data column per mesh vertex"
        )
    centered = X.values - X.values.mean(axis=0)
    vectors, products = _gram_pairs(centered, n_components)
    singular = [float(np.linalg.norm(p)) for p in products]
    floor = np.sqrt(max(X.n, X.s) * np.finfo(float).eps) * singular[0]
    tall = X.n > X.s
    components = []
    for l, (vector, product, d) in enumerate(zip(vectors, products, singular)):
        if not d > floor:
            raise RankDeficient(
                f"component {l + 1} has a zero singular value")
        u, loading = (product / d, vector) if tall else (vector, product / d)
        c = float(np.sqrt(_mass_inner(mesh, loading, loading)))
        if c <= 0:
            raise RankDeficient(f"loading {l} has zero surface norm")
        coeff, flipped = _fix_sign(loading / c)
        components.append(
            MvPcaComponent(
                scores=-u if flipped else u.copy(), coefficients=coeff,
                function_norm=d * c,
            )
        )
    return components


def mse(estimate, truth) -> float:
    """Mean squared difference, minimized over the joint sign flip."""
    estimate = np.asarray(estimate, dtype=np.float64).ravel()
    truth = np.asarray(truth, dtype=np.float64).ravel()
    if estimate.shape != truth.shape:
        raise DimensionMismatch(
            f"length mismatch: {estimate.shape} vs {truth.shape}"
        )
    direct = float(np.mean((estimate - truth) ** 2))
    flipped = float(np.mean((estimate + truth) ** 2))
    return min(direct, flipped)


def principal_angle(true_fns, est_fns) -> float:
    """Angle between the column spans of two location-value matrices.

    Both matrices are QR-orthonormalized, so the result is invariant to
    any invertible recombination of columns within each subspace.
    Returns arccos of the smallest singular value of the cross product,
    clamped into [0, 1]; 0 means identical subspaces, pi/2 orthogonal.

    Raises
    ------
    RankDeficient
        If either matrix lacks full column rank.
    """
    a = np.atleast_2d(np.asarray(true_fns, dtype=np.float64))
    b = np.atleast_2d(np.asarray(est_fns, dtype=np.float64))
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] != b.shape[0]:
        raise DimensionMismatch(
            f"subspace matrices must share their row count, got "
            f"{a.shape} and {b.shape}"
        )
    for name, m in (("first", a), ("second", b)):
        if m.shape[1] > m.shape[0]:
            raise RankDeficient(f"{name} matrix has more columns than rows")
        svals = np.linalg.svd(m, compute_uv=False)
        if svals[-1] <= max(m.shape) * np.finfo(float).eps * max(svals[0], 1e-300):
            raise RankDeficient(f"{name} matrix is not of full column rank")
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    cross = qa.T @ qb
    rho = float(np.clip(np.linalg.svd(cross, compute_uv=False).min(), 0.0, 1.0))
    return float(np.arccos(rho))


def evaluate_arrays(est_values, est_scores, function_norms,
                    true_values, true_scores,
                    explained_variance_curve=None) -> EvaluationReport:
    """Score an estimated decomposition against generator truth.

    Parameters
    ----------
    est_values : ndarray, shape (K, m)
        Estimated component functions at the vertices, one column each.
    est_scores : ndarray, shape (n, m)
        Unit score vectors.
    function_norms : ndarray, shape (m,)
        Surface norms that unnormalize the scores.
    true_values : ndarray, shape (K, L)
    true_scores : ndarray, shape (n, L)
    explained_variance_curve : list, optional
        Cumulative adjusted variance, echoed into the report.
    """
    est_values = np.atleast_2d(np.asarray(est_values, dtype=np.float64))
    true_values = np.atleast_2d(np.asarray(true_values, dtype=np.float64))
    est_scores = np.atleast_2d(np.asarray(est_scores, dtype=np.float64))
    true_scores = np.atleast_2d(np.asarray(true_scores, dtype=np.float64))
    norms = np.asarray(function_norms, dtype=np.float64).ravel()
    if est_values.shape[0] != true_values.shape[0]:
        raise DimensionMismatch("component functions live on different grids")
    if est_scores.shape[0] != true_scores.shape[0]:
        raise DimensionMismatch("score vectors cover different subject counts")
    if est_values.shape[1] != est_scores.shape[1] or est_values.shape[1] != norms.size:
        raise DimensionMismatch("estimated components are inconsistently sized")

    shared = min(est_values.shape[1], true_values.shape[1])
    pc_mse = [
        mse(est_values[:, l], true_values[:, l]) for l in range(shared)
    ]
    score_mse = [
        mse(est_scores[:, l] * norms[l], true_scores[:, l])
        for l in range(shared)
    ]
    # the signal error in one n x K array, bit for bit as formed apart
    error = (est_scores * norms) @ est_values.T
    error -= true_scores @ true_values.T
    signal_mse = float(np.mean(np.square(error, out=error)))
    angle = principal_angle(true_values[:, :shared], est_values[:, :shared])
    curve = list(explained_variance_curve) if explained_variance_curve is not None else []
    return EvaluationReport(
        pc_function_mse=pc_mse,
        score_mse=score_mse,
        signal_mse=signal_mse,
        principal_angle=angle,
        explained_variance_curve=curve,
    )
