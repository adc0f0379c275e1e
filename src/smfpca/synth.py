"""Synthetic datasets with known ground truth.

Three generators: smooth fields built from Laplace-Beltrami
eigenfunctions of an arbitrary closed mesh, closed-form degree-2 and
degree-4 harmonics on the unit sphere, and per-subject misaligned
copies of the first sphere harmonic. Every generator is a pure function
of (mesh, parameters, seed).
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InputError, NotASphere, check_count, check_real
from .estimator import DataMatrix
from .fem import FemOperators, lb_eigenpairs
from .mesh import TriangleMesh, vertex_locations

_SPHERE_RADIUS_TOL = 1e-6


@dataclass(eq=False)
class SyntheticDataset:
    """Generated data plus the truth that produced it.

    `true_components` holds one column of vertex coefficients per
    underlying component function; `true_scores` the matching n-by-L
    score draws. The sampled matrix is `X`.
    """

    X: DataMatrix
    true_components: np.ndarray
    true_scores: np.ndarray
    noise_sigma: float
    seed: int
    generator: str


def _drawn(fields, sigmas, n, noise_sigma, seed, generator):
    """The dataset of ``n`` subjects over the vertex ``fields``: scores
    drawn with standard deviations ``sigmas``, then noise, from one
    stream seeded by ``seed``."""
    rng = np.random.default_rng(seed)
    scores = rng.standard_normal((n, len(sigmas))) * sigmas
    values = scores @ fields.T + 0.0  # turns -0.0 into 0.0: data.csv writes no "-0.0"
    if noise_sigma != 0:
        values = values + noise_sigma * rng.standard_normal(values.shape)
    return SyntheticDataset(
        X=DataMatrix(values), true_components=fields, true_scores=scores,
        noise_sigma=float(noise_sigma), seed=int(seed), generator=generator,
    )


def _check_draw(n, noise_sigma, sigmas, seed):
    check_count("n", n, 1)
    check_real("noise sigma", noise_sigma, 0)
    for j, sigma in enumerate(sigmas):
        check_real(f"score sigmas entry {j}", sigma)
    check_count("seed", seed, 0)


def _warn_if_open(mesh: TriangleMesh):
    if not mesh.closed:
        warnings.warn(
            "mesh is not closed; the roughness penalty implicitly uses "
            "natural boundary conditions",
            stacklevel=3,
        )


def generate_eigen_dataset(mesh: TriangleMesh, eigen_selection, sigmas, n: int,
                           noise_sigma: float, seed: int) -> SyntheticDataset:
    """Data spanned by selected Laplace-Beltrami eigenfunctions.

    Parameters
    ----------
    mesh : TriangleMesh
        The surface; its mass and stiffness are assembled here.
    eigen_selection : list of int
        Indices into the eigenvalue-ordered pairs (index 0 is the
        constant mode on a closed mesh).
    sigmas : list of float
        Score standard deviations, one per selected eigenfunction.
    n : int
        Subject count.
    noise_sigma : float
        Standard deviation of i.i.d. additive Gaussian noise; 0 gives
        exactly low-rank data.
    seed : int
        Scores are drawn before noise from one stream.
    """
    idx = [check_count(f"eigen_selection entry {j}", i, 0) for j, i in enumerate(eigen_selection)]
    sig = np.asarray(sigmas, dtype=np.float64)
    if not idx:
        raise InputError("eigen_selection is empty")
    if sig.shape != (len(idx),):
        raise DimensionMismatch(
            f"need one sigma per eigenfunction, got {sig.shape} for {len(idx)}"
        )
    _check_draw(n, noise_sigma, sig, seed)
    _warn_if_open(mesh)
    pairs = lb_eigenpairs(FemOperators(mesh, vertex_locations(mesh)), max(idx) + 1)
    fields = np.stack([pairs[i].coefficients for i in idx], axis=1)
    return _drawn(fields, sig, n, noise_sigma, seed, "eigen")


def _require_unit_sphere(mesh: TriangleMesh):
    radii = np.linalg.norm(mesh.vertices, axis=1)
    worst = float(np.abs(radii - 1.0).max())
    if worst > _SPHERE_RADIUS_TOL:
        raise NotASphere(
            f"vertex radius deviates from 1 by {worst:g} "
            f"(tolerance {_SPHERE_RADIUS_TOL:g})"
        )


def sphere_pc_functions(mesh: TriangleMesh):
    """Two orthonormal harmonics on the unit sphere, at the vertices.

    The first is proportional to xy, the second to xy(x^2 - y^2), both
    with unit surface L2 norm on the exact sphere (discretely they are
    orthonormal up to quadrature error of the triangulation).
    """
    _require_unit_sphere(mesh)
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    v1 = 0.5 * np.sqrt(15.0 / np.pi) * x * y
    v2 = 0.75 * np.sqrt(35.0 / np.pi) * x * y * (x**2 - y**2)
    return v1, v2


def generate_sphere_dataset(mesh: TriangleMesh, n: int, sigmas,
                            noise_sigma: float, seed: int) -> SyntheticDataset:
    """Rank-two data from the closed-form sphere harmonics."""
    sig = np.asarray(sigmas, dtype=np.float64)
    if sig.shape != (2,):
        raise DimensionMismatch(f"expected two sigmas, got {sig.shape}")
    _check_draw(n, noise_sigma, sig, seed)
    fields = np.stack(sphere_pc_functions(mesh), axis=1)
    return _drawn(fields, sig, n, noise_sigma, seed, "sphere")


def generate_misaligned_dataset(mesh: TriangleMesh, n: int, sigma: float,
                                shift_set=(0.0, 0.4),
                                seed: int = 0) -> SyntheticDataset:
    """Per-subject angularly shifted copies of the first sphere harmonic.

    Subject i observes v1(theta + theta_i, phi + phi_i) scaled by a
    Gaussian score, with both shifts drawn independently and uniformly
    from ``shift_set``. No observation noise is added: the misalignment
    itself is the perturbation of interest.

    theta is the polar angle from +z and phi the azimuth; the shifted
    angles are used as they are, since v1 depends on them only through
    sin(theta)^2 and cos(phi) sin(phi).
    """
    shift_values = np.asarray(shift_set, dtype=np.float64)
    if shift_values.ndim != 1 or shift_values.size < 1:
        raise InputError("shift_set must be a nonempty sequence")
    if not np.isfinite(shift_values).all():
        raise InputError("shift_set must be finite")
    _check_draw(n, 0.0, [sigma], seed)
    _require_unit_sphere(mesh)

    rng = np.random.default_rng(seed)
    scores = rng.standard_normal(n) * float(sigma)
    theta_shift = rng.choice(shift_values, size=n)
    phi_shift = rng.choice(shift_values, size=n)

    v = mesh.vertices
    radii = np.linalg.norm(v, axis=1)
    theta = np.arccos(np.clip(v[:, 2] / radii, -1.0, 1.0))
    phi = np.arctan2(v[:, 1], v[:, 0])

    th = theta[None, :] + theta_shift[:, None]
    ph = phi[None, :] + phi_shift[:, None]
    sin_th = np.sin(th)
    shifted = 0.5 * np.sqrt(15.0 / np.pi) * (sin_th * np.cos(ph)) * (
        sin_th * np.sin(ph)
    )
    values = scores[:, None] * shifted + 0.0  # no -0.0, as in _drawn

    base = sphere_pc_functions(mesh)[0]
    return SyntheticDataset(
        X=DataMatrix(values), true_components=base[:, None],
        true_scores=scores[:, None], noise_sigma=0.0, seed=int(seed),
        generator="misaligned",
    )
