"""Surface finite element operators and Laplace-Beltrami eigenpairs.

Linear Lagrange elements over a triangulated surface. All element
integrals are exact: the element mass matrix is (A/12)[[2,1,1],[1,2,1],
[1,1,2]] and the element stiffness is A times the pairwise dot products
of the constant nodal basis gradients, so there is no quadrature rule
to tune.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

from .errors import ConvergenceFailure, DimensionMismatch
from .mesh import Locations, TriangleMesh

_ELEMENT_MASS = np.array(
    [[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]
) / 12.0


@dataclass(eq=False)
class FemOperators:
    """Assembled operators for one mesh and one set of sampling locations.

    Attributes
    ----------
    psi : scipy.sparse.csr_matrix, shape (s, K)
        Nodal basis functions evaluated at the sampling locations; each
        row holds the barycentric weights of one location (at most three
        nonzeros, nonnegative, summing to 1).
    mass : scipy.sparse.csr_matrix, shape (K, K)
        Integrals of products of basis functions (symmetric positive
        definite); discretizes the surface L2 inner product.
    stiffness : scipy.sparse.csr_matrix, shape (K, K)
        Integrals of gradients dotted pairwise (symmetric positive
        semidefinite); annihilates constant fields.
    mesh : TriangleMesh
    """

    psi: sparse.csr_matrix
    mass: sparse.csr_matrix
    stiffness: sparse.csr_matrix
    mesh: TriangleMesh

    @property
    def vertex_count(self) -> int:
        return self.mass.shape[0]

    @property
    def location_count(self) -> int:
        return self.psi.shape[0]


@dataclass(frozen=True, eq=False)
class EigenPair:
    """One generalized eigenpair stiffness*v = eigenvalue*mass*v.

    Coefficients are normalized to unit L2 norm on the surface
    (v' mass v = 1) with the largest-magnitude entry positive.
    """

    eigenvalue: float
    coefficients: np.ndarray


def assemble(mesh: TriangleMesh, locations: Locations) -> FemOperators:
    """Assemble psi, mass, and stiffness for a mesh and sampling locations.

    Parameters
    ----------
    mesh : TriangleMesh
    locations : Locations
        Sampling points; rows of psi follow their order.

    Returns
    -------
    FemOperators
    """
    K = mesh.K
    tri = mesh.triangles
    areas = mesh.areas
    grads = mesh.gradients

    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    mass_data = (areas[:, None, None] * _ELEMENT_MASS).ravel()
    mass = sparse.coo_matrix((mass_data, (rows, cols)), shape=(K, K)).tocsr()
    stiff_data = (
        areas[:, None, None] * np.einsum("tid,tjd->tij", grads, grads)
    ).ravel()
    stiffness = sparse.coo_matrix((stiff_data, (rows, cols)), shape=(K, K)).tocsr()

    return FemOperators(
        psi=location_matrix(mesh, locations), mass=mass, stiffness=stiffness,
        mesh=mesh,
    )


def location_matrix(mesh: TriangleMesh, locations: Locations) -> sparse.csr_matrix:
    """Sparse (s, K) matrix of the barycentric weights that evaluate
    vertex coefficients at ``locations``."""
    if not isinstance(locations, Locations):
        raise DimensionMismatch(
            f"locations must be a Locations, got {type(locations).__name__}")
    t = locations.triangles
    outside = np.flatnonzero((t < 0) | (t >= mesh.T))
    if outside.size:
        j = int(outside[0])
        raise DimensionMismatch(
            f"location {j} references triangle {t[j]} of a {mesh.T}-triangle mesh")
    weights = locations.weights
    rows, corners = np.nonzero(weights > 0.0)
    vertices = mesh.triangles[t[rows].astype(np.intp), corners]
    mat = sparse.csr_matrix(
        (weights[rows, corners], (rows, vertices)), shape=(len(locations), mesh.K)
    )
    mat.sum_duplicates()
    return mat


def _fix_sign(v):
    """Flip ``v`` so its largest-magnitude entry is positive."""
    idx = int(np.argmax(np.abs(v)))
    if v[idx] < 0:
        return -v, True
    return v, False


def l2_inner(ops: FemOperators, a, b) -> float:
    """Discrete surface L2 inner product a' mass b of two coefficient vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    K = ops.vertex_count
    if a.shape != (K,) or b.shape != (K,):
        raise DimensionMismatch(
            f"expected two vectors of length {K}, got {a.shape} and {b.shape}"
        )
    return float(a @ (ops.mass @ b))


def lb_eigenpairs(ops: FemOperators, count: int):
    """Smallest generalized eigenpairs of the stiffness/mass pencil.

    Solves stiffness*v = kappa*mass*v by shift-invert around a small
    negative shift (the pencil is singular at zero for closed meshes:
    constants are in the stiffness kernel). Pairs come back in
    nondecreasing eigenvalue order, mass-orthonormal, tiny negative
    eigenvalues clamped to zero.

    Parameters
    ----------
    ops : FemOperators
    count : int
        Number of pairs; must be at least 1 and below the vertex count.

    Raises
    ------
    ConvergenceFailure
        If the iterative eigensolver does not converge.
    """
    K = ops.vertex_count
    if count < 1:
        raise DimensionMismatch("count must be at least 1")
    if count >= K:
        raise DimensionMismatch(f"count must be below the vertex count {K}")
    # A deterministic non-constant start vector: the constant vector is
    # an exact eigenvector and would stall the iteration. A few extra
    # pairs are computed and trimmed: symmetric surfaces carry exactly
    # degenerate clusters, and the Lanczos iteration can skip a cluster
    # member when the subspace is sized to the request.
    v0 = np.random.default_rng(0).standard_normal(K)
    extra = min(count + max(5, count // 2), K - 1)
    import scipy.sparse.linalg as splinalg  # ARPACK; loaded on first use

    try:
        values, vectors = splinalg.eigsh(
            ops.stiffness,
            k=extra,
            M=ops.mass,
            sigma=-0.01,
            which="LM",
            v0=v0,
            tol=1e-9,
        )
    except splinalg.ArpackNoConvergence as exc:
        raise ConvergenceFailure(
            f"eigensolver converged only {len(exc.eigenvalues)} of {count} pairs"
        ) from exc
    order = np.argsort(values)[:count]
    pairs = []
    for idx in order:
        vec = vectors[:, idx].copy()
        vec /= np.sqrt(vec @ (ops.mass @ vec))
        vec, _ = _fix_sign(vec)
        vec.flags.writeable = False
        pairs.append(EigenPair(eigenvalue=float(max(values[idx], 0.0)), coefficients=vec))
    return pairs
