"""Sparse factorization of the smoothing system.

The smoothing subproblem couples the coefficient vector f with an
auxiliary field g through the indefinite block system

    [[ UL,        lam * R1 ],  [f]   [b]
     [ lam * R1, -lam * R0 ]]  [g] = [0]

where UL is the data term (psi' psi for dense data, the per-function
weighted Gram matrix for partially observed data), R0 the mass matrix
and R1 the stiffness matrix. Its sparse form is preferred over the
dense normal-equation rearrangement, whose inverse mass factor destroys
sparsity.

What is solved is the same system in the unknowns (f, h = sqrt(lam) g),
the 2K x 2K saddle system

    [[ UL,              sqrt(lam) * R1 ],
     [ sqrt(lam) * R1, -R0             ]]

It is factored in one of two forms, chosen from the data block. When
UL = diag(w) with every w_j > 0 and none below a fixed share of the
largest, f = W^-1 (r1 - sqrt(lam) R1 h) is eliminated and the K x K
Schur complement S = R0 + lam R1 W^-1 R1, symmetric positive definite,
is factored by LAPACK's banded Cholesky (dpbtrf). Such blocks are
psi' psi for full data at the vertices, c I, and the weighted Gram
matrix of masked data at the vertices once weighted functions observe
every vertex. S is formed as R0 + lam R1 P R1 with P = W^-1, which is
exactly I for full data at the vertices. S couples second-ring
neighbours: its pattern lies in that of |R0| + |R1| |R1|,
whatever lam, fold, component or weights. One Cuthill-McKee order of
that pattern (Cuthill & McKee 1969; George & Liu, Computer Solution of
Large Sparse Positive Definite Systems, 1981), taken per mesh component
from a pseudo-peripheral vertex, therefore serves every Schur complement
on an operator set. It is computed once for the set, with a layout that
writes S straight into LAPACK's band storage: the band slot of each
entry of R0 and, for each vertex v, the products R1[a, v] R1[v, b] at
the slots of the entries (a, b) that v couples. A factorization then
forms its band with one sparse matrix-vector product, those products
against P's diagonal, then a scaling and an add of R0: no sparse matrix
product and no sort. Each entry's terms are summed over ascending v, as
the sparse product R1 R1 sums them, so W = I gives the band of
R0 + lam R1 R1 to the bit; any other P rounds each term as
(R1[a, v] R1[v, b]) p_v, not (R1[a, v] p_v) R1[v, b]. On icospheres of
levels 3 to 6 the order leaves a band of half-width 83, 163, 323 and
643, whose (width + 1) K entries hold every fill-in of the factor. The
band keeps the zeros inside it, so it outgrows the sparse LU of a
minimum-degree order as the mesh grows (25 against 34 MiB at level 5,
201 against 183 MiB at level 6), but a factorization, band included,
takes 0.58, 4.7 and 47 ms at levels 3, 4 and 5, against 4.4 to 6.6, 34
to 39 and 230 to 360 ms for SuperLU's LU of S in a minimum-degree order
(forming S as a sparse product and sorting it into the band, the band
factorization took 1.75, 7.4 and 56 ms; one core, BLAS on one thread);
a solve through it takes 13 to 21% longer at levels 5 and 6.

Every other block keeps the saddle form: psi' psi at a few vertices or
at points inside triangles, and diagonal blocks with a zero or a
relatively tiny entry (a weighted Gram matrix at a vertex that no
weighted function observes), through which f cannot be eliminated
accurately. The saddle system is symmetric quasi-definite in the sense
of Vanderbei (SIAM J. Optim. 1995) once the data block is positive on
the constant field of each mesh component, so it is factored
symmetrically with diagonal pivots,
in an elimination order chosen once per operator set: a minimum-degree
order of the mesh graph (the pattern of mass + stiffness), expanded to
pairs with each vertex's g unknown before its f unknown. Every data
block lies inside that pattern (psi' psi and the weighted Gram matrices
only couple vertices of one triangle), so the order fits every lambda,
fold and component. The pairing makes the pivots safe, whatever the
vertex order: eliminating any leading set of pairs, plus possibly one
more g, first removes the g values through the negative definite -R0
block and leaves UL + lam R1 R0^-1 R1, restricted to those vertices, on
the f values among them. That matrix splits over the mesh's connected
components, since no block couples two of them. Where the set holds a
proper subset of a component's vertices, the stiffness term alone is
positive definite there; where it holds a whole component, UL closes
that component's constant kernel (checked before factoring). So no
pivot is zero in exact arithmetic.

When only the data block changes between solves, as it does across the
alternations of a missing-data fit, a stored factorization serves as the
preconditioner of iterative refinement on the new system instead of
being recomputed. Either form applies the exact inverse of the saddle
system, so either can precondition any new block. The two systems
differ only in the data block, by E, so refinement iterates on f alone:
each step solves the stored system for (b - E f, 0), after which the
new system's residual is (E (f_prev - f), 0). A diagonal block
UL = diag(w) may be passed as the K-vector w, as a missing-data fit at
the vertices passes it; the system keeps it so, and when the stored and
the new block are both vectors, E is the vector w_new - w_old and E f
an elementwise product: no sparse matrix is subtracted or multiplied.
Only the saddle form, and `SaddleSystem.matrix`, assemble diag(w) as a
sparse matrix, keeping its zero entries stored, as they are in a
weighted Gram matrix that a fold's functions leave empty at a vertex.
"""

import functools
import threading
import weakref

import numpy as np

from .errors import DimensionMismatch, InputError, SingularSystem
from .fem import FemOperators

# Iterative refinement against a stale factorization stops once the
# residual is this small relative to the right-hand side, or gives up
# after this many solves.
_REFINE_TOLERANCE = 1e-13
_REFINE_STEPS = 12

# A diagonal data block is factored as its K x K Schur complement only
# when its smallest entry is at least this share of its largest: the
# eliminated solve loses accuracy as the share falls. Worst relative
# residual of the saddle system through the banded factor (diag(w), w
# spread over [share, 1]; 3 draws x 3 right-hand sides) over the default
# grid at levels 3 / 4, and at lam = 1, seven times the level-3 grid's
# top, on level 3:
#   share 1 (c I)   8.5e-16 / 5.2e-16   2.9e-15
#   share 0.1       2.7e-15 / 1.7e-15   1.2e-14
#   share 0.01      8.2e-15 / 6.2e-15   3.0e-14
#   share 1e-3      8.2e-14 / 2.7e-14   2.5e-13
# At 0.1 the residual stays within 4x of the c I block's and, on the
# grids, over 30x below _REFINE_TOLERANCE. On the masked-data
# benchmark's inputs (seeds 1-10, 1320 factorizations) the smallest
# share was 0.28.
_SCHUR_SHARE = 0.1


class SaddleSystem:
    """A factored saddle-point system for one smoothing parameter.

    The constructor performs the factorization, for reuse across solves.
    ``matrix`` is the 2K x 2K saddle system in the unknowns
    (f, sqrt(lam) g), in its natural order: what every solve inverts,
    not necessarily what is factored: a positive diagonal data block W
    is factored as its K x K Schur complement R0 + lam R1 W^-1 R1, by
    banded Cholesky in the operator set's Cuthill-McKee order, and any
    other block as the saddle system, by sparse LU in its pair order
    (see the module docstring).
    Instances are immutable; `solve` and `solve_with_block` are
    reentrant and safe to call from several threads on one instance.

    Parameters
    ----------
    ops : FemOperators
    upper_left : sparse matrix, shape (K, K), or ndarray, shape (K,)
        Symmetric positive semidefinite data block; a 1-d array w
        stands for diag(w) and is kept and refined as that vector.
    lam : float
        Positive smoothing parameter.

    Raises
    ------
    SingularSystem
        Factorization breakdown, or a Schur complement that is not
        numerically positive definite; typically a rank-deficient data
        block paired with a penalty that does not close the kernel.
    """

    def __init__(self, ops: FemOperators, upper_left, lam: float):
        import scipy.sparse as sparse

        lam = float(lam)
        if not 0 < lam < np.inf:
            raise InputError(
                f"smoothing parameter must be positive and finite, got {lam:g}"
            )
        self._labels = ops.mesh.component_labels
        upper_left = _checked_block(upper_left, self._labels)
        self.lam = lam
        self.k = ops.vertex_count
        self._upper_left = upper_left
        self._root = np.sqrt(lam)
        # shares R1's index arrays: a system stores only its own values
        self._coupling = sparse.csr_matrix(
            (self._root * ops.stiffness.data, ops.stiffness.indices,
             ops.stiffness.indptr), shape=ops.stiffness.shape)
        self._mass = ops.mass
        self._p = self._lu = self._band = self._pbtrs = None
        weights = _schur_weights(upper_left)
        if weights is None:
            import scipy.sparse.linalg as splinalg  # SuperLU; loaded on first use

            self._order = _elimination_order(ops)
            try:
                self._lu = splinalg.splu(
                    self.matrix[self._order][:, self._order], permc_spec="NATURAL",
                    diag_pivot_thresh=0.0, options=dict(SymmetricMode=True),
                )
            except RuntimeError as exc:
                raise SingularSystem(
                    f"saddle-point factorization failed: {exc}") from exc
        else:
            import scipy.linalg as linalg  # loaded with the inputs by fit

            self._p = 1.0 / weights
            layout = _band_layout(ops)
            self._order = layout.order
            try:
                self._band = linalg.cholesky_banded(
                    layout.schur(self._p, lam), overwrite_ab=True,
                    lower=True, check_finite=False)
            except linalg.LinAlgError as exc:
                raise SingularSystem(
                    f"Schur complement factorization failed: {exc}") from exc
            # LAPACK's banded solve, called without cho_solve_banded's checks
            self._pbtrs, = linalg.get_lapack_funcs(("pbtrs",), (self._band,))

    @property
    def matrix(self):
        """The 2K x 2K saddle system, assembled anew on each read."""
        import scipy.sparse as sparse

        return sparse.bmat([[_as_sparse(self._upper_left), self._coupling],
                            [self._coupling, -self._mass]], format="csc")

    def solve(self, rhs_top):
        """Solve for one top-block right-hand side; bottom block is zero.

        Returns the pair (f, g) of coefficient vectors.
        """
        f, h = self._solve(self._checked_rhs(rhs_top))
        return f, h / self._root

    def solve_with_block(self, upper_left, rhs_top, start):
        """Solve the system with ``upper_left`` as its new data block,
        reusing this factorization as a preconditioner.

        Iterative refinement from f = ``start``, of shape (K,): with E
        the change of the data block, each step sets f to the f of this
        factorization's solve of (rhs_top - E f, 0), and stops once the
        new system's residual, (E (f_prev - f), 0), drops to
        ``_REFINE_TOLERANCE`` of the right-hand side. Returns (f, g), or
        None when the new block is too far from the factored one to
        converge within ``_REFINE_STEPS`` solves; the caller then
        factors anew.

        Raises
        ------
        DimensionMismatch
            ``rhs_top`` or ``start`` is not of shape (K,).
        SingularSystem
            The new block vanishes on the constant field of a mesh
            component, as in the constructor.
        """
        new, old = _checked_block(upper_left, self._labels), self._upper_left
        if new.ndim == old.ndim == 1:  # diag(w_new) - diag(w_old), elementwise
            change = functools.partial(np.multiply, new - old)
        else:
            change = (_as_sparse(new) - _as_sparse(old)).dot
        rhs = self._checked_rhs(rhs_top)
        shift = change(self._checked_rhs(start, "start"))
        limit = _REFINE_TOLERANCE * float(np.linalg.norm(rhs))
        for _ in range(_REFINE_STEPS):
            f, h = self._solve(rhs - shift)
            shift, previous = change(f), shift
            if float(np.linalg.norm(previous - shift)) <= limit:
                return f, h / self._root
        return None

    def solve_many(self, rhs_top):
        """Solve for a (K, m) block of right-hand sides at once.

        Returns (F, G), each of shape (K, m).
        """
        f, h = self._solve(self._checked_rhs(rhs_top, ndim=2))
        return f, h / self._root

    def _checked_rhs(self, rhs_top, what="right-hand side", ndim=1):
        """``rhs_top`` as floats, checked to have shape (K,), or (K, m)
        when ``ndim`` is 2."""
        rhs_top = np.asarray(rhs_top, dtype=np.float64)
        if rhs_top.ndim != ndim or rhs_top.shape[0] != self.k:
            expected = f"({self.k},)" if ndim == 1 else f"({self.k}, m)"
            raise DimensionMismatch(
                f"{what} must have shape {expected}, got {rhs_top.shape}"
            )
        return rhs_top

    def _solve(self, top):
        """(f, sqrt(lam) g) solving ``matrix`` for the top block ``top``
        over a zero bottom block: through the reordered saddle factors,
        or through the banded Cholesky factor of the Schur complement
        S = R0 + lam R1 W^-1 R1 of the diagonal block W:
        S h = sqrt(lam) R1 W^-1 top, then f = W^-1 (top - sqrt(lam) R1 h)."""
        if self._p is None:
            rhs = np.zeros((2 * self.k,) + top.shape[1:])
            rhs[: self.k] = top
            x = np.empty_like(rhs)
            x[self._order] = self._lu.solve(rhs[self._order])
            return x[: self.k], x[self.k :]
        p = self._p if top.ndim == 1 else self._p[:, None]
        h = np.empty_like(top)
        # info is nonzero only for malformed arguments, which these are not
        h[self._order], _ = self._pbtrs(
            self._band, (self._coupling @ (p * top))[self._order],
            lower=True, overwrite_b=True)
        return p * (top - self._coupling @ h), h


def _checked_block(upper_left, labels):
    """``upper_left`` as a float K-vector w, standing for diag(w), when
    it is 1-d, else as a CSR matrix; checked to close the constant field
    of every mesh component (``labels``)."""
    import scipy.sparse as sparse

    k = len(labels)
    if not sparse.issparse(upper_left):
        upper_left = np.asarray(upper_left, dtype=np.float64)
    if upper_left.ndim != 1 and not (sparse.issparse(upper_left)
                                     and upper_left.format == "csr"):
        upper_left = sparse.csr_matrix(upper_left)
    if upper_left.shape != ((k,) if upper_left.ndim == 1 else (k, k)):
        raise DimensionMismatch(
            f"upper-left block must be {k}x{k}, got {upper_left.shape}"
        )
    # The block matrix is singular exactly when the data block
    # vanishes on the penalty null space: the fields constant on each
    # connected component of the mesh (``labels``), so test each such
    # field directly. The factorization itself would otherwise slip
    # through on a tiny pivot and return garbage. A data block couples
    # only vertices of one triangle, so a component's energy is the sum
    # of (UL 1) over its vertices.
    if upper_left.ndim == 1:
        energies = traces = np.bincount(labels, upper_left)
    else:
        energies = np.bincount(labels, upper_left @ np.ones(k))
        traces = np.bincount(labels, upper_left.diagonal())
    closed = (traces > 0.0) & (energies > 1e-12 * traces)
    if not closed.all():
        raise SingularSystem(
            f"data block vanishes on constant fields of mesh component "
            f"{int(np.argmin(closed)) + 1} of {len(closed)}; the penalty "
            "cannot close the kernel"
        )
    return upper_left


def _schur_weights(upper_left):
    """The diagonal w of the block ``upper_left`` (a K-vector, or a CSR
    matrix) when it is diagonal with every entry positive and at least
    `_SCHUR_SHARE` of the largest, else None."""
    weights = upper_left if upper_left.ndim == 1 else upper_left.diagonal()
    if (weights.min() > 0
            and weights.min() >= _SCHUR_SHARE * weights.max()
            and (upper_left.ndim == 1
                 or upper_left.count_nonzero() == len(weights))):
        return weights
    return None


def _as_sparse(upper_left):
    """The block ``upper_left`` as a CSR matrix: a K-vector w becomes
    diag(w), its zeros kept as stored entries."""
    if upper_left.ndim == 2:
        return upper_left
    import scipy.sparse as sparse

    k = upper_left.size
    return sparse.csr_matrix((upper_left, np.arange(k), np.arange(k + 1)),
                             shape=(k, k))


# One saddle order and one band layout per operator set, shared by every
# system built on it (from any thread); entries go away with their
# operators. Each order depends only on the operators' sparsity pattern,
# and any g-before-f saddle order or any vertex order of the Schur
# complement is exact, so a cached one never changes correctness; the
# layout also holds the operators' values, which stay fixed once
# assembled.
_ORDERS = weakref.WeakKeyDictionary()
_LAYOUTS = weakref.WeakKeyDictionary()
_ORDERS_LOCK = threading.Lock()


def _cached(cache, ops, build):
    """``build(ops)``, computed on first use and kept in ``cache``."""
    with _ORDERS_LOCK:
        value = cache.get(ops)
        if value is None:
            value = cache[ops] = build(ops)
    return value


def _elimination_order(ops):
    """The 2K elimination order for saddle systems on ``ops``: the
    vertices in `_mesh_order`, each contributing its g unknown (K + v),
    then its f unknown (v)."""
    return _cached(_ORDERS, ops, _paired_order)


def _paired_order(ops):
    K = ops.vertex_count
    vertices = _mesh_order(ops)
    order = np.empty(2 * K, dtype=np.intp)
    order[0::2] = K + vertices
    order[1::2] = vertices
    return order


def _mesh_order(ops):
    """A minimum-degree order of the mesh graph, the pattern of mass +
    stiffness, as the vertex eliminated first, second, ...

    SuperLU computes the order when it factors a matrix of that pattern;
    the diagonally dominant values keep its factorization trivial.
    """
    import scipy.sparse as sparse
    import scipy.sparse.linalg as splinalg

    graph = (abs(ops.mass) + abs(ops.stiffness)).tocsc()
    graph.data[:] = 1.0
    graph = (graph + sparse.diags(np.diff(graph.indptr).astype(np.float64))).tocsc()
    lu = splinalg.splu(graph, permc_spec="MMD_AT_PLUS_A",
                       options=dict(SymmetricMode=True))
    # perm_c maps a column to its position in the order
    return np.argsort(lu.perm_c)


def _band_layout(ops):
    """The `_BandLayout` of the Schur complements on ``ops``."""
    return _cached(_LAYOUTS, ops, _BandLayout)


class _BandLayout:
    """Where the entries of every Schur complement R0 + s R1 P R1 on one
    operator set go in LAPACK's lower band storage, in the vertex order
    ``order``: entry (i, j), i >= j, of the reordered matrix at
    [i - j, j] of a (width + 1, K) array, which is the flat Fortran-order
    slot i + width j.

    ``triples`` maps P to R1 P R1 on those slots: its column v holds
    R1[a, v] R1[v, b] at the slot of each entry (a, b) that v couples,
    so ``triples @ p`` sums the terms of every entry over ascending v,
    as a sparse product R1 P R1 does. ``mass_slots`` and
    ``mass_values`` place R0's lower-triangle entries. Both factors of a
    term are read from row v of R1, which is symmetric as assembled.
    """

    def __init__(self, ops):
        import scipy.sparse as sparse

        K = ops.vertex_count
        stiffness = abs(ops.stiffness)
        self.order = _cuthill_mckee((abs(ops.mass) + stiffness @ stiffness).tocsr(),
                                    ops.mesh.component_labels)
        del stiffness
        position = np.empty(K, dtype=np.int32)
        position[self.order] = np.arange(K, dtype=np.int32)
        # R1's rows with their entries ascending in band position: the
        # lower-triangle entries that vertex v couples pair an entry of
        # row v with each entry of row v up to itself
        rows = sparse.csr_matrix(
            (ops.stiffness.data.copy(), position[ops.stiffness.indices],
             ops.stiffness.indptr), shape=(K, K))
        rows.sort_indices()
        indptr, column, value = rows.indptr, rows.indices, rows.data
        counts = np.diff(indptr)
        mass = ops.mass.tocoo()
        i, j = position[mass.row], position[mass.col]
        kept = i >= j
        filled = counts > 0
        self.width = int(max((column[indptr[1:][filled] - 1]
                              - column[indptr[:-1][filled]]).max(),
                             (i - j)[kept].max()))
        index = (np.int32 if (self.width + 1) * K <= np.iinfo(np.int32).max
                 else np.int64)
        self.mass_slots = _slots(i[kept], j[kept], self.width, index)
        self.mass_values = mass.data[kept]
        # an entry of rank r in its row pairs with the row's first r + 1
        # entries, listed entry by entry in ``lower``
        starts = np.repeat(indptr[:-1], counts)
        pairs = np.arange(1, column.size + 1) - starts
        ends = np.cumsum(pairs)
        lower = np.arange(ends[-1]) + np.repeat(starts + pairs - ends, pairs)
        del starts, ends
        products = np.repeat(value, pairs)
        products *= value[lower]
        self.triples = sparse.csc_matrix(
            (products, _slots(np.repeat(column, pairs), column[lower], self.width,
                              index),
             np.r_[0, np.cumsum(counts * (counts + 1) // 2)]),
            shape=((self.width + 1) * K, K))

    def schur(self, p, scale):
        """R0 + scale R1 diag(p) R1 in the band storage: a new
        Fortran-ordered (width + 1, K) array."""
        band = self.triples @ p
        band *= scale
        band[self.mass_slots] += self.mass_values
        return band.reshape((self.width + 1, -1), order="F")


def _slots(i, j, width, index):
    """The flat slots i + width j of band entries (i, j), as ``index``
    integers."""
    slots = j.astype(index)
    slots *= width
    slots += i
    return slots


def _cuthill_mckee(graph, labels):
    """A Cuthill-McKee order (the vertex placed first, second, ...) of
    the symmetric CSR ``graph``, here the two-ring graph |R0| + |R1| |R1|,
    which holds the pattern of every Schur complement R0 + s R1 P R1;
    ``labels`` holds the mesh component of each vertex.

    The mesh components follow one another, each ordered from a
    pseudo-peripheral vertex found by two breadth-first sweeps: one from
    the component's lowest vertex, then one from the least-degree vertex
    of its last level; the order starts at the least-degree vertex of
    the second sweep's last level.
    """
    degree = np.diff(graph.indptr)
    starts = np.unique(labels, return_index=True)[1]
    for _ in range(2):
        depth = _depths(graph, starts)
        # per component: deepest first, then least degree, then lowest index
        far = np.lexsort((degree, -depth, labels))
        starts = far[np.r_[True, labels[far[1:]] != labels[far[:-1]]]]
    order = _level_sets(graph, starts)
    return order[np.argsort(labels[order], kind="stable")]


def _neighbours(graph, level):
    """The neighbours in the CSR ``graph`` of each vertex of ``level`` in
    turn, and how many each vertex has."""
    indptr = graph.indptr
    counts = indptr[level + 1] - indptr[level]
    slots = (np.repeat(indptr[level] - (np.cumsum(counts) - counts), counts)
             + np.arange(counts.sum()))
    return graph.indices[slots], counts


def _depths(graph, starts):
    """Each vertex's breadth-first distance in the symmetric CSR
    ``graph`` from ``starts``, one vertex per component."""
    depth = np.full(graph.shape[0], -1)
    depth[starts] = 0
    level, d = starts, 0
    while level.size:
        d += 1
        found, _ = _neighbours(graph, level)
        depth[found[depth[found] < 0]] = d
        level = np.flatnonzero(depth == d)
    return depth


def _level_sets(graph, starts):
    """Breadth-first search of the symmetric CSR ``graph`` from
    ``starts``, one vertex per component in component order: the
    vertices level by level, each level in Cuthill-McKee order (after
    the first-placed neighbour in the level before, then by ascending
    degree, then by index)."""
    degree = np.diff(graph.indptr)
    rank = np.full(len(degree), -1)  # place in the sequence, -1 until placed
    level, placed, levels = starts, 0, []
    while level.size:
        rank[level] = placed + np.arange(level.size)
        placed += level.size
        levels.append(level)
        found, counts = _neighbours(graph, level)
        parent = np.repeat(rank[level], counts)
        fresh = rank[found] < 0
        found, parent = found[fresh], parent[fresh]
        found = found[np.lexsort((found, degree[found], parent))]
        level = found[np.sort(np.unique(found, return_index=True)[1])]
    return np.concatenate(levels)
