"""Triangulated surfaces: loading, validation, and generation.

A surface is a collection of vertices in 3-space together with oriented
triangles. Construction validates the combinatorics (index ranges,
edge-manifoldness, consistent orientation) and the geometry (no
degenerate triangles) and computes every derived array. Meshes are
immutable once built: the constructor sets all their state, and the
properties only read it, so concurrent reads are safe.
"""

import operator
import os
import warnings

import numpy as np

from .errors import (
    DegenerateTriangle,
    DimensionMismatch,
    InputError,
    ParseError,
    ResourceLimit,
    TopologyError,
    check_count,
)

# Tolerance for barycentric containment; tiny negatives are clamped.
BARY_EPSILON = 1e-9

# Hard cap on generated sphere vertices (subdivision 8 stays below it).
SPHERE_VERTEX_CAP = 1_000_000


class Locations:
    """Points on the surface in array form: ``triangles``, shape (s,),
    holds each point's triangle index and ``weights``, shape (s, 3), its
    barycentric weights over that triangle's vertices.

    Construction keeps read-only checked copies. An index must be an
    integer as `operator.index` takes one (2.0 is refused, not
    truncated, and so is a bool); one beyond int64 stays exact in an
    object array. Weights in [-BARY_EPSILON, 0) become 0 and each row is
    renormalized to sum to 1 (summed in numpy's order, w0 + w1 + w2);
    larger violations and non-finite weights raise :class:`InputError`
    naming the first bad row.
    """

    def __init__(self, triangles, weights):
        t = np.array(triangles)
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 2 or w.shape[1] != 3:
            raise DimensionMismatch("barycentric coordinates must be a 3-vector")
        if t.shape != w.shape[:1]:
            raise DimensionMismatch(f"{t.size} triangle indices for {len(w)} weight rows")
        integral = np.ones(len(t), dtype=bool)
        if t.dtype.kind not in "iu" or not isinstance(triangles, np.ndarray):
            # what operator.index takes, bools aside: numpy reads [0, True] as [0, 1]
            items = t.tolist() if t.dtype.kind not in "iu" else list(triangles)
            integral = np.array([hasattr(type(x), "__index__")
                                 and not isinstance(x, (bool, np.bool_)) for x in items], bool)
            if integral.all():
                # an empty list would make a float array
                t = np.array([operator.index(x) for x in items] or np.empty(0, np.intp))
        # written so that NaN fails both weight checks
        negative = ~(w >= -BARY_EPSILON).all(axis=1)
        with np.errstate(invalid="ignore"):  # inf - inf is reported below
            total = w[:, 0] + w[:, 1] + w[:, 2]
        bad = ~integral | negative | ~(np.abs(total - 1.0) <= BARY_EPSILON)
        if bad.any():
            j = int(np.argmax(bad))
            if not integral[j]:
                raise InputError(
                    f"location {j}: triangle index must be an integer, found {items[j]!r}")
            if negative[j]:
                raise InputError(f"location {j}: negative barycentric weight {w[j].min():g}")
            raise InputError(
                f"location {j}: barycentric weights sum to {total[j]:g}, expected 1")
        w = np.maximum(w, 0.0)
        w /= (w[:, 0] + w[:, 1] + w[:, 2])[:, None]
        t.flags.writeable = w.flags.writeable = False
        self.triangles, self.weights = t, w

    def __len__(self):
        return len(self.triangles)


class TriangleMesh:
    """An oriented, edge-manifold triangulated surface embedded in 3-space.

    Parameters
    ----------
    vertices : array_like, shape (K, 3)
        Ambient coordinates.
    triangles : array_like, shape (T, 3)
        Ordered vertex-index triples; ordering fixes the orientation.

    Raises
    ------
    TopologyError
        Out-of-range or repeated indices, a non-manifold edge, or
        inconsistent orientation. The offending element index is
        attached when known.
    DegenerateTriangle
        A triangle with area at or below the degeneracy threshold
        (1e-12 times the squared bounding-box diagonal).

    Notes
    -----
    Open meshes (boundary edges present) are accepted; `closed` is then
    False and downstream smoothing implicitly imposes natural boundary
    conditions. So are disconnected ones: `component_labels` numbers
    each vertex's connected component (through edges) from 0 to
    `component_count` - 1. Instances are immutable: the constructor sets
    every attribute and makes its arrays read-only, and the properties
    (`K`, `T`) only read them, so concurrent reads are safe.
    """

    def __init__(self, vertices, triangles):
        v = np.ascontiguousarray(vertices, dtype=np.float64)
        t = np.ascontiguousarray(triangles, dtype=np.int64)
        if v.ndim != 2 or v.shape[1] != 3:
            raise DimensionMismatch("vertices must have shape (K, 3)")
        if t.ndim != 2 or t.shape[1] != 3:
            raise DimensionMismatch("triangles must have shape (T, 3)")
        if not np.isfinite(v).all():
            raise InputError("non-finite vertex coordinate")
        self.vertices = v
        self.triangles = t
        if t.size:
            bad = np.flatnonzero((t < 0).any(axis=1) | (t >= len(v)).any(axis=1))
            if bad.size:
                raise TopologyError("vertex index out of range", element_index=int(bad[0]))
            rep = np.flatnonzero(
                (t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2]) | (t[:, 2] == t[:, 0])
            )
            if rep.size:
                raise TopologyError("repeated vertex in triangle", element_index=int(rep[0]))

        bbox = v.max(axis=0) - v.min(axis=0) if len(v) else np.zeros(3)
        diag2 = float(bbox @ bbox)
        # Scale-relative degeneracy threshold in squared length units.
        self.area_epsilon = 1e-12 * diag2

        # areas: shape (T,). gradients: shape (T, 3, 3); row i of triangle
        # t is the ambient-space gradient of the basis function of its
        # local vertex i, constant over the triangle; the rows sum to zero
        # and are orthogonal to the triangle normal.
        self.areas, self.gradients = self._compute_geometry()
        self._edge_census()

        referenced = np.unique(t)
        if referenced.size < len(v):
            warnings.warn(
                "mesh has vertices not referenced by any triangle; "
                "finite element operators built on it will be singular",
                stacklevel=2,
            )

        for a in (self.vertices, self.triangles, self.areas, self.gradients,
                  self.component_labels):
            a.flags.writeable = False

    # -- basic shape --------------------------------------------------

    @property
    def K(self) -> int:
        """Vertex count."""
        return self.vertices.shape[0]

    @property
    def T(self) -> int:
        """Triangle count."""
        return self.triangles.shape[0]

    def total_area(self) -> float:
        return float(self.areas.sum())

    # -- construction helpers -----------------------------------------

    def _compute_geometry(self):
        v, t = self.vertices, self.triangles
        p0 = v[t[:, 0]]
        p1 = v[t[:, 1]]
        p2 = v[t[:, 2]]
        n = np.cross(p1 - p0, p2 - p0)
        two_a = np.linalg.norm(n, axis=1)
        areas = 0.5 * two_a
        bad = np.flatnonzero(areas <= self.area_epsilon)
        if bad.size:
            raise DegenerateTriangle(
                f"triangle area {areas[bad[0]]:g} at or below threshold "
                f"{self.area_epsilon:g}",
                element_index=int(bad[0]),
            )
        unit_n = n / two_a[:, None]
        grads = np.empty((self.T, 3, 3))
        # Gradient of barycentric coordinate i: rotate the opposite edge
        # into the triangle plane and divide by twice the area.
        grads[:, 0] = np.cross(unit_n, p2 - p1) / two_a[:, None]
        grads[:, 1] = np.cross(unit_n, p0 - p2) / two_a[:, None]
        grads[:, 2] = np.cross(unit_n, p1 - p0) / two_a[:, None]
        return areas, grads

    def _edge_census(self):
        t = self.triangles
        K = max(self.K, 1)
        half = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]], axis=0)
        owner = np.tile(np.arange(self.T), 3)
        lo = np.minimum(half[:, 0], half[:, 1])
        hi = np.maximum(half[:, 0], half[:, 1])
        und = lo * np.int64(K) + hi
        uniq, counts = np.unique(und, return_counts=True)
        if counts.size and counts.max() > 2:
            key = uniq[np.argmax(counts)]
            culprit = owner[np.flatnonzero(und == key)[-1]]
            raise TopologyError(
                "edge shared by more than two triangles", element_index=int(culprit)
            )
        directed = half[:, 0] * np.int64(K) + half[:, 1]
        order = np.argsort(directed, kind="stable")
        srt = directed[order]
        dup = np.flatnonzero(srt[1:] == srt[:-1]) if srt.size else np.array([], int)
        if dup.size:
            culprit = owner[order[dup[0] + 1]]
            raise TopologyError(
                "inconsistent orientation: edge traversed twice in the "
                "same direction",
                element_index=int(culprit),
            )
        self.edge_count = int(uniq.size)
        self.boundary_edge_count = int((counts == 1).sum())
        self.closed = bool(counts.size) and bool((counts == 2).all())
        self.component_labels, self.component_count = _components(
            self.K, uniq // K, uniq % K)


def _components(count, heads, tails):
    """Connected components of the graph on ``count`` vertices with the
    edges (heads[i], tails[i]): each vertex's component, numbered in the
    order of the components' lowest vertices, and the component count.

    Each round hooks the larger root of every edge whose ends lie in two
    trees onto the smaller, then points every vertex straight at its
    root. Roots only decrease, so each component ends rooted at its
    lowest vertex.
    """
    root = np.arange(count)
    while True:
        a, b = root[heads], root[tails]
        apart = a != b
        if not apart.any():
            break
        a, b = a[apart], b[apart]
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
    is_root = root == np.arange(count)
    return np.cumsum(is_root)[root] - 1, int(is_root.sum())


def vertex_locations(mesh: TriangleMesh) -> Locations:
    """Every vertex as a surface location, in array form: row k is vertex
    k's indicator in the lowest-index triangle referencing it.

    Raises
    ------
    TopologyError
        If some vertex is referenced by no triangle.
    """
    flat = mesh.triangles.ravel()
    uniq, first = np.unique(flat, return_index=True)
    if uniq.size < mesh.K:
        missing = np.setdiff1d(np.arange(mesh.K), uniq)
        raise TopologyError(
            "vertex not referenced by any triangle", element_index=int(missing[0])
        )
    return Locations(first // 3, np.eye(3)[first % 3])


# -- OFF input/output -------------------------------------------------


def load_mesh(path) -> TriangleMesh:
    """Load a triangulated surface from an ASCII OFF file.

    The format, exactly: a header line ``OFF``; a counts line
    ``K T E`` (E ignored); K vertex lines of three decimal numbers;
    T face lines ``3 i j k``. Comment text after ``#`` and blank lines
    are skipped anywhere.

    Parameters
    ----------
    path : str or pathlib.Path

    Raises
    ------
    ParseError
        Malformed content, with the offending one-based line number.
    TopologyError, DegenerateTriangle
        Propagated from mesh validation.
    """
    with open(path, "r", encoding="ascii", errors="replace") as handle:
        lines = _significant_lines(handle)
        last = 1  # the number of the last significant line read

        def next_line(expect):
            nonlocal last
            item = next(lines, None)
            if item is None:
                raise ParseError(f"unexpected end of file, expected {expect}", line=last)
            last = item[0]
            return item

        lineno, text = next_line("OFF header")
        if text != "OFF":
            raise ParseError(f"expected OFF header, found {text!r}", line=lineno)
        lineno, text = next_line("counts line")
        parts = text.split()
        if len(parts) not in (2, 3):
            raise ParseError("counts line must read 'K T E'", line=lineno)
        try:
            n_vertices, n_faces = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("counts line must hold integers", line=lineno) from None
        if n_vertices < 0 or n_faces < 0:
            raise ParseError("negative count", line=lineno)

        if handle.seekable():
            blocks = _converted_blocks(handle, n_vertices, n_faces)
            if blocks is not None:
                return TriangleMesh(*blocks)
            # The line scan names the first faulty line: it reads the
            # blocks again, after the header and counts lines.
            handle.seek(0)
            lines = _significant_lines(handle)
            next(lines), next(lines)

        vertices = []
        for k in range(n_vertices):
            lineno, text = next_line(f"vertex line {k}")
            parts = text.split()
            if len(parts) != 3:
                raise ParseError(
                    f"vertex line must hold 3 coordinates, found {len(parts)}",
                    line=lineno,
                )
            try:
                vertices.append([float(p) for p in parts])
            except ValueError:
                raise ParseError(f"non-numeric vertex coordinate in {text!r}", line=lineno) from None

        triangles = []
        for t in range(n_faces):
            lineno, text = next_line(f"face line {t}")
            parts = text.split()
            try:
                tokens = [int(p) for p in parts]
            except ValueError:
                raise ParseError(f"non-integer face token in {text!r}", line=lineno) from None
            if len(tokens) != 4 or tokens[0] != 3:
                raise ParseError("face line must read '3 i j k'", line=lineno)
            for idx in tokens[1:]:
                if not 0 <= idx < n_vertices:
                    raise ParseError(
                        f"vertex index {idx} out of range [0, {n_vertices})", line=lineno
                    )
            triangles.append(tokens[1:])

        trailing = next(lines, None)
        if trailing is not None:
            lineno, text = trailing
            raise ParseError(f"unexpected trailing content {text!r}", line=lineno)
    return TriangleMesh(np.array(vertices, dtype=np.float64).reshape(-1, 3),
                        np.array(triangles, dtype=np.int64).reshape(-1, 3))


def _significant_lines(handle):
    """The number and text of each line of ``handle`` that holds more
    than a comment and white space."""
    for lineno, line in enumerate(handle, start=1):
        text = line.split("#", 1)[0].strip()
        if text:
            yield lineno, text


def _converted_blocks(handle, n_vertices, n_faces):
    """The vertex and face blocks that follow the counts line in
    ``handle``, each converted by one `np.loadtxt` call; None when a
    block is empty, short or faulty, or content follows them. loadtxt
    skips comments and blank lines as the line scan does, and reads a
    token only where `float` (or `int`) reads it to the same value, so
    this passes no file that the line scan of `load_mesh` refuses."""
    # loadtxt allocates the rows a count claims up front; a file holds
    # at least five characters a row ("0 0 0" and a line end)
    size = os.fstat(handle.fileno()).st_size
    if not n_vertices or not n_faces or 5 * (n_vertices + n_faces) > size:
        return None
    try:
        with warnings.catch_warnings():
            # loadtxt notes a blank or comment line inside a block
            warnings.simplefilter("ignore", UserWarning)
            vertices = np.loadtxt(handle, comments="#", max_rows=n_vertices, ndmin=2)
            faces = np.loadtxt(handle, dtype=np.int64, comments="#",
                               max_rows=n_faces, ndmin=2)
    except ValueError:
        return None
    if (vertices.shape != (n_vertices, 3) or faces.shape != (n_faces, 4)
            or any(line.split("#", 1)[0].strip() for line in handle)):
        return None
    indices = faces[:, 1:]
    if (faces[:, 0] != 3).any() or (indices < 0).any() or (indices >= n_vertices).any():
        return None
    return vertices, indices


def save_mesh(mesh: TriangleMesh, path):
    """Write a mesh as ASCII OFF (the format `load_mesh` reads)."""
    with open(path, "w", encoding="ascii") as handle:
        handle.write(f"OFF\n{mesh.K} {mesh.T} {mesh.edge_count}\n")
        handle.writelines(f"{float(x)!r} {float(y)!r} {float(z)!r}\n"
                          for x, y, z in mesh.vertices)
        handle.writelines(f"3 {a} {b} {c}\n" for a, b, c in mesh.triangles)


# -- generators -------------------------------------------------------

_ICOSA_FACES = np.array(
    [
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ],
    dtype=np.int64,
)


def _icosahedron_vertices():
    t = (1.0 + np.sqrt(5.0)) / 2.0
    v = np.array(
        [
            [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
            [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
            [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
        ],
        dtype=np.float64,
    )
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _subdivide_on_sphere(vertices, faces):
    n = len(vertices)
    edges = np.concatenate(
        [faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]], axis=0
    )
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    key = lo * np.int64(n) + hi
    uniq, inverse = np.unique(key, return_inverse=True)
    mids = vertices[uniq // n] + vertices[uniq % n]
    mids /= np.linalg.norm(mids, axis=1, keepdims=True)
    new_vertices = np.concatenate([vertices, mids], axis=0)

    nf = len(faces)
    mid_index = n + inverse
    ab = mid_index[:nf]
    bc = mid_index[nf : 2 * nf]
    ca = mid_index[2 * nf :]
    a, b, c = faces[:, 0], faces[:, 1], faces[:, 2]
    new_faces = np.concatenate(
        [
            np.stack([a, ab, ca], axis=1),
            np.stack([b, bc, ab], axis=1),
            np.stack([c, ca, bc], axis=1),
            np.stack([ab, bc, ca], axis=1),
        ],
        axis=0,
    )
    return new_vertices, new_faces


def unit_sphere_mesh(subdivisions: int) -> TriangleMesh:
    """Icosahedron subdivided ``subdivisions`` times, projected to radius 1.

    The result is closed and consistently outward-oriented, with
    K = 10 * 4**subdivisions + 2 vertices.

    Raises
    ------
    ResourceLimit
        If the vertex count would exceed the built-in cap.
    """
    subdivisions = check_count("subdivisions", subdivisions, 0)
    predicted = 10 * 4**subdivisions + 2
    if predicted > SPHERE_VERTEX_CAP:
        raise ResourceLimit(
            f"subdivisions {subdivisions} would create {predicted} vertices "
            f"(cap {SPHERE_VERTEX_CAP})"
        )
    vertices = _icosahedron_vertices()
    faces = _ICOSA_FACES.copy()
    for _ in range(subdivisions):
        vertices, faces = _subdivide_on_sphere(vertices, faces)
    return TriangleMesh(vertices, faces)
