import re

import numpy as np
import pytest

from smfpca import (
    DimensionMismatch,
    InputError,
    ParseError,
    ResourceLimit,
    TopologyError,
    load_mesh,
    save_mesh,
    unit_sphere_mesh,
    vertex_locations,
)
from smfpca import mesh as meshmod
from smfpca.errors import DegenerateTriangle
from smfpca.mesh import BARY_EPSILON, Locations, TriangleMesh
from test_acceptance import jittered_torus, open_hemisphere


# -- construction and validation --------------------------------------


def test_tetra_census(tetra):
    assert tetra.K == 4
    assert tetra.T == 4
    assert tetra.edge_count == 6
    assert tetra.boundary_edge_count == 0
    assert tetra.closed


def test_open_mesh_census(right_triangle):
    assert not right_triangle.closed
    assert right_triangle.boundary_edge_count == 3


def test_component_labels(sphere1, two_spheres):
    assert sphere1.component_count == 1
    assert not sphere1.component_labels.any()
    assert two_spheres.component_count == 2
    np.testing.assert_array_equal(two_spheres.component_labels,
                                  np.repeat([0, 1], sphere1.K))
    with pytest.raises(ValueError):
        two_spheres.component_labels[0] = 1


def csgraph_components(mesh):
    """The reference labelling: scipy's connected components of the
    mesh's edge graph. (The package itself does not import csgraph.)"""
    import scipy.sparse as sparse
    from scipy.sparse.csgraph import connected_components

    t = mesh.triangles
    edges = sparse.coo_matrix(
        (np.ones(t.size), (t.ravel(), np.roll(t, -1, axis=1).ravel())),
        shape=(mesh.K, mesh.K))
    return connected_components(edges, directed=False)


def shuffled_copies(sphere, tetra):
    """Two spheres and a tetrahedron in one mesh, its vertices numbered
    at random, so the components' vertices interleave."""
    parts = [(sphere, 0.0), (sphere, 3.0), (tetra, 6.0)]
    vertices = np.vstack([m.vertices + [shift, 0.0, 0.0] for m, shift in parts])
    offsets = np.cumsum([0] + [m.K for m, _ in parts])
    triangles = np.vstack([m.triangles + o for (m, _), o in zip(parts, offsets)])
    new_index = np.random.default_rng(5).permutation(len(vertices))
    moved = np.empty_like(vertices)
    moved[new_index] = vertices
    return TriangleMesh(moved, new_index[triangles])


def test_component_labels_match_csgraph(sphere1, two_spheres, tetra):
    meshes = [unit_sphere_mesh(level) for level in range(6)]
    meshes += [two_spheres, shuffled_copies(sphere1, tetra),
               jittered_torus(64, 24, 0), open_hemisphere(4)]
    with pytest.warns(UserWarning, match="not referenced"):
        # an unreferenced vertex is a component of its own
        meshes.append(TriangleMesh(np.vstack([sphere1.vertices, [5.0, 5.0, 5.0]]),
                                   sphere1.triangles))
    for mesh in meshes:
        count, labels = csgraph_components(mesh)
        assert mesh.component_count == count
        np.testing.assert_array_equal(mesh.component_labels, labels)
    assert [m.component_count for m in meshes[6:]] == [2, 3, 1, 1, 2]


def test_vertices_out_of_range():
    v = np.eye(3)
    with pytest.raises(TopologyError):
        TriangleMesh(v, np.array([[0, 1, 5]]))


def test_repeated_vertex_in_triangle():
    v = np.eye(3)
    with pytest.raises(TopologyError):
        TriangleMesh(v, np.array([[0, 1, 1]]))


def test_inconsistent_orientation_rejected(tetra):
    flipped = tetra.triangles.copy()
    flipped[1] = flipped[1][::-1]
    with pytest.raises(TopologyError):
        TriangleMesh(tetra.vertices, flipped)


def test_non_manifold_edge_rejected():
    # three triangles sharing the edge (0, 1)
    v = np.array(
        [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, -1.0, 0.0],
        ]
    )
    t = np.array([[0, 1, 2], [0, 3, 1], [0, 1, 4]])
    with pytest.raises(TopologyError):
        TriangleMesh(v, t)


def test_degenerate_triangle_rejected():
    v = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    with pytest.raises(DegenerateTriangle):
        TriangleMesh(v, np.array([[0, 1, 2]]))


def test_nonfinite_vertex_rejected():
    v = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, np.nan, 0.0]])
    with pytest.raises(InputError):
        TriangleMesh(v, np.array([[0, 1, 2]]))


def test_bad_shapes_rejected():
    with pytest.raises(DimensionMismatch):
        TriangleMesh(np.zeros((3, 2)), np.array([[0, 1, 2]]))
    with pytest.raises(DimensionMismatch):
        TriangleMesh(np.eye(3), np.array([0, 1, 2]))


def test_isolated_vertex_warns():
    v = np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [5.0, 5.0, 5.0]]
    )
    with pytest.warns(UserWarning):
        TriangleMesh(v, np.array([[0, 1, 2]]))


# -- per-triangle geometry --------------------------------------------


def test_right_triangle_geometry(right_triangle):
    assert right_triangle.areas[0] == pytest.approx(0.5, abs=1e-15)
    # hand-derived gradients of the three nodal functions
    expected = np.array(
        [
            [-1.0, -1.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
        ]
    )
    np.testing.assert_allclose(
        right_triangle.gradients[0], expected, atol=1e-14
    )


def test_equilateral_area():
    v = np.array(
        [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.5, np.sqrt(3.0) / 2.0, 0.0],
        ]
    )
    m = TriangleMesh(v, np.array([[0, 1, 2]]))
    assert m.areas[0] == pytest.approx(np.sqrt(3.0) / 4.0)


def test_gradients_rotate_with_triangle(right_triangle):
    # a rigid rotation must rotate the gradients and keep the area
    theta = 0.7
    rot = np.array(
        [
            [np.cos(theta), -np.sin(theta), 0.0],
            [np.sin(theta), np.cos(theta), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    axis_swap = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])
    rot = axis_swap @ rot
    rotated = TriangleMesh(
        right_triangle.vertices @ rot.T, right_triangle.triangles
    )
    assert rotated.areas[0] == pytest.approx(right_triangle.areas[0], rel=1e-14)
    np.testing.assert_allclose(
        rotated.gradients[0], right_triangle.gradients[0] @ rot.T, atol=1e-13
    )


def test_gradients_sum_to_zero(sphere1):
    for t in range(0, sphere1.T, 7):
        g = sphere1.gradients[t]
        np.testing.assert_allclose(g.sum(axis=0), 0.0, atol=1e-12)


def test_geometry_arrays_are_read_only(sphere1):
    # validation runs once, at construction; nothing may change after it
    for a in (sphere1.vertices, sphere1.triangles, sphere1.areas,
              sphere1.gradients):
        with pytest.raises(ValueError):
            a[0] = 0


# -- icosphere --------------------------------------------------------


def test_icosphere_counts():
    m0 = unit_sphere_mesh(0)
    assert (m0.K, m0.T) == (12, 20)
    m1 = unit_sphere_mesh(1)
    assert (m1.K, m1.T) == (42, 80)
    m2 = unit_sphere_mesh(2)
    assert (m2.K, m2.T) == (162, 320)


def test_icosphere_on_unit_sphere(sphere2):
    radii = np.linalg.norm(sphere2.vertices, axis=1)
    np.testing.assert_allclose(radii, 1.0, atol=1e-12)
    assert sphere2.closed


def test_icosphere_area_converges(sphere3):
    # inscribed polyhedron: area below 4*pi but within 1% by level 3
    area = sphere3.total_area()
    assert area < 4.0 * np.pi
    assert abs(area - 4.0 * np.pi) / (4.0 * np.pi) < 0.01


@pytest.mark.parametrize("level", range(5))
def test_icosphere_outward_orientation(level):
    # an outward-oriented face spans a positive signed volume with the
    # centre, so the closed surface's signed volume is positive too
    m = unit_sphere_mesh(level)
    a, b, c = (m.vertices[m.triangles[:, i]] for i in range(3))
    signed = np.einsum("ij,ij->i", a, np.cross(b, c)) / 6.0
    assert (signed > 0).all()
    # inscribed in the ball, and closing in on its volume level by level
    deficit = 1.0 - signed.sum() / (4.0 * np.pi / 3.0)
    assert 0 < deficit < 0.4 / 3.0**level


def test_icosphere_cap():
    with pytest.raises(ResourceLimit):
        unit_sphere_mesh(10)


# -- surface locations ------------------------------------------------


def test_vertex_locations_cover_all_vertices(sphere1):
    locs = vertex_locations(sphere1)
    assert type(locs) is Locations and len(locs) == sphere1.K
    corners = sphere1.vertices[sphere1.triangles[locs.triangles]]
    points = np.einsum("sc,scd->sd", locs.weights, corners)
    np.testing.assert_allclose(points, sphere1.vertices, atol=1e-14)
    assert (locs.weights.max(axis=1) == 1.0).all()


def test_surface_location_validation():
    # one row: every message names it
    one = [1.0, 0.0, 0.0]
    with pytest.raises(InputError, match="^location 0: barycentric weights sum to 1.3"):
        Locations([0], [[0.5, 0.6, 0.2]])
    with pytest.raises(InputError, match="^location 0: negative barycentric weight -0.1$"):
        Locations([0], [[-0.1, 0.6, 0.5]])
    # NaN fails both weight checks instead of slipping past them
    with pytest.raises(InputError, match="^location 0: negative barycentric weight nan$"):
        Locations([0], [[np.nan, 0.5, 0.5]])
    with pytest.raises(InputError, match="^location 0: barycentric weights sum to inf"):
        Locations([0], [[np.inf, 0.5, 0.5]])
    # a fractional triangle index is refused, not truncated
    with pytest.raises(InputError, match="^location 0: triangle index must be an "
                       r"integer, found 2\.9$"):
        Locations([2.9], [one])
    assert Locations([np.int64(2)], [one]).triangles.tolist() == [2]
    loc = Locations([0], [[-1e-12, 0.4, 0.6 + 1e-12]])
    assert loc.weights.min() == 0.0
    assert loc.weights.sum() == pytest.approx(1.0, abs=1e-15)

    # Many rows: the first bad row raises, named; the rows after it are
    # bad too, in another way.
    for bad, message in (
        ([-0.1, 0.6, 0.5], "negative barycentric weight -0.1"),
        ([0.5, 0.6, 0.2], "barycentric weights sum to 1.3, expected 1"),
        ([np.nan, 0.5, 0.5], "negative barycentric weight nan"),
        ([np.inf, 0.5, 0.5], "barycentric weights sum to inf, expected 1"),
        ([np.inf, -np.inf, 1.0], "negative barycentric weight -inf"),
    ):
        with pytest.raises(InputError, match=f"^location 0: {re.escape(message)}$"):
            Locations([2], [bad])
        weights = [[1.0, 0.0, 0.0], [0.2, 0.3, 0.5], bad, [-1.0, 1.0, 1.0]]
        with pytest.raises(InputError, match=f"^location 2: {re.escape(message)}$"):
            Locations([0, 1, 2, 3], weights)
    eye = np.eye(3)
    with pytest.raises(InputError, match=r"^location 1: triangle index must be "
                       r"an integer, found 2\.5$"):
        Locations(np.array([0, 2.5, "x"], dtype=object), eye)
    # a float array holds no integers, so its first row is the bad one
    with pytest.raises(InputError, match="^location 0: .* found 0.0$"):
        Locations(np.array([0.0, 1.0, 2.0]), eye)
    for weights in (np.ones((3, 2)), np.ones(3), np.ones((3, 3, 1))):
        with pytest.raises(DimensionMismatch, match="must be a 3-vector"):
            Locations([0, 1, 2], weights)
    with pytest.raises(DimensionMismatch, match="3 triangle indices for 2 weight rows"):
        Locations([0, 1, 2], eye[:2])
    # exact integer indices of any width are kept, in read-only copies
    triangles = np.array([3, 1, 2**70], dtype=object)
    locs = Locations(triangles, eye)
    assert locs.triangles.tolist() == [3, 1, 2**70]
    assert Locations(np.array([3, 1], np.uint8), eye[:2]).triangles.tolist() == [3, 1]
    triangles[0] = 7
    assert locs.triangles[0] == 3
    with pytest.raises(ValueError):
        locs.weights[0, 0] = 0.5


def test_locations_refuse_bools():
    # a mask passed by mistake is not read as triangles 0 and 1
    eye = np.eye(3)
    for triangles, row, found in ((np.array([True]), 0, "True"),
                                  (np.array([False, True, True]), 0, "False"),
                                  ([0, True, 2], 1, "True"),
                                  ((0, 1, np.True_), 2, "np.True_"),
                                  (np.array([0, 1, False], dtype=object), 2, "False")):
        with pytest.raises(InputError, match=f"^location {row}: triangle index must "
                           f"be an integer, found {re.escape(found)}$"):
            Locations(triangles, eye[:len(triangles)])


def test_surface_location_weights_round_as_numpy():
    # the clamped, renormalized weights equal numpy's, bit for bit,
    # -0.0 and tiny negatives included, row by row and all at once
    rng = np.random.default_rng(9)
    triples = rng.dirichlet(np.ones(3), 500)
    triples[:100, 1] += triples[:100, 0]
    triples[:100, 0] = -0.0
    tiny = -rng.uniform(0, 0.9 * BARY_EPSILON, 100)
    triples[100:200, 2] += triples[100:200, 1] - tiny
    triples[100:200, 1] = tiny
    triples[200:300, :] = np.eye(3)[rng.integers(0, 3, 100)]
    expected = []
    for w in triples:
        clamped = np.maximum(w, 0.0)
        expected.append(clamped / clamped.sum())
        assert Locations([0], [w]).weights[0].tobytes() == expected[-1].tobytes()
    all_rows = Locations(np.zeros(len(triples), int), triples).weights
    assert all_rows.tobytes() == np.stack(expected).tobytes()


# -- OFF files --------------------------------------------------------


def test_off_roundtrip(tmp_path, sphere1):
    path = tmp_path / "s.off"
    save_mesh(sphere1, path)
    again = load_mesh(path)
    np.testing.assert_array_equal(again.vertices, sphere1.vertices)
    np.testing.assert_array_equal(again.triangles, sphere1.triangles)


def test_off_accepts_comments_and_blanks(tmp_path):
    path = tmp_path / "t.off"
    path.write_text(
        "OFF\n# a comment\n\n4 4 6\n0 0 0\n1 1 0\n1 0 1\n0 1 1\n"
        "3 0 2 1\n3 0 1 3\n3 0 3 2\n3 1 2 3\n"
    )
    m = load_mesh(path)
    assert m.K == 4 and m.closed


OFF_FAULTS = [
    ("NOT_OFF\n3 1 0\n", "line 1"),
    ("OFF\n3 1\n", "line 2"),
    ("OFF\n3 1 3\n0 0 0\n1 0 0\n0 1\n", "line 5"),
    ("OFF\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n4 0 1 2\n", "line 6"),
    ("OFF\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1 999\n", "line 6"),
    ("OFF\n3 1 3\n0 0 0\n1 0 0\n", "line"),
    ("OFF\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n3 2 1 0\n", "line 7"),
    ("OFF\n3\n", "line 2: counts line must read"),
    ("OFF\n3 1 3 0\n", "line 2: counts line must read"),
    ("OFF\n3 x 3\n", "line 2: counts line must hold integers"),
    ("OFF\n3 -1 3\n", "line 2: negative count"),
    ("OFF\n3 1 3\n0 0 0\n1 y 0\n", "line 4: non-numeric vertex"),
    ("OFF\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1.5 2\n",
     "line 6: non-integer face token"),
]


@pytest.mark.parametrize("content,needle", OFF_FAULTS)
def test_off_parse_errors_carry_line_numbers(tmp_path, content, needle):
    path = tmp_path / "bad.off"
    path.write_text(content)
    with pytest.raises(ParseError, match=needle):
        load_mesh(path)


def load_outcome(path):
    """What `load_mesh` makes of ``path``: the mesh's arrays as bytes, or
    the type and message of the error it raises."""
    try:
        mesh = load_mesh(path)
    except InputError as exc:
        return type(exc), str(exc)
    return mesh.vertices.tobytes(), mesh.triangles.tobytes()


def scanned_outcome(path, monkeypatch):
    """The same with the blocks' array conversion switched off, so that
    the line scan reads every line."""
    with monkeypatch.context() as patch:
        patch.setattr(meshmod, "_converted_blocks", lambda *args: None)
        return load_outcome(path)


def off_lines(mesh, tmp_path):
    save_mesh(mesh, tmp_path / "good.off")
    return (tmp_path / "good.off").read_text().splitlines()


def test_off_faults_read_as_the_line_scan_reads_them(tmp_path, sphere1,
                                                     monkeypatch):
    # in small files, and in a level-1 sphere, where the vertex block
    # opens on line 3 and the face block on line 45
    contents = [content for content, _ in OFF_FAULTS]
    lines = off_lines(sphere1, tmp_path)
    faulty = [
        {20: "1.0 2.0"}, {21: "1.0 2.0 3.0 4.0"}, {22: "1.0 2.0 3.0e"},
        {50: "3 0 1"}, {51: "4 0 1 2"}, {52: "3 0 1 42"}, {53: "3 -1 1 2"},
        {54: "3 0 1 2 5"}, {55: "3 0 1 99999999999999999999"},
        {56: "99999999999999999999 0 1 2"}, {125: "3 0 1 2"},
        # a short line and a long one hold as many tokens as two good ones
        {20: "1.0 2.0", 21: "1.0 2.0 3.0 4.0"}, {50: "3 0 1", 51: "3 0 1 2 5"},
    ]
    for replacements in faulty:
        edited = list(lines)
        for lineno, replacement in replacements.items():
            edited[lineno - 1: lineno] = [replacement]
        contents.append("\n".join(edited) + "\n")
    contents.append("\n".join(lines[:-1]) + "\n")  # one face line short
    for j, content in enumerate(contents):
        path = tmp_path / f"bad{j}.off"
        path.write_text(content)
        outcome = load_outcome(path)
        assert outcome[0] is ParseError, content
        assert outcome == scanned_outcome(path, monkeypatch)
    path.write_text("\n".join(lines[:52] + ["3 0 1 42"] + lines[53:]))
    assert load_outcome(path)[1] == "line 53: vertex index 42 out of range [0, 42)"


@pytest.mark.parametrize("token", ["1_0", "infinity", "+3", "3.0", "0x10",
                                   "+1.5", "1.5d3", "nan", "1e", "-0"])
def test_off_tokens_read_as_the_line_scan_reads_them(tmp_path, sphere1, token,
                                                     monkeypatch):
    lines = off_lines(sphere1, tmp_path)
    vertex, face = lines[6].split(), lines[50].split()
    edited = {
        "coordinate": (6, " ".join([token] + vertex[1:])),
        "face count": (50, " ".join([token] + face[1:])),
        "face index": (50, " ".join(face[:3] + [token])),
    }
    outcomes = {}
    for site, (index, line) in edited.items():
        path = tmp_path / f"{site}.off"
        path.write_text("\n".join(lines[:index] + [line] + lines[index + 1:]))
        outcomes[site] = load_outcome(path)
        assert outcomes[site] == scanned_outcome(path, monkeypatch)
    # the scan accepts a token that float() or int() reads to a value
    # its place allows
    def accepted(site):
        try:
            value = float(token) if site == "coordinate" else int(token)
        except ValueError:
            return False
        return {"coordinate": True, "face count": value == 3,
                "face index": 0 <= value < sphere1.K}[site]

    for site, outcome in outcomes.items():
        assert (outcome[0] is not ParseError) == accepted(site), site


def test_off_roundtrip_is_bitwise(tmp_path, sphere2, monkeypatch):
    # full-precision coordinates over a wide range of scales, with -0.0
    rng = np.random.default_rng(8)
    vertices = sphere2.vertices * (1 + 1e-3 * rng.standard_normal((sphere2.K, 3)))
    vertices[vertices == 0.0] = -0.0
    assert np.signbit(vertices[vertices == 0.0]).all()
    converted = []
    convert = meshmod._converted_blocks

    def recording(*args):
        blocks = convert(*args)
        converted.append(blocks is not None)
        return blocks

    monkeypatch.setattr(meshmod, "_converted_blocks", recording)
    for scale in (1e-60, 1e-7, 1.0, 3e5, 1e60):
        mesh = TriangleMesh(vertices * scale, sphere2.triangles)
        path = tmp_path / "m.off"
        save_mesh(mesh, path)
        again = load_mesh(path)
        assert again.vertices.tobytes() == mesh.vertices.tobytes()
        assert again.triangles.tobytes() == mesh.triangles.tobytes()
    # every file took the array conversion, not the line scan
    assert converted == [True] * 5
