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
from smfpca.errors import DegenerateTriangle
from smfpca.mesh import SurfaceLocation, TriangleMesh


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
    assert len(locs) == sphere1.K
    for k in (0, 13, 41):
        loc = locs[k]
        point = loc.barycentric @ sphere1.vertices[sphere1.triangles[loc.triangle_index]]
        np.testing.assert_allclose(point, sphere1.vertices[k], atol=1e-14)
        assert loc.barycentric.max() == 1.0


def test_surface_location_validation():
    with pytest.raises(InputError):
        SurfaceLocation(0, np.array([0.5, 0.6, 0.2]))
    with pytest.raises(InputError):
        SurfaceLocation(0, np.array([-0.1, 0.6, 0.5]))
    # NaN fails both weight checks instead of slipping past them
    with pytest.raises(InputError, match="negative barycentric weight nan"):
        SurfaceLocation(0, np.array([np.nan, 0.5, 0.5]))
    with pytest.raises(InputError, match="sum to inf"):
        SurfaceLocation(0, np.array([np.inf, 0.5, 0.5]))
    # a fractional triangle index is refused, not truncated
    with pytest.raises(InputError, match="triangle index must be an integer"):
        SurfaceLocation(2.9, np.array([1.0, 0.0, 0.0]))
    assert SurfaceLocation(np.int64(2), np.array([1.0, 0.0, 0.0])).triangle_index == 2
    loc = SurfaceLocation(0, np.array([-1e-12, 0.4, 0.6 + 1e-12]))
    assert loc.barycentric.min() == 0.0
    assert loc.barycentric.sum() == pytest.approx(1.0, abs=1e-15)


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


@pytest.mark.parametrize(
    "content,needle",
    [
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
    ],
)
def test_off_parse_errors_carry_line_numbers(tmp_path, content, needle):
    path = tmp_path / "bad.off"
    path.write_text(content)
    with pytest.raises(ParseError, match=needle):
        load_mesh(path)

