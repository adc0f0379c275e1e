import numpy as np
import pytest

from smfpca import assemble, unit_sphere_mesh, vertex_locations
from smfpca.mesh import TriangleMesh


@pytest.fixture(scope="session")
def tetra():
    # regular tetrahedron inscribed in the unit cube, outward-oriented
    vertices = np.array(
        [
            [0.0, 0.0, 0.0],
            [1.0, 1.0, 0.0],
            [1.0, 0.0, 1.0],
            [0.0, 1.0, 1.0],
        ]
    )
    triangles = np.array(
        [
            [0, 2, 1],
            [0, 1, 3],
            [0, 3, 2],
            [1, 2, 3],
        ]
    )
    return TriangleMesh(vertices, triangles)


@pytest.fixture(scope="session")
def right_triangle():
    # unit right triangle in the xy-plane
    vertices = np.array(
        [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
        ]
    )
    return TriangleMesh(vertices, np.array([[0, 1, 2]]))


@pytest.fixture(scope="session")
def sphere1():
    return unit_sphere_mesh(1)


@pytest.fixture(scope="session")
def two_spheres(sphere1):
    # two disjoint level-1 icospheres in one mesh; labels 0 then 1
    return TriangleMesh(
        np.vstack([sphere1.vertices, sphere1.vertices + [3.0, 0.0, 0.0]]),
        np.vstack([sphere1.triangles, sphere1.triangles + sphere1.K]),
    )


@pytest.fixture(scope="session")
def sphere2():
    return unit_sphere_mesh(2)


@pytest.fixture(scope="session")
def sphere3():
    return unit_sphere_mesh(3)


@pytest.fixture(scope="session")
def ops1(sphere1):
    return assemble(sphere1, vertex_locations(sphere1))


@pytest.fixture(scope="session")
def ops2(sphere2):
    return assemble(sphere2, vertex_locations(sphere2))


@pytest.fixture(scope="session")
def ops3(sphere3):
    return assemble(sphere3, vertex_locations(sphere3))
