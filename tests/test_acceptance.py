"""End-to-end acceptance gate.

One test per shipped claim, each printing a single pass/fail line with
the measured quantity next to the bound it must meet. Thresholds here
are contractual: do not loosen them to make a failure go away.
"""

import warnings

import numpy as np
import pytest

from smfpca import (
    ObservationSet,
    assemble,
    cli,
    default_lambda_grid,
    fit,
    fit_missing,
    lb_eigenpairs,
    mv_pca,
    principal_angle,
    sphere_pc_functions,
    unit_sphere_mesh,
    vertex_locations,
)
from smfpca.estimator import adjusted_total_variance, data_gram
from smfpca.fem import location_matrix
from smfpca.mesh import Locations, TriangleMesh
from smfpca.solver import SaddleSystem
from smfpca.synth import generate_eigen_dataset, generate_sphere_dataset


def report(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, detail


@pytest.fixture(scope="module")
def ops4():
    mesh = unit_sphere_mesh(4)
    return assemble(mesh, vertex_locations(mesh))


def test_criterion_01_fem_identities(ops2, right_triangle):
    worst_null = 0.0
    worst_area = 0.0
    for mesh in (ops2.mesh, right_triangle):
        ops = assemble(mesh, vertex_locations(mesh))
        ones = np.ones(mesh.K)
        worst_null = max(worst_null, np.abs(ops.stiffness @ ones).max())
        worst_area = max(worst_area, abs(ops.mass.sum() - mesh.total_area()))

    tri = np.array([[0.3, -0.1, 0.2], [1.4, 0.2, -0.3], [0.1, 1.1, 0.5]])
    single = TriangleMesh(tri, np.array([[0, 1, 2]]))
    sops = assemble(single, vertex_locations(single))
    area = single.areas[0]
    mass_oracle = area / 12.0 * (np.ones((3, 3)) + np.eye(3))
    mass_err = np.abs(sops.mass.toarray() - mass_oracle).max()

    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    shift = rng.standard_normal(3)
    moved = TriangleMesh(ops2.mesh.vertices @ q.T + shift, ops2.mesh.triangles)
    mops = assemble(moved, vertex_locations(moved))
    motion_err = max(
        np.abs((mops.mass - assemble(ops2.mesh, vertex_locations(ops2.mesh)).mass)).max(),
        np.abs((mops.stiffness - ops2.stiffness)).max(),
    )

    ok = (
        worst_null < 1e-10
        and worst_area < 1e-10
        and mass_err < 1e-14
        and motion_err < 1e-10
    )
    report(
        1, ok,
        f"R1 null {worst_null:.1e}, area {worst_area:.1e}, "
        f"element mass {mass_err:.1e}, rigid motion {motion_err:.1e}; all vs 1e-10",
    )


def test_criterion_02_sphere_spectrum(ops4):
    pairs = lb_eigenpairs(ops4, 16)
    values = np.array([p.eigenvalue for p in pairs])
    ok = abs(values[0]) < 1e-6
    expected = np.repeat([2.0, 6.0, 12.0], [3, 5, 7])
    rel = np.abs(values[1:] - expected) / expected
    ok = ok and rel.max() < 0.05
    report(
        2, ok,
        f"kappa_0 {values[0]:.1e}, worst shell error {rel.max():.2%} vs 5%",
    )


def test_criterion_03_solver_matches_closed_form(tetra, sphere1):
    worst = 0.0
    rng = np.random.default_rng(1)
    for mesh in (tetra, sphere1):
        ops = assemble(mesh, vertex_locations(mesh))
        gram = data_gram(ops)
        r0 = ops.mass.toarray()
        r1 = ops.stiffness.toarray()
        smooth = r1 @ np.linalg.solve(r0, r1)
        rhs = rng.standard_normal(mesh.K)
        for lam in (1e-4, 1.0, 1e4):
            system = SaddleSystem(ops, gram, lam)
            f, _ = system.solve(rhs)
            dense = np.linalg.solve(gram.toarray() + lam * smooth, rhs)
            worst = max(
                worst, np.linalg.norm(f - dense) / np.linalg.norm(dense)
            )
    report(3, worst < 1e-8, f"worst relative error {worst:.2e} vs 1e-8")


def test_criterion_04_monotone_objective(ops2):
    lams = (1e-6, 1e-4, 1e-2, 1.0)
    worst = -np.inf
    for seed in range(25):
        ds = generate_eigen_dataset(ops2.mesh, [1, 2, 3], (5.0, 3.0, 1.0), 50, 0.1, seed)
        lam = lams[seed % len(lams)]
        result = fit(
            ds.X, 3, [lam], ops2, selection="fixed"
        )
        for comp in result.components:
            trace = np.asarray(comp.objective_trace)
            rises = np.diff(trace) - 1e-9 * np.abs(trace[:-1])
            worst = max(worst, rises.max())
    report(
        4, worst <= 0.0,
        f"max objective rise beyond 1e-9 relative slack: {worst:.2e}",
    )


def test_criterion_05_mv_pca_limit(ops2):
    ds = generate_sphere_dataset(ops2.mesh, 30, (4.0, 2.0), 0.1, 2)
    result = fit(
        ds.X, 1, [1e-12], ops2, selection="fixed"
    )
    baseline = mv_pca(ds.X, 1, ops2.mesh)
    angle = principal_angle(
        baseline[0].coefficients.reshape(-1, 1),
        result.components[0].f_coefficients.reshape(-1, 1),
    )
    report(5, angle < 1e-3, f"principal angle {angle:.2e} vs 1e-3")


def test_criterion_06_missing_data_identity(ops2):
    ds = generate_sphere_dataset(ops2.mesh, 20, (4.0, 2.0), 0.1, 3)
    full = fit(
        ds.X, 1, [1e-3], ops2, selection="fixed",
        center=False,
    )
    from smfpca import ObservationSet

    observed = ObservationSet.from_masked(ds.X.values, vertex_locations(ops2.mesh))
    sparse = fit_missing(
        observed, 1, [1e-3], ops2, selection="fixed"
    )
    diff = max(
        np.abs(
            full.components[0].f_coefficients
            - sparse.components[0].f_coefficients
        ).max(),
        np.abs(full.components[0].scores - sparse.components[0].scores).max(),
    )
    report(6, diff < 1e-10, f"max coefficient/score difference {diff:.2e} vs 1e-10")


def test_criterion_07_sphere_simulation_ordering(ops3):
    grid = default_lambda_grid(ops3)
    ours, base = [], []
    for rep in range(20):
        ds = generate_sphere_dataset(ops3.mesh, 50, (4.0, 2.0), 0.1, rep)
        truth = ds.true_components
        result = fit(
            ds.X, 2, grid, ops3, selection="kfold", folds=5, seed=rep
        )
        est = np.stack(
            [c.f_coefficients for c in result.components], axis=1
        )
        ours.append(principal_angle(truth, est))
        comps = mv_pca(ds.X, 2, ops3.mesh)
        mv = np.stack([c.coefficients for c in comps], axis=1)
        base.append(principal_angle(truth, mv))
    ours = np.array(ours)
    base = np.array(base)
    wins = float(np.mean(ours < base))
    ok = np.median(ours) < np.median(base) and wins >= 0.9
    report(
        7, ok,
        f"median angle {np.median(ours):.4f} vs {np.median(base):.4f}, "
        f"paired wins {wins:.0%} vs 90%",
    )


def test_criterion_08_variance_accounting(ops2):
    rng = np.random.default_rng(4)
    raw = rng.standard_normal((40, 3))
    q, _ = np.linalg.qr(raw)
    norms = np.array([5.0, 3.0, 2.0])

    class Stub:
        def __init__(self, scores, norm):
            self.scores = scores
            self.function_norm = norm

    comps = [Stub(q[:, j], norms[j]) for j in range(3)]
    adjusted = adjusted_total_variance(comps)
    exact = np.abs(adjusted - norms**2).max()
    dup = adjusted_total_variance([comps[0], Stub(q[:, 0], 5.0)])
    ok = exact < 1e-12 * norms.max() ** 2 and dup[1] < 1e-20
    report(
        8, ok,
        f"orthogonal deviation {exact:.1e}, duplicate contribution {dup[1]:.1e}",
    )


def test_criterion_09_block_sparsity(ops3):
    assert ops3.vertex_count == 642
    system = SaddleSystem(ops3, data_gram(ops3), 1.0)
    n = system.matrix.shape[0]
    frac = system.matrix.nnz / float(n * n)
    report(9, frac < 0.01, f"stored nonzeros {frac:.3%} vs 1%")


def test_criterion_10_manifest_determinism(tmp_path):
    sim = tmp_path / "sim"
    code = cli.main(
        ["simulate", "--generator", "sphere", "--sphere", "2",
         "--outdir", str(sim), "--n", "20", "--noise", "0.1", "--seed", "5"]
    )
    assert code == 0
    outs = []
    for name in "abc":
        out = tmp_path / name
        code = cli.main(
            ["fit", "--mesh", str(sim / "mesh.off"),
             "--data", str(sim / "data.csv"), "--outdir", str(out),
             "--n-components", "2"]
        )
        assert code == 0
        outs.append((out / "result.json").read_bytes())
    rerun = tmp_path / "d"
    code = cli.main(
        ["fit", "--config", str(tmp_path / "a" / "manifest.json"),
         "--outdir", str(rerun)]
    )
    assert code == 0
    outs.append((rerun / "result.json").read_bytes())
    ok = all(b == outs[0] for b in outs[1:])
    report(
        10, ok,
        f"{len(outs)} runs (3 fits + manifest rerun) byte-identical: {ok}",
    )


def different_grid_observations(mesh, n, points, sigmas, noise, seed):
    """Rank-two sphere data, each function observed at its own uniform
    random surface points: an area-weighted triangle, then uniform
    barycentric weights within it."""
    rng = np.random.default_rng(seed)
    fields = np.stack(sphere_pc_functions(mesh), axis=1)
    scores = rng.standard_normal((n, 2)) * np.asarray(sigmas)
    tris, weights, draws = [], [], []
    for _ in range(n):
        tris.append(rng.choice(mesh.T, size=points, p=mesh.areas / mesh.total_area()))
        r1, r2 = rng.random((2, points))
        s = np.sqrt(r1)
        weights.append(np.stack([1.0 - s, s * (1.0 - r2), s * r2], axis=1))
        draws.append(rng.standard_normal(points))
    locations = Locations(np.concatenate(tris), np.concatenate(weights))
    psi = location_matrix(mesh, locations)
    functions = []
    for i in range(n):
        rows = np.arange(i * points, (i + 1) * points)
        values = psi[rows] @ (fields @ scores[i])
        functions.append((rows, values + noise * draws[i]))
    return fields, ObservationSet(locations, functions)


def test_criterion_11_different_grids(ops2):
    # 30 functions on K=162, each seen at its own 80 points. Seeds 1-10
    # gave 0.060-0.085 rad (full vertex data: 0.029-0.038 rad); snapping
    # every point to its triangle's centroid or nearest corner gave
    # 0.109-0.196 rad, and 0.135/0.196 on this seed, so the bound tells
    # exact point evaluation from a grid-snapped approximation
    fields, obs = different_grid_observations(ops2.mesh, 30, 80, (4.0, 2.0), 0.1, 1)
    result = fit_missing(obs, 2, default_lambda_grid(ops2), ops2, selection="kfold")
    est = np.stack([c.f_coefficients for c in result.components], axis=1)
    angle = principal_angle(fields, est)
    report(11, angle < 0.10, f"principal angle {angle:.4f} vs 0.10")


def jittered_torus(around, across, seed):
    """A genus-1 torus (radii 1 and 0.4) on an around x across grid of
    angles, each moved by up to a quarter step, every quad split in two."""
    rng = np.random.default_rng(seed)
    i, j = np.meshgrid(np.arange(around), np.arange(across), indexing="ij")
    u = 2 * np.pi * (i + rng.uniform(-0.25, 0.25, i.shape)) / around
    v = 2 * np.pi * (j + rng.uniform(-0.25, 0.25, j.shape)) / across
    ring = 1.0 + 0.4 * np.cos(v)
    vertices = np.stack([ring * np.cos(u), ring * np.sin(u), 0.4 * np.sin(v)],
                        axis=-1).reshape(-1, 3)
    a = (i * across + j).ravel()
    b = ((i + 1) % around * across + j).ravel()
    c = ((i + 1) % around * across + (j + 1) % across).ravel()
    d = (i * across + (j + 1) % across).ravel()
    return TriangleMesh(vertices, np.concatenate([np.stack([a, b, c], axis=1),
                                                  np.stack([a, c, d], axis=1)]))


def open_hemisphere(level):
    """The triangles of an icosphere with a vertex above z = 0."""
    sphere = unit_sphere_mesh(level)
    keep = (sphere.vertices[sphere.triangles, 2] > 0).any(axis=1)
    used, inverse = np.unique(sphere.triangles[keep], return_inverse=True)
    return TriangleMesh(sphere.vertices[used], inverse.reshape(-1, 3))


def test_criterion_12_any_topology():
    # eigen data (sigmas 4 and 2, n=50, noise 0.1) on a genus-1 torus,
    # K=1536, and an open hemisphere, K=1345. Each index pair sits
    # between spectral gaps: torus eigenvalues 3.63 (twice) < 6.26, 6.81
    # < 7.29; hemisphere 0 < 1.96, 2.01 < 5.88. Seeds 1-10 gave
    # 0.0062-0.0085 rad (torus) and 0.0025-0.0039 rad (hemisphere) with
    # kfold; the unsmoothed multivariate PCA of the same data gives
    # 0.024-0.031 and 0.017-0.022 rad, so the bound tells a smoothed fit
    # from none
    lines, ok = [], True
    # Euler characteristics: a torus has 0, a disk 1 (a closed surface
    # has an even one)
    for name, mesh, indices, euler in (
            ("torus", jittered_torus(64, 24, 0), (5, 6), 0),
            ("hemisphere", open_hemisphere(4), (1, 2), 1)):
        assert mesh.K - mesh.edge_count + mesh.T == euler
        ops = assemble(mesh, vertex_locations(mesh))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # open mesh
            ds = generate_eigen_dataset(mesh, indices, (4.0, 2.0), 50, 0.1, 1)
        result = fit(ds.X, 2, default_lambda_grid(ops), ops, selection="kfold")
        est = np.stack([c.f_coefficients for c in result.components], axis=1)
        angle = principal_angle(ds.true_components, est)
        ok = ok and angle < 0.012
        lines.append(f"{name} (K={mesh.K}, Euler characteristic {euler}) "
                     f"principal angle {angle:.4f}")
    report(12, ok, "; ".join(lines) + " vs 0.012")


def folded_strip(folded):
    """An 84 x 20 grid of 0.05 squares, each split in two: the flat strip
    [0, 4.2] x [0, 1], or the same strip folded isometrically along the
    grid lines x = 2 and x = 2.2 into a U of two sheets of length 2, 0.2
    apart, with the vertices in the same order."""
    i, j = np.meshgrid(np.arange(85), np.arange(21), indexing="ij")
    x, z = 0.05 * i, np.zeros(i.shape)
    if folded:
        x = np.where(i <= 40, x, np.where(i <= 44, 2.0, 0.05 * (84 - i)))
        z = np.where(i <= 40, z, np.where(i <= 44, 0.05 * (i - 40), 0.2))
    vertices = np.stack([x, 0.05 * j, z], axis=-1).reshape(-1, 3)
    a = (i[:-1, :-1] * 21 + j[:-1, :-1]).ravel()
    return TriangleMesh(vertices, np.concatenate([np.stack([a, a + 21, a + 22], 1),
                                                  np.stack([a, a + 22, a + 1], 1)]))


def test_criterion_13_smoothing_follows_the_surface():
    # eigen data (indices 1 and 2, sigmas 4 and 2, n=50, noise 0.1) drawn
    # on a flat strip (K=1785) and fitted there and on the strip folded
    # into a U. FEM operators depend only on edge lengths, so the fold
    # leaves them, and the fit, unchanged: on seeds 1-10 the operators
    # differed by 5.4e-15 (mass) and 3.5e-15 (stiffness) relative, both
    # fits chose the same lambda, and their components differed by at
    # most 1.1e-15. Multivariate PCA loadings smoothed by a Gaussian
    # kernel in R^3 at the bandwidth best on the flat strip (0.125 of
    # 0.05-0.2 on every seed) leak across the 0.2 gap once folded: their
    # principal angle grew 2.87-3.72 times (0.0019-0.0025 rad flat,
    # 0.0070-0.0072 rad folded)
    flat, folded = folded_strip(False), folded_strip(True)
    ops = [assemble(mesh, vertex_locations(mesh)) for mesh in (flat, folded)]
    mass_gap = abs(ops[0].mass - ops[1].mass).max() / abs(ops[0].mass).max()
    stiffness_gap = (abs(ops[0].stiffness - ops[1].stiffness).max()
                     / abs(ops[0].stiffness).max())
    with pytest.warns(UserWarning, match="mesh is not closed"):
        ds = generate_eigen_dataset(flat, (1, 2), (4.0, 2.0), 50, 0.1, 1)
    fits = [fit(ds.X, 2, default_lambda_grid(o), o, selection="kfold") for o in ops]
    same_lams = ([c.lam for c in fits[0].components]
                 == [c.lam for c in fits[1].components])
    fit_gap = max(float(np.abs(a.f_coefficients - b.f_coefficients).max())
                  for a, b in zip(fits[0].components, fits[1].components))

    loadings = np.stack([c.coefficients for c in mv_pca(ds.X, 2, flat)], axis=1)

    def smoothed_angle(mesh, h):
        """The principal angle of the loadings after Nadaraya-Watson
        smoothing with a Gaussian kernel of bandwidth h in R^3."""
        v = mesh.vertices
        sq = (v * v).sum(axis=1)
        kernel = np.exp((2.0 * v @ v.T - sq[:, None] - sq[None, :]) / (2.0 * h * h))
        kernel /= kernel.sum(axis=1, keepdims=True)
        return principal_angle(ds.true_components, kernel @ loadings)

    flat_angles = {h: smoothed_angle(flat, h)
                   for h in (0.05, 0.075, 0.1, 0.125, 0.15, 0.2)}
    h = min(flat_angles, key=flat_angles.get)
    leak = smoothed_angle(folded, h) / flat_angles[h]
    ok = (mass_gap < 1e-13 and stiffness_gap < 1e-13 and same_lams
          and fit_gap < 1e-12 and leak >= 2.0)
    report(13, ok, f"operator gaps {mass_gap:.1e} / {stiffness_gap:.1e} vs 1e-13; "
                   f"same lambdas {same_lams}; component gap {fit_gap:.1e} vs 1e-12; "
                   f"kernel smoothing at h={h:g} folded / flat angle {leak:.2f} vs 2")


@pytest.mark.filterwarnings("default:misalignment smoke:UserWarning")  # logged only
def test_misalignment_smoke_kfold_smooths_more(ops2):
    """Qualitative check, logged but never failing: under phase
    misalignment K-fold tends to choose heavier smoothing than GCV."""
    from smfpca.synth import generate_misaligned_dataset

    grid = default_lambda_grid(ops2)
    kf, gc = [], []
    for rep in range(10):
        ds = generate_misaligned_dataset(ops2.mesh, 30, 4.0, (0.0, 0.4), rep)
        res_kf = fit(ds.X, 1, grid, ops2, selection="kfold", folds=5, seed=rep)
        res_gc = fit(ds.X, 1, grid, ops2, selection="gcv")
        kf.append(res_kf.components[0].lam)
        gc.append(res_gc.components[0].lam)
    med_kf = float(np.median(kf))
    med_gc = float(np.median(gc))
    line = (
        f"misalignment smoke: median kfold lambda {med_kf:.3e} vs "
        f"gcv {med_gc:.3e} over 10 replicates"
    )
    print(line, flush=True)
    if med_kf <= med_gc:
        warnings.warn(line + " (expected kfold > gcv)")
