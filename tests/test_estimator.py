import copy
import re
import warnings

import numpy as np
import pytest
import scipy.sparse as sparse

from smfpca import (
    DataMatrix,
    DegenerateData,
    DimensionMismatch,
    InputError,
    Locations,
    NonMonotoneObjective,
    ObservationSet,
    adjusted_total_variance,
    assemble,
    SaddleSystem,
    default_lambda_grid,
    deflate,
    fit,
    fit_component,
    fit_missing,
    function_step,
    initialize,
    l2_inner,
    penalty_value,
    score_step,
    vertex_locations,
)
from smfpca import estimator, selection, solver
from smfpca.estimator import data_gram
from smfpca.fem import _fix_sign, location_matrix
from smfpca.synth import generate_sphere_dataset, sphere_pc_functions


def rank_one_data(ops, seed=0, scale=3.0):
    rng = np.random.default_rng(seed)
    field = np.asarray((ops.psi @ rng.standard_normal(ops.vertex_count)))
    scores = scale * rng.standard_normal(25)
    return DataMatrix(np.outer(scores, field)), scores, field


# -- initialize -------------------------------------------------------


def test_initialize_recovers_rank_one_direction(ops1):
    X, _, field = rank_one_data(ops1)
    f_s = initialize(X)
    cos = abs(f_s @ field) / np.linalg.norm(field)
    assert cos == pytest.approx(1.0, abs=1e-12)


def test_initialize_sign_convention(ops1):
    X, _, _ = rank_one_data(ops1)
    f_s = initialize(X)
    assert f_s[np.argmax(np.abs(f_s))] > 0
    # a global data sign flip leaves the initialization unchanged
    flipped = initialize(DataMatrix(-X.values))
    np.testing.assert_array_equal(f_s, flipped)


def test_initialize_zero_data():
    with pytest.raises(DegenerateData):
        initialize(DataMatrix(np.zeros((4, 6))))


def svd_leading(values):
    return np.linalg.svd(values, full_matrices=False)[2][0]


def svd_start(values):
    """The sign-fixed leading right singular vector, taken by SVD."""
    return _fix_sign(svd_leading(values))[0]


def sine(a, b):
    """Sine of the angle between the lines of unit vectors a and b."""
    return float(np.linalg.norm(a - (a @ b) * b))


def with_spectrum(n, s, sigmas, seed):
    rng = np.random.default_rng(seed)
    left, _ = np.linalg.qr(rng.standard_normal((n, len(sigmas))))
    right, _ = np.linalg.qr(rng.standard_normal((s, len(sigmas))))
    return (left * sigmas) @ right.T


@pytest.mark.parametrize("shape", [(12, 40), (40, 12), (9, 9)])
def test_leading_right_vector_matches_svd(shape):
    values = np.random.default_rng(41).standard_normal(shape)
    v = estimator._leading_right_vector(values)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
    assert sine(v, svd_leading(values)) <= 1e-12


@pytest.mark.parametrize("shape", [(12, 40), (40, 12)])
def test_leading_right_vector_of_rank_one(shape):
    rng = np.random.default_rng(42)
    right = rng.standard_normal(shape[1])
    v = estimator._leading_right_vector(np.outer(rng.standard_normal(shape[0]), right))
    assert sine(v, right / np.linalg.norm(right)) <= 1e-14


@pytest.mark.parametrize("shape", [(12, 40), (40, 12)])
def test_leading_right_vector_under_a_tight_gap(shape):
    # sigma_2 / sigma_1 = 0.9: the Gram matrix squares it to 0.81, which
    # still leaves the leading eigenvector well conditioned
    values = with_spectrum(*shape, [1.0, 0.9, 0.5, 0.1], 43)
    assert sine(estimator._leading_right_vector(values), svd_leading(values)) <= 1e-12


@pytest.mark.parametrize("shape", [(12, 40), (40, 12)])
def test_initialize_sign_fixed_under_negation(shape):
    values = np.random.default_rng(44).standard_normal(shape)
    f_s = initialize(DataMatrix(values))
    assert f_s[np.argmax(np.abs(f_s))] > 0
    np.testing.assert_array_equal(initialize(DataMatrix(-values)), f_s)
    np.testing.assert_allclose(f_s, svd_start(values), rtol=0, atol=1e-12)


def test_initial_scores_missing_match_svd(ops2):
    state = estimator._MissingState(masked_observations(ops2, 10, 45), ops2)
    accumulated = state.d_matrix.T
    expected = accumulated @ svd_start(accumulated)
    expected /= np.linalg.norm(expected)
    u = estimator._initial_scores_missing(state)
    np.testing.assert_allclose(u, expected, rtol=0, atol=1e-12)
    assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-14)


def test_initial_scores_missing_zero_data(ops1):
    obs = ObservationSet(vertex_locations(ops1.mesh),
                         [(np.arange(3), np.zeros(3)), (np.arange(4, 6), np.zeros(2))])
    with pytest.raises(DegenerateData):
        estimator._initial_scores_missing(estimator._MissingState(obs, ops1))


def test_default_start_matches_an_svd_start(ops2):
    # the Gram warm start and a sign-fixed SVD start converge alike
    ds = generate_sphere_dataset(ops2.mesh, ops2, 50, (4.0, 2.0), 0.1, 46)
    lam = float(default_lambda_grid(ops2)[6])
    default = fit_component(ds.X, lam, ops2)
    started = fit_component(ds.X, lam, ops2, start=svd_start(ds.X.values))
    assert default.converged and started.converged
    assert default.iterations == started.iterations
    np.testing.assert_allclose(default.f_coefficients, started.f_coefficients,
                               rtol=0, atol=1e-12)


# -- score step -------------------------------------------------------


def test_score_step_formula(ops1):
    X, _, _ = rank_one_data(ops1, seed=1)
    f_s = initialize(X)
    u = score_step(X, f_s)
    t = X.values @ f_s
    np.testing.assert_allclose(u, t / np.linalg.norm(t), atol=1e-15)
    assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)


def test_score_step_is_the_maximizer(ops1):
    # u'X f over the unit sphere is maximized by the normalized product
    X, _, _ = rank_one_data(ops1, seed=2)
    f_s = initialize(X)
    u = score_step(X, f_s)
    best = u @ (X.values @ f_s)
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = rng.standard_normal(X.n)
        v /= np.linalg.norm(v)
        assert v @ (X.values @ f_s) <= best + 1e-12


def test_score_step_single_function(ops1):
    X = DataMatrix(np.ones((1, ops1.location_count)))
    u = score_step(X, initialize(X))
    assert u.shape == (1,)
    assert abs(u[0]) == pytest.approx(1.0)


def test_score_step_orthogonal_profile(ops1):
    X, _, field = rank_one_data(ops1, seed=4)
    null = np.zeros(X.s)
    with pytest.raises(DegenerateData):
        score_step(X, null)


# -- function step ----------------------------------------------------


def test_function_step_small_lambda_interpolates(ops2):
    # vertex sampling: psi = I, so lam -> 0 returns the projected data
    X, scores, field = rank_one_data(ops2, seed=5)
    u = scores / np.linalg.norm(scores)
    f, _ = function_step(X, u, SaddleSystem(ops2, data_gram(ops2), 1e-13), ops2)
    target = X.values.T @ u
    np.testing.assert_allclose(f, target, rtol=1e-5, atol=1e-8)


def test_function_step_large_lambda_flattens(ops2):
    X, scores, _ = rank_one_data(ops2, seed=6)
    u = scores / np.linalg.norm(scores)
    f, _ = function_step(X, u, SaddleSystem(ops2, data_gram(ops2), 1e10), ops2)
    assert np.std(f) < 1e-4 * max(abs(np.mean(f)), 1e-30)


def test_penalty_matches_dense_rearrangement(ops1):
    # g solves R0 g = R1 f, so g' R0 g = f' R1 R0^-1 R1 f
    rng = np.random.default_rng(7)
    f = rng.standard_normal(ops1.vertex_count)
    R0 = ops1.mass.toarray()
    g = np.linalg.solve(R0, ops1.stiffness @ f)
    oracle = f @ (ops1.stiffness @ np.linalg.solve(R0, ops1.stiffness @ f))
    assert penalty_value(g, ops1) == pytest.approx(oracle, rel=1e-10)


def test_penalty_of_discrete_eigenfunction(ops2):
    # for an eigenpair (kappa, v) with unit surface norm the roughness
    # surrogate equals kappa^2 exactly
    from smfpca import lb_eigenpairs

    pair = lb_eigenpairs(ops2, 3)[1]
    R0 = ops2.mass.toarray()
    g = np.linalg.solve(R0, ops2.stiffness @ pair.coefficients)
    assert penalty_value(g, ops2) == pytest.approx(
        pair.eigenvalue**2, rel=1e-8
    )


def test_penalty_of_sphere_harmonic(ops3):
    # Delta v1 = -6 v1 on the unit sphere, so the integral of the
    # squared Laplacian of the unit-norm harmonic is 36
    v1, _ = sphere_pc_functions(ops3.mesh)
    R0 = ops3.mass.toarray()
    g = np.linalg.solve(R0, ops3.stiffness @ v1)
    assert penalty_value(g, ops3) == pytest.approx(36.0, rel=0.05)


# -- single-component fit ---------------------------------------------


def test_fit_component_recovers_rank_one(ops2):
    X, scores, field = rank_one_data(ops2, seed=8)
    comp = fit_component(X, 1e-8, ops2)
    cos = abs(comp.scores @ scores) / np.linalg.norm(scores)
    assert cos == pytest.approx(1.0, abs=1e-8)
    recon = np.outer(comp.scores * comp.function_norm, ops2.psi @ comp.f_coefficients)
    assert np.max(np.abs(recon - X.values)) < 1e-4 * np.abs(X.values).max()


def test_fit_component_unit_norm_and_sign(ops2):
    X, _, _ = rank_one_data(ops2, seed=9)
    comp = fit_component(X, 1e-4, ops2)
    norm = l2_inner(ops2, comp.f_coefficients, comp.f_coefficients)
    assert norm == pytest.approx(1.0, rel=1e-10)
    assert comp.f_coefficients[np.argmax(np.abs(comp.f_coefficients))] > 0
    assert np.linalg.norm(comp.scores) == pytest.approx(1.0, rel=1e-12)
    assert comp.function_norm > 0


def test_fit_component_objective_nonincreasing(ops2):
    ds = generate_sphere_dataset(ops2.mesh, ops2, 40, (4.0, 2.0), 0.3, 11)
    comp = fit_component(ds.X, 1e-3, ops2)
    trace = np.asarray(comp.objective_trace)
    assert comp.iterations == trace.size
    diffs = np.diff(trace)
    assert np.all(diffs <= 1e-9 * np.abs(trace[:-1]))


def test_fit_component_zero_budget_single_pass(ops1):
    X, _, _ = rank_one_data(ops1, seed=12)
    comp = fit_component(X, 1e-4, ops1, max_iterations=0)
    assert comp.iterations == 1
    assert len(comp.objective_trace) == 1


def test_converged_only_when_the_tolerance_stops(ops1):
    X, _, _ = rank_one_data(ops1, seed=12)
    full = fit_component(X, 1e-4, ops1)
    assert full.converged and full.iterations < 15
    # one pass leaves no change to test
    for budget in (0, 1):
        assert not fit_component(X, 1e-4, ops1, max_iterations=budget).converged
    capped = fit_component(X, 1e-4, ops1, max_iterations=full.iterations - 1)
    assert not capped.converged
    exact = fit_component(X, 1e-4, ops1, max_iterations=full.iterations)
    assert exact.converged and exact.iterations == full.iterations


@pytest.mark.parametrize("selection", ["kfold", "gcv", "fixed"])
def test_fit_warns_once_per_capped_component(ops1, selection):
    ds = generate_sphere_dataset(ops1.mesh, ops1, 20, (4.0, 2.0), 0.3, 47)
    grid = [1e-3] if selection == "fixed" else [1e-4, 1e-3, 1e-2]
    # every candidate fit is capped too, and stays silent
    with pytest.warns(UserWarning, match="cap of 1 iterations") as records:
        result = fit(ds.X, 2, grid, ops1, selection=selection, folds=3,
                     max_iterations=1)
    assert [str(r.message)[:12] for r in records] == ["component 1:", "component 2:"]
    assert not any(c.converged for c in result.components)


def test_fit_missing_warns_once_per_capped_component(ops1):
    obs = masked_observations(ops1, 15, 48)
    with pytest.warns(UserWarning, match="cap of 1 iterations") as records:
        fit_missing(obs, 2, [1e-4, 1e-3], ops1, folds=3, max_iterations=1)
    assert len(records) == 2


def test_converged_fit_is_silent(ops1):
    ds = generate_sphere_dataset(ops1.mesh, ops1, 20, (4.0, 2.0), 0.3, 47)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = fit(ds.X, 2, [1e-4, 1e-3, 1e-2], ops1, folds=3)
    assert all(c.converged for c in result.components)


def test_fit_component_scale_equivariance(ops1):
    X, _, _ = rank_one_data(ops1, seed=13)
    base = fit_component(X, 1e-3, ops1)
    for c in (2.0, 0.5, -1.0):
        scaled = fit_component(DataMatrix(c * X.values), 1e-3, ops1)
        np.testing.assert_allclose(
            scaled.f_coefficients, base.f_coefficients, atol=1e-9
        )
        assert scaled.function_norm == pytest.approx(
            abs(c) * base.function_norm, rel=1e-9
        )
        np.testing.assert_allclose(
            scaled.scores * np.sign(c), base.scores, atol=1e-9
        )


def test_fit_component_rejects_mismatched_system(ops1):
    X, _, _ = rank_one_data(ops1, seed=14)
    system = SaddleSystem(ops1, data_gram(ops1), 1.0)
    with pytest.raises(InputError):
        fit_component(X, 2.0, ops1, system=system)


# -- deflation --------------------------------------------------------


def test_deflate_removes_component(ops2):
    ds = generate_sphere_dataset(ops2.mesh, ops2, 30, (4.0, 2.0), 0.0, 15)
    comp = fit_component(ds.X, 1e-9, ops2)
    reduced = deflate(ds.X, comp)
    # scores direction annihilated
    np.testing.assert_allclose(comp.scores @ reduced.values, 0.0, atol=1e-9)
    assert np.linalg.norm(reduced.values) < np.linalg.norm(ds.X.values)


def test_second_component_from_deflated(ops2):
    # at vanishing smoothing the sequential extraction must match the
    # empirical singular directions, the exact minimizers
    ds = generate_sphere_dataset(ops2.mesh, ops2, 60, (4.0, 2.0), 0.0, 16)
    first = fit_component(ds.X, 1e-10, ops2)
    second = fit_component(deflate(ds.X, first), 1e-10, ops2)
    _, _, vt = np.linalg.svd(ds.X.values, full_matrices=False)

    def angle_to(est, truth):
        c = abs(est @ truth) / (np.linalg.norm(est) * np.linalg.norm(truth))
        return np.arccos(min(c, 1.0))

    assert angle_to(first.f_coefficients, vt[0]) < 1e-4
    assert angle_to(second.f_coefficients, vt[1]) < 1e-4
    assert abs(first.scores @ second.scores) < 1e-6
    # the two directions stay close to the generating fields
    assert angle_to(first.f_coefficients, ds.true_components[:, 0]) < 0.15
    assert angle_to(second.f_coefficients, ds.true_components[:, 1]) < 0.15


# -- multi-component fit ----------------------------------------------


def test_fit_fixed_matches_manual_composition(ops2):
    ds = generate_sphere_dataset(ops2.mesh, ops2, 30, (4.0, 2.0), 0.1, 17)
    lam = 1e-4
    result = fit(
        ds.X, 2, [lam], ops2, selection="fixed", center=False
    )
    first = fit_component(ds.X, lam, ops2)
    second = fit_component(deflate(ds.X, first), lam, ops2)
    np.testing.assert_allclose(
        result.components[0].f_coefficients, first.f_coefficients, atol=1e-12
    )
    np.testing.assert_allclose(
        result.components[1].f_coefficients, second.f_coefficients, atol=1e-12
    )
    assert result.mean_field is None
    assert result.selection_traces[0] is None


def test_fit_centering_stores_mean(ops2):
    ds = generate_sphere_dataset(ops2.mesh, ops2, 30, (4.0, 2.0), 0.1, 18)
    shifted = DataMatrix(ds.X.values + 5.0)
    result = fit(
        shifted, 1, [1e-4], ops2, selection="fixed"
    )
    np.testing.assert_allclose(
        result.mean_field, shifted.values.mean(axis=0), atol=1e-12
    )
    # centered fit sees the same data as fitting the centered matrix
    centered = fit(
        DataMatrix(shifted.values - shifted.values.mean(axis=0)),
        1, [1e-4], ops2, selection="fixed", center=False,
    )
    np.testing.assert_allclose(
        result.components[0].f_coefficients,
        centered.components[0].f_coefficients,
        atol=1e-12,
    )


def test_fit_selection_traces_align(ops2):
    ds = generate_sphere_dataset(ops2.mesh, ops2, 25, (4.0, 2.0), 0.1, 19)
    grid = [1e-6, 1e-4, 1e-2]
    result = fit(ds.X, 2, grid, ops2, selection="kfold", folds=4, seed=5)
    assert len(result.selection_traces) == 2
    for comp, trace in zip(result.components, result.selection_traces):
        assert comp.lam == trace.lambda_grid[trace.chosen]
        assert trace.scores.shape == (3,)
        # the walk scores the grid from the top down; the rest stay NaN
        scored = ~np.isnan(trace.scores)
        assert scored[-1] and np.array_equal(scored, np.sort(scored))
        assert np.isfinite(trace.scores[scored]).all()
        assert trace.scores[trace.chosen] == trace.scores[scored].min()
    assert any(np.isnan(trace.scores).any() for trace in result.selection_traces)


def test_fit_validates_arguments(ops1):
    X, _, _ = rank_one_data(ops1)
    with pytest.raises(InputError):
        fit(X, 0, [1e-3], ops1)
    with pytest.raises(InputError):
        fit(X, 1, [1e-3], ops1, selection="annealing")
    with pytest.raises(InputError):
        fit(X, 1, [], ops1)
    with pytest.raises(InputError):
        fit(X, 1, [-1.0, 1.0], ops1)
    # rejected up front, before any system is factored
    for bad in (np.inf, np.nan):
        with pytest.raises(InputError, match="lambda grid"):
            fit(X, 1, [1e-3, bad], ops1)
        with pytest.raises(InputError, match="lambda grid"):
            fit(X, 1, [bad], ops1, selection="fixed")
    for options, match in [
        (dict(max_iterations=-3), "max_iterations"),
        (dict(tolerance=np.nan), "tolerance"), (dict(tolerance=-1.0), "tolerance"),
        (dict(tolerance=np.inf), "tolerance"), (dict(seed=-1), "seed"),
    ]:
        with pytest.raises(InputError, match=match):
            fit(X, 1, [1e-3], ops1, selection="fixed", **options)
    # zero iterations is documented as one pass, which cannot converge
    with pytest.warns(UserWarning, match="cap of 1 iterations"):
        result = fit(X, 1, [1e-3], ops1, selection="fixed", max_iterations=0)
    assert result.components[0].iterations == 1


def test_monotonicity_guard_fires_only_at_fixed_lambda(ops2, monkeypatch):
    # The second function update returns a tripled, hence worse, field.
    ds = generate_sphere_dataset(ops2.mesh, ops2, 20, (4.0, 2.0), 0.1, 30)
    step = estimator.function_step
    calls = []

    def worse_second_update(X, u, system, ops):
        calls.append(None)
        f, g = step(X, u, system, ops)
        return (3.0 * f, 3.0 * g) if len(calls) == 2 else (f, g)

    monkeypatch.setattr(estimator, "function_step", worse_second_update)
    with pytest.raises(NonMonotoneObjective, match="iteration 2"):
        fit(ds.X, 1, [1e-4], ops2, selection="fixed")
    calls.clear()
    result = fit(ds.X, 1, [1e-4], ops2, selection="gcv")
    trace = result.components[0].objective_trace
    assert len(calls) > 2 and trace[1] > trace[0]


def test_gcv_on_one_point_grid_equals_fixed_fit(ops2):
    ds = generate_sphere_dataset(ops2.mesh, ops2, 20, (4.0, 2.0), 0.1, 31)
    lam = 1e-4
    gcv = fit(ds.X, 2, [lam], ops2, selection="gcv")
    fixed = fit(ds.X, 2, [lam], ops2, selection="fixed")
    for a, b, trace in zip(gcv.components, fixed.components,
                           gcv.selection_traces):
        np.testing.assert_array_equal(a.scores, b.scores)
        np.testing.assert_array_equal(a.f_coefficients, b.f_coefficients)
        np.testing.assert_array_equal(a.g_coefficients, b.g_coefficients)
        assert a.function_norm == b.function_norm
        assert a.iterations == b.iterations
        assert a.objective_trace == b.objective_trace
        assert trace.history == [lam] * a.iterations


# -- the global optimum -----------------------------------------------


def smoothed_gram(values, ops, lam):
    """Oracle: C = X psi A^-1 psi' X' with A = psi'psi + lam R1 R0^-1 R1,
    from one n-column solve. The function step is f = A^-1 psi'X'u and
    the score step u ~ X psi f = C u, so the alternation is the power
    method on C, and at unit u the objective is ||X||^2 - u'Cu."""
    system = SaddleSystem(ops, data_gram(ops), lam)
    f_block, _ = system.solve_many(ops.psi.T @ values.T)
    gram = values @ (ops.psi @ f_block)
    return (gram + gram.T) / 2.0


def off_axis(u, v):
    # the part of u orthogonal to the unit vector v; sqrt(1 - cos^2) would
    # floor near 1e-8
    return float(np.linalg.norm(u - (v @ u) * v))


@pytest.mark.parametrize("index", [4, 6, 8])
def test_fixed_fit_reaches_the_global_optimum(ops2, index):
    # on seeds 1-10 (n=30, level 2, tolerance 1e-12) the scores lay within
    # 1.6e-12 of C's top two eigenvectors and the objectives matched to
    # 1.1e-15 relative to ||X||^2
    lam = float(default_lambda_grid(ops2)[index])
    for seed in range(1, 11):
        ds = generate_sphere_dataset(ops2.mesh, ops2, 30, (4.0, 2.0), 0.1, seed)
        result = fit(ds.X, 2, [lam], ops2, selection="fixed",
                     tolerance=1e-12, max_iterations=500)
        first, second = result.components
        values = ds.X.values - result.mean_field
        mu, vectors = np.linalg.eigh(smoothed_gram(values, ops2, lam))
        assert off_axis(first.scores, vectors[:, -1]) < 5e-12
        assert off_axis(second.scores, vectors[:, -2]) < 5e-12
        xnorm2 = float((values ** 2).sum())
        assert first.objective_trace[-1] == pytest.approx(xnorm2 - mu[-1], abs=5e-15 * xnorm2)
        # the second component is the first of the deflated data
        rest = values - np.outer(first.scores, first.scores @ values)
        top = np.linalg.eigvalsh(smoothed_gram(rest, ops2, lam))[-1]
        assert second.objective_trace[-1] == pytest.approx(
            float((rest ** 2).sum()) - top, abs=5e-15 * xnorm2)


def test_kfold_candidate_reaches_the_global_optimum(ops2):
    # folds are not re-centred, so a fold's training rows give C[train,
    # train]; seeds 1-10 gave gaps up to 8.8e-13 and 9.4e-16 relative
    lam = float(default_lambda_grid(ops2)[6])
    for seed in range(1, 11):
        ds = generate_sphere_dataset(ops2.mesh, ops2, 30, (4.0, 2.0), 0.1, seed)
        values = ds.X.values - ds.X.values.mean(axis=0)
        gram = smoothed_gram(values, ops2, lam)
        train = np.setdiff1d(np.arange(30), selection.make_folds(30, 5, seed)[0])
        comp = fit_component(DataMatrix(values[train]), lam, ops2,
                             tolerance=1e-12, max_iterations=500)
        mu, vectors = np.linalg.eigh(gram[np.ix_(train, train)])
        assert off_axis(comp.scores, vectors[:, -1]) < 5e-12
        xnorm2 = float((values[train] ** 2).sum())
        assert comp.objective_trace[-1] == pytest.approx(xnorm2 - mu[-1], abs=5e-15 * xnorm2)


# -- variance accounting ----------------------------------------------


def test_adjusted_variance_orthogonal_scores(ops1):
    # synthetic components with exactly orthogonal score vectors
    rng = np.random.default_rng(20)
    q, _ = np.linalg.qr(rng.standard_normal((30, 3)))
    comps = []
    for j, norm in enumerate((5.0, 3.0, 2.0)):
        comps.append(
            type("C", (), {"scores": q[:, j], "function_norm": norm})()
        )
    var = adjusted_total_variance(comps)
    np.testing.assert_allclose(var, [25.0, 9.0, 4.0], rtol=1e-12)


def test_adjusted_variance_duplicate_contributes_nothing(ops1):
    rng = np.random.default_rng(21)
    u = rng.standard_normal(30)
    u /= np.linalg.norm(u)
    a = type("C", (), {"scores": u, "function_norm": 4.0})()
    b = type("C", (), {"scores": u.copy(), "function_norm": 4.0})()
    var = adjusted_total_variance([a, b])
    assert var[0] == pytest.approx(16.0, rel=1e-12)
    assert abs(var[1]) < 1e-20


# -- partially observed data ------------------------------------------


def test_fit_missing_equals_fit_when_fully_observed(ops2):
    ds = generate_sphere_dataset(ops2.mesh, ops2, 20, (4.0, 2.0), 0.1, 22)
    locs = vertex_locations(ops2.mesh)
    obs = ObservationSet.from_masked(ds.X.values, locs)
    lam = 1e-3
    dense = fit(
        ds.X, 1, [lam], ops2, selection="fixed", center=False
    )
    ragged = fit_missing(obs, 1, [lam], ops2, selection="fixed")
    np.testing.assert_allclose(
        ragged.components[0].f_coefficients,
        dense.components[0].f_coefficients,
        atol=1e-10,
    )
    np.testing.assert_allclose(
        ragged.components[0].scores, dense.components[0].scores, atol=1e-10
    )
    assert ragged.components[0].function_norm == pytest.approx(
        dense.components[0].function_norm, abs=1e-10
    )


def test_fit_missing_recovers_under_dropout(ops3):
    ds = generate_sphere_dataset(ops3.mesh, ops3, 40, (4.0, 2.0), 0.05, 23)
    values = ds.X.values.copy()
    rng = np.random.default_rng(24)
    mask = rng.random(values.shape) < 0.3
    mask[:, 0] = False
    values[mask] = np.nan
    obs = ObservationSet.from_masked(values, vertex_locations(ops3.mesh))
    result = fit_missing(
        obs, 1, [1e-4], ops3, selection="fixed"
    )
    est = result.components[0].f_coefficients
    v1 = ds.true_components[:, 0].copy()
    v1 /= np.sqrt(l2_inner(ops3, v1, v1))
    cos = abs(est @ (ops3.mass @ v1))
    assert np.arccos(min(cos, 1.0)) < 0.1


def test_fit_missing_single_observation_function(ops1):
    ds = generate_sphere_dataset(ops1.mesh, ops1, 10, (4.0, 2.0), 0.1, 25)
    values = ds.X.values.copy()
    values[0, 1:] = np.nan
    obs = ObservationSet.from_masked(values, vertex_locations(ops1.mesh))
    result = fit_missing(
        obs, 1, [1e-3], ops1, selection="fixed"
    )
    assert np.isfinite(result.components[0].scores).all()


def test_fit_component_rejects_bad_start(ops2):
    X, _, _ = rank_one_data(ops2)
    with pytest.raises(DimensionMismatch):
        fit_component(X, 1e-3, ops2, start=np.ones(X.s - 1))
    bad = initialize(X)
    bad[3] = np.nan
    with pytest.raises(InputError):
        fit_component(X, 1e-3, ops2, start=bad)


def test_fit_component_missing_rejects_bad_start(ops2):
    state = estimator._MissingState(masked_observations(ops2, 10, 29), ops2)
    with pytest.raises(DimensionMismatch):
        estimator._fit_component_missing(
            state, 1e-3, ops2, 15, 1e-6, np.ones((state.n, 1))
        )
    with pytest.raises(InputError):
        estimator._fit_component_missing(
            state, 1e-3, ops2, 15, 1e-6, np.full(state.n, np.inf)
        )


def masked_observations(ops, n, seed):
    ds = generate_sphere_dataset(ops.mesh, ops, n, (4.0, 2.0), 0.1, seed)
    values = ds.X.values.copy()
    values[np.random.default_rng(seed).random(values.shape) < 0.2] = np.nan
    return ObservationSet.from_masked(values, vertex_locations(ops.mesh))


def test_fit_missing_factors_once_per_component_fit(ops2, monkeypatch):
    counts = {"fits": 0, "iterations": 0, "factorizations": 0, "fallbacks": 0}
    fit_one = estimator._fit_component_missing
    factor = solver.SaddleSystem.__init__
    refine = solver.SaddleSystem.solve_with_block

    def counting_fit(*args):
        counts["fits"] += 1
        component = fit_one(*args)
        counts["iterations"] += component.iterations
        return component

    def counting_factor(self, *args):
        counts["factorizations"] += 1
        factor(self, *args)

    def counting_refine(self, *args):
        solution = refine(self, *args)
        counts["fallbacks"] += solution is None
        return solution

    monkeypatch.setattr(estimator, "_fit_component_missing", counting_fit)
    monkeypatch.setattr(solver.SaddleSystem, "__init__", counting_factor)
    monkeypatch.setattr(solver.SaddleSystem, "solve_with_block", counting_refine)
    obs = masked_observations(ops2, 15, 27)
    fit_missing(obs, 2, [1e-4, 1e-2, 1.0], ops2, selection="kfold", folds=3)
    assert counts["fits"] == 2 * (3 * 3 + 1)
    assert counts["iterations"] > 3 * counts["fits"]
    # one factorization per fit, plus one per refinement that ran out of
    # steps (a single early alternation here needs 13)
    assert counts["fallbacks"] <= 1
    assert counts["factorizations"] == counts["fits"] + counts["fallbacks"]


def test_fit_missing_reuse_matches_refactoring(ops2, monkeypatch):
    obs = masked_observations(ops2, 15, 28)

    def run():
        return fit_missing(
            obs, 2, [1e-3], ops2, selection="fixed"
        )

    reused = run()
    # no refinement steps: every alternation factors its own system
    monkeypatch.setattr(solver, "_REFINE_STEPS", 0)
    refactored = run()
    for a, b in zip(reused.components, refactored.components):
        assert a.iterations == b.iterations > 1
        np.testing.assert_allclose(a.f_coefficients, b.f_coefficients, atol=1e-10)
        np.testing.assert_allclose(a.scores, b.scores, atol=1e-10)


def test_fit_missing_objective_never_rises(ops2):
    # the exact score step makes masked fixed-lambda fits monotone; ragged
    # observation counts (50% missing) are where the normalized data
    # projection was not the minimizer
    rises = 0
    for seed in range(4):
        ds = generate_sphere_dataset(ops2.mesh, ops2, 30, (4.0, 2.0), 0.3, seed)
        values = ds.X.values.copy()
        values[np.random.default_rng(seed).random(values.shape) < 0.5] = np.nan
        state = estimator._MissingState(
            ObservationSet.from_masked(values, vertex_locations(ops2.mesh)), ops2
        )
        for lam in (1e-6, 1e-4, 1e-2, 1.0, 1e2):
            trace = estimator._fit_component_missing(
                state, lam, ops2, 30, 1e-10
            ).objective_trace
            rises += sum(b > a * (1 + 1e-12) for a, b in zip(trace, trace[1:]))
    assert rises == 0


def barycentric_functions(ops, n, seed):
    """An observation set at random interior points (three weights
    each), and each function's own location matrix."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(n):
        count = int(rng.integers(3, 12))
        draws.append((rng.integers(0, ops.mesh.T, count),
                      rng.dirichlet(np.ones(3), count), rng.standard_normal(count)))
    triangles, weights, values = zip(*draws)
    ends = np.cumsum([len(v) for v in values])
    obs = ObservationSet(Locations(np.concatenate(triangles), np.concatenate(weights)),
                         [(np.arange(end - len(v), end), v) for v, end in zip(values, ends)])
    return obs, [location_matrix(ops.mesh, Locations(t, w)) for t, w in zip(triangles, weights)]


def assert_same_sparse(a, b):
    assert a.format == b.format and a.shape == b.shape
    for name in ("indptr", "indices", "data"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


def test_weighted_gram_and_energies_match_explicit_sums(ops2):
    # Each psi_i is a row slice of one psi: a row selection of I on
    # masked vertex data, and each function's own location matrix at
    # points inside triangles. The map, the accumulated observations and
    # a subset are those of the per-function matrices stacked, bytewise.
    masked = masked_observations(ops2, 12, 30)
    eye = sparse.identity(ops2.vertex_count, format="csr")
    for obs, refs in (
        (masked, [eye[rows] for rows, _ in masked.functions]),
        barycentric_functions(ops2, 12, 30),
    ):
        state = estimator._MissingState(obs, ops2)
        for psi_i, ref in zip(state.psis, refs):
            assert_same_sparse(psi_i, ref)
        stacked = copy.copy(state)
        stacked._map_grams(sparse.vstack(refs, format="csr"), [r.shape[0] for r in refs])
        assert_same_sparse(state.gram_map, stacked.gram_map)
        for name in ("_gram_rows", "_gram_indices", "_gram_indptr"):
            assert getattr(state, name).tobytes() == getattr(stacked, name).tobytes()
        accumulated = [ref.T @ vals for ref, (_, vals) in zip(refs, obs.functions)]
        assert state.d_matrix.tobytes() == np.stack(accumulated, axis=1).tobytes()
        rows = np.array([0, 3, 4, 9, 11])
        part = state.subset(rows)
        assert all(a is state.psis[i] for a, i in zip(part.psis, rows))
        assert_same_sparse(part.gram_map, state.gram_map[:, rows])
        assert part.d_matrix.tobytes() == state.d_matrix[:, rows].tobytes()

    # the explicit sums run on the last state, at points inside triangles
    assert max(np.diff(p.indptr).max() for p in state.psis) == 3
    component = estimator._fit_component_missing(state, 1e-3, ops2, 15, 1e-6)
    rng = np.random.default_rng(31)
    for current in (state, state.subset(np.array([0, 3, 4, 9, 11])),
                    state.deflated(component)):
        u = rng.standard_normal(current.n)
        u[::3] = 0.0
        explicit = sum(u_i**2 * (psi_i.T @ psi_i).toarray()
                       for u_i, psi_i in zip(u, current.psis))
        gram = current.weighted_gram(u)
        assert gram.shape == explicit.shape
        assert np.abs(gram.toarray() - explicit).max() <= 1e-14 * np.abs(explicit).max()
        # the same map gives each function's profile energy
        f = rng.standard_normal(ops2.vertex_count)
        energies = [float((psi_i @ f) @ (psi_i @ f)) for psi_i in current.psis]
        np.testing.assert_allclose(current.energies(f), energies, rtol=1e-12)


def exhaustible_observations(ops, n):
    """Constant fields seen at one common vertex subset: a masked fit
    reproduces them, so one component exhausts the data."""
    rng = np.random.default_rng(32)
    values = np.outer(rng.standard_normal(n), np.ones(ops.vertex_count))
    values[:, rng.random(ops.vertex_count) < 0.3] = np.nan
    return ObservationSet.from_masked(values, vertex_locations(ops.mesh))


def test_exhausted_data_stop_with_degenerate_data(ops1):
    # centered data of 12 functions hold at most 11 components
    ds = generate_sphere_dataset(ops1.mesh, ops1, 12, (4.0, 2.0), 0.1, 3)
    # components 3 to 8 of these data stop at the iteration cap
    with pytest.warns(UserWarning, match="the alternation stopped at its cap") as caught:
        assert len(fit(ds.X, 11, [1e-3], ops1, selection="fixed").components) == 11
    assert len(caught) == 6
    with pytest.warns(UserWarning, match="the alternation stopped at its cap") as caught:
        with pytest.raises(DegenerateData, match="component 12: the data are exhausted"):
            fit(ds.X, 100, [1e-3], ops1, selection="fixed")
    assert len(caught) == 6
    obs = exhaustible_observations(ops1, 6)
    assert len(fit_missing(obs, 1, [1e-3], ops1, selection="fixed").components) == 1
    with pytest.raises(DegenerateData, match="component 2: the data are exhausted"):
        fit_missing(obs, 3, [1e-3], ops1, selection="fixed")


def test_deflation_only_between_components(ops2, monkeypatch):
    # n components need n - 1 deflations; the last component's would be
    # thrown away
    calls = {"dense": 0, "masked": 0}
    dense, masked = estimator.deflate, estimator._MissingState.deflated

    def counting_dense(*args):
        calls["dense"] += 1
        return dense(*args)

    def counting_masked(*args):
        calls["masked"] += 1
        return masked(*args)

    monkeypatch.setattr(estimator, "deflate", counting_dense)
    monkeypatch.setattr(estimator._MissingState, "deflated", counting_masked)
    ds = generate_sphere_dataset(ops2.mesh, ops2, 15, (4.0, 2.0), 0.1, 33)

    def fit_both(n_components):
        calls.update(dense=0, masked=0)
        fit(ds.X, n_components, [1e-3], ops2, selection="fixed")
        fit_missing(masked_observations(ops2, 15, 33), n_components, [1e-3],
                    ops2, selection="fixed")
        assert calls == {"dense": n_components - 1, "masked": n_components - 1}

    fit_both(1)
    # the third component stops at the iteration cap on both paths
    with pytest.warns(UserWarning, match="component 3: the alternation") as caught:
        fit_both(3)
    assert len(caught) == 2


def test_fit_missing_rejects_gcv(ops1):
    ds = generate_sphere_dataset(ops1.mesh, ops1, 10, (4.0, 2.0), 0.1, 26)
    obs = ObservationSet.from_masked(ds.X.values, vertex_locations(ops1.mesh))
    with pytest.raises(InputError):
        fit_missing(obs, 1, [1e-3], ops1, selection="gcv")


def test_fit_missing_validates_numeric_options(ops1):
    ds = generate_sphere_dataset(ops1.mesh, ops1, 10, (4.0, 2.0), 0.1, 26)
    obs = ObservationSet.from_masked(ds.X.values, vertex_locations(ops1.mesh))
    for options in (dict(max_iterations=-1), dict(tolerance=np.nan),
                    dict(seed=-1)):
        with pytest.raises(InputError):
            fit_missing(obs, 1, [1e-3], ops1, selection="fixed", **options)


def test_observation_set_validation(ops1):
    locs = vertex_locations(ops1.mesh)
    K = len(locs)
    with pytest.raises(DimensionMismatch, match="^observation set holds no functions$"):
        ObservationSet(locs, [])
    bad = np.full((2, K), np.nan)
    bad[0, 0] = 1.0
    with pytest.raises(DimensionMismatch, match="^function 1 has no observed entries$"):
        ObservationSet.from_masked(bad, locs)
    # points not in one Locations fail at construction, not in a fit
    points = [(0, [1.0, 0.0, 0.0])]
    with pytest.raises(DimensionMismatch, match="^locations must be a Locations, got list$"):
        ObservationSet(points, [([0], [1.0])])
    with pytest.raises(DimensionMismatch, match="^locations must be a Locations, got list$"):
        ObservationSet.from_masked(np.ones((1, 1)), points)
    # rows are 1-d integers in range, aligned with nonempty values
    for rows, values, message in (
        ([0.0, 1.0], [1.0, 2.0], "function 1: rows must be integers, not float64"),
        (np.array([True, False]), [1.0, 2.0], "function 1: rows must be integers, not bool"),
        ([[0, 1]], [1.0, 2.0], "function 1: rows and values must be 1-d and align"),
        ([[0, 1]], [[1.0, 2.0]], "function 1: rows and values must be 1-d and align"),
        ([0, 1, 2], [1.0, 2.0], "function 1: rows and values must be 1-d and align"),
        ([], [], "function 1 has no observed entries"),
        ([0, -1], [1.0, 2.0], f"function 1: row -1 of {K} locations"),
        ([0, K], [1.0, 2.0], f"function 1: row {K} of {K} locations"),
    ):
        with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
            ObservationSet(locs, [([0], [1.0]), (rows, values)])
    with pytest.raises(InputError, match="^function 1: non-finite observation$"):
        ObservationSet(locs, [([0], [1.0]), ([1], [np.nan])])


def test_observation_set_leaves_its_argument_alone(ops1):
    locs = vertex_locations(ops1.mesh)
    pairs = [([0, 1], [1.0, 2.0]), (np.arange(2, 5), np.ones(3))]
    original = list(pairs)
    obs = ObservationSet(locs, pairs)
    assert all(a is b for a, b in zip(pairs, original))
    assert obs.functions is not pairs
    assert ObservationSet(locs, tuple(pairs)).n == ObservationSet(locs, iter(pairs)).n == 2
    # the points are the caller's Locations, and each function keeps its rows
    assert obs.locations is locs
    for (rows, values), expected in zip(obs.functions, ([0, 1], [2, 3, 4])):
        assert rows.tolist() == expected and values.dtype == np.float64
    # from_masked shares the caller's locations and keeps only row indices
    masked = ObservationSet.from_masked(np.where(np.eye(2, len(locs)), 1.0, np.nan), locs)
    assert masked.locations is locs
    assert [rows.tolist() for rows, _ in masked.functions] == [[0], [1]]


def test_data_matrix_validation():
    with pytest.raises(InputError):
        DataMatrix(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(DimensionMismatch):
        DataMatrix(np.zeros(5))


def test_data_matrix_norm_is_computed_once():
    X = DataMatrix(np.arange(12.0).reshape(3, 4))
    assert "xnorm2" not in vars(X)
    assert X.xnorm2 == float(np.dot(X.values.ravel(), X.values.ravel())) == 506.0
    assert vars(X)["xnorm2"] == 506.0  # kept for every later read
