
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from smfpca import (
    DataMatrix,
    DegenerateSmoother,
    DimensionMismatch,
    InputError,
    InvalidFoldCount,
    ObservationSet,
    assemble,
    default_lambda_grid,
    fit,
    fit_component,
    gcv_select,
    initialize,
    kfold_select,
    make_folds,
    penalty_value,
    sphere_pc_functions,
    unit_sphere_mesh,
    vertex_locations,
)
from smfpca import estimator, selection, solver
from smfpca.fem import location_matrix
from smfpca.selection import kfold_select_missing
from smfpca.synth import (generate_eigen_dataset, generate_misaligned_dataset,
                          generate_sphere_dataset)


def dense_gcv_scores(ops, z, grid):
    """Oracle: GCV profile computed from the dense smoothing matrix
    S = psi (psi'psi + lam R1 R0^-1 R1)^-1 psi'."""
    P = ops.psi.toarray()
    R0 = ops.mass.toarray()
    R1 = ops.stiffness.toarray()
    s = P.shape[0]
    out = []
    for lam in grid:
        core = P.T @ P + lam * (R1 @ np.linalg.solve(R0, R1))
        S = P @ np.linalg.solve(core, P.T)
        resid = z - S @ z
        gap = 1.0 - np.trace(S) / s
        out.append((resid @ resid / s) / gap**2)
    return np.array(out)


def masked_set(ops, n, seed):
    ds = generate_sphere_dataset(ops.mesh, n, (4.0, 2.0), 0.3, seed)
    values = ds.X.values.copy()
    values[np.random.default_rng(seed).random(values.shape) < 0.2] = np.nan
    return ObservationSet.from_masked(values, vertex_locations(ops.mesh))


def masked_state(ops, n, seed):
    return estimator._MissingState(masked_set(ops, n, seed), ops)


def dense_kfold_oracle(X, grid, folds, ops, seed):
    """K-fold scores from a fresh fold view and a fresh warm start for
    every (candidate, fold) pair: the view holds the training rows of a
    new copy of X, whose Gram matrix the warm start forms anew."""
    assignments = make_folds(X.n, folds, seed)
    scores = []
    for lam in grid:
        system = solver.SaddleSystem(ops, estimator.data_gram(ops), lam)
        total = 0.0
        for val_rows in assignments:
            train_rows = np.setdiff1d(np.arange(X.n), val_rows)
            train = estimator._Fold(DataMatrix(X.values.copy()), train_rows)
            comp = fit_component(train, lam, ops, system=system)
            f_un = comp.function_norm * comp.f_coefficients
            g_un = comp.function_norm * comp.g_coefficients
            profile = ops.psi @ f_un
            denom = float(profile @ profile) + lam * penalty_value(g_un, ops)
            validation = X.values[val_rows]
            u_val = (validation @ profile) / denom
            resid = validation - np.outer(u_val, profile)
            total += float(np.dot(resid.ravel(), resid.ravel()))
        scores.append(total / (X.n * X.s))
    return np.array(scores)


def walk(scores, grid):
    """The descending walk's view of a full score list: candidates from
    the largest parameter down, through the first one that scores
    strictly above the best before it; the rest NaN."""
    walked = np.full(len(grid), np.nan)
    best = np.inf
    for j in sorted(range(len(grid)), key=lambda j: -grid[j]):
        walked[j] = scores[j]
        if scores[j] > best:
            break
        best = min(best, scores[j])
    return walked


def masked_kfold_oracle(obs, grid, folds, ops, seed):
    """Missing-data K-fold scores: each fold fits every candidate in
    descending order on a fresh training subset, the first from fresh
    initial scores and each later one from its predecessor's scores,
    and validates on each held-out function's own row selection of psi;
    the walk then keeps those it reaches."""
    state = estimator._MissingState(obs, ops)
    psi = location_matrix(ops.mesh, obs.locations)
    psis = [psi[rows] for rows, _ in obs.functions]
    values = [vals for _, vals in obs.functions]
    assignments = make_folds(state.n, folds, seed)
    totals = [0.0] * len(grid)
    for val_rows in assignments:
        train = state.subset(np.setdiff1d(np.arange(state.n), val_rows))
        start = estimator._initial_scores_missing(train)
        for j in sorted(range(len(grid)), key=lambda j: -grid[j]):
            lam = grid[j]
            comp = estimator._fit_component_missing(train, lam, ops, 15, 1e-6, start)
            start = comp.scores
            f_un = comp.function_norm * comp.f_coefficients
            pen = lam * penalty_value(comp.function_norm * comp.g_coefficients, ops)
            for i in val_rows:
                evaluated = psis[i] @ f_un
                u_i = float(values[i] @ evaluated) / (
                    float(evaluated @ evaluated) + pen
                )
                resid = values[i] - u_i * evaluated
                totals[j] += float(resid @ resid)
    counted = sum(len(vals) for vals in values)
    return walk(np.array(totals) / counted, grid)


def count_calls(monkeypatch, name):
    calls = []
    original = getattr(estimator, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(estimator, name, counting)
    return calls


# -- fold construction ------------------------------------------------


def test_make_folds_partitions():
    folds = make_folds(23, 5, seed=3)
    assert len(folds) == 5
    joined = np.sort(np.concatenate(folds))
    np.testing.assert_array_equal(joined, np.arange(23))
    sizes = sorted(len(f) for f in folds)
    assert sizes == [4, 4, 5, 5, 5]


def test_make_folds_leave_one_out():
    folds = make_folds(6, 6, seed=0)
    assert sorted(len(f) for f in folds) == [1] * 6


def test_make_folds_seeded():
    a = make_folds(40, 4, seed=9)
    b = make_folds(40, 4, seed=9)
    c = make_folds(40, 4, seed=10)
    for fa, fb in zip(a, b):
        np.testing.assert_array_equal(fa, fb)
    assert any(
        not np.array_equal(fa, fc) for fa, fc in zip(a, c)
    )


def test_make_folds_bounds():
    with pytest.raises(InvalidFoldCount):
        make_folds(10, 1, seed=0)
    with pytest.raises(InvalidFoldCount):
        make_folds(10, 11, seed=0)
    for seed in (-1, [3, -2]):
        with pytest.raises(InputError, match="seed"):
            make_folds(10, 2, seed=seed)


@pytest.mark.parametrize("bad", [2.5, 2.0, True, np.float64(3.0), np.True_])
def test_make_folds_takes_an_integer_count_only(bad):
    # 2.5 would split into 2 groups and True into 1, both silently
    with pytest.raises(InvalidFoldCount,
                       match=f"^fold count must be an integer, got {re.escape(repr(bad))}$"):
        make_folds(10, bad, seed=0)


def test_kfold_fit_takes_an_integer_fold_count_only(ops1):
    ds = generate_sphere_dataset(ops1.mesh, 10, (4.0, 2.0), 0.1, 2)
    with pytest.raises(InvalidFoldCount, match="got 2.5$"):
        fit(ds.X, 1, [1e-3, 1e-1], ops1, folds=2.5)
    for count in (np.int64(3), np.int8(3), np.uint16(3)):
        assert [len(f) for f in make_folds(10, count, seed=0)] == [4, 3, 3]


# -- K-fold selection -------------------------------------------------


def test_kfold_prefers_small_lambda_on_clean_rank_one(ops2):
    # rank-one noise-free data: any smoothing only biases the profile,
    # so the scores grow with lambda and the smallest candidate wins
    from smfpca.synth import sphere_pc_functions

    v1, _ = sphere_pc_functions(ops2.mesh)
    hits = 0
    grid = [1e-8, 1e-4, 1e-2, 1.0]
    for seed in range(10):
        rng = np.random.default_rng(seed)
        X = DataMatrix(np.outer(4.0 * rng.standard_normal(24), v1))
        trace = kfold_select(X, grid, 4, ops2, seed=seed)
        hits += trace.chosen == 0
        assert np.all(np.diff(trace.scores) > 0)
    assert hits >= 9


def test_kfold_smooths_away_sampling_admixture(ops2):
    # 2-component data with no observation noise: finite-sample score
    # correlation leaks the rougher field into the leading profile, and
    # a moderate candidate beats both grid ends by suppressing it
    grid = [1e-8, 1e-2, 10.0]
    wins = 0
    for seed in range(6):
        ds = generate_sphere_dataset(ops2.mesh, 24, (4.0, 2.0), 0.0, seed)
        trace = kfold_select(ds.X, grid, 4, ops2, seed=seed)
        wins += trace.chosen == 1
    assert wins >= 5


def test_kfold_interior_minimum_under_noise(ops2):
    # noisy data must push the choice off the undersmoothed end
    grid = np.logspace(-9, 0, 10)
    interior = 0
    for seed in range(12):
        ds = generate_sphere_dataset(ops2.mesh, 30, (4.0, 2.0), 0.8, 100 + seed)
        trace = kfold_select(ds.X, grid, 5, ops2, seed=seed)
        interior += 0 < trace.chosen < len(grid) - 1
    assert interior >= 9


def test_kfold_trace_contents(ops1):
    ds = generate_sphere_dataset(ops1.mesh, 15, (4.0, 2.0), 0.1, 2)
    grid = [1e-6, 1e-3, 1.0]
    trace = kfold_select(ds.X, grid, 3, ops1, seed=1)
    assert trace.method == "kfold"
    assert trace.scores.shape == (3,)
    assert np.isfinite(trace.scores).all()
    assert trace.chosen == int(np.argmin(trace.scores))


def test_kfold_checks_folds_before_factoring(ops1, monkeypatch):
    # a bad fold count or grid is reported before any candidate is factored
    def no_factoring(*args, **kwargs):
        raise AssertionError("factored before the arguments were checked")

    monkeypatch.setattr(solver.SaddleSystem, "__init__", no_factoring)
    ds = generate_sphere_dataset(ops1.mesh, 10, (4.0, 2.0), 0.1, 2)
    with pytest.raises(InvalidFoldCount):
        kfold_select(ds.X, [1e-3, 1.0], 1, ops1)
    with pytest.raises(InputError, match="positive"):
        kfold_select(ds.X, [1e-3, -1.0], 5, ops1)
    with pytest.raises(InvalidFoldCount):
        fit(ds.X, 1, [1e-3, 1.0], ops1, folds=11)


@pytest.mark.parametrize("method", ["kfold", "gcv"])
def test_fit_factors_each_candidate_once(ops2, monkeypatch, method):
    # one store serves every component, fold and alternation of a fit
    factored = []
    init = solver.SaddleSystem.__init__

    def counted(self, *args):
        factored.append(args[-1])
        init(self, *args)

    monkeypatch.setattr(solver.SaddleSystem, "__init__", counted)
    ds = generate_sphere_dataset(ops2.mesh, 20, (4.0, 2.0), 0.3, 8)
    grid = [1e-4, 1e-2, 1e-4, 1.0]
    fit(ds.X, 2, grid, ops2, selection=method, folds=4)
    assert sorted(factored) == [1e-4, 1e-2, 1.0]


def test_kfold_deterministic_and_seed_sensitive(ops1):
    ds = generate_sphere_dataset(ops1.mesh, 20, (4.0, 2.0), 0.3, 3)
    grid = [1e-6, 1e-3, 1.0]
    a = kfold_select(ds.X, grid, 5, ops1, seed=4)
    b = kfold_select(ds.X, grid, 5, ops1, seed=4)
    c = kfold_select(ds.X, grid, 5, ops1, seed=5)
    np.testing.assert_array_equal(a.scores, b.scores)
    assert not np.array_equal(a.scores, c.scores)


def test_kfold_matches_per_pair_oracle_bitwise(ops1):
    ds = generate_sphere_dataset(ops1.mesh, 20, (4.0, 2.0), 0.3, 21)
    grid = [1e-6, 1e-3, 1e-1, 10.0]
    trace = kfold_select(ds.X, grid, 4, ops1, seed=2)
    oracle = dense_kfold_oracle(ds.X, grid, 4, ops1, seed=2)
    np.testing.assert_array_equal(trace.scores, oracle)


def one_point_scores(X, grid, folds, ops, seed):
    """Oracle for the dense walk: each candidate scored alone on a
    one-point grid (a dense score does not depend on the other
    candidates)."""
    return np.array([
        kfold_select(X, [lam], folds, ops, seed=seed).scores[0] for lam in grid
    ])


@pytest.mark.parametrize("grid, walked, chosen", [
    # from 10 down to 1e-3, one past the minimum at 1e-2
    (np.logspace(-8, 1, 10), [False] * 5 + [True] * 5, 6),
    # the minimum is the smallest candidate: every candidate is scored
    ([10.0, 1e-2, 1.0, 1e-1], [True] * 4, 1),
    ([1e-2], [True], 0),
])
def test_kfold_walk_matches_one_point_oracle_bitwise(ops1, grid, walked, chosen):
    ds = generate_sphere_dataset(ops1.mesh, 20, (4.0, 2.0), 0.3, 21)
    trace = kfold_select(ds.X, grid, 4, ops1, seed=2)
    oracle = one_point_scores(ds.X, grid, 4, ops1, seed=2)
    scored = ~np.isnan(trace.scores)
    assert scored.tolist() == walked
    np.testing.assert_array_equal(trace.scores[scored], oracle[scored])
    assert trace.chosen == int(np.argmin(oracle)) == chosen


def test_kfold_walk_goes_on_through_ties_and_keeps_the_first(ops1):
    # a duplicated parameter scores the same bitwise: the walk goes on past
    # the tie and the first index wins
    ds = generate_sphere_dataset(ops1.mesh, 20, (4.0, 2.0), 0.3, 21)
    grid = [1.0, 1e-2, 1e-1, 1e-2, 1e-3, 1e-4]
    trace = kfold_select(ds.X, grid, 4, ops1, seed=2)
    assert trace.scores[1] == trace.scores[3]
    assert np.isnan(trace.scores).tolist() == [False] * 5 + [True]
    assert trace.scores[4] > trace.scores[1]
    assert trace.chosen == 1


def test_fit_kfold_factors_only_walked_candidates(ops1, monkeypatch):
    # the fit's store factors each walked candidate once, which includes
    # every chosen one, and never a candidate the walks left unscored
    factored = []
    init = solver.SaddleSystem.__init__

    def counted(self, *args):
        factored.append(args[-1])
        init(self, *args)

    monkeypatch.setattr(solver.SaddleSystem, "__init__", counted)
    ds = generate_sphere_dataset(ops1.mesh, 20, (4.0, 2.0), 0.3, 21)
    grid = np.logspace(-8, 1, 10)
    result = fit(ds.X, 2, grid, ops1, selection="kfold", folds=4)
    walked = {
        float(lam) for trace in result.selection_traces
        for lam, score in zip(trace.lambda_grid, trace.scores)
        if not np.isnan(score)
    }
    assert {comp.lam for comp in result.components} <= walked
    assert sorted(factored) == sorted(walked)
    assert len(factored) < len(grid)


def test_kfold_fit_holds_no_fold_copies(ops3):
    # folds are row indices into the working matrix: a K-fold fit on a
    # one-point grid (n <= K) peaks less than 1.5 data matrices above the
    # fixed fit at its parameter; fold copies of the training and
    # validation rows would add about 5
    ds = generate_sphere_dataset(ops3.mesh, 40, (4.0, 2.0), 0.1, 5)
    assert ds.X.n <= ds.X.s

    def peak(method):
        tracemalloc.start()
        try:
            fit(ds.X, 2, [1e-3], ops3, selection=method, folds=5)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    fit(ds.X, 2, [1e-3], ops3, selection="kfold", folds=5)  # the operators' caches
    assert peak("kfold") - peak("fixed") < 1.5 * ds.X.values.nbytes


@pytest.mark.parametrize("n_components", [1, 2])
def test_last_kfold_walk_factors_beside_the_best_alone(ops1, monkeypatch,
                                                       n_components):
    # during the fit's last walk each factorization finds only the running
    # best's factor alive beside it, and no walked lambda is factored twice
    live, alive, walks = weakref.WeakSet(), [], []
    init, walk = solver.SaddleSystem.__init__, selection.kfold_select

    def counted(self, *args):
        init(self, *args)
        live.add(self)
        alive.append((len(walks), args[-1], len(live)))

    def counted_walk(*args, **kwargs):
        walks.append(None)
        return walk(*args, **kwargs)

    monkeypatch.setattr(solver.SaddleSystem, "__init__", counted)
    monkeypatch.setattr(selection, "kfold_select", counted_walk)
    ds = generate_sphere_dataset(ops1.mesh, 20, (4.0, 2.0), 0.3, 21)
    fit(ds.X, n_components, np.logspace(-8, 1, 10), ops1, selection="kfold", folds=4)
    last = [count for walk_index, _, count in alive if walk_index == n_components]
    assert last and max(last) <= 2
    lams = [lam for _, lam, _ in alive]
    assert len(lams) == len(set(lams))


def test_kfold_missing_matches_per_pair_oracle_bitwise(ops1):
    obs = masked_set(ops1, 20, 22)
    grid = [1e-6, 1e-3, 1e-8, 1e-1, 10.0]
    trace = kfold_select_missing(estimator._MissingState(obs, ops1), grid, 4, ops1, seed=3)
    oracle = masked_kfold_oracle(obs, grid, 4, ops1, seed=3)
    # NaN in the same places: the walk stops past the minimum at 1e-3
    np.testing.assert_array_equal(trace.scores, oracle)
    assert np.isnan(trace.scores).tolist() == [False, False, True, False, False]
    assert trace.chosen == 1


def test_explicit_warm_start_is_bitwise_default(ops1):
    ds = generate_sphere_dataset(ops1.mesh, 15, (4.0, 2.0), 0.3, 23)
    default = fit_component(ds.X, 1e-3, ops1)
    started = fit_component(ds.X, 1e-3, ops1, start=initialize(ds.X))
    state = masked_state(ops1, 15, 23)
    start = estimator._initial_scores_missing(state)
    masked_default = estimator._fit_component_missing(state, 1e-3, ops1, 15, 1e-6)
    masked_started = estimator._fit_component_missing(
        state, 1e-3, ops1, 15, 1e-6, start
    )
    for a, b in ((default, started), (masked_default, masked_started)):
        np.testing.assert_array_equal(a.scores, b.scores)
        np.testing.assert_array_equal(a.f_coefficients, b.f_coefficients)
        np.testing.assert_array_equal(a.g_coefficients, b.g_coefficients)
        assert a.lam == b.lam
        assert a.function_norm == b.function_norm
        assert a.iterations == b.iterations
        assert a.objective_trace == b.objective_trace


def test_kfold_missing_continues_in_descending_lambda(ops1, monkeypatch):
    # within a fold, each candidate starts from the scores its predecessor
    # in descending order converged to, the first from the fold's start;
    # the chain ends one candidate past the minimum
    chains, starts = {}, {}
    fit_one = estimator._fit_component_missing
    initial = estimator._initial_scores_missing

    def spy_fit(state, lam, ops, max_iterations, tolerance, start=None):
        component = fit_one(state, lam, ops, max_iterations, tolerance, start)
        chains[id(state)].append((lam, start, component.scores))
        return component

    def spy_initial(state):
        starts[id(state)] = initial(state)
        chains[id(state)] = []
        return starts[id(state)]

    monkeypatch.setattr(estimator, "_fit_component_missing", spy_fit)
    monkeypatch.setattr(estimator, "_initial_scores_missing", spy_initial)
    grid = [1e-2, 1e-6, 1.0, 1e-4]
    trace = kfold_select_missing(masked_state(ops1, 15, 27), grid, 3, ops1, seed=0)
    assert trace.lambda_grid[trace.chosen] == 1e-2
    assert len(chains) == 3
    for fold, chain in chains.items():
        assert [lam for lam, _, _ in chain] == [1.0, 1e-2, 1e-4]
        assert chain[0][1] is starts[fold]
        for (_, _, previous), (_, start, _) in zip(chain, chain[1:]):
            assert start is previous


@pytest.mark.parametrize("grid", [[1e-3], [1e-6, 1e-4, 1e-2, 1.0]])
def test_kfold_warm_start_once_per_fold(ops1, monkeypatch, grid):
    calls = count_calls(monkeypatch, "initialize")
    ds = generate_sphere_dataset(ops1.mesh, 15, (4.0, 2.0), 0.3, 24)
    kfold_select(ds.X, grid, 3, ops1, seed=0)
    assert len(calls) == 3


@pytest.mark.parametrize("grid", [[1e-3], [1e-6, 1e-4, 1e-2, 1.0]])
def test_kfold_missing_warm_start_once_per_fold(ops1, monkeypatch, grid):
    calls = count_calls(monkeypatch, "_initial_scores_missing")
    state = masked_state(ops1, 15, 25)
    kfold_select_missing(state, grid, 3, ops1, seed=0)
    assert len(calls) == 3


def test_fit_kfold_warm_starts_per_component(ops1, monkeypatch):
    # each component: one warm start per fold, one for the final fit
    calls = count_calls(monkeypatch, "initialize")
    ds = generate_sphere_dataset(ops1.mesh, 15, (4.0, 2.0), 0.3, 26)
    fit(ds.X, 2, [1e-6, 1e-3, 1.0], ops1, selection="kfold", folds=4)
    assert len(calls) == 2 * (4 + 1)


def test_kfold_rejects_bad_grid(ops1):
    ds = generate_sphere_dataset(ops1.mesh, 10, (4.0, 2.0), 0.1, 7)
    with pytest.raises(InputError):
        kfold_select(ds.X, [], 3, ops1)
    with pytest.raises(InputError):
        kfold_select(ds.X, [0.0, 1.0], 3, ops1)


# -- GCV selection ----------------------------------------------------


def one_point_gcv(X, u, grid, ops):
    """Oracle for the GCV walk: each candidate scored alone on a
    one-point grid (a candidate's score does not depend on the others)."""
    return np.array([gcv_select(X, u, [lam], ops).scores[0] for lam in grid])


def test_gcv_matches_dense_oracle(ops1):
    # On the 42-vertex icosphere the curve over np.logspace(-8, 2, 11)
    # rises below its top (2.354, 2.365, 2.392 times its minimum), then
    # falls to that minimum at the bottom. A walk's best at the top
    # brackets no minimum, so every candidate is scored
    ds = generate_sphere_dataset(ops1.mesh, 25, (4.0, 2.0), 0.2, 8)
    rng = np.random.default_rng(9)
    u = rng.standard_normal(25)
    u /= np.linalg.norm(u)
    for grid in (np.array([1e-4, 1e-2, 1.0]), np.logspace(-8, 2, 11)):
        trace = gcv_select(ds.X, u, grid, ops1)
        oracle = dense_gcv_scores(ops1, ds.X.values.T @ u, grid)
        np.testing.assert_allclose(trace.scores, oracle, rtol=1e-8)
        assert trace.chosen == int(np.argmin(oracle)) == 0
    assert oracle[-1] < oracle[-2]


def test_gcv_walk_matches_dense_oracle(ops2):
    ds = generate_sphere_dataset(ops2.mesh, 25, (4.0, 2.0), 0.2, 8)
    rng = np.random.default_rng(9)
    u = rng.standard_normal(25)
    u /= np.linalg.norm(u)
    for grid, walked in (
            # from 1e2 down to 1e-4, one past the minimum at 1e-3
            (np.logspace(-8, 2, 11), [False] * 4 + [True] * 7),
            # the minimum is the smallest candidate: every one is scored
            (np.array([1e-4, 1e-2, 1.0]), [True] * 3),
            # a duplicated minimum scores the same bitwise: the walk goes
            # on past the tie and the first index wins
            (np.array([1e2, 1e-3, 1e-2, 1e-3, 1e-4, 1e-5]), [True] * 5 + [False])):
        trace = gcv_select(ds.X, u, grid, ops2)
        oracle = dense_gcv_scores(ops2, ds.X.values.T @ u, grid)
        scored = ~np.isnan(trace.scores)
        assert scored.tolist() == walked
        np.testing.assert_array_equal(np.isnan(walk(oracle, grid)), ~scored)
        np.testing.assert_allclose(trace.scores[scored], oracle[scored], rtol=1e-8)
        alone = one_point_gcv(ds.X, u, grid, ops2)
        np.testing.assert_array_equal(trace.scores[scored], alone[scored])
        assert trace.chosen == int(np.argmin(oracle)) == int(np.argmin(alone))
        for values in (trace.trace_values, trace.trace_errors, trace.trace_probes):
            assert np.isnan(values).tolist() == (~scored).tolist()


def test_gcv_walk_keeps_the_larger_lambda_of_two_minima(ops2):
    # a smooth field (degree 1), a rough one (degree 8) and noise: the
    # curve falls to a local minimum at 10^-0.5, where the rough field is
    # smoothed away, rises, then falls lower once the rough field is kept.
    # The walk stops one past the first minimum and keeps it, as the
    # K-fold walk does; the full grid's choice is the smallest candidate
    x, y, height = ops2.mesh.vertices.T
    rough = ((x + 1j * y) ** 8).real
    noise = np.random.default_rng(0).standard_normal(ops2.location_count)
    z = 3.0 * height + rough / np.sqrt(np.mean(rough ** 2)) + 0.3 * noise
    grid = np.logspace(-8, 2, 21)
    oracle = dense_gcv_scores(ops2, z, grid)
    assert oracle[15] < min(oracle[14], oracle[16]) and int(np.argmin(oracle)) < 14
    trace = gcv_select(DataMatrix(z[None, :]), [1.0], grid, ops2)
    assert (~np.isnan(trace.scores)).tolist() == [False] * 14 + [True] * 7
    np.testing.assert_allclose(trace.scores[14:], oracle[14:], rtol=1e-8)
    assert trace.chosen == 15


def test_fit_gcv_factors_only_walked_candidates(ops2, monkeypatch):
    # across the alternations' walks, the fit's store factors and traces
    # each walked candidate once, which includes every chosen one, and
    # never a candidate no walk reached
    factored, traced, selections = [], [], []
    init, smoother_trace = solver.SaddleSystem.__init__, selection._smoother_trace

    def counted_init(self, *args):
        factored.append(args[-1])
        init(self, *args)

    def counted_trace(system, *args):
        traced.append(system.lam)
        return smoother_trace(system, *args)

    def recorded(*args, **kwargs):
        selections.append(gcv_select(*args, **kwargs))
        return selections[-1]

    monkeypatch.setattr(solver.SaddleSystem, "__init__", counted_init)
    monkeypatch.setattr(selection, "_smoother_trace", counted_trace)
    monkeypatch.setattr(selection, "gcv_select", recorded)
    ds = generate_sphere_dataset(ops2.mesh, 20, (4.0, 2.0), 0.3, 21)
    grid = default_lambda_grid(ops2)
    result = fit(ds.X, 2, grid, ops2, selection="gcv")
    walked = {
        float(lam) for trace in selections
        for lam, score in zip(trace.lambda_grid, trace.scores)
        if not np.isnan(score)
    }
    assert len(selections) == sum(c.iterations for c in result.components)
    assert {comp.lam for comp in result.components} <= walked
    assert sorted(factored) == sorted(traced) == sorted(walked)
    assert len(factored) < len(grid)


def test_gcv_sign_invariant(ops1):
    ds = generate_sphere_dataset(ops1.mesh, 25, (4.0, 2.0), 0.2, 10)
    u = np.ones(25) / 5.0
    grid = [1e-3, 1e-1]
    a = gcv_select(ds.X, u, grid, ops1)
    b = gcv_select(ds.X, -u, grid, ops1)
    np.testing.assert_allclose(a.scores, b.scores, rtol=1e-12)


def test_gcv_saturated_smoother_scores_inf(ops1):
    # with vertex sampling and negligible smoothing the smoother matrix
    # approaches the identity and the denominator collapses
    ds = generate_sphere_dataset(ops1.mesh, 12, (4.0, 2.0), 0.1, 11)
    u = np.ones(12) / np.sqrt(12.0)
    with pytest.warns(UserWarning):
        trace = gcv_select(ds.X, u, [1e-15, 1e-2], ops1)
    assert np.isinf(trace.scores[0])
    assert np.isfinite(trace.scores[1])
    assert trace.chosen == 1


def test_gcv_all_saturated_raises(ops1):
    ds = generate_sphere_dataset(ops1.mesh, 12, (4.0, 2.0), 0.1, 12)
    u = np.ones(12) / np.sqrt(12.0)
    with pytest.warns(UserWarning):
        with pytest.raises(DegenerateSmoother):
            gcv_select(ds.X, u, [1e-16, 1e-15], ops1)


def test_gcv_large_lambda_analytic_limit(ops2):
    # S collapses onto the constants, so trace(S) -> 1 and the score
    # tends to the centered residual formula
    ds = generate_sphere_dataset(ops2.mesh, 20, (4.0, 2.0), 0.1, 13)
    rng = np.random.default_rng(14)
    u = rng.standard_normal(20)
    u /= np.linalg.norm(u)
    z = ds.X.values.T @ u
    s = z.size
    trace = gcv_select(ds.X, u, [1e10], ops2)
    # the projector weights vertices by lumped mass, not uniformly
    w = np.asarray(ops2.mass.sum(axis=1)).ravel()
    zbar = (w * z).sum() / w.sum()
    resid = z - zbar
    expected = (resid @ resid / s) / (1.0 - 1.0 / s) ** 2
    assert trace.scores[0] == pytest.approx(expected, rel=1e-4)


def test_gcv_hutchinson_close_to_exact(ops2, monkeypatch):
    ds = generate_sphere_dataset(ops2.mesh, 16, (4.0, 2.0), 0.3, 15)
    rng = np.random.default_rng(16)
    u = rng.standard_normal(16)
    u /= np.linalg.norm(u)
    grid = [1e-3]
    exact = gcv_select(ds.X, u, grid, ops2)
    monkeypatch.setattr(selection, "EXACT_TRACE_LIMIT", 1)
    # one block of 256 probes
    monkeypatch.setattr(selection, "_PROBE_BLOCK", 256)
    monkeypatch.setattr(selection, "_PROBE_CAP", 256)
    stochastic = gcv_select(ds.X, u, grid, ops2)
    assert stochastic.scores[0] != exact.scores[0]  # the estimate was used
    assert stochastic.scores[0] == pytest.approx(exact.scores[0], rel=0.1)


def test_gcv_trace_cache_reused(ops1):
    ds = generate_sphere_dataset(ops1.mesh, 10, (4.0, 2.0), 0.1, 17)
    u = np.ones(10) / np.sqrt(10.0)
    store = selection._Systems(ops1)
    gcv_select(ds.X, u, [1e-3, 1e-1], ops1, systems=store)
    assert set(store.traces) == set(store) == {1e-3, 1e-1}
    primed = {lam: trace.value for lam, trace in store.traces.items()}
    gcv_select(ds.X, u, [1e-3, 1e-1], ops1, systems=store)
    assert {lam: trace.value for lam, trace in store.traces.items()} == primed


def test_gcv_exact_traces_report_no_error(ops1):
    ds = generate_sphere_dataset(ops1.mesh, 10, (4.0, 2.0), 0.1, 17)
    u = np.ones(10) / np.sqrt(10.0)
    trace = gcv_select(ds.X, u, [1e-3, 1e-1], ops1)
    assert (trace.trace_errors == 0).all()
    assert (trace.trace_probes == 0).all()
    assert (0 < trace.trace_values).all()
    assert (trace.trace_values < ops1.location_count).all()


# -- GCV with adaptive Hutchinson probing ------------------------------


def gcv_case(ops, seed):
    ds = generate_sphere_dataset(ops.mesh, 16, (4.0, 2.0), 0.3, seed)
    u = np.random.default_rng(seed + 1).standard_normal(16)
    return ds.X, u / np.linalg.norm(u)


@pytest.fixture
def stochastic_traces(monkeypatch):
    monkeypatch.setattr(selection, "EXACT_TRACE_LIMIT", 1)


@pytest.mark.parametrize("seed", [15, 16, 22])
def test_gcv_probe_counts_are_whole_blocks(ops2, stochastic_traces, seed):
    X, u = gcv_case(ops2, seed)
    grid = default_lambda_grid(ops2)
    trace = gcv_select(X, u, grid, ops2)
    scored = ~np.isnan(trace.scores)
    # a top-down run of the grid that stops before its bottom
    assert scored.tolist() == sorted(scored.tolist()) and not scored.all()
    assert set(trace.trace_probes[scored]) <= {16, 32, 48, 64}
    assert (trace.trace_errors[scored] > 0).all()
    for values in (trace.trace_values, trace.trace_errors, trace.trace_probes):
        assert np.isnan(values).tolist() == (~scored).tolist()
    # the neighbours of the choice needed more than one block
    assert np.nanmax(trace.trace_probes) > 16


@pytest.mark.parametrize("seed", [15, 16, 17, 18, 19, 22, 23])
@pytest.mark.parametrize("fine", [False, True])
def test_gcv_walk_ends_on_a_clear_or_capped_rise(ops2, stochastic_traces, seed,
                                                 fine):
    # the candidate that ends the walk scores above the choice, and every
    # scored candidate stands 3 standard errors clear of the choice or
    # both hold the cap of 64 probes. On the fine grid, 13 points within
    # a factor 3 of the default grid's choice, neighbouring scores differ
    # by less than their errors: a rise is refined, and compared again,
    # before it ends the walk
    X, u = gcv_case(ops2, seed)
    grid = default_lambda_grid(ops2)
    if fine:
        grid = grid[gcv_select(X, u, grid, ops2).chosen] * np.geomspace(1 / 3, 3, 13)
    trace = gcv_select(X, u, grid, ops2)
    s, best = ops2.location_count, trace.chosen
    scored = np.flatnonzero(~np.isnan(trace.scores))
    gap = 1.0 - trace.trace_values / s
    spread = 3.0 * trace.scores * 2.0 * trace.trace_errors / (s * gap)
    last = scored[0]  # the grid ascends
    assert trace.scores[last] > trace.scores[best]
    for j in scored[scored != best]:
        clear = trace.scores[j] - spread[j] > trace.scores[best] + spread[best]
        assert clear or trace.trace_probes[[j, best]].tolist() == [64, 64]


@pytest.mark.parametrize("seed", [15, 16, 17, 18, 19])
def test_gcv_adaptive_choice_matches_full_probing(ops2, stochastic_traces,
                                                  monkeypatch, seed):
    X, u = gcv_case(ops2, seed)
    grid = default_lambda_grid(ops2)
    adaptive = gcv_select(X, u, grid, ops2)
    monkeypatch.setattr(selection, "_PROBE_BLOCK", 64)
    full = gcv_select(X, u, grid, ops2)
    scored = ~np.isnan(full.scores)
    assert (full.trace_probes[scored] == 64).all()
    # with every trace at the cap, a score does not depend on the others:
    # the walk's scores are the one-point grids' and its choice the full
    # grid's
    alone = one_point_gcv(X, u, grid, ops2)
    np.testing.assert_array_equal(full.scores[scored], alone[scored])
    np.testing.assert_array_equal(np.isnan(walk(alone, grid)), ~scored)
    assert full.chosen == int(np.argmin(alone))
    assert adaptive.chosen == full.chosen


def test_gcv_tied_candidates_refine_to_the_cap(ops2, stochastic_traces):
    X, u = gcv_case(ops2, 15)
    store = selection._Systems(ops2)
    trace = gcv_select(X, u, [1e-3, 1e-3], ops2, systems=store)
    assert trace.scores[0] == trace.scores[1]
    assert list(trace.trace_probes) == [64, 64]
    assert store.traces[1e-3].probes == 64


def test_gcv_capped_trace_matches_direct_hutchinson(ops2, stochastic_traces):
    X, u = gcv_case(ops2, 15)
    store = selection._Systems(ops2)
    gcv_select(X, u, [1e-3, 1e-3], ops2, systems=store)
    s = ops2.location_count
    signs = np.random.default_rng(1899).integers(0, 2, size=(s, 64)) * 2.0 - 1.0
    system = solver.SaddleSystem(ops2, estimator.data_gram(ops2), 1e-3)
    f_block, _ = system.solve_many(ops2.psi.T @ signs)
    direct = float(np.einsum("sk,sk->", signs, ops2.psi @ f_block)) / 64
    assert store.traces[1e-3].value == pytest.approx(direct, rel=1e-12)



def test_gcv_names_operators_for_other_locations(ops1, ops2):
    ds = generate_sphere_dataset(ops1.mesh, 10, (4.0, 2.0), 0.1, 2)
    with pytest.raises(DimensionMismatch,
                       match="^data has 42 columns but operators hold 162 locations$"):
        gcv_select(ds.X, np.full(10, 10 ** -0.5), [1e-3, 1e-1], ops2)


# -- the walks against a full sweep -----------------------------------


def walk_case(name, mesh, seed):
    """The centred data of one generator with the command line's
    defaults, n=50."""
    if name == "sphere":
        ds = generate_sphere_dataset(mesh, 50, (4.0, 2.0), 0.1, seed)
    elif name == "misaligned":
        ds = generate_misaligned_dataset(mesh, 50, 4.0, (0.0, 0.4), seed)
    else:
        ds = generate_eigen_dataset(mesh, [1, 2, 3], (5.0, 3.0, 1.0), 50, 0.1, seed)
    return DataMatrix(ds.X.values - ds.X.values.mean(axis=0))


@pytest.mark.parametrize("name, level, seed", [
    *((name, level, seed) for level in (1, 2) for seed in (1, 2, 3)
      for name in ("sphere", "misaligned", "eigen") if (name, level) != ("eigen", 1)),
    ("sphere", 3, 1), ("misaligned", 3, 1), ("eigen", 3, 1),
])
def test_walks_choose_as_a_full_sweep(request, name, level, seed):
    # Both walks, on the default grid, stop one past the first rise; on
    # these data the curve has no lower minimum below it, so the walk
    # chooses the full sweep's argmin. A dense candidate's score does
    # not depend on the others, so one-point calls give the sweep; GCV
    # traces are exact at these location counts
    ops = request.getfixturevalue(f"ops{level}")
    assert ops.location_count <= selection.EXACT_TRACE_LIMIT
    X = walk_case(name, ops.mesh, seed)
    grid = default_lambda_grid(ops)
    u = estimator.score_step(X, initialize(X))  # the first alternation's scores
    for walked, sweep in (
            (kfold_select(X, grid, 5, ops, seed=[seed, 0]),
             [kfold_select(X, [lam], 5, ops, seed=[seed, 0]).scores[0] for lam in grid]),
            (gcv_select(X, u, grid, ops), one_point_gcv(X, u, grid, ops))):
        sweep = np.asarray(sweep)
        scored = ~np.isnan(walked.scores)
        assert walked.chosen == int(np.argmin(sweep)), walked.method
        assert (walked.scores[scored].view(np.int64)
                == sweep[scored].view(np.int64)).all(), walked.method




# -- default grid -----------------------------------------------------


def test_default_grid_shape(ops2):
    grid = default_lambda_grid(ops2)
    assert grid.shape == (13,)
    assert (grid > 0).all()
    ratios = grid[1:] / grid[:-1]
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-10)
    assert grid[-1] / grid[0] == pytest.approx(1e8, rel=1e-6)


def test_default_grid_scales_with_mesh(ops1, ops3):
    # finer meshes stiffen the penalty, pulling the grid downward
    g1 = default_lambda_grid(ops1)
    g3 = default_lambda_grid(ops3)
    assert g3[0] < g1[0]


@pytest.mark.xfail(strict=True, reason=(
    "the default grid falls 4x per level while the K-fold optimum does "
    "not; component 1 takes the top point from level 3 up"))
def test_default_grid_kfold_choice_is_interior():
    # seed-1 sphere-harmonic data as the benchmark makes them: scores
    # whitened to sample covariance diag(16, 4), noise 0.1, n=50
    for level in (2, 3, 4, 5):
        mesh = unit_sphere_mesh(level)
        ops = assemble(mesh, vertex_locations(mesh))
        fields = np.stack(sphere_pc_functions(mesh), axis=1)
        rng = np.random.default_rng(1)
        raw = rng.standard_normal((50, 2))
        frame, tri = np.linalg.qr(raw - raw.mean(axis=0))
        scores = frame * np.sign(np.diag(tri)) * (4.0, 2.0) * np.sqrt(50)
        values = scores @ fields.T + 0.1 * rng.standard_normal((50, mesh.K))
        grid = default_lambda_grid(ops)
        result = fit(DataMatrix(values), 2, grid, ops, selection="kfold")
        chosen = [trace.chosen for trace in result.selection_traces]
        assert all(0 < j < len(grid) - 1 for j in chosen), (level, chosen)
