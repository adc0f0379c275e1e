"""Smoothing-parameter selection: K-fold cross-validation and GCV.

K-fold selection partitions the functions (data rows) into seeded,
near-equal groups, fits each candidate parameter on the training rows,
and scores validation rows with unnormalized scores computed from the
unnormalized fitted profile. GCV scores the smoothing of the projected
data vector through the trace of the smoother matrix, computed exactly
by blocked solves for moderate location counts and by a seeded
Hutchinson estimator beyond that, whose probes are solved in blocks
until the choice is clear of the estimate's error. Both selectors score
through one walk, `_walk`: from the largest parameter down, stopping one
past the first rise, so that candidates below the minimum are neither
factored nor scored.
"""

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from . import estimator, solver
from .errors import DegenerateSmoother, DimensionMismatch, InputError, InvalidFoldCount
from .fem import FemOperators

# Above this location count, exact smoother traces give way to a
# stochastic estimate: Hutchinson probes, solved a block at a time until
# the GCV choice stands _SEPARATION standard errors clear of every other
# scored candidate, or the candidates still in doubt hold _PROBE_CAP
# probes.
EXACT_TRACE_LIMIT = 2000
_PROBE_BLOCK = 16
_PROBE_CAP = 64
_SEPARATION = 3.0
_TRACE_BLOCK = 512


@dataclass(eq=False)
class SelectionTrace:
    """Grid, scores, and choice of one selection run.

    ``chosen`` is the index of the smallest score (first index on
    ties). Both selectors score only the candidates their walk reaches
    (see `kfold_select` and `gcv_select`) and leave the others NaN,
    written as null in the result document; ``chosen`` is then the
    smallest scored one. For per-iteration GCV, ``history`` lists the
    parameter chosen at each alternation, and the scores are the last
    alternation's walk; the last entry is the one kept. GCV also records
    each scored candidate's smoother trace, its standard error and its
    probe count (both 0 when the trace is exact), NaN where unscored;
    these stay out of the result document.
    """

    lambda_grid: np.ndarray
    scores: np.ndarray
    chosen: int
    method: str
    history: list = None
    trace_values: np.ndarray = None
    trace_errors: np.ndarray = None
    trace_probes: np.ndarray = None


def make_folds(n: int, folds: int, seed):
    """Seeded partition of ``range(n)`` into near-equal groups; ``seed``
    is a non-negative integer or a sequence of them."""
    estimator._check_count("fold count", folds, InvalidFoldCount)
    if not 2 <= folds <= n:
        raise InvalidFoldCount(
            f"fold count must lie in [2, {n}] for {n} functions, got {folds}"
        )
    if seed is not None and np.min(seed) < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    perm = np.random.default_rng(seed).permutation(n)
    return np.array_split(perm, folds)


class _Systems(dict):
    """The candidates of one dense fit: their factored systems, keyed by
    lambda, over one psi' psi block. One fit owns the store and no
    second thread reaches it. A candidate is factored on its first
    lookup and kept while a later lookup of the fit may read it: a
    K-fold walk tells `release` what that is, and during the fit's last
    walk (``last_walk``: `fit` sets it per component, and a new store's
    one walk is its last) every other factor is dropped. Earlier walks keep
    theirs for the components after them, and GCV, which walks again
    from the top at every alternation, keeps every factor it makes.
    ``traces`` holds each candidate's GCV smoother trace (a `_Trace`)."""

    def __init__(self, ops: FemOperators):
        super().__init__()
        self.ops = ops
        self.gram = estimator.data_gram(ops)
        self.last_walk = True
        self.traces = {}

    def __missing__(self, lam):
        self[lam] = system = solver.SaddleSystem(self.ops, self.gram, lam)
        return system

    def release(self, keep):
        """Drop every factor whose parameter is not in ``keep`` when the
        walk is the fit's last; no later lookup reads those."""
        if self.last_walk:
            for lam in [lam for lam in self if lam not in keep]:
                del self[lam]


def default_lambda_grid(ops: FemOperators):
    """Thirteen log-spaced values, 1e-6 to 1e2 times a scale.

    The scale is the data-term trace, trace(psi' psi), over a
    lumped-mass surrogate of the penalty-term trace,
    trace(R1 diag(R0 1)^-1 R1). It does not follow the bias-variance
    transition across resolutions: for data at the vertices the first
    trace is K and the second grows like K^2 under refinement, so on
    icospheres the grid falls 4x per level (top point 0.135 at level 3,
    0.0338 at level 4, 0.00845 at level 5), and dense K-fold fits of
    smooth sphere data choose the top point from level 3 up.
    """
    data_trace = float((ops.psi.data ** 2).sum())
    lumped = np.asarray(ops.mass.sum(axis=1)).ravel()
    squared = ops.stiffness.copy()
    squared.data = squared.data ** 2
    column_sums = np.asarray(squared.sum(axis=0)).ravel()
    penalty_trace = float((column_sums / lumped).sum())
    if penalty_trace <= 0 or data_trace <= 0:
        raise InputError("operators give a degenerate grid scale")
    scale = data_trace / penalty_trace
    return scale * np.logspace(-6, 2, 13)


def _walk(grid, score, settle=None):
    """The one walk of both selectors over the checked ``grid``.

    Candidates are scored by ``score(j)`` from the largest parameter
    down, and the walk stops after the first one that scores strictly
    above the best so far: on a unimodal score curve, one past the
    minimum. Equal scores walk on, so `np.nanargmin` of the result keeps
    the first index on ties. Candidates the walk does not reach stay
    NaN. On a rise, ``settle(scores)``, when given, may first
    re-estimate the scored candidates in place; the rise is then
    compared again.
    """
    scores = np.full(len(grid), np.nan)
    walked = []

    def risen(j):
        return walked and scores[j] > scores[walked].min()

    for j in np.argsort(-grid, kind="stable"):
        scores[j] = score(j)
        if settle is not None and risen(j):
            settle(scores)
        if risen(j):
            return scores
        walked.append(j)
    return scores


# -- K-fold cross-validation ------------------------------------------


def _residuals(blocks, comp, lam, ops):
    """Squared residual of each validation block ``(values, profile)``,
    whose rows (one for a masked function) are scored on ``profile``,
    the unnormalized fitted profile at the block's points: projection
    over profile energy plus penalty."""
    g_un = comp.function_norm * comp.g_coefficients
    pen = lam * estimator.penalty_value(g_un, ops)
    residuals = []
    for values, profile in blocks:
        denom = float(profile @ profile) + pen
        inner = values @ profile
        u_val = inner / denom if denom > 0 else np.zeros_like(inner)
        resid = values - np.multiply.outer(u_val, profile)
        residuals.append(float(np.dot(resid.ravel(), resid.ravel())))
    return residuals


def _kfold_trace(n, validated, lambda_grid, folds, seed, ops, prepare,
                 validation, fit, release=None) -> SelectionTrace:
    """Check ``lambda_grid`` and score its candidates over ``folds``
    folds of ``range(n)``, drawn from ``seed`` by `make_folds`.
    ``prepare(train_rows)`` gives each fold its training set and first
    start, once; ``validation(val_rows, f)`` gives a fold's validation
    blocks, each its values and the unnormalized fitted profile ``f``
    evaluated at their points, each time a candidate is scored on it,
    so that they are gathered only while `_residuals` reads them. The
    candidates run in the order of `_walk`, each over every fold in
    turn, so consecutive fits share one factored system;
    ``fit(lam, train, start)`` returns the component and the fold's next
    start. A candidate scores the sum of its `_residuals`, in fold
    order, over the ``validated`` count of values; candidates the walk
    does not reach stay NaN. After each candidate, ``release``, when
    given, receives the parameters a later lookup may still read: those
    not walked yet and the best so far (every one tied at the best
    score), and after the walk the chosen one."""
    grid = estimator._check_grid(lambda_grid)
    assignments = make_folds(n, folds, seed)
    trains, starts = map(list, zip(*(
        prepare(np.setdiff1d(np.arange(n), val)) for val in assignments
    )))
    walked = {}

    def score(j):
        lam = float(grid[j])
        total = 0.0
        for f, (train, val) in enumerate(zip(trains, assignments)):
            comp, starts[f] = fit(lam, train, starts[f])
            f_un = comp.function_norm * comp.f_coefficients
            for residual in _residuals(validation(val, f_un), comp, lam, ops):
                total += residual
        walked[j] = total / validated
        if release is not None:
            best = min(walked.values())
            release({float(grid[k]) for k in range(len(grid))
                     if walked.get(k, best) == best})
        return walked[j]

    scores = _walk(grid, score)
    chosen = int(np.nanargmin(scores))
    if release is not None:
        release({float(grid[chosen])})
    return SelectionTrace(
        lambda_grid=grid, scores=scores, chosen=chosen, method="kfold",
    )


def kfold_select(X, lambda_grid, folds, ops: FemOperators, seed=0,
                 systems=None, max_iterations: int = 15,
                 tolerance: float = 1e-6) -> SelectionTrace:
    """Choose the smoothing parameter by K-fold cross-validation.

    For each candidate and fold, one component is fitted to the
    training rows and validation rows receive unnormalized scores
    (data projection divided by the profile norm plus the weighted
    penalty). Accumulated squared validation residuals, averaged over
    all matrix entries, score the candidate; the smallest wins. A fold
    is its training row indices into ``X`` (`estimator._Fold`), not a
    copy: its fits read X's products at those rows, its validation rows
    are gathered only while their residuals are formed, and its
    singular-vector warm start comes from the training block of X's one
    Gram matrix X X' (for n <= s). The warm start does not depend on the
    candidate, so each fold computes it once and every candidate starts
    from it (continuing from the previous candidate's fit saves nothing
    here, since the warm start is already a few solves from
    convergence). The candidates run from the largest parameter down,
    each over the folds, and `_walk` stops at the first candidate that
    scores strictly above the best so far: on a unimodal score curve
    that is one candidate past the minimum. Unreached candidates score
    NaN and are neither fitted nor factored. A dense candidate's score
    does not depend on the others, so the choice is the full grid's
    whenever the curve falls to its minimum and rises after it.

    Parameters
    ----------
    X : DataMatrix
    lambda_grid : array_like of positive floats
    folds : int
        Between 2 and the function count.
    ops : FemOperators
    seed
        Seeds the fold shuffle only.
    systems : _Systems, optional
        The fit's store of factored candidates, new when None; a
        candidate missing from it is factored on its first fit. When the
        walk is the store's last, the store keeps only the factors the
        walk can still read and, after it, the chosen one's.
    """
    systems = _Systems(ops) if systems is None else systems

    def prepare(train_rows):
        train = estimator._Fold(X, train_rows)
        return train, estimator.initialize(train)

    def validation(val_rows, f):
        return [(X.values[val_rows], ops.psi @ f)]

    def fit(lam, train, start):
        comp = estimator.fit_component(
            train, lam, ops, system=systems[lam],
            max_iterations=max_iterations, tolerance=tolerance, start=start,
        )
        return comp, start

    return _kfold_trace(X.n, X.n * X.s, lambda_grid, folds, seed, ops,
                        prepare, validation, fit, systems.release)


def kfold_select_missing(state, lambda_grid, folds, ops: FemOperators,
                         seed=0, max_iterations: int = 15,
                         tolerance: float = 1e-6) -> SelectionTrace:
    """K-fold selection over per-function observations.

    The validation score of function i divides its observation/profile
    inner product by that function's own profile energy plus the
    weighted penalty; residuals run over observed entries only and are
    averaged over the total observation count. Each fold builds its
    training state (`estimator._MissingState.subset`) and initial scores
    once, and each of its fits evaluates its profile at every stacked
    observation in one product, from which each held-out function takes
    its rows. The candidates run in descending order of the parameter,
    each over the folds, and stop as in `kfold_select`. In each fold the
    first candidate starts from the initial scores and each later one
    from its predecessor's converged scores, which are close to its own
    fit. The scores therefore depend on the candidates walked before,
    not on their order in ``lambda_grid``.
    """
    def prepare(train_rows):
        train = state.subset(train_rows)
        return train, estimator._initial_scores_missing(train)

    def validation(val_rows, f):
        evaluated, bounds = state.stack @ f, state.bounds
        return [(state.observed[a:b], evaluated[a:b])
                for a, b in zip(bounds[val_rows], bounds[val_rows + 1])]

    def fit(lam, train, start):
        comp = estimator._fit_component_missing(
            train, lam, ops, max_iterations, tolerance, start
        )
        return comp, comp.scores

    return _kfold_trace(state.n, state.observed.size, lambda_grid, folds, seed, ops,
                        prepare, validation, fit)


# -- generalized cross-validation -------------------------------------


def gcv_select(X, u, lambda_grid, ops: FemOperators,
               systems=None) -> SelectionTrace:
    """Choose the smoothing parameter by GCV on the regression step.

    The data vector is the projection of the data matrix onto the unit
    scores ``u``. Each candidate's score is the mean squared smoothing
    residual divided by (1 - trace(S)/s)^2, where S maps the data
    vector to the smoothed profile, that is the function step at the
    candidate (`estimator.function_step`), solved here from the one
    right-hand side psi' z that every candidate shares (z is the data
    vector). The candidates are scored in the order of `_walk`, from the
    largest parameter down to one past the first rise; the rest stay
    NaN and are neither factored nor traced.
    A candidate's score does not depend on the others, so the choice is
    the full grid's whenever the curve falls to its minimum and rises
    after it. A walk whose smallest score is the top candidate has not
    bracketed a minimum (on a 42-vertex icosphere the curve rises below
    the top, then falls lower still), so then every candidate is
    scored. The trace is exact up to ``EXACT_TRACE_LIMIT`` locations.
    Beyond, every candidate starts from the probes it holds in the
    traces of ``systems`` (the fit's `_Systems` store, new when None),
    or from one block of 16 (``_PROBE_BLOCK``) seeded Hutchinson probes.
    A trace error SE(T) moves the score by score * 2 SE(T) / (s gap),
    gap = 1 - T/s. Two scores overlap when, give or take 3
    (``_SEPARATION``) such errors each, they meet. On a rise, and again
    after the walk, while some scored candidate overlaps the smallest
    score, both get one more block, up to 64 (``_PROBE_CAP``) probes; a
    rise then ends the walk only if it still scores above the best, so
    an overlapping rise ends it only once clear or capped. The probes
    are fixed columns of one seeded matrix.
    Candidates whose trace gap closes to zero score +inf and are skipped
    with a warning.

    Raises
    ------
    DegenerateSmoother
        If no candidate earns a finite score.
    """
    grid = estimator._check_grid(lambda_grid)
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (X.n,):
        raise DimensionMismatch(f"scores must have length {X.n}, got {u.shape}")
    estimator._check_locations(X, ops)
    z = X.values.T @ u
    rhs = ops.psi_t @ z
    s = X.s
    systems = _Systems(ops) if systems is None else systems
    traces = systems.traces
    lams = [float(lam) for lam in grid]
    mean_square = {}

    def estimate(j):
        return _gcv_score(mean_square[lams[j]], traces[lams[j]], s)

    def score(j):
        system = systems[lams[j]]
        f, _ = system.solve(rhs)
        resid = z - ops.psi @ f
        mean_square[lams[j]] = float(resid @ resid) / s
        if lams[j] not in traces:
            traces[lams[j]] = _smoother_trace(system, ops)
        return estimate(j)[0]

    def overlaps(j, best):
        (score_j, error_j), (score_best, error_best) = estimate(j), estimate(best)
        return score_j - _SEPARATION * error_j <= score_best + _SEPARATION * error_best

    def settle(scores):
        """While scored candidates overlap the smallest score, one more
        probe block for each of them and for it, up to the cap."""
        scored = np.flatnonzero(~np.isnan(scores))
        while True:
            best = scored[np.argmin(scores[scored])]
            close = [j for j in scored if j != best and np.isfinite(scores[j])
                     and overlaps(j, best)]
            due = [lam for lam in dict.fromkeys(lams[j] for j in [best] + close)
                   if 0 < traces[lam].probes < _PROBE_CAP]
            if not close or not due:
                return
            for lam in due:
                traces[lam] = _smoother_trace(systems[lam], ops, traces[lam])
            for j in scored:
                scores[j] = estimate(j)[0]

    scores = _walk(grid, score, settle)
    if np.nanargmin(scores) == np.argmax(grid):
        # A minimum at the top is not bracketed by a larger candidate:
        # the curve may rise and fall again below it. Score the rest.
        for j in np.flatnonzero(np.isnan(scores)):
            scores[j] = score(j)
    settle(scores)
    scored = np.flatnonzero(~np.isnan(scores))
    for j in scored:
        if scores[j] == np.inf:
            warnings.warn(
                f"smoother trace reaches the location count at lambda "
                f"{lams[j]:g}; assigning an infinite score",
                stacklevel=2,
            )
    if not np.isfinite(scores).any():
        raise DegenerateSmoother("every candidate produced an undefined score")
    trace_values, trace_errors, trace_probes = np.full((3, len(grid)), np.nan)
    for j in scored:
        kept = traces[lams[j]]
        trace_values[j], trace_errors[j], trace_probes[j] = (
            kept.value, kept.error, kept.probes)
    return SelectionTrace(
        lambda_grid=grid, scores=scores,
        chosen=int(np.nanargmin(scores)), method="gcv",
        trace_values=trace_values, trace_errors=trace_errors,
        trace_probes=trace_probes,
    )


def _gcv_score(mean_square, trace, s):
    """A candidate's GCV score and the standard error its trace estimate
    gives it; +inf (error 0) where the trace gap closes."""
    gap = 1.0 - trace.value / s
    if gap <= 1e-12:
        return np.inf, 0.0
    score = mean_square / gap**2
    return score, score * 2.0 * trace.error / (s * gap)


@dataclass(frozen=True, eq=False)
class _Trace:
    """One candidate's trace(S): exact (``forms`` None), or the mean of
    the quadratic forms z'Sz of the probes z solved so far."""

    value: float
    forms: np.ndarray = None

    @property
    def probes(self):
        return 0 if self.forms is None else len(self.forms)

    @property
    def error(self):
        """The forms' sample deviation over sqrt(probes); 0 when exact."""
        if self.forms is None:
            return 0.0
        return float(np.std(self.forms, ddof=1)) / np.sqrt(len(self.forms))


@functools.lru_cache(maxsize=1)
def _probe_signs(s, count):
    """The seeded s x count sign matrix whose columns, in order, are the
    Hutchinson probes of every stochastic trace."""
    signs = np.random.default_rng(1899).integers(0, 2, size=(s, count)) * 2.0 - 1.0
    signs.flags.writeable = False
    return signs


def _smoother_trace(system, ops: FemOperators, known=None):
    """trace(S) for S = psi solve(psi' .) as a `_Trace`: exact up to
    ``EXACT_TRACE_LIMIT`` locations, as the sum of the forms over the
    unit columns, `_TRACE_BLOCK` of them per solve. Beyond, one block of
    Hutchinson probes: the next 16 (``_PROBE_BLOCK``) of the 64
    (``_PROBE_CAP``) columns of `_probe_signs`, solved by one
    ``solve_many``, after the probes of ``known``, which the result
    extends. `gcv_select` asks for blocks until its 3-SE rule is met."""
    s = ops.location_count
    if s <= EXACT_TRACE_LIMIT:
        total = 0.0
        for start in range(0, s, _TRACE_BLOCK):
            units = np.eye(s, min(_TRACE_BLOCK, s - start), k=-start)
            total += float(_forms(system, ops, units).sum())
        return _Trace(total)
    done = 0 if known is None else known.probes
    signs = _probe_signs(s, _PROBE_CAP)[:, done:done + _PROBE_BLOCK]
    forms = _forms(system, ops, signs)
    if known is not None:
        forms = np.concatenate([known.forms, forms])
    return _Trace(float(forms.mean()), forms)


def _forms(system, ops, probes):
    """The quadratic forms z'Sz of the columns z of ``probes``; over a
    unit column, exactly a diagonal entry of S."""
    f_block, _ = system.solve_many(ops.psi_t @ probes)
    return np.einsum("sk,sk->k", probes, ops.psi @ f_block)
