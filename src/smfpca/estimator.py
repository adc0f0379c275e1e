"""The smoothed functional PCA estimator.

Components are extracted one at a time by alternating two exact
partial minimizations of the rank-one objective

    sum_ij (x_i(p_j) - u_i f(p_j))^2 + lam * u'u * penalty(f),

where the roughness penalty integrates the squared surface Laplacian of
f through the auxiliary field g. The score update normalizes the data
projection; the function update solves the sparse saddle-point system.
Both steps solve their subproblem exactly, so the objective value is
nonincreasing along the iteration; this is asserted, not assumed.

Extracted components are removed from the data matrix by projecting out
the unit score direction, and explained variance is accounted through a
QR decomposition of the unnormalized score matrix so that correlated
components are not double counted.
"""

import copy
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

from . import solver
from .errors import (
    DegenerateData,
    DimensionMismatch,
    InputError,
    NonMonotoneObjective,
)
from .fem import FemOperators, l2_inner, location_matrix

_MONOTONE_SLACK = 1e-9


@dataclass(eq=False)
class DataMatrix:
    """Dense sample matrix: one row per function, one column per location."""

    values: np.ndarray
    centered: bool = False

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise DimensionMismatch("data must be a 2-d matrix with n rows, s columns")
        if not np.isfinite(v).all():
            raise InputError("data matrix holds non-finite entries")
        v.flags.writeable = False
        self.values = v

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def s(self) -> int:
        return self.values.shape[1]


@dataclass(eq=False)
class ObservationSet:
    """Per-function observation lists for partially observed data.

    `functions` holds one (locations, values) pair per function, where
    locations is a list of SurfaceLocation and values the matching
    1-d array. Every function must carry at least one observation.
    """

    functions: list

    def __post_init__(self):
        if not self.functions:
            raise DimensionMismatch("observation set holds no functions")
        for i, (locs, vals) in enumerate(self.functions):
            vals = np.asarray(vals, dtype=np.float64)
            if vals.ndim != 1 or len(locs) != vals.shape[0] or vals.shape[0] < 1:
                raise DimensionMismatch(
                    f"function {i}: locations and values must align and be nonempty"
                )
            if not np.isfinite(vals).all():
                raise InputError(f"function {i}: non-finite observation")
            self.functions[i] = (list(locs), vals)

    @property
    def n(self) -> int:
        return len(self.functions)

    @classmethod
    def from_masked(cls, values, locations):
        """Build from a dense matrix with NaN marking unobserved entries."""
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] != len(locations):
            raise DimensionMismatch(
                "masked matrix columns must match the location list"
            )
        functions = []
        for i in range(values.shape[0]):
            mask = ~np.isnan(values[i])
            idx = np.flatnonzero(mask)
            if idx.size == 0:
                raise DimensionMismatch(f"function {i} has no observed entries")
            functions.append(
                ([locations[j] for j in idx], values[i, idx].copy())
            )
        return cls(functions)


@dataclass(eq=False)
class PcComponent:
    """One extracted principal component.

    Attributes
    ----------
    scores : ndarray, shape (n,)
        Unit-norm subject scores.
    f_coefficients : ndarray, shape (K,)
        Coefficients of the component function, normalized to unit
        surface L2 norm, largest-magnitude entry positive.
    g_coefficients : ndarray, shape (K,)
        Auxiliary field approximating the surface Laplacian of f,
        scaled consistently with f.
    lam : float
        Smoothing parameter used for the final function update.
    function_norm : float
        Surface L2 norm of the fitted function before normalization;
        scores times this norm reconstruct the data contribution.
    iterations : int
    objective_trace : list of float
        Objective value after each alternation step.
    """

    scores: np.ndarray
    f_coefficients: np.ndarray
    g_coefficients: np.ndarray
    lam: float
    function_norm: float
    iterations: int
    objective_trace: list


@dataclass(eq=False)
class SmFpcaResult:
    """Ordered components with variance accounting and selection traces."""

    components: list
    adjusted_variance: np.ndarray
    cumulative_variance: np.ndarray
    mean_field: np.ndarray | None
    selection_traces: list


def data_gram(ops: FemOperators):
    """The psi' psi data block shared by every dense-data system."""
    return (ops.psi.T @ ops.psi).tocsr()


def _fix_sign(v):
    """Flip ``v`` so its largest-magnitude entry is positive."""
    idx = int(np.argmax(np.abs(v)))
    if v[idx] < 0:
        return -v, True
    return v, False


def initialize(X: DataMatrix):
    """Starting profile: leading right singular vector of the data matrix.

    The sign is fixed so the largest-magnitude entry is positive, which
    makes the full fit invariant to a global sign flip of the data.
    """
    values = X.values
    if not values.any():
        raise DegenerateData("data matrix is identically zero")
    _, _, vt = np.linalg.svd(values, full_matrices=False)
    f_s, _ = _fix_sign(vt[0].copy())
    return f_s


def score_step(X: DataMatrix, f_s):
    """Unit-norm scores maximizing agreement with the profile ``f_s``."""
    f_s = np.asarray(f_s, dtype=np.float64)
    if f_s.shape != (X.s,):
        raise DimensionMismatch(f"profile must have length {X.s}, got {f_s.shape}")
    t = X.values @ f_s
    nrm = float(np.linalg.norm(t))
    if nrm == 0.0:
        raise DegenerateData("data projection onto the candidate profile vanished")
    return t / nrm


def function_step(X: DataMatrix, u, system: solver.SaddleSystem, ops: FemOperators):
    """Solve the smoothing subproblem for fixed scores ``u``."""
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (X.n,):
        raise DimensionMismatch(f"scores must have length {X.n}, got {u.shape}")
    z = X.values.T @ u
    return system.solve(ops.psi.T @ z)


def penalty_value(g, ops: FemOperators) -> float:
    """Roughness surrogate g' mass g, approximating the integrated
    squared surface Laplacian of the fitted function."""
    return l2_inner(ops, g, g)


def _objective(xnorm2, X, u, f_s, lam, pen):
    # ||X - u f_s'||_F^2 expanded with ||u|| = 1, plus the penalty.
    fit_term = xnorm2 - 2.0 * float(u @ (X.values @ f_s)) + float(f_s @ f_s)
    return fit_term + lam * pen


def fit_component(
    X: DataMatrix,
    lam: float,
    ops: FemOperators,
    system: solver.SaddleSystem = None,
    max_iterations: int = 15,
    tolerance: float = 1e-6,
    start=None,
) -> PcComponent:
    """Extract one component at a fixed smoothing parameter.

    Alternates the score and function updates from the starting
    profile ``start`` (by default ``initialize(X)``, the singular-vector
    initialization) until the relative change of the coefficient vector
    drops below ``tolerance`` or ``max_iterations`` passes complete
    (a budget of 0 still performs one pass). The fitted function is then
    normalized to unit surface L2 norm, recording the pre-normalization
    norm, and the sign convention is applied jointly to scores and
    coefficients.

    Raises
    ------
    DegenerateData
        Zero data, or a vanishing projection during iteration.
    DimensionMismatch, InputError
        ``start`` is not a finite vector with one entry per location.
    NonMonotoneObjective
        Internal assertion; both updates are exact minimizers, so an
        objective increase beyond roundoff slack signals a solver bug.
    """
    lam = float(lam)
    if system is None:
        system = solver.build(ops, data_gram(ops), lam)
    elif system.lam != lam:
        raise InputError(
            f"prebuilt system was factored for lambda {system.lam:g}, not {lam:g}"
        )
    if X.s != ops.location_count:
        raise DimensionMismatch(
            f"data has {X.s} columns but operators hold {ops.location_count} locations"
        )

    f_s = initialize(X) if start is None else _checked_start(start, X.s, "profile")
    xnorm2 = float(np.dot(X.values.ravel(), X.values.ravel()))
    trace = []
    f_prev = None
    u = f = g = None
    for _ in range(max(1, max_iterations)):
        u = score_step(X, f_s)
        f, g = function_step(X, u, system, ops)
        f_s = ops.psi @ f
        value = _objective(xnorm2, X, u, f_s, lam, penalty_value(g, ops))
        # the objective is formed by cancellation against xnorm2, so its
        # precision floor is eps-scaled in the data norm, not the value
        slack = _MONOTONE_SLACK * abs(trace[-1]) + 1e-12 * xnorm2 if trace else 0.0
        if trace and value > trace[-1] + slack:
            raise NonMonotoneObjective(
                f"objective rose from {trace[-1]!r} to {value!r} "
                f"at iteration {len(trace) + 1}"
            )
        trace.append(value)
        if f_prev is not None:
            base = float(np.linalg.norm(f_prev))
            if base > 0 and float(np.linalg.norm(f - f_prev)) <= tolerance * base:
                break
        f_prev = f
    return _finalize_component(u, f, g, lam, len(trace), trace, ops)


def _checked_start(start, length, what):
    start = np.asarray(start, dtype=np.float64)
    if start.shape != (length,):
        raise DimensionMismatch(
            f"starting {what} must have length {length}, got {start.shape}"
        )
    if not np.isfinite(start).all():
        raise InputError(f"starting {what} holds non-finite entries")
    return start


def _finalize_component(u, f, g, lam, iterations, trace, ops):
    norm2 = l2_inner(ops, f, f)
    if norm2 <= 0.0:
        raise DegenerateData("fitted component function vanished")
    c = float(np.sqrt(norm2))
    f = f / c
    g = g / c
    f, flipped = _fix_sign(f)
    if flipped:
        u = -u
    return PcComponent(
        scores=u,
        f_coefficients=f,
        g_coefficients=g,
        lam=lam,
        function_norm=c,
        iterations=iterations,
        objective_trace=trace,
    )


def deflate(X: DataMatrix, component: PcComponent) -> DataMatrix:
    """Remove a fitted component: project the unit score direction out
    of every column."""
    u = component.scores
    if u.shape != (X.n,):
        raise DimensionMismatch("component scores do not match the data rows")
    values = X.values - np.outer(u, u @ X.values)
    return DataMatrix(values, centered=X.centered)


def adjusted_total_variance(components) -> np.ndarray:
    """Per-component explained variance, corrected for score correlation.

    Columns of the unnormalized score matrix (each unit score vector
    times its function norm) are QR-factorized; the squared diagonal of
    R credits each component only with variance not already explained
    by its predecessors.
    """
    if not components:
        return np.zeros(0)
    scores = np.stack(
        [c.scores * c.function_norm for c in components], axis=1
    )
    r = np.linalg.qr(scores, mode="r")
    return np.diag(r) ** 2


def fit(
    X: DataMatrix,
    n_components: int,
    lambda_grid,
    ops: FemOperators,
    selection: str = "kfold",
    folds: int = 5,
    fixed_lambda: float = None,
    center: bool = True,
    max_iterations: int = 15,
    tolerance: float = 1e-6,
    seed: int = 0,
    threads: int = 1,
) -> SmFpcaResult:
    """Extract ``n_components`` components, choosing the smoothing
    parameter per component.

    Parameters
    ----------
    X : DataMatrix
    n_components : int
    lambda_grid : array_like
        Positive candidate smoothing parameters (ignored when
        ``selection`` is ``"fixed"`` and ``fixed_lambda`` is given).
    ops : FemOperators
    selection : {"kfold", "gcv", "fixed"}
        K-fold cross-validation over functions, generalized
        cross-validation on the regression step (re-selected at each
        alternation using the current scores), or a fixed parameter.
    folds : int
        Fold count for K-fold selection.
    fixed_lambda : float, optional
        The parameter for ``"fixed"``; defaults to a singleton grid.
    center : bool
        Subtract the columnwise mean field first (stored on the result).
    seed : int
        Drives the fold shuffle; component c derives its own stream.
    threads : int
        Worker threads for grid evaluation; results are identical for
        any thread count.

    Returns
    -------
    SmFpcaResult
    """
    from .selection import SelectionTrace, gcv_select, kfold_select

    if n_components < 1:
        raise InputError("n_components must be at least 1")
    if selection not in ("kfold", "gcv", "fixed"):
        raise InputError(f"unknown selection method {selection!r}")
    grid = _check_grid(lambda_grid, required=selection != "fixed")
    if selection == "fixed":
        if fixed_lambda is None:
            if grid is None or len(grid) != 1:
                raise InputError(
                    "fixed selection needs fixed_lambda or a one-point grid"
                )
            fixed_lambda = float(grid[0])
        if not fixed_lambda > 0:
            raise InputError("fixed_lambda must be positive")

    if center:
        mean_field = X.values.mean(axis=0)
        work = DataMatrix(X.values - mean_field, centered=True)
    else:
        mean_field = None
        work = X

    gram = data_gram(ops)
    systems = {}

    def system_for(lam):
        key = float(lam)
        if key not in systems:
            systems[key] = solver.build(ops, gram, key)
        return systems[key]

    components = []
    traces = []
    gcv_traces = {}
    for comp_index in range(n_components):
        if selection == "gcv":
            component, trace = _fit_component_gcv(
                work, grid, ops, system_for, gcv_traces, systems,
                max_iterations, tolerance, threads, gcv_select, SelectionTrace,
            )
        else:
            lam, trace = fixed_lambda, None
            if selection == "kfold":
                trace = kfold_select(
                    work, grid, folds, ops,
                    seed=[seed, comp_index], systems=systems,
                    max_iterations=max_iterations, tolerance=tolerance,
                    threads=threads,
                )
                lam = float(grid[trace.chosen])
            component = fit_component(
                work, lam, ops, system=system_for(lam),
                max_iterations=max_iterations, tolerance=tolerance,
            )
        components.append(component)
        traces.append(trace)
        work = deflate(work, component)
    return _result(components, traces, mean_field)


def _result(components, traces, mean_field):
    adjusted = adjusted_total_variance(components)
    return SmFpcaResult(
        components=components, adjusted_variance=adjusted,
        cumulative_variance=np.cumsum(adjusted), mean_field=mean_field,
        selection_traces=traces,
    )


def _fit_component_gcv(
    X, grid, ops, system_for, trace_cache, systems,
    max_iterations, tolerance, threads, gcv_select, SelectionTrace,
):
    # The parameter is re-selected at every alternation from the scores
    # of that iteration, so the objective is not comparable (and not
    # asserted monotone) across iterations; the last choice stands.
    f_s = initialize(X)
    xnorm2 = float(np.dot(X.values.ravel(), X.values.ravel()))
    trace = None
    history = []
    objective = []
    f_prev = None
    u = f = g = None
    lam = None
    for _ in range(max(1, max_iterations)):
        u = score_step(X, f_s)
        trace = gcv_select(
            X, u, grid, ops,
            systems=systems, trace_cache=trace_cache, threads=threads,
        )
        lam = float(grid[trace.chosen])
        history.append(lam)
        f, g = function_step(X, u, system_for(lam), ops)
        f_s = ops.psi @ f
        objective.append(
            _objective(xnorm2, X, u, f_s, lam, penalty_value(g, ops))
        )
        if f_prev is not None:
            base = float(np.linalg.norm(f_prev))
            if base > 0 and float(np.linalg.norm(f - f_prev)) <= tolerance * base:
                break
        f_prev = f
    component = _finalize_component(u, f, g, lam, len(objective), objective, ops)
    full_trace = SelectionTrace(
        lambda_grid=trace.lambda_grid,
        scores=trace.scores,
        chosen=trace.chosen,
        method="gcv",
        history=history,
    )
    return component, full_trace


def _check_grid(lambda_grid, required):
    if lambda_grid is None:
        if required:
            raise InputError("a lambda grid is required for this selection method")
        return None
    grid = np.asarray(lambda_grid, dtype=np.float64).ravel()
    if required and grid.size == 0:
        raise InputError("lambda grid is empty")
    if grid.size and not (grid > 0).all():
        raise InputError("lambda grid entries must be positive")
    return grid


# -- partially observed data ------------------------------------------


class _MissingState:
    """Per-function sparse operators for one observation set.

    `psi_stack` stacks the per-function location matrices row-wise, and
    `counts` holds each function's observation count, so the weighted
    data block is a single sparse product.
    """

    def __init__(self, obs: ObservationSet, ops: FemOperators):
        self.ops = ops
        self.psis = []
        self.values = []
        for locs, vals in obs.functions:
            self.psis.append(location_matrix(ops.mesh, locs))
            self.values.append(vals)
        self._stack_psis()
        # Column i accumulates function i's observations onto vertices.
        self.d_matrix = np.stack(
            [psi_i.T @ vals for psi_i, vals in zip(self.psis, self.values)],
            axis=1,
        )
        self.xnorm2 = float(sum(float(v @ v) for v in self.values))

    def _stack_psis(self):
        self.psi_stack = sparse.vstack(self.psis, format="csr")
        self.psi_stack_t = self.psi_stack.T.tocsr()
        self.counts = np.array([psi_i.shape[0] for psi_i in self.psis])
        self.total_observations = int(self.counts.sum())

    @property
    def n(self):
        return len(self.values)

    def subset(self, rows):
        state = copy.copy(self)
        state.psis = [self.psis[i] for i in rows]
        state.values = [self.values[i] for i in rows]
        state._stack_psis()
        state.d_matrix = self.d_matrix[:, rows]
        state.xnorm2 = float(sum(float(v @ v) for v in state.values))
        return state

    def weighted_gram(self, u):
        """Sum over functions of u_i^2 psi_i' psi_i, as one product
        psi_stack' diag(repeat(u^2, counts)) psi_stack."""
        stack = self.psi_stack
        weights = np.repeat(np.asarray(u) ** 2, self.counts)
        scaled = sparse.csr_matrix(
            (stack.data * np.repeat(weights, np.diff(stack.indptr)),
             stack.indices, stack.indptr),
            shape=stack.shape,
        )
        return (self.psi_stack_t @ scaled).tocsr()

    def deflated(self, component):
        # Subtract each function's share of the fitted component at its
        # own observation points (columnwise projection is unavailable
        # without a common grid).
        f_unnorm = component.function_norm * component.f_coefficients
        new = copy.copy(self)
        new.values = [
            vals - component.scores[i] * (psi_i @ f_unnorm)
            for i, (psi_i, vals) in enumerate(zip(self.psis, self.values))
        ]
        new.d_matrix = np.stack(
            [psi_i.T @ vals for psi_i, vals in zip(new.psis, new.values)],
            axis=1,
        )
        new.xnorm2 = float(sum(float(v @ v) for v in new.values))
        return new


def _initial_scores_missing(state):
    accumulated = state.d_matrix.T
    if not accumulated.any():
        raise DegenerateData("observations accumulate to zero everywhere")
    _, _, vt = np.linalg.svd(accumulated, full_matrices=False)
    v, _ = _fix_sign(vt[0].copy())
    t = accumulated @ v
    nrm = float(np.linalg.norm(t))
    if nrm == 0.0:
        raise DegenerateData("initial score projection vanished")
    return t / nrm


def _fit_component_missing(state, lam, ops, max_iterations, tolerance, start=None):
    lam = float(lam)
    u = (_initial_scores_missing(state) if start is None
         else _checked_start(start, state.n, "scores"))
    trace = []
    f_prev = None
    f = g = None
    system = None
    for it in range(max(1, max_iterations)):
        if it > 0:
            d = state.d_matrix.T @ f
            nrm = float(np.linalg.norm(d))
            if nrm == 0.0:
                raise DegenerateData("all score inner products vanished")
            u = d / nrm
        gram = state.weighted_gram(u)
        rhs = state.d_matrix @ u
        # The data block moves only through u, so the first alternation's
        # factorization preconditions every later solve; a new one is
        # made only when refinement against it fails to converge.
        solution = None
        if system is not None:
            solution = system.solve_with_block(gram, rhs, (f, g))
        if solution is None:
            system = solver.build(ops, gram, lam)
            solution = system.solve(rhs)
        f, g = solution
        pen = penalty_value(g, ops)
        # sum_i u_i^2 ||psi_i f||^2 is f' gram f
        fit_term = (
            state.xnorm2
            - 2.0 * float(u @ (state.d_matrix.T @ f))
            + float(f @ (gram @ f))
        )
        # The printed score update is not the exact constrained minimizer
        # when observation counts differ, so the trace is recorded but
        # not asserted monotone here.
        trace.append(fit_term + lam * pen)
        if f_prev is not None:
            base = float(np.linalg.norm(f_prev))
            if base > 0 and float(np.linalg.norm(f - f_prev)) <= tolerance * base:
                break
        f_prev = f
    return _finalize_component(u, f, g, lam, len(trace), trace, ops)


def fit_missing(
    obs: ObservationSet,
    n_components: int,
    lambda_grid,
    ops: FemOperators,
    selection: str = "kfold",
    folds: int = 5,
    fixed_lambda: float = None,
    max_iterations: int = 15,
    tolerance: float = 1e-6,
    seed: int = 0,
    threads: int = 1,
) -> SmFpcaResult:
    """Extract components from per-function observation lists.

    The score update divides each function's observation/function inner
    product by the root sum of squares across functions; the function
    update solves the saddle-point system whose data block weights each
    function's Gram matrix by its squared score. On fully observed data
    (every function observed at every location) the weighted block
    collapses to psi' psi because the scores have unit norm, and the
    result coincides with `fit` up to roundoff.

    The data block moves with the scores, so each component fit factors
    its system once, on the first alternation, and solves every later
    alternation by iterative refinement preconditioned with that
    factorization; when refinement does not converge within its step
    budget, the system is factored anew for the current scores.

    No centering is applied: a columnwise mean is undefined for ragged
    observations, so callers wanting centered behavior must center
    upstream. Generalized cross-validation is likewise undefined here;
    use ``"kfold"`` or ``"fixed"`` selection.
    """
    from .selection import kfold_select_missing

    if n_components < 1:
        raise InputError("n_components must be at least 1")
    if selection == "gcv":
        raise InputError(
            "gcv selection requires fully observed data; use kfold or fixed"
        )
    if selection not in ("kfold", "fixed"):
        raise InputError(f"unknown selection method {selection!r}")
    grid = _check_grid(lambda_grid, required=selection != "fixed")
    if selection == "fixed":
        if fixed_lambda is None:
            if grid is None or len(grid) != 1:
                raise InputError(
                    "fixed selection needs fixed_lambda or a one-point grid"
                )
            fixed_lambda = float(grid[0])
        if not fixed_lambda > 0:
            raise InputError("fixed_lambda must be positive")

    state = _MissingState(obs, ops)
    components = []
    traces = []
    for comp_index in range(n_components):
        if selection == "fixed":
            lam = fixed_lambda
            trace = None
        else:
            trace = kfold_select_missing(
                state, grid, folds, ops,
                seed=[seed, comp_index],
                max_iterations=max_iterations, tolerance=tolerance,
                threads=threads,
            )
            lam = float(grid[trace.chosen])
        component = _fit_component_missing(state, lam, ops, max_iterations, tolerance)
        components.append(component)
        traces.append(trace)
        state = state.deflated(component)
    return _result(components, traces, None)
