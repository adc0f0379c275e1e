"""The smoothed functional PCA estimator.

Components are extracted one at a time by alternating two partial
minimizations of the rank-one objective

    sum_ij (x_i(p_j) - u_i f(p_j))^2 + lam * u'u * penalty(f),

where the roughness penalty integrates the squared surface Laplacian of
f through the auxiliary field g. The score update minimizes over the
scores for the current function and normalizes them; the function
update solves the sparse saddle-point system.

One loop, `_alternate`, serves every fit. It runs over a data term that
supplies the score update, the function update and the objective: dense
data, per-function observations and per-iteration GCV are variants of
that one core. At a fixed parameter both steps solve their subproblem
exactly, for dense data and for per-function observations alike (the
objective is unchanged by u -> cu, f -> f/c, so normalizing the exact
scores keeps the step exact), and the objective value is therefore
nonincreasing along the iteration; this is asserted, not assumed. It is
not asserted under GCV, which moves the parameter between passes.

Extracted components are removed from the data matrix by projecting out
the unit score direction, and explained variance is accounted through a
QR decomposition of the unnormalized score matrix so that correlated
components are not double counted.
"""

import copy
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sparse

from . import selection as _selection
from . import solver
from .errors import (
    DegenerateData,
    DimensionMismatch,
    InputError,
    NonMonotoneObjective,
)
from .fem import FemOperators, _fix_sign, l2_inner, location_matrix
from .mesh import Locations

_MONOTONE_SLACK = 1e-9
# Deflated data whose squared norm has fallen to this share of the
# starting one is roundoff, not signal: dense deflation leaves ~eps^2,
# masked deflation ~(1e-13)^2 (the solves' refinement tolerance). Fits
# on such data only shrink it further, toward underflow.
_EXHAUSTED = 1e-24


@dataclass(eq=False)
class DataMatrix:
    """Dense sample matrix: one row per function, one column per location."""

    values: np.ndarray

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

    @cached_property
    def xnorm2(self) -> float:
        """Squared Frobenius norm of the values, computed on first read
        (the values are read-only)."""
        flat = self.values.ravel()
        return float(np.dot(flat, flat))


class ObservationSet:
    """Per-function observations for partially observed data.

    Every point sits in one location array, ``locations`` (a
    `Locations`), and ``functions`` holds one (rows, values) pair per
    function: the 1-d integer rows of ``locations`` it is observed at
    and the matching finite values, at least one. `from_masked` builds
    one from a NaN-masked matrix.
    """

    def __init__(self, locations, functions):
        if not isinstance(locations, Locations):
            raise DimensionMismatch(
                f"locations must be a Locations, got {type(locations).__name__}")
        self.locations, self.functions = locations, []
        for i, (rows, vals) in enumerate(functions):
            rows, vals = np.asarray(rows), np.asarray(vals, dtype=np.float64)
            if vals.ndim != 1 or rows.shape != vals.shape:
                raise DimensionMismatch(f"function {i}: rows and values must be 1-d and align")
            if vals.size == 0:
                raise DimensionMismatch(f"function {i} has no observed entries")
            if rows.dtype.kind not in "iu":
                raise DimensionMismatch(f"function {i}: rows must be integers, not {rows.dtype}")
            outside = rows[(rows < 0) | (rows >= len(locations))]
            if outside.size:
                raise DimensionMismatch(
                    f"function {i}: row {outside[0]} of {len(locations)} locations")
            if not np.isfinite(vals).all():
                raise InputError(f"function {i}: non-finite observation")
            self.functions.append((rows, vals))
        if not self.functions:
            raise DimensionMismatch("observation set holds no functions")

    @property
    def n(self) -> int:
        return len(self.functions)

    @classmethod
    def from_masked(cls, values, locations):
        """Build from a dense matrix with NaN marking unobserved entries;
        column j is observed at row j of ``locations``, which every
        function shares."""
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] != len(locations):
            raise DimensionMismatch(
                "masked matrix columns must match the location list"
            )
        observed = [np.flatnonzero(~np.isnan(row)) for row in values]
        return cls(locations, [(rows, row[rows]) for rows, row in zip(observed, values)])


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
    converged : bool
        True when the tolerance test stopped the alternation, False when
        the iteration budget ran out first. A budget of 0 or 1 makes one
        pass, which leaves no change to test, so it never converges.
    """

    scores: np.ndarray
    f_coefficients: np.ndarray
    g_coefficients: np.ndarray
    lam: float
    function_norm: float
    iterations: int
    objective_trace: list
    converged: bool


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


def initialize(X: DataMatrix):
    """Starting profile: leading right singular vector of the data matrix,
    from the eigendecomposition of its smaller Gram matrix
    (`_leading_right_vector`).

    The sign is fixed so the largest-magnitude entry is positive, which
    makes the full fit invariant to a global sign flip of the data.
    """
    values = X.values
    if not values.any():
        raise DegenerateData("data matrix is identically zero")
    f_s, _ = _fix_sign(_leading_right_vector(values))
    return f_s


def _leading_right_vector(values):
    """Unit leading right singular vector of the nonzero n x s ``values``,
    sign unfixed.

    It is the leading eigenvector of the smaller Gram matrix: of
    values' values when n > s; when n <= s, the leading eigenvector u of
    values values' gives it as values' u, normalized. Only a warm start
    is made from it, which the alternation refines to its tolerance, so
    the Gram matrix's squared condition number costs nothing there.
    """
    n, s = values.shape
    if n > s:
        return np.linalg.eigh(values.T @ values)[1][:, -1]
    u = np.linalg.eigh(values @ values.T)[1][:, -1]
    return _unit(values.T @ u, "leading singular vector vanished")


def score_step(X: DataMatrix, f_s):
    """Unit-norm scores maximizing agreement with the profile ``f_s``."""
    f_s = np.asarray(f_s, dtype=np.float64)
    if f_s.shape != (X.s,):
        raise DimensionMismatch(f"profile must have length {X.s}, got {f_s.shape}")
    return _unit(X.values @ f_s, "data projection onto the candidate profile vanished")


def _unit(t, what):
    """``t`` scaled to unit norm; DegenerateData(``what``) when it is zero."""
    nrm = float(np.linalg.norm(t))
    if nrm == 0.0:
        raise DegenerateData(what)
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
    (a budget of 0 still performs one pass). ``converged`` records which
    of the two stopped it; a budget of 0 or 1 makes one pass, which
    leaves no change to test, so such a fit never converges. The fitted
    function is then normalized to unit surface L2 norm, recording the
    pre-normalization norm, and the sign convention is applied jointly
    to scores and coefficients.

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
        system = solver.SaddleSystem(ops, data_gram(ops), lam)
    elif system.lam != lam:
        raise InputError(
            f"prebuilt system was factored for lambda {system.lam:g}, not {lam:g}"
        )
    if X.s != ops.location_count:
        raise DimensionMismatch(
            f"data has {X.s} columns but operators hold {ops.location_count} locations"
        )
    f_s = initialize(X) if start is None else _checked_start(start, X.s, "profile")
    return _alternate(_DenseTerm(X, ops, {lam: system}), score_step(X, f_s), lam,
                      max_iterations, tolerance)


class _DenseTerm:
    """Data term of a fully observed sample matrix: exact score and
    function steps, with the factored system of each parameter taken
    from ``systems``."""

    def __init__(self, X: DataMatrix, ops: FemOperators, systems):
        self.X = X
        self.ops = ops
        self.systems = systems
        self.xnorm2 = X.xnorm2

    def scores(self, f, g, lam):
        # The exact minimizer divides every projection by the same profile
        # energy plus penalty, which normalizing removes.
        return score_step(self.X, self.ops.psi @ f)

    def solve(self, u, lam):
        return function_step(self.X, u, self.systems[lam], self.ops)

    def objective(self, u, f, g, lam):
        # ||X - u f_s'||_F^2 expanded with ||u|| = 1, plus the penalty.
        f_s = self.ops.psi @ f
        pen = penalty_value(g, self.ops)
        fit_term = self.xnorm2 - 2.0 * float(u @ (self.X.values @ f_s)) + float(f_s @ f_s)
        return fit_term + lam * pen


def _alternate(term, u, lam, max_iterations, tolerance, choose=None):
    """The alternating loop of every component fit, from the scores ``u``
    (see `fit_component`); each pass solves at ``choose(u)`` when given,
    else at ``lam``. The objective is asserted nonincreasing only when
    ``lam`` is fixed."""
    trace = []
    f_prev = None
    converged = False
    for it in range(max(1, max_iterations)):
        if it > 0:
            u = term.scores(f, g, lam)
        if choose is not None:
            lam = choose(u)
        f, g = term.solve(u, lam)
        value = term.objective(u, f, g, lam)
        if choose is None and trace:
            # the objective is formed by cancellation against xnorm2, so its
            # precision floor is eps-scaled in the data norm, not the value
            slack = _MONOTONE_SLACK * abs(trace[-1]) + 1e-12 * term.xnorm2
            if value > trace[-1] + slack:
                raise NonMonotoneObjective(
                    f"objective rose from {trace[-1]!r} to {value!r} "
                    f"at iteration {len(trace) + 1}"
                )
        trace.append(value)
        if f_prev is not None:
            base = float(np.linalg.norm(f_prev))
            if base > 0 and float(np.linalg.norm(f - f_prev)) <= tolerance * base:
                converged = True
                break
        f_prev = f
    return _finalize_component(u, f, g, lam, trace, converged, term.ops)


def _checked_start(start, length, what):
    start = np.asarray(start, dtype=np.float64)
    if start.shape != (length,):
        raise DimensionMismatch(
            f"starting {what} must have length {length}, got {start.shape}"
        )
    if not np.isfinite(start).all():
        raise InputError(f"starting {what} holds non-finite entries")
    return start


def _finalize_component(u, f, g, lam, trace, converged, ops):
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
        iterations=len(trace),
        objective_trace=trace,
        converged=converged,
    )


def deflate(X: DataMatrix, component: PcComponent) -> DataMatrix:
    """Remove a fitted component: project the unit score direction out
    of every column."""
    u = component.scores
    if u.shape != (X.n,):
        raise DimensionMismatch("component scores do not match the data rows")
    values = X.values - np.outer(u, u @ X.values)
    return DataMatrix(values)


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
    center: bool = True,
    max_iterations: int = 15,
    tolerance: float = 1e-6,
    seed: int = 0,
) -> SmFpcaResult:
    """Extract ``n_components`` components, choosing the smoothing
    parameter per component.

    Parameters
    ----------
    X : DataMatrix
    n_components : int
    lambda_grid : array_like
        Positive, finite candidate smoothing parameters; one point for
        ``"fixed"``.
    ops : FemOperators
    selection : {"kfold", "gcv", "fixed"}
        K-fold cross-validation over functions, generalized
        cross-validation on the regression step (re-selected at each
        alternation using the current scores), or the grid's one
        parameter.
    folds : int
        Fold count for K-fold selection.
    center : bool
        Subtract the columnwise mean field first (stored on the result).
    max_iterations : int
        Alternation budget per component fit, at least 0 (0 still
        performs one pass). Each returned component that runs out of it
        before meeting ``tolerance`` warns once; a budget of 0 or 1 never
        meets it (see `fit_component`). Selection candidates do not warn.
    tolerance : float
        Relative change of the coefficient vector that stops the
        alternation; non-negative and finite.
    seed : int
        Non-negative; drives the fold shuffle, and component c derives
        its own stream.

    Returns
    -------
    SmFpcaResult

    Raises
    ------
    DegenerateData
        Also when deflation has exhausted the data (left at most 1e-24
        of their squared norm, which is roundoff) before
        ``n_components`` components; the message names the component.
    """
    grid = _check_selection(
        n_components, selection, lambda_grid, ("kfold", "gcv", "fixed"),
        max_iterations, tolerance, seed,
    )
    if center:
        mean_field = X.values.mean(axis=0)
        X = DataMatrix(X.values - mean_field)
    else:
        mean_field = None

    systems = _selection._Systems(ops)

    def fit_one(work, comp_index):
        if selection == "gcv":
            return _fit_component_gcv(work, grid, ops, systems,
                                      max_iterations, tolerance)
        lam, trace = float(grid[0]), None
        if selection == "kfold":
            trace = _selection.kfold_select(
                work, grid, folds, ops,
                seed=[seed, comp_index], systems=systems,
                max_iterations=max_iterations, tolerance=tolerance,
            )
            lam = float(grid[trace.chosen])
        component = fit_component(
            work, lam, ops, system=systems[lam],
            max_iterations=max_iterations, tolerance=tolerance,
        )
        return component, trace

    return _extract(X, n_components, fit_one, deflate, mean_field)


def _extract(data, n_components, fit_one, deflate_one, mean_field):
    """The component driver of `fit` and `fit_missing`: ``fit_one(data,
    index)`` returns a component and its selection trace, and
    ``deflate_one`` removes the component from the data before the next
    (only then: the last component is not deflated). Warns once for each
    component that did not converge (selection candidates, fitted inside
    ``fit_one``, do not). Stops with DegenerateData once deflation has
    exhausted the data."""
    components = []
    traces = []
    initial = data.xnorm2
    for comp_index in range(n_components):
        if comp_index:
            data = deflate_one(data, components[-1])
            if data.xnorm2 <= _EXHAUSTED * initial:
                raise DegenerateData(
                    f"component {comp_index + 1}: the data are exhausted after "
                    f"{comp_index} (squared norm {data.xnorm2:.3g} left of "
                    f"{initial:.3g}); ask for fewer components"
                )
        component, trace = fit_one(data, comp_index)
        if not component.converged:
            warnings.warn(
                f"component {comp_index + 1}: the alternation stopped at its "
                f"cap of {component.iterations} iterations before meeting "
                f"the tolerance",
                stacklevel=3,
            )
        components.append(component)
        traces.append(trace)
    adjusted = adjusted_total_variance(components)
    return SmFpcaResult(
        components=components, adjusted_variance=adjusted,
        cumulative_variance=np.cumsum(adjusted), mean_field=mean_field,
        selection_traces=traces,
    )


def _fit_component_gcv(X, grid, ops, systems, max_iterations, tolerance):
    # The parameter is re-selected at every alternation from the scores
    # of that iteration, so the objective is not comparable (and not
    # asserted monotone) across iterations; the last choice stands.
    selections = []

    def choose(u):
        selections.append(_selection.gcv_select(X, u, grid, ops, systems=systems))
        return float(grid[selections[-1].chosen])

    component = _alternate(_DenseTerm(X, ops, systems), score_step(X, initialize(X)),
                           None, max_iterations, tolerance, choose)
    history = [float(grid[trace.chosen]) for trace in selections]
    return component, replace(selections[-1], history=history)


def _check_selection(n_components, selection, lambda_grid, methods,
                     max_iterations, tolerance, seed):
    """The argument checks of `fit` and `fit_missing`; returns the
    checked grid."""
    if n_components < 1:
        raise InputError("n_components must be at least 1")
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    if max_iterations < 0:
        raise InputError(f"max_iterations must be at least 0, got {max_iterations}")
    if not 0 <= tolerance < np.inf:
        raise InputError(
            f"tolerance must be non-negative and finite, got {tolerance:g}"
        )
    if selection not in methods:
        if selection == "gcv":
            raise InputError(
                "gcv selection requires fully observed data; use kfold or fixed"
            )
        raise InputError(f"unknown selection method {selection!r}")
    grid = _check_grid(lambda_grid)
    if selection == "fixed" and grid.size != 1:
        raise InputError(
            f"fixed selection needs a one-point lambda grid, got {grid.size} points"
        )
    return grid


def _check_grid(lambda_grid):
    grid = np.asarray(lambda_grid, dtype=np.float64).ravel()
    if grid.size == 0:
        raise InputError("lambda grid is empty")
    if not ((grid > 0) & (grid < np.inf)).all():
        raise InputError("lambda grid entries must be positive and finite")
    return grid


# -- partially observed data ------------------------------------------


class _MissingState:
    """Per-function sparse operators for one observation set.

    Every weighted data block sum_i u_i^2 psi_i' psi_i lies on one
    pattern, fixed by the locations: the entry pairs (a, b) of some
    observation row. `gram_map`, of shape (pattern entries, n), holds in
    column i the values of psi_i' psi_i there, so a block is `gram_map`
    applied to the squared scores, and f' psi_i' psi_i f is column i
    applied to the products f_a f_b.
    """

    def __init__(self, obs: ObservationSet, ops: FemOperators):
        self.ops = ops
        psi = location_matrix(ops.mesh, obs.locations)
        rows = [rows_i for rows_i, _ in obs.functions]
        self.psis = [psi[rows_i] for rows_i in rows]
        self._map_grams(psi[np.concatenate(rows)], [len(rows_i) for rows_i in rows])
        self._set_values([vals for _, vals in obs.functions])

    def _set_values(self, values, d_matrix=None):
        self.values = values
        if d_matrix is None:
            # Column i accumulates function i's observations onto vertices.
            d_matrix = np.stack(
                [psi_i.T @ vals for psi_i, vals in zip(self.psis, values)], axis=1
            )
        self.d_matrix = d_matrix
        self.xnorm2 = float(sum(float(v @ v) for v in values))

    def _map_grams(self, stack, counts):
        """Build `gram_map` and the pattern (CSR `_gram_indices` and
        `_gram_indptr`, and `_gram_rows`) from the stacked location
        matrices, ``counts[i]`` rows for function i, their rows grouped
        by entry count."""
        K = stack.shape[1]
        lengths = np.diff(stack.indptr)
        n = len(counts)
        owner = np.repeat(np.arange(n), counts)
        keys, products, functions = [], [], []
        for k in np.unique(lengths[lengths > 0]):
            rows = np.flatnonzero(lengths == k)
            at = stack.indptr[rows][:, None] + np.arange(k)
            cols = stack.indices[at].astype(np.int64)
            vals = stack.data[at]
            keys.append((cols[:, :, None] * K + cols[:, None, :]).ravel())
            products.append((vals[:, :, None] * vals[:, None, :]).ravel())
            functions.append(np.repeat(owner[rows], k * k))
        pattern, entry = np.unique(np.concatenate(keys), return_inverse=True)
        self.gram_map = sparse.csc_matrix(
            (np.concatenate(products), (entry.ravel(), np.concatenate(functions))),
            shape=(pattern.size, n),
        )
        self._gram_map_t = self.gram_map.T  # a CSR view, for every `energies`
        self._gram_rows = pattern // K
        self._gram_indices = pattern % K
        self._gram_indptr = np.searchsorted(self._gram_rows, np.arange(K + 1))

    @property
    def n(self):
        return len(self.values)

    def subset(self, rows):
        state = copy.copy(self)
        state.psis = [self.psis[i] for i in rows]
        # The pattern keeps the full state's entries; those no training
        # function touches hold explicit zeros.
        state.gram_map = self.gram_map[:, rows]
        state._gram_map_t = state.gram_map.T
        # slicing, not restacking, keeps the full state's layout and rounding
        state._set_values([self.values[i] for i in rows], self.d_matrix[:, rows])
        return state

    def energies(self, f):
        """Each function's profile energy ||psi_i f||^2."""
        return self._gram_map_t @ (f[self._gram_rows] * f[self._gram_indices])

    def weighted_gram(self, u):
        """Sum over functions of u_i^2 psi_i' psi_i, as `gram_map` applied
        to u^2 on the fixed pattern."""
        K = self.ops.vertex_count
        return sparse.csr_matrix(
            (self.gram_map @ (np.asarray(u) ** 2), self._gram_indices,
             self._gram_indptr),
            shape=(K, K),
        )

    def deflated(self, component):
        # Subtract each function's share of the fitted component at its
        # own observation points (columnwise projection is unavailable
        # without a common grid).
        f_unnorm = component.function_norm * component.f_coefficients
        new = copy.copy(self)
        new._set_values([
            vals - component.scores[i] * (psi_i @ f_unnorm)
            for i, (psi_i, vals) in enumerate(zip(self.psis, self.values))
        ])
        return new


def _initial_scores_missing(state):
    """Starting scores of a masked fit: the projection, normalized, of the
    accumulated observations (one row per function, one column per
    vertex) onto their sign-fixed leading right singular vector, taken
    from the smaller Gram matrix (`_leading_right_vector`)."""
    accumulated = state.d_matrix.T
    if not accumulated.any():
        raise DegenerateData("observations accumulate to zero everywhere")
    v, _ = _fix_sign(_leading_right_vector(accumulated))
    return _unit(accumulated @ v, "initial score projection vanished")


def _fit_component_missing(state, lam, ops, max_iterations, tolerance, start=None):
    u = (_initial_scores_missing(state) if start is None
         else _checked_start(start, state.n, "scores"))
    return _alternate(_MissingTerm(state, ops), u, float(lam),
                      max_iterations, tolerance)


class _MissingTerm:
    """Data term of per-function observations for one component fit.

    The data block moves only through u, so the fit's first factorization
    preconditions every later solve; a new one is made only when
    refinement against it fails to converge. That state is per fit, and
    the fit only reads its `_MissingState`, so one state serves every fit
    made on it in turn."""

    def __init__(self, state: _MissingState, ops: FemOperators):
        self.state = state
        self.ops = ops
        self.xnorm2 = state.xnorm2
        self._system = self._gram = self._solution = None

    def scores(self, f, g, lam):
        # the exact minimizer for fixed (f, g), normalized (module docstring)
        state = self.state
        energy = state.energies(f) + lam * penalty_value(g, self.ops)
        inner = state.d_matrix.T @ f
        u = np.divide(inner, energy, out=np.zeros_like(inner), where=energy > 0)
        return _unit(u, "all score inner products vanished")

    def solve(self, u, lam):
        self._gram = self.state.weighted_gram(u)
        rhs = self.state.d_matrix @ u
        solution = None
        if self._system is not None:
            solution = self._system.solve_with_block(self._gram, rhs, self._solution[0])
        if solution is None:
            self._system = solver.SaddleSystem(self.ops, self._gram, lam)
            solution = self._system.solve(rhs)
        self._solution = solution
        return solution

    def objective(self, u, f, g, lam):
        pen = penalty_value(g, self.ops)
        # sum_i u_i^2 ||psi_i f||^2 is f' gram f
        fit_term = (
            self.xnorm2
            - 2.0 * float(u @ (self.state.d_matrix.T @ f))
            + float(f @ (self._gram @ f))
        )
        return fit_term + lam * pen


def fit_missing(
    obs: ObservationSet,
    n_components: int,
    lambda_grid,
    ops: FemOperators,
    selection: str = "kfold",
    folds: int = 5,
    max_iterations: int = 15,
    tolerance: float = 1e-6,
    seed: int = 0,
) -> SmFpcaResult:
    """Extract components from per-function observations.

    The score update divides each function's observation/function inner
    product by that function's own profile energy plus the weighted
    penalty (the exact minimizer), then normalizes; the function update
    solves the saddle-point system whose data block weights each
    function's Gram matrix by its squared score. On fully observed data
    (every function observed at every location) the energies agree, the
    weighted block collapses to psi' psi because the scores have unit
    norm, and the result coincides with `fit` up to roundoff.

    The data block moves with the scores, so each component fit factors
    its system once, on the first alternation, and solves every later
    alternation by iterative refinement preconditioned with that
    factorization; when refinement does not converge within its step
    budget, the system is factored anew for the current scores.

    No centering is applied: a columnwise mean is undefined for ragged
    observations, so callers wanting centered behavior must center
    upstream. Generalized cross-validation is likewise undefined here;
    use ``"kfold"`` or ``"fixed"`` selection. The other arguments, and
    the stop once deflation has exhausted the data, are those of `fit`;
    ragged deflation is not a projection, so it exhausts only data that
    the fits reproduce exactly.
    """
    grid = _check_selection(
        n_components, selection, lambda_grid, ("kfold", "fixed"),
        max_iterations, tolerance, seed,
    )

    def fit_one(state, comp_index):
        lam, trace = float(grid[0]), None
        if selection == "kfold":
            trace = _selection.kfold_select_missing(
                state, grid, folds, ops,
                seed=[seed, comp_index],
                max_iterations=max_iterations, tolerance=tolerance,
            )
            lam = float(grid[trace.chosen])
        return _fit_component_missing(state, lam, ops, max_iterations, tolerance), trace

    return _extract(_MissingState(obs, ops), n_components, fit_one,
                    _MissingState.deflated, None)
