"""Every public count, seed and real argument is checked on one path
(`errors.check_count`, `errors.check_real`): a bad value raises the
documented InputError subclass, with a message that names the argument,
and numpy scalars pass like Python ones."""

import re

import numpy as np
import pytest

from smfpca import (
    DimensionMismatch,
    InputError,
    InvalidFoldCount,
    ObservationSet,
    SaddleSystem,
    fit,
    fit_component,
    fit_missing,
    gcv_select,
    generate_eigen_dataset,
    generate_misaligned_dataset,
    generate_sphere_dataset,
    kfold_select,
    lb_eigenpairs,
    make_folds,
    mv_pca,
    unit_sphere_mesh,
    vertex_locations,
)
from smfpca.estimator import data_gram

GRID = [1e-3, 1e-1]
COUNT = [2.5, True, "2", np.float64(2.0)]
REAL = [True, "2", np.nan, np.inf]


def data(ops):
    return generate_sphere_dataset(ops.mesh, 10, (4.0, 2.0), 0.1, 1).X


def observations(ops):
    return ObservationSet.from_masked(data(ops).values, vertex_locations(ops.mesh))


# entry point and argument: call(ops, value), error class, the name the
# message gives, bad values besides those of the kind, kind, a good
# numpy value
ROWS = {
    "fit n_components": (lambda ops, v: fit(data(ops), v, GRID, ops),
                         InputError, "n_components", [0], COUNT, np.int64(1)),
    "fit max_iterations": (lambda ops, v: fit(data(ops), 1, GRID, ops, max_iterations=v),
                           InputError, "max_iterations", [-1], COUNT, np.int16(15)),
    "fit seed": (lambda ops, v: fit(data(ops), 1, GRID, ops, seed=v),
                 InputError, "seed", [-1], COUNT, np.uint8(4)),
    "fit tolerance": (lambda ops, v: fit(data(ops), 1, GRID, ops, tolerance=v),
                      InputError, "tolerance", [-1.0], REAL, np.float64(1e-6)),
    "fit folds": (lambda ops, v: fit(data(ops), 1, GRID, ops, folds=v),
                  InvalidFoldCount, "fold count", [1, 11], COUNT, np.int32(3)),
    "fit lambda_grid": (lambda ops, v: fit(data(ops), 1, [1e-3, v], ops),
                        InputError, "lambda grid entry 1", [0.0, -1.0], REAL + [None],
                        np.float64(1e-1)),
    "fit_missing n_components": (lambda ops, v: fit_missing(observations(ops), v, GRID, ops),
                                 InputError, "n_components", [0], COUNT, np.int64(1)),
    "fit_missing max_iterations": (
        lambda ops, v: fit_missing(observations(ops), 1, GRID, ops, max_iterations=v),
        InputError, "max_iterations", [-1], COUNT, np.int64(15)),
    "fit_missing seed": (lambda ops, v: fit_missing(observations(ops), 1, GRID, ops, seed=v),
                         InputError, "seed", [-1], COUNT, np.int64(4)),
    "fit_missing tolerance": (
        lambda ops, v: fit_missing(observations(ops), 1, GRID, ops, tolerance=v),
        InputError, "tolerance", [-1.0], REAL, np.float64(1e-6)),
    "fit_missing folds": (lambda ops, v: fit_missing(observations(ops), 1, GRID, ops, folds=v),
                          InvalidFoldCount, "fold count", [1, 11], COUNT, np.int64(3)),
    "fit_component max_iterations": (
        lambda ops, v: fit_component(data(ops), 1e-3, ops, max_iterations=v),
        InputError, "max_iterations", [-2], COUNT, np.int64(15)),
    "fit_component tolerance": (
        lambda ops, v: fit_component(data(ops), 1e-3, ops, tolerance=v),
        InputError, "tolerance", [-1.0], REAL, np.float64(1e-6)),
    "make_folds folds": (lambda ops, v: make_folds(10, v, 0),
                         InvalidFoldCount, "fold count", [1, 11], COUNT, np.int8(2)),
    "make_folds seed": (lambda ops, v: make_folds(10, 2, v),
                        InputError, "seed", [-1], COUNT, np.int64(3)),
    "make_folds seed entry": (lambda ops, v: make_folds(10, 2, [0, v]),
                              InputError, "seed", [-1], COUNT, np.uint8(3)),
    "kfold_select folds": (lambda ops, v: kfold_select(data(ops), GRID, v, ops),
                           InvalidFoldCount, "fold count", [1, 11], COUNT, np.int64(2)),
    "kfold_select seed": (lambda ops, v: kfold_select(data(ops), GRID, 2, ops, seed=v),
                          InputError, "seed", [-1], COUNT, np.int64(1)),
    "gcv_select lambda_grid": (
        lambda ops, v: gcv_select(data(ops), np.full(10, 10**-0.5), [v], ops),
        InputError, "lambda grid entry 0", [0.0], REAL, np.float64(1e-3)),
    "sphere n": (lambda ops, v: generate_sphere_dataset(ops.mesh, v, (4.0, 2.0), 0.1, 1),
                 InputError, "n", [0], COUNT, np.int64(5)),
    "sphere noise_sigma": (
        lambda ops, v: generate_sphere_dataset(ops.mesh, 5, (4.0, 2.0), v, 1),
        InputError, "noise sigma", [-0.5], REAL, np.float64(0.1)),
    "sphere seed": (lambda ops, v: generate_sphere_dataset(ops.mesh, 5, (4.0, 2.0), 0.1, v),
                    InputError, "seed", [-1], COUNT, np.int64(1)),
    "eigen eigen_selection": (
        lambda ops, v: generate_eigen_dataset(ops.mesh, [1, v], (5.0, 3.0), 5, 0.1, 1),
        InputError, "eigen_selection entry 1", [-1], COUNT, np.int64(2)),
    "eigen n": (lambda ops, v: generate_eigen_dataset(ops.mesh, [1], (5.0,), v, 0.1, 1),
                InputError, "n", [0], COUNT, np.int64(5)),
    "eigen noise_sigma": (
        lambda ops, v: generate_eigen_dataset(ops.mesh, [1], (5.0,), 5, v, 1),
        InputError, "noise sigma", [-0.5], REAL, np.float64(0.1)),
    "eigen seed": (lambda ops, v: generate_eigen_dataset(ops.mesh, [1], (5.0,), 5, 0.1, v),
                   InputError, "seed", [-1], COUNT, np.int64(1)),
    "misaligned n": (lambda ops, v: generate_misaligned_dataset(ops.mesh, v, 4.0, seed=1),
                     InputError, "n", [0], COUNT, np.int64(5)),
    "misaligned sigma": (lambda ops, v: generate_misaligned_dataset(ops.mesh, 5, v, seed=1),
                         InputError, "score sigmas entry 0", [], REAL, np.float64(4.0)),
    "misaligned seed": (lambda ops, v: generate_misaligned_dataset(ops.mesh, 5, 4.0, seed=v),
                        InputError, "seed", [-1], COUNT, np.int64(1)),
    "unit_sphere_mesh subdivisions": (lambda ops, v: unit_sphere_mesh(v),
                                      InputError, "subdivisions", [-1], COUNT, np.int64(1)),
    "lb_eigenpairs count": (lambda ops, v: lb_eigenpairs(ops, v),
                            DimensionMismatch, "count", [0, 42], COUNT, np.int32(3)),
    "mv_pca n_components": (lambda ops, v: mv_pca(data(ops), v, ops.mesh),
                            DimensionMismatch, "n_components", [0, 11], COUNT, np.int64(2)),
    "SaddleSystem lam": (lambda ops, v: SaddleSystem(ops, data_gram(ops), v),
                         InputError, "smoothing parameter", [0.0, -1.0], REAL,
                         np.float64(1e-3)),
}

CASES = [pytest.param(row, bad, id=f"{row}={bad!r}")
         for row, (_, _, _, out_of_range, kind, _) in ROWS.items()
         for bad in kind + out_of_range]


@pytest.mark.parametrize("row, bad", CASES)
def test_bad_arguments_raise_naming_the_argument(ops1, row, bad):
    call, error, name, *_ = ROWS[row]
    with pytest.raises(error, match=f"^{re.escape(name)} must (be|lie) .*, got "):
        call(ops1, bad)


@pytest.mark.parametrize("row", ROWS)
def test_numpy_scalars_pass(ops1, row):
    call, *_, good = ROWS[row]
    call(ops1, good)
