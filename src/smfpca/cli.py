"""Command-line interface.

Subcommands
-----------
fit
    Extract smoothed principal components from a mesh + data CSV.
simulate
    Generate synthetic datasets on a given or generated mesh.
evaluate
    Score a fit against generator truth, optionally against the
    multivariate PCA baseline.
mesh-info
    Print mesh census statistics as JSON.

Every command resolves its configuration from hard defaults, then an
optional ``--config`` JSON file, then explicit flags. Only a command that
succeeds writes: its files into the output directory, then last the
resolved configuration as ``manifest.json``, which re-runs it exactly as
``--config``. Exit codes: 0 success, 2 input error, 3 numerical error.
A command runs with the BLAS copies that numpy and scipy bundle, where it
computes with them, pinned to one thread, so that its outputs do not
depend on the BLAS thread count. A command freezes the garbage collector's
objects at interpreter exit, so that the process ends without collecting
the module graph that numpy and scipy leave behind.
"""

import argparse
import atexit
import contextlib
import ctypes
import gc
import glob
import json
import os
import sys
import warnings

import numpy as np
import scipy

from . import __version__
from .errors import InputError, NumericalError
from . import estimator, fem, mesh as meshmod, metrics, selection, serialize, synth

# Score sigmas of each generator when --sigmas is not given.
_DEFAULT_SIGMAS = {"eigen": [5.0, 3.0, 1.0], "sphere": [4.0, 2.0],
                   "misaligned": [4.0]}


def _float_list(text):
    return [float(tok) for tok in str(text).split(",") if tok.strip() != ""]


def _int_list(text):
    return [int(tok) for tok in str(text).split(",") if tok.strip() != ""]


def _load_config_file(path):
    document = serialize.load_json(path)
    if not isinstance(document, dict):
        raise InputError(f"{path}: config must be a JSON object")
    # a manifest doubles as a config file
    if isinstance(document.get("config"), dict):
        document = document["config"]
    return document


# The JSON types a config-file value may take, by the type of its flag.
_JSON_TYPES = {None: (str,), int: (int,), float: (int, float),
               _int_list: (int,), _float_list: (int, float)}


def _check_config_value(key, value, flag, default):
    """Reject a config-file value that ``flag`` could not parse to; null
    stands only for a parameter whose default is null."""
    kinds = (bool,) if flag.nargs == 0 else _JSON_TYPES[flag.type]
    if flag.type in (_int_list, _float_list):
        good = type(value) is list and all(type(v) in kinds for v in value)
    else:
        good = type(value) in kinds and value in (flag.choices or [value])
    if not good and not (value is None and default is None):
        raise InputError(f"config key {key!r}: {value!r} is not a value "
                         f"{flag.option_strings[0]} takes")


def _resolve(args, defaults):
    """Defaults, overlaid by the config file, overlaid by given flags."""
    config = dict(defaults)
    if getattr(args, "config", None):
        loaded = _load_config_file(args.config)
        unknown = set(loaded) - set(defaults)
        if unknown:
            raise InputError(
                f"unknown config keys: {', '.join(sorted(unknown))}"
            )
        for key, value in loaded.items():
            _check_config_value(key, value, args.flags[key], defaults[key])
        config.update(loaded)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
    return config


def _require(config, key, flag):
    if config.get(key) is None:
        raise InputError(f"missing required parameter: {flag}")
    return config[key]


def _versions():
    return {
        "smfpca": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": ".".join(str(v) for v in sys.version_info[:3]),
    }


def _write_outputs(command, config, files):
    """Create ``--outdir``, call each file's ``write(path)``, then write
    the manifest."""
    outdir = config["outdir"]
    os.makedirs(outdir, exist_ok=True)
    for name, write in files.items():
        write(os.path.join(outdir, name))
    serialize.write_json(os.path.join(outdir, "manifest.json"), {
        "command": command, "config": config, "versions": _versions()})


# -- fit --------------------------------------------------------------


def cmd_fit(config):
    if config["fixed_lambda"] is not None and (
            config["selection"] != "fixed" or config["lambda_grid"] is not None):
        raise InputError("--fixed-lambda needs --selection fixed and no --lambda-grid")
    surface = meshmod.load_mesh(_require(config, "mesh", "--mesh"))
    data_path = _require(config, "data", "--data")
    values = serialize.read_data_csv(data_path)
    if values.shape[1] != surface.K:
        raise InputError(
            f"{data_path}: {values.shape[1]} data columns for a mesh "
            f"with {surface.K} vertices"
        )
    locations = meshmod.vertex_locations(surface)
    ops = fem.assemble(surface, locations)

    grid = config["lambda_grid"]
    if config["fixed_lambda"] is not None:
        grid = [config["fixed_lambda"]]
    elif grid is None:
        grid = [float(v) for v in selection.default_lambda_grid(ops)]
        config = dict(config, lambda_grid=grid)

    common = dict(
        n_components=config["n_components"],
        lambda_grid=grid,
        ops=ops,
        selection=config["selection"],
        folds=config["folds"],
        max_iterations=config["max_iterations"],
        tolerance=config["tolerance"],
        seed=config["seed"],
    )
    if np.isnan(values.min()):  # NaN reaches the minimum; no n x K mask
        warnings.warn(
            "data has missing entries: fitting per-function observations, "
            "centering skipped",
            stacklevel=2,
        )
        obs = estimator.ObservationSet.from_masked(values, locations)
        result = estimator.fit_missing(obs, **common)
    else:
        result = estimator.fit(
            estimator.DataMatrix(values), center=config["center"], **common
        )

    document = serialize.result_to_dict(result)
    scores = np.stack([c.scores for c in result.components], axis=1)
    fields = np.stack([c.f_coefficients for c in result.components], axis=1)
    files = {
        "result.json": lambda path: serialize.write_json(path, document),
        "scores.csv": lambda path: serialize.write_matrix_csv(path, scores),
        "vertex_values.csv": lambda path: serialize.write_matrix_csv(path, fields),
    }
    if config["export_matrices"]:
        from scipy.io import mmwrite

        files["mass.mtx"] = lambda path: mmwrite(path, ops.mass)
        files["stiffness.mtx"] = lambda path: mmwrite(path, ops.stiffness)
        files["psi.mtx"] = lambda path: mmwrite(path, ops.psi)
    return config, files


# -- simulate ---------------------------------------------------------


def cmd_simulate(config):
    files = {}
    if config["sphere"] is not None and config["mesh"] is not None:
        raise InputError("give either --mesh or --sphere, not both")
    if config["sphere"] is not None:
        surface = meshmod.unit_sphere_mesh(int(config["sphere"]))
        files["mesh.off"] = lambda path: meshmod.save_mesh(surface, path)
    else:
        surface = meshmod.load_mesh(_require(config, "mesh", "--mesh or --sphere"))

    generator = config["generator"]
    sigmas = config["sigmas"]
    if sigmas is None:
        sigmas = _DEFAULT_SIGMAS[generator]
    config = dict(config, sigmas=[float(v) for v in sigmas])
    if generator == "eigen":
        dataset = synth.generate_eigen_dataset(
            surface, config["eigen_indices"], config["sigmas"],
            config["n"], config["noise"], config["seed"],
        )
    elif generator == "sphere":
        dataset = synth.generate_sphere_dataset(
            surface, config["n"], config["sigmas"], config["noise"],
            config["seed"],
        )
    elif len(sigmas) != 1:
        raise InputError(f"--sigmas: misaligned takes one sigma, got {len(sigmas)}")
    else:
        dataset = synth.generate_misaligned_dataset(
            surface, config["n"], config["sigmas"][0],
            config["shift_set"], config["seed"],
        )

    data, truth = dataset.X.values, serialize.truth_to_dict(dataset)
    files["data.csv"] = lambda path: serialize.write_data_csv(path, data)
    files["truth.json"] = lambda path: serialize.write_json(path, truth)
    return config, files


# -- evaluate ---------------------------------------------------------


def _metric_rows(replicate, label, report):
    rows = []
    for j, v in enumerate(report.pc_function_mse, start=1):
        rows.append((replicate, label, "pcFunctionMse", j, v))
    for j, v in enumerate(report.score_mse, start=1):
        rows.append((replicate, label, "scoreMse", j, v))
    rows.append((replicate, label, "signalMse", None, report.signal_mse))
    rows.append((replicate, label, "principalAngle", None, report.principal_angle))
    return rows


def _append_metric_rows(path, rows):
    """Append to an existing metrics file, or start one."""
    if not os.path.exists(path):
        return serialize.write_metric_rows(path, rows)
    with open(path, "a", encoding="ascii") as handle:
        handle.writelines(f"{serialize._metric_line(*r)}\n" for r in rows)


def _baseline_components(config, n_components):
    """The multivariate PCA components of ``--data``, which must be fully
    observed; the data matrix is released before the components are
    scored."""
    surface = meshmod.load_mesh(_require(config, "mesh", "--mesh"))
    values = serialize.read_data_csv(config["data"])
    if np.isnan(values.min()):  # NaN reaches the minimum; no n x K mask
        raise InputError("multivariate PCA baseline needs fully observed data")
    return metrics.mv_pca(estimator.DataMatrix(values), n_components, surface)


def cmd_evaluate(config):
    result_doc = serialize.load_json(_require(config, "result", "--result"))
    truth_doc = serialize.load_json(_require(config, "truth", "--truth"))
    est_values, est_scores, norms, curve = serialize.arrays_from_result(result_doc)
    true_values, true_scores = serialize.arrays_from_truth(truth_doc)

    report = metrics.evaluate_arrays(
        est_values, est_scores, norms, true_values, true_scores,
        explained_variance_curve=curve,
    )
    evaluation = serialize.report_to_dict(report)
    rows = _metric_rows(config["replicate"], config["method_label"], report)

    # optional unsmoothed baseline on the raw data
    if config["data"] is not None:
        comps = _baseline_components(config, est_values.shape[1])
        mv_values = np.stack([c.coefficients for c in comps], axis=1)
        mv_scores = np.stack([c.scores for c in comps], axis=1)
        mv_norms = np.asarray([c.function_norm for c in comps])
        mv_report = metrics.evaluate_arrays(
            mv_values, mv_scores, mv_norms, true_values, true_scores
        )
        rows += _metric_rows(config["replicate"], "mv-pca", mv_report)

    write_rows = _append_metric_rows if config["append"] else serialize.write_metric_rows
    return config, {
        "evaluation.json": lambda path: serialize.write_json(path, evaluation),
        "metrics.csv": lambda path: write_rows(path, rows),
    }


# -- mesh-info --------------------------------------------------------


def cmd_mesh_info(config):
    surface = meshmod.load_mesh(_require(config, "mesh", "--mesh"))
    info = {
        "vertices": surface.K,
        "triangles": surface.T,
        "edges": surface.edge_count,
        "boundaryEdges": surface.boundary_edge_count,
        "components": surface.component_count,
        "closed": surface.closed,
        "totalArea": surface.total_area(),
        "boundingBox": {
            "min": [float(v) for v in surface.vertices.min(axis=0)],
            "max": [float(v) for v in surface.vertices.max(axis=0)],
        },
    }
    json.dump(info, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


# -- argument parsing -------------------------------------------------


def _add_common(sub):
    sub.add_argument("--config", help="JSON config file (or a manifest)")
    sub.add_argument("--outdir", default=".", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smfpca",
        description="Smoothed functional principal components on "
        "triangulated surfaces",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="extract principal components")
    _add_common(p)
    p.add_argument("--mesh", help="surface mesh (OFF)")
    p.add_argument("--data", help="data CSV, one row per function")
    p.add_argument("--n-components", type=int, default=3, dest="n_components")
    p.add_argument(
        "--lambda-grid", type=_float_list, dest="lambda_grid",
        help="comma-separated candidate smoothing parameters",
    )
    p.add_argument("--selection", choices=["kfold", "gcv", "fixed"],
                   default="kfold")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--fixed-lambda", type=float, dest="fixed_lambda")
    p.add_argument(
        "--center", action=argparse.BooleanOptionalAction, default=True,
        help="subtract the mean field (default), or skip centering",
    )
    p.add_argument("--max-iterations", type=int, default=15,
                   dest="max_iterations")
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--export-matrices", dest="export_matrices", action="store_true",
        help="also write mass/stiffness/psi in MatrixMarket form",
    )
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    _add_common(p)
    p.add_argument("--generator", choices=["eigen", "sphere", "misaligned"],
                   default="sphere")
    p.add_argument("--mesh", help="surface mesh (OFF)")
    p.add_argument(
        "--sphere", type=int,
        help="generate a unit icosphere with this many subdivisions",
    )
    p.add_argument("--n", type=int, default=50, help="number of functions")
    p.add_argument("--noise", type=float, default=0.1,
                   help="observation noise sigma")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--sigmas", type=_float_list,
        help="comma-separated component score sigmas",
    )
    p.add_argument(
        "--eigen-indices", type=_int_list, default=[1, 2, 3],
        dest="eigen_indices",
        help="eigenfunction indices for the eigen generator",
    )
    p.add_argument(
        "--shift-set", type=_float_list, default=[0.0, 0.4], dest="shift_set",
        help="candidate angular shifts for the misaligned generator",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("evaluate", help="score a fit against truth")
    _add_common(p)
    p.add_argument("--result", help="result JSON from fit")
    p.add_argument("--truth", help="truth JSON from simulate")
    p.add_argument(
        "--mesh", help="surface mesh, needed for the multivariate baseline"
    )
    p.add_argument(
        "--data",
        help="data CSV; when given, also score the multivariate PCA baseline",
    )
    p.add_argument("--replicate", type=int, default=0,
                   help="replicate label for rows")
    p.add_argument("--method-label", default="smfpca", dest="method_label")
    p.add_argument(
        "--append", action="store_true",
        help="append to an existing metrics.csv instead of rewriting",
    )
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("mesh-info", help="print mesh statistics as JSON")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--mesh", help="surface mesh (OFF)")
    p.set_defaults(func=cmd_mesh_info)
    # Each flag's action and default, by destination. A flag left out
    # then parses to None, so `_resolve` can tell it from a given one.
    for p in sub.choices.values():
        flags = {a.dest: a for a in p._actions
                 if a.dest not in ("help", "config")}
        defaults = {dest: a.default for dest, a in flags.items()}
        p.set_defaults(**dict.fromkeys(flags), flags=flags, defaults=defaults)
    return parser


def _bundled(package, pattern):
    return os.path.join(os.path.dirname(os.path.dirname(package.__file__)), pattern)


# The OpenBLAS copies that numpy and scipy bundle: a glob of the file
# beside the package, and the suffix of the copy's thread getter and
# setter.
_BLAS_COPIES = {
    "numpy": (_bundled(np, "numpy.libs/libscipy_openblas64_-*.so"), "64_"),
    "scipy": (_bundled(scipy, "scipy.libs/libscipy_openblas-*.so"), ""),
}


def _blas_users(command, config):
    """The packages whose BLAS ``command`` computes with. Fits factor
    through scipy.linalg and the eigen generator runs ARPACK, both on
    scipy's BLAS, which their modules load on first use; it is loaded
    here instead, so that the pin reaches it (and a fit's factorization
    wrappers load with the inputs, not inside the fit)."""
    if command == "mesh-info":
        return ()
    if command == "fit" or config.get("generator") == "eigen":
        import scipy.linalg  # noqa: F401
        return ("numpy", "scipy")
    return ("numpy",)


@contextlib.contextmanager
def _one_blas_thread(packages):
    """Pin the loaded OpenBLAS copy of each of ``packages`` to one
    thread, and restore its count on exit. Every file that matches a
    copy's glob is looked up (RTLD_NOLOAD), none is loaded. One warning
    names the packages with no loaded copy that has a thread setter:
    their results may depend on the thread count."""
    restore, unpinned = [], []
    for package in packages:
        pattern, suffix = _BLAS_COPIES[package]
        pinned = False
        for path in sorted(glob.glob(pattern)):
            try:
                blas = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
            except OSError:  # not a loaded copy
                continue
            get = getattr(blas, f"scipy_openblas_get_num_threads{suffix}", None)
            set_ = getattr(blas, f"scipy_openblas_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                restore.append((set_, get()))
                set_(1)
                pinned = True
        if not pinned:
            unpinned.append(package)
    if unpinned:
        warnings.warn(f"cannot pin the BLAS of {' and '.join(unpinned)} to one "
                      "thread; outputs may depend on the BLAS thread count")
    try:
        yield
    finally:
        for set_, count in reversed(restore):
            set_(count)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Freeze at exit, not now: a caller's process runs on unchanged, and
    # its final collection skips numpy's and scipy's objects (0.03 s
    # after a level-4 fit). Registered anew, the hook is registered once
    # however often main runs.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    try:
        config = _resolve(args, args.defaults)
        with _one_blas_thread(_blas_users(args.command, config)):
            outputs = args.func(config)
            if outputs is not None:  # mesh-info prints instead
                _write_outputs(args.command, *outputs)
        return 0
    except OSError as exc:
        name = exc.filename if exc.filename else exc
        reason = ("file not found" if isinstance(exc, FileNotFoundError)
                  else f"cannot access file ({exc.strerror or 'I/O error'})")
        print(f"smfpca: error: {reason}: {name}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"smfpca: error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"smfpca: numerical error: {exc}", file=sys.stderr)
        return 3


def entry():
    # Warnings read like the errors, without the library's file and line.
    warnings.formatwarning = lambda message, *_: f"smfpca: warning: {message}\n"
    sys.exit(main())


if __name__ == "__main__":
    entry()
