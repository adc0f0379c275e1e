"""The benchmark harness wraps private package names that no public API
pins down; renaming or removing one makes every benchmark run crash, and
renaming a function whose spans a layer metric sums silently zeroes it."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from smfpca.estimator import data_gram
from smfpca.solver import SaddleSystem

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # run.py imports spans.py as a top-level module from its own directory
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


SPANS = load("spans")
RUN = load("run")
SPAN_NAMES = sorted(
    {name for names in (*RUN.SPAN_TIMES.values(), *RUN.SPAN_COUNTS.values())
     for name in names} | set(RUN.COMPONENT_FITS)
)


@pytest.mark.parametrize(
    "layer, owner, attr", SPANS.EXTRA_TARGETS,
    ids=[".".join(p for p in target if p) for target in SPANS.EXTRA_TARGETS],
)
def test_extra_target_resolves(layer, owner, attr):
    module = importlib.import_module("smfpca." + layer)
    target = getattr(module, owner) if owner else module
    assert callable(getattr(target, attr))


@pytest.mark.parametrize("name", SPANS.NUMERIC_ENTRIES)
def test_numeric_entry_resolves(name):
    layer, attr = name.split(".")
    assert callable(getattr(importlib.import_module("smfpca." + layer), attr))


@pytest.mark.parametrize("name", SPAN_NAMES)
def test_metric_span_is_traced(name):
    # A metric's span exists only for a public module-level function of
    # its layer or for one of the extra targets.
    layer, *path = name.split(".")
    module = importlib.import_module("smfpca." + layer)
    target = module
    for attr in path:
        target = getattr(target, attr)
    assert callable(target)
    extra = {".".join(p for p in t if p) for t in SPANS.EXTRA_TARGETS}
    public = (len(path) == 1 and not path[0].startswith("_")
              and isinstance(target, types.FunctionType)
              and target.__module__ == module.__name__)
    assert public or name in extra


@pytest.mark.parametrize("name", sorted(SPANS._AFTER))
def test_counter_hook_target_resolves(name):
    layer, *path = name.split(".")
    target = importlib.import_module("smfpca." + layer)
    for attr in path:
        target = getattr(target, attr)
    assert callable(target)


def test_factor_hook_counts_matrix_entries(ops1):
    system = SaddleSystem(ops1, data_gram(ops1), 1.0)
    counters = {"system_nnz": 0}
    SPANS._AFTER["solver.SaddleSystem.__init__"](counters, (system,), {}, None)
    assert counters["system_nnz"] == system.matrix.nnz > 0


def test_cli_import_loads_every_layer_and_not_scipy_sparse():
    # `spans.instrument` reads every layer from sys.modules right after
    # importing smfpca.cli, so a layer loaded later fails every benchmark
    # run; scipy.sparse stays out until a command builds an operator.
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys, smfpca.cli; "
            f"print([m for m in {SPANS.LAYERS!r} if 'smfpca.' + m not in sys.modules], "
            "'scipy.sparse' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.split() == ["[]", "False"]


def traced_kfold_metrics(fit_call, names):
    """Run ``fit_call`` (an expression over ``ds`` and ``ops``, a level-1
    sphere, 20 functions) under perfbench's tracing in a new process;
    return the layer metrics ``names`` and the candidates walked."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = f"""
import importlib.util, json, sys
sys.path[:0] = [{str(src)!r}, {str(PERFBENCH)!r}]
import spans
spec = importlib.util.spec_from_file_location("perfbench_run", {str(PERFBENCH / 'run.py')!r})
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)
recorder = spans.Recorder(traced=True)
spans.instrument(recorder)
import numpy as np
from smfpca import (ObservationSet, assemble, fit, fit_missing, unit_sphere_mesh,
                    vertex_locations)
from smfpca.synth import generate_sphere_dataset
mesh = unit_sphere_mesh(1)
ops = assemble(mesh, vertex_locations(mesh))
ds = generate_sphere_dataset(mesh, 20, (4.0, 2.0), 0.3, 21)
result = {fit_call}
report = dict(main_start=0.0, counters=recorder.counters, spans=recorder.spans)
metrics = run.layer_metrics([dict(start=0.0, report=report)], 1.0)
walked = sum(int((~np.isnan(trace.scores)).sum()) for trace in result.selection_traces)
print(json.dumps(dict(walked=walked, **{{name: metrics[name] for name in {names!r}}})))
"""
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, timeout=120).stdout
    return json.loads(out.splitlines()[-1])


def test_kfold_fold_fits_and_warm_starts_reach_the_traced_spans():
    # perfbench derives selection.candidate_fits, estimator.component_fits
    # and estimator.init_count from the estimator.fit_component and
    # estimator.initialize spans, so a dense fold fit or fold warm start
    # that bypassed either would zero its count without an error
    counts = traced_kfold_metrics(
        'fit(ds.X, 2, np.logspace(-8, 1, 10), ops, selection="kfold", folds=4)',
        ("selection.candidate_fits", "estimator.component_fits", "estimator.init_count"))
    folds, components = 4, 2
    assert counts["walked"] >= components
    assert counts["selection.candidate_fits"] == folds * counts["walked"]
    assert counts["estimator.component_fits"] == folds * counts["walked"] + components
    assert counts["estimator.init_count"] == components * (folds + 1)


def test_masked_kfold_fits_grams_and_deflations_reach_the_traced_spans():
    # a masked fit's component fits, Gram builds and deflation are
    # counted and timed through the estimator._fit_component_missing,
    # _MissingState.weighted_gram and _MissingState.deflated spans; work
    # moved out of them would zero those metrics without an error
    counts = traced_kfold_metrics(
        "fit_missing(ObservationSet.from_masked(np.where(np.random.default_rng(3)"
        ".random(ds.X.values.shape) < 0.2, np.nan, ds.X.values), vertex_locations(mesh)), "
        '2, np.logspace(-8, 1, 10), ops, selection="kfold", folds=4)',
        ("estimator.component_fits", "estimator.weighted_gram_s", "estimator.deflate_s"))
    folds, components = 4, 2
    assert counts["walked"] >= components
    assert counts["estimator.component_fits"] == folds * counts["walked"] + components
    assert counts["estimator.weighted_gram_s"] > 0
    assert counts["estimator.deflate_s"] > 0
