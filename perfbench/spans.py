"""In-memory span recording around the smfpca package's layer boundaries.

A span is ``[name, start, end, parent]``: the qualified function name
(``<layer>.<function>``), two ``time.monotonic()`` readings and the index
of the enclosing span (or -1). ``time.monotonic()`` reads the system-wide
CLOCK_MONOTONIC on Linux, so readings taken in the benchmark process and
in the CLI processes it launches share one time base.

`instrument` replaces functions in every ``smfpca`` module namespace that
holds them, so a caller that looks a function up by module attribute or
by a name imported at module load sees the wrapper. Nothing under the
package's source tree is modified.
"""

import os
import sys
import time
import types

LAYERS = ("cli", "mesh", "fem", "serialize", "solver", "estimator",
          "selection", "synth", "metrics")

# Functions whose first call ends set-up, and whose time is the fit.
NUMERIC_ENTRIES = (
    "estimator.fit", "estimator.fit_missing",
    "synth.generate_sphere_dataset", "synth.generate_eigen_dataset",
    "synth.generate_misaligned_dataset",
    "metrics.evaluate_arrays", "metrics.mv_pca",
)
FIT_ENTRIES = ("estimator.fit", "estimator.fit_missing")

# Private functions and methods traced in addition to the public
# module-level functions: the per-component loops, the factorization
# (the constructor), the solves and the missing-data helpers.
EXTRA_TARGETS = (
    ("estimator", None, "_fit_component_gcv"),
    ("estimator", None, "_fit_component_missing"),
    ("estimator", "_MissingState", "weighted_gram"),
    ("estimator", "_MissingState", "deflated"),
    ("solver", "SaddleSystem", "__init__"),
    ("solver", "SaddleSystem", "solve"),
    ("solver", "SaddleSystem", "solve_many"),
)

_WRITERS = ("serialize.write_json", "serialize.write_data_csv",
            "serialize.write_matrix_csv", "serialize.write_metric_rows")


class Recorder:
    """Spans and counters of one process, kept in memory."""

    def __init__(self, traced):
        self.traced = traced
        self.spans = []
        self.stack = []
        self.counters = {"block_rhs_cols": 0, "system_nnz": 0,
                         "read_bytes": 0, "written_bytes": 0}
        self.first_numeric = None
        self.fit_s = 0.0
        self.on_first_numeric = None

    def wrap(self, name, fn):
        spans = self.spans
        stack = self.stack
        clock = time.monotonic
        numeric = name in NUMERIC_ENTRIES
        is_fit = name in FIT_ENTRIES
        after = _AFTER.get(name)

        def wrapper(*args, **kwargs):
            start = clock()
            if numeric and self.first_numeric is None:
                self.first_numeric = start
                if self.on_first_numeric is not None:
                    self.on_first_numeric()
            index = len(spans)
            spans.append([name, start, None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][2] = end
                if is_fit:
                    self.fit_s += end - start
            if after is not None:
                after(self.counters, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def dump(self):
        return {"spans": self.spans, "counters": self.counters,
                "first_numeric": self.first_numeric, "fit_s": self.fit_s}


def _first_arg(args, kwargs, key):
    return args[0] if args else kwargs.get(key)


def _count_read(counters, args, kwargs, result):
    counters["read_bytes"] += os.path.getsize(_first_arg(args, kwargs, "path"))


def _count_written(counters, args, kwargs, result):
    counters["written_bytes"] += os.path.getsize(_first_arg(args, kwargs, "path"))


def _count_rhs(counters, args, kwargs, result):
    counters["block_rhs_cols"] += int(result[0].shape[1])


def _count_nnz(counters, args, kwargs, result):
    counters["system_nnz"] += int(args[0].matrix.nnz)


_AFTER = {name: _count_written for name in _WRITERS}
_AFTER["serialize.read_data_csv"] = _count_read
_AFTER["solver.SaddleSystem.solve_many"] = _count_rhs
_AFTER["solver.SaddleSystem.__init__"] = _count_nnz


def instrument(recorder):
    """Wrap the set-up and fit entry points, and with tracing on every
    public function of each layer plus `EXTRA_TARGETS`."""
    import smfpca.cli  # noqa: F401  (imports every layer)

    wrappers = {}
    for layer in LAYERS:
        module = sys.modules["smfpca." + layer]
        for attr, obj in vars(module).items():
            name = f"{layer}.{attr}"
            if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                    and obj.__module__ == module.__name__
                    and (recorder.traced or name in NUMERIC_ENTRIES)):
                wrappers[obj] = recorder.wrap(name, obj)
    # Rebind every module-level name bound to a wrapped function, which
    # covers names imported with ``from .module import function``.
    for module_name, module in list(sys.modules.items()):
        if module_name == "smfpca" or module_name.startswith("smfpca."):
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
    if not recorder.traced:
        return
    for layer, owner, attr in EXTRA_TARGETS:
        module = sys.modules["smfpca." + layer]
        target = getattr(module, owner) if owner else module
        name = ".".join(p for p in (layer, owner, attr) if p)
        setattr(target, attr, recorder.wrap(name, getattr(target, attr)))


# -- analysis --------------------------------------------------------------


def _union_length(intervals):
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Each closed span's duration minus the part its children cover."""
    children = [[] for _ in spans]
    for name, start, end, parent in spans:
        if parent >= 0 and end is not None:
            children[parent].append((start, end))
    out = []
    for (name, start, end, parent), kids in zip(spans, children):
        if end is None:
            continue
        out.append((name, (end - start) - _union_length(kids)))
    return out


def layer_of(name):
    return name.split(".", 1)[0]
