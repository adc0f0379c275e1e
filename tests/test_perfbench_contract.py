"""The benchmark harness wraps private package names that no public API
pins down; renaming or removing one makes every benchmark run crash."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_spans()


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
