"""Every name the benchmark's tracer wraps resolves in the package.

perfbench/tracing.py wraps the functions in SPANNED and counts the methods in
COUNTED_METHODS by name; a name the package no longer has fails its install.
The tracer is loaded by path, as a plain module, and is not imported into the
package."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from wigreg import exact

TRACING_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("module, name", [(module, name)
                                          for module, names in tracing.SPANNED.items()
                                          for name in names])
def test_spanned_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"wigreg.{module}"), name, None))


@pytest.mark.parametrize("cls_name, method", [(cls_name, method)
                                              for cls_name, methods in tracing.COUNTED_METHODS.values()
                                              for method in methods])
def test_counted_method_resolves(cls_name, method):
    assert callable(vars(getattr(exact, cls_name)).get(method))
