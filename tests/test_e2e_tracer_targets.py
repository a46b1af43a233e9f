"""Every target of the end-to-end benchmark's span tracer still resolves.

``benchmarks/e2e/tracer.py`` wraps the program's layer functions by name
(``METHODS``, ``SERVER_ROOTS``, ``FUNCTIONS``), and its ``install``
resolves each class with ``getattr``: a renamed or deleted class crashes
every ``--trace 1`` run.  These tests load the tracer by path, as its
smoke test does (with ``benchmarks/e2e`` on ``sys.path``), so such a
change fails here first.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"

#: Traced methods whose class no longer defines them; the tracer skips
#: them, and the next benchmark change drops their rows.
STALE_ROWS = {
    ("StreamingTopTalkers", "merge"),
    ("SketchTier", "advance"),
    ("SignatureIndex", "add_all"),
}


@pytest.fixture(scope="module")
def tracer():
    before = set(sys.modules)
    sys.path.insert(0, str(E2E))
    try:
        spec = importlib.util.spec_from_file_location("e2e_tracer", E2E / "tracer.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(E2E))
        # The tracer's own helper module (``common``) is not the program's.
        for name in {"common"} - before:
            sys.modules.pop(name, None)
    return module


def resolve(module: str, name: str):
    return getattr(importlib.import_module(module), name, None)


def test_every_traced_class_and_function_resolves(tracer):
    for module, cls, _method, _span in tracer.METHODS + tracer.SERVER_ROOTS:
        assert inspect.isclass(resolve(module, cls)), f"{module}.{cls}"
    for module, function, _span in tracer.FUNCTIONS:
        assert inspect.isfunction(resolve(module, function)), f"{module}.{function}"


def test_only_the_known_stale_methods_are_missing(tracer):
    missing = {
        (cls, method)
        for module, cls, method, _span in tracer.METHODS + tracer.SERVER_ROOTS
        if not hasattr(resolve(module, cls), method)
    }
    assert missing == STALE_ROWS


def test_install_wraps_and_uninstall_restores(tracer):
    histogram = resolve("repro.obs.registry", "Histogram")
    original = vars(histogram)["observe"]
    spans = tracer.Tracer()
    try:
        tracer.install(spans, server_roots=True)
        assert vars(histogram)["observe"] is not original
    finally:
        spans.uninstall()
    assert vars(histogram)["observe"] is original
