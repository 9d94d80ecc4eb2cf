import importlib
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def refuse_test_sets(monkeypatch):
    """Make every route to a test set raise: ``reps._test_vectors`` and each
    module's binding of the path grower ``path_layers`` and of the boundary
    layers ``vector_layers`` built on it."""
    def refuse(*args, **kwargs):
        raise AssertionError("a test set was built")

    reps, graph, boundary = (importlib.import_module(f"graphck.{name}")
                             for name in ("reps", "graph", "boundary"))
    for module, name in ((reps, "_test_vectors"), (reps, "path_layers"), (reps, "vector_layers"),
                         (graph, "path_layers"), (boundary, "path_layers"),
                         (boundary, "vector_layers")):
        monkeypatch.setattr(module, name, refuse)
