"""``bench/tracing.py`` wraps graphck functions by module and name.  Renaming
or removing one of them, or dropping the ``lru_cache`` whose ``cache_info``
it reads, breaks the traced benchmark runs; this test makes that a test
failure, and checks that ``uninstall`` puts every original back."""

import importlib.util
import pathlib
import sys

import graphck.cli  # noqa: F401  (the tracer wraps the graphck modules already loaded)

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _target(mod_name, attr):
    home = sys.modules[f"graphck.{mod_name}"]
    if "." in attr:
        cls_name, meth = attr.split(".")
        return vars(getattr(home, cls_name))[meth]
    return getattr(home, attr)


def _bindings():
    return {(name, key): value for name, mod in sys.modules.items()
            if name == "graphck" or name.startswith("graphck.")
            for key, value in vars(mod).items()}


def test_tracer_wraps_every_spec_target_and_restores_it():
    tracing = _load_tracing()
    originals = {(mod, attr): _target(mod, attr) for mod, attr, *_ in tracing.SPEC}
    before = _bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (mod, attr), fn in originals.items():
            assert _target(mod, attr).__wrapped__ is fn, (mod, attr)
    finally:
        tracer.uninstall()
    for (mod, attr), fn in originals.items():
        assert _target(mod, attr) is fn, (mod, attr)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
