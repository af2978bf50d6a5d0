"""The benchmark's layer tracer (``perfbench/layers.py``) wraps fairmatch
functions it looks up by module and name, so renaming or moving one of them
breaks every traced benchmark run.  This test names the lookup that fails."""

import importlib
import importlib.util
from pathlib import Path


def test_every_traced_layer_names_a_fairmatch_function():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.TARGETS
    for module, function, _, _ in layers.TARGETS:
        target = getattr(importlib.import_module(module), function, None)
        assert callable(target), f"{module}.{function} is traced but does not exist"
