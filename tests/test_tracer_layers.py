"""The benchmark's traced mode wraps functions by name; every name must exist.

perfbench/tracer.py imports only the standard library, so it is loaded by
file path here without running anything.  A renamed or deleted function
would otherwise surface only as a crash of `perfbench/run.py --trace 1`.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module_name, names in tracer.LAYERS.values():
        module = importlib.import_module(f"chernbounds.{module_name}")
        missing += [f"{module_name}.{name}" for name in names if not callable(getattr(module, name, None))]
    assert tracer.LAYERS
    assert missing == []
