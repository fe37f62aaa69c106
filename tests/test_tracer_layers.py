"""The benchmark's traced mode wraps functions by name; every name must exist.

perfbench/tracer.py imports only the standard library, so it is loaded by
file path here without running anything.  A renamed or deleted function
would otherwise surface only as a crash of `perfbench/run.py --trace 1`.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import chernbounds

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced_functions():
    """(module name, function name, the module's binding) for every traced name."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    out = []
    for module_name, names in tracer.LAYERS.values():
        module = importlib.import_module(f"chernbounds.{module_name}")
        out += [(module_name, name, getattr(module, name, None)) for name in names]
    return out


def test_every_traced_function_exists():
    missing = [f"{module}.{name}" for module, name, fn in _traced_functions() if not callable(fn)]
    assert missing == []


def test_no_alias_wraps_a_traced_function():
    # The tracer swaps only bindings identical to the traced function, so a
    # decorated alias such as functools.cache(f) keeps calling f untraced.
    traced = {id(fn): f"{module}.{name}" for module, name, fn in _traced_functions()}
    aliases = []
    for info in pkgutil.iter_modules(chernbounds.__path__):
        module = importlib.import_module(f"chernbounds.{info.name}")
        for attr, value in vars(module).items():
            wrapped = getattr(value, "__wrapped__", None)
            if wrapped is not None and id(wrapped) in traced:
                aliases.append(f"{info.name}.{attr} wraps {traced[id(wrapped)]}")
    assert aliases == []
