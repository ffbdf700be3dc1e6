"""The benchmark's span tracer (perfbench/tracer.py) wraps package
functions by name; a renamed function would silently read 0 in its
per-layer metrics, so each named call site must resolve."""
import pathlib
import types

import pytest

TRACER_PATH = (pathlib.Path(__file__).resolve().parent.parent
               / "perfbench" / "tracer.py")


def load_tracer():
    """The tracer module, executed from its source without writing a
    bytecode cache next to it."""
    module = types.ModuleType("perfbench_tracer")
    source = TRACER_PATH.read_text(encoding="utf-8")
    exec(compile(source, str(TRACER_PATH), "exec"), module.__dict__)
    return module


TRACER = load_tracer()
CALL_SITES = [(layer, module, path)
              for layer, sites in TRACER.LAYERS.items()
              for module, path in sites]


@pytest.mark.parametrize("layer,module,path", CALL_SITES)
def test_layer_call_site_resolves(layer, module, path):
    resolved = TRACER._resolve_owner(module, path)
    assert resolved is not None, f"{layer}: {module}.{path} not found"
    owner, attr = resolved
    assert callable(getattr(owner, attr))
