"""The benchmark's tracer hooks name functions that exist in probcal.

``bench/tracer.py`` reports a hook whose function is missing as absent
instead of failing, so a rename would silently drop its span from the
benchmark's per-layer figures; this test makes it fail instead.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _hooks():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.HOOKS


@pytest.mark.parametrize("hook", _hooks(), ids=lambda hook: hook.name)
def test_hook_function_exists(hook):
    module = importlib.import_module(hook.module)
    assert callable(getattr(module, hook.function, None)), f"{hook.module}.{hook.function}"
