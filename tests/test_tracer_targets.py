"""The benchmark tracer wraps functions by name; every name must resolve."""
import importlib
import types
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_targets():
    # executed from its source text, so no bytecode is written next to it
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module.TARGETS


TARGETS = load_targets()


@pytest.mark.parametrize("target", TARGETS, ids=[t[2] for t in TARGETS])
def test_tracer_target_resolves(target):
    module_name, attr = target[:2]
    module = importlib.import_module(module_name)
    if "." in attr:
        # methods are patched on the class that defines them
        cls_name, method = attr.split(".")
        assert method in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))
