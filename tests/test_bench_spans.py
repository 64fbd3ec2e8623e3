import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("target", load_spans().TARGETS, ids=lambda t: t[0])
def test_traced_target_resolves(target):
    # the tracer wraps each target by module and attribute path
    _, module_name, path, _ = target
    owner = importlib.import_module(f"hessball.{module_name}")
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    assert callable(owner.__dict__[attr] if owners else getattr(owner, attr))
