"""Every name the traced benchmark pass rebinds exists in the package.

``perfbench/spans.py`` wraps package functions by name from outside, so
deleting or renaming one would only show when a traced run fails.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_trace_rebinds_exists():
    spans = load_spans()
    modules = {m: importlib.import_module(f"repspace.{m}") for m in spans.MODULES}
    assert set(spans.SPANS) <= set(modules)
    for mod_name, names in spans.SPANS.items():
        for name in names:
            assert callable(getattr(modules[mod_name], name, None)), (mod_name, name)
    assert set(spans.CATALOG_CONSTRUCTORS) <= set(spans.SPANS["catalog"])
    for mod_name, cls_name, method in spans.METHOD_SPANS:
        cls = getattr(modules[mod_name], cls_name)
        assert callable(getattr(cls, method, None)), (cls_name, method)
    assert callable(modules["catalog"].resolve)
    assert "__init__" in vars(modules["simplicial"].SimplicialSet)
