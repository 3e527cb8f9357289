"""Every name the traced benchmark pass rebinds exists in the package, a
method it times on its class is reached through the class, and the cell
counter it wraps around ``SimplicialSet.__init__`` reads ``dim_of``.

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


def test_every_catalog_constructor_the_trace_labels_exists():
    spans = load_spans()
    catalog = importlib.import_module("repspace.catalog")
    missing = [
        name
        for name in spans.CATALOG_CONSTRUCTORS
        if not callable(getattr(catalog, name, None))
    ]
    assert missing == []


def test_the_cell_counter_reads_one_entry_per_simplex():
    # the traced pass counts the cells of each SimplicialSet it builds as
    # len(dim_of): one entry per nondegenerate simplex of every degree
    catalog = importlib.import_module("repspace.catalog")
    verifier = importlib.import_module("repspace.verifier")
    for X in (
        catalog.circle(),
        catalog.sp_torus(2, 2),
        catalog.torus_conj_quotient(2),
        catalog.sphere_bundle_quotient(3),
        verifier.splitting_factor("hom_circle", 3),
    ):
        assert len(X.dim_of) == sum(X.f_vector()) > 0
        assert all(X.dim_of[sid] == k for k, ids in X.simplices.items() for sid in ids)


def test_quotients_reach_the_action_check_through_its_class(monkeypatch):
    # METHOD_SPANS times SimplicialAction.validate by rebinding it on the
    # class, so a quotient must call it through the class attribute
    spans = load_spans()
    assert ("simplicial", "SimplicialAction", "validate") in spans.METHOD_SPANS
    simplicial = importlib.import_module("repspace.simplicial")
    catalog = importlib.import_module("repspace.catalog")
    original = simplicial.SimplicialAction.validate
    calls = []

    def spy(self, X):
        calls.append(X)
        return original(self, X)

    monkeypatch.setattr(simplicial.SimplicialAction, "validate", spy)
    X, A = catalog.circle_conj()
    simplicial.quotient_by_action(X, A)
    assert calls == [X]
    catalog.sphere_bundle_quotient(2)
    assert len(calls) == 2
