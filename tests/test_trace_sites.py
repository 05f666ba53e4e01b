"""The benchmark tracer's wrap sites still name callables in the package."""

import importlib
import importlib.util
from pathlib import Path

import monodroma

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_span_site_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for name, sites in spans.SPAN_SITES.items():
        for module_name, attr in sites:
            if module_name == "shapes":  # the benchmark's own module, not the package
                continue
            if not callable(getattr(importlib.import_module(module_name), attr, None)):
                missing.append(f"{module_name}.{attr} (span {name})")
    assert not missing


def test_check_path_spans_fire(monkeypatch):
    """A traced check request reaches the stage spans that certify calls:
    a refactor that routes around them would read 0 in the benchmark."""
    monkeypatch.syspath_prepend(str(SPANS.parent))
    import shapes
    import spans

    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.request(shapes.check_request, monodroma, "f = x + x^3; g = y + x^2")
        counts = tracer.take_pass()["counts"]
    finally:
        tracer.uninstall()
    for name in ("field.hamiltonian_field.calls", "diagram.build_diagram.calls",
                 "diagram.newton_chain.calls", "diagram.edge_hamiltonian.calls",
                 "diagram.support_points"):
        assert counts.get(name, 0) > 0, name
